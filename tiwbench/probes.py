"""Where the traced run measures tiwlab, and the per-module metrics it yields.

Every probe wraps a public function or method of one tiwlab module from
the outside (see tracer.py). Functions are wrapped under each name a
tiwlab module binds them to: ``tiwlab.ratio`` imports the per-row mixture
functions by name, while ``mixture`` and ``metrics`` reach the kernels
through the ``kernels`` module, and the CLI imports most entry points by
name.
"""

import os
import statistics

import numpy as np

# (name, unit); every per-module metric is better when lower
PER_LAYER = [
    ("net.forward.self_s", "s"),
    ("net.forward.calls", "count"),
    ("net.forward.rows", "count"),
    ("net.forward.mflop", "Mflop_computed"),
    ("net.param_gradient.self_s", "s"),
    ("net.param_gradient.calls", "count"),
    ("net.input_gradient.self_s", "s"),
    ("net.input_gradient.calls", "count"),
    ("net.adam_step.self_s", "s"),
    ("net.adam_step.calls", "count"),
    ("net.save_net.s", "s"),
    ("net.load_net.s", "s"),
    ("ratio.train_discriminator.self_s", "s"),
    ("ratio.train_discriminator.steps", "count"),
    ("ratio.accessors.self_s", "s"),
    ("ratio.net_passes_per_score_step", "count"),
    ("objectives.step_ms.tiw_dsm", "ms"),
    ("objectives.step_ms.iw_dsm", "ms"),
    ("objectives.step_ms.dsm", "ms"),
    ("objectives.tiw_over_dsm", "ratio"),
    ("objectives.train_score.self_s", "s"),
    ("objectives.loss_sm_oracle.self_s", "s"),
    ("objectives.mc_loss_gradient.self_s", "s"),
    ("objectives.mc_loss_gradient.rows", "count"),
    *[(f"kernels.{fn}.{m}", u) for fn in ("gm_logpdf", "gm_score", "gm_posterior")
      for m, u in (("self_s", "s"), ("calls", "count"), ("rows", "count"))],
    *[(f"mixture.{fn}.{m}", u)
      for fn in ("perturbed_log_density_batch", "perturbed_score_batch")
      for m, u in (("self_s", "s"), ("calls", "count"), ("rows", "count"))],
    ("mixture.perturb.calls", "count"),
    ("kernels.pairwise_mean_dist.self_s", "s"),
    ("kernels.pairwise_mean_dist.pairs", "count"),
    ("sde.reverse_generate.self_s", "s"),
    ("sde.score_evals", "count"),
    ("sde.forward_sample.self_s", "s"),
    ("sde.forward_sample.calls", "count"),
    ("sde.alpha_sigma.calls", "count"),
    ("sampling.write_samples_csv.s", "s"),
    ("sampling.write_samples_csv.bytes", "bytes"),
    ("sampling.read_samples_csv.s", "s"),
    ("sampling.read_samples_csv.bytes", "bytes"),
    ("metrics.energy_distance.self_s", "s"),
    ("config.import_s", "s"),
    ("config.load_config.s", "s"),
    ("trace_overhead_frac", "fraction"),
]

RATIO_ACCESSORS = ("logit", "log_ratio_w", "ratio_w", "ratio_tilde",
                   "ratio_tilde_alpha", "grad_log_w", "grad_log_tilde")
SCORE_KINDS = ("tiw_dsm", "iw_dsm", "dsm")
# from the fresh-interpreter setup probe and from the untraced runs
MEASURED_ELSEWHERE = ("config.import_s", "config.load_config.s", "trace_overhead_frac")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x):
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _count_rows(prefix, index, name):
    def before(tr, args, kwargs):
        tr.count(prefix + ".rows", _rows(_arg(args, kwargs, index, name)))
    return before


def _forward_before(tr, args, kwargs):
    net, x = args[0], _arg(args, kwargs, 1, "x")
    rows = _rows(x)
    tr.count("net.forward.rows", rows)
    macs = sum(a * b for a, b in zip(net.widths[:-1], net.widths[1:]))
    tr.count("net.forward.mflop", 2.0 * rows * macs / 1e6)
    if tr.open["ratio.accessors"]:
        tr.count("ratio.net_passes")


def _input_gradient_before(tr, args, kwargs):
    if tr.open["ratio.accessors"]:
        tr.count("ratio.net_passes")


def _written_bytes(tr, args, kwargs, result):
    tr.count("sampling.write_samples_csv.bytes",
             os.path.getsize(_arg(args, kwargs, 0, "path")))


def _read_bytes(tr, args, kwargs):
    tr.count("sampling.read_samples_csv.bytes",
             os.path.getsize(_arg(args, kwargs, 0, "path")))


def _counting_train_score(tr, train_score):
    """Per objective kind: steps, seconds, and discriminator passes."""
    def counted(data, spec, sched, cfg):
        start, passes = tr.clock(), tr.counts["ratio.net_passes"]
        net = train_score(data, spec, sched, cfg)
        tr.count(f"objectives.steps.{spec.kind}", cfg.steps)
        tr.count(f"objectives.step_s.{spec.kind}", tr.clock() - start)
        tr.count(f"ratio.passes.{spec.kind}", tr.counts["ratio.net_passes"] - passes)
        return net
    return counted


def _counting_reverse_generate(tr, reverse_generate):
    """Counts score evaluations by wrapping the callback the sampler gets."""
    def counted(sched, score_fn, spec, n, dim):
        def score(X, t):
            tr.count("sde.score_evals")
            return score_fn(X, t)
        return reverse_generate(sched, score, spec, n, dim)
    return counted


def install(tr):
    """Patch every probe into tiwlab; tr.restore() takes them out again."""
    # cli binds most entry points by name, so it must be imported first
    from tiwlab import (cli, kernels, metrics, mixture, net,  # noqa: F401
                        objectives, ratio, sampling, sde)

    def function(module, attr, name, before=None, after=None, adapt=None):
        fn = getattr(module, attr)
        inner = adapt(tr, fn) if adapt else fn
        tr.patch_function(module, attr, tr.wrap(name, inner, before, after))

    tr.patch_method(net.Mlp, "forward", "net.forward", before=_forward_before)
    tr.patch_method(net.Mlp, "param_gradient", "net.param_gradient")
    tr.patch_method(net.Mlp, "input_gradient", "net.input_gradient",
                    before=_input_gradient_before)
    for attr in ("adam_step", "save_net", "load_net"):
        function(net, attr, f"net.{attr}")

    for attr in RATIO_ACCESSORS:
        tr.patch_method(ratio.RatioModel, attr, "ratio.accessors")
    function(ratio, "train_discriminator", "ratio.train_discriminator",
             after=lambda t, a, k, model: t.count("ratio.train_discriminator.steps",
                                                  model.train_report["steps"]))

    function(objectives, "train_score", "objectives.train_score",
             adapt=_counting_train_score)
    function(objectives, "loss_sm_oracle", "objectives.loss_sm_oracle")
    function(objectives, "mc_loss_gradient", "objectives.mc_loss_gradient",
             before=lambda t, a, k: t.count("objectives.mc_loss_gradient.rows",
                                            _arg(a, k, 4, "n")))

    for attr in ("gm_logpdf", "gm_score", "gm_posterior"):
        function(kernels, attr, f"kernels.{attr}", before=_count_rows(f"kernels.{attr}", 0, "X"))
    function(kernels, "pairwise_mean_dist", "kernels.pairwise_mean_dist",
             before=lambda t, a, k: t.count("kernels.pairwise_mean_dist.pairs",
                                            _rows(a[0]) * _rows(a[1])))
    for attr in ("perturbed_log_density_batch", "perturbed_score_batch"):
        function(mixture, attr, f"mixture.{attr}",
                 before=_count_rows(f"mixture.{attr}", 2, "X"))
    tr.patch_method(mixture.GaussianMixture, "perturb", None,
                    before=lambda t, a, k: t.count("mixture.perturb.calls"))

    function(sde, "reverse_generate", "sde.reverse_generate",
             adapt=_counting_reverse_generate)
    tr.patch_method(sde.VpSchedule, "forward_sample", "sde.forward_sample")
    tr.patch_method(sde.VpSchedule, "alpha_sigma", None,
                    before=lambda t, a, k: t.count("sde.alpha_sigma.calls"))

    function(sampling, "write_samples_csv", "sampling.write_samples_csv",
             after=_written_bytes)
    function(sampling, "read_samples_csv", "sampling.read_samples_csv",
             before=_read_bytes)
    function(metrics, "energy_distance", "metrics.energy_distance")


def layer_metrics(tr):
    """The PER_LAYER values one traced run yields; config.* and
    trace_overhead_frac come from elsewhere and are left out."""
    spans = tr.summary()
    counts = tr.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, _ in PER_LAYER:
        if name in MEASURED_ELSEWHERE:
            continue
        prefix, _, field = name.rpartition(".")
        span = spans.get(prefix, zero)
        if field == "self_s":
            out[name] = span["self_s"]
        elif field == "s":
            out[name] = span["total_s"]
        elif field == "calls" and prefix in spans:
            out[name] = span["calls"]
        else:
            out[name] = counts.get(name, 0)

    def per_step_ms(kind):
        steps = counts.get(f"objectives.steps.{kind}", 0)
        return 1e3 * counts[f"objectives.step_s.{kind}"] / steps if steps else 0.0

    for kind in SCORE_KINDS:
        out[f"objectives.step_ms.{kind}"] = per_step_ms(kind)
    dsm = out["objectives.step_ms.dsm"]
    out["objectives.tiw_over_dsm"] = out["objectives.step_ms.tiw_dsm"] / dsm if dsm else 0.0
    tiw_steps = counts.get("objectives.steps.tiw_dsm", 0)
    out["ratio.net_passes_per_score_step"] = (
        counts["ratio.passes.tiw_dsm"] / tiw_steps if tiw_steps else 0.0)
    return out


def median_metrics(runs):
    """Per-metric median over several layer_metrics() results."""
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
