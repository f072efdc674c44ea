"""Command-line experiment orchestration.

Every subcommand is a pure function of (config, seeds): given the same
config file and overrides it reproduces its CSV/JSON outputs byte for
byte. Commands compose through files in the configured output directory:

    gen-data     bias.csv, ref.csv
    train-disc   disc.ckpt (or disc_t0.ckpt with --time-independent)
    train-score  score_<name>.ckpt, telemetry_<name>.csv
    sample       samples.csv, provenance.json
    eval         eval.csv
    repro-fig2   dre_curve.csv, dre_summary.json
    debias       per-baseline subruns, eval_rows.csv, report.json
    sweep-alpha  per-alpha subruns, alpha_sweep.csv, identity_checks.txt

A score run is a value (Run); debias and sweep-alpha are lists of runs
through one pipeline (_score_runs), so a sweep-alpha run takes the
configured stream and lambda (_objective_spec), as a debias run does.
_disc_read alone decides which discriminator a run reads; a score source is
a value (sampling.checkpoint_score or mixture_score), picked in cmd_sample.

Three commands fan their stages out over worker processes, one per
available core (see workers.parallel_map). debias and sweep-alpha run one
pool, discriminators and their readers first: the learned discriminators,
then the score runs (train, sample, eval) that wait on the one they read,
then the runs that read none, each starting as soon as a worker is free
and what it reads is saved. repro-fig2 fans out its two discriminators.
Each worker runs on one BLAS thread: the stages are small-batch work that
a second BLAS thread does not speed up, and on 2 cores a short debias
--all-baselines took 4-24 s with two workers of two BLAS threads each,
against 1.5 s with one thread each. Workers return plain data (report
fragments, evaluation rows, checkpoint paths), never specs or nets; the
parent merges the fragments in table order, so the outputs and stdout are
those of an in-process run. Stage seconds are measured inside the workers,
so their sum can exceed the wall time; report.json records the number of
stage processes as "workers". Sampling fans its trajectories out over the
cores in row chunks (sde.reverse_generate) unless it already runs in a
worker, as the score runs of a multi-run debias or sweep-alpha do; stages
that can only run one after another (a single-baseline debias: its
discriminator, then its run) run in-process, so they fan out their
sampling. Probes that wrap library functions in the parent (tiwbench
--trace 1) do not see the work done in workers.
"""

import argparse
import sys
from collections import namedtuple
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, artifacts, workers
from .config import (
    ExperimentConfig,
    RunReport,
    StageTimer,
    config_hash,
    load_config,
)
from .errors import EXIT_CODES, InputError, NumericalError, TiwlabError
from .metrics import evaluate_samples, mean_self_distance
from .net import Mlp, save_net
from .objectives import RATIO_READERS, ObjectiveSpec, persample_loss, train_score
from .ratio import (
    DatasetSplit,
    integrated_dre_error,
    load_ratio_model,
    oracle_ratio_model,
    save_ratio_model,
    train_discriminator,
)
from .sampling import checkpoint_score, generate, mixture_score, read_samples_csv, write_samples_csv

# named baseline -> the objective fields it sets: no baseline takes
# objective.alpha, and iw_dsm and tiw_dsm keep objective.stream
BASELINES = {"dsm_ref": dict(kind="dsm", stream="ref", alpha=1.0),
             "dsm_obs": dict(kind="dsm", stream="obs", alpha=1.0),
             "iw_dsm": dict(kind="iw_dsm", alpha=1.0), "tiw_dsm": dict(kind="tiw_dsm", alpha=1.0)}
# discriminator checkpoint, keyed by time independence
DISC_CKPT = {False: "disc.ckpt", True: "disc_t0.ckpt"}
SCORE_CKPT = "score_{}.ckpt"  # per objective name, for train-score and sample
# a score run: its label (stage names, metrics, stdout), its subdirectory of
# output_dir, the objective name its checkpoint records and the objective
# fields it sets over the configured section (see _objective_spec)
Run = namedtuple("Run", "label sub objective fields")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_split(cfg: ExperimentConfig) -> DatasetSplit:
    out = cfg.output_dir
    bias_path, ref_path = out / "bias.csv", out / "ref.csv"
    if not bias_path.exists() or not ref_path.exists():
        raise InputError(
            f"training data not found under {out} (run gen-data first)")
    return DatasetSplit(bias_points=read_samples_csv(bias_path),
                        ref_points=read_samples_csv(ref_path))


def _disc_read(cfg: ExperimentConfig, kind):
    """The time independence (see RATIO_READERS) of the learned discriminator
    an objective kind reads, or None: it reads no ratio, or the oracle's."""
    return None if cfg.raw["objective"]["ratio"] == "oracle" else RATIO_READERS.get(kind)


def _ratio_for(cfg: ExperimentConfig, kind):
    """The ratio model an objective kind reads: the discriminator _disc_read
    names, else the oracle, or None if it reads none."""
    if kind not in RATIO_READERS:
        return None
    t0 = _disc_read(cfg, kind)
    if t0 is None:
        return oracle_ratio_model(cfg.mixture("data"), cfg.mixture("bias"), cfg.schedule)
    path = cfg.output_dir / DISC_CKPT[t0]
    if not path.exists():
        raise InputError(f"discriminator checkpoint {path} not found "
                         f"(run train-disc{' --time-independent' if t0 else ''} first)")
    return load_ratio_model(path, cfg.schedule, cfg.mixture("data").dim)


def _objective_spec(cfg: ExperimentConfig, **fields) -> ObjectiveSpec:
    """The configured objective section with fields replaced, and the ratio
    model its kind reads."""
    values = {**cfg.section("objective"), **fields}
    del values["ratio"]  # the ratio's kind, which _ratio_for reads
    return ObjectiveSpec(**values, ratio=_ratio_for(cfg, values["kind"]))


def _train_disc(cfg: ExperimentConfig, split, time_independent):
    """Train one discriminator and save it under its checkpoint name."""
    path = cfg.output_dir / DISC_CKPT[time_independent]
    rm = train_discriminator(split, cfg.schedule, cfg.disc_train_config(time_independent))
    save_ratio_model(rm, path)
    return rm, path


def _disc_stage(cfg: ExperimentConfig, split, time_independent, report):
    stem = Path(DISC_CKPT[time_independent]).stem
    with StageTimer(report, f"train-{stem.replace('_', '-')}"):
        _, path = _train_disc(cfg, split, time_independent)
    report.checkpoints[stem] = str(path)
    report.add_artifact(path)


def _gen_split(cfg: ExperimentConfig) -> DatasetSplit:
    """Sample and write bias.csv and ref.csv; returns the split, which the
    CSV round-trips (repr of float64) to what _load_split reads back."""
    out = cfg.output_dir
    bias = cfg.mixture("bias").sample(cfg.raw["split"]["n_bias"],
                                      seed=[cfg.seeds["data"], 0])
    ref = cfg.mixture("data").sample(cfg.raw["split"]["n_ref"],
                                     seed=[cfg.seeds["data"], 1])
    write_samples_csv(out / "bias.csv", bias)
    write_samples_csv(out / "ref.csv", ref)
    print(f"wrote {out / 'bias.csv'} ({bias.shape[0]} rows) and "
          f"{out / 'ref.csv'} ({ref.shape[0]} rows)")
    return DatasetSplit(bias_points=bias, ref_points=ref)


def _gen_data_stage(cfg, report):
    """gen-data as a timed pipeline stage; returns the split it wrote."""
    with StageTimer(report, "gen-data"):
        split = _gen_split(cfg)
    for name in ("bias.csv", "ref.csv"):
        report.add_artifact(cfg.output_dir / name)
    return split


def _generate_samples(cfg, source, out_dir):
    return generate(source, cfg.schedule, cfg.sampler_spec(), cfg.raw["eval"]["n_samples"],
                    out_dir)


def _shared_reference(cfg):
    """The oracle reference and its self-distance: eval's, and once for every
    score run."""
    ref = cfg.mixture("data").sample(cfg.raw["eval"]["n_oracle"], seed=cfg.seeds["eval"])
    return ref, mean_self_distance(ref)


def _score_run(cfg, split, run, oracle, report):
    """Train run's score network on its objective into its subdirectory,
    sample from it, evaluate the samples against oracle, a _shared_reference."""
    label, sub = run.label, cfg.output_dir / run.sub
    telemetry, ckpt = sub / "telemetry.csv", sub / "score.ckpt"
    spec = _objective_spec(cfg, **run.fields)  # loads the discriminator it reads
    with StageTimer(report, f"train-score[{label}]"):
        net = train_score(split, spec, cfg.schedule, cfg.score_train_config(telemetry))
    save_net(net, ckpt, extra={"role": "score", "objective": run.objective})
    with StageTimer(report, f"sample[{label}]"):
        samples, _ = _generate_samples(cfg, checkpoint_score(ckpt, f"{run.sub}/score.ckpt"),
                                       sub)
    with StageTimer(report, f"eval[{label}]"):
        ref, ref_self = oracle
        ev = evaluate_samples(samples, ref, cfg.mixture("data"), notes=label,
                              oracle_self=ref_self)
    report.checkpoints[label] = str(ckpt)
    # train_score writes the telemetry only when its rows are on
    written = [telemetry] if cfg.raw["score_train"]["telemetry_every"] else []
    for path in (ckpt, *written, sub / "samples.csv", sub / "provenance.json"):
        report.add_artifact(path)
    report.metrics.append({"label": label, "bias": ev.bias,
                           "proportions": ev.proportions.tolist(),
                           "energy_distance": ev.energy_distance})
    return ev


def _score_runs(cfg: ExperimentConfig, runs):
    """gen-data, then one parallel_map over the learned discriminators the
    runs read and each run's _score_run: the discriminators, the runs that
    wait on one, then the runs that read none. Returns the report
    (unwritten), with its fragments in table order, the split and the rows."""
    report = RunReport(config_hash=config_hash(cfg), library_version=__version__)
    split = _gen_data_stage(cfg, report)
    kind = cfg.raw["objective"]["kind"]
    reads = [_disc_read(cfg, run.fields.get("kind", kind)) for run in runs]
    t0s = sorted({t0 for t0 in reads if t0 is not None})
    order = sorted(range(len(runs)), key=lambda i: reads[i] is None)
    oracle = _shared_reference(cfg)
    stages = ([partial(_disc_stage, cfg, split, t0) for t0 in t0s]
              + [partial(_score_run, cfg, split, runs[i], oracle) for i in order])
    after = {len(t0s) + k: [t0s.index(reads[i])]
             for k, i in enumerate(order) if reads[i] is not None}

    def run(stage):  # stages return plain data: a report fragment and a value
        part = RunReport(report.config_hash, report.library_version)
        return part, stage(part)

    results, report.workers = workers.parallel_map(run, stages, after)
    ran = dict(zip(order, results[len(t0s):]))  # back to table order
    results[len(t0s):] = [ran[i] for i in range(len(runs))]
    for part, _ in results:
        report.extend(part)
    return report, split, [value for _, value in results[len(t0s):]]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: ExperimentConfig):
    _gen_split(cfg)
    return 0


def cmd_train_disc(cfg: ExperimentConfig, time_independent=False):
    rm, path = _train_disc(cfg, _load_split(cfg), time_independent)
    heldout = rm.train_report.get("heldout_tbce")
    print(f"wrote {path}; train BCE {rm.train_report['final_train_bce']:.4f}, "
          f"held-out T-BCE {heldout if heldout == heldout else 'not evaluated'}")
    return 0


def cmd_train_score(cfg: ExperimentConfig, baseline=None):
    split = _load_split(cfg)
    spec = _objective_spec(cfg, **BASELINES.get(baseline, {}))
    name = baseline or spec.kind
    out = cfg.output_dir
    telemetry = out / f"telemetry_{name}.csv"
    net = train_score(split, spec, cfg.schedule, cfg.score_train_config(telemetry))
    path = out / SCORE_CKPT.format(name)
    save_net(net, path, extra={"role": "score", "objective": name})
    print(f"wrote {path}")
    return 0


def cmd_sample(cfg: ExperimentConfig, source=None):
    out, dim = cfg.output_dir, cfg.mixture("data").dim
    if source in (None, "score"):
        name = SCORE_CKPT.format(cfg.raw["objective"]["kind"])
        if not (out / name).exists():
            raise InputError(f"score checkpoint {out / name} not found (run train-score)")
        src = checkpoint_score(out / name, name, dim)
    elif source in ("oracle-data", "oracle-bias"):
        src = mixture_score(cfg.mixture(source.removeprefix("oracle-")), cfg.schedule, source)
    else:
        src = checkpoint_score(source, source, dim)
    _, prov = _generate_samples(cfg, src, out)
    print(f"wrote {out / 'samples.csv'} (source hash {prov['source_hash'][:12]})")
    return 0


def cmd_eval(cfg: ExperimentConfig, samples_path=None, label="run"):
    # eval.csv cells are written unquoted
    if any(c in label for c in ',"\r\n'):
        raise InputError(f"--label {label!r} must not contain a comma, a double "
                         "quote or a line break")
    out = cfg.output_dir
    samples = read_samples_csv(samples_path or out / "samples.csv")
    ref, ref_self = _shared_reference(cfg)
    report = evaluate_samples(samples, ref, cfg.mixture("data"), notes=label,
                              oracle_self=ref_self)
    artifacts.write_csv(out / "eval.csv", report.csv_header(), [report.csv_row()])
    print(f"bias {report.bias:.4f}, proportions "
          f"{np.array2string(report.proportions, precision=4)}, "
          f"energy distance {report.energy_distance:.5f}")
    return 0


def cmd_repro_fig2(cfg: ExperimentConfig):
    """Ratio-error curve of time-dependent vs single-time discriminators."""
    out = cfg.output_dir
    split = _load_split(cfg)
    # the workers return checkpoint paths; a saved net loads back bit for bit
    paths, _ = workers.parallel_map(lambda t0: _train_disc(cfg, split, t0)[1], [False, True])
    rm_dep, rm_indep = (load_ratio_model(path, cfg.schedule) for path in paths)
    oracle = oracle_ratio_model(cfg.mixture("data"), cfg.mixture("bias"), cfg.schedule)
    scan = integrated_dre_error(rm_dep, rm_indep, oracle,
                                np.asarray(cfg.raw["eval"]["dre_grid"]),
                                n=cfg.raw["eval"]["dre_n"],
                                seed=cfg.seeds["eval"])
    artifacts.write_csv(out / "dre_curve.csv", ["t", "mse_time_dep", "mse_time_indep"],
                        scan.per_t)
    summary = {
        "integrated_ratio": scan.ratio,
        "integral_time_dep": scan.integral_time_dep,
        "integral_time_indep": scan.integral_time_indep,
        "config_hash": config_hash(cfg),
    }
    artifacts.write_json(out / "dre_summary.json", summary)
    print(f"integrated error ratio (time-dep / time-indep): {scan.ratio:.4f}")
    print(f"wrote {out / 'dre_curve.csv'} and {out / 'dre_summary.json'}")
    return 0


def cmd_debias(cfg: ExperimentConfig, all_baselines=False):
    """Full pipeline: data -> discriminators -> score training -> evaluation."""
    out = cfg.output_dir
    fields = BASELINES if all_baselines else {cfg.raw["objective"]["kind"]: {}}
    runs = [Run(name, name, name, f) for name, f in fields.items()]
    report, _, rows = _score_runs(cfg, runs)
    for run, ev in zip(runs, rows):
        print(f"{run.label}: bias {ev.bias:.4f}, minority proportion "
              f"{ev.proportions[-1]:.4f}, energy distance {ev.energy_distance:.5f}")

    header = ["label"] + rows[0].csv_header()
    artifacts.write_csv(out / "eval_rows.csv", header,
                        [[r.notes] + r.csv_row() for r in rows])
    report.add_artifact(out / "eval_rows.csv")
    report.write(out / "report.json")
    print(f"wrote {out / 'eval_rows.csv'} and {out / 'report.json'}")
    return 0


def cmd_sweep_alpha(cfg: ExperimentConfig, alphas):
    """One TIW training per ratio-scaling value; logs the endpoint identities."""
    if not all(0.0 <= a < np.inf for a in alphas):  # also refuses nan
        raise InputError("alpha values must be finite and >= 0")
    labels = [f"alpha_{a:g}" for a in alphas]
    if len(set(labels)) < len(labels):
        raise InputError(f"alpha values repeat a run label ({', '.join(labels)}); "
                         "give each once, distinct at 6 significant digits")
    out = cfg.output_dir
    runs = [Run(f"alpha={a:g}", label, f"tiw_alpha@{a:g}", dict(kind="tiw_alpha", alpha=a))
            for a, label in zip(alphas, labels)]
    report, split, rows = _score_runs(cfg, runs)
    _check_endpoint_identities(cfg, split, _objective_spec(cfg, **runs[0].fields),
                               out / "identity_checks.txt")
    report.add_artifact(out / "identity_checks.txt")
    for alpha, ev in zip(alphas, rows):
        print(f"alpha {alpha:g}: bias {ev.bias:.4f}, energy distance "
              f"{ev.energy_distance:.5f}")
    artifacts.write_csv(out / "alpha_sweep.csv", ["alpha", "bias", "energy_distance"],
                        [[a, e.bias, e.energy_distance] for a, e in zip(alphas, rows)])
    report.add_artifact(out / "alpha_sweep.csv")
    report.write(out / "report.json")
    print(f"wrote {out / 'alpha_sweep.csv'}")
    return 0


def _check_endpoint_identities(cfg, split, spec, path):
    """Per-sample identities at the endpoints of a sweep run's spec, logged to
    path; a NumericalError unless both hold exactly, as they do by construction."""
    sched = cfg.schedule
    rng = np.random.default_rng(cfg.seeds["score"])
    pool = split.pooled
    idx = rng.integers(0, pool.shape[0], 16)
    probe_net = Mlp(split.dim, [8], split.dim, seed=cfg.seeds["score"])
    # each endpoint alpha of tiw_alpha and the objective it must equal there
    ends = ((0.0, replace(spec, kind="dsm")), (1.0, replace(spec, kind="tiw_dsm", alpha=1.0)))
    worst = np.zeros(2)  # np.maximum, unlike max, keeps a nan
    for x0 in pool[idx]:
        t = float(rng.uniform(sched.t_eps, sched.T))
        sample = (x0, t, rng.standard_normal(split.dim), sched)
        for i, (alpha, same) in enumerate(ends):
            scaled = replace(spec, alpha=alpha)
            worst[i] = np.maximum(worst[i], abs(persample_loss(probe_net, scaled, *sample)
                                                - persample_loss(probe_net, same, *sample)))
    checks = [(alpha, same.kind, w) for (alpha, same), w in zip(ends, worst.tolist())]
    artifacts.write_text(path, "".join(f"alpha={alpha:g} per-sample loss == {kind} on shared "
                                       f"batch: max |diff| = {w!r} (exact identity expected)\n"
                                       for alpha, kind, w in checks))
    for alpha, kind, w in checks:
        if w != 0.0:
            raise NumericalError(f"sweep-alpha: at alpha={alpha:g} the per-sample loss must "
                                 f"equal {kind}'s exactly, but differs by {w!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                   help="override a config field (dotted path, repeatable)")
    p.add_argument("--output-dir", help="output directory, taken as given "
                                        "(a --set output_dir=... value parses as YAML)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tiwlab",
        description="Debiasing diffusion models on analytic Gaussian mixtures "
                    "with time-dependent importance reweighting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample the bias/reference datasets")
    _add_common(p)
    p.set_defaults(func=lambda cfg, args: cmd_gen_data(cfg))

    p = sub.add_parser("train-disc", help="train the ratio discriminator")
    _add_common(p)
    p.add_argument("--time-independent", action="store_true",
                   help="pin the time input to 0 (single-time baseline)")
    p.set_defaults(func=lambda cfg, args: cmd_train_disc(cfg, args.time_independent))

    p = sub.add_parser("train-score", help="train a score network")
    _add_common(p)
    p.add_argument("--baseline", choices=list(BASELINES),
                   help="override the objective with a named baseline")
    p.set_defaults(func=lambda cfg, args: cmd_train_score(cfg, args.baseline))

    p = sub.add_parser("sample", help="generate samples from a score source")
    _add_common(p)
    p.add_argument("--source", help="checkpoint path, 'oracle-data' or 'oracle-bias' "
                                    "(default: the configured objective's checkpoint)")
    # a flag whose dest is a dotted config path sets that leaf (see main)
    p.add_argument("--steps", dest="sampler.steps", type=int,
                   help="integration steps override")
    p.add_argument("--seed", dest="seeds.sample", type=int, help="sampling seed override")
    p.set_defaults(func=lambda cfg, args: cmd_sample(cfg, args.source))

    p = sub.add_parser("eval", help="evaluate a sample set against the oracle")
    _add_common(p)
    p.add_argument("--samples", help="samples CSV (default: output_dir/samples.csv)")
    p.add_argument("--label", default="run", help="label recorded in eval.csv")
    p.set_defaults(func=lambda cfg, args: cmd_eval(cfg, args.samples, args.label))

    p = sub.add_parser("repro-fig2",
                       help="density-ratio error curve and integrated-error ratio")
    _add_common(p)
    p.set_defaults(func=lambda cfg, args: cmd_repro_fig2(cfg))

    p = sub.add_parser("debias", help="full pipeline incl. training and evaluation")
    _add_common(p)
    p.add_argument("--all-baselines", action="store_true",
                   help="run dsm_ref, dsm_obs, iw_dsm and tiw_dsm")
    p.set_defaults(func=lambda cfg, args: cmd_debias(cfg, args.all_baselines))

    p = sub.add_parser("sweep-alpha", help="sweep the ratio-scaling exponent")
    _add_common(p)
    p.add_argument("--alphas", default="0,0.5,1",
                   help="comma-separated alpha values")
    p.set_defaults(func=_run_sweep)
    return parser


def _run_sweep(cfg, args):
    try:
        alphas = [float(v) for v in args.alphas.split(",") if v.strip() != ""]
    except ValueError as e:
        raise InputError(f"cannot parse --alphas {args.alphas!r}: {e}") from e
    if not alphas:
        raise InputError("--alphas must name at least one value")
    return cmd_sweep_alpha(cfg, alphas)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --output-dir and the flags whose dest is a dotted config path set
        # their values as given, after the --set strings, which parse as YAML
        overrides = list(args.overrides or [])
        if args.output_dir:
            overrides.append(("output_dir", args.output_dir))
        overrides += [(k, v) for k, v in vars(args).items() if "." in k and v is not None]
        cfg = load_config(args.config, overrides)
        return args.func(cfg, args)
    except TiwlabError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)
    except (FloatingPointError, OverflowError, ZeroDivisionError, np.linalg.LinAlgError) as e:
        print(f"error[numerical]: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CODES["numerical"]


if __name__ == "__main__":
    sys.exit(main())
