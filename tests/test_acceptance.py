"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

All heavy artifacts (datasets, discriminators, score networks) are built
once per session from the default configuration seeds, so the whole
module runs in a few minutes on one machine.
"""

import json
import time

import numpy as np
import pytest

from tiwlab.cli import main as cli_main
from tiwlab.config import ExperimentConfig
from tiwlab.metrics import energy_distance, mode_proportions
from tiwlab.mixture import pooled_mixture
from tiwlab.net import Mlp
from tiwlab.objectives import (
    ObjectiveSpec,
    QuadratureGrid,
    ScoreTrainConfig,
    loss_sm_oracle,
    mc_loss_gradient,
    persample_loss,
    train_score,
)
from tiwlab.ratio import (
    DatasetSplit,
    DiscTrainConfig,
    dre_mse,
    integrated_dre_error,
    oracle_ratio_model,
    train_discriminator,
)
from tiwlab.sde import SamplerSpec, reverse_generate

from tiwlab.mixture import GaussianMixture


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[CRITERION {number}] {label}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(raw={})


@pytest.fixture(scope="module")
def setup2d(cfg):
    sched = cfg.schedule
    pb, pd = cfg.mixture("bias"), cfg.mixture("data")
    split = DatasetSplit(
        bias_points=pb.sample(cfg.raw["split"]["n_bias"], seed=[cfg.seeds["data"], 0]),
        ref_points=pd.sample(cfg.raw["split"]["n_ref"], seed=[cfg.seeds["data"], 1]),
    )
    return sched, pb, pd, split


@pytest.fixture(scope="module")
def discriminators(cfg, setup2d):
    sched, _, _, split = setup2d
    base = dict(steps=cfg.raw["disc_train"]["steps"],
                batch_size=cfg.raw["disc_train"]["batch_size"],
                learning_rate=cfg.raw["disc_train"]["learning_rate"],
                seed=cfg.seeds["disc"], holdout_fraction=0.0)
    rm = train_discriminator(split, sched, DiscTrainConfig(**base))
    rm0 = train_discriminator(split, sched,
                              DiscTrainConfig(**base, time_independent=True))
    return rm, rm0


@pytest.fixture(scope="module")
def setup1d(cfg):
    sched = cfg.schedule
    bias = GaussianMixture(weights=[0.9, 0.1], means=[[-2.0], [2.0]],
                           variances=[1.0, 1.0])
    data = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]],
                           variances=[1.0, 1.0])
    return sched, bias, data, oracle_ratio_model(data, bias, sched)


# ---------------------------------------------------------------------------
# 1 + 2: density-chasm curve and integrated ratio error
# ---------------------------------------------------------------------------

def test_criterion_1_density_chasm_curve(cfg, setup2d, discriminators):
    start = time.perf_counter()
    sched, pb, pd, _ = setup2d
    rm, _ = discriminators
    oracle = oracle_ratio_model(pd, pb, sched)
    pool = pooled_mixture(pd, pb)
    n = cfg.raw["eval"]["dre_n"]
    m0 = dre_mse(rm, oracle, pool, 0.0, n, seed=cfg.seeds["eval"])
    m04 = dre_mse(rm, oracle, pool, 0.4, n, seed=cfg.seeds["eval"])
    ratio = m0 / m04
    elapsed = time.perf_counter() - start
    report(1, "ratio-error drop from t=0 to t=0.4",
           ratio >= 1.5 and elapsed < 300,
           f"mse(0)={m0:.3f}, mse(0.4)={m04:.3f}, ratio={ratio:.2f} "
           f"(need >= 1.5), {elapsed:.0f}s")


def test_criterion_2_integrated_dre_error(cfg, setup2d, discriminators):
    start = time.perf_counter()
    sched, pb, pd, _ = setup2d
    rm, rm0 = discriminators
    oracle = oracle_ratio_model(pd, pb, sched)
    scan = integrated_dre_error(rm, rm0, oracle,
                                np.asarray(cfg.raw["eval"]["dre_grid"]),
                                n=cfg.raw["eval"]["dre_n"],
                                seed=cfg.seeds["eval"])
    elapsed = time.perf_counter() - start
    report(2, "integrated ratio error, time-dep / time-indep",
           scan.ratio < 0.7 and elapsed < 600,
           f"ratio={scan.ratio:.3g} (need < 0.7), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3: gradient equivalence of the reweighted objective and plain score matching
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_equivalence_1d(setup1d):
    start = time.perf_counter()
    sched, bias, data, oracle = setup1d
    obs = pooled_mixture(bias, data)
    net = Mlp(1, [16], 1, seed=5)
    net.params[-1] += 2.0  # keep the true gradient well away from zero
    _, grad_quad = loss_sm_oracle(net, QuadratureGrid(), sched, data)
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=oracle, stream="obs")
    _, grad_mc = mc_loss_gradient(net, spec, sched, obs, n=100_000, seed=2024)
    rel = float(np.linalg.norm(grad_mc - grad_quad) / np.linalg.norm(grad_quad))
    elapsed = time.perf_counter() - start
    report(3, "quadrature vs Monte-Carlo parameter gradient",
           rel < 5e-3 and elapsed < 120,
           f"relative L2 difference={rel:.2e} (need < 5e-3), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4: exact degeneracy identities
# ---------------------------------------------------------------------------

def test_criterion_4_degeneracy_identities(setup1d):
    sched, bias, data, oracle = setup1d
    unit = oracle_ratio_model(data, data, sched)
    net = Mlp(1, [12], 1, seed=7)
    dsm = ObjectiveSpec(kind="dsm")
    alpha0 = ObjectiveSpec(kind="tiw_dsm", alpha=0.0, ratio=oracle)
    unit_tiw = ObjectiveSpec(kind="tiw_dsm", ratio=unit)
    unit_iw = ObjectiveSpec(kind="iw_dsm", ratio=unit)
    rng = np.random.default_rng(40)
    worst = 0.0
    tilde_ok = True
    for _ in range(64):
        x0 = rng.normal(scale=2.0, size=1)
        t = float(rng.uniform(sched.t_eps, sched.T))
        eps = rng.normal(size=1)
        d = persample_loss(net, dsm, x0, t, eps, sched)
        worst = max(worst,
                    abs(persample_loss(net, alpha0, x0, t, eps, sched) - d),
                    abs(persample_loss(net, unit_tiw, x0, t, eps, sched) - d),
                    abs(persample_loss(net, unit_iw, x0, t, eps, sched) - d))
        tilde_ok &= oracle.ratio_tilde_alpha(x0[None, :], t, 0.0)[0] == 1.0
    report(4, "bit-level degeneracies (alpha=0, unit ratio, unit weight)",
           worst == 0.0 and tilde_ok,
           f"max |difference| = {worst!r}, tilde(.,0)==1 {tilde_ok}")


# ---------------------------------------------------------------------------
# 5: fixed points of the two single-role objectives
# ---------------------------------------------------------------------------

def _probe_mse(net, sched, mix, t, span=4.0, n=81):
    grid = np.linspace(-span, span, n)[:, None]
    alpha, _ = sched.alpha_sigma(t)
    pts = alpha * grid
    diff = net.forward(pts, t) - mix.perturb(sched, t).score(pts)
    return float(np.mean(diff * diff))


def test_criterion_5_single_role_fixed_points(cfg, setup1d):
    start = time.perf_counter()
    sched, bias, data, oracle = setup1d
    split = DatasetSplit(bias_points=bias.sample(4000, seed=[cfg.seeds["data"], 2]),
                         ref_points=data.sample(400, seed=[cfg.seeds["data"], 3]))
    tcfg = ScoreTrainConfig(steps=12000, batch_size=128, seed=cfg.seeds["score"])
    results = {}
    for kind, target in (("correction_only", data), ("weight_only", bias)):
        spec = ObjectiveSpec(kind=kind, ratio=oracle)
        net = train_score(split, spec, sched, tcfg)
        results[kind] = {t: _probe_mse(net, sched, target, t) for t in (0.1, 0.5)}
    ok = all(v < 0.05 for r in results.values() for v in r.values())
    elapsed = time.perf_counter() - start
    report(5, "correction-only -> clean score, weight-only -> biased score",
           ok and elapsed < 1200,
           f"correction_only {results['correction_only']}, "
           f"weight_only {results['weight_only']} (each < 0.05), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6: end-to-end debias with a learned discriminator
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_debias(cfg, setup2d, discriminators):
    start = time.perf_counter()
    sched, pb, pd, split = setup2d
    rm, _ = discriminators
    tcfg_kwargs = dict(steps=cfg.raw["score_train"]["steps"],
                       batch_size=cfg.raw["score_train"]["batch_size"],
                       seed=cfg.seeds["score"])
    spec_tiw = ObjectiveSpec(kind="tiw_dsm", ratio=rm)
    spec_obs = ObjectiveSpec(kind="dsm", stream="obs")
    sampler = SamplerSpec(steps=cfg.raw["sampler"]["steps"], seed=cfg.seeds["sample"])
    oracle_draw = pd.sample(cfg.raw["eval"]["n_oracle"], seed=cfg.seeds["eval"])
    stats = {}
    for name, spec in (("tiw", spec_tiw), ("dsm_obs", spec_obs)):
        net = train_score(split, spec, sched, ScoreTrainConfig(**tcfg_kwargs))
        X = reverse_generate(sched, lambda x, t: net.forward(x, t), sampler,
                             n=cfg.raw["eval"]["n_samples"], dim=2)
        stats[name] = (float(mode_proportions(X, pd)[1]),
                       float(energy_distance(X, oracle_draw)))
    (tiw_prop, tiw_ed), (obs_prop, obs_ed) = stats["tiw"], stats["dsm_obs"]
    ok = 0.4 <= tiw_prop <= 0.6 and obs_prop <= 0.2 and tiw_ed < obs_ed
    elapsed = time.perf_counter() - start
    report(6, "learned-ratio debias recovers the balanced mixture",
           ok and elapsed < 1200,
           f"tiw minority={tiw_prop:.3f} (need [0.4,0.6]), "
           f"dsm_obs minority={obs_prop:.3f} (need <= 0.2), "
           f"energy distances {tiw_ed:.4f} < {obs_ed:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7: numerical hygiene
# ---------------------------------------------------------------------------

def test_criterion_7_numerical_hygiene(cfg, setup2d):
    sched, pb, pd, _ = setup2d
    rng = np.random.default_rng(70)

    # parameter gradients vs central differences
    net = Mlp(2, [10, 8], 2, seed=71)
    x, t = rng.normal(size=(1, 2)), 0.45
    coeffs = rng.normal(size=2)
    out, cache = net.forward(x, t, want_cache=True)
    grad = net.param_gradient(coeffs[None, :], cache)
    idx = rng.choice(net.n_params, size=50, replace=False)
    worst_param = 0.0
    for i in idx:
        b = net.params[i]
        net.params[i] = b + 1e-5
        fp = float(coeffs @ net.forward(x, t)[0])
        net.params[i] = b - 1e-5
        fm = float(coeffs @ net.forward(x, t)[0])
        net.params[i] = b
        fd = (fp - fm) / 2e-5
        worst_param = max(worst_param, abs(grad[i] - fd) / max(abs(fd), 1e-8))

    # input gradients vs central differences
    worst_input = 0.0
    dnet = Mlp(2, [10, 8], 1, seed=72)
    for _ in range(20):
        x, t = rng.normal(size=(1, 2)), float(rng.uniform(0.05, 0.95))
        jac = dnet.input_gradient(x, t)[0]
        for c in range(2):
            e = np.zeros(2)
            e[c] = 1e-6
            fd = (dnet.forward(x + e, t)[0, 0] - dnet.forward(x - e, t)[0, 0]) / 2e-6
            worst_input = max(worst_input, abs(jac[c] - fd) / max(abs(fd), 1e-8))

    # pushforward moments vs Monte-Carlo forward simulation
    t = 0.35
    n = 100_000
    x0 = pd.sample(n, seed=73)
    xt = sched.forward_sample(x0, t, np.random.default_rng(74).standard_normal(x0.shape))
    pt = pd.perturb(sched, t)
    true_mean = pt.weights @ pt.means
    second = pt.weights @ (pt.variances[:, None] + pt.means**2)
    true_var = second - true_mean**2
    mean_ok = np.all(np.abs(xt.mean(0) - true_mean) < 3 * np.sqrt(true_var / n))
    dev = xt - true_mean
    var_se = dev.var(0, ddof=1) * np.sqrt(2.0 / (n - 1))
    var_ok = np.all(np.abs(dev.var(0) - true_var) < 3 * var_se)

    # mixture score vs log-density finite differences
    worst_score = 0.0
    for x in rng.normal(scale=2.5, size=(100, 1, 2)):
        s = pb.score(x)[0]
        for c in range(2):
            e = np.zeros(2)
            e[c] = 1e-5
            fd = (pb.log_density(x + e)[0] - pb.log_density(x - e)[0]) / 2e-5
            worst_score = max(worst_score, abs(s[c] - fd) / max(abs(fd), 1e-6))

    ok = worst_param < 1e-4 and worst_input < 1e-5 and mean_ok and var_ok \
        and worst_score < 1e-6
    report(7, "gradient and moment hygiene",
           ok,
           f"param rel {worst_param:.1e} (<1e-4), input rel {worst_input:.1e} "
           f"(<1e-5), moments within 3 SE {bool(mean_ok and var_ok)}, "
           f"score-vs-FD rel {worst_score:.1e} (<1e-6)")


# ---------------------------------------------------------------------------
# 8: byte-level determinism of every CLI command
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    import yaml

    out = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "output_dir": str(out),
        "split": {"n_bias": 150, "n_ref": 30},
        "disc_train": {"steps": 100, "batch_size": 64},
        "score_train": {"steps": 120, "batch_size": 64, "telemetry_every": 40},
        "eval": {"n_samples": 96, "n_oracle": 96, "dre_n": 500,
                 "dre_grid": [0.0, 0.5, 1.0]},
        "sampler": {"steps": 16},
    }))
    commands = [
        ["gen-data"],
        ["train-disc"],
        ["train-disc", "--time-independent"],
        ["train-score", "--baseline", "tiw_dsm"],
        ["sample", "--source", str(out / "score_tiw_dsm.ckpt")],
        ["eval", "--label", "det"],
        ["repro-fig2"],
        ["debias", "--all-baselines"],
        ["sweep-alpha", "--alphas", "0,1"],
    ]

    def tracked_bytes():
        files = sorted(p for p in out.rglob("*")
                       if p.is_file() and p.name != "report.json")
        return {str(p.relative_to(out)): p.read_bytes() for p in files}

    for argv in commands:
        assert cli_main(argv + ["--config", str(config)]) == 0
    first = tracked_bytes()
    for argv in commands:
        assert cli_main(argv + ["--config", str(config)]) == 0
    second = tracked_bytes()

    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    diffs = [k for k in first if first.get(k) != second.get(k)]
    report(8, "every CLI command reproduces byte-identical outputs",
           same,
           f"{len(first)} files compared"
           + (f"; diffs: {diffs[:4]}" if diffs else ""))
