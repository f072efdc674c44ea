import re

import numpy as np
import pytest

from tiwlab import objectives
from tiwlab.errors import InputError, NumericalError
from tiwlab.mixture import (
    GaussianMixture,
    pooled_mixture,
    two_mode_balanced_mixture,
    two_mode_bias_mixture,
)
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
from tiwlab.ratio import DatasetSplit, RatioModel, oracle_ratio_model

from conftest import standard_normal_mixture


@pytest.fixture(scope="module")
def sched(request):
    return request.getfixturevalue("sched")


@pytest.fixture(scope="module")
def oned():
    bias = GaussianMixture(weights=[0.9, 0.1], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
    data = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
    return bias, data


@pytest.fixture(scope="module")
def oracle_1d(sched, oned):
    bias, data = oned
    return oracle_ratio_model(data, bias, sched)


@pytest.fixture(scope="module")
def unit_oracle(sched, oned):
    # p_num == p_den: w is identically 1
    _, data = oned
    return oracle_ratio_model(data, data, sched)


DSM = ObjectiveSpec(kind="dsm")


def random_case(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim), rng.uniform(0.05, 0.95), rng.normal(size=dim)


# ---------------------------------------------------------------------------
# per-sample losses
# ---------------------------------------------------------------------------

class CondScoreStub:
    """Callable net that returns exactly the kernel score (dsm optimum)."""

    def __init__(self, sched, x0):
        self.sched, self.x0 = sched, x0

    def forward(self, x, t, want_cache=False):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = self.sched.cond_score(x, np.broadcast_to(self.x0, x.shape), t)
        return (out, None) if want_cache else out


def test_dsm_zero_at_kernel_score(sched):
    x0, t, eps = random_case(2, 0)
    stub = CondScoreStub(sched, x0)
    assert persample_loss(stub, DSM, x0, t, eps, sched) == pytest.approx(0.0, abs=1e-25)


def test_dsm_zero_net_sigma_weighting_gives_half_eps_norm(sched):
    # zero net + lambda = sigma^2: loss = ||eps||^2 / 2
    proto = Mlp(2, [4], 2)
    net = Mlp(2, [4], 2, params=np.zeros(proto.n_params))
    x0, t, eps = random_case(2, 1)
    val = persample_loss(net, ObjectiveSpec(kind="dsm", lambda_kind="sigma_squared"),
                         x0, t, eps, sched)
    assert val == pytest.approx(0.5 * float(eps @ eps), rel=1e-12)


def test_dsm_nonnegative(sched):
    net = Mlp(2, [8], 2, seed=4)
    for seed in range(10):
        x0, t, eps = random_case(2, seed)
        assert persample_loss(net, DSM, x0, t, eps, sched) >= 0.0


def test_tiw_degenerates_to_dsm_with_unit_ratio(sched, unit_oracle):
    net = Mlp(1, [8], 1, seed=5)
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=unit_oracle)
    for seed in range(5):
        x0, t, eps = random_case(1, seed)
        tiw = persample_loss(net, spec, x0, t, eps, sched)
        dsm = persample_loss(net, DSM, x0, t, eps, sched)
        assert tiw == dsm  # bit-level


def test_tiw_alpha_zero_is_dsm_bitwise(sched, oracle_1d):
    net = Mlp(1, [8], 1, seed=6)
    spec = ObjectiveSpec(kind="tiw_alpha", alpha=0.0, ratio=oracle_1d)
    for seed in range(5):
        x0, t, eps = random_case(1, seed)
        tiw0 = persample_loss(net, spec, x0, t, eps, sched)
        dsm = persample_loss(net, DSM, x0, t, eps, sched)
        assert tiw0 == dsm


def test_iw_weight_scaling(sched):
    # iw_dsm is dsm scaled by the ratio model's t=0 weight at x0
    net = Mlp(2, [8], 2, seed=7)
    oracle = oracle_ratio_model(two_mode_balanced_mixture(), two_mode_bias_mixture(), sched)
    x0, t, eps = random_case(2, 3)
    dsm = persample_loss(net, DSM, x0, t, eps, sched)
    iw = persample_loss(net, ObjectiveSpec(kind="iw_dsm", ratio=oracle), x0, t, eps, sched)
    assert iw == pytest.approx(oracle.ratio_tilde(x0[None, :], 0.0)[0] * dsm, rel=1e-15)


def test_iw_weights_average_to_one_on_pooled_stream(sched, oned, oracle_1d):
    # E_{p_obs}[p_data/p_obs] = 1; tilde weights from the t=0 oracle
    bias, data = oned
    obs = pooled_mixture(bias, data)
    X = obs.sample(100_000, seed=8)
    w = oracle_1d.ratio_tilde(X, 0.0)
    assert w.mean() == pytest.approx(1.0, abs=0.01)


def test_ablations_reduce_to_dsm_with_unit_ratio(sched, unit_oracle):
    net = Mlp(1, [8], 1, seed=8)
    x0, t, eps = random_case(1, 4)
    dsm = persample_loss(net, DSM, x0, t, eps, sched)
    for kind in ("weight_only", "correction_only"):
        val = persample_loss(net, ObjectiveSpec(kind=kind, ratio=unit_oracle),
                             x0, t, eps, sched)
        assert val == dsm


def test_ablation_terms_differ_from_tiw(sched, oracle_1d):
    net = Mlp(1, [8], 1, seed=9)
    x0 = np.array([2.0])  # minority mode: w != 1 there
    t, eps = 0.3, np.array([0.4])
    tiw, wonly, conly = (
        persample_loss(net, ObjectiveSpec(kind=kind, ratio=oracle_1d, stream="bias"),
                       x0, t, eps, sched)
        for kind in ("tiw_dsm", "weight_only", "correction_only"))
    assert len({tiw, wonly, conly}) == 3


@pytest.mark.parametrize("kind", ["learned", "oracle"])
def test_ratio_terms_match_accessors(kind, sched, oracle_1d):
    net = Mlp(1, [8], 1, seed=12)
    net.params[-1] = -6.5  # some rows past the logit clamp
    rm = oracle_1d if kind == "oracle" else RatioModel(sched=sched, kind="learned", net=net)
    rng = np.random.default_rng(13)
    X = rng.normal(scale=3.0, size=(40, 1))
    ts = rng.uniform(0.05, 0.95, 40)
    for alpha in (0.5, 1.0):
        w, g = rm.weight_and_correction(X, ts, "tilde", alpha)
        np.testing.assert_allclose(w, rm.ratio_tilde_alpha(X, ts, alpha), rtol=1e-12)
        np.testing.assert_allclose(g, rm.grad_log_tilde(X, ts, alpha), rtol=1e-12)
        w_tilde, g_tilde = w, g
        w, g = rm.weight_and_correction(X, ts, "plain", alpha)
        np.testing.assert_allclose(w, np.exp(alpha * rm.log_ratio_w(X, ts)), rtol=1e-12)
        np.testing.assert_allclose(g, alpha * rm.grad_log_w(X, ts), rtol=1e-12)
        # the two forms agree: w~^a = 2 w^a / (1 + w^a), grad log w~^a = (1 - w~^a / 2) grad log w^a
        np.testing.assert_allclose(w_tilde, 2.0 * w / (1.0 + w), rtol=1e-12)
        np.testing.assert_allclose(g_tilde, (1.0 - w_tilde / 2.0)[:, None] * g,
                                   rtol=1e-9, atol=1e-15)


def test_spec_requires_ratio():
    with pytest.raises(InputError):
        ObjectiveSpec(kind="tiw_dsm", ratio=None)
    with pytest.raises(InputError):
        ObjectiveSpec(kind="dsm", stream="nowhere")


def test_tiw_dsm_is_alpha_one_only(oracle_1d):
    # tiw_dsm is tiw_alpha at alpha = 1; any other alpha is a different objective
    assert ObjectiveSpec(kind="tiw_dsm", alpha=1.0, ratio=oracle_1d).alpha == 1.0
    for alpha in (0.0, 0.5, 2.0):
        with pytest.raises(InputError, match="tiw_alpha"):
            ObjectiveSpec(kind="tiw_dsm", alpha=alpha, ratio=oracle_1d)
        ObjectiveSpec(kind="tiw_alpha", alpha=alpha, ratio=oracle_1d)


# ---------------------------------------------------------------------------
# quadrature oracle loss
# ---------------------------------------------------------------------------

class OracleScoreStub:
    def __init__(self, sched, gm):
        self.sched, self.gm = sched, gm

    def forward(self, x, t, want_cache=False):
        out = self.gm.perturb(self.sched, float(t)).score(np.atleast_2d(x))
        return (out, None) if want_cache else out


def test_sm_oracle_zero_at_true_score(sched, oned):
    _, data = oned
    stub = OracleScoreStub(sched, data)
    val, _ = loss_sm_oracle(stub, QuadratureGrid(), sched, data, want_grad=False)
    assert abs(val) < 1e-10


def test_sm_oracle_zero_for_optimal_linear_model(sched):
    # single Gaussian N(0, v): score of the perturbed density is
    # -x / (alpha^2 v + sigma^2), linear in x
    v = 1.7
    gm = GaussianMixture(weights=[1.0], means=[[0.0]], variances=[v])

    class LinearStub:
        def forward(self, x, t, want_cache=False):
            alpha, sigma = sched.alpha_sigma(float(t))
            out = -np.atleast_2d(x) / (alpha**2 * v + sigma**2)
            return (out, None) if want_cache else out

    val, _ = loss_sm_oracle(LinearStub(), QuadratureGrid(), sched, gm, want_grad=False)
    assert abs(val) < 1e-10


def test_sm_oracle_gradient_matches_finite_differences(sched, oned):
    _, data = oned
    net = Mlp(1, [6], 1, seed=12)
    grid = QuadratureGrid(n_t=8, n_x=64, t_panels=4)
    val, grad = loss_sm_oracle(net, grid, sched, data, refine_check=False)
    rng = np.random.default_rng(3)
    idx = rng.choice(net.n_params, size=12, replace=False)
    h = 1e-6
    for i in idx:
        base = net.params[i]
        net.params[i] = base + h
        vp, _ = loss_sm_oracle(net, grid, sched, data, want_grad=False,
                               refine_check=False)
        net.params[i] = base - h
        vm, _ = loss_sm_oracle(net, grid, sched, data, want_grad=False,
                               refine_check=False)
        net.params[i] = base
        fd = (vp - vm) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_sm_oracle_flags_coarse_grid(sched, oned):
    _, data = oned
    net = Mlp(1, [6], 1, seed=13)
    with pytest.raises(NumericalError, match="coarse"):
        loss_sm_oracle(net, QuadratureGrid(n_t=2, n_x=8, t_panels=1), sched, data,
                       want_grad=False)


# ---------------------------------------------------------------------------
# gradient equivalences (the headline identities)
# ---------------------------------------------------------------------------

def test_tiw_gradient_matches_sm_quadrature_2d_linear_model(sched):
    # two-mode 2-D pair, oracle ratio, linear score model
    bias = GaussianMixture(weights=[0.9, 0.1], means=[[-2, -2], [2, 2]],
                           variances=[1.0, 1.0])
    data = GaussianMixture(weights=[0.5, 0.5], means=[[-2, -2], [2, 2]],
                           variances=[1.0, 1.0])
    obs = pooled_mixture(bias, data)
    oracle = oracle_ratio_model(data, bias, sched)
    net = Mlp(2, [], 2, time_embed="append-scalar", seed=14)
    net.params[-2:] += 1.5  # push output biases off the optimum
    _, grad_q = loss_sm_oracle(net, QuadratureGrid(n_t=12, n_x=72, t_panels=6),
                               sched, data)
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=oracle, stream="obs")
    _, grad_mc = mc_loss_gradient(net, spec, sched, obs, n=400_000, seed=15)
    rel = np.linalg.norm(grad_mc - grad_q) / np.linalg.norm(grad_q)
    assert rel < 5e-3


def test_iw_and_tiw_gradients_agree_crn_1d(sched, oned, oracle_1d):
    bias, data = oned
    obs = pooled_mixture(bias, data)
    net = Mlp(1, [16], 1, seed=5)
    net.params[-1] += 2.0
    spec_tiw = ObjectiveSpec(kind="tiw_dsm", ratio=oracle_1d, stream="obs")
    spec_iw = ObjectiveSpec(kind="iw_dsm", ratio=oracle_1d, stream="obs")
    _, g_tiw = mc_loss_gradient(net, spec_tiw, sched, obs, n=100_000, seed=16)
    _, g_iw = mc_loss_gradient(net, spec_iw, sched, obs, n=100_000, seed=16)
    rel = np.linalg.norm(g_iw - g_tiw) / max(np.linalg.norm(g_tiw),
                                             np.linalg.norm(g_iw))
    assert rel < 2e-2


def test_iw_dsm_gradient_evaluates_each_base_weight_once(sched, oned, oracle_1d, monkeypatch):
    bias, data = oned
    obs = pooled_mixture(bias, data)
    net = Mlp(1, [8], 1, seed=5)
    spec = ObjectiveSpec(kind="iw_dsm", ratio=oracle_1d, stream="obs")
    n, batch = 2_000, 300
    # the same estimate with the weights read afresh in every noise block
    want_loss, want_grad = 0.0, np.zeros(net.n_params)
    m = n // 2
    x0 = obs.sample(m, seed=[7, 1])
    ts = sched.t_eps + (np.arange(m) + np.random.default_rng([7, 2]).uniform(size=m)) \
        / m * (sched.T - sched.t_eps)
    eps = np.random.default_rng([7, 3]).standard_normal(x0.shape)
    eps = eps / np.sqrt((eps * eps).mean())
    for block in (eps, -eps):
        for s in range(0, m, batch):
            sl = slice(s, s + batch)
            losses, outgrad, cache, _ = objectives._batch_terms(
                net, x0[sl], ts[sl], block[sl], sched, spec)
            want_loss += losses.sum()
            want_grad += net.param_gradient(outgrad, cache)
    scale = (sched.T - sched.t_eps) / n

    rows = []
    original = RatioModel.weight_and_correction

    def counted(self, x, *args, **kwargs):
        rows.append(np.atleast_2d(x).shape[0])
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(RatioModel, "weight_and_correction", counted)
    loss, grad = mc_loss_gradient(net, spec, sched, obs, n=n, seed=7, batch=batch)
    assert sum(rows) == m  # not 2m: the -eps block reuses the +eps weights
    assert loss == want_loss * scale
    assert grad.tobytes() == (want_grad * scale).tobytes()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def probe_score_mse(net, sched, target_mix, t, lo=-4.0, hi=4.0, n=81):
    grid = np.linspace(lo, hi, n)[:, None]
    alpha, _ = sched.alpha_sigma(t)
    pts = alpha * grid
    diff = net.forward(pts, t) - target_mix.perturb(sched, t).score(pts)
    return float(np.mean(diff**2))


def test_train_dsm_single_gaussian(sched):
    gm = standard_normal_mixture(1)
    split = DatasetSplit(bias_points=gm.sample(10_000, seed=20),
                         ref_points=gm.sample(10, seed=21))
    net = train_score(split, ObjectiveSpec(kind="dsm", stream="bias"), sched,
                      ScoreTrainConfig(steps=3000, seed=22))
    for t in (0.1, 0.5):
        assert probe_score_mse(net, sched, gm, t, lo=-2.0, hi=2.0) < 0.05


def test_pooled_draw_follows_the_objective(sched, oned, oracle_1d, monkeypatch):
    # the ratio kinds draw the obs pool half/half, dsm with its empirical shares
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(600, seed=30),
                         ref_points=data.sample(60, seed=31))
    drawn = []
    batch_terms = objectives._batch_terms

    def record(net, X0, *args, **kwargs):
        drawn.append(X0[:, 0])
        return batch_terms(net, X0, *args, **kwargs)

    monkeypatch.setattr(objectives, "_batch_terms", record)
    cfg = ScoreTrainConfig(hidden=(8,), steps=40, batch_size=128, telemetry_every=0, seed=32)

    def ref_share(kind, stream):
        drawn.clear()
        ratio = None if kind == "dsm" else oracle_1d
        train_score(split, ObjectiveSpec(kind=kind, stream=stream, ratio=ratio), sched, cfg)
        return np.isin(np.concatenate(drawn), split.ref_points[:, 0]).mean()

    for kind in ("tiw_dsm", "iw_dsm"):
        assert ref_share(kind, "obs") == pytest.approx(0.5, abs=0.05)
    assert ref_share("dsm", "obs") == pytest.approx(60 / 660, abs=0.03)
    assert ref_share("dsm", "bias") == 0.0


def test_train_deterministic(sched, oned):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(300, seed=23),
                         ref_points=data.sample(60, seed=24))
    cfg = ScoreTrainConfig(steps=120, seed=25)
    spec = ObjectiveSpec(kind="dsm", stream="obs")
    a = train_score(split, spec, sched, cfg)
    b = train_score(split, spec, sched, cfg)
    assert a.params.tobytes() == b.params.tobytes()


def test_train_divergence_reported(sched, oned):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(100, seed=26),
                         ref_points=data.sample(20, seed=27))
    cfg = ScoreTrainConfig(steps=50, learning_rate=1e6, seed=28)
    with pytest.raises(NumericalError, match="step"):
        train_score(split, ObjectiveSpec(kind="dsm", stream="obs"), sched, cfg)


def test_train_telemetry_csv(tmp_path, sched, oned):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(200, seed=29),
                         ref_points=data.sample(40, seed=30))
    path = tmp_path / "telemetry.csv"
    cfg = ScoreTrainConfig(steps=100, seed=31, telemetry_every=20,
                           telemetry_path=str(path))
    train_score(split, ObjectiveSpec(kind="dsm", stream="obs"), sched, cfg)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,weight,loss"
    assert len(lines) == 1 + 5  # steps 0,20,40,60,80
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [0, 20, 40, 60, 80]
    assert all(weight > 0.0 and loss >= 0.0 for _, _, weight, loss in rows)


def test_diverging_run_keeps_telemetry_up_to_the_failing_step(tmp_path, sched, oned):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(100, seed=26),
                         ref_points=data.sample(20, seed=27))
    path = tmp_path / "telemetry.csv"
    cfg = ScoreTrainConfig(steps=50, learning_rate=1e6, seed=28, telemetry_every=1,
                           telemetry_path=str(path))
    with pytest.raises(NumericalError, match=r"at step (\d+)") as info:
        train_score(split, ObjectiveSpec(kind="dsm", stream="obs"), sched, cfg)
    failed = int(re.search(r"at step (\d+)", str(info.value)).group(1))
    assert failed >= 1  # else there would be no row to keep
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "step,t,weight,loss"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(failed))


def test_sm_oracle_not_trainable(sched, oned):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(50, seed=1),
                         ref_points=data.sample(20, seed=2))
    with pytest.raises(InputError):
        train_score(split, ObjectiveSpec(kind="sm_oracle"), sched,
                    ScoreTrainConfig(steps=10))
