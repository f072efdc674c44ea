import re

import numpy as np
import pytest

from tiwlab import net as net_module
from tiwlab import objectives
from tiwlab.errors import InputError, NumericalError
from tiwlab.mixture import (
    GaussianMixture,
    pooled_mixture,
    two_mode_balanced_mixture,
    two_mode_bias_mixture,
)
from tiwlab.net import Mlp, _time_features, adam_step, init_optim
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
    RatioModel,
    oracle_ratio_model,
    train_discriminator,
)
from tiwlab.sde import lambda_weight

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


def test_tiw_dsm_at_alpha_zero_is_dsm_bitwise(sched, oracle_1d):
    net = Mlp(1, [8], 1, seed=6)
    spec = ObjectiveSpec(kind="tiw_dsm", alpha=0.0, ratio=oracle_1d)
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


def test_tiw_dsm_takes_any_alpha(oracle_1d):
    # tiw_dsm reads alpha (alpha = 1 is the paper's objective); there is no
    # second kind for the scaled form
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert ObjectiveSpec(kind="tiw_dsm", alpha=alpha, ratio=oracle_1d).alpha == alpha
    with pytest.raises(InputError, match="tiw_alpha"):
        ObjectiveSpec(kind="tiw_alpha", alpha=0.5, ratio=oracle_1d)


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


def per_node_quadrature(net, grid, sched, p_data, lambda_kind, want_grad):
    """The quadrature sum with its set-up done one t-node at a time: a
    perturbed mixture, a meshgrid of space nodes and the mixture's own
    density and score per node."""
    def gauss(n, lo, hi):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights

    edges = np.linspace(sched.t_eps, sched.T, grid.t_panels + 1)
    panels = [gauss(grid.n_t, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    value, grads = 0.0, np.zeros(net.n_params) if want_grad else None
    for t, tw in zip(*(np.concatenate(a) for a in zip(*panels))):
        gm = p_data.perturb(sched, t)
        std = float(np.sqrt(gm.variances.max()))
        axes = [gauss(grid.n_x, lo, hi) for lo, hi in
                zip(gm.means.min(axis=0) - objectives.PAD_STD * std,
                    gm.means.max(axis=0) + objectives.PAD_STD * std)]
        X = np.column_stack([x.ravel() for x in
                             np.meshgrid(*(x for x, _ in axes), indexing="ij")])
        xw = np.prod(np.meshgrid(*(w for _, w in axes), indexing="ij"), axis=0).ravel()
        lam = float(objectives.lambda_weight(sched, t, lambda_kind))
        out, cache = net.forward(X, t, want_cache=True)
        resid = out - gm.score(X)
        cell = xw * gm.density(X)
        value += tw * 0.5 * lam * float(cell @ (resid * resid).sum(axis=1))
        if want_grad:
            grads += net.param_gradient((tw * lam * cell)[:, None] * resid, cache)
    return value, grads


QUAD_CASES = {
    # 64 nodes of 160 rows: chunks of 51 nodes, the last one partial
    "1d": (1, QuadratureGrid(n_t=8, n_x=160, t_panels=8), None),
    # chunks of 3 nodes of 97 rows, a budget no node count divides
    "1d-small-budget": (1, QuadratureGrid(n_t=5, n_x=97, t_panels=4), 3 * 97 + 50),
    "2d": (2, QuadratureGrid(n_t=4, n_x=24, t_panels=3), None),
    # one 10,000-row node per chunk
    "2d-node-over-budget": (2, QuadratureGrid(n_t=3, n_x=100, t_panels=2), None),
}


@pytest.mark.parametrize("want_grad", [True, False])
@pytest.mark.parametrize("lambda_kind", ["sigma_squared", "uniform"])
@pytest.mark.parametrize("case", QUAD_CASES)
def test_chunked_quadrature_gives_the_per_node_bytes(case, lambda_kind, want_grad, sched,
                                                     monkeypatch):
    dim, grid, budget = QUAD_CASES[case]
    if budget is not None:
        monkeypatch.setattr(objectives, "QUAD_ROW_BUDGET", budget)
    # unequal variances, so the widest component sets the space bounds
    data = GaussianMixture(weights=[0.3, 0.7], means=[[-2.0, -1.0][:dim], [2.0, 2.5][:dim]],
                           variances=[1.0, 0.45])
    net = Mlp(dim, [8], dim, seed=21)
    net.params[-1] += 1.5
    value, grads = objectives._sm_quadrature(net, grid, sched, data, lambda_kind, want_grad)
    want_value, want_grads = per_node_quadrature(net, grid, sched, data, lambda_kind,
                                                 want_grad)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    if want_grad:
        assert grads.tobytes() == want_grads.tobytes()
    else:
        assert grads is None


@pytest.mark.parametrize("field, value", [("n_t", 0), ("n_x", 0), ("t_panels", 0),
                                          ("n_x", -3), ("n_t", 2.5), ("t_panels", True),
                                          ("n_x", "160")])
def test_quadrature_grid_refuses_bad_sizes(field, value):
    with pytest.raises(InputError, match=rf"QuadratureGrid\.{field}: {re.escape(repr(value))}"):
        QuadratureGrid(**{field: value})


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
    net = Mlp(2, [], 2, n_frequencies=1, seed=14)
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


def block_major_mc(net, spec, sched, base_mixture, n, seed, batch):
    """mc_loss_gradient written block-major: every slice of the +eps block,
    then every slice of the -eps block, each slice's ratio terms (iw_dsm's
    t=0 weights too) and time features computed afresh."""
    want_loss, want_grad = 0.0, np.zeros(net.n_params)
    m = n // 2
    x0 = base_mixture.sample(m, seed=[seed, 1])
    ts = sched.t_eps + (np.arange(m) + np.random.default_rng([seed, 2]).uniform(size=m)) \
        / m * (sched.T - sched.t_eps)
    eps = np.random.default_rng([seed, 3]).standard_normal(x0.shape)
    eps = eps / np.sqrt((eps * eps).mean())
    for block in (eps, -eps):
        for s in range(0, m, batch):
            sl = slice(s, s + batch)
            losses, outgrad, cache, _ = objectives._batch_terms(
                net, x0[sl], ts[sl], block[sl], sched, spec)
            want_loss += losses.sum()
            want_grad += net.param_gradient(outgrad, cache)
    scale = (sched.T - sched.t_eps) / n
    return want_loss * scale, want_grad * scale


def test_iw_dsm_gradient_evaluates_each_base_weight_once(sched, oned, oracle_1d, monkeypatch):
    bias, data = oned
    obs = pooled_mixture(bias, data)
    net = Mlp(1, [8], 1, seed=5)
    spec = ObjectiveSpec(kind="iw_dsm", ratio=oracle_1d, stream="obs")
    n, batch = 2_000, 300
    want_loss, want_grad = block_major_mc(net, spec, sched, obs, n, 7, batch)

    rows = []
    original = RatioModel.weight_and_correction

    def counted(self, x, *args, **kwargs):
        rows.append(np.atleast_2d(x).shape[0])
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(RatioModel, "weight_and_correction", counted)
    loss, grad = mc_loss_gradient(net, spec, sched, obs, n=n, seed=7, batch=batch)
    assert sum(rows) == n // 2  # not n: the -eps block reuses the +eps weights
    assert loss == want_loss
    assert grad.tobytes() == want_grad.tobytes()


def test_tiw_mc_gradient_equals_the_block_major_sum(sched, oned, oracle_1d):
    bias, data = oned
    obs = pooled_mixture(bias, data)
    net = Mlp(1, [8], 1, seed=5)
    net.params[-1] += 2.0
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=oracle_1d, stream="obs")
    n, batch = 2_000, 300  # four slices, the last one partial
    want_loss, want_grad = block_major_mc(net, spec, sched, obs, n, 8, batch)

    _time_features.cache_clear()
    loss, grad = mc_loss_gradient(net, spec, sched, obs, n=n, seed=8, batch=batch)
    # once per slice, shared by +eps and -eps
    assert _time_features.cache_info()[:2] == (4, 4)  # (hits, misses)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


class NoDraws(GaussianMixture):
    def sample(self, n, seed):
        raise AssertionError("drew before checking the sizes")


@pytest.mark.parametrize("n, batch, name", [(1, 8192, "n"), (0, 8192, "n"), (-4, 8192, "n"),
                                            (2_000, 0, "batch"), (2_000, -5, "batch")])
def test_mc_gradient_refuses_sizes_it_cannot_use(n, batch, name, sched, oned):
    _, data = oned
    mix = NoDraws(weights=data.weights, means=data.means, variances=data.variances)
    with pytest.raises(InputError, match=rf"^{name} must be >= "):
        mc_loss_gradient(Mlp(1, [4], 1), DSM, sched, mix, n=n, seed=0, batch=batch)


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


def reference_train_score(data, spec, sched, cfg):
    """train_score written out from the public entry points, every operation
    in the order of 0.5 * lam * weight * ||s - k - c||^2 with the unit weight
    and zero correction of the kinds that read none; returns the parameters."""
    rng = np.random.default_rng(cfg.seed)
    pool = {"bias": data.bias_points, "ref": data.ref_points, "obs": data.pooled}[spec.stream]
    n_pool, dim = pool.shape
    n_bias, B = data.bias_points.shape[0], cfg.batch_size
    if spec.kind == "iw_dsm":
        iw = spec.ratio.weight_and_correction(pool, 0.0, spec.ratio_form, want_grad=False)[0]
    net = Mlp(dim, list(cfg.hidden), dim, n_frequencies=cfg.n_frequencies, seed=cfg.seed)
    state = init_optim(net.n_params, cfg.learning_rate)
    for step in range(cfg.steps):
        if spec.balanced_draw:
            pick_ref = rng.integers(0, 2, B).astype(bool)
            idx = np.where(pick_ref, n_bias + rng.integers(0, n_pool - n_bias, B),
                           rng.integers(0, n_bias, B))
        else:
            idx = rng.integers(0, n_pool, B)
        x0 = pool[idx]
        ts = rng.uniform(sched.t_eps, sched.T, B)
        eps = rng.standard_normal((B, dim))
        X_t = sched.forward_sample(x0, ts, eps)
        target = sched.cond_score(X_t, x0, ts)
        lam = lambda_weight(sched, ts, spec.lambda_kind)
        weights, corr = np.ones(B), np.zeros((B, dim))
        if spec.kind == "iw_dsm":
            weights = iw[idx]
        elif spec.kind != "dsm":
            w, g = spec.ratio.weight_and_correction(X_t, ts, spec.ratio_form, spec.alpha)
            if spec.kind != "correction_only":
                weights = w
            if spec.kind != "weight_only":
                corr = g
        out, cache = net.forward(X_t, ts, want_cache=True)
        resid = out - target - corr
        losses = 0.5 * lam * weights * (resid * resid).sum(axis=1)
        outgrad = (lam * weights)[:, None] * resid
        assert np.isfinite(losses.mean())
        state.learning_rate = cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.steps))
        adam_step(net.params, net.param_gradient(outgrad / B, cache), state)
    return net.params


@pytest.mark.parametrize("kind, ratio, lambda_kind", [
    ("dsm", None, "sigma_squared"), ("dsm", None, "uniform"),
    ("iw_dsm", "learned", "sigma_squared"), ("iw_dsm", "oracle", "sigma_squared"),
    ("tiw_dsm", "learned", "sigma_squared"), ("tiw_dsm", "oracle", "sigma_squared"),
    ("tiw_dsm", "learned", "uniform"), ("weight_only", "oracle", "uniform"),
    ("correction_only", "learned", "uniform")])
def test_train_score_gives_the_bytes_of_the_written_out_loop(kind, ratio, lambda_kind, sched,
                                                             oned, oracle_1d):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(200, seed=40),
                         ref_points=data.sample(30, seed=41))
    learned = RatioModel(sched=sched, kind="learned", net=Mlp(1, [16, 16], 1, seed=42))
    spec = ObjectiveSpec(kind=kind, lambda_kind=lambda_kind, alpha=1.0 if kind == "tiw_dsm"
                         else 0.7, ratio={"learned": learned, "oracle": oracle_1d}.get(ratio))
    cfg = ScoreTrainConfig(hidden=(16, 16), steps=3, batch_size=48, telemetry_every=0, seed=43)
    want = reference_train_score(split, spec, sched, cfg)
    assert train_score(split, spec, sched, cfg).params.tobytes() == want.tobytes()


def test_both_networks_read_one_time_feature_memo(sched, oned, monkeypatch):
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(200, seed=46),
                         ref_points=data.sample(30, seed=47))
    learned = RatioModel(sched=sched, kind="learned", net=Mlp(1, [16, 16], 1, seed=48))
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=learned)
    cfg = ScoreTrainConfig(hidden=(16, 16), steps=5, batch_size=48, telemetry_every=0, seed=49)
    # a tiw_dsm step computes its times' features once, for the
    # discriminator, and the score net at the same times reuses them
    _time_features.cache_clear()
    train_score(split, spec, sched, cfg)
    assert _time_features.cache_info()[:2] == (cfg.steps, cfg.steps)  # (hits, misses)

    # two networks of one embedding get the same array back
    returned = []

    def recorded(*args):
        returned.append(_time_features(*args))
        return returned[-1]

    monkeypatch.setattr(net_module, "_time_features", recorded)
    X, t = np.zeros((6, 2)), np.linspace(0.1, 0.6, 6)
    Mlp(2, [8], 2, seed=50).forward(X, t)
    Mlp(2, [4, 4], 1, seed=51).value_and_input_gradient(X, t.copy())
    assert len(returned) == 2 and returned[0] is returned[1]


@pytest.mark.parametrize("t, error", [(1.5, InputError), (np.nan, InputError),
                                      (5e-4, NumericalError)], ids=["above-T", "nan", "below-t_eps"])
def test_loss_entry_points_refuse_times_outside_t_eps_to_T(t, error, sched, oned, oracle_1d,
                                                         monkeypatch):
    bias, data = oned
    net = Mlp(1, [8], 1, seed=44)
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=oracle_1d, stream="obs")
    with pytest.raises(error):
        persample_loss(net, spec, [0.3], t, [0.2], sched)
    with pytest.raises(error):
        persample_loss(net, spec, [0.3], np.array([t]), [0.2], sched)
    # mc_loss_gradient draws its own times: stratum i of m gets
    # t_eps + (i + u) / m * (T - t_eps), so a u of m * (t - t_eps) / (T - t_eps)
    # puts stratum 0 at t, and one outside [0, 1) takes t outside [t_eps, T]
    m, seed = 100, 45
    u = m * (t - sched.t_eps) / (sched.T - sched.t_eps)
    default_rng = np.random.default_rng

    class TimeDraws:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, size):
            draws = self.rng.uniform(size=size)
            draws[0] = u
            return draws

    monkeypatch.setattr(np.random, "default_rng", lambda s=None: TimeDraws(default_rng(s))
                        if s == [seed, 2] else default_rng(s))
    with pytest.raises(error):
        mc_loss_gradient(net, spec, sched, pooled_mixture(bias, data), n=2 * m, seed=seed)


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
    # both networks take their steps through net.train_step, whose check
    # raises at a mean loss above DIVERGENCE_LOSS, not only a non-finite one
    bias, data = oned
    split = DatasetSplit(bias_points=bias.sample(100, seed=26),
                         ref_points=data.sample(20, seed=27))
    cfg = ScoreTrainConfig(steps=50, learning_rate=1e6, seed=28)
    with pytest.raises(NumericalError, match=r"score training diverged at step (\d+)"):
        train_score(split, ObjectiveSpec(kind="dsm", stream="obs"), sched, cfg)
    disc_cfg = DiscTrainConfig(hidden=(8,), steps=50, batch_size=32, learning_rate=1e6,
                               seed=28)
    with pytest.raises(NumericalError,
                       match=r"discriminator training diverged at step (\d+)"):
        train_discriminator(split, sched, disc_cfg)


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
