import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiwlab import ratio
from tiwlab.errors import InputError, IoError
from tiwlab.mixture import GaussianMixture, perturbed_score_batch, pooled_mixture
from tiwlab.net import Mlp, adam_step, init_optim, load_net
from tiwlab.ratio import (
    LOGIT_CLAMP,
    DatasetSplit,
    DiscTrainConfig,
    RatioModel,
    dre_mse,
    integrated_dre_error,
    load_ratio_model,
    oracle_ratio_model,
    save_ratio_model,
    train_discriminator,
)
from tiwlab.sde import LAMBDA_KINDS, lambda_weight


@pytest.fixture(scope="module")
def oracle(sched_module, p_data_module, p_bias_module):
    return oracle_ratio_model(p_data_module, p_bias_module, sched_module)


# session fixtures are defined in conftest; re-expose at module scope
@pytest.fixture(scope="module")
def sched_module(request):
    return request.getfixturevalue("sched")


@pytest.fixture(scope="module")
def p_data_module(request):
    return request.getfixturevalue("p_data")


@pytest.fixture(scope="module")
def p_bias_module(request):
    return request.getfixturevalue("p_bias")


@pytest.fixture(scope="module")
def random_disc(sched_module):
    net = Mlp(2, [16, 16], 1, seed=33)
    return RatioModel(sched=sched_module, kind="learned", net=net)


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------

def test_zero_logit_gives_unit_ratio(sched_module):
    net = Mlp(2, [8], 1, params=np.zeros(Mlp(2, [8], 1).n_params))
    rm = RatioModel(sched=sched_module, kind="learned", net=net)
    x = np.array([[0.4, -0.1]])
    assert rm.ratio_w(x, 0.5)[0] == 1.0
    assert rm.ratio_tilde(x, 0.5)[0] == 1.0


def test_oracle_identical_mixtures_unit_ratio(sched_module, p_data_module):
    rm = oracle_ratio_model(p_data_module, p_data_module, sched_module)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    for t in (0.0, 0.3, 0.9):
        np.testing.assert_array_equal(rm.ratio_w(X, t), np.ones(30))
        np.testing.assert_array_equal(rm.grad_log_w(X, t), np.zeros((30, 2)))


def test_oracle_two_mode_ratio_near_zero_time(oracle):
    assert oracle.ratio_w(np.array([[2.0, 2.0]]), 0.0)[0] == pytest.approx(5.0, rel=1e-5)


def test_tilde_against_direct_pooled_density(oracle, p_data_module, p_bias_module):
    # independent oracle: p_data / (half p_bias + half p_data), evaluated directly
    pool = pooled_mixture(p_bias_module, p_data_module)
    x = np.array([[2.0, 2.0]])
    direct = p_data_module.density(x)[0] / pool.density(x)[0]
    assert direct == pytest.approx(2.0 * 5.0 / 6.0, rel=1e-4)
    assert oracle.ratio_tilde(x, 0.0)[0] == pytest.approx(direct, rel=1e-12)


def test_tilde_alpha_values(oracle):
    x = np.array([[2.0, 2.0]])
    assert oracle.ratio_tilde_alpha(x, 0.0, 0.0)[0] == 1.0
    assert oracle.ratio_tilde_alpha(x, 0.0, 1.0)[0] == oracle.ratio_tilde(x, 0.0)[0]
    w = oracle.ratio_w(x, 0.0)[0]
    assert oracle.ratio_tilde_alpha(x, 0.0, 0.5)[0] == pytest.approx(
        2.0 * np.sqrt(w) / (1.0 + np.sqrt(w)), rel=1e-12
    )
    assert 2.0 * np.sqrt(5.0) / (1.0 + np.sqrt(5.0)) == pytest.approx(1.38197, rel=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.floats(-40.0, 40.0))
def test_tilde_range_open_interval(logit_value):
    # 2*sigmoid of a clamped finite logit stays strictly inside (0, 2)
    clamped = np.clip(logit_value, -np.log(1000.0), np.log(1000.0))
    tilde = 2.0 / (1.0 + np.exp(-clamped))
    assert 0.0 < tilde < 2.0


def test_learned_log_ratio_is_logit_bitwise(random_disc):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    h = random_disc.logit(X, 0.4)
    assert np.all(np.abs(h) < LOGIT_CLAMP)  # random nets are mild
    np.testing.assert_array_equal(random_disc.log_ratio_w(X, 0.4), h)
    # the exp/log round trip only costs rounding, never a stability chain
    np.testing.assert_allclose(np.log(random_disc.ratio_w(X, 0.4)), h,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("fixture_name", ["random_disc", "oracle"])
def test_tilde_algebraic_identity(fixture_name, request):
    rm = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(2)
    X = rng.normal(scale=2.0, size=(50, 2))
    for t in (0.05, 0.5, 0.95):
        w = rm.ratio_w(X, t)
        np.testing.assert_allclose(rm.ratio_tilde(X, t), 2.0 * w / (1.0 + w),
                                   rtol=1e-12)


def test_clamp_caps_learned_ratio(sched_module):
    net = Mlp(2, [4], 1, seed=3)
    net.params[:] = 0.0
    net.params[-1] = 50.0  # output bias pins the logit to 50
    rm = RatioModel(sched=sched_module, kind="learned", net=net)
    x = np.zeros((1, 2))
    assert rm.logit(x, 0.5)[0] == pytest.approx(50.0)
    assert rm.ratio_w(x, 0.5)[0] == pytest.approx(1000.0)
    assert rm.ratio_tilde(x, 0.5)[0] == pytest.approx(2000.0 / 1001.0, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_oracle_grad_is_score_difference(oracle, p_data_module, p_bias_module, sched_module):
    rng = np.random.default_rng(3)
    X = rng.normal(scale=2.0, size=(20, 2))
    # at t = 0 the perturbed mixtures are the clean ones
    for t in (0.0, 0.3):
        expected = p_data_module.perturb(sched_module, t).score(X) - \
            p_bias_module.perturb(sched_module, t).score(X)
        np.testing.assert_array_equal(oracle.grad_log_w(X, t), expected)


def test_oracle_grad_matches_finite_difference(oracle):
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(scale=2.0, size=(1, 2))
        t = rng.uniform(0.05, 0.95)
        g = oracle.grad_log_w(x, t)
        fd = np.column_stack([(np.log(oracle.ratio_w(x + e, t)) -
                               np.log(oracle.ratio_w(x - e, t))) / (2 * h)
                              for e in h * np.eye(2)])
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_learned_grad_tilde_matches_finite_difference(random_disc):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        x = rng.normal(size=(1, 2))
        t = rng.uniform(0.05, 0.95)
        g = random_disc.grad_log_tilde(x, t, alpha=1.0)
        fd = np.column_stack([(np.log(random_disc.ratio_tilde(x + e, t)) -
                               np.log(random_disc.ratio_tilde(x - e, t))) / (2 * h)
                              for e in h * np.eye(2)])
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-10)


def test_learned_grads_are_derivatives_of_the_clamped_logit(sched_module):
    net = Mlp(2, [4], 1, seed=3)
    net.params[-1] = -20.0  # the logit sits far below -ln(1000) near the origin
    rm = RatioModel(sched=sched_module, kind="learned", net=net)
    x, t = np.array([[0.3, -0.2]]), 0.5
    assert rm.logit(x, t)[0] == pytest.approx(-20.27, abs=0.01)
    np.testing.assert_array_equal(rm.grad_log_w(x, t), np.zeros((1, 2)))
    np.testing.assert_array_equal(rm.grad_log_tilde(x, t), np.zeros((1, 2)))

    # a batch on both sides of the clamp: each row matches finite differences
    net.params[-1] = -6.5
    X = np.random.default_rng(0).normal(scale=2.0, size=(12, 2))
    clamped = np.abs(rm.logit(X, t)) > LOGIT_CLAMP
    assert 0 < clamped.sum() < len(X)
    h = 1e-6
    for grad, f in ((rm.grad_log_w(X, t), lambda Y: rm.log_ratio_w(Y, t)),
                    (rm.grad_log_tilde(X, t), lambda Y: np.log(rm.ratio_tilde(Y, t)))):
        fd = np.column_stack([(f(X + e) - f(X - e)) / (2 * h) for e in h * np.eye(2)])
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-10)
        np.testing.assert_array_equal(grad[clamped], 0.0)


@pytest.mark.parametrize("kind", ["learned", "oracle"])
def test_logit_and_grad_matches_accessors(kind, random_disc, oracle):
    rm = random_disc if kind == "learned" else oracle
    rng = np.random.default_rng(7)
    X = rng.normal(scale=2.0, size=(15, 2))
    ts = rng.uniform(0.05, 0.95, 15)
    for t in (0.3, ts):
        h, g = rm.logit_and_grad(X, t)
        np.testing.assert_array_equal(h, rm.log_ratio_w(X, t))
        np.testing.assert_array_equal(g, rm.grad_log_w(X, t))
        # the batch (per-row t) paths agree with one row at a time
        for i, t_i in enumerate(np.broadcast_to(t, (15,))):
            h_i, g_i = rm.logit_and_grad(X[i:i + 1], t_i)
            assert h_i[0] == pytest.approx(h[i], rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(g_i[0], g[i], rtol=1e-12, atol=1e-12)


def test_oracle_logit_and_grad_share_the_logit_and_difference_the_scores(oracle):
    rng = np.random.default_rng(19)
    X = rng.normal(scale=3.0, size=(40, 2))
    for t in (0.4, rng.uniform(0.0, 1.0, 40)):
        h, g = oracle.logit_and_grad(X, t)
        h_only, none = oracle.logit_and_grad(X, t, want_grad=False)
        assert none is None
        assert h.tobytes() == h_only.tobytes()
        want = (perturbed_score_batch(oracle.p_num, oracle.sched, X, t)
                - perturbed_score_batch(oracle.p_den, oracle.sched, X, t))
        assert g.tobytes() == want.tobytes()


def test_grad_tilde_alpha_zero_is_zero(random_disc, oracle):
    x = np.array([[0.7, -1.1]])
    for rm in (random_disc, oracle):
        np.testing.assert_array_equal(rm.grad_log_tilde(x, 0.4, alpha=0.0), np.zeros((1, 2)))
        assert rm.ratio_tilde_alpha(x, 0.4, 0.0)[0] == 1.0


def test_weight_and_correction_rejects_bad_alpha_and_form(random_disc, oracle):
    x = np.array([[0.7, -1.1]])
    for rm in (random_disc, oracle):
        with pytest.raises(InputError, match="alpha"):
            rm.weight_and_correction(x, 0.4, alpha=-0.5)
        with pytest.raises(InputError, match="form"):
            rm.weight_and_correction(x, 0.4, form="exp")
        assert rm.weight_and_correction(x, 0.4, want_grad=False)[1] is None


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_weight_and_correction_refuses_a_non_finite_alpha(random_disc, oracle, alpha):
    # either would make every weight nan
    x = np.array([[0.7, -1.1]])
    for rm in (random_disc, oracle):
        with pytest.raises(InputError, match=f"alpha must be finite and >= 0, got {alpha!r}"):
            rm.weight_and_correction(x, 0.4, alpha=alpha)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_indistinguishable_sources_drive_logits_to_zero(sched_module, p_data_module):
    split = DatasetSplit(bias_points=p_data_module.sample(600, seed=1),
                         ref_points=p_data_module.sample(600, seed=2))
    rm = train_discriminator(split, sched_module,
                             DiscTrainConfig(steps=1200, seed=3, batch_size=128,
                                             holdout_fraction=0.1))
    rng = np.random.default_rng(6)
    x0 = p_data_module.sample(400, seed=7)
    t = rng.uniform(sched_module.t_eps, 1.0, 400)
    x_t = sched_module.forward_sample(x0, t, rng.standard_normal(x0.shape))
    assert np.mean(np.abs(rm.logit(x_t, t))) < 0.5


def test_training_deterministic(tmp_path, sched_module, p_data_module, p_bias_module):
    split = DatasetSplit(bias_points=p_bias_module.sample(200, seed=1),
                         ref_points=p_data_module.sample(50, seed=2))
    cfg = DiscTrainConfig(steps=150, seed=9, batch_size=128, holdout_fraction=0.1)
    a = train_discriminator(split, sched_module, cfg)
    b = train_discriminator(split, sched_module, cfg)
    save_ratio_model(a, tmp_path / "a.ckpt")
    save_ratio_model(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_t0_discriminator_trains_under_every_temporal_weighting(sched_module, p_data_module,
                                                               p_bias_module):
    # at the one time t = 0 a weighting is a constant factor; sigma(0)^2 = 0
    # once zeroed the whole BCE and left the network at its initial values
    split = DatasetSplit(bias_points=p_bias_module.sample(100, seed=1),
                         ref_points=p_data_module.sample(40, seed=2))
    params = {}
    for kind in LAMBDA_KINDS:
        rm = train_discriminator(split, sched_module, DiscTrainConfig(
            steps=20, seed=5, hidden=(8,), batch_size=32, time_independent=True,
            lambda_prime=kind))
        assert rm.train_report["final_train_bce"] > 0.1
        params[kind] = rm.net.params
    assert not np.array_equal(params["sigma_squared"], Mlp(2, [8], 1, seed=5).params)
    assert params["sigma_squared"].tobytes() == params["uniform"].tobytes()


def reference_train_discriminator(split, sched, cfg):
    """train_discriminator written out from the public entry points, every
    operation in the order of lam * BCE and lam * (sigmoid(h) - label), with
    the constant weight 1 at t = 0; returns the parameters."""
    rng = np.random.default_rng(cfg.seed)
    B, n_ref = cfg.batch_size, cfg.batch_size // 2

    def carve(points):
        n_hold = min(int(round(cfg.holdout_fraction * points.shape[0])), points.shape[0] - 1)
        return points[rng.permutation(points.shape[0])[n_hold:]]

    ref_train, bias_train = carve(split.ref_points), carve(split.bias_points)
    net = Mlp(split.dim, list(cfg.hidden), 1, n_frequencies=cfg.n_frequencies, seed=cfg.seed)
    state = init_optim(net.n_params, cfg.learning_rate)
    labels = np.concatenate([np.ones(n_ref), np.zeros(B - n_ref)])
    for _ in range(cfg.steps):
        x0 = np.vstack([ref_train[rng.integers(0, ref_train.shape[0], n_ref)],
                        bias_train[rng.integers(0, bias_train.shape[0], B - n_ref)]])
        t = np.zeros(B) if cfg.time_independent else rng.uniform(sched.t_eps, sched.T, B)
        x_t = sched.forward_sample(x0, t, rng.standard_normal(x0.shape))
        out, cache = net.forward(x_t, t, want_cache=True)
        h = out[:, 0]
        lam = 1.0 if cfg.time_independent else lambda_weight(sched, t, cfg.lambda_prime)
        losses = lam * (np.logaddexp(0.0, h) - labels * h)
        dh = lam * (0.5 * (1.0 + np.tanh(0.5 * h)) - labels)
        assert np.isfinite(losses.mean())
        adam_step(net.params, net.param_gradient(dh[:, None] / B, cache), state)
    return net.params


@pytest.mark.parametrize("time_independent, lambda_prime, holdout", [
    (False, "uniform", 0.0), (False, "sigma_squared", 0.2), (True, "uniform", 0.0),
    (True, "sigma_squared", 0.0)])
def test_train_discriminator_gives_the_bytes_of_the_written_out_loop(
        time_independent, lambda_prime, holdout, sched_module, p_data_module, p_bias_module):
    split = DatasetSplit(bias_points=p_bias_module.sample(120, seed=7),
                         ref_points=p_data_module.sample(30, seed=8))
    cfg = DiscTrainConfig(steps=3, seed=9, hidden=(16, 16), batch_size=40,
                          time_independent=time_independent, lambda_prime=lambda_prime,
                          holdout_fraction=holdout)
    want = reference_train_discriminator(split, sched_module, cfg)
    got = train_discriminator(split, sched_module, cfg).net.params
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch_size", [3, 5, 8])
def test_every_row_of_a_discriminator_batch_is_trained(monkeypatch, sched_module, p_data_module,
                                                       p_bias_module, batch_size):
    # floor(B/2) reference rows, ceil(B/2) biased rows, and the BCE gradient
    # averaged over all B
    terms, output_grads = [], []
    tbce_terms, param_gradient = ratio._tbce_terms, Mlp.param_gradient

    def spy_terms(net, sched, cfg, x0, labels, rng, want_cache):
        out = tbce_terms(net, sched, cfg, x0, labels, rng, want_cache)
        terms.append((x0.shape[0], labels.sum(), out[1]))
        return out

    def spy_gradient(net, g, cache):
        output_grads.append(g.copy())
        return param_gradient(net, g, cache)

    monkeypatch.setattr(ratio, "_tbce_terms", spy_terms)
    monkeypatch.setattr(Mlp, "param_gradient", spy_gradient)
    split = DatasetSplit(bias_points=p_bias_module.sample(100, seed=1),
                         ref_points=p_data_module.sample(40, seed=2))
    train_discriminator(split, sched_module,
                        DiscTrainConfig(steps=2, seed=1, hidden=(8,), batch_size=batch_size))
    assert len(terms) == len(output_grads) == 2
    for (rows, n_ref, dh), g in zip(terms, output_grads):
        assert rows == batch_size and n_ref == batch_size // 2
        assert g[:, 0].tobytes() == (dh / batch_size).tobytes()


def test_empty_split_rejected():
    with pytest.raises(InputError):
        DatasetSplit(bias_points=np.zeros((0, 2)), ref_points=np.zeros((3, 2)))


def test_checkpoint_role_round_trip(tmp_path, sched_module, p_data_module, p_bias_module):
    split = DatasetSplit(bias_points=p_bias_module.sample(100, seed=1),
                         ref_points=p_data_module.sample(40, seed=2))
    rm = train_discriminator(split, sched_module,
                             DiscTrainConfig(steps=50, seed=4, time_independent=True,
                                             batch_size=128, holdout_fraction=0.1))
    path = tmp_path / "disc.ckpt"
    save_ratio_model(rm, path)
    clone = load_ratio_model(path, sched_module)
    assert "time_independent" not in load_net(path)[1]
    x = np.array([[0.1, 0.2]])
    assert clone.ratio_w(x, 0.7) == rm.ratio_w(x, 0.7)


def test_load_rejects_non_discriminator(tmp_path, sched_module):
    from tiwlab.net import save_net

    net = Mlp(2, [4], 1, seed=0)
    save_net(net, tmp_path / "plain.ckpt")
    with pytest.raises(InputError, match="role"):
        load_ratio_model(tmp_path / "plain.ckpt", sched_module)


def test_load_ignores_a_stored_logit_clamp(tmp_path, sched_module):
    # older checkpoints carry the clamp and a time_independent flag in the
    # header; the model clamps at LOGIT_CLAMP and answers at the time asked
    from tiwlab.net import save_net

    net = Mlp(2, [8], 1, seed=0)
    net.params[-1] = -20.0
    path = tmp_path / "disc.ckpt"
    save_net(net, path, extra={"role": "discriminator", "time_independent": True,
                               "logit_clamp": 1.0})
    rm = load_ratio_model(path, sched_module)
    X = np.zeros((1, 2))
    assert rm.log_ratio_w(X, 0.5)[0] == -LOGIT_CLAMP
    assert rm.logit(X, 0.9).tobytes() == net.forward(X, 0.9)[:, 0].tobytes()


def test_load_rejects_a_discriminator_with_a_vector_output(tmp_path, sched_module):
    from tiwlab.net import save_net

    path = tmp_path / "wide.ckpt"
    save_net(Mlp(2, [8], 2, seed=0), path, extra={"role": "discriminator"})
    with pytest.raises(IoError, match=f"corrupt checkpoint {path}: output_dim"):
        load_ratio_model(path, sched_module)


# ---------------------------------------------------------------------------
# ratio-quality metrics
# ---------------------------------------------------------------------------

def test_dre_mse_zero_against_itself(oracle, p_data_module, p_bias_module):
    pool = pooled_mixture(p_data_module, p_bias_module)
    assert dre_mse(oracle, oracle, pool, 0.4, 2000, seed=1) == 0.0


def test_integrated_error_oracle_vs_oracle_convention(oracle):
    scan = integrated_dre_error(oracle, oracle, oracle, np.linspace(0, 1, 5), n=500)
    assert scan.ratio == 1.0
    assert all(a >= 0.0 and b >= 0.0 for _, a, b in scan.per_t)
    assert len(scan.per_t) == 5


def test_integrated_error_grid_validation(oracle):
    with pytest.raises(InputError):
        integrated_dre_error(oracle, oracle, oracle, [0.5, 0.5], n=100)


def test_dre_curve_decreases_up_to_one_inversion(sched_module, p_data_module,
                                                 p_bias_module, oracle):
    split = DatasetSplit(bias_points=p_bias_module.sample(1000, seed=50),
                         ref_points=p_data_module.sample(100, seed=51))
    rm = train_discriminator(split, sched_module,
                             DiscTrainConfig(steps=1500, seed=52, batch_size=128,
                                             holdout_fraction=0.1))
    pool = pooled_mixture(p_data_module, p_bias_module)
    curve = [dre_mse(rm, oracle, pool, t, 10_000, seed=53)
             for t in (0.0, 0.2, 0.4, 0.6, 0.8)]
    inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
    assert inversions <= 1, curve
