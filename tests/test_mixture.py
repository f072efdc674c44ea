import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiwlab.errors import InputError
from tiwlab.metrics import energy_distance, evaluate_samples, mode_proportions
from tiwlab.mixture import (
    GaussianMixture,
    perturbed_log_density_and_score_batch,
    perturbed_log_density_batch,
    perturbed_score_batch,
    pooled_mixture,
)
from tiwlab.net import Mlp
from tiwlab.objectives import ObjectiveSpec, persample_loss
from tiwlab.ratio import DatasetSplit, RatioModel, oracle_ratio_model
from tiwlab.sampling import write_samples_csv
from tiwlab.sde import VpSchedule, lambda_weight

from conftest import mixture_pdf_by_hand, standard_normal_mixture


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------

def test_rejects_bad_weights():
    with pytest.raises(InputError):
        GaussianMixture(weights=[0.6, 0.6], means=[[0.0], [1.0]], variances=[1.0, 1.0])


@pytest.mark.parametrize("weights", [[0.5, np.nan], [np.nan, np.nan], [np.inf, 0.5]])
def test_rejects_non_finite_weights(weights):
    # a nan weight passes both w <= 0 and the sum check it makes nan
    with pytest.raises(InputError, match="weights"):
        GaussianMixture(weights=weights, means=[[0.0], [1.0]], variances=[1.0, 1.0])


def test_rejects_nonpositive_variance():
    with pytest.raises(InputError):
        GaussianMixture(weights=[1.0], means=[[0.0]], variances=[0.0])


GM = GaussianMixture(weights=[0.5, 0.5], means=[[0.0, 0.0], [1.0, 1.0]],
                     variances=[1.0, 1.0])
SCHED = VpSchedule()
ORACLE = oracle_ratio_model(GM, pooled_mixture(GM, GM), SCHED)
# every entry point that takes a point set, called on X (one point per row);
# the per-row times make a 1-D X of n points look like n rows to numpy
POINT_SETS = {
    "Mlp.forward": lambda X, tmp: Mlp(2, [4], 2, seed=0).forward(X, 0.3),
    "Mlp.value_and_input_gradient":
        lambda X, tmp: Mlp(2, [4], 2, seed=0).value_and_input_gradient(X, 0.3),
    "GaussianMixture.log_density": lambda X, tmp: GM.log_density(X),
    "GaussianMixture.score": lambda X, tmp: GM.score(X),
    "GaussianMixture.posterior": lambda X, tmp: GM.posterior(X),
    "GaussianMixture.means":
        lambda X, tmp: GaussianMixture(weights=[1.0], means=X, variances=[1.0]),
    "perturbed_log_density_batch":
        lambda X, tmp: perturbed_log_density_batch(GM, SCHED, X, np.full(len(X), 0.3)),
    "perturbed_score_batch":
        lambda X, tmp: perturbed_score_batch(GM, SCHED, X, np.full(len(X), 0.3)),
    "perturbed_log_density_and_score_batch":
        lambda X, tmp: perturbed_log_density_and_score_batch(GM, SCHED, X, 0.3),
    "VpSchedule.forward_sample":
        lambda X, tmp: SCHED.forward_sample(X, np.full(len(X), 0.3), np.zeros_like(X)),
    "VpSchedule.cond_score":
        lambda X, tmp: SCHED.cond_score(np.zeros_like(X), X, np.full(len(X), 0.3)),
    "RatioModel.weight_and_correction[learned]":
        lambda X, tmp: RatioModel(SCHED, net=Mlp(2, [4], 1, seed=0)).weight_and_correction(X, 0.3),
    "RatioModel.weight_and_correction[oracle]":
        lambda X, tmp: ORACLE.weight_and_correction(X, np.full(len(X), 0.3)),
    "DatasetSplit": lambda X, tmp: DatasetSplit(bias_points=X, ref_points=X),
    "write_samples_csv": lambda X, tmp: write_samples_csv(tmp / "samples.csv", X),
    "mode_proportions": lambda X, tmp: mode_proportions(X, GM),
    "energy_distance[a]": lambda X, tmp: energy_distance(X, np.ones((3, 2))),
    "energy_distance[b]": lambda X, tmp: energy_distance(np.ones((3, 2)), X),
    "evaluate_samples": lambda X, tmp: evaluate_samples(X, np.ones((3, 2)), GM),
}
# the name an entry's error gives its point set, where it is not "x"
REFUSED_AS = {
    "GaussianMixture.means": "means",
    "VpSchedule.forward_sample": "x0",
    "VpSchedule.cond_score": "x0",
    "DatasetSplit": "bias_points",
    "write_samples_csv": "samples",
    "mode_proportions": "samples",
    "energy_distance[a]": "a",
    "energy_distance[b]": "b",
    "evaluate_samples": "samples",
}


@pytest.mark.parametrize("entry", POINT_SETS)
def test_a_single_point_is_refused_with_the_batch_shape(entry, tmp_path):
    # points are (n, d) batches everywhere; a 1-D array is refused, not promoted
    f = POINT_SETS[entry]
    x = np.array([0.5, -0.5])
    with pytest.raises(InputError, match=r"(shape|be) \([nk], [2d]\).*got \(2,\)"):
        f(x, tmp_path)
    f(x[None, :], tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", POINT_SETS)
def test_a_non_finite_point_is_refused_naming_the_input(entry, bad, tmp_path):
    # a nan or inf point would reach a weight, a correction or a score unseen
    with pytest.raises(InputError, match=rf"^{REFUSED_AS.get(entry, 'x')} .*finite"):
        POINT_SETS[entry](np.array([[0.5, bad]]), tmp_path)
    assert list(tmp_path.iterdir()) == []


# every entry point that takes a shared or per-row time t with an (n, d) batch
PER_ROW_TIMES = {
    "Mlp.forward": lambda X, t: Mlp(2, [4], 2, seed=0).forward(X, t),
    "perturbed_log_density_batch": lambda X, t: perturbed_log_density_batch(GM, SCHED, X, t),
    "perturbed_score_batch": lambda X, t: perturbed_score_batch(GM, SCHED, X, t),
    "perturbed_log_density_and_score_batch":
        lambda X, t: perturbed_log_density_and_score_batch(GM, SCHED, X, t),
    "VpSchedule.forward_sample": lambda X, t: SCHED.forward_sample(X, t, np.ones_like(X)),
    "VpSchedule.cond_score": lambda X, t: SCHED.cond_score(np.ones_like(X), X, t),
    "RatioModel.weight_and_correction[learned]":
        lambda X, t: RatioModel(SCHED, net=Mlp(2, [4], 1, seed=0)).weight_and_correction(X, t),
    "RatioModel.weight_and_correction[oracle]":
        lambda X, t: ORACLE.weight_and_correction(X, t),
}


@pytest.mark.parametrize("entry", PER_ROW_TIMES)
def test_a_per_row_time_must_have_one_entry_per_row(entry):
    # numpy would broadcast a 1-row batch against 3 times into 3 rows
    f = PER_ROW_TIMES[entry]
    X = np.zeros((1, 2))
    with pytest.raises(InputError, match=r"t must be scalar or shape \(1,\), got \(3,\)"):
        f(X, np.full(3, 0.3))
    with pytest.raises(InputError, match=r"t must be scalar or shape \(1,\), got \(1, 1\)"):
        f(X, np.full((1, 1), 0.3))
    for t in (np.full(1, 0.3), 0.3):
        out = f(X, t)
        assert (out[0] if isinstance(out, tuple) else out).shape[0] == 1


@pytest.mark.parametrize("entry", PER_ROW_TIMES)
def test_a_non_finite_time_is_refused(entry):
    f = PER_ROW_TIMES[entry]
    X = np.zeros((2, 2))
    for t in (np.array([0.3, np.nan]), np.array([0.3, np.inf]), np.nan):
        with pytest.raises(InputError, match="t must be finite"):
            f(X, t)


# every entry point that checks a time against a schedule, called with a
# 1-row X at a shared or per-row time t
SCHEDULED_TIMES = {
    **{entry: f for entry, f in PER_ROW_TIMES.items() if entry != "Mlp.forward"},
    "VpSchedule.beta": lambda X, t: SCHED.beta(t),
    "VpSchedule.alpha_sigma": lambda X, t: SCHED.alpha_sigma(t),
    "lambda_weight": lambda X, t: lambda_weight(SCHED, t, "sigma_squared"),
    "GaussianMixture.perturb": lambda X, t: GM.perturb(SCHED, t),
    "persample_loss": lambda X, t: persample_loss(Mlp(2, [4], 2, seed=0),
                                                  ObjectiveSpec(kind="dsm"), X[0], t,
                                                  np.ones(2), SCHED),
}


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
@pytest.mark.parametrize("t", [-0.5, SCHED.T + 0.5])
@pytest.mark.parametrize("entry", SCHEDULED_TIMES)
def test_a_time_outside_the_horizon_is_refused(entry, t, per_row):
    # w_t, the kernel and the noised mixtures are defined on [0, T] only
    with pytest.raises(InputError, match=r"time must lie in \[0, 1\.0\]"):
        SCHEDULED_TIMES[entry](np.zeros((1, 2)), np.array([t]) if per_row else t)


@pytest.mark.parametrize("t", [1.5, -0.5, [0.3, 1.5]], ids=str)
def test_learned_and_oracle_ratios_refuse_the_same_times(t):
    # the oracle is the judge of the learned ratio, so both answer the same queries
    learned = RatioModel(SCHED, net=Mlp(2, [4], 1, seed=0))
    errors = []
    for rm in (learned, ORACLE):
        with pytest.raises(InputError, match="time must lie in") as info:
            rm.weight_and_correction(np.zeros((2, 2)), t)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("t", [np.full(3, 0.3), np.full(1, 0.3)], ids=["(3,)", "(1,)"])
def test_perturb_refuses_a_per_row_time_naming_t(t):
    # one scalar time gives one mixture; per-row times would give one per row
    with pytest.raises(InputError, match=r"scalar time t, got shape \(%d,\)" % t.size):
        GM.perturb(SCHED, t)


def test_rejects_dim_mismatch_query(p_data):
    with pytest.raises(InputError, match=r"got \(1, 3\)"):
        p_data.density([[0.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_standard_normal_mode():
    gm = standard_normal_mixture(2)
    assert gm.density([[0.0, 0.0]])[0] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


def test_density_balanced_origin(p_data):
    # both components contribute (1/4pi) e^-4
    expected = mixture_pdf_by_hand(
        np.zeros(2), [0.5, 0.5], [[-2, -2], [2, 2]], [1.0, 1.0]
    )
    assert expected == pytest.approx(np.exp(-4.0) / (2.0 * np.pi), rel=1e-12)
    assert p_data.density([[0.0, 0.0]])[0] == pytest.approx(expected, rel=1e-12)


def test_density_bias_at_heavy_mode(p_bias):
    expected = mixture_pdf_by_hand(
        np.array([-2.0, -2.0]), [0.9, 0.1], [[-2, -2], [2, 2]], [1.0, 1.0]
    )
    assert expected == pytest.approx(0.143240, rel=1e-5)
    assert p_bias.density([[-2.0, -2.0]])[0] == pytest.approx(expected, rel=1e-12)


def test_log_density_survives_far_tail(p_data):
    # -700-ish log densities would underflow a naive linear-domain sum
    x = np.full((1, 2), 40.0)
    assert np.isfinite(p_data.log_density(x)[0])
    assert p_data.log_density(x)[0] < -600


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_single_gaussian_closed_form():
    gm = GaussianMixture(weights=[1.0], means=[[1.0, -1.0]], variances=[4.0])
    x = np.array([[0.5, 0.5]])
    np.testing.assert_allclose(gm.score(x), (np.array([1.0, -1.0]) - x) / 4.0)
    np.testing.assert_array_equal(gm.score(np.array([[1.0, -1.0]])), np.zeros((1, 2)))


def test_score_cancels_at_symmetric_origin(p_data):
    np.testing.assert_allclose(p_data.score([[0.0, 0.0]]), np.zeros((1, 2)), atol=1e-15)


def test_score_matches_log_density_finite_difference(p_bias):
    rng = np.random.default_rng(0)
    h = 1e-5
    X = rng.normal(scale=2.5, size=(100, 2))
    fd = np.column_stack([(p_bias.log_density(X + e) - p_bias.log_density(X - e)) / (2 * h)
                          for e in h * np.eye(2)])
    np.testing.assert_allclose(p_bias.score(X), fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def test_perturb_at_zero_is_identity(p_bias, sched):
    out = p_bias.perturb(sched, 0.0)
    np.testing.assert_array_equal(out.means, p_bias.means)
    np.testing.assert_array_equal(out.variances, p_bias.variances)
    np.testing.assert_array_equal(out.weights, p_bias.weights)


def test_perturb_terminal_is_near_standard_normal(p_bias, sched):
    out = p_bias.perturb(sched, sched.T)
    assert np.all(np.abs(out.means) < 0.02)
    np.testing.assert_allclose(out.variances, 1.0, atol=0.01)


def test_perturb_matches_monte_carlo_forward(p_data, sched):
    # empirical moments of alpha x0 + sigma eps vs the analytic pushforward
    t = 0.35
    n = 100_000
    rng = np.random.default_rng(42)
    x0 = p_data.sample(n, seed=7)
    xt = sched.forward_sample(x0, t, rng.standard_normal(x0.shape))
    pt = p_data.perturb(sched, t)

    true_mean = pt.weights @ pt.means
    second = pt.weights @ (pt.variances[:, None] + pt.means**2)
    true_var = second - true_mean**2
    mean_se = np.sqrt(true_var / n)
    assert np.all(np.abs(xt.mean(axis=0) - true_mean) < 3 * mean_se)
    # variance of the squared deviation, for the second-moment standard error
    dev = xt - true_mean
    var_se = dev.var(axis=0, ddof=1) * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(dev.var(axis=0) - true_var) < 3 * var_se)


def test_perturb_agrees_with_kernel_quadrature_1d(sched):
    # p^t(x) = integral p^0(x0) N(x; alpha x0, sigma^2) dx0, by quadrature
    gm = GaussianMixture(weights=[0.3, 0.7], means=[[-1.5], [2.0]], variances=[0.5, 1.2])
    t = 0.4
    alpha, sigma = sched.alpha_sigma(t)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    lo, hi = -12.0, 12.0
    x0 = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    for x in (-1.0, 0.0, 1.3):
        kernel = np.exp(-0.5 * (x - alpha * x0) ** 2 / sigma**2) / np.sqrt(
            2 * np.pi * sigma**2
        )
        p0 = gm.density(x0[:, None])
        integral = float(np.sum(w * p0 * kernel))
        assert gm.perturb(sched, t).density([[x]])[0] == pytest.approx(integral, rel=1e-8)


# ---------------------------------------------------------------------------
# ratios: the oracle ratio at t=0 is the density quotient of the mixtures
# ---------------------------------------------------------------------------

def ratio_t0(p_num, p_den, X):
    return oracle_ratio_model(p_num, p_den, VpSchedule()).ratio_w(X, 0.0)


def test_ratio_of_identical_mixtures(p_data):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 2))
    np.testing.assert_allclose(ratio_t0(p_data, p_data, X), 1.0, rtol=1e-12)


def test_ratio_two_mode_values(p_data, p_bias):
    num = mixture_pdf_by_hand([-2.0, -2.0], [0.5, 0.5], [[-2, -2], [2, 2]], [1, 1])
    den = mixture_pdf_by_hand([-2.0, -2.0], [0.9, 0.1], [[-2, -2], [2, 2]], [1, 1])
    w = ratio_t0(p_data, p_bias, [[-2.0, -2.0], [2.0, 2.0]])
    assert w[0] == pytest.approx(num / den, rel=1e-12)
    assert num / den == pytest.approx(0.55556, rel=1e-4)
    assert w[1] == pytest.approx(5.0, rel=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-8, 8), min_size=2, max_size=2))
def test_ratio_reciprocal_identity(x):
    p = GaussianMixture(weights=[0.5, 0.5], means=[[-2, -2], [2, 2]], variances=[1, 1])
    q = GaussianMixture(weights=[0.9, 0.1], means=[[-2, -2], [2, 2]], variances=[1, 1])
    prod = ratio_t0(p, q, np.array([x])) * ratio_t0(q, p, np.array([x]))
    assert prod == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_mean_within_clt_bound():
    gm = standard_normal_mixture(2)
    X = gm.sample(100_000, seed=3)
    assert np.all(np.abs(X.mean(axis=0)) < 0.02)


def test_sample_minority_fraction(p_bias):
    X = p_bias.sample(100_000, seed=5)
    # nearest-mean assignment: positive-quadrant mode is component 2
    nearest = np.argmin(
        ((X[:, None, :] - p_bias.means[None]) ** 2).sum(axis=2), axis=1
    )
    frac = (nearest == 1).mean()
    assert 0.09 <= frac <= 0.11


def test_sample_deterministic(p_data):
    np.testing.assert_array_equal(p_data.sample(64, seed=9), p_data.sample(64, seed=9))


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def test_posterior_hand_value(p_data):
    post = p_data.posterior([[2.0, 2.0]])[0]
    assert post[1] == pytest.approx(1.0 / (1.0 + np.exp(-16.0)), rel=1e-12)


def test_posterior_symmetric_point(p_data):
    np.testing.assert_allclose(p_data.posterior([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=2))
def test_posterior_normalized(x):
    gm = GaussianMixture(
        weights=[0.2, 0.5, 0.3],
        means=[[-2, -2], [2, 2], [0, 3]],
        variances=[1.0, 0.5, 2.0],
    )
    post = gm.posterior(np.array([x]))[0]
    assert np.all(post >= 0.0) and np.all(post <= 1.0)
    assert abs(post.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# pooling / serialization
# ---------------------------------------------------------------------------

def test_pooled_mixture_density(p_data, p_bias):
    pool = pooled_mixture(p_data, p_bias)
    x = np.array([[0.3, -1.2]])
    assert pool.density(x)[0] == pytest.approx(
        0.5 * p_data.density(x)[0] + 0.5 * p_bias.density(x)[0], rel=1e-12
    )


def test_dict_round_trip(p_bias):
    clone = GaussianMixture.from_dict(p_bias.to_dict())
    np.testing.assert_array_equal(clone.means, p_bias.means)
    np.testing.assert_array_equal(clone.weights, p_bias.weights)
