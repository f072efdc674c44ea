import multiprocessing
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from tiwlab import sde, workers
from tiwlab.errors import EXIT_CODES, InputError, NumericalError
from tiwlab.metrics import energy_distance
from tiwlab.mixture import GaussianMixture, perturbed_score_batch
from tiwlab.net import Mlp
from tiwlab.sde import LAMBDA_KINDS, SamplerSpec, VpSchedule, lambda_weight, reverse_generate

from conftest import needs_blas_setter


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_alpha_sigma_endpoints(sched):
    alpha, sigma = sched.alpha_sigma(0.0)
    assert alpha == 1.0 and sigma == 0.0


def test_alpha_against_quadrature_oracle(sched):
    # alpha(t) = exp(-0.5 int_0^t beta), integral by fine trapezoid
    t = 0.5
    s = np.linspace(0.0, t, 200_001)
    integral = np.trapezoid(sched.beta(s), s)
    alpha, sigma = sched.alpha_sigma(t)
    assert alpha == pytest.approx(np.exp(-0.5 * integral), rel=1e-9)
    assert alpha == pytest.approx(0.28118, rel=1e-4)
    assert sigma == pytest.approx(0.95966, rel=1e-4)


def test_alpha_monotone_and_pythagorean(sched):
    ts = np.linspace(0.0, sched.T, 1000)
    alpha, sigma = sched.alpha_sigma(ts)
    assert np.all(np.diff(alpha) < 0.0)
    assert np.all(np.diff(sigma) > 0.0)
    np.testing.assert_allclose(alpha**2 + sigma**2, 1.0, rtol=0, atol=5e-16)


def test_time_range_checked(sched):
    with pytest.raises(InputError):
        sched.alpha_sigma(-0.1)
    with pytest.raises(InputError):
        sched.beta(1.5)
    # NaN fails t < 0 and t > T alike, so a range test written that way passed it
    for t in (np.nan, np.array([0.3, np.nan])):
        with pytest.raises(InputError, match="time must lie in"):
            sched.alpha_sigma(t)
        with pytest.raises(InputError, match="time must lie in"):
            sched.beta(t)


@pytest.mark.parametrize("kind", LAMBDA_KINDS)
@pytest.mark.parametrize("t", [np.array([0.3, np.nan]), np.array([0.3, 5.0]), np.array([-0.1])],
                         ids=["nan", "above-T", "negative"])
def test_lambda_weight_checks_the_time_range(sched, kind, t):
    # uniform does not read t, but it accepts only the times sigma_squared accepts
    with pytest.raises(InputError, match="time must lie in"):
        lambda_weight(sched, t, kind)


def test_schedule_validation():
    with pytest.raises(InputError):
        VpSchedule(beta_min=0.0)
    with pytest.raises(InputError):
        VpSchedule(beta_min=2.0, beta_max=1.0)


# ---------------------------------------------------------------------------
# forward kernel
# ---------------------------------------------------------------------------

def test_forward_sample_identity_at_zero(sched):
    x0 = np.array([[1.0, -2.0]])
    np.testing.assert_array_equal(sched.forward_sample(x0, 0.0, np.zeros((1, 2))), x0)


def test_forward_sample_zero_noise_deterministic(sched):
    x0 = np.array([[1.0, -2.0]])
    alpha, _ = sched.alpha_sigma(0.7)
    np.testing.assert_allclose(sched.forward_sample(x0, 0.7, np.zeros((1, 2))), alpha * x0)


def test_forward_sample_monte_carlo_mean(sched):
    n = 100_000
    x0 = np.array([1.0, -2.0])
    rng = np.random.default_rng(0)
    xt = sched.forward_sample(np.tile(x0, (n, 1)), 0.5, rng.standard_normal((n, 2)))
    alpha, sigma = sched.alpha_sigma(0.5)
    assert np.all(np.abs(xt.mean(axis=0) - alpha * x0) < 3 * sigma / np.sqrt(n))


def test_forward_sample_shape_mismatch(sched):
    with pytest.raises(InputError):
        sched.forward_sample(np.zeros((1, 2)), 0.5, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# conditional score
# ---------------------------------------------------------------------------

def test_cond_score_zero_at_kernel_mode(sched):
    x0 = np.array([[0.4, 0.8]])
    alpha, _ = sched.alpha_sigma(0.3)
    np.testing.assert_allclose(sched.cond_score(alpha * x0, x0, 0.3), np.zeros((1, 2)))


def test_cond_score_matches_single_gaussian_score(sched):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.normal(size=(1, 2))
        t = rng.uniform(sched.t_eps, 1.0)
        x_t = rng.normal(size=(1, 2))
        alpha, sigma = sched.alpha_sigma(t)
        gm = GaussianMixture(weights=[1.0], means=alpha * x0, variances=[sigma**2])
        np.testing.assert_allclose(
            sched.cond_score(x_t, x0, t), gm.score(x_t), rtol=1e-12
        )


def test_cond_score_noise_identity(sched):
    rng = np.random.default_rng(3)
    x0, eps = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    t = 0.6
    alpha, sigma = sched.alpha_sigma(t)
    x_t = alpha * x0 + sigma * eps
    np.testing.assert_allclose(sched.cond_score(x_t, x0, t), -eps / sigma, rtol=1e-12)


def test_cond_score_singular_below_floor(sched):
    with pytest.raises(NumericalError):
        sched.cond_score(np.zeros((1, 2)), np.zeros((1, 2)), sched.t_eps / 2)


# ---------------------------------------------------------------------------
# reverse generation
# ---------------------------------------------------------------------------

def oracle_score_fn(gm, sched):
    return lambda X, t: gm.perturb(sched, t).score(X)


def test_generate_standard_normal_fixed_point(sched):
    spec = SamplerSpec(steps=100, seed=1)
    X = reverse_generate(sched, lambda x, t: -x, spec, n=4000, dim=2)
    assert np.all(np.abs(X.mean(axis=0)) < 0.05)
    np.testing.assert_allclose(np.cov(X.T), np.eye(2), atol=0.05)


def test_generate_recovers_balanced_weights(sched, p_data):
    spec = SamplerSpec(steps=200, seed=11)
    X = reverse_generate(sched, oracle_score_fn(p_data, sched), spec, n=10_000, dim=2)
    props = p_data.posterior(X).mean(axis=0)
    assert 0.47 <= props[1] <= 0.53


def test_generate_recovers_bias_weights(sched, p_bias):
    spec = SamplerSpec(steps=200, seed=12)
    X = reverse_generate(sched, oracle_score_fn(p_bias, sched), spec, n=10_000, dim=2)
    props = p_bias.posterior(X).mean(axis=0)
    assert 0.08 <= props[1] <= 0.12


def test_generate_deterministic(sched, p_data):
    spec = SamplerSpec(steps=50, seed=21)
    a = reverse_generate(sched, oracle_score_fn(p_data, sched), spec, n=256, dim=2)
    b = reverse_generate(sched, oracle_score_fn(p_data, sched), spec, n=256, dim=2)
    np.testing.assert_array_equal(a, b)


def test_generate_step_doubling_convergence(sched, p_data):
    target = p_data.sample(4000, seed=101)
    out = {}
    for steps in (100, 200):
        spec = SamplerSpec(steps=steps, seed=31)
        X = reverse_generate(sched, oracle_score_fn(p_data, sched), spec, n=2000, dim=2)
        out[steps] = energy_distance(X, target)
    assert abs(out[200] - out[100]) < 0.2 * max(out[100], out[200])


@pytest.mark.parametrize("score", ["net", "mixture"])
def test_heun_gives_the_bytes_of_the_written_out_integrator(score, sched, p_data):
    # every drift is -0.5 beta(t) (x + s(x, t)), beta and s computed at that t
    net = Mlp(2, [16, 16], 2, seed=3)
    score_fn = {"net": net.forward,
                "mixture": lambda X, t: perturbed_score_batch(p_data, sched, X, t)}[score]
    spec, n = SamplerSpec(steps=5, seed=4), 64
    times = np.linspace(sched.T, sched.t_eps, spec.steps + 1)
    x = np.array([np.random.default_rng([spec.seed, i]).standard_normal(2) for i in range(n)])
    for t, t_next in zip(times[:-1], times[1:]):
        dt = t_next - t
        k1 = -0.5 * sched.beta(t) * (x + score_fn(x, t))
        xx = x + dt * k1
        k2 = -0.5 * sched.beta(t_next) * (xx + score_fn(xx, t_next))
        x = x + 0.5 * dt * (k1 + k2)
    assert reverse_generate(sched, score_fn, spec, n, 2).tobytes() == x.tobytes()


def test_generate_rejects_nonfinite_score(sched):
    spec = SamplerSpec(steps=10, seed=0)
    with pytest.raises(NumericalError, match=re.escape(f"at step 0, t={sched.T:.6g}")):
        reverse_generate(sched, lambda x, t: x * np.nan, spec, n=4, dim=2)


def test_generate_reports_the_step_of_a_nonfinite_score(sched):
    spec = SamplerSpec(steps=10, seed=0)
    times = np.linspace(sched.T, sched.t_eps, 11)
    t_cut = 0.5 * (times[6] + times[7])  # the score is NaN from times[7] on

    def score(x, t):
        return -x * (np.nan if t < t_cut else 1.0)

    # Heun reads the score at t_k and at t_{k+1} in step k
    with pytest.raises(NumericalError, match=re.escape(f"at step 6, t={times[7]:.6g}")):
        reverse_generate(sched, score, spec, n=4, dim=2)


PARALLEL_MAP = workers.parallel_map


def _split_into(monkeypatch, cores, min_rows=16):
    """Let reverse_generate split chunks of min_rows rows or more over cores
    workers; return the list of the chunk counts it passes to parallel_map."""
    monkeypatch.setattr(sde, "MIN_ROWS_PER_WORKER", min_rows)
    monkeypatch.setattr(workers, "_cores", lambda: cores)
    counts = []

    def counting(fn, items):
        counts.append(len(items))
        return PARALLEL_MAP(fn, items)

    monkeypatch.setattr(workers, "parallel_map", counting)
    return counts


@needs_blas_setter
def test_split_sampling_gives_the_bytes_of_one_process(sched, p_data, monkeypatch):
    spec = SamplerSpec(steps=20, seed=5)
    runs = {}
    for cores in (1, 2, 3):
        counts = _split_into(monkeypatch, cores)
        # 101 rows split unevenly: 50/51 and 33/34/34
        runs[cores] = reverse_generate(sched, oracle_score_fn(p_data, sched), spec,
                                       n=101, dim=2)
        assert counts == ([] if cores == 1 else [cores])
    assert runs[2].tobytes() == runs[1].tobytes()
    assert runs[3].tobytes() == runs[1].tobytes()
    assert multiprocessing.active_children() == []


@needs_blas_setter
def test_split_sampling_with_a_score_net_gives_the_bytes_of_one_process(sched, monkeypatch):
    # BLAS computes this score, so a row's bytes depend on its chunk at some
    # batch sizes (with this net, 101 rows in chunks of 50 and 51); the
    # split's real chunks, of MIN_ROWS_PER_WORKER rows or one more, are not
    # among them
    net = Mlp(2, [64, 64, 64], 2, seed=1)
    spec = SamplerSpec(steps=10, seed=6)
    min_rows = sde.MIN_ROWS_PER_WORKER
    for cores in (2, 3):
        n = cores * min_rows + 1  # chunks of min_rows, the last one row longer
        runs = {}
        for split in (1, cores):
            counts = _split_into(monkeypatch, split, min_rows)
            runs[split] = reverse_generate(sched, net.forward, spec, n=n, dim=2)
            assert counts == ([] if split == 1 else [cores])
        assert runs[cores].tobytes() == runs[1].tobytes()
    assert multiprocessing.active_children() == []


@needs_blas_setter
def test_split_sampling_raises_the_error_of_one_process(sched, monkeypatch, tmp_path):
    n, seed = 40, 0
    spec = SamplerSpec(steps=10, seed=seed)
    times = np.linspace(sched.T, sched.t_eps, 11)
    # with the score -x the flow leaves every state at its prior draw, which
    # tells the rows of the second chunk (20..39) from those of the first
    later = [np.random.default_rng([seed, i]).standard_normal(2)[0] for i in range(20, n)]
    pid_log = tmp_path / "pids"

    def score(x, t):
        with open(pid_log, "a") as f:
            f.write(f"{os.getpid()}\n")
        # the second chunk's rows turn NaN at times[3], the first chunk's at times[6]
        cut = np.where(np.isin(x[:, 0], later), times[3], times[6])
        return np.where((t <= cut)[:, None], np.nan, -x)

    errors = {}
    for cores in (1, 2):
        counts = _split_into(monkeypatch, cores)
        with pytest.raises(NumericalError) as caught:
            reverse_generate(sched, score, spec, n=n, dim=2)
        errors[cores] = str(caught.value)
        assert EXIT_CODES[caught.value.category] == 4
        assert counts == ([] if cores == 1 else [2])
        assert multiprocessing.active_children() == []
    # Heun reads the score at t_{k+1} in step k, so the NaN from times[3] is step 2's
    assert errors[1] == f"non-finite state at step 2, t={times[3]:.6g}"
    assert errors[2] == errors[1]
    # the chunks ran in workers (one worker may take both chunks)
    assert {int(v) for v in pid_log.read_text().split()} - {os.getpid()}


def test_sampler_spec_validation():
    with pytest.raises(InputError):
        SamplerSpec(steps=1)
    # Heun on the probability-flow ODE is the only sampler
    assert [f.name for f in fields(SamplerSpec)] == ["steps", "seed"]
