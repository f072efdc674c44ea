"""Variance-preserving forward/reverse dynamics.

Linear noise schedule beta(t) = beta_min + t * (beta_max - beta_min) on
[0, T]. The perturbation kernel is x_t = alpha(t) x_0 + sigma(t) eps with

    alpha(t) = exp(-0.5 * (beta_min t + 0.5 (beta_max - beta_min) t^2))
    sigma(t) = sqrt(1 - alpha(t)^2)

so alpha^2 + sigma^2 = 1 by construction. Generation integrates the
probability-flow ODE with Heun's method (deterministic, second order) from
t = T down to t = t_eps. The score it integrates is row-wise (row i of the
score depends only on row i of the states), and every trajectory draws its
prior from its own stream, so the trajectories may be integrated in row
chunks in worker processes with the same result.

Each public entry point checks its times once, in VpSchedule.check_times.
The training loops draw theirs inside [t_eps, T] and take alpha(t) and
sigma(t) once per step from _alpha_sigma, for _kernel_sample, _kernel_score
and _lambda_factor, the unchecked arithmetic of forward_sample, cond_score
and lambda_weight. The sampler computes beta over its time grid once.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import workers
from .errors import InputError, NumericalError
from .ranges import check_batch, check_fields

LAMBDA_KINDS = ("sigma_squared", "uniform")
# fewest trajectories per worker for which reverse_generate fans out. At the
# default 200 Heun steps on 2 cores, a split paid off from about 130 rows per
# worker with a 3x64 score net and from about 670 with the exact mixture
# score, the cheapest score here; below that the pool start and the per-step
# overhead each worker repeats cost more than the split saves. It also keeps
# every chunk at batch sizes where a row's forward through a score net does
# not depend on the chunk: BLAS rounds some rows of a small batch otherwise
# (101 rows of a 3x64 net in chunks of 50 and 51 changed two rows)
MIN_ROWS_PER_WORKER = 1000


@dataclass(frozen=True)
class VpSchedule:
    """The schedule config section; its key for T is horizon."""

    beta_min: float = field(default=0.1, metadata={"gt": 0})
    beta_max: float = 20.0
    T: float = field(default=1.0, metadata={"key": "horizon", "gt": 0})
    t_eps: float = field(default=1e-3, metadata={"gt": 0})

    def __post_init__(self):
        check_fields(self)
        if self.beta_max < self.beta_min:
            raise InputError("need beta_min <= beta_max")
        if self.t_eps >= self.T:
            raise InputError("need t_eps < T")

    def check_times(self, t, n=None, floor=0.0):
        """t as float64, checked once: with n, finite and scalar or one per row
        of an n-row batch (_row_times); in [0, T] (InputError); not below
        floor (NumericalError: the kernel score is singular below t_eps)."""
        t = np.asarray(t, dtype=np.float64) if n is None else _row_times(t, n)
        # NaN fails both comparisons, so it is refused too
        if not ((t >= 0.0) & (t <= self.T)).all():
            raise InputError(f"time must lie in [0, {self.T}], got {t!r}")
        if np.any(t < floor):
            raise NumericalError(f"the kernel score is singular below t_eps={floor}, "
                                 f"got t={t!r}")
        return t

    def beta(self, t):
        t = self.check_times(t)
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def alpha_sigma(self, t):
        """Perturbation-kernel coefficients (alpha(t), sigma(t))."""
        return self._alpha_sigma(self.check_times(t))

    def _alpha_sigma(self, t):
        # alpha_sigma of a float64 t already known to lie in [0, T]
        integral = self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t
        alpha = np.exp(-0.5 * integral)
        sigma = np.sqrt(1.0 - alpha * alpha)
        return alpha, sigma

    def forward_sample(self, x0, t, noise):
        """Draw alpha(t) x0 + sigma(t) noise from the kernel, for (n, d) x0
        and noise at a scalar or per-row t."""
        x0, noise = check_batch(x0, "x0"), check_batch(noise, "noise")
        if x0.shape != noise.shape:
            raise InputError(f"x0 and noise must have one shape, got {x0.shape} and {noise.shape}")
        alpha, sigma = self._alpha_sigma(self.check_times(t, x0.shape[0]))
        return _kernel_sample(alpha, sigma, x0, noise)

    def cond_score(self, x_t, x0, t):
        """Gradient of the log perturbation kernel: -(x_t - alpha x0) / sigma^2,
        for (n, d) batches at a scalar or per-row t."""
        x_t, x0 = check_batch(x_t, "x_t"), check_batch(x0, "x0")
        if x_t.shape != x0.shape:
            raise InputError(f"x_t and x0 must have one shape, got {x_t.shape} and {x0.shape}")
        alpha, sigma = self._alpha_sigma(self.check_times(t, x0.shape[0], self.t_eps))
        return _kernel_score(alpha, sigma, x_t, x0)


def _kernel_sample(alpha, sigma, x0, noise):
    """forward_sample's arithmetic, given alpha(t) and sigma(t)."""
    return alpha[..., None] * x0 + sigma[..., None] * noise


def _kernel_score(alpha, sigma, x_t, x0):
    """cond_score's arithmetic, given alpha(t) and sigma(t)."""
    return -(x_t - alpha[..., None] * x0) / (sigma * sigma)[..., None]


def _row_times(t, n):
    """t as a finite float64 array: a scalar, or one time per row of an n-row
    batch; check_times without the schedule, all that Mlp.forward can check."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 0 and t.shape != (n,):
        raise InputError(f"t must be scalar or shape ({n},), got {t.shape}")
    if not np.isfinite(t).all():
        raise InputError(f"t must be finite, got {t!r}")
    return t


def lambda_weight(sched: VpSchedule, t, kind):
    """Temporal weight lambda(t) of a time-integrated loss: 1 or sigma(t)^2."""
    _, sigma = sched.alpha_sigma(t)
    lam = _lambda_factor(sigma, kind)
    return np.ones_like(sigma) if lam is None else lam


def _lambda_factor(sigma, kind):
    """lambda_weight's arithmetic, given sigma(t): sigma^2, or None for the
    uniform weight, a factor of 1 that its callers leave out."""
    if kind == "uniform":
        return None
    if kind == "sigma_squared":
        return sigma * sigma
    raise InputError(f"unknown temporal weighting {kind!r}")


@dataclass(frozen=True)
class SamplerSpec:
    """The sampler config section (Heun steps); the seed comes from seeds.sample."""

    steps: int = field(default=200, metadata={"ge": 2})
    seed: int = field(default=0, metadata={"config": False})

    def __post_init__(self):
        check_fields(self)


def _prior_draws(seed, lo, hi, dim):
    """The N(0, I) prior draws of trajectories lo..hi-1, each from the stream of
    (seed, its index), so they do not depend on how the trajectories are split
    and split sampling stays byte-identical. A Generator per trajectory costs
    about 11 us (numpy 2.4, x86-64 Xeon), four fifths of it SeedSequence
    hashing that any construction of the same streams repeats."""
    return np.array([np.random.default_rng([seed, i]).standard_normal(dim)
                     for i in range(lo, hi)])


def _check_finite(x, step, t):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite state at step {step}, t={t:.6g}")


def reverse_generate(sched: VpSchedule, score_fn, spec: SamplerSpec, n, dim):
    """Integrate the probability-flow ODE with Heun's method from the N(0, I)
    prior at t=T to t_eps.

    score_fn(X, t) must return the (m, dim) score of the m rows of X at
    scalar time t for t in [t_eps, T], and be row-wise: row i of its output
    depends only on row i of X. Deterministic given spec.seed.

    When each available core gets at least MIN_ROWS_PER_WORKER trajectories,
    they are integrated in one contiguous row chunk per core in worker
    processes (workers.parallel_map) and concatenated in row order. Every
    trajectory draws its prior from (spec.seed, its index), and the updates
    and the score are row-wise, so the result equals that of
    one in-process run bit for bit. A split run that fails (an error in a
    chunk, or a worker that died) is rerun here, so an error is the one an
    in-process run raises, at the first step where any row fails, not the
    error of the first chunk in row order.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    parts = min(workers.available(), n // MIN_ROWS_PER_WORKER)
    if parts <= 1:
        return _integrate(sched, score_fn, spec, dim, (0, n))
    bounds = [n * j // parts for j in range(parts + 1)]
    try:
        chunks, _ = workers.parallel_map(
            partial(_integrate, sched, score_fn, spec, dim), list(zip(bounds, bounds[1:])))
    except Exception:
        return _integrate(sched, score_fn, spec, dim, (0, n))
    return np.concatenate(chunks)


def _integrate(sched, score_fn, spec, dim, rows):
    """reverse_generate's trajectories lo..hi-1, for rows = (lo, hi)."""
    lo, hi = rows
    times = np.linspace(sched.T, sched.t_eps, spec.steps + 1)
    betas = sched.beta(times)
    x = _prior_draws(spec.seed, lo, hi, dim)

    def ode_drift(xx, j, k):  # the drift at times[j], in step k
        s = np.asarray(score_fn(xx, times[j]), dtype=np.float64)
        _check_finite(s, k, times[j])
        return -0.5 * betas[j] * (xx + s)

    for k in range(spec.steps):
        dt = times[k + 1] - times[k]  # negative
        k1 = ode_drift(x, k, k)
        k2 = ode_drift(x + dt * k1, k + 1, k)
        x = x + 0.5 * dt * (k1 + k2)
        _check_finite(x, k, times[k + 1])
    return x
