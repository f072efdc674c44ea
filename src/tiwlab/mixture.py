"""Closed-form isotropic Gaussian mixtures.

These mixtures are the ground truth of every experiment: they supply exact
densities, scores, perturbed (noised) versions of themselves, samples, and
component posteriors; the oracle RatioModel builds its ratios from them.
Densities are accumulated in the log domain (log-sum-exp) so cross terms
at the e^-16 scale survive.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InputError
from .ranges import check_batch


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of isotropic Gaussians: sum_i w_i N(mean_i, variance_i * I)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    _log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        m = np.ascontiguousarray(np.asarray(self.means, dtype=np.float64))
        v = np.ascontiguousarray(np.asarray(self.variances, dtype=np.float64))
        if w.ndim != 1 or w.size == 0:
            raise InputError("mixture needs at least one component")
        if m.ndim != 2:
            raise InputError(f"means must have shape (k, d), got {m.shape}")
        if m.shape[0] != w.size or v.shape != w.shape:
            raise InputError("weights, means, variances must agree in component count")
        if not np.all(w > 0.0):  # also refuses nan
            raise InputError("component weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InputError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if np.any(v <= 0.0):
            raise InputError("variances must be strictly positive")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise InputError("means and variances must be finite")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        lw = np.log(w)
        lw.setflags(write=False)
        object.__setattr__(self, "_log_weights", lw)

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return self.weights.size

    # -- densities -----------------------------------------------------------

    def log_density(self, x):
        return kernels.gm_logpdf(check_batch(x, dim=self.dim), self._log_weights, self.means,
                                 self.variances)

    def density(self, x):
        return np.exp(self.log_density(x))

    def score(self, x):
        """Gradient of log density: sum_i r_i(x) (mean_i - x) / variance_i."""
        return kernels.gm_score(check_batch(x, dim=self.dim), self._log_weights, self.means,
                                self.variances)

    def posterior(self, x):
        """Component responsibilities r_i(x) = w_i N_i(x) / p(x); rows sum to 1."""
        return kernels.gm_posterior(check_batch(x, dim=self.dim), self._log_weights, self.means,
                                    self.variances)

    # -- transforms ----------------------------------------------------------

    def perturb(self, sched, t):
        """Exact pushforward through the forward noising kernel at time t.

        Means scale by alpha(t); each variance becomes alpha^2 v + sigma^2.
        """
        t = sched.check_times(t)
        if t.ndim != 0:
            raise InputError(f"perturb takes one scalar time t, got shape {t.shape}")
        means, variances = _perturbed_moments(self, sched, t)
        return GaussianMixture(weights=self.weights.copy(), means=means, variances=variances)

    def sample(self, n, seed):
        if n < 1:
            raise InputError(f"sample count must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        noise = rng.standard_normal((n, self.dim))
        return self.means[idx] + np.sqrt(self.variances[idx])[:, None] * noise

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(weights=d["weights"], means=d["means"], variances=d["variances"])


def pooled_mixture(a: GaussianMixture, b: GaussianMixture):
    """The half/half pool 0.5 a + 0.5 b as a single GaussianMixture."""
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return GaussianMixture(
        weights=np.concatenate([0.5 * a.weights, 0.5 * b.weights]),
        means=np.vstack([a.means, b.means]),
        variances=np.concatenate([a.variances, b.variances]),
    )


def _perturbed_moments(gm: GaussianMixture, sched, t):
    """Component means and variances of gm pushed to a float64 time t that
    its caller has checked (sched.check_times) or built inside [0, T].

    A scalar t gives the (k, d) / (k,) moments of gm.perturb(sched, t); a
    per-row t of shape (n,) gives (n, k, d) / (n, k), one set per row.
    """
    alpha, sigma = sched._alpha_sigma(t)
    means = alpha[..., None, None] * gm.means
    variances = alpha[..., None] ** 2 * gm.variances + sigma[..., None] ** 2
    return means, variances


def _batch_moments(gm: GaussianMixture, sched, X, t):
    """The kernel arguments (X, log weights, means, variances) of gm noised
    to a shared or per-row time t, for an (n, d) batch X; X and t are
    checked here, once (check_batch, sched.check_times)."""
    X = check_batch(X, dim=gm.dim)
    return (X, gm._log_weights,
            *_perturbed_moments(gm, sched, sched.check_times(t, X.shape[0])))


def perturbed_log_density_batch(gm: GaussianMixture, sched, X, t):
    """log density of the noised mixture at a shared or per-row time t.

    Equals gm.perturb(sched, t_i).log_density(x_i) row by row without
    building a mixture per time.
    """
    return kernels.gm_logpdf(*_batch_moments(gm, sched, X, t))


def perturbed_score_batch(gm: GaussianMixture, sched, X, t):
    """Score of the noised mixture at a shared or per-row time t."""
    return kernels.gm_score(*_batch_moments(gm, sched, X, t))


def perturbed_log_density_and_score_batch(gm: GaussianMixture, sched, X, t):
    """(perturbed_log_density_batch, perturbed_score_batch) from one moment
    build and one log-term pass."""
    return kernels.gm_logpdf_and_score(*_batch_moments(gm, sched, X, t))


def two_mode_bias_mixture():
    """0.9 N((-2,-2), I) + 0.1 N((2,2), I): the skewed two-mode benchmark."""
    return GaussianMixture(
        weights=[0.9, 0.1], means=[[-2.0, -2.0], [2.0, 2.0]], variances=[1.0, 1.0]
    )


def two_mode_balanced_mixture():
    """Balanced counterpart of :func:`two_mode_bias_mixture`."""
    return GaussianMixture(
        weights=[0.5, 0.5], means=[[-2.0, -2.0], [2.0, 2.0]], variances=[1.0, 1.0]
    )
