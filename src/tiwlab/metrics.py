"""Evaluation statistics for generated sample sets.

The latent "classifier" is an analytic mixture posterior, so the bias
statistic and mode proportions are exact functions of the sample sets.
Energy distance stands in for feature-space distribution distances at
desk scale.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError
from .mixture import GaussianMixture
from .ranges import check_batch


def _check_samples(X, name, dim=None):
    X = check_batch(X, name, dim)
    if X.shape[0] == 0:
        raise InputError(f"{name} must be non-empty")
    return X


def mode_proportions(samples, classifier: GaussianMixture):
    """Mean posterior mass per latent component (soft assignment)."""
    X = _check_samples(samples, "samples")
    return classifier.posterior(X).mean(axis=0)


def bias_metric(samples_model, samples_ref, classifier: GaussianMixture):
    """Sum over latent components of |E_ref p(z|x) - E_model p(z|x)|.

    Zero iff the mean posteriors coincide; symmetric in the two sets.
    """
    return _proportion_gap(mode_proportions(samples_model, classifier),
                           mode_proportions(samples_ref, classifier))


def _proportion_gap(a, b):
    """bias_metric of two sets' mode proportions a and b."""
    return float(np.abs(a - b).sum())


def mean_self_distance(X):
    """E||X-X'|| over every ordered pair of rows, i == j included; the
    kernel computes each unordered pair once."""
    X = _check_samples(X, "samples")
    return kernels.pairwise_mean_dist(X, X)


def energy_distance(a, b, b_self=None):
    """Energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'||.

    All expectations are plain means over every ordered pair including
    i == j (the V-statistic convention), so identical matrices give an
    exact 0 at the cost of a small O(1/n) bias. Each mean is a sum of
    row-block sums added with math.fsum (64-row blocks, fewer rows against
    a set of more than 1,024 points; the thread count changes no byte); a
    term whose two sets hold equal values takes the kernel's self path, so
    energy_distance(X, X.copy()) is exactly 0. b_self, if given, is
    mean_self_distance(b), computed once for a reference set that several
    evaluations share.
    """
    A = _check_samples(a, "a")
    B = _check_samples(b, "b", A.shape[1])
    # fix the cross-term summation order so the result is exactly symmetric
    first, second = (A, B) if (A.shape[0], A.tobytes()) <= (B.shape[0], B.tobytes()) \
        else (B, A)
    sxy = kernels.pairwise_mean_dist(first, second)
    sxx = kernels.pairwise_mean_dist(A, A)
    syy = kernels.pairwise_mean_dist(B, B) if b_self is None else b_self
    return 2.0 * sxy - (sxx + syy)


@dataclass
class EvalReport:
    """One evaluation row: bias statistic, proportions, energy distance."""

    bias: float
    proportions: np.ndarray
    energy_distance: float
    notes: str = ""

    def __post_init__(self):
        self.proportions = np.asarray(self.proportions, dtype=np.float64)
        # written so that NaN fails them: nan < 0 and nan > 1e-9 are both False
        if not abs(self.proportions.sum() - 1.0) <= 1e-9:
            raise InputError("proportions must sum to 1 within 1e-9")
        if not (self.bias >= 0.0 and self.energy_distance >= -1e-12):
            raise InputError("bias and energy distance must be non-negative")

    def csv_header(self):
        props = [f"proportion_{i}" for i in range(self.proportions.size)]
        return ["bias", *props, "energy_distance", "notes"]

    def csv_row(self):
        return [self.bias, *self.proportions, self.energy_distance, self.notes]


def evaluate_samples(samples, oracle_samples, classifier, notes="", oracle_self=None):
    """Bundle the three headline statistics against an oracle reference set.

    oracle_self is the reference's mean_self_distance, if already known.
    """
    proportions = mode_proportions(samples, classifier)
    return EvalReport(
        bias=_proportion_gap(proportions, mode_proportions(oracle_samples, classifier)),
        proportions=proportions,
        energy_distance=energy_distance(samples, oracle_samples, oracle_self),
        notes=notes,
    )
