import json
import struct

import numpy as np
import pytest

from tiwlab import workers
from tiwlab.mixture import (
    GaussianMixture,
    two_mode_balanced_mixture,
    two_mode_bias_mixture,
)
from tiwlab.sde import VpSchedule

needs_blas_setter = pytest.mark.skipif(
    workers._blas_thread_setter() is None,
    reason="no OpenBLAS thread setter, so every worker fan-out runs in-process")


@pytest.fixture(scope="session")
def sched():
    return VpSchedule()


@pytest.fixture(scope="session")
def p_data():
    return two_mode_balanced_mixture()


@pytest.fixture(scope="session")
def p_bias():
    return two_mode_bias_mixture()


@pytest.fixture(scope="session")
def gm_1d_pair():
    """Skewed/balanced mixture pair in 1-D for the cheap training studies."""
    bias = GaussianMixture(weights=[0.9, 0.1], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
    data = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
    return bias, data


def standard_normal_mixture(dim):
    return GaussianMixture(weights=[1.0], means=np.zeros((1, dim)), variances=[1.0])


def gauss_pdf(x, mean, var):
    """Independent reference pdf used by the oracle-style tests."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    d = x.size
    sq = float(((x - mean) ** 2).sum())
    return (2.0 * np.pi * var) ** (-d / 2.0) * np.exp(-0.5 * sq / var)


def mixture_pdf_by_hand(x, weights, means, variances):
    return sum(w * gauss_pdf(x, m, v) for w, m, v in zip(weights, means, variances))


def zero_width_checkpoint(path, dim=2):
    """Write a score checkpoint whose header is self-consistent but names a
    hidden layer of width 0: its param_count is the output layer's bias."""
    header = {"input_dim": dim, "hidden": [0], "output_dim": dim, "n_frequencies": 8,
              "time_embed": "sinusoidal", "param_count": dim, "role": "score"}
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"TIWNET" + struct.pack("<HI", 1, len(blob)) + blob
                     + np.zeros(dim, dtype="<f8").tobytes())
