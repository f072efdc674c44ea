"""Numpy kernels for Gaussian-mixture evaluation and pairwise distances.

One implementation serves both the constant-time case (the sampler, the
quadrature oracle, plain mixtures) and the per-row case (the oracle ratio
at each sample's own time): the component moments broadcast.

    X          (n, d)              evaluation points
    log_w      (k,)                log mixture weights
    means      (k, d) or (n, k, d) component means, shared or per row
    variances  (k,)   or (n, k)    isotropic component variances

Densities are accumulated in the log domain (log-sum-exp), so cross terms
far in the tails survive. ``pairwise_mean_dist`` is the O(m*n) sum behind
the energy distance: it fills each chunk's distance matrix in blocks of
ROW_BLOCK rows, one coordinate at a time, so a block's squared distances
stay in cache until their square root is taken, and the temporaries are
one matrix of at most PAIRS_PER_CHUNK entries plus one block.
"""

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
# pairs (rows of A times rows of B) per chunk; each chunk holds one (rows, n)
# float64 distance matrix, filled ROW_BLOCK rows at a time
PAIRS_PER_CHUNK = 20_000_000
# rows of A per block; one (ROW_BLOCK, n) buffer holds a coordinate's term
ROW_BLOCK = 64


def _log_terms(X, log_w, means, variances):
    """(n, k) log(w_j N(x_i; mu_j, v_j I)) and the (n, k, d) offsets x_i - mu_j."""
    diff = X[:, None, :] - means
    sq = (diff**2).sum(axis=2)
    terms = log_w - 0.5 * X.shape[1] * (LOG_2PI + np.log(variances)) - 0.5 * sq / variances
    return terms, diff


def _responsibilities(terms):
    mx = terms.max(axis=1, keepdims=True)
    e = np.exp(terms - mx)
    return e / e.sum(axis=1, keepdims=True)


def gm_logpdf(X, log_w, means, variances):
    terms, _ = _log_terms(X, log_w, means, variances)
    mx = terms.max(axis=1)
    return mx + np.log(np.exp(terms - mx[:, None]).sum(axis=1))


def gm_posterior(X, log_w, means, variances):
    return _responsibilities(_log_terms(X, log_w, means, variances)[0])


def gm_score(X, log_w, means, variances):
    terms, diff = _log_terms(X, log_w, means, variances)
    r = _responsibilities(terms)
    return (r[:, :, None] * (-diff / variances[..., None])).sum(axis=1)


def pairwise_mean_dist(A, B):
    """mean_{i,j} ||A_i - B_j||.

    The squared distance adds the coordinates in order 0..d-1, the order in
    which a (rows, n, d) ``sum(axis=2)`` adds fewer than 8 terms, so for
    d <= 7 the result equals that form bit for bit.
    """
    m, n = A.shape[0], B.shape[0]
    chunk = max(1, PAIRS_PER_CHUNK // max(n, 1))
    term = np.empty((min(ROW_BLOCK, m), n))
    total = 0.0
    for s in range(0, m, chunk):
        a = A[s:s + chunk]
        dist = np.empty((a.shape[0], n))
        for r in range(0, a.shape[0], ROW_BLOCK):
            ab, sq = a[r:r + ROW_BLOCK], dist[r:r + ROW_BLOCK]
            np.subtract.outer(ab[:, 0], B[:, 0], out=sq)
            sq *= sq
            tb = term[:sq.shape[0]]
            for j in range(1, A.shape[1]):
                np.subtract.outer(ab[:, j], B[:, j], out=tb)
                tb *= tb
                sq += tb
            np.sqrt(sq, out=sq)
        total += dist.sum()
    return total / (m * n)


def backend_name():
    return "numpy"
