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
the energy distance: it builds the distances of ROW_BLOCK rows at a time,
one coordinate at a time, and sums each block while it is still in cache,
so its temporaries are two (ROW_BLOCK, n) buffers, never the m*n matrix.
The block sums are added with ``math.fsum``, so the total does not depend
on the block order. A set against itself (equal values) counts each
unordered pair once and doubles it.
"""

import math

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
# rows of A per block; two (ROW_BLOCK, n) float64 buffers hold the block's
# squared distances and a coordinate's term
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
    """mean_{i,j} ||A_i - B_j|| over every ordered pair, i == j included.

    The squared distance adds the coordinates in order 0..d-1, the order in
    which a (rows, n, d) ``sum(axis=2)`` adds fewer than 8 terms, so for
    d <= 7 and A, B unequal each block sum, and so the result, equals that
    form bit for bit. When A and B hold the same values, row block [r, r+k)
    is measured only against rows r.. of B: its k x k diagonal block counts
    once, the pairs past it twice. The choice depends on the values alone,
    so B is A and an equal copy give the same bytes.
    """
    m, n = A.shape[0], B.shape[0]
    self_pairs = B is A or np.array_equal(A, B)
    size = min(ROW_BLOCK, m) * n
    sq_buf, term_buf = np.empty(size), np.empty(size)
    block_sums = []
    for r in range(0, m, ROW_BLOCK):
        ab = A[r:r + ROW_BLOCK]
        k = ab.shape[0]
        b = B[r:] if self_pairs else B
        cols = b.shape[0]
        sq = sq_buf[:k * cols].reshape(k, cols)
        term = term_buf[:k * cols].reshape(k, cols)
        np.subtract.outer(ab[:, 0], b[:, 0], out=sq)
        sq *= sq
        for j in range(1, A.shape[1]):
            np.subtract.outer(ab[:, j], b[:, j], out=term)
            term *= term
            sq += term
        np.sqrt(sq, out=sq)
        block_sums.append(2.0 * sq[:, k:].sum() + sq[:, :k].sum() if self_pairs
                          else sq.sum())
    return math.fsum(block_sums) / (m * n)


def backend_name():
    return "numpy"
