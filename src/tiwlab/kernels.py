"""Numpy kernels for Gaussian-mixture evaluation and pairwise distances.

One implementation serves both the constant-time case (the sampler, the
quadrature oracle, plain mixtures) and the per-row case (the oracle ratio
at each sample's own time): the component moments broadcast.

    X          (n, d)              evaluation points
    log_w      (k,)                log mixture weights
    means      (k, d) or (n, k, d) component means, shared or per row
    variances  (k,)   or (n, k)    isotropic component variances

Densities are accumulated in the log domain (log-sum-exp), so cross terms
far in the tails survive. The mixture kernels work component-major: the
log terms are a (k, n) array and the offsets x_i - mu_j a (k, d, n) one,
so the squared distance, the max over components, the exp-sum and the
score's sum over components are a few elementwise calls over n-long rows
each, in place of numpy reductions over a length-k (or length-d) axis.
The rows are added in order 0, 1, ..., the order in which numpy's
reduction adds fewer than 8 terms, so for k < 8 components and d < 8
coordinates every value equals the (n, k, d) reduction form bit for bit;
numpy adds 8 or more terms pairwise, which differs by rounding. Every
result is a C-contiguous (n,) or (n, ·) array. ``gm_logpdf_and_score``
returns the log-density and the score from one log-term pass.

``pairwise_mean_dist`` is the O(m*n) sum behind the energy distance: it
builds the distances of a block of rows at a time, one coordinate at a
time, and sums each block while its two buffers are still in a core's
cache, so its temporaries are never more than two (ROW_BLOCK, n) buffers,
never the m*n matrix. The blocks run on one thread per available core;
their sums are added with ``math.fsum``, so the total depends on the two
sets alone, not on the thread count. A set against itself (equal values)
counts each unordered pair once and doubles it.
"""

import math
import threading
from functools import reduce

import numpy as np

from . import workers

LOG_2PI = float(np.log(2.0 * np.pi))
# rows of A per block, at most; two (rows, n) float64 buffers hold a block's
# squared distances and a coordinate's term
ROW_BLOCK = 64
# entries per buffer, which set the rows of a block for n > 1024: two
# 0.5 MB buffers, so a block stays in a 2 MB L2 from its first pass to its sum
BLOCK_ENTRIES = 65_536


def _add_rows(a):
    """a[0] + a[1] + ... over the first axis, added in index order."""
    return reduce(np.add, a)


def _log_terms(X, log_w, means, variances):
    """(k, n) log(w_j N(x_i; mu_j, v_j I)), the (k, d, n) offsets x_i - mu_j
    and the variances as a (k, 1) or (k, n) array."""
    k, d = log_w.shape[0], X.shape[1]
    # the per-component constant is formed in the caller's layout, so its
    # log and products see the same operands as the (n, k) form
    const = (log_w - 0.5 * d * (LOG_2PI + np.log(variances))).reshape(-1, k).T
    var = variances.reshape(-1, k).T
    diff = X.T - means.reshape(-1, k, d).transpose(1, 2, 0)
    terms = const - 0.5 * _add_rows((diff**2).transpose(1, 0, 2)) / var
    return terms, diff, var


def _exp_terms(terms):
    """The per-point max mx over components, e = exp(terms - mx) and sum_j e_j."""
    mx = reduce(np.maximum, terms)
    e = np.exp(terms - mx)
    return mx, e, _add_rows(e)


def _score(e, total, diff, var):
    """(n, d) sum_j r_j (mu_j - x) / v_j with responsibilities r = e / total."""
    r = e / total
    return np.ascontiguousarray(_add_rows(r[:, None, :] * (-diff / var[:, None, :])).T)


def gm_logpdf(X, log_w, means, variances):
    mx, _, total = _exp_terms(_log_terms(X, log_w, means, variances)[0])
    return mx + np.log(total)


def gm_posterior(X, log_w, means, variances):
    _, e, total = _exp_terms(_log_terms(X, log_w, means, variances)[0])
    return np.ascontiguousarray((e / total).T)


def gm_score(X, log_w, means, variances):
    terms, diff, var = _log_terms(X, log_w, means, variances)
    _, e, total = _exp_terms(terms)
    return _score(e, total, diff, var)


def gm_logpdf_and_score(X, log_w, means, variances):
    """(gm_logpdf, gm_score) of the same arguments from one log-term pass."""
    terms, diff, var = _log_terms(X, log_w, means, variances)
    mx, e, total = _exp_terms(terms)
    return mx + np.log(total), _score(e, total, diff, var)


def _block_sum(A, B, r, rows, self_pairs, sq_buf, term_buf):
    """Sum of ||A_i - B_j|| over rows [r, r + rows) of A, in the two buffers."""
    ab = A[r:r + rows]
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
    return 2.0 * sq[:, k:].sum() + sq[:, :k].sum() if self_pairs else sq.sum()


def pairwise_mean_dist(A, B):
    """mean_{i,j} ||A_i - B_j|| over every ordered pair, i == j included.

    A block holds max(1, min(ROW_BLOCK, BLOCK_ENTRIES // n)) rows of A, so a
    B of up to 1,024 rows gets 64-row blocks. The squared distance adds the
    coordinates in order 0..d-1, the order in which a (rows, n, d)
    ``sum(axis=2)`` adds fewer than 8 terms, so for d <= 7 and A, B unequal
    each block sum, and so the result, equals that form bit for bit. When A
    and B hold the same values, row block [r, r+k) is measured only against
    rows r.. of B: its k x k diagonal block counts once, the pairs past it
    twice. The choice depends on the values alone, so B is A and an equal
    copy give the same bytes.

    The blocks are dealt round-robin to min(workers.available(),
    ROW_BLOCK // rows, blocks) threads: one inside a worker process, and
    never more buffer space than two (ROW_BLOCK, n) buffers. numpy releases
    the GIL inside each ufunc. Every thread is joined before this returns,
    and the block sums are kept by block index.
    """
    m, n = A.shape[0], B.shape[0]
    self_pairs = B is A or np.array_equal(A, B)
    rows = max(1, min(ROW_BLOCK, BLOCK_ENTRIES // n))
    starts = range(0, m, rows)
    n_threads = min(workers.available(), ROW_BLOCK // rows, len(starts))
    size = min(rows, m) * n
    # allocated here, not in the threads: glibc would keep a heap for each
    # thread that allocates, and resident memory would grow
    buffers = [(np.empty(size), np.empty(size)) for _ in range(n_threads)]
    block_sums = [0.0] * len(starts)
    errors = []

    def run(i):  # blocks i, i + n_threads, ...
        try:
            for b in range(i, len(starts), n_threads):
                block_sums[b] = _block_sum(A, B, starts[b], rows, self_pairs, *buffers[i])
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, n_threads)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return math.fsum(block_sums) / (m * n)


def backend_name():
    return "numpy"
