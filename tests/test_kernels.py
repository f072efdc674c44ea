"""The mixture kernels at a shared time and at per-row times agree with
building the perturbed mixture one time at a time and, for fewer than 8
components, with the (n, k, d) reduction form bit for bit; the pairwise distance
sum agrees with the difference-tensor form summed per row block, counts
each pair of a set against itself once, keeps its temporary to two
row blocks, and gives the same bytes on any number of threads."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiwlab import kernels, workers
from tiwlab.mixture import GaussianMixture, perturbed_log_density_batch, perturbed_score_batch
from tiwlab.sde import VpSchedule

SCHED = VpSchedule()


@st.composite
def mixture_cases(draw):
    """(mixture, points, per-row times) with 1-4 components in 1-3 dimensions."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.1, 1.0, k)
    gm = GaussianMixture(weights=w / w.sum(), means=rng.uniform(-4.0, 4.0, (k, d)),
                         variances=rng.uniform(0.1, 3.0, k))
    X = rng.uniform(-8.0, 8.0, (n, d))
    ts = np.array(draw(st.lists(st.floats(0.0, SCHED.T), min_size=n, max_size=n)))
    return gm, X, ts


def _per_row_moments(gm, ts):
    alpha, sigma = SCHED.alpha_sigma(ts)
    means = alpha[:, None, None] * gm.means
    variances = alpha[:, None] ** 2 * gm.variances + sigma[:, None] ** 2
    return means, variances


@settings(max_examples=60, deadline=None)
@given(mixture_cases())
def test_logpdf_paths_agree(case):
    gm, X, ts = case
    per_row = perturbed_log_density_batch(gm, SCHED, X, ts)
    by_row = np.concatenate([gm.perturb(SCHED, t).log_density(x[None, :])
                             for x, t in zip(X, ts)])
    np.testing.assert_allclose(per_row, by_row, rtol=1e-12, atol=1e-12)
    shared = perturbed_log_density_batch(gm, SCHED, X, ts[0])
    assert shared.tobytes() == gm.perturb(SCHED, ts[0]).log_density(X).tobytes()


@settings(max_examples=60, deadline=None)
@given(mixture_cases())
def test_score_paths_agree(case):
    gm, X, ts = case
    per_row = perturbed_score_batch(gm, SCHED, X, ts)
    by_row = np.concatenate([gm.perturb(SCHED, t).score(x[None, :])
                             for x, t in zip(X, ts)])
    np.testing.assert_allclose(per_row, by_row, rtol=1e-12, atol=1e-12)
    shared = perturbed_score_batch(gm, SCHED, X, ts[0])
    assert shared.tobytes() == gm.perturb(SCHED, ts[0]).score(X).tobytes()


@settings(max_examples=60, deadline=None)
@given(mixture_cases())
def test_posterior_paths_agree(case):
    gm, X, ts = case
    log_w = np.log(gm.weights)
    means, variances = _per_row_moments(gm, ts)
    per_row = kernels.gm_posterior(X, log_w, means, variances)
    by_row = np.concatenate([gm.perturb(SCHED, t).posterior(x[None, :])
                             for x, t in zip(X, ts)])
    np.testing.assert_allclose(per_row, by_row, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(per_row.sum(axis=1), 1.0, atol=1e-12)
    # a shared time spelled out per row gives the same bytes as the shared moments
    same_t = np.full_like(ts, ts[0])
    pt = gm.perturb(SCHED, ts[0])
    for fn in (kernels.gm_logpdf, kernels.gm_posterior, kernels.gm_score):
        assert fn(X, log_w, *_per_row_moments(gm, same_t)).tobytes() == \
            fn(X, log_w, pt.means, pt.variances).tobytes()


def _reference_mixture_kernels(X, log_w, means, variances):
    """(logpdf, posterior, score) by the (n, k, d) reduction form, in which
    numpy sums the components and coordinates along an axis."""
    diff = X[:, None, :] - means
    sq = (diff**2).sum(axis=2)
    terms = log_w - 0.5 * X.shape[1] * (kernels.LOG_2PI + np.log(variances)) - 0.5 * sq / variances
    mx = terms.max(axis=1)
    e = np.exp(terms - mx[:, None])
    total = e.sum(axis=1)
    r = e / total[:, None]
    return mx + np.log(total), r, (r[:, :, None] * (-diff / variances[..., None])).sum(axis=1)


def _component_major_kernels(X, log_w, means, variances):
    logpdf, score = kernels.gm_logpdf_and_score(X, log_w, means, variances)
    return {"gm_logpdf": kernels.gm_logpdf(X, log_w, means, variances),
            "gm_posterior": kernels.gm_posterior(X, log_w, means, variances),
            "gm_score": kernels.gm_score(X, log_w, means, variances),
            "fused logpdf": logpdf, "fused score": score}


def _far_case(k, d, n, seed, per_row):
    """Points out to |x| = 50, where some responsibilities underflow to 0, and
    the moments of a random mixture noised to a shared or per-row time."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, k)
    gm = GaussianMixture(weights=w / w.sum(), means=rng.uniform(-4.0, 4.0, (k, d)),
                         variances=rng.uniform(0.05, 3.0, k))
    X = np.vstack([rng.uniform(-50.0, 50.0, (n, d)), np.full((1, d), 50.0)])
    ts = rng.uniform(0.0, SCHED.T, n + 1)
    if per_row:
        return X, np.log(gm.weights), *_per_row_moments(gm, ts)
    pt = gm.perturb(SCHED, ts[0])
    return X, np.log(gm.weights), pt.means, pt.variances


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 4), d=st.integers(1, 3), n=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), per_row=st.booleans())
@example(k=3, d=2, n=20, seed=1, per_row=False)  # 17 responsibilities underflow to 0
@example(k=2, d=1, n=20, seed=5, per_row=True)   # 3 underflow
def test_component_major_kernels_equal_the_reduction_form_bit_for_bit(k, d, n, seed, per_row):
    # numpy adds fewer than 8 terms in order, as the component loop does
    args = _far_case(k, d, n, seed, per_row)
    logpdf, posterior, score = _reference_mixture_kernels(*args)
    want = {"gm_logpdf": logpdf, "gm_posterior": posterior, "gm_score": score,
            "fused logpdf": logpdf, "fused score": score}
    for name, got in _component_major_kernels(*args).items():
        assert got.flags.c_contiguous, name
        assert got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name


def test_component_major_kernels_match_the_reduction_form_with_nine_components():
    # numpy sums 8 or more terms pairwise, so the component loop rounds differently
    for per_row in (False, True):
        args = _far_case(9, 2, 50, 8, per_row)
        logpdf, posterior, score = _reference_mixture_kernels(*args)
        want = {"gm_logpdf": logpdf, "gm_posterior": posterior, "gm_score": score,
                "fused logpdf": logpdf, "fused score": score}
        for name, got in _component_major_kernels(*args).items():
            assert got.flags.c_contiguous, name
            np.testing.assert_allclose(got, want[name], rtol=1e-12, err_msg=name)


def test_pairwise_mean_dist_matches_bruteforce():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(37, 2))
    B = rng.normal(size=(23, 2))
    brute = np.mean([np.linalg.norm(a - b) for a in A for b in B])
    np.testing.assert_allclose(kernels.pairwise_mean_dist(A, B), brute, rtol=1e-12)


def _pairwise_mean_dist_reference(A, B, rows=kernels.ROW_BLOCK):
    """The (rows, n, d) difference-tensor form, summed per block of rows."""
    sums = []
    for r in range(0, A.shape[0], rows):
        diff = A[r:r + rows, None, :] - B[None, :, :]
        sums.append(np.sqrt((diff * diff).sum(axis=2)).sum())
    return math.fsum(sums) / (A.shape[0] * B.shape[0])


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4 * kernels.ROW_BLOCK + 40), n=st.integers(1, 40),
       d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(m=3 * kernels.ROW_BLOCK + 17, n=23, d=2, seed=0)
@example(m=3 * kernels.ROW_BLOCK + 17, n=5, d=9, seed=1)
def test_pairwise_mean_dist_matches_blocked_difference_tensor(m, n, d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
    B = rng.normal(size=(n, d)) + rng.uniform(-3.0, 3.0)
    got, want = kernels.pairwise_mean_dist(A, B), _pairwise_mean_dist_reference(A, B)
    if d <= 7:  # sum(axis=2) adds fewer than 8 terms in order, as the kernel does
        assert got == want
    else:  # numpy sums 8 or more terms pairwise
        np.testing.assert_allclose(got, want, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4 * kernels.ROW_BLOCK + 40), d=st.integers(1, 5),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(m=4 * kernels.ROW_BLOCK + 40, d=2, ties=False, seed=0)
@example(m=kernels.ROW_BLOCK, d=1, ties=True, seed=1)
def test_pairwise_mean_dist_self_path_counts_each_pair_once(m, d, ties, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, d))
    if ties:  # repeated rows give zero off-diagonal distances
        A = A[rng.integers(0, max(1, m // 4), size=m)]
    brute = np.sqrt(((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)).mean()
    got = kernels.pairwise_mean_dist(A, A)
    np.testing.assert_allclose(got, brute, rtol=1e-12)
    # the self path is chosen from the values, not the object
    assert got.hex() == kernels.pairwise_mean_dist(A, A.copy()).hex()


def test_pairwise_mean_dist_temporary_is_bounded_by_pairs():
    m = n = 1000
    rng = np.random.default_rng(5)
    A, B = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
    for other in (B, A.copy()):  # the cross path and the self path
        tracemalloc.start()
        try:
            kernels.pairwise_mean_dist(A, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two (ROW_BLOCK, n) float64 buffers; the m x n distance matrix is 8 MB
        assert peak < 2.5 * kernels.ROW_BLOCK * n * 8


def _block_rows(n):
    return max(1, min(kernels.ROW_BLOCK, kernels.BLOCK_ENTRIES // n))


@pytest.mark.parametrize("m, n, d", [(300, 4000, 2), (37, 2500, 3)])
def test_pairwise_mean_dist_matches_the_reference_in_its_own_blocks(m, n, d):
    # B above 1,024 rows: blocks of fewer than ROW_BLOCK rows of A
    rng = np.random.default_rng(m)
    A, B = rng.normal(size=(m, d)), rng.normal(size=(n, d)) + 0.5
    want = _pairwise_mean_dist_reference(A, B, _block_rows(n))
    assert kernels.pairwise_mean_dist(A, B) == want


def _threads_per_call(monkeypatch, cores):
    """Let the kernel see cores cores; return a function of (A, B) that
    calls it and returns its result and the number of threads that ran its
    blocks."""
    monkeypatch.setattr(workers, "_cores", lambda: cores)
    seen, block_sum = set(), kernels._block_sum

    def recorded(*args):
        seen.add(threading.current_thread())
        return block_sum(*args)

    monkeypatch.setattr(kernels, "_block_sum", recorded)

    def call(A, B):
        seen.clear()
        return kernels.pairwise_mean_dist(A, B), len(seen)
    return call


@pytest.mark.parametrize("n", [4000, 1024, 300])
def test_pairwise_mean_dist_gives_the_same_bytes_on_any_number_of_cores(monkeypatch, n):
    rng = np.random.default_rng(n)
    A, B = rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) * 2.0
    got = {}
    for cores in (1, 2, 3):
        call = _threads_per_call(monkeypatch, cores)
        before = threading.active_count()
        runs = [call(A, other) for other in (B, A.copy())]  # the cross and self paths
        # every thread is joined before the call returns
        assert threading.active_count() == before
        # a B of up to 1,024 rows keeps 64-row blocks, on one thread
        threads = min(cores, kernels.ROW_BLOCK // _block_rows(n))
        assert [used for _, used in runs] == [threads, threads]
        got[cores] = [value.hex() for value, _ in runs]
    assert got[2] == got[1] and got[3] == got[1]


def test_pairwise_mean_dist_threads_keep_their_temporaries_to_two_row_blocks(monkeypatch):
    m = n = 4000
    rng = np.random.default_rng(6)
    A, B = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
    monkeypatch.setattr(workers, "_cores", lambda: 3)
    for other in (B, A.copy()):
        tracemalloc.start()
        try:
            kernels.pairwise_mean_dist(A, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three threads of two (16, n) buffers each: under two (ROW_BLOCK, n)
        assert peak < 2.5 * kernels.ROW_BLOCK * n * 8


def test_pairwise_mean_dist_on_more_threads_than_cores_loses_no_block(monkeypatch):
    # 8,192 columns make 8-row blocks, so 8 threads on the machine's cores;
    # a short switch interval interleaves their writes to the block sums
    rng = np.random.default_rng(8)
    A, B = rng.normal(size=(203, 2)), rng.normal(size=(8192, 2))
    want = _pairwise_mean_dist_reference(A, B, 8)
    call = _threads_per_call(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [call(A, B) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [(want, 8)] * 5


def test_pairwise_mean_dist_raises_the_error_of_a_thread(monkeypatch):
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    block_sum = kernels._block_sum

    def failing(A, B, r, *args):
        if r == 16:  # the first block of the second thread
            raise FloatingPointError("block 1")
        return block_sum(A, B, r, *args)

    monkeypatch.setattr(kernels, "_block_sum", failing)
    A = np.random.default_rng(9).normal(size=(4000, 2))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="block 1"):
        kernels.pairwise_mean_dist(A, A[::-1])
    assert threading.active_count() == before
