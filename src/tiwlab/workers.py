"""Independent calls in forked worker processes, one per core.

parallel_map is the one process pool of the package. cli fans out whole
stages through it (discriminators, score runs, alpha runs) and
sde.reverse_generate row chunks of its trajectories. A call made inside a
worker runs in that worker, in order: the outer fan-out already uses every
core, and a pool worker may not start processes of its own. So a debias
with several score runs samples in-process within each worker, and a
single sample command fans out its trajectories.
"""

import os

_WORKER = None  # in a worker process: the (fn, items) of the map it serves


def _cores():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def available():
    """The number of processes a parallel_map may use from here: 1 in a worker."""
    return 1 if _WORKER is not None else _cores()


def _blas_thread_setter():
    """The loaded OpenBLAS's set-number-of-threads function, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:  # not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [ctypes.c_int], None
                return fn
    return None


def _start_worker(set_blas_threads, fn, items):
    global _WORKER
    set_blas_threads(1)
    _WORKER = fn, items


def _work(i):
    fn, items = _WORKER
    return fn(items[i])


def parallel_map(fn, items):
    """[fn(item) for item in items] and the number of processes it ran in.

    The calls must be independent and return picklable plain data. They
    run in a pool of forked workers, one per available core and at most one
    per item, each with OpenBLAS pinned to one thread. fn and items reach
    the workers through the fork, so they need not pickle (a pickled Mlp
    would lose the sharing of its layer views with its parameters), and a
    worker starts without a fresh import. The only other threads of a
    tiwlab process are OpenBLAS's, which stops its pool across a fork.
    With one worker (always so inside a worker), or no OpenBLAS whose
    threads can be set, the calls run here, in order. The first error in
    item order is raised, and a worker that dies (say, killed by a signal)
    raises RuntimeError; the pool is joined on success and terminated on
    error, so no worker outlives the call.
    """
    n = min(len(items), available())
    set_blas_threads = _blas_thread_setter() if n > 1 else None
    if set_blas_threads is None:
        return [fn(item) for item in items], 1
    import multiprocessing  # here, not at the top: it adds to every command's start

    before = set(multiprocessing.active_children())
    pool = multiprocessing.get_context("fork").Pool(
        n, _start_worker, (set_blas_threads, fn, items))
    workers = set(multiprocessing.active_children()) - before
    try:
        results, pending = [], pool.imap(_work, range(len(items)))
        while len(results) < len(items):
            try:
                results.append(pending.next(timeout=1.0))
            except multiprocessing.TimeoutError:
                # a pool replaces a dead worker but never returns its task
                if not workers <= set(multiprocessing.active_children()):
                    raise RuntimeError("a worker process died") from None
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results, n
