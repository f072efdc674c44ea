"""Calls in forked worker processes, one per core, in dependency order.

parallel_map is the one process pool of the package. cli fans out whole
stages through it: debias and sweep-alpha run one pool, the discriminators
and the score runs that read them first, then the runs that read none (each
run waits only on the discriminator it reads); repro-fig2 its two
discriminators. sde.reverse_generate fans out row chunks of its
trajectories. A call made inside a worker runs in that worker, in order:
the outer fan-out already uses every core, and a pool worker may not start
processes of its own. So a debias with several score runs samples
in-process within each worker, and a single sample command, or a debias
whose stages can only run one after another, fans out its trajectories.
"""

import os

from .errors import ContractError

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


def parallel_map(fn, items, after=None):
    """[fn(item) for item in items] and the number of processes it ran in.

    after maps the index of an item to the indices of the items that must
    return before it starts, each lower than its own, so index order is an
    order the items may run in. The calls must otherwise be independent and
    return picklable plain data. They run in a pool of forked workers, one
    per available core and at most one per item, each with OpenBLAS pinned
    to one thread. Whenever a worker is free, the first ready item in index
    order starts in it; a worker holds at most one item, so an item that
    becomes ready waits behind no item queued earlier. fn and items reach
    the workers through the fork, so they need not pickle (a pickled Mlp
    would lose the sharing of its layer views with its parameters), and a
    worker starts without a fresh import. The only other threads of a
    tiwlab process are OpenBLAS's, which stops its pool across a fork, and
    those of kernels.pairwise_mean_dist, which joins them before it
    returns, so none is alive at a fork.
    With one worker (always so inside a worker), items that can only run
    one after another (each waits, directly or not, on the one before it),
    or no OpenBLAS whose threads can be set, the calls run here, in index
    order. The first error in item order is raised, and no item that waits
    on a failed one starts; a worker that dies (say, killed by a signal)
    raises RuntimeError. The pool is joined on success and terminated on
    error, so no worker outlives the call.
    """
    after = after or {}
    for i, deps in after.items():
        for j in deps:
            if not 0 <= j < i < len(items):
                raise ContractError(f"item {i} of {len(items)} may only wait on "
                                    f"an earlier item, not on {j}")
    # every wait is on a lower index, so item i waits on i - 1, through other
    # items or not, only if it names i - 1 itself
    chain = all(i - 1 in after.get(i, ()) for i in range(1, len(items)))
    n = 1 if chain else min(len(items), available())
    set_blas_threads = _blas_thread_setter() if n > 1 else None
    if set_blas_threads is None:
        return [fn(item) for item in items], 1
    import multiprocessing  # here, not at the top: they add to every command's start
    import queue

    before = set(multiprocessing.active_children())
    pool = multiprocessing.get_context("fork").Pool(
        n, _start_worker, (set_blas_threads, fn, items))
    workers = set(multiprocessing.active_children()) - before
    returned = queue.SimpleQueue()  # (index, ok, value or error) of each call
    results, running, left = {}, set(), list(range(len(items)))
    error, first_error = None, len(items)  # the items from first_error on need not run
    try:
        while True:
            ready = [i for i in left if i < first_error
                     and all(j in results for j in after.get(i, ()))]
            for i in ready[:n - len(running)]:
                left.remove(i)
                running.add(i)
                pool.apply_async(_work, (i,),
                                 callback=lambda value, i=i: returned.put((i, True, value)),
                                 error_callback=lambda e, i=i: returned.put((i, False, e)))
            if not any(i < first_error for i in running):
                break
            try:
                i, ok, value = returned.get(timeout=1.0)
            except queue.Empty:
                # a pool replaces a dead worker but never returns its task
                if not workers <= set(multiprocessing.active_children()):
                    raise RuntimeError("a worker process died") from None
                continue
            running.remove(i)
            if ok:
                results[i] = value
            elif i < first_error:
                error, first_error = value, i
        if error is not None:
            raise error
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return [results[i] for i in range(len(items))], n
