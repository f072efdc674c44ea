#!/usr/bin/env python3
"""tiwlab benchmark: one workload, measured for a fixed time, outputs checked.

Run from the root of a source checkout (tiwlab is imported from src/):

    python3 tiwbench/run.py --workload debias-learned --seed 1 --seconds 10 --trace 0

With --trace 0 the workload runs back to back, untraced, at least
Workload.min_rounds times and until --seconds of runs have passed (the last
run may end past it), and the result carries the end-to-end metrics: wall_s
(median wall time of one workload run), setup_s (median over fresh
interpreters, a few ahead of every run and after the last, of the time
spent importing tiwlab and loading the workload config, as timed inside the
interpreter) and peak_rss_mb. With --trace 1 each untraced run is followed
by a traced run on the same seed, whose outputs must be byte-identical; the
result carries the per-module metrics of probes.PER_LAYER. The last stdout
line is the result JSON; the lines before it give the environment, the
quality figures and every failed check. A JSON record of the run goes to
.tiwbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import PER_LAYER, install, layer_metrics, median_metrics
from tracer import Tracer
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
# fresh-interpreter setup probes ahead of every workload run and after the
# last, so that they sample the same stretch of the machine's time as the runs
SETUP_PROBES_PER_ROUND = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY = ("bias_stat", "energy_distance", "grad_equiv_rel")


def blas_info():
    """(library, threads in use) from numpy's build and the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:  # not Linux: the thread count stays unknown
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def environment():
    import numpy as np
    from tiwlab import kernels

    blas, threads = blas_info()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(),
            "kernels_backend": kernels.backend_name(), "src_lines": src_lines}


def setup_probes(checks, config_path):
    """Import and config-load times of fresh interpreters, as they report them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = str(Path(__file__).with_name("setup_probe.py"))
    runs = []
    for _ in range(SETUP_PROBES_PER_ROUND):
        try:
            done = subprocess.run([sys.executable, probe, str(config_path)], env=env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            checks.check("setup probe finished within 120 s", False)
            continue
        if checks.check(f"setup probe exit code {done.returncode}", done.returncode == 0):
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


def timed(workload, checks):
    start = time.perf_counter()
    outcome = workload.run(checks)
    return time.perf_counter() - start, outcome


def traced(workload, checks):
    """One run under the probes; returns (wall, outcome, tracer)."""
    tr = Tracer()
    install(tr)
    try:
        wall, outcome = tr.call("workload", timed, workload, checks)
    finally:
        tr.restore()
    return wall, outcome, tr


def measure(workload, checks, seconds, trace):
    """Repeat setup probes and the workload (or untraced/traced pairs)
    until seconds of workload runs have passed."""
    walls, traced_walls, layer_runs, setups, tr = [], [], [], [], None
    # a floor on the number of runs keeps it from flipping with the machine's
    # speed; traced runs need one pair
    min_rounds = 1 if trace else workload.min_rounds
    spent = 0.0
    while True:
        setups += setup_probes(checks, workload.config_path)
        wall, outcome = timed(workload, checks)
        walls.append(wall)
        spent += wall
        digests, quality = workload.check(checks, outcome)
        if len(walls) == 1:
            first = digests
        else:
            checks.check("outputs identical to the first run", digests == first)
        if trace:
            wall, outcome, tr = traced(workload, checks)
            traced_walls.append(wall)
            spent += wall
            checks.check("traced outputs identical to untraced",
                         workload.check(checks, outcome)[0] == digests)
            layer_runs.append(layer_metrics(tr))
        if len(walls) >= min_rounds and spent >= seconds:
            setups += setup_probes(checks, workload.config_path)
            return walls, traced_walls, layer_runs, setups, quality, tr


def benchmark(args, work):
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    checks = Checks()
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    workload.prepare(checks)
    walls, traced_walls, layer_runs, setups, quality, tr = measure(
        workload, checks, args.seconds, args.trace)
    # a run whose probes all failed is already counted as failed
    setup = {k: statistics.median(r[k] for r in setups) if setups else 0.0
             for k in ("setup_s", "import_s", "load_config_s")}

    if args.trace:
        values = median_metrics(layer_runs)
        untraced = statistics.median(walls)
        values.update({"config.import_s": setup["import_s"],
                       "config.load_config.s": setup["load_config_s"],
                       "trace_overhead_frac":
                           (statistics.median(traced_walls) - untraced) / untraced})
        units = dict(PER_LAYER)
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup["setup_s"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed = len(checks.failures)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "seeds": workload.seeds, "walls_s": walls,
              "traced_walls_s": traced_walls, "setup_probes": setups, "quality": quality,
              "failures": checks.failures, "metrics": metrics,
              "spans": tr.summary() if tr else None,
              "counts": dict(tr.counts) if tr else None}
    results = ROOT / ".tiwbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"runs {len(walls)} untraced wall_s {[round(w, 3) for w in walls]}"
          + (f", traced {[round(w, 3) for w in traced_walls]}" if args.trace else ""))
    for what in checks.failures:
        print(f"FAILED: {what}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    # quality figures are gated by the checks, not bounded: their spread
    # across seeds is wider than any bound a timing could use
    for k in QUALITY:
        print(f"{k} = {quality[k]:.6g} 1" if k in quality
              else f"{k} = n/a (not produced by {args.workload})")
    print(f"failed_frac = {failed / checks.attempted:.6g} fraction "
          f"({failed} of {checks.attempted} operations and checks)")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/tiwlab/__init__.py", "configs/two-mode.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tiwlab source checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".tiwbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
