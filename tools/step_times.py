"""Time one training step of each score objective, one discriminator step,
one Heun drift of the sampler, at the default batches and widths, and one
energy distance of two 4000-point sets.

    python3 tools/step_times.py [--src OTHER/src] [--rounds 10] [--steps 100]

Cases, each but ed_4000 on the default two-mode data split (1000 biased
and 100 reference points, `split` config section) and the default
schedule:

    dsm, iw_dsm, tiw_dsm  one `train_score` step at batch 128 and a 3x64 score
                          net, each on its default stream (obs); iw_dsm and
                          tiw_dsm read a learned ratio (a 3x64 discriminator)
    disc                  one `train_discriminator` step at batch 256
    heun_256, heun_2000   one drift of the probability-flow ODE (one 3x64
                          score-net forward plus the drift arithmetic) over
                          256 and 2000 rows, run in this process
    ed_4000               one `metrics.energy_distance` (all three pair
                          sums) of two sets of 4000 draws from the balanced
                          two-mode mixture, on the process's cores

A case's cost per step is the wall time of a run of --steps steps (of one
call for ed_4000) over that count, after one warm-up run; a round takes
the median of REPEATS runs. The sampler's prior draws, timed on their own, are taken out of the
Heun runs; the training runs keep their set-up (network initialisation,
and iw_dsm's weights per pool point), well under 1% at 100 steps. Each
round runs every case once per tree, in a fresh interpreter with one BLAS
thread (as in the worker processes of `tiwlab debias`) unless
OPENBLAS_NUM_THREADS is set; with --src the two trees alternate which runs
first, so their numbers are paired round by round. Prints the quartiles
in microseconds per tree and case, with --src the rounds each tree won,
and an environment line (numpy, BLAS threads, cores).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ("dsm", "iw_dsm", "tiw_dsm", "disc", "heun_256", "heun_2000", "ed_4000")
# timed runs per case and round; a round reports their median
REPEATS = 5


def blas_threads():
    """Threads of the loaded OpenBLAS, or "unknown"."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def measure(steps):
    """{case: seconds per step} of the tiwlab on sys.path."""
    import numpy as np

    from tiwlab import metrics, sde
    from tiwlab.mixture import two_mode_balanced_mixture, two_mode_bias_mixture
    from tiwlab.net import Mlp
    from tiwlab.objectives import ObjectiveSpec, ScoreTrainConfig, train_score
    from tiwlab.ratio import DatasetSplit, DiscTrainConfig, RatioModel, train_discriminator
    from tiwlab.sde import SamplerSpec, VpSchedule

    sched = VpSchedule()
    split = DatasetSplit(bias_points=two_mode_bias_mixture().sample(1000, seed=101),
                         ref_points=two_mode_balanced_mixture().sample(100, seed=102))
    ratio = RatioModel(sched=sched, kind="learned", net=Mlp(2, [64, 64, 64], 1, seed=202))
    score_net = Mlp(2, [64, 64, 64], 2, seed=303)

    # each run returns the seconds of its untimed part
    def score(kind):
        spec = ObjectiveSpec(kind=kind, ratio=None if kind == "dsm" else ratio)

        def run(n):
            train_score(split, spec, sched, ScoreTrainConfig(steps=n, telemetry_every=0,
                                                             seed=303))
            return 0.0
        return run

    def disc(n):
        train_discriminator(split, sched, DiscTrainConfig(steps=n, seed=202))
        return 0.0

    def heun(rows):  # two drifts per Heun step; the prior draws are untimed
        def run(n):
            start = time.perf_counter()
            sde._prior_draws(404, 0, rows, 2)
            prior = time.perf_counter() - start
            sde._integrate(sched, score_net.forward, SamplerSpec(steps=n // 2, seed=404), 2,
                           (0, rows))
            return prior
        return run

    ed_sets = (two_mode_balanced_mixture().sample(4000, seed=505),
               two_mode_balanced_mixture().sample(4000, seed=506))

    def ed(n):
        metrics.energy_distance(*ed_sets)
        return 0.0

    runs = {"dsm": score("dsm"), "iw_dsm": score("iw_dsm"), "tiw_dsm": score("tiw_dsm"),
            "disc": disc,
            "heun_256": heun(256), "heun_2000": heun(2000), "ed_4000": ed}
    out = {}
    for case in CASES:
        run = runs[case]
        n = 1 if case == "ed_4000" else steps
        run(n)  # warm-up
        per_step = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            untimed = run(n)
            per_step.append((time.perf_counter() - start - untimed) / n)
        out[case] = statistics.median(per_step)
    out["env"] = {"numpy": np.__version__, "blas_threads": blas_threads(),
                  "cores": os.cpu_count()}
    return out


def child(src, steps):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    done = subprocess.run([sys.executable, __file__, "--measure", str(steps)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"timing run of {src} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="a second tree's src/ directory, timed alternately")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=100,
                        help="steps (or drifts) per timed run, even and >= 4 "
                        "(default 100)")
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return
    # a Heun run takes steps // 2 steps, and the sampler at least 2
    if args.rounds < 1 or args.steps < 4 or args.steps % 2:
        parser.error("--rounds must be >= 1 and --steps an even number >= 4")
    trees = {"this": ROOT / "src"}
    if args.src:
        trees["other"] = Path(args.src)
    names = list(trees)
    per = {name: {case: [] for case in CASES} for name in names}
    env = None
    for r in range(args.rounds):
        for name in (names if r % 2 == 0 else names[::-1]):
            result = child(trees[name], args.steps)
            env = result.pop("env")
            for case in CASES:
                per[name][case].append(1e6 * result[case])
    print(f"# numpy {env['numpy']}, BLAS threads {env['blas_threads']}, "
          f"cores {env['cores']}, {args.rounds} rounds, steps {args.steps}")
    print("tree  case        q1_us   median_us   q3_us" + ("   wins" if args.src else ""))
    for name in names:
        for case in CASES:
            q1, q2, q3 = quartiles(per[name][case]) if args.rounds > 1 else (
                per[name][case][0],) * 3
            wins = ""
            if args.src:
                other = names[1 - names.index(name)]
                won = sum(a < b for a, b in zip(per[name][case], per[other][case]))
                wins = f"  {won}/{args.rounds}"
            print(f"{name:5} {case:10} {q1:8.1f} {q2:10.1f} {q3:8.1f}{wins}")


if __name__ == "__main__":
    main()
