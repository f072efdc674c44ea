"""Print the sha256 of every output of a fixed set of short tiwlab runs.

    python3 tools/output_digests.py [--keep DIR]

Runs, in process and from the src/ tree next to this script, a short
`debias --all-baselines`, a `sweep-alpha`, three `sample` runs (from the
tiw_dsm checkpoint, and from the exact data score at 128 and at 2000
rows; 2000 rows split into one row chunk per worker when two or more
cores are available) with an `eval` of the first, `gen-data` and
`repro-fig2` (which reloads both discriminators it trains) in a
directory of their own, and the two oracle functions, `loss_sm_oracle`
and `mc_loss_gradient`, on 1-D and 2-D mixtures. In one more output directory it runs the training branches
those skip: `gen-data`, both discriminators under the sigma_squared BCE
weight with a held-out fifth, `train-score` for weight_only,
correction_only and iw_dsm on the bias stream, the named baselines dsm_ref
and tiw_dsm (the latter on the exact ratio, under an objective.alpha it
must ignore), a `sample` from the default source (the configured
objective's checkpoint, score_tiw_dsm.ckpt), and one `train-score` that
diverges (exit code 4) and keeps its telemetry; one more `sample` reads
`--source oracle-bias`. Prints one "<sha256>  <name>" line for every CSV
(samples and telemetry included), checkpoint, provenance.json (which
names each sample's score source as the command gave it: a run's
checkpoint relative to the output directory, oracle-data, or the
--source path, here relative to the runs' directory) and
identity_checks.txt the runs write (dre_curve.csv and eval.csv among
them), and for the loss value and gradient bytes of each oracle call. Two
checkouts whose arithmetic is the same print the same lines:

    (cd parent && python3 tools/output_digests.py) > parent.txt
    (cd change && python3 tools/output_digests.py) > change.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tiwlab import cli, objectives  # noqa: E402
from tiwlab.mixture import GaussianMixture, pooled_mixture  # noqa: E402
from tiwlab.net import Mlp  # noqa: E402
from tiwlab.ratio import oracle_ratio_model  # noqa: E402
from tiwlab.sde import VpSchedule  # noqa: E402

SHORT = ["disc_train.steps=40", "score_train.steps=40", "score_train.telemetry_every=10",
         "eval.n_samples=128", "eval.n_oracle=256", "eval.dre_n=200",
         "sampler.steps=20"]
HASHED = ("*.csv", "*.ckpt", "provenance.json", "identity_checks.txt")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def tiwlab(*argv, expect=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != expect:
        raise SystemExit(f"tiwlab {' '.join(argv)} exited {code}, expected {expect}")


def cli_runs(out):
    config = str(ROOT / "configs" / "two-mode.yaml")
    sets = [a for s in SHORT for a in ("--set", s)]
    tiwlab("debias", "--config", config, *sets, "--output-dir", str(out / "debias"),
           "--all-baselines")
    tiwlab("sweep-alpha", "--config", config, *sets, "--output-dir", str(out / "sweep"),
           "--alphas", "0,0.5,1")
    # from out, so that the checkpoint path, which provenance.json records as
    # given, does not name the output directory
    with contextlib.chdir(out):
        for label, source in (("ckpt", "debias/tiw_dsm/score.ckpt"), ("oracle", "oracle-data")):
            tiwlab("sample", "--config", config, *sets, "--output-dir",
                   str(out / f"sample_{label}"), "--source", source)
    tiwlab("sample", "--config", config, *sets, "--set", "eval.n_samples=2000",
           "--output-dir", str(out / "sample_split"), "--source", "oracle-data")
    tiwlab("eval", "--config", config, *sets, "--output-dir", str(out / "sample_ckpt"))
    figs = ("--output-dir", str(out / "figs"))
    for command in ("gen-data", "repro-fig2"):
        tiwlab(command, "--config", config, *sets, *figs)
    steps = ("--output-dir", str(out / "steps"))
    tiwlab("gen-data", "--config", config, *sets, *steps)
    disc = [*sets, "--set", "disc_train.lambda_prime=sigma_squared",
            "--set", "disc_train.holdout_fraction=0.2"]
    tiwlab("train-disc", "--config", config, *disc, *steps)
    tiwlab("train-disc", "--config", config, *disc, *steps, "--time-independent")
    for kind in ("weight_only", "correction_only", "iw_dsm"):
        stream = ["--set", "objective.stream=bias"] if kind == "iw_dsm" else []
        tiwlab("train-score", "--config", config, *sets, *stream, *steps,
               "--set", f"objective.kind={kind}")
    tiwlab("train-score", "--config", config, *sets, *steps, "--baseline", "dsm_ref")
    tiwlab("train-score", "--config", config, *sets, *steps, "--baseline", "tiw_dsm",
           "--set", "objective.alpha=0.5", "--set", "objective.ratio=oracle")
    tiwlab("sample", "--config", config, *sets, *steps)
    tiwlab("sample", "--config", config, *sets, "--output-dir", str(out / "sample_bias"),
           "--source", "oracle-bias")
    # exit code 4: the loss diverges at step 1, after one telemetry row
    tiwlab("train-score", "--config", config, *sets, *steps, "--set", "objective.kind=dsm",
           "--set", "score_train.learning_rate=1000000.0",
           "--set", "score_train.telemetry_every=1", expect=4)
    for pattern in HASHED:
        for path in sorted(out.rglob(pattern)):
            yield str(path.relative_to(out)), path.read_bytes()


def oracle_runs():
    sched = VpSchedule()
    cases = {
        "1d": (GaussianMixture(weights=[0.9, 0.1], means=[[-2.0], [2.0]],
                               variances=[1.0, 1.0]),
               GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]],
                               variances=[1.0, 1.0]),
               Mlp(1, [16], 1, seed=5), objectives.QuadratureGrid(), True),
        # unequal variances; a 100 x 100 node is larger than the row budget
        "2d": (GaussianMixture(weights=[0.9, 0.1], means=[[-2.0, -2.0], [2.0, 2.0]],
                               variances=[1.0, 0.5]),
               GaussianMixture(weights=[0.5, 0.5], means=[[-2.0, -2.0], [2.0, 2.0]],
                               variances=[1.0, 0.5]),
               Mlp(2, [8], 2, seed=6), objectives.QuadratureGrid(n_t=6, n_x=100, t_panels=3),
               False),
    }
    for name, (bias, data, net, grid, refine) in cases.items():
        net.params[-1] += 1.5
        for kind in ("sigma_squared", "uniform"):
            value, grad = objectives.loss_sm_oracle(net, grid, sched, data, kind,
                                                    refine_check=refine)
            yield f"loss_sm_oracle/{name}/{kind}", np.float64(value).tobytes() + grad.tobytes()
        oracle = oracle_ratio_model(data, bias, sched)
        for kind in ("tiw_dsm", "iw_dsm"):
            spec = objectives.ObjectiveSpec(kind=kind, ratio=oracle, stream="obs")
            loss, grad = objectives.mc_loss_gradient(net, spec, sched,
                                                     pooled_mixture(bias, data),
                                                     n=20_000, seed=9, batch=3000)
            yield f"mc_loss_gradient/{name}/{kind}", np.float64(loss).tobytes() + grad.tobytes()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="write the runs' outputs here and keep them")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.keep or tmp)
        for name, data in (*cli_runs(out), *oracle_runs()):
            print(f"{digest(data)}  {name}")


if __name__ == "__main__":
    main()
