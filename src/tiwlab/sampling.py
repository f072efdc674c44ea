"""Sample generation: a score source + sampler settings -> sample matrix.

The score source is either a score-network checkpoint or an oracle
mixture (whose exact perturbed score is used). Both score functions are
row-wise, as reverse_generate requires: row i of the score depends only on
row i of the states, so the trajectories can be split across processes.
Samples come from Heun's method on the probability-flow ODE. Each run
produces a provenance record (seed, steps, the schedule's four values,
source hash, n, dim) that fully determines the output; rerunning with the
same record reproduces the matrix bit for bit.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import InputError, IoError
from .mixture import GaussianMixture, perturbed_score_batch
from .net import load_net
from .sde import SamplerSpec, VpSchedule, reverse_generate


def _mixture_hash(gm: GaussianMixture):
    blob = json.dumps(gm.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _resolve_score_fn(src, sched: VpSchedule):
    if isinstance(src, GaussianMixture):
        def score_fn(X, t):
            return perturbed_score_batch(src, sched, X, t)
        return score_fn, src.dim, {"source": "oracle", "source_hash": _mixture_hash(src)}
    net, header = load_net(src)
    if header.get("role") != "score":
        raise InputError(f"checkpoint {src} is not a score network "
                         f"(role field {header.get('role')!r})")
    if net.output_dim != net.input_dim:
        raise IoError(f"corrupt checkpoint {src}: output_dim field does not match "
                      "input_dim for a score network")

    def score_fn(X, t):
        return net.forward(X, t)
    return score_fn, net.input_dim, {"source": Path(src).name,
                                     "source_hash": header["sha256"]}


def generate(source, sched: VpSchedule, spec: SamplerSpec, n, output=None, dim=None):
    """n samples from source, a score checkpoint path or a GaussianMixture, and
    their provenance dict; both go to samples.csv and provenance.json in output.
    With dim given, a source of another dimension is refused before sampling."""
    if n < 1:
        raise InputError("n must be >= 1")
    score_fn, source_dim, source_info = _resolve_score_fn(source, sched)
    if dim is not None and source_dim != dim:
        raise InputError(f"score source {source} is {source_dim}-D, "
                         f"but {dim}-D samples were asked for")
    samples = reverse_generate(sched, score_fn, spec, n, source_dim)
    provenance = {"n": n, "dim": source_dim, **asdict(spec), "schedule": asdict(sched),
                  **source_info}
    if output is not None:
        out = Path(output)
        write_samples_csv(out / "samples.csv", samples)
        artifacts.write_json(out / "provenance.json", provenance)
    return samples, provenance


def write_samples_csv(path, samples):
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise InputError(f"samples must have shape (n, d), got {samples.shape}")
    artifacts.write_csv(path, [f"x{i}" for i in range(samples.shape[1])],
                        ([repr(float(v)) for v in row] for row in samples))


def read_samples_csv(path):
    header, _, body = artifacts.read_text(path).partition("\n")
    if not header.startswith("x0"):
        raise IoError(f"{path} is not a samples CSV (missing x0 header)")
    try:
        return np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except ValueError as e:
        raise IoError(f"{path} is not a samples CSV: {e}") from e
