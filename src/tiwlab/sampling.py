"""Sample generation: a score source + sampler settings -> sample matrix.

A score source is a plain (score_fn, dim, entry) value: a row-wise score
function, its dimension and its provenance entry ("source", "source_hash"),
whose "source" is the name its caller gives it.
checkpoint_score builds one from a score-network checkpoint, which
net.load_net checks, and mixture_score from an oracle mixture's exact
perturbed score. Row-wise, as reverse_generate requires: row i of the
score depends only on row i of the states, so the trajectories can be
split across processes. Samples come from Heun's method on the
probability-flow ODE. Each run produces a provenance record (seed, steps,
the schedule's four values, the source's entry, n, dim) that fully
determines the output; rerunning with the same record reproduces the
matrix bit for bit.
"""

import hashlib
import json
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import artifacts
from .errors import InputError, IoError
from .mixture import GaussianMixture, perturbed_score_batch
from .net import load_net
from .ranges import check_batch
from .sde import SamplerSpec, VpSchedule, reverse_generate


def checkpoint_score(path, name, dim=None):
    """The score source of a score-network checkpoint, recorded as name and the
    sha256 of its bytes; given dim, a network of another dimension is refused."""
    net, header = load_net(path, "score", dim)
    entry = {"source": name, "source_hash": header["sha256"]}
    return net.forward, net.input_dim, entry


def mixture_score(gm: GaussianMixture, sched: VpSchedule, name):
    """The exact perturbed score of gm, recorded as name and the sha256 of gm."""
    blob = json.dumps(gm.to_dict(), sort_keys=True).encode()
    entry = {"source": name, "source_hash": hashlib.sha256(blob).hexdigest()}
    return partial(perturbed_score_batch, gm, sched), gm.dim, entry


def generate(source, sched: VpSchedule, spec: SamplerSpec, n, output=None):
    """n samples from a score source (checkpoint_score, mixture_score) and their
    provenance dict; both go to samples.csv and provenance.json in output."""
    score_fn, dim, entry = source
    samples = reverse_generate(sched, score_fn, spec, n, dim)
    provenance = {"n": n, "dim": dim, **asdict(spec), "schedule": asdict(sched), **entry}
    if output is not None:
        out = Path(output)
        write_samples_csv(out / "samples.csv", samples)
        artifacts.write_json(out / "provenance.json", provenance)
    return samples, provenance


def write_samples_csv(path, samples):
    """Write an (n, d) batch of finite values, n, d >= 1, as read_samples_csv reads it."""
    samples = check_batch(samples, "samples")
    if 0 in samples.shape:
        raise InputError(f"samples must be non-empty, got shape {samples.shape}")
    artifacts.write_csv(path, [f"x{i}" for i in range(samples.shape[1])], samples)


def read_samples_csv(path):
    """The (n, d) matrix of a samples CSV: an x0,...,x{d-1} header, then at
    least one row of d finite values; IoError naming path otherwise."""
    header, _, body = artifacts.read_text(path).partition("\n")
    if not header.startswith("x0"):
        raise IoError(f"{path} is not a samples CSV (missing x0 header)")
    if not body.strip():
        raise IoError(f"{path} is not a samples CSV: no data rows")
    try:
        samples = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except ValueError as e:
        raise IoError(f"{path} is not a samples CSV: {e}") from e
    columns = header.count(",") + 1
    if samples.shape[1] != columns:
        raise IoError(f"{path} is not a samples CSV: its header names {columns} "
                      f"columns, its rows hold {samples.shape[1]}")
    if not np.isfinite(samples).all():
        raise IoError(f"{path} holds a non-finite value (nan or inf)")
    return samples
