"""Experiment configuration: YAML in, validated dataclass out.

Configs are strict: the jsonschema below rejects unknown keys anywhere, so
typos fail loudly instead of silently falling back to defaults. Every
random decision in a run flows from the named seeds here, and the config
hash (sha256 of the canonical JSON form, defaults filled in) identifies a
run completely.
"""

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import yaml

from . import artifacts
from .errors import ConfigError
from .mixture import GaussianMixture
from .net import ACTIVATIONS, TIME_EMBEDS
from .objectives import LR_DECAYS, OBJECTIVE_KINDS, OBS_STREAMS, STREAMS
from .ratio import RATIO_FORMS, RATIO_KINDS
from .sde import INTEGRATORS, LAMBDA_KINDS, SAMPLER_KINDS, SamplerSpec, VpSchedule

_MIXTURE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["weights", "means", "variances"],
    "properties": {
        "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "means": {"type": "array",
                  "items": {"type": "array", "items": {"type": "number"}}},
        "variances": {"type": "array", "items": {"type": "number"}},
    },
}

_NET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "hidden": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "activation": {"enum": list(ACTIVATIONS)},
        "time_embed": {"enum": list(TIME_EMBEDS)},
        "n_frequencies": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "output_dir": {"type": "string"},
        "seeds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: {"type": "integer"} for k in
                           ("data", "disc", "score", "sample", "eval")},
        },
        "mixtures": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"bias": _MIXTURE_SCHEMA, "data": _MIXTURE_SCHEMA},
        },
        "split": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_bias": {"type": "integer", "minimum": 1},
                "n_ref": {"type": "integer", "minimum": 1},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta_min": {"type": "number", "exclusiveMinimum": 0},
                "beta_max": {"type": "number"},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "t_eps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "disc_net": _NET_SCHEMA,
        "score_net": _NET_SCHEMA,
        "disc_train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 2},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "lambda_prime": {"enum": list(LAMBDA_KINDS)},
                "holdout_fraction": {"type": "number", "minimum": 0, "maximum": 0.5},
            },
        },
        "score_train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "telemetry_every": {"type": "integer", "minimum": 0},
                "obs_stream": {"enum": ["auto", *OBS_STREAMS]},
                "lr_decay": {"enum": list(LR_DECAYS)},
            },
        },
        "objective": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(OBJECTIVE_KINDS)},
                "alpha": {"type": "number", "minimum": 0},
                "tau": {"type": "number", "minimum": 0},
                "lambda_kind": {"enum": list(LAMBDA_KINDS)},
                "stream": {"enum": ["auto", *STREAMS]},
                "ratio_form": {"enum": ["auto", *RATIO_FORMS]},
                "ratio": {"enum": list(RATIO_KINDS)},
            },
        },
        "sampler": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(SAMPLER_KINDS)},
                "steps": {"type": "integer", "minimum": 2},
                "integrator": {"enum": list(INTEGRATORS)},
            },
        },
        "eval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1},
                "n_oracle": {"type": "integer", "minimum": 2},
                "dre_grid": {"type": "array", "items": {"type": "number"},
                             "minItems": 2},
                "dre_n": {"type": "integer", "minimum": 10},
            },
        },
        "field_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "resolution": {"type": "integer", "minimum": 2},
                "extent": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "output_dir": "runs/default",
    "seeds": {"data": 101, "disc": 202, "score": 303, "sample": 404, "eval": 505},
    "mixtures": {
        "bias": {"weights": [0.9, 0.1], "means": [[-2.0, -2.0], [2.0, 2.0]],
                 "variances": [1.0, 1.0]},
        "data": {"weights": [0.5, 0.5], "means": [[-2.0, -2.0], [2.0, 2.0]],
                 "variances": [1.0, 1.0]},
    },
    "split": {"n_bias": 1000, "n_ref": 100},
    "schedule": {"beta_min": 0.1, "beta_max": 20.0, "horizon": 1.0, "t_eps": 1e-3},
    "disc_net": {"hidden": [64, 64, 64], "activation": "silu",
                 "time_embed": "sinusoidal", "n_frequencies": 8},
    "score_net": {"hidden": [64, 64, 64], "activation": "silu",
                  "time_embed": "sinusoidal", "n_frequencies": 8},
    "disc_train": {"steps": 6000, "batch_size": 256, "learning_rate": 1e-3,
                   "lambda_prime": "uniform", "holdout_fraction": 0.0},
    "score_train": {"steps": 12000, "batch_size": 128, "learning_rate": 1e-3,
                    "telemetry_every": 500, "obs_stream": "auto",
                    "lr_decay": "cosine"},
    "objective": {"kind": "tiw_dsm", "alpha": 1.0, "tau": 0.0,
                  "lambda_kind": "sigma_squared", "stream": "auto",
                  "ratio_form": "auto", "ratio": "learned"},
    "sampler": {"kind": "probability-flow-ode", "steps": 200, "integrator": "heun"},
    "eval": {"n_samples": 4000, "n_oracle": 4000,
             "dre_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
             "dre_n": 20000},
    "field_grid": {"resolution": 25, "extent": 4.0},
}


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def apply_overrides(raw, overrides):
    """Apply 'dotted.key=value' strings; values parse as YAML scalars."""
    out = copy.deepcopy(raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, text = item.split("=", 1)
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse override value {text!r}: {e}") from e
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a scalar")
        node[parts[-1]] = value
    return out


@dataclass
class ExperimentConfig:
    raw: dict

    def __post_init__(self):
        merged = _deep_merge(DEFAULT_CONFIG, self.raw)
        try:
            jsonschema.validate(merged, CONFIG_SCHEMA)
        except jsonschema.ValidationError as e:
            path = ".".join(str(p) for p in e.absolute_path) or "<root>"
            raise ConfigError(f"config field {path}: {e.message}") from e
        if merged["schedule"]["beta_max"] < merged["schedule"]["beta_min"]:
            raise ConfigError("schedule.beta_max must be >= schedule.beta_min")
        self.raw = merged

    # -- typed accessors -----------------------------------------------------

    @property
    def output_dir(self):
        return Path(self.raw["output_dir"])

    @property
    def seeds(self):
        return self.raw["seeds"]

    def mixture(self, name):
        try:
            return GaussianMixture.from_dict(self.raw["mixtures"][name])
        except Exception as e:
            raise ConfigError(f"mixtures.{name}: {e}") from e

    @property
    def schedule(self):
        s = self.raw["schedule"]
        return VpSchedule(beta_min=s["beta_min"], beta_max=s["beta_max"],
                          T=s["horizon"], t_eps=s["t_eps"])

    def sampler_spec(self, seed=None):
        s = self.raw["sampler"]
        return SamplerSpec(kind=s["kind"], steps=s["steps"],
                           integrator=s["integrator"],
                           seed=self.seeds["sample"] if seed is None else seed)

    def to_dict(self):
        return copy.deepcopy(self.raw)


def config_hash(cfg: ExperimentConfig):
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_config(path=None, overrides=None):
    """Read a YAML config file (optional) and apply dotted overrides."""
    raw = {}
    if path is not None:
        text = artifacts.read_text(path)
        try:
            raw = yaml.safe_load(text) or {}
        except yaml.YAMLError as e:
            raise ConfigError(f"config {path} is not valid YAML: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping at top level")
    raw = apply_overrides(raw, overrides)
    return ExperimentConfig(raw=raw)


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """What a pipeline run produced: hash, timings, metrics, artifacts."""

    config_hash: str
    library_version: str
    stages: list = field(default_factory=list)     # (name, seconds)
    metrics: list = field(default_factory=list)    # dict rows
    checkpoints: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)  # every emitted file

    def add_artifact(self, path):
        self.artifacts.append(str(path))

    def write(self, path):
        payload = {
            "config_hash": self.config_hash,
            "library_version": self.library_version,
            "stages": [{"name": n, "seconds": s} for n, s in self.stages],
            "metrics": self.metrics,
            "checkpoints": self.checkpoints,
            "artifacts": sorted(self.artifacts),
        }
        artifacts.write_json(path, payload)


class StageTimer:
    def __init__(self, report: RunReport, name):
        self.report, self.name = report, name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.stages.append((self.name, time.perf_counter() - self.start))
        return False
