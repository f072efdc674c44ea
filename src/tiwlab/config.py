"""Experiment configuration: YAML in, validated dataclass out.

Each config leaf is declared once, as a dataclass field that carries its
key, type, default and bound or choices. The library types declare their
sections: VpSchedule is schedule, NetSpec is disc_net and score_net,
DiscTrainConfig and ScoreTrainConfig are disc_train and score_train, and
ObjectiveSpec and SamplerSpec are objective and sampler. The sections with
no library type are declared below; ranges.py explains the field
metadata and checks each leaf. This module derives DEFAULT_CONFIG, the
validator and the construction of the library objects from these fields.

Configs are strict: unknown keys anywhere are rejected, so typos fail
loudly instead of silently falling back to defaults. A bool is never a
number and a float never an integer, and values are kept exactly as given,
since JSON writes 1 and 1.0 differently. Every random decision in a run
flows from the named seeds here, and the config hash (sha256 of the
canonical JSON form, defaults filled in) identifies a run completely.
"""

import copy
import hashlib
import json
import re
import time
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_origin

import yaml

from . import artifacts
from .errors import ConfigError, InputError
from .mixture import GaussianMixture, two_mode_balanced_mixture, two_mode_bias_mixture
from .net import NetSpec
from .objectives import ObjectiveSpec, ScoreTrainConfig
from .ranges import check_value
from .ratio import RATIO_KINDS, DiscTrainConfig
from .sde import SamplerSpec, VpSchedule

# ---------------------------------------------------------------------------
# the leaves no library type declares
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    output_dir: str = "runs/default"


@dataclass
class _Seeds:
    # numpy's SeedSequence takes no negative seed
    data: int = field(default=101, metadata={"ge": 0})
    disc: int = field(default=202, metadata={"ge": 0})
    score: int = field(default=303, metadata={"ge": 0})
    sample: int = field(default=404, metadata={"ge": 0})
    eval: int = field(default=505, metadata={"ge": 0})


@dataclass
class _Mixture:
    weights: list[float] = field(metadata={"min_len": 1})
    means: list[list[float]]
    variances: list[float]


@dataclass
class _Mixtures:
    bias: _Mixture = field(
        default_factory=lambda: _Mixture(**two_mode_bias_mixture().to_dict()))
    data: _Mixture = field(
        default_factory=lambda: _Mixture(**two_mode_balanced_mixture().to_dict()))


@dataclass
class _Split:
    n_bias: int = field(default=1000, metadata={"ge": 1})
    n_ref: int = field(default=100, metadata={"ge": 1})


@dataclass
class _RatioKind:
    ratio: str = field(default="learned", metadata={"choices": RATIO_KINDS})


@dataclass
class _Eval:
    n_samples: int = field(default=4000, metadata={"ge": 1})
    n_oracle: int = field(default=4000, metadata={"ge": 2})
    dre_grid: list[float] = field(
        default_factory=lambda: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        metadata={"min_len": 2})
    dre_n: int = field(default=20000, metadata={"ge": 10})


# ---------------------------------------------------------------------------
# what the declarations give: the layout, the defaults, the validator
# ---------------------------------------------------------------------------

def _leaves(*classes):
    """Config key -> field, for each config leaf the classes declare.

    A class declares the fields it adds to its dataclass bases, so the
    training configs leave their network fields to NetSpec.
    """
    leaves = {}
    for cls in classes:
        inherited = {f.name for base in cls.__bases__ if is_dataclass(base)
                     for f in fields(base)}
        leaves.update((f.metadata.get("key", f.name), f) for f in fields(cls)
                      if f.name not in inherited and f.metadata.get("config", True))
    return leaves


# section -> {key: field}; a field typed by a dataclass is a nested object
LAYOUT = {
    **_leaves(_Run),
    "seeds": _leaves(_Seeds),
    "mixtures": _leaves(_Mixtures),
    "split": _leaves(_Split),
    "schedule": _leaves(VpSchedule),
    "disc_net": _leaves(NetSpec),
    "score_net": _leaves(NetSpec),
    "disc_train": _leaves(DiscTrainConfig),
    "score_train": _leaves(ScoreTrainConfig),
    "objective": _leaves(ObjectiveSpec, _RatioKind),
    "sampler": _leaves(SamplerSpec),
    "eval": _leaves(_Eval),
}


def _default(node):
    """A subtree's or a leaf's default, spelled as the config file spells it."""
    if isinstance(node, dict):
        return {key: _default(sub) for key, sub in node.items()}
    value = node.default_factory() if node.default is MISSING else node.default
    if is_dataclass(value):
        return asdict(value)
    return list(value) if isinstance(value, tuple) else value


DEFAULT_CONFIG = _default(LAYOUT)


def _invalid(path, message):
    return ConfigError(f"config field {path or '<root>'}: {message}")


def _check(value, node, path=""):
    """Raise ConfigError unless value fits node, a subtree or a leaf field."""
    if isinstance(node, Field) and is_dataclass(node.type):
        node = _leaves(node.type)
    if not isinstance(node, dict):
        return check_value(value, node.type, node.metadata, f"config field {path}", ConfigError)
    if not isinstance(value, dict):
        raise _invalid(path, f"{value!r} is not an object")
    for key in value:
        if key not in node:
            raise _invalid(f"{path}.{key}" if path else key, "additional key is not allowed")
    for key, sub in node.items():
        _check(value[key], sub, f"{path}.{key}" if path else key)


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml.safe_load that also reads YAML 1.2 floats: the YAML 1.1 pattern
    wants a dot and a signed exponent, so it reads 1e-3 and 1e6 as strings.
    It parses with libyaml when pyyaml was built with it (the values are the
    same; a syntax error's message is worded differently)."""


_Loader.add_implicit_resolver(  # after int and the 1.1 float, which it keeps
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def apply_overrides(raw, overrides):
    """Apply 'dotted.key=value' strings, whose values parse as YAML scalars,
    and (dotted.key, value) pairs, whose values are taken as they are."""
    out = copy.deepcopy(raw)
    for item in overrides or []:
        if isinstance(item, tuple):
            dotted, value = item
        elif "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        else:
            dotted, text = item.split("=", 1)
            try:
                value = yaml.load(text, Loader=_Loader)
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
        self.raw = _deep_merge(DEFAULT_CONFIG, self.raw)
        _check(self.raw, LAYOUT)
        # the checks across fields: VpSchedule needs beta_min <= beta_max and
        # t_eps < T, each mixture must build and both must share a dimension,
        # and the ratio error grid must rise strictly within [0, horizon]
        try:
            VpSchedule(**self.section("schedule"))
        except InputError as e:
            raise ConfigError(f"config field schedule: {e}") from e
        bias, data = self.mixture("bias"), self.mixture("data")
        if bias.dim != data.dim:
            raise ConfigError(f"config field mixtures: bias is {bias.dim}-D, "
                              f"data is {data.dim}-D")
        grid, horizon = self.raw["eval"]["dre_grid"], self.raw["schedule"]["horizon"]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise _invalid("eval.dre_grid", f"{grid!r} is not strictly increasing")
        if not all(0 <= t <= horizon for t in grid):
            raise _invalid("eval.dre_grid", f"{grid!r} has a point outside "
                                            f"[0, schedule.horizon = {horizon!r}]")

    # -- typed accessors -----------------------------------------------------

    @property
    def output_dir(self):
        return Path(self.raw["output_dir"])

    @property
    def seeds(self):
        return self.raw["seeds"]

    def section(self, name):
        """A section's values by field name: keyword arguments of its types."""
        values = self.raw[name]
        return {f.name: tuple(values[key]) if get_origin(f.type) is tuple else values[key]
                for key, f in LAYOUT[name].items()}

    def mixture(self, name):
        try:
            return GaussianMixture.from_dict(self.raw["mixtures"][name])
        except Exception as e:
            raise ConfigError(f"mixtures.{name}: {e}") from e

    @property
    def schedule(self):
        return VpSchedule(**self.section("schedule"))

    def sampler_spec(self):
        return SamplerSpec(**self.section("sampler"), seed=self.seeds["sample"])

    def disc_train_config(self, time_independent=False):
        return DiscTrainConfig(**self.section("disc_net"), **self.section("disc_train"),
                               seed=self.seeds["disc"], time_independent=time_independent)

    def score_train_config(self, telemetry_path=None):
        return ScoreTrainConfig(**self.section("score_net"), **self.section("score_train"),
                                seed=self.seeds["score"],
                                telemetry_path=str(telemetry_path) if telemetry_path else None)

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
            raw = yaml.load(text, Loader=_Loader) or {}
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
    artifacts: list = field(default_factory=list)  # every emitted file, itself too
    workers: int = 1  # processes the command ran its stages in, 1 if in-process

    def add_artifact(self, path):
        self.artifacts.append(str(path))

    def extend(self, part):
        """Append what a fragment of this report recorded."""
        self.stages += part.stages
        self.metrics += part.metrics
        self.checkpoints.update(part.checkpoints)
        self.artifacts += part.artifacts

    def write(self, path):
        """Write the report to path, which it lists among the artifacts."""
        self.add_artifact(path)
        payload = {
            "config_hash": self.config_hash,
            "library_version": self.library_version,
            "stages": [{"name": n, "seconds": s} for n, s in self.stages],
            "metrics": self.metrics,
            "checkpoints": self.checkpoints,
            "artifacts": sorted(self.artifacts),
            "workers": self.workers,
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
