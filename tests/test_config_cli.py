import json
import multiprocessing
import os
import re
import shutil
import signal
import time
from dataclasses import Field, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from tiwlab import cli, config, kernels, sde, workers
from tiwlab.cli import _objective_spec, main
from tiwlab.config import (
    DEFAULT_CONFIG,
    LAYOUT,
    ExperimentConfig,
    apply_overrides,
    config_hash,
    load_config,
)
from tiwlab.errors import ConfigError, ContractError, InputError, NumericalError
from tiwlab.kernels import pairwise_mean_dist
from tiwlab.net import Mlp, load_net, save_net
from tiwlab.objectives import (
    OBJECTIVE_KINDS,
    STREAMS,
    ObjectiveSpec,
    ScoreTrainConfig,
    persample_loss,
)
from tiwlab.ranges import check_value
from tiwlab.ratio import RATIO_KINDS, DiscTrainConfig
from tiwlab.sampling import read_samples_csv
from tiwlab.sde import LAMBDA_KINDS, SamplerSpec, VpSchedule

from conftest import needs_blas_setter, zero_width_checkpoint

TWO_MODE = Path(__file__).resolve().parent.parent / "configs" / "two-mode.yaml"


@pytest.fixture()
def tiny_config(tmp_path):
    def make(**extra):
        raw = {
            "output_dir": str(tmp_path / "out"),
            "split": {"n_bias": 150, "n_ref": 30},
            "disc_train": {"steps": 120, "batch_size": 64},
            "score_train": {"steps": 150, "batch_size": 64, "telemetry_every": 50},
            "eval": {"n_samples": 128, "n_oracle": 128, "dre_n": 1000,
                     "dre_grid": [0.0, 0.25, 0.5, 0.75, 1.0]},
            "sampler": {"steps": 24},
        }
        raw.update(extra)
        path = tmp_path / "config.yaml"
        import yaml

        path.write_text(yaml.safe_dump(raw))
        return path, tmp_path / "out"

    return make


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cfg = ExperimentConfig(raw={})
    assert cfg.raw == DEFAULT_CONFIG
    assert cfg.mixture("bias").weights[0] == 0.9
    assert cfg.schedule.beta_max == 20.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="(?i)additional"):
        ExperimentConfig(raw={"scheduel": {"beta_min": 0.2}})
    with pytest.raises(ConfigError):
        ExperimentConfig(raw={"schedule": {"beta_mni": 0.2}})


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="n_ref"):
        ExperimentConfig(raw={"split": {"n_ref": 0}})
    with pytest.raises(ConfigError, match="beta_max"):
        ExperimentConfig(raw={"schedule": {"beta_min": 5.0, "beta_max": 1.0}})


ENUM_FIELDS = [
    ("disc_train.lambda_prime", LAMBDA_KINDS),
    ("objective.kind", OBJECTIVE_KINDS),
    ("objective.lambda_kind", LAMBDA_KINDS),
    ("objective.stream", ("auto", *STREAMS)),
    ("objective.ratio", RATIO_KINDS),
]


@pytest.mark.parametrize("path,values", ENUM_FIELDS, ids=[p for p, _ in ENUM_FIELDS])
def test_schema_enums_follow_code_constants(path, values):
    section, key = path.split(".")
    for value in values:
        cfg = load_config(overrides=[f"{path}={value}"])
        assert cfg.raw[section][key] == value
    with pytest.raises(ConfigError, match=path):
        load_config(overrides=[f"{path}=no-such-{key}"])


def test_overrides_parse_yaml_scalars():
    raw = apply_overrides({}, ["split.n_bias=777", "objective.alpha=0.25",
                               "objective.stream=ref"])
    cfg = ExperimentConfig(raw=raw)
    assert cfg.raw["split"]["n_bias"] == 777
    assert cfg.raw["objective"]["alpha"] == 0.25
    assert cfg.raw["objective"]["stream"] == "ref"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-sign"])


@pytest.mark.parametrize("text,value", [("1e-3", 1e-3), ("1e6", 1e6), ("-2.5E+3", -2500.0)])
def test_exponent_floats_parse_as_floats(tmp_path, text, value):
    """YAML 1.1 wants a dot and a signed exponent in a float, so it reads
    1e-3 and 1e6 as strings; a config file and --set read YAML 1.2 floats."""
    means = f"[[{text}, 0.0], [2.0, 2.0]]"
    path = tmp_path / "config.yaml"
    path.write_text(f"mixtures:\n  bias:\n    means: {means}\n")
    for cfg in (load_config(path), load_config(overrides=[f"mixtures.bias.means={means}"])):
        parsed = cfg.raw["mixtures"]["bias"]["means"][0][0]
        assert type(parsed) is float and parsed == value
    rate = load_config(overrides=[f"score_train.learning_rate={text.lstrip('-')}"])
    assert rate.score_train_config().learning_rate == abs(value)
    # a float is never an integer, in exponent notation too
    with pytest.raises(ConfigError, match="disc_train.steps"):
        load_config(overrides=["disc_train.steps=1e3"])


def test_config_round_trip_lossless():
    cfg = ExperimentConfig(raw={"split": {"n_bias": 42, "n_ref": 7}})
    clone = ExperimentConfig(raw=cfg.to_dict())
    assert clone.raw == cfg.raw
    assert config_hash(clone) == config_hash(cfg)


def test_config_hash_changes_iff_field_changes():
    a = ExperimentConfig(raw={})
    b = ExperimentConfig(raw={"seeds": {"data": 101}})  # same as default
    c = ExperimentConfig(raw={"seeds": {"data": 102}})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


BAD_OVERRIDES = [
    ("split.n_bias=1.5", "split.n_bias"),
    ("split.n_bias=true", "split.n_bias"),
    ("seeds.data=x", "seeds.data"),
    # numpy's SeedSequence takes no negative seed
    ("seeds.data=-1", r"seeds\.data: -1 is not >= 0"),
    ("seeds.disc=-1", r"seeds\.disc: -1 is not >= 0"),
    ("seeds.score=-1", r"seeds\.score: -1 is not >= 0"),
    ("seeds.sample=-1", r"seeds\.sample: -1 is not >= 0"),
    ("seeds.eval=-1", r"seeds\.eval: -1 is not >= 0"),
    ("schedule.t_eps=0", "schedule.t_eps"),
    ("schedule.horizon=0", "schedule.horizon"),
    ("schedule.t_eps=2", "schedule: need t_eps < T"),
    ("disc_train.holdout_fraction=0.6", "disc_train.holdout_fraction"),
    ("disc_train.batch_size=1", "disc_train.batch_size"),
    ("disc_train.learning_rate=0", "disc_train.learning_rate"),
    ("score_train.telemetry_every=-1", "score_train.telemetry_every"),
    ("disc_net.hidden=[0]", "disc_net.hidden.0"),
    ("disc_net.hidden=[1.5]", "disc_net.hidden.0"),
    ("eval.dre_grid=[0.5]", "eval.dre_grid"),
    ("eval.dre_grid=[a,b]", "eval.dre_grid"),
    ("eval.dre_n=9", "eval.dre_n"),
    ("sampler.steps=1", "sampler.steps"),
    ("field_grid.extent=1", "field_grid: additional key is not allowed"),
    ("objective.alpha=-0.1", "objective.alpha"),
    ("objective.alpha=true", "objective.alpha"),
    ("mixtures.bias.weights=[]", "mixtures.bias.weights"),
    ("mixtures.bias.wieghts=[1]", r"mixtures\.bias\.wieghts: additional"),
    ("mixtures.bias=null", "mixtures.bias"),
    ("mixtures.bias.means=[1,2]", "mixtures.bias.means"),
    ("mixtures.bias.weights=[0.5,0.6]", "mixtures.bias"),
    ("mixtures.data.means=[[-2,-2,0],[2,2,0]]", "mixtures: bias is 2-D, data is 3-D"),
    ("objective.ratio_form=plain", r"objective\.ratio_form: additional"),
    ("score_train.obs_stream=balanced", r"score_train\.obs_stream: additional"),
    ("objective.tau=0.3", r"objective\.tau: additional"),
    ("score_train.lr_decay=none", r"score_train\.lr_decay: additional"),
    ("objective.kind=interpolated", "objective.kind"),
    # Heun on the probability-flow ODE is the only sampler
    ("sampler.kind=reverse-sde", r"sampler\.kind: additional"),
    ("sampler.integrator=euler", r"sampler\.integrator: additional"),
    ("scheduel.beta_min=0.2", "field scheduel: additional"),
    ("output_dir=3", "output_dir"),
    ("disc_net=3", "disc_net"),
]


@pytest.mark.parametrize("override,path", BAD_OVERRIDES, ids=[o for o, _ in BAD_OVERRIDES])
def test_bad_override_names_its_path(override, path):
    with pytest.raises(ConfigError, match=path):
        load_config(overrides=[override])


@pytest.mark.parametrize("override", ["seeds.data=1.0", "split.n_bias=150.0",
                                      "sampler.steps=16.0"])
def test_integral_float_is_not_an_integer(tiny_config, capsys, override):
    config, _ = tiny_config()
    assert main(["gen-data", "--config", str(config), "--set", override]) == 3
    assert override.split("=")[0] in capsys.readouterr().err


# (command, a non-finite override of a float leaf, or list item, it reads)
NON_FINITE = [
    ("gen-data", "mixtures.data.weights=[.nan,.nan]"),
    ("sample", "schedule.beta_max=.nan"),
    ("sample", "schedule.horizon=.inf"),
    ("train-disc", "disc_train.learning_rate=.inf"),
    ("gen-data", "objective.alpha=.inf"),
    ("gen-data", "eval.dre_grid=[0.0,-.inf]"),
    ("gen-data", "mixtures.bias.means=[[-2,-2],[2,.nan]]"),
]


@pytest.mark.parametrize("command,override", NON_FINITE, ids=[o for _, o in NON_FINITE])
def test_a_non_finite_float_is_refused_before_any_work(tiny_config, capsys, command,
                                                       override):
    config, out = tiny_config()
    source = ["--source", "oracle-data"] if command == "sample" else []
    assert main([command, "--config", str(config), "--set", override, *source]) == 3
    err = capsys.readouterr().err
    assert f"config field {override.split('=')[0]}" in err and " is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_library_types_refuse_a_non_finite_float(value):
    with pytest.raises(InputError, match=rf"VpSchedule\.beta_max: {value!r} is not finite"):
        VpSchedule(beta_max=value)
    with pytest.raises(InputError, match=rf"ObjectiveSpec\.alpha: {value!r} is not finite"):
        ObjectiveSpec(alpha=value)
    with pytest.raises(InputError, match=rf"x\.1: {value!r} is not finite"):
        check_value([1.0, value], list[float], {}, "x")


def test_two_mode_yaml_holds_the_defaults():
    raw = load_config(TWO_MODE).raw
    assert raw.pop("output_dir") == "runs/two-mode"
    assert raw == {k: v for k, v in DEFAULT_CONFIG.items() if k != "output_dir"}


YAML_SCALARS = ["1e-3", "1e6", ".5", "-1", "true", "[1, 2]", "1_000", "0x10", "~", "1.0e+3",
                "nan", ".nan", "inf", ".inf"]
MALFORMED_YAML = ["a: [1, 2", "a: b: c", "{", "key: 'unterminated", "- a\nb: c", "a:\n\t- 1",
                  "[1, 2]]", "&a b: *c", "!!python/object/apply:os.system [ls]"]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml built without libyaml")
def test_libyaml_reads_configs_as_the_pure_python_parser_does(tmp_path, monkeypatch):
    assert issubclass(config._Loader, yaml.CSafeLoader)

    def outcomes(base):
        # config._Loader's resolvers, the YAML 1.2 float among them, over base
        monkeypatch.setattr(config, "_Loader", type("Loader", (base,), {
            "yaml_implicit_resolvers": config._Loader.yaml_implicit_resolvers}))
        out = [load_config(TWO_MODE).raw]
        out += [apply_overrides({}, [f"a={text}"])["a"] for text in YAML_SCALARS]
        for i, text in enumerate(MALFORMED_YAML):
            path = tmp_path / f"bad{i}.yaml"
            path.write_text(text)
            for call in (lambda: load_config(path), lambda: apply_overrides({}, [f"a={text}"])):
                with pytest.raises(ConfigError) as info:
                    call()
                # the parser's own message is worded differently in libyaml
                cause = info.value.__cause__
                out.append((type(cause).__name__, str(info.value).removesuffix(str(cause))))
        monkeypatch.undo()
        return out

    # repr tells 1 from 1.0 and True, and matches nan to nan
    assert repr(outcomes(yaml.CSafeLoader)) == repr(outcomes(yaml.SafeLoader))


def test_two_mode_yaml_choice_comments_match_the_declared_choices():
    # a "# a | b | c" comment after a leaf lists the choices its field declares
    checked, section = {}, None
    for line in TWO_MODE.read_text().splitlines():
        body, _, comment = line.partition("#")
        if not body.strip():
            continue
        key = body.split(":")[0].strip()
        if not line.startswith(" "):
            section = key
        if "|" in comment:
            path = f"{section}.{key}"
            checked[path] = [c.strip() for c in comment.split("|")]
            assert checked[path] == list(LAYOUT[section][key].metadata["choices"]), path
    assert {"objective.kind", "objective.stream", "objective.ratio"} <= set(checked)


def test_config_has_37_leaves():
    # a new knob shows up as an edit here
    def leaves(node):
        if isinstance(node, dict):
            return sum(map(leaves, node.values()))
        return int(isinstance(node, Field))

    assert leaves(LAYOUT) == 37


def test_config_hashes_pinned():
    assert config_hash(ExperimentConfig(raw={})) == \
        "a65327ebdc434107bef7f062d497c87f29b11e0edef4e0be08de8f841249bb04"
    assert config_hash(load_config(TWO_MODE)) == \
        "aead9ec1298d2346642494939abf1b759e49465778749ffa7e965756f7f444f0"


# each library type a section maps to: its defaults (given what the CLI built,
# for the fields that are not config keys) and how the CLI builds it; the
# oracle ratio lets the objective build without a trained discriminator, and
# objective.ratio is not an ObjectiveSpec field
SECTION_TYPES = {
    "DiscTrainConfig": (lambda built: DiscTrainConfig(), lambda cfg: cfg.disc_train_config()),
    "ScoreTrainConfig": (lambda built: ScoreTrainConfig(),
                         lambda cfg: cfg.score_train_config()),
    "VpSchedule": (lambda built: VpSchedule(), lambda cfg: cfg.schedule),
    "SamplerSpec": (lambda built: SamplerSpec(), lambda cfg: cfg.sampler_spec()),
    "ObjectiveSpec": (lambda built: ObjectiveSpec(ratio=built.ratio), _objective_spec),
}
NOT_CONFIG_KEYS = {"seed", "time_independent", "telemetry_path", "ratio"}


@pytest.mark.parametrize("name", SECTION_TYPES)
def test_library_defaults_equal_config_defaults(name):
    make_default, build = SECTION_TYPES[name]
    built = build(ExperimentConfig(raw={"objective": {"ratio": "oracle"}}))
    default = make_default(built)
    for f in fields(default):
        if f.name not in NOT_CONFIG_KEYS:
            assert getattr(default, f.name) == getattr(built, f.name), f.name


@pytest.mark.parametrize("make,field", [
    (lambda: DiscTrainConfig(holdout_fraction=0.6), "holdout_fraction"),
    (lambda: DiscTrainConfig(batch_size=1), "batch_size"),
    (lambda: ScoreTrainConfig(telemetry_every=-1), "telemetry_every"),
    (lambda: ScoreTrainConfig(hidden=(8, 0)), "hidden"),
    (lambda: SamplerSpec(steps=1), "steps"),
    (lambda: VpSchedule(T=0.0), "T"),
    (lambda: ObjectiveSpec(kind="dsm", alpha=-1.0), "alpha"),
], ids=["holdout", "disc-batch", "telemetry", "hidden", "steps", "T", "alpha"])
def test_library_types_check_the_declared_ranges(make, field):
    with pytest.raises(InputError, match=field):
        make()


@pytest.mark.parametrize("make,message", [
    # 2.5 steps used to construct and fail later in np.linspace with a TypeError
    (lambda: SamplerSpec(steps=2.5), "SamplerSpec.steps: 2.5 is not of type int"),
    (lambda: ScoreTrainConfig(steps=3.0), "ScoreTrainConfig.steps: 3.0 is not of type int"),
    (lambda: DiscTrainConfig(time_independent=1),
     "DiscTrainConfig.time_independent: 1 is not of type bool"),
    (lambda: ScoreTrainConfig(hidden=(8, True)), "ScoreTrainConfig.hidden.1: True is not"),
    (lambda: ObjectiveSpec(kind=None), "ObjectiveSpec.kind: None is not of type str"),
], ids=["sampler-steps", "score-steps", "time-independent", "hidden", "kind"])
def test_library_types_check_the_declared_types(make, message):
    with pytest.raises(InputError, match=re.escape(message)):
        make()
    # an int is a float, and a field whose default is None is left to its reader
    assert VpSchedule(beta_max=20).beta_max == 20
    assert ScoreTrainConfig(telemetry_path=Path("t.csv")).telemetry_path == Path("t.csv")


def test_load_config_missing_file(tmp_path):
    from tiwlab.errors import IoError

    with pytest.raises(IoError):
        load_config(tmp_path / "nope.yaml")


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_gen_data_writes_expected_rows(tiny_config):
    config, out = tiny_config()
    assert main(["gen-data", "--config", str(config)]) == 0
    bias = read_samples_csv(out / "bias.csv")
    ref = read_samples_csv(out / "ref.csv")
    assert bias.shape == (150, 2) and ref.shape == (30, 2)


def test_gen_data_byte_deterministic(tiny_config, tmp_path):
    config, out = tiny_config()
    main(["gen-data", "--config", str(config)])
    first = (out / "bias.csv").read_bytes()
    main(["gen-data", "--config", str(config)])
    assert (out / "bias.csv").read_bytes() == first


def test_exit_codes(tiny_config, capsys):
    config, out = tiny_config()
    # config error: schema violation
    assert main(["gen-data", "--config", str(config), "--set", "split.n_ref=0"]) == 3
    assert "config" in capsys.readouterr().err
    # input error: training data missing
    assert main(["train-disc", "--config", str(config)]) == 2
    assert "gen-data" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["[0,0.5,0.4]", "[0,2.0]"], ids=["decreasing", "past-horizon"])
def test_bad_dre_grid_is_refused_at_load_before_any_training(tiny_config, capsys, grid):
    config, out = tiny_config()
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["repro-fig2", "--config", str(config), "--set", f"eval.dre_grid={grid}"]) == 3
    err = capsys.readouterr().err
    assert "error[config]" in err and "eval.dre_grid" in err
    assert not (out / "disc.ckpt").exists()


@pytest.mark.parametrize("dim", [1, 2])
def test_sample_refuses_a_discriminator_checkpoint(tiny_config, capsys, dim):
    config, out = tiny_config()
    disc = out.parent / "disc.ckpt"
    save_net(Mlp(dim, [8], 1, seed=1), disc, extra={"role": "discriminator"})
    assert main(["sample", "--config", str(config), "--source", str(disc)]) == 2
    err = capsys.readouterr().err
    assert "not a score network" in err and "'discriminator'" in err
    assert not (out / "samples.csv").exists()


def test_sample_refuses_a_score_checkpoint_of_another_dimension(tiny_config, capsys):
    config, out = tiny_config()
    ckpt = out.parent / "score_1d.ckpt"
    save_net(Mlp(1, [8], 1, seed=1), ckpt, extra={"role": "score"})
    assert main(["sample", "--config", str(config), "--source", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "1-D" in err and "2-D" in err
    assert not (out / "samples.csv").exists()


def test_train_score_refuses_a_discriminator_of_another_dimension(tiny_config, capsys):
    config, out = tiny_config()
    assert main(["gen-data", "--config", str(config)]) == 0
    disc = out / "disc.ckpt"
    save_net(Mlp(1, [8], 1, seed=1), disc, extra={"role": "discriminator"})
    assert main(["train-score", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert str(disc) in err and "1-D" in err and "2-D" in err
    assert sorted(p.name for p in out.iterdir()) == ["bias.csv", "disc.ckpt", "ref.csv"]


def test_a_checkpoint_of_another_activation_is_corrupt(tiny_config, capsys):
    config, out = tiny_config()
    ckpt = out.parent / "score_tanh.ckpt"
    save_net(Mlp(2, [8], 2, seed=1), ckpt, extra={"role": "score", "activation": "tanh"})
    assert main(["sample", "--config", str(config), "--source", str(ckpt)]) == 5
    assert f"corrupt checkpoint {ckpt}: activation field is 'tanh'" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


def test_a_checkpoint_with_a_zero_width_layer_is_corrupt(tiny_config, capsys):
    config, out = tiny_config()
    ckpt = out.parent / "score_zero_width.ckpt"
    zero_width_checkpoint(ckpt)
    assert main(["sample", "--config", str(config), "--source", str(ckpt)]) == 5
    assert f"corrupt checkpoint {ckpt}: hidden field is [0]" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


# Heun on the probability-flow ODE is the only sampler, and no command writes
# the closed-form t = 0 lattices repro-fig3 wrote, which nothing read
RETIRED = [
    (["sample", "--source", "oracle-data", "--kind", "reverse-sde"],
     "unrecognized arguments: --kind reverse-sde"),
    (["sample", "--source", "oracle-data", "--integrator", "euler"],
     "unrecognized arguments: --integrator euler"),
    (["sample", "--source", "oracle-data", "--integrator", "heun"],
     "unrecognized arguments: --integrator heun"),
    (["repro-fig3"], "invalid choice: 'repro-fig3'"),
]


@pytest.mark.parametrize("argv,message", RETIRED, ids=[m for _, m in RETIRED])
def test_retired_commands_and_flags_exit_2(tiny_config, capsys, argv, message):
    config, out = tiny_config()
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--config", str(config)])
    assert caught.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["2024", "on", "a: b", "null"])
def test_output_dir_flag_is_taken_verbatim(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    args = ["gen-data", "--set", "split.n_bias=20", "--set", "split.n_ref=5"]
    assert main([*args, "--output-dir", name]) == 0
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["bias.csv", "ref.csv"]
    # a --set value parses as YAML, as an int, a bool, a mapping or None here
    assert main([*args, "--set", f"output_dir={name}"]) == 3
    assert "config field output_dir" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [FloatingPointError("overflow encountered"),
                                 OverflowError("math range error"),
                                 ZeroDivisionError("float division by zero"),
                                 np.linalg.LinAlgError("Singular matrix")],
                         ids=lambda e: type(e).__name__)
def test_numerical_failure_exits_4(tiny_config, capsys, monkeypatch, exc):
    config, _ = tiny_config()

    def fail(cfg):
        raise exc

    monkeypatch.setattr("tiwlab.cli.cmd_gen_data", fail)
    assert main(["gen-data", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error[numerical]: ") and str(exc) in err
    assert "Traceback" not in err


def test_sample_oracle_deterministic(tiny_config, tmp_path):
    config, out = tiny_config()
    main(["gen-data", "--config", str(config)])
    args = ["sample", "--config", str(config), "--source", "oracle-data",
            "--steps", "24", "--seed", "9"]
    assert main(args) == 0
    first = (out / "samples.csv").read_bytes()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["steps"] == 24 and prov["seed"] == 9
    assert main(args) == 0
    assert (out / "samples.csv").read_bytes() == first


def test_dre_curve_grid_increasing(tiny_config):
    config, out = tiny_config()
    main(["gen-data", "--config", str(config)])
    assert main(["repro-fig2", "--config", str(config)]) == 0
    rows = np.loadtxt(out / "dre_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.all(rows[:, 1:] >= 0)
    summary = json.loads((out / "dre_summary.json").read_text())
    assert summary["integrated_ratio"] >= 0
    # the integrals are those of the written curve, and their ratio is the headline
    assert summary["integral_time_dep"] == np.trapezoid(rows[:, 1], rows[:, 0])
    assert summary["integral_time_indep"] == np.trapezoid(rows[:, 2], rows[:, 0])
    assert summary["integrated_ratio"] == \
        summary["integral_time_dep"] / summary["integral_time_indep"]


def test_debias_report_lists_artifacts(tiny_config):
    config, out = tiny_config()
    assert main(["debias", "--config", str(config)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config_hash"]
    assert report["library_version"]
    for artifact in report["artifacts"]:
        assert Path(artifact).is_file(), artifact
    labels = [m["label"] for m in report["metrics"]]
    assert labels == ["tiw_dsm"]
    assert (out / "tiw_dsm" / "samples.csv").exists()


@pytest.mark.parametrize("argv", [["debias"], ["sweep-alpha", "--alphas", "1"]],
                         ids=["debias", "sweep-alpha"])
def test_pipelines_keep_the_split_they_wrote(tiny_config, monkeypatch, argv):
    # bias.csv and ref.csv are written for later commands, not read back
    def refuse(path):
        raise AssertionError(f"read back {path}")

    monkeypatch.setattr(cli, "read_samples_csv", refuse)
    config, out = tiny_config(disc_train={"steps": 5, "batch_size": 64},
                              score_train={"steps": 5, "batch_size": 32,
                                           "telemetry_every": 5})
    assert main(argv + ["--config", str(config)]) == 0
    assert (out / "bias.csv").is_file() and (out / "ref.csv").is_file()


@pytest.mark.parametrize("argv", [["debias", "--all-baselines"],
                                  ["debias", "--all-baselines",
                                   "--set", "score_train.telemetry_every=0"],
                                  ["sweep-alpha", "--alphas", "0,1"]],
                         ids=["debias", "debias-no-telemetry", "sweep-alpha"])
def test_report_lists_every_file_written(tiny_config, argv):
    config, out = tiny_config()
    assert main(argv + ["--config", str(config)]) == 0
    written = {os.path.join(d, f) for d, _, names in os.walk(out) for f in names}
    report = json.loads((out / "report.json").read_text())
    assert set(report["artifacts"]) == written


def test_debias_byte_deterministic(tiny_config, tmp_path):
    config, out = tiny_config()
    main(["debias", "--config", str(config)])
    rows_first = (out / "eval_rows.csv").read_bytes()
    disc_first = (out / "disc.ckpt").read_bytes()
    main(["debias", "--config", str(config)])
    assert (out / "eval_rows.csv").read_bytes() == rows_first
    assert (out / "disc.ckpt").read_bytes() == disc_first


def test_named_baselines_ignore_objective_alpha(tiny_config):
    config, out = tiny_config()
    argv = ["debias", "--all-baselines", "--config", str(config),
            "--set", "objective.ratio=oracle"]
    assert main(argv) == 0
    alpha_one = (out / "tiw_dsm" / "score.ckpt").read_bytes()
    assert main(argv + ["--set", "objective.alpha=0.5"]) == 0
    assert (out / "tiw_dsm" / "score.ckpt").read_bytes() == alpha_one


def test_configured_tiw_dsm_rejects_alpha(tiny_config, capsys):
    config, _ = tiny_config()
    main(["gen-data", "--config", str(config)])
    argv = ["train-score", "--config", str(config), "--set", "objective.ratio=oracle",
            "--set", "score_train.steps=5"]
    assert main(argv + ["--set", "objective.alpha=0.5"]) == 2
    assert "tiw_alpha" in capsys.readouterr().err
    assert main(argv + ["--set", "objective.alpha=0.5",
                        "--set", "objective.kind=tiw_alpha"]) == 0


@pytest.fixture(scope="module")
def disc_run(tmp_path_factory):
    """Tiny config with data and both discriminators already trained."""
    import yaml

    root = tmp_path_factory.mktemp("kinds")
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump({
        "output_dir": str(root / "out"),
        "split": {"n_bias": 150, "n_ref": 30},
        "disc_train": {"steps": 20, "batch_size": 64},
        "score_train": {"steps": 10, "batch_size": 32, "telemetry_every": 5},
    }))
    for argv in (["gen-data"], ["train-disc"], ["train-disc", "--time-independent"]):
        assert main(argv + ["--config", str(config)]) == 0
    return config, root / "out"


@pytest.mark.parametrize("ratio", RATIO_KINDS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_train_score_every_objective_kind(kind, ratio, disc_run):
    config, out = disc_run
    overrides = [f"objective.kind={kind}", f"objective.ratio={ratio}"]
    if kind != "tiw_dsm":
        overrides += ["objective.alpha=0.5"]
    argv = ["train-score", "--config", str(config)]
    assert main(argv + [a for o in overrides for a in ("--set", o)]) == 0
    _, header = load_net(out / f"score_{kind}.ckpt")
    assert header["objective"] == kind
    assert (out / f"telemetry_{kind}.csv").read_text().count("\n") == 3

    spec = _objective_spec(load_config(config, overrides))
    if kind == "dsm":
        assert spec.ratio is None
    else:
        assert spec.ratio.kind == ratio
        if ratio == "learned":
            # iw_dsm reads the t=0 discriminator, the other kinds the time-dependent one
            disc, _ = load_net(out / cli.DISC_CKPT[kind == "iw_dsm"])
            assert spec.ratio.net.params.tobytes() == disc.params.tobytes()
        assert spec.alpha == (1.0 if kind == "tiw_dsm" else 0.5)


def test_sweep_alpha_identities_and_ordering(tiny_config):
    config, out = tiny_config()
    rc = main(["sweep-alpha", "--config", str(config), "--alphas", "0,1"])
    assert rc == 0
    checks = (out / "identity_checks.txt").read_text()
    assert checks.count("max |diff| = 0.0") == 2
    rows = np.loadtxt(out / "alpha_sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [0.0, 1.0]
    # ratio scaling at alpha=1 should not increase the bias statistic
    assert rows[1, 1] <= rows[0, 1]


def test_sweep_alpha_refuses_a_broken_endpoint_identity(tiny_config, monkeypatch, capsys):
    def one_ulp_off_at_alpha_1(net, spec, *sample):
        loss = persample_loss(net, spec, *sample)
        if spec.kind == "tiw_alpha" and spec.alpha == 1.0:
            return np.nextafter(loss, np.inf)
        return loss

    monkeypatch.setattr(cli, "persample_loss", one_ulp_off_at_alpha_1)
    config, out = tiny_config()
    assert main(["sweep-alpha", "--config", str(config), "--alphas", "0,1"]) == 4
    err = capsys.readouterr().err
    assert "at alpha=1 the per-sample loss must equal tiw_dsm's exactly" in err
    checks = (out / "identity_checks.txt").read_text().splitlines()
    assert checks[0].endswith("max |diff| = 0.0 (exact identity expected)")
    assert "max |diff| = 0.0" not in checks[1]


@pytest.mark.parametrize("stream", ["auto", "bias"])
def test_sweep_alpha_one_matches_tiw_checkpoint(tiny_config, stream):
    """A sweep run's objective is the configured one with kind and alpha
    replaced, so it trains on the configured stream as debias does."""
    config, out = tiny_config(objective={"stream": stream})
    assert main(["debias", "--config", str(config)]) == 0
    assert main(["sweep-alpha", "--config", str(config), "--alphas", "1"]) == 0
    assert (out / "identity_checks.txt").read_text().count("max |diff| = 0.0") == 2
    tiw = (out / "tiw_dsm" / "score.ckpt").read_bytes()
    alpha1 = (out / "alpha_1" / "score.ckpt").read_bytes()
    # parameter payloads coincide bit for bit (headers differ by objective label)
    assert tiw[-64:] == alpha1[-64:]
    import numpy as np
    from tiwlab.net import load_net

    net_a, _ = load_net(out / "tiw_dsm" / "score.ckpt")
    net_b, _ = load_net(out / "alpha_1" / "score.ckpt")
    assert net_a.params.tobytes() == net_b.params.tobytes()


@pytest.mark.parametrize("alphas", ["0.1,0.1000001", "1,1"])
def test_sweep_alpha_refuses_repeated_run_labels(tiny_config, capsys, alphas):
    config, out = tiny_config()
    assert main(["sweep-alpha", "--config", str(config), "--alphas", alphas]) == 2
    assert "alpha_" in capsys.readouterr().err
    assert not out.exists()  # refused before any data or training


@pytest.mark.parametrize("alphas", ["nan", "0,inf"])
def test_sweep_alpha_refuses_nonfinite_alphas_before_any_work(tiny_config, capsys, alphas):
    config, out = tiny_config()
    assert main(["sweep-alpha", "--config", str(config), "--alphas", alphas]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "bias.csv").exists()


def test_eval_command(tiny_config):
    config, out = tiny_config()
    main(["gen-data", "--config", str(config)])
    main(["sample", "--config", str(config), "--source", "oracle-data"])
    assert main(["eval", "--config", str(config), "--label", "oracle"]) == 0
    text = (out / "eval.csv").read_text().splitlines()
    assert text[0].startswith("bias,proportion_0,proportion_1,energy_distance")
    assert text[1].endswith("oracle")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_refuses_non_finite_samples(tiny_config, capsys, value):
    config, out = tiny_config()
    bad = out.parent / "bad.csv"
    bad.write_text(f"x0,x1\n0.5,0.25\n0.5,{value}\n")
    assert main(["eval", "--config", str(config), "--samples", str(bad)]) == 5
    err = capsys.readouterr().err
    assert "non-finite" in err and str(bad) in err
    assert not (out / "eval.csv").exists()


@pytest.mark.parametrize("label", ["a,b\nc", 'a"b', "a\rb", "a\nb"])
def test_eval_refuses_a_label_that_breaks_the_csv(tiny_config, capsys, label):
    config, out = tiny_config()
    missing = out.parent / "missing.csv"  # reading it would exit 5
    assert main(["eval", "--config", str(config), "--samples", str(missing),
                 "--label", label]) == 2
    assert "--label" in capsys.readouterr().err
    assert not (out / "eval.csv").exists()


@pytest.mark.parametrize("body", ["0.5,0.25\n0.5,oops\n", "0.5,0.25\n0.5\n", "",
                                  "0.5\n0.25\n"],
                         ids=["non-numeric", "ragged", "header-only", "narrow-rows"])
def test_malformed_samples_csv_exits_5(tiny_config, capsys, recwarn, body):
    config, out = tiny_config()
    bad = out.parent / "bad.csv"
    bad.write_text("x0,x1\n" + body)
    assert main(["eval", "--config", str(config), "--samples", str(bad)]) == 5
    err = capsys.readouterr().err
    assert "error[io]" in err and str(bad) in err
    assert not recwarn.list  # numpy's "input contained no data" included


@pytest.mark.parametrize("command", ["train-disc", "train-score"])
def test_non_finite_training_data_exits_5_naming_the_file(tiny_config, capsys, recwarn,
                                                           command):
    config, out = tiny_config(objective={"kind": "dsm"})  # reads no discriminator
    assert main(["gen-data", "--config", str(config)]) == 0
    ref = out / "ref.csv"
    lines = ref.read_text().splitlines()
    lines[2] = "nan," + lines[2].split(",", 1)[1]
    ref.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(config)]) == 5
    err = capsys.readouterr().err
    assert "error[io]" in err and str(ref) in err and "non-finite" in err
    assert not recwarn.list


def test_unwritable_json_artifact_exits_5(tiny_config, capsys):
    config, out = tiny_config()
    assert main(["gen-data", "--config", str(config)]) == 0
    (out / "dre_summary.json").mkdir()
    assert main(["repro-fig2", "--config", str(config)]) == 5
    assert "dre_summary.json" in capsys.readouterr().err
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


# ---------------------------------------------------------------------------
# independent stages in worker processes
# ---------------------------------------------------------------------------

@needs_blas_setter
def test_parallel_map_keeps_item_order_and_raises_the_first_error(monkeypatch):
    monkeypatch.setattr(workers, "_cores", lambda: 2)

    def failing_at_1_and_3(i):
        if i in (1, 3):
            raise InputError(f"item {i}")
        return i * i

    def slow_first(i):
        time.sleep(0.2 if i == 0 else 0.0)
        return i * i, os.getpid()

    results, n = workers.parallel_map(slow_first, range(5))
    values, pids = zip(*results)
    assert n == 2 and values == (0, 1, 4, 9, 16)
    assert os.getpid() not in pids
    with pytest.raises(InputError, match="item 1"):
        workers.parallel_map(failing_at_1_and_3, range(5))
    assert multiprocessing.active_children() == []


@needs_blas_setter
def test_parallel_map_in_a_worker_runs_in_that_worker(monkeypatch):
    monkeypatch.setattr(workers, "_cores", lambda: 2)

    def inner(i):
        return i * i, os.getpid()

    def outer(i):
        results, n = workers.parallel_map(inner, range(3 * i, 3 * i + 3))
        return results, n, os.getpid()

    results, n = workers.parallel_map(outer, range(4))
    assert n == 2
    for i, (inner_results, inner_n, pid) in enumerate(results):
        assert inner_n == 1 and pid != os.getpid()
        assert inner_results == [(j * j, pid) for j in range(3 * i, 3 * i + 3)]
    assert multiprocessing.active_children() == []


@needs_blas_setter
def test_parallel_map_raises_when_a_worker_dies(monkeypatch):
    monkeypatch.setattr(workers, "_cores", lambda: 2)

    def killed_at_two(i):
        if i == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker process died"):
        workers.parallel_map(killed_at_two, range(4))
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def _log_lines(log):
    """The whitespace-split lines of a log that worker processes appended to."""
    return [line.split() for line in log.read_text().splitlines()]


@needs_blas_setter
def test_parallel_map_starts_an_item_once_what_it_waits_on_returned(monkeypatch, tmp_path):
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    log = tmp_path / "log"

    def timed(i):
        start = time.monotonic()
        time.sleep((0.4, 0.0, 0.1)[i])
        with open(log, "a") as f:
            f.write(f"{i} {os.getpid()} {start} {time.monotonic()}\n")
        return i * i

    # item 1 waits on item 0; item 2 waits on none
    assert workers.parallel_map(timed, [0, 1, 2], after={1: [0]}) == ([0, 1, 4], 2)
    runs = {int(i): (int(pid), float(start), float(end))
            for i, pid, start, end in _log_lines(log)}
    assert os.getpid() not in {pid for pid, _, _ in runs.values()}
    assert runs[1][1] >= runs[0][2]  # after item 0 returned
    assert runs[2][1] < runs[0][2]   # while item 0 ran
    assert multiprocessing.active_children() == []


@needs_blas_setter
def test_parallel_map_never_starts_what_waits_on_a_failed_item(monkeypatch, tmp_path):
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    log = tmp_path / "log"

    def failing_at_0_and_3(i):
        with open(log, "a") as f:
            f.write(f"{i}\n")
        time.sleep(0.3 if i == 0 else 0.0)
        if i in (0, 3):
            raise InputError(f"item {i}")
        return i

    # items 1 and 2 wait on item 0; item 3 waits on none and fails first
    for cores in (2, 1):
        monkeypatch.setattr(workers, "_cores", lambda: cores)
        with pytest.raises(InputError, match="item 0"):
            workers.parallel_map(failing_at_0_and_3, range(4), after={1: [0], 2: [0, 1]})
        started = sorted(int(i) for i, in _log_lines(log))
        assert started == ([0, 3] if cores == 2 else [0])
        log.unlink()
        assert multiprocessing.active_children() == []


@needs_blas_setter
def test_parallel_map_runs_a_chain_of_items_here(monkeypatch):
    monkeypatch.setattr(workers, "_cores", lambda: 2)

    def pid(i):
        return i, os.getpid()

    # each item waits, directly or not, on the one before it
    results, n = workers.parallel_map(pid, range(3), after={1: [0], 2: [0, 1]})
    assert (results, n) == ([(i, os.getpid()) for i in range(3)], 1)
    results, n = workers.parallel_map(pid, range(3), after={2: [0, 1]})
    assert n == 2 and os.getpid() not in {p for _, p in results}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("after", [{0: [1]}, {1: [1]}, {1: [-1]}, {2: [0]}])
def test_parallel_map_refuses_an_item_waiting_on_a_later_one(monkeypatch, after):
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    ran = []
    with pytest.raises(ContractError, match="may only wait on an earlier item"):
        workers.parallel_map(ran.append, [0, 1], after=after)
    assert ran == []


def test_debias_computes_the_reference_self_distance_once(tiny_config, monkeypatch):
    config, _ = tiny_config()
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    ref, _ = cli._shared_reference(load_config(config))
    pairs = []

    def counting(a, b):
        pairs.append(np.array_equal(a, ref) and np.array_equal(b, ref))
        return pairwise_mean_dist(a, b)

    monkeypatch.setattr(kernels, "pairwise_mean_dist", counting)
    assert main(["debias", "--all-baselines", "--config", str(config)]) == 0
    assert len(pairs) == 1 + 4 * 2  # once (ref, ref); (samples, ref), (samples, samples)
    assert sum(pairs) == 1


def _run_recording_pids(commands, out, capsys, monkeypatch, cores, pid_log):
    """Run the commands with cores workers; return the files, report, stdout
    and the pids of the stages."""
    shutil.rmtree(out, ignore_errors=True)
    monkeypatch.setattr(workers, "_cores", lambda: cores)
    for argv in commands:
        assert main(argv) == 0
    stdout = capsys.readouterr().out
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file() and p.name != "report.json"}
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
        for stage in report["stages"]:
            stage["seconds"] = None
    pids = {int(v) for v in pid_log.read_text().split()}
    pid_log.unlink()
    assert multiprocessing.active_children() == []
    return files, report, stdout, pids


@needs_blas_setter
@pytest.mark.parametrize("commands, stage_workers", [
    ([["debias", "--all-baselines"]], 2),
    # no discriminator stages: the four runs wait on none
    ([["debias", "--set", "objective.ratio=oracle", "--all-baselines"]], 2),
    ([["sweep-alpha", "--alphas", "0,1"]], 2),
    ([["gen-data"], ["repro-fig2"]], 2),
    # sample reads the checkpoint of the configured objective
    ([["gen-data"], ["train-score", "--set", "objective.kind=dsm"],
      ["sample", "--set", "objective.kind=dsm"]], 1),
    ([["sample", "--source", "oracle-data"]], 1),
], ids=["debias", "debias-oracle", "sweep-alpha", "repro-fig2", "sample-checkpoint",
        "sample-oracle"])
def test_serial_and_parallel_runs_give_the_same_bytes(tiny_config, capsys, monkeypatch,
                                                       tmp_path, commands, stage_workers):
    config, out = tiny_config()
    commands = [argv + ["--config", str(config)] for argv in commands]
    pid_log = tmp_path / "pids"
    # the 128 samples of the tiny config split into chunks of 64 or fewer rows
    monkeypatch.setattr(sde, "MIN_ROWS_PER_WORKER", 16)

    def recorded(fn):
        def run(*args, **kwargs):
            with open(pid_log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)
        return run

    # every stage a command fans out trains a discriminator or a score network
    # or integrates a row chunk of trajectories
    monkeypatch.setattr(cli, "_train_disc", recorded(cli._train_disc))
    monkeypatch.setattr(cli, "train_score", recorded(cli.train_score))
    monkeypatch.setattr(sde, "_integrate", recorded(sde._integrate))
    files, report, stdout, pids = _run_recording_pids(commands, out, capsys,
                                                      monkeypatch, 1, pid_log)
    files2, report2, stdout2, pids2 = _run_recording_pids(commands, out, capsys,
                                                          monkeypatch, 2, pid_log)

    assert pids == {os.getpid()}
    assert len(pids2 - {os.getpid()}) >= stage_workers
    assert files2.keys() == files.keys()
    assert [name for name in files if files2[name] != files[name]] == []
    assert stdout2 == stdout
    if report is not None:
        assert (report.pop("workers"), report2.pop("workers")) == (1, 2)
        assert report2 == report


@needs_blas_setter
def test_a_single_baseline_debias_fans_out_its_sampling(tiny_config, monkeypatch, tmp_path):
    """Its discriminator and its score run can only run one after another, so
    they run in-process, and its sampling splits into row chunks in workers."""
    config, out = tiny_config()
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    monkeypatch.setattr(sde, "MIN_ROWS_PER_WORKER", 16)
    pid_log = tmp_path / "pids"
    integrate = sde._integrate

    def recorded(*args):
        with open(pid_log, "a") as f:
            f.write(f"{os.getpid()}\n")
        time.sleep(0.2)  # long enough that each worker takes a chunk
        return integrate(*args)

    monkeypatch.setattr(sde, "_integrate", recorded)
    assert main(["debias", "--config", str(config)]) == 0
    assert len({int(pid) for pid, in _log_lines(pid_log)} - {os.getpid()}) >= 2
    report = json.loads((out / "report.json").read_text())
    assert report["workers"] == 1
    assert [s["name"] for s in report["stages"]] == [
        "gen-data", "train-disc", "train-score[tiw_dsm]", "sample[tiw_dsm]", "eval[tiw_dsm]"]
    assert multiprocessing.active_children() == []


@needs_blas_setter
@pytest.mark.parametrize("cores", [1, 2])
def test_a_failing_worker_fails_the_command_as_in_process(tiny_config, capsys,
                                                          monkeypatch, cores):
    config, out = tiny_config()
    monkeypatch.setattr(workers, "_cores", lambda: cores)
    argv = ["debias", "--all-baselines", "--config", str(config)]
    out.mkdir()
    (out / "dsm_obs").write_text("a file where a run directory goes\n")
    assert main(argv) == 5
    assert f"cannot write {out / 'dsm_obs' / 'telemetry.csv'}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []

    (out / "dsm_obs").unlink()
    train_score = cli.train_score

    def diverging(split, spec, *args):
        if spec.kind == "iw_dsm":
            raise NumericalError("score training diverged")
        return train_score(split, spec, *args)

    monkeypatch.setattr(cli, "train_score", diverging)
    assert main(argv) == 4
    assert "error[numerical]: score training diverged" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
