import hashlib

import numpy as np
import pytest

from tiwlab.errors import InputError, IoError
from tiwlab.metrics import energy_distance
from tiwlab.net import Mlp, save_net
from tiwlab.sampling import (
    checkpoint_score,
    generate,
    mixture_score,
    read_samples_csv,
    write_samples_csv,
)
from tiwlab.sde import SamplerSpec, VpSchedule, reverse_generate


def test_oracle_source_close_to_fresh_draws(sched, p_data):
    samples, prov = generate(mixture_score(p_data, sched, "oracle-data"), sched,
                             SamplerSpec(steps=200, seed=1), 10_000)
    assert prov["source"] == "oracle-data"
    fresh = p_data.sample(10_000, seed=2)
    assert energy_distance(samples, fresh) < 0.01


def test_single_sample_row(sched, p_data):
    samples, _ = generate(mixture_score(p_data, sched, "oracle-data"), sched, SamplerSpec(steps=20, seed=3), 1)
    assert samples.shape == (1, 2)
    assert np.all(np.isfinite(samples))


def test_identical_jobs_identical_outputs(sched, p_bias, tmp_path):
    spec = SamplerSpec(steps=50, seed=4)
    a, prov_a = generate(mixture_score(p_bias, sched, "oracle-bias"), sched, spec, 128, output=tmp_path / "a")
    b, prov_b = generate(mixture_score(p_bias, sched, "oracle-bias"), sched, spec, 128, output=tmp_path / "b")
    np.testing.assert_array_equal(a, b)
    assert prov_a == prov_b
    assert (tmp_path / "a" / "samples.csv").read_bytes() == \
        (tmp_path / "b" / "samples.csv").read_bytes()


@pytest.mark.parametrize("n", [0, -3])
def test_no_samples_is_refused_before_any_score_call(sched, tmp_path, n):
    calls = []

    def score_fn(X, t):
        calls.append(t)
        return -X

    spec = SamplerSpec(steps=4, seed=1)
    with pytest.raises(InputError, match="^n must be >= 1$"):
        generate((score_fn, 2, {"source": "test"}), sched, spec, n, output=tmp_path / "run")
    with pytest.raises(InputError, match="^n must be >= 1$"):
        reverse_generate(sched, score_fn, spec, n=n, dim=2)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_source_and_provenance(sched, tmp_path):
    net = Mlp(2, [8], 2, seed=5)
    path = tmp_path / "score.ckpt"
    save_net(net, path, extra={"role": "score"})
    samples, prov = generate(checkpoint_score(path, "score.ckpt"), sched, SamplerSpec(steps=30, seed=6),
                             16, output=tmp_path / "run")
    assert samples.shape == (16, 2)
    assert prov["source_hash"] and prov["steps"] == 30
    assert (tmp_path / "run" / "provenance.json").exists()


def test_checkpoint_read_once_per_generate(sched, tmp_path, monkeypatch):
    from tiwlab import artifacts

    path = tmp_path / "score.ckpt"
    save_net(Mlp(2, [8], 2, seed=5), path, extra={"role": "score"})
    reads = []
    read_bytes = artifacts.read_bytes
    monkeypatch.setattr(artifacts, "read_bytes", lambda p: reads.append(p) or read_bytes(p))
    _, prov = generate(checkpoint_score(path, "score.ckpt"), sched, SamplerSpec(steps=4, seed=6), 8)
    assert reads == [path]
    assert prov["source_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_provenance_does_not_depend_on_the_output_directory(sched, tmp_path):
    net = Mlp(2, [8], 2, seed=5)
    records = []
    for run in ("a", "b"):
        path = tmp_path / run / "score.ckpt"
        path.parent.mkdir()
        save_net(net, path, extra={"role": "score"})
        generate(checkpoint_score(path, "score.ckpt"), sched, SamplerSpec(steps=10, seed=6), 8,
                 output=path.parent)
        records.append((path.parent / "provenance.json").read_bytes())
    assert records[0] == records[1]
    assert b'"source": "score.ckpt"' in records[0]


def test_corrupt_checkpoint_reports_field(sched, tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"garbage-not-a-checkpoint")
    with pytest.raises(IoError, match="magic"):
        generate(checkpoint_score(path, "score.ckpt"), sched, SamplerSpec(steps=10, seed=0), 4)


def test_provenance_record_replays_output(p_data, tmp_path):
    import json

    # a schedule with no default value, so that a replay on the default one differs
    sched = VpSchedule(beta_min=0.2, beta_max=15.0, T=0.9, t_eps=0.01)
    out = tmp_path / "orig"
    generate(mixture_score(p_data, sched, "oracle-data"), sched, SamplerSpec(steps=40, seed=13), 64, output=out)
    prov = json.loads((out / "provenance.json").read_text())
    replay_sched = VpSchedule(**prov["schedule"])
    replay_spec = SamplerSpec(steps=prov["steps"], seed=prov["seed"])
    replayed, replay_prov = generate(mixture_score(p_data, replay_sched, "oracle-data"), replay_sched,
                                     replay_spec, prov["n"])
    np.testing.assert_array_equal(replayed, read_samples_csv(out / "samples.csv"))
    assert replay_prov == prov
    on_default, _ = generate(mixture_score(p_data, VpSchedule(), "oracle-data"), VpSchedule(), replay_spec,
                             prov["n"])
    assert not np.array_equal(on_default, replayed)


def test_samples_csv_round_trip(tmp_path):
    X = np.random.default_rng(7).normal(size=(9, 3))
    path = tmp_path / "samples.csv"
    write_samples_csv(path, X)
    np.testing.assert_array_equal(read_samples_csv(path), X)
    assert path.read_text().splitlines()[0] == "x0,x1,x2"


@pytest.mark.parametrize("X", [np.array([[0.5, np.nan]]), np.array([[0.5], [-np.inf]]),
                               np.zeros((0, 2)), np.zeros((2, 0))],
                         ids=["nan", "-inf", "no-rows", "no-columns"])
def test_samples_csv_writer_refuses_what_its_reader_refuses(tmp_path, X):
    # read_samples_csv exits 5 on each of these, so none is written
    with pytest.raises(InputError, match="^samples (holds a non-finite|must be non-empty)"):
        write_samples_csv(tmp_path / "samples.csv", X)
    assert list(tmp_path.iterdir()) == []
