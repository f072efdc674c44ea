import json
import re
from pathlib import Path

import numpy as np

from probes import MEASURED_ELSEWHERE, PER_LAYER, install, layer_metrics
from run import END_TO_END_UNITS
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_nested_span_self_time():
    # outer [0, 10] holds inner [1, 4] (which holds leaf [2, 3]) and inner [5, 9]
    tr = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    tr.enter("outer")
    tr.enter("inner")
    tr.enter("leaf")
    tr.exit()
    tr.exit()
    tr.enter("inner")
    tr.exit()
    tr.exit()
    s = tr.summary()
    assert s["outer"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert s["inner"] == {"calls": 2, "total_s": 7, "self_s": 6}
    assert s["leaf"] == {"calls": 1, "total_s": 1, "self_s": 1}


def test_metric_names_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS


def _tiny_tiw_training(steps):
    from tiwlab.mixture import two_mode_balanced_mixture, two_mode_bias_mixture
    from tiwlab.net import Mlp
    from tiwlab.objectives import ObjectiveSpec, ScoreTrainConfig, train_score
    from tiwlab.ratio import DatasetSplit, RatioModel
    from tiwlab.sde import VpSchedule

    sched = VpSchedule()
    split = DatasetSplit(bias_points=two_mode_bias_mixture().sample(64, seed=1),
                         ref_points=two_mode_balanced_mixture().sample(16, seed=2))
    rm = RatioModel(sched=sched, kind="learned", net=Mlp(2, [8], 1, seed=3))
    spec = ObjectiveSpec(kind="tiw_dsm", ratio=rm)
    cfg = ScoreTrainConfig(steps=steps, batch_size=8, hidden=(8,), seed=4)
    return train_score(split, spec, sched, cfg).params


def test_tiw_dsm_makes_four_discriminator_passes_per_step_and_tracing_changes_nothing():
    from tiwlab import net, ratio

    untraced = _tiny_tiw_training(3)
    forward = net.Mlp.__dict__["forward"]
    tr = Tracer()
    install(tr)
    try:
        traced = _tiny_tiw_training(3)
    finally:
        tr.restore()
    assert net.Mlp.__dict__["forward"] is forward
    assert ratio.adam_step is net.adam_step
    assert not any(hasattr(getattr(ratio, n), "__wrapped__")
                   for n in ("perturbed_score_batch", "train_discriminator"))
    assert traced.tobytes() == untraced.tobytes()
    m = layer_metrics(tr)
    assert m["ratio.net_passes_per_score_step"] == 4
    assert m["net.adam_step.calls"] == 3
    assert set(m) == {n for n, _ in PER_LAYER} - set(MEASURED_ELSEWHERE)
    assert all(np.isfinite(v) for v in m.values())


def test_kernel_probes_leave_internal_calls_unwrapped():
    # gm_score calls the private posterior implementation, which a public
    # alias also points to; only the public name may be wrapped
    from tiwlab import kernels

    X = np.zeros((5, 2))
    args = (X, np.log([0.5, 0.5]), np.array([[-1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    tr = Tracer()
    install(tr)
    try:
        kernels.gm_score(*args)
    finally:
        tr.restore()
    spans = tr.summary()
    assert spans["kernels.gm_score"]["calls"] == 1
    assert "kernels.gm_posterior" not in spans
    assert tr.counts["kernels.gm_score.rows"] == 5
    assert not hasattr(kernels.gm_score, "__wrapped__")
