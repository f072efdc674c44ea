import tracemalloc

import numpy as np
import pytest

from tiwlab import workers
from tiwlab.errors import InputError
from tiwlab.metrics import (
    EvalReport,
    bias_metric,
    energy_distance,
    evaluate_samples,
    mode_proportions,
)


def test_bias_metric_identical_sets(p_data):
    X = p_data.sample(500, seed=1)
    assert bias_metric(X, X, p_data) == 0.0


def test_bias_metric_hand_value(p_data):
    # all model mass on the (2,2) mode vs a balanced reference
    model = np.tile([2.0, 2.0], (50, 1))
    ref = np.vstack([np.tile([-2.0, -2.0], (50, 1)), np.tile([2.0, 2.0], (50, 1))])
    assert bias_metric(model, ref, p_data) == pytest.approx(1.0, abs=1e-6)


def test_bias_metric_symmetric(p_data, p_bias):
    a = p_data.sample(400, seed=2)
    b = p_bias.sample(400, seed=3)
    assert bias_metric(a, b, p_data) == bias_metric(b, a, p_data)


def test_mode_proportions_match_mixture_weights(p_bias, p_data):
    X = p_bias.sample(100_000, seed=4)
    np.testing.assert_allclose(mode_proportions(X, p_bias), [0.9, 0.1], atol=0.01)
    Y = p_data.sample(100_000, seed=5)
    np.testing.assert_allclose(mode_proportions(Y, p_data), [0.5, 0.5], atol=0.01)


def test_mode_proportions_one_hot_at_mode(p_data):
    props = mode_proportions(np.array([[2.0, 2.0]]), p_data)
    assert props[1] == pytest.approx(1.0, abs=1e-6)
    assert props.sum() == pytest.approx(1.0, abs=1e-12)


def test_energy_distance_identical_matrices_is_zero(p_data):
    X = p_data.sample(300, seed=6)
    assert energy_distance(X, X) == 0.0
    assert energy_distance(X, X.copy()) == 0.0


def test_energy_distance_point_masses():
    a = np.tile([0.0, 0.0], (10, 1))
    b = np.tile([3.0, 4.0], (7, 1))  # distance 5
    assert energy_distance(a, b) == pytest.approx(10.0, rel=1e-12)


def test_energy_distance_self_draws_small(p_data):
    a = p_data.sample(10_000, seed=7)
    b = p_data.sample(10_000, seed=8)
    assert energy_distance(a, b) < 0.01


def test_energy_distance_symmetric(p_data, p_bias):
    a = p_data.sample(500, seed=9)
    b = p_bias.sample(500, seed=10)
    assert energy_distance(a, b) == energy_distance(b, a)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_energy_distance_of_4000_points_is_exact_on_any_number_of_cores(p_data, p_bias,
                                                                       monkeypatch, cores):
    # 16-row blocks, one thread per core
    monkeypatch.setattr(workers, "_cores", lambda: cores)
    a = p_data.sample(4000, seed=15)
    b = p_bias.sample(4000, seed=16)
    assert energy_distance(a, a.copy()) == 0.0
    assert energy_distance(a, b) == energy_distance(b, a)


def test_energy_distance_dim_mismatch():
    with pytest.raises(InputError):
        energy_distance(np.zeros((3, 2)), np.zeros((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_refused(p_data, bad):
    X = p_data.sample(50, seed=11)
    X[7, 1] = bad
    with pytest.raises(InputError, match="samples holds a non-finite"):
        mode_proportions(X, p_data)
    with pytest.raises(InputError, match="b holds a non-finite"):
        energy_distance(p_data.sample(50, seed=12), X)


def test_energy_distance_never_holds_the_distance_matrix(p_data):
    a = p_data.sample(4000, seed=13)
    b = p_data.sample(4000, seed=14)
    tracemalloc.start()
    try:
        energy_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # one 4000 x 4000 float64 matrix is 128 MB


def test_eval_report_validates_proportions():
    with pytest.raises(InputError):
        EvalReport(bias=0.1, proportions=[0.7, 0.7], energy_distance=0.0)


@pytest.mark.parametrize("fields", [
    {"bias": np.nan}, {"proportions": [np.nan, np.nan]}, {"energy_distance": np.nan},
], ids=["bias", "proportions", "energy_distance"])
def test_eval_report_refuses_nan(fields):
    # nan < 0 and abs(nan - 1) > 1e-9 are both False, so checks written that way pass nan
    with pytest.raises(InputError):
        EvalReport(**{"bias": 0.1, "proportions": [0.5, 0.5], "energy_distance": 0.0,
                      **fields})


def test_evaluate_samples_bundle(p_data):
    model = p_data.sample(2000, seed=11)
    ref = p_data.sample(2000, seed=12)
    report = evaluate_samples(model, ref, p_data, notes="self")
    assert report.bias < 0.05
    assert report.energy_distance < 0.02
    assert report.csv_header()[0] == "bias"
    assert report.csv_row()[-1] == "self"


def test_evaluate_samples_runs_one_posterior_pass_per_set(p_data, monkeypatch):
    from tiwlab import kernels

    model, ref = p_data.sample(300, seed=11), p_data.sample(200, seed=12)
    bias, proportions = bias_metric(model, ref, p_data), mode_proportions(model, p_data)
    rows, posterior = [], kernels.gm_posterior

    def counted(X, *args):
        rows.append(X.shape[0])
        return posterior(X, *args)

    monkeypatch.setattr(kernels, "gm_posterior", counted)
    report = evaluate_samples(model, ref, p_data)
    assert rows == [300, 200]
    assert report.bias == bias
    assert report.proportions.tobytes() == proportions.tobytes()
