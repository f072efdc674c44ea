import json
import struct
from dataclasses import fields
from typing import get_origin

import numpy as np
import pytest

from tiwlab.errors import EXIT_CODES, ContractError, InputError, IoError
from tiwlab.net import (
    BLOCK_ELEMENTS,
    RETIRED_FIELDS,
    Mlp,
    NetArch,
    _sigmoid,
    _time_features,
    adam_step,
    init_optim,
    load_net,
    save_net,
)
from tiwlab.sde import _row_times

from conftest import zero_width_checkpoint


def fd_param_gradient(net, x, t, coeffs, indices, h=1e-5):
    """Central finite differences of loss = coeffs . forward(x, t) for one row x."""
    out = np.empty(len(indices))
    base = net.params.copy()
    for k, i in enumerate(indices):
        net.params[i] = base[i] + h
        f_plus = float(coeffs @ net.forward(x, t)[0])
        net.params[i] = base[i] - h
        f_minus = float(coeffs @ net.forward(x, t)[0])
        net.params[i] = base[i]
        out[k] = (f_plus - f_minus) / (2 * h)
    net.params[:] = base
    return out


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_sigmoid_matches_exact_logistic_without_fp_warnings():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-745.2, -37.5, 0.0, 37.5]])
    with np.errstate(over="ignore"):
        exact = 1.0 / (1.0 + np.exp(-z))
    with np.errstate(all="raise"):
        s = _sigmoid(z)
    np.testing.assert_allclose(s, exact, rtol=0, atol=1e-15)


def test_zero_params_give_zero_output():
    net = Mlp(2, [8], 2, params=np.zeros(Mlp(2, [8], 2).n_params))
    np.testing.assert_array_equal(net.forward([[0.7, -0.3]], 0.2), np.zeros((1, 2)))


def test_single_linear_layer_with_identity_block():
    # one frequency: the feature columns are x, sin 2πt and cos 2πt
    net = Mlp(2, [], 2, n_frequencies=1)
    W = np.zeros((2, 4))
    W[0, 0] = W[1, 1] = 1.0
    net.params[:] = np.concatenate([W.ravel(), np.zeros(2)])
    np.testing.assert_array_equal(net.forward([[1.0, 2.0]], 0.5), [[1.0, 2.0]])
    # picking up the time columns instead reproduces sin 2πt and cos 2πt
    W2 = np.zeros((2, 4))
    W2[0, 2] = W2[1, 3] = 1.0
    net.params[:] = np.concatenate([W2.ravel(), np.zeros(2)])
    np.testing.assert_array_equal(net.forward([[1.0, 2.0]], 0.5),
                                  [[np.sin(2 * np.pi * 0.5), np.cos(2 * np.pi * 0.5)]])


def test_forward_is_pure():
    net = Mlp(2, [16, 16], 1, seed=3)
    x, t = np.array([[0.1, 0.2]]), 0.7
    np.testing.assert_array_equal(net.forward(x, t), net.forward(x, t))


def test_forward_rejects_nonfinite():
    net = Mlp(2, [4], 1)
    with pytest.raises(InputError, match="non-finite"):
        net.forward([[np.nan, 0.0]], 0.5)


def test_batch_matches_single_rows():
    net = Mlp(2, [8, 8], 2, seed=5)
    X = np.random.default_rng(0).normal(size=(6, 2))
    ts = np.linspace(0.1, 0.9, 6)
    batch = net.forward(X, ts)
    for i in range(6):
        np.testing.assert_allclose(batch[i], net.forward(X[i:i + 1], ts[i])[0], rtol=1e-15)


def test_inference_forward_gives_the_cached_forward_bytes():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 2)) * 3.0
    ts = rng.uniform(0.0, 1.0, 50)
    X_before, ts_before = X.copy(), ts.copy()
    for n_frequencies in (3, 8):
        net = Mlp(2, [16, 16], 2, n_frequencies=n_frequencies, seed=4)
        for t in (ts, 0.37, 1e-3, 1.0):
            assert net.forward(X, t).tobytes() == \
                net.forward(X, t, want_cache=True)[0].tobytes()
        # a scalar time gives the bytes of that time spelled out per row
        for t in np.linspace(0.0, 1.0, 101):
            assert net.forward(X, t).tobytes() == net.forward(X, np.full(50, t)).tobytes()
    assert X.tobytes() == X_before.tobytes() and ts.tobytes() == ts_before.tobytes()


def test_time_features_of_the_last_per_row_time_are_kept():
    def feats(t, batch):
        return _time_features(8, _row_times(t, batch).tobytes())

    def fresh(t):  # the uncached reference
        return _time_features.__wrapped__(8, t.tobytes())

    t = np.linspace(0.1, 0.9, 7)
    first = feats(t, 7)
    assert feats(t.copy(), 7) is first  # same shape and values
    assert not first.flags.writeable
    # a scalar time gives one row, the bytes of each row of that time spelled out
    scalar = feats(0.5, 7)
    assert scalar.shape[0] == 1 and feats(0.5, 3) is scalar  # any batch size
    assert np.broadcast_to(scalar, (7, scalar.shape[1])).tobytes() == \
        fresh(np.full(7, 0.5)).tobytes()
    # new values in the same array recompute; the kept features did not follow them
    old = t.copy()
    t[3] = 0.25
    second = feats(t, 7)
    assert second is not first and second.tobytes() == fresh(t).tobytes()
    assert first.tobytes() == fresh(old).tobytes()
    # fewer times miss
    third = feats(t[:5], 5)
    assert third.shape[0] == 5 and third.tobytes() == fresh(t[:5]).tobytes()
    # -0.0 == 0.0, but its features differ in sign
    zeros = feats(np.zeros(3), 3)
    assert feats(-np.zeros(3), 3) is not zeros


def unblocked_forward(net, X, t):
    """The forward pass on whole-batch fresh arrays: (output, acts, primes)."""
    time_feats = _time_features.__wrapped__(net.n_frequencies,
                                            _row_times(t, X.shape[0]).tobytes())
    time_feats = np.broadcast_to(time_feats, (X.shape[0], time_feats.shape[1]))
    feats = np.concatenate([X, time_feats], axis=1)
    views = [net.params[off:off + np.prod(shape, dtype=int)].reshape(shape)
             for off, shape in net.layout]
    a, acts, primes = feats, [feats], []
    n_layers = len(views) // 2
    for l in range(n_layers):
        z = a @ views[2 * l].T + views[2 * l + 1]
        if l == n_layers - 1:
            return z, acts, primes
        s = 0.5 * (1.0 + np.tanh(0.5 * z))
        primes.append(s * (1.0 + z * (1.0 - s)))
        a = z * s
        acts.append(a)


def test_blocked_forward_gives_the_unblocked_bytes():
    # three row blocks of the first hidden layer plus a partial one; the
    # narrower second layer blocks its rows differently
    rows = 3 * (BLOCK_ELEMENTS // 64) + 37
    rng = np.random.default_rng(12)
    X = rng.normal(size=(rows, 2)) * 3.0
    net = Mlp(2, [64, 48], 2, seed=6)
    for t in (0.37, rng.uniform(0.0, 1.0, rows)):
        want, want_acts, want_primes = unblocked_forward(net, X, t)
        assert net.forward(X, t).tobytes() == want.tobytes()
        out, cache = net.forward(X, t, want_cache=True)
        assert out.tobytes() == want.tobytes()
        assert [a.tobytes() for a in cache.acts] == [a.tobytes() for a in want_acts]
        assert [p.tobytes() for p in cache.primes] == [p.tobytes() for p in want_primes]


def test_inference_output_is_not_overwritten_by_the_next_call():
    net = Mlp(2, [32, 32, 32], 2, seed=9)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(300, 2))
    out = net.forward(X, 0.4)
    kept = out.copy()
    _, cache = net.forward(X, 0.4, want_cache=True)
    cached_acts = [a.copy() for a in cache.acts]
    for rows in (300, 300, 17, 300):
        net.forward(rng.normal(size=(rows, 2)), 0.8)
        assert out.tobytes() == kept.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(cache.acts, cached_acts))
    assert net.forward(X, 0.4).tobytes() == kept.tobytes()


def test_params_are_written_in_place_and_cannot_be_rebound():
    net = Mlp(2, [8], 2, seed=1)
    X = np.random.default_rng(14).normal(size=(5, 2))
    before = net.forward(X, 0.3)
    out, cache = net.forward(X, 0.3, want_cache=True)
    adam_step(net.params, net.param_gradient(out, cache),
              init_optim(net.n_params, learning_rate=0.1))
    after = net.forward(X, 0.3)
    assert not np.array_equal(after, before)
    assert after.tobytes() == Mlp(2, [8], 2, params=net.params).forward(X, 0.3).tobytes()
    params = net.params
    net.params += 1.0  # in place: the same array comes back
    assert net.params is params
    with pytest.raises(ContractError, match="rebound"):
        net.params = net.params.copy()
    assert net.params is params


@pytest.mark.parametrize("z", [0.3, -2.5, 40.0, np.array(0.3), np.array(-700.0)])
def test_sigmoid_of_a_scalar_is_the_logistic_formula(z):
    s = _sigmoid(z)
    assert isinstance(s, np.float64)
    assert s.tobytes() == np.float64(0.5 * (1.0 + np.tanh(0.5 * z))).tobytes()


# ---------------------------------------------------------------------------
# parameter gradient
# ---------------------------------------------------------------------------

def test_param_gradient_matches_finite_differences():
    net = Mlp(2, [8, 6], 2, seed=11)
    rng = np.random.default_rng(2)
    x, t = rng.normal(size=(1, 2)), 0.4
    coeffs = rng.normal(size=2)
    out, cache = net.forward(x, t, want_cache=True)
    grad = net.param_gradient(coeffs[None, :], cache)
    idx = rng.choice(net.n_params, size=50, replace=False)
    fd = fd_param_gradient(net, x, t, coeffs, idx)
    rel = np.abs(grad[idx] - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


def test_zero_output_gradient_gives_zero_param_gradient():
    net = Mlp(2, [8], 1, seed=1)
    _, cache = net.forward([[0.2, 0.3]], 0.5, want_cache=True)
    np.testing.assert_array_equal(net.param_gradient(np.zeros((1, 1)), cache),
                                  np.zeros(net.n_params))


def test_linear_net_gradient_is_outer_product():
    # loss = ||W f||^2 / 2 has dW = (W f) f^T
    net = Mlp(2, [], 2, n_frequencies=1, seed=7)
    x, t = np.array([[0.8, -0.5]]), 0.25
    out, cache = net.forward(x, t, want_cache=True)
    grad = net.param_gradient(out, cache)
    feats = np.array([0.8, -0.5, np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
    expected_W = np.outer(out[0], feats)
    np.testing.assert_allclose(grad[:8].reshape(2, 4), expected_W, rtol=1e-12)
    np.testing.assert_allclose(grad[8:], out[0], rtol=1e-12)  # bias part


def test_cache_mismatch_rejected():
    net_a = Mlp(2, [4], 1, seed=0)
    net_b = Mlp(2, [4], 1, seed=1)
    _, cache = net_a.forward([[0.1, 0.1]], 0.5, want_cache=True)
    with pytest.raises(ContractError):
        net_b.param_gradient(np.ones((1, 1)), cache)


# ---------------------------------------------------------------------------
# input gradient
# ---------------------------------------------------------------------------

def test_input_gradient_linear_net_is_weight_block():
    net = Mlp(2, [], 2, n_frequencies=1, seed=9)
    W = net.params[:8].reshape(2, 4)
    jac = net.input_gradient([[0.3, 0.4]], 0.6)
    np.testing.assert_allclose(jac, W[None, :, :2], rtol=1e-14)


def test_input_gradient_matches_finite_differences():
    net = Mlp(3, [10, 10], 1, seed=13)
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(20):
        x, t = rng.normal(size=(1, 3)), rng.uniform(0.05, 0.95)
        g = net.input_gradient(x, t)
        fd = np.column_stack([(net.forward(x + e, t) - net.forward(x - e, t)) / (2 * h)
                              for e in h * np.eye(3)])
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-10)


def test_zero_params_zero_jacobian():
    proto = Mlp(2, [4], 2)
    net = Mlp(2, [4], 2, params=np.zeros(proto.n_params))
    np.testing.assert_array_equal(net.input_gradient([[1.0, 1.0]], 0.5),
                                  np.zeros((1, 2, 2)))


def test_batched_input_gradient_matches_loop():
    net = Mlp(2, [8], 1, seed=21)
    X = np.random.default_rng(1).normal(size=(5, 2))
    jac = net.input_gradient(X, 0.3)
    for i in range(5):
        np.testing.assert_allclose(jac[i], net.input_gradient(X[i:i + 1], 0.3)[0], rtol=1e-14)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = init_optim(3, 1e-3)
    out, state = adam_step(params, np.zeros(3), state)
    np.testing.assert_array_equal(out, [1.0, -2.0, 3.0])
    assert state.step == 1


def test_adam_constant_gradient_asymptotic_step():
    params = np.zeros(1)
    state = init_optim(1, 1e-2)
    g = np.array([0.37])
    prev = params.copy()
    for _ in range(2000):
        prev = params.copy()
        adam_step(params, g, state)
    assert (prev - params)[0] == pytest.approx(1e-2, rel=1e-3)


def test_adam_converges_on_quadratic_bowl():
    rng = np.random.default_rng(17)
    p = rng.normal(size=4)
    p *= 0.9 / np.linalg.norm(p)
    state = init_optim(4, 1e-2)
    for _ in range(5000):
        adam_step(p, p.copy(), state)  # gradient of ||p||^2/2 is p
    assert np.linalg.norm(p) < 1e-4


def test_adam_step_gives_the_bytes_of_the_textbook_update():
    # the update writes through scratch vectors; each product, sum and
    # quotient stays the one of the written-out expressions, in their order
    rng = np.random.default_rng(18)
    params, state = rng.normal(size=257), init_optim(257, 3e-3)
    want, m, v = params.copy(), np.zeros(257), np.zeros(257)
    for step in range(1, 6):
        g = rng.normal(size=257) * 10.0 ** rng.integers(-6, 2, 257)
        state.learning_rate = want_lr = 3e-3 * (1.0 + 0.1 * step)
        adam_step(params, g, state)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat, v_hat = m / (1.0 - 0.9 ** step), v / (1.0 - 0.999 ** step)
        want -= want_lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params.tobytes() == want.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_adam_shape_mismatch():
    with pytest.raises(ContractError):
        adam_step(np.zeros(3), np.zeros(2), init_optim(3, 1e-3))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = Mlp(2, [8, 8], 1, n_frequencies=3, seed=23)
    path = tmp_path / "net.ckpt"
    save_net(net, path, extra={"role": "discriminator"})
    clone, header = load_net(path)
    assert header["role"] == "discriminator"
    assert clone.arch_dict() == net.arch_dict()
    assert clone.params.tobytes() == net.params.tobytes()
    # a second save of the clone is byte-identical
    path2 = tmp_path / "net2.ckpt"
    save_net(clone, path2, extra={"role": "discriminator"})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTNET" + b"\x00" * 32)
    with pytest.raises(IoError, match="magic"):
        load_net(path)


def test_checkpoint_truncated_params(tmp_path):
    net = Mlp(2, [4], 1, seed=1)
    path = tmp_path / "trunc.ckpt"
    save_net(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(IoError, match="params"):
        load_net(path)


def change_header(path, change):
    """Rewrite the checkpoint at path with its JSON header updated by change."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    blob = json.dumps({**header, **change}).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])


# (id, header change, the field the message must name or None)
UNBUILDABLE = [
    # the activation field of older checkpoints: only the SiLU they all used
    ("activation", {"activation": "relu"}, "activation"),
    ("activation-tanh", {"activation": "tanh"}, "activation"),
    # the time_embed field of older checkpoints: only the sinusoidal features
    ("time_embed", {"time_embed": "append-scalar"}, "time_embed"),
    ("hidden", {"hidden": [9]}, None),
    ("input_dim", {"input_dim": 0}, None),
    ("hidden-null", {"hidden": None}, None),
    ("hidden-text", {"hidden": ["a"]}, None),
    ("param_count-null", {"param_count": None}, "param_count"),
    ("param_count-text", {"param_count": "abc"}, "param_count"),
    ("param_count-negative", {"param_count": -1}, "param_count"),
    ("param_count-float", {"param_count": 3.0}, "param_count"),
    # each of these once built a net through int(): 1, 1, [8] and 8
    ("input_dim-bool", {"input_dim": True}, "input_dim"),
    ("output_dim-bool", {"output_dim": True}, "output_dim"),
    ("hidden-float", {"hidden": [8.0]}, "hidden"),
    ("n_frequencies-float", {"n_frequencies": 8.9}, "n_frequencies"),
]


@pytest.mark.parametrize("change,named", [case[1:] for case in UNBUILDABLE],
                         ids=[case[0] for case in UNBUILDABLE])
def test_checkpoint_with_unbuildable_architecture_is_corrupt(tmp_path, change, named):
    # a readable header that names an architecture no Mlp can take
    path = tmp_path / "net.ckpt"
    save_net(Mlp(2, [8], 1, seed=1), path)
    change_header(path, change)
    with pytest.raises(IoError) as info:
        load_net(path)
    assert EXIT_CODES[info.value.category] == 5
    assert str(info.value).startswith(f"corrupt checkpoint {path}: ")
    if named:
        assert str(info.value).startswith(f"corrupt checkpoint {path}: {named} field is ")


def test_checkpoint_with_a_zero_width_layer_is_corrupt(tmp_path):
    # NetArch declares hidden widths >= 1; a zero width once loaded and then
    # divided by zero in the first forward pass
    path = tmp_path / "net.ckpt"
    zero_width_checkpoint(path)
    with pytest.raises(IoError) as info:
        load_net(path)
    assert str(info.value).startswith(f"corrupt checkpoint {path}: hidden field is [0]")


@pytest.mark.parametrize("blob", [b"5", b"[1]", b"null", b'"net"'])
def test_checkpoint_whose_header_is_not_an_object_is_corrupt(tmp_path, blob):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"TIWNET" + struct.pack("<HI", 1, len(blob)) + blob)
    with pytest.raises(IoError, match=f"corrupt checkpoint {path}: header is "):
        load_net(path)


@pytest.mark.parametrize("name", RETIRED_FIELDS)
def test_checkpoint_with_a_retired_header_field_loads(tmp_path, name):
    # checkpoints written by older versions carry the field with its one
    # value left (the SiLU activation, the sinusoidal time embedding); it is
    # read and ignored
    net = Mlp(2, [8], 1, seed=1)
    path = tmp_path / "net.ckpt"
    save_net(net, path)
    assert name not in load_net(path)[1]
    change_header(path, {name: RETIRED_FIELDS[name]})
    clone, header = load_net(path)
    assert header[name] == RETIRED_FIELDS[name]
    assert clone.arch_dict() == net.arch_dict()
    assert clone.params.tobytes() == net.params.tobytes()


def test_checkpoint_missing_file():
    with pytest.raises(IoError):
        load_net("/nonexistent/net.ckpt")


# (id, saved input_dim, output_dim and role, the role and dim read, the error,
# its exit code and what its message holds)
ROLE_REFUSALS = [
    ("another-role", (2, 1, "discriminator"), ("score", None), InputError, 2,
     "is not a score network (role field 'discriminator')"),
    ("no-role", (2, 1, None), ("discriminator", None), InputError, 2,
     "is not a discriminator (role field None)"),
    ("score-output", (2, 1, "score"), ("score", None), IoError, 5,
     "output_dim field is 1, a score network has 2"),
    ("discriminator-output", (2, 2, "discriminator"), ("discriminator", None), IoError, 5,
     "output_dim field is 2, a discriminator has 1"),
    ("dimension", (1, 1, "score"), ("score", 2), InputError, 2, "is 1-D, but 2-D"),
]


@pytest.mark.parametrize("saved,read,error,code,message",
                         [case[1:] for case in ROLE_REFUSALS],
                         ids=[case[0] for case in ROLE_REFUSALS])
def test_load_net_refuses_a_checkpoint_unfit_for_its_role(tmp_path, saved, read, error,
                                                          code, message):
    input_dim, output_dim, role = saved
    path = tmp_path / "net.ckpt"
    save_net(Mlp(input_dim, [8], output_dim, seed=1), path,
             extra=None if role is None else {"role": role})
    with pytest.raises(error) as info:
        load_net(path, *read)
    assert EXIT_CODES[info.value.category] == code
    assert str(path) in str(info.value) and message in str(info.value)


VALID_ARCH = dict(input_dim=2, hidden=[8], output_dim=1, n_frequencies=8)


def _outside(f):
    """A value just below the bound field f declares."""
    bad = f.metadata["ge"] - 1
    return [bad] if get_origin(f.type) is tuple else bad


@pytest.mark.parametrize("f", fields(NetArch), ids=lambda f: f.name)
def test_mlp_enforces_each_declared_bound_and_choice(f):
    # the hidden case is Mlp(2, [0], 1), which once overflowed in rng.uniform
    with pytest.raises(InputError, match=rf"^Mlp\.{f.name}"):
        Mlp(**{**VALID_ARCH, f.name: _outside(f)})


@pytest.mark.parametrize("name,value", [("input_dim", True), ("output_dim", 1.0),
                                        ("hidden", [8.0]), ("hidden", 8),
                                        ("n_frequencies", 8.5)])
def test_mlp_takes_only_exact_types(name, value):
    # no int() coercion: a bool or a float is refused, not truncated
    with pytest.raises(InputError, match=rf"^Mlp\.{name}"):
        Mlp(**{**VALID_ARCH, name: value})

