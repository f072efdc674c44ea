"""Small fully connected SiLU network with a time input, trained by Adam.

The time t enters as 2 * n_frequencies extra input columns, sin(2πkt) and
cos(2πkt) for k = 1..n_frequencies, after the input_dim columns of x.

The same class serves as the score network s(x, t) and as the
discriminator logit h(x, t). Parameters live in one flat float64 vector
(layout: W_0, b_0, W_1, b_1, ...) so optimizers and checkpoints can treat
the network as a plain vector. Forward/backward are hand-written
reverse-mode numpy; gradients are exact, which the test suite checks
against central finite differences.

Each layer is one matmul over the whole batch, followed by an elementwise
chain (bias add, SiLU, and its derivative when a cache is wanted)
run over row blocks of about BLOCK_ELEMENTS entries, so a block stays in
cache from the bias add to the SiLU's last pass. The blocking
changes no value: the elementwise work is the same per entry and every
matmul keeps its shape.

forward(want_cache=True) keeps what the reverse pass needs: the input of
each layer and each hidden layer's SiLU derivative, written straight into
the cache from the sigmoid the SiLU evaluated.
One backprop routine serves both the parameter gradient and the input
gradient. Without a cache, the hidden activations go into two buffers the
network keeps while the row count stays the same; the returned output is
always a fresh array; with a cache, the cache's arrays are views of one
fresh allocation. The (W, b) views into the parameter vector, and into
the buffer param_gradient sums into before returning a copy, are built
once, so ``params`` can be written in place but not rebound. forward
checks x and t once. One memo per process keeps the time features of the
last call, keyed by n_frequencies and the bytes of t, so every network of
that n_frequencies gets them back at the same times: the two noise blocks of
an antithetic pair, Heun's second drift at t_{k+1} and the next step's
first, and the discriminator and score net of one tiw_dsm step.
adam_step writes through two scratch vectors in OptimState, in the
textbook update's order.

Checkpoint format (little-endian): magic ``TIWNET``, u16 format version,
u32 header length, JSON header (architecture + arbitrary extra fields),
then the parameter vector as raw float64. Round-trips are bit-exact. A
header field that older versions wrote and that has one value left
(RETIRED_FIELDS) must hold that value, and is otherwise ignored.
"""

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import artifacts
from .errors import ContractError, InputError, IoError, NumericalError
from .ranges import check_batch, check_value, check_values
from .sde import _row_times

CHECKPOINT_MAGIC = b"TIWNET"
CHECKPOINT_VERSION = 1
# header role -> its name; a score net outputs input_dim entries, a discriminator 1
ROLES = {"score": "a score network", "discriminator": "a discriminator"}
# header field older versions wrote -> the one value it may hold
RETIRED_FIELDS = {"activation": "silu", "time_embed": "sinusoidal"}

# float64 entries per row block of the elementwise chain: 128 KB, which is
# 256 rows at width 64
BLOCK_ELEMENTS = 16_384


def _sigmoid(z):
    # tanh saturates instead of overflowing, so no branch on the sign of z;
    # 0.5 * (1 + tanh(0.5 z)) in one fresh array, a numpy scalar for a 0-d z
    s = np.multiply(z, 0.5, out=np.empty(np.shape(z)))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s if s.ndim else s[()]


def _silu(z, prime):
    # writes z * sigmoid(z) over z; given a prime array, first writes the
    # derivative there, from the same sigmoid
    s = _sigmoid(z)
    if prime is not None:
        # s * (1 + z * (1 - s))
        np.subtract(1.0, s, out=prime)
        prime *= z
        prime += 1.0
        prime *= s
    z *= s


@functools.lru_cache(maxsize=1)
def _time_features(n_frequencies, t_bytes):
    """(rows, 2 * n_frequencies) read-only time features of the float64
    times in t_bytes, one row per time: the sines, then the cosines, of
    harmonics 1..n_frequencies of the unit horizon, which keep the
    t-dependence band-limited. A scalar t gives one row, which the caller
    broadcasts over its batch. The last call is kept; keyed by bytes, not
    values, since -0.0 == 0.0 but their features differ in sign."""
    freqs = np.arange(1, n_frequencies + 1, dtype=np.float64)
    ang = 2.0 * np.pi * np.frombuffer(t_bytes).reshape(-1, 1) * freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    feats.flags.writeable = False
    return feats


@dataclass
class NetSpec:
    """Hidden architecture of an Mlp; the two training configs extend it."""

    hidden: tuple[int, ...] = field(default=(64, 64, 64), metadata={"ge": 1})
    n_frequencies: int = field(default=8, metadata={"ge": 1})


@dataclass(kw_only=True)
class NetArch(NetSpec):
    """Mlp's architecture arguments, as Mlp and the checkpoint header name them."""

    input_dim: int = field(metadata={"ge": 1})
    output_dim: int = field(metadata={"ge": 1})


ARCH_KEYS = tuple(f.name for f in fields(NetArch))


@dataclass(kw_only=True)
class _Header(NetArch):  # the header fields load_net checks; it keeps others as read
    param_count: int = field(metadata={"ge": 0})


@dataclass
class ForwardCache:
    """Activations saved by forward() for the matching backward pass."""

    net: "Mlp"
    primes: list  # SiLU derivative per hidden layer
    acts: list    # input of each layer; acts[0] is the network input, time features included

    @property
    def batch(self):
        return self.acts[0].shape[0]


class Mlp:
    def __init__(self, input_dim, hidden, output_dim, n_frequencies=NetSpec.n_frequencies,
                 params=None, seed=0):
        check_values(locals(), NetArch, "Mlp")  # the arguments NetArch declares
        self.input_dim, self.hidden, self.output_dim = input_dim, list(hidden), output_dim
        self.n_frequencies = n_frequencies

        self.widths = [input_dim + 2 * n_frequencies] + self.hidden + [output_dim]
        # layout descriptor: (offset, shape) per tensor, W then b per layer
        self.layout = []
        off = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            self.layout.append((off, (fan_out, fan_in)))
            off += fan_out * fan_in
            self.layout.append((off, (fan_out,)))
            off += fan_out
        self.n_params = off

        if params is None:
            self._params = self._init_params(seed)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (self.n_params,):
                raise InputError(
                    f"params must have length {self.n_params}, got {params.shape}"
                )
            self._params = params.copy()
        self._layers = self._views(self._params)
        self._grads = np.empty(self.n_params)
        self._grad_layers = self._views(self._grads)
        self._buffer_rows, self._buffers = None, ()
        # column spans of a cache's arrays in its one allocation: the input,
        # then each hidden layer's output and SiLU derivative
        cols = np.cumsum([0, self.widths[0], *np.repeat(self.hidden, 2)]).tolist()
        self._cache_spans = list(zip(cols[:-1], cols[1:]))

    @property
    def params(self):
        """The flat parameter vector; the layer views share its memory."""
        return self._params

    @params.setter
    def params(self, value):
        # `net.params += g` hands back the same array; any other would leave
        # the layer views reading the old one
        if value is not self._params:
            raise ContractError("Mlp.params cannot be rebound; write into it "
                                "in place (net.params[:] = ...)")

    def _init_params(self, seed):
        # uniform +-1/sqrt(fan_in), per layer
        rng = np.random.default_rng(seed)
        params = np.empty(self.n_params)
        for W, b in self._views(params):
            bound = 1.0 / np.sqrt(W.shape[1])
            W[...] = rng.uniform(-bound, bound, W.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)
        return params

    def _views(self, flat):
        """(W, b) per layer, as views into a vector laid out like params."""
        views = [flat[off:off + math.prod(shape)].reshape(shape) for off, shape in self.layout]
        return list(zip(views[0::2], views[1::2]))

    def _buffer(self, rows, layer):
        """(rows, width) inference buffer for a hidden layer's output.

        Two buffers alternate, so a layer never writes the one it reads;
        they are kept while the row count stays the same.
        """
        if rows != self._buffer_rows:
            size = rows * max(self.hidden)
            self._buffers = tuple(np.empty(size) for _ in range(min(2, len(self.hidden))))
            self._buffer_rows = rows
        width = self.widths[layer + 1]
        return self._buffers[layer % 2][:rows * width].reshape(rows, width)

    # -- evaluation ----------------------------------------------------------

    def forward(self, x, t, want_cache=False):
        """(n, output_dim) output of an (n, input_dim) batch x; with want_cache
        also the ForwardCache that param_gradient consumes."""
        X = check_batch(x, dim=self.input_dim)
        B = X.shape[0]
        time_feats = _time_features(self.n_frequencies, _row_times(t, B).tobytes())
        if want_cache:
            block = np.empty(B * self._cache_spans[-1][1])
            views = [block[B * lo:B * hi].reshape(B, hi - lo) for lo, hi in self._cache_spans]
            feats = views[0]
        else:
            feats = np.empty((B, self.widths[0]))
        feats[:, :self.input_dim] = X
        feats[:, self.input_dim:] = time_feats  # one row for a scalar t, broadcast

        a = feats
        primes, acts = [], [feats]
        for l, (W, b) in enumerate(self._layers[:-1]):
            if want_cache:
                z = np.matmul(a, W.T, out=views[2 * l + 1])
                prime = views[2 * l + 2]
                primes.append(prime)
                acts.append(z)
            else:
                z = np.matmul(a, W.T, out=self._buffer(B, l))
                prime = None
            rows = max(1, BLOCK_ELEMENTS // z.shape[1])
            for r in range(0, B, rows):
                zb = z[r:r + rows]
                zb += b
                _silu(zb, None if prime is None else prime[r:r + rows])
            a = z
        W, b = self._layers[-1]
        a = a @ W.T
        a += b
        if want_cache:
            return a, ForwardCache(net=self, primes=primes, acts=acts)
        return a

    def _check_cache(self, cache):
        if not isinstance(cache, ForwardCache) or cache.net is not self:
            raise ContractError("forward cache does not belong to this network")
        if len(cache.acts) != len(self.widths) - 1:
            raise ContractError("forward cache layer count does not match network")

    def param_gradient(self, loss_grad_at_output, cache):
        """Exact d(loss)/d(params) given d(loss)/d(output), summed over the batch."""
        self._check_cache(cache)
        g = np.asarray(loss_grad_at_output, dtype=np.float64)
        if g.shape != (cache.batch, self.output_dim):
            raise ContractError(
                f"output gradient shape {g.shape} does not match cache batch "
                f"{cache.batch} x output_dim {self.output_dim}"
            )
        self._grads.fill(0.0)
        self._backprop(g, cache, self._grad_layers)
        return self._grads.copy()

    def input_gradient(self, x, t):
        """(n, output_dim, input_dim) Jacobian of the output w.r.t. x (time
        features excluded), squeezed to (n, input_dim) when output_dim == 1."""
        return self.value_and_input_gradient(x, t)[1]

    def value_and_input_gradient(self, x, t):
        """forward(x, t) and input_gradient(x, t) from one forward pass."""
        out, cache = self.forward(x, t, want_cache=True)
        B = cache.batch
        jac = np.empty((B, self.output_dim, self.input_dim))
        for o in range(self.output_dim):
            delta = np.zeros((B, self.output_dim))
            delta[:, o] = 1.0
            jac[:, o, :] = self._backprop(delta, cache)[:, :self.input_dim]
        if self.output_dim == 1:
            jac = jac[:, 0, :]
        return out, jac

    def _backprop(self, delta, cache, glayers=None):
        """Reverse pass of delta = d(loss)/d(output) through the cached layers.

        With (gW, gb) views of a vector laid out like params, adds
        d(loss)/d(params) into it and stops at the first layer; without
        them, returns d(loss)/d(feats).
        """
        for l in range(len(self._layers) - 1, -1, -1):
            if glayers is not None:
                gW, gb = glayers[l]
                gW += delta.T @ cache.acts[l]
                gb += delta.sum(axis=0)
                if l == 0:
                    return None
            delta = delta @ self._layers[l][0]
            if l > 0:
                delta *= cache.primes[l - 1]
        return delta

    # -- serialization -------------------------------------------------------

    def arch_dict(self):
        return {key: getattr(self, key) for key in ARCH_KEYS}


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# a batch-mean training loss above this counts as divergence
DIVERGENCE_LOSS = 1e6


@dataclass
class OptimState:
    step: int
    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    scratch: tuple = field(default=(), repr=False)  # adam_step's; no state


def init_optim(n_params, learning_rate):
    """Fresh Adam state for n_params parameters."""
    return OptimState(0, np.zeros(n_params), np.zeros(n_params), learning_rate)


def adam_step(params, grads, state: OptimState):
    """One bias-corrected Adam update, in place. Returns (params, state)."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ContractError("params, grads and optimizer moments must share a shape")
    if not state.scratch:
        state.scratch = (np.empty(params.shape), np.empty(params.shape))
    a, b = state.scratch
    state.step += 1
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grads, out=a)
    state.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=a)
    state.v += np.multiply(a, grads, out=a)
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.step, out=a)  # m_hat
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.step, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    np.multiply(state.learning_rate, a, out=a)
    params -= np.divide(a, b, out=a)
    return params, state


def train_step(net: Mlp, state: OptimState, losses, outgrad, cache, name, step):
    """Adam step of net on the batch mean of per-sample losses, whose output
    gradients are outgrad; returns the mean. A mean that is non-finite or above
    DIVERGENCE_LOSS raises NumericalError naming the network and the step."""
    mean = float(losses.mean())
    if not np.isfinite(mean) or mean > DIVERGENCE_LOSS:
        raise NumericalError(f"{name} training diverged at step {step}: loss {mean!r}")
    adam_step(net.params, net.param_gradient(outgrad / losses.shape[0], cache), state)
    return mean


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_net(net: Mlp, path, extra=None):
    header = dict(net.arch_dict())
    header["param_count"] = net.n_params
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    artifacts.write_bytes(path, CHECKPOINT_MAGIC
                          + struct.pack("<HI", CHECKPOINT_VERSION, len(blob))
                          + blob + net.params.astype("<f8").tobytes())


def load_net(path, role=None, dim=None):
    """Read a checkpoint; returns (net, header + "sha256" of the bytes read).
    Refuses another role (InputError) or an output unfit for role (IoError),
    and given dim, another input dimension (InputError)."""
    raw = artifacts.read_bytes(path)
    if raw[:6] != CHECKPOINT_MAGIC:
        raise IoError(f"corrupt checkpoint {path}: bad magic field")
    if len(raw) < 12:
        raise IoError(f"corrupt checkpoint {path}: truncated header")
    (version,) = struct.unpack("<H", raw[6:8])
    if version != CHECKPOINT_VERSION:
        raise IoError(f"corrupt checkpoint {path}: unsupported version field {version}")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IoError(f"corrupt checkpoint {path}: unreadable header ({e})") from e
    if not isinstance(header, dict):
        raise IoError(f"corrupt checkpoint {path}: header is {header!r}, not an object")
    for name, only in RETIRED_FIELDS.items():
        if header.get(name, only) != only:
            raise IoError(f"corrupt checkpoint {path}: {name} field is "
                          f"{header[name]!r}, not {only!r}")
    for f in fields(_Header):
        if f.name not in header:
            raise IoError(f"corrupt checkpoint {path}: missing header field {f.name!r}")
        check_value(header[f.name], f.type, f.metadata, f"corrupt checkpoint {path}: "
                    f"{f.name} field is {header[f.name]!r}; {f.name}", IoError)
    body = raw[12 + hlen:]
    n = header["param_count"]
    if len(body) != 8 * n:
        raise IoError(
            f"corrupt checkpoint {path}: params field has {len(body)} bytes, "
            f"expected {8 * n}"
        )
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:
        net = Mlp(**{key: header[key] for key in ARCH_KEYS}, params=params)
    except InputError as e:
        raise IoError(f"corrupt checkpoint {path}: {e}") from e
    if role is not None:
        noun, output_dim = ROLES[role], net.input_dim if role == "score" else 1
        if header.get("role") != role:
            raise InputError(f"checkpoint {path} is not {noun} "
                             f"(role field {header.get('role')!r})")
        if net.output_dim != output_dim:
            raise IoError(f"corrupt checkpoint {path}: output_dim field is "
                          f"{net.output_dim}, {noun} has {output_dim}")
    if dim is not None and net.input_dim != dim:
        raise InputError(f"checkpoint {path} is {net.input_dim}-D, but {dim}-D was asked for")
    header["sha256"] = hashlib.sha256(raw).hexdigest()
    return net, header
