"""Score-matching objectives and the score-network training loop.

Per-sample losses share one skeleton,

    loss = 0.5 * lambda(t) * weight(x_t, t) * ||s(x_t, t) - k(x_t|x0) - c(x_t, t)||^2

where k is the conditional kernel score and the (weight, c) pair encodes
the variant:

    dsm               weight = 1,            c = 0
    iw_dsm            weight = ratio at t=0, c = 0
    tiw_dsm/tiw_alpha weight = ratio^a,      c = grad log ratio^a
    weight_only       weight = ratio^a,      c = 0
    correction_only   weight = 1,            c = grad log ratio^a

The stream decides which ratio feeds the variant: on the pooled "obs"
stream the tilde ratio against the half/half pool, which the ratio kinds
draw half/half (the practical form trained on the full observed set); on
one set, "bias" or "ref", the plain data-vs-bias ratio (the form whose
weight-only / correction-only fixed points are the biased and unbiased
scores respectively). The (weight, c) pair itself comes from
RatioModel.weight_and_correction. tiw_dsm is tiw_alpha at a = 1; only
tiw_alpha and the two ablations read alpha. An exact-quadrature oracle
loss is provided for verifying that the reweighted objective's parameter
gradient coincides with classical score matching against the clean data
density.

The quadrature sets up its t-nodes in chunks of about QUAD_ROW_BUDGET
space-node rows (a 2-D node larger than that is a chunk of its own): the
noised moments, the space nodes and weights, lambda(t) and the exact
log-density and score of a chunk are one array pass each, and only the
net's forward at the node's scalar t, the residual sum and the parameter
gradient stay per node, added in node order. The Monte Carlo gradient
evaluates the +eps and -eps blocks of a slice back to back, so the time
features (net.py keeps those of the last call) and iw_dsm's t=0 weights
serve both, and adds the block sums in block-major order. Both give the
bytes of the one-node-at-a-time and block-major forms. In a tiw_dsm step
the score net reuses the time features that the discriminator's forward
computed at the same times.

persample_loss and mc_loss_gradient check their times once (InputError
above T or NaN, NumericalError below t_eps); train_score draws its times
inside [t_eps, T]. The batch terms take alpha(t) and sigma(t) once (see sde).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import artifacts, kernels
from .errors import InputError, NumericalError
from .mixture import GaussianMixture, _perturbed_moments
from .net import Mlp, NetSpec, init_optim, train_step
from .ranges import check_fields
from .ratio import DatasetSplit, RatioModel
from .sde import (LAMBDA_KINDS, VpSchedule, _kernel_sample, _kernel_score, _lambda_factor,
                  lambda_weight)

OBJECTIVE_KINDS = ("dsm", "iw_dsm", "tiw_dsm", "tiw_alpha",
                   "weight_only", "correction_only")
STREAMS = ("bias", "ref", "obs")

# the ratio each kind reads: the t=0 one (True) or the time-dependent one
# (False); kinds missing here read none
RATIO_READERS = {"iw_dsm": True, "tiw_dsm": False, "tiw_alpha": False,
                 "weight_only": False, "correction_only": False}
_KIND_DEFAULT_STREAM = {"weight_only": "bias", "correction_only": "bias"}


@dataclass
class ObjectiveSpec:
    """The objective config section, less objective.ratio (the ratio's kind)."""

    kind: str = field(default="tiw_dsm", metadata={"choices": OBJECTIVE_KINDS})
    alpha: float = field(default=1.0, metadata={"ge": 0})
    lambda_kind: str = field(default="sigma_squared", metadata={"choices": LAMBDA_KINDS})
    # "auto" resolves per kind in __post_init__
    stream: str = field(default="auto", metadata={"choices": ("auto", *STREAMS)})
    ratio: RatioModel = field(default=None, metadata={"config": False})

    def __post_init__(self):
        check_fields(self)
        if self.stream == "auto":
            self.stream = _KIND_DEFAULT_STREAM.get(self.kind, "obs")
        if self.kind == "tiw_dsm" and self.alpha != 1.0:
            raise InputError("tiw_dsm is tiw_alpha at alpha = 1; use kind tiw_alpha "
                             f"for alpha = {self.alpha!r}")
        if self.kind in RATIO_READERS and self.ratio is None:
            raise InputError(f"objective kind {self.kind!r} requires a ratio model")

    @property
    def ratio_form(self):
        """The ratio the weights read: tilde on the pooled stream, else plain."""
        return "tilde" if self.stream == "obs" else "plain"

    @property
    def balanced_draw(self):
        """Pooled draws pick the set by a fair coin for the ratio kinds, as
        the tilde ratio's half/half pool; dsm keeps the empirical shares."""
        return self.stream == "obs" and self.kind in RATIO_READERS


def _batch_terms(net, X0, ts, eps, sched, spec: ObjectiveSpec, iw_weights=None):
    """Per-sample losses plus what backprop needs (d loss_i / d s_i, cache)
    and the weights (None for the kinds that read none), at (B,) times ts
    in [t_eps, T]; iw_dsm's t=0 weights come from spec.ratio unless passed
    in iw_weights. A weight or lambda of 1 and a correction of 0 are left
    out (x * 1 and x - 0 are x), every other operation kept in its order."""
    alpha, sigma = sched._alpha_sigma(ts)
    X_t = _kernel_sample(alpha, sigma, X0, eps)
    target = _kernel_score(alpha, sigma, X_t, X0)
    lam = _lambda_factor(sigma, spec.lambda_kind)

    weights = corr = None
    kind = spec.kind
    if kind == "iw_dsm":
        weights = _iw_weights(spec, X0) if iw_weights is None else iw_weights
    elif kind in RATIO_READERS:
        w, g = spec.ratio.weight_and_correction(X_t, ts, spec.ratio_form, spec.alpha)
        if not (np.isfinite(w).all() and np.isfinite(g).all()):
            raise NumericalError("non-finite density-ratio term in objective")
        if kind != "correction_only":
            weights = w
        if kind != "weight_only":
            corr = g

    out, cache = net.forward(X_t, ts, want_cache=True)
    resid = out - target
    if corr is not None:
        resid -= corr
    half = 0.5 if lam is None else 0.5 * lam  # 0.5 * lam * weight
    scale = lam  # lam * weight
    if weights is not None:
        half = half * weights
        scale = weights if lam is None else lam * weights
    losses = half * (resid * resid).sum(axis=1)
    outgrad = resid if scale is None else scale[:, None] * resid
    return losses, outgrad, cache, weights


def persample_loss(net, spec: ObjectiveSpec, x0, t, noise, sched):
    """Loss of one sample (x0, t, noise) under spec, taken as a 1-row batch;
    t must lie in [t_eps, T] (InputError above T, NumericalError below t_eps)."""
    x0, noise = (np.asarray(a, dtype=np.float64).reshape(1, -1) for a in (x0, noise))
    if x0.shape != noise.shape:
        raise InputError(f"x0 and noise must have one size, got {x0.size} and {noise.size}")
    ts = sched.check_times(t, 1, sched.t_eps).reshape(1)
    losses, *_ = _batch_terms(net, x0, ts, noise, sched, spec)
    return float(losses[0])


# ---------------------------------------------------------------------------
# exact-quadrature score-matching loss (theorem verification)
# ---------------------------------------------------------------------------

# the space grid covers the mixture's means +- PAD_STD of its widest component
PAD_STD = 6.0
# space-node rows set up at once: a chunk holds as many consecutive t-nodes
# as fit in this many rows, and at least one
QUAD_ROW_BUDGET = 8192


@dataclass
class QuadratureGrid:
    """Tensor-product Gauss-Legendre grid: time x space, +-PAD_STD coverage.

    The time axis is composite (t_panels panels of n_t nodes each) because
    sinusoidal time embeddings make the integrand oscillatory in t.
    """

    n_t: int = field(default=16, metadata={"ge": 1})
    n_x: int = field(default=160, metadata={"ge": 1})
    t_panels: int = field(default=8, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)


@functools.cache
def _leggauss(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per size."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _space_nodes(means, variances, nodes, weights):
    """Gauss-Legendre nodes and weights on [-1, 1] mapped over the support of
    each of c mixtures with (c, k, d) means and (c, k) variances.

    Returns (c, n^d, d) points and their (c, n^d) weights, the points of
    each mixture in meshgrid "ij" order.
    """
    std = PAD_STD * np.sqrt(variances.max(axis=1))[:, None]
    lo = means.min(axis=1) - std
    hi = means.max(axis=1) + std
    half = (0.5 * (hi - lo))[..., None]
    xs = half * nodes + (0.5 * (hi + lo))[..., None]  # (c, d, n)
    ws = half * weights
    c, d, n = xs.shape
    X = np.empty((c,) + (n,) * d + (d,))
    w = np.ones((c,) + (n,) * d)
    for j in range(d):
        axis = (c,) + (1,) * j + (n,) + (1,) * (d - j - 1)
        X[..., j] = xs[:, j].reshape(axis)
        w *= ws[:, j].reshape(axis)
    return X.reshape(c, -1, d), w.reshape(c, -1)


def _sm_quadrature(net, grid, sched, p_data, lambda_kind, want_grad):
    if p_data.dim > 2:
        raise InputError("quadrature oracle supports 1-D and 2-D mixtures only")
    base_nodes, base_weights = _leggauss(grid.n_t)
    x_nodes, x_weights = _leggauss(grid.n_x)
    edges = np.linspace(sched.t_eps, sched.T, grid.t_panels + 1)
    t_nodes, t_weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        t_nodes.append(0.5 * (hi - lo) * base_nodes + 0.5 * (hi + lo))
        t_weights.append(0.5 * (hi - lo) * base_weights)
    t_nodes = np.concatenate(t_nodes)
    t_weights = np.concatenate(t_weights)
    value = 0.0
    grads = np.zeros(net.n_params) if want_grad else None
    log_w = np.log(p_data.weights)
    d = p_data.dim
    rows = grid.n_x ** d
    per_chunk = max(1, QUAD_ROW_BUDGET // rows)
    for start in range(0, t_nodes.size, per_chunk):
        ts = t_nodes[start:start + per_chunk]
        means, variances = _perturbed_moments(p_data, sched, ts)
        X, xw = _space_nodes(means, variances, x_nodes, x_weights)
        if ts.size == 1:  # a lone node's rows share its moments: no per-row copies
            means, variances = means[0], variances[0]
        else:
            means = np.repeat(means, rows, axis=0)
            variances = np.repeat(variances, rows, axis=0)
        log_dens, score = kernels.gm_logpdf_and_score(X.reshape(-1, d), log_w, means, variances)
        cells = xw * np.exp(log_dens).reshape(xw.shape)
        lams = lambda_weight(sched, ts, lambda_kind)
        for t, tw, lam, X_j, cell, score_j in zip(
                ts, t_weights[start:start + per_chunk], lams, X, cells,
                score.reshape(X.shape)):
            if want_grad:
                out, cache = net.forward(X_j, t, want_cache=True)
            else:
                out = net.forward(X_j, t)
            resid = out - score_j
            value += tw * 0.5 * lam * float(cell @ (resid * resid).sum(axis=1))
            if want_grad:
                outgrad = (tw * lam * cell)[:, None] * resid
                grads += net.param_gradient(outgrad, cache)
    return value, grads


def loss_sm_oracle(net, grid: QuadratureGrid, sched, p_data: GaussianMixture,
                   lambda_kind="sigma_squared", want_grad=True, refine_check=True):
    """Deterministic quadrature of the classical score-matching loss.

    Integrates 0.5 lambda(t) E_{p^t}||s(x,t) - score_p^t(x)||^2 over
    [t_eps, T] and differentiates it w.r.t. the network parameters. A
    Richardson-style check against a doubled grid raises when the grid is
    too coarse (relative gap > 1e-4).
    """
    value, grads = _sm_quadrature(net, grid, sched, p_data, lambda_kind, want_grad)
    if refine_check:
        fine = QuadratureGrid(n_t=grid.n_t, n_x=2 * grid.n_x, t_panels=2 * grid.t_panels)
        ref, _ = _sm_quadrature(net, fine, sched, p_data, lambda_kind, False)
        if abs(value - ref) > 1e-4 * max(abs(ref), 1e-12):
            raise NumericalError(
                f"quadrature grid too coarse: value {value:.6e} vs refined {ref:.6e}"
            )
    return value, grads


# ---------------------------------------------------------------------------
# Monte-Carlo batch gradients (equivalence studies)
# ---------------------------------------------------------------------------

def mc_loss_gradient(net, spec: ObjectiveSpec, sched, base_mixture: GaussianMixture,
                     n, seed, batch=8192):
    """Common-random-number MC estimate of the loss and its parameter gradient.

    Draws n//2 base points x0 from base_mixture, one stratified-uniform
    time per point and kernel noise eps; the draws depend only on (seed, n),
    so two objectives called with the same seed see identical randomness.
    n counts loss evaluations: each base point is evaluated at the
    antithetic, second-moment-matched pair +-eps, which sharpens
    gradient-equivalence comparisons several-fold. The [t_eps, T] range
    factor is included, making the result directly comparable with the
    quadrature loss.
    """
    if n < 2:
        raise InputError(f"n must be >= 2 (one antithetic pair), got {n!r}")
    if batch < 1:
        raise InputError(f"batch must be >= 1, got {batch!r}")
    t_lo, t_hi = sched.t_eps, sched.T
    m = n // 2
    x0 = base_mixture.sample(m, seed=[seed, 1])
    rng_t = np.random.default_rng([seed, 2])
    ts = t_lo + (np.arange(m) + rng_t.uniform(size=m)) / m * (t_hi - t_lo)
    eps = np.random.default_rng([seed, 3]).standard_normal(x0.shape)
    eps = eps / np.sqrt((eps * eps).mean())
    sched.check_times(ts, m, sched.t_eps)  # the one check of every time

    # the two blocks of a slice run back to back, so the second reuses the
    # time features of the first (and iw_dsm's t=0 weights, which depend on
    # x0 alone); the sums keep the block-major order: every +eps slice, then
    # every -eps slice
    parts = []
    for s in range(0, m, batch):
        sl = slice(s, s + batch)
        iw = _iw_weights(spec, x0[sl]) if spec.kind == "iw_dsm" else None
        for noise in (eps[sl], -eps[sl]):
            losses, outgrad, cache, _ = _batch_terms(net, x0[sl], ts[sl], noise, sched, spec,
                                                     iw_weights=iw)
            parts.append((losses.sum(), net.param_gradient(outgrad, cache)))
    total = 0.0
    grads = np.zeros(net.n_params)
    for loss, grad in parts[0::2] + parts[1::2]:
        total += loss
        grads += grad
    scale = (t_hi - t_lo) / (2 * m)
    return total * scale, grads * scale


def _iw_weights(spec: ObjectiveSpec, points):
    """iw_dsm's importance weights: the ratio at t=0 of each point."""
    return spec.ratio.weight_and_correction(points, 0.0, spec.ratio_form,
                                            want_grad=False)[0]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class ScoreTrainConfig(NetSpec):
    """The score_train config section, over the score_net one (NetSpec)."""

    steps: int = field(default=12000, metadata={"ge": 1})
    batch_size: int = field(default=128, metadata={"ge": 1})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    seed: int = field(default=0, metadata={"config": False})
    # 0 disables telemetry
    telemetry_every: int = field(default=500, metadata={"ge": 0})
    telemetry_path: str = field(default=None, metadata={"config": False})

    def __post_init__(self):
        check_fields(self)


def _stream_points(data: DatasetSplit, stream):
    if stream == "bias":
        return data.bias_points
    if stream == "ref":
        return data.ref_points
    return data.pooled


def train_score(data: DatasetSplit, spec: ObjectiveSpec, sched: VpSchedule,
                cfg: ScoreTrainConfig = None) -> Mlp:
    """Adam loop over mini-batches of the configured objective, its learning
    rate decayed by a half cosine from cfg.learning_rate toward 0; each step
    is net.train_step, the discriminator's too, which raises on divergence.

    The data stream follows spec.stream; for "obs" the pooled set is drawn
    with empirical proportions unless spec.balanced_draw, which picks the
    source set by a fair coin first. iw_dsm's t=0 weights are computed once
    per pool point. Deterministic in cfg.seed.
    Every telemetry_every steps the first sample of the batch gives a
    telemetry row; when telemetry_path is set the rows go to a CSV with
    columns step,t,weight,loss, written when the loop ends, also when it
    diverges.
    """
    cfg = cfg or ScoreTrainConfig()
    rng = np.random.default_rng(cfg.seed)
    pool = _stream_points(data, spec.stream)
    n_pool = pool.shape[0]
    dim = pool.shape[1]
    n_bias = data.bias_points.shape[0]

    iw_cache = _iw_weights(spec, pool) if spec.kind == "iw_dsm" else None

    net = Mlp(dim, list(cfg.hidden), dim, n_frequencies=cfg.n_frequencies, seed=cfg.seed)
    state = init_optim(net.n_params, cfg.learning_rate)

    telemetry = []  # CSV rows
    try:
        for step in range(cfg.steps):
            if spec.balanced_draw:
                pick_ref = rng.integers(0, 2, cfg.batch_size).astype(bool)
                idx = np.where(
                    pick_ref,
                    n_bias + rng.integers(0, n_pool - n_bias, cfg.batch_size),
                    rng.integers(0, n_bias, cfg.batch_size),
                )
            else:
                idx = rng.integers(0, n_pool, cfg.batch_size)
            x0 = pool[idx]
            ts = rng.uniform(sched.t_eps, sched.T, cfg.batch_size)
            eps = rng.standard_normal((cfg.batch_size, dim))
            losses, outgrad, cache, weights = _batch_terms(
                net, x0, ts, eps, sched, spec,
                iw_weights=None if iw_cache is None else iw_cache[idx])
            state.learning_rate = cfg.learning_rate * 0.5 * (
                1.0 + np.cos(np.pi * step / cfg.steps))
            train_step(net, state, losses, outgrad, cache, "score", step)
            if cfg.telemetry_every and step % cfg.telemetry_every == 0:
                weight = 1.0 if weights is None else weights[0]
                telemetry.append([str(step), ts[0], weight, losses[0]])
    finally:
        if cfg.telemetry_path and cfg.telemetry_every:
            artifacts.write_csv(cfg.telemetry_path, ["step", "t", "weight", "loss"],
                                telemetry)
    return net
