"""Density-ratio machinery: discriminator training and ratio accessors.

A binary discriminator with logit h(x, t) separates reference points
(label 1) from biased points (label 0) after both are pushed through the
forward noising kernel at a per-sample time. At the optimum,
d = sigmoid(h) satisfies w = d / (1 - d), so

    log w(x, t) = h(x, t)            ... exactly, no log/division chain
    w~(x, t)    = 2 sigmoid(h)       ... ratio against the pooled half/half mix
    w~(x, t, a) = 2 sigmoid(a h)     ... confidence-scaled variant

An oracle variant computes the same quantities from closed-form mixture
pairs and is used to calibrate everything the learned one does.

Learned ratios clamp the logit to the constant +-LOGIT_CLAMP = +-ln(1000)
before exponentiation, which caps w in [1e-3, 1e3]; an overconfident
discriminator otherwise produces weights that blow up downstream losses.
The clamp is applied once, in RatioModel.logit_and_grad, so w and w~
share it (the algebraic identity w~ = 2w/(1+w) survives it) and so do the
gradients: they are derivatives of the clamped logit, zero wherever the
clamp binds. Every weight and correction, objectives' included, comes
from RatioModel.logit_and_grad, most through weight_and_correction; the
named accessors are views of these that no code of the package calls.

A query is an (n, d) batch at a scalar or per-row t, answered at that t.
For both kinds x is checked first, then t, which must lie in [0, T]
(VpSchedule.check_times): w_t is defined on the diffusion's horizon only.
The single-time baseline is a discriminator trained at t = 0 only, and its
readers (iw_dsm's weights, the ratio-error scan) query it at t = 0. A
checkpoint's logit_clamp or time_independent header key is ignored.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .mixture import (
    GaussianMixture,
    perturbed_log_density_and_score_batch,
    perturbed_log_density_batch,
    pooled_mixture,
)
from .net import Mlp, NetSpec, _sigmoid, init_optim, load_net, save_net, train_step
from .ranges import check_batch, check_fields
from .sde import LAMBDA_KINDS, VpSchedule, _kernel_sample, _lambda_factor

RATIO_KINDS = ("learned", "oracle")
RATIO_FORMS = ("tilde", "plain")
LOGIT_CLAMP = float(np.log(1000.0))
LOG_FLOOR = float(np.log(1e-300))


def _softplus(z):
    return np.logaddexp(0.0, z)


@dataclass
class DatasetSplit:
    """Labeled sample store: biased points and (small) reference points."""

    bias_points: np.ndarray
    ref_points: np.ndarray

    def __post_init__(self):
        self.bias_points = check_batch(self.bias_points, "bias_points")
        self.ref_points = check_batch(self.ref_points, "ref_points", dim=self.bias_points.shape[1])
        if self.bias_points.shape[0] == 0 or self.ref_points.shape[0] == 0:
            raise InputError("both bias and reference sets must be non-empty")

    @property
    def dim(self):
        return self.bias_points.shape[1]

    @property
    def pooled(self):
        return np.vstack([self.bias_points, self.ref_points])


@dataclass
class RatioModel:
    """Learned (discriminator) or oracle (closed-form) density ratio."""

    sched: VpSchedule
    kind: str = "learned"  # one of RATIO_KINDS
    net: Mlp = None
    p_num: GaussianMixture = None
    p_den: GaussianMixture = None
    train_report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "learned":
            if self.net is None or self.net.output_dim != 1:
                raise InputError("learned ratio model needs a scalar-logit network")
        elif self.kind == "oracle":
            if self.p_num is None or self.p_den is None:
                raise InputError("oracle ratio model needs numerator and denominator mixtures")
            if self.p_num.dim != self.p_den.dim:
                raise InputError("oracle mixtures must share a dimension")
        else:
            raise InputError(f"ratio model kind must be one of {RATIO_KINDS}, "
                             f"got {self.kind!r}")

    # -- core ----------------------------------------------------------------

    def _raw_logit(self, x, t, want_grad):
        """Unclamped logit and, when asked, its x-gradient (else None)."""
        if self.kind == "learned":
            x = check_batch(x, dim=self.net.input_dim)
            t = self.sched.check_times(t, x.shape[0])
            if want_grad:
                out, grad = self.net.value_and_input_gradient(x, t)
            else:
                out, grad = self.net.forward(x, t), None
            return out[..., 0], grad
        if want_grad:
            lnum, snum = perturbed_log_density_and_score_batch(self.p_num, self.sched, x, t)
            lden, sden = perturbed_log_density_and_score_batch(self.p_den, self.sched, x, t)
            grad = snum - sden
        else:
            lnum = perturbed_log_density_batch(self.p_num, self.sched, x, t)
            lden = perturbed_log_density_batch(self.p_den, self.sched, x, t)
            grad = None
        return np.maximum(lnum, LOG_FLOOR) - np.maximum(lden, LOG_FLOOR), grad

    def logit_and_grad(self, x, t, want_grad=True):
        """(log w, grad log w) from one forward and one input backward pass.

        Learned: the clamped logit and its x-gradient, which is zero where
        the clamp binds. Oracle: the log-density and score differences.
        Without want_grad the gradient is None and no backward pass runs.
        """
        h, grad = self._raw_logit(x, t, want_grad)
        if self.kind == "learned":
            if want_grad:
                grad = grad * (np.abs(h) <= LOGIT_CLAMP)[..., None]
            h = np.clip(h, -LOGIT_CLAMP, LOGIT_CLAMP)
        return h, grad

    def weight_and_correction(self, x, t, form="tilde", alpha=1.0, want_grad=True):
        """(weight, grad log weight) of the ratio form raised to alpha.

        form "tilde": w~^a = 2 sigmoid(a h), gradient a (1 - sigmoid(a h)) grad h;
        form "plain": w^a = exp(a h), gradient a grad h. Both read the clamped
        logit h of logit_and_grad; the gradient is None without want_grad.
        """
        if not 0.0 <= alpha < np.inf:  # also refuses nan
            raise InputError(f"alpha must be finite and >= 0, got {alpha!r}")
        if form not in RATIO_FORMS:
            raise InputError(f"ratio form must be one of {RATIO_FORMS}")
        h, grad = self.logit_and_grad(x, t, want_grad)
        if form == "tilde":
            s = _sigmoid(alpha * h)
            return 2.0 * s, None if grad is None else (alpha * (1.0 - s))[..., None] * grad
        return np.exp(alpha * h), None if grad is None else alpha * grad

    # -- accessors -------------------------------------------------------------

    def logit(self, x, t):
        """Raw log-ratio estimate (unclamped)."""
        return self._raw_logit(x, t, want_grad=False)[0]

    def log_ratio_w(self, x, t):
        """log w, which IS the (clamped) logit: no exp/log round trip."""
        return self.logit_and_grad(x, t, want_grad=False)[0]

    def ratio_w(self, x, t):
        """w = p_num^t / p_den^t; learned values are capped to [1e-3, 1e3]."""
        return self.weight_and_correction(x, t, "plain", want_grad=False)[0]

    def ratio_tilde(self, x, t):
        """Ratio against the pooled half/half mixture: 2w/(1+w) in (0, 2)."""
        return self.weight_and_correction(x, t, want_grad=False)[0]

    def ratio_tilde_alpha(self, x, t, alpha):
        """Confidence-scaled pooled ratio 2 w^a / (1 + w^a); a=0 gives 1."""
        return self.weight_and_correction(x, t, alpha=alpha, want_grad=False)[0]

    def grad_log_w(self, x, t):
        """Gradient of log w in x; for the oracle this is the score difference."""
        return self.logit_and_grad(x, t)[1]

    def grad_log_tilde(self, x, t, alpha=1.0):
        """Gradient of log(2 w^a / (1 + w^a)): a (1 - sigmoid(a h)) grad h."""
        return self.weight_and_correction(x, t, alpha=alpha)[1]


def oracle_ratio_model(p_num, p_den, sched):
    return RatioModel(sched=sched, kind="oracle", p_num=p_num, p_den=p_den)


# ---------------------------------------------------------------------------
# discriminator training
# ---------------------------------------------------------------------------

@dataclass
class DiscTrainConfig(NetSpec):
    """The disc_train config section, over the disc_net one (NetSpec)."""

    steps: int = field(default=6000, metadata={"ge": 1})
    batch_size: int = field(default=256, metadata={"ge": 2})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    seed: int = field(default=0, metadata={"config": False})
    time_independent: bool = field(default=False, metadata={"config": False})
    # temporal weighting of the BCE
    lambda_prime: str = field(default="uniform", metadata={"choices": LAMBDA_KINDS})
    holdout_fraction: float = field(default=0.0, metadata={"ge": 0, "le": 0.5})

    def __post_init__(self):
        check_fields(self)


def train_discriminator(split: DatasetSplit, sched: VpSchedule,
                        cfg: DiscTrainConfig = None) -> RatioModel:
    """Fit the time-dependent discriminator by temporally weighted BCE.

    Each step of batch_size B takes floor(B/2) reference points (label 1)
    and ceil(B/2) biased points (label 0), draws a per-sample time uniformly
    on [t_eps, T] (or pins it to 0 for the time-independent baseline),
    pushes the points through the forward kernel and descends the weighted
    BCE of the logit, averaged over the B points, by net.train_step (which
    raises on divergence) at the constant cfg.learning_rate. Deterministic in
    cfg.seed; a held-out BCE estimate is recorded in the returned model's
    train_report.
    """
    cfg = cfg or DiscTrainConfig()
    rng = np.random.default_rng(cfg.seed)
    n_ref = cfg.batch_size // 2

    def carve(points):
        n_hold = int(round(cfg.holdout_fraction * points.shape[0]))
        n_hold = min(n_hold, points.shape[0] - 1)
        perm = rng.permutation(points.shape[0])
        return points[perm[n_hold:]], points[perm[:n_hold]]

    ref_train, ref_hold = carve(split.ref_points)
    bias_train, bias_hold = carve(split.bias_points)

    net = Mlp(split.dim, list(cfg.hidden), 1, n_frequencies=cfg.n_frequencies, seed=cfg.seed)
    state = init_optim(net.n_params, cfg.learning_rate)
    labels = np.concatenate([np.ones(n_ref), np.zeros(cfg.batch_size - n_ref)])
    for step in range(cfg.steps):
        x0 = np.vstack([
            ref_train[rng.integers(0, ref_train.shape[0], n_ref)],
            bias_train[rng.integers(0, bias_train.shape[0], cfg.batch_size - n_ref)],
        ])
        losses, dh, cache = _tbce_terms(net, sched, cfg, x0, labels, rng, True)
        last_loss = train_step(net, state, losses, dh[:, None], cache, "discriminator", step)

    model = RatioModel(sched=sched, kind="learned", net=net)
    model.train_report = {
        "final_train_bce": last_loss,
        "steps": cfg.steps,
        "heldout_tbce": _heldout_tbce(net, sched, ref_hold, bias_hold, cfg),
    }
    return model


def _tbce_terms(net, sched, cfg, x0, labels, rng, want_cache):
    """Per-point lambda'(t)-weighted BCE of the logit, d loss/dh and the forward
    cache (None without want_cache); rng draws t (0 if time-independent), then noise.
    At the one time t = 0 a weighting is a constant factor, so the weight is 1 there."""
    n = x0.shape[0]
    t = np.zeros(n) if cfg.time_independent else rng.uniform(sched.t_eps, sched.T, n)
    alpha, sigma = sched._alpha_sigma(t)
    x_t = _kernel_sample(alpha, sigma, x0, rng.standard_normal(x0.shape))
    if want_cache:
        out, cache = net.forward(x_t, t, want_cache=True)
    else:
        out, cache = net.forward(x_t, t), None
    h = out[:, 0]
    losses, dh = _softplus(h) - labels * h, _sigmoid(h) - labels
    # a weight of 1 (t = 0, or the uniform weighting) is left out: x * 1 is x
    lam = None if cfg.time_independent else _lambda_factor(sigma, cfg.lambda_prime)
    if lam is None:
        return losses, dh, cache
    return lam * losses, lam * dh, cache


def _heldout_tbce(net, sched, ref_hold, bias_hold, cfg):
    """Mean T-BCE over 16 fresh (t, noise) draws of every held-out point."""
    if ref_hold.shape[0] == 0 or bias_hold.shape[0] == 0:
        return float("nan")
    rng = np.random.default_rng(cfg.seed + 1)
    held = ((ref_hold, np.ones(ref_hold.shape[0])), (bias_hold, np.zeros(bias_hold.shape[0])))
    return float(np.concatenate([_tbce_terms(net, sched, cfg, points, labels, rng, False)[0]
                                 for _ in range(16) for points, labels in held]).mean())


# ---------------------------------------------------------------------------
# ratio-quality metrics
# ---------------------------------------------------------------------------

def dre_mse(rm: RatioModel, oracle_rm: RatioModel, eval_mix: GaussianMixture,
            t, n, seed):
    """Monte-Carlo E[(w_true - w_est)^2] under eval_mix pushed to time t."""
    mix_t = eval_mix.perturb(rm.sched, t)
    X = mix_t.sample(n, seed)
    w_true = oracle_rm.weight_and_correction(X, t, "plain", want_grad=False)[0]
    w_est = rm.weight_and_correction(X, t, "plain", want_grad=False)[0]
    return float(np.mean((w_true - w_est) ** 2))


@dataclass
class DreScan:
    """Per-time ratio errors for both discriminators, their integrals and
    the integral ratio."""

    ratio: float
    grid: np.ndarray
    mse_time_dep: np.ndarray
    mse_time_indep: np.ndarray
    integral_time_dep: float
    integral_time_indep: float

    @property
    def per_t(self):
        return [
            (float(t), float(a), float(b))
            for t, a, b in zip(self.grid, self.mse_time_dep, self.mse_time_indep)
        ]


def integrated_dre_error(rm_time_dep: RatioModel, rm_time_indep: RatioModel,
                         oracle: RatioModel, grid, n, seed=0) -> DreScan:
    """Trapezoid integral of the ratio error over the time grid, for both models.

    The time-independent model, trained at t=0 only, is scored once at t=0
    on unperturbed samples and that error is held constant across the grid
    (the baseline uses its t=0 ratio at every time). Returns the integral
    ratio time-dependent / time-independent; when both integrals vanish
    (< 1e-12) the ratio is 1 by convention.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InputError("grid must be strictly increasing with >= 2 points")
    eval_mix = pooled_mixture(oracle.p_num, oracle.p_den)
    mse_dep = np.array([
        dre_mse(rm_time_dep, oracle, eval_mix, t, n, np.random.default_rng([seed, j]).integers(2**31))
        for j, t in enumerate(grid)
    ])
    mse0_indep = dre_mse(rm_time_indep, oracle, eval_mix, 0.0, n,
                         np.random.default_rng([seed, grid.size]).integers(2**31))
    mse_indep = np.full(grid.size, mse0_indep)
    int_dep = float(np.trapezoid(mse_dep, grid))
    int_indep = float(np.trapezoid(mse_indep, grid))
    if int_dep < 1e-12 and int_indep < 1e-12:
        ratio = 1.0
    elif int_indep <= 1e-12:
        raise InputError("time-independent error integral is degenerate (zero)")
    else:
        ratio = int_dep / int_indep
    return DreScan(ratio=ratio, grid=grid, mse_time_dep=mse_dep, mse_time_indep=mse_indep,
                   integral_time_dep=int_dep, integral_time_indep=int_indep)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_ratio_model(rm: RatioModel, path):
    if rm.kind != "learned":
        raise InputError("only learned ratio models are checkpointed")
    save_net(rm.net, path, extra={"role": "discriminator"})


def load_ratio_model(path, sched: VpSchedule, dim=None) -> RatioModel:
    """The learned ratio of a discriminator checkpoint (see net.load_net)."""
    net, _ = load_net(path, "discriminator", dim)
    return RatioModel(sched=sched, kind="learned", net=net)
