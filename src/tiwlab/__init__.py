"""Desk-scale lab for debiasing diffusion models via time-dependent
importance reweighting, on analytic Gaussian mixtures where every ground
truth has a closed form."""

__version__ = "0.1.0"

from .mixture import GaussianMixture, pooled_mixture  # noqa: F401
from .sde import SamplerSpec, VpSchedule, reverse_generate  # noqa: F401
from .net import Mlp, init_optim, load_net, save_net, train_step  # noqa: F401
from .ratio import (  # noqa: F401
    DatasetSplit,
    RatioModel,
    dre_mse,
    integrated_dre_error,
    oracle_ratio_model,
    train_discriminator,
)
from .objectives import (  # noqa: F401
    ObjectiveSpec,
    ScoreTrainConfig,
    loss_sm_oracle,
    mc_loss_gradient,
    train_score,
)
from .sampling import generate  # noqa: F401
from .metrics import bias_metric, energy_distance, mode_proportions  # noqa: F401
