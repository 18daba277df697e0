"""Cost/time-aware configuration planning for distributed SGD jobs.

The package estimates the gradient noise scale from running jobs, fits
small closed-form models of statistical and parallel efficiency, and uses
them to predict training time and dollar cost for candidate
worker-count/batch-size configurations — then picks one under a deadline,
budget, knee-point, or cost-time objective.

The root exports the library API shown in the README; every other name
imports from its module, e.g. ``from scalefit.search import partial_search``.
"""

from .config import JobConfig, PricingModel, SearchBounds, VMShape
from .errors import ScalefitError
from .perfmodel import predict, predict_grid
from .policy import Objective, select
from .store import read_model_file
from .tradeoff import TradeoffPoint

__version__ = "0.1.0"

__all__ = [
    "JobConfig",
    "Objective",
    "PricingModel",
    "ScalefitError",
    "SearchBounds",
    "TradeoffPoint",
    "VMShape",
    "predict",
    "predict_grid",
    "read_model_file",
    "select",
]
