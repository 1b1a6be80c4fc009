"""Gradient-free matrix optimization toolkit.

Estimate gradients from function queries alone, project the estimation into
a low-dimensional subspace to cut its variance, and orthogonalize the
projected estimate before lifting it back for spectrally uniform updates.
Ships with full-space and low-rank baselines, analytic benchmark objectives,
an independent verification oracle, and a seeded experiment harness.
"""

from .estimators import (
    CENTRAL,
    FORWARD,
    EstimatorConfig,
    lge_lozo,
    rge_full,
    subspace_rge,
)
from .linalg import (
    NumericalError,
    effective_rank,
    msign_ns,
    msign_svd,
    sample_projection,
)
from .objectives import (
    EvaluationError,
    Objective,
    make_mlp,
    make_quadratic,
)
from .optimizers import (
    LOZO,
    MEZO,
    OPTIMIZER_KINDS,
    SUBSPACE_MEZO,
    ZO_MUON,
    ZO_SGD,
    OptimizerConfig,
    OptimizerState,
    RunResult,
    StepRecord,
    run,
    steps_for_budget,
)
from .params import ParamSpace

__version__ = "0.1.0"

__all__ = [
    "CENTRAL",
    "FORWARD",
    "LOZO",
    "MEZO",
    "OPTIMIZER_KINDS",
    "SUBSPACE_MEZO",
    "ZO_MUON",
    "ZO_SGD",
    "EstimatorConfig",
    "EvaluationError",
    "NumericalError",
    "Objective",
    "OptimizerConfig",
    "OptimizerState",
    "ParamSpace",
    "RunResult",
    "StepRecord",
    "effective_rank",
    "lge_lozo",
    "make_mlp",
    "make_quadratic",
    "msign_ns",
    "msign_svd",
    "rge_full",
    "run",
    "sample_projection",
    "steps_for_budget",
    "subspace_rge",
]
