"""Penalty dual decomposition optimization library.

Generic PDD/IPDD outer loop with a randomized BSUM inner solver, plus
three application solvers: max-min fair multicast beamforming, joint
source-relay sum-rate maximization, and volume-minimization matrix
factorization. See the ``pddopt`` CLI for instance generation, solving,
benchmarking, and the property-verification suites.
"""

from .core import (
    BlockProblem,
    PddConfig,
    PddRecord,
    PddTrace,
    pdd_run,
    rbsum_run,
    stationarity_residuals,
)
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    PddOptError,
    UnsupportedOperationError,
)

__version__ = "0.1.0"

__all__ = [
    "BlockProblem",
    "PddConfig",
    "PddRecord",
    "PddTrace",
    "pdd_run",
    "rbsum_run",
    "stationarity_residuals",
    "InvalidInputError",
    "NumericalFailureError",
    "PddOptError",
    "UnsupportedOperationError",
    "__version__",
]
