"""Best rank-one approximation of dense real d-mode tensors.

Alternating solvers (als, asvd, mals, masvd) for maximizing
<T, x_1 (x) ... (x) x_d> over unit vectors, with stationarity and
semi-maximality diagnostics, a block Gauss-Seidel spectrum analyzer for the
local alternating iteration, and a benchmark harness. Submodules:
``core``, ``linalg``, ``solvers``, ``diagnostics``, ``ami``, ``bench``,
``io``, ``cli``, ``kernels``.
Every contraction runs in ``kernels``; the package exports no tensor
algebra beyond ``f_value``, ``residual_norm`` and ``unfold``.
"""

from .core import Tensor, UnitTuple, f_value, residual_norm, unfold
from .errors import (
    BreakdownError,
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    NumericsError,
    ParseError,
    Rank1Error,
    SingularBlockError,
    UnsupportedError,
)
from .solvers import Rank1Result, SolverConfig, SolverTrace, solve

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "UnitTuple",
    "unfold",
    "f_value",
    "residual_norm",
    "SolverConfig",
    "SolverTrace",
    "Rank1Result",
    "solve",
    "Rank1Error",
    "DimensionError",
    "InvalidInputError",
    "DegenerateInputError",
    "BreakdownError",
    "NumericsError",
    "UnsupportedError",
    "SingularBlockError",
    "ParseError",
    "__version__",
]
