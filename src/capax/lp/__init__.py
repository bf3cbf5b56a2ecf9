"""Exact rational linear programming with verifiable certificates."""

from ._backend import DEFAULT_BACKEND, backend_names
from .core import CoreMinimum, CoreSystem
from .model import (
    EQ,
    FREE,
    GE,
    INFEASIBLE,
    LE,
    MAX_SENSE,
    MIN_SENSE,
    NONNEG,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    Row,
    dual_of,
    linear_program,
    verify_outcome,
)
from .solver import DEFAULT_MAX_CELLS, solve, solve_dualized

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_MAX_CELLS",
    "CoreMinimum",
    "CoreSystem",
    "EQ",
    "FREE",
    "GE",
    "INFEASIBLE",
    "LE",
    "MAX_SENSE",
    "MIN_SENSE",
    "NONNEG",
    "OPTIMAL",
    "UNBOUNDED",
    "LinearProgram",
    "LpOutcome",
    "Row",
    "backend_names",
    "dual_of",
    "linear_program",
    "solve",
    "solve_dualized",
    "verify_outcome",
]
