"""Exact rational linear programming with verifiable certificates."""

from .core import CoreMinimum, CoreSystem, CoverMaximum, cover_certifies, cover_maximum
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
from .solver import solve, solve_dualized

__all__ = [
    "CoreMinimum",
    "CoreSystem",
    "CoverMaximum",
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
    "cover_certifies",
    "cover_maximum",
    "dual_of",
    "linear_program",
    "solve",
    "solve_dualized",
    "verify_outcome",
]
