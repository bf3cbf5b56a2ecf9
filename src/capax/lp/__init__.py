"""The two exact LP shapes capax solves, each answer with a checkable certificate.

`CoreSystem` minimises a subset mass over a core system {x >= 0, x(X) = 1,
x(A) >= b_A}; `cover_maximum` solves the weighted-cover (Bondareva) LP of a
subset.  `CoreSystem.certifies`, `CoreSystem.refutes` and `cover_certifies`
check a certificate handed in, by arithmetic alone (see `capax.lp.core`).

The generic two-phase simplex of `capax.lp.solver`, over the programs of
`capax.lp.model`, solves none of capax's questions; it is the reference the
tests compare the two shapes against.  `linear_program` stays exported for
the tools that build such programs.
"""

from .core import CoreMinimum, CoreSystem, CoverMaximum, cover_certifies, cover_maximum
from .model import linear_program

__all__ = [
    "CoreMinimum",
    "CoreSystem",
    "CoverMaximum",
    "cover_certifies",
    "cover_maximum",
    "linear_program",
]
