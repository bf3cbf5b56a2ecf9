"""The core system {x >= 0, x(X) = 1, x(A) >= b_A} as one checked oracle.

Every core computation in capax minimises a subset mass x(B) over such a
system: exactness tests, lower envelopes of the core, constraint-form credal
sets.  `CoreSystem` holds the system once, as subset masks, and answers
`minimum(B)` by solving the dual

    max y0 + sum_A b_A y_A   s.t.  y0 + sum_{A contains j} y_A <= [j in B]
                                   for every point j;  y0 free, y_A >= 0,

whose tableau has one row per point.  The right-hand sides are 0 or 1, so the
slack basis is feasible and no phase 1 runs.  Columns are y0+, y0-, the y_A
in mask order and the slacks: the very tableau `solve(dual_of(lp))` builds
for the same system, so Bland's rule takes the same pivots and every value,
point and multiplier equals what `solve_dualized` returns.

Each outcome is checked once, by integer arithmetic over subset masks, before
it leaves; a failed check raises `InternalInconsistency` (a solver bug, never
data).  An unbounded dual means an empty core; its ray is checked as a Farkas
certificate before `CoreEmpty` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..errors import CoreEmpty, GroundMismatch, InternalInconsistency, ShapeMismatch
from ..ground import ONE, ZERO, subset_indices
from . import _tableau_py
from ._backend import get_tableau_class


@dataclass(frozen=True)
class CoreMinimum:
    """min x(B) over a core system with both halves of its certificate."""

    value: Fraction
    point: tuple[Fraction, ...]  # an attaining x, one weight per point
    shift: Fraction  # y0, the multiplier of x(X) = 1
    multipliers: tuple[Fraction, ...]  # y_A >= 0, one per mask, in mask order


class CoreSystem:
    """{x >= 0, x(X) = 1, x(A) >= bounds[i] for A = masks[i]} over n points."""

    __slots__ = ("n", "masks", "bounds", "_rows", "_costs")

    def __init__(self, n: int, masks, bounds):
        masks = tuple(masks)
        bounds = tuple(Fraction(b) for b in bounds)
        if n < 1:
            raise ValueError(f"a core system needs at least one point, got {n}")
        if len(masks) != len(bounds):
            raise ShapeMismatch("one bound per mask required")
        for a in masks:
            if not 0 < a < 1 << n:
                raise GroundMismatch(f"subset code {a:#b} not valid as a constraint "
                                     f"over {n} points")
        self.n = n
        self.masks = masks
        self.bounds = bounds
        # dual rows without their right-hand side, in columns y0+, y0-, y_A, slacks
        self._rows = [[1, -1, *(a >> j & 1 for a in masks), *(int(i == j) for i in range(n))]
                      for j in range(n)]
        self._costs = [ONE, -ONE, *bounds, *(ZERO,) * n]

    def minimum(self, subset: int) -> CoreMinimum:
        """Minimise x(subset); raises CoreEmpty when the system has no solution."""
        n, k = self.n, len(self.masks)
        if not 0 <= subset < 1 << n:
            raise GroundMismatch(f"subset code {subset:#b} not valid over {n} points")
        ncols = 2 + k + n
        matrix = [row + [subset >> j & 1] for j, row in enumerate(self._rows)]
        tab = get_tableau_class()(matrix, range(2 + k, ncols), ncols)
        tab.set_objective(self._costs)
        status, enter = tab.run([1] * ncols)
        if status == _tableau_py.UNBOUNDED:
            self._raise_empty(tab, enter)
        sol = tab.solution()
        reduced = tab.reduced_costs()
        best = CoreMinimum(
            value=tab.value(),
            point=tuple(-reduced[2 + k + j] for j in range(n)),
            shift=sol[0] - sol[1],
            multipliers=tuple(sol[2:2 + k]),
        )
        if not self.certifies(subset, best):
            raise InternalInconsistency(
                f"core minimum of subset {subset:#b} has a failing certificate", best
            )
        return best

    def certifies(self, subset: int, best: CoreMinimum) -> bool:
        """Exact check that `best` is optimal for x(subset); never solves.

        Primal side over the common denominator of x: masses of all 2^n
        subsets by one prefix walk, then x >= 0, x(X) = 1, every bound, and
        x(subset) = value.  Dual side over the nonzero y_A only: y_A >= 0,
        each point's load y0 + sum_{A contains j} y_A at most [j in subset],
        and y0 + sum_A b_A y_A = value.
        """
        n, x, value = self.n, best.point, best.value
        if len(x) != n or len(best.multipliers) != len(self.masks):
            raise ShapeMismatch("core certificate length mismatch")
        den = lcm(*(q.denominator for q in x))
        ints = [q.numerator * (den // q.denominator) for q in x]
        if any(v < 0 for v in ints):
            return False
        mass = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            mass[s] = mass[s ^ low] + ints[low.bit_length() - 1]
        if mass[-1] != den or mass[subset] * value.denominator != value.numerator * den:
            return False
        for a, b in zip(self.masks, self.bounds):
            if mass[a] * b.denominator < b.numerator * den:
                return False
        dual = self._dual_side(best.shift, best.multipliers)
        if dual is None:
            return False
        load, attained = dual
        return attained == value and all(load[j] <= (subset >> j & 1) for j in range(n))

    def refutes(self, shift: Fraction, multipliers) -> bool:
        """Exact Farkas check that the system has no solution; never solves.

        Multipliers y_A >= 0 with y0 + sum_{A contains j} y_A <= 0 at every
        point but y0 + sum_A b_A y_A > 0 derive "nonpositive >= positive".
        """
        multipliers = tuple(multipliers)
        if len(multipliers) != len(self.masks):
            raise ShapeMismatch("Farkas certificate length mismatch")
        dual = self._dual_side(shift, multipliers)
        if dual is None:
            return False
        load, gain = dual
        return gain > 0 and all(v <= 0 for v in load)

    def _dual_side(self, shift: Fraction, multipliers):
        """(per-point loads y0 + sum_{A contains j} y_A, and y0 + sum_A b_A y_A),
        summed over the nonzero y_A only; None when some y_A is negative."""
        load = [shift] * self.n
        total = shift
        for a, b, w in zip(self.masks, self.bounds, multipliers):
            if w:
                if w < 0:
                    return None
                total += w * b
                for j in subset_indices(a):
                    load[j] += w
        return load, total

    def _raise_empty(self, tab, enter: int):
        """Read the improving ray of an unbounded dual, check it, raise CoreEmpty."""
        k = len(self.masks)
        direction = [ZERO] * tab.ncols
        direction[enter] = ONE
        for i, c in enumerate(tab.column(enter)):
            if c != 0:
                direction[tab.basis[i]] = -c
        shift = direction[0] - direction[1]
        multipliers = tuple(direction[2:2 + k])
        if not self.refutes(shift, multipliers):
            raise InternalInconsistency("empty-core ray fails its Farkas check", shift, multipliers)
        raise CoreEmpty("the core system has no solution")
