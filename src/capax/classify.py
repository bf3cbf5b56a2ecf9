"""Decision procedures for the four capacity classes, with checkable witnesses.

Every predicate returns a boolean plus a witness that re-verifies by plain
arithmetic, no LP run needed:

* convex violation: a pair (A, B) with v(A|B) + v(A&B) < v(A) + v(B);
* unbalancedness: a weighted family with sum lam * char <= 1 pointwise yet
  sum lam * v(A) > 1;
* totally-balanced failure: same kind of family relative to a subset B;
* exactness failure: a subset B plus a dual certificate bounding the minimum
  of mu(B) over the core strictly above v(B);
* balancedness: a measure lying in the core.

Balancedness is decided through two independent routes (the weighted-cover
LP value at the full set, and direct feasibility of the core system) which
must agree; disagreement raises InternalInconsistency since it can only be a
solver bug.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .capacity import BalancedFamily, Capacity, Measure
from .errors import ConfigOutOfRange, EmptySubset, InternalInconsistency
from .ground import ONE, ZERO, check_subset, subset_indices
from .lp import EQ, GE, LE, INFEASIBLE, OPTIMAL, CoreSystem, Row, LinearProgram, NONNEG
# solve_dualized stays importable here for tools that hook LP solves per module
from .lp.solver import solve, solve_dualized  # noqa: F401

DEFAULT_MAX_POINTS = 8
HARD_MAX_POINTS = 10


def _check_size(nu: Capacity, allow_large: bool):
    n = nu.ground.n
    if n <= DEFAULT_MAX_POINTS:
        return None
    if n > HARD_MAX_POINTS:
        raise ConfigOutOfRange(f"classification supports at most {HARD_MAX_POINTS} points, got {n}")
    if not allow_large:
        raise ConfigOutOfRange(
            f"classification above {DEFAULT_MAX_POINTS} points is opt-in; "
            "pass allow_large=True"
        )
    warnings.warn(
        f"classifying a capacity on {n} points: exact LP pivots will be slow",
        RuntimeWarning,
        stacklevel=3,
    )
    return None  # callers lift the LP cell guard in this mode


@dataclass(frozen=True)
class ConvexityViolation:
    """Pair with v(A|B) + v(A&B) < v(A) + v(B)."""

    set_a: int
    set_b: int

    def verify(self, nu: Capacity) -> bool:
        a, b = self.set_a, self.set_b
        return nu[a | b] + nu[a & b] < nu[a] + nu[b]


@dataclass(frozen=True)
class ExactnessGap:
    """Certificate that min { mu(B) : mu in core } > v(B).

    `shift` and `coeffs` are the multipliers of the mass-one equality and of
    the per-subset core constraints in the dual of the minimization; dual
    feasibility plus the certified value re-check by direct arithmetic.
    """

    subset: int
    bound: Fraction  # certified minimum of mu(subset) over the core
    shift: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]

    def verify(self, nu: Capacity) -> bool:
        if any(w < 0 for _, w in self.coeffs):
            return False
        for i in nu.ground.points():
            load = self.shift + sum((w for a, w in self.coeffs if a >> i & 1), ZERO)
            cap = ONE if self.subset >> i & 1 else ZERO
            if load > cap:
                return False
        attained = self.shift + sum((w * nu[a] for a, w in self.coeffs), ZERO)
        return attained == self.bound and self.bound > nu[self.subset]


@dataclass(frozen=True)
class TotalBalanceFailure:
    subset: int
    family: BalancedFamily

    def verify(self, nu: Capacity) -> bool:
        return self.family.violates(nu, self.subset)


@dataclass(frozen=True)
class ClassReport:
    convex: bool
    exact: bool
    totally_balanced: bool
    balanced: bool
    convex_witness: ConvexityViolation | None
    exact_witness: "ExactnessGap | BalancedFamily | None"
    tb_witness: TotalBalanceFailure | None
    core_witness: Measure | None
    unbalanced_witness: BalancedFamily | None

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.convex, self.exact, self.totally_balanced, self.balanced)

    def summary(self) -> str:
        yn = lambda b: "yes" if b else "no"
        return (f"convex:{yn(self.convex)} exact:{yn(self.exact)} "
                f"totally-balanced:{yn(self.totally_balanced)} balanced:{yn(self.balanced)}")


# --- convexity -----------------------------------------------------------------


def is_convex(nu: Capacity, method: str = "local"):
    """Supermodularity test.

    The default `local` method checks v(A+{i,j}) + v(A) >= v(A+{i}) + v(A+{j})
    over all A and pairs i != j outside A, which is equivalent to the all-pairs
    inequality; `pairs` runs the all-pairs definition directly (the oracle the
    local path is tested against).  Witnesses from both methods are plain
    violating pairs.
    """
    values = nu.values
    n = nu.ground.n
    if method == "pairs":
        for a in nu.ground.subsets():
            for b in nu.ground.subsets():
                if values[a | b] + values[a & b] < values[a] + values[b]:
                    return False, ConvexityViolation(a, b)
        return True, None
    if method != "local":
        raise ValueError(f"unknown convexity method {method!r}")
    for a in nu.ground.subsets():
        for i in range(n):
            bi = 1 << i
            if a & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if a & bj:
                    continue
                if values[a | bi | bj] + values[a] < values[a | bi] + values[a | bj]:
                    return False, ConvexityViolation(a | bi, a | bj)
    return True, None


# --- weighted-cover (Bondareva-type) value ---------------------------------------


def _cover_lp(nu: Capacity, bound_mask: int) -> tuple[LinearProgram, list[int]]:
    """max sum lam_A v(A) over lam >= 0 with sum lam_A char(A) <= char(B),
    A ranging over nonempty subsets of B; coordinates outside B are vacuous
    and dropped."""
    members = [mask for mask in nu.ground.nonempty_subsets()
               if mask & ~bound_mask == 0]
    points = subset_indices(bound_mask)
    rows = []
    for i in points:
        coeffs = tuple(ONE if a >> i & 1 else ZERO for a in members)
        rows.append(Row(coeffs, LE, ONE))
    objective = tuple(nu[a] for a in members)
    lp = LinearProgram("max", objective, tuple(rows), (NONNEG,) * len(members))
    return lp, members


def _cover_value(nu: Capacity, bound_mask: int, max_cells):
    lp, members = _cover_lp(nu, bound_mask)
    out = solve(lp, max_cells=max_cells)
    if out.status != OPTIMAL:
        raise InternalInconsistency("weighted-cover LP is always feasible and bounded")
    family_sets = []
    family_weights = []
    for a, lam in zip(members, out.primal):
        if lam != 0:
            family_sets.append(a)
            family_weights.append(lam)
    return out.value, BalancedFamily(tuple(family_sets), tuple(family_weights))


def bondareva_value(nu: Capacity, bound_mask: int, *, allow_large: bool = False) -> Fraction:
    """Best weighted cover of B by subsets of B; always >= v(B)."""
    check_subset(bound_mask, nu.ground)
    if bound_mask == 0:
        raise EmptySubset("weighted-cover value needs a nonempty subset")
    _check_size(nu, allow_large)
    max_cells = None if nu.ground.n > DEFAULT_MAX_POINTS else 5000
    value, _ = _cover_value(nu, bound_mask, max_cells)
    return value


# --- balancedness ----------------------------------------------------------------


def _core_system_rows(nu: Capacity) -> tuple[Row, ...]:
    n = nu.ground.n
    rows = [Row((ONE,) * n, EQ, ONE)]
    for a in nu.ground.proper_nonempty_subsets():
        coeffs = tuple(ONE if a >> i & 1 else ZERO for i in range(n))
        rows.append(Row(coeffs, GE, nu[a]))
    return tuple(rows)


def core_lp_feasible(nu: Capacity, *, allow_large: bool = False):
    """Direct feasibility of {mu >= 0, mu(X) = 1, mu(A) >= v(A)}.

    Returns (True, core Measure) or (False, violating BalancedFamily built
    from the Farkas certificate).  This is the second, independent route of
    the balancedness test: it attacks the row-heavy system head on instead of
    going through the weighted-cover side.
    """
    _check_size(nu, allow_large)
    max_cells = None if nu.ground.n > DEFAULT_MAX_POINTS else 5000
    n = nu.ground.n
    lp = LinearProgram("min", (ZERO,) * n, _core_system_rows(nu), (NONNEG,) * n)
    out = solve(lp, max_cells=max_cells)
    if out.status == OPTIMAL:
        return True, Measure(nu.ground, out.primal)
    if out.status != INFEASIBLE:
        raise InternalInconsistency("core system cannot be unbounded under min 0")
    lam0 = out.farkas[0]
    if lam0 >= 0:
        raise InternalInconsistency("Farkas certificate of the core system needs a negative mass multiplier")
    scale = -lam0
    sets = []
    weights = []
    for a, lam in zip(nu.ground.proper_nonempty_subsets(), out.farkas[1:]):
        if lam != 0:
            sets.append(a)
            weights.append(lam / scale)
    return False, BalancedFamily(tuple(sets), tuple(weights))


def is_balanced(nu: Capacity, *, allow_large: bool = False):
    """Nonempty-core test; both decision routes run and must agree.

    Returns (True, core Measure) or (False, violating BalancedFamily).
    """
    _check_size(nu, allow_large)
    max_cells = None if nu.ground.n > DEFAULT_MAX_POINTS else 5000
    value, family = _cover_value(nu, nu.ground.full, max_cells)
    feasible, witness = core_lp_feasible(nu, allow_large=allow_large)
    if (value == ONE) != feasible:
        raise InternalInconsistency(
            f"weighted-cover value {value} disagrees with core feasibility {feasible}",
            family,
            witness,
        )
    if feasible:
        return True, witness  # the measure found by the direct route
    return False, family  # the over-1 family found by the cover route


# --- exactness -------------------------------------------------------------------


def _core_min_lp(nu: Capacity, subset: int) -> LinearProgram:
    """min mu(subset) over the core as a general LP; `CoreSystem` solves the
    same program without building it."""
    n = nu.ground.n
    objective = tuple(ONE if subset >> i & 1 else ZERO for i in range(n))
    return LinearProgram("min", objective, _core_system_rows(nu), (NONNEG,) * n)


def _core_system(nu: Capacity) -> CoreSystem:
    """The core of nu: one bound per nonempty proper subset, in code order."""
    masks = nu.ground.proper_nonempty_subsets()
    return CoreSystem(nu.ground.n, masks, (nu[a] for a in masks))


def min_core_value(nu: Capacity, subset: int, *, allow_large: bool = False) -> Fraction:
    """Minimum of mu(B) over the core; raises CoreEmpty when unbalanced."""
    check_subset(subset, nu.ground)
    _check_size(nu, allow_large)
    if subset == 0:
        return ZERO
    return _core_system(nu).minimum(subset).value


def is_exact(nu: Capacity, *, allow_large: bool = False):
    """Each subset's value attained by some core measure.

    Returns (True, None), or (False, witness) where the witness is an
    ExactnessGap for the smallest failing subset in subset-code order, or the
    violating BalancedFamily when the core is outright empty.  The empty and
    full sets are automatically attained and skipped.
    """
    _check_size(nu, allow_large)
    max_cells = None if nu.ground.n > DEFAULT_MAX_POINTS else 5000
    value, family = _cover_value(nu, nu.ground.full, max_cells)
    if value != ONE:
        return False, family
    system = _core_system(nu)
    for subset in nu.ground.proper_nonempty_subsets():
        best = system.minimum(subset)
        if best.value != nu[subset]:
            coeffs = tuple((a, w) for a, w in zip(system.masks, best.multipliers) if w != 0)
            return False, ExactnessGap(subset, best.value, best.shift, coeffs)
    return True, None


def is_totally_balanced(nu: Capacity, *, allow_large: bool = False):
    """Weighted-cover value equals v(B) for every nonempty B.

    Returns (True, None) or (False, TotalBalanceFailure) for the smallest
    failing subset in subset-code order.
    """
    _check_size(nu, allow_large)
    max_cells = None if nu.ground.n > DEFAULT_MAX_POINTS else 5000
    for subset in nu.ground.nonempty_subsets():
        value, family = _cover_value(nu, subset, max_cells)
        if value != nu[subset]:
            return False, TotalBalanceFailure(subset, family)
    return True, None


# --- the full report --------------------------------------------------------------


def classify_full(nu: Capacity, *, allow_large: bool = False) -> ClassReport:
    """Run all four predicates and enforce the inclusion chain.

    A report violating convex => exact => totally balanced => balanced cannot
    be a math outcome and aborts with InternalInconsistency carrying the
    conflicting witnesses.
    """
    convex, convex_w = is_convex(nu)
    balanced, balanced_w = is_balanced(nu, allow_large=allow_large)
    tb, tb_w = is_totally_balanced(nu, allow_large=allow_large)
    exact, exact_w = is_exact(nu, allow_large=allow_large)
    chain = (convex, exact, tb, balanced)
    for name, (stronger, weaker) in {
        "convex => exact": (convex, exact),
        "exact => totally balanced": (exact, tb),
        "totally balanced => balanced": (tb, balanced),
    }.items():
        if stronger and not weaker:
            raise InternalInconsistency(
                f"class chain violated ({name}) for flags {chain}",
                convex_w, exact_w, tb_w, balanced_w,
            )
    return ClassReport(
        convex=convex,
        exact=exact,
        totally_balanced=tb,
        balanced=balanced,
        convex_witness=convex_w,
        exact_witness=exact_w,
        tb_witness=tb_w,
        core_witness=balanced_w if balanced else None,
        unbalanced_witness=None if balanced else balanced_w,
    )


def verify_report(nu: Capacity, report: ClassReport) -> bool:
    """Arithmetic-only re-verification of every witness in a report."""
    convex_scan, _ = is_convex(nu)  # combinatorial, no LP
    if report.convex != convex_scan:
        return False
    if not report.convex and not report.convex_witness.verify(nu):
        return False
    if report.balanced:
        mu = report.core_witness
        if mu is None or mu.ground != nu.ground:
            return False
        if any(mu.mass(a) < nu[a] for a in nu.ground.nonempty_subsets()):
            return False
    else:
        if report.unbalanced_witness is None:
            return False
        if not report.unbalanced_witness.violates(nu, nu.ground.full):
            return False
    if not report.totally_balanced:
        if report.tb_witness is None or not report.tb_witness.verify(nu):
            return False
    if not report.exact:
        w = report.exact_witness
        if isinstance(w, ExactnessGap):
            if not w.verify(nu):
                return False
        elif isinstance(w, BalancedFamily):
            if not w.violates(nu, nu.ground.full):
                return False
        else:
            return False
    return True
