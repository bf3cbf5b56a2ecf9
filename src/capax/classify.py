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

Balancedness is decided by the full set's weighted-cover LP alone, of value
1 exactly when the core is nonempty (Bondareva); its certified dual point is
then a core measure, the witness.  No predicate here solves a general LP:
every LP is one of the two shapes of `lp.core`.

The predicates share the one-entry memo of `lp.core`: a capacity's table on
one integer scale, its core system and its full-set cover, each built at
most once.  `is_exact` and
`is_totally_balanced` read a solved cover first, and solve the cover only
for an empty core, whose family is their witness.  A certified core point x
with x(B) = v(B) settles B for exactness and total balancedness: min mu(B)
over the core is v(B), and x restricted to B is in the core of the subgame
on B, so B's cover value is v(B) and B needs no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .capacity import BalancedFamily, Capacity, Measure
from .errors import EmptySubset, InternalInconsistency
from .ground import ONE, ZERO, check_subset, family_total, point_masses, subset_indices
from .lp.core import (cover_maximum, shared_capacity_core, shared_core_nonempty, shared_full_cover,
                      shared_scaled_table, solved_full_cover)
# Pinned by the benchmark, which hooks or imports them here: solve,
# solve_dualized, Row and LinearProgram (hooked per module), and the general
# programs _cover_lp and _core_min_lp.  No predicate calls any of them.
from .lp.model import EQ, GE, LE, NONNEG, LinearProgram, Row
from .lp.solver import solve, solve_dualized  # noqa: F401


@dataclass(frozen=True, slots=True)
class ConvexityViolation:
    """Pair with v(A|B) + v(A&B) < v(A) + v(B)."""

    set_a: int
    set_b: int

    def verify(self, nu: Capacity) -> bool:
        a, b = self.set_a, self.set_b
        return nu[a | b] + nu[a & b] < nu[a] + nu[b]


@dataclass(frozen=True, slots=True)
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
        sets = [a for a, _ in self.coeffs]
        attained = family_total(nu.ground.n, sets, [w for _, w in self.coeffs], self.subset,
                                map(nu.values.__getitem__, sets), self.shift)
        return attained == self.bound and self.bound > nu[self.subset]


@dataclass(frozen=True, slots=True)
class TotalBalanceFailure:
    subset: int
    family: BalancedFamily

    def verify(self, nu: Capacity) -> bool:
        return self.family.violates(nu, self.subset)


@dataclass(frozen=True, slots=True)
class ClassReport:
    """The four class answers, each stated by its witness: a class holds
    exactly when its failure witness is None, and the core is nonempty
    exactly when the balancedness witness is a core Measure."""

    convex_witness: ConvexityViolation | None
    exact_witness: "ExactnessGap | BalancedFamily | None"
    tb_witness: TotalBalanceFailure | None
    balanced_witness: "Measure | BalancedFamily"

    @property
    def convex(self) -> bool:
        return self.convex_witness is None

    @property
    def exact(self) -> bool:
        return self.exact_witness is None

    @property
    def totally_balanced(self) -> bool:
        return self.tb_witness is None

    @property
    def balanced(self) -> bool:
        return isinstance(self.balanced_witness, Measure)

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.convex, self.exact, self.totally_balanced, self.balanced)

    def summary(self) -> str:
        yn = lambda b: "yes" if b else "no"
        return (f"convex:{yn(self.convex)} exact:{yn(self.exact)} "
                f"totally-balanced:{yn(self.totally_balanced)} balanced:{yn(self.balanced)}")


# --- convexity -----------------------------------------------------------------


def is_convex(nu: Capacity):
    """Supermodularity test.

    Checks v(A+{i,j}) - v(A+{j}) >= v(A+{i}) - v(A) over all A and pairs
    i < j outside A, which is equivalent to the all-pairs inequality (the
    tests compare it with the all-pairs scan), on the shared integer table
    L v (`shared_scaled_table`).  The witness is the first violating pair.
    """
    _, table = shared_scaled_table(nu.values)
    bits = [1 << i for i in nu.ground.points()]
    for a in nu.ground.subsets():
        out = [b for b in bits if not a & b]
        for k, bi in enumerate(out):
            gain = table[a | bi] - table[a]
            for bj in out[k + 1:]:
                if table[a | bi | bj] - table[a | bj] < gain:
                    return False, ConvexityViolation(a | bi, a | bj)
    return True, None


# --- weighted-cover (Bondareva-type) value ---------------------------------------


def _cover_lp(nu: Capacity, bound_mask: int) -> tuple[LinearProgram, list[int]]:
    """max sum lam_A v(A) over lam >= 0 with sum lam_A char(A) <= char(B),
    A ranging over nonempty subsets of B; coordinates outside B are vacuous
    and dropped.  The weighted cover as a general LP: `cover_maximum` solves
    the same program from masks, and the tests compare the two."""
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


def bondareva_value(nu: Capacity, bound_mask: int) -> Fraction:
    """Best weighted cover of B by subsets of B; always >= v(B)."""
    check_subset(bound_mask, nu.ground)
    if bound_mask == 0:
        raise EmptySubset("weighted-cover value needs a nonempty subset")
    return cover_maximum(nu.values, bound_mask).value


# --- balancedness ----------------------------------------------------------------


def _core_min_lp(nu: Capacity, subset: int) -> LinearProgram:
    """min mu(subset) over the core as a general LP: the mass-one row, then one
    row per nonempty proper subset in code order.  Subset 0 gives the
    feasibility program of the tests' `core_lp_feasible`; `CoreSystem` solves
    the same program without building it."""
    n = nu.ground.n
    rows = [Row((ONE,) * n, EQ, ONE)]
    for a in nu.ground.proper_nonempty_subsets():
        coeffs = tuple(ONE if a >> i & 1 else ZERO for i in range(n))
        rows.append(Row(coeffs, GE, nu[a]))
    objective = tuple(ONE if subset >> i & 1 else ZERO for i in range(n))
    return LinearProgram("min", objective, tuple(rows), (NONNEG,) * n)


def is_balanced(nu: Capacity):
    """Nonempty-core test by the shared full-set cover alone: (True, its
    certified dual point, a core measure) at value 1, else (False, its
    over-1 family)."""
    cover = shared_full_cover(nu.values)
    if cover.value != ONE:
        return False, BalancedFamily(cover.sets, cover.weights)
    return True, Measure(nu.ground, cover.point)


# --- exactness -------------------------------------------------------------------


def min_core_value(nu: Capacity, subset: int) -> Fraction:
    """Minimum of mu(B) over the core, by the shared system's `least`;
    raises CoreEmpty when unbalanced."""
    check_subset(subset, nu.ground)
    return shared_capacity_core(nu.values).least(subset)


def is_exact(nu: Capacity):
    """Each subset's value attained by some core measure.

    Returns (True, None), or (False, witness): an ExactnessGap for the first
    failing subset in code order, or the violating BalancedFamily when the
    core is empty.  The empty and full sets are attained and skipped.

    `shared_core_nonempty` answers first.  A convex capacity runs no LP at
    all.  A subset whose bound some certified core point attains needs no
    LP; the rest get a warm minimum (`least`).  The first that falls short
    gets the certificate of its cold `minimum`, each solved at most once per
    system, so the witness does not depend on the history.
    """
    values = nu.values
    if not shared_core_nonempty(values):
        cover = shared_full_cover(values)
        return False, BalancedFamily(cover.sets, cover.weights)
    system = shared_capacity_core(values)
    for subset in nu.ground.proper_nonempty_subsets():
        if system.least(subset) != nu[subset]:
            best = system.minimum(subset)
            coeffs = tuple((a, w) for a, w in zip(system.masks, best.multipliers) if w != 0)
            return False, ExactnessGap(subset, best.value, best.shift, coeffs)
    return True, None


def is_totally_balanced(nu: Capacity):
    """Weighted-cover value equals v(B) for every nonempty B.

    Returns (True, None) or (False, TotalBalanceFailure) for the smallest
    failing subset in subset-code order.

    A cover LP runs only for the subsets no certificate settles.  The cover
    value of a singleton {i} is v(i), of a pair {i, j} it is
    max(v(i) + v(j), v(ij)), so a pair with v(i) + v(j) <= v(ij), compared on
    the shared integer table, holds.  A
    larger B below the full set holds when a certified core point x has
    x(B) = v(B): x restricted to B is in the core of the subgame on B, so its
    cover value is v(B).  The shared core system's `attains` decides that
    once `shared_core_nonempty` shows the core nonempty, and the full set
    when it `has_point`.  Every other subset, each failing one among them,
    gets its LP, so the first failure and its family are the LP's.
    """
    values = nu.values
    full = nu.ground.full
    _, table = shared_scaled_table(values)
    for subset in nu.ground.nonempty_subsets():
        low = subset & -subset
        rest = subset ^ low
        if not rest:
            continue
        if not rest & (rest - 1):
            if table[low] + table[rest] <= table[subset]:
                continue
        elif subset == full:
            if solved_full_cover(values) is None and shared_capacity_core(values).has_point():
                continue
        elif shared_core_nonempty(values) and shared_capacity_core(values).attains(subset):
            continue
        best = shared_full_cover(values) if subset == full else cover_maximum(values, subset)
        if best.value != values[subset]:
            return False, TotalBalanceFailure(subset, BalancedFamily(best.sets, best.weights))
    return True, None


# --- the full report --------------------------------------------------------------


def classify_full(nu: Capacity) -> ClassReport:
    """Run all four predicates and enforce the inclusion chain.

    A report violating convex => exact => totally balanced => balanced cannot
    be a math outcome and aborts with InternalInconsistency carrying the report.
    """
    # first, so an oversized table is refused before the scan
    _, balanced_w = is_balanced(nu)
    report = ClassReport(is_convex(nu)[1], is_exact(nu)[1], is_totally_balanced(nu)[1], balanced_w)
    flags = report.flags()
    for name, stronger, weaker in zip(("convex => exact", "exact => totally balanced",
                                       "totally balanced => balanced"), flags, flags[1:]):
        if stronger and not weaker:
            raise InternalInconsistency(f"class chain violated ({name}) for flags {flags}", report)
    return report


def verify_report(nu: Capacity, report: ClassReport) -> bool:
    """Arithmetic-only re-verification of every witness in a report.  A class
    that holds carries no witness: convexity is rescanned, and exactness and
    total balancedness are trusted.  A failure family at the full set equal
    to the balancedness family, which has passed by then, is not checked
    again."""
    convex_scan, _ = is_convex(nu)  # combinatorial, no LP
    if report.convex != convex_scan:
        return False
    w = report.convex_witness
    if w is not None and not (isinstance(w, ConvexityViolation) and w.verify(nu)):
        return False
    full, balanced = nu.ground.full, report.balanced_witness
    if isinstance(balanced, Measure):
        scale, table = shared_scaled_table(nu.values)
        rows = [(a, 1, t, scale) for a, t in enumerate(table)]
        masses = point_masses(balanced.weights, rows) if balanced.ground == nu.ground else None
        # the rows give x(X) >= 1; a core measure has x(X) = 1
        if masses is None or masses[1][-1] != masses[0]:
            return False
    elif not isinstance(balanced, BalancedFamily) or not balanced.violates(nu, full):
        return False
    w = report.tb_witness
    if w is not None and not (isinstance(w, TotalBalanceFailure) and (
            w.subset == full and w.family == balanced or w.verify(nu))):
        return False
    w = report.exact_witness
    if isinstance(w, BalancedFamily):
        return w == balanced or w.violates(nu, full)
    return w is None or isinstance(w, ExactnessGap) and w.verify(nu)
