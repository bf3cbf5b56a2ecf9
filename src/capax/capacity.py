"""Capacities (normed monotone set functions), probability measures and
balanced families on finite ground sets, with constructors, mixtures and
functorial pushforwards.

A capacity is stored as a dense table of 2^n exact rationals indexed by
subset code.  All values are immutable after construction and every public
constructor validates the full invariant set (0 at the empty set, 1 at the
full set, monotone, range [0, 1]); nothing downstream ever has to re-check.
Builders of tables valid by construction skip the check through the private
`Capacity._built`: `random_monotone`, `monad.monad_mul`,
`credal.lower_envelope` and the search's screened draws; `Measure._built` is
its twin for the seeded measures of `random_measure` and `credal.random_credal`.
Every entry point takes ints and Fractions only, keeping Fraction objects; a
float raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .errors import (
    BadNormalization,
    EmptyCarrier,
    GroundMismatch,
    MissingSubset,
    NotMonotone,
    OutOfRange,
)
from .ground import ONE, ZERO, GroundSet, PointMap, _shared_ratio, family_total
from .lp.core import shared_scaled_table
from .rng import SplitMix64


class Capacity:
    """Dense exact capacity on a finite ground set."""

    __slots__ = ("ground", "values")

    def __init__(self, ground: GroundSet, values: Sequence[Fraction]):
        values = tuple(map(_rational, values))
        if len(values) != ground.table_size:
            raise ValueError(f"need {ground.table_size} values, got {len(values)}")
        _validate_table(ground, values)
        self.ground, self.values = ground, values

    @classmethod
    def _built(cls, ground: GroundSet, values: tuple[Fraction, ...]) -> Capacity:
        """A capacity over a Fraction tuple that is valid by construction."""
        nu = object.__new__(cls)
        nu.ground, nu.values = ground, values
        return nu

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Capacity):
            return NotImplemented
        return self.ground == other.ground and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.ground, self.values))

    def __repr__(self) -> str:
        body = ", ".join(f"{mask}:{v}" for mask, v in enumerate(self.values))
        return f"Capacity(n={self.ground.n}, {{{body}}})"


def _rational(v) -> Fraction:
    """v itself when it is a Fraction, Fraction(v) when it is an int; any
    other type, a float above all, raises TypeError."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"exact rational (int or Fraction) required, got {type(v).__name__} {v!r}")


def _validate_table(ground: GroundSet, values: tuple[Fraction, ...]):
    full = ground.full
    if values[0] != ZERO or values[full] != ONE:
        raise BadNormalization(
            f"capacity must have value 0 at {{}} and 1 at the full set, "
            f"got {values[0]} and {values[full]}"
        )
    for mask, v in enumerate(values):
        if not ZERO <= v <= ONE:
            raise OutOfRange(mask)
    # monotonicity along single-point extensions implies the full partial order
    for mask in range(full + 1):
        v = values[mask]
        for i in range(ground.n):
            bit = 1 << i
            if not mask & bit and v > values[mask | bit]:
                raise NotMonotone(mask, mask | bit)


def new_capacity(ground: GroundSet, assignments: Mapping[int, Fraction],
                 strict: bool = True) -> Capacity:
    """Build a capacity from per-subset values.

    Strict mode requires a value for every nonempty proper subset (typo
    protection for hand-written tables).  Lenient mode fills unspecified
    subsets by monotone closure of the given values:  v(A) = max of given
    values over subsets of A (0 when none).  Values given for the empty or
    full set must equal 0 / 1.
    """
    full = ground.full
    table: list[Fraction | None] = [None] * ground.table_size
    for mask, value in assignments.items():
        if not ground.contains_subset(mask):
            raise GroundMismatch(f"subset code {mask:#b} not valid over {ground.n} points")
        table[mask] = _rational(value)
    if table[0] is not None and table[0] != ZERO:
        raise BadNormalization(f"value at {{}} must be 0, got {table[0]}")
    if table[full] is not None and table[full] != ONE:
        raise BadNormalization(f"value at the full set must be 1, got {table[full]}")
    table[0] = ZERO
    table[full] = ONE
    if strict:
        for mask in ground.proper_nonempty_subsets():
            if table[mask] is None:
                raise MissingSubset(f"no value for subset {mask:#b} in strict mode")
    else:
        closure = _monotone_closure(ground, [ZERO if v is None else v for v in table])
        for mask in ground.proper_nonempty_subsets():
            if table[mask] is None:
                table[mask] = closure[mask]
    return Capacity(ground, table)  # full validation happens here


def _monotone_closure(ground: GroundSet, raw: list) -> list:
    """v(A) = max(raw(A), v(A - i) for i in A): the largest raw value over
    subsets of A, computed in ascending subset-code order; v(empty) =
    raw(empty), which callers set to 0.  Any ordered values serve: Fractions,
    or the integer grid numerators of `grid_table`."""
    values = list(raw)
    for mask in ground.nonempty_subsets():
        best = values[mask]
        for i in range(ground.n):
            bit = 1 << i
            if mask & bit and values[mask & ~bit] > best:
                best = values[mask & ~bit]
        values[mask] = best
    return values


def dirac(x: int, ground: GroundSet) -> Capacity:
    """Unit mass at a single point: v(F) = 1 iff x is in F."""
    if not 0 <= x < ground.n:
        raise ValueError(f"point {x} outside ground set of size {ground.n}")
    bit = 1 << x
    return Capacity(ground, [ONE if mask & bit else ZERO for mask in ground.subsets()])


def unanimity(carrier: int, ground: GroundSet) -> Capacity:
    """v(A) = 1 iff the carrier is contained in A.  A convex workhorse fixture."""
    if carrier == 0:
        raise EmptyCarrier("unanimity capacity needs a nonempty carrier")
    if not ground.contains_subset(carrier):
        raise GroundMismatch(f"carrier {carrier:#b} not valid over {ground.n} points")
    return Capacity(
        ground,
        [ONE if mask & carrier == carrier else ZERO for mask in ground.subsets()],
    )


def mix(nu1: Capacity, nu2: Capacity, t: Fraction) -> Capacity:
    """Pointwise convex combination t*nu1 + (1-t)*nu2."""
    if nu1.ground != nu2.ground:
        raise GroundMismatch("cannot mix capacities on different ground sets")
    t = _rational(t)
    if not ZERO <= t <= ONE:
        raise ValueError(f"mixing weight must lie in [0, 1], got {t}")
    s = ONE - t
    return Capacity(nu1.ground, [t * a + s * b for a, b in zip(nu1.values, nu2.values)])


def pushforward(f: PointMap, nu: Capacity) -> Capacity:
    """Transport along a point map: result(B) = nu(preimage of B)."""
    if nu.ground != f.domain:
        raise GroundMismatch("capacity is not on the domain of the map")
    values = [nu.values[f.preimage(mask)] for mask in f.codomain.subsets()]
    return Capacity(f.codomain, values)


class Measure:
    """Probability measure: nonnegative point weights summing to 1."""

    __slots__ = ("ground", "weights")

    def __init__(self, ground: GroundSet, weights: Sequence[Fraction]):
        weights = tuple(map(_rational, weights))
        if len(weights) != ground.n:
            raise ValueError(f"need {ground.n} weights, got {len(weights)}")
        for w in weights:
            if w < 0:
                raise OutOfRange(0, f"negative weight {w}")
        if sum(weights) != ONE:
            raise BadNormalization(f"weights sum to {sum(weights)}, not 1")
        self.ground = ground
        self.weights = weights

    @classmethod
    def _built(cls, ground: GroundSet, weights: tuple[Fraction, ...]) -> Measure:
        """A measure over a Fraction tuple that is valid by construction."""
        mu = object.__new__(cls)
        mu.ground, mu.weights = ground, weights
        return mu

    def mass(self, mask: int) -> Fraction:
        total = ZERO
        for i, w in enumerate(self.weights):
            if mask >> i & 1:
                total += w
        return total

    def as_capacity(self) -> Capacity:
        return Capacity(self.ground, [self.mass(mask) for mask in self.ground.subsets()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.ground == other.ground and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.ground, self.weights))

    def __repr__(self) -> str:
        return f"Measure({', '.join(str(w) for w in self.weights)})"


def point_mass(x: int, ground: GroundSet) -> Measure:
    if not 0 <= x < ground.n:
        raise ValueError(f"point {x} outside ground set of size {ground.n}")
    return Measure(ground, [ONE if i == x else ZERO for i in ground.points()])


def measure_pushforward(f: PointMap, mu: Measure) -> Measure:
    """Weight of y is the total weight of its preimage points."""
    if mu.ground != f.domain:
        raise GroundMismatch("measure is not on the domain of the map")
    weights = [ZERO] * f.codomain.n
    for x, w in enumerate(mu.weights):
        weights[f.image[x]] += w
    return Measure(f.codomain, weights)


@dataclass(frozen=True, slots=True)
class BalancedFamily:
    """Weighted family of subsets with nonnegative weights.

    The family is *admissible within B* when the weighted characteristic
    vectors stay below the characteristic vector of B pointwise; it violates
    balancedness of `nu` relative to B when its weighted capacity total
    exceeds nu(B).  Verification is plain arithmetic, no LP involved, on nu's
    integer table.
    """

    sets: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.weights):
            raise ValueError("sets and weights must have equal length")
        object.__setattr__(self, "weights", tuple(map(_rational, self.weights)))

    def is_admissible_within(self, bound_mask: int, ground: GroundSet) -> bool:
        return self._total(bound_mask, ground.n) is not None

    def violates(self, nu: Capacity, bound_mask: int) -> bool:
        """True when admissible within B yet the weighted total exceeds nu(B);
        False for a B that is not a subset of nu's ground set.  The total is
        taken over nu's integer table L v (`lp.core.shared_scaled_table`), so
        its costs are integers, and compared with L v(B)."""
        _, table = shared_scaled_table(nu.values)
        total = self._total(bound_mask, nu.ground.n, map(table.__getitem__, self.sets))
        return total is not None and total > table[bound_mask]

    def _total(self, bound_mask: int, n: int, costs=None):
        """`family_total` with caps B over n points; None also when a member
        set sticks out of B."""
        if any(a & ~bound_mask for a in self.sets):
            return None
        return family_total(n, self.sets, self.weights, bound_mask, costs)


# --- seeded generators --------------------------------------------------------


def random_monotone(ground: GroundSet, seed: int, grid: int) -> Capacity:
    """Deterministic random capacity: `grid_table` over `grid`.

    Same (seed, n, grid) always yields the same table.  Values are the
    shared Fractions of `ground._shared_ratio`, built as a table reads them,
    so capacities drawn on one grid share their value objects.
    """
    return Capacity._built(ground, tuple(_shared_ratio(k, grid) for k in grid_table(ground, seed, grid)))


def grid_table(ground: GroundSet, seed: int, grid: int) -> list[int]:
    """The table of `random_monotone` as numerators over `grid`.

    Draws one raw numerator from 0..grid per nonempty proper subset in
    ascending subset-code order (the full set is pinned to grid and consumes
    no draw), then takes the monotone closure v(A) = max of raw values over
    subsets of A.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = SplitMix64(seed)
    raw = [0] * ground.table_size
    for mask in ground.proper_nonempty_subsets():
        raw[mask] = rng.next_below(grid + 1)
    raw[ground.full] = grid
    return _monotone_closure(ground, raw)


def random_convex_mixture(ground: GroundSet, seed: int, grid: int) -> Capacity:
    """Random convex combination of unanimity capacities (always convex).

    Draws one integer weight from 0..grid per nonempty carrier in ascending
    subset-code order and normalizes; all-zero draws fall back to full weight
    on the full-set carrier.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = SplitMix64(seed)
    raw = [rng.next_below(grid + 1) for _ in ground.nonempty_subsets()]
    total = sum(raw)
    if total == 0:
        raw[-1] = 1
        total = 1
    values = []
    for mask in ground.subsets():
        acc = 0
        for k, carrier in enumerate(ground.nonempty_subsets()):
            if mask & carrier == carrier:
                acc += raw[k]
        values.append(Fraction(acc, total))
    return Capacity(ground, values)


def random_measure(ground: GroundSet, rng: SplitMix64, grid: int) -> Measure:
    """Random rational point of the probability simplex (all-zero draws retried)."""
    return _row_measure(ground, _measure_row(ground, rng, grid))


def _measure_row(ground: GroundSet, rng: SplitMix64, grid: int) -> tuple[int, tuple[int, ...]]:
    """The draw of `random_measure` as an integer row (total, raw), weights
    raw / total: one draw from 0..grid per point, retried while all are 0,
    then divided by gcd(total, *raw), so equal measures give equal rows."""
    while True:
        raw = [rng.next_below(grid + 1) for _ in ground.points()]
        total = sum(raw)
        if total:
            g = gcd(total, *raw)
            return total // g, tuple(r // g for r in raw)


def _row_measure(ground: GroundSet, row) -> Measure:
    """The measure of an integer row (total, raw) of `_measure_row`, its weights
    the shared Fractions of `ground._shared_ratio`."""
    total, raw = row
    return Measure._built(ground, tuple(_shared_ratio(r, total) for r in raw))
