"""Credal sets (convex sets of probability measures), core polytopes, lower
envelopes, credal pushforward, and the retraction / naturality checks.

A credal set is known through its lower envelope: `min_mass` is its one
primitive, and the upper envelope (1 minus the lower one at complements) and
equality derive from it.  Each form answers `min_mass` from what it holds: a
finite vertex list answers every subset at once, in integers, by
`ground.least_masses` of its vertices' integer rows; a core-style constraint
system (lower bounds on subset masses over the probability simplex) asks its
certified core LP, with no vertex enumeration; a lazy pushforward along a
point map asks its base at the preimage.  Deciding full polytope equality is
out of scope.

The vertex form holds its vertices as integer rows (d, ints), weights ints / d
in lowest terms, so equal measures give equal rows, and builds its measures
from them unchecked (`Measure._built`).  `from_vertices` deduplicates on the
rows of `integer_point`; `random_credal` keeps each draw as the row (total,
raw) of `capacity._measure_row` and never reads a Fraction back.  Both keep
first-seen order.
"""

from __future__ import annotations

from fractions import Fraction

from .capacity import (Capacity, Measure, _measure_row, _rational, _row_measure,
                       measure_pushforward, pushforward)
from .classify import is_exact
from .errors import CoreEmpty, GroundMismatch, InfeasibleCredal, NotExact
from .ground import (ONE, ZERO, GroundSet, PointMap, _shared_ratio, check_subset, integer_point,
                     least_masses)
from .lp.core import CoreSystem, shared_capacity_core
# Pinned by the benchmark, which hooks them here: LinearProgram, Row and
# solve_dualized.  Nothing here calls them.
from .lp.model import LinearProgram, Row  # noqa: F401
from .lp.solver import solve_dualized  # noqa: F401

VERTICES = "vertices"
CONSTRAINTS = "constraints"
PUSHED = "pushed"


class CredalSet:
    """Nonempty closed convex set of probability measures on a finite ground set."""

    __slots__ = ("ground", "kind", "rows", "vertices", "system", "base_map", "base_set", "_minima")

    def __init__(self, ground: GroundSet, kind: str, *, rows=None, system=None,
                 base_map=None, base_set=None):
        self.ground = ground
        self.kind = kind
        self.rows = rows  # vertex form: distinct lowest-terms rows (d, ints)
        self.vertices = None if rows is None else tuple(_row_measure(ground, row) for row in rows)
        self.system: CoreSystem | None = system  # constraint form
        self.base_map = base_map
        self.base_set = base_set
        self._minima: list[Fraction] | None = None  # vertex form, built on first use
        if system is not None:  # nonempty by definition; then no later question fails
            try:
                system.require_solution()
            except CoreEmpty:
                raise InfeasibleCredal("constraint system admits no probability measure") from None

    # --- constructors ---

    @classmethod
    def from_vertices(cls, measures) -> "CredalSet":
        measures = list(measures)
        if not measures:
            raise ValueError("a credal set needs at least one measure")
        ground = measures[0].ground
        if any(mu.ground != ground for mu in measures):
            raise GroundMismatch("vertex measures live on different ground sets")
        rows = (integer_point(mu.weights) for mu in measures)
        return cls(ground, VERTICES, rows=tuple(dict.fromkeys((d, tuple(ints)) for d, ints in rows)))

    @classmethod
    def from_constraints(cls, ground: GroundSet, bounds) -> "CredalSet":
        """Core-style system {mu >= 0, mu(X) = 1, mu(A) >= bounds[A]}.

        Rejects the empty subset as a key and raises InfeasibleCredal when the
        system has no solution (credal sets are nonempty by definition).  Not size
        capped (an LP column per bound): a full envelope above 10 points is out of scope.
        """
        clean = {}
        for mask, value in bounds.items():
            if mask == 0:
                raise ValueError("the empty set cannot carry a lower bound")
            check_subset(mask, ground)
            clean[mask] = _rational(value)
        masks = sorted(clean)
        return cls(ground, CONSTRAINTS, system=CoreSystem(ground.n, masks, map(clean.get, masks)))

    # --- support-function evaluation ---

    def min_mass(self, mask: int) -> Fraction:
        """min mu(mask) over the set, the value of its lower envelope at mask."""
        check_subset(mask, self.ground)
        if self.kind == VERTICES:
            return self._vertex_minima()[mask]
        if self.kind == PUSHED:
            return self.base_set.min_mass(self.base_map.preimage(mask))
        return self.system.least(mask)

    def max_mass(self, mask: int) -> Fraction:
        """max mu(mask) = 1 - min mu(X - mask), as every member has total mass 1."""
        check_subset(mask, self.ground)
        return ONE - self.min_mass(self.ground.full & ~mask)

    def _vertex_minima(self) -> list[Fraction]:
        """min mu(S) over the vertices for every subset S, by subset code
        (`least_masses` of the vertices' rows).  Equal values come back as
        one shared Fraction object (see `_shared_ratio`)."""
        if self._minima is None:
            den, least = least_masses(self.rows)
            self._minima = [_shared_ratio(m, den) for m in least]
        return self._minima

    def some_member(self) -> Measure:
        """Any measure in the set (a vertex, or an LP-feasible point)."""
        if self.kind == VERTICES:
            return self.vertices[0]
        if self.kind == PUSHED:
            return measure_pushforward(self.base_map, self.base_set.some_member())
        return Measure(self.ground, self.system.minimum(0).point)


def core_polytope(nu: Capacity) -> CredalSet:
    """The core {mu : mu(A) >= v(A) for all A} as a constraint-form credal set,
    over the core system `classify` shares (`lp.core.shared_capacity_core`)."""
    try:
        return CredalSet(nu.ground, CONSTRAINTS, system=shared_capacity_core(nu.values))
    except InfeasibleCredal:
        raise CoreEmpty("capacity is unbalanced: the core polytope is empty") from None


def lower_envelope(alpha: CredalSet) -> Capacity:
    """Pointwise minimum capacity A -> min { mu(A) : mu in alpha }.

    A minimum over a nonempty set of probability measures is a capacity by
    construction, and every constraint-form answer is certified in `lp.core`,
    so the table is not validated again."""
    if alpha.kind == VERTICES:  # every subset at once
        inner = alpha._vertex_minima()[1:-1]
    else:
        inner = map(alpha.min_mass, alpha.ground.proper_nonempty_subsets())
    return Capacity._built(alpha.ground, (ZERO, *inner, ONE))


def credal_pushforward(f: PointMap, alpha: CredalSet) -> CredalSet:
    """Image of a credal set along a point map.

    Vertex form maps each vertex (the image polytope is the convex hull of
    the pushed vertices, so the deduplicated pushed list represents it);
    other forms become lazy evaluation oracles over preimages.
    """
    if alpha.ground != f.domain:
        raise GroundMismatch("credal set is not on the domain of the map")
    if alpha.kind == VERTICES:
        return CredalSet.from_vertices(
            [measure_pushforward(f, mu) for mu in alpha.vertices]
        )
    return CredalSet(f.codomain, PUSHED, base_map=f, base_set=alpha)


def credal_equal(alpha: CredalSet, beta: CredalSet) -> bool:
    """Extensional equality: the lower envelopes agree on every subset (the
    upper envelopes, 1 minus the lower ones at complements, then agree too)."""
    return alpha.ground == beta.ground and all(
        alpha.min_mass(mask) == beta.min_mass(mask)
        for mask in alpha.ground.proper_nonempty_subsets())


def check_retraction(nu: Capacity) -> bool:
    """Envelope of the core gives back the capacity (identity on exact ones)."""
    exact, _ = is_exact(nu)
    if not exact:
        raise NotExact("retraction check is only defined for exact capacities")
    return lower_envelope(core_polytope(nu)) == nu


def check_naturality(f: PointMap, alpha: CredalSet) -> bool:
    """Envelope of the pushforward equals pushforward of the envelope.

    Only the vertex form tests anything (pushed-vertex minima against vertex minima at
    preimages; tests/test_credal.py `test_random_pairs`): for a constraint-form or
    pushed set both sides compute `alpha.min_mass(f.preimage(B))`.
    """
    if alpha.ground != f.domain:
        raise GroundMismatch("credal set is not on the domain of the map")
    left = lower_envelope(credal_pushforward(f, alpha))
    right = pushforward(f, lower_envelope(alpha))
    return left == right


def random_credal(ground: GroundSet, rng, max_vertices: int, grid: int) -> CredalSet:
    """Seeded vertex-form credal set with 1..max_vertices random measures: the
    `random_measure` draws, as integer rows deduplicated in first-seen order,
    so its vertices are those `from_vertices` gives the drawn measures."""
    count = 1 + rng.next_below(max_vertices)
    return CredalSet(ground, VERTICES,
                     rows=tuple(dict.fromkeys(_measure_row(ground, rng, grid) for _ in range(count))))
