"""Credal sets (convex sets of probability measures), core polytopes, lower
envelopes, credal pushforward, and the retraction / naturality checks.

A credal set is held either as a finite vertex list, as a core-style
constraint system (lower bounds on subset masses over the probability
simplex), or as a lazy pushforward of another credal set along a point map.
No vertex enumeration ever happens for constraint systems: every identity
tested here compares lower (and upper) envelopes, which are per-subset LP
values, so support-function evaluation is all that is needed.  Two credal
sets are treated as equal when their lower and upper envelopes agree on every
subset; deciding full polytope equality is out of scope.
"""

from __future__ import annotations

from fractions import Fraction

from .capacity import Capacity, Measure, measure_pushforward, pushforward
from .classify import is_exact
from .errors import CoreEmpty, GroundMismatch, InfeasibleCredal, NotExact
from .ground import ONE, ZERO, GroundSet, PointMap, check_subset
from .lp import CoreMinimum, CoreSystem
# LinearProgram, Row and solve_dualized stay importable here for tools that
# hook LP construction and solves per module
from .lp import LinearProgram, Row  # noqa: F401
from .lp.solver import solve_dualized  # noqa: F401

VERTICES = "vertices"
CONSTRAINTS = "constraints"
PUSHED = "pushed"


class CredalSet:
    """Nonempty closed convex set of probability measures on a finite ground set."""

    __slots__ = ("ground", "kind", "vertices", "bounds", "base_map", "base_set", "_cache",
                 "_system")

    def __init__(self, ground: GroundSet, kind: str, *, vertices=None, bounds=None,
                 base_map=None, base_set=None):
        self.ground = ground
        self.kind = kind
        self.vertices = vertices
        self.bounds = bounds
        self.base_map = base_map
        self.base_set = base_set
        # (mask, lowest) -> min or max mass of mask over the set
        self._cache: dict[tuple[int, bool], Fraction] = {}
        self._system: CoreSystem | None = None  # constraint form, built on first use

    # --- constructors ---

    @classmethod
    def from_vertices(cls, measures) -> "CredalSet":
        measures = list(measures)
        if not measures:
            raise ValueError("a credal set needs at least one measure")
        ground = measures[0].ground
        seen = []
        for mu in measures:
            if mu.ground != ground:
                raise GroundMismatch("vertex measures live on different ground sets")
            if mu not in seen:
                seen.append(mu)
        return cls(ground, VERTICES, vertices=tuple(seen))

    @classmethod
    def from_constraints(cls, ground: GroundSet, bounds) -> "CredalSet":
        """Core-style system {mu >= 0, mu(X) = 1, mu(A) >= bounds[A]}.

        Rejects the empty subset as a key and raises InfeasibleCredal when the
        system has no solution (credal sets are nonempty by definition).
        """
        clean = {}
        for mask, value in bounds.items():
            if mask == 0:
                raise ValueError("the empty set cannot carry a lower bound")
            check_subset(mask, ground)
            clean[mask] = Fraction(value)
        alpha = cls(ground, CONSTRAINTS, bounds=clean)
        alpha.min_mass(ground.full)  # feasibility probe
        return alpha

    # --- support-function evaluation ---

    def min_mass(self, mask: int) -> Fraction:
        return self._mass(mask, lowest=True)

    def max_mass(self, mask: int) -> Fraction:
        return self._mass(mask, lowest=False)

    def _mass(self, mask: int, lowest: bool) -> Fraction:
        check_subset(mask, self.ground)
        if mask == 0:
            return ZERO
        key = (mask, lowest)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not lowest:
            # every member has total mass 1, so max mu(B) = 1 - min mu(X - B)
            value = ONE - self._mass(self.ground.full & ~mask, True)
        elif self.kind == VERTICES:
            value = min(mu.mass(mask) for mu in self.vertices)
        elif self.kind == PUSHED:
            value = self.base_set._mass(self.base_map.preimage(mask), True)
        else:
            value = self._core_minimum(mask).value
        self._cache[key] = value
        return value

    def _core_minimum(self, mask: int) -> CoreMinimum:
        if self._system is None:
            masks = sorted(self.bounds)
            self._system = CoreSystem(self.ground.n, masks, (self.bounds[a] for a in masks))
        try:
            return self._system.minimum(mask)
        except CoreEmpty:
            raise InfeasibleCredal("constraint system admits no probability measure") from None

    def some_member(self) -> Measure:
        """Any measure in the set (a vertex, or an LP-feasible point)."""
        if self.kind == VERTICES:
            return self.vertices[0]
        if self.kind == PUSHED:
            return measure_pushforward(self.base_map, self.base_set.some_member())
        return Measure(self.ground, self._core_minimum(0).point)


def core_polytope(nu: Capacity) -> CredalSet:
    """The core {mu : mu(A) >= v(A) for all A} as a constraint-form credal set."""
    bounds = {mask: nu[mask] for mask in nu.ground.proper_nonempty_subsets()}
    try:
        return CredalSet.from_constraints(nu.ground, bounds)
    except InfeasibleCredal:
        raise CoreEmpty("capacity is unbalanced: the core polytope is empty") from None


def lower_envelope(alpha: CredalSet) -> Capacity:
    """Pointwise minimum capacity A -> min { mu(A) : mu in alpha }."""
    values = [ZERO] * alpha.ground.table_size
    for mask in alpha.ground.proper_nonempty_subsets():
        values[mask] = alpha.min_mass(mask)
    values[alpha.ground.full] = ONE
    return Capacity(alpha.ground, values)


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
    """Extensional equality: lower and upper envelopes agree on every subset."""
    if alpha.ground != beta.ground:
        return False
    for mask in alpha.ground.nonempty_subsets():
        if alpha.min_mass(mask) != beta.min_mass(mask):
            return False
        if alpha.max_mass(mask) != beta.max_mass(mask):
            return False
    return True


def check_retraction(nu: Capacity) -> bool:
    """Envelope of the core gives back the capacity (identity on exact ones)."""
    exact, _ = is_exact(nu)
    if not exact:
        raise NotExact("retraction check is only defined for exact capacities")
    return lower_envelope(core_polytope(nu)) == nu


def check_naturality(f: PointMap, alpha: CredalSet) -> bool:
    """Envelope of the pushforward equals pushforward of the envelope.

    The two sides run through independent code paths: the left side evaluates
    mass minima of the pushed credal set, the right side pushes the envelope
    capacity through subset preimages.
    """
    if alpha.ground != f.domain:
        raise GroundMismatch("credal set is not on the domain of the map")
    left = lower_envelope(credal_pushforward(f, alpha))
    right = pushforward(f, lower_envelope(alpha))
    return left == right


def random_credal(ground: GroundSet, rng, max_vertices: int, grid: int) -> CredalSet:
    """Seeded vertex-form credal set with 1..max_vertices random measures."""
    from .capacity import random_measure

    count = 1 + rng.next_below(max_vertices)
    return CredalSet.from_vertices(
        [random_measure(ground, rng, grid) for _ in range(count)]
    )
