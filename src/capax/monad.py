"""Capacity-monad structure on a finitely supported model of second-order
capacities.

A second-order capacity here is a capacity on the (infinite) space of
capacities that happens to be carried by a finite list of support capacities:
its value on a set K of capacities depends only on which support members K
contains, through a weight game on the index set.  This desk model is closed
under the monad unit and is exactly what the counterexample search explores;
nothing here claims to represent general second-order capacities.

The multiplication collapses a second-order capacity C to the capacity

    F  |->  sup { t in [0,1] : C({ c : c(F) >= t }) >= t }.

On finite support the sup is attained on a finite candidate set: over the
distinct positive support values v_1 < ... < v_m of F, the superlevel set
{ c : c(F) >= t } is constant on each interval (v_{j-1}, v_j], so the best
qualifying t in that interval is min(v_j, w_j) where w_j is the weight-game
value of the superlevel index set (qualifying only when above v_{j-1});
t = 0 always qualifies.  Walking from v_m down, the first qualifying t is
the sup.  The walk runs on integers over one common denominator of the
support and game tables, and returns the inputs' own Fraction objects: v_j
from the lowest support index holding it, w_j from the game.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .capacity import Capacity, dirac
from .errors import GroundMismatch
from .ground import ONE, ZERO, GroundSet


@dataclass(frozen=True, slots=True)
class SecondOrderCapacity:
    """Finitely supported capacity on the space of capacities over `ground`.

    `support` lists the carrier capacities (pairwise distinct by exact table
    comparison); `game` is the weight capacity on the k-point index set, so
    the semantics is C(K) = game({ i : support[i] in K }).
    """

    ground: GroundSet
    support: tuple[Capacity, ...]
    game: Capacity

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        if not self.support:
            raise ValueError("support must be nonempty")
        for nu in self.support:
            if nu.ground != self.ground:
                raise GroundMismatch("support capacity on the wrong ground set")
        for i, a in enumerate(self.support):
            for b in self.support[i + 1:]:
                if a == b:
                    raise ValueError("support capacities must be pairwise distinct")
        if self.game.ground.n != len(self.support):
            raise GroundMismatch(
                f"weight game needs one point per support entry "
                f"({len(self.support)}), got {self.game.ground.n}"
            )

    @property
    def size(self) -> int:
        return len(self.support)

    def member_mask(self, members) -> int:
        """Index mask of a set of capacities (by exact table equality)."""
        mask = 0
        for nu in members:
            for i, s in enumerate(self.support):
                if s == nu:
                    mask |= 1 << i
                    break
            else:
                raise ValueError("capacity not in the support")
        return mask

    def value_on(self, members) -> Fraction:
        """C(K) for a finite set K of capacities."""
        return self.game[self.member_mask(members)]


def unit_second(nu: Capacity) -> SecondOrderCapacity:
    """Dirac mass at the point `nu` of the capacity space."""
    one_point = GroundSet(1)
    return SecondOrderCapacity(nu.ground, (nu,), Capacity(one_point, (ZERO, ONE)))


def lift_unit(nu: Capacity) -> SecondOrderCapacity:
    """Pushforward of `nu` along the unit: support all Diracs, weights by `nu`.

    The weight game table equals the capacity's table under the identification
    of index i with point i.
    """
    g = nu.ground
    support = tuple(dirac(x, g) for x in g.points())
    return SecondOrderCapacity(g, support, Capacity(GroundSet(g.n), nu.values))


def monad_mul(c2: SecondOrderCapacity) -> Capacity:
    """Multiplication of the capacity monad on the finite-support model."""
    ground, support, game = c2.ground, c2.support, c2.game
    tables = [nu.values for nu in support]
    den = lcm(*{v.denominator for table in (*tables, game.values) for v in table})
    weights = [v.numerator * (den // v.denominator) for v in game.values]
    columns = zip(*([v.numerator * (den // v.denominator) for v in table] for table in tables))
    down = range(len(tables) - 1, -1, -1)  # so equal values sort to end on the lowest index
    values = [ZERO] * ground.table_size
    for mask, col in enumerate(columns):
        order = sorted(down, key=col.__getitem__, reverse=True)
        idx = 0
        for i, lower in zip(order, [col[j] for j in order[1:]] + [0]):
            idx |= 1 << i
            if col[i] != lower and weights[idx] > lower:
                values[mask] = tables[i][mask] if col[i] < weights[idx] else game.values[idx]
                break
    return Capacity._built(ground, tuple(values))
