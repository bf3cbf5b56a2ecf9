"""Ground sets, subset codes, exact rational scalars and point maps.

Everything downstream works over a finite ground set of n points identified
with 0..n-1.  A subset is an n-bit mask (`int`): bit i set means point i is in
the subset.  The only scalar type is `fractions.Fraction`, re-exported as
`Rat`; no floating point appears anywhere in the math core.

Every capax certificate is a point whose subset masses must meet bounds, or
a weighted family of subsets whose per-point loads must stay under caps.
`scaled_masses` (with `point_masses`, its front end for Fractions, which
`integer_point` puts over their common denominator) and `family_total` check
the two in integers over one common denominator, and leave each caller only
its own sign and equality rules.  `least_masses` is the lower envelope of
finitely many such points, the least mass per subset over their integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import gt
from typing import Iterator

from .errors import GroundMismatch

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_POINTS = 16


def format_rat(q: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(q)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or "p"; rejects zero denominators and junk."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


def _shared_ratio(num: int, den: int) -> Fraction:
    """num / den as the one Fraction object `_lowest_terms` holds for it, so
    tables that share a value share its object."""
    g = gcd(num, den)
    return _lowest_terms(num // g, den // g)


@lru_cache(maxsize=4096)
def _lowest_terms(num: int, den: int) -> Fraction:
    """The Fraction num / den, for coprime num and den; the cache is bounded,
    so a value evicted and met again is a new, equal object."""
    return Fraction(num, den)


@dataclass(frozen=True, slots=True)
class GroundSet:
    """Finite ground set with points 0..n-1."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POINTS:
            raise ValueError(f"ground set size must be 1..{MAX_POINTS}, got {self.n}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def table_size(self) -> int:
        return 1 << self.n

    def points(self) -> range:
        return range(self.n)

    def subsets(self) -> range:
        """All subset codes, ascending (0 is empty, full is last)."""
        return range(1 << self.n)

    def nonempty_subsets(self) -> range:
        return range(1, 1 << self.n)

    def proper_nonempty_subsets(self) -> range:
        return range(1, (1 << self.n) - 1)

    def contains_subset(self, mask: int) -> bool:
        return 0 <= mask <= self.full


def subset_indices(mask: int) -> tuple[int, ...]:
    """Points of a subset code, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_sums(ints) -> list[int]:
    """sums[S] = the sum of ints[j] over the points j of S, for every subset
    code S of the points of `ints`: the table over points 0..j-1 doubles to
    0..j, its copy adding ints[j]."""
    sums = [0]
    for v in ints:
        sums += [s + v for s in sums] if v else sums
    return sums


def integer_point(x) -> tuple[int, list[int]]:
    """(den, ints) with x = ints / den, den the common denominator of the
    Fractions x."""
    den = lcm(*(q.denominator for q in x))
    return den, [q.numerator * (den // q.denominator) for q in x]


def least_masses(rows) -> tuple[int, list[int]]:
    """(den, least) with least[S] / den = min x(S) over the points x = ints / d
    of `rows`, pairs (d, ints) with d > 0, for every subset code S, in lowest
    terms so equal envelopes give equal tables: each row rescaled to the rows'
    common denominator, its mass table by `subset_sums`, then the least entry
    per subset."""
    den = lcm(*(d for d, _ in rows))
    least = list(map(min, zip(*(subset_sums(ints if d == den else [v * (den // d) for v in ints])
                                for d, ints in rows))))
    g = gcd(den, *least)
    return (den, least) if g == 1 else (den // g, [v // g for v in least])


def point_masses(x, rows=()):
    """`scaled_masses` of a point of Fractions, over their common denominator."""
    den, ints = integer_point(x)
    return scaled_masses(ints, den, rows)


def scaled_masses(ints, den: int, rows=(), floor=()):
    """The mass check of x = ints / den: (den, mass) with mass[S] = den * x(S)
    for every subset code S, in lowest terms so equal points give equal tables,
    when x >= 0, mass >= floor entrywise and sign * x(A) >= num / bden for
    every (A, sign, num, bden) in `rows`; else None."""
    if any(v < 0 for v in ints):
        return None
    mass = subset_sums(ints)
    if any(map(gt, floor, mass)) or \
            any(sign * mass[a] * bden < num * den for a, sign, num, bden in rows):
        return None
    g = gcd(den, *ints)
    return (den, mass) if g == 1 else (den // g, [v // g for v in mass])


def family_total(n: int, sets, weights, cap: int, costs=None, shift=ZERO):
    """The load check: shift + the sum of weight * cost over a weighted family
    of subsets of n points (costs 0 when None), when `cap` and every set are
    subset codes over the n points, every weight is >= 0 and each point j's
    load, shift + the weights of the sets that contain j, is at most 1 for j
    in `cap` and 0 off it; else None.  Loads are compared in integers over the
    common denominator of `shift` and the weights.  `costs`, one per set, is
    read after every set has passed, so a lazy `map` over a value table is
    safe."""
    kept = [(k, a, w) for k, (a, w) in enumerate(zip(sets, weights)) if w]
    # x >> n is nonzero for a negative x too
    if cap >> n or any(a >> n for a in sets) or any(w < 0 for _, _, w in kept):
        return None
    den = lcm(shift.denominator, *(w.denominator for _, _, w in kept))
    base = shift.numerator * (den // shift.denominator)
    shares = [(k, a, w.numerator * (den // w.denominator)) for k, a, w in kept]
    load = [base] * n
    for _, a, share in shares:
        for j in subset_indices(a):
            load[j] += share
    if any(v > den * (cap >> j & 1) for j, v in enumerate(load)):
        return None
    if costs is None:
        return shift
    costs = tuple(costs)
    cden = lcm(*(costs[k].denominator for k, _, _ in kept))
    num = sum(share * costs[k].numerator * (cden // costs[k].denominator) for k, _, share in shares)
    return Fraction(base * cden + num, den * cden)


def subset_of_indices(indices) -> int:
    mask = 0
    for i in indices:
        if i < 0:
            raise ValueError("negative point index")
        mask |= 1 << i
    return mask


def format_subset(mask: int) -> str:
    """Brace-enclosed comma list of 0-based indices, e.g. "{0,2}"."""
    return "{" + ",".join(str(i) for i in subset_indices(mask)) + "}"


def parse_subset(text: str) -> int:
    """Inverse of `format_subset`; tolerates spaces after commas."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"subset must be brace-enclosed, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return 0
    mask = 0
    for part in body.split(","):
        part = part.strip()
        if not part.isdigit():
            raise ValueError(f"bad point index {part!r} in subset {text!r}")
        i = int(part)
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"repeated point {i} in subset {text!r}")
        mask |= bit
    return mask


def char_vector(mask: int, ground: GroundSet) -> tuple[Fraction, ...]:
    """Characteristic vector of a subset: entry i is 1 if i is in the subset."""
    check_subset(mask, ground)
    return tuple(ONE if mask >> i & 1 else ZERO for i in ground.points())


def check_subset(mask: int, ground: GroundSet):
    """Raise GroundMismatch unless `mask` is a subset code over `ground`."""
    if not ground.contains_subset(mask):
        raise GroundMismatch(f"subset code {mask:#b} not valid over {ground.n} points")


@dataclass(frozen=True)
class PointMap:
    """Total map between ground sets, given by the image of every point."""

    domain: GroundSet
    codomain: GroundSet
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) != self.domain.n:
            raise ValueError("image list length must equal domain size")
        for y in self.image:
            if not 0 <= y < self.codomain.n:
                raise ValueError(f"image point {y} outside codomain of size {self.codomain.n}")

    def __call__(self, x: int) -> int:
        return self.image[x]

    def preimage(self, mask: int) -> int:
        """Subset of the domain mapping into the given codomain subset."""
        check_subset(mask, self.codomain)
        out = 0
        for x, y in enumerate(self.image):
            if mask >> y & 1:
                out |= 1 << x
        return out

    def forward_image(self, mask: int) -> int:
        check_subset(mask, self.domain)
        out = 0
        for x, y in enumerate(self.image):
            if mask >> x & 1:
                out |= 1 << y
        return out

    def is_surjective(self) -> bool:
        return self.forward_image(self.domain.full) == self.codomain.full


def identity_map(ground: GroundSet) -> PointMap:
    return PointMap(ground, ground, tuple(ground.points()))


def compose(g: PointMap, f: PointMap) -> PointMap:
    """g after f."""
    if f.codomain != g.domain:
        raise GroundMismatch("cannot compose maps: codomain of f is not domain of g")
    return PointMap(f.domain, g.codomain, tuple(g.image[y] for y in f.image))


def random_point_map(domain: GroundSet, codomain: GroundSet, rng,
                     surjective: bool = False) -> PointMap:
    """Seeded random map; with `surjective`, rejection-samples until onto.

    Draw order: one `next_below(m)` per domain point, ascending.  A
    surjective map onto more points than the domain has raises ValueError
    before any draw.
    """
    if surjective and codomain.n > domain.n:
        raise ValueError(f"no map from {domain.n} points onto {codomain.n}")
    while True:
        image = tuple(rng.next_below(codomain.n) for _ in domain.points())
        f = PointMap(domain, codomain, image)
        if not surjective or f.is_surjective():
            return f


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
