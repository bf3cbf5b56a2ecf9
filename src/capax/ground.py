"""Ground sets, subset codes, exact rational scalars and point maps.

Everything downstream works over a finite ground set of n points identified
with 0..n-1.  A subset is an n-bit mask (`int`): bit i set means point i is in
the subset.  The only scalar type is `fractions.Fraction`, re-exported as
`Rat`; no floating point appears anywhere in the math core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import GroundMismatch

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_POINTS = 16


def rat(value) -> Fraction:
    """Coerce an int, string like "3/4", or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


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


@dataclass(frozen=True)
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

    Draw order: one `next_below(m)` per domain point, ascending.
    """
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
