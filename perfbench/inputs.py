"""Seeded inputs for the capax benchmark, generated by the benchmark itself.

Capacities are produced here as plain tables of Fractions indexed by subset
code, so a change to the generators in `capax.capacity` cannot change what
the benchmark measures.  The caller wraps each table in a `capax.Capacity`.

The random stream is splitmix64, the same recurrence capax documents in
`capax.rng`; it is restated here so the inputs stay fixed whatever capax
does to its own copy.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1

# Master seed of the classification pool; the recorded flags in
# corpus_flags.txt are facts about the pool members it generates.
POOL_SEED = 20260809
POOL_COPIES = 4


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def monotone_table(n: int, rng: SplitMix64, grid: int) -> list[Fraction]:
    """Monotone closure of one grid value per nonempty proper subset."""
    full = (1 << n) - 1
    raw = [Fraction(0)] * (full + 1)
    for mask in range(1, full):
        raw[mask] = Fraction(rng.below(grid + 1), grid)
    raw[full] = Fraction(1)
    values = [Fraction(0)] * (full + 1)
    for mask in range(1, full + 1):
        best = raw[mask]
        for i in range(n):
            bit = 1 << i
            if mask & bit and values[mask & ~bit] > best:
                best = values[mask & ~bit]
        values[mask] = best
    return values


def unanimity_mixture_table(n: int, rng: SplitMix64, grid: int) -> list[Fraction]:
    """Convex mixture of the unanimity games of all nonempty carriers."""
    full = (1 << n) - 1
    weights = [rng.below(grid + 1) for _ in range(full)]  # carrier c has weights[c-1]
    total = sum(weights)
    if total == 0:
        weights[-1] = total = 1
    values = []
    for mask in range(full + 1):
        acc = sum(w for c, w in enumerate(weights, 1) if mask & c == c)
        values.append(Fraction(acc, total))
    return values


def envelope_table(n: int, rng: SplitMix64, vertices: int, grid: int) -> list[Fraction]:
    """Lower envelope of `vertices` random rational probability vectors."""
    measures = []
    while len(measures) < vertices:
        raw = [rng.below(grid + 1) for _ in range(n)]
        total = sum(raw)
        if total:
            measures.append([Fraction(r, total) for r in raw])
    values = []
    for mask in range(1 << n):
        values.append(min(sum((w for i, w in enumerate(mu) if mask >> i & 1), Fraction(0))
                          for mu in measures))
    return values


# --- classification corpus ---------------------------------------------------------
#
# The corpus has the shape of acceptance criterion 1: per n in 2..5, 250 random
# monotone capacities (grid 2 + i % 15) and 50 unanimity mixtures (grid 2 + i % 9),
# 1200 slots in all.  The pool holds POOL_COPIES independent members per slot; a
# workload seed picks one copy per slot and an order, so every seed runs the same
# mix and every member's class flags are known in advance.


def _corpus_slots() -> tuple[tuple[int, str, int], ...]:
    slots = []
    for n in (2, 3, 4, 5):
        slots.extend((n, "monotone", 2 + i % 15) for i in range(250))
        slots.extend((n, "mixture", 2 + i % 9) for i in range(50))
    return tuple(slots)


CORPUS_SLOTS = _corpus_slots()
POOL_SIZE = POOL_COPIES * len(CORPUS_SLOTS)


def pool_member(index: int) -> tuple[int, list[Fraction]]:
    """Pool member `index` in 0 .. POOL_SIZE - 1, as (n, table)."""
    n, family, grid = CORPUS_SLOTS[index % len(CORPUS_SLOTS)]
    rng = SplitMix64(SplitMix64(POOL_SEED ^ (index * 0x9E3779B97F4A7C15)).next_u64())
    if family == "monotone":
        return n, monotone_table(n, rng, grid)
    return n, unanimity_mixture_table(n, rng, grid)


def corpus_indices(seed: int) -> list[int]:
    """Pool indices of the workload seed's corpus, in run order."""
    rng = SplitMix64(seed)
    count = len(CORPUS_SLOTS)
    chosen = [rng.below(POOL_COPIES) * count + slot for slot in range(count)]
    for i in range(count - 1, 0, -1):  # Fisher-Yates, so any prefix has the full mix
        j = rng.below(i + 1)
        chosen[i], chosen[j] = chosen[j], chosen[i]
    return chosen


# --- core sweep inputs ---------------------------------------------------------------


def core_sweep_tables(seed: int, count: int, n: int = 6) -> list[list[Fraction]]:
    """Exact capacities on n points, alternating the two families.

    Even positions are unanimity mixtures (convex, degenerate cores with many
    vertices); odd positions are envelopes of 2..n+1 random vertex measures
    (few core vertices).
    """
    rng = SplitMix64(seed ^ 0xC0DE5EED)
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(unanimity_mixture_table(n, rng, 8))
        else:
            out.append(envelope_table(n, rng, 2 + rng.below(n), 16))
    return out
