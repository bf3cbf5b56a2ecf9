"""Reference pseudo-random generator for reproducible corpora.

All seeded generators in this package draw from the splitmix64 sequence with
the constants below, so fixtures can be regenerated bit-for-bit by any
implementation of the same recurrence:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output: z xor (z >> 31)

Bounded draws are plain remainders (`next_u64() % bound`); the modulo bias is
irrelevant at fixture scale and keeps the contract one line long.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform-ish draw from 0..bound-1."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound
