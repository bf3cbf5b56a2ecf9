"""The revised Bland loop behind `CoreSystem.minimum` and `cover_maximum`
against the dense tableau it replaced: equal results and the same pivots."""

from fractions import Fraction as F

import pytest

from oracles import dense_core_minimum, dense_cover_maximum

from capax.capacity import Capacity, random_convex_mixture, random_monotone
from capax.classify import is_exact
from capax.credal import lower_envelope, random_credal
from capax.errors import CoreEmpty
from capax.ground import GroundSet
from capax.lp import CoreSystem, cover_maximum
from capax.lp import _tableau_py
from capax.rng import SplitMix64


class Log:
    pivots = 0

    def __init__(self):
        self.rays = []

    def solved(self, call):
        """(result, pivots) of call(): its value, or for CoreEmpty the ray
        `CoreSystem` checked before raising it."""
        self.pivots = 0
        self.rays.clear()
        try:
            result = call()
        except CoreEmpty:
            (result,) = self.rays
        return result, self.pivots


@pytest.fixture
def log(monkeypatch):
    """Counts every kernel pivot and records every Farkas check from now on."""
    log = Log()
    pivot, refutes = _tableau_py.Tableau.pivot, CoreSystem.refutes

    def counting_pivot(self, r, c):
        log.pivots += 1
        return pivot(self, r, c)

    def recording_refutes(self, shift, multipliers):
        log.rays.append((shift, tuple(multipliers)))
        return refutes(self, shift, multipliers)

    monkeypatch.setattr(_tableau_py.Tableau, "pivot", counting_pivot)
    monkeypatch.setattr(CoreSystem, "refutes", recording_refutes)
    return log


def capacity_tables(n, rng):
    """A random monotone (at n >= 4 mostly with an empty core), a convex and
    an exact table on n points."""
    g = GroundSet(n)
    tables = [random_monotone(g, rng.next_u64(), 6).values,
              random_convex_mixture(g, rng.next_u64(), 6).values]
    if n >= 2:
        tables.append(lower_envelope(random_credal(g, rng, n + 1, 8)).values)
    return tables


def explicit_system(n, rng):
    """Random masks in random order, some repeated with other bounds, each
    bound k / (8 |A|) for k in 0..8: often solvable, sometimes empty."""
    full = (1 << n) - 1
    masks, bounds = [], []
    for _ in range(rng.next_below(2 << n) + 1):
        a = rng.next_below(full) + 1
        masks.append(a)
        bounds.append(F(rng.next_below(9), 8 * bin(a).count("1")))
    return CoreSystem(n, masks, bounds)


def systems(n, seed):
    rng = SplitMix64(seed)
    out = [CoreSystem(n, range(1, (1 << n) - 1), values[1:-1])
           for values in capacity_tables(n, rng)]
    out.extend(explicit_system(n, rng) for _ in range(3))
    if n >= 2:  # one mask repeated, first with the lower bound
        out.append(CoreSystem(n, [1, 1, (1 << n) - 2], [F(1, 4), F(1, 3), F(1, 2)]))
    # the singletons in descending order, bounds summing to 9/8: an empty core
    out.append(CoreSystem(n, [1 << j for j in reversed(range(n))], [F(9, 8 * n)] * n))
    return out


def subsets(n):
    return range(1 << n) if n <= 5 else range(0, 1 << n, 5)


class TestAgainstDenseTableau:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_core_minimum(self, n, log):
        empty = solvable = pivots = 0
        for system in systems(n, 31 * n):
            for subset in subsets(n):
                got = log.solved(lambda: system.minimum(subset))
                dense = log.solved(lambda: dense_core_minimum(system, subset))
                assert got == dense, (system.masks, system.bounds, subset)
                if isinstance(got[0], tuple):
                    empty += 1
                else:
                    solvable += 1
                pivots += got[1]
        assert solvable and empty and pivots

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cover_maximum(self, n, log):
        pivots = 0
        for values in capacity_tables(n, SplitMix64(17 * n)):
            for bound in subsets(n):
                if bound:
                    got = log.solved(lambda: cover_maximum(values, bound))
                    assert got == log.solved(lambda: dense_cover_maximum(values, bound))
                    pivots += got[1]
        assert pivots


class TestNarrowTableau:
    def test_no_tableau_is_wider_than_n_plus_2(self, monkeypatch):
        n = 6
        widths = []

        class Recorded(_tableau_py.Tableau):
            __slots__ = ()

            def __init__(self, matrix, basis, ncols):
                super().__init__(matrix, basis, ncols)
                widths.append(ncols + 1)  # the rhs too

        monkeypatch.setattr(_tableau_py, "Tableau", Recorded)
        g = GroundSet(n)
        # exact but not convex: no marginal vector settles every subset
        nu = lower_envelope(random_credal(g, SplitMix64(6), n + 1, 8))
        assert is_exact(Capacity(g, list(nu.values)))[0]
        exact_tableaux = len(widths)
        cover_maximum(nu.values, g.full)
        assert exact_tableaux > 1 and len(widths) == exact_tableaux + 1
        assert max(widths) <= n + 2
