"""The revised Bland loop behind `CoreSystem.minimum` and `cover_maximum`
against the dense tableau it replaced: equal results and the same pivots,
less a cover's singleton prefix, which `cover_maximum` takes with none."""

from fractions import Fraction as F

import pytest

from oracles import (capacity_tables, dense_core_minimum, dense_cover_maximum, explicit_system,
                     singleton_path)

from capax.capacity import Capacity
from capax.classify import is_exact
from capax.credal import lower_envelope, random_credal
from capax.errors import CoreEmpty, InternalInconsistency
from capax.ground import GroundSet
from capax.lp import CoreSystem, cover_maximum
from capax.lp import _tableau_py
from capax.lp import core as core_module
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
        # the singleton prefix of Bland's path is taken with no pivot
        pivots = prefixes = 0
        for values in capacity_tables(n, SplitMix64(17 * n)):
            for bound in subsets(n):
                if bound:
                    got, spent = log.solved(lambda: cover_maximum(values, bound))
                    dense, dense_spent = log.solved(lambda: dense_cover_maximum(values, bound))
                    prefix, _ = singleton_path(values, bound)
                    assert got == dense and spent + prefix == dense_spent
                    pivots += spent
                    prefixes += prefix
        assert prefixes and (pivots or n == 1)  # one point: its path is all singleton


class TestNarrowTableau:
    def test_no_tableau_is_wider_than_n_plus_2(self, monkeypatch, log):
        n = 6
        widths = []

        class Recorded(_tableau_py.Tableau):
            __slots__ = ()

            def __init__(self, matrix, basis, ncols):
                super().__init__(matrix, basis, ncols)
                widths.append(ncols + 1)  # the rhs too

        monkeypatch.setattr(_tableau_py, "Tableau", Recorded)
        dual, warm = core_module._dual, []

        def counted(tab, columns):
            before = log.pivots
            dual(tab, columns)
            warm.append(log.pivots - before)

        monkeypatch.setattr(core_module, "_dual", counted)
        g = GroundSet(n)
        # exact but not convex: no marginal vector settles every subset, so
        # the first cold minimum's tableau goes on into warm minima
        nu = lower_envelope(random_credal(g, SplitMix64(6), n + 1, 8))
        assert is_exact(Capacity(g, list(nu.values)))[0]
        assert len(widths) == 1 and sum(warm) >= 1  # the first minimum's; no cover
        cover_maximum(nu.values, g.full)
        assert widths and max(widths) <= n + 2


class TestBasisRepeatGuard:
    """A kernel fault that makes a pivot loop cycle raises instead of hanging."""

    def test_reversed_ratio_tie_rule(self, monkeypatch):
        leaving_row = _tableau_py.Tableau.leaving_row

        def ties_to_the_largest_id(self, c):
            basis = self.basis
            self.basis = [-t for t in basis]
            try:
                return leaving_row(self, c)
            finally:
                self.basis = basis

        monkeypatch.setattr(_tableau_py.Tableau, "leaving_row", ties_to_the_largest_id)
        system = systems(6, 48)[3]  # an explicit system this rule cycles on
        with pytest.raises(InternalInconsistency, match="revisited a basis"):
            system.minimum(39)
        with pytest.raises(InternalInconsistency, match="revisited a basis"):
            dense_core_minimum(system, 39)

    def test_wrong_scratch_column_sum(self, monkeypatch):
        load = core_module._load

        def one_too_many(tab, loaded, target, sign, rows):
            load(tab, loaded, target, sign, rows)
            if target == tab.m and len(loaded) > 1:  # B^-1 a of a column on 2+ points
                tab.nums[0][target] += tab.dens[0][target]

        monkeypatch.setattr(core_module, "_load", one_too_many)
        with pytest.raises(InternalInconsistency, match="revisited a basis"):
            systems(2, 62)[0].minimum(0)

    def test_dual_row_with_no_entering_column(self, monkeypatch):
        system = CoreSystem(2, [0b01, 0b10], [F(1, 4), F(1, 4)])
        system.minimum(0)  # its optimum's tableau is stored, so the next minimum is warm
        load = core_module._load

        def negative_row(tab, loaded, target, sign, rows):
            load(tab, loaded, target, sign, rows)
            if target == tab.m + 1:  # row 0 of B^-1 zeroed under a negative rhs
                tab.nums[0][:tab.m] = [0] * tab.m
                tab.nums[0][target], tab.dens[0][target] = -1, 1

        monkeypatch.setattr(core_module, "_load", negative_row)
        with pytest.raises(InternalInconsistency, match="no entering column"):
            system._warm_minimum(0b11)  # from the tableau of minimum(0)
