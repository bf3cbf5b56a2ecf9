"""cover_maximum, the weighted-cover LP behind balancedness and total
balancedness, against the general LP it replaced, and its certificate check."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from oracles import capacity_tables, dense_cover_maximum, shift_cell, singleton_path

from capax import classify
from capax.capacity import (
    BalancedFamily,
    Capacity,
    random_convex_mixture,
    random_monotone,
)
from capax.classify import _cover_lp, is_totally_balanced
from capax.credal import lower_envelope, random_credal
from capax.errors import GroundMismatch, InternalInconsistency, ShapeMismatch
from capax.ground import GroundSet, subset_indices
from capax.lp import cover_certifies, cover_maximum
from capax.lp.core import shared_full_cover
from capax.lp import _tableau_py, core, solver
from capax.lp.model import OPTIMAL
from capax.lp.solver import solve
from capax.rng import SplitMix64


def capacities(n, seed):
    """A random monotone, a convex and an exact capacity on n points."""
    g = GroundSet(n)
    rng = SplitMix64(seed)
    return [random_monotone(g, rng.next_u64(), 6),
            random_convex_mixture(g, rng.next_u64(), 6),
            lower_envelope(random_credal(g, rng, n + 1, 8))]


def table(*values):
    return [F(v) for v in values]


class TestAgainstGeneralLp:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_subset(self, n):
        for seed in range(2 if n < 6 else 1):
            for nu in capacities(n, 10 * n + seed):
                for bound in nu.ground.nonempty_subsets():
                    lp, members = _cover_lp(nu, bound)
                    out = solve(lp)
                    assert out.status == OPTIMAL
                    best = cover_maximum(nu.values, bound)
                    assert best.value == out.value
                    assert tuple(best.point[j] for j in subset_indices(bound)) == out.dual
                    family = BalancedFamily(
                        tuple(a for a, w in zip(members, out.primal) if w),
                        tuple(w for w in out.primal if w),
                    )
                    # the predicates' family, and at the full set the shared cover
                    assert BalancedFamily(best.sets, best.weights) == family
                    if bound == nu.ground.full:
                        assert shared_full_cover(nu.values) == best


class TestCertificates:
    # an additive game: the only optimal dual point is the measure itself
    additive = table(0, F(1, 2), F(1, 2), 1)
    # point 0 alone is worth nothing, so weight on {0} leaves the objective
    null_point = table(0, 0, F(1, 2), 1)

    def test_genuine_certificates_pass(self):
        for values in (self.additive, self.null_point):
            for bound in (1, 2, 3):
                assert cover_certifies(values, bound, cover_maximum(values, bound))

    def test_dual_point_below_a_bound_fails(self):
        best = cover_maximum(self.additive, 0b11)
        assert best.point == (F(1, 2), F(1, 2))
        # y(B) and y >= 0 still hold; y({0}) = 1/4 < 1/2 does not
        assert not cover_certifies(self.additive, 0b11,
                                   replace(best, point=(F(1, 4), F(3, 4))))

    def test_negative_dual_point_fails(self):
        best = cover_maximum(self.additive, 0b11)
        assert not cover_certifies(self.additive, 0b11,
                                   replace(best, point=(F(-1, 2), F(3, 2))))

    def test_dual_point_off_the_bound_fails(self):
        best = cover_maximum(self.additive, 0b01)
        assert best.point == (F(1, 2), 0)
        assert not cover_certifies(self.additive, 0b01,
                                   replace(best, point=(F(1, 2), F(1, 4))))

    def test_overloaded_point_fails(self):
        best = cover_maximum(self.null_point, 0b11)
        assert 0b01 not in best.sets
        # one more unit on {0}: same objective, but point 0 carries load 2
        loaded = replace(best, sets=(*best.sets, 0b01), weights=(*best.weights, F(1)))
        assert not cover_certifies(self.null_point, 0b11, loaded)

    def test_negative_weight_fails(self):
        best = cover_maximum(self.null_point, 0b11)
        negative = replace(best, sets=(*best.sets, 0b01), weights=(*best.weights, F(-1)))
        assert not cover_certifies(self.null_point, 0b11, negative)

    def test_set_outside_the_bound_fails(self):
        values = table(0, F(1, 2), 0, 1)
        best = cover_maximum(values, 0b01)
        outside = replace(best, sets=(*best.sets, 0b10), weights=(*best.weights, F(1)))
        assert not cover_certifies(values, 0b01, outside)

    def test_tampered_weight_fails(self):
        best = cover_maximum(self.additive, 0b11)
        assert best.sets == (0b01, 0b10)
        lighter = replace(best, weights=(best.weights[0] - F(1, 3), *best.weights[1:]))
        assert not cover_certifies(self.additive, 0b11, lighter)

    def test_tampered_value_fails(self):
        best = cover_maximum(self.additive, 0b11)
        assert not cover_certifies(self.additive, 0b11, replace(best, value=best.value + F(1, 9)))

    def test_length_mismatch_raises(self):
        best = cover_maximum(self.additive, 0b11)
        with pytest.raises(ShapeMismatch):
            cover_certifies(self.additive, 0b11, replace(best, point=(F(1),)))
        with pytest.raises(ShapeMismatch):
            cover_certifies(self.additive, 0b11, replace(best, weights=(F(1),)))

    def test_invalid_bound_raises(self):
        for bound in (0, 4, -1):
            with pytest.raises(GroundMismatch):
                cover_maximum(self.additive, bound)

    def test_invalid_bound_fails_the_check(self):
        best = cover_maximum(self.additive, 0b11)
        for bound in (0, 4, 5, -1):
            assert not cover_certifies(self.additive, bound, best)

    # each tamper edits the integer cells of the optimal tableau `_revised`
    # returns, before the basis check reads them.  Singletons 0 and pairs
    # 9/10: Bland's path leaves the singletons at {0, 1}, so the LP runs
    pairs = table(0, 0, 0, F(9, 10), 0, F(9, 10), F(9, 10), 1)

    def test_raises_on_a_tampered_dual(self, skewed_optimum):
        # the last point's dual weight grows by 1/3: still a feasible dual
        # point, but y(bound) no longer equals the value
        skewed_optimum(lambda tab, columns: shift_cell(tab, tab.m, tab.m - 1, F(-1, 3)))
        with pytest.raises(InternalInconsistency, match="weighted cover of subset 0b111"):
            cover_maximum(self.pairs, 0b111)

    def test_raises_on_a_tampered_primal(self, skewed_optimum):
        def grow(tab, columns):  # every basic lam_A grows by 1/5
            for i in range(tab.m):
                shift_cell(tab, i, tab.ncols, F(1, 5))

        skewed_optimum(grow)
        with pytest.raises(InternalInconsistency):
            cover_maximum(self.pairs, 0b111)

    def test_raises_on_a_light_primal(self, skewed_optimum):
        def halve(tab, columns):  # every basic lam_A halves: still feasible, but light
            for i in range(tab.m):
                tab.dens[i][tab.ncols] *= 2

        skewed_optimum(halve)
        with pytest.raises(InternalInconsistency):
            cover_maximum(self.pairs, 0b111)

    def test_raises_on_an_overloaded_optimum(self, skewed_optimum):
        # the dual point, the weights and the value all grow by 1/5: the dual
        # stays feasible and both objectives equal the value, but a point the
        # dual weighs is a tight row, now loaded 6/5
        def scale(tab, columns):
            m = tab.m
            for i, j in [*((m, j) for j in range(m)), *((i, m + 1) for i in range(m + 1))]:
                tab.nums[i][j] *= 6
                tab.dens[i][j] *= 5

        skewed_optimum(scale)
        with pytest.raises(InternalInconsistency):
            cover_maximum(self.pairs, 0b111)

    def test_raises_on_a_tampered_value(self, skewed_optimum):
        # -z grows by 1/9: point and weights stay feasible, the objectives do not match
        skewed_optimum(lambda tab, columns: shift_cell(tab, tab.m, tab.ncols, F(1, 9)))
        with pytest.raises(InternalInconsistency):
            cover_maximum(self.pairs, 0b111)


class TestLpCounts:
    def test_totally_balanced_runs_no_generic_solve(self, monkeypatch):
        calls = []
        original = solver.solve

        def counted(lp):
            calls.append(lp)
            return original(lp)

        monkeypatch.setattr(solver, "solve", counted)
        monkeypatch.setattr(classify, "solve", counted)
        verdicts = set()
        for n in range(2, 7):
            for nu in capacities(n, n):
                verdicts.add(is_totally_balanced(nu)[0])
        assert verdicts == {True, False}
        assert calls == []
        nu = Capacity(GroundSet(2), table(0, F(1, 2), F(1, 2), 1))
        classify.classify_full(nu)
        assert calls == []  # balancedness asks the core system, not the generic LP


def path_tables(n, rng):
    """Tables for the singleton path: the seeded capacities of `capacities`,
    the first with its singletons zeroed, a signed table of values in
    -1/2 .. 1/2, and an additive game with some points worth 0, where every
    member is a tie, v(A) the sum of its points' values."""
    tables = [nu.values for nu in capacities(n, rng.next_u64())]
    zeroed = list(tables[0])
    for j in range(n):
        zeroed[1 << j] = F(0)
    signed = [F(0), *(F(rng.next_below(9) - 4, 8) for _ in range(1, 1 << n))]
    weights = [F(rng.next_below(3), 4) for _ in range(n)]
    additive = [sum((weights[j] for j in subset_indices(a)), F(0)) for a in range(1 << n)]
    return [*tables, zeroed, signed, additive]


def broken_at(values, bound):
    """`values` with each member of `bound` that is no singleton a tie, v(A)
    the sum of max(v(j), 0) over its points, and v(bound) 1/7 above that
    sum: Bland's path leaves the singletons at the bound alone."""
    def top(a):
        return sum((max(values[1 << j], F(0)) for j in subset_indices(a)), F(0))

    out = list(values)
    for a in range(1, bound):
        if a & bound == a and a & (a - 1):
            out[a] = top(a)
    out[bound] = top(bound) + F(1, 7)
    return out


class TestSingletonPath:
    """From the slack basis, Bland's rule on a weighted cover enters each
    singleton worth more than 0, in subset-code order, until a member is
    worth more than its points; `cover_maximum` takes that prefix in closed
    form, and runs the LP only from where the path leaves it."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_dense_tableau(self, n):
        rng = SplitMix64(29 * n)
        stops = set()
        for values in (t for _ in range(3 if n <= 5 else 1) for t in path_tables(n, rng)):
            for bound in range(1, 1 << n):
                tables = [values]
                if bound & (bound - 1):
                    tables.append(broken_at(values, bound))
                    assert singleton_path(tables[1], bound)[1] == bound
                for table in tables:
                    best = cover_maximum(table, bound)
                    assert best == dense_cover_maximum(table, bound), (table, bound)
                    assert cover_certifies(table, bound, best)
                    stop = singleton_path(table, bound)[1]
                    stops.add("none" if not stop else "bound" if stop == bound else "inner")
        assert stops == {"none", "bound", "inner"} if n >= 3 else \
            {"none", "bound"} if n == 2 else {"none"}

    def test_additive_game_is_its_positive_singletons(self):
        # every member a tie: no pivot leaves the path, and points worth 0
        # stay out of the family
        weights = (F(1, 4), F(0), F(3, 8), F(0), F(3, 8))
        values = [sum((weights[j] for j in subset_indices(a)), F(0)) for a in range(32)]
        for bound in (0b11111, 0b11010, 0b01010):
            best = cover_maximum(values, bound)
            on = [j for j in subset_indices(bound) if weights[j]]
            assert best.sets == tuple(1 << j for j in on)
            assert best.weights == (1,) * len(on)
            assert best.point == tuple(weights[j] if bound >> j & 1 else 0 for j in range(5))
            assert best.value == values[bound]

    def test_lp_runs_and_pivots_fall_by_the_prefixes(self, monkeypatch):
        count = Counter()
        revised, pivot = core._revised, _tableau_py.Tableau.pivot

        def counted_revised(*args):
            count["runs"] += 1
            return revised(*args)

        def counted_pivot(self, r, c):
            count["pivots"] += 1
            return pivot(self, r, c)

        monkeypatch.setattr(core, "_revised", counted_revised)
        monkeypatch.setattr(_tableau_py.Tableau, "pivot", counted_pivot)
        for n in range(2, 6):
            for values in capacity_tables(n, SplitMix64(n)):
                for bound in range(1, 1 << n):
                    before = count["pivots"]
                    best = dense_cover_maximum(values, bound)
                    count["dense"] += count["pivots"] - before
                    count["pivots"] = before
                    assert cover_maximum(values, bound) == best
                    prefix, stop = singleton_path(values, bound)
                    count["answers"] += 1
                    count["paths"] += not stop
                    count["prefixes"] += prefix
        # one LP per answer and the dense tableau's pivots, less each path
        # that ends on the singletons and each prefix
        assert count["runs"] == count["answers"] - count["paths"]
        assert count["pivots"] == count["dense"] - count["prefixes"]
        assert count == Counter(answers=168, paths=79, prefixes=211, runs=89, pivots=403, dense=614)
