"""CoreSystem, the core-minimum oracle behind is_exact and core envelopes,
against vertex enumeration and against the general-LP route it replaced."""

import importlib.util
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import (capacity_tables, core_vertices, dualized_core_min, explicit_system,
                     fraction_marginal, reference_is_exact, shift_cell)

from capax.capacity import (
    Capacity,
    Measure,
    dirac,
    random_convex_mixture,
    random_monotone,
    unanimity,
)
from capax.classify import (ExactnessGap, classify_full, is_exact, is_totally_balanced,
                            min_core_value)
from capax.credal import CredalSet, core_polytope, lower_envelope, random_credal
from capax.errors import CoreEmpty, GroundMismatch, InfeasibleCredal, InternalInconsistency
from capax.ground import GroundSet, point_masses
from capax.lp import CoreSystem, cover_maximum
from capax.lp import core as core_module
from capax.lp.core import capacity_core, shared_capacity_core, shared_full_cover
from capax.lp._tableau_py import Tableau
from capax.rng import SplitMix64


def core_of(nu):
    masks = list(nu.ground.proper_nonempty_subsets())
    return CoreSystem(nu.ground.n, masks, [nu[a] for a in masks])


def lowered(nu, rng):
    """nu with one set of two or more points lowered to the largest value of
    its maximal proper subsets: still monotone, the core only grows (so it
    stays balanced), and exactness usually breaks."""
    g = nu.ground
    candidates = [a for a in g.proper_nonempty_subsets() if bin(a).count("1") >= 2]
    a = candidates[rng.next_below(len(candidates))]
    values = list(nu.values)
    values[a] = max(nu[a & ~(1 << i)] for i in g.points() if a >> i & 1)
    return Capacity(g, values)


def seeded_capacities(n, count, seed):
    """Exact (envelopes of vertex sets, convex mixtures) and lowered, mostly
    non-exact, balanced capacities on n points."""
    rng = SplitMix64(seed)
    g = GroundSet(n)
    out = []
    for i in range(count):
        exact = (lower_envelope(random_credal(g, rng, n + 1, 8)) if i % 2 == 0
                 else random_convex_mixture(g, rng.next_u64(), 6))
        out.append(exact)
        if n >= 3:
            out.append(lowered(exact, rng))
    return out


def random_monotones(n, count, seed):
    """Random monotone capacities on n points: at n >= 4 mostly unbalanced."""
    return [random_monotone(GroundSet(n), seed * 1000 + i, 6) for i in range(count)]


def damped(nu):
    """nu / n on proper subsets: still monotone, and balanced, since a
    balanced family has sum lam_A |A| = n, so sum lam_A <= n."""
    g = nu.ground
    return Capacity(g, [v if a == g.full else v / g.n for a, v in enumerate(nu.values)])


def assert_same_as_reference(system, subset):
    best = system.minimum(subset)
    value, x, shift, ys = dualized_core_min(system.n, system.masks, system.bounds, subset)
    assert best.value == value
    assert best.point == x
    assert best.shift == shift
    assert best.multipliers == ys


class TestAgainstVertexEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_values(self, n):
        count = {1: 1, 2: 4, 3: 4, 4: 2, 5: 1}[n]
        for nu in seeded_capacities(n, count, 100 + n):
            vertices = core_vertices(nu)
            system = core_of(nu)
            for subset in nu.ground.subsets():
                expected = min(sum(v[i] for i in range(n) if subset >> i & 1)
                               for v in vertices)
                assert system.minimum(subset).value == expected, (nu, subset)


class TestAgainstDualizedReference:
    @pytest.mark.parametrize("n, count", [(2, 6), (3, 6), (4, 4), (5, 2), (6, 1)])
    def test_is_exact_envelope_and_member(self, n, count):
        verdicts = set()
        for nu in seeded_capacities(n, count, 7 * n):
            got = is_exact(nu)
            assert got == reference_is_exact(nu), nu
            verdicts.add(got[0])
            alpha = core_polytope(nu)
            masks, bounds = alpha.system.masks, alpha.system.bounds
            envelope = lower_envelope(alpha)
            for subset in nu.ground.nonempty_subsets():
                low = dualized_core_min(n, masks, bounds, subset)[0]
                high = dualized_core_min(n, masks, bounds, subset, sense="max")[0]
                assert envelope[subset] == low
                assert alpha.max_mass(subset) == high
            assert alpha.some_member().weights == dualized_core_min(n, masks, bounds, 0)[1]
        if n >= 3:
            assert verdicts == {True, False}  # both kinds were exercised

    def test_every_subset_of_a_degenerate_mixture(self):
        g = GroundSet(4)
        for seed in range(3):
            system = core_of(random_convex_mixture(g, seed, 4))
            for subset in g.subsets():
                assert_same_as_reference(system, subset)

    def test_credal_constraint_systems(self):
        g = GroundSet(3)
        bounds = {0b011: F(1, 2), 0b100: F(1, 4), 0b111: F(1, 2), 0b010: F(1, 8)}
        alpha = CredalSet.from_constraints(g, bounds)
        masks = sorted(bounds)
        values = [bounds[a] for a in masks]
        for subset in g.nonempty_subsets():
            assert alpha.min_mass(subset) == dualized_core_min(3, masks, values, subset)[0]
            assert alpha.max_mass(subset) == \
                dualized_core_min(3, masks, values, subset, sense="max")[0]
        assert alpha.some_member().weights == dualized_core_min(3, masks, values, 0)[1]


class TestCertificates:
    def setup_method(self):
        self.nu = random_convex_mixture(GroundSet(3), 5, 6)
        self.system = core_of(self.nu)
        self.subset = 0b001
        self.best = self.system.minimum(self.subset)

    def test_genuine_certificate_passes(self):
        assert self.system.certifies(self.subset, self.best)

    def test_tampered_point_fails(self):
        x = list(self.best.point)
        j = next(j for j, w in enumerate(x) if w > 0 and not self.subset >> j & 1)
        x[j] -= F(1, 1000)
        moved = replace(self.best, point=(x[0] + F(1, 1000), *x[1:]))  # x(subset) grows
        assert not self.system.certifies(self.subset, moved)
        assert not self.system.certifies(self.subset, replace(self.best, point=tuple(x)))

    def test_point_below_a_bound_fails(self):
        # the core of a measure is that measure; moving mass between points
        # outside the subset keeps x(X), x(subset) and the dual side intact
        system = core_of(Measure(GroundSet(3), [F(1, 6), F(1, 3), F(1, 2)]).as_capacity())
        best = system.minimum(0b001)
        assert best.point == (F(1, 6), F(1, 3), F(1, 2))
        moved = replace(best, point=(F(1, 6), F(0), F(5, 6)))
        assert not system.certifies(0b001, moved)

    def test_tampered_multipliers_fail(self):
        ys = list(self.best.multipliers)
        ys[0] += F(1, 7)
        assert not self.system.certifies(self.subset, replace(self.best, multipliers=tuple(ys)))
        assert not self.system.certifies(self.subset,
                                         replace(self.best, shift=self.best.shift + F(1, 7)))

    def test_overloaded_point_fails(self):
        # one more unit on the singleton of a point the minimiser uses, paid
        # for by y0, keeps y0 + sum b_A y_A but overloads that tight point
        best = self.best
        j = next(j for j, w in enumerate(best.point) if w > 0)
        i = self.system.masks.index(1 << j)
        ys = list(best.multipliers)
        ys[i] += 1
        moved = replace(best, shift=best.shift - self.system.bounds[i], multipliers=tuple(ys))
        assert not self.system.certifies(self.subset, moved)

    def test_tampered_value_fails(self):
        assert not self.system.certifies(self.subset,
                                         replace(self.best, value=self.best.value + F(1, 9)))

    # each tamper edits the integer cells of the optimal tableau `_revised`
    # returns, before the basis check reads them
    def test_minimum_raises_on_a_tampered_primal(self, skewed_optimum):
        # the last point's weight grows by 1/3: x(subset) stays the value,
        # but x(X) = 4/3
        skewed_optimum(lambda tab, columns: shift_cell(tab, tab.m, tab.m - 1, F(-1, 3)))
        with pytest.raises(InternalInconsistency, match="core minimum of subset 0b1 "):
            core_of(self.nu).minimum(self.subset)  # a new system: the setup's minimum is kept

    def test_minimum_raises_on_a_tampered_dual(self, skewed_optimum):
        def grow(tab, columns):  # every basic y0 half and y_A grows by 1/5
            for i in range(tab.m):
                shift_cell(tab, i, tab.ncols, F(1, 5))

        skewed_optimum(grow)
        with pytest.raises(InternalInconsistency):
            core_of(self.nu).minimum(self.subset)

    def test_minimum_raises_on_a_tampered_value(self, skewed_optimum):
        # -z grows by 1/9: point and multipliers stay feasible, the objectives do not match
        skewed_optimum(lambda tab, columns: shift_cell(tab, tab.m, tab.ncols, F(1, 9)))
        with pytest.raises(InternalInconsistency):
            core_of(self.nu).minimum(self.subset)


class TestEmptyCore:
    def setup_method(self):
        self.system = CoreSystem(2, [0b01, 0b10], [F(9, 10), F(9, 10)])

    def test_every_subset_raises(self):
        for subset in range(4):
            with pytest.raises(CoreEmpty):
                self.system.minimum(subset)
        assert dualized_core_min(2, [0b01, 0b10], [F(9, 10), F(9, 10)], 1) is None

    def test_farkas_check(self):
        assert self.system.refutes(F(-1), [F(1), F(1)])  # 9/10 + 9/10 > 1
        assert not self.system.refutes(F(-1), [F(1), F(0)])
        assert not self.system.refutes(F(-1), [F(1), F(-1)])

    def test_failed_farkas_check_raises_internal(self, monkeypatch):
        monkeypatch.setattr(CoreSystem, "refutes", lambda self, shift, ys: False)
        with pytest.raises(InternalInconsistency):
            self.system.minimum(1)

    def test_least_raises_at_every_subset_the_ends_included(self):
        for subset in range(4):
            with pytest.raises(CoreEmpty):
                self.system.least(subset)


class TestOneRecord:
    """One list of certified points per system, each cold minimum solved
    once, and `least` for every subset code."""

    def test_each_cold_minimum_is_solved_once(self, monkeypatch):
        nu = seeded_capacities(5, 1, 9)[1]  # lowered: some minima fall short
        system = capacity_core(nu.values)
        solved, warm = [], []
        revised, dual = core_module._revised, core_module._dual
        monkeypatch.setattr(core_module, "_revised",
                            lambda rhs, columns: solved.append(rhs) or revised(rhs, columns))
        monkeypatch.setattr(core_module, "_dual",
                            lambda tab, columns: warm.append(tab) or dual(tab, columns))
        for subset in nu.ground.subsets():
            best = system.minimum(subset)
            assert system.minimum(subset) is best
            assert system.least(subset) == best.value  # from the kept point or the kept minimum
        assert len(solved) == 32 and warm == []
        assert [v for v in map(min_core_value, [nu] * 32, range(32))] == \
            [system.minimum(b).value for b in range(32)]

    def test_least_answers_both_ends(self, monkeypatch):
        # a bound on the full set and one on {0}: no floor table, so no marginal
        # vector; the ends cost the cold minimum of {0}, once
        system = CoreSystem(2, [0b11, 0b01], [F(1, 2), F(1, 3)])
        solved, revised = [], core_module._revised
        monkeypatch.setattr(core_module, "_revised",
                            lambda rhs, columns: solved.append(rhs) or revised(rhs, columns))
        assert (system.least(0), system.least(0b11), system.least(0b01)) == (0, 1, F(1, 3))
        assert solved == [[1, 0]]
        with pytest.raises(GroundMismatch):
            system.least(0b100)

    def test_a_kept_point_gains_its_tableau_in_place(self):
        # the marginal vector the full set's nonemptiness check keeps first
        # is the cold minimum of {0} on a unanimity game of {0, 1}
        nu = unanimity(0b011, GroundSet(3))
        system = capacity_core(nu.values)
        assert system.least(0b111) == 1
        assert [tab for _, tab in system._points] == [None]
        best = system.minimum(0b001)
        assert len(system._points) == 1 and system._points[0][1] is not None
        assert system._points[0][0] == point_masses(best.point)


class TestEdges:
    def test_fraction_bounds_are_kept_as_given(self):
        third = F(1, 3)
        system = CoreSystem(2, [0b01, 0b10], [third, 0])
        assert system.bounds[0] is third
        assert system.bounds == (third, 0) and type(system.bounds[1]) is F

    def test_one_point(self):
        system = CoreSystem(1, [], [])
        assert system.minimum(0).value == 0
        best = system.minimum(1)
        assert (best.value, best.point, best.multipliers) == (1, (1,), ())
        assert is_exact(dirac(0, GroundSet(1))) == (True, None)
        assert min_core_value(dirac(0, GroundSet(1)), 1) == 1

    def test_empty_bounds_is_the_simplex(self):
        system = CoreSystem(3, [], [])
        for subset in range(8):
            assert system.minimum(subset).value == (1 if subset == 7 else 0)
            assert_same_as_reference(system, subset)
        alpha = CredalSet.from_constraints(GroundSet(3), {})
        assert lower_envelope(alpha).values == tuple(F(int(a == 7)) for a in range(8))
        assert alpha.some_member().weights == dualized_core_min(3, [], [], 0)[1]

    def test_bound_on_the_full_set(self):
        system = CoreSystem(2, [0b11, 0b01], [F(1), F(1, 3)])
        assert system.minimum(0b01).value == F(1, 3)
        assert system.minimum(0b10).value == 0

    def test_invalid_codes(self):
        system = core_of(unanimity(0b011, GroundSet(3)))
        for subset in (-1, 0b1000, 0b1011):
            with pytest.raises(GroundMismatch):
                system.minimum(subset)
        for mask in (0, 0b1000):
            with pytest.raises(GroundMismatch):
                CoreSystem(3, [mask], [F(0)])


class TestAttains:
    """`attains(B)` claims min x(B) = b_B only on a certified core point."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_minimum(self, n):
        monotone = random_monotones(n, 3, n)
        capacities = seeded_capacities(n, 2, 50 + n) + monotone + [damped(monotone[0])]
        outcomes = set()
        for nu in capacities:
            system = core_of(nu)
            for subset in system.masks:
                claimed = system.attains(subset)
                try:
                    best = system.minimum(subset)
                except CoreEmpty:
                    assert not claimed and not system.attains(subset)
                    outcomes.add("empty")
                    continue
                attained = best.value == nu[subset]
                assert claimed <= attained, (nu, subset)  # never a false True
                # the minimiser is pooled now, so the answer is exact
                assert system.attains(subset) == attained, (nu, subset)
                outcomes.add(attained)
        # every kind was exercised; on two points every balanced capacity is exact
        assert outcomes == ({True, False, "empty"} if n >= 3 else {True, "empty"})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_marginal_vectors_decide_convex_capacities(self, n):
        for seed in range(3):
            nu = random_convex_mixture(GroundSet(n), seed, 4)
            for subset in nu.ground.proper_nonempty_subsets():
                assert core_of(nu).attains(subset)  # a fresh system: no LP point yet

    def test_marginal_vector_outside_the_core_is_not_pooled(self):
        # at a gap B the marginal vector still has x(B) = v(B); only the core
        # check keeps it out
        for nu in seeded_capacities(4, 4, 3):
            exact, gap = is_exact(nu)
            if exact:
                continue
            assert isinstance(gap, ExactnessGap)
            system = core_of(nu)
            x = fraction_marginal(system, gap.subset)
            assert sum(x[j] for j in range(4) if gap.subset >> j & 1) == nu[gap.subset]
            assert not system.attains(gap.subset)
            assert system._points == []
            return
        pytest.fail("no non-exact capacity among the seeds")

    @pytest.mark.parametrize("bounds", [[F(1, 4), F(1, 2)], [F(1, 2), F(1, 4)]])
    def test_duplicated_mask_uses_its_larger_bound(self, bounds):
        # pooled LP point: the system is not a capacity core, so no marginal vector
        system = CoreSystem(3, [0b001, 0b001], bounds)
        assert not system.attains(0b001)
        assert system.minimum(0b001).value == F(1, 2)
        assert system.attains(0b001)
        # marginal vector: the system bounds every proper nonempty subset
        masks = [0b001, 0b010, 0b001, 0b011]
        complete = CoreSystem(2, masks, [bounds[0], F(0), bounds[1], F(1)])
        assert complete.attains(0b001)
        assert complete.minimum(0b001).value == F(1, 2)

    def test_unbounded_and_invalid_subsets_are_not_attained(self):
        system = core_of(unanimity(0b011, GroundSet(3)))
        for subset in (0, 0b111, -1, 0b1000):
            assert not system.attains(subset)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_envelopes_of_random_monotone_capacities(self, n):
        verdicts = set()
        for nu in map(damped, random_monotones(n, 4, 10 + n)):
            masks = list(nu.ground.proper_nonempty_subsets())
            bounds = [nu[a] for a in masks]
            got = is_exact(nu)
            assert got == reference_is_exact(nu), nu
            verdicts.add(got[0])
            envelope = lower_envelope(core_polytope(nu))
            for subset in masks:
                assert envelope[subset] == dualized_core_min(n, masks, bounds, subset)[0]
        assert False in verdicts


class TestIntegerMarginal:
    """`_marginal` builds each marginal vector on the floor table's integer
    scale; its table is the one `point_masses` gives the Fraction vector, or
    both refuse the vector."""

    @staticmethod
    def assert_same_tables(system):
        """Both routes on every subset; returns (refused, reduced): whether
        some vector left the core, and whether some table came out in lower
        terms than the floor table's scale."""
        refused = reduced = False
        for subset in range(1 << system.n):
            table = system._marginal(subset)
            assert table == point_masses(fraction_marginal(system, subset), system._columns), \
                (system.masks, system.bounds, subset)
            refused |= table is None
            reduced |= table is not None and table[0] < system._floor[-1]
        return refused, reduced

    def test_capacity_cores(self):
        # monotone (mostly empty cores from 4 points), convex, credal envelopes
        rng = SplitMix64(70)
        seen = set()
        for n in range(1, 7):
            for _ in range(3):
                for values in capacity_tables(n, rng):
                    seen.add(self.assert_same_tables(capacity_core(values)))
        assert {refused for refused, _ in seen} == {True, False}
        assert {reduced for _, reduced in seen} == {True, False}

    def test_non_monotone_bounds_refuse_negative_coordinates(self):
        # b({0}) = 5/4 > 1 = b(X): x = (5/4, -1/4) meets both bounds, and only
        # its sign keeps it out
        system = CoreSystem(2, [0b01, 0b10], [F(5, 4), F(-1)])
        assert fraction_marginal(system, 0) == [F(5, 4), F(-1, 4)]
        assert self.assert_same_tables(system)[0]
        assert system._marginal(0) is None
        rng = SplitMix64(71)
        negative = False
        for n in range(1, 6):
            full = (1 << n) - 1
            for _ in range(4):
                masks = shuffled(range(1, full), rng)
                system = CoreSystem(n, masks, [F(rng.next_below(9) - 2, 8) for _ in masks])
                self.assert_same_tables(system)
                negative |= any(min(fraction_marginal(system, s)) < 0 for s in range(full + 1))
        assert negative
        # a bound above 1 on X empties the core: no marginal vector is tried
        system = CoreSystem(2, [0b01, 0b10, 0b11], [F(0), F(0), F(3, 2)])
        assert system._floor is None and not self.assert_same_tables(system)[1]

    @pytest.mark.parametrize("larger_first", [False, True])
    def test_duplicated_masks_use_the_larger_bound(self, larger_first):
        rng = SplitMix64(72)
        for n in (2, 3, 4):
            nu = random_convex_mixture(GroundSet(n), rng.next_u64(), 4)
            masks, bounds = [], []
            for a in nu.ground.proper_nonempty_subsets():
                pair = [nu[a], nu[a] / 2 - F(1, 8)]
                masks += [a, a]
                bounds += pair if larger_first else pair[::-1]
            refused, _ = self.assert_same_tables(CoreSystem(n, masks, bounds))
            assert not refused  # convex: every marginal vector lies in the core

    def test_minimum_equal_to_a_pooled_marginal_vector_is_pooled_once(self):
        # a certified optimum and an earlier marginal vector at the same point
        # share one table, also where the marginal table was reduced
        same_points = reduced = 0
        for seed in range(8):
            nu = random_convex_mixture(GroundSet(3), seed, 3)
            for subset in nu.ground.proper_nonempty_subsets():
                system = capacity_core(nu.values)
                assert system.attains(subset) and len(system._points) == 1
                den, _ = marginal = system._points[0][0]
                same = point_masses(system.minimum(subset).point) == marginal
                assert len(system._points) == 2 - same
                assert (system._points[0][1] is not None) == same  # the kept point gains its tableau
                same_points += same
                reduced += same and den < system._floor[-1]
        assert same_points > reduced > 0


class TestLpCounts:
    """On convex capacities every subset is decided by a marginal vector."""

    def count_minima(self, monkeypatch):
        calls = []
        original = CoreSystem.minimum

        def counted(self, subset):
            calls.append(subset)
            return original(self, subset)

        monkeypatch.setattr(CoreSystem, "minimum", counted)
        return calls

    def test_convex_n8_runs_no_sweep(self, monkeypatch):
        g = GroundSet(8)
        calls = self.count_minima(monkeypatch)
        for seed in range(2):
            nu = random_convex_mixture(g, seed, 3)
            assert is_exact(nu) == (True, None)
            assert calls == []
            assert lower_envelope(core_polytope(nu)) == nu
            assert calls == []  # the pooled points prove the core nonempty too

    def test_core_sweep_envelopes_solve_nothing_after_is_exact(self, monkeypatch):
        # the 64 inputs of the benchmark's core_sweep workload at seed 3
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        g = GroundSet(6)
        calls = self.count_minima(monkeypatch)
        for table in inputs.core_sweep_tables(3, 64):
            nu = Capacity(g, table)
            assert is_exact(nu) == (True, None)
            calls.clear()
            assert lower_envelope(core_polytope(nu)) == nu
            assert calls == []


class WarmLog:
    pivots = warm = 0


@pytest.fixture
def warm_log(monkeypatch):
    """Counts every kernel pivot, and those of the dual simplex apart."""
    log = WarmLog()
    pivot, dual = Tableau.pivot, core_module._dual

    def counting_pivot(self, r, c):
        log.pivots += 1
        return pivot(self, r, c)

    def counting_dual(tab, columns):
        before = log.pivots
        dual(tab, columns)
        log.warm += log.pivots - before

    monkeypatch.setattr(Tableau, "pivot", counting_pivot)
    monkeypatch.setattr(core_module, "_dual", counting_dual)
    return log


def shuffled(items, rng):
    """items in a Fisher-Yates order drawn from rng."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def assert_warm_is_cold(warm, rng):
    """Every subset, in a shuffled order, through the warm path of `warm`
    against a cold `minimum` on a twin system (so no cold tableau becomes
    `warm`'s).  Returns whether the core was nonempty."""
    cold = CoreSystem(warm.n, warm.masks, warm.bounds)
    for subset in shuffled(range(1 << warm.n), rng):
        try:
            expected = cold.minimum(subset).value
        except CoreEmpty:
            with pytest.raises(CoreEmpty):
                warm._warm_minimum(subset)
            continue
        assert warm._warm_minimum(subset) == expected, (warm.masks, warm.bounds, subset)
    return bool(cold._points)


def tableaux(system):
    """The kept points that hold an optimal tableau, as (table, tableau)."""
    return [entry for entry in system._points if entry[1] is not None]


def snapshot(stored):
    """Copies of the cells and bases of stored tableaux."""
    return [(tab.basis[:], [r[:] for r in tab.nums], [r[:] for r in tab.dens]) for _, tab in stored]


class TestWarmMinima:
    """`least`'s dual simplex from the nearest stored optimum against cold
    `minimum`: equal values whatever the stored tableaux's history."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_stored_tableau_starts_every_minimum(self, n):
        # monotone (damped, so balanced), convex mixture and envelope tables
        rng = SplitMix64(110 + n)
        tables = capacity_tables(n, rng)
        tables.append(damped(Capacity(GroundSet(n), tables[0])).values)
        starts = 0
        for values in tables:
            system = capacity_core(values)
            try:
                cold = [capacity_core(values).minimum(b).value for b in range(1 << n)]
            except CoreEmpty:
                continue
            for b in shuffled(range(1 << n), rng):
                assert system._warm_minimum(b) == cold[b]
            stored = tableaux(system)
            before = snapshot(stored)
            for entry in stored:
                for b in range(1 << n):
                    system._points[:] = [entry]
                    system._minima.clear()  # so no solved cold minimum answers
                    assert system._warm_minimum(b) == cold[b], (values, b)
            assert snapshot(stored) == before  # copied, never pivoted
            starts += len(stored)
        assert starts > len(tables)

    def test_the_nearest_stored_point_starts(self, monkeypatch):
        nu = seeded_capacities(5, 1, 9)[1]  # lowered: some minima fall short
        system = capacity_core(nu.values)
        for b in nu.ground.proper_nonempty_subsets():
            system._warm_minimum(b)
        assert len(tableaux(system)) >= 2
        system._minima.clear()  # so every minimum below starts warm
        started = []
        copy = Tableau.copy
        monkeypatch.setattr(Tableau, "copy", lambda tab: started.append(tab) or copy(tab))
        for b in nu.ground.proper_nonempty_subsets():
            stored = tableaux(system)
            least = min(F(mass[b], den) for (den, mass), _ in stored)
            started.clear()
            system._warm_minimum(b)
            first = next(tab for (den, mass), tab in stored if F(mass[b], den) == least)
            assert started == [first], b

    @pytest.mark.parametrize("corrupt", ["point", "multiplier", "negative", "overload"])
    def test_a_corrupted_warm_optimum_raises(self, corrupt, monkeypatch):
        nu = seeded_capacities(5, 1, 9)[1]
        system = capacity_core(nu.values)
        n, dual = system.n, core_module._dual
        corrupted = []

        def skewed(tab, columns):
            dual(tab, columns)
            nums, dens = tab.nums, tab.dens
            if corrupt == "point":  # x_0 grows by 1/3, so x(X) = 4/3
                nums[n][0], dens[n][0] = 3 * nums[n][0] - dens[n][0], 3 * dens[n][0]
            elif corrupt == "multiplier":  # the first basic y_A with b_A > 0 grows by 1
                i = next(i for i, t in enumerate(tab.basis)
                         if 2 <= t < len(columns) and system.bounds[t - 2] > 0)
                nums[i][n + 1] += dens[i][n + 1]
            else:
                # the first basic y_A with b_A = 0, here y_{1} = 1 at the
                # minimum of x({1}): y_A -> -y_A - 1 < 0, or y_A + 1, which
                # loads point 1 with 2; neither objective moves
                i = next(i for i, t in enumerate(tab.basis)
                         if 2 <= t < len(columns) and system.bounds[t - 2] == 0)
                if corrupt == "negative":
                    nums[i][n + 1] = -nums[i][n + 1] - dens[i][n + 1]
                else:
                    nums[i][n + 1] += dens[i][n + 1]
            corrupted.append(tab)

        unattained = lambda: next(b for b in nu.ground.proper_nonempty_subsets()
                                  if not system.attains(b))
        system.minimum(unattained())  # a stored optimum, so the next one is warm
        monkeypatch.setattr(core_module, "_dual", skewed)
        with pytest.raises(InternalInconsistency, match="warm core minimum"):
            system.least(unattained())
        assert corrupted

    @pytest.mark.parametrize("n", range(1, 8))
    def test_capacity_tables(self, n, warm_log):
        rng = SplitMix64(40 + n)
        balanced = 0
        for k, values in enumerate(capacity_tables(n, rng)):
            # the shared cover hands the shared system nothing, in either order
            if k % 2:
                system, cover = shared_capacity_core(values), shared_full_cover(values)
            else:
                cover, system = shared_full_cover(values), shared_capacity_core(values)
            assert system._points == [] and system._minima == {}
            balanced += cover.value == 1
            assert assert_warm_is_cold(system, rng) == (cover.value == 1)
        assert balanced and (warm_log.warm or n == 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_explicit_systems(self, n, warm_log):
        # repeated and missing masks; no cover, so the first cold optimum starts
        # (at n >= 5 most are empty, so draw until three were not)
        rng = SplitMix64(70 + n)
        solvable = drawn = 0
        while solvable < 3 and drawn < 40:
            solvable += assert_warm_is_cold(explicit_system(n, rng), rng)
            drawn += 1
        assert solvable == 3 and (warm_log.warm or n == 1)

    def test_constraint_form_credal_sets(self, warm_log):
        # one bound per mask, the last drawn; the masks never drawn stay missing
        rng = SplitMix64(90)
        g = GroundSet(4)
        asked = 0
        for _ in range(8):
            system = explicit_system(4, rng)
            bounds = dict(zip(system.masks, system.bounds))
            try:
                alpha = CredalSet.from_constraints(g, bounds)
            except InfeasibleCredal:
                continue
            cold = CoreSystem(4, list(bounds), list(bounds.values()))
            for subset in shuffled(g.nonempty_subsets(), rng):
                assert alpha.min_mass(subset) == cold.minimum(subset).value
                assert alpha.max_mass(subset) == 1 - cold.minimum(g.full & ~subset).value
                asked += 1
        assert asked and warm_log.warm

    def test_found_input_spends_few_pivots_in_minima(self, warm_log):
        # exact but not convex, on 9 points: a credal envelope scaled by 9/10
        # off the full set (cold minima took 8,209 pivots)
        nu = lower_envelope(random_credal(GroundSet(9), SplitMix64(9), 10, 8))
        full = nu.ground.full
        nu = Capacity(nu.ground, [v if a == full else v * F(9, 10) for a, v in enumerate(nu.values)])
        cover_maximum(nu.values, full)
        cover_pivots = warm_log.pivots
        assert is_exact(nu) == (True, None)
        assert warm_log.warm and warm_log.pivots - cover_pivots < 2000

    def test_convex_capacity_pivots_nothing_after_the_cover(self, warm_log):
        # marginal vectors prove the core nonempty and settle every subset,
        # so is_exact solves no cover of its own and no minimum
        nu = random_convex_mixture(GroundSet(7), 4, 3)
        cover_maximum(nu.values, nu.ground.full)
        cover_pivots = warm_log.pivots
        assert cover_pivots > 0
        assert is_exact(nu) == (True, None)
        assert warm_log.pivots == cover_pivots

    def test_threads_never_pivot_one_tableau_together(self):
        nu = seeded_capacities(5, 1, 9)[1]  # lowered: some minima fall short
        cold = core_of(nu)
        expected = {b: cold.minimum(b).value for b in nu.ground.subsets()}
        system = capacity_core(nu.values)
        wrong, failed = [], []
        start = threading.Barrier(4)

        def ask(first):
            start.wait(timeout=60)
            rng = SplitMix64(first)
            try:
                for _ in range(20):
                    for b in shuffled(expected, rng):
                        if system._warm_minimum(b) != expected[b]:
                            wrong.append(b)
            except InternalInconsistency as exc:  # two threads on one tableau
                failed.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and failed == []

    def test_no_system_holds_anything_before_its_first_question(self):
        warmed = 0
        for nu in seeded_capacities(4, 2, 4):
            assert shared_full_cover(nu.values).value == 1
            unshared = capacity_core(nu.values)
            system = shared_capacity_core(nu.values)
            assert system._points == [] and system._minima == {}
            assert unshared._points == [] and unshared._minima == {}
            classify_full(nu)
            assert system._points  # is_exact proves the core nonempty by a point of its own
            warmed += bool(tableaux(system))
            fresh = capacity_core(nu.values)
            assert fresh._points == [] and fresh._minima == {}
        assert warmed  # the non-convex ones store their optima's tableaux

    def test_threads_racing_on_one_entry_never_pivot_one_tableau_together(self, monkeypatch):
        # fresh tables, one at a time, asked by four threads, some also
        # through the shared cover: each thread pivots its own copy of a stored tableau
        nus = seeded_capacities(5, 6, 13)[1::2]  # lowered: some minima fall short
        tables = [list(nu.values) for nu in nus]
        expected = [{b: core_of(nu).minimum(b).value for b in nu.ground.subsets()} for nu in nus]
        lock, busy, clashes, wrong, failed = threading.Lock(), set(), [], [], []
        dual = core_module._dual

        def guarded(tab, columns):
            with lock:
                if id(tab) in busy:
                    clashes.append(id(tab))
                busy.add(id(tab))
            try:
                dual(tab, columns)
            finally:
                with lock:
                    busy.discard(id(tab))

        monkeypatch.setattr(core_module, "_dual", guarded)
        start = threading.Barrier(4)

        def ask(first):
            rng = SplitMix64(first)
            try:
                for k, values in enumerate(tables):
                    start.wait(timeout=60)
                    for _ in range(10):
                        for b in shuffled(expected[k], rng):  # each through the memo
                            if (first + b) % 2:
                                shared_full_cover(values)
                            if shared_capacity_core(values).least(b) != expected[k][b]:
                                wrong.append((k, b))
            except Exception as exc:  # a fault in any thread fails the test
                failed.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert clashes == wrong == failed == []


class TestSharedCore:
    """One core system per capacity: `is_exact`, `min_core_value`,
    `is_totally_balanced` and `core_polytope` ask the same one."""

    def test_one_system_per_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(core_module, "capacity_core",
                            lambda values: built.append(values) or capacity_core(values))
        nu, lowered_nu = seeded_capacities(5, 1, 9)
        assert classify_full(nu).exact
        assert is_exact(nu) == (True, None)
        assert is_totally_balanced(nu) == (True, None)
        assert min_core_value(nu, 0b011) == nu[0b011]
        system = shared_capacity_core(nu.values)
        assert core_polytope(nu).system is system
        assert built == [nu.values]
        fresh = core_of(nu)
        assert (system.masks, system.bounds) == (fresh.masks, fresh.bounds)
        assert capacity_core(nu.values) is not system
        is_exact(lowered_nu)  # one entry: another table replaces it
        assert shared_capacity_core(nu.values) is not system

    def test_repeated_questions_keep_the_pool_size(self):
        for nu in seeded_capacities(4, 2, 11):
            subsets = nu.ground.proper_nonempty_subsets()
            first = is_exact(nu), [min_core_value(nu, b) for b in subsets]
            pool = shared_capacity_core(nu.values)._points
            size = len(pool)
            for _ in range(50):
                assert (is_exact(nu), [min_core_value(nu, b) for b in subsets]) == first
            assert shared_capacity_core(nu.values)._points is pool
            assert len(pool) == size

    def test_threads_never_pair_a_table_with_another_system(self):
        tables = [nu.values for nu in seeded_capacities(3, 2, 5)]
        assert len(set(tables)) == len(tables)
        mismatched = []
        start = threading.Barrier(len(tables))

        def ask(first):
            start.wait(timeout=60)
            for k in range(3000):  # each table twice in a row: misses and hits
                values = tables[(first + k // 2) % len(tables)]
                if shared_capacity_core(values).bounds != values[1:-1]:
                    mismatched.append(values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(tables))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatched == []
