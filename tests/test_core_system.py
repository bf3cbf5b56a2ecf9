"""CoreSystem, the core-minimum oracle behind is_exact and core envelopes,
against vertex enumeration and against the general-LP route it replaced."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from oracles import core_vertices, dualized_core_min, reference_is_exact

from capax.capacity import (
    Capacity,
    Measure,
    dirac,
    random_convex_mixture,
    unanimity,
)
from capax.classify import is_exact, min_core_value
from capax.credal import CredalSet, core_polytope, lower_envelope, random_credal
from capax.errors import CoreEmpty, GroundMismatch, InternalInconsistency
from capax.ground import GroundSet
from capax.lp import CoreSystem
from capax.lp import core as core_module
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
        capacities = seeded_capacities(n, count, 100 + n)
        if n == 5:
            capacities = capacities[1:]  # enumeration takes ~15 s per capacity here
        for nu in capacities:
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
            masks = sorted(alpha.bounds)
            bounds = [alpha.bounds[a] for a in masks]
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

    def test_minimum_raises_on_a_tampered_primal(self, monkeypatch):
        class Skewed(Tableau):
            __slots__ = ()

            def reduced_costs(self):
                costs = super().reduced_costs()
                costs[-1] -= F(1, 3)  # the last point's weight grows by 1/3
                return costs

        monkeypatch.setattr(core_module, "get_tableau_class", lambda: Skewed)
        with pytest.raises(InternalInconsistency):
            self.system.minimum(self.subset)

    def test_minimum_raises_on_a_tampered_dual(self, monkeypatch):
        class Skewed(Tableau):
            __slots__ = ()

            def solution(self):
                sol = super().solution()
                sol[0] += F(1, 5)  # y0 grows by 1/5
                return sol

        monkeypatch.setattr(core_module, "get_tableau_class", lambda: Skewed)
        with pytest.raises(InternalInconsistency):
            self.system.minimum(self.subset)


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


class TestEdges:
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
