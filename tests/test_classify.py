from fractions import Fraction as F

import pytest

from capax.capacity import (
    Measure,
    dirac,
    mix,
    new_capacity,
    random_convex_mixture,
    random_monotone,
    unanimity,
)
from capax.classify import (
    ExactnessGap,
    bondareva_value,
    classify_full,
    core_lp_feasible,
    is_balanced,
    is_convex,
    is_exact,
    is_totally_balanced,
    min_core_value,
    verify_report,
)
from capax.credal import lower_envelope, random_credal
from capax.errors import ConfigOutOfRange, CoreEmpty, EmptySubset, GroundMismatch
from capax.ground import GroundSet
from capax.rng import SplitMix64

g2, g3, g4 = GroundSet(2), GroundSet(3), GroundSet(4)


def nine_tenths():
    return new_capacity(g2, {1: F(9, 10), 2: F(9, 10)})


def random_exact(ground, rng, grid=8):
    """Exact capacities as lower envelopes of random vertex credal sets."""
    return lower_envelope(random_credal(ground, rng, ground.n + 1, grid))


class TestConvex:
    def test_unanimity_always_convex(self):
        for n in range(1, 5):
            g = GroundSet(n)
            for carrier in g.nonempty_subsets():
                assert is_convex(unanimity(carrier, g))[0]

    def test_nine_tenths_violation(self):
        ok, witness = is_convex(nine_tenths())
        assert not ok
        assert witness.verify(nine_tenths())
        a, b = witness.set_a, witness.set_b
        assert {a, b} == {1, 2}  # 1 + 0 < 9/5

    def test_local_equals_all_pairs_on_500_random(self):
        rng = SplitMix64(314)
        for trial in range(500):
            n = 2 + trial % 5  # up to n = 6
            nu = random_monotone(GroundSet(n), rng.next_u64(), 4)
            fast = is_convex(nu, method="local")
            oracle = is_convex(nu, method="pairs")
            assert fast[0] == oracle[0], trial
            if not fast[0]:
                assert fast[1].verify(nu) and oracle[1].verify(nu)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            is_convex(dirac(0, g2), method="magic")


class TestBondarevaValue:
    def test_dirac_any_containing_subset(self):
        d = dirac(1, g3)
        for mask in g3.nonempty_subsets():
            if mask >> 1 & 1:
                assert bondareva_value(d, mask) == 1 == d[mask]

    def test_nine_tenths_full(self):
        assert bondareva_value(nine_tenths(), 3) == F(9, 5)

    def test_fixture_three_fifths(self, nustar):
        assert bondareva_value(nustar, 0b0111) == F(3, 5)
        assert nustar[0b0111] == F(1, 2)

    def test_at_least_subset_value(self):
        rng = SplitMix64(55)
        for _ in range(40):
            nu = random_monotone(g3, rng.next_u64(), 5)
            for mask in g3.nonempty_subsets():
                assert bondareva_value(nu, mask) >= nu[mask]

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            bondareva_value(dirac(0, g2), 0)

    def test_subset_code_outside_the_ground_set_rejected(self):
        for mask in (0b1000, 0b1011, -1):
            with pytest.raises(GroundMismatch):
                bondareva_value(unanimity(0b011, g3), mask)


class TestBalanced:
    def test_nine_tenths_unbalanced_with_family(self):
        ok, family = is_balanced(nine_tenths())
        assert not ok
        assert family.violates(nine_tenths(), 3)

    def test_fixture_balanced_and_quarter_point_in_core(self, nustar):
        ok, measure = is_balanced(nustar)
        assert ok
        # returned witness is a valid core point (whichever vertex the LP picked)
        assert all(measure.mass(a) >= nustar[a] for a in g4.nonempty_subsets())
        # the hand point (1/4,1/4,1/4,1/4) also lies in the core: pure arithmetic
        quarter = Measure(g4, [F(1, 4)] * 4)
        assert all(quarter.mass(a) >= nustar[a] for a in g4.nonempty_subsets())

    def test_measures_are_balanced_with_self_in_core(self):
        rng = SplitMix64(8)
        from capax.capacity import random_measure

        for _ in range(20):
            mu = random_measure(g3, rng, 7)
            nu = mu.as_capacity()
            ok, witness = is_balanced(nu)
            assert ok
            assert all(mu.mass(a) >= nu[a] for a in g3.nonempty_subsets())

    def test_two_routes_agree_explicitly(self):
        rng = SplitMix64(808)
        for trial in range(60):
            nu = random_monotone(GroundSet(2 + trial % 4), rng.next_u64(), 5)
            cover_route = bondareva_value(nu, nu.ground.full) == 1
            direct_route, _ = core_lp_feasible(nu)
            assert cover_route == direct_route, trial


class TestMinCoreValue:
    def test_unanimity_pair(self):
        assert min_core_value(unanimity(0b011, g3), 0b001) == 0

    def test_measure_core_is_singleton(self):
        mu = Measure(g3, [F(1, 6), F(1, 3), F(1, 2)])
        nu = mu.as_capacity()
        for mask in g3.nonempty_subsets():
            assert min_core_value(nu, mask) == mu.mass(mask)

    def test_core_empty(self):
        with pytest.raises(CoreEmpty):
            min_core_value(nine_tenths(), 1)

    def test_subset_code_outside_the_ground_set_rejected(self):
        for mask in (0b1000, 0b1011, -1):
            with pytest.raises(GroundMismatch):
                min_core_value(unanimity(0b011, g3), mask)

    def test_agrees_with_vertex_enumeration(self):
        from oracles import brute_min_core

        rng = SplitMix64(2718)
        checked = 0
        while checked < 25:
            nu = random_monotone(g3, rng.next_u64(), 5)
            if bondareva_value(nu, 7) != 1:
                continue
            for mask in g3.proper_nonempty_subsets():
                assert min_core_value(nu, mask) == brute_min_core(nu, mask)
            checked += 1


class TestExact:
    def test_dirac(self):
        assert is_exact(dirac(0, g3))[0]

    def test_convex_mixtures_are_exact(self):
        for seed in range(40):
            nu = random_convex_mixture(GroundSet(2 + seed % 3), seed, 6)
            assert is_exact(nu)[0], seed

    def test_fixture_not_exact(self, nustar):
        ok, witness = is_exact(nustar)
        assert not ok
        assert isinstance(witness, ExactnessGap)
        assert witness.verify(nustar)

    def test_unbalanced_witnessed_by_family(self):
        ok, witness = is_exact(nine_tenths())
        assert not ok
        assert witness.violates(nine_tenths(), 3)


class TestTotallyBalanced:
    def test_dirac(self):
        assert is_totally_balanced(dirac(1, g3))[0]

    def test_fixture_smallest_failing_subset(self, nustar):
        ok, failure = is_totally_balanced(nustar)
        assert not ok
        assert failure.subset == 0b0111  # smallest in subset-code order
        assert failure.verify(nustar)

    def test_lower_envelopes_are_totally_balanced(self):
        rng = SplitMix64(16)
        for _ in range(15):
            env = random_exact(g3, rng)
            assert is_totally_balanced(env)[0]


class TestClassifyFull:
    def test_dirac_all_true(self):
        assert classify_full(dirac(0, g3)).flags() == (True, True, True, True)

    def test_nine_tenths_all_false(self):
        assert classify_full(nine_tenths()).flags() == (False, False, False, False)

    def test_fixture_balanced_only(self, nustar):
        assert classify_full(nustar).flags() == (False, False, False, True)

    def test_chain_and_witnesses_on_random_corpus(self):
        rng = SplitMix64(161803)
        for trial in range(200):
            n = 2 + trial % 3
            nu = random_monotone(GroundSet(n), rng.next_u64(), 1 + trial % 8)
            report = classify_full(nu)  # chain enforced internally
            c, e, t, b = report.flags()
            assert (not c or e) and (not e or t) and (not t or b)
            assert verify_report(nu, report), trial

    def test_size_limits(self):
        with pytest.raises(ConfigOutOfRange):
            classify_full(dirac(0, GroundSet(9)))
        with pytest.raises(ConfigOutOfRange):
            classify_full(dirac(0, GroundSet(11)), allow_large=True)

    def test_allow_large_warns(self):
        with pytest.warns(RuntimeWarning):
            assert is_balanced(dirac(0, GroundSet(9)), allow_large=True)[0]


class TestMixtureClosure:
    def test_exact_class_closed_under_mixing(self):
        rng = SplitMix64(424242)
        for trial in range(200):
            n = 2 + trial % 3
            g = GroundSet(n)
            nu1, nu2 = random_exact(g, rng), random_exact(g, rng)
            t = F(rng.next_below(11), 10)
            assert is_exact(mix(nu1, nu2, t))[0], trial

    def test_totally_balanced_class_closed_under_mixing(self):
        rng = SplitMix64(515151)
        for trial in range(200):
            n = 2 + trial % 3
            g = GroundSet(n)
            # lower envelopes are totally balanced inputs
            nu1, nu2 = random_exact(g, rng), random_exact(g, rng)
            t = F(rng.next_below(11), 10)
            assert is_totally_balanced(mix(nu1, nu2, t))[0], trial
