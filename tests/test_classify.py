import warnings
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from oracles import convex_all_pairs, convex_local_pairs, core_lp_feasible, fraction_marginal

from capax.capacity import (
    BalancedFamily,
    Capacity,
    Measure,
    dirac,
    mix,
    new_capacity,
    random_convex_mixture,
    random_measure,
    random_monotone,
    unanimity,
)
from capax import classify
from capax.classify import (
    ConvexityViolation,
    ExactnessGap,
    TotalBalanceFailure,
    bondareva_value,
    classify_full,
    is_balanced,
    is_convex,
    is_exact,
    is_totally_balanced,
    min_core_value,
    verify_report,
)
from capax.credal import core_polytope, lower_envelope, random_credal
from capax.errors import (ConfigOutOfRange, CoreEmpty, EmptySubset, GroundMismatch,
                          InternalInconsistency)
from capax.ground import GroundSet
from capax.lp import _tableau_py, cover_maximum, solver
from capax.lp import core as core_module
from capax.lp.core import CoreSystem, capacity_core
from capax.monad import monad_mul
from capax.rng import SplitMix64
from capax.search import SearchConfig, build_second_order

g2, g3, g4 = GroundSet(2), GroundSet(3), GroundSet(4)


def nine_tenths():
    return new_capacity(g2, {1: F(9, 10), 2: F(9, 10)})


def random_exact(ground, rng, grid=8):
    """Exact capacities as lower envelopes of random vertex credal sets."""
    return lower_envelope(random_credal(ground, rng, ground.n + 1, grid))


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def prime_denominator_capacity(g, rng):
    """The monotone closure of one draw k / p per subset, p a prime of
    PRIMES, the full set pinned to 1."""
    raw = [F(rng.next_below(p), p) for p in (PRIMES[rng.next_below(len(PRIMES))]
                                           for _ in g.subsets())]
    values = [max(raw[b] for b in g.subsets() if b & ~a == 0) if a else F(0) for a in g.subsets()]
    values[g.full] = F(1)
    return Capacity(g, values)


def mixed_denominators(n, seed):
    """Seeded capacities on n points with large, mixed denominators: a credal
    envelope, convex mixtures and mixtures of two at a weight of prime
    denominator, each scaled by 9/10 off the full set, a prime-denominator
    closure, and an additive and a convex one with one value raised or
    lowered by 1/L^2 (L the lcm of its denominators): every inequality of the
    additive one is tight, so its near misses fail, and the convex mixture's
    hold."""
    g = GroundSet(n)
    rng = SplitMix64(seed)
    convex = [random_convex_mixture(g, rng.next_u64(), grid) for grid in (89, 97)]
    envelope = lower_envelope(random_credal(g, rng, n + 1, 83))
    t = F(1 + rng.next_below(100), 101)
    tables = [*convex, envelope, mix(convex[0], convex[1], t), mix(convex[0], envelope, t)]
    tables += [Capacity(g, [v if a == g.full else v * F(9, 10) for a, v in enumerate(nu.values)])
               for nu in tables[2:]]
    tables.append(prime_denominator_capacity(g, rng))
    for nu in (random_measure(g, rng, 101).as_capacity(), convex[0]):
        scale = lcm(*(v.denominator for v in nu.values))
        for step in (F(1, scale * scale), F(-1, scale * scale)):
            # the first subset that stays between its neighbours once moved
            a = next((a for a in g.proper_nonempty_subsets()
                      if all(nu[a ^ b] <= nu[a] + step if a & b else nu[a] + step <= nu[a | b]
                             for b in (1 << i for i in g.points()))), None)
            if a is not None:
                values = list(nu.values)
                values[a] += step
                tables.append(Capacity(g, values))
    return tables


class TestConvex:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_integer_scan_agrees_with_the_fraction_scans(self, n):
        verdicts = set()
        for nu in mixed_denominators(n, 900 + n):
            scan = is_convex(nu)
            assert scan == convex_local_pairs(nu), nu  # the same first pair
            assert scan[0] == convex_all_pairs(nu)[0], nu
            assert scan[0] or scan[1].verify(nu)
            verdicts.add(scan[0])
        assert verdicts == ({True} if n <= 1 else {True, False})

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_flipped_convex_flag_is_refused(self, n):
        for nu in mixed_denominators(n, 950 + n):
            report = classify_full(nu)
            assert verify_report(nu, report)
            if report.convex:  # a pair that holds, as the violation
                flipped = replace(report, convex_witness=ConvexityViolation(1, nu.ground.full))
            else:
                flipped = replace(report, convex_witness=None)
            assert not verify_report(nu, flipped)


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
            fast = is_convex(nu)
            oracle = convex_all_pairs(nu)
            assert fast[0] == oracle[0], trial
            if not fast[0]:
                assert fast[1].verify(nu) and oracle[1].verify(nu)


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

    @pytest.mark.parametrize("n", range(1, 10))
    def test_no_predicate_runs_the_generic_solve(self, n, monkeypatch):
        calls = []
        original = solver.solve

        def counted(lp):
            calls.append(lp)
            return original(lp)

        monkeypatch.setattr(solver, "solve", counted)
        monkeypatch.setattr(classify, "solve", counted)
        g = GroundSet(n)
        monotone = random_monotone(g, n + 2, 6)
        damped = Capacity(g, [v if a == g.full else v / n for a, v in enumerate(monotone.values)])
        verdicts = set()
        for nu in (random_convex_mixture(g, n, 6), damped, monotone):
            report = classify_full(nu)
            assert verify_report(nu, report)
            for predicate in (is_balanced, is_exact, is_totally_balanced):
                predicate(nu)
            verdicts.add(report.balanced)
        assert verdicts == ({True} if n == 1 else {True, False})
        assert calls == []

    def test_core_witness_is_the_full_set_covers_certified_dual(self):
        rng = SplitMix64(12)
        verdicts = set()
        for trial in range(40):
            g = GroundSet(1 + trial % 5)
            nu = random_exact(g, rng) if trial % 2 else random_monotone(g, rng.next_u64(), 5)
            balanced, witness = is_balanced(nu)
            cover = cover_maximum(nu.values, g.full)
            if balanced:
                assert cover.value == 1 and witness.weights == cover.point
            else:
                assert witness == BalancedFamily(cover.sets, cover.weights)
                assert witness.violates(nu, g.full)
            assert classify_full(nu).balanced_witness == witness
            verdicts.add(balanced)
        assert verdicts == {True, False}

    def test_routes_that_disagree_raise(self, nustar, monkeypatch):
        # a value-1 cover has a core point as its dual, so a core system
        # that then finds the core empty is a solver bug, whichever ran first
        def empty(self, subset):
            raise CoreEmpty("forced")

        monkeypatch.setattr(CoreSystem, "minimum", empty)
        system = capacity_core(nustar.values)
        assert not system.admit(fraction_marginal(system, 0))  # so a cold minimum must answer
        assert is_balanced(nustar)[0]  # the cover alone answers
        with pytest.raises(InternalInconsistency):
            is_exact(nustar)
        fresh = Capacity(g4, list(nustar.values))  # no cover solved yet
        with pytest.raises(InternalInconsistency):
            is_exact(fresh)


class TestMinCoreValue:
    def test_unanimity_pair(self):
        assert min_core_value(unanimity(0b011, g3), 0b001) == 0

    def test_measure_core_is_singleton(self):
        mu = Measure(g3, [F(1, 6), F(1, 3), F(1, 2)])
        nu = mu.as_capacity()
        for mask in g3.nonempty_subsets():
            assert min_core_value(nu, mask) == mu.mass(mask)

    def test_core_empty(self):
        for nu in (nine_tenths(), new_capacity(g2, {1: F(3, 4), 2: F(3, 4)})):
            for mask in g2.subsets():  # the empty and the full set too
                with pytest.raises(CoreEmpty):
                    min_core_value(nu, mask)

    def test_ends_solve_nothing_after_is_exact(self, monkeypatch):
        nu = random_convex_mixture(g4, 5, 6)
        assert is_exact(nu) == (True, None)
        calls = []
        for name in ("_revised", "_dual"):
            loop = getattr(core_module, name)
            monkeypatch.setattr(core_module, name,
                                lambda *args, loop=loop: calls.append(args) or loop(*args))
        assert min_core_value(nu, 0) == 0 and min_core_value(nu, nu.ground.full) == 1
        assert calls == []

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

    def test_malformed_witnesses_are_refused_not_raised(self, nustar):
        nu = random_monotone(g3, 5, 4)
        report = classify_full(nu)
        assert not report.convex and verify_report(nu, report)
        assert not verify_report(nu, replace(report, convex_witness=None))
        # no balancedness witness, or a family whose total v({0}) does not
        # exceed v(X) = 1, on an unbalanced and on a balanced capacity
        for game in (nu, nustar):
            full = classify_full(game)
            assert verify_report(game, full)
            for w in (None, BalancedFamily((0b1,), (F(1),))):
                assert not verify_report(game, replace(full, balanced_witness=w))
        # a member set, or the certified subset, off the three points
        assert not ExactnessGap(1, F(1), F(0), ((8, F(1)),)).verify(nu)
        assert not ExactnessGap(9, nu[1], F(0), ((1, F(1)),)).verify(nu)
        assert not TotalBalanceFailure(8, BalancedFamily((8,), (F(1),))).verify(nu)
        assert not TotalBalanceFailure(9, BalancedFamily((1,), (F(1),))).verify(nu)

    def test_an_empty_cores_exactness_family_is_checked_unless_it_is_the_balancedness_one(self):
        nu = nine_tenths()
        report = classify_full(nu)
        assert report.exact_witness == report.balanced_witness and verify_report(nu, report)
        # a family whose total 9/10 stays below v(X), and one that loads point 0 twice
        for w in (BalancedFamily((0b01,), (F(1),)), BalancedFamily((0b01, 0b11), (F(1), F(1)))):
            assert not verify_report(nu, replace(report, exact_witness=w))
        assert verify_report(nu, replace(report, exact_witness=BalancedFamily((0b01, 0b10), (F(1), F(1)))))

    def test_a_core_measure_must_weigh_exactly_one(self):
        # (1, 1, 1) meets every bound v(A) <= 1 but weighs 3 at X
        nu = mix(unanimity(0b011, g3), dirac(2, g3), F(1, 3))
        report = classify_full(nu)
        assert report.balanced and verify_report(nu, report)
        assert not verify_report(nu, replace(report, balanced_witness=Measure._built(g3, (1, 1, 1))))

    def test_a_full_set_failure_equal_to_the_balancedness_family_is_checked_once(self, monkeypatch):
        nu = nine_tenths()
        report = classify_full(nu)
        assert report.tb_witness == TotalBalanceFailure(g2.full, report.balanced_witness)
        calls, violates = [], BalancedFamily.violates
        monkeypatch.setattr(BalancedFamily, "violates",
                            lambda family, game, bound: calls.append(family) or violates(family, game, bound))
        assert verify_report(nu, report)
        assert calls == [report.balanced_witness]
        # another family at X is checked: one of total 27/20 passes, one of 9/10 does not
        for weight, holds in ((F(1, 2), True), (F(0), False)):
            other = BalancedFamily((0b01, 0b10), (F(1), weight))
            calls.clear()
            assert verify_report(nu, replace(report, tb_witness=TotalBalanceFailure(g2.full, other))) == holds
            assert calls == [report.balanced_witness, other]

    @pytest.mark.parametrize("field, witness", [
        ("tb_witness", BalancedFamily((1,), (1,))),
        ("convex_witness", Measure(g3, (1, 0, 0))),
    ])
    def test_wrong_typed_witness_is_refused_not_raised(self, field, witness):
        # not convex and not totally balanced, so both witnesses are read
        nu = new_capacity(g3, {a: F(1, 2) for a in g3.proper_nonempty_subsets()})
        report = classify_full(nu)
        assert not report.convex and not report.totally_balanced and verify_report(nu, report)
        assert not verify_report(nu, replace(report, **{field: witness}))

    def test_full_set_cover_solved_once(self, nustar, cover_bounds):
        rng = SplitMix64(5)
        # the covers that build LP columns: a point worth 1, or two worth
        # 9/10, covers every set by its singletons, so no path leaves them
        for nu, built in ((dirac(0, g3), []), (nine_tenths(), []), (nustar, [g4.full, 0b0111]),
                          (random_exact(g4, rng), [g4.full]),
                          (random_convex_mixture(g4, 9, 5), [g4.full])):
            cover_bounds.clear()
            report = classify_full(nu)
            assert cover_bounds.count(nu.ground.full) == 1
            assert cover_bounds.built == built
            balanced, balanced_w = is_balanced(nu)
            assert (report.balanced, report.balanced_witness) == \
                (balanced, balanced_w)
            assert (report.totally_balanced, report.tb_witness) == is_totally_balanced(nu)
            assert (report.exact, report.exact_witness) == is_exact(nu)
            assert cover_bounds.count(nu.ground.full) == 1  # the predicates ask the same one
            assert cover_bounds.built.count(nu.ground.full) == built.count(nu.ground.full)

    def test_the_report_calls_the_public_predicates(self, nustar, monkeypatch):
        called = []
        for name in ("is_balanced", "is_convex", "is_exact", "is_totally_balanced"):
            predicate = getattr(classify, name)
            monkeypatch.setattr(classify, name, lambda nu, name=name, predicate=predicate:
                                called.append(name) or predicate(nu))
        classify_full(nustar)
        assert called == ["is_balanced", "is_convex", "is_exact", "is_totally_balanced"]

    def test_predicate_witnesses_are_the_reports_on_pinned_families(self):
        # the search re-checks a product by one predicate and writes the
        # report's witness, so the two must be the same object on the
        # families the output pins draw from: random monotone and convex
        # mixtures at n = 2..4, envelopes, damped and lowered tables at
        # n = 5, and exact and totally balanced search products
        def families():
            for seed in range(24):
                g = GroundSet(2 + seed % 3)
                yield random_monotone(g, seed, 6)
                yield random_convex_mixture(g, seed, 8)
            g = GroundSet(5)
            for seed in range(6):
                rng = SplitMix64(5000 + seed)
                monotone = random_monotone(g, rng.next_u64(), 6)
                yield monotone
                yield Capacity(g, [v if a == g.full else v / 5
                                   for a, v in enumerate(monotone.values)])
                envelope = random_exact(g, rng)
                yield envelope
                a = 0b00111 << seed % 3
                yield Capacity(g, [max(envelope[a & ~(1 << i)] for i in range(5) if a >> i & 1)
                                   if m == a else v for m, v in enumerate(envelope.values)])
            for target_class, n, k, grid in (("exact", 4, 4, 16), ("totally_balanced", 3, 3, 16)):
                cfg = SearchConfig(n=n, support_size=k, target_class=target_class,
                                   seed_start=0, seed_end=0, grid=grid)
                for seed in range(8):
                    yield monad_mul(build_second_order(cfg, seed))

        kinds = set()
        for nu in families():
            report = classify_full(nu)
            assert is_exact(nu) == (report.exact, report.exact_witness)
            assert is_totally_balanced(nu) == (report.totally_balanced, report.tb_witness)
            kinds.update((type(report.exact_witness).__name__,
                          type(report.tb_witness).__name__))
        assert kinds == {"NoneType", "ExactnessGap", "BalancedFamily", "TotalBalanceFailure"}

    def test_size_limits(self):
        for n in (11, 16):
            with pytest.raises(ConfigOutOfRange):
                classify_full(dirac(0, GroundSet(n)))

    @pytest.mark.parametrize("n, refused", [(9, False), (11, True), (13, True)])
    def test_size_is_checked_before_the_convexity_scan(self, monkeypatch, n, refused):
        scans, scan = [], classify.is_convex
        monkeypatch.setattr(classify, "is_convex", lambda nu: scans.append(nu) or scan(nu))
        nu = dirac(0, GroundSet(n))
        if refused:
            with pytest.raises(ConfigOutOfRange):
                classify_full(nu)
            assert scans == []
        else:  # an admitted size reaches the scan exactly once
            assert classify_full(nu).convex
            assert scans == [nu]


# every public entry that builds a 2^n-subset LP from a capacity's table
SIZED_ENTRIES = {
    "classify_full": classify_full,
    "is_balanced": is_balanced,
    "is_exact": is_exact,
    "is_totally_balanced": is_totally_balanced,
    "bondareva_value": lambda nu: bondareva_value(nu, nu.ground.full),
    "min_core_value": lambda nu: min_core_value(nu, 1),
    "core_polytope": core_polytope,
}


class TestSizeRule:
    @pytest.mark.parametrize("entry", SIZED_ENTRIES)
    def test_eleven_points_refused_before_any_pivot_or_scan(self, monkeypatch, entry):
        runs, scans = [], []
        monkeypatch.setattr(_tableau_py.Tableau, "run", lambda tab, allowed: runs.append(tab))
        monkeypatch.setattr(classify, "is_convex", scans.append)
        with pytest.raises(ConfigOutOfRange, match="at most 10 points, got 11"):
            SIZED_ENTRIES[entry](dirac(0, GroundSet(11)))
        assert runs == scans == []

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("entry", SIZED_ENTRIES)
    def test_nine_and_ten_points_answer_without_a_warning(self, entry, n):
        vacuous = new_capacity(GroundSet(n), {}, strict=False)  # cheap LPs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SIZED_ENTRIES[entry](vacuous) is not None


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
