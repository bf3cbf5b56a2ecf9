"""One answer to "is the core nonempty?".

`is_balanced` reads the full-set cover alone.  `lp.core.shared_core_nonempty`,
which `is_exact` and `is_totally_balanced` ask, answers no from a solved
full-set cover above 1; otherwise it reads, in order, a kept certified
point and, for a capacity's core, the identity ordering's marginal vector,
and solves the cold minimum of {0} (the first LP a lower envelope solves)
only when neither answers, and the full-set cover only for an empty core.
The routes differ in cost only: no flag and no witness may depend on which
one answered, or on what earlier calls left in the system's record.
"""

from fractions import Fraction as F
from itertools import permutations
from types import SimpleNamespace

import pytest

from test_core_system import damped, random_monotones, seeded_capacities

from capax.capacity import BalancedFamily, Capacity, new_capacity, random_convex_mixture, random_monotone
from capax.classify import (classify_full, is_balanced, is_exact, is_totally_balanced,
                            min_core_value, verify_report)
from capax.credal import core_polytope, lower_envelope, random_credal
from capax.errors import CoreEmpty
from capax.ground import GroundSet
from capax.lp import CoreSystem, cover_maximum
from capax.lp import _tableau_py
from capax.lp import core as core_module
from capax.lp.core import capacity_core, shared_core_nonempty
from capax.rng import SplitMix64

g3 = GroundSet(3)
PREDICATES = {"balanced": is_balanced, "exact": is_exact, "totally_balanced": is_totally_balanced}


@pytest.fixture
def lps(monkeypatch, cover_bounds):
    """Every LP solved from then on: the bound of each weighted cover, the
    subset of each cold core minimum solved (not each `minimum` call, which
    hands a solved one back), and one entry per warm minimum; and the table
    of each shared core system built."""
    log = SimpleNamespace(covers=cover_bounds, minima=[], warm=[], systems=[])
    minimum, dual, build = CoreSystem.minimum, core_module._dual, core_module.capacity_core
    monkeypatch.setattr(core_module, "capacity_core",
                        lambda values: log.systems.append(values) or build(values))

    def counted(self, subset):
        if subset not in self._minima:
            log.minima.append(subset)
        return minimum(self, subset)

    monkeypatch.setattr(CoreSystem, "minimum", counted)
    monkeypatch.setattr(core_module, "_dual",
                        lambda tab, columns: log.warm.append(1) or dual(tab, columns))
    return log


def solved(log):
    return log.covers, log.minima, log.warm


def fresh(nu):
    """nu over a new value table, so the memo holds nothing for it."""
    copy = Capacity(nu.ground, list(nu.values))
    assert copy.values is not nu.values
    return copy


def unbalanced_game():
    """Singletons 0, pairs 9/10: the three pairs, weight 1/2 each, cover 27/20."""
    return new_capacity(g3, {0b011: F(9, 10), 0b101: F(9, 10), 0b110: F(9, 10)}, strict=False)


def balanced_not_convex():
    """Balanced, but the identity's marginal vector (1/8, 7/16, 7/16) gives
    {0, 2} only 9/16 < 5/8: no marginal vector of that ordering answers."""
    nu = random_monotone(g3, 14, 16)
    assert nu[0b001] + 1 - nu[0b011] < nu[0b101]  # x0 + x2 under v({0, 2})
    return nu


def nine_point_input():
    """Exact but not convex, on 9 points: a credal envelope scaled by 9/10
    off the full set."""
    nu = lower_envelope(random_credal(GroundSet(9), SplitMix64(9), 10, 8))
    full = nu.ground.full
    return Capacity(nu.ground, [v if a == full else v * F(9, 10) for a, v in enumerate(nu.values)])


class TestRoutes:
    @pytest.mark.parametrize("seed", range(2))
    def test_convex_n8_is_exact_solves_no_lp(self, lps, seed):
        nu = random_convex_mixture(GroundSet(8), seed, 3)
        assert is_exact(nu) == (True, None)
        assert solved(lps) == ([], [], [])

    def test_convex_min_core_value_and_envelope_solve_no_lp(self, lps):
        nu = random_convex_mixture(GroundSet(6), 5, 4)
        assert min_core_value(nu, 0) == 0 and min_core_value(nu, nu.ground.full) == 1
        assert lower_envelope(core_polytope(fresh(nu))) == nu
        assert solved(lps) == ([], [], [])

    @pytest.mark.parametrize("nu", [unbalanced_game(), random_monotone(GroundSet(4), 0, 6)],
                             ids=["pairs-9/10", "random-monotone-4"])
    def test_unbalanced_is_balanced_solves_one_cover(self, lps, nu):
        balanced, family = is_balanced(nu)
        assert not balanced and family.violates(nu, nu.ground.full)
        assert solved(lps) == ([nu.ground.full], [], [])
        assert lps.systems == []

    @pytest.mark.parametrize("make", [lambda: random_convex_mixture(g3, 2, 3), balanced_not_convex],
                             ids=["convex", "balanced"])
    def test_balanced_is_balanced_solves_one_cover(self, lps, make):
        nu = make()
        balanced, mu = is_balanced(nu)
        assert solved(lps) == ([g3.full], [], []) and lps.systems == []
        assert balanced and mu.weights == cover_maximum(nu.values, g3.full).point

    def test_classify_full_of_the_unbalanced_game_solves_only_the_cover(self, lps):
        nu = unbalanced_game()
        report = classify_full(nu)
        assert report.flags() == (False, False, False, False)
        assert verify_report(nu, report)
        assert solved(lps) == ([g3.full], [], [])

    def test_classify_full_of_a_convex_capacity_solves_only_the_cover(self, lps):
        nu = random_convex_mixture(GroundSet(5), 7, 4)
        report = classify_full(nu)
        assert report.flags() == (True, True, True, True)
        assert verify_report(nu, report)
        assert solved(lps) == ([nu.ground.full], [], [])

    @pytest.mark.parametrize("make, exact", [(balanced_not_convex, False), (nine_point_input, True),
                                             (lambda: seeded_capacities(5, 2, 7)[1], False)],
                             ids=["balanced-3", "nine-point", "lowered-5"])
    def test_is_exact_solves_no_minimum0(self, lps, make, exact):
        # the first subset no certified point attains is the first cold LP
        assert is_exact(make())[0] is exact
        assert 0 not in lps.minima and lps.minima and lps.covers == []

    @pytest.mark.parametrize("make", [balanced_not_convex, nine_point_input],
                             ids=["balanced-3", "nine-point"])
    def test_a_standalone_core_envelope_solves_no_minimum0(self, lps, make):
        # its set is proved nonempty by the cold minimum of {0}, the first
        # LP the envelope asks, which then starts every warm one
        nu = make()
        envelope = lower_envelope(core_polytope(nu))
        assert lps.minima == [0b1] and lps.covers == []
        assert (envelope == nu) is is_exact(fresh(nu))[0]

    def test_core_polytope_tries_the_identity_marginal_vector_once(self, monkeypatch):
        # `has_point` tries it; when it fails, the cold minimum of {0}
        # proves the core nonempty without trying it again
        nu = nine_point_input()
        assert not capacity_core(nu.values).has_point()  # outside the core
        tried, marginal = [], CoreSystem._marginal
        monkeypatch.setattr(CoreSystem, "_marginal",
                            lambda self, subset: tried.append(subset) or marginal(self, subset))
        core_polytope(nu)
        assert tried == [0]

    def test_is_exact_builds_the_identity_marginal_vector_once(self, monkeypatch):
        # every prefix {0}, {0,1}, ... that no kept point attains asks for
        # the identity ordering's vector; it lies outside this core (the test
        # above), and once it has failed it is not built again
        nu = nine_point_input()
        floor = capacity_core(nu.values)._floor
        identity = tuple(floor[(2 << j) - 1] - floor[(1 << j) - 1] for j in range(9))
        built, check = [], core_module.scaled_masses

        def spied(ints, den, rows=(), floor=()):
            if floor:  # a marginal vector's core check
                built.append(tuple(ints))
            return check(ints, den, rows, floor)

        monkeypatch.setattr(core_module, "scaled_masses", spied)
        assert is_exact(nu) == (True, None)
        assert built.count(identity) == 1

    def test_a_gap_at_the_first_cold_minimum(self, lps):
        # the CI gap input: balanced, not exact, and {0} is the first subset
        # no marginal vector attains: its cold minimum is solved once, and its
        # certificate is the witness
        nu = lower_envelope(random_credal(GroundSet(7), SplitMix64(1), 8, 8))
        nu = Capacity(nu.ground, [v + F(1, 64) if a == 0b111 else v for a, v in enumerate(nu.values)])
        exact, gap = is_exact(nu)
        assert not exact and gap.subset == 0b1 and gap.verify(nu)
        assert solved(lps) == ([], [0b1], [])
        report = classify_full(fresh(nu))
        assert report.balanced and report.exact_witness == gap and verify_report(nu, report)

    @pytest.mark.parametrize("nu", [unbalanced_game(), random_monotone(GroundSet(4), 0, 6)],
                             ids=["pairs-9/10", "random-monotone-4"])
    def test_is_exact_of_an_empty_core_reports_the_cover(self, lps, nu):
        # the first cold minimum raises a Farkas-checked CoreEmpty
        nu = fresh(nu)
        cover = cover_maximum(nu.values, nu.ground.full)
        lps.covers.clear()
        assert is_exact(nu) == (False, BalancedFamily(cover.sets, cover.weights))
        assert solved(lps) == ([nu.ground.full], [lps.minima[0]], [])
        assert lps.minima[0] != 0

    @pytest.mark.parametrize("make, nonempty, alone", [
        (balanced_not_convex, True, ([], [0b1], [])),
        (unbalanced_game, False, ([g3.full], [0b1], [])),  # minimum of {0} refutes, the cover follows
        (lambda: random_convex_mixture(g3, 2, 3), True, ([], [], [])),
    ], ids=["balanced", "unbalanced", "convex"])
    def test_helper_alone_and_after_is_balanced(self, lps, make, nonempty, alone):
        nu = make()
        assert shared_core_nonempty(nu.values) is nonempty
        assert solved(lps) == alone
        assert shared_core_nonempty(nu.values) is nonempty  # a second question is free
        assert solved(lps) == alone
        nu = fresh(nu)
        lps.covers.clear()
        lps.minima.clear()
        assert is_balanced(nu)[0] is nonempty
        assert solved(lps) == ([g3.full], [], [])
        # a cover above 1 answers; at 1 the system proves it by its own point
        after = ([g3.full], alone[1] if nonempty else [], [])
        assert shared_core_nonempty(nu.values) is nonempty
        assert solved(lps) == after
        assert shared_core_nonempty(nu.values) is nonempty
        assert solved(lps) == after


def pool(n):
    """The seeded capacities of the test pools on n points: exact, lowered,
    random monotone (mostly unbalanced at n >= 4) and damped."""
    monotone = random_monotones(n, 4, 50 + n)
    return seeded_capacities(n, 2, 20 + n) + monotone + [damped(nu) for nu in monotone]


class TestOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_minimum0_succeeds_exactly_at_cover_value_one(self, n):
        outcomes = set()
        for nu in pool(n):
            try:
                capacity_core(nu.values).minimum(0)
                feasible = True
            except CoreEmpty:
                feasible = False
            assert (cover_maximum(nu.values, nu.ground.full).value == 1) is feasible, nu
            outcomes.add(feasible)
        assert outcomes == ({True} if n == 1 else {True, False})

    @pytest.mark.parametrize("n", range(2, 6))
    def test_pool_history_never_moves_a_witness(self, n):
        rng = SplitMix64(60 + n)
        capacities = pool(n) + [random_convex_mixture(GroundSet(n), rng.next_u64(), 3)]
        for nu in capacities:
            alone = {name: predicate(fresh(nu)) for name, predicate in PREDICATES.items()}
            for order in permutations(PREDICATES):
                copy = fresh(nu)
                assert {name: PREDICATES[name](copy) for name in order} == alone, (nu, order)
            report = classify_full(fresh(nu))
            assert (report.balanced, report.balanced_witness) == \
                alone["balanced"], nu
            assert (report.exact, report.exact_witness) == alone["exact"], nu
            assert (report.totally_balanced, report.tb_witness) == alone["totally_balanced"], nu
            if alone["balanced"][0]:  # the envelope's minima fill the pool first
                copy = fresh(nu)
                assert (lower_envelope(core_polytope(copy)) == copy) is alone["exact"][0], nu
                assert {name: predicate(copy) for name, predicate in PREDICATES.items()} == \
                    alone, nu


class TestNinePointInput:
    """Pivot bounds on the exact, non-convex 9-point input that CI classifies."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        count = [0]
        pivot = _tableau_py.Tableau.pivot

        def counted(self, r, c):
            count[0] += 1
            return pivot(self, r, c)

        monkeypatch.setattr(_tableau_py.Tableau, "pivot", counted)
        return count

    def test_standalone_is_exact(self, pivots):
        # no minimum(0) and no full-set cover: the first subset no marginal
        # vector attains is the one cold minimum, and each warm one starts
        # from the nearest stored optimum
        assert is_exact(nine_point_input()) == (True, None)
        assert 0 < pivots[0] <= 600

    def test_standalone_core_envelope(self, pivots):
        # the cold minimum of {0} proves the core nonempty and starts the
        # warm chain: the same 600 pivots as a standalone is_exact
        nu = nine_point_input()
        assert lower_envelope(core_polytope(nu)) == nu
        assert 0 < pivots[0] <= 600

    def test_classify_full(self, pivots):
        nu = nine_point_input()
        report = classify_full(nu)
        assert report.summary() == "convex:no exact:yes totally-balanced:yes balanced:yes"
        assert 0 < pivots[0] <= 862
