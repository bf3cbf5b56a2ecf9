"""Total balancedness settled by certificates: singletons always, pairs by
v(i) + v(j) <= v(ij), larger subsets by certified core points; every other
subset by its cover LP, with the same verdicts and witnesses as one cover LP
per subset."""

from fractions import Fraction as F

import pytest

from oracles import totally_balanced_every_subset
from test_core_system import damped, random_monotones, seeded_capacities
from test_search import market_game

from capax.capacity import BalancedFamily, new_capacity, random_convex_mixture, random_monotone
from capax.classify import (TotalBalanceFailure, classify_full, is_balanced, is_exact,
                            is_totally_balanced)
from capax.errors import ShapeMismatch
from capax.ground import GroundSet
from capax.lp import CoreSystem
from capax.rng import SplitMix64
from capax.search import _screened_draw

g3 = GroundSet(3)


def subadditive_pair():
    """v(0) + v(1) = 1 > v(01) = 1/2: total balancedness fails at {0, 1}."""
    return new_capacity(g3, {0b001: F(1, 2), 0b010: F(1, 2)}, strict=False)


class TestAgainstEverySubset:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_verdict_and_witness(self, n):
        g = GroundSet(n)
        monotone = random_monotones(n, 3, 30 + n)
        rng = SplitMix64(40 + n)
        capacities = (seeded_capacities(n, 2, 20 + n) + monotone
                      + [damped(nu) for nu in monotone]
                      + [market_game(g, rng, 2 + i, 8) for i in range(2)])
        if n == 3:
            capacities.append(subadditive_pair())
        failed_at = set()
        for nu in capacities:
            expected = totally_balanced_every_subset(nu)
            assert is_totally_balanced(nu) == expected, nu
            report = classify_full(nu)
            assert (report.totally_balanced, report.tb_witness) == expected, nu
            if not expected[0]:
                failed_at.add(bin(expected[1].subset).count("1"))
        if n >= 4:
            # failures at pairs and at subsets only an LP can decide
            assert 2 in failed_at and max(failed_at) >= 3, failed_at


@pytest.fixture
def systems(monkeypatch):
    """Every CoreSystem built from then on."""
    built, init = [], CoreSystem.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(CoreSystem, "__init__", counted)
    return built


class TestLpCounts:
    @pytest.fixture
    def minima(self, monkeypatch):
        """The subset of every cold core minimum solved from then on."""
        log, minimum = [], CoreSystem.minimum
        monkeypatch.setattr(CoreSystem, "minimum",
                            lambda self, subset: log.append(subset) or minimum(self, subset))
        return log

    def test_screened_generator_draw_runs_one_lp(self, cover_bounds, systems, minima):
        # balanced but not convex: the identity's marginal vector fails its
        # core check, so the full set's own LP, its cover, settles it
        seed = next(s for s in range(10_000) if _screened_draw(g3, s, 16) is not None)
        assert is_totally_balanced(random_monotone(g3, seed, 16)) == (True, None)
        assert (cover_bounds, minima, len(systems)) == ([g3.full], [], 1)
        assert cover_bounds.built == [g3.full]

    def test_screened_draw_with_an_empty_core_solves_only_its_cover(self, cover_bounds, minima):
        # no pooled point and no identity marginal vector: the full-set cover
        # refutes, with no minimum(0) before it
        nu = _screened_draw(g3, 160, 16)
        family = BalancedFamily((0b011, 0b101, 0b110), (F(1, 2),) * 3)
        assert is_totally_balanced(nu) == (False, TotalBalanceFailure(g3.full, family))
        assert (cover_bounds, minima) == ([g3.full], [])
        assert cover_bounds.built == [g3.full]  # the pairs leave the singletons' path

    def test_convex_n8_runs_only_the_full_cover(self, cover_bounds):
        g = GroundSet(8)
        report = classify_full(random_convex_mixture(g, 0, 6))
        assert report.flags() == (True, True, True, True)
        assert cover_bounds == cover_bounds.built == [g.full]

    def test_subadditive_pair_is_solved_and_reported(self, cover_bounds):
        nu = subadditive_pair()
        ok, failure = is_totally_balanced(nu)
        assert not ok and failure.subset == 0b011 and failure.verify(nu)
        assert cover_bounds == [0b011] and cover_bounds.built == []
        cover_bounds.clear()
        report = classify_full(nu)
        assert report.tb_witness == failure
        assert cover_bounds == [g3.full, 0b011]
        # every set is worth at most its points: both covers are the
        # singletons of Bland's path, and neither builds LP columns
        assert cover_bounds.built == []

    def test_the_three_predicates_share_one_full_cover(self, cover_bounds, systems):
        unbalanced = new_capacity(g3, {0b011: F(9, 10), 0b101: F(9, 10), 0b110: F(9, 10)},
                                  strict=False)
        pair = subadditive_pair()
        for nu in (random_convex_mixture(GroundSet(4), 3, 5), pair, unbalanced,
                   damped(random_monotone(GroundSet(4), 7, 6))):
            cover_bounds.clear()
            systems.clear()
            is_balanced(nu)
            is_exact(nu)
            is_totally_balanced(nu)
            assert cover_bounds.count(nu.ground.full) == 1, nu
            # every cover but the subadditive pair's leaves the singletons' path
            assert cover_bounds.built == ([] if nu is pair else [nu.ground.full]), nu
            # an empty core is answered by the cover alone, with no system
            assert len(systems) == (nu is not unbalanced), nu


class TestCoverDual:
    def test_admit_pools_core_points_only(self):
        # a system missing bounds, so attains uses its pool and nothing else
        system = CoreSystem(3, [0b001, 0b011], [F(1, 4), F(1, 2)])
        for point in ([F(1, 8), F(1, 2), F(3, 8)],  # below the bound on {0}
                      [F(1, 4), F(1, 8), F(5, 8)],  # below the bound on {0, 1}
                      [F(1, 4), F(1, 4), F(1, 4)],  # mass 3/4
                      [F(-1, 4), F(3, 4), F(1, 2)]):  # negative
            assert not system.admit(point)
        assert not system.attains(0b001) and not system.attains(0b011)
        with pytest.raises(ShapeMismatch):
            system.admit([F(1, 2), F(1, 2)])
        assert system.admit([F(1, 4), F(1, 4), F(1, 2)])
        assert system.attains(0b001) and system.attains(0b011)

