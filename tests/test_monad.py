import operator
import time
from fractions import Fraction as F

import pytest
from oracles import core_vertices, mul_candidate_scan, mul_fraction_walk

from capax.capacity import Capacity, _validate_table, dirac, new_capacity, random_monotone
from capax.classify import is_exact
from capax.errors import GeneratorExhausted, GroundMismatch
from capax.ground import GroundSet
from capax.monad import SecondOrderCapacity, lift_unit, monad_mul, unit_second
from capax.rng import SplitMix64
from capax.search import SearchConfig, build_second_order

g2, g3 = GroundSet(2), GroundSet(3)

SUPPORT_DRAWS = 1000


def random_second_order(rng, n, k, grid=6) -> SecondOrderCapacity:
    """k distinct random monotone supports and a random weight game; raises
    GeneratorExhausted when SUPPORT_DRAWS draws give fewer than k distinct
    supports (one point has one capacity; a coarse grid has few)."""
    g = GroundSet(n)
    support = []
    for _ in range(SUPPORT_DRAWS):
        candidate = random_monotone(g, rng.next_u64(), grid)
        if candidate not in support:
            support.append(candidate)
            if len(support) == k:
                break
    else:
        raise GeneratorExhausted(f"{len(support)} distinct supports in {SUPPORT_DRAWS} "
                                 f"draws, not {k}")
    game = random_monotone(GroundSet(k), rng.next_u64(), grid)
    return SecondOrderCapacity(g, tuple(support), game)


class TestSecondOrderValidation:
    def test_support_distinctness_enforced(self):
        nu = random_monotone(g2, 1, 4)
        with pytest.raises(ValueError):
            SecondOrderCapacity(g2, (nu, nu), random_monotone(g2, 2, 4))

    def test_game_size_must_match(self):
        nu = random_monotone(g2, 1, 4)
        with pytest.raises(GroundMismatch):
            SecondOrderCapacity(g2, (nu,), random_monotone(g2, 2, 4))

    def test_support_ground_must_match(self):
        with pytest.raises(GroundMismatch):
            SecondOrderCapacity(g2, (random_monotone(g3, 1, 4),),
                                random_monotone(GroundSet(1), 2, 4))

    def test_impossible_support_request_raises_in_bounded_time(self):
        started = time.perf_counter()
        with pytest.raises(GeneratorExhausted):
            random_second_order(SplitMix64(1), 1, 2)  # one point has one capacity
        assert time.perf_counter() - started < 10

    def test_semantics_accessor(self):
        c2 = random_second_order(SplitMix64(9), 3, 3)
        assert c2.value_on([]) == 0
        assert c2.value_on(c2.support) == 1
        assert c2.value_on([c2.support[1]]) == c2.game[0b010]


class TestUnitSecond:
    def test_support_is_single(self):
        nu = random_monotone(g3, 4, 5)
        c2 = unit_second(nu)
        assert c2.size == 1
        assert c2.game.values == (F(0), F(1))

    def test_first_unit_law(self):
        for seed in range(50):
            nu = random_monotone(GroundSet(2 + seed % 4), seed, 7)
            assert monad_mul(unit_second(nu)) == nu

    def test_dirac_at_dirac_semantics(self):
        d = dirac(0, g2)
        c2 = unit_second(d)
        assert c2.value_on([d]) == 1


class TestLiftUnit:
    def test_one_point_matches_unit(self):
        g1 = GroundSet(1)
        nu = new_capacity(g1, {})
        assert monad_mul(lift_unit(nu)) == monad_mul(unit_second(nu)) == nu

    def test_game_table_is_the_capacity_table(self):
        nu = random_monotone(g3, 12, 9)
        assert lift_unit(nu).game.values == nu.values

    def test_second_unit_law_against_oracle(self):
        # 200 random capacities, n <= 5, verified against the candidate scan
        rng = SplitMix64(606)
        for trial in range(200):
            n = 2 + trial % 4
            nu = random_monotone(GroundSet(n), rng.next_u64(), 8)
            lifted = lift_unit(nu)
            assert mul_candidate_scan(lifted) == nu, trial
            assert monad_mul(lifted) == nu, trial


class TestMonadMul:
    def test_hand_computation_two_points(self):
        nu = new_capacity(g2, {1: F(1, 3), 2: F(3, 4)})
        assert monad_mul(lift_unit(nu))[0b01] == F(1, 3)

    def test_breakpoint_equals_candidate_scan(self):
        rng = SplitMix64(5150)
        for trial in range(150):
            c2 = random_second_order(rng, 2 + rng.next_below(3), 1 + rng.next_below(4))
            assert monad_mul(c2) == mul_candidate_scan(c2), trial

    def test_output_always_valid(self):
        rng = SplitMix64(321)
        for _ in range(50):
            out = monad_mul(random_second_order(rng, 3, 3))
            assert isinstance(out, Capacity)
            _validate_table(out.ground, out.values)  # monad_mul itself does not check


class TestIntegerWalk:
    """`monad_mul` against the Fraction breakpoint walk it replaced: equal
    tables made of the very same value objects."""

    @staticmethod
    def assert_same_walk(c2):
        new, old = monad_mul(c2), mul_fraction_walk(c2)
        assert new == old
        assert all(map(operator.is_, new.values, old.values))

    @pytest.mark.parametrize("target_class", ["exact", "totally_balanced"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_search_draws(self, target_class, n):
        # one capacity lives on one point, and the totally balanced generator
        # finds no member on four points, so those shapes have no draws
        for k in range(1, 5):
            if (n == 1 and k > 1) or (target_class == "totally_balanced" and max(n, k) > 3):
                continue
            cfg = SearchConfig(n=n, support_size=k, target_class=target_class,
                               seed_start=0, seed_end=5)
            for seed in cfg.seeds:
                self.assert_same_walk(build_second_order(cfg, seed))

    def test_random_monotone_second_order(self):
        rng = SplitMix64(8080)
        for trial in range(200):
            c2 = random_second_order(rng, 2 + trial % 3, 1 + trial // 3 % 4, grid=2 + trial % 7)
            self.assert_same_walk(c2)
            # equal values as distinct objects: a breakpoint comes from the lowest index
            fresh = tuple(Capacity(nu.ground, [F(v.numerator, v.denominator) for v in nu.values])
                          for nu in c2.support)
            self.assert_same_walk(SecondOrderCapacity(c2.ground, fresh, c2.game))

    def test_units(self):
        for seed in range(40):
            nu = random_monotone(GroundSet(1 + seed % 5), seed, 1 + seed % 9)
            self.assert_same_walk(unit_second(nu))
            self.assert_same_walk(lift_unit(nu))


class TestExactnessTransfer:
    def test_core_system_matches_weight_game_for_small_support(self):
        # membership in the core of C is decided by which support members a
        # closed set contains, so the constraint system over measures on the
        # support is *literally* the weight game's core system; brute-check
        # the identification for k <= 3
        rng = SplitMix64(246)
        for trial in range(30):
            k = 1 + trial % 3
            c2 = random_second_order(rng, 3, k)
            for index_mask in range(1 << k):
                members = [c2.support[i] for i in range(k) if index_mask >> i & 1]
                assert c2.member_mask(members) == index_mask
                assert c2.value_on(members) == c2.game[index_mask]

    def test_exactness_reduces_to_weight_game(self):
        # for k <= 3, compare the per-subset core minima of the weight game
        # against brute vertex enumeration: C is exact (as a finitely
        # supported capacity) iff its weight game is
        rng = SplitMix64(135)
        for trial in range(25):
            k = 2 + trial % 2
            c2 = random_second_order(rng, 2, k)
            game = c2.game
            vertices = core_vertices(game)
            if not vertices:
                assert not is_exact(game)[0]
                continue
            brute_exact = all(
                min(sum(v[i] for i in range(k) if mask >> i & 1) for v in vertices)
                == game[mask]
                for mask in game.ground.proper_nonempty_subsets()
            )
            assert brute_exact == is_exact(game)[0], trial
