import sys
from fractions import Fraction as F

import pytest
from test_pinned_outputs import core_text, search_text, tb_search_text, tb_text

from capax.capacity import (
    BalancedFamily,
    Capacity,
    Measure,
    dirac,
    measure_pushforward,
    mix,
    new_capacity,
    point_mass,
    pushforward,
    random_convex_mixture,
    random_measure,
    random_monotone,
    unanimity,
    _validate_table,
)
from capax.classify import TotalBalanceFailure
from capax.credal import CredalSet
from capax.errors import (
    BadNormalization,
    EmptyCarrier,
    GroundMismatch,
    MissingSubset,
    NotMonotone,
    OutOfRange,
    ValidationError,
)
from capax.gamefiles import parse_game
from capax.ground import GroundSet, PointMap, compose, family_total, identity_map
from capax.rng import SplitMix64

g1, g2, g3 = GroundSet(1), GroundSet(2), GroundSet(3)


class TestNewCapacity:
    def test_one_point_unique(self):
        nu = new_capacity(g1, {})
        assert nu.values == (F(0), F(1))

    def test_two_point_accept(self):
        nu = new_capacity(g2, {1: F(1, 2), 2: F(3, 4)})
        assert nu[1] == F(1, 2) and nu[2] == F(3, 4)

    def test_bad_normalization(self):
        with pytest.raises(BadNormalization):
            new_capacity(g2, {1: F(1, 2), 3: F(1, 4)})
        with pytest.raises(BadNormalization):
            new_capacity(g2, {0: F(1, 8), 1: F(1, 2), 2: F(1, 2)})

    def test_missing_subset_strict(self):
        with pytest.raises(MissingSubset):
            new_capacity(g2, {1: F(1, 2)})

    def test_lenient_fills_by_monotone_closure(self):
        nu = new_capacity(g3, {1: F(1, 2)}, strict=False)
        assert nu[0b011] == F(1, 2)  # closure of {0}
        assert nu[0b110] == F(0)
        assert nu[0b111] == F(1)

    def test_lenient_keeps_given_values_and_detects_conflicts(self):
        with pytest.raises(NotMonotone):
            new_capacity(g3, {1: F(3, 4), 0b011: F(1, 2)}, strict=False)

    def test_not_monotone_witness(self):
        table = {mask: F(0) for mask in range(1, 7)}
        table[0b001] = F(3, 4)  # v({0}) > v({0,1})
        with pytest.raises(NotMonotone) as err:
            new_capacity(g3, table)
        assert err.value.small & ~err.value.large == 0  # witness is a subset pair
        nu_vals = table
        assert nu_vals.get(err.value.small, F(0)) > nu_vals.get(err.value.large, F(0))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            new_capacity(g2, {1: F(-1, 2), 2: F(1, 2)})
        with pytest.raises(OutOfRange):
            new_capacity(g2, {1: F(1, 2), 2: F(5, 4)})

    def test_ground_mismatch_key(self):
        with pytest.raises(GroundMismatch):
            new_capacity(g2, {5: F(1, 2)})


class TestDiracUnanimity:
    def test_dirac_formula(self):
        d = dirac(0, g2)
        assert d[0b01] == 1 and d[0b10] == 0
        d2 = dirac(2, g3)
        assert d2[0b011] == 0 and d2[0b110] == 1

    def test_unanimity_formula(self):
        u = unanimity(0b011, g3)
        assert u[0b011] == 1 and u[0b101] == 0

    def test_unanimity_of_singleton_is_dirac(self):
        for x in range(3):
            assert unanimity(1 << x, g3) == dirac(x, g3)

    def test_empty_carrier(self):
        with pytest.raises(EmptyCarrier):
            unanimity(0, g3)


class TestMix:
    def test_identity_cases(self):
        a = unanimity(0b011, g3)
        b = dirac(1, g3)
        assert mix(a, b, F(1)) == a
        assert mix(a, b, F(0)) == b

    def test_self_mix_fixed_point(self):
        nu = random_monotone(g3, 11, 6)
        for t in (F(0), F(1, 3), F(2, 3), F(1)):
            assert mix(nu, nu, t) == nu

    def test_measures_mix_linearly(self):
        mu1 = Measure(g3, [F(1, 2), F(1, 2), F(0)])
        mu2 = Measure(g3, [F(0), F(1, 4), F(3, 4)])
        t = F(2, 5)
        blended = Measure(g3, [t * a + (1 - t) * b
                               for a, b in zip(mu1.weights, mu2.weights)])
        assert mix(mu1.as_capacity(), mu2.as_capacity(), t) == blended.as_capacity()

    def test_errors(self):
        with pytest.raises(GroundMismatch):
            mix(dirac(0, g2), dirac(0, g3), F(1, 2))
        with pytest.raises(ValueError):
            mix(dirac(0, g2), dirac(1, g2), F(3, 2))


class TestPushforward:
    def test_identity_law(self):
        nu = random_monotone(g3, 3, 5)
        assert pushforward(identity_map(g3), nu) == nu

    def test_merge_unanimity(self):
        # merging the carrier {1,2} to one point turns the unanimity capacity
        # into the unanimity of that point's singleton
        f = PointMap(g3, g2, (0, 1, 1))
        assert pushforward(f, unanimity(0b110, g3)) == unanimity(0b10, g2)

    def test_composition_law_random(self):
        rng = SplitMix64(99)
        for _ in range(60):
            n = 2 + rng.next_below(3)
            m = 1 + rng.next_below(n)
            p = 1 + rng.next_below(m)
            gn, gm, gp = GroundSet(n), GroundSet(m), GroundSet(p)
            f = PointMap(gn, gm, tuple(rng.next_below(m) for _ in range(n)))
            g = PointMap(gm, gp, tuple(rng.next_below(p) for _ in range(m)))
            nu = random_monotone(gn, rng.next_u64(), 6)
            assert pushforward(compose(g, f), nu) == pushforward(g, pushforward(f, nu))

    def test_ground_mismatch(self):
        f = PointMap(g3, g2, (0, 1, 1))
        with pytest.raises(GroundMismatch):
            pushforward(f, dirac(0, g2))

    def test_output_is_validated_capacity(self):
        f = PointMap(g3, g1, (0, 0, 0))
        out = pushforward(f, random_monotone(g3, 8, 4))
        assert out.values == (F(0), F(1))


class TestMeasures:
    def test_validation(self):
        with pytest.raises(BadNormalization):
            Measure(g2, [F(1, 2), F(1, 4)])
        with pytest.raises(OutOfRange):
            Measure(g2, [F(3, 2), F(-1, 2)])

    def test_mass_and_capacity_view(self):
        mu = Measure(g3, [F(1, 2), F(1, 3), F(1, 6)])
        assert mu.mass(0b011) == F(5, 6)
        nu = mu.as_capacity()
        assert nu[0b101] == F(2, 3)

    def test_pushforward_identity(self):
        mu = Measure(g3, [F(1, 2), F(1, 3), F(1, 6)])
        assert measure_pushforward(identity_map(g3), mu) == mu

    def test_pushforward_merge_all(self):
        mu = Measure(g3, [F(1, 2), F(1, 3), F(1, 6)])
        out = measure_pushforward(PointMap(g3, g1, (0, 0, 0)), mu)
        assert out.weights == (F(1),)

    def test_pushforward_point_mass(self):
        f = PointMap(g3, g2, (0, 1, 1))
        assert measure_pushforward(f, point_mass(2, g3)) == point_mass(1, g2)

    def test_pushforward_conserves_mass(self):
        rng = SplitMix64(4)
        for _ in range(30):
            mu = random_measure(g3, rng, 9)
            f = PointMap(g3, g2, tuple(rng.next_below(2) for _ in range(3)))
            assert sum(measure_pushforward(f, mu).weights) == 1


class TestExactValues:
    def test_floats_and_strings_raise_type_error(self):
        with pytest.raises(TypeError):
            Capacity(g2, [0, 0.5, 0.5, 1])
        with pytest.raises(TypeError):
            Measure(g2, [0.5, 0.5])
        with pytest.raises(TypeError):
            Measure(g2, ["1/2", "1/2"])

    def test_fraction_objects_are_kept(self):
        values = [F(0), F(1, 3), F(2, 3), F(1)]
        assert all(a is b for a, b in zip(Capacity(g2, values).values, values))
        weights = [F(1, 3), F(2, 3)]
        assert all(a is b for a, b in zip(Measure(g2, weights).weights, weights))

    def test_ints_become_fractions(self):
        nu = Capacity(g2, [0, 0, 1, 1])
        assert nu.values == (0, 0, 1, 1)
        assert all(type(v) is F for v in nu.values)
        assert all(type(w) is F for w in Measure(g2, [1, 0]).weights)

    @pytest.mark.parametrize("build", [
        lambda value: new_capacity(g2, {1: value, 2: F(1, 5)}),
        lambda value: new_capacity(g3, {1: value}, strict=False),
        lambda value: CredalSet.from_constraints(g2, {1: value}),
        lambda value: mix(dirac(0, g2), dirac(1, g2), value),
        lambda value: BalancedFamily((1, 2), (value, F(1, 2))),
    ], ids=["new_capacity", "lenient", "from_constraints", "mix", "balanced_family"])
    def test_every_entry_takes_exact_rationals_only(self, build):
        # 0.1 would become 3602879701896397/36028797018963968 through Fraction(0.1)
        for bad in (0.1, 0.5, "1/2"):
            with pytest.raises(TypeError):
                build(bad)
        build(F(1, 10))
        build(1)


class TestBuiltTables:
    """`Capacity._built` skips validation, so its callers must build valid
    tables by construction; the public entries keep validating."""

    BUILDERS = {"random_monotone", "monad_mul", "lower_envelope", "_screened_draw"}

    def test_every_unvalidated_table_of_the_pinned_families_is_valid(self, monkeypatch):
        built, original = [], Capacity._built.__func__

        def recorded(cls, ground, values):
            built.append((sys._getframe(1).f_code.co_name, ground, values))
            return original(cls, ground, values)

        monkeypatch.setattr(Capacity, "_built", classmethod(recorded))
        for text in (search_text, tb_search_text, core_text, tb_text):
            text()
        assert {caller for caller, _, _ in built} == self.BUILDERS
        for _, ground, values in built:
            assert type(values) is tuple and len(values) == ground.table_size
            assert all(type(v) is F for v in values)
            _validate_table(ground, values)

    @pytest.mark.parametrize("build, error", [
        (lambda: Capacity(g3, [0, F(3, 4), 0, F(1, 2), 0, F(3, 4), 0, 1]), NotMonotone),
        (lambda: Capacity(g2, [0, F(3, 2), F(1, 2), 1]), OutOfRange),
        (lambda: new_capacity(g2, {1: F(3, 4), 2: F(1, 2), 3: F(1, 2)}), BadNormalization),
        (lambda: new_capacity(g3, {1: F(3, 4), 3: F(1, 2)}, strict=False), NotMonotone),
        (lambda: parse_game("ground 2\nv {0} = 3/2\nv {1} = 1/2\n"), ValidationError),
    ])
    def test_public_entries_still_reject_bad_tables(self, build, error):
        with pytest.raises(error):
            build()


class TestRandomMonotone:
    def test_deterministic(self):
        assert random_monotone(g3, 42, 8) == random_monotone(g3, 42, 8)

    def test_always_valid(self):
        for seed in range(100):
            nu = random_monotone(GroundSet(2 + seed % 4), seed, 1 + seed % 7)
            assert isinstance(nu, Capacity)  # constructor validated

    def test_golden_fixture(self):
        # frozen output of the reference splitmix64 generator
        nu = random_monotone(g3, 7, 4)
        assert nu.values == (F(0), F(1, 2), F(1), F(1), F(3, 4), F(1), F(1), F(1))


class TestRandomConvexMixture:
    def test_deterministic_and_convex(self):
        from capax.classify import is_convex

        for seed in range(25):
            nu = random_convex_mixture(g3, seed, 6)
            assert nu == random_convex_mixture(g3, seed, 6)
            assert is_convex(nu)[0]


class TestBalancedFamily:
    def test_admissible_and_violating(self):
        fam = BalancedFamily((0b01, 0b10), (F(1), F(1)))
        nu = new_capacity(g2, {1: F(9, 10), 2: F(9, 10)})
        assert fam.is_admissible_within(0b11, g2)
        assert family_total(2, fam.sets, fam.weights, 0b11, [nu[a] for a in fam.sets]) == F(9, 5)
        assert fam.violates(nu, 0b11)

    def test_a_total_equal_to_the_bound_is_refused(self):
        # {0} and {1} at weight 1 total 1/4 + 1/6 = 5/12 = v({0, 1}): on the
        # integer table 12 v that is 3 + 2 against 5, no violation
        values = {0b001: F(1, 4), 0b010: F(1, 6), 0b011: F(5, 12)}
        fam = BalancedFamily((0b001, 0b010), (F(1), F(1)))
        nu = new_capacity(g3, values, strict=False)
        assert fam.is_admissible_within(0b011, g3)
        assert not fam.violates(nu, 0b011)
        assert not TotalBalanceFailure(0b011, fam).verify(nu)
        above = new_capacity(g3, {**values, 0b010: F(1, 6) + F(1, 10**9)}, strict=False)
        assert fam.violates(above, 0b011) and TotalBalanceFailure(0b011, fam).verify(above)

    def test_negative_weight_is_inadmissible(self):
        fam = BalancedFamily((0b01,), (F(-1),))
        assert not fam.is_admissible_within(0b11, g2)

    def test_member_outside_bound_is_inadmissible(self):
        fam = BalancedFamily((0b101,), (F(1, 2),))
        assert not fam.is_admissible_within(0b011, g3)

    def test_overload_is_inadmissible(self):
        fam = BalancedFamily((0b01, 0b01), (F(2, 3), F(2, 3)))
        assert not fam.is_admissible_within(0b11, g2)


class TestHashing:
    def test_capacity_equality_hash(self):
        a = random_monotone(g3, 5, 4)
        b = random_monotone(g3, 5, 4)
        assert a == b and hash(a) == hash(b)
        assert a != random_monotone(g3, 6, 4)

    def test_measure_equality(self):
        assert point_mass(1, g3) == point_mass(1, g3)
        assert point_mass(1, g3) != point_mass(2, g3)
