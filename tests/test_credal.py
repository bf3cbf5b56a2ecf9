from fractions import Fraction as F

import pytest

from oracles import fraction_random_credal, vertex_envelope

from capax.capacity import (
    Measure,
    dirac,
    point_mass,
    pushforward,
    random_convex_mixture,
    random_monotone,
    unanimity,
)
from capax.classify import classify_full, is_balanced, is_exact
from capax.credal import (
    CredalSet,
    check_naturality,
    check_retraction,
    core_polytope,
    credal_equal,
    credal_pushforward,
    lower_envelope,
    random_credal,
)
from capax.errors import CoreEmpty, GroundMismatch, InfeasibleCredal, NotExact
from capax.ground import GroundSet, PointMap, identity_map, random_point_map
from capax.rng import SplitMix64

g1, g2, g3 = GroundSet(1), GroundSet(2), GroundSet(3)


def two_vertex_set():
    return CredalSet.from_vertices([
        Measure(g3, [F(1, 2), F(1, 2), F(0)]),
        Measure(g3, [F(0), F(1, 2), F(1, 2)]),
    ])


class TestConstruction:
    def test_vertices_dedupe(self):
        mu = point_mass(0, g2)
        alpha = CredalSet.from_vertices([mu, mu, point_mass(1, g2)])
        assert len(alpha.vertices) == 2

    def test_vertices_dedupe_in_first_seen_order_on_their_rows(self):
        half = Measure(g2, [F(1, 2), F(1, 2)])
        alpha = CredalSet.from_vertices([half, point_mass(0, g2), Measure(g2, [F(2, 4), F(3, 6)])])
        assert alpha.vertices == (half, point_mass(0, g2))
        assert alpha.rows == ((2, (1, 1)), (1, (1, 0)))

    def test_vertices_need_one(self):
        with pytest.raises(ValueError):
            CredalSet.from_vertices([])

    def test_vertices_same_ground(self):
        with pytest.raises(GroundMismatch):
            CredalSet.from_vertices([point_mass(0, g2), point_mass(0, g3)])

    def test_constraints_infeasible(self):
        with pytest.raises(InfeasibleCredal):
            CredalSet.from_constraints(g2, {1: F(9, 10), 2: F(9, 10)})

    def test_constraints_reject_empty_set_bound(self):
        with pytest.raises(ValueError):
            CredalSet.from_constraints(g2, {0: F(1, 2)})

    def test_some_member_is_feasible(self):
        alpha = CredalSet.from_constraints(g3, {1: F(1, 4), 6: F(1, 2)})
        mu = alpha.some_member()
        assert mu.mass(1) >= F(1, 4) and mu.mass(6) >= F(1, 2)


class TestLowerEnvelope:
    def test_single_point_mass(self):
        alpha = CredalSet.from_vertices([point_mass(1, g3)])
        assert lower_envelope(alpha) == dirac(1, g3)

    def test_all_point_masses_give_minimal_capacity(self):
        alpha = CredalSet.from_vertices([point_mass(x, g3) for x in range(3)])
        env = lower_envelope(alpha)
        for mask in g3.proper_nonempty_subsets():
            assert env[mask] == 0
        assert env[g3.full] == 1

    def test_two_vertex_example(self):
        env = lower_envelope(two_vertex_set())
        expect = {0b001: F(0), 0b010: F(1, 2), 0b100: F(0),
                  0b011: F(1, 2), 0b101: F(1, 2), 0b110: F(1, 2)}
        for mask, value in expect.items():
            assert env[mask] == value

    def test_every_envelope_is_exact(self):
        rng = SplitMix64(33)
        for trial in range(60):
            n = 2 + trial % 3
            env = lower_envelope(random_credal(GroundSet(n), rng, 5, 7))
            assert is_exact(env)[0], trial


    @pytest.mark.parametrize("n", range(1, 7))
    def test_integer_envelope_is_the_fraction_minimum(self, n):
        g = GroundSet(n)
        rng = SplitMix64(700 + n)
        for trial in range(12):
            alpha = random_credal(g, rng, n + 2, 3 + trial * 5)
            expected = vertex_envelope(g, alpha.vertices)
            assert list(lower_envelope(alpha).values) == expected, trial
            fresh = CredalSet.from_vertices(alpha.vertices)
            assert [fresh.min_mass(a) for a in g.subsets()] == expected
            assert [fresh.max_mass(a) for a in g.subsets()] == \
                [1 - expected[g.full ^ a] for a in g.subsets()]

    def test_large_coprime_denominators(self):
        alpha = CredalSet.from_vertices([
            Measure(g3, [F(1, 10**9 + 7), F(1, 3), 1 - F(1, 10**9 + 7) - F(1, 3)]),
            Measure(g3, [F(2, 10**9 + 9), F(1, 2), 1 - F(2, 10**9 + 9) - F(1, 2)]),
        ])
        assert list(lower_envelope(alpha).values) == vertex_envelope(g3, alpha.vertices)

    def test_equal_values_share_one_object(self):
        # 1/3 reached over the common denominator 6 in one set and over 3 in
        # the other: the two envelopes hold the same Fraction object
        one_set = CredalSet.from_vertices([Measure(g2, [F(1, 3), F(2, 3)]),
                                           Measure(g2, [F(1, 2), F(1, 2)])])
        other = CredalSet.from_vertices([Measure(g2, [F(2, 3), F(1, 3)])])
        a, b = lower_envelope(one_set), lower_envelope(other)
        assert a[0b01] == b[0b10] == F(1, 3)
        assert a[0b01] is b[0b10]


class TestIntegerDraws:
    """`random_credal` keeps its draws as integer rows and builds its
    vertices unchecked; they must be the measures the validating Fraction
    draw gives, in the same order, from the same stream."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vertices_are_the_validated_fraction_draws(self, n):
        g = GroundSet(n)
        for grid in (1, 2, 16, 97):
            for seed in range(200):
                rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
                alpha = random_credal(g, rng, n + 1, grid)
                reference = fraction_random_credal(g, reference_rng, n + 1, grid)
                assert (alpha.vertices, alpha.rows) == (reference.vertices, reference.rows)
                assert rng.next_u64() == reference_rng.next_u64()  # as many draws
                assert all(Measure(mu.ground, mu.weights) == mu for mu in alpha.vertices)
                assert lower_envelope(alpha) == lower_envelope(CredalSet.from_vertices(list(alpha.vertices)))

    def test_equal_draws_are_one_vertex(self):
        # grid 2, seed 9 draws the raw rows (1, 0), (0, 2), (1, 1), (0, 1),
        # (2, 2): (0, 2) and (0, 1) are one measure, (1, 1) and (2, 2) another
        alpha = random_credal(g2, SplitMix64(9), 6, 2)
        assert alpha.vertices == (Measure(g2, [1, 0]), Measure(g2, [0, 1]),
                                  Measure(g2, [F(1, 2), F(1, 2)]))
        assert all(isinstance(w, F) for mu in alpha.vertices for w in mu.weights)


class TestCorePolytope:
    def test_envelope_after_is_exact_shares_the_capacitys_values(self):
        nu = random_convex_mixture(GroundSet(6), 4, 8)
        assert is_exact(nu)[0]
        env = lower_envelope(core_polytope(nu))
        assert env == nu
        assert all(env[a] is nu[a] for a in nu.ground.proper_nonempty_subsets())

    def test_dirac_core_is_the_point_mass(self):
        cp = core_polytope(dirac(1, g3))
        for mask in g3.nonempty_subsets():
            expected = F(1) if mask >> 1 & 1 else F(0)
            assert cp.min_mass(mask) == cp.max_mass(mask) == expected

    def test_unanimity_pins_outside_mass_to_zero(self):
        cp = core_polytope(unanimity(0b011, g3))
        assert cp.max_mass(0b100) == 0

    def test_unbalanced_raises(self):
        from capax.capacity import new_capacity

        with pytest.raises(CoreEmpty):
            core_polytope(new_capacity(g2, {1: F(9, 10), 2: F(9, 10)}))


def seeded_sets(n):
    """A vertex, a constraint and a pushed credal set on n points."""
    g, rng = GroundSet(n), SplitMix64(4100 + n)
    vertex_form = random_credal(g, rng, n + 2, 5)
    constraint_form = core_polytope(random_convex_mixture(g, rng.next_u64(), 6))
    f = random_point_map(GroundSet(n + 1), g, rng, surjective=True)
    pushed = credal_pushforward(f, core_polytope(random_convex_mixture(f.domain,
                                                                       rng.next_u64(), 5)))
    return vertex_form, constraint_form, pushed


class TestEnvelopeOracle:
    """A credal set answers through `min_mass`: its envelope is built once,
    without re-validating the table, and the upper envelope derives from it."""

    def test_no_form_revalidates_its_envelope(self, monkeypatch):
        import capax.capacity

        nu = random_convex_mixture(g3, 51, 6)
        constraint_form = CredalSet.from_constraints(g3, {0b001: F(1, 4), 0b110: F(1, 2)})
        pushed = credal_pushforward(PointMap(g3, g2, (0, 1, 1)), constraint_form)

        def refuse(ground, values):
            raise AssertionError("envelope table validated again")

        monkeypatch.setattr(capax.capacity, "_validate_table", refuse)
        assert lower_envelope(core_polytope(nu)) == nu
        assert list(lower_envelope(pushed).values) == [0, F(1, 4), F(1, 2), 1]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_envelope_passes_full_validation(self, n):
        from capax.capacity import Capacity

        for alpha in seeded_sets(n):
            env = lower_envelope(alpha)
            assert Capacity(env.ground, env.values) == env, alpha.kind
            assert [alpha.max_mass(a) for a in env.ground.subsets()] == \
                [1 - env[env.ground.full ^ a] for a in env.ground.subsets()], alpha.kind

    def test_constraint_form_answers_the_trivial_subsets_without_an_lp(self, monkeypatch):
        import capax.lp.core as core

        alpha = CredalSet.from_constraints(g3, {0b001: F(1, 4), 0b110: F(1, 2)})
        solves = []
        for name in ("_dual", "_revised"):
            kernel = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, kernel=kernel, name=name:
                                solves.append(name) or kernel(*a))
        assert alpha.min_mass(g3.full) == 1 and alpha.max_mass(0) == 0
        assert alpha.min_mass(0) == 0 and alpha.max_mass(g3.full) == 1
        assert solves == []
        assert alpha.min_mass(0b011) == F(1, 4) and solves

    @pytest.mark.parametrize("form", range(3))
    def test_off_ground_masks_raise(self, form):
        alpha = seeded_sets(3)[form]
        for mask in (-1, 1 << 3):
            with pytest.raises(GroundMismatch):
                alpha.max_mass(mask)
            with pytest.raises(GroundMismatch):
                alpha.min_mass(mask)


class TestPushforward:
    def test_identity(self):
        alpha = two_vertex_set()
        assert credal_equal(credal_pushforward(identity_map(g3), alpha), alpha)
        assert set(credal_pushforward(identity_map(g3), alpha).vertices) == set(alpha.vertices)

    def test_merge_all_gives_the_one_point_set(self):
        pushed = credal_pushforward(PointMap(g3, g1, (0, 0, 0)), two_vertex_set())
        assert pushed.vertices == (Measure(g1, [F(1)]),)

    def test_merge_two_vertices_coincide(self):
        f = PointMap(g3, g2, (0, 1, 0))  # points 0 and 2 merge
        pushed = credal_pushforward(f, two_vertex_set())
        assert pushed.vertices == (Measure(g2, [F(1, 2), F(1, 2)]),)

    def test_constraint_form_pushforward_is_an_oracle(self):
        nu = random_convex_mixture(g3, 5, 6)
        cp = core_polytope(nu)
        f = PointMap(g3, g2, (0, 1, 1))
        pushed = credal_pushforward(f, cp)
        for mask in g2.nonempty_subsets():
            assert pushed.min_mass(mask) == cp.min_mass(f.preimage(mask))
            assert pushed.max_mass(mask) == cp.max_mass(f.preimage(mask))

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            credal_pushforward(PointMap(g2, g1, (0, 0)), two_vertex_set())


class TestRepresentationAgreement:
    def test_vertices_vs_constraints_envelopes(self):
        rng = SplitMix64(1234)
        for _ in range(20):
            alpha = random_credal(g3, rng, 4, 6)
            env = lower_envelope(alpha)
            # the constraint system carved out by the envelope contains alpha
            # and has the same envelope because envelopes are exact
            beta = CredalSet.from_constraints(
                g3, {mask: env[mask] for mask in g3.proper_nonempty_subsets()}
            )
            assert lower_envelope(beta) == env


class TestRetraction:
    def test_dirac(self):
        assert check_retraction(dirac(2, g3))

    def test_measure_singleton_core(self):
        mu = Measure(g3, [F(2, 5), F(2, 5), F(1, 5)])
        assert check_retraction(mu.as_capacity())

    def test_convex_mixtures(self):
        for seed in range(25):
            assert check_retraction(random_convex_mixture(g3, seed, 8)), seed

    def test_envelopes(self):
        rng = SplitMix64(90)
        for _ in range(25):
            assert check_retraction(lower_envelope(random_credal(g3, rng, 4, 7)))

    def test_not_exact_rejected(self, nustar):
        with pytest.raises(NotExact):
            check_retraction(nustar)


class TestNaturality:
    def test_identity_map(self):
        assert check_naturality(identity_map(g3), two_vertex_set())

    def test_merge_all(self):
        assert check_naturality(PointMap(g3, g1, (0, 0, 0)), two_vertex_set())

    def test_random_pairs(self):
        rng = SplitMix64(5531)
        for trial in range(60):
            n = 2 + rng.next_below(4)  # up to 5
            m = 1 + rng.next_below(n)
            f = PointMap(GroundSet(n), GroundSet(m),
                         tuple(rng.next_below(m) for _ in range(n)))
            alpha = random_credal(GroundSet(n), rng, 6, 6)
            assert check_naturality(f, alpha), trial

    def test_constraint_form_pairs(self):
        rng = SplitMix64(777)
        for trial in range(10):
            nu = random_convex_mixture(g3, rng.next_u64(), 5)
            f = random_point_map(g3, g2, rng, surjective=True)
            assert check_naturality(f, core_polytope(nu)), trial


class TestClassPreservationUnderPushforward:
    def test_exact_and_totally_balanced_preserved(self):
        rng = SplitMix64(86)
        for trial in range(30):
            n = 2 + trial % 3
            g = GroundSet(n)
            m = 1 + rng.next_below(n)
            f = random_point_map(g, GroundSet(m), rng, surjective=True)
            nu = lower_envelope(random_credal(g, rng, 4, 6))
            out = pushforward(f, nu)
            report = classify_full(out)
            assert report.exact and report.totally_balanced, trial

    def test_convex_preserved(self):
        rng = SplitMix64(87)
        for trial in range(30):
            nu = random_convex_mixture(g3, rng.next_u64(), 6)
            f = random_point_map(g3, g2, rng, surjective=True)
            assert classify_full(pushforward(f, nu)).convex, trial

    def test_balanced_preserved(self):
        rng = SplitMix64(88)
        found = 0
        while found < 20:
            nu = random_monotone(g3, rng.next_u64(), 4)
            if not is_balanced(nu)[0]:
                continue
            found += 1
            f = random_point_map(g3, g2, rng, surjective=True)
            assert is_balanced(pushforward(f, nu))[0]
