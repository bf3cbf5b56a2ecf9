from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (
    dense_core_minimum,
    explicit_system,
    fraction_admissible,
    fraction_core_certifies,
    fraction_core_point,
    fraction_core_witness,
    fraction_cover_certifies,
    fraction_gap_verifies,
    fraction_refutes,
    fraction_violates,
)

from capax.capacity import BalancedFamily, Measure, random_convex_mixture, random_monotone
from capax.classify import ExactnessGap, classify_full, verify_report
from capax.errors import GroundMismatch
from capax.ground import (
    GroundSet,
    PointMap,
    char_vector,
    compose,
    family_total,
    format_rat,
    format_subset,
    identity_map,
    iter_submasks,
    parse_rat,
    parse_subset,
    random_point_map,
    subset_indices,
    subset_of_indices,
)
from capax.lp import CoreMinimum, cover_certifies, cover_maximum
from capax.lp.core import capacity_core
from capax.rng import SplitMix64


class TestGroundSet:
    def test_bounds(self):
        assert GroundSet(1).full == 1
        assert GroundSet(16).full == 2**16 - 1
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(17)

    def test_subset_ranges(self):
        g = GroundSet(3)
        assert list(g.nonempty_subsets()) == list(range(1, 8))
        assert list(g.proper_nonempty_subsets()) == list(range(1, 7))
        assert g.contains_subset(7) and not g.contains_subset(8)


class TestCharVector:
    def test_empty_set(self):
        assert char_vector(0, GroundSet(3)) == (F(0), F(0), F(0))

    def test_pair(self):
        assert char_vector(0b101, GroundSet(3)) == (F(1), F(0), F(1))

    def test_full_set(self):
        assert char_vector(0b11, GroundSet(2)) == (F(1), F(1))

    def test_complement_sums_to_full(self):
        for n in range(1, 5):
            g = GroundSet(n)
            ones = char_vector(g.full, g)
            for mask in g.subsets():
                a = char_vector(mask, g)
                b = char_vector(g.full & ~mask, g)
                assert tuple(x + y for x, y in zip(a, b)) == ones

    def test_rejects_oversized_mask(self):
        with pytest.raises(GroundMismatch):
            char_vector(0b1000, GroundSet(3))


class TestPointMap:
    def test_surjection_onto_more_points_raises_before_any_draw(self):
        class NoDraws:
            def next_below(self, bound):
                raise AssertionError("drew")

        with pytest.raises(ValueError):
            random_point_map(GroundSet(2), GroundSet(3), NoDraws(), surjective=True)
        f = random_point_map(GroundSet(3), GroundSet(3), SplitMix64(1), surjective=True)
        assert f.is_surjective()

    def test_preimage_example(self):
        f = PointMap(GroundSet(3), GroundSet(2), (0, 1, 1))
        assert f.preimage(0b10) == 0b110

    def test_preimage_extremes(self):
        f = PointMap(GroundSet(3), GroundSet(2), (1, 0, 1))
        assert f.preimage(0) == 0
        assert f.preimage(f.codomain.full) == f.domain.full

    def test_preimage_boolean_operations_exhaustive(self):
        # preimage commutes with complement, union, intersection for n, m <= 4
        for n in range(1, 5):
            for m in range(1, 5):
                dom, cod = GroundSet(n), GroundSet(m)
                for code in range(m**n):
                    image, c = [], code
                    for _ in range(n):
                        image.append(c % m)
                        c //= m
                    f = PointMap(dom, cod, tuple(image))
                    pre = [f.preimage(b) for b in cod.subsets()]
                    for b1 in cod.subsets():
                        assert f.preimage(cod.full & ~b1) == dom.full & ~pre[b1]
                        for b2 in cod.subsets():
                            assert f.preimage(b1 | b2) == pre[b1] | pre[b2]
                            assert f.preimage(b1 & b2) == pre[b1] & pre[b2]

    def test_validation(self):
        with pytest.raises(ValueError):
            PointMap(GroundSet(2), GroundSet(2), (0,))
        with pytest.raises(ValueError):
            PointMap(GroundSet(2), GroundSet(2), (0, 5))

    def test_compose_and_identity(self):
        g3, g2 = GroundSet(3), GroundSet(2)
        f = PointMap(g3, g2, (0, 1, 1))
        g = PointMap(g2, g2, (1, 0))
        assert compose(g, f).image == (1, 0, 0)
        assert compose(f, identity_map(g3)) == f
        with pytest.raises(GroundMismatch):
            compose(f, g)

    def test_surjectivity(self):
        assert PointMap(GroundSet(3), GroundSet(2), (0, 1, 0)).is_surjective()
        assert not PointMap(GroundSet(3), GroundSet(2), (0, 0, 0)).is_surjective()

    def test_random_point_map_surjective(self):
        rng = SplitMix64(5)
        for _ in range(20):
            f = random_point_map(GroundSet(4), GroundSet(3), rng, surjective=True)
            assert f.is_surjective()


class TestSubsetCodec:
    def test_round_trip_exhaustive(self):
        for mask in range(2**4):
            assert parse_subset(format_subset(mask)) == mask
            assert subset_of_indices(subset_indices(mask)) == mask

    def test_format(self):
        assert format_subset(0) == "{}"
        assert format_subset(0b101) == "{0,2}"

    def test_parse_tolerates_spaces(self):
        assert parse_subset("{0, 2}") == 0b101

    def test_parse_errors(self):
        for bad in ("0,2", "{0,,2}", "{x}", "{0,0}"):
            with pytest.raises(ValueError):
                parse_subset(bad)


class TestRat:
    def test_format(self):
        assert format_rat(F(3, 4)) == "3/4"
        assert format_rat(F(2, 1)) == "2"

    def test_parse(self):
        assert parse_rat("3/4") == F(3, 4)
        assert parse_rat("-7") == F(-7)
        with pytest.raises(ValueError):
            parse_rat("1/0")
        with pytest.raises(ValueError):
            parse_rat("one half")

    @given(st.integers(min_value=-(10**30), max_value=10**30),
           st.integers(min_value=-(10**30), max_value=10**30),
           st.integers(min_value=1, max_value=10**20),
           st.integers(min_value=1, max_value=10**20))
    def test_add_then_subtract_is_identity(self, pa, pb, qa, qb):
        a, b = F(pa, qa), F(pb, qb)
        assert (a + b) - b == a

    @given(st.integers(min_value=-(10**30), max_value=10**30),
           st.integers(min_value=1, max_value=10**20))
    def test_multiplicative_inverse(self, p, q):
        if p == 0:
            return
        a = F(p, q)
        assert a * (1 / a) == 1

    @given(st.fractions(), st.fractions())
    def test_parse_format_round_trip(self, a, b):
        assert parse_rat(format_rat(a)) == a
        assert parse_rat(format_rat(a + b)) == a + b


def test_iter_submasks():
    assert sorted(iter_submasks(0b101)) == [0, 0b001, 0b100, 0b101]
    assert list(iter_submasks(0)) == [0]


# --- the shared load and mass checks against the Fraction references ---------

small = st.builds(F, st.integers(-2, 6), st.integers(1, 6))  # zero and negatives too
CHANGES = ("none", "negative weight", "zero weight", "outside bound", "outside ground",
           "negative shift", "empty family", "overload", "empty set")


def _table(draw, n):
    make = draw(st.sampled_from((random_monotone, random_convex_mixture)))
    return make(GroundSet(n), draw(st.integers(0, 2**32)), draw(st.integers(1, 6)))


def _den(*qs):
    return lcm(*(q.denominator for q in qs))


def _perturb(draw, change, n, bound, sets, weights, shift):
    """(sets, weights, shift) with one adversarial change; "overload" adds
    1/den to a most loaded point of the bound, den the weights' denominator."""
    sets, weights = list(sets), list(weights)
    k = draw(st.integers(0, max(len(sets) - 1, 0)))
    if change == "negative weight" and sets:
        weights[k] = -weights[k] if weights[k] else F(-1, 2)
    elif change == "zero weight" and sets:
        weights[k] = F(0)
    elif change == "outside bound" and bound & ((1 << n) - 1) != (1 << n) - 1:
        outside = ~bound & ((1 << n) - 1)
        sets.append((sets[k] if sets else 0) | outside & -outside)
        weights.append(F(1, 3))
    elif change == "outside ground":
        sets.append(draw(st.sampled_from((1 << n, -1, (1 << n) | 1))))
        weights.append(draw(st.sampled_from((F(0), F(1, 2)))))
    elif change == "negative shift":
        shift = -abs(shift) - F(1, _den(shift, *weights))
    elif change == "empty family":
        sets, weights = [], []
    elif change == "empty set":
        sets.append(0)
        weights.append(F(1, 2))
    elif change == "overload":
        points = [j for j in range(n) if bound >> j & 1] or [0]
        j = max(points, key=lambda j: sum((w for a, w in zip(sets, weights) if a >> j & 1), F(0)))
        sets.append(1 << j)
        weights.append(F(1, _den(shift, *weights)))
    return tuple(sets), tuple(weights), shift


class TestSharedChecksAgreeWithFractionReference:
    def test_a_bound_off_the_ground_admits_no_family(self):
        # a bound with bits above the n points, or a negative one, is no subset
        g3, family = GroundSet(3), BalancedFamily((1,), (F(1),))
        nu = random_monotone(g3, 5, 4)
        assert family_total(3, (1,), (1,), 1) == 0 and family.is_admissible_within(1, g3)
        for bound in (9, -1):
            assert family_total(3, (1,), (1,), bound) is None
            assert not family.is_admissible_within(bound, g3)
            assert not fraction_admissible(family, bound, g3)
            assert not family.violates(nu, bound)
            assert not ExactnessGap(bound, F(1), F(0), ((1, F(1)),)).verify(nu)

    @given(st.data())
    def test_families(self, data):
        """BalancedFamily, ExactnessGap and the weighted cover's certificate
        on optimal and on random families, each changed adversarially."""
        draw = data.draw
        n = draw(st.integers(1, 4))
        g = GroundSet(n)
        nu = _table(draw, n)
        bound = draw(st.integers(1, g.full))
        best = cover_maximum(nu.values, bound)
        if draw(st.booleans()):
            sets, weights = best.sets, best.weights
        else:
            sets = draw(st.lists(st.integers(-1, (2 << n) - 1), max_size=5))
            weights = draw(st.lists(small, min_size=len(sets), max_size=len(sets)))
            bound = draw(st.integers(0, (2 << n) - 1))  # off the ground too
        base = sets, weights, draw(small)
        for change in CHANGES:
            sets, weights, shift = _perturb(draw, change, n, bound, *base)
            family = BalancedFamily(sets, weights)
            assert family.is_admissible_within(bound, g) == fraction_admissible(family, bound, g)
            assert family.violates(nu, bound) == fraction_violates(family, nu, bound)
            coeffs = tuple(zip(sets, weights))
            if all(0 <= a <= g.full for a in sets):  # the gap's bound at its attained total
                gap_bound = shift + sum((w * nu[a] for a, w in coeffs), F(0))
            else:
                gap_bound = draw(small)
            gap = ExactnessGap(bound, gap_bound, shift, coeffs)
            assert gap.verify(nu) == fraction_gap_verifies(gap, nu)
            if 0 < bound <= g.full:
                cover = replace(best, sets=sets, weights=weights)
                assert cover_certifies(nu.values, bound, cover) == \
                    fraction_cover_certifies(nu.values, bound, cover)

    @given(st.data())
    def test_cover_points(self, data):
        """The cover's dual point, moved by 1/den on or off the bound."""
        draw = data.draw
        n = draw(st.integers(1, 4))
        nu = _table(draw, n)
        bound = draw(st.integers(1, (1 << n) - 1))
        best = cover_maximum(nu.values, bound)
        y = list(best.point)
        j = draw(st.integers(0, n - 1))
        y[j] += draw(st.sampled_from((F(0), F(1), F(-1)))) * F(1, _den(*y))
        cover = replace(best, point=tuple(y))
        assert cover_certifies(nu.values, bound, cover) == \
            fraction_cover_certifies(nu.values, bound, cover)

    @given(st.data())
    def test_core_certificates(self, data):
        """A core minimum's point, multipliers and shift, or an empty core's
        ray, changed adversarially; random points against the core check."""
        draw = data.draw
        n = draw(st.integers(2, 4))
        if draw(st.booleans()):
            system = capacity_core(_table(draw, n).values)
        else:
            system = explicit_system(n, SplitMix64(draw(st.integers(0, 2**32))))
        subset = draw(st.integers(0, (1 << n) - 1))
        out = dense_core_minimum(system, subset)
        shift, ys = (out.shift, out.multipliers) if isinstance(out, CoreMinimum) else out
        x = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
        x.append(1 - sum(x, F(0)))  # mass one, often with a negative weight
        if isinstance(out, CoreMinimum) and draw(st.booleans()):
            x = list(out.point)  # the optimal point with 1/den moved between two
            step = F(1, _den(*x))  # points, or taken from one
            x[draw(st.integers(0, n - 1))] -= step
            x[draw(st.integers(0, n - 1))] += draw(st.sampled_from((step, F(0))))
        assert system.admit(x) == fraction_core_point(system, x)
        for change in ("none", "negative weight", "zero weight", "negative shift", "overload",
                       "moved point"):
            k = draw(st.integers(0, len(ys) - 1))
            shift2, ys2 = shift, list(ys)
            if change == "negative weight":
                ys2[k] = -ys2[k] if ys2[k] else F(-1, 2)
            elif change == "zero weight":
                ys2[k] = F(0)
            elif change == "negative shift":
                shift2 = -abs(shift) - F(1, _den(shift, *ys))
            elif change == "overload":
                ys2[k] += F(1, _den(shift, *ys))
            ys2 = tuple(ys2)
            if isinstance(out, CoreMinimum):
                best = replace(out, shift=shift2, multipliers=ys2)
                if change == "moved point":
                    best = replace(best, point=tuple(x))
                assert system.certifies(subset, best) == \
                    fraction_core_certifies(system, subset, best)
            else:
                assert system.refutes(shift2, ys2) == fraction_refutes(system, shift2, ys2)

    @given(st.data())
    def test_core_witness_of_a_report(self, data):
        """verify_report's core-witness scan, on the report's own measure and
        on a measure with 1/den moved between two points."""
        draw = data.draw
        n = draw(st.integers(1, 4))
        nu = _table(draw, n)
        report = classify_full(nu)
        if not report.balanced:
            return
        w = list(report.balanced_witness.weights)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = min(w[i], F(1, _den(*w)))
        w[i] -= step
        w[j] += step
        mu = Measure(GroundSet(n), w)
        assert verify_report(nu, replace(report, balanced_witness=mu)) == fraction_core_witness(mu, nu)
