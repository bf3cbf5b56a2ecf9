from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capax.errors import GroundMismatch
from capax.ground import (
    GroundSet,
    PointMap,
    char_vector,
    compose,
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
