from dataclasses import replace
from fractions import Fraction as F

import pytest

from capax.errors import ShapeMismatch
from capax.lp.model import LpOutcome, dual_of, linear_program, verify_outcome
from capax.lp.solver import solve, solve_dualized
from capax.rng import SplitMix64


def rand_frac(rng, span=6):
    return F(rng.next_below(2 * span + 1) - span, 1 + rng.next_below(3))


def feasible_bounded_corpus(seed, count):
    """Instances feasible by construction (built around a known point) and
    bounded by box rows; <= 12 variables, <= 20 rows, small rational data."""
    rng = SplitMix64(seed)
    instances = []
    for _ in range(count):
        nv = 1 + rng.next_below(6)
        nr = 1 + rng.next_below(8)
        kinds = ["nonneg" if rng.next_below(4) else "free" for _ in range(nv)]
        x0 = [F(rng.next_below(5), 1 + rng.next_below(2)) for _ in range(nv)]
        rows = []
        for _ in range(nr):
            coeffs = [rand_frac(rng) for _ in range(nv)]
            lhs = sum(c * x for c, x in zip(coeffs, x0))
            kind = rng.next_below(3)
            margin = F(rng.next_below(4))
            if kind == 0:
                rows.append((coeffs, "<=", lhs + margin))
            elif kind == 1:
                rows.append((coeffs, ">=", lhs - margin))
            else:
                rows.append((coeffs, "=", lhs))
        for j in range(nv):
            e = [F(0)] * nv
            e[j] = F(1)
            rows.append((e, "<=", x0[j] + 5))
            if kinds[j] == "free":
                rows.append((e, ">=", x0[j] - 5))
        sense = "max" if rng.next_below(2) else "min"
        instances.append(linear_program(sense, [rand_frac(rng) for _ in range(nv)],
                                        rows, kinds))
    return instances


class TestSpecExamples:
    def test_box_maximum(self):
        out = solve(linear_program("max", [1], [([1], "<=", 1)]))
        assert out.status == "optimal" and out.value == 1

    def test_equality_duality_by_inspection(self):
        lp = linear_program("max", [1, 1], [([1, 1], "=", 1)])
        out = solve(lp)
        assert out.value == 1
        assert out.dual == (F(1),)

    def test_contradictory_bounds_farkas(self):
        lp = linear_program("max", [0], [([1], ">=", 1), ([1], "<=", 0)])
        out = solve(lp)
        assert out.status == "infeasible"
        assert out.farkas == (F(1), F(1))
        assert verify_outcome(lp, out)


class TestVerifyOutcome:
    def test_accepts_all_solver_outcomes(self):
        for lp in feasible_bounded_corpus(17, 40):
            assert verify_outcome(lp, solve(lp))

    def test_rejects_perturbed_value(self):
        lp = linear_program("max", [1], [([1], "<=", 1)])
        out = solve(lp)
        assert not verify_outcome(lp, replace(out, value=out.value + F(1, 7)))

    def test_rejects_negative_multiplier_on_le_row(self):
        lp = linear_program("max", [0], [([1], ">=", 1), ([1], "<=", 0)])
        assert not verify_outcome(lp, LpOutcome("infeasible", farkas=(F(1), F(-1))))

    def test_rejects_infeasible_primal(self):
        lp = linear_program("max", [1], [([1], "<=", 1)])
        bad = LpOutcome("optimal", value=F(2), primal=(F(2),), dual=(F(2),))
        assert not verify_outcome(lp, bad)

    def test_shape_mismatch_raises(self):
        lp = linear_program("max", [1], [([1], "<=", 1)])
        with pytest.raises(ShapeMismatch):
            verify_outcome(lp, LpOutcome("optimal", value=F(1), primal=(F(1), F(0)),
                                         dual=(F(1),)))


class TestCycling:
    def test_beale_terminates_at_optimum(self):
        lp = linear_program(
            "max",
            [F(3, 4), -150, F(1, 50), -6],
            [([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
             ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
             ([0, 0, 1, 0], "<=", 1)],
        )
        out = solve(lp)
        assert out.status == "optimal"
        assert out.value == F(1, 20)

    def test_degenerate_ties(self):
        # many ties at zero rhs: Bland must still terminate
        lp = linear_program(
            "max", [1, 1, 1],
            [([1, -1, 0], "<=", 0), ([0, 1, -1], "<=", 0), ([-1, 0, 1], "<=", 0),
             ([1, 1, 1], "<=", 1)],
        )
        out = solve(lp)
        assert out.status == "optimal" and out.value == 1


class TestStrongDuality:
    def test_200_random_instances_exact(self):
        for lp in feasible_bounded_corpus(2024, 200):
            out = solve(lp)
            assert out.status == "optimal"
            dual_out = solve(dual_of(lp))
            assert dual_out.status == "optimal"
            assert dual_out.value == out.value  # zero tolerance
            assert verify_outcome(lp, out)

    def test_solve_dualized_matches(self):
        for lp in feasible_bounded_corpus(31337, 60):
            assert solve_dualized(lp) == solve(lp) or \
                solve_dualized(lp).value == solve(lp).value

    def test_dual_of_dual_value(self):
        for lp in feasible_bounded_corpus(7, 30):
            assert solve(dual_of(dual_of(lp))).value == solve(lp).value


class TestMixedStatuses:
    def test_certificates_verify_on_arbitrary_instances(self):
        rng = SplitMix64(999)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(200):
            nv = 1 + rng.next_below(4)
            nr = 1 + rng.next_below(4)
            kinds = ["nonneg" if rng.next_below(3) else "free" for _ in range(nv)]
            rows = [([rand_frac(rng) for _ in range(nv)],
                     ["<=", ">=", "="][rng.next_below(3)], rand_frac(rng))
                    for _ in range(nr)]
            lp = linear_program("max" if rng.next_below(2) else "min",
                                [rand_frac(rng) for _ in range(nv)], rows, kinds)
            out = solve(lp)
            statuses[out.status] += 1
            assert verify_outcome(lp, out)
        assert all(statuses.values()), f"corpus not diverse: {statuses}"


class TestDenseInstance:
    def test_100_by_51_solves(self):
        big = linear_program("max", [1] * 100,
                             [([1] * 100, "<=", 1)] * 51)
        assert solve(big).status == "optimal"
