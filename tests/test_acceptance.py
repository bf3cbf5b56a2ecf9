"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Sizes and tolerances are pinned here and everything is exact
arithmetic: "tolerance" always means equality of rationals.
"""

import sys
import time
from fractions import Fraction as F

import pytest
from oracles import core_lp_feasible, mul_candidate_scan

from capax.capacity import (
    pushforward,
    random_convex_mixture,
    random_monotone,
)
from capax.classify import (
    bondareva_value,
    classify_full,
    is_balanced,
    is_exact,
    is_totally_balanced,
    verify_report,
)
from capax.cli import main
from capax.credal import (
    check_naturality,
    check_retraction,
    core_polytope,
    lower_envelope,
    random_credal,
)
from capax.ground import GroundSet, random_point_map
from capax.lp.model import dual_of, linear_program, verify_outcome
from capax.lp.solver import solve
from capax.monad import SecondOrderCapacity, lift_unit, monad_mul, unit_second
from capax.rng import SplitMix64
from capax.search import SearchConfig, machine_report, problem1_search, reverify_report_text
from capax.selftest import nustar, run_selftest


def announce(number, text):
    # pytest captures sys.__stdout__ too, so the per-criterion line shows only with `-s`
    print(f"\nACCEPTANCE {number}: PASS - {text}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def corpus():
    """1000 random monotone capacities (n in 2..5) + 200 convex mixtures,
    classified once; shared by criteria 1 and 2."""
    start = time.perf_counter()
    members = []
    rng = SplitMix64(20260809)
    for n in (2, 3, 4, 5):
        g = GroundSet(n)
        for i in range(250):
            members.append(random_monotone(g, rng.next_u64(), 2 + i % 15))
        for i in range(50):
            members.append(random_convex_mixture(g, rng.next_u64(), 2 + i % 9))
    reports = [(nu, classify_full(nu)) for nu in members]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_chain_theorems(corpus):
    reports, elapsed = corpus
    assert len(reports) >= 1200
    violations = 0
    for nu, report in reports:
        convex, exact, tb, balanced = report.flags()
        if (convex and not exact) or (exact and not tb) or (tb and not balanced):
            violations += 1
        assert verify_report(nu, report)
    assert violations == 0
    assert elapsed < 300, f"corpus classification took {elapsed:.0f}s, budget is 5 minutes"
    announce(1, f"chain convex=>exact=>totally-balanced=>balanced holds on "
                f"{len(reports)} capacities with zero violations ({elapsed:.1f}s)")


def test_criterion_2_balanced_iff_core_nonempty(corpus):
    reports, _ = corpus
    for nu, report in reports:
        cover_route = bondareva_value(nu, nu.ground.full) == 1
        direct_route, witness = core_lp_feasible(nu)
        assert cover_route == direct_route
        assert cover_route == report.balanced
        if direct_route:
            assert all(witness.mass(a) >= nu[a] for a in nu.ground.nonempty_subsets())
        else:
            assert witness.violates(nu, nu.ground.full)
    announce(2, f"weighted-cover value 1 coincides with core-LP feasibility on all "
                f"{len(reports)} corpus members, zero divergence")


def test_criterion_3_retraction():
    rng = SplitMix64(3)
    checked = 0
    for trial in range(150):
        n = 2 + trial % 4
        env = lower_envelope(random_credal(GroundSet(n), rng, n + 2, 7))
        assert lower_envelope(core_polytope(env)) == env  # exact equality per subset
        assert check_retraction(env)
        checked += 1
    for trial in range(50):
        n = 2 + trial % 4
        nu = random_convex_mixture(GroundSet(n), rng.next_u64(), 8)
        assert lower_envelope(core_polytope(nu)) == nu
        assert check_retraction(nu)
        checked += 1
    announce(3, f"envelope(core(nu)) == nu exactly on {checked} exact capacities")


def test_criterion_4_envelope_exactness():
    rng = SplitMix64(4)
    for trial in range(300):
        n = 2 + trial % 4  # n <= 5
        env = lower_envelope(random_credal(GroundSet(n), rng, 6, 9))
        ok, _ = is_exact(env)
        assert ok, trial
    announce(4, "lower envelopes of 300 random credal sets all pass is_exact")


def test_criterion_5_naturality():
    rng = SplitMix64(5)
    for trial in range(200):
        n = 2 + rng.next_below(4)  # up to 5
        m = 1 + rng.next_below(n)
        f = random_point_map(GroundSet(n), GroundSet(m), rng)
        alpha = random_credal(GroundSet(n), rng, 6, 8)
        assert check_naturality(f, alpha), trial
    announce(5, "envelope-after-pushforward equals pushforward-after-envelope on "
                "200 random (map, credal set) pairs, exact equality")


def test_criterion_6_pushforward_class_preservation():
    rng = SplitMix64(6)
    counts = {"exact+tb": 0, "convex": 0, "balanced": 0}
    for trial in range(100):
        n = 2 + trial % 3
        g = GroundSet(n)
        m = 1 + rng.next_below(n)
        f = random_point_map(g, GroundSet(m), rng, surjective=True)
        nu = lower_envelope(random_credal(g, rng, 5, 7))  # exact, hence TB
        out = pushforward(f, nu)
        assert is_exact(out)[0] and is_totally_balanced(out)[0], trial
        counts["exact+tb"] += 1
    for trial in range(50):
        n = 2 + trial % 3
        g = GroundSet(n)
        nu = random_convex_mixture(g, rng.next_u64(), 6)
        f = random_point_map(g, GroundSet(1 + rng.next_below(n)), rng, surjective=True)
        report = classify_full(pushforward(f, nu))
        assert report.convex and report.exact, trial
        counts["convex"] += 1
    balanced_done = 0
    while balanced_done < 50:
        n = 2 + balanced_done % 3
        g = GroundSet(n)
        nu = random_monotone(g, rng.next_u64(), 5)
        if not is_balanced(nu)[0]:
            continue
        f = random_point_map(g, GroundSet(1 + rng.next_below(n)), rng, surjective=True)
        assert is_balanced(pushforward(f, nu))[0]
        balanced_done += 1
        counts["balanced"] += 1
    total = sum(counts.values())
    assert total >= 200
    announce(6, f"pushforward preserved exact/totally-balanced/convex/balanced on "
                f"{total} random (capacity, surjective map) pairs")


def test_criterion_7_monad_unit_laws_and_oracle():
    rng = SplitMix64(7)
    for trial in range(200):
        n = 2 + trial % 4
        nu = random_monotone(GroundSet(n), rng.next_u64(), 9)
        us, lu = unit_second(nu), lift_unit(nu)
        assert monad_mul(us) == nu
        assert monad_mul(lu) == nu
        assert mul_candidate_scan(us) == nu
        assert mul_candidate_scan(lu) == nu
    for trial in range(100):
        n = 2 + rng.next_below(3)
        k = 1 + rng.next_below(4)
        g = GroundSet(n)
        support = []
        while len(support) < k:
            cand = random_monotone(g, rng.next_u64(), 7)
            if cand not in support:
                support.append(cand)
        c2 = SecondOrderCapacity(g, tuple(support), random_monotone(GroundSet(k), rng.next_u64(), 7))
        assert monad_mul(c2) == mul_candidate_scan(c2), trial
    announce(7, "both unit laws exact on 200 random capacities; breakpoint "
                "multiplication matches the candidate-scan oracle on every instance")


def test_criterion_8_lp_engine():
    from test_lp import feasible_bounded_corpus

    for lp in feasible_bounded_corpus(8, 200):
        out = solve(lp)
        assert out.status == "optimal"
        assert verify_outcome(lp, out)
        dual_out = solve(dual_of(lp))
        assert verify_outcome(dual_of(lp), dual_out)
        assert dual_out.value == out.value  # exact strong duality
    beale = linear_program(
        "max",
        [F(3, 4), -150, F(1, 50), -6],
        [([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
         ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
         ([0, 0, 1, 0], "<=", 1)],
    )
    out = solve(beale)
    assert out.status == "optimal" and out.value == F(1, 20)
    assert verify_outcome(beale, out)
    announce(8, "exact strong duality on 200 random feasible-bounded instances; "
                "Bland terminates on the classic cycling fixture at value 1/20; "
                "all certificates verified")


def test_criterion_9_gap_witness_and_search():
    nu = nustar()
    report = classify_full(nu)
    assert report.flags() == (False, False, False, True)
    assert verify_report(nu, report)

    config = SearchConfig(n=4, support_size=4, target_class="exact",
                          seed_start=0, seed_end=499, grid=16, jobs=4)
    search = problem1_search(config)
    assert len(search.outcomes) == 500
    # every counterexample was re-verified from its serialized record inside
    # the run (problem1_search raises otherwise); the flag must say so
    assert all(o.verified_counterexample for o in search.counterexamples)
    text = machine_report(search)

    # determinism: an independent rerun of a 100-seed slice with a different
    # worker count must reproduce the per-seed records byte for byte, and its
    # report-level reverification must accept every candidate from scratch
    slice_config = SearchConfig(n=4, support_size=4, target_class="exact",
                                seed_start=0, seed_end=99, grid=16, jobs=1)
    slice_text = machine_report(problem1_search(slice_config))
    full_results = [l for l in text.splitlines() if l.startswith("result seed=")]
    slice_results = [l for l in slice_text.splitlines() if l.startswith("result seed=")]
    assert full_results[:100] == slice_results
    assert reverify_report_text(slice_text)

    cx = len(search.counterexamples)
    if cx:
        assert "verdict=counterexample-found" in text
    else:
        assert "verdict=inconclusive" in text
        assert "proves-nothing" in text
    announce(9, f"fixture is balanced-but-not-totally-balanced; exact-class search "
                f"(n=4, k=4, seeds 0..499) completed deterministically with {cx} "
                f"verified counterexample(s); absence would be reported inconclusive")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    args = ["search", "--class", "exact", "--n", "3", "--k", "3",
            "--seeds", "0..24", "--grid", "12"]
    assert main(args + ["--jobs", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--jobs", "6", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a.report").read_bytes()
    b = (tmp_path / "b.report").read_bytes()
    assert a == b
    lines = []
    ok = run_selftest(lines.append)
    assert ok, "\n".join(lines)
    capsys.readouterr()
    announce(10, "machine reports byte-identical for --jobs 1 vs 6; selftest exits 0")
