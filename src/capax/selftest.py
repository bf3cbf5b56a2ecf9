"""Bundled fixture suite behind `capax selftest`.

Each check is a named zero-argument callable returning True/False; the runner
prints one PASS/FAIL line per check in a fixed order with no timing, so two
runs of a healthy build produce identical output.
"""

from __future__ import annotations

from fractions import Fraction as F

from .capacity import (
    Measure,
    dirac,
    mix,
    new_capacity,
    pushforward,
    random_convex_mixture,
    random_monotone,
    unanimity,
)
from .classify import bondareva_value, classify_full, core_lp_feasible, verify_report
from .credal import check_naturality, check_retraction, lower_envelope, random_credal
from .ground import GroundSet, PointMap
from .lp import linear_program, verify_outcome
from .lp.solver import solve
from .monad import lift_unit, monad_mul, unit_second
from .rng import SplitMix64


def nustar():
    """Balanced-but-not-totally-balanced workhorse on four points."""
    g4 = GroundSet(4)
    table = {}
    for mask in range(1, 15):
        base = mask & 0b0111
        if base == 0b0111:
            table[mask] = F(1, 2)
        elif bin(base).count("1") == 2:
            table[mask] = F(2, 5)
        else:
            table[mask] = F(0)
    return new_capacity(g4, table)


def _check_lp_basics() -> bool:
    lp1 = linear_program("max", [1], [([1], "<=", 1)])
    out1 = solve(lp1)
    if out1.value != 1 or not verify_outcome(lp1, out1):
        return False
    lp2 = linear_program("max", [1, 1], [([1, 1], "=", 1)])
    out2 = solve(lp2)
    if out2.value != 1 or out2.dual != (F(1),) or not verify_outcome(lp2, out2):
        return False
    lp3 = linear_program("max", [0], [([1], ">=", 1), ([1], "<=", 0)])
    out3 = solve(lp3)
    if out3.status != "infeasible" or not verify_outcome(lp3, out3):
        return False
    beale = linear_program(
        "max",
        [F(3, 4), -150, F(1, 50), -6],
        [([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
         ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
         ([0, 0, 1, 0], "<=", 1)],
    )
    out4 = solve(beale)
    return out4.status == "optimal" and out4.value == F(1, 20) and verify_outcome(beale, out4)


def _check_nustar() -> bool:
    nu = nustar()
    if bondareva_value(nu, 0b0111) != F(3, 5):
        return False
    report = classify_full(nu)
    return report.flags() == (False, False, False, True) and verify_report(nu, report)


def _check_chain() -> bool:
    for seed in range(60):
        g = GroundSet(2 + seed % 3)
        nu = random_monotone(g, seed, 6)
        report = classify_full(nu)  # raises InternalInconsistency on chain break
        if not verify_report(nu, report):
            return False
    return True


def _check_duality_routes() -> bool:
    for seed in range(40):
        g = GroundSet(2 + seed % 3)
        nu = random_monotone(g, seed * 31 + 7, 5)
        cover_one = bondareva_value(nu, g.full) == 1
        feasible, _ = core_lp_feasible(nu)
        if cover_one != feasible:
            return False
    return True


def _check_retraction() -> bool:
    for seed in range(12):
        nu = random_convex_mixture(GroundSet(3), seed, 8)
        if not check_retraction(nu):
            return False
    rng = SplitMix64(17)
    for _ in range(12):
        env = lower_envelope(random_credal(GroundSet(3), rng, 4, 6))
        if not check_retraction(env):
            return False
    return True


def _check_naturality() -> bool:
    rng = SplitMix64(23)
    for _ in range(20):
        n = 2 + rng.next_below(3)
        m = 1 + rng.next_below(n)
        f = PointMap(GroundSet(n), GroundSet(m),
                     tuple(rng.next_below(m) for _ in range(n)))
        alpha = random_credal(GroundSet(n), rng, 4, 6)
        if not check_naturality(f, alpha):
            return False
    return True


def _check_unit_laws() -> bool:
    for seed in range(30):
        nu = random_monotone(GroundSet(2 + seed % 4), seed, 8)
        if monad_mul(unit_second(nu)) != nu:
            return False
        if monad_mul(lift_unit(nu)) != nu:
            return False
    return True


def _check_envelope_exact() -> bool:
    rng = SplitMix64(29)
    for _ in range(15):
        env = lower_envelope(random_credal(GroundSet(3), rng, 5, 8))
        report = classify_full(env)
        if not (report.exact and report.totally_balanced):
            return False
    return True


def _check_mixture_and_push() -> bool:
    g3 = GroundSet(3)
    u = unanimity(0b011, g3)
    d = dirac(2, g3)
    blend = mix(u, d, F(1, 3))
    if not classify_full(blend).exact:
        return False
    f = PointMap(g3, GroundSet(2), (0, 1, 1))
    if not classify_full(pushforward(f, blend)).exact:
        return False
    mu = Measure(g3, [F(1, 2), F(1, 4), F(1, 4)])
    return classify_full(mu.as_capacity()).flags() == (True, True, True, True)


CHECKS: tuple[tuple[str, object], ...] = (
    ("lp-basics-and-cycling", _check_lp_basics),
    ("fixture-nustar", _check_nustar),
    ("class-chain", _check_chain),
    ("balancedness-two-routes", _check_duality_routes),
    ("core-envelope-retraction", _check_retraction),
    ("envelope-naturality", _check_naturality),
    ("monad-unit-laws", _check_unit_laws),
    ("envelope-exactness", _check_envelope_exact),
    ("mixtures-and-pushforwards", _check_mixture_and_push),
)


def run_selftest(writeln=print) -> bool:
    all_ok = True
    for name, check in CHECKS:
        try:
            ok = bool(check())
        except Exception as exc:  # a crash is a failure naming the fixture
            writeln(f"FAIL {name} (crashed: {type(exc).__name__}: {exc})")
            all_ok = False
            continue
        writeln(f"{'PASS' if ok else 'FAIL'} {name}")
        all_ok = all_ok and ok
    writeln("selftest: all checks passed" if all_ok else "selftest: FAILURES above")
    return all_ok
