"""Bundled fixture suite behind `capax selftest`.

Each check is a named zero-argument callable returning True/False; the runner
prints one PASS/FAIL line per check in a fixed order with no timing, so two
runs of a healthy build produce identical output.  The LP checks run the two
shapes capax solves, the core system and the weighted cover, on fixtures
with hand-known optima; no check runs the generic solver of `lp.solver`.
"""

from __future__ import annotations

from dataclasses import replace
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
from .classify import bondareva_value, classify_full, verify_report
from .credal import check_naturality, check_retraction, lower_envelope, random_credal
from .errors import CoreEmpty, InternalInconsistency
from .ground import GroundSet, PointMap
from .lp import CoreSystem, CoverMaximum, cover_certifies, cover_maximum
from .lp._tableau_py import visit
from .lp.core import capacity_core
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


def _pairs_game(pair: F) -> tuple[F, ...]:
    """Value table of the 3-point game with singletons 0, pairs `pair`, X 1."""
    return tuple(F(1) if a == 7 else pair if bin(a).count("1") == 2 else F(0) for a in range(8))


def _solvable(system: CoreSystem) -> bool:
    try:
        system.require_solution()
    except CoreEmpty:
        return False
    return True


def _check_lp_shapes() -> bool:
    """Both LP shapes on fixtures with hand-known optima and certificates."""
    # pairs at 9/10: the pairs at weight 1/2 cover X with 27/20, so the core is empty
    values = _pairs_game(F(9, 10))
    best = cover_maximum(values, 0b111)
    if best != CoverMaximum(F(27, 20), (0b011, 0b101, 0b110), (F(1, 2),) * 3, (F(9, 20),) * 3) \
            or not cover_certifies(values, 0b111, best):
        return False
    # the right total, but y({1,2}) = 27/40 < 9/10: the dual side must refuse it
    if cover_certifies(values, 0b111, replace(best, point=(F(27, 40), F(27, 40), F(0)))):
        return False
    # the cover family with y0 = -1 is a Farkas certificate of the empty core;
    # `require_solution` ends in `minimum(1)`, whose CoreEmpty comes only
    # once its own ray has passed `refutes`
    system = capacity_core(values)
    family = dict(zip(best.sets, best.weights))
    if not system.refutes(F(-1), [family.get(a, F(0)) for a in system.masks]) or _solvable(system):
        return False
    # pairs at 3/5: cover value 1, and min x({0}) = 2 * 3/5 - 1
    values = _pairs_game(F(3, 5))
    system = capacity_core(values)
    low = system.minimum(0b001)
    if cover_maximum(values, 0b111).value != 1 or low.value != F(1, 5) or \
            not system.certifies(0b001, low):
        return False
    # a degenerate core, the simplex on {0, 1, 2}: without the implied bound
    # on {3} no marginal vector applies, so `least` runs warm minima
    nu = unanimity(0b0111, GroundSet(4))
    masks = [a for a in range(1, 15) if a != 0b1000]
    cold, warm = (CoreSystem(4, masks, [nu[a] for a in masks]) for _ in range(2))
    for subset in range(16):
        low = cold.minimum(subset)
        if not low.value == warm.least(subset) == nu[subset] or not cold.certifies(subset, low):
            return False
    # the guard every pivot loop runs: a revisited basis raises
    seen = set()
    visit(seen, [0, 1, 2])
    try:
        visit(seen, [0, 1, 2])
    except InternalInconsistency:
        return True
    return False


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
        # a fresh system: the memo's answers read the solved cover
        if (bondareva_value(nu, g.full) == 1) != _solvable(capacity_core(nu.values)):
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
    ("lp-basics-and-cycling", _check_lp_shapes),
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
