import dataclasses
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from oracles import (capacity_keyed_second_order, core_system_envelope_certifies,
                     random_monotone_fractions, superadditive)

import capax
from capax import search
from capax.capacity import (BalancedFamily, Capacity, Measure, grid_table,
                            random_convex_mixture, random_monotone)
from capax.classify import ExactnessGap, TotalBalanceFailure, is_balanced, is_exact, is_totally_balanced
from capax.credal import CredalSet, lower_envelope, random_credal
from capax.errors import ConfigOutOfRange, GeneratorExhausted, InternalInconsistency
from capax.ground import GroundSet, integer_point, least_masses, subset_indices
from capax.lp.core import capacity_core
from capax.monad import SecondOrderCapacity, monad_mul
from capax.rng import SplitMix64
from capax.search import (
    SearchConfig,
    build_second_order,
    machine_report,
    parse_machine_report,
    problem1_search,
    reverify_report_text,
    text_log,
    verify_counterexample,
)


g2 = GroundSet(2)


def small_config(**overrides):
    base = dict(n=3, support_size=2, target_class="exact",
                seed_start=0, seed_end=4, grid=8, jobs=1)
    base.update(overrides)
    return SearchConfig(**base)


class TestConfig:
    def test_limits(self):
        with pytest.raises(ConfigOutOfRange):
            small_config(n=7)
        with pytest.raises(ConfigOutOfRange):
            small_config(support_size=7)
        with pytest.raises(ConfigOutOfRange):
            small_config(target_class="convex")
        with pytest.raises(ConfigOutOfRange):
            small_config(grid=0)
        with pytest.raises(ConfigOutOfRange):
            small_config(jobs=0)
        with pytest.raises(ConfigOutOfRange):
            small_config(jobs=search.MAX_JOBS + 1)
        assert small_config(jobs=search.MAX_JOBS).jobs == search.MAX_JOBS

    def test_empty_seed_range(self):
        report = problem1_search(small_config(seed_start=5, seed_end=4))
        assert report.outcomes == ()
        assert "summary seeds=0 counterexamples=0" in machine_report(report)


class TestGeneration:
    def test_deterministic_and_distinct(self):
        cfg = small_config(support_size=3)
        a = build_second_order(cfg, 11)
        b = build_second_order(cfg, 11)
        assert a == b
        assert len(set(a.support)) == 3

    def test_members_have_the_target_class(self):
        cfg_e = small_config(support_size=3)
        c2 = build_second_order(cfg_e, 2)
        assert all(is_exact(nu)[0] for nu in c2.support)
        assert is_exact(c2.game)[0]
        cfg_tb = small_config(target_class="totally_balanced", support_size=2, grid=4)
        c2tb = build_second_order(cfg_tb, 2)
        assert all(is_totally_balanced(nu)[0] for nu in c2tb.support)
        assert is_totally_balanced(c2tb.game)[0]


def market_game(ground, rng, games, grid):
    """The minimum of `games` nonnegative additive games, normalised: a
    totally balanced capacity (Shapley & Shubik, JET 1969)."""
    while True:
        weights = [[rng.next_below(grid + 1) for _ in ground.points()] for _ in range(games)]
        top = min(sum(w) for w in weights)
        if top:
            break
    return Capacity(ground, [
        Fraction(min(sum(w[j] for j in subset_indices(a)) for w in weights), top)
        for a in ground.subsets()
    ])


class TestSuperadditivityScreen:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_never_rejects_a_totally_balanced_capacity(self, n):
        g = GroundSet(n)
        rng = SplitMix64(100 + n)
        accepted = {"monotone": 0, "convex": 0, "market": 0}
        for i in range(40 if n <= 3 else 12):
            seed = rng.next_u64()
            market = market_game(g, rng, 1 + i % 3, 6)
            assert is_totally_balanced(market)[0]
            for kind, nu in (("monotone", random_monotone(g, seed, 6)),
                             ("convex", random_convex_mixture(g, seed, 6)),
                             ("market", market)):
                if is_totally_balanced(nu)[0]:
                    accepted[kind] += 1
                    assert superadditive(nu.values), nu
                    if kind == "monotone":  # the search's own screen passes it too
                        assert search._screened_draw(g, seed, 6) is not None
        assert accepted["convex"] and accepted["market"]
        if n <= 3:
            assert accepted["monotone"]

    def test_rejects_a_subadditive_table(self):
        assert not superadditive([0, 2, 2, 3])
        assert superadditive([0, 1, 2, 3])
        assert superadditive([0, 1])

    @staticmethod
    def assert_fused_screen_is_the_reference(g, seeds, grid):
        """The fused draw accepts exactly the draws whose whole `grid_table`
        passes the reference screen, and returns that table as Fractions."""
        accepted = 0
        for seed in seeds:
            table = grid_table(g, seed, grid)
            drawn = search._screened_draw(g, seed, grid)
            if superadditive(table):
                accepted += 1
                assert drawn.values == random_monotone(g, seed, grid).values, (seed, grid)
                assert [v * grid for v in drawn.values] == table
            else:
                assert drawn is None, (seed, grid)
        return accepted

    @pytest.mark.parametrize("n, expected", [(3, 850), (4, 0)])
    def test_fused_screen_on_forty_thousand_draws(self, n, expected):
        assert self.assert_fused_screen_is_the_reference(
            GroundSet(n), range(40_000), 16) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fused_screen_on_every_grid(self, n):
        g = GroundSet(n)
        accepted = sum(self.assert_fused_screen_is_the_reference(
            g, range(97 * grid, 97 * grid + 60), grid) for grid in range(1, 17))
        assert accepted or n >= 5  # 960, 558, 79, 5 at n = 1..4; none pass at n >= 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grid_table_is_the_fraction_draw(self, n):
        g = GroundSet(n)
        for grid in range(1, 17):
            for seed in (grid, 7919 * n + grid):
                expected = random_monotone_fractions(g, seed, grid)
                assert [Fraction(k, grid) for k in grid_table(g, seed, grid)] == expected
                assert list(random_monotone(g, seed, grid).values) == expected

    def test_generator_solves_only_screened_draws(self, monkeypatch):
        drawn, tested = [], []
        draw, predicate = search._screened_draw, search.is_totally_balanced

        def counted_draw(ground, seed, grid):
            drawn.append(draw(ground, seed, grid))
            return drawn[-1]

        def counted_predicate(nu, **kwargs):
            tested.append(nu)
            return predicate(nu, **kwargs)

        monkeypatch.setattr(search, "_screened_draw", counted_draw)
        monkeypatch.setattr(search, "is_totally_balanced", counted_predicate)
        cfg = SearchConfig(n=3, support_size=3, target_class="totally_balanced",
                           seed_start=0, seed_end=19)
        for seed in cfg.seeds:
            build_second_order(cfg, seed)
        passed = [nu for nu in drawn if nu is not None]
        assert len(tested) == len(passed) and all(map(operator.is_, tested, passed))
        assert all(superadditive(nu.values) for nu in tested)
        assert len(drawn) > 10 * len(tested)  # the screen rejects most draws


class TestDistinctSupport:
    """On two points with grid 1 the totally balanced class has three members,
    [0, 0, 0, 1], [0, 1, 0, 1] and [0, 0, 1, 1]; on one point every class has
    one."""

    def test_a_support_of_every_member_still_ends(self):
        cfg = small_config(n=2, support_size=3, target_class="totally_balanced", grid=1)
        for seed in cfg.seeds:
            support = build_second_order(cfg, seed).support
            assert sorted(nu.values for nu in support) == [
                (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)]

    @pytest.mark.parametrize("overrides", [
        dict(n=2, support_size=4, target_class="totally_balanced", grid=1),
        dict(n=1, support_size=2, target_class="exact"),
    ])
    def test_more_members_than_the_class_has_raise(self, monkeypatch, overrides):
        monkeypatch.setattr(search, "_REJECTION_CAP", 500)
        with pytest.raises(GeneratorExhausted, match="distinct members in 500 draws"):
            build_second_order(small_config(**overrides), 0)

    @pytest.mark.parametrize("target_class, n, grid", [
        ("exact", 4, 16), ("totally_balanced", 3, 16), ("exact", 2, 2), ("totally_balanced", 2, 2)])
    def test_integer_table_keys_tell_members_apart_as_capacity_equality_does(self, target_class, n, grid):
        # members are keyed on their scaled tables in lowest terms; on grid 2
        # equal members are drawn often, so the dedup is exercised
        cfg = SearchConfig(n=n, support_size=3 if n == 2 else n, target_class=target_class,
                           seed_start=0, seed_end=299, grid=grid)
        repeats = 0
        for seed in cfg.seeds:
            c2 = build_second_order(cfg, seed)
            reference, draws = capacity_keyed_second_order(cfg, seed)
            assert (c2.support, c2.game) == (reference.support, reference.game), seed
            repeats += draws - cfg.support_size
        if grid == 2:
            assert repeats > 50


class TestUnitSizeSearch:
    def test_k1_exact_never_finds_counterexamples(self):
        # with a single support member the weight game is the one-point
        # capacity and multiplication is the identity (first unit law)
        cfg = small_config(support_size=1, seed_end=29)
        report = problem1_search(cfg)
        assert len(report.outcomes) == 30
        assert not report.counterexamples


class TestDeterminism:
    def test_jobs_do_not_change_the_machine_report(self):
        rep1 = problem1_search(small_config(seed_end=11, jobs=1))
        rep3 = problem1_search(small_config(seed_end=11, jobs=3))
        assert machine_report(rep1) == machine_report(rep3)

    def test_rerun_identical(self):
        assert machine_report(problem1_search(small_config())) == \
            machine_report(problem1_search(small_config()))


def edit(text, prefix, pattern, repl):
    """`text` with one substitution in the single line that starts with `prefix`."""
    lines = text.splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[i], done = re.subn(pattern, repl, lines[i], count=1)
    assert done
    return "".join(lines)


def repeat(text, prefix, pattern="", repl=""):
    """`text` with a copy of the single line that starts with `prefix` placed
    before it, with one substitution in the copy when `pattern` is given."""
    lines = text.splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    copy, done = re.subn(pattern, repl, lines[i], count=1) if pattern else (lines[i], 1)
    assert done
    return "".join(lines[:i] + [copy] + lines[i:])


def table_of(text, prefix):
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return line.partition("table=")[2]


def record_of(cfg, outcome):
    """The counterexample record the machine report writes for `outcome`."""
    return search._record(build_second_order(cfg, outcome.seed), outcome.multiplied,
                          search._class_witness(outcome.report, cfg.target_class))


# Each edit leaves a report that still parses, but whose record is wrong,
# incomplete, repeated or inconsistent with its result and summary lines.
# `s` is a flagged seed with a failing-subset witness, `h` a seed where the
# class holds.
INCONSISTENT = {
    "altered-cx-mul": lambda t, s, h: edit(t, f"cx-mul seed={s} ", r"table=0,[^,]+",
                                           "table=0,1/1000"),
    "altered-witness": lambda t, s, h: edit(t, f"counterexample seed={s} ",
                                            r"failing-subset=\{[\d,]+\}", "failing-subset={2}"),
    "missing-witness": lambda t, s, h: edit(t, f"counterexample seed={s} ", "witness=",
                                            "witnes="),
    "deleted-block": lambda t, s, h: "".join(
        line for line in t.splitlines(keepends=True)
        if not (line.startswith(("counterexample ", "cx-")) and f" seed={s} " in line)),
    "summary-count": lambda t, s, h: edit(t, "summary ", r"counterexamples=(\d+)",
                                          lambda m: f"counterexamples={int(m[1]) - 1}"),
    "unflagged-holds-no": lambda t, s, h: edit(t, f"result seed={h} ", "holds=yes",
                                               "holds=no"),
    "short-table": lambda t, s, h: edit(t, f"cx-support seed={s} index=0 ", r",1$", ""),
    "malformed-rational": lambda t, s, h: edit(t, f"cx-support seed={s} index=0 ",
                                               "table=0,", "table=0,x"),
    "out-of-range-value": lambda t, s, h: edit(t, f"cx-support seed={s} index=0 ",
                                               r"table=0,[^,]+", "table=0,2"),
    "duplicate-support": lambda t, s, h: edit(
        t, f"cx-support seed={s} index=1 ", r"table=.*",
        "table=" + table_of(t, f"cx-support seed={s} index=0 ")),
    # a repeated record, which a reader keeping the last copy would let pass
    "bogus-support-before-real": lambda t, s, h: repeat(t, f"cx-support seed={s} index=0 ",
                                                        r"table=0,[^,]+", "table=0,2"),
    "repeated-counterexample": lambda t, s, h: repeat(t, f"counterexample seed={s} "),
    "second-config": lambda t, s, h: repeat(t, "config "),
    "second-summary": lambda t, s, h: repeat(t, "summary "),
    "dropped-holds-yes": lambda t, s, h: "".join(
        line for line in t.splitlines(keepends=True) if not line.startswith(f"result seed={h} ")),
    "summary-seeds": lambda t, s, h: edit(t, "summary ", r"seeds=\d+", "seeds=99"),
    "three-part-seed-range": lambda t, s, h: edit(t, "config ", r"seeds=(\d+\.\.\d+)",
                                                  r"seeds=\1..7"),
}


# Each edit leaves a field that the report reader cannot parse: a record
# without its seed, a seed that is not an integer, a summary without a count.
MALFORMED = {
    "cx-game-without-seed": lambda t, s: edit(t, f"cx-game seed={s} ", r"seed=\d+ ", ""),
    "non-integer-seed": lambda t, s: edit(t, f"counterexample seed={s} ", r"seed=\d+",
                                          "seed=x"),
    "summary-without-count": lambda t, s: edit(t, "summary ", r"counterexamples=\d+ ", ""),
}


@pytest.fixture(scope="module")
def found():
    cfg = SearchConfig(n=3, support_size=3, target_class="exact",
                       seed_start=0, seed_end=9, grid=16)
    report = problem1_search(cfg)
    assert report.counterexamples, "expected counterexamples in this seeded range"
    return cfg, report


class TestCounterexamples:
    def test_all_marked_verified(self, found):
        _, report = found
        assert all(o.verified_counterexample for o in report.counterexamples)

    def test_reverify_from_machine_text(self, found):
        _, report = found
        assert reverify_report_text(machine_report(report))

    def test_tampered_record_fails_verification(self, found):
        cfg, report = found
        outcome = report.counterexamples[0]
        tables, witness = record_of(cfg, outcome)
        assert verify_counterexample(cfg, outcome.seed, tables, witness)
        # swapping two support tables keeps the record well formed but no
        # longer matches the deterministic regeneration for the seed
        swapped = (tables[1], tables[0], *tables[2:])
        assert not verify_counterexample(cfg, outcome.seed, swapped, witness)
        # so does attributing the record to a different seed
        assert not verify_counterexample(cfg, outcome.seed + 1000, tables, witness)

    @pytest.mark.parametrize("record", ["cx-support seed={} index=1 ", "cx-game seed={} ",
                                        "cx-mul seed={} "])
    def test_missing_record_fails_verification(self, found, record):
        _, report = found
        prefix = record.format(report.counterexamples[0].seed)
        lines = machine_report(report).splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(prefix)]
        assert len(kept) == len(lines) - 1
        assert not reverify_report_text("".join(kept))

    @pytest.mark.parametrize("tamper", INCONSISTENT.values(), ids=INCONSISTENT.keys())
    def test_inconsistent_report_fails_verification(self, found, tamper):
        _, report = found
        text = machine_report(report)
        s = re.search(r"^counterexample seed=(\d+) .*failing-subset=", text, re.M)[1]
        h = next(o.seed for o in report.outcomes if o.class_holds)
        tampered = tamper(text, s, h)
        assert tampered != text
        assert reverify_report_text(tampered) is False

    @pytest.mark.parametrize("tamper", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_field_fails_verification(self, found, tamper):
        _, report = found
        text = machine_report(report)
        tampered = tamper(text, report.counterexamples[0].seed)
        assert tampered != text
        assert reverify_report_text(tampered) is False

    def test_missing_config_still_raises(self, found):
        _, report = found
        lines = machine_report(report).splitlines(keepends=True)
        with pytest.raises(ValueError):
            reverify_report_text("".join(l for l in lines if not l.startswith("config ")))

    def test_failing_class_really_fails(self, found):
        cfg, report = found
        for o in report.counterexamples:
            assert not is_exact(monad_mul(build_second_order(cfg, o.seed)))[0]


# An exact capacity on four points, the lower envelope of these vertices, that
# is not convex: the greedy marginal vectors do not attain every subset, so
# the third vertex is the only certified point attaining some subset.
ENVELOPE_VERTICES = (
    (Fraction(1, 8), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
    (0, Fraction(1, 2), 0, Fraction(1, 2)),
    (Fraction(2, 5), 0, Fraction(1, 5), Fraction(2, 5)),
    (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0),
)


def envelope_member():
    g = GroundSet(4)
    vertices = tuple(Measure(g, w) for w in ENVELOPE_VERTICES)
    return lower_envelope(CredalSet.from_vertices(vertices)), vertices


def certifies(nu, vertices) -> bool:
    """`_envelope_certifies` on the integer rows of a list of measures."""
    return search._envelope_certifies(nu, [integer_point(mu.weights) for mu in vertices])


def tampered(vertices):
    """The vertex list with its first vertex dropped (if others remain); with
    half of that vertex's first positive weight moved to the next point; and
    with that weight made -1, its loss moved likewise."""
    first, rest = vertices[0], vertices[1:]
    g, weights = first.ground, first.weights
    lists = [rest] if rest else []
    if g.n > 1:
        i = next(i for i, w in enumerate(weights) if w)
        for moved in (weights[i] / 2, weights[i] + 1):
            x = list(weights)
            x[i] -= moved
            x[(i + 1) % g.n] += moved
            lists.append((Measure._built(g, tuple(x)), *rest))
    return lists


class TestEnvelopeCertificate:
    """The exactness check `verify_counterexample` makes of an exact member."""

    def test_accepts_every_drawn_member(self):
        nu, vertices = envelope_member()
        assert certifies(nu, vertices)
        cfg = small_config(n=4, support_size=3, seed_end=5)
        for seed in cfg.seeds:
            c2, vertex_lists = search._second_order(cfg, seed)
            assert c2 == build_second_order(cfg, seed)
            assert len(vertex_lists) == 4
            assert all(map(search._envelope_certifies, (*c2.support, c2.game), vertex_lists))

    def test_rejects_a_dropped_vertex(self):
        nu, vertices = envelope_member()
        rest = vertices[:2] + vertices[3:]
        system = capacity_core(nu.values)
        assert all(system.admit(mu.weights) for mu in rest)  # still core points
        assert any(all(mu.mass(a) > nu[a] for mu in rest)
                   for a in nu.ground.proper_nonempty_subsets())
        assert not certifies(nu, rest)

    def test_exactness_shown_on_the_same_object_settles_nothing(self):
        # the points is_exact pools prove every subset attained, so a
        # certificate that reused them would accept the dropped vertex
        nu, vertices = envelope_member()
        assert is_exact(nu) == (True, None)
        assert not certifies(nu, vertices[:2] + vertices[3:])

    def test_rejects_a_raised_capacity(self):
        nu, vertices = envelope_member()
        g = nu.ground
        values = list(nu.values)
        for a in g.proper_nonempty_subsets():
            room = min(nu[a | 1 << i] for i in g.points() if not a >> i & 1)
            if room > nu[a]:
                values[a] = room  # still monotone: no immediate superset is below
                break
        raised = Capacity(g, values)
        assert raised != nu
        system = capacity_core(raised.values)
        assert not all(system.admit(mu.weights) for mu in vertices)
        assert not certifies(raised, vertices)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_the_core_system_route(self, n):
        # on the vertices alone; with its marginal vectors the old route also
        # accepts lists the integer pass refuses, never the other way round
        g, verdicts = GroundSet(n), set()
        for grid, seed in product((1, 2, 16, 97), range(200)):
            alpha = random_credal(g, SplitMix64(seed), n + 1, grid)
            nu = lower_envelope(alpha)
            assert search._envelope_certifies(nu, alpha.rows)
            for vertices in (alpha.vertices, *tampered(alpha.vertices)):
                accepted = certifies(nu, vertices)
                assert accepted == core_system_envelope_certifies(nu, vertices, marginals=False)
                assert not accepted or core_system_envelope_certifies(nu, vertices)
                verdicts.add(accepted)
        assert verdicts == ({True, False} if n > 1 else {True})  # one point: no tampering

    def test_no_marginal_vector_fills_a_gap(self):
        # the least capacity on two points is the envelope of (1, 0) and
        # (0, 1); (1, 0) alone gives 1 at {0}, where the marginal vector of
        # the ordering 0, 1 is (0, 1), a core point that is not a vertex
        nu = Capacity(g2, [0, 0, 0, 1])
        assert certifies(nu, (Measure(g2, [1, 0]), Measure(g2, [0, 1])))
        assert core_system_envelope_certifies(nu, (Measure(g2, [1, 0]),))
        assert not certifies(nu, (Measure(g2, [1, 0]),))

    def test_a_vertex_equal_to_the_capacity_is_a_core_point(self):
        nu = Capacity(g2, [0, Fraction(1, 3), Fraction(2, 3), 1])
        assert certifies(nu, (Measure(g2, [Fraction(1, 3), Fraction(2, 3)]),))

    def test_rejects_a_vertex_one_unit_below(self):
        # (1/4, 3/4) is below the additive (1/2, 1/2) at {0} by one quarter,
        # one unit of the common denominator 4; (1/2, 1/2) still attains
        nu = Capacity(g2, [0, Fraction(1, 2), Fraction(1, 2), 1])
        half, low = Measure(g2, [Fraction(1, 2)] * 2), Measure(g2, [Fraction(1, 4), Fraction(3, 4)])
        assert certifies(nu, (half,))
        assert not certifies(nu, (half, low))

    def test_rejects_a_vertex_of_mass_above_one(self):
        # every vertex kept, so every subset is attained, and one more of
        # mass 5/4 above the capacity everywhere
        nu, vertices = envelope_member()
        *head, last = vertices[0].weights
        heavy = Measure._built(nu.ground, (*head, last + Fraction(1, 4)))
        assert certifies(nu, vertices)
        assert not certifies(nu, (*vertices, heavy))

    def test_accepts_an_envelope_below_its_rows_common_denominator(self):
        # the rows' lcm is 6, the envelope's own denominator 3: the least
        # table over 6, (0, 2, 2, 6), is (0, 1, 1, 3) over 3 in lowest terms
        vertices = [Measure(g2, w) for w in ((Fraction(2, 3), Fraction(1, 3)),
                                             (Fraction(1, 3), Fraction(2, 3)),
                                             (Fraction(1, 2), Fraction(1, 2)))]
        nu = Capacity(g2, [0, Fraction(1, 3), Fraction(1, 3), 1])
        assert least_masses([integer_point(mu.weights) for mu in vertices]) == (3, [0, 1, 1, 3])
        assert certifies(nu, vertices)

    def test_rejects_a_row_of_the_wrong_length(self):
        # (1, 1, -1) over 1 weighs 1 at X, and its masses on points 0 and 1
        # are those of (1, 1) over 1, above (1/2, 1/2) on two points
        nu = Capacity(g2, [0, Fraction(1, 2), Fraction(1, 2), 1])
        rows = [(2, (1, 1)), (1, (1, 1, -1))]
        assert least_masses(rows) == (2, [0, 1, 1, 2])
        assert search._envelope_certifies(nu, rows[:1])
        assert not search._envelope_certifies(nu, rows)

    def test_rejects_an_empty_list(self):
        nu = Capacity(g2, [0, 0, 0, 1])
        assert not search._envelope_certifies(nu, [])
        assert not search._envelope_certifies(nu, None)

    def test_rejects_a_row_of_denominator_zero(self):
        # (0, 0) over 0 sums to its denominator but is no point
        nu = Capacity(g2, [0, Fraction(1, 2), Fraction(1, 2), 1])
        assert not search._envelope_certifies(nu, [(0, (0, 0))])
        assert not search._envelope_certifies(nu, [(2, (1, 1)), (0, (0, 0))])

    @staticmethod
    def with_vertex_lists(monkeypatch, change):
        """Make `_second_order` hand out `change(vertex_lists)` with the same
        second-order capacity."""
        regenerate = search._second_order

        def changed(config, seed):
            c2, vertex_lists = regenerate(config, seed)
            return c2, change(vertex_lists)

        monkeypatch.setattr(search, "_second_order", changed)

    @staticmethod
    def with_point_mass(vertex_lists):
        # a point mass misses the core of a member that is positive off {0}
        return tuple(((1, (1, *[0] * (len(rows[0][1]) - 1))), *rows) for rows in vertex_lists)

    def test_verification_rejects_a_member_outside_its_certificate(self, found, monkeypatch):
        # the record is unchanged, only the certificate fails
        cfg, report = found
        outcome = report.counterexamples[0]
        c2 = build_second_order(cfg, outcome.seed)
        assert any(nu[nu.ground.full ^ 1] > 0 for nu in (*c2.support, c2.game))
        tables, witness = record_of(cfg, outcome)
        assert verify_counterexample(cfg, outcome.seed, tables, witness)
        self.with_vertex_lists(monkeypatch, self.with_point_mass)
        assert not verify_counterexample(cfg, outcome.seed, tables, witness)

    def test_run_seed_refuses_a_member_outside_its_certificate(self, found, monkeypatch):
        cfg, report = found
        seed = report.counterexamples[0].seed
        self.with_vertex_lists(monkeypatch, self.with_point_mass)
        with pytest.raises(InternalInconsistency, match=f"seed {seed}: "):
            search.run_seed(cfg, seed)

    def test_an_exact_member_without_vertices_is_refused(self, found, monkeypatch):
        # only a totally balanced member comes without vertices
        cfg, report = found
        outcome = report.counterexamples[0]
        tables, witness = record_of(cfg, outcome)
        self.with_vertex_lists(monkeypatch, lambda vertex_lists: (None, *vertex_lists[1:]))
        assert not verify_counterexample(cfg, outcome.seed, tables, witness)
        with pytest.raises(InternalInconsistency, match=f"seed {outcome.seed}: "):
            search.run_seed(cfg, outcome.seed)


def forged(witness, nu):
    """`witness` with its text kept but its arithmetic broken."""
    if isinstance(witness, ExactnessGap):
        return dataclasses.replace(witness, bound=nu[witness.subset])  # no gap
    if isinstance(witness, TotalBalanceFailure):
        return dataclasses.replace(witness, family=forged(witness.family, nu))
    return BalancedFamily(witness.sets, (Fraction(0),) * len(witness.sets))  # total 0


class TestWitnessArithmetic:
    """`verify_counterexample` re-checks the product's class witness by
    arithmetic, not only its text."""

    @pytest.mark.parametrize("target_class, predicate", [
        ("exact", "is_exact"), ("totally_balanced", "is_totally_balanced")])
    def test_forged_witness_fails(self, found, monkeypatch, target_class, predicate):
        if target_class == "exact":
            cfg, report = found
        else:
            cfg = SearchConfig(n=3, support_size=2, target_class=target_class,
                               seed_start=6, seed_end=7, grid=4)
            report = problem1_search(cfg)
        assert report.counterexamples
        honest = getattr(search, predicate)
        kinds = set()
        for outcome in report.counterexamples:
            mul = outcome.multiplied
            tables, text = record_of(cfg, outcome)
            assert verify_counterexample(cfg, outcome.seed, tables, text)
            _, witness = honest(mul)
            kinds.add(type(witness).__name__)
            fake = forged(witness, mul)
            assert not (fake.violates(mul, mul.ground.full) if isinstance(fake, BalancedFamily)
                        else fake.verify(mul))
            monkeypatch.setattr(search, predicate, lambda nu, fake=fake, mul=mul:
                                (False, fake) if nu == mul else honest(nu))
            assert not verify_counterexample(cfg, outcome.seed, tables, text)
            monkeypatch.setattr(search, predicate, honest)
        expected = {"ExactnessGap", "BalancedFamily"} if target_class == "exact" \
            else {"TotalBalanceFailure"}
        assert kinds == expected

    def test_run_seed_checks_the_witness_it_holds(self, found, monkeypatch):
        # the forged gap keeps its text, so a record comparison alone passes it
        cfg, _ = found
        honest = search.classify_full

        def forging(nu):
            report = honest(nu)
            return dataclasses.replace(report, exact_witness=forged(report.exact_witness, nu))

        assert isinstance(search.run_seed(cfg, 1).report.exact_witness, ExactnessGap)
        monkeypatch.setattr(search, "classify_full", forging)
        with pytest.raises(InternalInconsistency, match="seed 1: "):
            search.run_seed(cfg, 1)


class TestOneCertification:
    """`run_seed` certifies the objects it built; only the check of a
    record's text draws a seed again."""

    @pytest.mark.parametrize("cfg", [
        SearchConfig(n=3, support_size=3, target_class="exact", seed_start=0, seed_end=9),
        SearchConfig(n=3, support_size=2, target_class="totally_balanced",
                     seed_start=6, seed_end=7, grid=4),
    ], ids=["exact", "totally_balanced"])
    def test_each_seed_is_drawn_once(self, monkeypatch, cfg):
        drawn, regenerate = [], search._second_order

        def counted(config, seed):
            drawn.append(seed)
            return regenerate(config, seed)

        def never(*args):
            raise AssertionError("run_seed called verify_counterexample")

        monkeypatch.setattr(search, "_second_order", counted)
        monkeypatch.setattr(search, "verify_counterexample", never)
        outcomes = [search.run_seed(cfg, seed) for seed in cfg.seeds]
        assert any(not o.class_holds for o in outcomes)
        assert drawn == list(cfg.seeds)


class TestTotallyBalancedSearch:
    def test_reverification_runs_the_predicate_on_the_product_only(self, monkeypatch):
        # the regeneration accepts each member by `is_totally_balanced`, so
        # re-verification runs it once, on the product
        cfg = SearchConfig(n=3, support_size=2, target_class="totally_balanced",
                           seed_start=6, seed_end=7, grid=4)
        outcome = problem1_search(cfg).counterexamples[0]
        tables, witness = record_of(cfg, outcome)
        regenerated = search._second_order(cfg, outcome.seed)
        monkeypatch.setattr(search, "_second_order", lambda config, seed: regenerated)
        predicate, calls = search.is_totally_balanced, []

        def counted(nu):
            calls.append(nu)
            return predicate(nu)

        monkeypatch.setattr(search, "is_totally_balanced", counted)
        assert verify_counterexample(cfg, outcome.seed, tables, witness)
        assert calls == [outcome.multiplied]

    def test_small_run_completes(self):
        cfg = SearchConfig(n=3, support_size=2, target_class="totally_balanced",
                           seed_start=0, seed_end=4, grid=4)
        report = problem1_search(cfg)
        assert len(report.outcomes) == 5
        for o in report.outcomes:
            if not o.class_holds:
                assert o.verified_counterexample


class TestLargeGrid:
    def test_a_large_grid_draws_without_a_value_table(self):
        # a draw builds only the Fractions its table reads, so a grid of 10^12
        # draws under a 1 GiB address-space cap, in a child process
        code = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from fractions import Fraction
from capax.capacity import grid_table, random_monotone
from capax.ground import GroundSet
from capax.search import SearchConfig, problem1_search
g, grid = GroundSet(2), 10 ** 12
nu = random_monotone(g, 0, grid)
assert nu.values == tuple(Fraction(k, grid) for k in grid_table(g, 0, grid))
report = problem1_search(SearchConfig(1, 1, "totally_balanced", 0, 0, grid=grid))
assert [o.class_holds for o in report.outcomes] == [True]
"""
        src = str(Path(capax.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


# `problem1_search` at n = 3, k = 2, grid 1, seed 5: the members 1/2 d0 + 1/2 d1
# and 1/2 d1 + 1/2 d2 under the additive weight game (1/2, 1/2)
SEED5_RECORD = """\
capax-report v3
config command=search class=exact n=3 k=2 seeds=5..5 grid=1
result seed=5 convex=no exact=no totally-balanced=no balanced=no holds=no
counterexample seed=5 witness=core-empty
cx-support seed=5 index=0 table=0,1/2,1/2,1,0,1/2,1/2,1
cx-support seed=5 index=1 table=0,0,1/2,1/2,1/2,1/2,1,1
cx-game seed=5 table=0,1/2,1/2,1
cx-mul seed=5 table=0,1/2,1/2,1/2,1/2,1/2,1/2,1
summary seeds=1 counterexamples=1 verdict=counterexample-found
"""


def grid_members(n, grid):
    """Every monotone capacity on n points with values on the grid."""
    g, full = GroundSet(n), (1 << n) - 1
    out = []
    for inner in product(range(grid + 1), repeat=full - 1):
        v = (0, *inner, grid)
        if all(v[a] <= v[a | 1 << i] for a in range(full) for i in range(n)):
            out.append(Capacity(g, [Fraction(x, grid) for x in v]))
    return out


class TestSmallEnd:
    """Where the submonad question turns: never at two points, on the census
    below, and already for measures at three."""

    @pytest.mark.parametrize("predicate, games", [(is_exact, 90), (is_balanced, 200)],
                             ids=["exact", "balanced"])
    def test_two_point_census_has_no_counterexample(self, predicate, games):
        # every exact 2-point member on grid 3, three at a time, under every
        # exact or balanced 3-point weight game on grid 3
        members = [nu for nu in grid_members(2, 3) if is_exact(nu)[0]]
        weights = [nu for nu in grid_members(3, 3) if predicate(nu)[0]]
        assert (len(members), len(weights)) == (10, games)
        # at two points every class is the one condition v({0}) + v({1}) <= 1
        for nu in grid_members(2, 3):
            assert is_exact(nu)[0] is is_balanced(nu)[0] is (nu[0b01] + nu[0b10] <= 1)
        products = 0
        for support in combinations(members, 3):
            for game in weights:
                mu = monad_mul(SecondOrderCapacity(GroundSet(2), support, game))
                assert mu[0b01] + mu[0b10] <= 1, (support, game)
                products += 1
        assert products == 120 * games

    def test_two_points_fail_under_an_unbalanced_game(self):
        # so the census needs its weight game balanced
        members = [nu for nu in grid_members(2, 3) if is_exact(nu)[0]]
        def fails(support, game):
            mu = monad_mul(SecondOrderCapacity(GroundSet(2), support, game))
            return mu[0b01] + mu[0b10] > 1

        assert any(fails(support, game) for game in grid_members(3, 3) if not is_balanced(game)[0]
                   for support in combinations(members, 3))

    def test_three_points_fail_with_two_measures(self):
        cfg = SearchConfig(n=3, support_size=2, target_class="exact",
                           seed_start=5, seed_end=5, grid=1)
        report = problem1_search(cfg)
        assert machine_report(report) == SEED5_RECORD
        assert reverify_report_text(SEED5_RECORD)
        c2 = build_second_order(cfg, 5)
        half = Fraction(1, 2)
        assert [nu.values for nu in c2.support] == [(0, half, half, 1, 0, half, half, 1),
                                                   (0, 0, half, half, half, half, 1, 1)]
        assert c2.game.values == (0, half, half, 1)
        # by hand: mu(A) is the largest t with G({i : nu_i(A) >= t}) >= t; at
        # {0} only member 0 reaches 1/2 (G({0}) = 1/2), at {1} both do
        # (G = 1), at {2} only member 1 (G({1}) = 1/2): 1/2 each, 3/2 in all,
        # so no measure lies above the product and its core is empty
        mu = report.outcomes[0].multiplied
        assert (mu[0b001], mu[0b010], mu[0b100]) == (half, half, half)
        assert mu[0b001] + mu[0b010] + mu[0b100] > 1 and not is_balanced(mu)[0]


class TestReportFormat:
    def test_structure(self):
        report = problem1_search(small_config(seed_end=2))
        text = machine_report(report)
        lines = text.splitlines()
        assert lines[0] == "capax-report v3"
        assert lines[1].startswith("config command=search class=exact n=3 k=2 seeds=0..2")
        assert sum(1 for l in lines if l.startswith("result seed=")) == 3
        assert lines[-1].startswith(("summary", "note"))
        parsed = parse_machine_report(text)
        assert parsed[0][0] == "config"

    def test_text_log_mentions_inconclusive_when_clean(self):
        report = problem1_search(small_config(support_size=1, seed_end=3))
        assert "inconclusive" in text_log(report)
        assert "elapsed" in text_log(report)

    def test_wall_clock_absent_from_machine_report(self):
        report = problem1_search(small_config(seed_end=2))
        assert "elapsed" not in machine_report(report)
