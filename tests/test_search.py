import re
from fractions import Fraction

import pytest

from oracles import random_monotone_fractions

from capax import search
from capax.capacity import Capacity, grid_table, random_convex_mixture, random_monotone
from capax.classify import is_exact, is_totally_balanced
from capax.errors import ConfigOutOfRange
from capax.ground import GroundSet, subset_indices
from capax.monad import monad_mul
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
            assert search._superadditive(grid_table(g, seed, 6)) == \
                search._superadditive(random_monotone(g, seed, 6).values)
            market = market_game(g, rng, 1 + i % 3, 6)
            assert is_totally_balanced(market)[0]
            for kind, nu in (("monotone", random_monotone(g, seed, 6)),
                             ("convex", random_convex_mixture(g, seed, 6)),
                             ("market", market)):
                if is_totally_balanced(nu)[0]:
                    accepted[kind] += 1
                    assert search._superadditive(nu.values), nu
        assert accepted["convex"] and accepted["market"]
        if n <= 3:
            assert accepted["monotone"]

    def test_rejects_a_subadditive_table(self):
        assert not search._superadditive([0, 2, 2, 3])
        assert search._superadditive([0, 1, 2, 3])
        assert search._superadditive([0, 1])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grid_table_is_the_fraction_draw(self, n):
        g = GroundSet(n)
        for grid in range(1, 17):
            for seed in (grid, 7919 * n + grid):
                expected = random_monotone_fractions(g, seed, grid)
                assert [Fraction(k, grid) for k in grid_table(g, seed, grid)] == expected
                assert list(random_monotone(g, seed, grid).values) == expected

    def test_generator_solves_only_screened_draws(self, monkeypatch):
        screened, tested = [], []
        screen, predicate = search._superadditive, search.is_totally_balanced

        def counted_screen(values):
            screened.append(screen(values))
            return screened[-1]

        def counted_predicate(nu, **kwargs):
            tested.append(nu)
            return predicate(nu, **kwargs)

        monkeypatch.setattr(search, "_superadditive", counted_screen)
        monkeypatch.setattr(search, "is_totally_balanced", counted_predicate)
        cfg = SearchConfig(n=3, support_size=3, target_class="totally_balanced",
                           seed_start=0, seed_end=19)
        for seed in cfg.seeds:
            build_second_order(cfg, seed)
        assert len(tested) == sum(screened)
        assert all(screen(nu.values) for nu in tested)
        assert len(screened) > 10 * len(tested)  # the screen rejects most draws


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


def table_of(text, prefix):
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return line.partition("table=")[2]


# Each edit leaves a report that still parses, but whose record is wrong,
# incomplete or inconsistent with its result and summary lines.  `s` is a
# flagged seed with a failing-subset witness, `h` a seed where the class holds.
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
        tables, witness = search._record(outcome.second_order, outcome.multiplied,
                                         outcome.report, cfg.target_class)
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

    def test_failing_class_really_fails(self, found):
        _, report = found
        for o in report.counterexamples:
            assert not is_exact(monad_mul(o.second_order))[0]


class TestTotallyBalancedSearch:
    def test_small_run_completes(self):
        cfg = SearchConfig(n=3, support_size=2, target_class="totally_balanced",
                           seed_start=0, seed_end=4, grid=4)
        report = problem1_search(cfg)
        assert len(report.outcomes) == 5
        for o in report.outcomes:
            if not o.class_holds:
                assert o.verified_counterexample


class TestReportFormat:
    def test_structure(self):
        report = problem1_search(small_config(seed_end=2))
        text = machine_report(report)
        lines = text.splitlines()
        assert lines[0] == "capax-report v1"
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
