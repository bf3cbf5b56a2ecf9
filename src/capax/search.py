"""Seeded search for counterexamples to the submonad question: does the monad
multiplication keep exact (or totally balanced) second-order capacities inside
the exact (totally balanced) class?

Scope: the search explores *finitely supported* second-order capacities only.
A verified counterexample found here is a genuine counterexample; finding
none proves nothing, and reports always say "inconclusive" in that case.

Per seed, deterministically: draw support capacities of the target class
(exact ones as lower envelopes of random vertex credal sets, totally balanced
ones by rejection-filtering random monotone capacities), draw a weight game
of the same class on the index set, multiply, classify the result, and
certify any class failure by arithmetic on the objects the seed holds before
listing it.  Seeds are independent, so the worker pool splits by seed; the
report is assembled in seed order, which makes the machine report
byte-identical for any worker count.  An outcome keeps the product and its
class report, not the second-order capacity: the machine report draws a
counterexample's members again from its seed.

A failure is certified once, by `_certified`, in the live search and in the
check of a written record alike.  An exact member comes with the integer rows
(d, ints) of the vertices whose lower envelope it is.  It is exact when each
row sums to its denominator and the rows' least mass table in lowest terms
(`ground.least_masses`) is the member's scaled table L v: every vertex is
then a core point, and every subset is attained by one, so the member is the
vertices' envelope, with no LP and no core system, and no point other than
the vertices counts.  The product's class witness, the one `classify_full`
reports for that class, is checked by arithmetic.  Only
`verify_counterexample`, the check of a record's text, draws a seed again.

The rejection filter screens each draw for superadditivity, nu(A) + nu(B) <=
nu(A | B) over disjoint A and B, as it draws: each subset's grid value is
closed in code order and checked against its splits, so most draws stop
early, before any Fraction or LP.  The screen is sound (the blocks of a
partition of B are balanced within B) and each draw owns its stream, so the
reports are those of the unscreened filter.  Support draws are capped too: a
class with fewer than k distinct members raises GeneratorExhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial

from .capacity import BalancedFamily, Capacity
from .classify import ClassReport, TotalBalanceFailure, classify_full, is_exact, is_totally_balanced
# verify_report and random_monotone stay importable here for callers that check
# a report as capax.search.verify_report and tools that hook candidate draws
from .capacity import random_monotone  # noqa: F401
from .classify import verify_report  # noqa: F401
from .credal import lower_envelope, random_credal
from .errors import ConfigOutOfRange, GeneratorExhausted, InternalInconsistency
from .ground import GroundSet, _shared_ratio, format_rat, format_subset, least_masses
from .lp.core import shared_scaled_table
from .monad import SecondOrderCapacity, monad_mul
from .rng import SplitMix64

EXACT = "exact"
TOTALLY_BALANCED = "totally_balanced"
CLASSES = (EXACT, TOTALLY_BALANCED)

MAX_POINTS = 6
MAX_SUPPORT = 6
MAX_JOBS = 64
_REJECTION_CAP = 100_000

REPORT_HEADER = "capax-report v3"


@dataclass(frozen=True, slots=True)
class SearchConfig:
    n: int
    support_size: int
    target_class: str
    seed_start: int
    seed_end: int  # inclusive; an empty range is start > end
    grid: int = 16
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POINTS:
            raise ConfigOutOfRange(f"ground size must be 1..{MAX_POINTS}, got {self.n}")
        if not 1 <= self.support_size <= MAX_SUPPORT:
            raise ConfigOutOfRange(
                f"support size must be 1..{MAX_SUPPORT}, got {self.support_size}")
        if self.target_class not in CLASSES:
            raise ConfigOutOfRange(f"class must be one of {CLASSES}, got {self.target_class!r}")
        if self.grid < 1:
            raise ConfigOutOfRange("grid must be >= 1")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ConfigOutOfRange(f"jobs must be 1..{MAX_JOBS}, got {self.jobs}")
        if self.seed_start < 0 or self.seed_end < -1:
            raise ConfigOutOfRange("seed range must be nonnegative")

    @property
    def seeds(self) -> range:
        return range(self.seed_start, self.seed_end + 1)


@dataclass(frozen=True, slots=True)
class SeedOutcome:
    seed: int
    multiplied: Capacity
    report: ClassReport
    class_holds: bool

    @property
    def verified_counterexample(self) -> bool:
        """Always `not class_holds`: a failing seed is listed only once
        `_certified` accepts the objects `run_seed` holds for it (`run_seed`
        raises otherwise).  Kept only because the benchmark's search
        workloads read it, until they stop (ROADMAP item 1(a))."""
        return not self.class_holds


@dataclass(frozen=True, slots=True)
class SearchReport:
    config: SearchConfig
    outcomes: tuple[SeedOutcome, ...]
    elapsed_seconds: float

    @property
    def counterexamples(self) -> tuple[SeedOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.class_holds)


def _generate_member(ground: GroundSet, target_class: str, attempt_rng: SplitMix64,
                     grid: int):
    """(member, rows): a capacity of the target class and, for an exact one,
    the integer rows (d, ints) of the vertices of the credal set whose lower
    envelope it is (None for a totally balanced one)."""
    if target_class == EXACT:
        alpha = random_credal(ground, attempt_rng, ground.n + 1, grid)
        return lower_envelope(alpha), alpha.rows
    for _ in range(_REJECTION_CAP):
        candidate = _screened_draw(ground, attempt_rng.next_u64(), grid)
        if candidate is not None and is_totally_balanced(candidate)[0]:
            return candidate, None
    raise GeneratorExhausted(f"rejection sampling found no totally balanced capacity on "
                             f"{ground.n} points in {_REJECTION_CAP} draws; use a smaller "
                             f"ground or support size")


def _screened_draw(ground: GroundSet, seed: int, grid: int):
    """`random_monotone(ground, seed, grid)` if its table is superadditive,
    else None.  Each subset's draw is closed in code order and its splits
    are tested at once; the first violation stops the draw."""
    rng, full, table = SplitMix64(seed), ground.full, [0]
    for mask, (below, splits) in enumerate(_draw_plan(ground.n), 1):
        v = grid if mask == full else rng.next_below(grid + 1)
        for a in below:
            if table[a] > v:
                v = table[a]
        for a, b in splits:
            if table[a] + table[b] > v:
                return None
        table.append(v)
    return Capacity._built(ground, tuple(_shared_ratio(v, grid) for v in table))


@lru_cache(maxsize=None)
def _draw_plan(n: int):
    """Per nonempty subset code m: the codes one point smaller, and the
    splits of m into disjoint nonempty parts, each unordered pair once."""
    return tuple((tuple(m ^ 1 << i for i in range(n) if m >> i & 1),
                  tuple((m ^ b, b) for b in range(m) if b & m == b and b > m ^ b))
                 for m in range(1, 1 << n))


def build_second_order(config: SearchConfig, seed: int) -> SecondOrderCapacity:
    """Deterministic second-order capacity of the target class for one seed.

    Substream discipline: the seed's base stream emits one child seed per
    generation attempt; duplicate support draws are discarded and the next
    substream is used, so the construction does not depend on worker layout.
    """
    return _second_order(config, seed)[0]


def _second_order(config: SearchConfig, seed: int):
    """`build_second_order` with the vertex rows of its members, the
    certificate `_certified` checks: one list per support entry, then the
    weight game's (all None for totally balanced).

    Members are told apart by their integer table L v in lowest terms
    (`shared_scaled_table`, which `is_totally_balanced` has just built for a
    totally balanced one): equal tables are equal capacities, so this is the
    dedup by `Capacity` equality, with no hash of 2^n Fractions."""
    ground = GroundSet(config.n)
    base = SplitMix64(seed)
    support = {}  # L v -> (member, its vertex rows), distinct members in draw order
    for _ in range(_REJECTION_CAP):
        candidate, rows = _generate_member(
            ground, config.target_class, SplitMix64(base.next_u64()), config.grid
        )
        support.setdefault(tuple(shared_scaled_table(candidate.values)[1]), (candidate, rows))
        if len(support) == config.support_size:
            break
    else:
        raise GeneratorExhausted(f"found {len(support)} distinct members in {_REJECTION_CAP} "
                                 f"draws, not {config.support_size}; use a smaller support size")
    game, rows = _generate_member(
        GroundSet(config.support_size), config.target_class,
        SplitMix64(base.next_u64()), config.grid,
    )
    members, vertex_lists = zip(*support.values())
    return SecondOrderCapacity(ground, members, game), (*vertex_lists, rows)


def run_seed(config: SearchConfig, seed: int) -> SeedOutcome:
    c2, vertex_lists = _second_order(config, seed)
    mul = monad_mul(c2)
    report = classify_full(mul)
    holds = report.exact if config.target_class == EXACT else report.totally_balanced
    if not holds and not _certified(c2, vertex_lists, mul,
                                    _class_witness(report, config.target_class)):
        raise InternalInconsistency(f"seed {seed}: counterexample candidate failed certification")
    return SeedOutcome(seed, mul, report, holds)


def verify_counterexample(config: SearchConfig, seed: int, tables, witness: str) -> bool:
    """Check a counterexample from its record as the machine report writes it.

    `tables` holds the k `cx-support` tables, the `cx-game` and the `cx-mul`
    table; `witness` is the `witness=` text.  Regenerates the seed's
    second-order capacity with its vertex lists, recomputes the product and
    runs the class predicate on it (its witness is the one `classify_full`
    reports for that class).  The record must be byte for byte what the
    machine report writes for these, so a malformed or altered table or
    witness is False; then `_certified` checks the members and the witness,
    as `run_seed` does.  The one path that draws a seed again.
    """
    c2, vertex_lists = _second_order(config, seed)
    mul = monad_mul(c2)
    holds, w = (is_exact if config.target_class == EXACT else is_totally_balanced)(mul)
    return not holds and _record(c2, mul, w) == (tuple(tables), witness) and \
        _certified(c2, vertex_lists, mul, w)


def _certified(c2: SecondOrderCapacity, vertex_lists, mul: Capacity, w) -> bool:
    """True when arithmetic confirms that `mul`, the product of `c2`, is a
    counterexample with class witness `w`.

    A `TotalBalanceFailure` marks a totally balanced target, whose members
    are the draws `_generate_member` kept because `is_totally_balanced`
    accepted them.  For an exact target every member must pass
    `_envelope_certifies` on its own vertex rows, so one without rows fails:
    each row sums to its denominator, and the rows' least table in lowest
    terms is the member's L v.  Then `w` must pass its check: `verify`, or
    for `is_exact`'s witness of an empty core, a balanced family over 1 at
    the full set."""
    if not isinstance(w, TotalBalanceFailure) and \
            not all(map(_envelope_certifies, (*c2.support, c2.game), vertex_lists)):
        return False
    if isinstance(w, BalancedFamily):
        return w.violates(mul, mul.ground.full)
    return w.verify(mul)


def _envelope_certifies(nu: Capacity, rows) -> bool:
    """True when `rows`, points x = ints / d of nu's ground set, prove nu
    exact by arithmetic: the list is nonempty, each row has n entries and a
    denominator d > 0 with sum(ints) = d, so x(X) = 1, and the rows' least
    mass table in lowest terms (`least_masses`) is nu's scaled table L v
    (`shared_scaled_table`).  Then every x has x(A) >= nu(A) for every A (so
    x >= 0, as nu >= 0 at the singletons) and every subset A has one with
    x(A) = nu(A): nu is the lower envelope of core points, which is
    exactness.  The least table is recomputed from the rows, never read from
    a credal set, and no LP or core system is asked, so no point another
    caller kept counts."""
    n = nu.ground.n
    return bool(rows) and all(len(ints) == n and sum(ints) == d > 0 for d, ints in rows) and \
        least_masses(rows) == shared_scaled_table(nu.values)


def problem1_search(config: SearchConfig) -> SearchReport:
    """Run the whole seed range; deterministic for any job count."""
    started = time.perf_counter()
    seeds = list(config.seeds)
    if not seeds:
        return SearchReport(config, (), time.perf_counter() - started)
    if config.jobs == 1 or len(seeds) == 1:
        outcomes = [run_seed(config, s) for s in seeds]
    else:
        # imported here: the pool machinery costs about 20 ms and 2 MB to import,
        # which every single-process caller of capax would otherwise pay
        from concurrent.futures import ProcessPoolExecutor

        workers = min(config.jobs, len(seeds))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(run_seed, config), seeds,
                                     chunksize=max(1, len(seeds) // (workers * 4))))
    return SearchReport(config, tuple(outcomes), time.perf_counter() - started)


# --- report serialization ---------------------------------------------------------


def _record(c2: SecondOrderCapacity, mul: Capacity, witness) -> tuple[tuple[str, ...], str]:
    """A counterexample's record, as the machine report writes it and
    `verify_counterexample` reads it: the k support tables, the weight game and
    the product, and the text of `witness`, the product's class witness."""
    tables = tuple(",".join(map(format_rat, nu.values)) for nu in (*c2.support, c2.game, mul))
    return tables, _witness_text(witness)


def machine_report(report: SearchReport) -> str:
    """Line-delimited machine format; excludes wall-clock so identical flags
    give byte-identical output regardless of --jobs."""
    cfg = report.config
    out = [REPORT_HEADER,
           f"config command=search class={cfg.target_class} n={cfg.n} k={cfg.support_size} "
           f"seeds={cfg.seed_start}..{cfg.seed_end} grid={cfg.grid}"]
    yn = lambda b: "yes" if b else "no"
    for o in report.outcomes:
        r = o.report
        out.append(
            f"result seed={o.seed} convex={yn(r.convex)} exact={yn(r.exact)} "
            f"totally-balanced={yn(r.totally_balanced)} balanced={yn(r.balanced)} "
            f"holds={yn(o.class_holds)}"
        )
    for o in report.counterexamples:
        tables, witness = _record(build_second_order(cfg, o.seed), o.multiplied,
                                  _class_witness(o.report, cfg.target_class))
        out.append(f"counterexample seed={o.seed} witness={witness}")
        out.extend(f"cx-support seed={o.seed} index={i} table={t}"
                   for i, t in enumerate(tables[:-2]))
        out.append(f"cx-game seed={o.seed} table={tables[-2]}")
        out.append(f"cx-mul seed={o.seed} table={tables[-1]}")
    cx = len(report.counterexamples)
    verdict = "counterexample-found" if cx else "inconclusive"
    out.append(f"summary seeds={len(report.outcomes)} counterexamples={cx} verdict={verdict}")
    if not cx:
        out.append("note finitely-supported-search-only absence-of-counterexamples-proves-nothing")
    return "\n".join(out) + "\n"


def _class_witness(report: ClassReport, target_class: str):
    return report.exact_witness if target_class == EXACT else report.tb_witness


def _witness_text(w) -> str:
    if hasattr(w, "subset"):
        return f"failing-subset={format_subset(w.subset)}"
    return "core-empty"


def text_log(report: SearchReport) -> str:
    """Human-readable log; includes wall-clock, so not byte-stable."""
    cfg = report.config
    out = [f"search class={cfg.target_class} n={cfg.n} k={cfg.support_size} "
           f"seeds={cfg.seed_start}..{cfg.seed_end} grid={cfg.grid} jobs={cfg.jobs}"]
    for o in report.outcomes:
        status = "holds" if o.class_holds else "COUNTEREXAMPLE"
        out.append(f"seed {o.seed}: {o.report.summary()} -> {status}")
    cx = len(report.counterexamples)
    if cx:
        out.append(f"{cx} verified counterexample(s); see the machine report for full tables")
    else:
        out.append("no counterexamples among these seeds; the finitely supported search is "
                   "inconclusive and proves nothing about the general question")
    out.append(f"elapsed {report.elapsed_seconds:.2f}s")
    return "\n".join(out) + "\n"


def parse_machine_report(text: str):
    """Parse the machine format back into dictionaries (for re-verification)."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError(f"not a {REPORT_HEADER!r} file")
    records = []
    for line in lines[1:]:
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        fields = {}
        for token in rest.split():
            key, _, value = token.partition("=")
            fields[key] = value
        records.append((kind, fields))
    return records


def reverify_report_text(text: str) -> bool:
    """Re-verify a machine report from its text alone.

    The report must be consistent: `seeds=` is exactly A..B, there is one
    result line per seed of that range, in order, each with holds=yes or
    holds=no, the seeds with a counterexample record are exactly those whose
    result line says holds=no, in order, and the summary counts both the seeds
    and the counterexamples.  Each record must be whole, a witness and every
    table, and pass `verify_counterexample`.  The config and summary records,
    each seed's counterexample record and each of its tables appear once, so
    no repeated line can stand in for the one checked.  Any other defect, a
    missing or malformed field included, gives False; only a missing header
    or config record raises ValueError.
    """
    config = None
    results, failing, flagged, tables, counted = [], [], {}, {}, None
    records = parse_machine_report(text)
    try:
        for kind, fields in records:
            if kind == "config":
                if config is not None:
                    return False
                start, end = fields["seeds"].split("..")
                config = SearchConfig(
                    n=int(fields["n"]),
                    support_size=int(fields["k"]),
                    target_class=fields["class"],
                    seed_start=int(start),
                    seed_end=int(end),
                    grid=int(fields["grid"]),
                )
            elif kind == "result":
                results.append(int(fields["seed"]))
                if ("yes", "no").index(fields["holds"]):
                    failing.append(results[-1])
            elif kind == "counterexample":
                seed = int(fields["seed"])
                if seed in flagged:
                    return False
                flagged[seed] = fields.get("witness")
            elif kind.startswith("cx-"):
                key = int(fields["seed"]), kind, fields.get("index")
                if key in tables:
                    return False
                tables[key] = fields.get("table")
            elif kind == "summary":
                if counted is not None:
                    return False
                counted = int(fields["seeds"]), int(fields["counterexamples"])
    except (KeyError, IndexError, ValueError, ConfigOutOfRange):
        return False
    if config is None:
        raise ValueError("report has no config record")
    # a slice of the range, so a long range in the text builds no long list
    if results != list(config.seeds[:len(results) + 1]) or list(flagged) != failing or \
            counted != (len(results), len(failing)):
        return False
    for seed, witness in flagged.items():
        record = [tables.get((seed, "cx-support", str(i))) for i in range(config.support_size)]
        record += [tables.get((seed, kind, None)) for kind in ("cx-game", "cx-mul")]
        if witness is None or None in record or \
                not verify_counterexample(config, seed, record, witness):
            return False
    return True
