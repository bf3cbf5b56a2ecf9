"""Byte-identity pins for outputs that refactors of the LP layer must not move.

The first three hashes were recorded on the commit before the core-system
oracle replaced the dualized core LPs, the totally balanced search pin on the
commit before the generator's superadditivity screen and the mask-native
weighted-cover LP, and the total balancedness pin at n = 5 and 6 on the
commit before certified core points settled subsets without a cover LP.  A
change that alters any pinned output (a different vertex of the core, other
dual multipliers, another failing subset) shows up here; such a change has
to bump the report version and re-record the pins on purpose.

The report-v2 bump re-recorded four pins at once: balancedness now takes its
core witness from the core system's `minimum(0)`, which moves the core
measures in the core and total balancedness digests, and both search reports
differ from v1 in their header line only.  The selftest pin did not move.

The report-v3 bump re-recorded the same four: the core witness is now the
full-set cover's certified dual point, and a `ClassReport` holds its four
witnesses alone, which moves the core and total balancedness digests (no
exactness or total balancedness witness moved); both search reports lose
the `verified=` field of their counterexample records beside the header.

The two broad search pins, exact n = k = 4 over seeds 0..499 and totally
balanced n = k = 3 over seeds 0..299, were recorded under report v3 on the
commit before the search told its support members apart by their integer
tables instead of by `Capacity` equality.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

from capax.capacity import Capacity, random_convex_mixture, random_monotone
from capax.classify import classify_full, is_exact, is_totally_balanced
from capax.cli import main
from capax.credal import core_polytope, lower_envelope, random_credal
from capax.errors import CoreEmpty
from capax.ground import GroundSet, subset_indices
from capax.rng import SplitMix64
from capax.search import SearchConfig, machine_report, problem1_search

SEARCH_SHA256 = "a37e29b43352b94df65df7347ed1bb24fc114d8533e9e0ca469f5dfef49f23d4"
TB_SEARCH_SHA256 = "4910c5bea00f8f545991aabc39b7855a37fa4cf991360ae60d7397fbc38c5aaa"
SELFTEST_SHA256 = "110455ba5c36cc70cf2730798aa2414e3c16adfcab4dbb342846a8840bb78f19"
CORE_SHA256 = "793cd4ea2bad28917645f2bd37620d1d94b691c59ceb3c6553f0cd02e6301579"
TB_SHA256 = "ac15ee9882031788d461e1b09daa9b45d16f246d985b10f90b393f582b9fa52e"
BROAD_SEARCH_SHA256 = "c340e949df54dd9528ee023c2e7341d56a3f87aa520bc509c079ba7d34d66472"
BROAD_TB_SEARCH_SHA256 = "079412f9ec2edad60333ed451ebd39a1d9da7f045bed31dc5bc812276469d398"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def search_text(seed_end: int = 9) -> str:
    config = SearchConfig(n=4, support_size=4, target_class="exact",
                          seed_start=0, seed_end=seed_end)
    return machine_report(problem1_search(config))


def tb_search_text(seed_end: int = 19) -> str:
    config = SearchConfig(n=3, support_size=3, target_class="totally_balanced",
                          seed_start=0, seed_end=seed_end)
    return machine_report(problem1_search(config))


def selftest_text() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["selftest"])
    assert code == 0
    return out.getvalue()


def core_text() -> str:
    """Exactness witnesses, full reports, envelopes, members and upper masses
    of the core on seeded capacities, exact and not, n = 2..4."""
    lines = []
    for seed in range(24):
        g = GroundSet(2 + seed % 3)
        for nu in (random_monotone(g, seed, 6), random_convex_mixture(g, seed, 8)):
            lines.append(repr(is_exact(nu)))
            lines.append(repr(classify_full(nu)))
            try:
                alpha = core_polytope(nu)
            except CoreEmpty:
                lines.append("core-empty")
                continue
            lines.append(repr(lower_envelope(alpha)))
            lines.append(repr(alpha.some_member()))
            lines.append(repr([alpha.max_mass(m) for m in g.subsets()]))
    return "\n".join(lines) + "\n"


def tb_text() -> str:
    """Total balancedness verdicts and full reports at n = 5 and 6, where
    most subsets have three or more points: random monotone capacities
    (mostly unbalanced), the same scaled by 1/n below the full set
    (balanced, seldom totally balanced), convex mixtures, envelopes of
    vertex sets, those envelopes with one set of two or more points lowered
    to its largest maximal proper subset's value, and market games (the
    minimum of two or three additive games, normalised: totally balanced,
    seldom exact)."""
    lines = []
    for n, seeds in ((5, range(6)), (6, range(3))):
        g = GroundSet(n)
        pairs_up = [a for a in g.proper_nonempty_subsets() if bin(a).count("1") >= 2]
        for seed in seeds:
            rng = SplitMix64(1000 * n + seed)
            monotone = random_monotone(g, rng.next_u64(), 6)
            damped = Capacity(g, [v if a == g.full else v / n
                                  for a, v in enumerate(monotone.values)])
            envelope = lower_envelope(random_credal(g, rng, n + 1, 8))
            a = pairs_up[rng.next_below(len(pairs_up))]
            values = list(envelope.values)
            values[a] = max(envelope[a & ~(1 << i)] for i in g.points() if a >> i & 1)
            weights = [[1 + rng.next_below(8) for _ in g.points()]
                       for _ in range(2 + seed % 2)]
            top = min(map(sum, weights))
            market = Capacity(g, [Fraction(min(sum(w[j] for j in subset_indices(m))
                                               for w in weights), top)
                                  for m in g.subsets()])
            for nu in (monotone, damped, random_convex_mixture(g, rng.next_u64(), 6),
                       envelope, Capacity(g, values), market):
                lines.append(repr(is_totally_balanced(nu)))
                lines.append(repr(classify_full(nu)))
    return "\n".join(lines) + "\n"


def test_search_machine_report_is_pinned():
    assert _sha256(search_text()) == SEARCH_SHA256


def test_totally_balanced_search_machine_report_is_pinned():
    assert _sha256(tb_search_text()) == TB_SEARCH_SHA256


def test_search_machine_report_over_500_seeds_is_pinned():
    assert _sha256(search_text(seed_end=499)) == BROAD_SEARCH_SHA256


def test_totally_balanced_search_machine_report_over_300_seeds_is_pinned():
    assert _sha256(tb_search_text(seed_end=299)) == BROAD_TB_SEARCH_SHA256


def test_selftest_output_is_pinned():
    assert _sha256(selftest_text()) == SELFTEST_SHA256


def test_core_outputs_are_pinned():
    assert _sha256(core_text()) == CORE_SHA256


def test_total_balancedness_outputs_are_pinned():
    assert _sha256(tb_text()) == TB_SHA256
