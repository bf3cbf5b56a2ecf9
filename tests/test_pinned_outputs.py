"""Byte-identity pins for outputs that refactors of the LP layer must not move.

The hashes were recorded on the commit before the core-system oracle replaced
the dualized core LPs.  A change that alters any pinned output (a different
vertex of the core, other dual multipliers, another failing subset) shows up
here; such a change has to bump the report version and re-record the pins
on purpose.
"""

import contextlib
import hashlib
import io

from capax.capacity import random_convex_mixture, random_monotone
from capax.classify import classify_full, is_exact
from capax.cli import main
from capax.credal import core_polytope, lower_envelope
from capax.errors import CoreEmpty
from capax.ground import GroundSet
from capax.search import SearchConfig, machine_report, problem1_search

SEARCH_SHA256 = "229d26072f075fddfb9c83c96d3d0b8f47213c01a186bbfbfdb5f2a4be2e16da"
SELFTEST_SHA256 = "110455ba5c36cc70cf2730798aa2414e3c16adfcab4dbb342846a8840bb78f19"
CORE_SHA256 = "ba9b6c3dc992bde14b327b45f20742cb9faa64244afde5f315a97929faa37f72"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def search_text() -> str:
    config = SearchConfig(n=4, support_size=4, target_class="exact",
                          seed_start=0, seed_end=9)
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


def test_search_machine_report_is_pinned():
    assert _sha256(search_text()) == SEARCH_SHA256


def test_selftest_output_is_pinned():
    assert _sha256(selftest_text()) == SELFTEST_SHA256


def test_core_outputs_are_pinned():
    assert _sha256(core_text()) == CORE_SHA256
