"""The four workloads: inputs, one timed item, and the checks on its output.

Each workload is driven closed-loop by one caller.  `setup` builds the input
sequence from the workload seed as an endless iterator, `run_item` does
one item inside the timed region and returns (ok, kept), and `recheck` runs
the checks too slow for the timed region on one kept value after the timed
region ends.  Every call goes through a module attribute of `api`
(`api.classify.classify_full`, ...), so traced runs see the hooks.
"""

from __future__ import annotations

from itertools import count, cycle
from pathlib import Path

import inputs

FLAGS_FILE = Path(__file__).with_name("corpus_flags.txt")


def flag_code(report) -> str:
    convex, exact, tb, balanced = report.flags()
    return "0123456789abcdef"[convex << 3 | exact << 2 | tb << 1 | balanced]


def load_flags() -> str:
    return "".join(FLAGS_FILE.read_text().split())


class Workload:
    name = ""

    def recheck(self, api, kept) -> bool:
        return True


class ClassifyCorpus(Workload):
    name = "classify_corpus"

    def setup(self, api, seed):
        flags = load_flags()
        items = []
        for index in inputs.corpus_indices(seed):
            n, table = inputs.pool_member(index)
            items.append((api.capax.Capacity(api.capax.GroundSet(n), table), flags[index]))
        return cycle(items)

    def run_item(self, api, item):
        nu, expected = item
        report = api.classify.classify_full(nu)
        return api.classify.verify_report(nu, report) and flag_code(report) == expected, None


class CoreSweep(Workload):
    name = "core_sweep"
    # enough distinct inputs that a 60 s run never repeats one
    inputs_per_run = 64

    def setup(self, api, seed):
        ground = api.capax.GroundSet(6)
        return cycle([api.capax.Capacity(ground, table)
                      for table in inputs.core_sweep_tables(seed, self.inputs_per_run)])

    def run_item(self, api, nu):
        exact, _ = api.classify.is_exact(nu)
        envelope = api.credal.lower_envelope(api.credal.core_polytope(nu))
        return exact and envelope == nu, None  # retraction identity


class Search(Workload):
    """`problem1_search` over one seed per item, seeds counting up from a
    start derived from the workload seed."""

    def __init__(self, name, target_class, n, k):
        self.name = name
        self.target_class = target_class
        self.n = n
        self.k = k

    def setup(self, api, seed):
        return count((seed % (1 << 32)) * 10_000)

    def run_item(self, api, seed):
        config = api.capax.SearchConfig(n=self.n, support_size=self.k,
                                        target_class=self.target_class,
                                        seed_start=seed, seed_end=seed, grid=16, jobs=1)
        report = api.search.problem1_search(config)
        (outcome,) = report.outcomes
        ok = (outcome.seed == seed
              and (outcome.class_holds or outcome.verified_counterexample)
              and api.search.verify_report(outcome.multiplied, outcome.report))
        return ok, report

    def recheck(self, api, report):
        # from-scratch re-verification of the seed's counterexample, if any
        return api.search.reverify_report_text(api.search.machine_report(report))


WORKLOADS = {
    w.name: w for w in (
        ClassifyCorpus(),
        CoreSweep(),
        Search("search_exact", "exact", 4, 4),
        Search("search_tb", "totally_balanced", 3, 3),
    )
}
