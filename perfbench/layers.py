"""Per-layer metrics from recorded spans.

Self time is a span's duration minus the durations of its direct children.
Counts and times are given per traced item; each ratio names its base in
`BASES`.  A metric whose spans could not be hooked, or whose base is empty
on a workload, reads 0, and the reason is given apart from the metrics.
"""

from __future__ import annotations

from tracing import CORE, COVER, OTHER, Tracer

# Each metric: (unit, spans whose hooks it needs).
METRICS = {
    "lp.verify.calls": ("calls/item", ["lp.verify"]),
    "lp.verify.self_s": ("s/item", ["lp.verify"]),
    "lp.verify.share": ("frac", ["lp.verify"]),
    "lp.solves.core": ("solves/item", ["lp.solve", "lp.dualized"]),
    "lp.solves.dualized": ("solves/item", ["lp.dualized"]),
    "lp.dual.self_s": ("s/item", ["lp.dual"]),
    "lp.pivots.phase1": ("pivots/item", ["lp.solve", "lp.kernel.pivot", "lp.kernel.set_objective"]),
    "lp.pivots.phase2": ("pivots/item", ["lp.solve", "lp.kernel.pivot", "lp.kernel.set_objective"]),
    "lp.kernel.self_s": ("s/item", ["lp.kernel.run", "lp.kernel.pivot", "lp.kernel.set_objective"]),
    "lp.bits.max": ("bits", ["lp.kernel.run"]),
    "lp.cells.max": ("cells", ["lp.kernel.run"]),
    "lp.solves.cover": ("solves/item", ["lp.solve", "lp.dualized"]),
    "lp.solve.self_s": ("s/item", ["lp.solve"]),
    "lp.model.rows": ("rows/item", ["lp.model.row"]),
    "lp.model.self_s": ("s/item", ["lp.model.row", "lp.model.program"]),
    "classify.full.s": ("s/item", ["classify.full"]),
    "classify.is_exact.s": ("s/item", ["classify.is_exact"]),
    "classify.is_balanced.s": ("s/item", ["classify.is_balanced"]),
    "classify.is_totally_balanced.s": ("s/item", ["classify.is_totally_balanced"]),
    "classify.verify_report.s": ("s/item", ["classify.verify_report"]),
    "classify.cover_full.per_call": ("solves/call", ["classify.full", "lp.solve"]),
    "classify.is_exact.sweep_ratio": ("frac", ["classify.is_exact", "lp.dualized"]),
    "credal.envelope.s": ("s/item", ["credal.envelope"]),
    "credal.min_mass.calls": ("calls/item", ["credal.min_mass"]),
    "credal.cache_hit_ratio": ("frac", ["credal.min_mass"]),
    "search.build.s": ("s/item", ["search.build", "search.reverify"]),
    "search.multiply.s": ("s/item", ["monad.mul", "search.run_seed", "search.reverify"]),
    "search.classify.s": ("s/item", ["classify.full", "search.run_seed", "search.reverify"]),
    "search.reverify.s": ("s/item", ["search.reverify"]),
    "search.reverify.share": ("frac", ["search.reverify", "search.run_seed"]),
    "capacity.generate.calls": ("calls/item", ["capacity.generate"]),
    "capacity.generate.s": ("s/item", ["capacity.generate"]),
    "capacity.accept_ratio": ("frac", ["capacity.generate", "capacity.candidate"]),
    "monad.mul.calls": ("calls/item", ["monad.mul"]),
    "monad.mul.s": ("s/item", ["monad.mul"]),
    "gamefiles.s": ("s/item", ["gamefiles"]),
}

BASES = {
    "lp.verify.share": "self time of verify_outcome over traced wall time",
    "classify.cover_full.per_call": "full-set cover LPs over classify_full calls",
    "classify.is_exact.sweep_ratio": "core LPs under is_exact over the sum of 2^n - 2 per call",
    "credal.cache_hit_ratio": "min_mass calls answered from the cache over min_mass calls",
    "search.reverify.share": "verify_counterexample time over run_seed time",
    "capacity.accept_ratio": "members generated over candidates drawn",
    "trace.overhead": "traced over untraced time of the same items, minus 1",
    "trace.coverage": "top-level capax span time over traced wall time",
}


def self_times(parent, start, end) -> list[float]:
    """Duration minus the durations of direct children, per span.

    Spans are numbered in start order, so every parent precedes its children.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def split_phases(events: str) -> tuple[int, int]:
    """(phase-1, phase-2) pivots in one solve.

    `events` lists the solve's kernel calls in order: "O" for set_objective,
    "P" for a pivot.  Phase-1 pivots are those between the first and second
    set_objective of a solve that makes two calls; all other pivots are
    phase 2.
    """
    two_phase = events.count("O") >= 2
    phase1 = phase2 = 0
    objectives = 0
    for e in events:
        if e == "O":
            objectives += 1
        elif two_phase and objectives == 1:
            phase1 += 1
        else:
            phase2 += 1
    return phase1, phase2


def nearest(parent, name, targets: set[int]) -> list[int]:
    """Per span, the nearest proper ancestor whose name is in `targets`, or -1."""
    out = [-1] * len(parent)
    for i, p in enumerate(parent):
        if p >= 0:
            out[i] = p if name[p] in targets else out[p]
    return out


def layer_metrics(tr: Tracer, items: int, wall: float, installed: set[str],
                  missing_targets: dict[str, str]) -> tuple[dict[str, dict], dict[str, str]]:
    """Every metric in METRICS as {"value", "unit"}, and the reasons of those missing.

    A missing metric reads 0; its reason goes to the second dict, keyed by metric.
    """
    ids = {name: tr.name_id(name) for name in
           {s for _, spans in METRICS.values() for s in spans} | {"bench.item"}}
    name, parent, start, end, tag = tr.columns()
    own = self_times(parent, start, end)
    dur = [e - s for s, e in zip(start, end)]

    calls: dict[int, int] = {}
    self_sum: dict[int, float] = {}
    incl: dict[int, float] = {}
    for i, nid in enumerate(name):
        calls[nid] = calls.get(nid, 0) + 1
        self_sum[nid] = self_sum.get(nid, 0.0) + own[i]
        incl[nid] = incl.get(nid, 0.0) + dur[i]

    def count(span):
        return calls.get(ids[span], 0)

    def own_s(*spans):
        return sum(self_sum.get(ids[s], 0.0) for s in spans)

    def incl_s(span):
        return incl.get(ids[span], 0.0)

    solve, dualized = ids["lp.solve"], ids["lp.dualized"]
    in_dualized = nearest(parent, name, {dualized})
    shape_counts = {COVER: 0, CORE: 0, OTHER: 0}
    for i, nid in enumerate(name):
        if nid == dualized or (nid == solve and in_dualized[i] < 0):
            shape = tag[i] & 3
            shape_counts[shape] = shape_counts.get(shape, 0) + 1

    pivot, set_obj = ids["lp.kernel.pivot"], ids["lp.kernel.set_objective"]
    solve_of = nearest(parent, name, {solve})
    events: dict[int, list[str]] = {}
    for i, nid in enumerate(name):
        if nid == pivot or nid == set_obj:
            events.setdefault(solve_of[i], []).append("P" if nid == pivot else "O")
    phase1 = phase2 = 0
    for owner, evs in events.items():
        a, b = split_phases("".join(evs))
        phase1 += a
        phase2 += b

    full = ids["classify.full"]
    full_of = nearest(parent, name, {full})
    cover_full = 0
    for i, nid in enumerate(name):
        if (nid == solve and in_dualized[i] < 0 and tag[i] & 3 == COVER
                and full_of[i] >= 0 and tag[i] >> 2 == tag[full_of[i]]):
            cover_full += 1

    is_exact = ids["classify.is_exact"]
    exact_of = nearest(parent, name, {is_exact})
    swept = sum(1 for i, nid in enumerate(name) if nid == dualized and exact_of[i] >= 0)
    sweep_base = sum((1 << tag[i]) - 2 for i, nid in enumerate(name) if nid == is_exact)

    min_mass = ids["credal.min_mass"]
    hits = sum(1 for i, nid in enumerate(name) if nid == min_mass and tag[i] == 1)

    reverify, run_seed = ids["search.reverify"], ids["search.run_seed"]
    in_reverify = nearest(parent, name, {reverify})
    in_run_seed = nearest(parent, name, {run_seed})

    def search_phase(span):
        nid = ids[span]
        return sum(dur[i] for i, x in enumerate(name)
                   if x == nid and in_reverify[i] < 0 and in_run_seed[i] >= 0)

    per = 1.0 / items
    values = {
        "lp.verify.calls": (count("lp.verify") * per, None),
        "lp.verify.self_s": (own_s("lp.verify") * per, None),
        "lp.verify.share": (own_s("lp.verify"), wall),
        "lp.solves.core": (shape_counts[CORE] * per, None),
        "lp.solves.dualized": (count("lp.dualized") * per, None),
        "lp.dual.self_s": (own_s("lp.dual") * per, None),
        "lp.pivots.phase1": (phase1 * per, None),
        "lp.pivots.phase2": (phase2 * per, None),
        "lp.kernel.self_s": (own_s("lp.kernel.run", "lp.kernel.pivot",
                                   "lp.kernel.set_objective") * per, None),
        "lp.bits.max": (tr.maxima.get("bits", 0), None),
        "lp.cells.max": (tr.maxima.get("cells", 0), None),
        "lp.solves.cover": (shape_counts[COVER] * per, None),
        "lp.solve.self_s": (own_s("lp.solve") * per, None),
        "lp.model.rows": (count("lp.model.row") * per, None),
        "lp.model.self_s": (own_s("lp.model.row", "lp.model.program") * per, None),
        "classify.full.s": (incl_s("classify.full") * per, None),
        "classify.is_exact.s": (incl_s("classify.is_exact") * per, None),
        "classify.is_balanced.s": (incl_s("classify.is_balanced") * per, None),
        "classify.is_totally_balanced.s": (incl_s("classify.is_totally_balanced") * per, None),
        "classify.verify_report.s": (incl_s("classify.verify_report") * per, None),
        "classify.cover_full.per_call": (cover_full, count("classify.full")),
        "classify.is_exact.sweep_ratio": (swept, sweep_base),
        "credal.envelope.s": (incl_s("credal.envelope") * per, None),
        "credal.min_mass.calls": (count("credal.min_mass") * per, None),
        "credal.cache_hit_ratio": (hits, count("credal.min_mass")),
        "search.build.s": (search_phase("search.build") * per, None),
        "search.multiply.s": (search_phase("monad.mul") * per, None),
        "search.classify.s": (search_phase("classify.full") * per, None),
        "search.reverify.s": (incl_s("search.reverify") * per, None),
        "search.reverify.share": (incl_s("search.reverify"), incl_s("search.run_seed")),
        "capacity.generate.calls": (count("capacity.generate") * per, None),
        "capacity.generate.s": (incl_s("capacity.generate") * per, None),
        "capacity.accept_ratio": (count("capacity.generate"), count("capacity.candidate")),
        "monad.mul.calls": (count("monad.mul") * per, None),
        "monad.mul.s": (incl_s("monad.mul") * per, None),
        "gamefiles.s": (incl_s("gamefiles") * per, None),
    }

    annotation_feeds = {
        "lp.solves.core": "lp.shape", "lp.solves.cover": "lp.shape",
        "classify.cover_full.per_call": "lp.shape",
        "lp.bits.max": "lp.bits.max", "lp.cells.max": "lp.bits.max",
        "credal.cache_hit_ratio": "credal.cache_hit_ratio",
    }
    out: dict[str, dict] = {}
    missing: dict[str, str] = {}
    for metric, (unit, spans) in METRICS.items():
        value, base = values[metric]
        absent = [s for s in spans if s not in installed]
        feed = annotation_feeds.get(metric)
        if absent:
            reasons = "; ".join(f"{t}: {r}" for t, r in missing_targets.items())
            missing[metric] = f"no hook for {', '.join(absent)} ({reasons})"
        elif feed in tr.missing:
            missing[metric] = f"annotation failed: {tr.missing[feed]}"
        elif base is not None:
            if base:
                value = value / base
            else:
                missing[metric] = f"empty base on this workload: {BASES[metric]}"
        out[metric] = {"value": 0 if metric in missing else value, "unit": unit}
    return out, missing


def coverage(tr: Tracer, wall: float) -> float:
    """Time in top-level capax spans (children of bench.item) over traced wall time."""
    item = tr.name_id("bench.item")
    name, parent, start, end, _ = tr.columns()
    top = sum(end[i] - start[i] for i, p in enumerate(parent)
              if p >= 0 and name[p] == item)
    return top / wall if wall else 0.0
