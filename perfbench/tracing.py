"""Spans around capax's layers, recorded from outside the program.

A hook replaces a name where its callers look it up (a module global such as
`capax.classify.solve`, or a class attribute such as `Tableau.pivot`) with a
wrapper that opens a span, calls the original and closes the span.  A target
that no longer exists is reported as missing with the reason, and the run
goes on without it.

A span records its name, parent span, item, start, end and a per-hook integer
tag.  Tags and post-call scans (LP shape, tableau bit length,
cache probes) are computed outside the span clock: `Tracer.clock` subtracts
the time spent on them, so they inflate no span and no traced wall time.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# LP shape codes, stored in the low two bits of an LP span's tag; the row count
# sits above them.
OTHER, COVER, CORE = 0, 1, 2


def lp_shape(lp) -> int:
    """cover: `max` with all rows `<=`; core: a leading all-ones `=` row."""
    rows = lp.rows
    if lp.sense == "max" and all(row.rel == "<=" for row in rows):
        return COVER
    if rows and rows[0].rel == "=" and all(c == 1 for c in rows[0].coeffs):
        return CORE
    return OTHER


# Annotations take (tracer, call arguments).


def lp_tag(tracer, args) -> int:
    lp = args[0]
    return lp_shape(lp) | lp.num_rows << 2


def ground_tag(tracer, args) -> int:
    return args[0].ground.n


class Tracer:
    """Spans of one run, appended in start order.

    While recording, a span is a tuple (name id, parent span, item, start) in
    `records` plus its end time in `ends`; tags are kept sparsely in `tags`.
    `columns` turns them into the per-field lists the analysis reads.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records: list[tuple[int, int, int, float]] = []
        self.ends: list[float] = []
        self.tags: dict[int, int] = {}
        self.stack = [-1]
        self.item_id = -1
        self.excluded = 0.0
        self.maxima: dict[str, int] = {}
        self.missing: dict[str, str] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clock(self) -> float:
        return perf_counter() - self.excluded

    def open(self, nid: int, tag: int = 0) -> int:
        sid = len(self.ends)
        self.records.append((nid, self.stack[-1], self.item_id, self.clock()))
        self.ends.append(0.0)
        if tag:
            self.tags[sid] = tag
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self.stack.pop()

    def columns(self):
        """(name, parent, start, end, tag) as lists indexed by span id."""
        name = [r[0] for r in self.records]
        parent = [r[1] for r in self.records]
        start = [r[3] for r in self.records]
        tag = [0] * len(name)
        for sid, value in self.tags.items():
            tag[sid] = value
        return name, parent, start, list(self.ends), tag

    def untimed(self, fn, args, what: str):
        """Run an annotation off the span clock; on failure note `what` missing."""
        t = perf_counter()
        try:
            return fn(self, args)
        except (AttributeError, TypeError, LookupError) as exc:
            self.missing.setdefault(what, f"{type(exc).__name__}: {exc}")
            return -1
        finally:
            self.excluded += perf_counter() - t


@dataclass(frozen=True)
class Hook:
    target: str  # dotted path: module attribute or class attribute
    span: str
    # (tracer, args) -> int, before the call; the span's tag
    tag: Callable | None = None
    # (tracer, args) -> None, after the call, for scans of the result
    after: Callable | None = None
    # metric marked missing when `tag` or `after` fails
    feeds: str = ""


def _resolve(target: str):
    """(owner, attribute) for a dotted target; raises LookupError when absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            if not hasattr(owner, attr):
                raise LookupError(f"{owner.__name__} has no attribute {attr}")
            owner = getattr(owner, attr)
        if parts[-1] not in vars(owner):
            raise LookupError(f"{getattr(owner, '__name__', owner)} has no attribute {parts[-1]}")
        return owner, parts[-1]
    raise LookupError(f"no importable module in {target}")


def _wrap(tracer: Tracer, original, nid: int, hook: Hook):
    # Recording is inlined: a span costs about 1.5 us here, and the search
    # workloads open thousands per item.
    tag_fn, after, feeds = hook.tag, hook.after, hook.feeds or hook.span
    records, ends, stack, tags = tracer.records, tracer.ends, tracer.stack, tracer.tags
    untimed = tracer.untimed

    def traced(*args, **kwargs):
        if tag_fn is not None:
            tags[len(ends)] = untimed(tag_fn, args, feeds)
        sid = len(ends)
        records.append((nid, stack[-1], tracer.item_id, perf_counter() - tracer.excluded))
        ends.append(0.0)
        stack.append(sid)
        try:
            return original(*args, **kwargs)
        finally:
            ends[sid] = perf_counter() - tracer.excluded
            stack.pop()
            if after is not None:
                untimed(after, args, feeds)
    return traced


class HookSet:
    """Wrappers for a list of hooks, switched on and off as a whole."""

    def __init__(self, tracer: Tracer, hooks: list[Hook]):
        self.tracer = tracer
        self.installed: set[str] = set()  # span names with at least one hook in place
        self.missing: dict[str, str] = {}  # target -> reason
        self._patches = []  # (owner, attr, original, wrapper)
        for hook in hooks:
            try:
                owner, attr = _resolve(hook.target)
            except LookupError as exc:
                self.missing[hook.target] = str(exc)
                continue
            self.installed.add(hook.span)
            original = vars(owner)[attr]
            wrapper = _wrap(tracer, original, tracer.name_id(hook.span), hook)
            self._patches.append((owner, attr, original, wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# --- the hooks --------------------------------------------------------------------------


def _tableau_scan(tracer: Tracer, args) -> None:
    tab = args[0]
    bits = max(max(map(int.bit_length, row)) for rows in (tab.nums, tab.dens) for row in rows)
    cells = (tab.m + 1) * (tab.ncols + 1)
    maxima = tracer.maxima
    if bits > maxima.get("bits", 0):
        maxima["bits"] = bits
    if cells > maxima.get("cells", 0):
        maxima["cells"] = cells


def _cache_probe(tracer: Tracer, args) -> int:
    alpha, mask = args[0], args[1]
    return int((mask, True) in alpha._cache)


TABLEAU = "capax.lp._tableau_py.Tableau"

HOOKS = [
    # LP layer; solve and solve_dualized are hooked at every module that calls them
    Hook("capax.classify.solve", "lp.solve", tag=lp_tag, feeds="lp.shape"),
    Hook("capax.lp.solver.solve", "lp.solve", tag=lp_tag, feeds="lp.shape"),
    Hook("capax.classify.solve_dualized", "lp.dualized", tag=lp_tag, feeds="lp.shape"),
    Hook("capax.credal.solve_dualized", "lp.dualized", tag=lp_tag, feeds="lp.shape"),
    Hook("capax.lp.solver.verify_outcome", "lp.verify"),
    Hook("capax.lp.solver.dual_of", "lp.dual"),
    Hook("capax.classify.Row", "lp.model.row"),
    Hook("capax.credal.Row", "lp.model.row"),
    Hook("capax.lp.model.Row", "lp.model.row"),
    Hook("capax.classify.LinearProgram", "lp.model.program"),
    Hook("capax.credal.LinearProgram", "lp.model.program"),
    Hook("capax.lp.model.LinearProgram", "lp.model.program"),
    Hook(TABLEAU + ".set_objective", "lp.kernel.set_objective"),
    Hook(TABLEAU + ".run", "lp.kernel.run", after=_tableau_scan, feeds="lp.bits.max"),
    Hook(TABLEAU + ".pivot", "lp.kernel.pivot"),
    # classification
    Hook("capax.classify.classify_full", "classify.full", tag=ground_tag),
    Hook("capax.search.classify_full", "classify.full", tag=ground_tag),
    Hook("capax.classify.is_exact", "classify.is_exact", tag=ground_tag),
    Hook("capax.search.is_exact", "classify.is_exact", tag=ground_tag),
    Hook("capax.classify.is_balanced", "classify.is_balanced"),
    Hook("capax.classify.is_totally_balanced", "classify.is_totally_balanced"),
    Hook("capax.search.is_totally_balanced", "classify.is_totally_balanced"),
    Hook("capax.classify.verify_report", "classify.verify_report"),
    Hook("capax.search.verify_report", "classify.verify_report"),
    # credal sets
    Hook("capax.credal.core_polytope", "credal.core_polytope"),
    Hook("capax.credal.lower_envelope", "credal.envelope"),
    Hook("capax.search.lower_envelope", "credal.envelope"),
    Hook("capax.credal.CredalSet.min_mass", "credal.min_mass", tag=_cache_probe,
         feeds="credal.cache_hit_ratio"),
    # search, generation, monad, game files
    Hook("capax.search.problem1_search", "search.problem1"),
    Hook("capax.search.run_seed", "search.run_seed"),
    Hook("capax.search.build_second_order", "search.build"),
    Hook("capax.search.verify_counterexample", "search.reverify"),
    Hook("capax.search._generate_member", "capacity.generate"),
    Hook("capax.search.random_monotone", "capacity.candidate"),
    Hook("capax.search.random_credal", "capacity.candidate"),
    Hook("capax.search.monad_mul", "monad.mul"),
    Hook("capax.search.emit_second", "gamefiles"),
    Hook("capax.search.parse_second", "gamefiles"),
]
