"""capax benchmark: one closed-loop caller, in-process, on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a capax source tree; the package is imported from its
`src/` directory, and the run fails with exit code 2 when that is absent.

With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics (see BENCHMARK.json).

The end-to-end times (items_per_s, item_ms_p50, setup_s) are given at a fixed
machine speed: the speed of a shared host drifts by 20-40% over tens of
seconds, far more than the changes the benchmark has to resolve.  Between
items the run times a fixed chunk of rational arithmetic (big-integer gcd
reduction and Fraction sums, the work exact LPs are made of), for REF_SHARE
of the item time, and scales every measured time by REF_NOMINAL_S over the
median chunk time.  The chunk calls no capax code and runs with the garbage
collector off, so it moves with the machine and not with the program.  The
raw wall-clock figures are in the metadata line.

The traced run times every item twice, once with the hooks off and once with them on (alternating which goes
first), so the tracing overhead is measured on the same inputs; the layer
metrics come from the hooked passes only.  The last line of output is one
JSON object {correct, attempted, failed, metrics}; the line before it holds
run metadata.  `--workload all` runs every workload in its own process and
prints a table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from math import ceil, gcd
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

# Set-up (imports plus input generation) is repeated this many times per run
# and the median reported, so a change that moves work into set-up shows.
SETUP_REPS = 5
# Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Machine-speed reference: share of item time spent on reference chunks, the
# chunks timed around each set-up repetition, and the chunk time that the
# reported times are scaled to (about what one chunk takes on a 2-vCPU VM).
REF_SHARE = 0.05
SETUP_REF_CHUNKS = 5
REF_NOMINAL_S = 0.004


def reference_chunk() -> float:
    """Seconds taken by one fixed chunk of rational arithmetic, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    n, d = 0, 1
    for i in range(1, 500):
        # n/d += 1/(3i) - i/7, reduced as Fraction does it
        n, d = n * 21 * i + d * (7 - 3 * i * i), d * 21 * i
        g = gcd(n, d)
        n //= g
        d //= g
    third, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 300):
        total += third / i - Fraction(i, 7)
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Gauge:
    """Machine speed, from reference chunks run between items."""

    def __init__(self):
        self.samples: list[float] = []
        self.owed = 0.0

    def after(self, busy_s: float) -> None:
        """Run chunks for REF_SHARE of `busy_s`, the time just spent on items."""
        self.owed += REF_SHARE * busy_s
        while self.owed > 0:
            chunk = reference_chunk()
            self.samples.append(chunk)
            self.owed -= chunk

    def scale(self) -> float:
        """Factor that takes a time measured here to the nominal machine speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def _rank(p: float, samples: int) -> int:
    """1-based nearest rank of percentile p among `samples` values."""
    return max(1, ceil(Fraction(str(p)) * samples / 100))


def tail_percentile(samples: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if samples - _rank(p, samples) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(p, len(values)) - 1]


def import_capax() -> SimpleNamespace:
    """Fresh import of capax from SRC (earlier imports are dropped first)."""
    for name in [m for m in sys.modules if m == "capax" or m.startswith("capax.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    capax = importlib.import_module("capax")
    if Path(capax.__file__).resolve().parent != SRC / "capax":
        raise ImportError(f"capax imported from {capax.__file__}, not from {SRC}")
    return SimpleNamespace(
        capax=capax,
        classify=importlib.import_module("capax.classify"),
        credal=importlib.import_module("capax.credal"),
        search=importlib.import_module("capax.search"),
        lp=importlib.import_module("capax.lp"),
    )


def setup(workload, seed):
    """Import and input generation, SETUP_REPS times; raw and scaled seconds of each."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        gc.collect()  # the modules dropped by the last repetition are freed here, untimed
        chunks = [reference_chunk() for _ in range(SETUP_REF_CHUNKS)]
        t0 = perf_counter()
        api = import_capax()
        source = workload.setup(api, seed)
        raw.append(perf_counter() - t0)
        chunks += [reference_chunk() for _ in range(SETUP_REF_CHUNKS)]
        scaled.append(raw[-1] * REF_NOMINAL_S / statistics.median(chunks))
    return api, source, raw, scaled


class Tally:
    """Attempted and failed items; the first failures are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, api, item):
        self.attempted += 1
        try:
            ok, kept = workload.run_item(api, item)
        except Exception:
            ok, kept = False, None
            self._report(f"item {item!r:.80} raised:\n{traceback.format_exc()}")
        if not ok:
            self.failed += 1
            if kept is not None:
                self._report(f"item {item!r:.80} failed its output check")
            kept = None
        return kept

    def recheck(self, workload, api, kept):
        for value in kept:
            try:
                ok = workload.recheck(api, value)
            except Exception:
                ok = False
                self._report(f"re-verification raised:\n{traceback.format_exc()}")
            if not ok:
                self.failed += 1
                self._report("an item failed re-verification after the timed region")

    def _report(self, text):
        if self.failed <= 3:
            print(text, file=sys.stderr)


def plain_run(workload, api, source, seconds, tally, gauge):
    """Per-item latencies; the gauge samples the machine between items."""
    latencies = []
    kept = []
    start = perf_counter()
    while True:
        item = next(source)
        t0 = perf_counter()
        value = tally.run(workload, api, item)
        latencies.append(perf_counter() - t0)
        gauge.after(latencies[-1])
        if value is not None:
            kept.append(value)
        if perf_counter() - start >= seconds:
            break
    tally.recheck(workload, api, kept)
    return latencies


def traced_run(workload, api, source, seconds, tally):
    from layers import BASES, coverage, layer_metrics
    from tracing import HOOKS, HookSet, Tracer

    tracer = Tracer()
    hooks = HookSet(tracer, HOOKS)
    item_span = tracer.name_id("bench.item")
    plain_s = traced_s = traced_wall = 0.0
    kept = []
    items = 0
    start = perf_counter()
    while perf_counter() - start < seconds or items == 0:
        item = next(source)
        for hooked in ((False, True) if items % 2 == 0 else (True, False)):
            if hooked:
                hooks.enable()
                tracer.item_id = items
                sid = tracer.open(item_span)
                c0, t0 = tracer.clock(), perf_counter()
                value = tally.run(workload, api, item)
                traced_s += perf_counter() - t0
                traced_wall += tracer.clock() - c0
                tracer.close(sid)
                hooks.disable()
            else:
                t0 = perf_counter()
                value = tally.run(workload, api, item)
                plain_s += perf_counter() - t0
            if value is not None:
                kept.append(value)
        items += 1
    tally.recheck(workload, api, kept)

    metrics, missing = layer_metrics(tracer, items, traced_wall, hooks.installed,
                                     hooks.missing)
    metrics.update({
        "trace.items": {"value": items, "unit": "items"},
        "trace.items_per_s.traced": {"value": items / traced_s, "unit": "items/s"},
        "trace.items_per_s.untraced": {"value": items / plain_s, "unit": "items/s"},
        "trace.overhead": {"value": traced_s / plain_s - 1.0, "unit": "frac"},
        "trace.coverage": {"value": coverage(tracer, traced_wall), "unit": "frac"},
    })
    info = {"spans": len(tracer.ends), "ratio_bases": BASES, "missing_metrics": missing,
            "missing_hooks": hooks.missing, "failed_annotations": tracer.missing}
    return metrics, info


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_metadata(api) -> dict:
    meta = {"commit": commit_id(), "python": platform.python_version(),
            "nproc": os.cpu_count()}
    for name in ("backend_names", "DEFAULT_BACKEND"):
        value = getattr(api.lp, name, None)
        if callable(value):
            value = list(value())
        meta[name] = value if value is not None else "absent"
    return meta


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "capax" / "__init__.py").is_file():
        print(f"capax sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        api, source, setup_raw, setup_scaled = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import capax: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **run_metadata(api),
            "setup_s_samples": {"wall": setup_raw, "scaled": setup_scaled}}
    if args.trace:
        metrics, info = traced_run(workload, api, source, args.seconds, tally)
        meta.update(info)
    else:
        gauge = Gauge()
        latencies = plain_run(workload, api, source, args.seconds, tally, gauge)
        count = len(latencies)
        busy = sum(latencies)
        scale = gauge.scale()
        p50_s = statistics.median(latencies)
        tail = tail_percentile(count)
        meta.update(items=count, item_s=busy, latency_tail=(
            {"percentile": tail, "ms": percentile(latencies, tail) * 1e3 * scale,
             "samples": count}
            if tail is not None else f"not reported: {count} items, under {2 * MIN_BEYOND}"),
            reference={"chunks": len(gauge.samples), "scale": scale,
                       "chunk_ms_median": REF_NOMINAL_S * 1e3 / scale},
            wall={"items_per_s": count / busy, "item_ms_p50": p50_s * 1e3,
                  "setup_s": statistics.median(setup_raw)})
        metrics = {
            "items_per_s": {"value": count / (busy * scale), "unit": "items/s"},
            "item_ms_p50": {"value": p50_s * 1e3 * scale, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "ok_frac": {"value": (tally.attempted - tally.failed) / tally.attempted,
                        "unit": "ratio"},
        }
    print(json.dumps({"perfbench_meta": meta}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        missing = json.loads(lines[-2])["perfbench_meta"].get("missing_metrics", {})
        status |= not result["correct"]
        rows.append(f"{name}  correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            note = f"  (missing: {missing[metric]})" if metric in missing else ""
            rows.append(f"  {metric:34} {m['value']:>14.6g} {m['unit']}{note}")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
