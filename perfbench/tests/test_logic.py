"""Tests of the benchmark's own logic: percentile rule, machine-speed gauge,
self time, LP shape, pivot phases, hooks.

    python3 -m pytest perfbench/tests
"""

import sys
import types
from fractions import Fraction

import pytest

import layers
import run
import tracing
from capax.capacity import random_monotone
from capax.classify import _core_min_lp, _cover_lp
from capax.ground import GroundSet
from capax.lp import linear_program


@pytest.mark.parametrize("samples, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected
    if expected is not None:
        assert samples * (100 - Fraction(str(expected))) / 100 >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 90.0) == 90
    assert run.percentile(values, 50.0) == 50
    assert run.percentile([7.0], 99.0) == 7.0


def test_gauge_spends_its_share_and_scales_to_nominal(monkeypatch):
    # powers of two, so the sums are exact
    chunks = iter([2**-9, 2**-8, 2**-8, 2**-8, 2**-8, 2**-8])
    monkeypatch.setattr(run, "reference_chunk", lambda: next(chunks))
    monkeypatch.setattr(run, "REF_SHARE", 2**-3)
    gauge = run.Gauge()
    gauge.after(2**-4)  # owes 4 units of 2**-9: chunks of 1, 2 and 2 units
    assert gauge.samples == [2**-9, 2**-8, 2**-8]
    gauge.after(2**-4)  # the 1-unit overrun is carried: 3 owed, two chunks
    assert len(gauge.samples) == 5
    assert gauge.scale() == run.REF_NOMINAL_S / 2**-8


def test_reference_chunk_restores_the_collector():
    import gc
    assert gc.isenabled()
    assert run.reference_chunk() > 0 and gc.isenabled()
    gc.disable()
    try:
        run.reference_chunk()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_self_time_of_nested_spans():
    # solve_dualized [0, 10] -> solve [1, 6] -> verify [4, 6]; solve_dualized -> verify [7, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 4.0, 7.0]
    end = [10.0, 6.0, 6.0, 9.0]
    assert layers.self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]


def _fake_module():
    mod = types.ModuleType("fake_lp_module")

    def verify_outcome(x):
        return sum(range(200)) + x

    def solve(x):
        return mod.verify_outcome(x) + 1

    def solve_dualized(x):
        return mod.solve(x) + mod.verify_outcome(x)

    mod.verify_outcome, mod.solve, mod.solve_dualized = verify_outcome, solve, solve_dualized
    return mod


def test_hooks_record_nesting_and_report_missing_targets(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = tracing.Tracer()
    hooks = tracing.HookSet(tracer, [
        tracing.Hook("fake_lp_module.solve_dualized", "lp.dualized"),
        tracing.Hook("fake_lp_module.solve", "lp.solve"),
        tracing.Hook("fake_lp_module.verify_outcome", "lp.verify"),
        tracing.Hook("fake_lp_module.gone", "lp.gone"),
    ])
    assert set(hooks.missing) == {"fake_lp_module.gone"}
    original = mod.solve_dualized
    hooks.enable()
    try:
        result = mod.solve_dualized(1)
    finally:
        hooks.disable()
    assert mod.solve_dualized is original and result == original(1)
    name, parent, start, end, _ = tracer.columns()
    assert [tracer.names[n] for n in name] == ["lp.dualized", "lp.solve", "lp.verify", "lp.verify"]
    assert parent == [-1, 0, 1, 0]
    own = layers.self_times(parent, start, end)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_lp_shapes():
    nu = random_monotone(GroundSet(3), 5, 4)
    cover, _ = _cover_lp(nu, nu.ground.full)
    assert tracing.lp_shape(cover) == tracing.COVER
    assert tracing.lp_shape(_core_min_lp(nu, 0b011)) == tracing.CORE
    other = linear_program("min", [1, 1], [([1, 2], ">=", 1)])
    assert tracing.lp_shape(other) == tracing.OTHER
    assert tracing.lp_tag(None, (cover,)) == tracing.COVER | 3 << 2


@pytest.mark.parametrize("events, phases", [
    ("OPPOPPP", (2, 3)),  # two-phase solve
    ("OPPP", (0, 3)),  # no artificials: one objective, all phase 2
    ("OPOP", (1, 1)),  # a pivot driving out an artificial counts as phase 1
    ("OO", (0, 0)),
    ("", (0, 0)),
])
def test_split_phases(events, phases):
    assert layers.split_phases(events) == phases


def test_layer_metrics_on_a_real_two_phase_solve():
    import capax.classify
    import capax.lp._tableau_py as kernel

    lp = linear_program("min", [1, 1], [([1, 1], "=", 1), ([1, 0], ">=", Fraction(1, 3))])
    pivots = []
    original_pivot = kernel.Tableau.pivot

    def counting_pivot(self, r, c):
        pivots.append((r, c))
        return original_pivot(self, r, c)

    kernel.Tableau.pivot = counting_pivot  # hooked below, so it runs inside the span
    try:
        tracer = tracing.Tracer()
        hooks = tracing.HookSet(tracer, [h for h in tracing.HOOKS if h.span.startswith("lp.")])
        assert not hooks.missing
        hooks.enable()
        tracer.item_id = 0
        sid = tracer.open(tracer.name_id("bench.item"))
        outcome = capax.classify.solve(lp)
        tracer.close(sid)
    finally:
        hooks.disable()
        kernel.Tableau.pivot = original_pivot
    assert outcome.value == 1
    metrics, missing = layers.layer_metrics(tracer, 1, 1.0, hooks.installed, hooks.missing)
    p1, p2 = metrics["lp.pivots.phase1"]["value"], metrics["lp.pivots.phase2"]["value"]
    assert p1 > 0 and p1 + p2 == len(pivots)
    assert metrics["lp.solves.core"]["value"] == 1
    assert metrics["lp.verify.calls"]["value"] == 1
    assert metrics["lp.bits.max"]["value"] >= 1
    assert "search.reverify.share" in missing and "lp.verify.share" not in missing
    assert all(set(m) == {"value", "unit"} for m in metrics.values())
