"""Tests of the benchmark itself: self-time arithmetic and a smoke run per workload.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from spans import LAYER_METRICS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        Span(0, None, "root", 0, 100),
        Span(1, 0, "a", 10, 40),
        Span(2, 0, "b", 30, 60),      # overlaps a: 10..60 is covered once
        Span(3, 1, "a.child", 15, 20),
        Span(4, 0, "c", 90, 120),     # overhangs the root: only 90..100 counts
    ]
    assert self_times(tree) == {0: 100 - 50 - 10, 1: 30 - 5, 2: 30, 3: 5, 4: 30}


def test_nested_self_times_add_up_to_the_root(monkeypatch):
    clock = itertools.count(0, 7)
    monkeypatch.setattr(spans, "now_ns", lambda: next(clock))
    tracer = Tracer()
    root = tracer.open_root("harness.rep")
    fit = tracer.open("features.gmm_fit")
    tracer.counters["features.gmm_fit_calls"] += 1
    tracer.close(tracer.open("features.gmm_predict"))
    tracer.close(fit)
    emit = tracer.open("signals.emit.ORB_LONG")
    tracer.close(tracer.open("bars.day_primitives"))
    tracer.close(emit)
    tracer.close_root(root)

    metrics, additive = layer_metrics(tracer, untraced_run_ns=[49])
    assert additive
    assert metrics["trace.run_s"] == metrics["trace.self_sum_s"] == 63e-9
    assert metrics["features.gmm_fit_s"] == 14e-9
    assert metrics["signals.emit_s"] == metrics["signals.emit_s.ORB_LONG"] == 14e-9
    assert metrics["harness.self_s"] == 21e-9
    assert metrics["features.gmm_fit_calls"] == 1
    assert metrics["trace.overhead_ratio"] == 63 / 49
    layer_self = sum(v for (name, unit), v in zip(LAYER_METRICS, metrics.values())
                     if unit == "s" and not name.startswith(("trace.", "signals.emit_s.")))
    assert layer_self == pytest.approx(metrics["trace.run_s"], abs=1e-15)


def test_untraced_bindings_are_restored():
    from falsify import engine, validation
    originals = (engine.walk_forward, validation.simulate, engine.Engine.run_family)
    inst = spans.install(Tracer())
    assert engine.walk_forward is not originals[0]
    assert validation.simulate is not originals[1]
    inst.uninstall()
    assert (engine.walk_forward, validation.simulate, engine.Engine.run_family) == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_on_a_tiny_corpus(name, tmp_path):
    w = WORKLOADS[name](tmp_path, TINY)
    setup_s, reps, subs, (metrics, additive) = run.measure(w, seed=3, seconds=1, traced=True)
    assert len(setup_s) == 1 and len(reps) >= 2 and subs[0] == w.order(3)[0]
    if name == "cli_run":
        run.cross_rep_violations(reps)
    assert [bad for r in reps for _, _, bad in r.verdicts if bad] == []
    assert additive
    assert set(metrics) == {m for m, _ in LAYER_METRICS}
    assert metrics["trace.run_s"] > 0
    assert metrics["signals.emit_calls"] > 0 and metrics["execution.simulate_calls"] > 0
    assert w.sizes_info()["folds"] >= 1
