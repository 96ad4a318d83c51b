"""In-memory spans and counters recorded around calls into falsify's layers.

The tracer patches falsify from the outside: each wrapped function is
replaced in its defining module and in every falsify module that imported
it by name (``engine``, ``validation`` and ``cli`` do), and methods are
replaced on their class. ``install`` returns a handle whose ``uninstall``
puts every original binding back, so traced and untraced repetitions can
share one process.

Clocks are CLOCK_MONOTONIC nanoseconds, which are comparable across
processes on one machine, so spans written by a traced ``falsify run``
child nest inside the parent's repetition span.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

now_ns = time.monotonic_ns

# fixed here rather than read from falsify, so the metric list does not
# depend on the code being measured
FAMILIES = (
    "ASIA_EXPANSION", "CONFLUENCE_RTH", "EVENT_DRIFT", "GAP_CONT_SHORT",
    "GAP_FILL_FADE", "LIQUIDITY_GRAB_CONT", "LIQUIDITY_GRAB_FADE", "LONDON_B",
    "ORB_LONG", "ORB_PULLBACK", "ORB_SHORT", "OU_REVERSION", "VOL_DRYUP",
    "VOL_SPIKE", "VVG_CONTINUATION", "VVG_REVERSAL",
)


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: int
    end: int


class Tracer:
    """Records nested spans in a single thread plus named counters.

    ``open_root``/``close_root`` bracket one setup or repetition and keep
    the counter increments made inside it, so per-root figures can be
    weighted separately.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.roots: list[tuple[Span, Counter]] = []
        self._stack: list[int] = []
        self._root_counters: Counter = Counter()

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, now_ns(), 0)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = now_ns()
        if self._stack.pop() != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def open_root(self, name: str) -> Span:
        if self._stack:
            raise RuntimeError("a root span cannot nest")
        self._root_counters = Counter(self.counters)
        return self.open(name)

    def close_root(self, span: Span) -> None:
        self.close(span)
        delta = Counter(self.counters)
        delta.subtract(self._root_counters)
        self.roots.append((span, delta))

    def adopt(self, records: Iterable[dict], counters: dict) -> None:
        """Attach spans and counts a child process recorded to the last root."""
        root, delta = self.roots[-1]
        offset = len(self.spans)
        for r in records:
            p = root.id if r["parent"] is None else r["parent"] + offset
            self.spans.append(Span(r["id"] + offset, p, r["name"], r["start"], r["end"]))
        delta.update(counters)

    def to_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent interval and their union is taken,
    so overlapping or overhanging children are never subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[int, int] = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    below: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            below[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(below.get(s.id, ()))
    return out


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit). Every ``_s`` metric is a self time: the layer's spans
# minus the layer calls nested inside them, so the ``_s`` metrics of one
# repetition, harness.self_s included, add up to trace.run_s.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("bars.parse_s", "s"), ("bars.parse_bars_per_s", "bars/s"),
    ("bars.parse_events_s", "s"), ("bars.group_days_s", "s"),
    ("bars.day_primitives_s", "s"), ("bars.day_primitives_calls", "count"),
    ("synth.gen_null_s", "s"), ("synth.gen_regime_s", "s"),
    ("synth.plant_drift_s", "s"), ("synth.gen_events_s", "s"),
    ("synth.bars_per_s", "bars/s"),
    ("features.gmm_fit_s", "s"), ("features.gmm_fit_calls", "count"),
    ("features.gmm_predict_s", "s"), ("features.regime_features_s", "s"),
    ("features.rolling_stat_s", "s"), ("features.rolling_stat_calls", "count"),
    ("features.volume_zscore_s", "s"), ("features.kalman_s", "s"),
    ("features.markov_s", "s"), ("features.ou_fit_s", "s"),
    ("signals.emit_s", "s"), ("signals.emit_calls", "count"),
    ("signals.events", "count"), ("signals.fit_s", "s"),
    *((f"signals.emit_s.{f}", "s") for f in FAMILIES),
    ("engine.run_family_s", "s"), ("engine.runner_s", "s"),
    ("engine.fit_state_s", "s"), ("engine.overnight_velocity_s", "s"),
    ("engine.load_bundle_s", "s"), ("engine.signal_cache_hit_ratio", "ratio"),
    ("execution.simulate_s", "s"), ("execution.simulate_calls", "count"),
    ("execution.trades", "count"), ("execution.rejections", "count"),
    ("execution.fill_ratio", "ratio"), ("execution.to_ticks_calls", "count"),
    ("execution.serialize_s", "s"),
    ("validation.walk_forward_s", "s"), ("validation.grid_evals", "count"),
    ("validation.folds", "count"), ("validation.summary_s", "s"),
    ("validation.gate_s", "s"), ("validation.permutation_s", "s"),
    ("validation.permutation_calls", "count"),
    ("validation.perm_iters_per_s.horizon", "1/s"),
    ("validation.perm_iters_per_s.generic", "1/s"),
    ("validation.permutation_skip_ratio", "ratio"),
    ("report.render_s", "s"), ("config.load_s", "s"),
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.run_self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.run_s", "s"), ("trace.self_sum_s", "s"),
    ("trace.untraced_run_s", "s"), ("trace.overhead_ratio", "ratio"),
)


def _self_metric(name: str) -> list[str]:
    """Self-time metrics a span of this name contributes to."""
    if name.startswith("signals.emit."):
        return ["signals.emit_s", "signals.emit_s." + name.rsplit(".", 1)[1]]
    if name.startswith("validation.permutation."):
        return ["validation.permutation_s"]
    special = {"cli.run": "cli.run_self_s", "harness.rep": "harness.self_s",
               "harness.setup": None}
    if name in special:
        return [special[name]] if special[name] else []
    return [name + "_s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_run_ns: list[int]) -> tuple[dict[str, float], bool]:
    """Aggregate the tracer's roots into LAYER_METRICS.

    Setup roots count once; repetition roots are averaged over the traced
    repetitions. Returns the metrics and whether every repetition's self
    times add up exactly to its duration.
    """
    n = sum(1 for root, _ in tracer.roots if root.name == "harness.rep")
    totals: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    additive = True
    rep_ns, rep_self_ns = [], []
    for root, delta in tracer.roots:
        weight = 1.0 / n if root.name == "harness.rep" else 1.0
        tree = subtree(tracer.spans, root)
        selfs = self_times(tree)
        for s in tree:
            for m in _self_metric(s.name):
                totals[m] += selfs[s.id] * weight / 1e9
        for k, v in delta.items():
            counts[k] += v * weight
        if root.name == "harness.rep":
            rep_ns.append(root.end - root.start)
            rep_self_ns.append(sum(selfs.values()))
            additive &= rep_self_ns[-1] == rep_ns[-1]

    out = {name: 0.0 for name, _ in LAYER_METRICS}
    for m, v in totals.items():
        if m not in out:
            raise KeyError(f"span metric {m} is not declared")
        out[m] = v
    for name, unit in LAYER_METRICS:
        if unit == "count":  # each count metric is the counter of the same name
            out[name] = float(counts[name])
    out["bars.parse_bars_per_s"] = _ratio(counts["bars.parsed"], counts["bars.parse_ns"] / 1e9)
    out["synth.bars_per_s"] = _ratio(counts["synth.bars"], counts["synth.gen_ns"] / 1e9)
    lookups = counts["engine.signal_lookups"]
    out["engine.signal_cache_hit_ratio"] = _ratio(lookups - counts["engine.signal_misses"], lookups)
    out["execution.fill_ratio"] = _ratio(counts["execution.trades"], counts["execution.events"])
    for path in ("horizon", "generic"):
        out[f"validation.perm_iters_per_s.{path}"] = _ratio(
            counts[f"validation.perm_iters.{path}"], counts[f"validation.perm_ns.{path}"] / 1e9)
    out["validation.permutation_skip_ratio"] = _ratio(
        counts["validation.permutation_skipped"], counts["validation.permutation_eligible"])
    out["trace.run_s"] = sum(rep_ns) / max(n, 1) / 1e9
    out["trace.self_sum_s"] = sum(rep_self_ns) / max(n, 1) / 1e9
    out["trace.untraced_run_s"] = sum(untraced_run_ns) / max(len(untraced_run_ns), 1) / 1e9
    out["trace.overhead_ratio"] = _ratio(sum(rep_ns), sum(untraced_run_ns))
    return out, additive


# -- instrumentation ------------------------------------------------------------

class Installed:
    """Handle on patched bindings; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _timed(tracer: Tracer, name: str | Callable[..., str], fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, result, *args, **kwargs)
        return result
    return wrapper


def install(tracer: Tracer) -> Installed:
    """Wrap the public calls of every layer on the verdict path."""
    from falsify import (bars, cli, config, engine, execution, features, report,
                         signals, synth, validation)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and n.startswith("falsify.")]
    inst = Installed()
    c = tracer.counters

    def fn(module, attr: str, name, after: Optional[Callable] = None) -> None:
        # replace every binding of the function in falsify, not only the
        # defining module, because consumers import it by name
        original = getattr(module, attr)
        wrapper = _timed(tracer, name, original, after)
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    inst.set(mod, bound, wrapper)

    def method(cls, attr: str, name, after: Optional[Callable] = None) -> None:
        inst.set(cls, attr, _timed(tracer, name, getattr(cls, attr), after))

    def count(key: str) -> Callable:
        def after(span, result, *a, **k):
            c[key] += 1
        return after

    def after_parse(span, days, *a, **k):
        c["bars.parsed"] += sum(len(d.bars) for d in days)
        c["bars.parse_ns"] += span.end - span.start
    fn(bars, "parse_bar_file", "bars.parse", after_parse)
    fn(bars, "parse_event_calendar", "bars.parse_events")
    fn(bars, "group_days", "bars.group_days")
    fn(bars, "day_primitives", "bars.day_primitives", count("bars.day_primitives_calls"))

    def after_gen(span, result, *a, **k):
        days = result[0] if isinstance(result, tuple) else result
        c["synth.bars"] += sum(len(d.bars) for d in days)
        c["synth.gen_ns"] += span.end - span.start
    fn(synth, "gen_null_days", "synth.gen_null", after_gen)
    fn(synth, "gen_regime_days", "synth.gen_regime", after_gen)
    fn(synth, "plant_drift", "synth.plant_drift")
    fn(synth, "gen_event_calendar", "synth.gen_events")

    fn(features, "gmm_fit", "features.gmm_fit", count("features.gmm_fit_calls"))
    method(features.RegimeGMM, "predict", "features.gmm_predict")
    fn(features, "regime_features", "features.regime_features")
    fn(features, "rolling_stat", "features.rolling_stat", count("features.rolling_stat_calls"))
    fn(features, "volume_zscore", "features.volume_zscore")
    fn(features, "kalman_velocity", "features.kalman")
    fn(features, "markov_transition_prob", "features.markov")
    fn(features, "ou_fit", "features.ou_fit")

    def after_emit(span, events, *a, **k):
        c["signals.emit_calls"] += 1
        c["signals.events"] += len(events)
        if c["engine.runner_depth"]:
            c["engine.signal_misses"] += 1
    method(engine.Engine, "day_signals",
           lambda eng, family, *a, **k: f"signals.emit.{family}", after_emit)
    for attr in ("volume_ratio_cutoffs", "vvg_metrics", "vvg_boundaries", "vvg_classify"):
        fn(signals, attr, "signals.fit")

    def after_run_family(span, outcome, eng, family, permutation=True):
        result, metrics, _ = outcome
        if permutation and eng.config.gate(family).permutation_required and result.oos_trades:
            c["validation.permutation_eligible"] += 1
            c["validation.permutation_skipped"] += metrics.permutation_p is None
    method(engine.Engine, "run_family", "engine.run_family", after_run_family)
    method(engine.Engine, "_fit_state", "engine.fit_state")
    method(engine.Engine, "overnight_velocity", "engine.overnight_velocity")
    fn(engine, "load_bundle", "engine.load_bundle")

    make_runner = engine.Engine.runner

    def runner(eng, family):
        run = make_runner(eng, family)

        def traced_run(train, eval_days, params, exit_spec):
            c["engine.signal_lookups"] += len(eval_days)
            c["validation.grid_evals"] += train is eval_days
            c["engine.runner_depth"] += 1
            span = tracer.open("engine.runner")
            try:
                return run(train, eval_days, params, exit_spec)
            finally:
                tracer.close(span)
                c["engine.runner_depth"] -= 1
        return traced_run
    inst.set(engine.Engine, "runner", runner)

    def after_simulate(span, res, events, *a, **k):
        c["execution.simulate_calls"] += 1
        c["execution.events"] += len(events)
        c["execution.trades"] += len(res.trades)
        c["execution.rejections"] += len(res.rejections)
    fn(execution, "simulate", "execution.simulate", after_simulate)
    fn(execution, "serialize_trades", "execution.serialize")
    to_ticks = execution.Instrument.to_ticks

    @functools.wraps(to_ticks)
    def counted_to_ticks(self, points):
        c["execution.to_ticks_calls"] += 1
        return to_ticks(self, points)
    inst.set(execution.Instrument, "to_ticks", counted_to_ticks)

    def after_walk_forward(span, result, *a, **k):
        c["validation.folds"] += len(result.plan.folds)
    fn(validation, "walk_forward", "validation.walk_forward", after_walk_forward)
    fn(validation, "summary_metrics", "validation.summary")
    fn(validation, "validate", "validation.gate")

    def perm_path(trades, pool, exit_spec, *a, **k) -> str:
        plain = (exit_spec.kind is execution.ExitKind.HORIZON
                 and exit_spec.stop is None and exit_spec.clock is None)
        return "validation.permutation." + ("horizon" if plain else "generic")

    def after_perm(span, p, *a, iterations=1000, **k):
        path = span.name.rsplit(".", 1)[1]
        c["validation.permutation_calls"] += 1
        c[f"validation.perm_iters.{path}"] += iterations
        c[f"validation.perm_ns.{path}"] += span.end - span.start
    fn(validation, "permutation_test", perm_path, after_perm)

    fn(report, "render_report", "report.render")
    fn(report, "render_summary", "report.render")
    for attr in ("load_config", "config_from_dict", "dump_config"):
        fn(config, attr, "config.load")
    inst.set(cli.run, "callback", _timed(tracer, "cli.run", cli.run.callback))
    return inst
