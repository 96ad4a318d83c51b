"""Binds data, features, signal families, execution and validation into runs.

Each family gets a runner whose fitted state (GMM model, decile cutoffs,
tercile boundaries, OU fit) comes from the training days only; rolling
per-bar series are computed over the chronological bar stream and are
strictly backward-looking, so slicing them per day leaks nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, time
from typing import Optional, Sequence

import numpy as np

from . import signals as sig
from .bars import (DayPrimitives, EconEvent, SessionSpec, TradingDay,
                   day_primitives, parse_bar_file, parse_event_calendar,
                   ASIA, LONDON, RTH)
from .config import RunConfig
from .execution import ExitKind, ExitSpec, SimResult, TradeRecord, simulate
from .features import (OuFit, RegimeGMM, RollingSpec, Statistic, gmm_fit,
                       kalman_velocity, markov_transition_prob, ou_fit,
                       regime_features, rolling_stat, volume_zscore)
from .validation import (EvalMetrics, GateThresholds, Verdict, WalkForwardResult,
                         permutation_test, summary_metrics, validate, walk_forward)


class EngineError(ValueError):
    pass


@dataclass
class DataBundle:
    rth: list[TradingDay] = field(default_factory=list)
    asia: list[TradingDay] = field(default_factory=list)
    london: list[TradingDay] = field(default_factory=list)
    events: list[EconEvent] = field(default_factory=list)

    def days(self, session: str) -> list[TradingDay]:
        return {"rth": self.rth, "asia": self.asia, "london": self.london}[session]


def load_bundle(config: RunConfig) -> DataBundle:
    bundle = DataBundle()
    for key, sess in (("rth", RTH), ("asia", ASIA), ("london", LONDON)):
        path = config.data_path(key)
        if path is not None:
            setattr(bundle, key, parse_bar_file(path, sess))
    events_path = config.data_path("events")
    if events_path is not None:
        bundle.events = parse_event_calendar(events_path, rth_only=True)
    return bundle


@dataclass(frozen=True)
class FamilyDef:
    name: str
    session: str
    grid: tuple[dict, ...]
    exit_grid: tuple[ExitSpec, ...]


def _h(n: int) -> ExitSpec:
    return ExitSpec(ExitKind.HORIZON, horizon=n)


def default_families() -> dict[str, FamilyDef]:
    """Declared parameter grids per family; grids are data, not code."""
    f = [
        FamilyDef("ORB_LONG", "rth", ({},), (_h(1), _h(15))),
        FamilyDef("ORB_SHORT", "rth", ({},), (_h(1), _h(15))),
        FamilyDef("ORB_PULLBACK", "rth", ({"pullback_offset": 5.0, "stop": 20.0},),
                  (ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),)),
        FamilyDef("ASIA_EXPANSION", "asia",
                  tuple({"multiple": m} for m in (1.5, 2.0, 2.5)), (_h(1), _h(6))),
        FamilyDef("LIQUIDITY_GRAB_FADE", "asia", ({"lookback": None},), (_h(1), _h(6))),
        FamilyDef("LIQUIDITY_GRAB_CONT", "asia", ({"lookback": None},), (_h(1), _h(6))),
        FamilyDef("GAP_FILL_FADE", "rth",
                  tuple({"entry_time": t, "min_gap": 5.0}
                        for t in ("09:30", "09:45", "10:00")), (_h(78),)),
        FamilyDef("GAP_CONT_SHORT", "rth", ({"kalman_threshold": 2.5, "min_gap": 0.0},),
                  (_h(78),)),
        FamilyDef("VOL_SPIKE", "rth", ({},), (_h(1),)),
        FamilyDef("VOL_DRYUP", "rth", ({},), (_h(1),)),
        FamilyDef("VVG_REVERSAL", "rth", ({"mode": "REVERSAL"}, {"mode": "CLOSE_FADE"}),
                  (_h(6), _h(13))),
        FamilyDef("VVG_CONTINUATION", "rth", ({"mode": "CONTINUATION"},), (_h(6), _h(13))),
        FamilyDef("EVENT_DRIFT", "rth", ({"start_bar_offset": 6, "horizon": 6},), (_h(6),)),
        FamilyDef("OU_REVERSION", "rth",
                  tuple({"threshold": t} for t in (1.5, 2.0, 2.5)), (_h(1), _h(6))),
        FamilyDef("CONFLUENCE_RTH", "rth", ({},),
                  (_h(13), ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13, limit_offset=25.0))),
        FamilyDef("LONDON_B", "london", ({},), (_h(4),)),
    ]
    return {d.name: d for d in f}


def _parse_clock(s: str) -> time:
    hh, mm = s.split(":")
    return time(int(hh), int(mm))


class Engine:
    """Per-run orchestration with memoized fitted state and per-day series."""

    def __init__(self, bundle: DataBundle, config: RunConfig):
        self.bundle = bundle
        self.config = config
        self.families = default_families()
        named = [*config.raw["families"], *config.raw["permutation"]["families"]]
        unknown = [n for n in named if n not in self.families]
        if unknown:
            raise EngineError(f"unknown family {unknown[0]!r}")
        self._prims: dict[tuple[str, date], DayPrimitives] = {}
        self._state: dict = {}
        self._series: dict = {}
        self._signals: dict = {}
        self._kalman_v: Optional[dict[date, float]] = None

    # -- shared caches ----------------------------------------------------

    def complete_days(self, session: str) -> list[TradingDay]:
        return [d for d in self.bundle.days(session) if d.complete]

    def prims(self, day: TradingDay) -> DayPrimitives:
        key = (day.session.name, day.date)
        if key not in self._prims:
            self._prims[key] = day_primitives(day)
        return self._prims[key]

    def _train_key(self, train: Sequence[TradingDay], params: dict) -> tuple:
        return (train[0].date, train[-1].date, len(train),
                tuple(sorted((k, str(v)) for k, v in params.items())))

    def overnight_velocity(self) -> dict[date, float]:
        """Kalman velocity entering each RTH open, from the overnight session.

        Falls back to the prior RTH day's closes when no Asia data is
        loaded. Uses only bars strictly before the day's open.
        """
        if self._kalman_v is not None:
            return self._kalman_v
        cfg = self.config.raw["kalman"]
        q, r = float(cfg["q"]), float(cfg["r"])
        out: dict[date, float] = {}
        rth_days = self.complete_days("rth")
        asia_by_date = {d.date: d for d in self.complete_days("asia")}
        prev_rth: Optional[TradingDay] = None
        for day in rth_days:
            source: Optional[TradingDay] = None
            if asia_by_date:
                prior_dates = [dt for dt in asia_by_date if dt < day.date]
                if prior_dates:
                    source = asia_by_date[max(prior_dates)]
            elif prev_rth is not None:
                source = prev_rth
            if source is not None:
                vel = kalman_velocity([b.close for b in source.bars], q, r)
                if bool(cfg.get("zscored")):
                    sd = float(np.std(vel))
                    out[day.date] = float(vel[-1] / sd) if sd > 0 else 0.0
                else:
                    out[day.date] = float(vel[-1])
            prev_rth = day
        self._kalman_v = out
        return out

    def _regime_series(self, session: str, model: RegimeGMM, key: tuple) -> dict[date, dict]:
        """Per-day slices of labels / transition prob / volume z / ATR.

        Computed over the full chronological stream; every component is
        strictly backward-looking.
        """
        cache_key = ("series", session, key)
        if cache_key in self._series:
            return self._series[cache_key]
        days = self.complete_days(session)
        stream = [b for d in days for b in d.bars]
        X = regime_features(stream, vol_window=50)
        labels = model.predict(X)
        trans = markov_transition_prob(labels, window=200, frm=1, to=2)
        vz = volume_zscore(stream, 50)
        atr = rolling_stat(stream, RollingSpec(20, Statistic.ATR))
        out: dict[date, dict] = {}
        pos = 0
        for d in days:
            n = len(d.bars)
            out[d.date] = {
                "labels": labels[pos:pos + n],
                "trans": trans[pos:pos + n],
                "vz": vz[pos:pos + n],
                "atr": atr[pos:pos + n],
            }
            pos += n
        self._series[cache_key] = out
        return out

    # -- fitted state per family ------------------------------------------

    def _fit_state(self, family: str, train: Sequence[TradingDay], params: dict) -> dict:
        key = (family, self._train_key(train, params))
        if key in self._state:
            return self._state[key]
        state: dict = {}
        if family in ("VOL_SPIKE", "VOL_DRYUP"):
            lo, hi = sig.volume_ratio_cutoffs(train, window=20)
            state = {"dryup_cutoff": lo, "spike_cutoff": hi}
        elif family in ("VVG_REVERSAL", "VVG_CONTINUATION"):
            session_days = self.complete_days("rth")
            prims = [self.prims(d) for d in session_days]
            metrics = sig.vvg_metrics(session_days, prims)
            train_dates = {d.date for d in train}
            rows = metrics[[i for i, d in enumerate(session_days) if d.date in train_dates]]
            boundaries = sig.vvg_boundaries(rows)
            flags = sig.vvg_classify(metrics, boundaries)
            state = {"flags": {d.date: bool(flags[i]) for i, d in enumerate(session_days)}}
        elif family == "OU_REVERSION":
            closes = [b.close for d in train for b in d.bars]
            state = {"fit": ou_fit(closes)}
        elif family in ("CONFLUENCE_RTH", "LONDON_B"):
            session = "rth" if family == "CONFLUENCE_RTH" else "london"
            stream = [b for d in train for b in d.bars]
            X = regime_features(stream, vol_window=50)
            model = gmm_fit(X[50:], k=3, seed=self.config.seed)
            atr = rolling_stat(stream, RollingSpec(20, Statistic.ATR))
            finite = atr[np.isfinite(atr)]
            state = {
                "model": model,
                "atr_baseline": float(np.median(finite)) if len(finite) else 1.0,
                "series": self._regime_series(session, model, key),
            }
        self._state[key] = state
        return state

    # -- signal emission ---------------------------------------------------

    def day_signals(self, family: str, day: TradingDay, params: dict,
                    state: dict) -> list[sig.SignalEvent]:
        if family in ("ORB_LONG", "ORB_SHORT"):
            evs = sig.orb_signals(day, self.prims(day), "IMMEDIATE")
            return [e for e in evs if e.family == family]
        if family == "ORB_PULLBACK":
            return sig.orb_signals(day, self.prims(day), "PULLBACK",
                                   pullback_offset=params.get("pullback_offset", 5.0),
                                   stop=params.get("stop", 20.0))
        if family == "ASIA_EXPANSION":
            return sig.asia_expansion_signals(day, multiple=params["multiple"])
        if family == "LIQUIDITY_GRAB_FADE":
            return sig.liquidity_grab_signals(day, params.get("lookback"), "FADE")
        if family == "LIQUIDITY_GRAB_CONT":
            return sig.liquidity_grab_signals(day, params.get("lookback"), "CONTINUATION")
        if family == "GAP_FILL_FADE":
            prims = self.prims(day)
            if prims.overnight_gap is None:
                return []
            return sig.gap_signals(day, prims, "FILL_FADE",
                                   entry_time=_parse_clock(params["entry_time"]),
                                   min_gap=params.get("min_gap", 5.0))
        if family == "GAP_CONT_SHORT":
            prims = self.prims(day)
            if prims.overnight_gap is None:
                return []
            v = self.overnight_velocity().get(day.date)
            if v is None:
                return []
            return sig.gap_signals(day, prims, "CONT_SHORT", kalman_v=v,
                                   kalman_threshold=params.get("kalman_threshold", 2.5),
                                   min_gap=params.get("min_gap", 0.0))
        if family == "VOL_SPIKE":
            return sig.volume_signature_signals(day, "SPIKE", state["spike_cutoff"],
                                                state["dryup_cutoff"])
        if family == "VOL_DRYUP":
            return sig.volume_signature_signals(day, "DRYUP", state["spike_cutoff"],
                                                state["dryup_cutoff"])
        if family in ("VVG_REVERSAL", "VVG_CONTINUATION"):
            mode = params.get("mode", "REVERSAL")
            flagged = state["flags"].get(day.date, False)
            return sig.vvg_strategy_signals(day, flagged, mode, self.prims(day))
        if family == "EVENT_DRIFT":
            return sig.event_drift_signals(day, self.bundle.events,
                                           start_bar_offset=params.get("start_bar_offset", 6),
                                           horizon=params.get("horizon", 6))
        if family == "OU_REVERSION":
            return sig.ou_reversion_signals(day, state["fit"], params["threshold"])
        if family == "CONFLUENCE_RTH":
            s = state["series"].get(day.date)
            if s is None:
                return []
            return sig.confluence_rth_signals(
                day, s["labels"], s["trans"], s["vz"], s["atr"], state["atr_baseline"],
                trans_threshold=params.get("trans_threshold", 0.15),
                vz_threshold=params.get("vz_threshold", 0.5),
                pullback_points=params.get("pullback_points", 25.0))
        if family == "LONDON_B":
            s = state["series"].get(day.date)
            if s is None:
                return []
            return sig.london_b_signals(day, s["labels"])
        raise EngineError(f"unknown family {family!r}")

    # -- runners and runs ---------------------------------------------------

    def runner(self, family: str):
        def run(train: Sequence[TradingDay], eval_days: Sequence[TradingDay],
                params: dict, exit_spec: ExitSpec) -> list[TradeRecord]:
            state = self._fit_state(family, train, params)
            # exit-grid candidates share params and fitted state, so the
            # per-day signal pass is identical across them
            skey = (family, self._train_key(train, params))
            trades: list[TradeRecord] = []
            for day in eval_days:
                ckey = (skey, day.date)
                events = self._signals.get(ckey)
                if events is None:
                    events = self.day_signals(family, day, params, state)
                    self._signals[ckey] = events
                if events:
                    res = simulate(events, day, exit_spec,
                                   self.config.friction, self.config.instrument)
                    trades.extend(res.trades)
            return trades
        return run

    def family_grid(self, family: str) -> tuple[tuple[dict, ...], tuple[ExitSpec, ...]]:
        fd = self.families[family]
        overrides = self.config.family_overrides(family)
        grid = tuple({**g, **overrides} for g in fd.grid) if overrides else fd.grid
        return grid, fd.exit_grid

    def run_family(self, family: str, permutation: bool = True) -> tuple[WalkForwardResult, EvalMetrics, Verdict]:
        """Full expanding-window walk-forward, metrics and gate for one family."""
        fd = self.families.get(family)
        if fd is None:
            raise EngineError(f"unknown family {family!r}")
        days = self.complete_days(fd.session)
        if not days:
            raise EngineError(f"no complete {fd.session} days loaded for {family}")
        grid, exit_grid = self.family_grid(family)
        result = walk_forward(days, self.runner(family), grid, exit_grid)

        p: Optional[float] = None
        gate = self.config.gate(family)
        if permutation and gate.permutation_required and result.oos_trades:
            # other criteria are cheap; only pay for the permutation when
            # the rest of the gate could still pass
            pre = validate(summary_metrics(result.oos_trades, permutation_p=0.0), gate)
            if pre.overall:
                test_years = {f.test_year for f in result.plan.folds}
                pool = [d for d in days if d.year in test_years]
                p = permutation_test(result.oos_trades, pool,
                                     result.chosen[-1].exit,
                                     iterations=self.config.permutation_iterations,
                                     seed=self.config.seed,
                                     friction=self.config.friction,
                                     instrument=self.config.instrument)
        metrics = summary_metrics(result.oos_trades, permutation_p=p)
        verdict = validate(metrics, gate)
        return result, metrics, verdict
