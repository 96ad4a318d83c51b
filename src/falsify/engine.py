"""Binds data, features, signal families, execution and validation into runs.

Each family gets a runner whose fitted state (GMM model, decile cutoffs,
tercile boundaries, OU fit) comes from the training days only; rolling
per-bar series are computed over the chronological bar stream and are
strictly backward-looking, so slicing them per day leaks nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, time
from typing import Callable, Optional, Sequence

import numpy as np

from . import signals as sig
from .bars import (DayPrimitives, EconEvent, TradingDay, day_primitives, parse_bar_file,
                   parse_event_calendar, ASIA, LONDON, RTH)
from .config import RunConfig
from .execution import ExitKind, ExitSpec, TradeRecord, simulate
from .features import (RegimeGMM, RollingSpec, Statistic, gmm_fit, kalman_velocity,
                       markov_transition_prob, ou_fit, regime_features, rolling_stat,
                       volume_zscore)
from .validation import (EvalMetrics, Verdict, WalkForwardResult, permutation_test,
                         summary_metrics, validate, walk_forward)


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
    """One signal family, declared once.

    ``grid[0]`` names every tunable with its default and every other grid
    point has the same keys. ``emit(engine, day, params, state)`` returns
    one day's events; the optional ``fit(engine, session, train)`` builds
    that state from training days only and never reads the params.
    """
    name: str
    session: str
    grid: tuple[dict, ...]
    exit_grid: tuple[ExitSpec, ...]
    emit: Callable[..., list]
    fit: Optional[Callable[..., dict]] = None


def _h(n: int) -> ExitSpec:
    return ExitSpec(ExitKind.HORIZON, horizon=n)


def _parse_clock(s: str) -> time:
    hh, mm = s.split(":")
    return time(int(hh), int(mm))


def _fit_volume_cutoffs(eng: Engine, session: str, train: Sequence[TradingDay]) -> dict:
    lo, hi = sig.volume_ratio_cutoffs(train, window=20)
    return {"dryup_cutoff": lo, "spike_cutoff": hi}


def _fit_vvg_flags(eng: Engine, session: str, train: Sequence[TradingDay]) -> dict:
    days = eng.complete_days(session)
    metrics = sig.vvg_metrics(days, [eng.prims(d) for d in days])
    train_dates = {d.date for d in train}
    rows = metrics[[i for i, d in enumerate(days) if d.date in train_dates]]
    flags = sig.vvg_classify(metrics, sig.vvg_boundaries(rows))
    return {"flags": {d.date: bool(flags[i]) for i, d in enumerate(days)}}


def _fit_ou(eng: Engine, session: str, train: Sequence[TradingDay]) -> dict:
    return {"fit": ou_fit([b.close for d in train for b in d.bars])}


def _fit_regime(eng: Engine, session: str, train: Sequence[TradingDay]) -> dict:
    stream = [b for d in train for b in d.bars]
    X = regime_features(stream, vol_window=50)
    model = gmm_fit(X[50:], k=3, seed=eng.config.seed)
    atr = rolling_stat(stream, RollingSpec(20, Statistic.ATR))
    finite = atr[np.isfinite(atr)]
    return {"atr_baseline": float(np.median(finite)) if len(finite) else 1.0,
            "series": eng._regime_series(session, model)}


def _emit_gap_fill(eng: Engine, day: TradingDay, p: dict, state: dict) -> list:
    prims = eng.prims(day)
    if prims.overnight_gap is None:
        return []
    return sig.gap_signals(day, prims, "FILL_FADE", entry_time=_parse_clock(p["entry_time"]),
                           min_gap=p["min_gap"])


def _emit_gap_cont(eng: Engine, day: TradingDay, p: dict, state: dict) -> list:
    prims = eng.prims(day)
    v = None if prims.overnight_gap is None else eng.overnight_velocity().get(day.date)
    return [] if v is None else sig.gap_signals(day, prims, "CONT_SHORT", kalman_v=v, **p)


def _emit_confluence(eng: Engine, day: TradingDay, p: dict, state: dict) -> list:
    s = state["series"].get(day.date)
    if s is None:
        return []
    return sig.confluence_rth_signals(day, s["labels"], s["trans"], s["vz"], s["atr"],
                                      state["atr_baseline"], **p)


def _emit_london_b(eng: Engine, day: TradingDay, p: dict, state: dict) -> list:
    s = state["series"].get(day.date)
    return [] if s is None else sig.london_b_signals(day, s["labels"])


def default_families() -> dict[str, FamilyDef]:
    """Every family's declaration; grids are data, not code. Tunables named
    like the signal function's keywords are passed on as ``**p``."""
    orb = lambda fam: lambda e, day, p, s: [
        ev for ev in sig.orb_signals(day, e.prims(day), "IMMEDIATE") if ev.family == fam]
    grab = lambda mode: lambda e, day, p, s: sig.liquidity_grab_signals(day, mode=mode, **p)
    vol = lambda kind: lambda e, day, p, s: sig.volume_signature_signals(
        day, kind, s["spike_cutoff"], s["dryup_cutoff"])
    vvg = lambda e, day, p, s: sig.vvg_strategy_signals(
        day, s["flags"].get(day.date, False), p["mode"], e.prims(day))
    f = [
        FamilyDef("ORB_LONG", "rth", ({},), (_h(1), _h(15)), orb("ORB_LONG")),
        FamilyDef("ORB_SHORT", "rth", ({},), (_h(1), _h(15)), orb("ORB_SHORT")),
        FamilyDef("ORB_PULLBACK", "rth", ({"pullback_offset": 5.0, "stop": 20.0},),
                  (ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),),
                  lambda e, day, p, s: sig.orb_signals(day, e.prims(day), "PULLBACK", **p)),
        FamilyDef("ASIA_EXPANSION", "asia",
                  tuple({"multiple": m} for m in (1.5, 2.0, 2.5)), (_h(1), _h(6)),
                  lambda e, day, p, s: sig.asia_expansion_signals(day, **p)),
        FamilyDef("LIQUIDITY_GRAB_FADE", "asia", ({"lookback": None},), (_h(1), _h(6)),
                  grab("FADE")),
        FamilyDef("LIQUIDITY_GRAB_CONT", "asia", ({"lookback": None},), (_h(1), _h(6)),
                  grab("CONTINUATION")),
        FamilyDef("GAP_FILL_FADE", "rth",
                  tuple({"entry_time": t, "min_gap": 5.0}
                        for t in ("09:30", "09:45", "10:00")), (_h(78),), _emit_gap_fill),
        FamilyDef("GAP_CONT_SHORT", "rth", ({"kalman_threshold": 2.5, "min_gap": 0.0},),
                  (_h(78),), _emit_gap_cont),
        FamilyDef("VOL_SPIKE", "rth", ({},), (_h(1),), vol("SPIKE"), _fit_volume_cutoffs),
        FamilyDef("VOL_DRYUP", "rth", ({},), (_h(1),), vol("DRYUP"), _fit_volume_cutoffs),
        FamilyDef("VVG_REVERSAL", "rth", ({"mode": "REVERSAL"}, {"mode": "CLOSE_FADE"}),
                  (_h(6), _h(13)), vvg, _fit_vvg_flags),
        FamilyDef("VVG_CONTINUATION", "rth", ({"mode": "CONTINUATION"},), (_h(6), _h(13)),
                  vvg, _fit_vvg_flags),
        FamilyDef("EVENT_DRIFT", "rth", ({"start_bar_offset": 6, "horizon": 6},), (_h(6),),
                  lambda e, day, p, s: sig.event_drift_signals(day, e.bundle.events, **p)),
        FamilyDef("OU_REVERSION", "rth",
                  tuple({"threshold": t} for t in (1.5, 2.0, 2.5)), (_h(1), _h(6)),
                  lambda e, day, p, s: sig.ou_reversion_signals(day, s["fit"], **p), _fit_ou),
        FamilyDef("CONFLUENCE_RTH", "rth",
                  ({"trans_threshold": 0.15, "vz_threshold": 0.5, "pullback_points": 25.0},),
                  (_h(13), ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13, limit_offset=25.0)),
                  _emit_confluence, _fit_regime),
        FamilyDef("LONDON_B", "london", ({},), (_h(4),), _emit_london_b, _fit_regime),
    ]
    return {d.name: d for d in f}


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
        for name, overrides in config.raw["families"].items():
            undeclared = sorted(set(overrides) - set(self.families[name].grid[0]))
            if undeclared:
                raise EngineError(f"unknown {name} parameters: {undeclared}")
        self._prims: dict[tuple[str, date], DayPrimitives] = {}
        self._state: dict = {}
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

    def family_def(self, name: str) -> FamilyDef:
        fd = self.families.get(name)
        if fd is None:
            raise EngineError(f"unknown family {name!r}")
        return fd

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

    def _regime_series(self, session: str, model: RegimeGMM) -> dict[date, dict]:
        """Per-day slices of labels / transition prob / volume z / ATR.

        Computed over the full chronological stream; every component is
        strictly backward-looking.
        """
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
        return out

    # -- fitted state per family ------------------------------------------

    def _fit_state(self, family: str, train: Sequence[TradingDay], params: dict) -> dict:
        """Fitted state for ``family`` on ``train``; families sharing a fit
        and a session share one state per training window."""
        fd = self.family_def(family)
        if fd.fit is None:
            return {}
        key = (fd.fit, fd.session, train[0].date, train[-1].date, len(train))
        if key not in self._state:
            self._state[key] = fd.fit(self, fd.session, train)
        return self._state[key]

    def day_signals(self, family: str, day: TradingDay, params: dict,
                    state: dict) -> list[sig.SignalEvent]:
        """One day's events; ``params`` may be partial, ``grid[0]`` fills the rest."""
        fd = self.family_def(family)
        return fd.emit(self, day, {**fd.grid[0], **params}, state)

    # -- runners and runs ---------------------------------------------------

    def runner(self, family: str):
        def run(train: Sequence[TradingDay], eval_days: Sequence[TradingDay],
                params: dict, exit_spec: ExitSpec) -> list[TradeRecord]:
            state = self._fit_state(family, train, params)
            # exit-grid candidates share params and fitted state, so the
            # per-day signal pass is identical across them
            skey = (family, train[0].date, train[-1].date, len(train),
                    tuple(sorted((k, str(v)) for k, v in params.items())))
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
        fd = self.family_def(family)
        overrides = self.config.family_overrides(family)
        grid = tuple({**g, **overrides} for g in fd.grid) if overrides else fd.grid
        return grid, fd.exit_grid

    def run_family(self, family: str, permutation: bool = True) -> tuple[WalkForwardResult, EvalMetrics, Verdict]:
        """Full expanding-window walk-forward, metrics and gate for one family."""
        fd = self.family_def(family)
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
