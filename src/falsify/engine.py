"""Binds data, features, signal families, execution and validation into runs.

Each family gets a runner whose fitted state (regime labels, decile cutoffs,
tercile boundaries, OU fit) comes from the training days only; rolling
per-bar series are computed over the chronological bar stream and are
strictly backward-looking, so slicing them per day leaks nothing. A family
emits once per (fitted state, params) over its session's store.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, time
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import signals as sig
from .bars import (BarError, EconEvent, SessionStore, TradingDay, parse_bar_file,
                   parse_event_calendar, session_primitives, session_store, ASIA, LONDON, RTH)
from .config import RunConfig
from .execution import ExitKind, ExitSpec, fill_days, simulate
from .features import (gmm_fit, kalman_velocity, markov_transition_prob, ou_fit,
                       regime_features, rolling_stat, true_ranges, volume_zscore)
from .validation import (EvalMetrics, RunnerTrades, Verdict, WalkForwardResult,
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


def _parsed(parse: Callable, path, *args):
    """``parse(path, *args)``, whose errors in the file's text name the file."""
    try:
        return parse(path, *args)
    except (BarError, UnicodeDecodeError) as exc:
        raise BarError(f"{path}: {exc}") from None


def load_bundle(config: RunConfig) -> DataBundle:
    bundle = DataBundle()
    for key, sess in (("rth", RTH), ("asia", ASIA), ("london", LONDON)):
        path = config.data_path(key)
        if path is not None:
            days = _parsed(parse_bar_file, path, sess)
            store = session_store(days)
            off = config.instrument.off_grid(store.ohlc)
            if off.any():  # the kernel would round such a price to the grid
                col = int(off.any(axis=0).argmax())
                i = int(np.searchsorted(store.start, col, side="right")) - 1
                ts, price = days[i].ts[col - store.start[i]], store.ohlc[:, col][off[:, col]][0]
                raise BarError(f"{path}: bar {ts.astype(datetime)}: price {price} is "
                               f"off the {config.instrument.tick_size}-point tick grid")
            setattr(bundle, key, days)
    events_path = config.data_path("events")
    if events_path is not None:
        bundle.events = _parsed(parse_event_calendar, events_path)
    return bundle


@dataclass(frozen=True)
class FamilyDef:
    """One signal family, declared once. ``grid[0]`` names every tunable with its
    default and every other grid point has the same keys. ``emit(engine, store,
    params, state)`` returns the ``signals.Entries`` of every day of the engine's
    store of the family's session, the only store it emits over, in its rule's
    order; the engine puts them in entry order where it emits. The optional
    ``fit(engine, session, n)`` builds the state from the session's first ``n``
    complete days, the window ``Engine._fit_state`` checks, and never reads the
    params. The optional ``check(params)`` raises ``ValueError`` on params the rule
    would reject, so that a bad override fails before any family runs."""
    name: str
    session: str
    grid: tuple[dict, ...]
    exit_grid: tuple[ExitSpec, ...]
    emit: Callable[..., sig.Entries]
    fit: Optional[Callable[..., dict]] = None
    check: Optional[Callable[[dict], Any]] = None


def _h(n: int) -> ExitSpec:
    return ExitSpec(ExitKind.HORIZON, horizon=n)


def _parse_clock(s: str) -> time:
    hh, mm = s.split(":")
    return time(int(hh), int(mm))


def _fit_volume_cutoffs(eng: Engine, session: str, n: int) -> dict:
    ratio = eng.per_session(sig.volume_ratio_series, session)
    lo, hi = sig.volume_ratio_cutoffs([ratio[:eng.store(session).start[n]]])
    return {"dryup_cutoff": lo, "spike_cutoff": hi}


def _fit_vvg_flags(eng: Engine, session: str, n: int) -> dict:
    metrics = eng.memo((sig.vvg_metrics, session), lambda: sig.vvg_metrics(
        eng.per_session(session_primitives, session)))
    return {"flags": sig.vvg_classify(metrics, sig.vvg_boundaries(metrics[:n]))}


def _fit_ou(eng: Engine, session: str, n: int) -> dict:
    store = eng.store(session)
    return {"fit": ou_fit(store.ohlc[3, :store.start[n]])}


def _fit_regime(eng: Engine, session: str, n: int) -> dict:
    # the training features and ATR are a prefix of the session's: both look
    # only backward, so the prefix is bit-exact for a window of leading days
    X, _, atr = eng.per_session(_regime_inputs, session)
    days, end = eng.complete_days(session), eng.store(session).start[n]
    # EM starts from the previous fold's model: the days of the calendar years
    # before the window's last one, fitted once through the same memo, so the
    # chain reads only the window. A window whose earlier years hold under a
    # quarter of its days (none, inside one year) is fitted cold: from so
    # short a start EM can settle in a worse optimum than the cold fit's
    prev = sum(d.year < days[n - 1].year for d in days[:n])
    start = eng.fitted(_fit_regime, session, prev)["model"] if 4 * prev >= n else None
    model = gmm_fit(X[50:end], k=3, seed=eng.config.seed, start=start)
    finite = atr[:end][np.isfinite(atr[:end])]
    labels = model.predict(X)
    return {"labels": labels, "trans": markov_transition_prob(labels, window=200, frm=1, to=2),
            "atr_baseline": float(np.median(finite)) if len(finite) else 1.0, "model": model}


def _regime_inputs(store: SessionStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime features, volume z-score and 20-bar ATR over the session's bar stream."""
    vz = volume_zscore(store.volume, 50)
    return (regime_features(store.ohlc, store.volume, vol_window=50, vz=vz), vz,
            rolling_stat(true_ranges(store.ohlc), 20))


def _check_mode(p: dict, modes: dict) -> None:
    if p["mode"] not in modes:
        raise ValueError(f"mode must be one of {sorted(modes)}, got {p['mode']!r}")


def default_families() -> dict[str, FamilyDef]:
    """Every family's declaration; grids are data, not code. Tunables named
    like the rule's keywords are passed on as ``**p``."""
    prims = lambda e: e.per_session(session_primitives, "rth")
    orb = lambda direction: lambda e, st, p, s: sig.orb_entries(st, prims(e), direction)
    grab = lambda fade: lambda e, st, p, s: sig.liquidity_grab_entries(st, fade=fade, **p)
    vol = lambda spike: lambda e, st, p, s: sig.volume_signature_entries(
        st, spike, s["spike_cutoff" if spike else "dryup_cutoff"],
        ratio=e.per_session(sig.volume_ratio_series, "rth"))
    # the VVG strategies trade only the days the classifier flags
    vvg = lambda rule: lambda e, st, p, s: rule(e, st, p).on_days(st, s["flags"])
    vvg_reversal = {
        "REVERSAL": lambda e, st: sig.vvg_open_entries(st, prims(e), follow=False),
        "CLOSE_FADE": lambda e, st: sig.vvg_close_fade_entries(st)}
    f = [
        FamilyDef("ORB_LONG", "rth", ({},), (_h(1), _h(15)), orb(sig.LONG)),
        FamilyDef("ORB_SHORT", "rth", ({},), (_h(1), _h(15)), orb(sig.SHORT)),
        FamilyDef("ORB_PULLBACK", "rth", ({"pullback_offset": 5.0},),
                  (ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),),
                  lambda e, st, p, s: sig.orb_pullback_entries(st, prims(e), **p)),
        FamilyDef("ASIA_EXPANSION", "asia",
                  tuple({"multiple": m} for m in (1.5, 2.0, 2.5)), (_h(1), _h(6)),
                  lambda e, st, p, s: sig.asia_expansion_entries(
                      st, **p, mean_range=e.per_session(sig.mean_range_series, "asia"))),
        FamilyDef("LIQUIDITY_GRAB_FADE", "asia", ({"lookback": None},), (_h(1), _h(6)),
                  grab(fade=True)),
        FamilyDef("LIQUIDITY_GRAB_CONT", "asia", ({"lookback": None},), (_h(1), _h(6)),
                  grab(fade=False)),
        FamilyDef("GAP_FILL_FADE", "rth",
                  tuple({"entry_time": t, "min_gap": 5.0}
                        for t in ("09:30", "09:45", "10:00")), (_h(78),),
                  lambda e, st, p, s: sig.gap_fill_entries(
                      st, prims(e), _parse_clock(p["entry_time"]), p["min_gap"]),
                  check=lambda p: sig.entry_time_bar(RTH, _parse_clock(p["entry_time"]))),
        FamilyDef("GAP_CONT_SHORT", "rth", ({"kalman_threshold": 2.5, "min_gap": 0.0},),
                  (_h(78),), lambda e, st, p, s: sig.gap_cont_entries(
                      st, prims(e), e.overnight_velocity(), **p)),
        FamilyDef("VOL_SPIKE", "rth", ({},), (_h(1),), vol(spike=True), _fit_volume_cutoffs),
        FamilyDef("VOL_DRYUP", "rth", ({},), (_h(1),), vol(spike=False), _fit_volume_cutoffs),
        FamilyDef("VVG_REVERSAL", "rth", tuple({"mode": m} for m in vvg_reversal),
                  (_h(6), _h(13)), vvg(lambda e, st, p: vvg_reversal[p["mode"]](e, st)),
                  _fit_vvg_flags, lambda p: _check_mode(p, vvg_reversal)),
        FamilyDef("VVG_CONTINUATION", "rth", ({},), (_h(6), _h(13)),
                  vvg(lambda e, st, p: sig.vvg_open_entries(st, prims(e), follow=True)),
                  _fit_vvg_flags),
        FamilyDef("EVENT_DRIFT", "rth", ({"start_bar_offset": 6},), (_h(6),),
                  lambda e, st, p, s: sig.event_drift_entries(st, e.bundle.events, **p),
                  check=lambda p: sig.check_drift_offset(p["start_bar_offset"])),
        FamilyDef("OU_REVERSION", "rth",
                  tuple({"threshold": t} for t in (1.5, 2.0, 2.5)), (_h(1), _h(6)),
                  lambda e, st, p, s: sig.ou_reversion_entries(st, s["fit"], **p), _fit_ou),
        FamilyDef("CONFLUENCE_RTH", "rth",
                  ({"trans_threshold": 0.15, "vz_threshold": 0.5, "pullback_points": 25.0},),
                  (_h(13), ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13, limit_offset=25.0)),
                  lambda e, st, p, s: sig.confluence_rth_entries(
                      st, s["labels"], s["trans"], *e.per_session(_regime_inputs, "rth")[1:],
                      s["atr_baseline"], **p), _fit_regime),
        FamilyDef("LONDON_B", "london", ({},), (_h(4),),
                  lambda e, st, p, s: sig.london_b_entries(st, s["labels"]), _fit_regime),
    ]
    return {d.name: d for d in f}


def _check_override(family: str, key: str, default: Any, value: Any) -> None:
    """An override has its default's type: a number for a number (an integer
    for an integer), a string for a string, and None or an integer >= 1
    where the default is None (a lookback)."""
    if default is None:
        ok, want = value is None or (type(value) is int and value >= 1), "None or an integer >= 1"
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif type(default) is int:
        ok, want = type(value) is int, "an integer"
    else:
        ok, want = type(value) in (int, float), "a number"
    if not ok:
        raise EngineError(f"{family} parameter {key} must be {want}, got {value!r}")


class Engine:
    """Per-run orchestration with memoized fitted state, session series and emissions."""

    def __init__(self, bundle: DataBundle, config: RunConfig):
        self.bundle = bundle
        self.config = config
        self.families = default_families()
        named = [*config.raw["families"], *config.raw["permutation"]["families"]]
        unknown = [n for n in named if n not in self.families]
        if unknown:
            raise EngineError(f"unknown family {unknown[0]!r}")
        for name, overrides in config.raw["families"].items():
            defaults = self.families[name].grid[0]
            undeclared = sorted(set(overrides) - set(defaults))
            if undeclared:
                raise EngineError(f"unknown {name} parameters: {undeclared}")
            for key, value in overrides.items():
                _check_override(name, key, defaults[key], value)
            check = self.families[name].check
            try:
                for params in self.family_grid(name)[0] if check else ():
                    check(params)
            except ValueError as exc:
                raise EngineError(f"{name} parameters {overrides}: {exc}") from None
        self._memo: dict = {}

    # -- shared caches ----------------------------------------------------

    def store(self, session: str) -> SessionStore:
        """The session's complete days, laid end to end once."""
        return self.memo((session_store, session), lambda: session_store(
            [d for d in self.bundle.days(session) if d.complete]))

    def complete_days(self, session: str) -> list[TradingDay]:
        return self.store(session).days

    def per_session(self, fn: Callable[[SessionStore], Any], session: str) -> Any:
        """``fn(store)``, computed once per session and shared by every fold."""
        return self.memo((fn, session), lambda: fn(self.store(session)))

    def memo(self, key: tuple, make: Callable[[], Any]) -> Any:
        """``make()``, computed once per ``key`` for the life of the engine."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def family_def(self, name: str) -> FamilyDef:
        fd = self.families.get(name)
        if fd is None:
            raise EngineError(f"unknown family {name!r}")
        return fd

    def overnight_velocity(self) -> np.ndarray:
        """Kalman velocity entering each RTH open, from the overnight session: one
        float per day of the RTH store, NaN where a day has no source.

        Each day's source is the last complete Asia session dated before it,
        or the prior complete RTH day when no Asia data is loaded, so only
        bars strictly before the day's open are read. One filter pass covers
        every day's source.
        """
        return self.memo(("overnight_velocity",), self._overnight_velocity)

    def _overnight_velocity(self) -> np.ndarray:
        cfg = self.config.raw["kalman"]
        rth, asia = self.store("rth"), self.store("asia")
        src = asia if asia.days else rth  # days are in date order, as ingest guarantees
        dates = lambda store: np.array([d.date for d in store.days], dtype="M8[D]")
        before = np.searchsorted(dates(src), dates(rth)) - 1
        out = np.full(len(rth.days), np.nan)
        if not (before >= 0).any():
            return out
        vel = kalman_velocity(np.stack([src.days[i].ohlc[3] for i in before[before >= 0]]),
                              float(cfg["q"]), float(cfg["r"]))
        v = vel[:, -1]
        if cfg["zscored"]:
            sd = np.std(vel, axis=1)
            v = np.divide(v, sd, out=np.zeros_like(v), where=sd > 0)
        out[before >= 0] = v
        return out

    # -- fitted state per family ------------------------------------------

    def _fit_state(self, family: str, train: Sequence[TradingDay], params: dict) -> dict:
        """Fitted state for ``family`` on ``train``, whatever the ``params``. Every fit reads
        the first ``len(train)`` days of the session's store, so ``train`` must be a
        non-empty leading run of those very day objects."""
        fd = self.family_def(family)
        if self._run_of(fd.session, train) != 0:
            raise EngineError(f"training window must be a non-empty leading run of the "
                              f"complete {fd.session} days")
        return self.fitted(fd.fit, fd.session, len(train))

    def fitted(self, fit: Optional[Callable[..., dict]], session: str, n: int) -> dict:
        """``fit(self, session, n)``, computed once per (fit, session, n): families sharing
        a fit and a session share a fitted state. Without a fit, one empty state."""
        return self.memo((fit, session, n) if fit else (),
                         lambda: fit(self, session, n) if fit else {})

    def emitted(self, family: str, params: dict, state: dict) -> tuple[sig.Entries, list[int]]:
        """``family``'s entries over its session's store under ``state``, computed once per
        (family, params, state) and held in entry order (``Entries.in_entry_order``), with
        each store day's first entry and their count appended."""
        fd = self.family_def(family)
        params = {**fd.grid[0], **params}
        # a family without a fit reads no state. The entry holds its state, so no other
        # live object can take that id while the entry exists
        key = ("emitted", fd.name, repr(sorted(params.items())), id(state) if fd.fit else None)
        if key not in self._memo:
            store = self.store(fd.session)
            e = fd.emit(self, store, params, state).in_entry_order()
            self._memo[key] = (state, e, np.searchsorted(e.col, store.start).tolist())
        return self._memo[key][1:]

    def _run_of(self, session: str, days: Sequence[TradingDay]) -> Optional[int]:
        """The store index of ``days[0]`` if ``days`` is a non-empty run of the session
        store's own day objects, else None."""
        store = self.store(session)
        i = self.memo(("day index", session), lambda: {id(d): i for i, d in enumerate(
            store.days)}).get(id(days[0])) if days else None
        return i if i is not None and list(days) == store.days[i:i + len(days)] else None

    def day_signals(self, family: str, day: TradingDay, params: dict,
                    state: dict) -> list[sig.SignalEvent]:
        """One day's events, named after the family, in entry order (by bar, and on one bar
        LONG before SHORT), sliced from ``emitted``; ``grid[0]`` fills in missing
        ``params``. ``day`` must be one of the session store's own day objects: any other
        day, an incomplete one or an equal copy of a store day, raises ``EngineError``."""
        fd = self.family_def(family)
        i = self._run_of(fd.session, (day,))
        if i is None:
            raise EngineError(f"{day.date} is not a day of the complete {fd.session} days")
        e, first = self.emitted(family, params, state)
        lo, hi, at = first[i], first[i + 1], int(self.store(fd.session).start[i])
        return [sig.SignalEvent(fd.name, day.date, c - at, sig.LONG if s > 0 else sig.SHORT,
                                limit_level=None if lv != lv else lv)  # NaN: no level
                for c, s, lv in zip(*(a[lo:hi].tolist() for a in e))]

    # -- runners and runs ---------------------------------------------------

    def runner(self, family: str):
        """``run(train, eval_days, params, exit)`` for ``walk_forward``: one ``fill_days``
        call on the ``emitted`` entries of the eval days, a run of the store's days, and
        one ``simulate`` call on their ``day_signals`` when records are asked for."""
        fd = self.family_def(family)
        store = self.store(fd.session)

        def run(train: Sequence[TradingDay], eval_days: Sequence[TradingDay],
                params: dict, exit_spec: ExitSpec) -> RunnerTrades:
            state = self._fit_state(family, train, params)
            i = self._run_of(fd.session, eval_days)
            if i is None:  # the slice below would read other days' entries
                raise EngineError(f"eval days must be a run of the complete {fd.session} days")
            e, first = self.emitted(family, params, state)
            lo, hi = first[i], first[i + len(eval_days)]
            ins = self.config.instrument
            f = fill_days(store, e.col[lo:hi], e.sign[lo:hi], exit_spec, ins, e.level[lo:hi])
            return RunnerTrades(f.net_ticks[f.reason >= 0] * ins.tick_size, lambda: list(simulate(
                [ev for d in eval_days for ev in self.day_signals(family, d, params, state)],
                eval_days, exit_spec, ins).trades) if hi > lo else [])
        return run

    def family_grid(self, family: str) -> tuple[tuple[dict, ...], tuple[ExitSpec, ...]]:
        fd = self.family_def(family)
        overrides = self.config.family_overrides(family)
        grid = [{**g, **overrides} for g in fd.grid]
        # an override of a tunable the grid varies makes equal points: keep the first
        return tuple(g for i, g in enumerate(grid) if g not in grid[:i]), fd.exit_grid

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
                                     instrument=self.config.instrument)
        metrics = summary_metrics(result.oos_trades, permutation_p=p)
        verdict = validate(metrics, gate)
        return result, metrics, verdict
