"""Synthetic OHLCV generators with known null / edge / regime properties.

Days are generated from per-day derived RNG streams so generation order
never changes the output. Intrabar extremes come from 5 latent sub-steps
per bar so stop-touch logic is exercised. All prices land on the tick
grid by construction. Each day is built complete on its session grid,
never regrouped from a flat bar list; ``bars.link_rth`` sets RTH links.
``plant_drift`` works on whole-day arrays and ``gen_regime_days`` bisects
the uniform ``Generator.choice`` would draw, so both keep the corpora of
the per-bar loops they replaced byte for byte.
"""
from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta
from typing import Callable, Optional, Sequence

import numpy as np

from .bars import SessionSpec, TradingDay, RTH, link_rth
from .signals import LONG, SHORT, SignalEvent

logger = logging.getLogger(__name__)

SUBSTEPS = 5


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class DriftSpec:
    magnitude: float
    horizon: int
    events_per_day: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.magnitude):
            raise SynthError(f"drift magnitude must be finite, got {self.magnitude}")
        for name, n in (("horizon", self.horizon), ("events_per_day", self.events_per_day)):
            if n < 1:
                raise SynthError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class RegimeSpec:
    """Hidden-state chain parameters; one entry per regime."""

    transition: tuple[tuple[float, ...], ...]
    means: tuple[float, ...]          # per-bar drift, points
    vols: tuple[float, ...]           # per-bar std, points
    volume_mults: tuple[float, ...]   # multiplier on base volume

    def __post_init__(self) -> None:
        k = len(self.means)
        if k == 0:
            raise SynthError("at least one regime required")
        if len(self.vols) != k or len(self.volume_mults) != k:
            raise SynthError(f"vols and volume_mults need one entry per regime ({k})")
        if len(self.transition) != k or any(len(row) != k for row in self.transition):
            raise SynthError(f"transition matrix must be {k}x{k}")
        probs = [x for row in self.transition for x in row]
        if not all(math.isfinite(x) for x in (*probs, *self.means, *self.vols,
                                               *self.volume_mults)):
            raise SynthError("regime parameters must be finite")
        if min(*probs, *self.vols, *self.volume_mults) < 0:
            raise SynthError("transition probabilities, vols and volume_mults must be >= 0")
        for row in self.transition:
            if abs(sum(row) - 1.0) > 1e-9:
                raise SynthError("transition matrix rows must sum to 1")


@dataclass(frozen=True)
class SynthSpec:
    n_days: int
    session: SessionSpec = RTH
    # per-bar std, points, of gen_null_days; gen_regime_days ignores it and
    # takes each bar's step size from RegimeSpec.vols
    vol_per_bar: float = 10.0
    seed: int = 0
    start_date: date = date(2022, 1, 3)
    base_price: float = 15000.0
    tick_size: float = 0.25
    volume_base: float = 1000.0
    volume_sigma: float = 0.5
    gap_sigma: float = 0.0  # overnight move std, points; applied before every day but the first
    drift: Optional[DriftSpec] = None
    regimes: Optional[RegimeSpec] = None

    def __post_init__(self) -> None:
        if self.n_days < 0:
            raise SynthError(f"n_days must be >= 0, got {self.n_days}")
        if not (self.vol_per_bar > 0 and math.isfinite(self.vol_per_bar)):
            raise SynthError(f"vol_per_bar must be positive and finite, got {self.vol_per_bar}")


def _weekdays(start: date, n: int) -> list[date]:
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def _quantize(x: np.ndarray, tick: float) -> np.ndarray:
    return np.round(x / tick) * tick


def _day_bars(session: SessionSpec, day: date, open_price: float, steps: np.ndarray,
              volumes: np.ndarray, tick: float) -> tuple[TradingDay, float]:
    """Build one complete day from per-substep increments; returns (day, close)."""
    nbars = session.nominal_bar_count
    levels = open_price + np.cumsum(steps.reshape(-1))
    levels = _quantize(levels, tick).reshape(nbars, SUBSTEPS)
    first_open = round(open_price / tick) * tick
    opens = np.concatenate(([first_open], levels[:-1, -1]))
    closes = levels[:, -1]
    highs = np.maximum(opens, levels.max(axis=1))
    lows = np.minimum(opens, levels.min(axis=1))
    ts = (np.datetime64(datetime.combine(day, session.start), "us")
          + np.arange(nbars) * np.timedelta64(session.bar_minutes, "m"))
    return (TradingDay(day, session, ts, np.array([opens, highs, lows, closes]),
                       volumes.astype(np.int64), complete=True), float(closes[-1]))


def _volumes(rng: np.random.Generator, n: int, base: float, sigma: float,
             mults: Optional[np.ndarray] = None) -> np.ndarray:
    v = base * rng.lognormal(0.0, sigma, size=n)
    if mults is not None:
        v = v * mults
    return np.maximum(np.round(v), 1.0)


def _gen_days(spec: SynthSpec, draw: Callable[[np.random.Generator, int], tuple]
              ) -> tuple[list[TradingDay], list]:
    """Complete days on the session grid, one per weekday, each from its own
    stream: the overnight gap, then ``draw(rng, nbars)`` -> (substep
    increments, volume multipliers or None, labels), then volumes.
    Returns (days, per-day labels)."""
    sess = spec.session
    nbars = sess.nominal_bar_count
    days: list[TradingDay] = []
    labels = []
    price = spec.base_price
    for di, d in enumerate(_weekdays(spec.start_date, spec.n_days)):
        rng = np.random.default_rng([spec.seed, di])
        if spec.gap_sigma > 0 and di > 0:
            price += rng.normal(0.0, spec.gap_sigma)
        steps, mults, day_labels = draw(rng, nbars)
        vols = _volumes(rng, nbars, spec.volume_base, spec.volume_sigma, mults)
        day, price = _day_bars(sess, d, price, steps, vols, spec.tick_size)
        days.append(day)
        labels.append(day_labels)
    return link_rth(days), labels


def gen_null_days(spec: SynthSpec) -> list[TradingDay]:
    """Driftless additive random-walk days, deterministic per seed."""
    if spec.drift is not None or spec.regimes is not None:
        raise SynthError("null generator takes a spec without drift or regimes")
    step_sigma = spec.vol_per_bar / math.sqrt(SUBSTEPS)
    return _gen_days(spec, lambda rng, nbars: (
        rng.normal(0.0, step_sigma, size=(nbars, SUBSTEPS)), None, None))[0]


def plant_drift(days: Sequence[TradingDay], events: Sequence[SignalEvent],
                magnitude: float, horizon: int,
                tick_size: float = 0.25) -> list[TradingDay]:
    """Overlay per-event drift so the ``horizon`` bars after each event bar
    carry total expected move ``magnitude`` in the event direction.

    Offsets persist to the end of the day (no artificial snap-back), and
    the open of the bar after the event bar is untouched, so next-bar-open
    entries capture exactly the planted move.
    """
    if horizon < 1:
        raise SynthError(f"horizon must be >= 1, got {horizon}")
    by_day: dict[date, list[SignalEvent]] = {}
    for ev in events:
        by_day.setdefault(ev.day, []).append(ev)
    unknown = sorted(by_day.keys() - {day.date for day in days})
    if unknown:
        raise SynthError(f"event day {unknown[0]} matches none of the given days")

    # Python's round() returns an int, which has no negative zero; + 0.0
    # turns np.round's -0.0 into 0.0 to match
    q = lambda x: _quantize(x, tick_size) + 0.0
    step_base = magnitude / horizon
    out: list[TradingDay] = []
    for day in days:
        evs = by_day.get(day.date)
        if not evs:
            out.append(day)
            continue
        n = len(day.ts)
        off = np.zeros((2, n))  # open and close offsets, summed in event order
        for ev in evs:
            p = ev.bar_index
            if not 0 <= p < n:
                raise SynthError(f"event bar {p} outside {day.date}'s {n} bars")
            sign = 1.0 if ev.direction == LONG else -1.0
            j = np.arange(1, min(horizon, n - 1 - p) + 1)
            off[:, p + 1:p + 1 + len(j)] += sign * step_base * np.array([j - 1, j])
            off[:, p + horizon + 1:] += sign * magnitude
        px = day.ohlc
        o, c = px[0] + off[0], px[3] + off[1]
        hi = np.maximum(np.maximum(px[1] + off.max(axis=0), o), c)
        lo = np.minimum(np.minimum(px[2] + off.min(axis=0), o), c)
        o, c = q(o), q(c)
        hi = np.maximum(np.maximum(q(hi), o), c)
        lo = np.minimum(np.minimum(q(lo), o), c)
        out.append(replace(day, ohlc=np.array([o, hi, lo, c])))
    return link_rth(out)


def gen_edge_days(spec: SynthSpec) -> tuple[list[TradingDay], list[SignalEvent]]:
    """Null days plus randomly placed planted drift events (ground truth returned)."""
    if spec.drift is None:
        raise SynthError("edge generator requires a drift spec")
    drift = spec.drift
    nbars = spec.session.nominal_bar_count
    # signal bars are drawn from 6 to nbars - 2, and a planting needs horizon bars after one
    if drift.horizon > nbars - 7:
        raise SynthError(f"drift horizon {drift.horizon} leaves no signal bar to plant in a "
                         f"{nbars}-bar {spec.session.name} session (at most {nbars - 7})")
    days = gen_null_days(replace(spec, drift=None))

    events: list[SignalEvent] = []
    skipped = 0
    for di, day in enumerate(days):
        rng = np.random.default_rng([spec.seed, di, 1])
        for slot in range(drift.events_per_day):
            bi = int(rng.integers(6, nbars - 1))
            if bi + drift.horizon > nbars - 1:
                skipped += 1
                continue
            direction = LONG if rng.integers(0, 2) == 1 else SHORT
            events.append(SignalEvent("PLANTED", day.date, bi, direction))
    if skipped:
        logger.warning("skipped %d plantings with insufficient session remainder", skipped)
    days = plant_drift(days, events, drift.magnitude, drift.horizon, spec.tick_size)
    return days, events


def gen_regime_days(spec: SynthSpec) -> tuple[list[TradingDay], list[np.ndarray]]:
    """Hidden-regime days; returns (days, per-day true label arrays)."""
    if spec.regimes is None or spec.drift is not None:
        raise SynthError("regime generator takes a regime spec without drift")
    reg = spec.regimes
    k = len(reg.means)
    # what Generator.choice(k, p=row) bisects its one random() draw against
    cdfs = [(c / c[-1]).tolist() for c in np.cumsum(reg.transition, axis=1)]
    mus = [m / SUBSTEPS for m in reg.means]
    sds = [v / math.sqrt(SUBSTEPS) for v in reg.vols]
    volume_mults = np.array(reg.volume_mults, dtype=float)

    def draw(rng: np.random.Generator, nbars: int):
        state = int(rng.integers(0, k))
        day_labels = np.empty(nbars, dtype=int)
        steps = np.empty((nbars, SUBSTEPS))
        for i in range(nbars):
            day_labels[i] = state
            steps[i] = rng.normal(mus[state], sds[state], size=SUBSTEPS)
            state = bisect.bisect_right(cdfs[state], rng.random())
        return steps, volume_mults[day_labels], day_labels

    return _gen_days(spec, draw)


def gen_event_calendar(days: Sequence[TradingDay], seed: int = 0,
                       rate: float = 0.15) -> list["EconEvent"]:
    """Random high-impact USD events (14:00 ET FOMC-style) on ~rate of days."""
    from .bars import EconEvent, EventKind

    rng = np.random.default_rng([seed, 7])
    events = []
    for day in days:
        if rng.random() < rate:
            ts = datetime.combine(day.date, datetime.min.time()).replace(hour=14)
            events.append(EconEvent(ts, EventKind.FOMC, "HIGH", "USD"))
    return events

