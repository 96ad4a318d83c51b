"""Synthetic OHLCV generators with known null / edge / regime properties.

Each day draws from its own derived RNG stream, so generation order never
changes the output. The streams are drawn day by day, in each day's order
(gap, steps, volumes); everything else is built in array passes over
``_CHUNK_DAYS`` days at a time: cumulative sums, tick quantization, OHLC,
volumes and timestamps. Only the open recurrence (prior close plus gap)
loops over days. Intrabar extremes come from 5 latent sub-steps per bar so
stop-touch logic is exercised, and all prices land on the tick grid by
construction. Each day is built complete on its session grid, RTH days
already linked to the prior close as ``bars.link_rth`` links them.
``plant_drift`` adds every day's k-th event in one pass, so each bar's
offsets are summed in event order, and ``gen_regime_days`` bisects the
uniform ``Generator.choice`` would draw; both keep the corpora of the
per-bar loops they replaced byte for byte.
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
_CHUNK_DAYS = 64  # days drawn and built per pass, which bounds the temporaries


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
        if not (self.tick_size > 0 and math.isfinite(self.tick_size)):
            raise SynthError(f"tick_size must be positive and finite, got {self.tick_size}")
        for name in ("base_price", "gap_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise SynthError(f"{name} must be finite, got {getattr(self, name)}")


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


def _gen_days(spec: SynthSpec, draw: Callable[[np.random.Generator, np.ndarray], object],
              scale: Callable[[np.ndarray, np.ndarray, list], None]
              ) -> tuple[list[TradingDay], list]:
    """Complete days on the session grid, one per weekday, ``_CHUNK_DAYS`` at
    a time. Each day's own stream is drawn day by day: the overnight gap,
    then ``draw(rng, z)``, which fills ``z`` (bars x SUBSTEPS) with the
    day's standard normals and returns its labels, then its lognormal volume
    factors. ``scale(z, volume, labels)`` turns a chunk's normals into
    substep increments and multiplies its volumes, in place. The bars are
    built in array passes over the chunk; only the open (the prior day's
    close plus its gap) is carried from day to day. RTH days come linked to
    the prior day's close as ``link_rth`` links them. Returns (days, per-day
    labels)."""
    sess, tick, n = spec.session, spec.tick_size, spec.n_days
    nbars = sess.nominal_bar_count
    dates = _weekdays(spec.start_date, n)
    bar_open = (np.timedelta64(datetime.combine(date.min, sess.start) - datetime.min, "us")
                + np.arange(nbars) * np.timedelta64(sess.bar_minutes, "m"))
    days: list[TradingDay] = []
    labels: list = []
    price = spec.base_price
    for first in range(0, n, _CHUNK_DAYS):
        chunk = dates[first:first + _CHUNK_DAYS]
        m = len(chunk)
        gaps, z, volume = np.zeros(m), np.empty((m, nbars, SUBSTEPS)), np.empty((m, nbars))
        for k in range(m):
            rng = np.random.default_rng([spec.seed, first + k])
            if spec.gap_sigma > 0 and first + k > 0:
                gaps[k] = rng.normal(0.0, spec.gap_sigma)
            labels.append(draw(rng, z[k]))
            volume[k] = rng.lognormal(0.0, spec.volume_sigma, size=nbars)
        volume *= spec.volume_base
        scale(z, volume, labels[first:])

        levels = z.reshape(m, nbars * SUBSTEPS)
        np.cumsum(levels, axis=1, out=levels)
        last, gap, opens = levels[:, -1].tolist(), gaps.tolist(), []
        for k in range(m):
            if spec.gap_sigma > 0 and first + k > 0:
                price += gap[k]
            opens.append(price)
            price = float(np.rint((price + last[k]) / tick)) * tick  # the day's last close
        opens = np.array(opens, dtype=float)
        levels += opens[:, None]
        levels /= tick  # _quantize, in place
        np.round(levels, out=levels)
        levels *= tick
        levels = levels.reshape(m, nbars, SUBSTEPS)
        ohlc = np.empty((m, 4, nbars))
        ohlc[:, 0, 0] = _quantize(opens, tick) + 0.0  # a first open is never -0.0
        ohlc[:, 0, 1:] = levels[:, :-1, -1]
        np.maximum(ohlc[:, 0], levels.max(axis=2), out=ohlc[:, 1])
        np.minimum(ohlc[:, 0], levels.min(axis=2), out=ohlc[:, 2])
        ohlc[:, 3] = levels[:, :, -1]
        np.maximum(np.round(volume, out=volume), 1.0, out=volume)
        ts = np.array(chunk, dtype="M8[D]")[:, None] + bar_open
        prior = ([days[-1].ohlc[3, -1] if days else None, *ohlc[:-1, 3, -1]]
                 if sess.name == "RTH" else [None] * m)
        days += [TradingDay(d, sess, t, p, v, c, complete=True) for d, t, p, v, c
                 in zip(chunk, ts, ohlc, volume.astype(np.int64), prior)]
    return days, labels


def gen_null_days(spec: SynthSpec) -> list[TradingDay]:
    """Driftless additive random-walk days, deterministic per seed."""
    if spec.drift is not None or spec.regimes is not None:
        raise SynthError("null generator takes a spec without drift or regimes")
    sd = spec.vol_per_bar / math.sqrt(SUBSTEPS)

    def draw(rng: np.random.Generator, z: np.ndarray) -> None:
        rng.standard_normal(out=z)

    def scale(z: np.ndarray, volume: np.ndarray, labels: list) -> None:
        z *= sd  # 0.0 + sd * z, as Generator.normal(0.0, sd) computes each step
        z += 0.0

    return _gen_days(spec, draw, scale)[0]


def plant_drift(days: Sequence[TradingDay], events: Sequence[SignalEvent],
                magnitude: float, horizon: int,
                tick_size: float = 0.25) -> list[TradingDay]:
    """Overlay per-event drift so the ``horizon`` bars after each event bar
    carry total expected move ``magnitude`` in the event direction.

    Offsets persist to the end of the day (no artificial snap-back), and
    the open of the bar after the event bar is untouched, so next-bar-open
    entries capture exactly the planted move. The planted days are laid out
    as one array, padded to the longest, and each pass adds every day's k-th
    event, so a bar's offsets are summed in event order. Only the planted
    days are replaced.
    """
    if horizon < 1:
        raise SynthError(f"horizon must be >= 1, got {horizon}")
    by_day: dict[date, list[SignalEvent]] = {}
    for ev in events:
        by_day.setdefault(ev.day, []).append(ev)
    unknown = sorted(by_day.keys() - {day.date for day in days})
    if unknown:
        raise SynthError(f"event day {unknown[0]} matches none of the given days")
    planted = [i for i, day in enumerate(days) if day.date in by_day]
    if not planted:
        return link_rth(days)
    evs = [by_day[days[i].date] for i in planted]
    sizes = [len(days[i].ts) for i in planted]
    for i, day_evs, n in zip(planted, evs, sizes):
        for ev in day_evs:
            if not 0 <= ev.bar_index < n:
                raise SynthError(f"event bar {ev.bar_index} outside {days[i].date}'s {n} bars")

    px = np.zeros((len(planted), 4, max(sizes)))
    for k, (i, n) in enumerate(zip(planted, sizes)):
        px[k, :, :n] = days[i].ohlc
    counts = [len(e) for e in evs]
    row = np.repeat(np.arange(len(evs)), counts)
    rank = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    bar = np.array([ev.bar_index for e in evs for ev in e])
    sign = np.array([1.0 if ev.direction == LONG else -1.0 for e in evs for ev in e])
    off = np.zeros((2, *px[:, 0].shape))  # open and close offsets, summed in event order
    after = np.arange(px.shape[2])
    for r in range(max(counts)):
        at = rank == r
        j = after - bar[at, None]  # bars after the event bar
        ramp = (j >= 1) & (j <= horizon)
        tail = np.where(j > horizon, sign[at, None] * magnitude, 0.0)
        step = (sign[at] * (magnitude / horizon))[:, None]
        off[0, row[at]] += np.where(ramp, step * (j - 1), tail)
        off[1, row[at]] += np.where(ramp, step * j, tail)

    # Python's round() returns an int, which has no negative zero; + 0.0
    # turns np.round's -0.0 into 0.0 to match
    q = lambda x: _quantize(x, tick_size) + 0.0
    o, c = px[:, 0] + off[0], px[:, 3] + off[1]
    hi = np.maximum(np.maximum(px[:, 1] + off.max(axis=0), o), c)
    lo = np.minimum(np.minimum(px[:, 2] + off.min(axis=0), o), c)
    o, c = q(o), q(c)
    hi = np.maximum(np.maximum(q(hi), o), c)
    lo = np.minimum(np.minimum(q(lo), o), c)
    ohlc = np.stack([o, hi, lo, c], axis=1)
    out = list(days)
    for k, (i, n) in enumerate(zip(planted, sizes)):
        out[i] = replace(days[i], ohlc=ohlc[k, :, :n])
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
    mus = np.array([m / SUBSTEPS for m in reg.means])
    sds = np.array([v / math.sqrt(SUBSTEPS) for v in reg.vols])
    volume_mults = np.array(reg.volume_mults, dtype=float)

    def draw(rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
        state = int(rng.integers(0, k))
        day_labels = []
        for row in z:
            day_labels.append(state)
            rng.standard_normal(out=row)
            state = bisect.bisect_right(cdfs[state], rng.random())
        return np.array(day_labels, dtype=int)

    def scale(z: np.ndarray, volume: np.ndarray, labels: list) -> None:
        at = np.array(labels)
        z *= sds[at][..., None]  # mu + sd * z, as Generator.normal(mu, sd) computes each step
        z += mus[at][..., None]
        volume *= volume_mults[at]

    return _gen_days(spec, draw, scale)


def gen_event_calendar(days: Sequence[TradingDay], seed: int = 0,
                       rate: float = 0.15) -> list["EconEvent"]:
    """Random high-impact USD events (14:00 ET FOMC-style) on ~rate of days."""
    from .bars import EconEvent, EventKind

    draws = np.random.default_rng([seed, 7]).random(len(days)).tolist()
    events = []
    for day, u in zip(days, draws):
        if u < rate:
            ts = datetime.combine(day.date, datetime.min.time()).replace(hour=14)
            events.append(EconEvent(ts, EventKind.FOMC, "HIGH", "USD"))
    return events

