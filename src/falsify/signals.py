"""Signal family rules: each a pure function of a store of completed days (plus
any state fitted on strictly earlier data) that returns the ``Entries`` of all
its days at once, with windows, extremes and "not the last bar" taken within
each day. A rule's one-day case (``orb_signals`` of ``orb_entries``, ...)
returns ``(bar_index, direction[, limit level])`` tuples in the rule's own
order. An entry needs a next bar to enter on, so bar_index is at most
len(bars) - 2.
"""
from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass
from datetime import date, time, datetime
from itertools import compress
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bars import (DayPrimitives, EconEvent, SessionSpec, SessionStore, TradingDay,
                   session_store)
from .features import OuFit, ou_zscore, rolling_stat

LONG = "LONG"
SHORT = "SHORT"

GRAB_MIN_HISTORY = 6          # bars before a running-extreme pierce counts
VVG_BASELINE_DAYS = 20        # prior days in the first-bar volume baseline
VVG_ENTRY_BAR = 6             # first bar after the 30-minute opening window
OU_REARM_LEVEL = 0.5          # |z| below which a fired side arms again


class SignalError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SignalEvent:
    """Enter ``direction`` at the open of the bar after ``bar_index``; a
    pullback-limit entry rests its order at ``limit_level`` if one is set."""

    family: str
    day: date
    bar_index: int
    direction: str
    _: KW_ONLY
    limit_level: Optional[float] = None


class Entries(NamedTuple):
    """A rule's entries over a store: per entry its signal bar's column, its sign (+1 long,
    -1 short) and its limit level (NaN: none); by day, and in a day as the rule emits them."""
    col: np.ndarray
    sign: np.ndarray
    level: np.ndarray

    def on_days(self, store: SessionStore, keep) -> Entries:
        """The entries on the days of ``store`` that ``keep``, one flag a day, sets."""
        day = np.searchsorted(store.start, self.col, side="right") - 1
        return Entries(*(a[np.asarray(keep, dtype=bool)[day]] for a in self))

    def in_entry_order(self) -> Entries:
        """The entries by column and, on one bar, LONG before SHORT: the order ``simulate``
        fills in. Entries equal in both keep the rule's order."""
        return Entries(*(a[np.lexsort((-self.sign, self.col))] for a in self))


NO_ENTRIES = Entries(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))


def _entries(hit: np.ndarray, sign, level) -> Entries:
    """The set bars of ``hit`` (days x bars) but each day's last, with ``sign`` and ``level``."""
    days, bars = (hit & (np.arange(hit.shape[1]) < hit.shape[1] - 1)).nonzero()
    at = lambda x: np.broadcast_to(x, hit.shape)[days, bars]
    return Entries(days * hit.shape[1] + bars, at(sign), at(np.asarray(level, dtype=float)))


def _merge(*parts: Entries) -> Entries:
    """Several rules' entries over one store, by column; on one bar, in the order given."""
    e = Entries(*map(np.concatenate, zip(*parts)))
    return Entries(*(a[np.argsort(e.col, kind="stable")] for a in e))


def _one_day(rule: Callable[..., Entries]) -> Callable[..., list[tuple]]:
    """``rule`` on one day in place of a store, as ``(bar_index, direction[, level])``."""
    @functools.wraps(rule)
    def on(day: TradingDay, *args, **kwargs) -> list[tuple]:
        e = rule(session_store([day]), *args, **kwargs)
        return [(i, LONG if s > 0 else SHORT, *(() if lv != lv else (lv,)))  # NaN: no level
                for i, s, lv in zip(*(a.tolist() for a in e))]
    return on


def _per_day(x) -> np.ndarray:
    """A value per day, or one day's value, as a column against days x bars; None is NaN."""
    return np.asarray(x, dtype=float).reshape(-1, 1)


def _at(bar: int, store: SessionStore) -> np.ndarray:
    """Days x bars of ``store``, set at ``bar`` on every day."""
    return np.arange(store.by_day(store.volume).shape[1]) == bar


def _first(mask: np.ndarray) -> np.ndarray:
    """Each day's first set bar of ``mask`` (days x bars)."""
    return mask & (np.cumsum(mask, axis=1) == 1)


def _breakouts(store: SessionStore, prims: DayPrimitives) -> tuple[np.ndarray, np.ndarray]:
    """Per day, the first bar *closing* above and the first closing below the range of bars 0..5."""
    closes = store.by_day(store.ohlc[3])
    late = np.arange(closes.shape[1]) >= 6
    return (_first(late & (closes > _per_day(prims.opening_range_high))),
            _first(late & (closes < _per_day(prims.opening_range_low))))


def orb_entries(store: SessionStore, prims: DayPrimitives, direction: str) -> Entries:
    """Opening range breakout on the ``direction`` side, entered at once; at most one a day."""
    up, down = _breakouts(store, prims)
    return _entries(up if direction == LONG else down, 1 if direction == LONG else -1, np.nan)


def orb_pullback_entries(store: SessionStore, prims: DayPrimitives,
                         pullback_offset: float) -> Entries:
    """After a breakout, the first bar back within ``pullback_offset`` of the broken
    level; at most one long and one short a day."""
    _, highs, lows, _ = store.by_day(store.ohlc)
    after = lambda brk: np.cumsum(brk, axis=1) - brk > 0
    up, down = _breakouts(store, prims)
    longs = after(up) & (lows <= _per_day(prims.opening_range_high) + pullback_offset)
    shorts = after(down) & (highs >= _per_day(prims.opening_range_low) - pullback_offset)
    return _merge(_entries(_first(longs), 1, np.nan), _entries(_first(shorts), -1, np.nan))


def mean_range_series(days: TradingDay | SessionStore, window: int = 20) -> np.ndarray:
    """Per-bar rolling mean bar range over the prior window of the bar's own day; NaN
    on warm-up. ``days`` is one day or a store of days that hold as many bars."""
    store = days if isinstance(days, SessionStore) else session_store([days])
    return rolling_stat(store.by_day(store.ohlc[1] - store.ohlc[2]), window).ravel()


def _with_body(store: SessionStore, hit: np.ndarray, with_bar: bool) -> Entries:
    """Entries at ``hit`` bars with a body: in its direction if ``with_bar``, else against it."""
    o, _, _, c = store.by_day(store.ohlc)
    body = c - o
    return _entries(hit & (body != 0), np.where((body > 0) == with_bar, 1, -1), np.nan)


def asia_expansion_entries(store: SessionStore, multiple: float,
                           mean_range: np.ndarray) -> Entries:
    """Expansion bar: range above a multiple of the rolling mean range
    (``mean_range_series``), in the bar's direction; dojis emit nothing."""
    mr = store.by_day(np.asarray(mean_range, dtype=float))
    _, h, lo, _ = store.by_day(store.ohlc)
    with np.errstate(invalid="ignore"):  # 0 * inf; such bars are skipped as non-finite
        hit = np.isfinite(mr) & (mr > 0) & (h - lo > multiple * mr)
    return _with_body(store, hit, True)


def liquidity_grab_entries(store: SessionStore, lookback: Optional[int],
                           fade: bool = True) -> Entries:
    """Pierce of a recent extreme with a close back inside the range, faded (or,
    unless ``fade``, followed); a bar that pierces both enters on the high first.
    ``lookback=None`` takes the running extreme of all the day's prior bars, after
    ``GRAB_MIN_HISTORY`` bars; an integer, a fixed prior-bar window."""
    if lookback is not None and lookback < 1:
        raise SignalError(f"liquidity grab lookback must be >= 1, got {lookback}")
    _, highs, lows, closes = store.by_day(store.ohlc)
    start = GRAB_MIN_HISTORY if lookback is None else lookback
    if start > highs.shape[1] - 2:
        return NO_ENTRIES
    # prior_hi[:, j], prior_lo[:, j]: the day's extremes before bar start + j
    if lookback is None:
        prior_hi = np.maximum.accumulate(highs, axis=1)[:, start - 1:-1]
        prior_lo = np.minimum.accumulate(lows, axis=1)[:, start - 1:-1]
    else:
        prior_hi = sliding_window_view(highs[:, :-1], lookback, axis=1).max(axis=2)
        prior_lo = sliding_window_view(lows[:, :-1], lookback, axis=1).min(axis=2)
    h, lo, c = highs[:, start:], lows[:, start:], closes[:, start:]
    pad = lambda hit: np.pad(hit, ((0, 0), (start, 0)))
    up = pad((h > prior_hi) & (c < prior_hi))
    down = pad((lo < prior_lo) & (c > prior_lo))
    sign = -1 if fade else 1
    return _merge(_entries(up, sign, np.nan), _entries(down, -sign, np.nan))


def entry_time_bar(sess: SessionSpec, entry_time: time) -> int:
    """Signal bar for a wall-clock entry: the bar closing at entry_time.

    A session-open entry maps to bar 0 (signal at its close, fill at the
    next bar open, the earliest fill the execution contract allows).
    """
    if entry_time == sess.start:
        return 0
    # the bar that opens a step before entry_time, on a date well after year 1
    _, bar, into, inside = sess.locate(np.datetime64(datetime.combine(date(2000, 1, 3), entry_time))
                                       - np.timedelta64(sess.bar_minutes, "m"))
    if into or not inside:
        raise SignalError(f"entry time {entry_time} outside {sess.name} session grid")
    return int(bar)


def gap_fill_entries(store: SessionStore, prims: DayPrimitives, entry_time: time,
                     min_gap: float) -> Entries:
    """Fade an overnight gap of at least ``min_gap`` toward its fill, from ``entry_time``;
    a day without a prior RTH close has no gap."""
    gap = _per_day(prims.overnight_gap)
    hit = ~np.isnan(gap) & (gap != 0) & ~(np.abs(gap) < min_gap)
    bar = entry_time_bar(store.days[0].session, entry_time) if hit.any() else -1
    return _entries(hit & _at(bar, store), np.where(gap > 0, -1, 1), np.nan)


def gap_cont_entries(store: SessionStore, prims: DayPrimitives, kalman_v,
                     kalman_threshold: float, min_gap: float) -> Entries:
    """Short a gap down of at least ``min_gap`` at the open when the overnight
    Kalman velocity (per day; NaN: none) exceeds ``kalman_threshold`` in size."""
    gap = _per_day(prims.overnight_gap)
    hit = (gap < 0) & (np.abs(gap) >= min_gap) & (np.abs(_per_day(kalman_v)) > kalman_threshold)
    return _entries(hit & _at(0, store), -1, np.nan)


def volume_ratio_series(days: TradingDay | SessionStore, window: int = 20) -> np.ndarray:
    """Per-bar volume over the rolling prior-window mean volume of the bar's own day;
    NaN on warm-up. ``days`` is one day or a store of days that hold as many bars."""
    store = days if isinstance(days, SessionStore) else session_store([days])
    volume = store.by_day(store.volume)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = volume / rolling_stat(volume, window)
    ratio[~np.isfinite(ratio)] = np.nan
    return ratio.ravel()


def volume_ratio_cutoffs(series: Sequence[np.ndarray]) -> tuple[float, float]:
    """(bottom-decile, top-decile) cutoffs of a training set's volume ratio series."""
    ratios = np.concatenate(series) if len(series) else np.array([])
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0:
        return (0.0, float("inf"))
    return (float(np.quantile(ratios, 0.10)), float(np.quantile(ratios, 0.90)))


def volume_signature_entries(store: SessionStore, spike: bool, cutoff: float,
                             ratio: np.ndarray) -> Entries:
    """Volume spike momentum (``ratio`` above ``cutoff``, with the bar) if ``spike``,
    else dry-up exhaustion (below, against the bar). ``ratio`` is
    ``volume_ratio_series``; the decile cutoff is frozen on the training window."""
    ratio = store.by_day(np.asarray(ratio, dtype=float))
    hit = ratio > cutoff if spike else ratio < cutoff
    return _with_body(store, hit & np.isfinite(ratio), spike)


def vvg_metrics(prims: DayPrimitives) -> np.ndarray:
    """Per day of ``session_primitives``: (|first30 return|, |gap|, first-bar volume
    deviation from its mean over the ``VVG_BASELINE_DAYS`` days before); NaN where undefined."""
    vols = np.asarray(prims.first_bar_volume, dtype=float)
    # whole volumes: the prior-window sums are exact, as a mean of each slice's is
    baseline = rolling_stat(vols, VVG_BASELINE_DAYS)
    return np.column_stack([np.abs(prims.first30_return), np.abs(prims.overnight_gap),
                            np.abs(vols - baseline)])


def vvg_boundaries(metrics: np.ndarray) -> np.ndarray:
    """Upper-tercile cut of each column of a training metric matrix; inf where none is finite."""
    cuts = []
    for col in metrics.T:
        col = col[np.isfinite(col)]
        cuts.append(float(np.quantile(col, 2.0 / 3.0)) if len(col) else float("inf"))
    return np.array(cuts)


def vvg_classify(metrics: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Day flags: all three metrics strictly above their tercile cut."""
    with np.errstate(invalid="ignore"):
        ok = metrics > cuts
    return np.all(ok & np.isfinite(metrics), axis=1)


def vvg_open_entries(store: SessionStore, prims: DayPrimitives, follow: bool) -> Entries:
    """Enter after the 30-minute opening window with its move (against it unless ``follow``)."""
    f30 = _per_day(prims.first30_return)
    return _entries((f30 != 0) & _at(VVG_ENTRY_BAR, store),
                    np.where((f30 > 0) == follow, 1, -1), np.nan)


def vvg_close_fade_entries(store: SessionStore) -> Entries:
    """Fade the day's move from the open at the 15:30 RTH close."""
    o, _, _, c = store.by_day(store.ohlc)
    rth = store.days and store.days[0].session.name == "RTH"
    move = c - o[:, :1]
    bar = entry_time_bar(store.days[0].session, time(15, 30)) if rth else -1
    return _entries((move != 0) & _at(bar, store), np.where(move > 0, -1, 1), np.nan)


def events_by_day(events: Sequence[EconEvent], session: SessionSpec) -> dict[date, list]:
    """Events in the session, by session-local date, in calendar order."""
    day, _, _, inside = session.locate([ev.ts for ev in events])
    out: dict[date, list[EconEvent]] = {}
    for ev, d in compress(zip(events, day.tolist()), inside.tolist()):
        out.setdefault(d, []).append(ev)
    return out


def check_drift_offset(start_bar_offset: int) -> None:
    """The offset floor of 6 guards against contaminating the drift
    measurement with the release spike itself (bars 1-5)."""
    if start_bar_offset < 6:
        raise SignalError("start_bar_offset must be >= 6 (release spike contamination)")


def event_drift_entries(store: SessionStore, events: Sequence[EconEvent],
                        start_bar_offset: int) -> Entries:
    """Post-release drift measured only from bar +offset, never the spike bars: each
    release in the session (``SessionSpec.locate``, as ``events_by_day`` reads it) on a day
    of ``store`` enters ``start_bar_offset`` bars after its bar, with its 5-bar move; by
    day, and in a day in calendar order."""
    check_drift_offset(start_bar_offset)
    if not store.days:
        return NO_ENTRIES
    day, bar, _, inside = store.days[0].session.locate([ev.ts for ev in events])
    rows = np.array([(store.cols[d].start, store.cols[d].stop, r) for d, r in compress(zip(
        day.tolist(), bar.tolist()), inside.tolist()) if d in store.cols], np.int64).reshape(-1, 3)
    start, stop, r = rows[np.argsort(rows[:, 0], kind="stable")].T
    at, closes = start + r, store.ohlc[3]  # each release bar's column
    sig = at + start_bar_offset
    # a kept signal bar lies 6 or more bars after its release, so its move is in its day
    move = closes.take(at + 5, mode="clip") - closes.take(at, mode="clip")
    keep = (move != 0) & (sig < stop - 1)  # a next bar follows the signal bar
    return Entries(sig[keep], np.where(move[keep] > 0, 1, -1), np.full(keep.sum(), np.nan))


def ou_reversion_entries(store: SessionStore, fit: OuFit, threshold: float) -> Entries:
    """OU z-score threshold entries with a re-arm band against stacking: after an entry,
    a day enters again only from its first later bar with |z| below ``OU_REARM_LEVEL``."""
    if fit.half_life is None:
        return NO_ENTRIES
    z = store.by_day(ou_zscore(store.ohlc[3], fit))
    size, bar, days = np.abs(z), np.arange(z.shape[1]), np.arange(len(z))
    first = lambda m: np.where(m.any(axis=1), m.argmax(axis=1) if m.size else 0, len(bar))
    hit, at = np.zeros(z.shape, dtype=bool), first(size >= threshold)
    while (at < len(bar)).any():  # each round enters once on every day that is armed
        hit[days[at < len(bar)], at[at < len(bar)]] = True
        armed = first((bar > at[:, None]) & (size < OU_REARM_LEVEL))
        at = first((bar >= armed[:, None]) & (size >= threshold))
    return _entries(hit, np.where(z <= -threshold, 1, -1), np.nan)


def confluence_rth_entries(store: SessionStore, labels: Sequence[int],
                           trans_prob: Sequence[float], vol_z: Sequence[float],
                           atr: Sequence[float], atr_baseline: float,
                           trans_threshold: float, vz_threshold: float,
                           pullback_points: float) -> Entries:
    """Regime-1 bars with elevated transition-to-2 probability and volume z, all three
    strict inequalities, on series over the store's bars. Each long entry carries the
    ATR-scaled pullback limit level."""
    if not (len(labels) == len(trans_prob) == len(vol_z) == len(atr) == store.start[-1]):
        raise SignalError("aligned per-bar series required")
    tp, vz, atr = (np.asarray(x, dtype=float) for x in (trans_prob, vol_z, atr))
    hit = ((np.asarray(labels) == 1) & np.isfinite(tp) & np.isfinite(vz)
           & (tp > trans_threshold) & (vz > vz_threshold))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(np.isfinite(atr) & (atr_baseline > 0), atr / atr_baseline, 1.0)
    level = store.ohlc[3] - pullback_points * scale
    return _entries(store.by_day(hit), 1, store.by_day(level))


def london_b_entries(store: SessionStore, labels: Sequence[int]) -> Entries:
    """Clean Regime 0 -> Regime 2 transition with no Regime 1 in the day's two bars
    before. The family's exit (4 15-minute bars, or session end at 08:30 ET if that
    comes first) is declared with the family; the execution layer clips at session end."""
    if len(labels) != store.start[-1]:
        raise SignalError("labels must align with bars")
    lab = store.by_day(np.asarray(labels))
    hit = np.zeros(lab.shape, dtype=bool)
    hit[:, 1:] = (lab[:, 1:] == 2) & (lab[:, :-1] == 0)
    hit[:, 2:] &= lab[:, :-2] != 1
    return _entries(hit, 1, np.nan)


# each family's rule on one day: (bar_index, direction[, limit level]) entries
orb_signals = _one_day(orb_entries)
orb_pullback_signals = _one_day(orb_pullback_entries)
asia_expansion_signals = _one_day(asia_expansion_entries)
liquidity_grab_signals = _one_day(liquidity_grab_entries)
gap_fill_signals = _one_day(gap_fill_entries)
gap_cont_signals = _one_day(gap_cont_entries)
volume_signature_signals = _one_day(volume_signature_entries)
vvg_open_signals = _one_day(vvg_open_entries)
vvg_close_fade_signals = _one_day(vvg_close_fade_entries)
confluence_rth_signals = _one_day(confluence_rth_entries)
london_b_signals = _one_day(london_b_entries)
event_drift_signals = _one_day(event_drift_entries)
ou_reversion_signals = _one_day(ou_reversion_entries)
