"""Signal family detectors.

Every detector is a pure function of a completed day (plus any state
fitted on strictly earlier data) and returns entries at bar close:
``(bar_index, direction)`` pairs, with a limit level as a third item where
the family rests a pullback order. The engine names them after the family
that declares the detector. An entry is only returned when a next bar
exists to enter on, so bar_index is always at most len(bars) - 2.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from datetime import date, time, datetime, timedelta
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bars import DayPrimitives, EconEvent, SessionSpec, TradingDay
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


def _last_entryable(day: TradingDay) -> int:
    """Highest bar index whose signal can still be entered next bar."""
    return len(day.ts) - 2


def _first(mask: np.ndarray, at: int) -> Optional[int]:
    """``at`` plus the index of the first set entry of ``mask``; None if none is set."""
    return at + int(mask.argmax()) if mask.any() else None


def _breakouts(day: TradingDay, prims: DayPrimitives) -> tuple[Optional[int], Optional[int]]:
    """First bar *closing* above and first closing below the range of bars 0..5."""
    closes = day.ohlc[3]
    return (_first(closes[6:] > prims.opening_range_high, 6),
            _first(closes[6:] < prims.opening_range_low, 6))


def orb_signals(day: TradingDay, prims: DayPrimitives, direction: str) -> list[tuple]:
    """Opening range breakout on the ``direction`` side, entered at once; at most one a day."""
    up, down = _breakouts(day, prims)
    brk = up if direction == LONG else down
    return [] if brk is None or brk > _last_entryable(day) else [(brk, direction)]


def orb_pullback_signals(day: TradingDay, prims: DayPrimitives,
                         pullback_offset: float) -> list[tuple]:
    """After a breakout, the first bar back within ``pullback_offset`` of the broken
    level; at most one long and one short a day."""
    _, highs, lows, _ = day.ohlc
    last = _last_entryable(day)
    levels = (prims.opening_range_high, prims.opening_range_low)
    entries = []
    for brk, level, direction in zip(_breakouts(day, prims), levels, (LONG, SHORT)):
        if brk is None:
            continue
        span = slice(brk + 1, last + 1)
        i = _first(lows[span] <= level + pullback_offset if direction == LONG
                   else highs[span] >= level - pullback_offset, brk + 1)
        if i is not None:
            entries.append((i, direction))
    return sorted(entries)


def mean_range_series(day: TradingDay, window: int = 20) -> np.ndarray:
    """Per-bar rolling mean bar range over the prior window; NaN on warm-up."""
    return rolling_stat(day.ohlc[1] - day.ohlc[2], window)


def _entryable(mask: np.ndarray) -> list[int]:
    """Indices of the set entries of a per-bar mask that can still be entered next bar."""
    return mask[:len(mask) - 1].nonzero()[0].tolist()


def _with_body(day: TradingDay, hit: np.ndarray, with_bar: bool = True) -> list[tuple]:
    """Entries at ``hit`` bars with a body: in its direction if ``with_bar``, else against it."""
    o, _, _, c = day.ohlc
    body = c - o
    idx = _entryable(hit & (body != 0))
    return [(i, LONG if (b > 0) == with_bar else SHORT) for i, b in zip(idx, body[idx].tolist())]


def asia_expansion_signals(day: TradingDay, multiple: float,
                           mean_range: np.ndarray) -> list[tuple]:
    """Expansion bar: range above a multiple of the rolling mean range
    (``mean_range_series(day)``).

    Direction follows the expansion bar's close-vs-open; dojis emit nothing.
    """
    mr = np.asarray(mean_range, dtype=float)
    _, h, lo, _ = day.ohlc
    with np.errstate(invalid="ignore"):  # 0 * inf; such bars are skipped as non-finite
        hit = np.isfinite(mr) & (mr > 0) & (h - lo > multiple * mr)
    return _with_body(day, hit)


def liquidity_grab_signals(day: TradingDay, lookback: Optional[int],
                           fade: bool = True) -> list[tuple]:
    """Pierce of a recent extreme with a close back inside the range, faded
    (or, unless ``fade``, followed).

    ``lookback=None`` uses the running session extreme over all prior
    bars (requires ``GRAB_MIN_HISTORY`` bars of history); an integer uses
    a fixed prior-bar window.
    """
    if lookback is not None and lookback < 1:
        raise SignalError(f"liquidity grab lookback must be >= 1, got {lookback}")
    up_dir, down_dir = (SHORT, LONG) if fade else (LONG, SHORT)
    _, highs, lows, closes = day.ohlc
    start = GRAB_MIN_HISTORY if lookback is None else lookback
    if start > _last_entryable(day):
        return []
    # prior_hi[j], prior_lo[j]: the extremes before bar start + j
    if lookback is None:
        prior_hi = np.maximum.accumulate(highs)[start - 1:-1]
        prior_lo = np.minimum.accumulate(lows)[start - 1:-1]
    else:
        prior_hi = sliding_window_view(highs[:-1], lookback).max(axis=1)
        prior_lo = sliding_window_view(lows[:-1], lookback).min(axis=1)
    h, lo, c = highs[start:], lows[start:], closes[start:]
    up = (h > prior_hi) & (c < prior_hi)
    down = (lo < prior_lo) & (c > prior_lo)
    entries = []
    for j in _entryable(up | down):
        if up[j]:
            entries.append((start + j, up_dir))
        if down[j]:
            entries.append((start + j, down_dir))
    return entries


def entry_time_bar(sess: SessionSpec, entry_time: time) -> int:
    """Signal bar for a wall-clock entry: the bar closing at entry_time.

    A session-open entry maps to bar 0 (signal at its close, fill at the
    next bar open, the earliest fill the execution contract allows).
    """
    if entry_time == sess.start:
        return 0
    anchor = datetime.combine(date.min, sess.start)
    target = datetime.combine(date.min, entry_time)
    if sess.wraps_midnight and entry_time < sess.start:
        target += timedelta(days=1)
    minutes = (target - anchor).total_seconds() / 60
    idx = minutes / sess.bar_minutes - 1
    if idx != int(idx) or not (0 <= idx < sess.nominal_bar_count):
        raise SignalError(f"entry time {entry_time} outside {sess.name} session grid")
    return int(idx)


def gap_fill_signals(day: TradingDay, prims: DayPrimitives, entry_time: time,
                     min_gap: float) -> list[tuple]:
    """Fade an overnight gap of at least ``min_gap`` toward its fill, from ``entry_time``;
    a day without a prior RTH close has no gap."""
    gap = prims.overnight_gap
    if not gap or abs(gap) < min_gap:
        return []
    idx = entry_time_bar(day.session, entry_time)
    return [] if idx > _last_entryable(day) else [(idx, SHORT if gap > 0 else LONG)]


def gap_cont_signals(day: TradingDay, prims: DayPrimitives, kalman_v: float,
                     kalman_threshold: float, min_gap: float) -> list[tuple]:
    """Short a gap down of at least ``min_gap`` at the open when the overnight
    Kalman velocity exceeds ``kalman_threshold`` in size."""
    gap = prims.overnight_gap
    hit = (gap is not None and gap < 0 and abs(gap) >= min_gap
           and abs(kalman_v) > kalman_threshold and _last_entryable(day) >= 0)
    return [(0, SHORT)] if hit else []


def volume_ratio_series(day: TradingDay, window: int = 20) -> np.ndarray:
    """Per-bar volume over the rolling prior-window mean volume; NaN on warm-up."""
    vmean = rolling_stat(day.volume, window)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = day.volume / vmean
    ratio[~np.isfinite(ratio)] = np.nan
    return ratio


def volume_ratio_cutoffs(series: Sequence[np.ndarray]) -> tuple[float, float]:
    """(bottom-decile, top-decile) cutoffs of a training set's volume ratio series."""
    ratios = np.concatenate(series) if len(series) else np.array([])
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0:
        return (0.0, float("inf"))
    return (float(np.quantile(ratios, 0.10)), float(np.quantile(ratios, 0.90)))


def volume_signature_signals(day: TradingDay, spike: bool, cutoff: float,
                             ratio: np.ndarray) -> list[tuple]:
    """Volume spike momentum (``ratio`` above ``cutoff``, with the bar) if ``spike``,
    else dry-up exhaustion (``ratio`` below ``cutoff``, against the bar).

    ``ratio`` is ``volume_ratio_series(day)``; the decile cutoff is frozen
    on the training window and passed in.
    """
    ratio = np.asarray(ratio, dtype=float)
    hit = ratio > cutoff if spike else ratio < cutoff
    return _with_body(day, hit & np.isfinite(ratio), with_bar=spike)


def vvg_metrics(days: Sequence[TradingDay],
                prims: Sequence[DayPrimitives]) -> np.ndarray:
    """Per-day (|first30 return|, |gap|, first-bar volume deviation); NaN where undefined."""
    n = len(days)
    out = np.full((n, 3), np.nan)
    vols = np.array([float(p.first_bar_volume) for p in prims])
    for i in range(n):
        out[i, 0] = abs(prims[i].first30_return)
        if prims[i].overnight_gap is not None:
            out[i, 1] = abs(prims[i].overnight_gap)
        if i >= VVG_BASELINE_DAYS:
            baseline = vols[i - VVG_BASELINE_DAYS:i].mean()
            out[i, 2] = abs(vols[i] - baseline)
    return out


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


def vvg_open_signals(day: TradingDay, prims: DayPrimitives, follow: bool) -> list[tuple]:
    """Enter after the 30-minute opening window with its move (against it unless ``follow``)."""
    f30 = prims.first30_return
    if f30 == 0 or VVG_ENTRY_BAR > _last_entryable(day):
        return []
    return [(VVG_ENTRY_BAR, LONG if (f30 > 0) == follow else SHORT)]


def vvg_close_fade_signals(day: TradingDay) -> list[tuple]:
    """Fade the day's move from the open at the 15:30 RTH close."""
    idx = entry_time_bar(day.session, time(15, 30)) if day.session.name == "RTH" else None
    if idx is None or idx > _last_entryable(day):
        return []
    move = day.ohlc[3, idx] - day.ohlc[0, 0]
    return [] if move == 0 else [(idx, SHORT if move > 0 else LONG)]


def events_by_day(events: Sequence[EconEvent], session: SessionSpec) -> dict[date, list]:
    """Events inside the session window, by session-local date, in calendar order."""
    out: dict[date, list[EconEvent]] = {}
    for ev in events:
        if session.contains(ev.ts.time()):
            out.setdefault(session.session_date(ev.ts), []).append(ev)
    return out


def check_drift_offset(start_bar_offset: int) -> None:
    """The offset floor of 6 guards against contaminating the drift
    measurement with the release spike itself (bars 1-5)."""
    if start_bar_offset < 6:
        raise SignalError("start_bar_offset must be >= 6 (release spike contamination)")


def event_drift_signals(day: TradingDay, events: Sequence[EconEvent],
                        start_bar_offset: int) -> list[tuple]:
    """Post-release drift measured only from bar +offset, never the spike bars.

    ``events`` may be the whole calendar: only those ``events_by_day`` puts
    on this day count.
    """
    check_drift_offset(start_bar_offset)
    closes = day.ohlc[3]
    sess = day.session
    last = _last_entryable(day)
    out = []
    for ev in events_by_day(events, sess).get(day.date, ()):
        r = sess.bar_index(ev.ts)
        if r + 5 >= len(closes):
            continue
        move = closes[r + 5] - closes[r]
        if move == 0:
            continue
        sig = r + start_bar_offset
        if sig > last:
            continue
        out.append((sig, LONG if move > 0 else SHORT))
    return out


def ou_reversion_signals(day: TradingDay, fit: OuFit, threshold: float) -> list[tuple]:
    """OU z-score threshold entries with a re-arm band against stacking."""
    if fit.half_life is None:
        return []
    z = ou_zscore(day.ohlc[3], fit)
    entries = []
    armed = True
    for i in range(min(len(z), _last_entryable(day) + 1)):
        if not armed and abs(z[i]) < OU_REARM_LEVEL:
            armed = True
        if armed and abs(z[i]) >= threshold:
            entries.append((i, LONG if z[i] <= -threshold else SHORT))
            armed = False
    return entries


def confluence_rth_signals(day: TradingDay, labels: Sequence[int],
                           trans_prob: Sequence[float], vol_z: Sequence[float],
                           atr: Sequence[float], atr_baseline: float,
                           trans_threshold: float, vz_threshold: float,
                           pullback_points: float) -> list[tuple]:
    """Regime-1 bars with elevated transition-to-2 probability and volume z.

    All three conditions are strict inequalities. Each long entry carries the
    ATR-scaled pullback limit level as its third item.
    """
    n = len(day.ts)
    if not (len(labels) == len(trans_prob) == len(vol_z) == len(atr) == n):
        raise SignalError("aligned per-bar series required")
    closes = day.ohlc[3]
    tp, vz, atr = (np.asarray(x, dtype=float) for x in (trans_prob, vol_z, atr))
    hit = ((np.asarray(labels) == 1) & np.isfinite(tp) & np.isfinite(vz)
           & (tp > trans_threshold) & (vz > vz_threshold))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(np.isfinite(atr) & (atr_baseline > 0), atr / atr_baseline, 1.0)
    level = closes - pullback_points * scale
    idx = _entryable(hit)
    return [(i, LONG, lv) for i, lv in zip(idx, level[idx].tolist())]


def london_b_signals(day: TradingDay, labels: Sequence[int]) -> list[tuple]:
    """Clean Regime 0 -> Regime 2 transition with no Regime 1 contamination.

    The family's exit (4 15-minute bars, or session end at 08:30 ET if that
    comes first) is declared with the family; the execution layer clips at
    session end.
    """
    n = len(day.ts)
    if len(labels) != n:
        raise SignalError("labels must align with bars")
    entries = []
    for t in range(1, min(n, _last_entryable(day) + 1)):
        if labels[t] != 2 or labels[t - 1] != 0:
            continue
        prior_two = labels[max(0, t - 2):t]
        if 1 in prior_two:
            continue
        entries.append((t, LONG))
    return entries
