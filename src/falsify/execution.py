"""Trade simulation under the strict execution contract.

Entry is always at the open of the bar after the signal bar. Friction is
the instrument's fixed round-trip deduction, applied once per trade. All price
arithmetic is done in integer ticks so gross/net accounting is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, time
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bars import SessionStore, TradingDay, session_store
from .signals import LONG, SignalEvent


class ExecutionError(ValueError):
    pass


class ExitKind(Enum):
    HORIZON = "HORIZON"
    STOP_HORIZON = "STOP_HORIZON"
    PULLBACK_LIMIT = "PULLBACK_LIMIT"
    CLOCK = "CLOCK"


class ExitReason(Enum):
    HORIZON = "HORIZON"
    STOP = "STOP"
    CLOCK = "CLOCK"
    SESSION_END = "SESSION_END"


@dataclass(frozen=True)
class ExitSpec:
    kind: ExitKind
    horizon: int = 1
    stop: Optional[float] = None
    limit_offset: Optional[float] = None
    clock: Optional[time] = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ExecutionError("horizon must be >= 1")
        if self.stop is not None and self.stop <= 0:
            raise ExecutionError("stop must be positive")
        if self.kind is ExitKind.STOP_HORIZON and self.stop is None:
            raise ExecutionError("STOP_HORIZON requires a stop")
        if self.kind is ExitKind.CLOCK and self.clock is None:
            raise ExecutionError("CLOCK exit requires a clock time")


@dataclass(frozen=True)
class Instrument:
    """A contract's tick grid and its round-trip friction in points, deducted once per trade."""

    name: str
    tick_size: float
    round_trip: float = 2.0

    def __post_init__(self) -> None:
        if self.round_trip < 0:
            raise ExecutionError("round_trip must be non-negative")

    def to_ticks(self, points: float) -> int:
        return round(points / self.tick_size)

    def off_grid(self, points) -> np.ndarray:
        """Where ``points`` is not a whole number of ticks, beyond float error."""
        q = np.asarray(points, dtype=float) / self.tick_size
        return ~np.isclose(q, np.rint(q), rtol=1e-9, atol=1e-9)

    def to_points(self, ticks: int) -> float:
        return ticks * self.tick_size


MNQ = Instrument("MNQ", 0.25, 2.0)


@dataclass(frozen=True)
class TradeRecord:
    family: str
    date: date
    direction: str
    entry_bar: int
    exit_bar: int
    entry_price: float
    exit_price: float
    gross_ticks: int
    net_ticks: int
    exit_reason: ExitReason
    tick_size: float

    @property
    def gross(self) -> float:
        return self.gross_ticks * self.tick_size

    @property
    def net(self) -> float:
        return self.net_ticks * self.tick_size

    @property
    def year(self) -> int:
        return self.date.year


@dataclass(frozen=True)
class Rejection:
    event: SignalEvent
    reason: str


@dataclass(frozen=True)
class SimResult:
    trades: tuple[TradeRecord, ...]
    rejections: tuple[Rejection, ...]


_REASONS = (ExitReason.HORIZON, ExitReason.SESSION_END, ExitReason.STOP, ExitReason.CLOCK)
_HORIZON, _SESSION_END, _STOP, _CLOCK = range(4)
_REJECTIONS = {-1: "signal on last bar: cannot enter", -2: "limit never filled"}


class Fills(NamedTuple):
    """Per event, in event order: ``reason`` indexes ``_REASONS`` (a trade) or
    ``_REJECTIONS`` (the other fields mean nothing); entry and exit are bars of
    the event's own day."""
    reason: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    entry_ticks: np.ndarray
    exit_ticks: np.ndarray
    gross_ticks: np.ndarray
    net_ticks: np.ndarray


def _first_touch(ohlc, col, span, sign, level, width: int) -> np.ndarray:
    """Per event, the first k in 0..span (< width) at which a long's low falls to
    its level or a short's high rises to it, reading column col + k; -1 if none."""
    first = np.empty(len(col), dtype=np.int64)
    step = max(1, 65536 // width)  # bounds the size of each window table
    for a in range(0, len(col), step):
        s = slice(a, a + step)
        # past its span an event re-reads its last bar, which cannot be a first touch
        j = col[s, None] + np.minimum(np.arange(width), span[s, None])
        lv = level[s, None]
        touch = np.where(sign[s, None] > 0, ohlc[2][j] <= lv, ohlc[1][j] >= lv)
        first[s] = np.where(touch.any(axis=1), touch.argmax(axis=1), -1)
    return first


def fill_days(days: SessionStore, col, sign, exit: ExitSpec, instrument: Instrument = MNQ,
              level: Optional[np.ndarray] = None) -> Fills:
    """The execution kernel: resolve every event's entry and exit at once.

    Per event, ``col`` is its signal bar's column in ``days``, ``sign`` +1 long
    or -1 short and ``level`` a limit level (NaN: the exit's offset). Ticks
    round half-to-even, as ``to_ticks``."""
    o, c = days.ohlc[0], days.ohlc[3]
    first = np.asarray(col, dtype=np.int64)  # columns of the signal bars
    day = np.searchsorted(days.start, first, side="right") - 1
    start, last = days.start[day], days.start[day + 1] - 1  # the days' first and last bars
    sign = np.asarray(sign, dtype=np.int64)
    entry, end = first + 1, first + exit.horizon  # an entry past last is rejected below
    exit_col = np.minimum(end, last)
    reason = (end > last).astype(np.int8)  # _HORIZON or _SESSION_END
    entry_px, exit_px = o.take(entry, mode="clip"), c[exit_col]
    if exit.kind is ExitKind.CLOCK:
        # each day's bar opening at the clock time, -1 if it has none
        t = exit.clock
        us = ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond
        hits = [np.flatnonzero(d.ts.view(np.int64) % 86_400_000_000 == us) for d in days.days]
        clock = start + np.array([h[0] if len(h) else -1 for h in hits], dtype=np.int64)[day]
        at = clock > first
        exit_col = np.where(at, clock, last)
        exit_px = np.where(at, o[clock], c[last])
        reason = np.where(at, _CLOCK, _SESSION_END).astype(np.int8)
    elif exit.kind is ExitKind.STOP_HORIZON:
        # same-bar ambiguity is pessimistic: a stop touched on a bar is hit
        stop_px = entry_px - sign * exit.stop
        k = _first_touch(days.ohlc, entry, exit_col - entry, sign, stop_px, exit.horizon)
        hit = k >= 0
        exit_col = np.where(hit, entry + k, exit_col)
        exit_px = np.where(hit, stop_px, exit_px)
        reason[hit] = _STOP
    elif exit.kind is ExitKind.PULLBACK_LIMIT:
        offset = exit.limit_offset if exit.limit_offset is not None else 0.0
        lv = c[first] - sign * offset
        if level is not None:
            lv = np.where(np.isnan(level), lv, level)
        k = _first_touch(days.ohlc, entry, exit_col - entry, sign, lv, exit.horizon)
        entry = entry + k
        # a gap through the level fills at the (better) open, not the level
        op = o.take(entry, mode="clip")
        entry_px = np.where(sign > 0, np.minimum(op, lv), np.maximum(op, lv))
        reason[k < 0] = -2
    reason[first >= last] = -1
    entry_t, exit_t = np.rint(np.array((entry_px, exit_px)) / instrument.tick_size
                              ).astype(np.int64)
    gross = sign * (exit_t - entry_t)
    return Fills(reason, entry - start, exit_col - start, entry_t, exit_t, gross,
                 gross - instrument.to_ticks(instrument.round_trip))


def simulate(events: Sequence[SignalEvent], days: Sequence[TradingDay], exit: ExitSpec,
             instrument: Instrument = MNQ) -> SimResult:
    """Fill each event at the next bar open and resolve its exit, with one
    ``fill_days`` call over those of ``days`` that hold an event. Results come
    in day order, then by bar with LONG before SHORT.

    Same-bar stop ambiguity is resolved pessimistically (stop assumed hit
    before any favorable move). Trades still open at session end exit at
    the last bar's close. A PULLBACK_LIMIT enters at the event's
    ``limit_level``, or else at the exit's offset from the signal close.
    """
    held = {e.day for e in events}
    store = session_store([d for d in days if d.date in held])
    off = [e.day for e in events if e.day not in store.cols]
    if off:
        raise ExecutionError(f"event on {off[0]} falls on none of the days given")
    events = sorted(events, key=lambda e: (store.cols[e.day].start, e.bar_index, e.direction))
    level = np.array([e.limit_level for e in events], dtype=float)  # None becomes NaN
    f = fill_days(store, [store.cols[e.day].start + e.bar_index for e in events],
                  [1 if e.direction == LONG else -1 for e in events], exit, instrument, level)
    rows = list(zip(events, *(a.tolist() for a in f)))
    to_points, tick = instrument.to_points, instrument.tick_size
    return SimResult(
        tuple(TradeRecord(ev.family, ev.day, ev.direction, eb, xb, to_points(et), to_points(xt),
                          g, nt, _REASONS[r], tick)
              for ev, r, eb, xb, et, xt, g, nt in rows if r >= 0),
        tuple(Rejection(ev, _REJECTIONS[r]) for ev, r, *_ in rows if r < 0))


def aggregate_by_year(trades: Sequence[TradeRecord]) -> dict[int, list[TradeRecord]]:
    out: dict[int, list[TradeRecord]] = {}
    for t in trades:
        out.setdefault(t.year, []).append(t)
    return out


TRADE_HEADER = ("family,date,direction,entry_bar,exit_bar,entry_price,exit_price,"
                "gross,net,exit_reason")
# the trade log writes prices and points in cents, so every tick size must be whole cents
LOG_GRID = Instrument("trade log", 0.01, 0.0)


def serialize_trades(trades: Sequence[TradeRecord]) -> str:
    lines = [TRADE_HEADER]
    for t in trades:
        lines.append(
            f"{t.family},{t.date.isoformat()},{t.direction},{t.entry_bar},{t.exit_bar},"
            f"{t.entry_price:.2f},{t.exit_price:.2f},{t.gross:.2f},{t.net:.2f},"
            f"{t.exit_reason.value}"
        )
    return "\n".join(lines) + "\n"


def read_trades(path: str | Path) -> list[TradeRecord]:
    """The records of a trade log that ``serialize_trades`` wrote, on the log's cent grid."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRADE_HEADER:
        raise ValueError(f"line 1: header is not {TRADE_HEADER!r}")
    width = len(TRADE_HEADER.split(","))
    out: list[TradeRecord] = []
    for n, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        f = ln.split(",")
        try:
            if len(f) != width:
                raise ValueError(f"{len(f)} fields, not {width}")
            out.append(TradeRecord(
                family=f[0], date=date.fromisoformat(f[1]), direction=f[2],
                entry_bar=int(f[3]), exit_bar=int(f[4]),
                entry_price=float(f[5]), exit_price=float(f[6]),
                gross_ticks=LOG_GRID.to_ticks(float(f[7])),
                net_ticks=LOG_GRID.to_ticks(float(f[8])),
                exit_reason=ExitReason(f[9]), tick_size=LOG_GRID.tick_size,
            ))
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    return out
