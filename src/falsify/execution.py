"""Trade simulation under the strict execution contract.

Entry is always at the open of the bar after the signal bar. Friction is
a fixed round-trip deduction applied once per trade. All price
arithmetic is done in integer ticks so gross/net accounting is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, time
from enum import Enum
from typing import Optional, Sequence

from .bars import TradingDay
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
class FrictionModel:
    """Round-trip friction in points, deducted once per trade."""

    round_trip: float = 2.0

    def __post_init__(self) -> None:
        if self.round_trip < 0:
            raise ExecutionError("friction must be non-negative")


@dataclass(frozen=True)
class Instrument:
    name: str = "MNQ"
    tick_size: float = 0.25

    def to_ticks(self, points: float) -> int:
        return round(points / self.tick_size)

    def to_points(self, ticks: int) -> float:
        return ticks * self.tick_size


MNQ = Instrument("MNQ", 0.25)


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


def _make_trade(event: SignalEvent, entry_bar: int, exit_bar: int,
                entry_price: float, exit_price: float, reason: ExitReason,
                friction: FrictionModel, instrument: Instrument) -> TradeRecord:
    sign = 1 if event.direction == LONG else -1
    entry_t = instrument.to_ticks(entry_price)
    exit_t = instrument.to_ticks(exit_price)
    gross_t = sign * (exit_t - entry_t)
    net_t = gross_t - instrument.to_ticks(friction.round_trip)
    return TradeRecord(
        family=event.family, date=event.day, direction=event.direction,
        entry_bar=entry_bar, exit_bar=exit_bar,
        entry_price=instrument.to_points(entry_t),
        exit_price=instrument.to_points(exit_t),
        gross_ticks=gross_t, net_ticks=net_t,
        exit_reason=reason, tick_size=instrument.tick_size,
    )


def _clock_bar(day: TradingDay, clock: time) -> Optional[int]:
    for i, b in enumerate(day.bars):
        if b.ts.time() == clock:
            return i
    return None


def simulate(events: Sequence[SignalEvent], day: TradingDay, exit: ExitSpec,
             friction: FrictionModel = FrictionModel(),
             instrument: Instrument = MNQ) -> SimResult:
    """Fill each event at the next bar open and resolve its exit.

    Same-bar stop ambiguity is resolved pessimistically (stop assumed
    hit before any favorable move). Trades still open at session end
    exit at the last bar's close.
    """
    bars = day.bars
    n = len(bars)
    trades: list[TradeRecord] = []
    rejections: list[Rejection] = []

    for ev in sorted(events, key=lambda e: (e.bar_index, e.direction)):
        entry_bar = ev.bar_index + 1
        if entry_bar >= n:
            rejections.append(Rejection(ev, "signal on last bar: cannot enter"))
            continue
        sign = 1 if ev.direction == LONG else -1

        if exit.kind is ExitKind.PULLBACK_LIMIT:
            trade = _simulate_pullback_limit(ev, day, exit, friction, instrument)
            if trade is None:
                rejections.append(Rejection(ev, "limit never filled"))
            else:
                trades.append(trade)
            continue

        entry_price = bars[entry_bar].open
        horizon_bar = min(entry_bar + exit.horizon - 1, n - 1)
        clipped = entry_bar + exit.horizon - 1 > n - 1

        if exit.kind is ExitKind.CLOCK:
            cb = _clock_bar(day, exit.clock)
            if cb is not None and cb >= entry_bar:
                trades.append(_make_trade(ev, entry_bar, cb, entry_price,
                                          bars[cb].open, ExitReason.CLOCK,
                                          friction, instrument))
            else:
                trades.append(_make_trade(ev, entry_bar, n - 1, entry_price,
                                          bars[n - 1].close, ExitReason.SESSION_END,
                                          friction, instrument))
            continue

        stopped = False
        if exit.kind is ExitKind.STOP_HORIZON:
            stop_price = entry_price - sign * exit.stop
            for i in range(entry_bar, horizon_bar + 1):
                hit = bars[i].low <= stop_price if sign > 0 else bars[i].high >= stop_price
                if hit:
                    trades.append(_make_trade(ev, entry_bar, i, entry_price,
                                              stop_price, ExitReason.STOP,
                                              friction, instrument))
                    stopped = True
                    break
        if stopped:
            continue

        reason = ExitReason.SESSION_END if clipped else ExitReason.HORIZON
        trades.append(_make_trade(ev, entry_bar, horizon_bar, entry_price,
                                  bars[horizon_bar].close, reason,
                                  friction, instrument))

    return SimResult(tuple(trades), tuple(rejections))


def _simulate_pullback_limit(ev: SignalEvent, day: TradingDay, exit: ExitSpec,
                             friction: FrictionModel,
                             instrument: Instrument) -> Optional[TradeRecord]:
    """Limit entry at a pullback level, horizon exit measured from the signal bar."""
    bars = day.bars
    n = len(bars)
    sign = 1 if ev.direction == LONG else -1
    level = ev.meta_value("limit_level")
    if level is None:
        offset = exit.limit_offset if exit.limit_offset is not None else 0.0
        level = bars[ev.bar_index].close - sign * offset
    horizon_bar = min(ev.bar_index + exit.horizon, n - 1)
    clipped = ev.bar_index + exit.horizon > n - 1

    fill_bar = None
    for i in range(ev.bar_index + 1, horizon_bar + 1):
        touched = bars[i].low <= level if sign > 0 else bars[i].high >= level
        if touched:
            fill_bar = i
            break
    if fill_bar is None:
        return None
    # a gap through the level fills at the (better) open, not the level
    open_i = bars[fill_bar].open
    fill_price = min(open_i, level) if sign > 0 else max(open_i, level)
    reason = ExitReason.SESSION_END if clipped else ExitReason.HORIZON
    return _make_trade(ev, fill_bar, horizon_bar, fill_price,
                       bars[horizon_bar].close, reason, friction, instrument)


def aggregate_by_year(trades: Sequence[TradeRecord]) -> dict[int, list[TradeRecord]]:
    out: dict[int, list[TradeRecord]] = {}
    for t in trades:
        out.setdefault(t.year, []).append(t)
    return out


TRADE_HEADER = ("family,date,direction,entry_bar,exit_bar,entry_price,exit_price,"
                "gross,net,exit_reason")


def serialize_trades(trades: Sequence[TradeRecord]) -> str:
    lines = [TRADE_HEADER]
    for t in trades:
        lines.append(
            f"{t.family},{t.date.isoformat()},{t.direction},{t.entry_bar},{t.exit_bar},"
            f"{t.entry_price:.2f},{t.exit_price:.2f},{t.gross:.2f},{t.net:.2f},"
            f"{t.exit_reason.value}"
        )
    return "\n".join(lines) + "\n"
