"""Bar-file ingestion, session calendars, and day-level primitives.

Timestamps are assumed to already be in ET wall-clock time; no timezone
conversion is performed anywhere in the pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional


class BarError(ValueError):
    """A bar or bar file violates an input invariant."""


@dataclass(frozen=True)
class SessionSpec:
    """A trading session window with a fixed bar step.

    ``end`` earlier than ``start`` means the session wraps midnight
    (Asia session). Bar timestamps mark the bar *open*.
    """

    name: str
    start: time
    end: time
    bar_minutes: int

    def __post_init__(self) -> None:
        if self.bar_minutes <= 0:
            raise ValueError("bar_minutes must be positive")

    @property
    def wraps_midnight(self) -> bool:
        return self.end <= self.start

    @property
    def session_minutes(self) -> int:
        s = self.start.hour * 60 + self.start.minute
        e = self.end.hour * 60 + self.end.minute
        return (e - s) % (24 * 60)

    @property
    def nominal_bar_count(self) -> int:
        return self.session_minutes // self.bar_minutes

    def contains(self, t: time) -> bool:
        """Whether a bar *opening* at wall-clock ``t`` belongs to the session."""
        if self.wraps_midnight:
            return t >= self.start or t < self.end
        return self.start <= t < self.end

    def session_date(self, ts: datetime) -> date:
        """Session-local date: a wrapped session belongs to the date of its open."""
        if self.wraps_midnight and ts.time() < self.end:
            return (ts - timedelta(days=1)).date()
        return ts.date()

    def bar_index(self, ts: datetime) -> int:
        """Index of the bar opening at ``ts`` within its session."""
        open_dt = datetime.combine(self.session_date(ts), self.start)
        delta = ts - open_dt
        minutes = delta.days * 24 * 60 + delta.seconds // 60
        return minutes // self.bar_minutes

    def grid(self, session_day: date) -> list[datetime]:
        """Expected bar-open timestamps for one session day."""
        t0 = datetime.combine(session_day, self.start)
        step = timedelta(minutes=self.bar_minutes)
        return [t0 + i * step for i in range(self.nominal_bar_count)]


RTH = SessionSpec("RTH", time(9, 30), time(16, 0), 5)
ASIA = SessionSpec("ASIA", time(20, 0), time(2, 0), 5)
LONDON = SessionSpec("LONDON", time(3, 0), time(8, 30), 15)

SESSIONS = {s.name: s for s in (RTH, ASIA, LONDON)}


@dataclass(frozen=True)
class Bar:
    """One OHLCV bar. Prices in index points, volume in contracts."""

    ts: datetime
    open: float
    high: float
    low: float
    close: float
    volume: int

    def validate(self) -> None:
        if self.low > self.high:
            raise BarError(f"bar {self.ts}: low {self.low} > high {self.high}")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise BarError(f"bar {self.ts}: open/close outside low/high range")
        if self.volume < 0:
            raise BarError(f"bar {self.ts}: negative volume {self.volume}")

    @property
    def range(self) -> float:
        return self.high - self.low

    @property
    def body(self) -> float:
        return self.close - self.open


@dataclass(frozen=True)
class TradingDay:
    """All bars of one session on one session-local date."""

    date: date
    session: SessionSpec
    bars: tuple[Bar, ...]
    prior_rth_close: Optional[float] = None
    complete: bool = False

    @property
    def year(self) -> int:
        return self.date.year


@dataclass(frozen=True)
class DayPrimitives:
    """Pre-computed day-level quantities used by several signal families."""

    opening_range_high: float
    opening_range_low: float
    overnight_gap: Optional[float]
    first30_return: float
    first_bar_volume: int


class EventKind(Enum):
    FOMC = "FOMC"
    CPI = "CPI"
    NFP = "NFP"
    PCE = "PCE"
    OTHER = "OTHER"


QUALIFYING_KINDS = {EventKind.FOMC, EventKind.CPI, EventKind.NFP, EventKind.PCE}

IMPACT_LEVELS = {"HIGH", "MEDIUM", "LOW"}


@dataclass(frozen=True)
class EconEvent:
    ts: datetime
    kind: EventKind
    impact: str
    currency: str


BAR_HEADER = "ts,open,high,low,close,volume"
TS_FORMAT = "%Y-%m-%dT%H:%M"


def _parse_bar_row(line: str, lineno: int) -> Bar:
    parts = line.split(",")
    if len(parts) != 6:
        raise BarError(f"line {lineno}: expected 6 columns, got {len(parts)}")
    try:
        ts = datetime.strptime(parts[0], TS_FORMAT)
        o, h, lo, c = (float(p) for p in parts[1:5])
        v = int(parts[5])
    except ValueError as exc:
        raise BarError(f"line {lineno}: {exc}") from None
    bar = Bar(ts, o, h, lo, c, v)
    try:
        bar.validate()
    except BarError as exc:
        raise BarError(f"line {lineno}: {exc}") from None
    return bar


def _data_rows(path: str | Path, header: str, what: str) -> list[tuple[int, str]]:
    """(physical line number, text) of each row after ``header``; blank and
    ``#`` lines are skipped but still counted."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.startswith("#")]
    if rows and rows[0][1] != header:
        raise BarError(f"bad {what}: {rows[0][1]!r}")
    return rows[1:]


def _is_complete(bars: tuple[Bar, ...], session: SessionSpec, session_day: date) -> bool:
    if len(bars) != session.nominal_bar_count:
        return False
    return [b.ts for b in bars] == session.grid(session_day)


def group_days(bars: Iterable[Bar], session: SessionSpec) -> list[TradingDay]:
    """Group sorted bars into session-local TradingDays and link RTH gaps."""
    grouped: dict[date, list[Bar]] = {}
    order: list[date] = []
    prev_ts: Optional[datetime] = None
    for bar in bars:
        if prev_ts is not None and bar.ts <= prev_ts:
            raise BarError(f"unsorted input at {bar.ts}")
        prev_ts = bar.ts
        if not session.contains(bar.ts.time()):
            raise BarError(f"bar {bar.ts} outside {session.name} session window")
        d = session.session_date(bar.ts)
        if d not in grouped:
            grouped[d] = []
            order.append(d)
        grouped[d].append(bar)

    days: list[TradingDay] = []
    prior_close: Optional[float] = None
    for d in order:
        day_bars = tuple(grouped[d])
        complete = _is_complete(day_bars, session, d)
        prior = prior_close if session.name == "RTH" else None
        days.append(TradingDay(d, session, day_bars, prior, complete))
        if session.name == "RTH":
            prior_close = day_bars[-1].close if complete else None
    return days


def parse_bar_file(path: str | Path, session: SessionSpec) -> list[TradingDay]:
    """Parse a bar file into TradingDays.

    Incomplete days are flagged (``complete=False``), never silently
    dropped. Malformed rows, OHLC violations and unsorted input raise
    :class:`BarError` naming the offending line or timestamp.
    """
    rows = _data_rows(path, BAR_HEADER, "header")
    return group_days([_parse_bar_row(ln, i) for i, ln in rows], session)


def _fmt_price(x: float) -> str:
    s = f"{x:.2f}"
    return s


def serialize_days(days: Iterable[TradingDay], header_comment: str | None = None) -> str:
    """Serialize days back to the bar file format (round-trip safe)."""
    out = []
    if header_comment:
        out.append(f"# {header_comment}")
    out.append(BAR_HEADER)
    for day in days:
        for b in day.bars:
            out.append(
                f"{b.ts.strftime(TS_FORMAT)},{_fmt_price(b.open)},{_fmt_price(b.high)},"
                f"{_fmt_price(b.low)},{_fmt_price(b.close)},{b.volume}"
            )
    return "\n".join(out) + "\n"


def day_primitives(day: TradingDay) -> DayPrimitives:
    """Opening range over bars 0..5, overnight gap, first-30-minute return."""
    if len(day.bars) < 6:
        raise BarError(f"day {day.date}: need >= 6 bars for primitives, got {len(day.bars)}")
    first6 = day.bars[:6]
    or_high = max(b.high for b in first6)
    or_low = min(b.low for b in first6)
    gap = None
    if day.prior_rth_close is not None:
        gap = day.bars[0].open - day.prior_rth_close
    return DayPrimitives(
        opening_range_high=or_high,
        opening_range_low=or_low,
        overnight_gap=gap,
        first30_return=first6[5].close - first6[0].open,
        first_bar_volume=first6[0].volume,
    )


EVENT_HEADER = "ts,kind,impact,currency"


def parse_event_calendar(path: str | Path, rth_only: bool = False) -> list[EconEvent]:
    """Parse the economic-event calendar, keeping high-impact USD events.

    Only FOMC/CPI/NFP/PCE kinds qualify. With ``rth_only`` set, events
    timestamped outside 09:30-16:00 ET (e.g. 08:30 releases) are dropped.
    """
    events: list[EconEvent] = []
    for i, ln in _data_rows(path, EVENT_HEADER, "calendar header"):
        parts = ln.split(",")
        if len(parts) != 4:
            raise BarError(f"line {i}: expected 4 columns, got {len(parts)}")
        try:
            ts = datetime.strptime(parts[0], TS_FORMAT)
        except ValueError as exc:
            raise BarError(f"line {i}: {exc}") from None
        kind = EventKind(parts[1]) if parts[1] in EventKind.__members__ else EventKind.OTHER
        impact = parts[2].upper()
        if impact not in IMPACT_LEVELS:
            raise BarError(f"line {i}: unknown impact code {parts[2]!r}")
        ev = EconEvent(ts, kind, impact, parts[3].upper())
        if ev.impact != "HIGH" or ev.currency != "USD" or ev.kind not in QUALIFYING_KINDS:
            continue
        if rth_only and not (RTH.start <= ev.ts.time() < RTH.end):
            continue
        events.append(ev)
    return events
