"""Bar-file ingestion, session calendars, and day-level primitives.

Timestamps are assumed to already be in ET wall-clock time; no timezone
conversion is performed anywhere in the pipeline.
"""
from __future__ import annotations

import math
import re
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from datetime import date, datetime, time, timedelta
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np


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


RTH = SessionSpec("RTH", time(9, 30), time(16, 0), 5)
ASIA = SessionSpec("ASIA", time(20, 0), time(2, 0), 5)
LONDON = SessionSpec("LONDON", time(3, 0), time(8, 30), 15)

SESSIONS = {s.name: s for s in (RTH, ASIA, LONDON)}


@dataclass(frozen=True, slots=True)
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
        # NaN passes every comparison above; checked last, so a bar those
        # checks reject keeps their message
        if not all(map(math.isfinite, (self.open, self.high, self.low, self.close))):
            raise BarError(f"bar {self.ts}: non-finite price")


@dataclass(frozen=True, eq=False)
class TradingDay:
    """All bars of one session on one session-local date, as arrays: bar-open
    times ``ts`` (``datetime64[us]``), ``ohlc`` (opens, highs, lows and closes
    as the rows of a 4 x n float64 array) and int64 ``volume``, all read-only.

    Days compare by identity: field-wise ``==`` means nothing for arrays.
    """

    date: date
    session: SessionSpec
    ts: np.ndarray
    ohlc: np.ndarray
    volume: np.ndarray
    prior_rth_close: Optional[float] = None
    complete: bool = False

    def __post_init__(self) -> None:
        for arr in (self.ts, self.ohlc, self.volume):
            arr.flags.writeable = False

    @property
    def year(self) -> int:
        return self.date.year

    @property
    def bars(self) -> BarRows:
        """The bars as ``Bar`` rows, each built when it is read."""
        return BarRows(self)


class BarRows(Sequence):
    """A read-only row view of a day: its length costs nothing, and a row is
    built only when it is read."""

    def __init__(self, day: TradingDay):
        self._day = day

    def __len__(self) -> int:
        return len(self._day.ts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        d = self._day
        return Bar(d.ts[i].item(), *d.ohlc[:, i].tolist(), int(d.volume[i]))

    def __iter__(self):
        d = self._day
        return map(Bar, d.ts.tolist(), *d.ohlc.tolist(), d.volume.tolist())


@dataclass(frozen=True, eq=False)
class SessionStore:
    """A session's days laid end to end once: ``ohlc`` (4 x n) and ``volume``
    hold every bar in day order, ``start`` the column of each day's first bar
    with the bar count appended, and ``cols`` each day's columns by date."""

    days: Sequence[TradingDay]
    ohlc: np.ndarray
    volume: np.ndarray
    start: np.ndarray
    cols: dict[date, slice]

    def __post_init__(self) -> None:
        for arr in (self.ohlc, self.volume, self.start):
            arr.flags.writeable = False

    def by_day(self, x: np.ndarray) -> np.ndarray:
        """A per-bar array (bars on its last axis) as days x bars, for days of one length."""
        width = np.diff(self.start)
        if np.any(width != width[:1]):
            raise ValueError("days of unequal bar counts cannot be laid out as days x bars")
        return np.reshape(x, (*np.shape(x)[:-1], len(width), int(width[0]) if len(width) else 0))


def session_store(days: Sequence[TradingDay]) -> SessionStore:
    """``days`` laid end to end, in the order given."""
    start = np.cumsum([0, *(len(d.ts) for d in days)])
    bounds = start.tolist()
    return SessionStore(days, np.concatenate([np.empty((4, 0)), *(d.ohlc for d in days)], axis=1),
                        np.concatenate([np.empty(0, np.int64), *(d.volume for d in days)]),
                        start, {d.date: slice(a, b) for d, a, b in zip(days, bounds, bounds[1:])})


@dataclass(frozen=True)
class DayPrimitives:
    """Day-level quantities used by several signal families: of one day, or of
    every day of a store as arrays (``session_primitives``)."""

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


_ROW = np.dtype([("ts", "S17"), ("open", "f8"), ("high", "f8"), ("low", "f8"),
                 ("close", "f8"), ("volume", "i8")])
# a timestamp field, byte by byte: each "0" stands for a digit, and the NUL
# after the 16 characters means the field is no longer
_TS_BYTES = np.frombuffer(b"0000-00-00T00:00\0", dtype=np.uint8)
_TS_FORM = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}")
_TS_FORM_ERROR = "timestamp is not zero-padded YYYY-MM-DDTHH:MM"
_MINUTE_US = 60_000_000
_DAY_US = 24 * 60 * _MINUTE_US
_CHUNK_ROWS = 16_384  # rows per formatting pass: bounds the pass's byte matrices


def _data_rows(path: str | Path, header: str, what: str) -> tuple[list[int], list[str]]:
    """Physical line numbers and texts of the rows after ``header``; blank
    and ``#`` lines are skipped but still counted."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    nums = [i for i, ln in enumerate(lines, start=1) if ln.strip() and not ln.startswith("#")]
    if nums and lines[nums[0] - 1].strip() != header:
        raise BarError(f"bad {what}: {lines[nums[0] - 1].strip()!r}")
    return nums[1:], [lines[i - 1].strip() for i in nums[1:]]


def _columns(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps (``datetime64[us]``) and the OHLCV table of the rows.

    Raises ValueError if any row is malformed or fails ``Bar.validate``;
    only a row in the zero-padded ``YYYY-MM-DDTHH:MM`` timestamp form with
    ASCII numbers parses here.
    """
    if any("\0" in r for r in rows):  # the bytes dtype would drop a trailing NUL
        raise ValueError("NUL character")
    with warnings.catch_warnings():
        # some numpy releases read an int field such as "1e3" via float and
        # only warn; as an error, the row falls to _row_error like any other
        warnings.simplefilter("error", DeprecationWarning)
        try:
            table = np.loadtxt(rows, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    raw = np.ascontiguousarray(table["ts"]).view(np.uint8).reshape(-1, 17)
    digit = _TS_BYTES == ord("0")
    if not (np.all(raw[:, digit] - ord("0") < 10) and np.all(raw[:, ~digit] == _TS_BYTES[~digit])):
        raise ValueError(_TS_FORM_ERROR)
    # the fields are read from the digits: numpy's own string-to-datetime cast
    # crashes the interpreter on a large array holding an invalid date
    d = raw.astype(np.int64) - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute = (d[:, i] * 10 + d[:, i + 1] for i in (5, 8, 11, 14))
    first = ((year - 1970) * 12 + month - 1).astype("M8[M]")
    dates = first.astype("M8[D]") + (day - 1)
    if not np.all((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24)
                  & (minute < 60) & (dates.astype("M8[M]") == first)):
        raise ValueError("timestamp out of range")
    ts = dates.astype("M8[us]") + (hour * 60 + minute) * np.timedelta64(60_000_000, "us")
    o, h, lo, c = (table[k] for k in ("open", "high", "low", "close"))
    bad = ((lo > h) | (lo > np.minimum(o, c)) | (h < np.maximum(o, c)) | (table["volume"] < 0)
           | ~(np.isfinite(o) & np.isfinite(h) & np.isfinite(lo) & np.isfinite(c)))
    if bad.any():
        raise ValueError("bar fails validation")
    return ts, table


def _conversion_error(line: str) -> Optional[str]:
    """Why Python's own conversions or ``Bar.validate`` reject a row, if they do."""
    parts = line.split(",")
    if len(parts) != 6:
        return f"expected 6 columns, got {len(parts)}"
    try:
        ts = datetime.strptime(parts[0], TS_FORMAT)
        Bar(ts, *(float(p) for p in parts[1:5]), int(parts[5])).validate()
    except ValueError as exc:
        return str(exc)
    return None


def _columns_error(rows: list[str]) -> Optional[str]:
    try:
        _columns(rows)
    except ValueError as exc:
        return str(exc).partition(" at row ")[0]
    return None


def _row_error(nums: list[int], rows: list[str]) -> BarError:
    """The error of the first row, in file order, that does not parse."""
    k = next((i for i, line in enumerate(rows) if _conversion_error(line)), len(rows))
    if k and _columns_error(rows[:k]):
        # an earlier row breaks a rule only _columns has; each row passes or
        # fails on its own, so bisect for the first one
        lo, hi = 0, k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _columns_error(rows[:mid]) else (mid, hi)
        return BarError(f"line {nums[lo]}: {_columns_error([rows[lo]])}")
    return BarError(f"line {nums[k]}: {_conversion_error(rows[k])}")


def _group(ts: np.ndarray, ohlc: np.ndarray, volume: np.ndarray,
           session: SessionSpec) -> list[TradingDay]:
    """Sorted bars, as ``datetime64[us]`` times, a 4 x n price array and
    volumes, into linked TradingDays that hold slices of those arrays."""
    n = len(ts)
    us = ts.view(np.int64)
    start = (session.start.hour * 60 + session.start.minute) * _MINUTE_US
    end = (session.end.hour * 60 + session.end.minute) * _MINUTE_US
    tod = us % _DAY_US
    early = tod < end
    inside = (tod >= start) | early if session.wraps_midnight else (tod >= start) & early
    unsorted = np.zeros(n, dtype=bool)
    unsorted[1:] = us[1:] <= us[:-1]
    bad = unsorted | ~inside
    if bad.any():
        k = int(np.argmax(bad))
        raise BarError(f"unsorted input at {ts[k].item()}" if unsorted[k]
                       else f"bar {ts[k].item()} outside {session.name} session window")
    day = us // _DAY_US - (early if session.wraps_midnight else 0)
    first = np.flatnonzero(np.diff(day, prepend=day[:1] - 1))
    counts = np.diff(first, append=n)
    # a day is complete when its k-th bar opens k steps after the session open
    pos = np.arange(n) - np.repeat(first, counts)
    off_grid = us - (day * _DAY_US + start) != pos * (session.bar_minutes * _MINUTE_US)
    complete = (counts == session.nominal_bar_count) & ~np.logical_or.reduceat(off_grid, first)
    dates = day[first].astype("M8[D]").tolist()
    bounds = np.append(first, n).tolist()
    return link_rth([TradingDay(d, session, ts[a:b], ohlc[:, a:b], volume[a:b], complete=c)
                     for d, a, b, c in zip(dates, bounds, bounds[1:], complete.tolist())])


def group_days(bars: Iterable[Bar], session: SessionSpec) -> list[TradingDay]:
    """Group sorted bars into session-local TradingDays and link RTH gaps."""
    bars = list(bars)
    if not bars:
        return []
    return _group(np.array([b.ts for b in bars], dtype="M8[us]"),
                  np.array([(b.open, b.high, b.low, b.close) for b in bars], dtype=float).T,
                  np.array([b.volume for b in bars], dtype=np.int64), session)


def link_rth(days: Iterable[TradingDay]) -> list[TradingDay]:
    """Link each RTH day to the day before it: ``prior_rth_close`` is that
    day's last close, as the close array holds it, when that day is
    complete, else None. Days of other sessions, and RTH days that already
    hold their link, pass through."""
    out: list[TradingDay] = []
    prior = None
    for day in days:
        if day.session.name == "RTH":
            if not _same_link(day.prior_rth_close, prior):
                day = replace(day, prior_rth_close=prior)
            prior = day.ohlc[3, -1] if day.complete else None
        out.append(day)
    return out


def _same_link(a, b) -> bool:
    """Whether links ``a`` and ``b`` are one value of one type, a zero's sign included."""
    if a is None or b is None:
        return a is b
    return type(a) is type(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def parse_bar_file(path: str | Path, session: SessionSpec) -> list[TradingDay]:
    """Parse a bar file into TradingDays.

    Incomplete days are flagged (``complete=False``), never silently
    dropped. Malformed rows, OHLC violations, non-finite prices and
    unsorted input raise :class:`BarError` naming the offending line or
    timestamp. The columns are read and checked as arrays, and each day
    holds slices of them.
    """
    nums, rows = _data_rows(path, BAR_HEADER, "header")
    if not rows:
        return []
    try:
        ts, table = _columns(rows)
    except ValueError:
        raise _row_error(nums, rows) from None
    return _group(ts, np.array([table[k] for k in _ROW.names[1:5]]),
                  np.ascontiguousarray(table["volume"]), session)


def _digits(v: np.ndarray, keep: int) -> np.ndarray:
    """The decimal digits of the non-negative ints ``v`` as ASCII, at least ``keep``
    of them, on a new last axis; a leading zero before the last ``keep`` is NUL."""
    width = max(keep, len(str(v.max())))
    out = np.empty((width, *v.shape), np.uint8)
    r = v.astype(np.min_scalar_type(v.max()))  # integer division is fastest on few bytes
    for j in range(width - 1, -1, -1):
        q = r // 10
        out[j] = r - q * 10 + ord("0")
        if j < width - keep:
            out[j][r == 0] = 0
        r = q
    return np.moveaxis(out, 0, -1)


def _writable_cents(ts: np.ndarray, ohlc: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Each price as its whole number of cents, whose text reads back as the
    price; raise BarError naming the first bar whose text would not read back
    as the bar. ``x * 100`` is rounded before ``rint``, so from about 2**45
    the cents of ``x`` can be a neighbour of ``rint(x * 100)``: the cents are
    ``c = rint(x * 100)`` if ``c / 100 == x``, else the neighbour for which it is."""
    year = ts.astype("M8[Y]").view(np.int64) + 1970
    bad_ts = (ts != ts.astype("M8[m]")) | (year < 1) | (year > 9999)
    near = np.rint(ohlc * 100)
    cents = np.full(ohlc.shape, np.nan)
    for c in (near + 1, near - 1, near):  # a later candidate wins
        cents = np.where((c / 100 == ohlc) & (np.abs(c) < 2**53), c, cents)
    bad_price = np.isnan(cents)
    bad = bad_ts | bad_price.any(axis=0) | (volume < 0)
    if not bad.any():
        return cents
    k = int(np.argmax(bad))
    t = ts[k].item()  # an int, or None for NaT, where a datetime cannot hold it
    when = t if isinstance(t, datetime) else np.datetime_as_string(ts[k])
    if bad_ts[k]:
        why = ("timestamp outside years 1-9999" if not 1 <= year[k] <= 9999
               else "timestamp is not a whole minute")
    elif bad_price[:, k].any():
        x = float(ohlc[:, k][bad_price[:, k]][0])
        why = (f"price {x!r} is not a whole number of cents under 2**53" if np.isfinite(x)
               else "non-finite price")
    else:
        why = f"negative volume {volume[k]}"
    raise BarError(f"bar {when}: {why}")


def _rows(ts: np.ndarray, ohlc: np.ndarray, volume: np.ndarray) -> str:
    """Bar rows as text, laid out as one ASCII byte matrix whose NULs are dropped."""
    cents = _writable_cents(ts, ohlc, volume)
    n = len(ts)
    day, month = ts.astype("M8[D]"), ts.astype("M8[M]")
    minute = (ts - day) // np.timedelta64(1, "m")
    # YYYYMMDDhhmm as one int, whose digits go to the form's digit places
    stamp = ((month.astype("M8[Y]").view(np.int64) + 1970) * 10**8
             + (month.view(np.int64) % 12 + 1) * 10**6
             + ((day - month).view(np.int64) + 1) * 10**4 + minute // 60 * 100 + minute % 60)
    form = _TS_BYTES[:16]
    tsb = np.broadcast_to(form, (n, 16)).copy()
    tsb[:, form == ord("0")] = _digits(stamp, 12)
    d = _digits(np.abs(cents.T).astype(np.int64), 3)
    w = d.shape[-1]
    price = np.zeros((n, 4, w + 3), np.uint8)  # [-]digits.dd,
    price[:, :, 0] = np.where(np.signbit(ohlc.T), ord("-"), 0)
    price[:, :, 1:w - 1] = d[:, :, :-2]
    price[:, :, w - 1] = ord(".")
    price[:, :, w:w + 2] = d[:, :, -2:]
    price[:, :, w + 2] = ord(",")
    vol = _digits(volume, 1)
    text = np.concatenate([tsb, np.full((n, 1), ord(","), np.uint8), price.reshape(n, -1),
                           vol, np.full((n, 1), ord("\n"), np.uint8)], axis=1)
    return text[text != 0].tobytes().decode("ascii")


def serialize_days(days: Iterable[TradingDay], header_comment: str | None = None) -> str:
    """Serialize days back to the bar file format, which reads back as the same
    arrays: prices with two decimals, timestamps as ``YYYY-MM-DDTHH:MM``.

    Each price is written from its whole number of cents, each timestamp from
    its date and minute fields and each volume from its digits, as one byte
    matrix per ``_CHUNK_ROWS`` rows. A bar that text cannot hold exactly raises
    :class:`BarError` naming it, rather than being rounded into a bar that would
    read back as another: a price that is not finite or not the double of a
    whole number of cents below 2**53 (``c / 100 == x`` for ``c = rint(x * 100)``
    or a neighbour; 100.125 is refused, 0.07 and -39047116831841.73 are not), a
    timestamp with seconds or outside years 1-9999, or a negative volume.
    """
    days = list(days)
    ts = np.concatenate([np.empty(0, "M8[us]"), *(d.ts for d in days)])
    ohlc = np.concatenate([np.empty((4, 0)), *(d.ohlc for d in days)], axis=1)
    volume = np.concatenate([np.empty(0, np.int64), *(d.volume for d in days)],
                            dtype=np.int64)  # a float volume is a TypeError, not digits
    head = f"# {header_comment}\n" if header_comment else ""
    return "".join([head, BAR_HEADER, "\n", *(
        _rows(ts[a:a + _CHUNK_ROWS], ohlc[:, a:a + _CHUNK_ROWS], volume[a:a + _CHUNK_ROWS])
        for a in range(0, len(ts), _CHUNK_ROWS))])


def session_primitives(store: SessionStore) -> DayPrimitives:
    """``day_primitives`` of every day of ``store``, as arrays over its days, with NaN
    for no overnight gap; every day must hold as many bars, at least 6."""
    o, h, lo, c = store.by_day(store.ohlc)[:, :, :6]
    if store.days and o.shape[1] < 6:
        raise BarError(f"day {store.days[0].date}: need >= 6 bars for primitives, "
                       f"got {store.start[1]}")
    prior = np.array([d.prior_rth_close for d in store.days], dtype=float)  # None: NaN
    return DayPrimitives(opening_range_high=h.max(axis=1), opening_range_low=lo.min(axis=1),
                         overnight_gap=o[:, 0] - prior, first30_return=c[:, 5] - o[:, 0],
                         first_bar_volume=store.volume[store.start[:-1]])


def day_primitives(day: TradingDay) -> DayPrimitives:
    """Opening range over bars 0..5, overnight gap, first-30-minute return."""
    p = session_primitives(session_store([day]))
    return DayPrimitives(p.opening_range_high[0], p.opening_range_low[0],
                         None if day.prior_rth_close is None else p.overnight_gap[0],
                         p.first30_return[0], int(p.first_bar_volume[0]))


EVENT_HEADER = "ts,kind,impact,currency"


def parse_event_calendar(path: str | Path) -> list[EconEvent]:
    """Parse the economic-event calendar, keeping high-impact USD events.

    Only FOMC/CPI/NFP/PCE kinds qualify. Events at any time of day are kept;
    ``signals.events_by_day`` puts each in its session or drops it.
    """
    events: list[EconEvent] = []
    for i, ln in zip(*_data_rows(path, EVENT_HEADER, "calendar header")):
        parts = ln.split(",")
        if len(parts) != 4:
            raise BarError(f"line {i}: expected 4 columns, got {len(parts)}")
        try:
            ts = datetime.strptime(parts[0], TS_FORMAT)
        except ValueError as exc:
            raise BarError(f"line {i}: {exc}") from None
        if not _TS_FORM.fullmatch(parts[0]):  # strptime also reads 2022-1-3t9:45
            raise BarError(f"line {i}: {_TS_FORM_ERROR}")
        kind = EventKind(parts[1]) if parts[1] in EventKind.__members__ else EventKind.OTHER
        impact = parts[2].upper()
        if impact not in IMPACT_LEVELS:
            raise BarError(f"line {i}: unknown impact code {parts[2]!r}")
        ev = EconEvent(ts, kind, impact, parts[3].upper())
        if ev.impact != "HIGH" or ev.currency != "USD" or ev.kind not in QUALIFYING_KINDS:
            continue
        events.append(ev)
    return events
