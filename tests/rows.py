"""Test-side construction of days and bar arrays from Bar rows, and the
scalar session clock that ``SessionSpec.place`` replaced, as a reference."""
from __future__ import annotations

from datetime import date, datetime, time, timedelta
from typing import Iterable, Optional

import numpy as np

from falsify.bars import Bar, SessionSpec, TradingDay


def grid(session: SessionSpec, day: date) -> list[datetime]:
    """Expected bar-open timestamps for one session day."""
    t0 = datetime.combine(day, session.start)
    step = timedelta(minutes=session.bar_minutes)
    return [t0 + i * step for i in range(session.nominal_bar_count)]


def day_from_bars(d: date, session: SessionSpec, bars: Iterable[Bar],
                  prior_rth_close: Optional[float] = None, complete: bool = False) -> TradingDay:
    """A day holding ``bars`` (possibly none) as its arrays, with the given
    link and completeness and no check of either."""
    bars = list(bars)
    return TradingDay(d, session, np.array([b.ts for b in bars], dtype="M8[us]"),
                      *bar_arrays(bars), prior_rth_close, complete)


def bar_arrays(bars: Iterable[Bar]) -> tuple[np.ndarray, np.ndarray]:
    """The 4 x n prices and the int64 volumes of a run of Bar rows."""
    bars = list(bars)
    return (np.array([[b.open, b.high, b.low, b.close] for b in bars],
                     dtype=float).reshape(-1, 4).T.copy(),
            np.array([b.volume for b in bars], dtype=np.int64))


# -- the scalar session clock: one wrap-midnight branch per question ----------

# made-up sessions: one that wraps at an odd hour, with few bars, and one
# that ends where it starts, so lasts the whole day
ODD = SessionSpec("ODD", time(23, 45), time(0, 15), 15)
ALL_DAY = SessionSpec("ALL_DAY", time(17, 0), time(17, 0), 60)


def wraps_midnight(session: SessionSpec) -> bool:
    return session.end <= session.start


def contains(session: SessionSpec, t: time) -> bool:
    """Whether a bar *opening* at wall-clock ``t`` belongs to the session."""
    if wraps_midnight(session):
        return t >= session.start or t < session.end
    return session.start <= t < session.end


def session_date(session: SessionSpec, ts: datetime) -> date:
    """Session-local date: a wrapped session belongs to the date of its open."""
    if wraps_midnight(session) and ts.time() < session.end:
        return (ts - timedelta(days=1)).date()
    return ts.date()


def bar_index(session: SessionSpec, ts: datetime) -> int:
    """Index of the bar opening at ``ts`` within its session."""
    delta = ts - datetime.combine(session_date(session, ts), session.start)
    return (delta.days * 24 * 60 + delta.seconds // 60) // session.bar_minutes
