"""Test-side construction of days and bar arrays from Bar rows."""
from __future__ import annotations

from datetime import date, datetime, timedelta
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
