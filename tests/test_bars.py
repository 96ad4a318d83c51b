from __future__ import annotations

import random
from datetime import date, datetime, time, timedelta
from pathlib import Path

import pytest

from falsify.bars import (ASIA, LONDON, RTH, Bar, BarError, EventKind,
                          TradingDay, day_primitives, group_days,
                          parse_bar_file, parse_event_calendar, serialize_days)


def make_day(d: date, session=RTH, base: float = 100.0, volume: int = 500,
             closes=None) -> TradingDay:
    """Build a complete synthetic day with flat or given closes."""
    grid = session.grid(d)
    bars = []
    prev = base
    for i, ts in enumerate(grid):
        c = closes[i] if closes is not None else base
        hi = max(prev, c) + 1.0
        lo = min(prev, c) - 1.0
        bars.append(Bar(ts, prev, hi, lo, c, volume))
        prev = c
    return TradingDay(d, session, tuple(bars), None, True)


def write_bar_file(tmp_path: Path, days, name="bars.csv") -> Path:
    p = tmp_path / name
    p.write_text(serialize_days(days), encoding="utf-8")
    return p


# -- sessions ---------------------------------------------------------------

def test_session_bar_counts():
    assert RTH.nominal_bar_count == 78
    assert ASIA.nominal_bar_count == 72
    assert LONDON.nominal_bar_count == 22


def test_asia_wraps_midnight():
    assert ASIA.wraps_midnight
    assert not RTH.wraps_midnight
    # a bar opening at 01:55 belongs to the previous calendar date
    ts = datetime(2022, 3, 2, 1, 55)
    assert ASIA.session_date(ts) == date(2022, 3, 1)
    assert ASIA.session_date(datetime(2022, 3, 1, 20, 0)) == date(2022, 3, 1)


def test_bar_index_across_midnight():
    assert ASIA.bar_index(datetime(2022, 3, 1, 20, 0)) == 0
    assert ASIA.bar_index(datetime(2022, 3, 2, 1, 55)) == 71
    assert RTH.bar_index(datetime(2022, 3, 1, 9, 30)) == 0
    assert RTH.bar_index(datetime(2022, 3, 1, 15, 55)) == 77


def test_session_grid_is_contiguous():
    grid = LONDON.grid(date(2022, 5, 2))
    assert grid[0] == datetime(2022, 5, 2, 3, 0)
    assert grid[-1] == datetime(2022, 5, 2, 8, 15)
    steps = {(b - a) for a, b in zip(grid, grid[1:])}
    assert steps == {timedelta(minutes=15)}


# -- bar validation ----------------------------------------------------------

def test_bar_rejects_low_above_high():
    b = Bar(datetime(2022, 1, 3, 9, 30), 100.0, 99.0, 101.0, 100.0, 1)
    with pytest.raises(BarError):
        b.validate()


def test_bar_rejects_close_outside_range():
    b = Bar(datetime(2022, 1, 3, 9, 30), 100.0, 101.0, 99.0, 102.0, 1)
    with pytest.raises(BarError):
        b.validate()


# -- parsing ----------------------------------------------------------------

def test_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("", encoding="utf-8")
    assert parse_bar_file(p, RTH) == []


def test_one_complete_rth_day(tmp_path):
    day = make_day(date(2022, 1, 3))
    p = write_bar_file(tmp_path, [day])
    days = parse_bar_file(p, RTH)
    assert len(days) == 1
    assert days[0].complete
    assert len(days[0].bars) == 78


def test_malformed_row_names_line_number(tmp_path):
    day = make_day(date(2022, 1, 3))
    lines = serialize_days([day]).splitlines()
    lines[5] = "garbage"  # physical line 6 (1-based, header is line 1)
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BarError, match="line 6"):
        parse_bar_file(p, RTH)


def test_line_numbers_count_comment_lines(tmp_path):
    day = make_day(date(2022, 1, 3))
    lines = serialize_days([day], header_comment="synthetic").splitlines()
    lines[5] = "garbage"  # physical line 6, after the comment and the header
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BarError, match="line 6:"):
        parse_bar_file(p, RTH)


def test_high_below_low_names_bar(tmp_path):
    day = make_day(date(2022, 1, 3))
    lines = serialize_days([day]).splitlines()
    ts, o, h, lo, c, v = lines[3].split(",")
    lines[3] = ",".join([ts, o, lo, h, c, v])  # swap high/low
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BarError, match="line 4"):
        parse_bar_file(p, RTH)


def test_unsorted_input_rejected(tmp_path):
    day = make_day(date(2022, 1, 3))
    lines = serialize_days([day]).splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BarError, match="unsorted"):
        parse_bar_file(p, RTH)


def test_incomplete_day_flagged_not_dropped(tmp_path):
    day = make_day(date(2022, 1, 3))
    short = TradingDay(day.date, RTH, day.bars[:40], None, False)
    p = write_bar_file(tmp_path, [short])
    days = parse_bar_file(p, RTH)
    assert len(days) == 1
    assert not days[0].complete
    assert len(days[0].bars) == 40


def test_prior_rth_close_linked_across_days(tmp_path):
    d1 = make_day(date(2022, 1, 3), base=100.0)
    d2 = make_day(date(2022, 1, 4), base=105.0)
    p = write_bar_file(tmp_path, [d1, d2])
    days = parse_bar_file(p, RTH)
    assert days[0].prior_rth_close is None
    assert days[1].prior_rth_close == d1.bars[-1].close


def test_incomplete_prior_day_breaks_gap_link(tmp_path):
    d1 = make_day(date(2022, 1, 3))
    short = TradingDay(d1.date, RTH, d1.bars[:10], None, False)
    d2 = make_day(date(2022, 1, 4))
    p = write_bar_file(tmp_path, [short, d2])
    days = parse_bar_file(p, RTH)
    assert days[1].prior_rth_close is None


def test_asia_day_grouping_across_midnight(tmp_path):
    day = make_day(date(2022, 3, 1), session=ASIA)
    p = write_bar_file(tmp_path, [day])
    days = parse_bar_file(p, ASIA)
    assert len(days) == 1
    assert days[0].date == date(2022, 3, 1)
    assert days[0].complete


def test_round_trip_serialization(tmp_path):
    rng = random.Random(7)
    closes = [100.0 + rng.randint(-40, 40) * 0.25 for _ in range(78)]
    day = make_day(date(2022, 1, 3), closes=closes)
    text = serialize_days([day])
    p = tmp_path / "bars.csv"
    p.write_text(text, encoding="utf-8")
    parsed = parse_bar_file(p, RTH)
    assert serialize_days(parsed) == text


def test_every_bar_lands_in_exactly_one_day():
    days_in = [make_day(date(2022, 1, 3)), make_day(date(2022, 1, 4), session=RTH)]
    all_bars = [b for d in days_in for b in d.bars]
    out = group_days(all_bars, RTH)
    assert sum(len(d.bars) for d in out) == len(all_bars)
    seen = set()
    for d in out:
        for b in d.bars:
            assert b.ts not in seen
            seen.add(b.ts)


# -- day primitives ----------------------------------------------------------

def test_opening_range_uses_first_six_bars():
    d = date(2022, 1, 3)
    grid = RTH.grid(d)
    highs = [10, 11, 12, 11, 10, 9]
    bars = [Bar(grid[i], 8.0, float(highs[i]), 7.0, 8.0, 1) for i in range(6)]
    # later bars go higher; the opening range must ignore them
    bars += [Bar(grid[i], 8.0, 20.0, 7.0, 8.0, 1) for i in range(6, 10)]
    day = TradingDay(d, RTH, tuple(bars), None, False)
    prims = day_primitives(day)
    assert prims.opening_range_high == 12.0
    assert prims.opening_range_low == 7.0


def test_overnight_gap_is_open_minus_prior_close():
    day = make_day(date(2022, 1, 4), base=95.0)
    day = TradingDay(day.date, RTH, day.bars, prior_rth_close=100.0, complete=True)
    assert day_primitives(day).overnight_gap == -5.0


def test_gap_absent_without_prior_close():
    day = make_day(date(2022, 1, 3))
    assert day_primitives(day).overnight_gap is None


def test_primitives_need_six_bars():
    day = make_day(date(2022, 1, 3))
    short = TradingDay(day.date, RTH, day.bars[:5], None, False)
    with pytest.raises(BarError):
        day_primitives(short)


def test_first30_return_sign():
    closes = [100.0] * 78
    closes[5] = 108.0
    day = make_day(date(2022, 1, 3), closes=closes)
    prims = day_primitives(day)
    assert prims.first30_return == day.bars[5].close - day.bars[0].open


# -- event calendar ----------------------------------------------------------

def write_calendar(tmp_path, rows) -> Path:
    p = tmp_path / "events.csv"
    p.write_text("ts,kind,impact,currency\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return p


def test_premarket_nfp_excluded_with_rth_only(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-03T08:30,NFP,HIGH,USD"])
    assert parse_event_calendar(p, rth_only=True) == []
    assert len(parse_event_calendar(p, rth_only=False)) == 1


def test_fomc_1400_kept_with_rth_only(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-15T14:00,FOMC,HIGH,USD"])
    events = parse_event_calendar(p, rth_only=True)
    assert len(events) == 1
    assert events[0].kind == EventKind.FOMC


def test_non_usd_and_low_impact_filtered(tmp_path):
    p = write_calendar(tmp_path, [
        "2022-06-15T14:00,CPI,HIGH,EUR",
        "2022-06-15T14:30,CPI,MEDIUM,USD",
        "2022-06-15T15:00,PCE,HIGH,USD",
    ])
    events = parse_event_calendar(p)
    assert [e.kind for e in events] == [EventKind.PCE]


def test_unknown_impact_code_rejected(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-15T14:00,CPI,EXTREME,USD"])
    with pytest.raises(BarError, match="impact"):
        parse_event_calendar(p)


def test_calendar_error_names_physical_line(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-15T14:00,CPI,EXTREME,USD"])
    with pytest.raises(BarError, match="line 2:"):  # the header is line 1
        parse_event_calendar(p)
    p.write_text("# calendar\n" + p.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(BarError, match="line 3:"):
        parse_event_calendar(p)


def test_unknown_kind_treated_as_other_and_filtered(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-15T14:00,RETAIL,HIGH,USD"])
    assert parse_event_calendar(p) == []
