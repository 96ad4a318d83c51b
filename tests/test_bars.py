from __future__ import annotations

import random
import re
import tempfile
import warnings
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rows
from rows import day_from_bars
from falsify.bars import (ASIA, BAR_HEADER, LONDON, RTH, TS_FORMAT, Bar, BarError, EventKind,
                          SessionSpec, TradingDay, day_primitives, group_days, link_rth,
                          parse_bar_file, parse_event_calendar, serialize_days)
from falsify.signals import events_by_day


def make_day(d: date, session=RTH, base: float = 100.0, volume: int = 500,
             closes=None) -> TradingDay:
    """Build a complete synthetic day with flat or given closes."""
    grid = rows.grid(session, d)
    bars = []
    prev = base
    for i, ts in enumerate(grid):
        c = closes[i] if closes is not None else base
        hi = max(prev, c) + 1.0
        lo = min(prev, c) - 1.0
        bars.append(Bar(ts, prev, hi, lo, c, volume))
        prev = c
    return day_from_bars(d, session, bars, None, True)


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
    grid = rows.grid(LONDON, date(2022, 5, 2))
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


@pytest.mark.parametrize("prices", [
    (100.0, 101.0, 99.0, float("nan")),
    (100.0, float("inf"), 99.0, 100.0),
    (100.0, 101.0, float("-inf"), 100.0),
    (float("nan"),) * 4,
])
def test_bar_rejects_non_finite_prices(prices):
    # every comparison with NaN is False, so the range checks alone pass these
    with pytest.raises(BarError, match="non-finite price"):
        Bar(datetime(2022, 1, 3, 9, 30), *prices, 1).validate()


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


@pytest.mark.parametrize("field,text", [(4, "nan"), (2, "inf"), (3, "-Infinity"), (2, "1e999")])
def test_non_finite_price_names_line(tmp_path, field, text):
    lines = serialize_days([make_day(date(2022, 1, 3))]).splitlines()
    parts = lines[7].split(",")
    parts[field] = text
    lines[7] = ",".join(parts)
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BarError, match=r"^line 8: bar 2022-01-03 10:00:00: non-finite price$"):
        parse_bar_file(p, RTH)


def test_incomplete_day_flagged_not_dropped(tmp_path):
    day = make_day(date(2022, 1, 3))
    short = day_from_bars(day.date, RTH, day.bars[:40], None, False)
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
    short = day_from_bars(d1.date, RTH, d1.bars[:10], None, False)
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


def f_string_writer(days, header_comment=None):
    """The bar writer as it was before it formatted arrays: one f-string per bar."""
    out = []
    if header_comment:
        out.append(f"# {header_comment}")
    out.append(BAR_HEADER)
    for day in days:
        for ts, o, h, lo, c, v in zip(np.datetime_as_string(day.ts, unit="m").tolist(),
                                      *day.ohlc.tolist(), day.volume.tolist()):
            out.append(f"{ts},{o:.2f},{h:.2f},{lo:.2f},{c:.2f},{v}")
    return "\n".join(out) + "\n"


def columns(days):
    """The days' timestamps, 4 x n prices and volumes, laid end to end."""
    return (np.concatenate([np.empty(0, "M8[us]"), *(d.ts for d in days)]),
            np.concatenate([np.empty((4, 0)), *(d.ohlc for d in days)], axis=1),
            np.concatenate([np.empty(0, np.int64), *(d.volume for d in days)]))


# a session from midnight to midnight, which every bar opens inside
WHOLE_DAY = SessionSpec("WHOLE_DAY", time(0, 0), time(0, 0), 1)
MINUTES = (int(np.datetime64("0001-01-01T00:00", "m").astype(np.int64)),
           int(np.datetime64("9999-12-31T23:59", "m").astype(np.int64)))
CENTS = st.one_of(st.integers(-300, 300), st.integers(-10**12, 10**12))


@st.composite
def writable_days(draw):
    """Days of bars that text holds exactly, timestamps rising across them: whole
    cents (a zero drawn as 0.0 or -0.0), whole minutes in years 1-9999 and volumes
    up to 2**53, each bar's low and high bounding its open and close."""
    minutes = sorted(draw(st.sets(st.integers(*MINUTES), max_size=40)))
    prices = []
    for _ in minutes:
        lo, a, b, hi = sorted(draw(st.lists(CENTS, min_size=4, max_size=4)))
        o, c = draw(st.permutations([a, b]))
        prices.append([x / 100 if x or draw(st.booleans()) else -0.0 for x in (o, hi, lo, c)])
    volume = draw(st.lists(st.integers(0, 2**53), min_size=len(minutes), max_size=len(minutes)))
    cuts = sorted(draw(st.lists(st.integers(0, len(minutes)), max_size=3)))
    bounds = [0, *cuts, len(minutes)] if minutes or cuts else []  # no bounds: no days
    ts = np.array(minutes, dtype="M8[m]").astype("M8[us]")
    ohlc = np.array(prices, dtype=float).reshape(-1, 4).T.copy()
    return [TradingDay(date(2022, 1, 3), WHOLE_DAY, ts[a:b], ohlc[:, a:b],
                       np.array(volume[a:b], dtype=np.int64)) for a, b in zip(bounds, bounds[1:])]


# 0.07 * 100 is not 7.0, -0.0 is written "-0.00", and the extremes of each field
EDGES = TradingDay(date(1, 1, 1), WHOLE_DAY,
                   np.array(["0001-01-01T00:00", "9999-12-31T23:59"], dtype="M8[us]"),
                   np.array([[0.07, -0.07], [0.07, 1e10], [-0.0, -1e10], [-0.0, 9999999999.99]]),
                   np.array([0, 2**53], dtype=np.int64))

# whole cents whose x * 100 rounds to a half cent, so that rint(x * 100) is a
# cent off: the cents written are its neighbour
BIG_CENTS = TradingDay(date(2022, 1, 3), WHOLE_DAY,
                       np.array(["2022-01-03T09:30"], dtype="M8[us]"),
                       np.array([[-39047116831841.73]] * 4), np.array([1], dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(days=writable_days(),
       header=st.one_of(st.none(), st.just(""), st.text(alphabet="ab =.,#-", max_size=20)))
@example(days=[], header=None)
@example(days=[], header="synthetic")
@example(days=[EDGES], header=None)
@example(days=[BIG_CENTS], header=None)
def test_serialize_days_writes_what_the_f_string_writer_wrote(days, header):
    text = serialize_days(days, header_comment=header)
    assert text == f_string_writer(days, header)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "bars.csv"
        p.write_text(text, encoding="utf-8")
        parsed = parse_bar_file(p, WHOLE_DAY)
    for got, want in zip(columns(parsed), columns(days)):  # bit for bit: -0.0 is not 0.0
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field,value,error", [
    ("open", 100.125, "bar 2022-01-04 09:40:00: price 100.125 is not a whole number of cents "
                      "under 2**53"),
    ("close", 0.001, "bar 2022-01-04 09:40:00: price 0.001 is not a whole number of cents "
                     "under 2**53"),
    ("high", 1e14, "bar 2022-01-04 09:40:00: price 100000000000000.0 is not a whole number of "
                   "cents under 2**53"),
    ("low", float("nan"), "bar 2022-01-04 09:40:00: non-finite price"),
    ("high", float("inf"), "bar 2022-01-04 09:40:00: non-finite price"),
    ("ts", "2022-01-04T09:40:30", "bar 2022-01-04 09:40:30: timestamp is not a whole minute"),
    ("ts", "2022-01-04T09:40:00.000001",
     "bar 2022-01-04 09:40:00.000001: timestamp is not a whole minute"),
    ("ts", "10000-01-04T09:40", "bar 10000-01-04T09:40:00.000000: timestamp outside years 1-9999"),
    ("ts", "NaT", "bar NaT: timestamp outside years 1-9999"),
    ("volume", -1, "bar 2022-01-04 09:40:00: negative volume -1"),
], ids=["eighth", "tenth_of_a_cent", "2**53_cents", "nan", "inf", "second", "microsecond",
        "year_10000", "nat", "negative_volume"])
def test_serialize_days_refuses_a_bar_text_cannot_hold(field, value, error):
    # the third bar of the second day: the error names it, not the first bar
    day = make_day(date(2022, 1, 4))
    ts, ohlc, volume = day.ts.copy(), day.ohlc.copy(), day.volume.copy()
    if field == "ts":
        ts[2] = np.datetime64(value, "us")
    elif field == "volume":
        volume[2] = value
    else:
        ohlc["open high low close".split().index(field), 2] = value
    bad = TradingDay(day.date, RTH, ts, ohlc, volume, complete=True)
    with pytest.raises(BarError, match=f"^{re.escape(error)}$"):
        serialize_days([make_day(date(2022, 1, 3)), bad], header_comment="synthetic")


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


# -- the array parser against the row-at-a-time parser it replaced ------------------

def reference_validate(bar: Bar) -> None:
    if bar.low > bar.high:
        raise BarError(f"bar {bar.ts}: low {bar.low} > high {bar.high}")
    if bar.low > min(bar.open, bar.close) or bar.high < max(bar.open, bar.close):
        raise BarError(f"bar {bar.ts}: open/close outside low/high range")
    if bar.volume < 0:
        raise BarError(f"bar {bar.ts}: negative volume {bar.volume}")


def reference_row(line: str, lineno: int) -> Bar:
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
        reference_validate(bar)
    except BarError as exc:
        raise BarError(f"line {lineno}: {exc}") from None
    return bar


def reference_group_days(bars: Iterable[Bar], session: SessionSpec) -> list[TradingDay]:
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
    days = []
    for d in order:
        day_bars = tuple(grouped[d])
        complete = (len(day_bars) == session.nominal_bar_count
                    and [b.ts for b in day_bars] == rows.grid(session, d))
        days.append(day_from_bars(d, session, day_bars, complete=complete))
    return link_rth(days)


def reference_parse_bar_file(path: Path, session: SessionSpec) -> list[TradingDay]:
    """The parser as it was: one row at a time, then one bar at a time."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.startswith("#")]
    if rows and rows[0][1] != BAR_HEADER:
        raise BarError(f"bad header: {rows[0][1]!r}")
    return reference_group_days([reference_row(ln, i) for i, ln in rows[1:]], session)


def fingerprint(days: list[TradingDay]) -> list:
    """Type and repr of every field of every day and bar."""
    tr = lambda x: (type(x), repr(x))
    return [(tr(d.date), d.session, tr(d.prior_rth_close), tr(d.complete), type(d.bars),
             [(type(b), *map(tr, (b.ts, b.open, b.high, b.low, b.close, b.volume)))
              for b in d.bars]) for d in days]


def outcome(parse, path: Path, session: SessionSpec):
    try:
        return fingerprint(parse(path, session))
    except BarError as exc:
        return str(exc)


OUTSIDE = {"RTH": ("08:00", "16:00", "09:29"), "ASIA": ("12:00", "02:00", "19:55"),
           "LONDON": ("02:45", "08:30", "12:00")}
BAD_TS = ("2022-13-01T09:30", "2022-00-01T09:30", "2022-01-00T09:30", "2022-01-03 09:30",
          "2022-01-03T09:30:00", "garbage", "2022-02-30T09:30", "2021-02-29T09:30",
          "2022-04-31T09:30", "2022-01-03T24:00", "2022-01-03T09:60", "0000-01-03T09:30", "")
BAD_NUMBERS = ("x", "", "1.2.3", "--1", "0x10", "1,5", "1 2", "abc at row 3")
FLOAT_VOLUMES = ("500.0", "1e3", "500.7")
MUTATIONS = ("garbage", "field", "columns", "swap_hl", "neg_volume", "unsorted",
             "duplicate", "outside", "off_grid", "indented_comment")


@st.composite
def bar_files(draw):
    """A bar file's text and session: comment and blank lines, complete and
    incomplete days, varied number spellings and some mutated rows."""
    session = draw(st.sampled_from([RTH, ASIA, LONDON]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    fmt = draw(st.sampled_from(["{:.2f}", "{!r}", " {:.2f} ", "{:.6e}", "+{:.2f}"]))
    vfmt = draw(st.sampled_from(["{}", "+{}", "{:05d}", " {} "]))
    start = date(2021, 12, 27) + timedelta(days=draw(st.integers(0, 10)))
    records = []
    price = 15000.0
    for k in range(draw(st.integers(1, 3))):
        grid = rows.grid(session, start + timedelta(days=k))
        keep = draw(st.sampled_from(["all", "all", "head", "tail", "holes"]))
        if keep == "head":
            grid = grid[:rng.randint(1, len(grid))]
        elif keep == "tail":
            grid = grid[rng.randint(0, len(grid) - 1):]
        elif keep == "holes":
            grid = [ts for ts in grid if rng.random() < 0.9]
        for ts in grid:
            o = price
            c = o + rng.randint(-12, 12) * 0.25
            h = max(o, c) + rng.randint(0, 6) * 0.25
            lo = min(o, c) - rng.randint(0, 6) * 0.25
            records.append([ts.strftime(TS_FORMAT), *(fmt.format(x) for x in (o, h, lo, c)),
                            vfmt.format(rng.randint(0, 5000))])
            price = c
    lines = [",".join(r) for r in records]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        i = rng.randrange(len(lines)) if lines else None
        parts = lines[i].split(",") if lines else []
        if len(parts) != 6:  # no rows, or a row an earlier mutation broke
            continue
        if kind == "garbage":
            lines[i] = rng.choice(["garbage", "abc,def", ",,,,,", "1,2,3,4,5,6"])
        elif kind == "field":
            j = rng.choice([0, 0, 0, 1, 2, 3, 4, 5])
            parts[j] = rng.choice(BAD_TS if j == 0 else BAD_NUMBERS)
            lines[i] = ",".join(parts)
        elif kind == "columns":
            lines[i] = ",".join(parts[:-1]) if rng.random() < 0.5 else lines[i] + ",7"
        elif kind == "swap_hl":
            parts[2], parts[3] = parts[3], parts[2]
            lines[i] = ",".join(parts)
        elif kind == "neg_volume":
            parts[5] = str(-rng.randint(1, 99))
            lines[i] = ",".join(parts)
        elif kind == "unsorted" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "outside":
            parts[0] = parts[0][:11] + rng.choice(OUTSIDE[session.name])
            lines[i] = ",".join(parts)
        elif kind == "off_grid" and parts[0][-1:].isdigit():
            parts[0] = parts[0][:-1] + str(int(parts[0][-1]) + 1)
            lines[i] = ",".join(parts)
        elif kind == "indented_comment":
            lines.insert(i, "  # an indented comment is a data row")
    header = rng.choice([BAR_HEADER, "  " + BAR_HEADER + " "])
    if draw(st.integers(0, 19)) == 0:
        header = rng.choice(["ts,open,high,low,close", "TS,OPEN,HIGH,LOW,CLOSE,VOLUME"])
    lines.insert(0, header)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# comment", "", "   ", "#", "\t"]))
    lines = [ln + rng.choice(["", " ", "\t"]) if rng.random() < 0.1 else ln for ln in lines]
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
    return text, session


@settings(max_examples=400, deadline=None)
@given(bar_files())
@example(("", RTH))
@example((BAR_HEADER + "\n", ASIA))
@example(("# bars\nts,open,high,low,close\n2022-01-03T09:30,1,1,1,1,1\n", RTH))
def test_array_parser_matches_row_parser(case):
    text, session = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(reference_parse_bar_file, path, session)
        assert outcome(parse_bar_file, path, session) == want
        if not isinstance(want, str):
            days = reference_parse_bar_file(path, session)
            bars = [b for d in days for b in d.bars]
            assert fingerprint(group_days(bars, session)) == want


@pytest.mark.parametrize("field,bad", [(0, t) for t in BAD_TS + ("2022-01-03T09:30\0",)]
                         + [(f, x) for f in range(1, 6) for x in BAD_NUMBERS + ("1\0", "-5")]
                         + [(5, v) for v in FLOAT_VOLUMES])
def test_each_bad_field_matches_row_parser(tmp_path, field, bad):
    lines = serialize_days([make_day(date(2022, 1, 3))]).splitlines()
    parts = lines[4].split(",")
    parts[field] = bad
    lines[4] = ",".join(parts)
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert outcome(parse_bar_file, path, RTH) == outcome(reference_parse_bar_file, path, RTH)


@pytest.mark.parametrize("volume", FLOAT_VOLUMES)
def test_volume_read_via_float_with_a_warning_is_rejected(tmp_path, monkeypatch, volume):
    # some numpy releases read "1e3" into an int column via float and only
    # warn; the parser must still reject the row as the row parser does
    real = np.loadtxt

    def lenient(rows, **kw):
        fixed = [r.replace(volume, str(int(float(volume)))) for r in rows]
        if fixed != rows:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        return real(fixed, **kw)

    lines = serialize_days([make_day(date(2022, 1, 3))]).splitlines()
    lines[4] = lines[4].rpartition(",")[0] + "," + volume
    path = tmp_path / "bars.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setattr(np, "loadtxt", lenient)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(BarError, match=f"^line 5: invalid literal for int.*'{volume}'"):
            parse_bar_file(path, RTH)


def test_day_ohlc_is_a_read_only_copy_of_the_bar_prices():
    day = make_day(date(2022, 1, 3), closes=[100.0 + (i % 5) for i in range(78)])
    ohlc = day.ohlc
    assert ohlc is day.ohlc and ohlc.shape == (4, 78) and not ohlc.flags.writeable
    for row, name in zip(ohlc, ("open", "high", "low", "close")):
        assert row.tolist() == [getattr(b, name) for b in day.bars]
    assert day_from_bars(day.date, RTH, (), None, False).ohlc.shape == (4, 0)


@settings(max_examples=200, deadline=None)
@given(session=st.sampled_from([RTH, ASIA, LONDON]),
       offsets=st.lists(st.integers(-3 * 86_400, 6 * 86_400), max_size=60),
       seconds=st.booleans())
def test_group_days_matches_day_loop(session, offsets, seconds):
    # any datetimes, not only whole minutes: sorted, unsorted, off-grid, outside
    t0 = datetime(2022, 3, 1, 0, 0)
    step = 1 if seconds else 60
    bars = [Bar(t0 + timedelta(seconds=step * (x // step)), 1.0, 1.0, 1.0, 1.0, 1)
            for x in offsets]
    if len(bars) > 2 and offsets[0] % 2:
        bars.sort(key=lambda b: b.ts)
    try:
        want = fingerprint(reference_group_days(bars, session))
    except BarError as exc:
        want = str(exc)
    try:
        got = fingerprint(group_days(bars, session))
    except BarError as exc:
        got = str(exc)
    assert got == want


# Inputs the row parser took and the array parser rejects, each with the
# line that holds it: numbers and timestamps are read in one fixed form.

def parse_one_row(tmp_path, row: str):
    p = tmp_path / "bars.csv"
    p.write_text(f"# note\n{BAR_HEADER}\n{row}\n", encoding="utf-8")
    return parse_bar_file(p, RTH)


@pytest.mark.parametrize("ts", ["2022-1-3T9:30", "2022-01-03t09:30", "2022-01- 3T09:30"])
def test_timestamp_must_be_zero_padded(tmp_path, ts):
    row = f"{ts},100,101,99,100,5"
    with pytest.raises(BarError, match=r"^line 3: timestamp is not zero-padded YYYY-MM-DDTHH:MM$"):
        parse_one_row(tmp_path, row)


@pytest.mark.parametrize("row,bad", [
    ("2022-01-03T09:30,1_00,101,99,100,5", "'1_00' to float64"),
    ("2022-01-03T09:30,١٠٠,101,99,100,5", "'١٠٠' to float64"),
    ("2022-01-03T09:30,100,101,99,100,1_000", "'1_000' to int64"),
    ("2022-01-03T09:30,100,101,99,100,99999999999999999999", "to int64"),
])
def test_numbers_must_be_plain_ascii_in_range(tmp_path, row, bad):
    with pytest.raises(BarError, match=rf"^line 3: could not convert string .*{bad}$"):
        parse_one_row(tmp_path, row)


@pytest.mark.parametrize("ts", ["2022-02-30T09:30", "2022-13-01T09:30", "2022-01-03T24:00"])
def test_invalid_date_late_in_a_long_file(tmp_path, ts):
    # numpy's string-to-datetime cast crashes on arrays this long with an
    # invalid date in them, so the parser must never hand it one
    days = [make_day(date(2022, 1, 3) + timedelta(days=k)) for k in range(14)]
    lines = serialize_days(days).splitlines()
    lines[-1] = ts + lines[-1][16:]
    p = tmp_path / "bars.csv"
    p.write_text("\n".join(lines), encoding="utf-8")
    want = outcome(reference_parse_bar_file, p, RTH)
    assert want.startswith(f"line {len(lines)}: ")
    assert outcome(parse_bar_file, p, RTH) == want


@pytest.mark.parametrize("strict_at,garbage_at,want", [(30, 50, 30), (50, 30, 30), (77, None, 77)])
def test_first_bad_row_wins_whichever_rule_it_breaks(tmp_path, strict_at, garbage_at, want):
    lines = serialize_days([make_day(date(2022, 1, 3))]).splitlines()
    lines[strict_at] = lines[strict_at].rsplit(",", 1)[0] + ",5_0"
    if garbage_at is not None:
        lines[garbage_at] = "garbage"
    p = tmp_path / "bars.csv"
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(BarError, match=f"^line {want + 1}: "):
        parse_bar_file(p, RTH)


def test_declared_differences_were_accepted_before(tmp_path):
    # the row parser's bars; a volume beyond 64 bits fits no day's int64 array
    for row in ("2022-1-3T9:30,100,101,99,100,5", "2022-01-03T09:30,1_00,101,99,100,1_000",
                "2022-01-03T09:30,100,101,99,100,99999999999999999999"):
        p = tmp_path / "bars.csv"
        p.write_text(f"{BAR_HEADER}\n{row}\n", encoding="utf-8")
        assert RTH.contains(reference_row(row, 2).ts.time())
        with pytest.raises(BarError, match="^line 2: "):
            parse_bar_file(p, RTH)


# -- day primitives ----------------------------------------------------------

def test_opening_range_uses_first_six_bars():
    d = date(2022, 1, 3)
    grid = rows.grid(RTH, d)
    highs = [10, 11, 12, 11, 10, 9]
    bars = [Bar(grid[i], 8.0, float(highs[i]), 7.0, 8.0, 1) for i in range(6)]
    # later bars go higher; the opening range must ignore them
    bars += [Bar(grid[i], 8.0, 20.0, 7.0, 8.0, 1) for i in range(6, 10)]
    day = day_from_bars(d, RTH, bars, None, False)
    prims = day_primitives(day)
    assert prims.opening_range_high == 12.0
    assert prims.opening_range_low == 7.0


def test_overnight_gap_is_open_minus_prior_close():
    day = make_day(date(2022, 1, 4), base=95.0)
    day = day_from_bars(day.date, RTH, day.bars, prior_rth_close=100.0, complete=True)
    assert day_primitives(day).overnight_gap == -5.0


def test_gap_absent_without_prior_close():
    day = make_day(date(2022, 1, 3))
    assert day_primitives(day).overnight_gap is None


def test_primitives_need_six_bars():
    day = make_day(date(2022, 1, 3))
    short = day_from_bars(day.date, RTH, day.bars[:5], None, False)
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


def test_premarket_nfp_excluded_from_rth_days(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-03T08:30,NFP,HIGH,USD"])
    events = parse_event_calendar(p)
    assert len(events) == 1  # the parser keeps a qualifying release at any time
    assert events_by_day(events, RTH) == {}


def test_fomc_1400_kept_on_its_rth_day(tmp_path):
    p = write_calendar(tmp_path, ["2022-06-15T14:00,FOMC,HIGH,USD"])
    by_day = events_by_day(parse_event_calendar(p), RTH)
    assert list(by_day) == [date(2022, 6, 15)]
    assert [e.kind for e in by_day[date(2022, 6, 15)]] == [EventKind.FOMC]


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


@pytest.mark.parametrize("ts", ["2022-1-3t9:45", "2022-01-03t09:45", "2022-1-03T09:45",
                                "2022-01-03T9:45"])
def test_calendar_timestamps_are_zero_padded_like_bar_files(tmp_path, ts):
    bars = tmp_path / "bars.csv"
    bars.write_text(f"{BAR_HEADER}\n{ts},1,1,1,1,1\n", encoding="utf-8")
    with pytest.raises(BarError) as bar_error:
        parse_bar_file(bars, RTH)
    p = write_calendar(tmp_path, ["2022-01-03T10:00,CPI,HIGH,USD", f"{ts},CPI,HIGH,USD"])
    p.write_text("# calendar\n\n" + p.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(BarError) as cal_error:
        parse_event_calendar(p)
    assert str(cal_error.value) == str(bar_error.value).replace("line 2:", "line 5:")
    assert str(cal_error.value) == "line 5: timestamp is not zero-padded YYYY-MM-DDTHH:MM"


def test_calendar_keeps_strptime_messages_and_wants_ascii_digits(tmp_path):
    p = write_calendar(tmp_path, ["2022-02-30T10:00,CPI,HIGH,USD"])
    with pytest.raises(BarError, match="line 2: day is out of range for month"):
        parse_event_calendar(p)
    p = write_calendar(tmp_path, ["２０２２-01-03T09:45,CPI,HIGH,USD"])
    with pytest.raises(BarError, match="line 2: timestamp is not zero-padded"):
        parse_event_calendar(p)
