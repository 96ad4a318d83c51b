from __future__ import annotations

from dataclasses import fields
from datetime import date, time, timedelta
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rows
from rows import day_from_bars
from falsify.bars import Bar, RTH, TradingDay, session_store
from falsify.execution import (ExecutionError, ExitKind, ExitReason, ExitSpec,
                               Instrument, MNQ, Rejection, SimResult, TradeRecord,
                               aggregate_by_year, fill_days, serialize_trades, simulate)
from falsify.signals import LONG, SHORT, SignalEvent

CENT = Instrument("TEST", 0.01)


def day_from_closes(closes, d=date(2022, 1, 3), highs=None, lows=None,
                    opens=None):
    grid = rows.grid(RTH, d)
    bars = []
    prev = closes[0]
    for i, c in enumerate(closes):
        o = opens[i] if opens is not None else prev
        hi = highs[i] if highs is not None else max(o, c)
        lo = lows[i] if lows is not None else min(o, c)
        bars.append(Bar(grid[i], float(o), float(hi), float(lo), float(c), 100))
        prev = c
    return day_from_bars(d, RTH, bars, None, len(bars) == len(grid))


def ev(bar_index, direction=LONG, family="ORB_LONG"):
    return SignalEvent(family, date(2022, 1, 3), bar_index, direction)


def one_trade(closes, event, exit, instrument=MNQ, **day_kwargs):
    res = simulate([event], [day_from_closes(closes, **day_kwargs)], exit, instrument)
    assert len(res.trades) == 1, res.rejections
    return res.trades[0]


# -- entry and horizon exits ----------------------------------------------------

def test_horizon_one_hand_walk():
    closes = [100.0] * 78
    closes[10] = 100.0  # signal bar
    closes[11] = 103.0  # entry bar: opens at 100, closes at 103
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.HORIZON, horizon=1))
    assert t.entry_bar == 11
    assert t.entry_price == 100.0
    assert t.exit_bar == 11
    assert t.exit_price == 103.0
    assert t.gross == 3.0
    assert t.net == 1.0
    assert t.exit_reason == ExitReason.HORIZON


def test_horizon_exit_is_close_of_offset_bar():
    closes = list(np.linspace(100, 120, 78).round(2))
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.HORIZON, horizon=6),
                  instrument=CENT)
    assert t.entry_bar == 11
    assert t.exit_bar == 16  # entry bar + horizon - 1 == signal bar + horizon
    assert t.exit_price == closes[16]


def test_short_direction_sign():
    closes = [100.0] * 78
    closes[11] = 95.0
    t = one_trade(closes, ev(10, SHORT), ExitSpec(ExitKind.HORIZON, horizon=1))
    assert t.gross == 5.0
    assert t.net == 3.0


def test_friction_arithmetic_on_reported_pairs():
    # gross/net pairs under the fixed 2.0-point round trip
    pairs = [(16.52, 14.52), (3.37, 1.37), (1.06, -0.94)]
    for gross, net in pairs:
        closes = [100.0] * 78
        closes[11] = 100.0 + gross
        t = one_trade(closes, ev(10), ExitSpec(ExitKind.HORIZON, horizon=1),
                      instrument=CENT)
        assert t.gross == pytest.approx(gross, abs=1e-9)
        assert t.net == pytest.approx(net, abs=1e-9)


def test_session_end_clipping():
    closes = [100.0] * 78
    closes[-1] = 104.0
    t = one_trade(closes, ev(75), ExitSpec(ExitKind.HORIZON, horizon=10))
    assert t.exit_bar == 77
    assert t.exit_price == 104.0
    assert t.exit_reason == ExitReason.SESSION_END


def test_signal_on_last_bar_rejected():
    closes = [100.0] * 78
    res = simulate([ev(77)], [day_from_closes(closes)],
                   ExitSpec(ExitKind.HORIZON, horizon=1))
    assert res.trades == ()
    assert len(res.rejections) == 1
    assert "cannot enter" in res.rejections[0].reason


# -- stops ------------------------------------------------------------------------

def test_stop_hand_walk():
    closes = [100.0] * 78
    lows = [c for c in closes]
    lows[15] = 79.0
    closes[15] = 85.0
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),
                  lows=lows)
    assert t.exit_price == 80.0
    assert t.gross == -20.0
    assert t.exit_reason == ExitReason.STOP
    assert t.exit_bar == 15


def test_same_bar_stop_beats_favorable_close():
    closes = [100.0] * 78
    closes[11] = 130.0  # entry bar rips higher but also trades 21 lower intrabar
    lows = [c for c in closes]
    lows[11] = 79.0
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),
                  lows=lows, highs=[max(c, 130.0) for c in closes])
    assert t.exit_reason == ExitReason.STOP
    assert t.gross == -20.0


def test_stop_never_hit_falls_through_to_horizon():
    closes = [100.0] * 78
    closes[25] = 107.0
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0))
    assert t.exit_reason == ExitReason.HORIZON
    assert t.exit_bar == 25
    assert t.gross == 7.0


def test_conservative_stop_dominates_favorable_oracle():
    rng = np.random.default_rng(8)
    for trial in range(50):
        closes = list((100 + np.cumsum(rng.normal(0, 4, 78))).round(2))
        lows = [c - abs(rng.normal(0, 3)) for c in closes]
        highs = [c + abs(rng.normal(0, 3)) for c in closes]
        day = day_from_closes(closes, highs=highs, lows=lows)
        spec = ExitSpec(ExitKind.STOP_HORIZON, horizon=10, stop=10.0)
        event = ev(int(rng.integers(0, 60)))
        res = simulate([event], [day], spec, CENT)
        if not res.trades:
            continue
        t = res.trades[0]
        # favorable oracle: ignore the stop on the exit bar if the close is better
        entry = t.entry_price
        horizon_bar = min(t.entry_bar + 9, 77)
        oracle_exit = max(t.exit_price, day.bars[horizon_bar].close) \
            if t.exit_reason == ExitReason.STOP else t.exit_price
        assert t.gross <= (oracle_exit - entry) + 1e-9


@pytest.mark.parametrize("direction", [LONG, SHORT])
def test_a_level_equal_to_a_bar_extreme_is_touched(direction):
    # a stop or a limit level that a later bar's low (long) or high (short)
    # reaches exactly is touched: the stop exits there, the limit fills there
    sign = 1 if direction == LONG else -1

    def reaching(bar, level):
        extreme = [100.0] * 78
        extreme[bar] = level
        return {"lows" if sign > 0 else "highs": extreme}
    closes = [100.0] * 78
    stop = one_trade(closes, SignalEvent("ORB_LONG", date(2022, 1, 3), 10, direction),
                     ExitSpec(ExitKind.STOP_HORIZON, horizon=15, stop=20.0),
                     **reaching(15, 100.0 - sign * 20.0))
    assert (stop.exit_reason, stop.exit_bar, stop.exit_price) == (ExitReason.STOP, 15,
                                                                  100.0 - sign * 20.0)
    limit = one_trade(closes, SignalEvent("CONFLUENCE_RTH", date(2022, 1, 3), 10, direction,
                                          limit_level=100.0 - sign * 5.0),
                      ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13),
                      **reaching(14, 100.0 - sign * 5.0))
    assert (limit.entry_bar, limit.entry_price) == (14, 100.0 - sign * 5.0)


# -- clock exits --------------------------------------------------------------------

def test_clock_exit_at_bar_open():
    closes = list(np.linspace(100, 110, 78).round(2))
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.CLOCK, clock=time(12, 0)),
                  instrument=CENT)
    cb = 30  # bar opening at 12:00
    assert t.exit_bar == cb
    assert t.exit_price == day_from_closes(closes).bars[cb].open
    assert t.exit_reason == ExitReason.CLOCK


def test_clock_already_past_exits_at_session_end():
    closes = [100.0] * 78
    t = one_trade(closes, ev(50), ExitSpec(ExitKind.CLOCK, clock=time(10, 0)))
    assert t.exit_bar == 77
    assert t.exit_reason == ExitReason.SESSION_END


# -- pullback limit entries -----------------------------------------------------------

def limit_ev(bar_index, level):
    return SignalEvent("CONFLUENCE_RTH", date(2022, 1, 3), bar_index, LONG,
                       limit_level=level)


def test_limit_fill_at_level():
    closes = [100.0] * 78
    lows = [c for c in closes]
    lows[14] = 90.0
    closes[23] = 101.0
    t = one_trade(closes, limit_ev(10, 95.0),
                  ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13), lows=lows)
    assert t.entry_bar == 14
    assert t.entry_price == 95.0
    assert t.exit_bar == 23  # signal bar + horizon
    assert t.exit_price == 101.0


def test_limit_gap_through_fills_at_better_open():
    closes = [100.0] * 78
    opens = [100.0] * 78
    opens[14] = 88.0  # gaps through the 95 level
    lows = [min(o, c) for o, c in zip(opens, closes)]
    highs = [max(o, c) for o, c in zip(opens, closes)]
    t = one_trade(closes, limit_ev(10, 95.0),
                  ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13),
                  opens=opens, lows=lows, highs=highs)
    assert t.entry_price == 88.0


def test_limit_never_touched_is_rejection_not_trade():
    closes = [100.0] * 78
    res = simulate([limit_ev(10, 95.0)], [day_from_closes(closes)],
                   ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=13))
    assert res.trades == ()
    assert len(res.rejections) == 1


# -- invariants -----------------------------------------------------------------------

def test_friction_linearity_exact():
    rng = np.random.default_rng(5)
    closes = list((100 + np.cumsum(rng.normal(0, 2, 78))).round(2))
    day = day_from_closes(closes)
    events = [ev(int(i), LONG if i % 2 else SHORT) for i in range(5, 70, 7)]
    res = simulate(events, [day], ExitSpec(ExitKind.HORIZON, horizon=3), CENT)
    total_gross = sum(t.gross_ticks for t in res.trades)
    total_net = sum(t.net_ticks for t in res.trades)
    assert total_net == total_gross - len(res.trades) * CENT.to_ticks(2.0)


def test_entry_price_independent_of_signal_bar():
    closes = [100.0] * 78
    base = one_trade(closes, ev(10), ExitSpec(ExitKind.HORIZON, horizon=3))
    mutated = list(closes)
    mutated[10] = 140.0  # mutate the signal bar only
    highs = [max(c, 141.0) if i == 10 else None for i, c in enumerate(mutated)]
    day = day_from_closes(mutated)
    bars = list(day.bars)
    b = bars[10]
    bars[10] = Bar(b.ts, b.open, 141.0, b.low, b.close, b.volume)
    bars[11] = Bar(bars[11].ts, 100.0, max(100.0, bars[11].high), min(100.0, bars[11].low),
                   bars[11].close, bars[11].volume)
    day = day_from_bars(day.date, day.session, bars, None, True)
    res = simulate([ev(10)], [day], ExitSpec(ExitKind.HORIZON, horizon=3))
    assert res.trades[0].entry_price == base.entry_price


def test_entry_price_tracks_next_bar_open():
    closes = [100.0] * 78
    opens = [100.0] * 78
    opens[11] = 102.5
    highs = [max(o, c) for o, c in zip(opens, closes)]
    lows = [min(o, c) for o, c in zip(opens, closes)]
    t = one_trade(closes, ev(10), ExitSpec(ExitKind.HORIZON, horizon=3),
                  opens=opens, highs=highs, lows=lows)
    assert t.entry_price == 102.5


def test_exit_never_precedes_entry():
    rng = np.random.default_rng(13)
    for trial in range(20):
        closes = list((100 + np.cumsum(rng.normal(0, 3, 78))).round(2))
        day = day_from_closes(closes)
        events = [ev(int(b)) for b in rng.integers(0, 77, size=6)]
        for spec in (ExitSpec(ExitKind.HORIZON, horizon=1),
                     ExitSpec(ExitKind.STOP_HORIZON, horizon=8, stop=5.0),
                     ExitSpec(ExitKind.CLOCK, clock=time(14, 0))):
            for t in simulate(events, [day], spec, CENT).trades:
                assert t.exit_bar >= t.entry_bar


def test_exit_spec_validation():
    with pytest.raises(ExecutionError):
        ExitSpec(ExitKind.HORIZON, horizon=0)
    with pytest.raises(ExecutionError):
        ExitSpec(ExitKind.STOP_HORIZON, horizon=5)
    with pytest.raises(ExecutionError):
        ExitSpec(ExitKind.STOP_HORIZON, horizon=5, stop=-1.0)
    with pytest.raises(ExecutionError):
        ExitSpec(ExitKind.CLOCK)
    with pytest.raises(ExecutionError):
        Instrument("TEST", 0.25, -0.5)


# -- aggregation and serialization ----------------------------------------------------

def make_trade(d, net=1.0):
    ticks = MNQ.to_ticks(net)
    return TradeRecord("ORB_LONG", d, LONG, 1, 2, 100.0, 100.0 + net,
                       ticks + 8, ticks, ExitReason.HORIZON, 0.25)


def test_aggregate_by_year_empty():
    assert aggregate_by_year([]) == {}


def test_aggregate_by_year_partitions():
    trades = ([make_trade(date(2022, 3, 1))] * 2
              + [make_trade(date(2023, 3, 1))] * 3
              + [make_trade(date(2024, 3, 1))])
    out = aggregate_by_year(trades)
    assert {y: len(v) for y, v in out.items()} == {2022: 2, 2023: 3, 2024: 1}


def test_aggregate_partition_sizes_sum():
    rng = np.random.default_rng(1)
    trades = [make_trade(date(2022 + int(rng.integers(0, 4)), 1, 3))
              for _ in range(200)]
    out = aggregate_by_year(trades)
    assert sum(len(v) for v in out.values()) == len(trades)


def test_serialize_trades_header_and_rows():
    text = serialize_trades([make_trade(date(2022, 3, 1), net=2.5)])
    lines = text.splitlines()
    assert lines[0].startswith("family,date,direction")
    assert lines[1].split(",")[0] == "ORB_LONG"
    assert lines[1].split(",")[8] == "2.50"


# -- the array kernel against the per-event loop it replaced ---------------------


def _old_make_trade(event, entry_bar, exit_bar, entry_price, exit_price, reason,
                    instrument):
    sign = 1 if event.direction == LONG else -1
    entry_t = instrument.to_ticks(entry_price)
    exit_t = instrument.to_ticks(exit_price)
    gross_t = sign * (exit_t - entry_t)
    net_t = gross_t - instrument.to_ticks(instrument.round_trip)
    return TradeRecord(
        family=event.family, date=event.day, direction=event.direction,
        entry_bar=entry_bar, exit_bar=exit_bar,
        entry_price=instrument.to_points(entry_t),
        exit_price=instrument.to_points(exit_t),
        gross_ticks=gross_t, net_ticks=net_t,
        exit_reason=reason, tick_size=instrument.tick_size,
    )


def _old_clock_bar(day, clock) -> Optional[int]:
    for i, b in enumerate(day.bars):
        if b.ts.time() == clock:
            return i
    return None


def _old_pullback_limit(ev, day, exit, instrument):
    bars = day.bars
    n = len(bars)
    sign = 1 if ev.direction == LONG else -1
    level = ev.limit_level
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
    open_i = bars[fill_bar].open
    fill_price = min(open_i, level) if sign > 0 else max(open_i, level)
    reason = ExitReason.SESSION_END if clipped else ExitReason.HORIZON
    return _old_make_trade(ev, fill_bar, horizon_bar, fill_price,
                           bars[horizon_bar].close, reason, instrument)


def old_simulate(events, day, exit, instrument=MNQ):
    """The per-event loop ``simulate`` ran before the array kernel."""
    bars = day.bars
    n = len(bars)
    trades, rejections = [], []
    for ev in sorted(events, key=lambda e: (e.bar_index, e.direction)):
        entry_bar = ev.bar_index + 1
        if entry_bar >= n:
            rejections.append(Rejection(ev, "signal on last bar: cannot enter"))
            continue
        sign = 1 if ev.direction == LONG else -1
        if exit.kind is ExitKind.PULLBACK_LIMIT:
            trade = _old_pullback_limit(ev, day, exit, instrument)
            if trade is None:
                rejections.append(Rejection(ev, "limit never filled"))
            else:
                trades.append(trade)
            continue
        entry_price = bars[entry_bar].open
        horizon_bar = min(entry_bar + exit.horizon - 1, n - 1)
        clipped = entry_bar + exit.horizon - 1 > n - 1
        if exit.kind is ExitKind.CLOCK:
            cb = _old_clock_bar(day, exit.clock)
            if cb is not None and cb >= entry_bar:
                trades.append(_old_make_trade(ev, entry_bar, cb, entry_price, bars[cb].open,
                                              ExitReason.CLOCK, instrument))
            else:
                trades.append(_old_make_trade(ev, entry_bar, n - 1, entry_price,
                                              bars[n - 1].close, ExitReason.SESSION_END,
                                              instrument))
            continue
        stopped = False
        if exit.kind is ExitKind.STOP_HORIZON:
            stop_price = entry_price - sign * exit.stop
            for i in range(entry_bar, horizon_bar + 1):
                hit = bars[i].low <= stop_price if sign > 0 else bars[i].high >= stop_price
                if hit:
                    trades.append(_old_make_trade(ev, entry_bar, i, entry_price, stop_price,
                                                  ExitReason.STOP, instrument))
                    stopped = True
                    break
        if stopped:
            continue
        reason = ExitReason.SESSION_END if clipped else ExitReason.HORIZON
        trades.append(_old_make_trade(ev, entry_bar, horizon_bar, entry_price,
                                      bars[horizon_bar].close, reason, instrument))
    return SimResult(tuple(trades), tuple(rejections))


def typed(trade):
    return [(f.name, type(getattr(trade, f.name)), getattr(trade, f.name))
            for f in fields(trade)]


# prices on an eighth-point grid land half-way between quarter ticks, so
# rounding ties are common; a few off-grid prices are mixed in
PRICE = st.one_of(st.integers(0, 160).map(lambda k: 90.0 + k / 8),
                  st.floats(90.0, 110.0, allow_nan=False))


@st.composite
def sim_case(draw):
    """1-3 days of 1-14 bars, events on any bar (the last one too) and an exit."""
    instrument = Instrument("TEST", draw(st.sampled_from([0.25, 0.01])),
                            draw(st.sampled_from([0.0, 2.0, 1.3])))
    days, events = [], []
    for k in range(draw(st.integers(1, 3))):
        d = date(2022, 1, 3) + timedelta(days=k)
        n = draw(st.integers(1, 14))
        grid = rows.grid(RTH, d)
        bars = []
        for i in range(n):
            o, c = draw(PRICE), draw(PRICE)
            up, down = draw(st.sampled_from([0.0, 0.25, 0.5, 3.0])), \
                draw(st.sampled_from([0.0, 0.25, 0.5, 3.0]))
            bars.append(Bar(grid[i], o, max(o, c) + up, min(o, c) - down, c, 100))
        day = day_from_bars(d, RTH, bars, None, False)
        evs = []
        for _ in range(draw(st.integers(0, 5))):
            evs.append(SignalEvent("F", d, draw(st.integers(0, n - 1)),
                                   draw(st.sampled_from([LONG, SHORT])),
                                   limit_level=draw(st.one_of(st.none(), PRICE))))
        days.append(day)
        events.append(evs)
    kind = draw(st.sampled_from(list(ExitKind)))
    horizon = draw(st.integers(1, 16))
    if kind is ExitKind.STOP_HORIZON:
        exit = ExitSpec(kind, horizon=horizon,
                        stop=draw(st.sampled_from([0.125, 0.25, 1.0, 2.5, 40.0])))
    elif kind is ExitKind.PULLBACK_LIMIT:
        exit = ExitSpec(kind, horizon=horizon,
                        limit_offset=draw(st.sampled_from([None, 0.0, 0.5, 2.0, 30.0])))
    elif kind is ExitKind.CLOCK:
        # a bar time that is before entry, after entry or not in the day at all
        exit = ExitSpec(kind, clock=draw(st.sampled_from(
            [t.time() for t in rows.grid(RTH, days[0].date)[:16]] + [time(16, 30)])))
    else:
        exit = ExitSpec(kind, horizon=horizon)
    return days, events, exit, instrument


def edge_days():
    """1-bar days between longer ones, with both directions on every day's first
    and last bar: the bars where a day meets the next in the kernel's columns."""
    days, events = [], []
    for k, closes in enumerate(([100.0], [100.0, 103.0, 99.0, 104.0], [101.0],
                                [98.0, 97.0, 102.0], [105.0])):
        d = date(2022, 1, 3) + timedelta(days=k)
        days.append(day_from_closes(closes, d=d))
        events.append([SignalEvent("F", d, b, dr) for b in sorted({0, len(closes) - 1})
                       for dr in (LONG, SHORT)])
    return days, events


@settings(max_examples=400, deadline=None)
@given(sim_case())
@example(([day_from_closes([100.0, 101.0])], [[ev(1)]], ExitSpec(ExitKind.HORIZON, horizon=1),
          MNQ))
@example((*edge_days(), ExitSpec(ExitKind.HORIZON, horizon=2), MNQ))
@example((*edge_days(), ExitSpec(ExitKind.STOP_HORIZON, horizon=3, stop=2.0), MNQ))
@example((*edge_days(), ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=3, limit_offset=1.0), MNQ))
@example((*edge_days(), ExitSpec(ExitKind.CLOCK, clock=time(9, 40)), MNQ))
def test_simulate_matches_the_per_event_loop(case):
    days, events, exit, instrument = case
    want = [old_simulate(evs, day, exit, instrument) for day, evs in zip(days, events)]
    for day, evs, w in zip(days, events, want):
        got = simulate(evs, [day], exit, instrument)
        assert [typed(t) for t in got.trades] == [typed(t) for t in w.trades]
        assert got.rejections == w.rejections
        assert all(type(r.reason) is str for r in got.rejections)
    trades = [t for w in want for t in w.trades]
    # every day in one call, as walk-forward builds a test year's records: the
    # results come in day order whatever order the events are given in
    got = simulate([e for evs in events[::-1] for e in evs], days, exit, instrument)
    assert [typed(t) for t in got.trades] == [typed(t) for t in trades]
    assert got.rejections == tuple(r for w in want for r in w.rejections)
    # the kernel's own form, as the permutation table calls it: signal bars are
    # columns of the days laid end to end, and entry and exit bars are the day's
    order = [sorted(evs, key=lambda e: (e.bar_index, e.direction)) for evs in events]
    flat = [e for evs in order for e in evs]
    first = np.cumsum([0] + [len(d.ts) for d in days])[:-1]
    f = fill_days(session_store(days),
                  [first[k] + e.bar_index for k, evs in enumerate(order) for e in evs],
                  [1 if e.direction == LONG else -1 for e in flat], exit, instrument,
                  np.array([np.nan if e.limit_level is None else e.limit_level
                            for e in flat]))
    traded = f.reason >= 0
    assert f.net_ticks[traded].tolist() == [t.net_ticks for t in trades]
    assert f.entry[traded].tolist() == [t.entry_bar for t in trades]
    assert f.exit[traded].tolist() == [t.exit_bar for t in trades]


def test_simulate_rejects_an_event_off_its_days():
    with pytest.raises(ExecutionError, match="2022-01-03"):
        simulate([ev(10)], [day_from_closes([100.0] * 20, d=date(2022, 1, 4))],
                 ExitSpec(ExitKind.HORIZON, horizon=1))


def test_kernel_rounds_half_ticks_to_even_like_to_ticks():
    closes = [100.0] * 10
    closes[2] = 100.125  # 400.5 ticks: rounds to 400
    closes[3] = 100.375  # 401.5 ticks: rounds to 402
    for bar, want in ((1, MNQ.to_ticks(100.125)), (2, MNQ.to_ticks(100.375))):
        t = one_trade(closes, ev(bar), ExitSpec(ExitKind.HORIZON, horizon=1))
        assert t.exit_price == MNQ.to_points(want)
