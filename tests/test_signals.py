from __future__ import annotations

import inspect
import math
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest

import rows
from rows import day_from_bars
from falsify.bars import (Bar, EconEvent, EventKind, RTH, ASIA, LONDON, TradingDay, day_primitives,
                          link_rth, session_primitives, session_store)
from falsify.config import config_from_dict
from falsify import engine as engine_mod, signals
from falsify.engine import DataBundle, Engine, default_families
from falsify.features import OuFit
from falsify.signals import (LONG, SHORT, SignalError, SignalEvent,
                             asia_expansion_signals, confluence_rth_signals,
                             event_drift_signals, gap_cont_signals, gap_fill_signals,
                             liquidity_grab_signals, london_b_signals, mean_range_series,
                             orb_pullback_signals, orb_signals, ou_reversion_signals,
                             vvg_boundaries, vvg_classify, vvg_close_fade_signals,
                             vvg_metrics, vvg_open_signals, volume_ratio_cutoffs,
                             volume_ratio_series, volume_signature_signals)


def day_from_closes(closes, d=date(2022, 1, 3), session=RTH, volumes=None,
                    highs=None, lows=None, prior_rth_close=None):
    grid = rows.grid(session, d)
    n = len(closes)
    assert n <= len(grid)
    bars = []
    prev = closes[0]
    for i in range(n):
        c = float(closes[i])
        o = prev
        hi = highs[i] if highs is not None else max(o, c) + 0.5
        lo = lows[i] if lows is not None else min(o, c) - 0.5
        v = volumes[i] if volumes is not None else 1000
        bars.append(Bar(grid[i], o, float(hi), float(lo), c, int(v)))
        prev = c
    return day_from_bars(d, session, bars, prior_rth_close, n == len(grid))


def named(family, day, state):
    """``family``'s events on ``day`` as the engine names them, under a given fitted state."""
    sessions = {RTH: "rth", ASIA: "asia", LONDON: "london"}
    eng = Engine(DataBundle(**{sessions[day.session]: [day]}), config_from_dict({}))
    return eng.day_signals(family, day, {}, state)


# -- opening range breakout ----------------------------------------------------

def test_orb_quiet_day_emits_nothing():
    day = day_from_closes([100.0] * 78)
    prims = day_primitives(day)
    assert orb_signals(day, prims, LONG) == orb_signals(day, prims, SHORT) == []
    assert orb_pullback_signals(day, prims, pullback_offset=5.0) == []


def test_orb_long_at_first_close_above_range():
    closes = [100.0] * 78
    closes[7] = 101.0  # opening range high is 100.5 from the helper's padding
    day = day_from_closes(closes)
    prims = day_primitives(day)
    assert orb_signals(day, prims, LONG) == [(7, LONG)]
    assert orb_signals(day, prims, SHORT) == []


def test_orb_short_side_and_intrabar_pierce_ignored():
    closes = [100.0] * 78
    closes[9] = 98.0
    highs = [100.4] * 78
    highs[7] = 150.0  # intrabar spike without a close beyond the range
    day = day_from_closes(closes, highs=highs, lows=[c - 0.5 for c in closes])
    prims = day_primitives(day)
    assert orb_signals(day, prims, LONG) == []
    assert orb_signals(day, prims, SHORT) == [(9, SHORT)]


def test_orb_pullback_touch_within_offset():
    closes = [100.0] * 6 + [107.0] * 72  # breakout at bar 7 over the 100.5 range high
    closes[9] = 101.0
    lows = [c - 0.5 for c in closes]
    lows[9] = 100.9  # first dip back within 5 points of the breakout level
    day = day_from_closes(closes, lows=lows)
    prims = day_primitives(day)
    assert orb_pullback_signals(day, prims, pullback_offset=5.0) == [(9, LONG)]


def test_orb_breakout_on_final_bar_not_entryable():
    closes = [100.0] * 78
    closes[77] = 101.0
    day = day_from_closes(closes)
    assert orb_signals(day, day_primitives(day), LONG) == []


# -- expansion bars --------------------------------------------------------------

def test_expansion_uniform_ranges_empty():
    day = day_from_closes([100.0] * 72, session=ASIA)
    assert asia_expansion_signals(day, 1.5, mean_range_series(day)) == []


def test_expansion_single_wide_bar():
    closes = [100.0] * 72
    highs = [100.5] * 72
    lows = [98.5] * 72  # constant range 2.0
    closes[25] = 101.5  # up-close expansion bar
    highs[25] = 102.0
    lows[25] = 98.0  # range 4.0 > 1.5 * 2.0
    day = day_from_closes(closes, session=ASIA, highs=highs, lows=lows)
    assert asia_expansion_signals(day, 1.5, mean_range_series(day)) == [(25, LONG)]


def test_expansion_doji_emits_nothing():
    closes = [100.0] * 72
    highs = [100.5] * 72
    lows = [98.5] * 72
    highs[25] = 103.0
    lows[25] = 97.0  # wide but close == open
    day = day_from_closes(closes, session=ASIA, highs=highs, lows=lows)
    assert asia_expansion_signals(day, 1.5, mean_range_series(day)) == []


# -- liquidity grabs -------------------------------------------------------------

def test_liquidity_grab_monotone_trend_empty():
    closes = [100.0 + 0.5 * i for i in range(72)]
    day = day_from_closes(closes, session=ASIA)
    assert liquidity_grab_signals(day, None, fade=True) == []


def test_liquidity_grab_pierce_and_reject():
    closes = [100.0] * 72
    highs = [min(105.0, max(c, 100.0) + 0.5) for c in closes]
    highs[12] = 105.5  # pierce the prior high of 105 set below
    for i in range(12):
        highs[i] = 105.0
    closes[12] = 104.0
    day = day_from_closes(closes, session=ASIA, highs=highs)
    assert liquidity_grab_signals(day, 12, fade=True) == [(12, SHORT)]
    assert liquidity_grab_signals(day, 12, fade=False) == [(12, LONG)]


def test_liquidity_grab_running_extreme_matches_window_none():
    rng = np.random.default_rng(12)
    closes = 100 + np.cumsum(rng.normal(0, 2, 72))
    day = day_from_closes(list(closes), session=ASIA)
    for i, _ in liquidity_grab_signals(day, None, fade=True):
        prior_hi = max(b.high for b in day.bars[:i])
        prior_lo = min(b.low for b in day.bars[:i])
        b = day.bars[i]
        assert (b.high > prior_hi and b.close < prior_hi) or \
               (b.low < prior_lo and b.close > prior_lo)


def test_a_double_pierce_is_listed_long_first_by_the_engine():
    closes, highs, lows = [100.0] * 72, [100.5] * 72, [99.5] * 72
    highs[20], lows[20], closes[20] = 102.0, 98.0, 100.2  # pierces both, closes inside
    day = day_from_closes(closes, session=ASIA, highs=highs, lows=lows)
    # the rule lists the high pierce first, as its reference loop does
    assert liquidity_grab_signals(day, None, fade=True) == [(20, SHORT), (20, LONG)]
    assert reference_liquidity_grab(day, None, fade=True) == [(20, SHORT), (20, LONG)]
    eng = Engine(DataBundle(asia=[day]), config_from_dict({}))
    got = eng.day_signals("LIQUIDITY_GRAB_FADE", day, {}, {})
    got = [(ev.bar_index, ev.direction) for ev in got]
    assert got == [(20, LONG), (20, SHORT)]  # entry order, as simulate fills
    e, first = eng.emitted("LIQUIDITY_GRAB_FADE", {}, {})
    span = slice(first[0], first[1])
    assert [(int(c), LONG if s > 0 else SHORT) for c, s in zip(e.col[span], e.sign[span])] == got


# -- gap family -------------------------------------------------------------------

def gap_day(gap, closes=None):
    closes = closes if closes is not None else [100.0] * 78
    return day_from_closes(closes, prior_rth_close=closes[0] - gap)


def test_zero_gap_emits_nothing():
    day = gap_day(0.0)
    prims = day_primitives(day)
    assert gap_fill_signals(day, prims, entry_time=time(9, 30), min_gap=5.0) == []
    assert gap_cont_signals(day, prims, kalman_v=5.0, kalman_threshold=2.5, min_gap=0.0) == []
    # nor does a day without a prior RTH close
    first = day_from_closes([100.0] * 78)
    prims = day_primitives(first)
    assert gap_fill_signals(first, prims, entry_time=time(9, 30), min_gap=0.0) == []
    assert gap_cont_signals(first, prims, kalman_v=5.0, kalman_threshold=2.5, min_gap=0.0) == []


def test_gap_fill_fade_at_0945_shorts_an_up_gap():
    day = gap_day(10.0)
    # the 09:45 wall-clock entry keys off the bar closing at 09:45
    assert gap_fill_signals(day, day_primitives(day), entry_time=time(9, 45),
                            min_gap=5.0) == [(2, SHORT)]


def test_gap_below_minimum_ignored():
    day = gap_day(3.0)
    assert gap_fill_signals(day, day_primitives(day), entry_time=time(9, 30), min_gap=5.0) == []


def test_gap_cont_short_requires_velocity_filter():
    day = gap_day(-8.0)
    prims = day_primitives(day)
    assert gap_cont_signals(day, prims, kalman_v=-3.0, kalman_threshold=2.5,
                            min_gap=0.0) == [(0, SHORT)]
    assert gap_cont_signals(day, prims, kalman_v=-1.0, kalman_threshold=2.5, min_gap=0.0) == []
    # positive gaps never continuation-short
    up = gap_day(8.0)
    assert gap_cont_signals(up, day_primitives(up), kalman_v=5.0, kalman_threshold=2.5,
                            min_gap=0.0) == []


# -- volume signatures -------------------------------------------------------------

def test_uniform_volume_emits_nothing():
    day = day_from_closes([100.0 + 0.1 * i for i in range(78)])
    ratio = volume_ratio_series(day)
    lo, hi = volume_ratio_cutoffs([ratio])
    assert volume_signature_signals(day, True, hi, ratio) == []
    assert volume_signature_signals(day, False, lo, ratio) == []


def test_volume_spike_goes_with_the_bar():
    vols = [1000] * 78
    vols[30] = 5000
    closes = [100.0] * 78
    closes[30] = 101.0  # up-close on the spike bar
    day = day_from_closes(closes, volumes=vols)
    assert volume_signature_signals(day, True, 3.0, volume_ratio_series(day)) == [(30, LONG)]
    assert volume_signature_signals(day, False, 0.3, volume_ratio_series(day)) == []


def test_volume_dryup_fades_the_bar():
    vols = [1000] * 78
    vols[30] = 100
    closes = [100.0] * 78
    closes[30] = 100.75  # drifting up on no volume
    day = day_from_closes(closes, volumes=vols)
    assert volume_signature_signals(day, False, 0.3, volume_ratio_series(day)) == [(30, SHORT)]
    assert volume_signature_signals(day, True, 3.0, volume_ratio_series(day)) == []


def test_volume_cutoffs_are_deciles():
    rng = np.random.default_rng(2)
    days = [day_from_closes([100.0] * 78,
                            d=date(2022, 1, 3 + i),
                            volumes=rng.integers(500, 1500, 78))
            for i in range(3)]
    series = [volume_ratio_series(d) for d in days]
    lo, hi = volume_ratio_cutoffs(series)
    ratios = np.concatenate(series)
    ratios = ratios[np.isfinite(ratios)]
    assert lo == pytest.approx(np.quantile(ratios, 0.10))
    assert hi == pytest.approx(np.quantile(ratios, 0.90))


# -- VVG classifier and strategies ---------------------------------------------------

def vvg_day(i, f30=1.0, gap=1.0, vol=1000):
    closes = [100.0] * 78
    closes[5] = 100.0 + f30
    vols = [vol] + [1000] * 77
    d = date(2022, 1, 3) + timedelta(days=i)
    return day_from_closes(closes, d=d, volumes=vols,
                           prior_rth_close=100.0 - gap)


def test_vvg_exactly_one_joint_tercile_day_flagged():
    rng = np.random.default_rng(21)
    days = []
    for i in range(99):
        days.append(vvg_day(i, f30=float(rng.uniform(0, 5)),
                            gap=float(rng.uniform(0, 5)),
                            vol=int(rng.integers(900, 1100))))
    days.append(vvg_day(99, f30=50.0, gap=50.0, vol=9000))
    metrics = vvg_metrics(session_primitives(session_store(days)))
    flags = vvg_classify(metrics, vvg_boundaries(metrics))
    extreme_flagged = flags[99]
    assert extreme_flagged
    # no ordinary day can beat all three of its tercile cuts by construction
    assert flags[:99].sum() <= 33


def test_vvg_unflagged_day_empty():
    days = [vvg_day(30, f30=12.0), vvg_day(31, f30=12.0)]
    eng = Engine(DataBundle(rth=days), config_from_dict({}))
    for family in ("VVG_REVERSAL", "VVG_CONTINUATION"):
        assert named(family, days[0], {"flags": np.array([False])}) == []
        # a flag is read by store index: the next day's flag never trades this one
        assert eng.day_signals(family, days[0], {}, {"flags": np.array([False, True])}) == []
        assert eng.day_signals(family, days[1], {}, {"flags": np.array([False, True])})
        # flags that do not cover the store fail loudly, never read as unflagged
        with pytest.raises(IndexError):
            named(family, days[0], {"flags": np.zeros(0, dtype=bool)})


def test_vvg_direction_rules():
    day = vvg_day(30, f30=12.0)
    prims = day_primitives(day)
    assert vvg_open_signals(day, prims, follow=True) == [(6, LONG)]
    assert vvg_open_signals(day, prims, follow=False) == [(6, SHORT)]
    flagged = {"flags": np.array([True])}
    assert named("VVG_CONTINUATION", day, flagged) == [
        SignalEvent("VVG_CONTINUATION", day.date, 6, LONG)]
    assert named("VVG_REVERSAL", day, flagged) == [SignalEvent("VVG_REVERSAL", day.date, 6, SHORT)]


def test_vvg_close_fade_shorts_an_up_day():
    closes = [100.0 + 40.0 * min(i, 40) / 40 for i in range(78)]
    day = day_from_closes(closes, prior_rth_close=99.0)
    # 15:30 close sits at bar index 71
    assert vvg_close_fade_signals(day) == [(71, SHORT)]


# -- event drift ------------------------------------------------------------------

def fomc(dt):
    return EconEvent(dt, EventKind.FOMC, "HIGH", "USD")


def test_event_drift_no_events_empty():
    day = day_from_closes([100.0] * 78)
    assert event_drift_signals(day, [], start_bar_offset=6) == []


def test_event_drift_follows_spike_direction():
    closes = [100.0] * 78
    r = 54  # bar opening at 14:00
    for k in range(1, 6):
        closes[r + k] = 100.0 + 9.0 * k / 5  # +9 over the five spike bars
    for k in range(6, 78 - r):
        closes[r + k] = 109.0
    day = day_from_closes(closes)
    events = event_drift_signals(day, [fomc(datetime(2022, 1, 3, 14, 0))],
                                 start_bar_offset=6)
    assert events == [(60, LONG)]


def test_event_drift_offset_guard():
    day = day_from_closes([100.0] * 78)
    with pytest.raises(SignalError):
        event_drift_signals(day, [fomc(datetime(2022, 1, 3, 14, 0))],
                            start_bar_offset=5)


def test_event_on_other_day_ignored():
    day = day_from_closes([100.0] * 78)
    assert event_drift_signals(day, [fomc(datetime(2022, 1, 4, 14, 0))],
                               start_bar_offset=6) == []


# -- OU reversion -----------------------------------------------------------------

def ou_fixture():
    phi = 0.9
    return OuFit(phi=phi, mu=100.0, sigma_eps=1.0,
                 half_life=math.log(2) / -math.log(phi))


def test_ou_pinned_at_mean_empty():
    day = day_from_closes([100.0] * 78)
    assert ou_reversion_signals(day, ou_fixture(), threshold=2.0) == []


def test_ou_crossing_triggers_once():
    fit = ou_fixture()
    sd = fit.stationary_std
    closes = [100.0] * 78
    closes[20] = 100.0 - 2.1 * sd
    day = day_from_closes(closes)
    assert ou_reversion_signals(day, fit, threshold=2.0) == [(20, LONG)]


def test_ou_rearm_requires_return_inside_band():
    fit = ou_fixture()
    sd = fit.stationary_std
    # oscillate between -2.2 and -1.0 sd: never re-enters |z| < 0.5
    closes = [100.0 - (2.2 if i % 2 == 0 else 1.0) * sd for i in range(78)]
    day = day_from_closes(closes)
    events = ou_reversion_signals(day, fit, threshold=2.0)
    assert len(events) == 1
    # dipping back inside the band re-arms
    closes2 = list(closes)
    closes2[40] = 100.0
    closes2[41] = 100.0 - 2.2 * sd
    day2 = day_from_closes(closes2)
    events2 = ou_reversion_signals(day2, fit, threshold=2.0)
    assert len(events2) == 2


def test_ou_disabled_fit_emits_nothing():
    fit = OuFit(phi=1.001, mu=0.0, sigma_eps=1.0, half_life=None)
    day = day_from_closes([100.0] * 78)
    assert ou_reversion_signals(day, fit, threshold=2.0) == []


# -- confluence and regime transition families ----------------------------------------

def test_confluence_requires_regime_one():
    day = day_from_closes([100.0] * 78)
    n = 78
    labels = [0] * n
    trans = [0.5] * n
    vz = [2.0] * n
    atr = [5.0] * n
    assert confluence_rth_signals(day, labels, trans, vz, atr, 5.0, 0.15, 0.5, 25.0) == []


def test_confluence_single_qualifying_bar():
    day = day_from_closes([100.0] * 78)
    n = 78
    labels = [0] * n
    trans = [0.0] * n
    vz = [0.0] * n
    atr = [5.0] * n
    labels[30] = 1
    trans[30] = 0.2
    vz[30] = 1.0
    (entry,) = confluence_rth_signals(day, labels, trans, vz, atr, 5.0, 0.15, 0.5, 25.0)
    assert entry[:2] == (30, LONG)
    # ATR at baseline: the pullback limit sits exactly 25 points below the close
    assert entry[2] == pytest.approx(day.bars[30].close - 25.0)


def test_confluence_thresholds_are_strict():
    day = day_from_closes([100.0] * 78)
    n = 78
    labels = [1] * n
    trans = [0.15] * n  # not strictly above
    vz = [0.5] * n
    atr = [5.0] * n
    assert confluence_rth_signals(day, labels, trans, vz, atr, 5.0, 0.15, 0.5, 25.0) == []


def test_london_b_transition_rules():
    day = day_from_closes([100.0] * 22, session=LONDON)
    lab = [0] * 22
    lab[2] = 2
    assert [i for i, _ in london_b_signals(day, lab)] == [2]

    lab2 = [0, 2] + [2] * 20
    assert [i for i, _ in london_b_signals(day, lab2)] == [1]

    lab3 = [1, 0, 2] + [0] * 19
    assert london_b_signals(day, lab3) == []  # regime-1 contamination


def test_london_b_direction_and_family():
    day = day_from_closes([100.0] * 22, session=LONDON)
    lab = [0, 0, 2] + [0] * 19
    assert london_b_signals(day, lab) == [(2, LONG)]
    assert named("LONDON_B", day, {"labels": np.array(lab)}) == [
        SignalEvent("LONDON_B", day.date, 2, LONG)]


# -- cross-family invariants -----------------------------------------------------

def test_no_emitter_defaults_a_tunable_that_a_grid_declares():
    # grid[0] is the one place a tunable's default is named; a second default
    # in an emitter could disagree with it unseen
    tunables = {key for fd in default_families().values() for key in fd.grid[0]}
    emitters = [f for _, f in inspect.getmembers(signals, inspect.isfunction)
                if f.__module__ == signals.__name__]
    defaulted = sorted(f"{f.__name__}({name})" for f in emitters
                       for name, p in inspect.signature(f).parameters.items()
                       if name in tunables and p.default is not p.empty)
    assert defaulted == []


def test_no_signal_on_final_bar_anywhere():
    rng = np.random.default_rng(44)
    closes = list(100 + np.cumsum(rng.normal(0, 3, 78)))
    vols = list(rng.integers(200, 5000, size=78))
    day = day_from_closes(closes, volumes=vols, prior_rth_close=closes[0] - 12)
    prims = day_primitives(day)
    pools = [
        orb_signals(day, prims, LONG),
        orb_signals(day, prims, SHORT),
        orb_pullback_signals(day, prims, pullback_offset=5.0),
        liquidity_grab_signals(day, None, fade=True),
        gap_fill_signals(day, prims, entry_time=time(9, 30), min_gap=1.0),
        volume_signature_signals(day, True, 1.5, volume_ratio_series(day)),
        volume_signature_signals(day, False, 0.6, volume_ratio_series(day)),
    ]
    for entries in pools:
        for i, direction in entries:
            assert i <= len(day.bars) - 2
            assert direction in (LONG, SHORT)


def test_event_is_hashable_and_carries_no_level_by_default():
    ev = SignalEvent("ORB_LONG", date(2022, 1, 3), 7, LONG)
    assert hash(ev)
    assert ev.limit_level is None
    with pytest.raises(TypeError):  # the level is keyword-only
        SignalEvent("ORB_LONG", date(2022, 1, 3), 7, LONG, 100.5)


# -- masked emitters against the per-bar loops they replaced -------------------------

from hypothesis import given, settings, strategies as st


def reference_asia_expansion(day, multiple, mean_range):
    bars = day.bars
    events = []
    for i in range(min(len(bars), len(bars) - 1)):
        mr = mean_range[i]
        if not np.isfinite(mr) or mr <= 0:
            continue
        rng, body = bars[i].high - bars[i].low, bars[i].close - bars[i].open
        if rng > multiple * mr and body != 0:
            direction = LONG if body > 0 else SHORT
            events.append((i, direction))
    return events


def reference_liquidity_grab(day, lookback, fade):
    bars = day.bars
    events = []
    start = 6 if lookback is None else lookback
    highs = np.array([b.high for b in bars])
    lows = np.array([b.low for b in bars])
    run_hi = np.maximum.accumulate(highs)
    run_lo = np.minimum.accumulate(lows)
    for i in range(start, len(bars) - 1):
        if lookback is None:
            prior_hi, prior_lo = run_hi[i - 1], run_lo[i - 1]
        else:
            prior_hi = highs[i - lookback:i].max()
            prior_lo = lows[i - lookback:i].min()
        b = bars[i]
        if b.high > prior_hi and b.close < prior_hi:
            events.append((i, SHORT if fade else LONG))
        if b.low < prior_lo and b.close > prior_lo:
            events.append((i, LONG if fade else SHORT))
    return events


def reference_volume_signature(day, spike, cutoff, ratio):
    events = []
    for i in range(min(len(day.bars), len(day.bars) - 1)):
        r = ratio[i]
        if not np.isfinite(r):
            continue
        body = day.bars[i].close - day.bars[i].open
        if body == 0:
            continue
        bar_dir = LONG if body > 0 else SHORT
        if spike and r > cutoff:
            events.append((i, bar_dir))
        elif not spike and r < cutoff:
            events.append((i, SHORT if bar_dir == LONG else LONG))
    return events


def reference_confluence(day, labels, trans_prob, vol_z, atr, atr_baseline,
                         trans_threshold, vz_threshold, pullback_points):
    bars = day.bars
    events = []
    for i in range(min(len(bars), len(bars) - 1)):
        tp, vz = trans_prob[i], vol_z[i]
        if labels[i] != 1 or not np.isfinite(tp) or not np.isfinite(vz):
            continue
        if tp > trans_threshold and vz > vz_threshold:
            scale = atr[i] / atr_baseline if np.isfinite(atr[i]) and atr_baseline > 0 else 1.0
            level = bars[i].close - pullback_points * scale
            events.append((i, LONG, float(level)))
    return events


@st.composite
def tick_days(draw, session=RTH, max_bars=40):
    """A day of bars on a coarse tick grid, so ties, dojis and equal
    extremes are common, with volumes that include zeros."""
    n = draw(st.integers(0, max_bars))
    ticks = st.integers(-6, 6)
    grid = rows.grid(session, date(2022, 1, 3))
    bars, price = [], 100.0
    for i in range(n):
        o, c = price, price + 0.5 * draw(ticks)
        h = max(o, c) + 0.5 * draw(st.integers(0, 3))
        lo = min(o, c) - 0.5 * draw(st.integers(0, 3))
        bars.append(Bar(grid[i], o, h, lo, c, draw(st.integers(0, 4)) * 100))
        price = c
    return day_from_bars(date(2022, 1, 3), session, bars, None, False)


def per_bar(day, elements):
    """A per-bar float series for ``day``, drawn from ``elements``."""
    return st.lists(elements, min_size=len(day.bars), max_size=len(day.bars)).map(
        lambda xs: np.array(xs, dtype=float))


odd_floats = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 0.5, 1.0, 2.0]),
                       st.floats(-5, 5, allow_nan=False))


def same_events(got, want):
    assert repr(got) == repr(want)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), day=tick_days(session=ASIA),
       multiple=st.sampled_from([1.5, 2.0, 2.5, 1, 0.0, -1.0]), computed=st.booleans())
def test_asia_expansion_mask_matches_loop(data, day, multiple, computed):
    mr = mean_range_series(day, window=3) if computed else data.draw(per_bar(day, odd_floats))
    same_events(asia_expansion_signals(day, multiple, mean_range=mr),
                reference_asia_expansion(day, multiple, mr))


@settings(max_examples=300, deadline=None)
@given(day=tick_days(session=ASIA), lookback=st.sampled_from([None, 1, 2, 5, 12]),
       fade=st.booleans())
def test_liquidity_grab_mask_matches_loop(day, lookback, fade):
    same_events(liquidity_grab_signals(day, lookback, fade),
                reference_liquidity_grab(day, lookback, fade))


def test_liquidity_grab_lookback_below_one_rejected():
    day = day_from_closes([100.0 + (i % 3) for i in range(20)])
    for lookback in (0, -2):
        with pytest.raises(SignalError, match="lookback"):
            liquidity_grab_signals(day, lookback)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), day=tick_days(), spike=st.booleans(), cutoff=odd_floats,
       computed=st.booleans())
def test_volume_signature_mask_matches_loop(data, day, spike, cutoff, computed):
    ratio = volume_ratio_series(day, window=3) if computed \
        else data.draw(per_bar(day, odd_floats))
    same_events(volume_signature_signals(day, spike, cutoff, ratio=ratio),
                reference_volume_signature(day, spike, cutoff, ratio))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), day=tick_days(), baseline=st.sampled_from([0.0, -1.0, 0.7, 3.0]),
       thresholds=st.tuples(st.sampled_from([0.15, 0.0, 0.5]), st.sampled_from([0.5, 0.0, -1.0])),
       pullback=st.sampled_from([25.0, 25, 0.0, 7.5]))
def test_confluence_mask_matches_loop(data, day, baseline, thresholds, pullback):
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(day.bars),
                                max_size=len(day.bars)).map(np.array))
    trans, vz, atr = (data.draw(per_bar(day, odd_floats)) for _ in range(3))
    args = (day, labels, trans, vz, atr, baseline, *thresholds, pullback)
    same_events(confluence_rth_signals(*args), reference_confluence(*args))


def reference_ou_reversion(day, fit, threshold):
    z = (day.ohlc[3] - fit.mu) / fit.stationary_std
    events, armed = [], True
    for i in range(len(day.bars) - 1):
        if not armed and abs(z[i]) < 0.5:
            armed = True
        if armed and abs(z[i]) >= threshold:
            events.append((i, LONG if z[i] <= -threshold else SHORT))
            armed = False
    return events


@settings(max_examples=300, deadline=None)
@given(day=tick_days(), mu=st.sampled_from([98.0, 100.0, 101.5]),
       threshold=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.5]))
def test_ou_reversion_mask_matches_loop(day, mu, threshold):
    # thresholds under the 0.5 re-arm band let a bar re-arm and enter at once
    fit = OuFit(0.9, mu, 0.4, 6.0)
    same_events(ou_reversion_signals(day, fit, threshold),
                reference_ou_reversion(day, fit, threshold))


# -- every family's session-wide emission against its one-day rule -------------------

# dates in three calendar years, so the walk-forward of a corpus has two folds
CORPUS_DATES = (date(2021, 12, 29), date(2021, 12, 30), date(2022, 6, 1), date(2022, 6, 2),
                date(2022, 6, 3), date(2023, 1, 3), date(2023, 1, 4))


def tick_session(rng, session, dates, zero_volume):
    """Complete days on a coarse tick grid, so ties, dojis and equal extremes are
    common, with overnight gaps and volumes of which about ``zero_volume`` are 0."""
    out, price = [], 100.0
    for d in dates:
        price += 0.5 * rng.integers(-20, 21)
        bars = []
        for ts in rows.grid(session, d):
            o, c = price, price + 0.5 * rng.integers(-3, 4)
            h, lo = max(o, c) + 0.5 * rng.integers(0, 3), min(o, c) - 0.5 * rng.integers(0, 3)
            v = 0 if rng.random() < zero_volume else 100 * int(rng.integers(1, 5))
            bars.append(Bar(ts, o, h, lo, c, v))
            price = c
        out.append(day_from_bars(d, session, bars, None, True))
    return link_rth(out)


def one_day_events(eng, family, i, params, state):
    """``family``'s one-day rule (``orb_signals``, ...) on an equal copy of the ``i``-th
    day of its session's store, with that day's share of the session-long inputs
    (regime series, overnight velocity, VVG flag), named and put in entry order."""
    fd = default_families()[family]
    p = {**fd.grid[0], **params}
    store = eng.store(fd.session)
    d = store.days[i]
    day = TradingDay(d.date, d.session, d.ts, d.ohlc, d.volume, d.prior_rth_close, d.complete)
    prims, cols = day_primitives(day), store.cols[day.date]
    vol = lambda spike: volume_signature_signals(
        day, spike, state["spike_cutoff" if spike else "dryup_cutoff"],
        ratio=volume_ratio_series(day))

    def confluence():
        _, vz, atr = eng.per_session(engine_mod._regime_inputs, "rth")
        return confluence_rth_signals(day, state["labels"][cols], state["trans"][cols],
                                      vz[cols], atr[cols], state["atr_baseline"], **p)
    rules = {
        "ORB_LONG": lambda: orb_signals(day, prims, LONG),
        "ORB_SHORT": lambda: orb_signals(day, prims, SHORT),
        "ORB_PULLBACK": lambda: orb_pullback_signals(day, prims, **p),
        "ASIA_EXPANSION": lambda: asia_expansion_signals(
            day, **p, mean_range=mean_range_series(day)),
        "LIQUIDITY_GRAB_FADE": lambda: liquidity_grab_signals(day, fade=True, **p),
        "LIQUIDITY_GRAB_CONT": lambda: liquidity_grab_signals(day, fade=False, **p),
        "GAP_FILL_FADE": lambda: gap_fill_signals(
            day, prims, time.fromisoformat(p["entry_time"]), p["min_gap"]),
        "GAP_CONT_SHORT": lambda: gap_cont_signals(
            day, prims, [eng.overnight_velocity()[i]], **p),
        "VOL_SPIKE": lambda: vol(True),
        "VOL_DRYUP": lambda: vol(False),
        "VVG_REVERSAL": lambda: (vvg_open_signals(day, prims, follow=False)
                                 if p["mode"] == "REVERSAL" else vvg_close_fade_signals(day)),
        "VVG_CONTINUATION": lambda: vvg_open_signals(day, prims, follow=True),
        "EVENT_DRIFT": lambda: event_drift_signals(day, eng.bundle.events, **p),
        "OU_REVERSION": lambda: ou_reversion_signals(day, state["fit"], **p),
        "CONFLUENCE_RTH": confluence,
        "LONDON_B": lambda: london_b_signals(day, state["labels"][cols]),
    }
    # the VVG families trade only the days the classifier flags
    entries = rules[family]() if not family.startswith("VVG_") or state["flags"][i] else []
    entries = sorted(entries, key=lambda e: (e[0], e[1] != LONG))  # stable: rule order on a tie
    return [SignalEvent(family, day.date, b, direction, limit_level=lv[0] if lv else None)
            for b, direction, *lv in entries]


# points beside the declared grids: windows of the liquidity grab, and a Kalman
# threshold that the small velocities of these corpora cross
MORE_POINTS = {"LIQUIDITY_GRAB_FADE": ({"lookback": 3},),
               "LIQUIDITY_GRAB_CONT": ({"lookback": 12},),
               "GAP_CONT_SHORT": ({"kalman_threshold": 0.05, "min_gap": 0.0},)}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), per_year=st.tuples(*[st.integers(1, 2)] * 3),
       zero_volume=st.sampled_from([0.0, 0.1, 0.5]))
def test_session_emission_equals_each_days_one_day_rule(seed, per_year, zero_volume):
    rng = np.random.default_rng(seed)
    years = [[d for d in CORPUS_DATES if d.year == y][:k]
             for y, k in zip((2021, 2022, 2023), per_year)]
    dates = [d for year in years for d in year]
    rth = tick_session(rng, RTH, dates, zero_volume)
    events = [EconEvent(datetime.combine(d, time(9, 30)) + timedelta(minutes=5 * int(b)),
                        EventKind.CPI, "HIGH", "USD")
              for d in dates for b in rng.integers(0, 78, size=rng.integers(0, 3))]
    bundle = DataBundle(rth, tick_session(rng, ASIA, dates, zero_volume),
                        tick_session(rng, LONDON, dates, zero_volume), events)
    eng = Engine(bundle, config_from_dict({}))
    closes = eng.store("rth").ohlc[3]
    made = {  # fitted states drawn rather than fitted: tiny corpora leave EM nothing to fit
        "OU_REVERSION": {"fit": OuFit(0.9, float(np.median(closes)), 1.0, 6.0)},
        **{name: {"labels": rng.integers(0, 3, eng.store(s).start[-1]),
                  "trans": np.where(rng.random(eng.store(s).start[-1]) < 0.2, np.nan,
                                    rng.random(eng.store(s).start[-1])),
                  "atr_baseline": float(rng.choice([0.0, 1.5]))}
           for name, s in (("CONFLUENCE_RTH", "rth"), ("LONDON_B", "london"))}}
    flags = {"flags": rng.random(len(eng.complete_days("rth"))) < 0.5}
    made.update(VVG_REVERSAL=flags, VVG_CONTINUATION=flags)
    checked = 0
    for family, fd in sorted(default_families().items()):
        days = eng.complete_days(fd.session)
        trains = [[d for d in days if d.year <= y] for y in (2021, 2022)]
        states = [made[family]] if family in made else ([] if fd.fit else [{}])
        if family.startswith(("VOL_", "VVG_")):  # each fold's fitted state as well
            states += [eng._fit_state(family, train, {}) for train in trains]
        for params in fd.grid + MORE_POINTS.get(family, ()):
            for state in states:
                ordered, first = eng.emitted(family, params, state)
                for i, day in enumerate(days):
                    want = one_day_events(eng, family, i, params, state)
                    got = eng.day_signals(family, day, params, state)
                    assert repr(got) == repr(want) and got == want, (family, params, day.date)
                    # the runner's arrays hold the same entries, in entry order
                    at, span = eng.store(fd.session).start[i], slice(first[i], first[i + 1])
                    runner = [(int(c - at), LONG if s > 0 else SHORT)
                              for c, s in zip(ordered.col[span], ordered.sign[span])]
                    assert runner == [(e.bar_index, e.direction) for e in got], family
                    assert runner == sorted(runner), family
                    checked += bool(want)
    assert checked
