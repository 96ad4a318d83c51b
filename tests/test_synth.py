from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rows import day_from_bars
from falsify.bars import (_CHUNK_ROWS, ASIA, LONDON, RTH, Bar, TradingDay, group_days,
                          link_rth, serialize_days)
from falsify.execution import ExitKind, ExitSpec, simulate
from falsify.signals import LONG, SHORT, SignalEvent
from falsify.synth import (SUBSTEPS, DriftSpec, RegimeSpec, SynthError, SynthSpec, _weekdays,
                           gen_edge_days, gen_event_calendar, gen_null_days,
                           gen_regime_days, plant_drift)


# -- null generator ------------------------------------------------------------

def test_zero_days_is_empty():
    assert gen_null_days(SynthSpec(0)) == []


def test_seed_determinism_and_separation():
    a = serialize_days(gen_null_days(SynthSpec(20, seed=3)))
    b = serialize_days(gen_null_days(SynthSpec(20, seed=3)))
    c = serialize_days(gen_null_days(SynthSpec(20, seed=4)))
    assert a == b
    assert a != c


def test_dates_are_weekdays_and_span_two_years():
    days = gen_null_days(SynthSpec(500))
    assert all(d.date.weekday() < 5 for d in days)
    assert {d.date.year for d in days} == {2022, 2023}
    assert days[0].date == date(2022, 1, 3)
    assert len({d.date for d in days}) == 500


def test_ohlc_invariants_and_tick_grid():
    days = gen_null_days(SynthSpec(30, seed=9))
    for day in days:
        assert day.complete
        assert len(day.bars) == 78
        for b in day.bars:
            assert b.low <= min(b.open, b.close)
            assert b.high >= max(b.open, b.close)
            for px in (b.open, b.high, b.low, b.close):
                assert abs(px / 0.25 - round(px / 0.25)) < 1e-9
            assert b.volume > 0


def test_bar_returns_are_unbiased():
    days = gen_null_days(SynthSpec(200, seed=2, vol_per_bar=10.0))
    rets = np.array([b.close - b.open for d in days for b in d.bars])
    se = rets.std(ddof=1) / np.sqrt(len(rets))
    assert abs(rets.mean()) < 3 * se


def test_bar_vol_scale_matches_spec():
    days = gen_null_days(SynthSpec(300, seed=5, vol_per_bar=8.0))
    rets = np.array([b.close - b.open for d in days for b in d.bars])
    assert rets.std() == pytest.approx(8.0, rel=0.05)


def test_asia_session_supported():
    days = gen_null_days(SynthSpec(5, session=ASIA, seed=1))
    assert all(len(d.bars) == 72 for d in days)
    assert days[0].bars[0].ts.hour == 20


def test_gap_sigma_moves_the_open_in_every_session():
    # the overnight move is each day's first draw in any session; an Asia
    # day has no prior RTH close, so the move is pinned on the previous close
    spec = SynthSpec(6, session=ASIA, seed=3, gap_sigma=25.0)
    days = gen_null_days(spec)
    for di in range(1, len(days)):
        gap = np.random.default_rng([spec.seed, di]).normal(0.0, spec.gap_sigma)
        moved = float(days[di - 1].bars[-1].close) + gap
        assert days[di].bars[0].open == round(moved / spec.tick_size) * spec.tick_size
        assert days[di].bars[0].open != days[di - 1].bars[-1].close
        assert days[di].prior_rth_close is None
    flat = gen_null_days(SynthSpec(6, session=ASIA, seed=3))
    assert all(d.bars[0].open == prev.bars[-1].close for prev, d in zip(flat, flat[1:]))


def test_gap_sigma_produces_overnight_gaps():
    flat = gen_null_days(SynthSpec(40, seed=3, gap_sigma=0.0))
    gapped = gen_null_days(SynthSpec(40, seed=3, gap_sigma=25.0))
    gaps = [d.bars[0].open - d.prior_rth_close for d in gapped[1:]]
    assert np.std(gaps) == pytest.approx(25.0, rel=0.25)
    assert all(d.prior_rth_close == prev.bars[-1].close
               for prev, d in zip(flat, flat[1:]))


def test_vol_must_be_positive():
    with pytest.raises(SynthError):
        gen_null_days(SynthSpec(5, vol_per_bar=0.0))


@pytest.mark.parametrize("field, value", [
    ("tick_size", 0.0), ("tick_size", -0.25), ("tick_size", math.inf), ("tick_size", math.nan),
    ("base_price", math.inf), ("base_price", math.nan), ("gap_sigma", math.inf),
    ("gap_sigma", math.nan)])
def test_a_tick_price_or_gap_no_day_can_be_built_on_is_refused(field, value):
    with pytest.raises(SynthError, match=f"^{field} must be"):
        SynthSpec(5, **{field: value})


# -- planted drift --------------------------------------------------------------

def planted_corpus(magnitude, seed=11, n_days=150, horizon=13):
    spec = SynthSpec(n_days, seed=seed,
                     drift=DriftSpec(magnitude=magnitude, horizon=horizon))
    return gen_edge_days(spec)


def test_planted_events_land_in_tradeable_window():
    days, events = planted_corpus(15.0)
    assert events
    for ev in events:
        assert 6 <= ev.bar_index <= 76
        assert ev.bar_index + 13 <= 77


def test_planted_drift_recovered_by_simulation():
    days, events = planted_corpus(15.0, n_days=300)
    by_date = {d.date: d for d in days}
    exit = ExitSpec(ExitKind.HORIZON, horizon=13)
    gross = []
    for ev in events:
        res = simulate([ev], [by_date[ev.day]], exit)
        gross.extend(t.gross for t in res.trades)
    assert np.mean(gross) == pytest.approx(15.0, abs=1.5)


def test_zero_magnitude_plant_is_identity():
    base = gen_null_days(SynthSpec(50, seed=13))
    _, events = planted_corpus(15.0, seed=13, n_days=50)
    replanted = plant_drift(base, events, 0.0, 13)
    assert serialize_days(replanted) == serialize_days(base)


def test_plant_leaves_entry_open_untouched():
    base = gen_null_days(SynthSpec(20, seed=17))
    days, events = planted_corpus(15.0, seed=17, n_days=20)
    by_date = {d.date: d for d in base}
    for ev in events:
        orig = by_date[ev.day]
        planted = next(d for d in days if d.date == ev.day)
        assert planted.bars[ev.bar_index + 1].open == orig.bars[ev.bar_index + 1].open


def test_plant_respects_direction():
    base = gen_null_days(SynthSpec(1, seed=19))
    from falsify.execution import SignalEvent
    ev_s = SignalEvent("PLANTED", base[0].date, 10, SHORT)
    planted = plant_drift(base, [ev_s], 40.0, 5)
    moved = planted[0].bars[15].close - base[0].bars[15].close
    assert moved == pytest.approx(-40.0, abs=0.13)


@pytest.mark.parametrize("horizon", [0, -3])
def test_plant_rejects_bad_horizon(horizon):
    base = gen_null_days(SynthSpec(1, seed=19))
    ev = SignalEvent("PLANTED", base[0].date, 10, LONG)
    with pytest.raises(SynthError, match="horizon"):
        plant_drift(base, [ev], 15.0, horizon)


def test_edge_generator_rejects_a_horizon_that_can_never_plant():
    # signal bars are drawn from 6 to n - 2, so a horizon above n - 7 plants nothing
    london = lambda horizon: SynthSpec(30, session=LONDON, seed=8,
                                       drift=DriftSpec(5.0, horizon))
    assert gen_edge_days(london(15))[1]
    for spec in (london(16), SynthSpec(5, seed=8, drift=DriftSpec(5.0, 72))):
        with pytest.raises(SynthError, match="leaves no signal bar to plant"):
            gen_edge_days(spec)


@pytest.mark.parametrize("bar_index", [-1, 78, 500])
def test_plant_rejects_event_outside_the_day(bar_index):
    base = gen_null_days(SynthSpec(1, seed=19))
    ev = SignalEvent("PLANTED", base[0].date, bar_index, LONG)
    with pytest.raises(SynthError, match="outside"):
        plant_drift(base, [ev], 15.0, 5)


def test_plant_rejects_event_on_unknown_date():
    base = gen_null_days(SynthSpec(5, seed=19))
    ev = SignalEvent("PLANTED", date(2030, 1, 1), 10, LONG)
    with pytest.raises(SynthError, match="2030-01-01"):
        plant_drift(base, [ev], 15.0, 5)


def test_edge_days_keep_the_overnight_gap():
    days, _ = gen_edge_days(SynthSpec(120, seed=3, gap_sigma=50.0,
                                      drift=DriftSpec(magnitude=5.0, horizon=13)))
    gaps = [d.bars[0].open - d.prior_rth_close for d in days[1:]]
    assert np.std(gaps) == pytest.approx(50.0, rel=0.25)


# -- byte identity with the per-day and per-bar reference loops ------------------

def _day_bars(session, day, open_price, steps, volumes, tick):
    """One complete day from per-substep increments, as the per-day loop built
    it; returns (day, close)."""
    nbars = session.nominal_bar_count
    levels = open_price + np.cumsum(steps.reshape(-1))
    levels = (np.round(levels / tick) * tick).reshape(nbars, SUBSTEPS)
    first_open = round(open_price / tick) * tick
    opens = np.concatenate(([first_open], levels[:-1, -1]))
    closes = levels[:, -1]
    highs = np.maximum(opens, levels.max(axis=1))
    lows = np.minimum(opens, levels.min(axis=1))
    ts = (np.datetime64(datetime.combine(day, session.start), "us")
          + np.arange(nbars) * np.timedelta64(session.bar_minutes, "m"))
    return (TradingDay(day, session, ts, np.array([opens, highs, lows, closes]),
                       volumes.astype(np.int64), complete=True), float(closes[-1]))


def _volumes(rng, n, base, sigma, mults=None):
    v = base * rng.lognormal(0.0, sigma, size=n)
    if mults is not None:
        v = v * mults
    return np.maximum(np.round(v), 1.0)


def reference_null_days(spec):
    """The per-day loop gen_null_days replaced, kept as the reference."""
    sess = spec.session
    nbars = sess.nominal_bar_count
    step_sigma = spec.vol_per_bar / math.sqrt(SUBSTEPS)
    days, price = [], spec.base_price
    for di, d in enumerate(_weekdays(spec.start_date, spec.n_days)):
        rng = np.random.default_rng([spec.seed, di])
        if spec.gap_sigma > 0 and di > 0:
            price += rng.normal(0.0, spec.gap_sigma)
        steps = rng.normal(0.0, step_sigma, size=(nbars, SUBSTEPS))
        vols = _volumes(rng, nbars, spec.volume_base, spec.volume_sigma)
        day, price = _day_bars(sess, d, price, steps, vols, spec.tick_size)
        days.append(day)
    return link_rth(days)


def reference_edge_days(spec):
    """gen_edge_days on the reference null days and the reference planting."""
    drift, nbars = spec.drift, spec.session.nominal_bar_count
    days = reference_null_days(replace(spec, drift=None))
    events = []
    for di, day in enumerate(days):
        rng = np.random.default_rng([spec.seed, di, 1])
        for _ in range(drift.events_per_day):
            bi = int(rng.integers(6, nbars - 1))
            if bi + drift.horizon > nbars - 1:
                continue
            direction = LONG if rng.integers(0, 2) == 1 else SHORT
            events.append(SignalEvent("PLANTED", day.date, bi, direction))
    return reference_plant_drift(days, events, drift.magnitude, drift.horizon,
                                 spec.tick_size), events


def reference_plant_drift(days, events, magnitude, horizon, tick_size=0.25):
    """The per-bar loop plant_drift replaced, kept as the reference."""
    by_day = {}
    for ev in events:
        by_day.setdefault(ev.day, []).append(ev)
    out = []
    for day in days:
        evs = by_day.get(day.date)
        if not evs:
            out.append(day)
            continue
        n = len(day.bars)
        off_open = np.zeros(n)
        off_close = np.zeros(n)
        step_base = magnitude / horizon
        for ev in evs:
            sign = 1.0 if ev.direction == LONG else -1.0
            p = ev.bar_index
            for j in range(1, horizon + 1):
                if p + j >= n:
                    break
                off_open[p + j] += sign * step_base * (j - 1)
                off_close[p + j] += sign * step_base * j
            for i in range(p + horizon + 1, n):
                off_open[i] += sign * magnitude
                off_close[i] += sign * magnitude
        bars = []
        for i, b in enumerate(day.bars):
            o = b.open + off_open[i]
            c = b.close + off_close[i]
            hi = max(b.high + max(off_open[i], off_close[i]), o, c)
            lo = min(b.low + min(off_open[i], off_close[i]), o, c)
            q = lambda x: round(x / tick_size) * tick_size
            bars.append(Bar(b.ts, q(o), max(q(hi), q(o), q(c)),
                            min(q(lo), q(o), q(c)), q(c), b.volume))
        out.append(day_from_bars(day.date, day.session, bars,
                              day.prior_rth_close, day.complete))
    return link_rth(out)


def reference_regime_days(spec):
    """The rng.choice regime loop gen_regime_days replaced, kept as the reference."""
    reg = spec.regimes
    k = len(reg.means)
    trans = np.array(reg.transition)
    sess = spec.session
    nbars = sess.nominal_bar_count
    all_bars, labels = [], []
    price = spec.base_price
    for di, d in enumerate(_weekdays(spec.start_date, spec.n_days)):
        rng = np.random.default_rng([spec.seed, di])
        if spec.gap_sigma > 0 and di > 0:
            price += rng.normal(0.0, spec.gap_sigma)
        state = int(rng.integers(0, k))
        day_labels = np.empty(nbars, dtype=int)
        steps = np.empty((nbars, SUBSTEPS))
        mults = np.empty(nbars)
        for i in range(nbars):
            day_labels[i] = state
            mu = reg.means[state] / SUBSTEPS
            sd = reg.vols[state] / math.sqrt(SUBSTEPS)
            steps[i] = rng.normal(mu, sd, size=SUBSTEPS)
            mults[i] = reg.volume_mults[state]
            state = int(rng.choice(k, p=trans[state]))
        vols = _volumes(rng, nbars, spec.volume_base, spec.volume_sigma, mults)
        day, price = _day_bars(sess, d, price, steps, vols, spec.tick_size)
        all_bars.extend(day.bars)
        labels.append(day_labels)
    return group_days(all_bars, sess), labels


def as_float(x):
    return None if x is None else float(x)


def assert_days_identical(got, want):
    # bar by bar, not as text: a 0.1-point tick makes prices that are not whole
    # cents, which serialize_days refuses
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.date, g.session, g.complete) == (w.date, w.session, w.complete)
        assert g.prior_rth_close == w.prior_rth_close
        assert repr(as_float(g.prior_rth_close)) == repr(as_float(w.prior_rth_close))
        for gb, wb in zip(g.bars, w.bars, strict=True):
            assert gb == wb
            for field in ("open", "high", "low", "close", "volume"):
                a, b = getattr(gb, field), getattr(wb, field)
                assert repr(as_float(a)) == repr(as_float(b)), (gb.ts, field, a, b)


planted_events = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 77), st.sampled_from([LONG, SHORT])),
    max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50), asia=st.booleans(), raw_events=planted_events,
       magnitude=st.sampled_from([0.0, 15.0, -7.3, 40.0, 1e-3]),
       horizon=st.integers(1, 90), tick=st.sampled_from([0.25, 0.1]),
       base_price=st.sampled_from([15000.0, 0.0]), replant=st.booleans())
def test_plant_drift_matches_per_bar_loop(seed, asia, raw_events, magnitude, horizon,
                                          tick, base_price, replant):
    # overlapping events, several a day, both directions, events whose
    # horizon runs past the session end, an ASIA session (no RTH relink),
    # prices that round to zero from below, and planted days planted again
    session = ASIA if asia else RTH
    days = gen_null_days(SynthSpec(3, session=session, seed=seed, gap_sigma=5.0,
                                   base_price=base_price))
    n = session.nominal_bar_count
    events = [SignalEvent("PLANTED", days[di].date, bi % n, d) for di, bi, d in raw_events]
    if replant:
        days = plant_drift(days, events[::2], 9.0, 4)
    assert_days_identical(plant_drift(days, events, magnitude, horizon, tick),
                          reference_plant_drift(days, events, magnitude, horizon, tick))


def test_planted_offsets_are_summed_in_event_order():
    # three overlapping events on a flat day: on bars 3 and 4 their offsets,
    # summed in the other order, differ by an ulp that a 0.1 tick rounds apart
    ts = np.datetime64("2022-01-03T09:30", "us") + np.arange(12) * np.timedelta64(5, "m")
    flat = TradingDay(date(2022, 1, 3), RTH, ts, np.zeros((4, 12)), np.ones(12, np.int64),
                      complete=True)
    events = [SignalEvent("PLANTED", flat.date, p, LONG) for p in (0, 1, 2)]
    want = reference_plant_drift([flat], events, 0.7, 2, 0.1)
    assert_days_identical(plant_drift([flat], events, 0.7, 2, 0.1), want)
    reverse = reference_plant_drift([flat], events[::-1], 0.7, 2, 0.1)
    assert not np.array_equal(reverse[0].ohlc, want[0].ohlc)


@st.composite
def regime_specs(draw):
    k = draw(st.integers(1, 4))
    rows = []
    for _ in range(k):
        w = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.0, 7.0]), min_size=k, max_size=k)
                 .filter(lambda w: sum(w) > 0))
        rows.append(tuple(x / sum(w) for x in w))
    vals = st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k).map(tuple)
    return RegimeSpec(transition=tuple(rows),
                      means=draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)
                                 .map(tuple)),
                      vols=draw(vals), volume_mults=draw(vals))


@settings(max_examples=40, deadline=None)
@given(reg=regime_specs(), seed=st.integers(0, 10_000), asia=st.booleans(),
       gap=st.sampled_from([0.0, 10.0]))
def test_regime_days_match_choice_loop(reg, seed, asia, gap):
    spec = SynthSpec(3, session=ASIA if asia else RTH, seed=seed, gap_sigma=gap,
                     regimes=reg)
    days, labels = gen_regime_days(spec)
    ref_days, ref_labels = reference_regime_days(spec)
    assert_days_identical(days, ref_days)
    for lab, ref in zip(labels, ref_labels, strict=True):
        assert lab.dtype == ref.dtype and np.array_equal(lab, ref)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), session=st.sampled_from([RTH, ASIA, LONDON]),
       gap=st.sampled_from([0.0, 15.0]), base_price=st.sampled_from([15000.0, 0.0]),
       tick=st.sampled_from([0.25, 0.1]), n_days=st.sampled_from([0, 1, 5, 70]),
       horizon=st.integers(1, 15), events_per_day=st.integers(1, 3))
def test_null_days_match_per_day_loop(seed, session, gap, base_price, tick, n_days, horizon,
                                      events_per_day):
    # every session; with and without the overnight gap; prices about 0.0, where
    # Python's round gives 0.0 and np.round -0.0; a tick that is not a binary
    # fraction; no day, one day, several, and more than one chunk of the builder
    spec = SynthSpec(n_days, session=session, seed=seed, gap_sigma=gap,
                     base_price=base_price, tick_size=tick)
    days = gen_null_days(spec)
    assert_days_identical(days, reference_null_days(spec))
    for day in days:
        assert (day.ts.dtype, day.ohlc.dtype, day.volume.dtype) == ("M8[us]", float, np.int64)
        assert day.ohlc.shape == (4, len(day.ts)) == (4, session.nominal_bar_count)
    spec = replace(spec, drift=DriftSpec(12.5, horizon, events_per_day))
    days, events = gen_edge_days(spec)
    ref_days, ref_events = reference_edge_days(spec)
    assert events == ref_events
    assert_days_identical(days, ref_days)

CONFLUENCE_LIKE = RegimeSpec(
    transition=((0.94, 0.01, 0.05), (0.25, 0.50, 0.25), (0.05, 0.01, 0.94)),
    means=(-8.0, 0.0, 8.0), vols=(1.5, 4.0, 1.5), volume_mults=(1.0, 3.5, 1.0))


def test_generated_corpora_match_golden_digests():
    # recorded with the per-bar generators; any change to the generation
    # stream changes these digests
    days, labels = gen_regime_days(SynthSpec(6, vol_per_bar=8.0, seed=7, gap_sigma=10.0,
                                             regimes=CONFLUENCE_LIKE))
    text = serialize_days(days) + "".join(str(s) for lab in labels for s in lab)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1e3ea2658b93e5d1c2c0dc1582b1a874df30bcc9541d34471e96b6ac378a0f36"
    days, events = gen_edge_days(SynthSpec(8, session=ASIA, seed=5,
                                           drift=DriftSpec(12.5, 7, events_per_day=3)))
    # the planted events' fields: the digest pins generation, not SignalEvent's repr
    text = serialize_days(days) + repr([(e.family, e.day, e.bar_index, e.direction)
                                        for e in events])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3891f944d125f646381a32ab7cc2b1bb60fd8570477af66e56d27eb799f94429"
    # 23,400 bars: longer than one of serialize_days's formatting chunks
    days = gen_null_days(SynthSpec(300, seed=11, gap_sigma=15.0))
    assert sum(len(d.ts) for d in days) > _CHUNK_ROWS
    text = serialize_days(days, header_comment="300 RTH days")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e4fa66e9266e9d0695bf606aacca93521fb2fab6084272683df00c590030a7eb"


@pytest.mark.parametrize("generate", [
    lambda: gen_null_days(SynthSpec(12, seed=4, gap_sigma=20.0)),
    lambda: gen_null_days(SynthSpec(12, session=ASIA, seed=4)),
    lambda: gen_null_days(SynthSpec(12, session=LONDON, seed=4)),
    lambda: gen_regime_days(SynthSpec(12, seed=4, gap_sigma=10.0,
                                      regimes=CONFLUENCE_LIKE))[0],
    lambda: gen_edge_days(SynthSpec(12, seed=4, gap_sigma=20.0,
                                    drift=DriftSpec(12.5, 7, events_per_day=2)))[0],
], ids=["rth-gap", "asia", "london", "regime", "edge"])
def test_generated_days_equal_their_bars_regrouped(generate):
    # the generators build days on the session grid directly; grouping
    # their bars again must change nothing
    days = generate()
    bars = [b for d in days for b in d.bars]
    assert_days_identical(days, group_days(bars, days[0].session))


# -- hidden-regime generator ----------------------------------------------------

def single_regime_spec(mean, vol=2.0):
    return RegimeSpec(transition=((1.0,),), means=(mean,), vols=(vol,),
                      volume_mults=(1.0,))


def test_single_regime_drift_shows_up():
    reg = single_regime_spec(3.0, vol=1.0)
    days, labels = gen_regime_days(SynthSpec(100, seed=21, vol_per_bar=1.0, regimes=reg))
    rets = np.array([b.close - b.open for d in days for b in d.bars])
    assert rets.mean() == pytest.approx(3.0, abs=0.1)
    assert all((lab == 0).all() for lab in labels)


def test_transition_frequencies_match_matrix():
    trans = ((0.9, 0.1), (0.3, 0.7))
    reg = RegimeSpec(transition=trans, means=(0.0, 0.0), vols=(2.0, 2.0),
                     volume_mults=(1.0, 1.0))
    _, labels = gen_regime_days(SynthSpec(400, seed=23, regimes=reg))
    counts = np.zeros((2, 2))
    for lab in labels:
        for a, b in zip(lab[:-1], lab[1:]):
            counts[a, b] += 1
    emp = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(emp - np.array(trans))) < 0.03


def test_regime_volume_multiplier_applied():
    reg = RegimeSpec(transition=((0.5, 0.5), (0.5, 0.5)), means=(0.0, 0.0),
                     vols=(2.0, 2.0), volume_mults=(1.0, 4.0))
    days, labels = gen_regime_days(SynthSpec(150, seed=25, regimes=reg))
    v0, v1 = [], []
    for day, lab in zip(days, labels):
        for b, s in zip(day.bars, lab):
            (v1 if s == 1 else v0).append(b.volume)
    assert np.mean(v1) / np.mean(v0) == pytest.approx(4.0, rel=0.1)


def test_bad_transition_rows_rejected():
    with pytest.raises(SynthError):
        RegimeSpec(transition=((0.6, 0.3),), means=(0.0, 0.0), vols=(1.0, 1.0),
                   volume_mults=(1.0, 1.0))


TWO_STATE = dict(transition=((0.9, 0.1), (0.3, 0.7)), means=(0.0, 0.0), vols=(2.0, 2.0),
                 volume_mults=(1.0, 1.0))


@pytest.mark.parametrize("change, match", [
    ({"transition": ((0.9, 0.1),)}, "2x2"),
    ({"transition": ((0.9, 0.1), (0.3, 0.7), (0.5, 0.5))}, "2x2"),
    ({"transition": ((0.9, 0.05, 0.05), (0.3, 0.7))}, "2x2"),
    ({"vols": (2.0,)}, "one entry per regime"),
    ({"volume_mults": (1.0, 1.0, 1.0)}, "one entry per regime"),
    ({"means": (), "vols": (), "volume_mults": (), "transition": ()}, "at least one"),
    ({"transition": ((1.2, -0.2), (0.3, 0.7))}, ">= 0"),
    ({"vols": (2.0, -1.0)}, ">= 0"),
    ({"volume_mults": (-1.0, 1.0)}, ">= 0"),
    ({"transition": ((float("nan"), 1.0), (0.3, 0.7))}, "finite"),
    ({"transition": ((0.9, 0.1), (float("inf"), 0.7))}, "finite"),
    ({"means": (0.0, float("nan"))}, "finite"),
    ({"vols": (float("inf"), 2.0)}, "finite"),
])
def test_malformed_regime_spec_rejected(change, match):
    with pytest.raises(SynthError, match=match):
        RegimeSpec(**{**TWO_STATE, **change})


def test_generator_spec_mismatches_rejected():
    with pytest.raises(SynthError):
        gen_regime_days(SynthSpec(5))
    with pytest.raises(SynthError):
        gen_edge_days(SynthSpec(5))
    with pytest.raises(SynthError):
        gen_null_days(SynthSpec(5, drift=DriftSpec(10.0, 5)))
    with pytest.raises(SynthError):
        gen_null_days(SynthSpec(2, regimes=CONFLUENCE_LIKE))
    with pytest.raises(SynthError):
        gen_edge_days(SynthSpec(2, drift=DriftSpec(10.0, 5), regimes=CONFLUENCE_LIKE))
    with pytest.raises(SynthError):
        gen_regime_days(SynthSpec(2, drift=DriftSpec(10.0, 5), regimes=CONFLUENCE_LIKE))


# -- synthetic event calendar ------------------------------------------------------

def test_event_calendar_rate_and_shape():
    days = gen_null_days(SynthSpec(400, seed=27))
    events = gen_event_calendar(days, seed=1, rate=0.15)
    frac = len(events) / len(days)
    assert 0.10 < frac < 0.20
    for e in events:
        assert e.ts.hour == 14
        assert e.currency == "USD"
    assert gen_event_calendar(days, seed=1) == gen_event_calendar(days, seed=1)



def test_event_calendar_draws_as_the_per_day_loop():
    days = gen_null_days(SynthSpec(500, seed=3))
    rng = np.random.default_rng([3, 7])
    want = [d.date for d in days if rng.random() < 0.15]
    assert [e.ts.date() for e in gen_event_calendar(days, seed=3)] == want

def test_prior_rth_close_is_the_close_array_value_on_every_path(tmp_path):
    # parsed, generated, regime and planted days all link by one rule: the
    # prior complete day's last close, as its close array holds it
    from falsify.bars import parse_bar_file
    days = gen_null_days(SynthSpec(12, seed=2, gap_sigma=5.0))
    path = tmp_path / "bars.csv"
    path.write_text(serialize_days(days), encoding="utf-8")
    regime, _ = gen_regime_days(SynthSpec(6, seed=2, regimes=CONFLUENCE_LIKE))
    planted = plant_drift(days, [SignalEvent("PLANTED", days[k].date, 30, LONG)
                                 for k in (2, 3, 7)], 12.0, 5)
    for corpus in (parse_bar_file(path, RTH), days, regime, planted):
        assert corpus[0].prior_rth_close is None
        for prev, day in zip(corpus, corpus[1:]):
            close = prev.ohlc[3, -1]
            assert type(day.prior_rth_close) is type(close) is np.float64
            assert day.prior_rth_close == close
    assert planted[3].prior_rth_close == planted[2].ohlc[3, -1] != days[2].ohlc[3, -1]
