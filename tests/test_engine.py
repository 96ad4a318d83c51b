from __future__ import annotations

from collections import Counter
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest

import rows
from rows import bar_arrays, day_from_bars
from falsify import engine as engine_mod
from falsify.bars import LONDON, TradingDay, link_rth
from falsify.config import config_from_dict
from falsify.engine import DataBundle, Engine, EngineError, default_families
from falsify.features import (gmm_fit, markov_transition_prob, regime_features, rolling_stat,
                              true_ranges, volume_zscore)
from falsify.signals import LONG
from falsify.synth import RegimeSpec, SynthSpec, gen_null_days, gen_regime_days, plant_drift
from falsify.validation import make_plan, walk_forward


def make_engine(rth=None, asia=None, london=None, cfg=None):
    bundle = DataBundle(rth=rth or [], asia=asia or [], london=london or [])
    return Engine(bundle, config_from_dict(cfg or {}))


def two_year_null(n=400, seed=0, **kw):
    return gen_null_days(SynthSpec(n, seed=seed, **kw))


def test_family_table_is_complete():
    fams = default_families()
    assert len(fams) == 16
    assert {f.session for f in fams.values()} == {"rth", "asia", "london"}
    for f in fams.values():
        assert f.grid and f.exit_grid


def test_every_grid_point_declares_the_same_tunables():
    for f in default_families().values():
        for point in f.grid:
            assert point.keys() == f.grid[0].keys(), f.name


def test_override_typo_rejected():
    with pytest.raises(EngineError, match=r"OU_REVERSION.*\['treshold'\]"):
        make_engine(cfg={"families": {"OU_REVERSION": {"treshold": 2.0}}})
    with pytest.raises(EngineError, match="ORB_LONG"):
        make_engine(cfg={"families": {"ORB_LONG": {"threshold": 2.0}}})


@pytest.mark.parametrize("family,key,value", [
    ("ORB_PULLBACK", "pullback_offset", "x"),
    ("ORB_PULLBACK", "pullback_offset", True),
    ("ORB_PULLBACK", "pullback_offset", None),
    ("EVENT_DRIFT", "start_bar_offset", 6.5),
    ("GAP_FILL_FADE", "entry_time", 945),
    ("VVG_REVERSAL", "mode", ["REVERSAL"]),
    ("LIQUIDITY_GRAB_FADE", "lookback", 0),
    ("LIQUIDITY_GRAB_CONT", "lookback", 2.0),
    ("LIQUIDITY_GRAB_CONT", "lookback", True),
])
def test_override_of_the_wrong_type_rejected(family, key, value):
    with pytest.raises(EngineError, match=f"{family} parameter {key} must be"):
        make_engine(cfg={"families": {family: {key: value}}})


def test_override_of_the_default_type_accepted():
    eng = make_engine(cfg={"families": {
        "ORB_PULLBACK": {"pullback_offset": 4}, "EVENT_DRIFT": {"start_bar_offset": 8},
        "GAP_FILL_FADE": {"entry_time": "09:45", "min_gap": 2.5},
        "LIQUIDITY_GRAB_FADE": {"lookback": 3}, "LIQUIDITY_GRAB_CONT": {"lookback": None}}})
    assert eng.config.family_overrides("ORB_PULLBACK") == {"pullback_offset": 4}


def test_families_sharing_a_fit_share_its_state():
    days = two_year_null(60, seed=5)
    eng = make_engine(rth=days)
    train = days[:30]
    assert eng._fit_state("VOL_SPIKE", train, {}) is eng._fit_state("VOL_DRYUP", train, {})
    assert eng._fit_state("VVG_REVERSAL", train, {"mode": "CLOSE_FADE"}) \
        is eng._fit_state("VVG_CONTINUATION", train, {})
    assert eng._fit_state("OU_REVERSION", train, {"threshold": 1.5}) \
        is eng._fit_state("OU_REVERSION", train, {"threshold": 2.5})
    assert eng._fit_state("VOL_SPIKE", days[:40], {}) is not eng._fit_state("VOL_SPIKE", train, {})
    assert eng._fit_state("ORB_LONG", train, {}) == {}


def test_unknown_family_rejected():
    eng = make_engine(rth=two_year_null(10))
    with pytest.raises(EngineError):
        eng.run_family("MOMO_MAGIC")


def test_missing_session_data_rejected():
    eng = make_engine(rth=two_year_null(10))
    with pytest.raises(EngineError, match="asia"):
        eng.run_family("ASIA_EXPANSION")


def test_null_corpus_fails_the_gate():
    eng = make_engine(rth=two_year_null(300, seed=12, gap_sigma=15.0))
    for family in ("ORB_LONG", "ORB_SHORT", "VOL_SPIKE", "GAP_FILL_FADE"):
        _, metrics, verdict = eng.run_family(family)
        assert not verdict.overall, (family, metrics)


def test_planted_breakout_edge_passes_only_its_family():
    days = two_year_null(350, seed=31)
    probe = make_engine(rth=days)
    events = []
    for d in days:
        events.extend(probe.day_signals("ORB_LONG", d, {}, {}))
    assert len(events) > 100
    planted = plant_drift(days, events, 25.0, 15)

    eng = make_engine(rth=planted)
    _, metrics, verdict = eng.run_family("ORB_LONG")
    assert verdict.overall, metrics
    assert metrics.t_stat > 3.0
    _, _, verdict_s = eng.run_family("ORB_SHORT")
    assert not verdict_s.overall


def test_the_null_pool_is_exactly_the_test_years(monkeypatch):
    # three calendar years, two folds: the training-only first year must not
    # reach the placements the null draws from
    days = two_year_null(600, seed=31)
    probe = make_engine(rth=days)
    events = [e for d in days for e in probe.day_signals("ORB_LONG", d, {}, {})]
    eng = make_engine(rth=plant_drift(days, events, 25.0, 15),
                      cfg={"permutation": {"iterations": 20, "families": ["ORB_LONG"]}})
    pools = []
    real = engine_mod.permutation_test
    monkeypatch.setattr(engine_mod, "permutation_test",
                        lambda trades, pool, *a, **kw: pools.append(pool) or
                        real(trades, pool, *a, **kw))
    result, metrics, _ = eng.run_family("ORB_LONG")
    assert [f.test_year for f in result.plan.folds] == [2023, 2024]
    assert metrics.permutation_p is not None and len(pools) == 1
    assert pools[0] == [d for d in eng.complete_days("rth") if d.year in (2023, 2024)]


def test_exit_selection_tracks_planted_horizon():
    days = two_year_null(350, seed=31)
    probe = make_engine(rth=days)
    events = []
    for d in days:
        events.extend(probe.day_signals("ORB_LONG", d, {}, {}))
    planted = plant_drift(days, events, 25.0, 15)
    eng = make_engine(rth=planted)
    result, _, _ = eng.run_family("ORB_LONG")
    assert all(c.exit.horizon == 15 for c in result.chosen)


def test_runner_results_stable_across_calls(monkeypatch):
    days = two_year_null(60, seed=7)
    eng = make_engine(rth=days)
    run = eng.runner("ORB_LONG")
    from falsify.engine import ExitSpec
    from falsify.execution import ExitKind
    exit = ExitSpec(ExitKind.HORIZON, horizon=15)
    first = run(days[:30], days[30:], {}, exit)
    emitted = []
    real = eng.day_signals
    monkeypatch.setattr(eng, "day_signals", lambda *a: emitted.append(a) or real(*a))
    second = run(days[:30], days[30:], {}, exit)
    assert emitted == []  # the runner's emission over the store answers every day
    assert first.net.tolist() == second.net.tolist()
    assert first.records() == second.records() != []


def test_runner_nets_follow_the_trade_order_of_simulate():
    import dataclasses
    from falsify.execution import ExitKind, ExitSpec, simulate
    from falsify.signals import SHORT, Entries, SignalEvent
    days = two_year_null(60, seed=5)
    eng = make_engine(rth=days)
    one_day = [(40, SHORT), (40, LONG), (10, LONG)]  # out of entry order, as a rule may be
    bar, sign = np.array([(b, 1 if dr == LONG else -1) for b, dr in one_day]).T
    emit = lambda e, store, p, s: Entries((store.start[:-1, None] + bar).ravel(),
                                          np.tile(sign, len(store.days)),
                                          np.full(len(store.days) * len(bar), np.nan))
    eng.families["ORB_LONG"] = dataclasses.replace(eng.families["ORB_LONG"], emit=emit)
    exit = ExitSpec(ExitKind.HORIZON, horizon=3)
    got = eng.runner("ORB_LONG")(days[:30], days[:30], {}, exit)
    want = [t for d in days[:30] for t in simulate(
        [SignalEvent("ORB_LONG", d.date, b, dr) for b, dr in one_day], [d], exit).trades]
    assert got.net.tolist() == [t.net for t in want] and got.records() == want


def test_overnight_velocity_falls_back_to_prior_rth():
    days = two_year_null(12, seed=3)
    eng = make_engine(rth=days)
    vel = eng.overnight_velocity()
    assert len(vel) == len(eng.complete_days("rth")) == len(days)
    assert np.isnan(vel[0])  # nothing precedes the first day
    assert np.isfinite(vel[1:]).all()


def test_overnight_velocity_prefers_asia_bars():
    rth = two_year_null(6, seed=3)
    asia = gen_null_days(SynthSpec(6, session=__import__("falsify.bars", fromlist=["ASIA"]).ASIA, seed=4))
    with_asia = make_engine(rth=rth, asia=asia).overnight_velocity()
    without = make_engine(rth=rth).overnight_velocity()
    shared = np.isfinite(with_asia) & np.isfinite(without)
    assert shared.any()
    assert (with_asia[shared] != without[shared]).any()


@pytest.mark.parametrize("with_asia", [True, False])
def test_zscored_overnight_velocity_divides_by_its_source_std(with_asia):
    from falsify.bars import ASIA
    from falsify.features import kalman_velocity
    rth = two_year_null(30, seed=3)
    asia = gen_null_days(SynthSpec(30, session=ASIA, seed=4)) if with_asia else []
    kalman = {"q": 2e-3, "r": 0.5}
    raw = make_engine(rth=rth, asia=asia, cfg={"kalman": kalman}).overnight_velocity()
    z = make_engine(rth=rth, asia=asia,
                    cfg={"kalman": {**kalman, "zscored": True}}).overnight_velocity()
    # by RTH store index: the Asia session dated the day before, or else the prior RTH day
    sources = dict(zip(range(1, len(rth)), asia or rth))
    assert len(raw) == len(z) == len(rth)
    assert np.isnan(raw[0]) and np.isnan(z[0])
    for i, src in sources.items():
        vel = kalman_velocity(src.ohlc[3], **kalman)
        assert raw[i] == vel[-1]
        assert z[i] == vel[-1] / np.std(vel)


def test_config_overrides_reach_the_grid():
    eng = make_engine(rth=two_year_null(10),
                      cfg={"families": {"OU_REVERSION": {"threshold": 9.9}}})
    grid, _ = eng.family_grid("OU_REVERSION")
    assert all(g["threshold"] == 9.9 for g in grid)


@pytest.mark.parametrize("cfg", [{"families": {"OU_REVERSON": {"threshold": 2.0}}},
                                 {"permutation": {"families": ["LONDON_A"]}}])
def test_unknown_family_name_in_config_rejected(cfg):
    with pytest.raises(EngineError, match="OU_REVERSON|LONDON_A"):
        make_engine(cfg=cfg)


def test_permutation_skipped_when_gate_already_fails():
    # when the cheap criteria cannot pass, the permutation stage must not
    # run and the p-value stays unset; an absurd t threshold forces that
    eng = make_engine(rth=two_year_null(300, seed=40),
                      cfg={"gate": {"t_min": 50.0}})
    _, metrics, verdict = eng.run_family("CONFLUENCE_RTH")
    assert metrics.permutation_p is None
    assert not verdict.overall
    assert verdict.failure_label == "FAIL – T < 50.0"


def test_gap_cont_short_min_gap_applies():
    days = two_year_null(300, seed=12, gap_sigma=15.0)
    default, _, _ = make_engine(rth=days).run_family("GAP_CONT_SHORT", permutation=False)
    assert default.oos_trades
    strict, _, _ = make_engine(
        rth=days, cfg={"families": {"GAP_CONT_SHORT": {"min_gap": 1000.0}}}
    ).run_family("GAP_CONT_SHORT", permutation=False)
    assert strict.oos_trades == []


def entries(events):
    """Events as the (bar_index, direction) entries their emitter returned."""
    return [(e.bar_index, e.direction) for e in events]


def test_per_day_series_computed_once_and_shared(monkeypatch):
    from falsify import signals as sig
    from falsify.bars import ASIA
    rth = two_year_null(60, seed=5)
    asia = gen_null_days(SynthSpec(30, session=ASIA, seed=6))
    eng = make_engine(rth=rth, asia=asia)
    state = eng._fit_state("VOL_SPIKE", rth[:30], {})
    cuts = state["spike_cutoff"], state["dryup_cutoff"]
    want = [(sig.volume_signature_signals(d, True, cuts[0], sig.volume_ratio_series(d)),
             sig.volume_signature_signals(d, False, cuts[1], sig.volume_ratio_series(d)))
            for d in rth[30:]]
    multiples = (1.5, 2.0, 2.5)
    want_asia = [[sig.asia_expansion_signals(d, m, sig.mean_range_series(d)) for m in multiples]
                 for d in asia]

    calls = []
    for name in ("volume_ratio_series", "mean_range_series"):
        real = getattr(sig, name)
        monkeypatch.setattr(sig, name, lambda store, *a, real=real, name=name: calls.append(
            (name, [d.date for d in store.days])) or real(store, *a))
    got = [(entries(eng.day_signals("VOL_SPIKE", d, {}, state)),
            entries(eng.day_signals("VOL_DRYUP", d, {}, state))) for d in rth[30:]]
    got_asia = [[entries(eng.day_signals("ASIA_EXPANSION", d, {"multiple": m}, {}))
                 for m in multiples] for d in asia]
    assert got == want and got_asia == want_asia
    assert any(s and d for s, d in want) and any(any(evs) for evs in want_asia)
    # one series per session, over all its days, shared by both families and every grid point
    assert sorted(calls) == [("mean_range_series", [d.date for d in asia]),
                             ("volume_ratio_series", [d.date for d in rth])]


def reference_fit_regime(eng, session, train):
    """``_fit_regime`` recomputed from the bars: every fold rebuilds the full-stream
    inputs, and refits the fold chain before it to start its EM from."""
    prev = [d for d in train if d.year < train[-1].year]
    warm = 4 * len(prev) >= len(train)
    start = reference_fit_regime(eng, session, prev)["model"] if warm else None
    stream = bar_arrays(b for d in train for b in d.bars)
    X = regime_features(*stream, vol_window=50)
    model = gmm_fit(X[50:], k=3, seed=eng.config.seed, start=start)
    atr = rolling_stat(true_ranges(stream[0]), 20)
    finite = atr[np.isfinite(atr)]
    days = eng.complete_days(session)
    full = bar_arrays(b for d in days for b in d.bars)
    labels = model.predict(regime_features(*full, vol_window=50))
    series = {"labels": labels, "trans": markov_transition_prob(labels, window=200, frm=1, to=2),
              "vz": volume_zscore(full[1], 50),
              "atr": rolling_stat(true_ranges(full[0]), 20)}
    return {"atr_baseline": float(np.median(finite)) if len(finite) else 1.0,
            "model": model, "series": series}


MODEL_ATTRS = ("n_iter_", "converged_", "warm_start_", "means_", "variances_", "weights_")


def test_regime_state_is_bit_equal_on_every_fold_and_built_once(monkeypatch):
    # 2021-12 to 2023-01: three calendar years, so two expanding folds
    reg = RegimeSpec(transition=((0.9, 0.05, 0.05), (0.2, 0.5, 0.3), (0.05, 0.05, 0.9)),
                     means=(-6.0, 0.0, 6.0), vols=(2.0, 5.0, 2.0), volume_mults=(1.0, 3.0, 1.0))
    start = date(2021, 12, 1)
    rth, _ = gen_regime_days(SynthSpec(300, seed=11, start_date=start, regimes=reg))
    london, _ = gen_regime_days(SynthSpec(300, session=LONDON, seed=12, start_date=start,
                                          regimes=reg))
    eng = make_engine(rth=rth, london=london)
    built = Counter()
    for name in ("regime_features", "volume_zscore", "rolling_stat"):
        real = getattr(engine_mod, name)
        monkeypatch.setattr(engine_mod, name, lambda x, *a, real=real, name=name, **kw:
                            built.update([(name, np.shape(x)[-1])]) or real(x, *a, **kw))
    for family, session, days in (("CONFLUENCE_RTH", "rth", rth),
                                  ("LONDON_B", "london", london)):
        plan = make_plan([d.year for d in days])
        assert len(plan.folds) == 2
        for fold in plan.folds:
            train = [d for d in days if d.year in fold.train_years]
            state = eng._fit_state(family, train, {})
            want = reference_fit_regime(eng, session, train)
            assert state.keys() == {"labels", "trans", "atr_baseline", "model"}
            assert state["atr_baseline"] == want["atr_baseline"]
            for attr in MODEL_ATTRS:
                assert np.array_equal(getattr(state["model"], attr),
                                      getattr(want["model"], attr)), attr
            _, vz, atr = eng.per_session(engine_mod._regime_inputs, session)
            got = {"labels": state["labels"], "trans": state["trans"], "vz": vz, "atr": atr}
            for key, arr in want["series"].items():
                assert got[key].dtype == arr.dtype
                assert np.array_equal(got[key], arr, equal_nan=True), key
            assert np.isfinite(state["trans"]).any()
        # the emitters slice each day's columns out of those session-long arrays
        ends = np.cumsum([len(d.ts) for d in days])
        assert eng.store(session).cols == {
            d.date: slice(int(end) - len(d.ts), int(end)) for d, end in zip(days, ends)}
        n = sum(len(d.bars) for d in days)
        assert [built[(name, n)] for name in ("regime_features", "volume_zscore",
                                              "rolling_stat")] == [1, 1, 1], family


def test_regime_inputs_read_each_stream_once(monkeypatch):
    # a two-fold walk-forward computes one volume z-score, one feature matrix
    # and one ATR, all over the whole session stream: regime_features takes
    # the z-score it is given, and each fold's training inputs are a prefix
    from falsify import features
    reg = RegimeSpec(transition=((0.9, 0.05, 0.05), (0.2, 0.5, 0.3), (0.05, 0.05, 0.9)),
                     means=(-6.0, 0.0, 6.0), vols=(2.0, 5.0, 2.0), volume_mults=(1.0, 3.0, 1.0))
    rth, _ = gen_regime_days(SynthSpec(300, seed=11, start_date=date(2021, 12, 1), regimes=reg))
    eng = make_engine(rth=rth)
    calls = Counter()
    for mod in (features, engine_mod):
        for name in ("regime_features", "volume_zscore", "rolling_stat"):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda x, *a, real=real, name=name, **kw:
                                calls.update([(name, np.shape(x)[-1])]) or real(x, *a, **kw))
    result, _, _ = eng.run_family("CONFLUENCE_RTH", permutation=False)
    assert len(result.plan.folds) == 2
    n = sum(len(d.bars) for d in rth)
    assert calls == Counter({("regime_features", n): 1, ("volume_zscore", n): 1,
                             ("rolling_stat", n): 1})


# -- walk-forward on the array kernel ----------------------------------------------

def three_year_bundle() -> DataBundle:
    # 2021-12 to 2023-01: three calendar years, so two expanding folds
    from falsify.bars import ASIA
    from falsify.synth import gen_event_calendar
    start = date(2021, 12, 1)
    rth = gen_null_days(SynthSpec(300, seed=21, start_date=start, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(300, session=ASIA, seed=22, start_date=start))
    london = gen_null_days(SynthSpec(300, session=LONDON, seed=23, start_date=start))
    return DataBundle(rth, asia, london, gen_event_calendar(rth, seed=21))


FIT_FAMILIES = ("CONFLUENCE_RTH", "LONDON_B", "OU_REVERSION", "VOL_SPIKE", "VVG_REVERSAL")


@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_every_fit_rejects_a_window_that_does_not_open_the_session(family):
    # every fit reads the first len(train) days of its session's store, so the
    # window must be a non-empty leading run of the very day objects the engine holds
    eng = Engine(three_year_bundle(), config_from_dict({}))
    session = default_families()[family].session
    days = eng.complete_days(session)
    copies = [day_from_bars(d.date, d.session, d.bars, d.prior_rth_close, d.complete)
              for d in days[:80]]
    for train in (days[40:120], copies, days + days[:1], []):
        with pytest.raises(EngineError, match=f"leading run of the complete {session} days"):
            eng._fit_state(family, train, {})
    assert eng._fit_state(family, days[:80], {})


def reference_fit(eng, family, train):
    """``family``'s fitted state recomputed from ``train`` alone: its closes laid
    end to end, its ratio series, or the VVG metric rows of its dates."""
    from falsify import signals as sig
    from falsify.bars import session_primitives, session_store
    from falsify.features import ou_fit
    if family == "OU_REVERSION":
        return {"fit": ou_fit(np.concatenate([d.ohlc[3] for d in train]))}
    if family == "VOL_SPIKE":
        lo, hi = sig.volume_ratio_cutoffs([sig.volume_ratio_series(d) for d in train])
        return {"dryup_cutoff": lo, "spike_cutoff": hi}
    days = eng.complete_days("rth")
    metrics = sig.vvg_metrics(session_primitives(session_store(days)))
    dates = {d.date for d in train}
    cuts = sig.vvg_boundaries(metrics[[i for i, d in enumerate(days) if d.date in dates]])
    return {"flags": sig.vvg_classify(metrics, cuts)}


@pytest.mark.parametrize("family", FIT_FAMILIES)
def test_every_fit_equals_its_value_from_the_training_days_alone(family):
    eng = Engine(three_year_bundle(), config_from_dict({}))
    session = default_families()[family].session
    days = eng.complete_days(session)
    for fold in make_plan([d.year for d in days]).folds:
        train = [d for d in days if d.year in fold.train_years]
        state = eng._fit_state(family, train, {})
        if family in ("CONFLUENCE_RTH", "LONDON_B"):
            want = reference_fit_regime(eng, session, train)
            assert state["atr_baseline"] == want["atr_baseline"]
            assert np.array_equal(state["labels"], want["series"]["labels"])
        elif family == "VVG_REVERSAL":
            want = reference_fit(eng, family, train)["flags"]
            assert state.keys() == {"flags"}, fold
            assert state["flags"].dtype == bool and np.array_equal(state["flags"], want), fold
        else:
            assert state == reference_fit(eng, family, train), fold


def test_each_fit_state_and_day_is_emitted_once_and_only_test_days_simulated(monkeypatch):
    eng = Engine(three_year_bundle(), config_from_dict({}))
    emitted, simulated = Counter(), []
    real_emit, real_simulate = Engine.day_signals, engine_mod.simulate

    def emit(self, family, day, params, state):
        emitted[family, id(state), repr(sorted(params.items())), day.date] += 1
        return real_emit(self, family, day, params, state)

    def simulate(events, days, *a):
        simulated.append((family, [d.date for d in days], len(events)))
        return real_simulate(events, days, *a)
    monkeypatch.setattr(Engine, "day_signals", emit)
    monkeypatch.setattr(engine_mod, "simulate", simulate)
    states = set()
    for family in sorted(default_families()):
        result, _, _ = eng.run_family(family, permutation=False)
        assert [f.test_year for f in result.plan.folds] == [2022, 2023]
        days = eng.complete_days(default_families()[family].session)
        states |= {id(eng._fit_state(family, [d for d in days if d.year in f.train_years], {}))
                   for f in result.plan.folds}
        calls = [(dates, n) for fam, dates, n in simulated if fam == family]
        years = [dates[0].year for dates, _ in calls]
        # one simulate call per fold with test-year events, over that year's days only
        assert len(set(years)) == len(years) and all(n > 0 for _, n in calls), family
        assert [dates for dates, _ in calls] == [
            [d.date for d in days if d.year == y] for y in years], family
        assert {t.year for t in result.oos_trades} <= set(years), family
    # every state a family emitted under is its fold's fitted state
    assert {key[1] for key in emitted} <= states
    assert emitted and max(emitted.values()) == 1
    assert {dates[0].year for _, dates, _ in simulated} == {2022, 2023}


def without_its_middle_bar(day: TradingDay) -> TradingDay:
    """``day`` with its middle bar taken out: an incomplete day, as ingest flags one."""
    keep = np.arange(len(day.ts)) != len(day.ts) // 2
    return TradingDay(day.date, day.session, day.ts[keep], day.ohlc[:, keep], day.volume[keep],
                      day.prior_rth_close, complete=False)


def test_day_signals_names_only_the_days_of_its_store():
    # the engine emits only over its session stores: an incomplete day of the bundle
    # and an equal copy of a store day are both outside it, and asking for either fails
    from falsify.bars import ASIA, RTH
    from falsify.synth import gen_event_calendar
    sessions = {key: gen_null_days(SynthSpec(60, session=s, seed=41 + k, gap_sigma=15.0))
                for k, (key, s) in enumerate((("rth", RTH), ("asia", ASIA), ("london", LONDON)))}
    cut = {key: link_rth([without_its_middle_bar(d) if i == 30 else d for i, d in enumerate(days)])
           for key, days in sessions.items()}
    eng = Engine(DataBundle(**cut, events=gen_event_calendar(sessions["rth"], seed=41)),
                 config_from_dict({}))
    for family, fd in sorted(default_families().items()):
        days = eng.complete_days(fd.session)
        assert len(days) == 59, family
        state = eng._fit_state(family, days, {})
        assert isinstance(eng.day_signals(family, days[40], {}, state), list)
        d = days[40]
        copy = TradingDay(d.date, d.session, d.ts, d.ohlc, d.volume, d.prior_rth_close, d.complete)
        for day in (cut[fd.session][30], copy):
            with pytest.raises(EngineError, match=f"not a day of the complete {fd.session} days"):
                eng.day_signals(family, day, {}, state)


def test_an_incomplete_day_in_a_test_year_is_never_traded():
    bundle = three_year_bundle()
    traded = Engine(bundle, config_from_dict({})).run_family(
        "ORB_LONG", permutation=False)[0].oos_trades[0].date
    rth = link_rth([without_its_middle_bar(d) if d.date == traded else d for d in bundle.rth])
    eng = Engine(DataBundle(rth, bundle.asia, bundle.london, bundle.events), config_from_dict({}))
    assert traded in {d.date for d in eng.bundle.rth} - {d.date for d in eng.complete_days("rth")}
    for family, fd in sorted(default_families().items()):
        if fd.session == "rth":
            result = eng.run_family(family, permutation=False)[0]
            assert traded.year in {f.test_year for f in result.plan.folds}, family
            assert traded not in {t.date for t in result.oos_trades}, family


def test_equal_grid_points_are_evaluated_once(monkeypatch):
    # overriding the tunable ASIA_EXPANSION's grid varies makes its three points equal
    eng = Engine(three_year_bundle(), config_from_dict({"families": {"ASIA_EXPANSION": {"multiple": 2.0}}}))
    calls = []
    real = Engine.runner

    def runner(self, family):
        run = real(self, family)
        return lambda *a: calls.append(a[2]) or run(*a)
    monkeypatch.setattr(Engine, "runner", runner)
    result, _, _ = eng.run_family("ASIA_EXPANSION", permutation=False)
    # per fold: one point under each of the two exits, then the test year
    assert len(result.plan.folds) == 2 and len(calls) == 6
    assert all(c == {"multiple": 2.0} for c in calls)
    assert eng.family_grid("ASIA_EXPANSION")[0] == ({"multiple": 2.0},)
    # the same choices and trades as the grid with the point declared once
    days = eng.complete_days("asia")
    once = walk_forward(days, real(eng, "ASIA_EXPANSION"), ({"multiple": 2.0},),
                        default_families()["ASIA_EXPANSION"].exit_grid)
    assert result.chosen == once.chosen and result.oos_trades == once.oos_trades


def test_vvg_metrics_are_built_once_per_session_and_the_flags_are_unchanged(monkeypatch):
    from falsify import signals as sig
    from falsify.bars import session_primitives, session_store
    eng = Engine(three_year_bundle(), config_from_dict({}))
    days = eng.complete_days("rth")
    metrics = sig.vvg_metrics(session_primitives(session_store(days)))
    calls = []
    real = sig.vvg_metrics
    monkeypatch.setattr(sig, "vvg_metrics", lambda *a: calls.append(1) or real(*a))
    folds = make_plan([d.year for d in days]).folds
    assert len(folds) == 2
    for fold in folds:
        train = [d for d in days if d.year in fold.train_years]
        rows = metrics[[i for i, d in enumerate(days) if d.year in fold.train_years]]
        flags = sig.vvg_classify(metrics, sig.vvg_boundaries(rows))
        state = eng._fit_state("VVG_REVERSAL", train, {})
        assert state["flags"].dtype == bool and np.array_equal(state["flags"], flags)
    for family in ("VVG_REVERSAL", "VVG_CONTINUATION"):
        eng.run_family(family, permutation=False)
    assert len(calls) == 1


def old_runner(eng, family):
    """The runner as it was: per-day signals keyed by training window, and
    ``simulate`` on every day, training days included."""
    signals = {}

    def run(train, eval_days, params, exit_spec):
        state = eng._fit_state(family, train, params)
        skey = (family, train[0].date, train[-1].date, len(train),
                tuple(sorted((k, str(v)) for k, v in params.items())))
        trades = []
        for day in eval_days:
            if (skey, day.date) not in signals:
                signals[skey, day.date] = eng.day_signals(family, day, params, state)
            if signals[skey, day.date]:
                trades.extend(engine_mod.simulate(signals[skey, day.date], [day], exit_spec,
                                                  eng.config.instrument).trades)
        return trades
    return run


def test_appending_a_year_leaves_every_earlier_fold_unchanged():
    # session-long inputs (regime labels, VVG flags, overnight velocity) must
    # not let a later year reach back into an earlier fold
    from falsify.bars import ASIA
    from falsify.synth import gen_event_calendar
    short = three_year_bundle()
    start = date(2024, 1, 2)
    rth = gen_null_days(SynthSpec(60, seed=31, start_date=start, gap_sigma=15.0))
    longer = DataBundle(
        short.rth + rth,
        short.asia + gen_null_days(SynthSpec(60, session=ASIA, seed=32, start_date=start)),
        short.london + gen_null_days(SynthSpec(60, session=LONDON, seed=33, start_date=start)),
        short.events + gen_event_calendar(rth, seed=31))
    engines = [Engine(b, config_from_dict({})) for b in (short, longer)]
    for family in sorted(default_families()):
        before, after = (e.run_family(family, permutation=False)[0] for e in engines)
        assert [f.test_year for f in before.plan.folds] == [2022, 2023], family
        assert [f.test_year for f in after.plan.folds] == [2022, 2023, 2024], family
        assert after.chosen[:2] == before.chosen, family
        assert [t for t in after.oos_trades if t.date.year < 2024] == before.oos_trades, family


def time_cut_bundle(seed: int) -> DataBundle:
    """RTH, Asia and London from 2021-09 to 2023-04, and a calendar: two folds."""
    from falsify.bars import ASIA, RTH
    from falsify.synth import gen_event_calendar
    spec = lambda session, k: SynthSpec(420, session=session, seed=seed + k,
                                        start_date=date(2021, 9, 1), gap_sigma=15.0)
    rth = gen_null_days(spec(RTH, 0))
    return DataBundle(rth, gen_null_days(spec(ASIA, 1)), gen_null_days(spec(LONDON, 2)),
                      gen_event_calendar(rth, seed=seed))


def cut_at(bundle: DataBundle, fresh: DataBundle, cut: datetime) -> DataBundle:
    """``bundle`` with every bar at or after ``cut``, in every session, and every
    calendar event after it taken from ``fresh``, a corpus of the same days."""
    def session(mine, theirs):
        assert [d.date for d in mine] == [d.date for d in theirs]
        out = []
        for d, f in zip(mine, theirs):
            late = d.ts >= np.datetime64(cut)
            out.append(TradingDay(d.date, d.session, d.ts, np.where(late, f.ohlc, d.ohlc),
                                  np.where(late, f.volume, d.volume), complete=d.complete))
        return link_rth(out)
    return DataBundle(*map(session, (bundle.rth, bundle.asia, bundle.london),
                           (fresh.rth, fresh.asia, fresh.london)),
                      [e for e in bundle.events if e.ts <= cut]
                      + [e for e in fresh.events if e.ts > cut])


def fold_choices_and_trades(bundle: DataBundle) -> dict:
    """Per family, its fold choices and its out-of-sample trades with the opening
    time of each one's exit bar."""
    eng = Engine(bundle, config_from_dict({}))
    out = {}
    for family, fd in sorted(default_families().items()):
        result = eng.run_family(family, permutation=False)[0]
        assert [f.test_year for f in result.plan.folds] == [2022, 2023], family
        days = {d.date: d for d in eng.complete_days(fd.session)}
        out[family] = (result.chosen,
                       [(t, days[t.date].ts[t.exit_bar]) for t in result.oos_trades])
    return out


def before_the_cut(runs: dict, cut: datetime) -> dict:
    """The fold choices trained before ``cut`` and the trades whose exit bar opens before it."""
    return {family: ([c for c in chosen if c.fold.train_years[-1] < cut.year],
                     [t for t, at in trades if at < np.datetime64(cut)])
            for family, (chosen, trades) in runs.items()}


def test_what_comes_after_an_instant_changes_nothing_before_it():
    # every bar at or after a cut, in every session, and every calendar event
    # after it come from another seed: the fold choices trained before the cut,
    # and the trades that exit before it, must not change. Half the cuts fall
    # between the RTH close and the Asia open after a gap-down day, where
    # GAP_CONT_SHORT reads that day's overnight source: it must be the Asia
    # session that opened the evening before, not the one about to open
    base, fresh = time_cut_bundle(51), time_cut_bundle(61)
    rng = np.random.default_rng(5)
    test_days = [d for d in base.rth if d.year >= 2022]
    gap_down = [d for d in test_days if d.ohlc[0, 0] < d.prior_rth_close]
    cuts = [datetime.combine(test_days[i].date, time(0)) + timedelta(minutes=int(m))
            for i, m in zip(rng.choice(len(test_days), 6, replace=False),
                            rng.integers(0, 24 * 60, 6))]
    cuts += [datetime.combine(gap_down[i].date, time(16)) + timedelta(minutes=int(m))
             for i, m in zip(rng.choice(len(gap_down), 6, replace=False),
                             rng.integers(0, 4 * 60, 6))]
    whole = fold_choices_and_trades(base)
    compared = Counter()
    for cut in cuts:
        runs = fold_choices_and_trades(cut_at(base, fresh, cut))
        assert runs != whole, cut  # what follows the cut did change
        want, got = before_the_cut(whole, cut), before_the_cut(runs, cut)
        for family in want:
            assert got[family] == want[family], (family, cut)
            compared.update({"folds": len(want[family][0]), "trades": len(want[family][1])})
    assert compared["folds"] >= 16 and compared["trades"] >= 1000, compared


def test_every_regime_fold_fit_converges_before_the_iteration_cap():
    from falsify.features import RegimeGMM
    eng = Engine(three_year_bundle(), config_from_dict({}))
    fits = []
    for family in ("CONFLUENCE_RTH", "LONDON_B"):
        days = eng.complete_days(default_families()[family].session)
        for fold in make_plan([d.year for d in days]).folds:
            state = eng._fit_state(family, [d for d in days if d.year in fold.train_years], {})
            fits.append((family, fold.test_year, state["model"].n_iter_,
                         state["model"].converged_))
    assert len(fits) == 4
    assert all(conv and n_iter < RegimeGMM().max_iter for _, _, n_iter, conv in fits), fits


def regime_windows(eng, family):
    """The regime session's training window of every walk-forward fold."""
    days = eng.complete_days(default_families()[family].session)
    return [[d for d in days if d.year in f.train_years]
            for f in make_plan([d.year for d in days]).folds]


def chain_bundle() -> DataBundle:
    """RTH and London from 2021-08 to 2024-01: three folds, the first on 110 days."""
    start = date(2021, 8, 2)
    return DataBundle(
        rth=gen_null_days(SynthSpec(650, seed=41, start_date=start, gap_sigma=15.0)),
        london=gen_null_days(SynthSpec(650, session=LONDON, seed=42, start_date=start)))


@pytest.mark.parametrize("family", ["CONFLUENCE_RTH", "LONDON_B"])
def test_a_fold_fitted_alone_equals_the_fold_fitted_after_the_chain(family, monkeypatch):
    # the last fold's EM starts from the fold before it, which starts from the
    # one before that; a fresh engine asked for the last fold alone fits the
    # same chain, each window once, and gets the same bits
    bundle = chain_bundle()
    in_order, alone = Engine(bundle, config_from_dict({})), Engine(bundle, config_from_dict({}))
    windows = regime_windows(in_order, family)
    assert [len(w) for w in windows] == [110, 370, 630]
    chain = [in_order._fit_state(family, w, {}) for w in windows]
    fits = []
    real = engine_mod.gmm_fit
    monkeypatch.setattr(engine_mod, "gmm_fit", lambda X, *a, **kw: fits.append(len(X)) or
                        real(X, *a, **kw))
    last = alone._fit_state(family, windows[-1], {})
    assert len(fits) == 3 and fits == sorted(fits)
    assert [s["model"].warm_start_ for s in chain] == [False, True, True]
    for attr in MODEL_ATTRS:
        assert np.array_equal(getattr(last["model"], attr), getattr(chain[-1]["model"], attr))
    for key in ("labels", "trans"):
        assert np.array_equal(last[key], chain[-1][key], equal_nan=True), key
    alone._fit_state(family, windows[1], {})
    assert len(fits) == 3  # an earlier window comes from the memo
    want = reference_fit_regime(alone, default_families()[family].session, windows[-1])
    for attr in MODEL_ATTRS:
        assert np.array_equal(getattr(last["model"], attr), getattr(want["model"], attr))


def test_warm_folds_end_no_worse_than_a_cold_fit():
    eng = Engine(chain_bundle(), config_from_dict({}))
    fits = {}
    for family in ("CONFLUENCE_RTH", "LONDON_B"):
        X = eng.per_session(engine_mod._regime_inputs, default_families()[family].session)[0]
        for fold, train in enumerate(regime_windows(eng, family)[1:], 2):
            state = eng._fit_state(family, train, {})
            rows = X[50:sum(len(d.ts) for d in train)]
            warm, cold = state["model"], gmm_fit(rows, k=3, seed=eng.config.seed)
            assert warm.warm_start_ and warm.converged_, (family, fold)
            gain = (warm.loglik_history_[-1] - cold.loglik_history_[-1]) / len(rows)
            fits[family, fold] = (warm.n_iter_, cold.n_iter_, gain,
                                  float(np.mean(cold.predict(X) == state["labels"])))
    # measured (warm iterations, cold iterations, mean log-likelihood gain per
    # row, share of labels equal to the cold fit's):
    #   RTH fold 2: 25, 62, +2.2e-6, 99.91%    fold 3: 10, 65, +1.0e-6, 99.97%
    #   London 2:  103, 43, +9.3e-3, 91.94%    fold 3: 153, 43, +2.0e-2, 85.33%
    # RTH EM lands in the cold fit's optimum in fewer iterations; London EM
    # climbs on to a higher one, whose wide third component relabels 8-15% of bars
    assert all(gain > -1e-6 for _, _, gain, _ in fits.values()), fits
    assert all(fits["CONFLUENCE_RTH", f][0] < fits["CONFLUENCE_RTH", f][1] for f in (2, 3)), fits
    assert all(fits["CONFLUENCE_RTH", f][3] > 0.999 for f in (2, 3)), fits


def test_a_fold_whose_earlier_years_are_short_is_fitted_cold():
    # fold 2 of three_year_bundle trains on December 2021 (23 days) and 2022:
    # under a quarter of its days come before its last year, so its EM starts
    # from the quantile partition, as the first fold's does
    eng = Engine(three_year_bundle(), config_from_dict({}))
    for family in ("CONFLUENCE_RTH", "LONDON_B"):
        windows = regime_windows(eng, family)
        assert [len(w) for w in windows] == [23, 283]
        X = eng.per_session(engine_mod._regime_inputs, default_families()[family].session)[0]
        model = eng._fit_state(family, windows[1], {})["model"]
        cold = gmm_fit(X[50:sum(len(d.ts) for d in windows[1])], k=3, seed=eng.config.seed)
        assert not model.warm_start_
        for attr in MODEL_ATTRS:
            assert np.array_equal(getattr(model, attr), getattr(cold, attr)), (family, attr)


def test_walk_forward_picks_and_trades_match_the_record_runner():
    eng = Engine(three_year_bundle(), config_from_dict({"instrument": {"friction_points": 1.5}}))
    from falsify.validation import walk_forward
    traded = set()
    for family in sorted(default_families()):
        days = eng.complete_days(default_families()[family].session)
        got = walk_forward(days, eng.runner(family), *eng.family_grid(family))
        want = walk_forward(days, old_runner(eng, family), *eng.family_grid(family))
        assert got.chosen == want.chosen, family
        assert got.oos_trades == want.oos_trades, family
        traded.update({family} if got.oos_trades else set())
    assert len(traded) >= 12


def old_event_drift(day, events, start_bar_offset=6):
    """EVENT_DRIFT as it was: every calendar event tested against the day."""
    from falsify.signals import SHORT, SignalEvent
    bars, sess, out = day.bars, day.session, []
    for ev in events:
        if rows.session_date(sess, ev.ts) != day.date or not rows.contains(sess, ev.ts.time()):
            continue
        r = rows.bar_index(sess, ev.ts)
        if r + 5 >= len(bars):
            continue
        move = bars[r + 5].close - bars[r].close
        if move == 0 or r + start_bar_offset > len(bars) - 2:
            continue
        out.append(SignalEvent("EVENT_DRIFT", day.date, r + start_bar_offset,
                               LONG if move > 0 else SHORT))
    return out


def test_event_drift_date_index_matches_the_whole_calendar_scan():
    from datetime import datetime, timedelta
    from falsify.bars import EconEvent, EventKind, RTH
    from falsify.signals import event_drift_signals
    days = gen_null_days(SynthSpec(40, seed=9))
    gone = days.pop(7).date  # a weekday without data
    events = []
    for i, d in enumerate(days[:30]):
        base = datetime.combine(d.date, RTH.start)
        # in session early and late (no room for the spike), before the open,
        # at the close, in the evening, and a second release the same day
        for minutes in ((30, 270, 395, -60, 390, 630) if i % 3 else (60, 200)):
            events.append(EconEvent(base + timedelta(minutes=minutes), EventKind.FOMC,
                                    "HIGH", "USD"))
    events += [EconEvent(datetime.combine(d, RTH.start) + timedelta(minutes=60), EventKind.CPI,
                         "HIGH", "USD") for d in (gone, date(2022, 1, 8))]  # and a Saturday
    eng = Engine(DataBundle(rth=days, events=events), config_from_dict({}))
    emitted = [eng.day_signals("EVENT_DRIFT", d, {}, {}) for d in days]
    assert emitted == [old_event_drift(d, events) for d in days]
    assert list(map(entries, emitted)) == [event_drift_signals(d, events, 6) for d in days]
    assert sum(map(len, emitted)) >= 10


def test_event_drift_lists_same_day_releases_by_bar():
    from falsify.bars import EconEvent, EventKind, RTH
    from falsify.signals import event_drift_signals
    days = gen_null_days(SynthSpec(5, seed=11))
    day = days[2]
    release = lambda minutes: EconEvent(datetime.combine(day.date, RTH.start)
                                        + timedelta(minutes=minutes), EventKind.CPI, "HIGH", "USD")
    # out of time order, one twice, and one whose signal bar would be the day's last
    events = [release(200), release(60), release(120), release(60), release(355)]
    eng = Engine(DataBundle(rth=days, events=events), config_from_dict({}))
    got = eng.day_signals("EVENT_DRIFT", day, {}, {})
    assert [e.bar_index for e in got] == [18, 18, 30, 46]
    assert Counter(got) == Counter(old_event_drift(day, events))
    # the rule keeps the calendar's order
    assert event_drift_signals(day, events, 6) == entries(old_event_drift(day, events))


# -- every tunable is live; the verdict path builds no Bar rows --------------------

def perturbed(key: str, value, grid):
    """Another value of one tunable: a different grid value, else a far one."""
    others = [g[key] for g in grid if g[key] != value]
    if others:
        return others[0]
    return 3 if value is None else value * 4 + 5


def mean_reverting_days(n: int, seed: int):
    """RTH days of an AR(1) close path (phi 0.95 a bar), which OU_REVERSION trades."""
    from falsify.bars import RTH, Bar, group_days
    from falsify.synth import _weekdays
    rng = np.random.default_rng(seed)
    bars, x = [], 15000.0
    for d in _weekdays(date(2022, 1, 3), n):
        for ts in rows.grid(RTH, d):
            c = round((15000.0 + 0.95 * (x - 15000.0) + rng.normal(0.0, 2.0)) * 4) / 4
            bars.append(Bar(ts, x, max(x, c) + 0.25, min(x, c) - 0.25, c, 1000))
            x = c
    return group_days(bars, RTH)


def test_every_declared_tunable_moves_the_trades():
    # a tunable that reaches no entry or exit trades as its default does;
    # each one must change some trade under some exit
    from falsify.bars import ASIA
    from falsify.execution import simulate
    from falsify.synth import gen_event_calendar
    rth = gen_null_days(SynthSpec(300, seed=3, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(300, session=ASIA, seed=10_003))
    null = Engine(DataBundle(rth=rth, asia=asia, events=gen_event_calendar(rth, seed=3)),
                  config_from_dict({}))
    # a random walk gets no OU half-life, so OU_REVERSION would never trade on it
    ou = make_engine(rth=mean_reverting_days(300, seed=3))
    checked, dead = 0, []
    for name, fd in default_families().items():
        if not fd.grid[0]:
            continue
        eng = ou if name == "OU_REVERSION" else null
        days = eng.complete_days(fd.session)
        state = eng._fit_state(name, [d for d in days if d.year == days[0].year], {})

        def trades(params):
            per_day = [(d, eng.day_signals(name, d, params, state)) for d in days]
            return [[t for d, evs in per_day for t in simulate(evs, [d], ex).trades]
                    for ex in fd.exit_grid]
        base = trades(fd.grid[0])
        for key, value in fd.grid[0].items():
            if trades({**fd.grid[0], key: perturbed(key, value, fd.grid)}) == base:
                dead.append(f"{name}.{key}")
            checked += 1
    assert dead == [] and checked == 14


def test_only_a_pullback_limit_family_sets_a_limit_level():
    from falsify.bars import ASIA
    from falsify.execution import ExitKind
    from falsify.synth import gen_event_calendar
    rth = gen_null_days(SynthSpec(300, seed=3, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(300, session=ASIA, seed=10_003))
    london = gen_null_days(SynthSpec(300, session=LONDON, seed=20_003))
    eng = Engine(DataBundle(rth, asia, london, gen_event_calendar(rth, seed=3)),
                 config_from_dict({}))
    limit_families = []
    for name, fd in default_families().items():
        days = eng.complete_days(fd.session)
        state = eng._fit_state(name, [d for d in days if d.year == days[0].year], {})
        levels = [e.limit_level for d in days for e in eng.day_signals(name, d, {}, state)]
        if any(ex.kind is ExitKind.PULLBACK_LIMIT for ex in fd.exit_grid):
            limit_families.append(name)
            assert levels and all(v is not None and np.isfinite(v) for v in levels), name
        else:
            assert set(levels) <= {None}, name
    assert limit_families == ["CONFLUENCE_RTH"]


# per family and grid point, the (count, sha256 prefix) of its events as (day, bar,
# direction, limit level) on the corpus below: a recorded reference for every entry
EMITTED = {
    ("ORB_LONG", 0): (227, "27e5bf71d14f6b90"),
    ("ORB_SHORT", 0): (241, "4f0413c05b9976bd"),
    ("ORB_PULLBACK", 0): (445, "dd995063c758e254"),
    ("ASIA_EXPANSION", 0): (2083, "786fa8f01acae4e9"),
    ("ASIA_EXPANSION", 1): (487, "ba94385d614ef07d"),
    ("ASIA_EXPANSION", 2): (98, "5d9cf25092787709"),
    ("LIQUIDITY_GRAB_FADE", 0): (1377, "12054d99349363cc"),
    ("LIQUIDITY_GRAB_CONT", 0): (1377, "a764f6383b35699f"),
    ("GAP_FILL_FADE", 0): (221, "38c6e7c8e22b31b1"),
    ("GAP_FILL_FADE", 1): (221, "1bcdf663c14e8a45"),
    ("GAP_FILL_FADE", 2): (221, "50a1d3f19e4b7527"),
    ("GAP_CONT_SHORT", 0): (49, "aa9464f67917898a"),
    ("VOL_SPIKE", 0): (1684, "12daba31519b853e"),
    ("VOL_DRYUP", 0): (1689, "b7d52daee7b67e11"),
    ("VVG_REVERSAL", 0): (15, "b9d41f3dad4bf752"),
    ("VVG_REVERSAL", 1): (15, "cc133e9775e65da9"),
    ("VVG_CONTINUATION", 0): (15, "3affd31fcb5c83ea"),
    ("EVENT_DRIFT", 0): (51, "b7debe2c0444fbcd"),
    ("OU_REVERSION", 0): (396, "f3eaed669d22ea10"),
    ("OU_REVERSION", 1): (187, "4dd503c1dbe8614c"),
    ("OU_REVERSION", 2): (59, "5c3aee4cd56f5785"),
    ("CONFLUENCE_RTH", 0): (1789, "d408d647c9b54db7"),
    ("LONDON_B", 0): (57, "84d6f86d9f6728a0"),
}


def test_every_event_carries_its_family_name_and_the_recorded_entries():
    import hashlib
    from falsify.bars import ASIA
    from falsify.synth import gen_event_calendar
    rth = gen_null_days(SynthSpec(300, seed=3, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(300, session=ASIA, seed=10_003))
    london = gen_null_days(SynthSpec(300, session=LONDON, seed=20_003))
    null = Engine(DataBundle(rth, asia, london, gen_event_calendar(rth, seed=3)),
                  config_from_dict({}))
    ou = make_engine(rth=mean_reverting_days(300, seed=3))
    got = {}
    for name, fd in default_families().items():
        eng = ou if name == "OU_REVERSION" else null
        days = eng.complete_days(fd.session)
        state = eng._fit_state(name, [d for d in days if d.year == days[0].year], {})
        for i, params in enumerate(fd.grid):
            events = [e for d in days for e in eng.day_signals(name, d, params, state)]
            assert {e.family for e in events} == {name}
            text = repr([(e.day.isoformat(), e.bar_index, e.direction, e.limit_level)
                         for e in events])
            got[name, i] = (len(events), hashlib.sha256(text.encode()).hexdigest()[:16])
    assert got == EMITTED


def test_the_verdict_path_builds_no_bar(tmp_path, monkeypatch):
    from falsify.bars import ASIA, RTH, Bar, parse_bar_file, serialize_days
    from falsify.signals import SignalEvent
    from falsify.synth import gen_event_calendar
    path = tmp_path / "rth.csv"
    path.write_text(serialize_days(gen_null_days(SynthSpec(40, seed=2))), encoding="utf-8")
    built = []
    real = Bar.__init__
    monkeypatch.setattr(Bar, "__init__", lambda self, *a, **k: built.append(a) or
                        real(self, *a, **k))
    assert len(parse_bar_file(path, RTH)) == 40
    reg = RegimeSpec(transition=((0.9, 0.05, 0.05), (0.2, 0.5, 0.3), (0.05, 0.05, 0.9)),
                     means=(-6.0, 0.0, 6.0), vols=(2.0, 5.0, 2.0), volume_mults=(1.0, 3.0, 1.0))
    rth, _ = gen_regime_days(SynthSpec(280, seed=4, gap_sigma=15.0, regimes=reg))
    asia = gen_null_days(SynthSpec(280, session=ASIA, seed=5))
    london, _ = gen_regime_days(SynthSpec(280, session=LONDON, seed=6, regimes=reg))
    planted = plant_drift(rth, [SignalEvent("PLANTED", d.date, 20, LONG) for d in rth[::3]],
                          15.0, 13)
    eng = Engine(DataBundle(rth=planted, asia=asia, london=london,
                            events=gen_event_calendar(rth, seed=4)),
                 config_from_dict({"permutation": {"iterations": 20, "families": sorted(
                     default_families())}, "gate": {"t_min": -99.0, "n_min": 1}}))
    ps = [eng.run_family(family)[1].permutation_p for family in sorted(default_families())]
    assert built == [] and any(p is not None for p in ps)
    assert len(planted[5].bars) == 78 and built == []  # the row view's len builds none
    assert planted[5].bars[3].close == planted[5].ohlc[3, 3] and len(built) == 1
