from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from falsify.config import config_from_dict
from falsify.engine import DataBundle, Engine, EngineError, default_families
from falsify.signals import LONG
from falsify.synth import SynthSpec, gen_null_days, plant_drift


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


def test_runner_results_stable_across_calls():
    days = two_year_null(60, seed=7)
    eng = make_engine(rth=days)
    run = eng.runner("ORB_LONG")
    from falsify.engine import ExitSpec
    from falsify.execution import ExitKind
    exit = ExitSpec(ExitKind.HORIZON, horizon=15)
    first = run(days[:30], days[30:], {}, exit)
    assert eng._signals  # per-day signal cache is populated
    second = run(days[:30], days[30:], {}, exit)
    assert first == second


def test_overnight_velocity_falls_back_to_prior_rth():
    days = two_year_null(12, seed=3)
    eng = make_engine(rth=days)
    vel = eng.overnight_velocity()
    assert days[0].date not in vel  # nothing precedes the first day
    assert set(vel) == {d.date for d in days[1:]}


def test_overnight_velocity_prefers_asia_bars():
    rth = two_year_null(6, seed=3)
    asia = gen_null_days(SynthSpec(6, session=__import__("falsify.bars", fromlist=["ASIA"]).ASIA, seed=4))
    with_asia = make_engine(rth=rth, asia=asia).overnight_velocity()
    without = make_engine(rth=rth).overnight_velocity()
    shared = set(with_asia) & set(without)
    assert shared
    assert any(with_asia[d] != without[d] for d in shared)


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
