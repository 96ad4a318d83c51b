from __future__ import annotations

import itertools
from datetime import date, time

import numpy as np
import pytest

from rows import day_from_bars
from falsify.execution import (ExitKind, ExitReason, ExitSpec, Instrument, MNQ,
                               TradeRecord, simulate)
from falsify.signals import LONG, SHORT, SignalEvent
from falsify.synth import SynthSpec, gen_null_days
from falsify.validation import (EvalMetrics, Fold, GateThresholds,
                                ValidationError, Verdict, YearMetrics,
                                make_plan,
                                permutation_test, summary_metrics,
                                t_statistic, validate, walk_forward,
                                year_stability)


def trade(net, d=date(2022, 3, 1), direction=LONG, family="ORB_LONG"):
    ticks = MNQ.to_ticks(net)
    return TradeRecord(family, d, direction, 1, 2, 100.0, 100.0 + net,
                       ticks + 8, ticks, ExitReason.HORIZON, 0.25)


def scaled_sample(n, mean, std, seed=0):
    """Draw and rescale so the sample mean and sample std are exact."""
    x = np.random.default_rng(seed).normal(size=n)
    x = (x - x.mean()) / x.std(ddof=1)
    return x * std + mean


# -- t statistic --------------------------------------------------------------

def test_t_stat_hand_example():
    assert t_statistic([1.0, 2.0, 3.0]) == pytest.approx(2 * np.sqrt(3), abs=1e-9)
    assert t_statistic([1.0, 2.0, 3.0]) == pytest.approx(3.4641, abs=1e-4)


def test_t_stat_reported_scale():
    nets = scaled_sample(289, 5.77, 19.05)
    assert t_statistic(nets) == pytest.approx(5.15, abs=0.01)


def test_t_stat_undefined_cases():
    assert t_statistic([]) is None
    assert t_statistic([4.0]) is None
    assert t_statistic([2.0, 2.0, 2.0]) is None


def test_t_stat_sign_flips_with_negation():
    nets = scaled_sample(100, 1.3, 4.0, seed=3)
    assert t_statistic(-nets) == pytest.approx(-t_statistic(nets), abs=1e-12)


# -- summary metrics ----------------------------------------------------------

def test_summary_empty():
    m = summary_metrics([])
    assert m.n == 0
    assert m.t_stat is None
    assert m.mean_net is None


def test_summary_headline_numbers():
    trades = [trade(3.0), trade(-1.0), trade(2.0), trade(-2.0)]
    m = summary_metrics(trades)
    assert m.n == 4
    assert m.mean_net == pytest.approx(0.5)
    assert m.win_rate == pytest.approx(0.5)
    assert m.profit_factor == pytest.approx(5.0 / 3.0)


def test_summary_per_year_split():
    trades = [trade(1.0, date(2022, 5, 2))] * 6 + [trade(-1.0, date(2023, 5, 2))] * 7
    m = summary_metrics(trades)
    assert set(m.per_year) == {2022, 2023}
    assert m.per_year[2022].n == 6
    assert m.per_year[2023].mean_net == pytest.approx(-1.0)


# -- year stability -----------------------------------------------------------

def ym(n, mean, t):
    return YearMetrics(n, mean, t)


def test_stability_rejects_sign_flip_year():
    per_year = {2022: ym(40, 2.43, 1.1), 2023: ym(50, 7.04, 2.0),
                2024: ym(45, -1.42, -0.6)}
    assert not year_stability(per_year)


def test_stability_accepts_consistent_years():
    per_year = {2022: ym(40, 2.43, 1.1), 2023: ym(50, 7.04, 2.0),
                2024: ym(45, 1.42, 0.6)}
    assert year_stability(per_year)


def test_stability_ignores_thin_years():
    per_year = {2022: ym(40, 3.0, 1.5), 2023: ym(4, -9.0, -2.5)}
    assert year_stability(per_year)


def test_stability_single_year_vacuous():
    assert year_stability({2022: ym(40, -3.0, -1.5)})


def test_stability_symmetric_under_negation():
    rng = np.random.default_rng(11)
    for _ in range(30):
        per_year = {2022 + y: ym(int(rng.integers(3, 60)),
                                 float(rng.normal(0, 3)),
                                 float(rng.normal(0, 2)))
                    for y in range(3)}
        flipped = {y: ym(m.n, -m.mean_net, -m.t_stat) for y, m in per_year.items()}
        assert year_stability(per_year) == year_stability(flipped)


# -- the five-criteria gate -----------------------------------------------------

def metrics(t=2.5, n=40, mean=0.8, p=0.01, years=None):
    if years is None:
        years = {2022: ym(20, mean, 1.0), 2023: ym(20, mean, 1.0)}
    return EvalMetrics(n=n, mean_net=mean, t_stat=t, per_year=years,
                       permutation_p=p)


def test_gate_all_pass():
    assert validate(metrics()).failure_label == "PASS"


def test_gate_failure_labels_exact():
    assert validate(metrics(t=1.9)).failure_label == "FAIL – T < 2.0"
    assert validate(metrics(n=29)).failure_label == "FAIL – N < 30"
    assert validate(metrics(t=None, mean=-0.5)).failure_label == "FAIL – T < 2.0"
    bad_years = {2022: ym(20, 0.8, 1.0), 2023: ym(20, -0.8, -1.5)}
    assert validate(metrics(years=bad_years)).failure_label == "FAIL – year instability"
    assert validate(metrics(p=0.05)).failure_label == "FAIL – p ≥ 0.05"
    assert validate(metrics(p=0.049)).failure_label == "PASS"


def test_gate_failure_labels_render_configured_thresholds():
    g = GateThresholds(t_min=2.5, n_min=50, p_max=0.01)
    assert validate(metrics(t=2.4), g).failure_label == "FAIL – T < 2.5"
    assert validate(metrics(n=49, t=3.0), g).failure_label == "FAIL – N < 50"
    assert validate(metrics(t=3.0, n=60, p=0.02), g).failure_label == "FAIL – p ≥ 0.01"
    assert validate(metrics(t=3.0, n=60, p=0.009), g).failure_label == "PASS"


def test_gate_net_label_ordering():
    # t passes vacuously impossible with non-positive mean on real data, but
    # the gate must still report the first failed criterion in order
    m = EvalMetrics(n=40, mean_net=0.0, t_stat=2.5,
                    per_year={2022: ym(40, 0.0, None)}, permutation_p=0.01)
    assert validate(m).failure_label == "FAIL – net ≤ 0"


def test_gate_missing_permutation_with_requirement():
    m = metrics(p=None)
    assert validate(m, GateThresholds(permutation_required=True)).failure_label == "FAIL – p ≥ 0.05"
    assert validate(m, GateThresholds(permutation_required=False)).failure_label == "PASS"


def test_verdict_conjunction_all_32_combinations():
    for combo in itertools.product([True, False], repeat=5):
        v = Verdict(*combo)
        assert v.overall == all(combo)
        if v.overall:
            assert v.failure_label == "PASS"
        else:
            order = ["FAIL – T < 2.0", "FAIL – N < 30", "FAIL – net ≤ 0",
                     "FAIL – year instability", "FAIL – p ≥ 0.05"]
            first_bad = next(i for i, ok in enumerate(combo) if not ok)
            assert v.failure_label == order[first_bad]


def test_gate_monotone_in_t():
    verdicts = [validate(metrics(t=t)).overall for t in (1.0, 1.99, 2.0, 2.01, 5.0)]
    assert verdicts == [False, False, True, True, True]


# -- walk-forward ----------------------------------------------------------------

def test_plan_expanding_windows():
    plan = make_plan([2022, 2023, 2024, 2025])
    assert len(plan.folds) == 3
    assert plan.folds[0] == Fold((2022,), 2023)
    assert plan.folds[1] == Fold((2022, 2023), 2024)
    assert plan.folds[2] == Fold((2022, 2023, 2024), 2025)


def test_plan_needs_two_years():
    with pytest.raises(ValidationError):
        make_plan([2022, 2022])


def two_year_days():
    return (gen_null_days(SynthSpec(30, seed=4))
            + gen_null_days(SynthSpec(30, seed=5, start_date=date(2023, 1, 2))))


def test_single_grid_point_always_chosen():
    days = two_year_days()
    exit = ExitSpec(ExitKind.HORIZON, horizon=3)

    def runner(train, eval_days, params, exit_spec):
        evs = [SignalEvent("ORB_LONG", d.date, 10, LONG) for d in eval_days]
        out = []
        for d, e in zip(eval_days, evs):
            out.extend(simulate([e], [d], exit_spec).trades)
        return out

    res = walk_forward(days, runner, [{"k": 1}], [exit])
    assert len(res.chosen) == 1
    assert res.chosen[0].params == {"k": 1}
    assert res.chosen[0].fold.test_year == 2023
    assert all(t.date.year == 2023 for t in res.oos_trades)


def test_selection_maximizes_training_t_only():
    """The winner is picked on training t even if it is worse out of sample."""
    days = two_year_days()
    exit = ExitSpec(ExitKind.HORIZON, horizon=1)

    def runner(train, eval_days, params, exit_spec):
        year = eval_days[0].date.year
        # param "a" looks great in 2022 and loses in 2023; "b" the reverse
        good = (params["name"] == "a") == (year == 2022)
        net = 2.0 if good else -2.0
        rng = np.random.default_rng([params["noise_seed"], year])
        return [trade(net + float(rng.normal(0, 0.1)), d=date(year, 3, 1 + i % 20))
                for i, d in enumerate(eval_days)]

    res = walk_forward(days, runner,
                       [{"name": "a", "noise_seed": 1}, {"name": "b", "noise_seed": 2}],
                       [exit])
    assert res.chosen[0].params["name"] == "a"
    assert np.mean([t.net for t in res.oos_trades]) < 0


def test_tie_breaks_by_trade_count_then_order():
    days = two_year_days()
    exit = ExitSpec(ExitKind.HORIZON, horizon=1)

    def runner(train, eval_days, params, exit_spec):
        # constant nets give an undefined t for every grid point, so the
        # tie breaks on trade count and then on declared order
        return [trade(1.0) for _ in range(params["n"])]

    res = walk_forward(days, runner,
                       [{"n": 10, "tag": "x"}, {"n": 20, "tag": "y"},
                        {"n": 20, "tag": "z"}],
                       [exit])
    assert res.chosen[0].params["tag"] == "y"


def test_equal_training_t_and_n_pick_the_first_grid_point():
    days = two_year_days()
    exits = [ExitSpec(ExitKind.HORIZON, horizon=h) for h in (1, 6)]

    def runner(train, eval_days, params, exit_spec):
        # the same defined t and N for every grid point and exit
        return [trade(net) for net in (1.0, 2.0, 0.5, 3.0)]

    for grid in ([{"tag": "x"}, {"tag": "y"}, {"tag": "z"}], [{"tag": "y"}, {"tag": "x"}]):
        res = walk_forward(days, runner, grid, exits)
        assert res.chosen[0].params == grid[0] and res.chosen[0].exit == exits[0]
        assert res.chosen[0].train_n == 4 and res.chosen[0].train_t is not None


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        walk_forward(two_year_days(), lambda *a: [], [], [ExitSpec(ExitKind.HORIZON, horizon=1)])


# -- permutation test ---------------------------------------------------------------

def test_permutation_deterministic_per_seed():
    days = gen_null_days(SynthSpec(40, seed=2))
    trades = [trade(float(x)) for x in np.random.default_rng(0).normal(5, 10, 25)]
    exit = ExitSpec(ExitKind.HORIZON, horizon=5)
    p1 = permutation_test(trades, days, exit, iterations=200, seed=9)
    p2 = permutation_test(trades, days, exit, iterations=200, seed=9)
    p3 = permutation_test(trades, days, exit, iterations=200, seed=10)
    assert p1 == p2
    assert p1 != p3


def reference_permutation_p(trades, day_pool, exit, iterations, seed):
    """Re-simulates every iteration's placements from scratch; a placement is any
    (day, bar) but a day's last bar, in day and bar order."""
    observed = float(np.mean([t.net for t in trades]))
    pos_arr = np.array([(di, bi) for di, day in enumerate(day_pool)
                        for bi in range(len(day.ts) - 1)])
    exceed = 0
    for it in range(iterations):
        rng = np.random.default_rng([seed, it])
        picks = pos_arr[rng.integers(0, len(pos_arr), size=len(trades))]
        by_day = {}
        for (di, bi), t in zip(picks, trades):
            ev = SignalEvent("PERM", day_pool[di].date, int(bi), t.direction)
            by_day.setdefault(int(di), []).append(ev)
        nets = [tr.net for di, evs in by_day.items()
                for tr in simulate(evs, [day_pool[di]], exit).trades]
        if nets and float(np.mean(nets)) >= observed:
            exceed += 1
    return (1 + exceed) / (iterations + 1)


PERMUTATION_EXITS = {
    "horizon": ExitSpec(ExitKind.HORIZON, horizon=4),
    # a never-hit stop fills and exits exactly like the plain horizon
    "stop_never_hit": ExitSpec(ExitKind.STOP_HORIZON, horizon=4, stop=1e9),
    "stop_horizon": ExitSpec(ExitKind.STOP_HORIZON, horizon=13, stop=10.0),
    "clock": ExitSpec(ExitKind.CLOCK, clock=time(15, 30)),
    "pullback_limit": ExitSpec(ExitKind.PULLBACK_LIMIT, horizon=6, limit_offset=25.0),
}


@pytest.mark.parametrize("mixed", [False, True], ids=["long_only", "mixed"])
@pytest.mark.parametrize("kind", list(PERMUTATION_EXITS))
def test_permutation_matches_per_iteration_resimulation(kind, mixed):
    days = gen_null_days(SynthSpec(25, seed=6))
    exit = PERMUTATION_EXITS[kind]
    nets = np.random.default_rng(1).normal(2, 8, 30)
    trades = [trade(float(x), direction=SHORT if mixed and i % 3 == 0 else LONG)
              for i, x in enumerate(nets)]
    p = permutation_test(trades, days, exit, iterations=120, seed=3)
    assert p == reference_permutation_p(trades, days, exit, iterations=120, seed=3)
    if kind == "stop_never_hit":
        assert p == permutation_test(trades, days, PERMUTATION_EXITS["horizon"],
                                     iterations=120, seed=3)


def per_day_table_p(trades, day_pool, exit, iterations, seed, instrument=MNQ):
    """The permutation test as it was: one ``simulate`` per pool day and direction."""
    positions = [(di, bi) for di, day in enumerate(day_pool) for bi in range(len(day.bars) - 1)]
    observed = float(np.mean([t.net for t in trades]))
    dirs = sorted({t.direction for t in trades})
    col = np.array([dirs.index(t.direction) for t in trades])
    table = np.full((len(positions), len(dirs)), np.nan)
    row = 0
    for day in day_pool:
        entries = range(len(day.bars) - 1)
        for j, direction in enumerate(dirs):
            evs = [SignalEvent("PERM", day.date, bi, direction) for bi in entries]
            res = simulate(evs, [day], exit, instrument)
            missed = {r.event.bar_index for r in res.rejections}
            filled = [row + bi for bi in entries if bi not in missed]
            table[filled, j] = [t.net for t in res.trades]
        row += len(entries)
    exceed = 0
    for it in range(iterations):
        rng = np.random.default_rng([seed, it])
        nets = table[rng.integers(0, len(positions), size=len(trades)), col]
        nets = nets[~np.isnan(nets)]
        if nets.size and float(np.mean(nets)) >= observed:
            exceed += 1
    return (1 + exceed) / (iterations + 1)


@pytest.mark.parametrize("kind", list(PERMUTATION_EXITS))
def test_permutation_matches_the_per_day_table_build(kind):
    # a pool with an incomplete day, and trades in both directions and not
    exit = PERMUTATION_EXITS[kind]
    days = gen_null_days(SynthSpec(30, seed=12))
    short = days[4]
    days[4] = day_from_bars(short.date, short.session, short.bars[:9], short.prior_rth_close)
    for mixed in (False, True):
        nets = np.random.default_rng(5).normal(1, 6, 40)
        trades = [trade(float(x), direction=SHORT if mixed and i % 2 else LONG)
                  for i, x in enumerate(nets)]
        cent = Instrument("TEST", 0.01, 1.5)
        p = permutation_test(trades, days, exit, iterations=300, seed=4, instrument=cent)
        assert p == per_day_table_p(trades, days, exit, 300, 4, cent)
        assert 0 < p < 1


def test_permutation_pullback_case_has_unfilled_placements():
    days = gen_null_days(SynthSpec(25, seed=6))
    evs = [SignalEvent("PERM", days[0].date, bi, LONG) for bi in range(77)]
    res = simulate(evs, days[:1], PERMUTATION_EXITS["pullback_limit"])
    assert res.rejections and res.trades


def test_permutation_p_bounds_and_floor():
    days = gen_null_days(SynthSpec(25, seed=6))
    # absurdly profitable trades: nothing random should beat them
    trades = [trade(500.0) for _ in range(20)]
    p = permutation_test(trades, days, ExitSpec(ExitKind.HORIZON, horizon=3),
                         iterations=100, seed=0)
    assert p == pytest.approx(1 / 101)
    # hopeless trades: everything beats them
    trades = [trade(-500.0) for _ in range(20)]
    p = permutation_test(trades, days, ExitSpec(ExitKind.HORIZON, horizon=3),
                         iterations=100, seed=0)
    assert p == pytest.approx(1.0)


def test_permutation_null_trades_get_large_p():
    days = gen_null_days(SynthSpec(60, seed=8))
    # take actual random placements as the "observed" trades
    rng = np.random.default_rng(14)
    evs = []
    for di in rng.integers(0, 60, size=40):
        evs.append(SignalEvent("ORB_LONG", days[di].date, int(rng.integers(0, 70)), LONG))
    obs = []
    by_date = {d.date: d for d in days}
    for e in evs:
        obs.extend(simulate([e], [by_date[e.day]], ExitSpec(ExitKind.HORIZON, horizon=5)).trades)
    p = permutation_test(obs, days, ExitSpec(ExitKind.HORIZON, horizon=5),
                         iterations=300, seed=1)
    assert p > 0.05


def test_permutation_input_validation():
    days = gen_null_days(SynthSpec(3, seed=1))
    with pytest.raises(ValidationError):
        permutation_test([], days, ExitSpec(ExitKind.HORIZON, horizon=1))
    with pytest.raises(ValidationError):
        permutation_test([trade(1.0)], days, ExitSpec(ExitKind.HORIZON, horizon=1),
                         iterations=0)
    with pytest.raises(ValidationError):
        permutation_test([trade(1.0)], [], ExitSpec(ExitKind.HORIZON, horizon=1))
