"""End-to-end acceptance checks.

Each test prints a one-line summary so a full run doubles as a short
falsification report. The heavy Monte Carlo checks (null calibration,
planted-edge power) enforce their own wall-clock budgets.
"""
from __future__ import annotations

import math
import time as _time
from datetime import date, time

import numpy as np
import pytest
from click.testing import CliRunner

import rows
from rows import day_from_bars
from falsify.bars import ASIA, LONDON, RTH, Bar, TradingDay, serialize_days
from falsify.cli import main as cli_main
from falsify.config import config_from_dict
from falsify.engine import DataBundle, Engine, default_families
from falsify.execution import (ExitKind, ExitSpec, Instrument, MNQ, simulate)
from falsify.features import (gmm_fit, hurst_exponent, kalman_velocity,
                              markov_transition_prob, ou_fit)
from falsify.signals import (LONG, SHORT, SignalEvent, asia_expansion_signals,
                             gap_fill_signals, liquidity_grab_signals, mean_range_series,
                             orb_signals, vvg_boundaries, vvg_classify)
from falsify.synth import (RegimeSpec, SynthSpec, gen_event_calendar,
                           gen_null_days, gen_regime_days, plant_drift)
from falsify.validation import (EvalMetrics, GateThresholds, YearMetrics,
                                Fold, make_plan, permutation_test,
                                summary_metrics, t_statistic, validate,
                                walk_forward)
from falsify.bars import day_primitives


# -- 1. gate reproduction on reported metric tuples -----------------------------

def test_gate_reproduces_reported_verdicts():
    perm_off = GateThresholds(permutation_required=False)
    perm_on = GateThresholds(permutation_required=True)

    gap_cont = EvalMetrics(n=22, mean_net=12.0, t_stat=3.23)
    assert validate(gap_cont, perm_off).failure_label == "FAIL – N < 30"

    london_b = EvalMetrics(n=289, mean_net=5.77, t_stat=5.15,
                           permutation_p=0.0009)
    assert validate(london_b, perm_on).failure_label == "PASS"

    orb_b15 = EvalMetrics(n=412, mean_net=1.1, t_stat=1.50)
    v = validate(orb_b15, perm_off)
    assert v.label == "FAIL"
    assert v.failure_label == "FAIL – T < 2.0"
    print("gate verdicts: N<30 / PASS / T<2.0 reproduced exactly")


# -- 2. friction arithmetic --------------------------------------------------------

def test_friction_gross_to_net_pairs_exact():
    cent = Instrument("TEST", 0.01)
    pairs = [(16.52, 14.52), (3.37, 1.37), (1.06, -0.94)]
    for gross, net in pairs:
        closes = [100.0] * 78
        closes[11] = 100.0 + gross
        grid = rows.grid(RTH, date(2022, 1, 3))
        bars, prev = [], closes[0]
        for ts, c in zip(grid, closes):
            bars.append(Bar(ts, prev, max(prev, c), min(prev, c), c, 100))
            prev = c
        day = day_from_bars(date(2022, 1, 3), RTH, bars, None, True)
        ev = SignalEvent("ORB_LONG", day.date, 10, LONG)
        t = simulate([ev], [day], ExitSpec(ExitKind.HORIZON, horizon=1),
                     instrument=cent).trades[0]
        assert t.gross == pytest.approx(gross, abs=1e-9)
        assert t.net == pytest.approx(net, abs=1e-9)
    print("friction pairs exact: 16.52→14.52, 3.37→1.37, 1.06→−0.94")


# -- 3. null calibration ------------------------------------------------------------

def null_engine(seed: int) -> Engine:
    rth = gen_null_days(SynthSpec(500, seed=seed, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(500, session=ASIA, seed=seed + 10_000))
    london = gen_null_days(SynthSpec(500, session=LONDON, seed=seed + 20_000))
    events = gen_event_calendar(rth, seed=seed)
    return Engine(DataBundle(rth=rth, asia=asia, london=london, events=events),
                  config_from_dict({}))


def test_null_calibration_sweep():
    t0 = _time.monotonic()
    families = sorted(default_families())

    # fixed-seed check: no family shows gross drift beyond noise
    eng = null_engine(1)
    for family in families:
        result, metrics, _ = eng.run_family(family)
        gross = [t.gross for t in result.oos_trades]
        if len(gross) < 2:
            continue
        se = np.std(gross, ddof=1) / math.sqrt(len(gross))
        assert abs(float(np.mean(gross))) <= 3 * se, (family, np.mean(gross), se)

    # 100-seed sweep: the full gate fires on at most 1% of family-variants
    passes = 0
    total = 0
    for seed in range(1, 101):
        eng = null_engine(seed)
        for family in families:
            _, _, verdict = eng.run_family(family)
            total += 1
            passes += bool(verdict.overall)
    elapsed = _time.monotonic() - t0
    assert passes / total <= 0.01, (passes, total)
    assert elapsed < 300, f"null sweep took {elapsed:.0f}s"
    print(f"null calibration: {passes}/{total} gate passes, {elapsed:.0f}s")


def binomial_quantile(m: int, p: float, q: float) -> int:
    """Smallest c with P(Binomial(m, p) <= c) >= q."""
    cdf = 0.0
    for c in range(m + 1):
        cdf += math.comb(m, c) * p**c * (1 - p) ** (m - c)
        if cdf >= q:
            return c
    return m


def test_permutation_p_is_calibrated_on_noise():
    # the gate's cheaper criteria fail first on noise, so the sweep above
    # never reaches the permutation; force it for every family with trades
    p_values = []
    for seed in range(1, 21):
        eng = null_engine(seed)
        for family in sorted(default_families()):
            result, _, _ = eng.run_family(family, permutation=False)
            if len(result.oos_trades) < 2:
                continue
            test_years = {f.test_year for f in result.plan.folds}
            days = eng.complete_days(eng.family_def(family).session)
            p_values.append(permutation_test(
                result.oos_trades, [d for d in days if d.year in test_years],
                result.chosen[-1].exit, iterations=200, seed=eng.config.seed,
                instrument=eng.config.instrument))
    m = len(p_values)
    below_05 = sum(p < 0.05 for p in p_values)
    below_10 = sum(p < 0.10 for p in p_values)
    bound = binomial_quantile(m, 0.05, 0.999)
    assert below_05 <= bound, (below_05, m, bound)
    print(f"p calibration on noise: {below_05}/{m} below 0.05 (bound {bound}), "
          f"{below_10}/{m} below 0.10")


# -- 4. planted-edge power -----------------------------------------------------------

CONFLUENCE_REGIMES = RegimeSpec(
    transition=((0.94, 0.01, 0.05), (0.25, 0.50, 0.25), (0.05, 0.01, 0.94)),
    means=(-8.0, 0.0, 8.0), vols=(1.5, 4.0, 1.5), volume_mults=(1.0, 3.5, 1.0))


def confluence_power_run(seed: int):
    spec = SynthSpec(500, session=RTH, vol_per_bar=8.0, seed=seed,
                     regimes=CONFLUENCE_REGIMES, gap_sigma=10.0)
    days, _ = gen_regime_days(spec)
    probe = Engine(DataBundle(rth=days), config_from_dict({}))
    train = [d for d in days if d.date.year == 2022]
    state = probe._fit_state("CONFLUENCE_RTH", train, {})
    events = []
    for d in days:
        events.extend(probe.day_signals("CONFLUENCE_RTH", d, {}, state))
    planted = plant_drift(days, events, 15.0, 13)
    eng = Engine(DataBundle(rth=planted), config_from_dict({}))
    return eng.run_family("CONFLUENCE_RTH")


def test_planted_confluence_power():
    t0 = _time.monotonic()
    hits = 0
    misses = []
    for seed in range(1, 101):
        _, metrics, verdict = confluence_power_run(seed)
        if (verdict.overall and metrics.t_stat is not None
                and metrics.t_stat >= 3.0
                and metrics.permutation_p is not None
                and metrics.permutation_p < 0.001):
            hits += 1
        else:
            misses.append((seed, metrics.t_stat, metrics.permutation_p))
    elapsed = _time.monotonic() - t0
    assert hits >= 95, (hits, misses)
    assert elapsed < 600, f"power sweep took {elapsed:.0f}s"
    print(f"planted-edge power: {hits}/100 seeds pass with T ≥ 3, {elapsed:.0f}s")


# -- 5. no-lookahead suite ------------------------------------------------------------

def mutate_after(day: TradingDay, cut: int, rng: np.random.Generator) -> TradingDay:
    bars = list(day.bars)
    for i in range(cut + 1, len(bars)):
        b = bars[i]
        delta = float(rng.normal(0, 30))
        vol = max(1, int(b.volume * rng.uniform(0.2, 5.0)))
        bars[i] = Bar(b.ts, b.open + delta, b.high + delta, b.low + delta,
                      b.close + delta, vol)
    return day_from_bars(day.date, day.session, bars,
                      day.prior_rth_close, day.complete)


def emit(family: str, day: TradingDay):
    entries = {
        "ORB_LONG": lambda: orb_signals(day, day_primitives(day), LONG),
        "ORB_SHORT": lambda: orb_signals(day, day_primitives(day), SHORT),
        "LIQUIDITY_GRAB_FADE": lambda: liquidity_grab_signals(day, None, fade=True),
        "GAP_FILL_FADE": lambda: gap_fill_signals(day, day_primitives(day), time(9, 45),
                                                  min_gap=5.0),
        "ASIA_EXPANSION": lambda: asia_expansion_signals(day, 1.5, mean_range_series(day)),
    }[family]()
    return [SignalEvent(family, day.date, i, d) for i, d in entries]


def test_no_lookahead_randomized_trials():
    rth = gen_null_days(SynthSpec(40, seed=99, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(40, session=ASIA, seed=98))
    rth_families = ("ORB_LONG", "ORB_SHORT", "LIQUIDITY_GRAB_FADE", "GAP_FILL_FADE")
    baseline: dict = {}
    rng = np.random.default_rng(2024)
    violations = 0
    for trial in range(10_000):
        if trial % 5 == 4:
            day = asia[int(rng.integers(0, len(asia)))]
            family = "ASIA_EXPANSION"
        else:
            day = rth[int(rng.integers(0, len(rth)))]
            family = rth_families[int(rng.integers(0, len(rth_families)))]
        key = (family, day.date)
        if key not in baseline:
            baseline[key] = emit(family, day)
        cut = int(rng.integers(6, len(day.bars) - 1))
        mutated = mutate_after(day, cut, rng)
        before = [e for e in baseline[key] if e.bar_index <= cut]
        after = [e for e in emit(family, mutated) if e.bar_index <= cut]
        if before != after:
            violations += 1
            continue
        # entry prices for fills at or before the cut must be untouched
        enterable = [e for e in before if e.bar_index + 1 <= cut]
        if enterable:
            res = simulate(enterable, [mutated], ExitSpec(ExitKind.HORIZON, horizon=1))
            for t in res.trades:
                if t.entry_price != day.bars[t.entry_bar].open:
                    violations += 1
                    break
    assert violations == 0
    print("no-lookahead: 10000 randomized future-mutation trials, 0 violations")


# -- 6. estimator oracles --------------------------------------------------------------

def test_estimator_oracles():
    # OU half-life recovery at n = 5000
    target = 7.85
    phi = math.exp(-math.log(2) / target)
    recovered = []
    for seed in range(31):
        rng = np.random.default_rng([41, seed])
        x = np.empty(5000)
        x[0] = 100.0
        eps = rng.normal(0, 1.0, 5000)
        c = 100.0 * (1 - phi)
        for t in range(1, 5000):
            x[t] = c + phi * x[t - 1] + eps[t]
        fit = ou_fit(x)
        assert fit.half_life is not None
        recovered.append(fit.half_life)
    median_hl = float(np.median(recovered))
    assert abs(median_hl - target) / target < 0.05

    # Hurst of iid returns
    hs = [hurst_exponent(np.random.default_rng([42, s]).normal(size=4096))
          for s in range(30)]
    assert all(abs(h - 0.5) <= 0.07 for h in hs)

    # Kalman velocity on a noiseless ramp
    closes = 100.0 + 0.5 * np.arange(400)
    vel = kalman_velocity(closes, q=1e-3, r=1.0)
    assert np.all(np.abs(vel[-50:] - 0.5) <= 1e-3)

    # GMM label recovery on planted clusters
    rng = np.random.default_rng(7)
    truth = rng.integers(0, 3, size=3000)
    means = np.array([[-5.0, 0.0, 1.0], [0.0, 2.0, -1.0], [5.0, -2.0, 0.5]])
    X = means[truth] + rng.normal(0, 0.6, size=(3000, 3))
    model = gmm_fit(X, k=3, seed=0)
    acc = float(np.mean(model.predict(X) == truth))
    assert acc >= 0.95

    # Markov transition probabilities equal brute-force pair counts
    labels = np.random.default_rng(3).integers(0, 3, size=600)
    probs = markov_transition_prob(labels, window=100, frm=1, to=2)
    for i in range(len(labels)):
        if i < 100:
            assert not np.isfinite(probs[i])
            continue
        pairs = [(labels[j], labels[j + 1]) for j in range(i - 100, i - 1)]
        from_1 = [p for p in pairs if p[0] == 1]
        if not from_1:
            assert not np.isfinite(probs[i])
        else:
            assert probs[i] == sum(1 for p in from_1 if p[1] == 2) / len(from_1)
    print(f"estimators: OU half-life {median_hl:.2f} (target 7.85), "
          f"Hurst iid ok, Kalman ramp ok, GMM acc {acc:.3f}, Markov exact")


# -- 7. walk-forward isolation -----------------------------------------------------------

def test_walk_forward_isolation():
    plan = make_plan([2022, 2023, 2024, 2025])
    assert plan.folds == (Fold((2022,), 2023),
                          Fold((2022, 2023), 2024),
                          Fold((2022, 2023, 2024), 2025))

    days = (gen_null_days(SynthSpec(30, seed=4))
            + gen_null_days(SynthSpec(30, seed=5, start_date=date(2023, 1, 2))))
    from falsify.execution import ExitReason, TradeRecord

    def runner(train, eval_days, params, exit_spec):
        year = eval_days[0].date.year
        good = (params["name"] == "train_dominant") == (year == 2022)
        base = 3.0 if good else -3.0
        rng = np.random.default_rng([7, year, hash(params["name"]) % 1000])
        out = []
        for i in range(40):
            net = base + float(rng.normal(0, 0.2))
            out.append(TradeRecord("X", date(year, 3, 1 + i % 25), LONG, 1, 2,
                                   100.0, 100.0 + net, MNQ.to_ticks(net) + 8,
                                   MNQ.to_ticks(net), ExitReason.HORIZON, 0.25))
        return out

    for trial in range(20):
        res = walk_forward(days, runner,
                           [{"name": "test_dominant"}, {"name": "train_dominant"}],
                           [ExitSpec(ExitKind.HORIZON, horizon=1)])
        assert res.chosen[0].params["name"] == "train_dominant"
    print("walk-forward: folds verbatim; train-dominant point chosen 20/20")


# -- 8. permutation correctness ------------------------------------------------------------

def test_permutation_correctness():
    pool = gen_null_days(SynthSpec(60, seed=77))
    by_date = {d.date: d for d in pool}
    exit = ExitSpec(ExitKind.HORIZON, horizon=5)

    ps = []
    for rep in range(200):
        rng = np.random.default_rng([55, rep])
        trades = []
        while len(trades) < 30:
            di = int(rng.integers(0, len(pool)))
            bi = int(rng.integers(0, 77))
            ev = SignalEvent("ORB_LONG", pool[di].date, bi, LONG)
            trades.extend(simulate([ev], [by_date[ev.day]], exit).trades)
        p = permutation_test(trades[:30], pool, exit, iterations=99, seed=rep)
        ps.append(p)
    ps = np.sort(ps)
    grid = np.arange(1, len(ps) + 1) / len(ps)
    ks = float(np.max(np.abs(ps - grid)))
    assert ks < 0.1, ks

    # a planted edge is detected at p < 0.001
    from falsify.execution import ExitReason, TradeRecord
    strong = [TradeRecord("X", date(2022, 3, 1), LONG, 1, 2, 100.0, 600.0,
                          MNQ.to_ticks(500.0) + 8, MNQ.to_ticks(500.0),
                          ExitReason.HORIZON, 0.25) for _ in range(30)]
    p_edge = permutation_test(strong, pool, exit, iterations=1000, seed=0)
    assert p_edge < 0.001

    # same seed, same p
    assert (permutation_test(strong, pool, exit, iterations=200, seed=5)
            == permutation_test(strong, pool, exit, iterations=200, seed=5))
    print(f"permutation: null KS {ks:.3f}, planted p {p_edge:.6f}, deterministic")


# -- 9. determinism of the full pipeline ------------------------------------------------------

def test_full_pipeline_byte_identical(tmp_path):
    rth = gen_null_days(SynthSpec(290, seed=21, gap_sigma=10.0))
    asia = gen_null_days(SynthSpec(290, session=ASIA, seed=22))
    london = gen_null_days(SynthSpec(290, session=LONDON, seed=23))
    paths = {}
    for name, days in (("rth", rth), ("asia", asia), ("london", london)):
        p = tmp_path / f"{name}.csv"
        p.write_text(serialize_days(days), encoding="utf-8")
        paths[name] = p
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        f"data:\n  rth: {paths['rth']}\n  asia: {paths['asia']}\n"
        f"  london: {paths['london']}\nseed: 3\n", encoding="utf-8")

    runner = CliRunner()
    for out in ("out_a", "out_b"):
        res = runner.invoke(cli_main, ["run", "--config", str(cfg),
                                       "--out", str(tmp_path / out)])
        assert res.exit_code == 0, res.output

    a_files = sorted((tmp_path / "out_a").rglob("*"))
    b_files = sorted((tmp_path / "out_b").rglob("*"))
    rel_a = [p.relative_to(tmp_path / "out_a") for p in a_files]
    rel_b = [p.relative_to(tmp_path / "out_b") for p in b_files]
    assert rel_a == rel_b
    compared = 0
    for ra in rel_a:
        fa, fb = tmp_path / "out_a" / ra, tmp_path / "out_b" / ra
        if fa.is_file():
            assert fa.read_bytes() == fb.read_bytes(), ra
            compared += 1
    assert compared >= 16 * 3 + 2  # per-family artifacts plus config and summary
    print(f"determinism: {compared} run-directory files byte-identical")


# -- 10. VVG activation sanity -------------------------------------------------------------

def test_vvg_activation_rate_independent_metrics():
    rng = np.random.default_rng(303)
    metrics = rng.normal(size=(10_000, 3))
    flags = vvg_classify(metrics, vvg_boundaries(metrics))
    rate = float(np.mean(flags))
    expected = (1.0 / 3.0) ** 3
    assert abs(rate - expected) <= 0.005
    print(f"vvg activation: {100 * rate:.2f}% vs {100 * expected:.2f}% expected")
