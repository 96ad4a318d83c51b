"""Whole-pipeline symmetries: transformations of the data that every rule is
blind to leave every family's walk-forward unchanged.

The corpus spans three calendar years (July 2022 to early 2024) on all three
sessions, with an event calendar, so every family runs two folds. Each case
compares ``run_family(permutation=False)`` on the transformed corpus with the
untransformed run: the out-of-sample trades, each fold's choice and the verdict.
"""
from __future__ import annotations

import functools
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from falsify.bars import ASIA, LONDON, TradingDay, serialize_days
from falsify.cli import main
from falsify.config import config_from_dict
from falsify.engine import DataBundle, Engine, default_families
from falsify.execution import MNQ
from falsify.synth import SynthSpec, gen_event_calendar, gen_null_days

SEEDS = (1, 2)
MIRROR = 30_000.0  # prices become MIRROR - price, so highs and lows swap
FLIP = {"LONG": "SHORT", "SHORT": "LONG"}
# families whose rules are each other's mirror image
MIRROR_PAIRS = (("ORB_LONG", "ORB_SHORT"), ("ORB_SHORT", "ORB_LONG"))


@functools.cache
def corpus(seed: int) -> DataBundle:
    start = date(2022, 7, 1)
    rth = gen_null_days(SynthSpec(420, seed=seed, start_date=start, gap_sigma=15.0))
    asia = gen_null_days(SynthSpec(420, session=ASIA, seed=seed + 1, start_date=start))
    london = gen_null_days(SynthSpec(420, session=LONDON, seed=seed + 2, start_date=start))
    return DataBundle(rth, asia, london, gen_event_calendar(rth, seed=seed))


def transformed(bundle: DataBundle, prices=lambda ohlc: ohlc, volume: int = 1) -> DataBundle:
    """``bundle`` with each day's 4 x n prices mapped by ``prices`` (its prior RTH
    close mapped as a close is) and its volumes multiplied by ``volume``."""
    def day(d: TradingDay) -> TradingDay:
        p = d.prior_rth_close
        prior = None if p is None else float(prices(np.full((4, 1), p))[3, 0])
        return TradingDay(d.date, d.session, d.ts, prices(d.ohlc), d.volume * volume, prior,
                          d.complete)
    return DataBundle(*([day(d) for d in days] for days in (bundle.rth, bundle.asia,
                                                             bundle.london)), bundle.events)


def outcomes(bundle: DataBundle) -> dict:
    """Per family: its out-of-sample trades, its fold choices and its verdict."""
    eng = Engine(bundle, config_from_dict({}))
    out = {}
    for family in default_families():
        result, _, verdict = eng.run_family(family, permutation=False)
        out[family] = (result.oos_trades, result.chosen, verdict)
    return out


@functools.cache
def untransformed(seed: int) -> dict:
    return outcomes(corpus(seed))


def test_the_corpus_runs_two_folds_and_trades():
    for trades, chosen, _ in untransformed(1).values():
        assert [c.fold.test_year for c in chosen] == [2023, 2024]
    # OU_REVERSION's fit finds no mean reversion in a random walk, so it never trades
    assert {f for f, (trades, _, _) in untransformed(1).items() if not trades} == {"OU_REVERSION"}


@settings(max_examples=6, deadline=None)
@given(seed=st.sampled_from(SEEDS), ticks=st.integers(-20_000, 20_000))
@example(seed=1, ticks=4096)     # +1024 points
@example(seed=2, ticks=-16_385)  # -4096.25 points
@example(seed=1, ticks=4002)     # +1000.5 points
def test_a_whole_tick_price_shift_moves_every_trade_price_and_nothing_else(seed, ticks):
    shift = ticks * MNQ.tick_size
    got = outcomes(transformed(corpus(seed), lambda ohlc: ohlc + shift))
    for family, (trades, chosen, verdict) in untransformed(seed).items():
        assert got[family][1:] == (chosen, verdict), family
        assert got[family][0] == [replace(t, entry_price=t.entry_price + shift,
                                          exit_price=t.exit_price + shift) for t in trades], family


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("factor", [2, 3])
def test_multiplying_every_volume_changes_no_trade(seed, factor):
    got = outcomes(transformed(corpus(seed), volume=factor))
    for family, want in untransformed(seed).items():
        assert got[family] == want, family


@pytest.mark.parametrize("seed", SEEDS)
def test_the_price_mirror_maps_orb_long_and_orb_short_onto_each_other(seed):
    # open, high, low and close become C - open, C - low, C - high and C - close
    got = outcomes(transformed(corpus(seed), lambda ohlc: MIRROR - ohlc[[0, 2, 1, 3]]))
    want = untransformed(seed)
    for family, image in MIRROR_PAIRS:
        trades, chosen, verdict = want[image]
        assert got[family][1:] == (chosen, verdict), family
        assert got[family][0] == [
            replace(t, family=family, direction=FLIP[t.direction],
                    entry_price=MIRROR - t.entry_price, exit_price=MIRROR - t.exit_price)
            for t in trades], family


def test_falsify_run_on_shifted_files_moves_only_the_trade_log_prices(tmp_path, monkeypatch):
    shift = -4096.25
    runs = {}
    for name, bundle in (("base", corpus(1)),
                         ("shifted", transformed(corpus(1), lambda ohlc: ohlc + shift))):
        d = tmp_path / name
        d.mkdir()
        for key in ("rth", "asia", "london"):
            (d / f"{key}.csv").write_text(serialize_days(getattr(bundle, key)), encoding="utf-8")
        (d / "events.csv").write_text("ts,kind,impact,currency\n" + "".join(
            f"{e.ts:%Y-%m-%dT%H:%M},{e.kind.value},{e.impact},{e.currency}\n"
            for e in bundle.events), encoding="utf-8")
        # one config text, so that both runs have one config hash
        (d / "run.yaml").write_text("data:\n" + "".join(f"  {k}: {k}.csv\n" for k in (
            "rth", "asia", "london", "events")) + "permutation:\n  iterations: 50\nseed: 1\n",
            encoding="utf-8")
        monkeypatch.chdir(d)
        res = CliRunner().invoke(main, ["run", "--config", "run.yaml", "--out", "runs"])
        assert res.exit_code == 0, res.output
        runs[name] = next((d / "runs").iterdir())
    base, shifted = runs["base"], runs["shifted"]
    logs = sorted(p.name for p in base.glob("*.trades.csv"))
    assert len(logs) == 16 and logs == sorted(p.name for p in shifted.glob("*.trades.csv"))
    traded = 0
    for name in logs:
        want = (base / name).read_text(encoding="utf-8").splitlines()
        got = (shifted / name).read_text(encoding="utf-8").splitlines()
        assert len(got) == len(want) and got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            g, w = g.split(","), w.split(",")
            # entry and exit prices move by the shift; bars, gross and net do not
            assert [float(x) for x in g[5:7]] == [float(x) + shift for x in w[5:7]]
            assert g[:5] + g[7:] == w[:5] + w[7:]
        traded += len(want) > 1
    assert traded == 15
    # the reports, verdicts and permutation p included, are the same bytes
    others = sorted(p.name for p in base.iterdir() if not p.name.endswith(".trades.csv"))
    assert others == sorted(p.name for p in shifted.iterdir() if not p.name.endswith(".trades.csv"))
    for name in others:
        assert (shifted / name).read_bytes() == (base / name).read_bytes(), name
