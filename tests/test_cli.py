from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from falsify.bars import RTH, serialize_days
from falsify.cli import main
from falsify.synth import SynthSpec, gen_null_days


def write_days(tmp_path, days, name="bars.csv"):
    p = tmp_path / name
    p.write_text(serialize_days(days), encoding="utf-8")
    return p


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


# -- ingest --------------------------------------------------------------------

def test_ingest_counts_days(tmp_path):
    days = gen_null_days(SynthSpec(5, seed=1))
    p = write_days(tmp_path, days)
    res = run_cli("ingest", p, "--session", "RTH")
    assert res.exit_code == 0
    assert "5 complete, 0 incomplete" in res.output


def test_ingest_malformed_exits_one(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("ts,open,high,low,close,volume\ngarbage\n", encoding="utf-8")
    res = run_cli("ingest", p)
    assert res.exit_code == 1
    assert "error:" in res.output


# -- synth ----------------------------------------------------------------------

def test_synth_round_trips_through_ingest(tmp_path):
    out = tmp_path / "synth.csv"
    res = run_cli("synth", "--out", out, "--days", 4, "--seed", 2)
    assert res.exit_code == 0
    assert "wrote 4 days" in res.output
    first = out.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("#")
    assert "seed=2" in first
    res2 = run_cli("ingest", out)
    assert res2.exit_code == 0
    assert "4 complete" in res2.output


def test_synth_with_drift_writes_ground_truth(tmp_path):
    out = tmp_path / "edge.csv"
    res = run_cli("synth", "--out", out, "--days", 6, "--drift-magnitude", 15.0)
    assert res.exit_code == 0
    truth = tmp_path / "edge.events.csv"
    assert truth.exists()
    lines = truth.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,date,bar_index,direction"
    assert len(lines) > 1


# -- run ------------------------------------------------------------------------

def test_run_single_family_writes_artifacts(tmp_path):
    days = gen_null_days(SynthSpec(290, seed=3))
    bars = write_days(tmp_path, days)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\nseed: 1\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "ORB_LONG",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 0, res.output
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    d = run_dirs[0]
    assert (d / "config.yaml").exists()
    assert (d / "ORB_LONG.report.md").exists()
    assert (d / "ORB_LONG.trades.csv").exists()
    assert (d / "summary.md").exists()
    row = json.loads((d / "ORB_LONG.report.json").read_text(encoding="utf-8"))
    assert row["family"] == "ORB_LONG"
    assert "verdict=" in res.output


def test_run_unknown_family_exits_two(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("seed: 1\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "NOPE")
    assert res.exit_code == 2


def test_run_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("bogus_key: 1\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg)
    assert res.exit_code == 2
    assert "config error" in res.output


def test_run_unknown_family_in_config_exits_two(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("families:\n  NOPE:\n    threshold: 2.0\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg)
    assert res.exit_code == 2
    assert "config error: unknown family 'NOPE'" in res.output


@pytest.mark.parametrize("families", ["  OU_REVERSION: 5\n", "  - OU_REVERSION\n",
                                      "  OU_REVERSION:\n    treshold: 2.0\n"],
                         ids=["scalar", "list", "typo"])
def test_run_bad_families_section_exits_two(tmp_path, families):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("families:\n" + families, encoding="utf-8")
    res = run_cli("run", "--config", cfg)
    assert res.exit_code == 2, res.output
    assert "config error" in res.output


def test_report_params_are_the_last_fold_choice(tmp_path):
    days = gen_null_days(SynthSpec(290, seed=1, gap_sigma=15.0))
    bars = write_days(tmp_path, days)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\nfamilies:\n  GAP_FILL_FADE:\n    min_gap: 4.0\n",
                   encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "GAP_FILL_FADE",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 0, res.output
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = json.loads((run_dir / "GAP_FILL_FADE.report.json").read_text(encoding="utf-8"))
    # walk-forward picks the 10:00 entry here, not the first declared point
    assert report["params"] == {"entry_time": "10:00", "min_gap": 4.0}


def test_run_families_without_data_are_skipped(tmp_path):
    days = gen_null_days(SynthSpec(290, seed=3))
    bars = write_days(tmp_path, days)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "ASIA_EXPANSION",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 0
    assert "skipped (no asia data)" in res.output


# -- ledger ---------------------------------------------------------------------

def test_ledger_cli_round_trip(tmp_path):
    led = tmp_path / "decisions.jsonl"
    r1 = run_cli("ledger", "append", led, "--id", "D001", "--text", "first")
    r2 = run_cli("ledger", "append", led, "--id", "D002", "--text", "second",
                 "--status", "LOCKED")
    assert r1.exit_code == 0 and r2.exit_code == 0
    lst = run_cli("ledger", "list", led)
    assert "D001" in lst.output and "D002" in lst.output
    locked = run_cli("ledger", "list", led, "--status", "LOCKED")
    assert "D002" in locked.output and "D001" not in locked.output
    assert run_cli("ledger", "verify", led).exit_code == 0


def test_ledger_cli_duplicate_exits_one(tmp_path):
    led = tmp_path / "decisions.jsonl"
    run_cli("ledger", "append", led, "--id", "D001", "--text", "first")
    res = run_cli("ledger", "append", led, "--id", "D001", "--text", "again")
    assert res.exit_code == 1


def test_ledger_cli_verify_detects_tampering(tmp_path):
    led = tmp_path / "decisions.jsonl"
    run_cli("ledger", "append", led, "--id", "D001", "--text", "first")
    run_cli("ledger", "append", led, "--id", "D002", "--text", "second")
    text = led.read_text(encoding="utf-8").replace("first", "forged")
    led.write_text(text, encoding="utf-8")
    res = run_cli("ledger", "verify", led)
    assert res.exit_code == 1
    assert "line 1" in res.output


# -- report ------------------------------------------------------------------------

def test_report_recomputes_from_trade_log(tmp_path):
    days = gen_null_days(SynthSpec(290, seed=3))
    bars = write_days(tmp_path, days)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "ORB_LONG",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 0
    log = next((tmp_path / "runs").glob("*/ORB_LONG.trades.csv"))
    rep = run_cli("report", log)
    assert rep.exit_code == 0
    assert "| Variant |" in rep.output
    assert "ORB_LONG" in rep.output


def test_report_rejects_garbage(tmp_path):
    p = tmp_path / "trades.csv"
    p.write_text("header\nnot,a,trade\n", encoding="utf-8")
    res = run_cli("report", p)
    assert res.exit_code == 1
