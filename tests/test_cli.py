from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from falsify.bars import ASIA, RTH, serialize_days
from falsify.cli import main, write_run
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


@pytest.mark.parametrize("row", ["2022-01-03T09:30,100,101,99,nan,5",
                                 "2022-01-03T09:30,100,inf,99,100,5"])
def test_ingest_non_finite_price_exits_one(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"ts,open,high,low,close,volume\n{row}\n", encoding="utf-8")
    res = run_cli("ingest", p)
    assert res.exit_code == 1
    assert "error: line 2: bar 2022-01-03 09:30:00: non-finite price" in res.output


def test_run_rejects_a_price_off_the_tick_grid(tmp_path):
    bars = write_days(tmp_path, gen_null_days(SynthSpec(265, seed=1)))
    lines = bars.read_text(encoding="utf-8").splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("2022-01-04T10:00"))
    f = lines[row].split(",")
    f[3] = f"{float(f[3]) - 0.1:.2f}"  # the low, 0.1 off the 0.25 grid
    lines[row] = ",".join(f)
    write_lines(bars, lines)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 1, res.output
    assert (f"error: {bars}: bar 2022-01-04 10:00:00: price {float(f[3])} is off the 0.25-point "
            "tick grid") in res.output
    assert not (tmp_path / "runs").exists()
    # on a 0.05-point grid the same price is whole, float error and all
    cfg.write_text(f"data:\n  rth: {bars}\ninstrument:\n  tick_size: 0.05\n"
                   "  friction_points: 0.1\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "ORB_LONG", "--out", tmp_path / "runs")
    assert res.exit_code == 0, res.output


def test_run_reports_a_degenerate_regime_fit_as_a_data_error(tmp_path):
    # flat bars give every regime feature one value, so EM collapses a variance
    bars = write_days(tmp_path, gen_null_days(SynthSpec(300, seed=1)))
    lines = bars.read_text(encoding="utf-8").splitlines()
    write_lines(bars, [lines[0]] + [ln.split(",")[0] + ",15000.00,15000.00,15000.00,15000.00,100"
                                    for ln in lines[1:]])
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "CONFLUENCE_RTH",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 1, res.output
    assert "error: CONFLUENCE_RTH: EM degenerate after 5 restarts" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_a_run_that_stops_on_a_data_error_leaves_no_directory(tmp_path):
    # every family runs: the flat bars pass ingest and stop the run at
    # CONFLUENCE_RTH, after the run's config is known
    bars = write_days(tmp_path, gen_null_days(SynthSpec(300, seed=1)))
    lines = bars.read_text(encoding="utf-8").splitlines()
    write_lines(bars, [lines[0]] + [ln.split(",")[0] + ",15000.00,15000.00,15000.00,15000.00,100"
                                    for ln in lines[1:]])
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 1, res.output
    assert "error: CONFLUENCE_RTH:" in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("session", ["asia", "london"])
def test_run_names_the_data_file_an_error_is_in(tmp_path, session):
    # the ASIA file's second bar has a non-finite open; the LONDON file is not UTF-8
    write_days(tmp_path, gen_null_days(SynthSpec(3, seed=1)), "rth.csv")
    asia = write_days(tmp_path, gen_null_days(SynthSpec(3, session=ASIA, seed=2)), "asia.csv")
    lines = asia.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].split(",")[0] + ",nan," + ",".join(lines[2].split(",")[2:])
    write_lines(asia, lines)
    london = tmp_path / "london.csv"
    london.write_bytes(b"ts,open,high,low,close,volume\n2022-01-03T03:00,1\xff\n")
    bad = {"asia": asia, "london": london}[session]
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {tmp_path / 'rth.csv'}\n  {session}: {bad}\n",
                   encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 1, res.output
    want = {"asia": "line 3: bar 2022-01-03 20:05:00: non-finite price",
            "london": "'utf-8' codec can't decode byte 0xff"}[session]
    assert res.output.startswith(f"error: {bad}: {want}"), res.output
    assert res.output.count("\n") == 1 and isinstance(res.exception, SystemExit)
    assert not (tmp_path / "runs").exists()
    # ingest reads one file, and names none
    res = run_cli("ingest", bad, "--session", session.upper())
    assert res.output.startswith(f"error: {want}"), res.output


@pytest.mark.parametrize("name,error", [("missing.csv", "No such file or directory"),
                                        ("a_dir", "Is a directory")])
def test_run_whose_data_path_is_not_a_file_exits_one_with_one_line(tmp_path, name, error):
    (tmp_path / "a_dir").mkdir()
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {tmp_path / name}\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 1, res.output
    assert "error: [Errno" in res.output and error in res.output
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("args", [("run", "--config"), ("ingest",), ("report",)],
                         ids=["run_config", "ingest", "report"])
def test_a_directory_for_a_file_argument_is_a_usage_error(tmp_path, args):
    res = run_cli(*args, tmp_path)
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


LEDGER_AND_SYNTH = {"ledger_list": (("ledger", "list"), ()),
                    "ledger_verify": (("ledger", "verify"), ()),
                    "ledger_append": (("ledger", "append"), ("--id", "D001", "--text", "x")),
                    "synth": (("synth", "--out"), ())}


@pytest.mark.parametrize("command", sorted(LEDGER_AND_SYNTH))
def test_a_directory_for_a_ledger_or_synth_file_is_a_usage_error(tmp_path, command):
    before, after = LEDGER_AND_SYNTH[command]
    res = run_cli(*before, tmp_path, *after)
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output
    assert isinstance(res.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("command", ["ledger_append", "synth"])
def test_a_ledger_or_synth_file_that_cannot_be_written_exits_one_with_one_line(tmp_path, command):
    before, after = LEDGER_AND_SYNTH[command]
    res = run_cli(*before, tmp_path / "no" / "such.file", *after)
    assert res.exit_code == 1, res.output
    assert res.output.startswith("error: [Errno 2]") and res.output.count("\n") == 1
    assert isinstance(res.exception, SystemExit)


def test_write_run_writes_every_file_before_moving_any_in(tmp_path):
    runs = tmp_path / "runs"
    with pytest.raises(OSError):  # the second file cannot be written
        write_run(runs / "abc", {"a.md": "a", "no/such/dir.md": "b"})
    assert list(runs.iterdir()) == []
    # a second run into the same directory adds its files beside the first's
    write_run(runs / "abc", {"a.md": "a", "c.md": "old"})
    write_run(runs / "abc", {"b.md": "b", "c.md": "new"})
    assert [p.name for p in runs.iterdir()] == ["abc"]
    assert {p.name: p.read_text(encoding="utf-8") for p in (runs / "abc").iterdir()} == {
        "a.md": "a", "b.md": "b", "c.md": "new"}


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


@pytest.mark.parametrize("args,error", [
    (["--vol", -1], "vol_per_bar must be positive and finite, got -1.0"),
    (["--vol", "nan"], "vol_per_bar must be positive and finite, got nan"),
    (["--drift-magnitude", "nan"], "drift magnitude must be finite, got nan"),
    (["--drift-magnitude", 15.0, "--drift-horizon", 0], "horizon must be >= 1, got 0"),
    (["--days", -3], "n_days must be >= 0, got -3"),
    # drift options that would plant nothing, or be ignored
    (["--drift-magnitude", 5, "--events-per-day", 0], "events_per_day must be >= 1, got 0"),
    (["--drift-magnitude", 5, "--events-per-day", -2], "events_per_day must be >= 1, got -2"),
    (["--drift-horizon", 0], "--drift-horizon needs --drift-magnitude"),
    (["--events-per-day", 3], "--events-per-day needs --drift-magnitude"),
    # a horizon that leaves no signal bar room to plant
    (["--session", "LONDON", "--days", 30, "--drift-magnitude", 5, "--drift-horizon", 16],
     "drift horizon 16 leaves no signal bar to plant in a 22-bar LONDON session (at most 15)"),
    (["--days", 5, "--drift-magnitude", 5, "--drift-horizon", 72],
     "drift horizon 72 leaves no signal bar to plant in a 78-bar RTH session (at most 71)"),
], ids=["negative_vol", "nan_vol", "nan_drift", "zero_drift_horizon", "negative_days",
        "zero_events_per_day", "negative_events_per_day", "horizon_without_drift",
        "events_without_drift", "london_horizon_past_the_session", "rth_horizon_past_the_session"])
def test_synth_bad_option_exits_two_and_writes_nothing(tmp_path, args, error):
    res = run_cli("synth", "--out", tmp_path / "synth.csv", *args)
    assert res.exit_code == 2, res.output
    assert f"config error: {error}" in res.output
    assert list(tmp_path.iterdir()) == []


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
    assert "config error: unknown family 'NOPE'" in res.output


def test_run_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("bogus_key: 1\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg)
    assert res.exit_code == 2
    assert "config error" in res.output


@pytest.mark.parametrize("text", ["instrument:\n  friction_points: 0.1\n",
                                  "instrument:\n  friction_points: 2.1\n",
                                  "instrument:\n  friction_points: '2'\n",
                                  "instrument:\n  tick_size: 0\n",
                                  "permutation:\n  iterations: 0\n"],
                         ids=["friction-below-a-tick", "friction-off-the-grid",
                              "friction-string", "zero-tick", "zero-iterations"])
def test_run_bad_number_in_config_exits_two(tmp_path, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text, encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and isinstance(res.exception, SystemExit)


BAD_CONFIG_VALUES = [
    ("gate: {n_min: x}", "gate n_min must be an integer >= 0, got 'x'"),
    ("gate: {n_min: 2.5}", "gate n_min must be an integer >= 0, got 2.5"),
    ("gate: {n_min: -3}", "gate n_min must be an integer >= 0, got -3"),
    ("gate: {t_min: x}", "gate t_min must be a finite number, got 'x'"),
    ("gate: {p_max: 2}", "gate p_max must be a number in (0, 1], got 2"),
    ("gate: {p_max: 0}", "gate p_max must be a number in (0, 1], got 0"),
    ("kalman: {q: x}", "kalman q must be a positive finite number, got 'x'"),
    ("kalman: {q: -1}", "kalman q must be a positive finite number, got -1"),
    ("kalman: {r: 0}", "kalman r must be a positive finite number, got 0"),
    ("kalman: {zscored: maybe}", "kalman zscored must be true or false, got 'maybe'"),
    ("seed: abc", "seed must be an integer >= 0, got 'abc'"),
    ("seed: 1.5", "seed must be an integer >= 0, got 1.5"),
    ("seed: true", "seed must be an integer >= 0, got True"),
    ("data: {rth: 5}", "data rth must be a path or null, got 5"),
    ("data: {rth: ''}", "data rth must be a path or null, got ''"),
    ("output_dir: 5", "output_dir must be a string, got 5"),
    ("instrument: {name: 5}", "instrument name must be a string, got 5"),
]


@pytest.mark.parametrize("text,error", BAD_CONFIG_VALUES, ids=[t for t, _ in BAD_CONFIG_VALUES])
def test_run_bad_config_value_exits_two_and_writes_nothing(tmp_path, text, error):
    # each was truncated, taken as truthy, accepted, or failed only after the
    # run directory was written
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text + "\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "GAP_CONT_SHORT",
                  "--out", tmp_path / "runs")
    assert res.exit_code == 2, res.output
    assert f"config error: {error}" in res.output
    assert not (tmp_path / "runs").exists()


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


@pytest.mark.parametrize("family,key", [("ORB_PULLBACK", "stop"), ("EVENT_DRIFT", "horizon")])
def test_run_override_of_a_removed_tunable_exits_two(tmp_path, family, key):
    # neither ever changed a trade, so both are gone from the family table
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"families:\n  {family}:\n    {key}: 5\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg)
    assert res.exit_code == 2, res.output
    assert f"config error: unknown {family} parameters: ['{key}']" in res.output


def test_run_override_of_the_wrong_type_exits_two(tmp_path):
    # two calendar years, so the run reaches the emitter if the type gets through
    bars = write_days(tmp_path, gen_null_days(SynthSpec(265, seed=1)))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\nfamilies:\n  ORB_PULLBACK:\n"
                   "    pullback_offset: x\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--family", "ORB_PULLBACK", "--out", tmp_path / "runs")
    assert res.exit_code == 2, res.output
    assert "config error: ORB_PULLBACK parameter pullback_offset must be a number" in res.output


@pytest.mark.parametrize("family,key,value,error", [
    ("VVG_REVERSAL", "mode", "FOO", "mode must be one of ['CLOSE_FADE', 'REVERSAL'], got 'FOO'"),
    # VVG_CONTINUATION's strategy, which VVG_REVERSAL's report would name as its own
    ("VVG_REVERSAL", "mode", "CONTINUATION", "mode must be one of ['CLOSE_FADE', 'REVERSAL']"),
    ("GAP_FILL_FADE", "entry_time", "'25:00'", "hour must be in 0..23"),
    ("GAP_FILL_FADE", "entry_time", "'09:32'", "entry time 09:32:00 outside RTH session grid"),
    ("EVENT_DRIFT", "start_bar_offset", "3", "start_bar_offset must be >= 6"),
])
def test_run_override_of_a_bad_value_exits_two_and_writes_nothing(tmp_path, family, key, value,
                                                                  error):
    # the emitter rejects each value too, but only after the families run before
    # it have written their reports
    bars = write_days(tmp_path, gen_null_days(SynthSpec(265, seed=1)))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\nfamilies:\n  {family}:\n    {key}: {value}\n",
                   encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 2, res.output
    assert f"config error: {family} parameters" in res.output and error in res.output
    assert not (tmp_path / "runs").exists()


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


def test_run_rejects_a_tick_size_the_trade_log_cannot_carry(tmp_path):
    # the trade log writes prices to the cent: a 0.125-point tick would log an
    # entry at 14670.375 as 14670.38
    bars = write_days(tmp_path, gen_null_days(SynthSpec(5, seed=1)))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"data:\n  rth: {bars}\ninstrument:\n  tick_size: 0.125\n", encoding="utf-8")
    res = run_cli("run", "--config", cfg, "--out", tmp_path / "runs")
    assert res.exit_code == 2, res.output
    assert "config error: tick_size must be a positive whole number of cents, got 0.125" \
        in res.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("edit,error", [
    # a header that is not the trade log's, with an eleventh column in every row
    (lambda lines: [ln + ",x" for ln in lines], "error: line 1: header is not"),
    (lambda lines: [lines[0], ",".join(lines[1].split(",")[:5])],
     "error: line 2: 5 fields, not 10"),
], ids=["bad_header_eleven_columns", "five_column_row"])
def test_report_rejects_a_malformed_trade_log(tmp_path, edit, error):
    from datetime import date
    from falsify.execution import ExitReason, TradeRecord, serialize_trades
    trade = TradeRecord("ORB_LONG", date(2022, 1, 3), "LONG", 8, 9, 100.25, 101.0, 3, -5,
                        ExitReason.HORIZON, 0.25)
    p = tmp_path / "trades.csv"
    lines = serialize_trades([trade]).splitlines()
    assert run_cli("report", write_lines(p, lines)).exit_code == 0
    res = run_cli("report", write_lines(p, edit(lines)))
    assert res.exit_code == 1 and error in res.output, res.output


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_report_rejects_garbage(tmp_path):
    p = tmp_path / "trades.csv"
    p.write_text("header\nnot,a,trade\n", encoding="utf-8")
    res = run_cli("report", p)
    assert res.exit_code == 1


# -- one error boundary ---------------------------------------------------------------

def _bytes(path, data):
    path.write_bytes(data)
    return path


BAD_INPUT = {  # command: (its arguments, given tmp_path; exit code; start of its one line)
    "ingest": (lambda t: ("ingest", _bytes(t / "bars.csv", b"ts,open,high,low,close,volume\n"
                                                           b"2022-01-03T09:30,1\xff\n")),
               1, "error: 'utf-8' codec can't decode byte 0xff"),
    "synth": (lambda t: ("synth", "--out", t / "bars.csv", "--days", "-1"), 2, "config error: "),
    "run": (lambda t: ("run", "--config", _bytes(t / "run.yaml", b"seed: 1 # \xff\n"),
                       "--out", t / "runs"), 2, "config error: cannot parse config: 'utf-8' codec"),
    "report": (lambda t: ("report", _bytes(t / "trades.csv", b"header\nnot,a,trade\n")),
               1, "error: line 1: header is not"),
    "ledger_list": (lambda t: ("ledger", "list", _bytes(t / "d.jsonl", b"garbage\n")),
                    1, "error: line 1: not JSON"),
    "ledger_verify": (lambda t: ("ledger", "verify", _bytes(t / "d.jsonl", b"[1]\n")),
                      1, "error: line 1: not a JSON object"),
    "ledger_append": (lambda t: ("ledger", "append", _bytes(t / "d.jsonl", b'{"id":"D001"}\n'),
                                 "--id", "D002", "--text", "x"),
                      1, "error: line 1: no 'text' field"),
}


@pytest.mark.parametrize("command", sorted(BAD_INPUT))
def test_every_command_ends_a_rejected_input_with_one_error_line(tmp_path, command):
    args, code, start = BAD_INPUT[command]
    res = run_cli(*args(tmp_path))
    assert res.exit_code == code, res.output
    assert res.output.startswith(start) and res.output.count("\n") == 1, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert not (tmp_path / "runs").exists()
