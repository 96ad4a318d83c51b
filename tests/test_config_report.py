from __future__ import annotations

import json

import pytest

from falsify.config import (ConfigError, DEFAULTS, config_from_dict,
                            dump_config, load_config)
from falsify.report import RunReport, render_report, render_summary, report_row
from falsify.validation import EvalMetrics, Verdict, YearMetrics, validate


# -- config --------------------------------------------------------------------

def write_cfg(tmp_path, text):
    p = tmp_path / "run.yaml"
    p.write_text(text, encoding="utf-8")
    return p


def test_defaults_fill_missing_sections(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "seed: 7\n"))
    assert cfg.seed == 7
    assert cfg.instrument.tick_size == 0.25
    assert cfg.friction.round_trip == 2.0
    assert cfg.permutation_iterations == 1000


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(write_cfg(tmp_path, "sede: 7\n"))


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown gate keys"):
        config_from_dict({"gate": {"tmin": 3}})
    with pytest.raises(ConfigError, match="unknown kalman keys"):
        load_config(write_cfg(tmp_path, "kalman:\n  zscore: true\n"))
    with pytest.raises(ConfigError, match="permutation must be a mapping"):
        config_from_dict({"permutation": 500})


def test_removed_kalman_threshold_rejected():
    # GAP_CONT_SHORT's threshold is its kalman_threshold tunable
    with pytest.raises(ConfigError, match=r"unknown kalman keys: \['threshold'\]"):
        config_from_dict({"kalman": {"threshold": 3.0}})


@pytest.mark.parametrize("raw", [{"families": {"OU_REVERSION": 5}},
                                 {"families": ["OU_REVERSION"]},
                                 {"families": None},
                                 {"permutation": {"families": "CONFLUENCE_RTH"}}])
def test_misshapen_families_rejected(raw):
    with pytest.raises(ConfigError, match="families"):
        config_from_dict(raw)


def test_invalid_yaml_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "a: [1, 2\n"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "- just\n- a\n- list\n"))


def test_negative_friction_rejected(tmp_path):
    with pytest.raises(ConfigError, match="friction"):
        load_config(write_cfg(tmp_path, "instrument:\n  friction_points: -1.0\n"))
    with pytest.raises(ConfigError, match="friction"):
        config_from_dict({"instrument": {"friction_points": -0.25}})


def test_nested_override_merges(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "gate:\n  t_min: 3.0\n"))
    assert cfg.gate("ORB_LONG").t_min == 3.0
    assert cfg.gate("ORB_LONG").n_min == 30  # untouched sibling survives


def test_seed_override_wins(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "seed: 7\n"), seed_override=42)
    assert cfg.seed == 42


def test_permutation_required_only_for_listed_families():
    cfg = config_from_dict({})
    assert cfg.gate("CONFLUENCE_RTH").permutation_required
    assert cfg.gate("LONDON_B").permutation_required
    assert not cfg.gate("ORB_LONG").permutation_required


def test_hash_deterministic_and_content_sensitive():
    a = config_from_dict({"seed": 1})
    b = config_from_dict({"seed": 1})
    c = config_from_dict({"seed": 2})
    assert a.hash == b.hash
    assert a.hash != c.hash
    assert len(a.hash) == 16


def test_dump_round_trips(tmp_path):
    cfg = config_from_dict({"seed": 5, "gate": {"t_min": 2.5}})
    p = tmp_path / "dumped.yaml"
    p.write_text(dump_config(cfg), encoding="utf-8")
    again = load_config(p)
    assert again.raw == cfg.raw
    assert again.hash == cfg.hash


# -- report --------------------------------------------------------------------

def passing_metrics():
    return EvalMetrics(n=120, mean_gross=7.5, mean_net=5.5, t_stat=3.21,
                       win_rate=0.58, profit_factor=1.9, sharpe=0.31,
                       per_year={2022: YearMetrics(60, 5.0, 2.1),
                                 2023: YearMetrics(60, 6.0, 2.4)},
                       permutation_p=0.002)


def make_report(metrics=None):
    m = metrics if metrics is not None else passing_metrics()
    return RunReport("CONFLUENCE_RTH", {"threshold": 2.0}, m, validate(m),
                     config_hash="abc123", seed=9)


def test_report_row_carries_verdict_label():
    row = report_row(make_report())
    assert row["verdict"] == "PASS"
    assert row["n"] == 120
    assert row["per_year"]["2022"]["n"] == 60


def test_empty_run_reports_n_fail():
    m = EvalMetrics(n=0)
    row = report_row(make_report(m))
    # with no trades the t criterion is undefined, so that fails first
    assert row["verdict"] == "FAIL – T < 2.0"
    assert row["n"] == 0


def test_n_fail_label_when_t_clears():
    m = EvalMetrics(n=12, mean_net=4.0, t_stat=2.8, permutation_p=0.01)
    assert report_row(make_report(m))["verdict"] == "FAIL – N < 30"


def test_markdown_table_shape():
    text = render_report(make_report(), format="markdown-table")
    lines = text.splitlines()
    assert lines[0].startswith("| Variant |")
    assert "| CONFLUENCE_RTH | 120 | +5.50 | +3.21 | 58.0% | PASS |" in lines
    assert any(ln.startswith("| 2022 |") for ln in lines)
    assert "config: abc123" in text


def test_structured_records_is_json_lines():
    text = render_report(make_report(), format="structured-records")
    obj = json.loads(text)
    assert obj["family"] == "CONFLUENCE_RTH"
    assert obj["verdict"] == "PASS"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(make_report(), format="pdf")


def test_none_fields_render_as_dashes():
    m = EvalMetrics(n=0)
    text = render_report(make_report(m))
    assert "| CONFLUENCE_RTH | 0 | — | — | — | FAIL – T < 2.0 |" in text


def test_summary_has_gross_and_net_columns():
    text = render_summary([make_report(), make_report()])
    assert text.splitlines()[0] == ("| Family | N | Mean Gross (pts) | Mean Net (pts) "
                                    "| T-Stat | Verdict |")
    assert text.count("CONFLUENCE_RTH") == 2
    assert "+7.50" in text and "+5.50" in text
