"""Run reports: per-family metric rows, verdict labels, gross-vs-net table."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .validation import EvalMetrics, Verdict


@dataclass(frozen=True)
class RunReport:
    family: str
    params: dict
    metrics: EvalMetrics
    verdict: Verdict
    config_hash: str = ""
    seed: int = 0


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "—"
    if x == float("inf"):
        return "inf"
    return f"{x:+.2f}"


def _pct(x: Optional[float]) -> str:
    return "—" if x is None else f"{100 * x:.1f}%"


def report_row(report: RunReport) -> dict:
    m = report.metrics
    return {
        "family": report.family,
        "params": report.params,
        "n": m.n,
        "mean_gross": m.mean_gross,
        "mean_net": m.mean_net,
        "t_stat": m.t_stat,
        "win_rate": m.win_rate,
        "profit_factor": m.profit_factor,
        "sharpe": m.sharpe,
        "permutation_p": m.permutation_p,
        "per_year": {str(y): {"n": ym.n, "mean_net": ym.mean_net, "t_stat": ym.t_stat}
                     for y, ym in sorted(m.per_year.items())},
        "verdict": report.verdict.failure_label,
        "config_hash": report.config_hash,
        "seed": report.seed,
    }


def render_report(report: RunReport, format: str = "markdown-table") -> str:
    """Render a single-family report; columns follow the study table shape."""
    if format == "structured-records":
        return json.dumps(report_row(report), sort_keys=True) + "\n"
    if format != "markdown-table":
        raise ValueError(f"unknown format {format!r}")
    m = report.metrics
    lines = [
        "| Variant | N | Mean Net (pts) | T-Stat | Win Rate | Verdict |",
        "|---|---|---|---|---|---|",
        f"| {report.family} | {m.n} | {_fmt(m.mean_net)} | {_fmt(m.t_stat)} "
        f"| {_pct(m.win_rate)} | {report.verdict.failure_label} |",
    ]
    if m.per_year:
        lines.append("")
        lines.append("| Year | N | Mean Net (pts) | T-Stat |")
        lines.append("|---|---|---|---|")
        for y, ym in sorted(m.per_year.items()):
            lines.append(f"| {y} | {ym.n} | {_fmt(ym.mean_net)} | {_fmt(ym.t_stat)} |")
    lines.append("")
    lines.append(f"config: {report.config_hash}  seed: {report.seed}")
    return "\n".join(lines) + "\n"


def render_summary(reports: Sequence[RunReport]) -> str:
    """Cross-family summary table, gross vs net side by side."""
    lines = [
        "| Family | N | Mean Gross (pts) | Mean Net (pts) | T-Stat | Verdict |",
        "|---|---|---|---|---|---|",
    ]
    for r in reports:
        m = r.metrics
        lines.append(
            f"| {r.family} | {m.n} | {_fmt(m.mean_gross)} | {_fmt(m.mean_net)} "
            f"| {_fmt(m.t_stat)} | {r.verdict.failure_label} |"
        )
    return "\n".join(lines) + "\n"
