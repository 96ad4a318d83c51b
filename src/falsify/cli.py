"""falsify command line: ingest | synth | run | ledger | report."""
from __future__ import annotations

import datetime as _dt
import os
import sys
from pathlib import Path

import click

from .bars import BarError, SESSIONS, parse_bar_file, serialize_days
from .config import ConfigError, dump_config, load_config
from .engine import DataBundle, Engine, EngineError, default_families, load_bundle
from .execution import TradeRecord, ExitReason, serialize_trades
from .ledger import DecisionRecord, Ledger, LedgerError
from .report import RunReport, render_report, render_summary
from .synth import DriftSpec, SynthSpec, gen_edge_days, gen_null_days
from .validation import summary_metrics, validate

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2


@click.group()
def main() -> None:
    """Deterministic falsification engine for intraday OHLCV signals."""


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--session", default="RTH", type=click.Choice(sorted(SESSIONS)))
def ingest(path: str, session: str) -> None:
    """Parse a bar file and report day completeness."""
    try:
        days = parse_bar_file(path, SESSIONS[session])
    except BarError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    complete = sum(1 for d in days if d.complete)
    click.echo(f"{complete} complete, {len(days) - complete} incomplete "
               f"({session} days from {path})")


@main.command()
@click.option("--out", required=True, type=click.Path())
@click.option("--days", "n_days", default=10, type=int)
@click.option("--session", default="RTH", type=click.Choice(sorted(SESSIONS)))
@click.option("--seed", default=0, type=int)
@click.option("--vol", default=10.0, type=float, help="per-bar std, points")
@click.option("--drift-magnitude", default=None, type=float)
@click.option("--drift-horizon", default=13, type=int)
@click.option("--events-per-day", default=1, type=int)
def synth(out: str, n_days: int, session: str, seed: int, vol: float,
          drift_magnitude: float | None, drift_horizon: int,
          events_per_day: int) -> None:
    """Generate a synthetic bar file (optionally with planted drift)."""
    drift = None
    if drift_magnitude is not None:
        drift = DriftSpec(drift_magnitude, drift_horizon, events_per_day)
    spec = SynthSpec(n_days=n_days, session=SESSIONS[session], vol_per_bar=vol,
                     seed=seed, drift=drift)
    header = (f"synth n_days={n_days} session={session} seed={seed} vol={vol} "
              f"drift={drift_magnitude} horizon={drift_horizon}")
    if drift is None:
        days = gen_null_days(spec)
    else:
        days, planted = gen_edge_days(spec)
        truth = Path(out).with_suffix(".events.csv")
        lines = ["family,date,bar_index,direction"]
        lines += [f"{e.family},{e.day.isoformat()},{e.bar_index},{e.direction}"
                  for e in planted]
        truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
        click.echo(f"wrote ground truth {truth}")
    Path(out).write_text(serialize_days(days, header_comment=header), encoding="utf-8")
    click.echo(f"wrote {len(days)} days to {out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--family", "family", default=None)
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
def run(config_path: str, family: str | None, out_dir: str | None,
        seed_override: int | None) -> None:
    """Walk-forward run for one family or all, writing reports and trade logs."""
    try:
        cfg = load_config(config_path, seed_override=seed_override)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    names = [family] if family else sorted(default_families())
    unknown = [n for n in names if n not in default_families()]
    if unknown:
        click.echo(f"config error: unknown family {unknown[0]}", err=True)
        sys.exit(EXIT_CONFIG)

    try:
        bundle = load_bundle(cfg)
        engine = Engine(bundle, cfg)
        base = Path(out_dir or os.environ.get("FALSIFY_OUT") or cfg.output_dir)
        run_dir = base / cfg.hash
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.yaml").write_text(dump_config(cfg), encoding="utf-8")

        reports: list[RunReport] = []
        for name in names:
            session = default_families()[name].session
            if not engine.complete_days(session):
                click.echo(f"{name}: skipped (no {session} data)")
                continue
            result, metrics, verdict = engine.run_family(name)
            rep = RunReport(name, result.chosen[-1].params, metrics, verdict,
                            config_hash=cfg.hash, seed=cfg.seed)
            reports.append(rep)
            (run_dir / f"{name}.report.md").write_text(
                render_report(rep, "markdown-table"), encoding="utf-8")
            (run_dir / f"{name}.report.json").write_text(
                render_report(rep, "structured-records"), encoding="utf-8")
            (run_dir / f"{name}.trades.csv").write_text(
                serialize_trades(result.oos_trades), encoding="utf-8")
            click.echo(f"{name}: N={metrics.n} verdict={verdict.failure_label}")
        (run_dir / "summary.md").write_text(render_summary(reports), encoding="utf-8")
        click.echo(f"run directory: {run_dir}")
    except EngineError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (BarError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)


@main.group()
def ledger() -> None:
    """Append-only decision ledger operations."""


@ledger.command("append")
@click.argument("path", type=click.Path())
@click.option("--id", "rec_id", required=True)
@click.option("--text", required=True)
@click.option("--status", default="OPEN", type=click.Choice(["OPEN", "LOCKED"]))
@click.option("--supersedes", default=None)
def ledger_append(path: str, rec_id: str, text: str, status: str,
                  supersedes: str | None) -> None:
    try:
        Ledger(path).append(DecisionRecord(
            id=rec_id, text=text, status=status,
            created_at=_dt.datetime.now().strftime("%Y-%m-%dT%H:%M"),
            supersedes=supersedes))
    except LedgerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    click.echo(f"appended {rec_id}")


@ledger.command("list")
@click.argument("path", type=click.Path(exists=True))
@click.option("--status", default=None, type=click.Choice(["OPEN", "LOCKED"]))
def ledger_list(path: str, status: str | None) -> None:
    store = Ledger(path)
    records = store.by_status(status) if status else store.records()
    for r in records:
        click.echo(f"{r.id}  {r.status:<6}  {r.text}")


@ledger.command("verify")
@click.argument("path", type=click.Path(exists=True))
def ledger_verify(path: str) -> None:
    try:
        Ledger(path).verify()
    except LedgerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    click.echo("ledger chain verified")


@main.command()
@click.argument("tradelog", type=click.Path(exists=True))
def report(tradelog: str) -> None:
    """Recompute metrics and verdict from a trade log."""
    try:
        trades = _read_trades(tradelog)
    except (ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    metrics = summary_metrics(trades)
    verdict = validate(metrics)
    family = trades[0].family if trades else "(empty)"
    rep = RunReport(family, {}, metrics, verdict)
    click.echo(render_report(rep, "markdown-table"))


def _read_trades(path: str) -> list[TradeRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out: list[TradeRecord] = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        f = ln.split(",")
        out.append(TradeRecord(
            family=f[0], date=_dt.date.fromisoformat(f[1]), direction=f[2],
            entry_bar=int(f[3]), exit_bar=int(f[4]),
            entry_price=float(f[5]), exit_price=float(f[6]),
            gross_ticks=round(float(f[7]) * 100), net_ticks=round(float(f[8]) * 100),
            exit_reason=ExitReason(f[9]), tick_size=0.01,
        ))
    return out


if __name__ == "__main__":
    main()
