"""falsify command line: ingest | synth | run | ledger | report."""
from __future__ import annotations

import datetime as _dt
import sys
from pathlib import Path

import click

from .bars import SESSIONS, parse_bar_file, serialize_days
from .config import ConfigError, dump_config, load_config
from .engine import Engine, EngineError, default_families, load_bundle
from .execution import read_trades, serialize_trades
from .features import GmmDegenerateError
from .ledger import DecisionRecord, Ledger
from .report import RunReport, render_report, render_summary
from .synth import DriftSpec, SynthError, SynthSpec, gen_edge_days, gen_null_days
from .validation import summary_metrics, validate

EXIT_DATA = 1
EXIT_CONFIG = 2


class _ErrorBoundary(click.Group):
    """The one place an error becomes an exit code, for every command below ``main``:
    a bad config, option or family exits ``EXIT_CONFIG`` with ``config error: ...``,
    bad data or a file that cannot be read or written exits ``EXIT_DATA`` with
    ``error: ...``, each on one stderr line. Click's own usage errors pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, EngineError, SynthError) as exc:  # ValueErrors too, so first
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (ValueError, OSError, GmmDegenerateError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)


@click.group(cls=_ErrorBoundary)
def main() -> None:
    """Deterministic falsification engine for intraday OHLCV signals."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--session", default="RTH", type=click.Choice(sorted(SESSIONS)))
def ingest(path: str, session: str) -> None:
    """Parse a bar file and report day completeness."""
    days = parse_bar_file(path, SESSIONS[session])
    complete = sum(1 for d in days if d.complete)
    click.echo(f"{complete} complete, {len(days) - complete} incomplete "
               f"({session} days from {path})")


@main.command()
@click.option("--out", required=True, type=click.Path(dir_okay=False))
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
    header = (f"synth n_days={n_days} session={session} seed={seed} vol={vol} "
              f"drift={drift_magnitude} horizon={drift_horizon}")
    ctx = click.get_current_context()
    given = [p for p in ("drift_horizon", "events_per_day")
             if ctx.get_parameter_source(p) is not click.core.ParameterSource.DEFAULT]
    if drift_magnitude is None and given:
        raise SynthError(f"--{given[0].replace('_', '-')} needs --drift-magnitude")
    drift = (None if drift_magnitude is None
             else DriftSpec(drift_magnitude, drift_horizon, events_per_day))
    spec = SynthSpec(n_days=n_days, session=SESSIONS[session], vol_per_bar=vol,
                     seed=seed, drift=drift)
    days, planted = (gen_null_days(spec), None) if drift is None else gen_edge_days(spec)
    if planted is not None:
        truth = Path(out).with_suffix(".events.csv")
        lines = ["family,date,bar_index,direction"]
        lines += [f"{e.family},{e.day.isoformat()},{e.bar_index},{e.direction}"
                  for e in planted]
        truth.write_text("\n".join(lines) + "\n", encoding="utf-8")
        click.echo(f"wrote ground truth {truth}")
    Path(out).write_text(serialize_days(days, header_comment=header), encoding="utf-8")
    click.echo(f"wrote {len(days)} days to {out}")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--family", "family", default=None)
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed-override", default=None, type=int)
def run(config_path: str, family: str | None, out_dir: str | None,
        seed_override: int | None) -> None:
    """Walk-forward run for one family or all, writing reports and trade logs."""
    cfg = load_config(config_path, seed_override=seed_override)
    families = default_families()
    if family and family not in families:
        raise EngineError(f"unknown family {family!r}")

    engine = Engine(load_bundle(cfg), cfg)
    files = {"config.yaml": dump_config(cfg)}
    reports: list[RunReport] = []
    for name in [family] if family else sorted(families):
        session = families[name].session
        if not engine.complete_days(session):
            click.echo(f"{name}: skipped (no {session} data)")
            continue
        try:
            result, metrics, verdict = engine.run_family(name)
        except GmmDegenerateError as exc:  # the data leave a regime nothing to fit
            raise GmmDegenerateError(f"{name}: {exc}") from exc
        rep = RunReport(name, result.chosen[-1].params, metrics, verdict,
                        config_hash=cfg.hash, seed=cfg.seed)
        reports.append(rep)
        files[f"{name}.report.md"] = render_report(rep, "markdown-table")
        files[f"{name}.report.json"] = render_report(rep, "structured-records")
        files[f"{name}.trades.csv"] = serialize_trades(result.oos_trades)
        click.echo(f"{name}: N={metrics.n} verdict={verdict.failure_label}")
    files["summary.md"] = render_summary(reports)
    run_dir = Path(out_dir or cfg.output_dir) / cfg.hash
    write_run(run_dir, files)
    click.echo(f"run directory: {run_dir}")


def write_run(run_dir: Path, files: dict[str, str]) -> None:
    """Write ``files`` into ``run_dir``, all of them before any is moved in.

    They go to a staging directory beside ``run_dir`` first. Moving them in
    is one rename per file, so a failure part-way through can leave
    ``run_dir`` part-updated. The staging directory is removed on every exit
    path but a killed process, which leaves its ``.<name>.*`` behind.
    """
    import tempfile
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{run_dir.name}.", dir=run_dir.parent))
    try:
        for name, text in files.items():
            (stage / name).write_text(text, encoding="utf-8")
        run_dir.mkdir(exist_ok=True)
        for name in files:
            (stage / name).replace(run_dir / name)
    finally:
        for p in stage.iterdir():
            p.unlink()
        stage.rmdir()


@main.group()
def ledger() -> None:
    """Append-only decision ledger operations."""


@ledger.command("append")
@click.argument("path", type=click.Path(dir_okay=False))
@click.option("--id", "rec_id", required=True)
@click.option("--text", required=True)
@click.option("--status", default="OPEN", type=click.Choice(["OPEN", "LOCKED"]))
@click.option("--supersedes", default=None)
def ledger_append(path: str, rec_id: str, text: str, status: str,
                  supersedes: str | None) -> None:
    Ledger(path).append(DecisionRecord(
        id=rec_id, text=text, status=status,
        created_at=_dt.datetime.now().strftime("%Y-%m-%dT%H:%M"),
        supersedes=supersedes))
    click.echo(f"appended {rec_id}")


@ledger.command("list")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--status", default=None, type=click.Choice(["OPEN", "LOCKED"]))
def ledger_list(path: str, status: str | None) -> None:
    store = Ledger(path)
    for r in store.by_status(status) if status else store.records():
        click.echo(f"{r.id}  {r.status:<6}  {r.text}")


@ledger.command("verify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def ledger_verify(path: str) -> None:
    Ledger(path).verify()
    click.echo("ledger chain verified")


@main.command()
@click.argument("tradelog", type=click.Path(exists=True, dir_okay=False))
def report(tradelog: str) -> None:
    """Recompute metrics and verdict from a trade log."""
    trades = read_trades(tradelog)
    metrics = summary_metrics(trades)
    verdict = validate(metrics)
    family = trades[0].family if trades else "(empty)"
    rep = RunReport(family, {}, metrics, verdict)
    click.echo(render_report(rep, "markdown-table"))


if __name__ == "__main__":
    main()
