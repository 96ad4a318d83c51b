"""The three benchmark workloads: inputs, one timed repetition, output checks.

Every call into falsify goes through a module attribute (``synth.gen_null_days``,
not a name imported from it), so the tracer's patched bindings are the ones
called. A repetition returns ``Rep``: the per-family verdicts with any
violated invariant, plus digests of its corpus, trade logs and verdicts.

Run time depends on the data as well as on the code: the GMM's EM runs to
a tolerance, and its iteration count, hence a repetition's cost, differs
by tens of percent between generation seeds. So that runs with different
``--seed`` values measure the same work, cli_run uses one fixed corpus and
the sweeps cycle through a fixed pool of acceptance seeds; ``--seed`` sets
the run config's seed (cli_run) or where in the pool a run starts.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional

import numpy as np

from spans import Tracer, now_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUND_TRIP_TICKS = 8  # the default 2.0-point friction on the 0.25-point MNQ tick
TICK = Decimal("0.25")


@dataclass(frozen=True)
class Sizes:
    cli_days: int = 1043        # 2022-01-03 .. 2025-12-31: four years, three folds
    sweep_days: int = 500       # the acceptance sweeps' corpus length
    perm_iterations: int = 1000


TINY = Sizes(cli_days=270, sweep_days=270, perm_iterations=50)


@dataclass
class Rep:
    ns: int                                      # wall time of the timed section
    cpu_s: float
    rss_mb: Optional[float]                      # child peak RSS; None: this process
    verdicts: list[tuple[str, str, list[str]]]   # family, label, violations
    digests: dict[str, str]
    key: str                                     # reference-digest key
    files: dict[str, bytes] = field(default_factory=dict)


def rotation(pool: tuple[int, ...], seed: int) -> list[int]:
    k = seed % len(pool)
    return list(pool[k:] + pool[:k])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the whole package."""
    t0 = now_ns()
    subprocess.run([sys.executable, "-c", "import falsify.cli"], env=child_env(),
                   check=True, stdin=subprocess.DEVNULL)
    return (now_ns() - t0) / 1e9


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()[:16]


_EPOCH = dt.datetime(1970, 1, 1)


def days_bytes(days) -> bytes:
    """Canonical bytes of a list of TradingDays, independent of falsify code."""
    head = "\n".join(f"{d.date.isoformat()},{d.complete},{d.prior_rth_close!r},"
                     f"{d.session.name},{len(d.bars)}" for d in days).encode()
    rows = np.array([((b.ts - _EPOCH).total_seconds(), b.open, b.high, b.low, b.close,
                      b.volume) for d in days for b in d.bars], dtype=np.float64)
    return head + rows.tobytes()


def trades_bytes(trades) -> bytes:
    return "\n".join(
        f"{t.family},{t.date.isoformat()},{t.direction},{t.entry_bar},{t.exit_bar},"
        f"{t.entry_price!r},{t.exit_price!r},{t.gross_ticks},{t.net_ticks},"
        f"{t.exit_reason.value}" for t in trades).encode()


def check_family(trades, metrics, verdict) -> list[str]:
    """Invariants of one in-memory family verdict."""
    bad = []
    if not isinstance(verdict.failure_label, str) or not verdict.failure_label:
        bad.append("no verdict")
    gross = sum(t.gross_ticks for t in trades)
    net = sum(t.net_ticks for t in trades)
    if net != gross - len(trades) * ROUND_TRIP_TICKS:
        bad.append(f"sum net {net} != sum gross {gross} - N*round_trip")
    if metrics.n != len(trades):
        bad.append(f"metrics N {metrics.n} != {len(trades)} trades")
    p = metrics.permutation_p
    if p is not None and not 0.0 < p <= 1.0:
        bad.append(f"p {p} outside (0, 1]")
    return bad


def _verdict_digest(verdicts) -> str:
    return _digest("\n".join(f"{f}:{label}" for f, label, _ in verdicts).encode())


# -- cli_run -----------------------------------------------------------------------

class CliRun:
    """`falsify run` for all 16 families on one 3-session corpus, as a subprocess."""

    name = "cli_run"
    corpus_seed = 1
    setups = 3  # set-ups per run; their median is setup_s

    def __init__(self, workdir: Path, sizes: Sizes):
        self.workdir = workdir
        self.sizes = sizes
        self.bars = 0
        self.rep_count = 0

    @staticmethod
    def order(seed: int) -> list[int]:
        return [seed, seed]  # two runs of the same corpus must be byte-identical

    def setup(self, seed: int) -> None:
        from falsify import bars, synth
        n, s = self.sizes.cli_days, self.corpus_seed
        sessions = {
            "rth": synth.gen_null_days(synth.SynthSpec(n, seed=s, gap_sigma=15.0)),
            "asia": synth.gen_null_days(synth.SynthSpec(n, session=bars.ASIA, seed=s + 10_000)),
            "london": synth.gen_null_days(synth.SynthSpec(n, session=bars.LONDON,
                                                          seed=s + 20_000)),
        }
        events = synth.gen_event_calendar(sessions["rth"], seed=s)
        self.workdir.mkdir(parents=True, exist_ok=True)
        corpus = []
        for key, days in sessions.items():
            text = bars.serialize_days(days).encode()
            (self.workdir / f"{key}.csv").write_bytes(text)
            corpus.append(text)
        ev_text = ("ts,kind,impact,currency\n" + "".join(
            f"{e.ts.strftime('%Y-%m-%dT%H:%M')},{e.kind.value},{e.impact},{e.currency}\n"
            for e in events)).encode()
        (self.workdir / "events.csv").write_bytes(ev_text)
        (self.workdir / "run.yaml").write_text(
            "data:\n  rth: rth.csv\n  asia: asia.csv\n  london: london.csv\n"
            f"  events: events.csv\npermutation:\n  iterations: {self.sizes.perm_iterations}\n"
            f"seed: {seed}\n", encoding="utf-8")
        self.corpus_digest = _digest(*corpus, ev_text)
        self.bars = sum(len(d.bars) for days in sessions.values() for d in days)
        self.years = sorted({d.year for d in sessions["rth"]})
        self.key = str(seed)

    def rep(self, sub_seed: int, tracer: Optional[Tracer] = None) -> Rep:
        out = self.workdir / f"out{self.rep_count}"
        self.rep_count += 1
        args = ["run", "--config", "run.yaml", "--out", out.name]
        spans_file = self.workdir / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "falsify.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(spans_file), *args]
        log = self.workdir / "stdout.txt"
        with open(log, "wb") as fh:
            root = tracer.open_root("harness.rep") if tracer else None
            t0 = now_ns()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=child_env(), stdout=fh,
                                    stdin=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # never leave the child running behind an interrupt
                proc.wait()
                raise
            ns = now_ns() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if tracer:
                tracer.close_root(root)
        if proc.returncode != 0:
            raise RuntimeError(f"falsify run exited {proc.returncode}")
        if tracer:
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.adopt(recorded["spans"], recorded["counters"])
        stdout = log.read_text(encoding="utf-8")
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        verdicts = self._check(out, stdout)
        trades = [files[k] for k in sorted(files) if k.endswith(".trades.csv")]
        return Rep(ns, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, verdicts,
                   {"corpus": self.corpus_digest, "trades": _digest(*trades),
                    "verdicts": _verdict_digest(verdicts)}, self.key, files)

    def _check(self, out: Path, stdout: str) -> list[tuple[str, str, list[str]]]:
        from click.testing import CliRunner
        from falsify import cli

        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        if len(run_dirs) != 1:
            raise RuntimeError(f"expected one run directory in {out}")
        run_dir = run_dirs[0]
        printed = {}
        for line in stdout.splitlines():
            name, sep, rest = line.partition(": N=")
            if sep:
                printed[name] = int(rest.split()[0])
        verdicts = []
        for family in sorted(printed) or ["(none)"]:
            bad: list[str] = []
            label = ""
            try:
                rep = json.loads((run_dir / f"{family}.report.json").read_text(encoding="utf-8"))
                label = rep["verdict"]
                trades_csv = run_dir / f"{family}.trades.csv"
                rows = [ln.split(",") for ln in
                        trades_csv.read_text(encoding="utf-8").splitlines()[1:] if ln]
                gross = [Decimal(r[7]) / TICK for r in rows]
                net = [Decimal(r[8]) / TICK for r in rows]
                if any(x != x.to_integral_value() for x in gross + net):
                    bad.append("trade log prices off the tick grid")
                if sum(net) != sum(gross) - len(rows) * ROUND_TRIP_TICKS:
                    bad.append("sum net != sum gross - N*round_trip")
                if rep["n"] != len(rows) or printed[family] != len(rows):
                    bad.append(f"N {rep['n']} / printed {printed[family]} != {len(rows)} rows")
                p = rep["permutation_p"]
                if p is not None and not 0.0 < p <= 1.0:
                    bad.append(f"p {p} outside (0, 1]")
                res = CliRunner().invoke(cli.main, ["report", str(trades_csv)])
                row = res.output.splitlines()[2].split("|")
                n_re, mean_re = int(row[2]), row[3].strip()
                if res.exit_code != 0 or n_re != rep["n"]:
                    bad.append(f"falsify report N {n_re} != report.json N {rep['n']}")
                elif rep["n"] and abs(float(mean_re) - rep["mean_net"]) > 0.005 + 1e-9:
                    bad.append(f"falsify report mean {mean_re} != {rep['mean_net']}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                bad.append(f"unreadable output: {exc!r}")
            verdicts.append((family, label, bad))
        if len(verdicts) != 16:
            verdicts.append(("(run)", "", [f"{len(printed)} of 16 families reported"]))
        return verdicts

    def sizes_info(self) -> dict:
        from falsify import validation
        return {"bars": self.bars, "days_per_session": self.sizes.cli_days,
                "sessions": 3, "calendar_years": len(self.years),
                "folds": len(validation.make_plan(self.years).folds)}


# -- sweeps ------------------------------------------------------------------------

def _timed_in_process(tracer: Optional[Tracer], body):
    cpu0 = time.process_time_ns()
    root = tracer.open_root("harness.rep") if tracer else None
    t0 = now_ns()
    result = body()
    ns = now_ns() - t0
    if tracer:
        tracer.close_root(root)
    return result, ns, (time.process_time_ns() - cpu0) / 1e9


class _Sweep:
    """A sweep runs in this process and cycles through a fixed pool of seeds."""

    setups = 5

    def __init__(self, workdir: Path, sizes: Sizes):
        self.sizes = sizes

    def order(self, seed: int) -> list[int]:
        return rotation(self.pool, seed)

    def rep(self, sub_seed: int, tracer: Optional[Tracer] = None) -> Rep:
        (day_lists, events, results), ns, cpu = _timed_in_process(
            tracer, lambda: self._body(sub_seed))
        self.years = sorted({d.year for days in day_lists for d in days})
        self.folds = len(results[0][1].plan.folds)
        verdicts = [(f, v.failure_label, check_family(r.oos_trades, m, v))
                    for f, r, m, v in results]
        corpus = [days_bytes(days) for days in day_lists]
        if events is not None:
            corpus.append("\n".join(f"{e.ts.isoformat()},{e.kind.value}"
                                     for e in events).encode())
        return Rep(ns, cpu, None, verdicts, {
            "corpus": _digest(*corpus),
            "trades": _digest(*(trades_bytes(r.oos_trades) for _, r, _, _ in results)),
            "verdicts": _verdict_digest(verdicts)}, str(sub_seed))

    def sizes_info(self) -> dict:
        return {"bars": self.bars, "days_per_session": self.sizes.sweep_days,
                "sessions": self.sessions, "calendar_years": len(self.years),
                "folds": self.folds}


class NullSweep(_Sweep):
    """One seed of the acceptance null calibration: generate, then all 16 families."""

    name = "null_sweep"
    pool = tuple(range(1, 9))
    sessions = 3

    def setup(self, seed: int) -> None:
        self.raw_config = {"permutation": {"iterations": self.sizes.perm_iterations}}
        self.bars = self.sizes.sweep_days * (78 + 72 + 22)

    def _body(self, seed: int):
        from falsify import bars, config, engine, synth
        n = self.sizes.sweep_days
        rth = synth.gen_null_days(synth.SynthSpec(n, seed=seed, gap_sigma=15.0))
        asia = synth.gen_null_days(synth.SynthSpec(n, session=bars.ASIA, seed=seed + 10_000))
        london = synth.gen_null_days(synth.SynthSpec(n, session=bars.LONDON, seed=seed + 20_000))
        events = synth.gen_event_calendar(rth, seed=seed)
        eng = engine.Engine(engine.DataBundle(rth=rth, asia=asia, london=london, events=events),
                            config.config_from_dict(self.raw_config))
        results = [(f, *eng.run_family(f)) for f in sorted(engine.default_families())]
        return [rth + asia + london], events, results


CONFLUENCE_REGIMES = dict(
    transition=((0.94, 0.01, 0.05), (0.25, 0.50, 0.25), (0.05, 0.01, 0.94)),
    means=(-8.0, 0.0, 8.0), vols=(1.5, 4.0, 1.5), volume_mults=(1.0, 3.5, 1.0))


class PowerSweep(_Sweep):
    """Two planted edges per seed, one down each permutation path.

    CONFLUENCE_RTH follows the acceptance power recipe and usually keeps the
    HORIZON exit (pure-indexing permutation); ORB_PULLBACK's STOP_HORIZON
    exit sends its permutation down the generic re-simulation path.
    """

    name = "power_sweep"
    pool = (1, 2, 3)
    sessions = 1

    def setup(self, seed: int) -> None:
        from falsify import synth
        iters = {"iterations": self.sizes.perm_iterations}
        self.recipes = (
            ("CONFLUENCE_RTH", {"permutation": iters}, 15.0, 13,
             lambda s, n: synth.gen_regime_days(synth.SynthSpec(
                 n, vol_per_bar=8.0, seed=s, gap_sigma=10.0,
                 regimes=synth.RegimeSpec(**CONFLUENCE_REGIMES)))[0]),
            ("ORB_PULLBACK", {"permutation": {**iters, "families": ["ORB_PULLBACK"]}}, 15.0, 15,
             lambda s, n: synth.gen_null_days(synth.SynthSpec(n, seed=s + 30_000,
                                                              gap_sigma=15.0))),
        )
        self.bars = 2 * self.sizes.sweep_days * 78

    def _body(self, seed: int):
        from falsify import config, engine, synth
        day_lists, results = [], []
        for family, raw, magnitude, horizon, generate in self.recipes:
            days = generate(seed, self.sizes.sweep_days)
            cfg = config.config_from_dict(raw)
            params = engine.default_families()[family].grid[0]
            probe = engine.Engine(engine.DataBundle(rth=days), cfg)
            train = [d for d in days if d.year == days[0].year]
            state = probe._fit_state(family, train, params)
            events = [e for d in days for e in probe.day_signals(family, d, params, state)]
            planted = synth.plant_drift(days, events, magnitude, horizon)
            eng = engine.Engine(engine.DataBundle(rth=planted), cfg)
            day_lists.append(planted)
            results.append((family, *eng.run_family(family)))
        return day_lists, None, results


WORKLOADS = {w.name: w for w in (CliRun, NullSweep, PowerSweep)}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
