"""Statistics, the five-criteria gate, permutation testing, and walk-forward.

The gate is deliberately conservative: a signal passes only if all five
criteria hold simultaneously on out-of-sample trades.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bars import TradingDay, session_store
from .execution import (LONG, ExitSpec, Instrument, MNQ, TradeRecord,
                        aggregate_by_year, fill_days, simulate)  # noqa: F401 (bench wraps simulate)


class ValidationError(ValueError):
    pass


def t_statistic(nets: Sequence[float]) -> Optional[float]:
    """One-sample t of the mean against zero; None when undefined.

    Undefined (n < 2 or zero variance) is signalled as None, never as 0.
    """
    x = np.asarray(nets, dtype=float)
    if len(x) < 2:
        return None
    sd = float(np.std(x, ddof=1))
    if sd == 0:
        return None
    return float(np.mean(x) / (sd / math.sqrt(len(x))))


@dataclass(frozen=True)
class YearMetrics:
    n: int
    mean_net: float
    t_stat: Optional[float]


@dataclass(frozen=True)
class EvalMetrics:
    n: int
    mean_gross: Optional[float] = None
    mean_net: Optional[float] = None
    t_stat: Optional[float] = None
    win_rate: Optional[float] = None
    profit_factor: Optional[float] = None
    sharpe: Optional[float] = None
    per_year: dict[int, YearMetrics] = field(default_factory=dict)
    permutation_p: Optional[float] = None


def summary_metrics(trades: Sequence[TradeRecord],
                    permutation_p: Optional[float] = None) -> EvalMetrics:
    """Headline statistics of a trade set; empty input yields n=0."""
    if not trades:
        return EvalMetrics(n=0, permutation_p=permutation_p)
    nets = np.array([t.net for t in trades])
    gross = np.array([t.gross for t in trades])
    wins = float(np.sum(nets > 0))
    pos = float(np.sum(nets[nets > 0]))
    neg = float(abs(np.sum(nets[nets < 0])))
    pf = pos / neg if neg > 0 else (float("inf") if pos > 0 else 0.0)
    sd = float(np.std(nets, ddof=1)) if len(nets) > 1 else 0.0
    per_year = {}
    for year, yr_trades in sorted(aggregate_by_year(trades).items()):
        ynets = [t.net for t in yr_trades]
        per_year[year] = YearMetrics(len(ynets), float(np.mean(ynets)), t_statistic(ynets))
    return EvalMetrics(
        n=len(trades),
        mean_gross=float(np.mean(gross)),
        mean_net=float(np.mean(nets)),
        t_stat=t_statistic(nets),
        win_rate=wins / len(nets),
        profit_factor=pf,
        sharpe=float(np.mean(nets) / sd) if sd > 0 else None,
        per_year=per_year,
        permutation_p=permutation_p,
    )


def permutation_test(trades: Sequence[TradeRecord], day_pool: Sequence[TradingDay],
                     exit: ExitSpec, iterations: int = 1000, seed: int = 0,
                     instrument: Instrument = MNQ) -> float:
    """Placement-randomization p-value for the observed mean net.

    The null re-places the same number of same-direction entries at
    uniformly random admissible (day, bar) positions and re-simulates
    under the identical exit spec and the instrument's friction. Deterministic
    per seed.
    """
    if not trades:
        raise ValidationError("permutation test needs at least one trade")
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    pool = session_store(day_pool)
    # every column but each day's last, in day and bar order
    positions = np.delete(np.arange(pool.start[-1]), pool.start[1:] - 1)
    if not len(positions):
        raise ValidationError("no admissible placements in day pool")

    observed = float(np.mean([t.net for t in trades]))
    # an exit's outcome depends only on (day, bar, direction), so every
    # placement in each direction is resolved by one kernel call and each
    # iteration only indexes the table; NaN marks a limit that never fills
    # and is dropped as rejected
    dirs = sorted({t.direction for t in trades})
    col = np.array([dirs.index(t.direction) for t in trades])
    f = fill_days(pool, np.tile(positions, len(dirs)), np.repeat(
        [1 if d == LONG else -1 for d in dirs], len(positions)), exit, instrument)
    table = np.where(f.reason >= 0, f.net_ticks * instrument.tick_size, np.nan
                     ).reshape(len(dirs), len(positions)).T

    exceed = 0
    for it in range(iterations):
        rng = np.random.default_rng([seed, it])
        nets = table[rng.integers(0, len(positions), size=len(trades)), col]
        nets = nets[~np.isnan(nets)]
        # nets are multiples of a 0.25 tick and sum exactly, so the mean
        # does not depend on the order the placements were drawn in
        if nets.size and float(np.mean(nets)) >= observed:
            exceed += 1
    return (1 + exceed) / (iterations + 1)


def year_stability(per_year: dict[int, YearMetrics], min_trades: int = 5) -> bool:
    """Sign-consistency across years with at least ``min_trades`` trades.

    True iff every qualifying year's mean net shares the sign of the
    pooled mean net and no qualifying year is significantly (|t| > 1)
    in the opposite direction.
    """
    qual = {y: m for y, m in per_year.items() if m.n >= min_trades}
    if len(qual) < 2:
        return True
    total_n = sum(m.n for m in qual.values())
    pooled = sum(m.mean_net * m.n for m in qual.values()) / total_n
    if pooled == 0:
        return False
    sign = 1.0 if pooled > 0 else -1.0
    for m in qual.values():
        if m.mean_net * sign < 0:
            return False
        if m.t_stat is not None and m.t_stat * sign < 0 and abs(m.t_stat) > 1.0:
            return False
    return True


@dataclass(frozen=True)
class GateThresholds:
    t_min: float = 2.0
    n_min: int = 30
    p_max: float = 0.05
    permutation_required: bool = True


@dataclass(frozen=True)
class Verdict:
    t_ok: bool
    n_ok: bool
    net_ok: bool
    year_stable: bool
    perm_ok: bool
    thresholds: GateThresholds = GateThresholds()

    @property
    def overall(self) -> bool:
        return self.t_ok and self.n_ok and self.net_ok and self.year_stable and self.perm_ok

    @property
    def failure_label(self) -> str:
        """PASS, or the first failed criterion in gate order."""
        if self.overall:
            return "PASS"
        g = self.thresholds
        if not self.t_ok:
            return f"FAIL – T < {g.t_min}"
        if not self.n_ok:
            return f"FAIL – N < {g.n_min}"
        if not self.net_ok:
            return "FAIL – net ≤ 0"
        if not self.year_stable:
            return "FAIL – year instability"
        return f"FAIL – p ≥ {g.p_max}"

    @property
    def label(self) -> str:
        return "PASS" if self.overall else "FAIL"


def validate(metrics: EvalMetrics, thresholds: GateThresholds = GateThresholds()) -> Verdict:
    """Apply the five-criteria gate to out-of-sample metrics."""
    t_ok = metrics.t_stat is not None and metrics.t_stat >= thresholds.t_min
    n_ok = metrics.n >= thresholds.n_min
    net_ok = metrics.mean_net is not None and metrics.mean_net > 0
    stable = year_stability(metrics.per_year)
    if metrics.permutation_p is not None:
        perm_ok = metrics.permutation_p < thresholds.p_max
    else:
        perm_ok = not thresholds.permutation_required
    return Verdict(t_ok, n_ok, net_ok, stable, perm_ok, thresholds)


@dataclass(frozen=True)
class Fold:
    train_years: tuple[int, ...]
    test_year: int


@dataclass(frozen=True)
class WalkForwardPlan:
    folds: tuple[Fold, ...]


class RunnerTrades(NamedTuple):
    """A runner's trades: net points in trade order, and a call building their records."""
    net: np.ndarray
    records: Callable[[], list[TradeRecord]]


# A family runner: (train_days, eval_days, params, exit) -> RunnerTrades, or
# a list of TradeRecords. Any state (GMM model, cutoffs, OU fit) must be
# fitted on train_days only.
FamilyRunner = Callable[[Sequence[TradingDay], Sequence[TradingDay], dict, ExitSpec],
                        RunnerTrades | list[TradeRecord]]


def _runner_trades(trades: RunnerTrades | list[TradeRecord]) -> RunnerTrades:
    if isinstance(trades, RunnerTrades):
        return trades
    return RunnerTrades(np.array([t.net for t in trades], dtype=float), lambda: list(trades))


@dataclass(frozen=True)
class FoldChoice:
    fold: Fold
    params: dict
    exit: ExitSpec
    train_t: Optional[float]
    train_n: int


@dataclass
class WalkForwardResult:
    plan: WalkForwardPlan
    oos_trades: list[TradeRecord]
    chosen: list[FoldChoice]


def make_plan(years: Sequence[int]) -> WalkForwardPlan:
    ys = sorted(set(years))
    if len(ys) < 2:
        raise ValidationError("walk-forward needs at least two calendar years")
    folds = tuple(Fold(tuple(ys[:i]), ys[i]) for i in range(1, len(ys)))
    return WalkForwardPlan(folds)


def walk_forward(days: Sequence[TradingDay], runner: FamilyRunner,
                 grid: Sequence[dict], exit_grid: Sequence[ExitSpec]) -> WalkForwardResult:
    """Expanding-window walk-forward with training-only grid selection.

    The grid point maximizing training t-stat wins (ties: higher trade
    count, then declared order). Test-year data is never read during
    selection.
    """
    if not grid or not exit_grid:
        raise ValidationError("empty parameter grid")
    plan = make_plan([d.year for d in days])
    by_year: dict[int, list[TradingDay]] = {}
    for d in days:
        by_year.setdefault(d.year, []).append(d)

    oos: list[TradeRecord] = []
    chosen: list[FoldChoice] = []
    for fold in plan.folds:
        train = [d for y in fold.train_years for d in by_year[y]]
        test = by_year[fold.test_year]
        best: Optional[tuple[float, int, int, dict, ExitSpec]] = None
        for order, (params, exit_spec) in enumerate(itertools.product(grid, exit_grid)):
            net = _runner_trades(runner(train, train, params, exit_spec)).net
            t = t_statistic(net)
            key = (t if t is not None else float("-inf"), len(net), -order)
            if best is None or key > (best[0], best[1], -best[2]):
                best = (key[0], len(net), order, params, exit_spec)
        assert best is not None
        _, train_n, _, params, exit_spec = best
        train_t = best[0] if best[0] != float("-inf") else None
        chosen.append(FoldChoice(fold, params, exit_spec, train_t, train_n))
        oos.extend(_runner_trades(runner(train, test, params, exit_spec)).records())
    return WalkForwardResult(plan, oos, chosen)
