"""Mutation checks: each row breaks one line of ``src/`` and names the tests
that must catch it.

    python tests/mutants.py [NAME ...]

The repository's ``src/`` and ``tests/`` are copied into a temporary
directory (``TMPDIR`` picks where). Every selection first runs on the
unchanged copy and must pass there; then each mutant is applied in turn,
its selection runs, and the tests that failed are printed. Exits 1 if a
selection fails on the unchanged copy, a mutant's old text is not found
exactly once, or a mutant survives. Pytest does not collect this file.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


BARS = "src/falsify/bars.py"
ENGINE = "src/falsify/engine.py"
EXECUTION = "src/falsify/execution.py"
SIGNALS = "src/falsify/signals.py"
SYNTH = "src/falsify/synth.py"
VALIDATION = "src/falsify/validation.py"
MUTANTS = (
    Mutant("bar writer refuses 0.07", BARS,
           "(c / 100 == ohlc)", "(ohlc * 100 == c)",
           ("tests/test_bars.py::test_serialize_days_writes_what_the_f_string_writer_wrote",)),
    Mutant("bar writer tries only rint's cents", BARS,
           "for c in (near + 1, near - 1, near):", "for c in (near,):",
           ("tests/test_bars.py::test_serialize_days_writes_what_the_f_string_writer_wrote",)),
    Mutant("bar writer drops the sign of -0.0", BARS,
           "np.where(np.signbit(ohlc.T),", "np.where(ohlc.T < 0,",
           ("tests/test_bars.py::test_serialize_days_writes_what_the_f_string_writer_wrote",)),
    Mutant("bar writer writes only its first chunk", BARS,
           "for a in range(0, len(ts), _CHUNK_ROWS)",
           "for a in range(0, min(len(ts), 1), _CHUNK_ROWS)",
           ("tests/test_synth.py::test_generated_corpora_match_golden_digests",)),
    Mutant("open recurrence drops the gap", SYNTH,
           "price += gap[k]", "pass",
           ("tests/test_synth.py::test_generated_corpora_match_golden_digests",
            "tests/test_synth.py::test_null_days_match_per_day_loop")),
    Mutant("a chunk's first day unlinked", SYNTH,
           "[days[-1].ohlc[3, -1] if days else None,", "[None,",
           ("tests/test_synth.py::test_null_days_match_per_day_loop",)),
    Mutant("planted offsets summed in reverse event order", SYNTH,
           "for r in range(max(counts)):", "for r in reversed(range(max(counts))):",
           ("tests/test_synth.py::test_plant_drift_matches_per_bar_loop",
            "tests/test_synth.py::test_planted_offsets_are_summed_in_event_order")),
    Mutant("regime labels shifted by one bar", SYNTH,
           "at = np.array(labels)", "at = np.roll(np.array(labels), 1, axis=1)",
           ("tests/test_synth.py::test_regime_days_match_choice_loop",)),
    Mutant("run names no data file", ENGINE,
           'raise BarError(f"{path}: {exc}") from None', "raise",
           ("tests/test_cli.py::test_run_names_the_data_file_an_error_is_in",)),
    Mutant("null pool takes the training years", ENGINE,
           "pool = [d for d in days if d.year in test_years]", "pool = list(days)",
           ("tests/test_engine.py::test_the_null_pool_is_exactly_the_test_years",)),
    Mutant("overnight source opens after the RTH close", ENGINE,
           "before = np.searchsorted(dates(src), dates(rth)) - 1",
           'before = np.searchsorted(dates(src), dates(rth), side="right") - 1',
           ("tests/test_engine.py::test_what_comes_after_an_instant_changes_nothing_before_it",)),
    Mutant("overnight velocities put on the wrong days", ENGINE,
           "out[before >= 0] = v", "out[:len(v)] = v",
           ("tests/test_engine.py::test_overnight_velocity_falls_back_to_prior_rth",
            "tests/test_engine.py::test_zscored_overnight_velocity_divides_by_its_source_std")),
    Mutant("a day outside the store emitted alone", ENGINE,
           'raise EngineError(f"{day.date} is not a day of the complete {fd.session} days")',
           "e = fd.emit(self, session_store([day]), {**fd.grid[0], **params}, state)\n"
           "            return [sig.SignalEvent(fd.name, day.date, c, sig.LONG if s > 0 else sig.SHORT)\n"
           "                    for c, s, _ in zip(*(a.tolist() for a in e.in_entry_order()))]",
           ("tests/test_engine.py::test_day_signals_names_only_the_days_of_its_store",)),
    Mutant("GMM fitted on the whole session", ENGINE,
           "model = gmm_fit(X[50:end],", "model = gmm_fit(X[50:],",
           ("tests/test_engine.py::test_appending_a_year_leaves_every_earlier_fold_unchanged",
            "tests/test_engine.py::test_what_comes_after_an_instant_changes_nothing_before_it")),
    Mutant("ATR baseline from the whole session", ENGINE,
           "finite = atr[:end][np.isfinite(atr[:end])]", "finite = atr[np.isfinite(atr)]",
           ("tests/test_engine.py::test_appending_a_year_leaves_every_earlier_fold_unchanged",)),
    Mutant("training window one day short", ENGINE,
           "days, end = eng.complete_days(session), eng.store(session).start[n]",
           "days, end = eng.complete_days(session), eng.store(session).start[n - 1]",
           ("tests/test_engine.py::test_regime_state_is_bit_equal_on_every_fold_and_built_once",)),
    Mutant("OU fitted on the whole session", ENGINE,
           "ou_fit(store.ohlc[3, :store.start[n]])", "ou_fit(store.ohlc[3])",
           ("tests/test_engine.py::test_every_fit_equals_its_value_from_the_training_days_alone",)),
    Mutant("volume cutoffs from every day", ENGINE,
           "[ratio[:eng.store(session).start[n]]]", "[ratio]",
           ("tests/test_engine.py::test_every_fit_equals_its_value_from_the_training_days_alone",)),
    Mutant("VVG cuts from every day", ENGINE,
           "sig.vvg_boundaries(metrics[:n])", "sig.vvg_boundaries(metrics)",
           ("tests/test_engine.py::test_every_fit_equals_its_value_from_the_training_days_alone",)),
    Mutant("training window left unchecked", ENGINE,
           "if self._run_of(fd.session, train) != 0:", "if False:",
           ("tests/test_engine.py::test_every_fit_rejects_a_window_that_does_not_open_the_session",)),
    Mutant("training nets read outside the eval days' columns", ENGINE,
           "lo, hi = first[i], first[i + len(eval_days)]", "lo, hi = first[0], first[-1]",
           ("tests/test_engine.py::test_runner_nets_follow_the_trade_order_of_simulate",
            "tests/test_engine.py::test_walk_forward_picks_and_trades_match_the_record_runner")),
    Mutant("rolling window crosses a day boundary", SIGNALS,
           "rolling_stat(store.by_day(store.ohlc[1] - store.ohlc[2]), window).ravel()",
           "rolling_stat(store.ohlc[1] - store.ohlc[2], window)",
           ("tests/test_signals.py::test_session_emission_equals_each_days_one_day_rule",
            "tests/test_engine.py::test_every_event_carries_its_family_name_and_the_recorded_entries")),
    Mutant("each day's last bar made entryable", SIGNALS,
           "(hit & (np.arange(hit.shape[1]) < hit.shape[1] - 1)).nonzero()", "hit.nonzero()",
           ("tests/test_signals.py::test_no_signal_on_final_bar_anywhere",
            "tests/test_signals.py::test_asia_expansion_mask_matches_loop",
            "tests/test_signals.py::test_volume_signature_mask_matches_loop")),
    Mutant("running extreme taken over the whole day", SIGNALS,
           "prior_hi = np.maximum.accumulate(highs, axis=1)[:, start - 1:-1]",
           "prior_hi = highs.max(axis=1, keepdims=True)",
           ("tests/test_signals.py::test_liquidity_grab_mask_matches_loop",)),
    Mutant("drift signal on a day's last bar", SIGNALS,
           "keep = (move != 0) & (sig < stop - 1)", "keep = (move != 0) & (sig <= stop - 1)",
           ("tests/test_engine.py::test_event_drift_lists_same_day_releases_by_bar",)),
    Mutant("drift move read one bar early", SIGNALS,
           'closes.take(at + 5, mode="clip")', 'closes.take(at + 4, mode="clip")',
           ("tests/test_engine.py::test_event_drift_date_index_matches_the_whole_calendar_scan",
            "tests/test_engine.py::test_event_drift_lists_same_day_releases_by_bar")),
    Mutant("entry order puts SHORT first on a bar", SIGNALS,
           "np.lexsort((-self.sign, self.col))", "np.lexsort((self.sign, self.col))",
           ("tests/test_signals.py::test_a_double_pierce_is_listed_long_first_by_the_engine",
            "tests/test_engine.py::test_runner_nets_follow_the_trade_order_of_simulate")),
    Mutant("ties pick the last grid point", VALIDATION,
           'float("-inf"), len(net), -order)', 'float("-inf"), len(net), order)',
           ("tests/test_validation.py::test_equal_training_t_and_n_pick_the_first_grid_point",)),
    Mutant("null places on each day's last bar", VALIDATION,
           "positions = np.delete(np.arange(pool.start[-1]), pool.start[1:] - 1)",
           "positions = np.arange(pool.start[-1])",
           ("tests/test_validation.py::test_permutation_matches_per_iteration_resimulation",
            "tests/test_validation.py::test_permutation_matches_the_per_day_table_build")),
    Mutant("kernel puts a day's first bar in the day before", EXECUTION,
           'day = np.searchsorted(days.start, first, side="right") - 1',
           'day = np.searchsorted(days.start, first, side="left") - 1',
           ("tests/test_execution.py::test_simulate_matches_the_per_event_loop",)),
)

ROOT = Path(__file__).resolve().parent.parent


def run(copy: Path, tests: tuple[str, ...]) -> tuple[int, list[str]]:
    """Exit code of pytest on ``tests`` in ``copy``, and the tests that failed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, re.findall(r"^FAILED (\S+)", proc.stdout, re.M)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="falsify-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        code, failed = run(copy, tuple(sorted({t for m in chosen for t in m.tests})))
        if code:
            print(f"the unchanged copy fails: {failed or 'see pytest'}")
            return 1
        survived = 0
        for m in chosen:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: old text found {text.count(m.old)} times in {m.file}")
                survived += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, failed = run(copy, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            survived += code == 0
            print(f"{m.name}: " + (f"killed by {', '.join(failed)}" if code else "SURVIVED"))
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
