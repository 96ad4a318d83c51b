"""Benchmark for falsify: time to verdict end to end, traced per module.

    python3 bench/run.py --workload {cli_run,null_sweep,power_sweep} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the falsify sources are taken from ``src/`` next to
this directory. The workload's inputs are built from ``--seed``, then
repetitions run until ``--seconds`` have passed (at least the workload's
minimum). Untraced (``--trace 0``) runs report the end-to-end metrics;
traced runs report the per-layer metrics of bench/README.md. Every run
checks its outputs, compares digests with those recorded from the seed
code, prints provenance, and ends with one JSON line.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS, Tracer, install, layer_metrics, now_ns
from workloads import ROOT, SRC, WORKLOADS, Sizes, import_seconds, self_peak_rss_mb

WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).with_name("reference_digests.json")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                getter = getattr(dll, sym)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance(w, seed: int, subs: list[int], seconds: int, traced: bool) -> dict:
    import numpy
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((SRC / "falsify").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": w.name, "seed": seed, "repetition_seeds": subs,
        "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": blas_threads(), "git_sha": git_sha,
        "src_sha256": src.hexdigest()[:16], "inputs": w.sizes_info(),
    }


def measure(w, seed: int, seconds: int, traced: bool):
    tracer = Tracer() if traced else None
    setup_s = []
    for _ in range(1 if traced else w.setups):
        spawn = import_seconds()
        inst = install(tracer) if traced else None
        root = tracer.open_root("harness.setup") if traced else None
        t0 = now_ns()
        w.setup(seed)
        setup_s.append(spawn + (now_ns() - t0) / 1e9)
        if traced:
            tracer.close_root(root)
            inst.uninstall()

    # untraced runs go through the workload's whole order at least once, so
    # every run measures the same inputs; traced runs stop once time is up
    order = w.order(seed)
    reps, subs, untraced_ns = [], [], []
    t_start = now_ns()
    while True:
        sub = order[len(subs) % len(order)]
        subs.append(sub)
        gc.collect()  # start every repetition from a collected heap
        if traced:
            # the same inputs untraced then traced give the overhead ratio
            base = w.rep(sub)
            untraced_ns.append(base.ns)
            inst = install(tracer)
            try:
                rep = w.rep(sub, tracer)
            finally:
                inst.uninstall()
            if rep.digests != base.digests:
                rep.verdicts.append(("(run)", "", ["tracing changed the outputs"]))
            reps += [base, rep]
        else:
            reps.append(w.rep(sub))
        if (now_ns() - t_start) / 1e9 >= seconds and (traced or len(reps) >= len(order)):
            break
    layers = layer_metrics(tracer, untraced_ns) if traced else None
    return setup_s, reps, subs, layers


def cross_rep_violations(reps) -> None:
    """Repetitions on one corpus (cli_run) must write byte-identical run directories."""
    first = reps[0].files
    for rep in reps[1:]:
        differing = sorted(n for n in set(rep.files) | set(first)
                           if rep.files.get(n) != first.get(n))
        if differing:
            rep.verdicts.append(("(run)", "", [f"{', '.join(differing)} differ from "
                                               "the first repetition"]))


def digest_status(name: str, reps, default_sizes: bool) -> dict[str, str]:
    """Per digest: identical if every recorded repetition matches the seed code."""
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    recorded = refs.get(name, {}) if default_sizes else {}
    status = {}
    for k in reps[0].digests:
        seen = {r.digests[k] == recorded[r.key][k] for r in reps if r.key in recorded}
        status[k] = ("unrecorded" if not seen else "identical" if seen == {True}
                     else "changed")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "falsify" / "__init__.py").is_file():
        print(f"error: no falsify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](workdir, Sizes())
    try:
        setup_s, reps, subs, layers = measure(w, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.workload == "cli_run":
        cross_rep_violations(reps)

    attempted = sum(len(r.verdicts) for r in reps)
    failed = sum(1 for r in reps for _, _, bad in r.verdicts if bad)
    correct = failed == 0
    # the mean, i.e. timed wall / repetitions: the sweeps' acceptance bounds
    # are totals over seeds, and across runs it is steadier than the median
    run_s = statistics.fmean(r.ns for r in reps) / 1e9
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  set-ups {len(setup_s)}")
    if args.trace:
        layers, additive = layers
        correct &= additive
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        print(f"layer self times add up to trace.run_s: {'yes' if additive else 'NO'}")
    else:
        rss = [r.rss_mb for r in reps if r.rss_mb is not None]
        values = {
            "run_s": (run_s, "s"),
            "cpu_s": (statistics.fmean(r.cpu_s for r in reps), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else self_peak_rss_mb(), "MB"),
            "bars_per_s": (w.bars / run_s, "bars/s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print("repetition run_s: " + " ".join(f"{r.ns / 1e9:.3f}" for r in reps)
          + f"  (median {statistics.median(r.ns for r in reps) / 1e9:.3f})")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    # error_rate is 0 on correct code, so the JSON carries it as failed/attempted
    print(f"  {'error_rate':<42} {failed / attempted:>16.6g} ratio")
    print(f"checks: {attempted} family verdicts attempted, {failed} failed")
    for i, r in enumerate(reps):
        for family, _, bad in r.verdicts:
            for b in bad:
                print(f"  violation: repetition {i} {family}: {b}")
    status = digest_status(w.name, reps, w.sizes == Sizes())
    print("digests vs seed code: " + ", ".join(f"{k} {v}" for k, v in status.items()))
    print("provenance: " + json.dumps(provenance(w, args.seed, subs, args.seconds,
                                                 bool(args.trace)), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
