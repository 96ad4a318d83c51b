"""Record the reference digests that bench/run.py compares each run against.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

For each cli_run seed in the range and each seed in the sweeps' pools,
builds the inputs, runs one repetition untimed and stores the digests of
its corpus, trade logs and verdict labels in bench/reference_digests.json.
Run it on the code whose outputs are the reference; a later change that
alters any of them then reads "changed" in the benchmark output.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import REFERENCE, WORK  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402


def main(first: int, last: int) -> None:
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    workdir = WORK / f"record-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            w = cls(workdir, Sizes())
            # sweeps draw from a fixed pool; cli_run's digests depend on the run seed
            for seed in getattr(w, "pool", range(first, last + 1)):
                w.setup(seed)
                rep = w.rep(seed)
                bad = [b for _, _, v in rep.verdicts for b in v]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: output checks failed: {bad}")
                refs.setdefault(name, {})[rep.key] = rep.digests
                print(name, rep.key, rep.digests, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
