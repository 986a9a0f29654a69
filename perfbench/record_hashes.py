"""Write reference_hashes.json: report SHA-256 per workload and config seed.

    python3 perfbench/record_hashes.py

Run it only on a commit whose reports are trusted, when the report format
changes on purpose; a change that claims a speed-up must leave the stored
hashes alone.  Each report is produced twice, on the workload's own worker
count and on one worker, and the two must agree byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import ENV_WORKERS, OUT_DIR, REFERENCE, Benchmark
from workloads import SEED_TABLE, WORKLOADS, workload_config


def main() -> int:
    os.environ.pop(ENV_WORKERS, None)
    OUT_DIR.mkdir(exist_ok=True)
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for seed in range(SEED_TABLE):
            work = Path(tempfile.mkdtemp(prefix="hashes-", dir=OUT_DIR))
            try:
                bench = Benchmark(work, time.monotonic() + 600.0)
                config = bench.write_config(workload_config(name, seed))
                runs = [bench.child("run", config, bench.out_dir()),
                        bench.child("run", config, bench.out_dir(), workers=1)]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            hashes = [{k: r[k] for k in ("csv", "json")} for r in runs]
            if any(r["error"] or r["exit_code"] not in (0, 1) for r in runs) \
                    or hashes[0] != hashes[1]:
                print(f"{name} seed {seed}: unusable runs {runs}", file=sys.stderr)
                return 1
            table[name][str(seed)] = hashes[0]
            print(f"{name} seed {seed}: {hashes[0]['csv'][:16]} "
                  f"rows out of tolerance {runs[0]['rows_out_of_tol']}")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
