"""Every check's census report, byte for byte.

perfbench/workloads.census_configs(0) runs each of the 12 checks once at
tiny size on 2 workers.  tests/census_hashes.json stores each check's exit
code and the SHA-256 of its CSV and JSON report, so a change that moves
one byte of any check fails here, not only of the three benchmark
workloads that test_reference_reports.py pins.  perfbench/ is only read.

The stored hashes are re-recorded only in a declared re-pin, from a commit
whose reports are trusted:

    PYTHONPATH=src python3 tests/test_census_reports.py
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from slelab.cli import ENV_WORKERS, main

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "census_hashes.json"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
CONFIGS = workloads.census_configs(0)


def census_entry(check: str, out_dir: Path) -> dict:
    """Run one census check in-process; its exit code and report hashes."""
    config = out_dir / "config.json"
    config.write_text(json.dumps(CONFIGS[check]))
    entry = {"exit": main(["check", str(config), "--out", str(out_dir)])}
    stem = out_dir / CONFIGS[check]["out_path"]
    for suffix in ("csv", "json"):
        entry[suffix] = hashlib.sha256(
            stem.with_suffix("." + suffix).read_bytes()).hexdigest()
    return entry


@pytest.mark.parametrize("check", sorted(CONFIGS))
def test_census_report_matches_hashes(tmp_path, monkeypatch, check):
    # the environment's worker count would override the config's
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    assert census_entry(check, tmp_path) == \
        json.loads(HASHES.read_text())[check]


if __name__ == "__main__":
    import tempfile

    os.environ.pop(ENV_WORKERS, None)
    table = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = census_entry(name, Path(tmp))
    HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
