"""The benchmark's workload reports, byte for byte.

perfbench/reference_hashes.json stores the SHA-256 of each workload's CSV
and JSON report per config seed.  Each workload runs here at config seed
0 on its own worker count, so a change that moves one report byte fails
the suite before the benchmark sees it.  perfbench/ is only read here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from slelab.cli import ENV_WORKERS, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
REFERENCE = json.loads((PERFBENCH / "reference_hashes.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_report_matches_reference_hashes(tmp_path, monkeypatch,
                                                  name):
    # the environment's worker count would override the config's
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.workload_config(name, 0)))
    assert main(["check", str(config), "--out", str(tmp_path)]) in (0, 1)
    stem = tmp_path / workloads.OUT_STEM
    hashes = {suffix: hashlib.sha256(
        stem.with_suffix("." + suffix).read_bytes()).hexdigest()
        for suffix in ("csv", "json")}
    assert hashes == REFERENCE[name]["0"]
