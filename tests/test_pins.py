"""Every pinned report and demo output, byte for byte.

tests/pins.json holds one entry per case: its exit code and the exact
text it printed, as a list of lines, so a re-pin shows in `git diff` as
the report rows that moved.

- census/<check>: perfbench/workloads.census_configs(0), every check once
  at tiny size on 2 workers; its CSV and JSON report.  perfbench/ is only
  read here.
- golden/<case>: every ensemble check at three and four points, in both
  modes, on one worker; its CSV and JSON report.  tests/test_golden_rows.py
  compares these, and says why they are pinned.
- demo/<script>: the standard output of each script in demos/.

The store is re-recorded only in a declared re-pin, from a commit whose
output is trusted:

    PYTHONPATH=src python3 tests/test_pins.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from slelab.cli import ENV_WORKERS, main

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

POINTS = {"N3": [0.0, 1.0, 3.0], "N4": [0.0, 1.0, 3.0, 4.5]}
# the driver sits in slot 1, between companions on both sides; schemes
# grow the pair SCHEME_PAIR
RUN = {"dt": 1e-3, "n_paths": 300, "seed": 0, "n_workers": 1,
       "out_path": "report"}
SCHEME_PAIR = {"N3": (0, 1), "N4": (1, 2)}
BULK = {"coupling_mc": [[0.5, 1.0], [2.0, 1.5]],
        "coupling_mc1": [[0.5, 1.0]], "crossvar": [[1.0, 2.0], [-1.0, 2.0]]}
# the coupling is backward at kappa 4, gamma 2, and forward at kappa 2
FLOW = {"backward": {"kappa": 4.0, "gamma": 2.0}, "forward": {"kappa": 2.0}}


def _golden(check: str, mode: str, tag: str) -> dict:
    config = {"mode": mode, "points": POINTS[tag], **RUN}
    if check == "schemes":
        i, j = SCHEME_PAIR[tag]
        return {"check": check, "kappa": 4.0, "i_index": i, "j_index": j,
                "eps_tilde": 0.01, "c": 2.0, **config}
    config.update(i_index=1, t_final=0.05)
    if check in ("martingale", "girsanov"):
        return {"check": check, "kappa": 4.0, **config}
    return {"check": check.removesuffix("1"), "bulk_points": BULK[check],
            **FLOW[mode], **config}


CONFIGS = {
    **{f"census/{check}": config
       for check, config in workloads.census_configs(0).items()},
    **{f"golden/{check}-{mode}-{tag}": _golden(check, mode, tag)
       for check in ("martingale", "girsanov", "coupling_mc",
                     "coupling_mc1", "crossvar", "schemes")
       for mode in ("backward", "forward") for tag in POINTS},
}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
KEYS = sorted([*CONFIGS, *(f"demo/{demo}" for demo in DEMOS)])


def produce(key: str) -> dict:
    """The case's exit code and the text of each output, as lines."""
    kind, name = key.split("/")
    if kind == "demo":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=300)
        return {"exit": proc.returncode, "stdout": proc.stdout.split("\n")}
    # the environment's worker count would override the config's
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ):
        os.environ.pop(ENV_WORKERS, None)
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CONFIGS[key]))
        entry = {"exit": main(["check", str(config), "--out", tmp])}
        stem = Path(tmp) / CONFIGS[key]["out_path"]
        for suffix in ("csv", "json"):
            entry[suffix] = stem.with_suffix("." + suffix).read_text() \
                .split("\n")
    return entry


@pytest.mark.parametrize("key", [
    key for key in KEYS if not key.startswith("golden/")])
def test_pin(key):
    assert produce(key) == json.loads(PINS.read_text())[key]


def test_store_holds_exactly_the_cases():
    assert sorted(json.loads(PINS.read_text())) == KEYS
    assert len(KEYS) == 12 + 24 + 4


if __name__ == "__main__":
    PINS.write_text(json.dumps({key: produce(key) for key in KEYS},
                               indent=1, sort_keys=True) + "\n")
