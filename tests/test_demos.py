"""Every script in demos/ runs to completion against the package and
prints exactly the output stored in tests/demo_outputs/<demo>.txt.

The stored outputs are re-recorded only when a demo's output is meant to
change, from a commit whose output is trusted:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(demo: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (OUTPUTS / demo).with_suffix(".txt").read_text()


if __name__ == "__main__":
    OUTPUTS.mkdir(exist_ok=True)
    for name in DEMOS:
        proc = run_demo(name)
        if proc.returncode:
            sys.exit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        (OUTPUTS / name).with_suffix(".txt").write_text(proc.stdout)
        print(f"recorded {name}")
