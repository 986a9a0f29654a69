"""Golden report rows for ensembles of three and four points.

Every benchmark workload and census ensemble has two points, so nothing
else pins the order in which the kernels add per-point terms (the drift,
sum log f', the pairs of log Z): reordering any of those sums changes
the last bits of these rows.  tests/golden_rows.json stores each case's
rows; JSON writes every float through repr, so they read back exactly.

The stored rows are re-recorded only in a declared re-pin, from a commit
whose rows are trusted:

    PYTHONPATH=src python3 tests/test_golden_rows.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from slelab import sampler
from slelab.commutation import commutation_experiment
from slelab.core import McReport, validate_config
from slelab.coupling import (CouplingSpec, coupling_martingale_check,
                             cross_variation_experiment)
from slelab.partition import PartitionSpec
from slelab.sampler import girsanov_check, martingale_check

POINTS = {"N3": (0.0, 1.0, 3.0), "N4": (0.0, 1.0, 3.0, 4.5)}
T, DT, PATHS, SEED = 0.05, 1e-3, 300, 0
# the driver sits in slot 1, between companions on both sides
I = 1
BULK = (0.5 + 1j, 2.0 + 1.5j)
PAIR_BULK = (1 + 2j, -1 + 2j)
SCHEME_PAIR = {"N3": (0, 1), "N4": (1, 2)}
CASES = sorted(
    [f"{check}-{mode}-{tag}"
     for check in ("martingale", "girsanov", "coupling_mc", "coupling_mc1")
     for mode in ("backward", "forward") for tag in POINTS]
    + [f"{check}-backward-{tag}" for check in ("crossvar", "schemes")
       for tag in POINTS])
GOLDEN = Path(__file__).resolve().parent / "golden_rows.json"


def _run(case: str) -> list[McReport]:
    check, mode, tag = case.split("-")
    pts = POINTS[tag]
    cfg = validate_config(pts)
    n = len(pts)
    if check in ("martingale", "girsanov", "schemes"):
        spec = PartitionSpec(mode, 4.0, n)
        if check == "martingale":
            return [martingale_check(spec, cfg, I, T, DT, PATHS, seed=SEED)]
        if check == "girsanov":
            return [girsanov_check(spec, cfg, I, None, T, DT, PATHS,
                                   seed=SEED)]
        i, j = SCHEME_PAIR[tag]
        return commutation_experiment(spec, cfg, i, j, 0.01, 2.0, DT, PATHS,
                                      seed=SEED)
    if mode == "backward":
        cspec = CouplingSpec(PartitionSpec(mode, 4.0, n), gamma=2.0)
    else:
        cspec = CouplingSpec(PartitionSpec(mode, 2.0, n))
    if check.startswith("coupling_mc"):
        # coupling_mc1: one bulk point
        bulk = BULK[:1] if check == "coupling_mc1" else BULK
        return coupling_martingale_check(cspec, cfg, I, bulk, T, DT, PATHS,
                                         seed=SEED)
    return cross_variation_experiment(cspec, cfg, I, PAIR_BULK, T, DT, PATHS,
                                      seed=SEED)


# with TILE 7 the kernels see 43 tiles of 6 or 7 paths in place of one of
# 300, and joining the tiles' rows must keep every bit of the chunk sums
@pytest.mark.parametrize("case, tile", [
    *(pytest.param(case, None, id=case) for case in CASES),
    *(pytest.param(case, 7, id=f"{case}-tile7") for case in CASES),
])
def test_golden_rows(case, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(sampler, "TILE", tile)
    # (name, estimate, std_error, reference, tolerance, n_samples, passed)
    # per row; the crossvar rows fail their 5% tolerance at 300 paths and
    # are kept as bytes
    expected = json.loads(GOLDEN.read_text())[case]
    assert _run(case) == [McReport(*row) for row in expected]


if __name__ == "__main__":
    table = {case: [list(dataclasses.astuple(r)) for r in _run(case)]
             for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
