"""The golden/<case> entries of tests/pins.json: three and four points.

Every benchmark workload and census ensemble has two points, so nothing
else pins the order in which the kernels add per-point terms (the drift,
sum log f', the pairs of log Z): reordering any of those sums changes
the last bits of these rows.  Every ensemble check runs in both modes,
so the forward scheme legs and crossvar's forward pair sums are pinned
too.  tests/test_pins.py builds each case's config and re-records the
store.
"""

import json

import pytest

from slelab import sampler
from test_pins import KEYS, PINS, produce

CASES = [key.removeprefix("golden/") for key in KEYS
         if key.startswith("golden/")]


# with TILE 7 the kernels see 43 tiles of 6 or 7 paths in place of one of
# 300, and joining the tiles' rows must keep every bit of the chunk sums
@pytest.mark.parametrize("case, tile", [
    *(pytest.param(case, None, id=case) for case in CASES),
    *(pytest.param(case, 7, id=f"{case}-tile7") for case in CASES),
])
def test_golden_rows(case, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(sampler, "TILE", tile)
    key = f"golden/{case}"
    assert produce(key) == json.loads(PINS.read_text())[key]
