"""Time-blocking of the normals: the window size never changes a number,
and a chunk's memory does not grow with the horizon."""

import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import coupling, sampler
from slelab.commutation import commutation_experiment
from slelab.core import validate_config
from slelab.coupling import (coupling_martingale_check,
                             cross_variation_experiment, make_coupling_spec)
from slelab.partition import PartitionSpec
from slelab.sampler import girsanov_check, inverse_law_check, martingale_check

CFG2 = validate_config((0.0, 1.0))
SPEC_BACK = PartitionSpec("backward", 4.0, 2)
CS_BACK = make_coupling_spec(SPEC_BACK, gamma=2.0)
CS_FWD = make_coupling_spec(PartitionSpec("forward", 2.0, 2))
N = 300

# each check at tiny size; 50 steps, or scheme legs of 192 + 100 and
# 92 + 200 steps, so 7-step windows cross leg boundaries and Philox's
# 4-word groups
CHECKS = {
    "martingale": lambda: [martingale_check(SPEC_BACK, CFG2, 0, 0.05, 1e-3,
                                            N, seed=1)],
    "girsanov": lambda: [girsanov_check(SPEC_BACK, CFG2, 0, None, 0.05, 1e-3,
                                        N, seed=1)],
    "schemes": lambda: commutation_experiment(SPEC_BACK, CFG2, 0, 1, 0.01,
                                              2.0, 1e-4, N, seed=1),
    "inverse": lambda: inverse_law_check(4.0, 2j, 0.05, 1e-3, N, seed=1),
    "coupling_mc": lambda: coupling_martingale_check(
        CS_FWD, CFG2, 0, [-1 + 1j, 1 + 2j], 0.05, 1e-3, N, seed=1),
    "crossvar": lambda: cross_variation_experiment(
        CS_BACK, CFG2, 0, [1 + 2j, -1 + 2j], 0.05, 1e-3, N, seed=1),
}


@settings(max_examples=200, deadline=None)
@given(n_steps=st.integers(0, 5000), block=st.integers(1, 600))
def test_step_windows_split_evenly(n_steps, block):
    """The windows tile [0, n_steps) in order, as many as full blocks plus
    a remainder would be, none longer than a block, and their lengths
    differ by at most one step."""
    with mock.patch.object(sampler, "STEP_BLOCK", block):
        windows = sampler.step_windows(n_steps)
    assert len(windows) == -(-n_steps // block)
    bounds = [0] + [b for _, b in windows]
    assert windows == list(zip(bounds, bounds[1:]))
    assert bounds[-1] == n_steps
    sizes = [b - a for a, b in windows]
    assert all(0 < size <= block for size in sizes)
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_step_block_does_not_change_rows(check, monkeypatch):
    rows = CHECKS[check]()
    monkeypatch.setattr(sampler, "STEP_BLOCK", 7)
    assert CHECKS[check]() == rows


def _ensemble_task(n_steps: int, dt: float) -> dict:
    return {"spec": SPEC_BACK, "points": (0.0, 1.0), "slot": 0,
            "T": n_steps * dt, "dt": dt, "seed": 0, "drifted": True,
            "log_bound": math.log(10.0), "observable": None,
            "first_path": 0, "count": 2000}


def _coupling_task(n_steps: int, dt: float) -> dict:
    return {"cspec": CS_BACK, "cfg": CFG2, "i": 0, "bulk": (1 + 2j, -1 + 2j),
            "deltas": sampler.step_sizes(n_steps * dt, dt), "seed": 0,
            "first_path": 0, "count": 2000}


def _peak_bytes(fn, task) -> int:
    tracemalloc.start()
    try:
        fn(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, make_task", [
    (sampler._ensemble_chunk, _ensemble_task),
    (coupling._h_chunk, _coupling_task),
], ids=["ensemble", "coupling"])
def test_chunk_memory_does_not_grow_with_horizon(fn, make_task):
    """A 2000-path chunk peaks within 2 MiB at 2 and at 8 windows of steps;
    a whole block of normals would add 2000 * 6 * STEP_BLOCK * 8 bytes."""
    dt = 1e-5
    short, long = (_peak_bytes(fn, make_task(k * sampler.STEP_BLOCK, dt))
                   for k in (2, 8))
    assert abs(long - short) < 2 * 2**20, (short, long)


def test_chunk_memory_does_not_exceed_an_even_window():
    """STEP_BLOCK + 36 steps split into two even windows of half that
    horizon, so a 2000-path chunk peaks within 1 MiB of its peak at that
    half; a full block plus a remainder would hold 110 more steps of
    normals, 1.7 MiB."""
    dt = 1e-5
    n_steps = sampler.STEP_BLOCK + 36
    half, whole = (_peak_bytes(sampler._ensemble_chunk,
                               _ensemble_task(k, dt))
                   for k in (n_steps // 2, n_steps))
    assert whole - half < 2**20, (half, whole)
