"""Time-blocking of the normals and path tiles inside a chunk: neither the
window size nor the tile size changes a number, a chunk's memory does not
grow with the horizon, and it follows the tile."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import cli, coupling, sampler
from slelab.commutation import commutation_experiment
from slelab.core import (DrivingPath, build_driving_path, normal_block,
                         validate_config)
from slelab.coupling import (CouplingSpec, coupling_martingale_check,
                             cross_variation_experiment)
from slelab.loewner import Swallowed, evolve, initial_state
from slelab.partition import PartitionSpec
from slelab.sampler import girsanov_check, inverse_law_check, martingale_check

CFG2 = validate_config((0.0, 1.0))
SPEC_BACK = PartitionSpec("backward", 4.0, 2)
CS_BACK = CouplingSpec(SPEC_BACK, gamma=2.0)
CS_FWD = CouplingSpec(PartitionSpec("forward", 2.0, 2))
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
        windows = list(sampler.step_windows(n_steps))
    assert len(windows) == -(-n_steps // block)
    bounds = [0] + [b for _, b in windows]
    assert windows == list(zip(bounds, bounds[1:]))
    assert bounds[-1] == n_steps
    sizes = [b - a for a, b in windows]
    assert all(0 < size <= block for size in sizes)
    assert max(sizes, default=0) - min(sizes, default=0) <= 1


# 7-path tiles split the 300 paths of a chunk 43 ways, unevenly
@pytest.mark.parametrize("check, knob", [
    *(pytest.param(check, "STEP_BLOCK", id=check) for check in sorted(CHECKS)),
    *(pytest.param(check, "TILE", id=f"{check}-tile")
      for check in sorted(CHECKS)),
])
def test_step_block_does_not_change_rows(check, knob, monkeypatch):
    rows = CHECKS[check]()
    monkeypatch.setattr(sampler, knob, 7)
    assert CHECKS[check]() == rows


def _ensemble_task(n_steps: int, dt: float) -> dict:
    return {"spec": SPEC_BACK, "points": (0.0, 1.0), "slot": 0,
            "T": n_steps * dt, "dt": dt, "seed": 0, "drifted": True,
            "log_bound": math.log(10.0), "j": None,
            "first_path": 0, "count": 2000}


def _coupling_task(n_steps: int, dt: float) -> dict:
    return {"cspec": CS_BACK, "cfg": CFG2, "i": 0, "bulk": (1 + 2j, -1 + 2j),
            "T": n_steps * dt, "dt": dt, "seed": 0,
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


@pytest.mark.parametrize("fn, make_task", [
    (sampler._ensemble_chunk, _ensemble_task),
    (coupling._h_chunk, _coupling_task),
], ids=["ensemble", "coupling"])
def test_chunk_memory_follows_the_tile(fn, make_task, monkeypatch):
    """At 256 steps a 500-path window of normals is 1 MiB and a 2000-path
    one 4 MiB.  A 2000-path chunk in 500-path tiles peaked 2.9-3.0 MiB
    below the same chunk in one tile (1.5-1.6 against 4.4-4.7 MiB), so it
    must stay at least 2 MiB below it."""
    task = make_task(sampler.STEP_BLOCK, 1e-5)
    monkeypatch.setattr(sampler, "TILE", 2000)
    whole = _peak_bytes(fn, task)
    monkeypatch.setattr(sampler, "TILE", 500)
    tiles = _peak_bytes(fn, task)
    assert whole - tiles > 2 * 2**20, (tiles, whole)


CHAINS = {"hcap": (cli._run_hcap, {"mode": "backward", "kappa": 4.0}),
          "zip": (cli._run_zip, {"mode": "forward"})}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_runner_memory_does_not_grow_with_horizon(chain):
    """The hcap and zip runners evolve one step window at a time, so their
    peaks at 2 and at 8 windows agree within 8 KiB; a whole horizon of
    normals and driving values added 36 KiB from 2 to 8 windows."""
    run, fields = CHAINS[chain]
    dt = 1e-5
    short, long = (
        _peak_bytes(lambda f: run(**f),
                    dict(fields, t_final=k * sampler.STEP_BLOCK * dt, dt=dt))
        for k in (2, 8))
    assert abs(long - short) < 8 * 2**10, (short, long)


def test_windowed_chain_keeps_the_driving_bits(monkeypatch):
    """Starting each window's path from the last driving value of the one
    before gives the values of one sequential sum, so bulk points near the
    driver end where one evolve call puts them, bit for bit."""
    inc = normal_block(3, 0, 1, 300)[0] * math.sqrt(1e-3)
    state = initial_state("backward", bulk=(0.3 + 0.5j, -0.2 + 1j))
    whole = evolve(state, build_driving_path(4.0, 0.0, inc, 1e-3))
    monkeypatch.setattr(sampler, "STEP_BLOCK", 7)
    windows, _ = cli._evolve_windows(state, 4.0, 300, 1e-3,
                                     lambda a, b: inc[a:b])
    assert windows.bulk_values.tolist() == whole.bulk_values.tolist()


def test_windowed_chain_reports_the_global_swallow_step(monkeypatch):
    """A bulk point at 0.5i is swallowed at step 62 of a zero-driven
    forward chain; evolved in 7-step windows, the chain reports the same
    message, naming the step, as one evolve call."""
    state = initial_state("forward", bulk=(0.5j,))
    with pytest.raises(Swallowed) as whole:
        evolve(state, DrivingPath(1e-3, np.zeros(301)))
    monkeypatch.setattr(sampler, "STEP_BLOCK", 7)
    with pytest.raises(Swallowed) as windows:
        cli._evolve_windows(state, 0.0, 300, 1e-3,
                            lambda a, b: np.zeros(b - a))
    assert str(whole.value).endswith("step 62")
    assert str(windows.value) == str(whole.value)
