"""Tests for path sampling, weights, and the measure-equality checks."""

import json
import math
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import commutation, coupling, sampler
from slelab.core import ConfigError, normal_block, validate_config
from slelab.loewner import slit_real
from slelab.partition import PartitionSpec
from slelab.sampler import (
    MAX_PATHS,
    REASON_BOUND,
    REASON_SWALLOWED,
    girsanov_check,
    horizon,
    inverse_law_check,
    martingale_check,
    run_leg,
    step_sizes,
    step_windows,
)

CFG2 = validate_config((0.0, 1.0))
SPEC_BACK = PartitionSpec("backward", 4.0, 2)


def test_step_sizes_remainder():
    np.testing.assert_allclose(step_sizes(0.1, 0.03), [0.03, 0.03, 0.03, 0.01])
    np.testing.assert_allclose(step_sizes(0.09, 0.03), [0.03, 0.03, 0.03])
    np.testing.assert_allclose(step_sizes(0.01, 0.03), [0.01])
    assert step_sizes(0.1, 1e-3).sum() == pytest.approx(0.1, rel=1e-12)


def _leg_drift(mode, kappa, pts, slot, delta=1e-2):
    """Driver displacement over delta of one noise-free drifted substep:
    the SDE drift b = sqrt(kappa) * s that run_leg applies."""
    spec = PartitionSpec(mode, kappa, len(pts))
    res = run_leg(mode, kappa, spec.exponent, spec.h_weight, np.array([pts]),
                  slot, np.zeros((1, 1)), np.array([delta]), drifted=True,
                  collision_guard=2.0)
    return (res.x[0, slot] - pts[slot]) / delta


def test_drift_s_examples():
    """s = b / sqrt(kappa) = sqrt(kappa) d(log Z)/dx_i: +1 backward and -1
    forward at (0, 1), 0 for a single point."""
    np.testing.assert_allclose(_leg_drift("backward", 4.0, (0.0, 1.0), 0) / 2.0,
                               1.0, rtol=1e-14)
    np.testing.assert_allclose(_leg_drift("forward", 4.0, (0.0, 1.0), 0) / 2.0,
                               -1.0, rtol=1e-14)
    assert _leg_drift("backward", 4.0, (0.0,), 0) == 0.0
    cfg = validate_config((0.0, 1.0, 3.0))
    for i in range(3):
        np.testing.assert_allclose(
            _leg_drift("backward", 2.0, cfg.points, i),
            2.0 * PartitionSpec("backward", 2.0, 3).grad_log_z(cfg.points, i),
            rtol=1e-12)


def test_drift_s_kappa_free_combination():
    """sqrt(kappa) * s is the same -2 sum 1/(x_i-x_l) for every kappa."""
    vals = [_leg_drift("backward", k, (0.0, 1.0, 3.0), 1) for k in (2.0, 4.0, 6.0)]
    np.testing.assert_allclose(vals, -1.0, rtol=1e-12)


def test_run_leg_deterministic_single_step():
    """Zero noise, no drift: companion moves by the exact slit map (the
    derivative is tracked by weighted calls only)."""
    x = np.array([[0.0, 1.0]])
    res = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 1)), np.array([0.01]),
                  drifted=False, track_weight=True, collision_guard=2.0)
    np.testing.assert_allclose(res.x[0, 1], np.sqrt(0.96), rtol=1e-14)
    np.testing.assert_allclose(res.derivs[0, 1], 1.0 / np.sqrt(0.96), rtol=1e-14)
    assert res.active[0]


def test_run_leg_substep_semigroup():
    x = np.array([[0.0, 1.0]])
    one = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 1)), np.array([0.01]),
                  drifted=False, collision_guard=2.0)
    two = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 2)), np.array([0.005, 0.005]),
                  drifted=False, collision_guard=2.0)
    np.testing.assert_allclose(one.x, two.x, rtol=0, atol=1e-14)


def test_run_leg_flow_continues_in_place():
    """The same steps in one call, or split over two calls that pass the
    Flow along, give bit-identical rows; a row stopped in the first call
    is not written by the second, and the start array is never written."""
    spec = PartitionSpec("backward", 4.0, 2)
    args = ("backward", 4.0, spec.exponent, spec.h_weight)
    x0 = np.tile([0.0, 0.3], (2000, 1))
    normals = normal_block(0, 0, 2000, 200)
    deltas = np.full(200, 1e-4)
    whole = run_leg(*args, x0, 0, normals, deltas, drifted=True)
    first = run_leg(*args, x0, 0, normals[:, :80], deltas[:80], drifted=True)
    stopped = ~first.active
    frozen_x = first.x[stopped].copy()
    frozen_reason = first.reason[stopped].copy()
    second = run_leg(*args, first, 0, normals[:, 80:], deltas[80:],
                     drifted=True)
    assert second is first
    # guard 12 stops rows in both calls and leaves some running
    assert 0 < stopped.sum() < (~second.active).sum() < 2000
    np.testing.assert_array_equal(second.x, whole.x)
    np.testing.assert_array_equal(second.active, whole.active)
    np.testing.assert_array_equal(second.reason, whole.reason)
    np.testing.assert_array_equal(second.x[stopped], frozen_x)
    np.testing.assert_array_equal(second.reason[stopped], frozen_reason)
    np.testing.assert_array_equal(x0, np.tile([0.0, 0.3], (2000, 1)))


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(("backward", "forward")),
       n_points=st.integers(1, 4), weighted=st.booleans(),
       drifted=st.booleans(), guard=st.sampled_from((2.0, 12.0)),
       delta=st.floats(1e-6, 1e-2), data=st.data())
def test_run_leg_substep_is_the_slit_map(mode, n_points, weighted, drifted,
                                         guard, delta, data):
    """One substep moves every row that stays active to exactly
    slit_real's value and multiplier, stops exactly the active rows whose
    smallest gap entered the layer, and writes no stopped row."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    slot = data.draw(st.integers(0, n_points - 1))
    n = 40
    spec = PartitionSpec(mode, 4.0, n_points)
    args = (mode, spec.kappa, spec.exponent, spec.h_weight)
    # points spread over a few layer widths, so some rows start in it
    x0 = rng.uniform(-1.0, 1.0, (n, n_points)) * 30.0 * np.sqrt(delta)
    flow = run_leg(*args, x0, slot, np.zeros((n, 0)), np.zeros(0),
                   drifted=drifted, track_weight=weighted)
    stopped = rng.random(n) < 0.3
    flow.active[stopped] = False
    flow.reason[stopped] = REASON_BOUND
    if weighted:
        flow.derivs[:] = rng.uniform(0.5, 2.0, flow.derivs.shape)
        flow.log_m[:] = rng.standard_normal(n)
    before = {f: getattr(flow, f).copy()
              for f in ("x", "derivs", "active", "reason", "log_m")
              if getattr(flow, f) is not None}
    run_leg(*args, flow, slot, rng.standard_normal((n, 1)),
            np.array([delta]), drifted=drifted, track_weight=weighted,
            collision_guard=guard)

    u0 = before["x"][:, slot]
    others = [c for c in range(n_points) if c != slot]
    gap2 = np.array([(before["x"][:, c] - u0) ** 2 for c in others])
    entered = (gap2 <= guard**2 * delta).any(axis=0) & before["active"]
    np.testing.assert_array_equal(flow.active, before["active"] & ~entered)
    np.testing.assert_array_equal(flow.reason[entered], REASON_SWALLOWED)
    moved = flow.active
    for c in others:
        new, mult, _ = slit_real(before["x"][:, c], u0, delta, mode)
        np.testing.assert_array_equal(flow.x[moved, c], new[moved])
        if weighted:
            np.testing.assert_array_equal(flow.derivs[moved, c],
                                          before["derivs"][moved, c]
                                          * mult[moved])
    for field, old in before.items():
        if field not in ("active", "reason"):
            np.testing.assert_array_equal(getattr(flow, field)[~moved],
                                          old[~moved])
    np.testing.assert_array_equal(flow.reason[stopped], REASON_BOUND)


def test_flow_columns_contiguous():
    """A Flow holds each point's column of all paths contiguously, fresh or
    continued, and the start array's memory order changes no bit."""
    spec = PartitionSpec("backward", 4.0, 3)
    args = ("backward", 4.0, spec.exponent, spec.h_weight)
    start = np.tile([0.0, 1.0, 3.0], (500, 1))
    normals = normal_block(0, 0, 500, 60)
    deltas = np.full(60, 1e-3)
    kw = dict(drifted=True, track_weight=True, log_bound=np.log(5.0))
    flows = []
    for x0 in (start, np.asfortranarray(start)):
        fresh = run_leg(*args, x0, 1, normals[:, :20], deltas[:20], **kw)
        assert fresh.x.flags.f_contiguous and fresh.derivs.flags.f_contiguous
        flows.append(run_leg(*args, fresh, 1, normals[:, 20:], deltas[20:],
                             **kw))
        assert flows[-1].x.flags.f_contiguous
        assert flows[-1].derivs.flags.f_contiguous
    c_flow, f_flow = flows
    assert 0 < (~c_flow.active).sum() < 500
    for field in ("x", "derivs", "active", "reason", "log_m"):
        a, b = getattr(c_flow, field), getattr(f_flow, field)
        assert a.tobytes(order="C") == b.tobytes(order="C"), field


def test_martingale_mean_weight():
    r = martingale_check(SPEC_BACK, CFG2, 0, 0.1, 1e-3, 4000, seed=0)
    assert r.reference == 1.0
    assert r.passed
    assert abs(r.estimate - 1.0) <= 3 * r.std_error


def test_martingale_across_kappas():
    for kappa, pts in ((2.0, (0.0, 1.0)), (6.0, (0.0, 1.0, 3.0))):
        n = len(pts)
        r = martingale_check(PartitionSpec("backward", kappa, n),
                             validate_config(pts), 0, 0.05, 1e-3, 2000, seed=1)
        assert r.passed, r


def test_martingale_worker_count_does_not_change_results():
    a = martingale_check(SPEC_BACK, CFG2, 0, 0.05, 1e-3, 1500, seed=0)
    b = martingale_check(SPEC_BACK, CFG2, 0, 0.05, 1e-3, 1500, seed=0,
                         n_workers=3)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error


def test_martingale_stopped_immediately_is_exact():
    """Paths frozen at once keep M = M_0, so the mean is exactly one."""
    tight = validate_config((0.0, 0.02))
    r = martingale_check(SPEC_BACK, tight, 0, 0.1, 1e-3, 200, seed=0)
    assert r.estimate == 1.0
    assert r.std_error == 0.0


def test_girsanov_default_observable():
    r = girsanov_check(SPEC_BACK, CFG2, 0, None, 0.05, 1e-3, 4000, seed=1)
    assert r.passed
    assert abs(r.estimate - r.reference) <= r.tolerance


def test_girsanov_early_stopping_bound():
    """bound_n = 0.5 * M_0 stops every path at the first step; equality
    must survive optional stopping."""
    r = girsanov_check(SPEC_BACK, CFG2, 0, None, 0.05, 1e-3, 500,
                       bound_n=0.5, seed=1)
    assert r.passed
    assert abs(r.estimate - r.reference) <= 3 * max(r.std_error, 1e-300)


def test_girsanov_companion_default_and_explicit():
    """The observable is the terminal position of companion j: by default
    the first index other than i, else the j given."""
    cfg3 = validate_config((0.0, 1.0, 3.0))
    spec3 = PartitionSpec("backward", 4.0, 3)
    args = (0.01, 1e-3, 300)
    for i, default in ((0, 1), (1, 0), (2, 0)):
        assert (girsanov_check(spec3, cfg3, i, None, *args, seed=2)
                == girsanov_check(spec3, cfg3, i, default, *args, seed=2))
    rows = {j: girsanov_check(spec3, cfg3, 1, j, *args, seed=2)
            for j in (0, 2)}
    # the drifted arm's mean is the mean terminal position of point j,
    # which moves about 2 * T / gap = 0.02 from its start
    assert abs(rows[0].reference - 0.0) < 0.1
    assert abs(rows[2].reference - 3.0) < 0.1


@pytest.mark.parametrize("j", [0, 2, -1])
def test_girsanov_refuses_bad_companion(j):
    """A companion equal to the driver or outside the points is refused
    before any path runs."""
    with pytest.raises(IndexError, match=f"companion index {j} invalid"):
        girsanov_check(SPEC_BACK, CFG2, 0, j, 0.01, 1e-3, 10)


def test_inverse_law_check():
    reports = inverse_law_check(2.0, 2j, 0.1, 1e-3, 4000, seed=0)
    names = {r.name for r in reports}
    assert {"inverse_mean_real", "inverse_mean_imag"} <= names
    for r in reports:
        assert r.passed, r


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inverse_variance_standard_error(seed):
    """The imaginary part's variance (about 1.3e-10 around a mean near
    2.005) gets a positive SE below the variance itself."""
    reports = inverse_law_check(4.0, 2j, 0.005, 1e-3, 20_001, seed=seed)
    row = next(r for r in reports if r.name == "inverse_var_imag")
    assert 0.0 < row.std_error < row.estimate
    assert row.passed


def test_inverse_law_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        inverse_law_check(2.0, 2j, 0.0, 1e-3, 10, seed=0)


def test_inverse_law_rejects_lower_half_plane_start():
    with pytest.raises(ValueError):
        inverse_law_check(2.0, 1.0 - 1j, 0.1, 1e-3, 10, seed=0)


def test_inverse_law_rejects_ragged_grid():
    # time reversal needs a uniform grid
    with pytest.raises(ConfigError, match="multiple of dt"):
        inverse_law_check(2.0, 2j, 0.1, 0.03, 10, seed=0)


@pytest.mark.parametrize("run", [
    lambda n: martingale_check(SPEC_BACK, CFG2, 0, 0.01, 1e-3, n),
    lambda n: girsanov_check(SPEC_BACK, CFG2, 0, None, 0.01, 1e-3, n),
    lambda n: inverse_law_check(4.0, 2j, 0.01, 1e-3, n),
], ids=["martingale", "girsanov", "inverse"])
def test_more_paths_than_a_run_may_have_are_refused(run):
    """The path count is refused before one task per chunk is built, so a
    huge count costs no memory."""
    with pytest.raises(ConfigError, match="paths are more than"):
        run(MAX_PATHS + 1)


def _whole_horizon_sizes(T, dt):
    """Every substep size of the horizon as one array: dt each, plus one
    shorter remainder step; each window's sizes must be its slices."""
    n_full = int(math.floor(T / dt + 1e-9))
    out = np.full(n_full, dt)
    if T - n_full * dt > 1e-6 * dt:
        out = np.append(out, T - n_full * dt)
    return out


@pytest.mark.parametrize("T, dt", [
    (0.1, 0.03), (0.09, 0.03), (0.01, 0.03), (0.05, 1e-3), (0.0505, 1e-3),
    (0.0192, 1e-4), (1.0, 1.0 / 3.0), (2.5, 1.0),
], ids=["ragged", "exact", "one-short-step", "exact-50", "ragged-51",
        "ragged-192", "thirds", "ragged-2.5"])
@pytest.mark.parametrize("block", [1, 7, 256])
def test_window_step_sizes_are_the_whole_horizon_slices(T, dt, block,
                                                          monkeypatch):
    """Each window's substep sizes are bit for bit the slice of the whole
    horizon's sizes, for ragged and exact horizons alike."""
    whole = _whole_horizon_sizes(T, dt)
    assert horizon(T, dt) == (whole.size, whole[-1])
    monkeypatch.setattr(sampler, "STEP_BLOCK", block)
    for a, b in step_windows(whole.size):
        assert step_sizes(T, dt, a, b).tobytes() == whole[a:b].tobytes()
    assert step_sizes(T, dt).tobytes() == whole.tobytes()


CFG3 = validate_config((0.0, 1.0, 3.0))
CS_BACK = coupling.CouplingSpec(SPEC_BACK, gamma=2.0)
# (module whose map_chunks the check calls, the check, substeps per path):
# a horizon of 10.5 substeps is 11; scheme 1 runs legs of 19.2 -> 20 and
# 10 substeps, scheme 2 legs of 9.2 -> 10 and 20
ENSEMBLE_CHECKS = {
    "martingale": (sampler, lambda: martingale_check(
        SPEC_BACK, CFG2, 0, 0.0105, 1e-3, 30, seed=1), 11),
    "girsanov": (sampler, lambda: girsanov_check(
        PartitionSpec("backward", 4.0, 3), CFG3, 1, 2, 0.0105, 1e-3, 30,
        seed=1), 11),
    "schemes": (commutation, lambda: commutation.commutation_experiment(
        SPEC_BACK, CFG2, 0, 1, 0.01, 2.0, 1e-3, 30, seed=1), 30),
    "inverse": (sampler, lambda: inverse_law_check(
        4.0, 2j, 0.01, 1e-3, 30, seed=1), 10),
    "coupling": (coupling, lambda: coupling.cross_variation_experiment(
        CS_BACK, CFG2, 0, [1 + 2j, -1 + 2j], 0.0105, 1e-3, 30, seed=1), 11),
}


def _chunk_calls(check, monkeypatch):
    """(chunk function, task list) of the one map_chunks call the check
    makes, run in this process."""
    module, run, _ = ENSEMBLE_CHECKS[check]
    calls = []

    def recording(fn, tasks, n_workers=1):
        calls.append((fn, list(tasks)))
        return [fn(t) for t in tasks]

    monkeypatch.setattr(module, "map_chunks", recording)
    run()
    (fn, tasks), = calls
    return fn, tasks


@pytest.mark.parametrize("check", sorted(ENSEMBLE_CHECKS))
def test_chunk_tasks_are_plain_data(check, monkeypatch):
    """A task holds no callable, so it and the chunk function pickle into
    the process pool that map_chunks starts for more than one worker."""
    fn, tasks = _chunk_calls(check, monkeypatch)
    for task in tasks:
        assert not [k for k, v in task.items() if callable(v)], task
    assert pickle.loads(pickle.dumps(tasks)) == tasks
    assert pickle.loads(pickle.dumps(fn)) is fn


@pytest.mark.parametrize("check", sorted(ENSEMBLE_CHECKS))
def test_chunk_work_counts(check, monkeypatch):
    """Each chunk returns its path-steps, count x substeps, and the normals
    it drew, as a counting wrapper on its module's normal_block sees them;
    sum_stats adds both up.  4-step windows make several draws a tile."""
    fn, tasks = _chunk_calls(check, monkeypatch)
    substeps = ENSEMBLE_CHECKS[check][2]
    module = sys.modules[fn.__module__]
    monkeypatch.setattr(sampler, "STEP_BLOCK", 4)
    drawn = []
    draw = module.normal_block

    def counting(*args):
        out = draw(*args)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(module, "normal_block", counting)
    parts = []
    for task in tasks:
        drawn.clear()
        parts.append(fn(task))
        assert len(drawn) >= 3
        assert parts[-1]["path_steps"] == task["count"] * substeps
        assert parts[-1]["draws"] == sum(drawn) == task["count"] * substeps
    total = sampler.sum_stats(parts)
    assert total["draws"] == total["path_steps"] == 30 * len(tasks) * substeps


HUGE_HORIZON = {"kappa": 4.0, "points": [0.0, 1.0], "t_final": 1e9,
                "dt": 1.0, "n_paths": 1, "n_workers": 1}


def _still_running_after_2s(argv) -> None:
    """Run `python argv` under a 1.5 GB address-space limit and assert it
    has not ended after 2 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    # one BLAS thread: per-thread buffers must not eat the address space
    env = dict(os.environ, SLELAB_WORKERS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (
                   src, os.environ.get("PYTHONPATH")))))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_536_000_000,) * 2)

    proc = subprocess.Popen(
        [sys.executable, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=limit)
    try:
        time.sleep(2.0)
        running = proc.poll() is None
    finally:
        proc.kill()
        _, err = proc.communicate()
    assert running, err.decode()


@pytest.mark.parametrize("fields", [
    {"check": "martingale"},
    {"check": "crossvar", "gamma": 2.0, "bulk_points": [[1.0, 2.0],
                                                        [-1.0, 2.0]]},
], ids=["martingale", "crossvar"])
def test_huge_horizon_allocates_no_array_of_it(fields, tmp_path):
    """10^9 substeps under a 1.5 GB address-space limit: a check that
    built every substep size (8 GB) failed to allocate within a second;
    one that builds a window's sizes at a time is still running after 2 s."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dict(HUGE_HORIZON, **fields,
                                      out_path=str(tmp_path / "r"))))
    _still_running_after_2s(["-m", "slelab.cli", "check", str(config)])


def test_green_increment_check_huge_horizon_allocates_no_array_of_it():
    """The same 10^9 substeps through coupling.green_increment_check, a
    one-path loop that built all its normals and sizes (7.45 GiB) and
    died within 0.2 s; one step window at a time, it keeps running."""
    _still_running_after_2s([
        "-c", "from slelab.coupling import green_increment_check; "
        "green_increment_check('backward', 4.0, 1+2j, -1+2j, 1e9, 1.0)"])
