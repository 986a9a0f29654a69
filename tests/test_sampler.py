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
    np.testing.assert_allclose(step_sizes(0.1, 0.03, 0, 4),
                               [0.03, 0.03, 0.03, 0.01])
    np.testing.assert_allclose(step_sizes(0.09, 0.03, 0, 3), [0.03, 0.03, 0.03])
    np.testing.assert_allclose(step_sizes(0.01, 0.03, 0, 1), [0.01])
    assert step_sizes(0.1, 1e-3, 0, 100).sum() == pytest.approx(0.1, rel=1e-12)


def _leg_drift(mode, kappa, pts, slot, delta=1e-2):
    """Driver displacement over delta of one noise-free drifted substep:
    the SDE drift b = sqrt(kappa) * s that run_leg applies."""
    spec = PartitionSpec(mode, kappa, len(pts))
    res = run_leg(mode, kappa, spec.exponent, spec.h_weight, np.array([pts]),
                  slot, np.zeros((1, 1)), np.array([delta]), drifted=True)
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


def test_run_leg_deterministic_single_step(monkeypatch):
    """Zero noise, no drift: companion moves by the exact slit map (the
    derivative is tracked by weighted calls only).  At guard 12 the gap 1
    would sit inside the collision layer 144 * 0.01, so guard 2 it is."""
    monkeypatch.setattr(sampler, "COLLISION_GUARD", 2.0)
    x = np.array([[0.0, 1.0]])
    res = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 1)), np.array([0.01]),
                  drifted=False, track_weight=True)
    np.testing.assert_allclose(res.x[0, 1], np.sqrt(0.96), rtol=1e-14)
    np.testing.assert_allclose(res.derivs[0, 1], 1.0 / np.sqrt(0.96), rtol=1e-14)
    assert res.active[0]


def test_run_leg_substep_semigroup():
    x = np.array([[0.0, 1.0]])
    one = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 1)), np.array([0.01]), drifted=False)
    two = run_leg("backward", 4.0, -0.5, -1.25, x, 0,
                  np.zeros((1, 2)), np.array([0.005, 0.005]), drifted=False)
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
    slit_real's value and multiplier and writes no stopped row.  It stops
    exactly the active rows that one companion gap puts inside the stop
    layer: weighted, the collision layer gap^2 <= COLLISION_GUARD^2 *
    delta, in both modes; unweighted, slit_real's swallowed rows, so no
    forward row."""
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "COLLISION_GUARD", guard)
        run_leg(*args, flow, slot, rng.standard_normal((n, 1)),
                np.array([delta]), drifted=drifted, track_weight=weighted)

    u0 = before["x"][:, slot]
    others = [c for c in range(n_points) if c != slot]
    maps = [slit_real(before["x"][:, c], u0, delta, mode) for c in others]
    if weighted:
        inside = [(before["x"][:, c] - u0) ** 2 <= guard**2 * delta
                  for c in others]
    else:
        inside = [swallowed for _, _, swallowed in maps]
    entered = np.any(inside, axis=0) & before["active"]
    if mode == "forward" and not weighted:
        assert not entered.any()
    np.testing.assert_array_equal(flow.active, before["active"] & ~entered)
    np.testing.assert_array_equal(flow.reason[entered], REASON_SWALLOWED)
    moved = flow.active
    for c, (new, mult, _) in zip(others, maps):
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


@pytest.mark.parametrize("drifted", [False, True])
def test_forward_unweighted_leg_keeps_near_misses(drifted):
    """The forward slit map swallows no real point, so an unweighted
    forward leg started with every companion gap inside 2 * sqrt(delta)
    keeps every row active and moves each companion to slit_real's
    value."""
    delta = 1e-4
    n = 200
    spec = PartitionSpec("forward", 6.0, 3)
    gaps = np.random.default_rng(0).uniform(-2.0, 2.0, (n, 2))
    x0 = np.column_stack([gaps[:, 0], np.zeros(n), gaps[:, 1]])
    x0 *= np.sqrt(delta)
    flow = run_leg("forward", 6.0, spec.exponent, spec.h_weight, x0, 1,
                   np.zeros((n, 1)), np.array([delta]), drifted=drifted)
    assert flow.active.all()
    assert not flow.reason.any()
    for c in (0, 2):
        new, _, swallowed = slit_real(x0[:, c], 0.0, delta, "forward")
        assert not swallowed.any()
        np.testing.assert_array_equal(flow.x[:, c], new)


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


def test_inverse_law_rejects_misfit_at_tiny_dt():
    # 2.5 substeps of 1e-8: the last one is half of dt however small dt is
    with pytest.raises(ConfigError, match="multiple of dt"):
        inverse_law_check(2.0, 2j, 2.5e-8, 1e-8, 10, seed=0)


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
    assert step_sizes(T, dt, 0, whole.size).tobytes() == whole.tobytes()


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


def test_chunked_lays_out_each_arm_on_its_own_paths():
    """Arm k reads paths k * n_paths .. (k + 1) * n_paths - 1, in tasks of
    DEFAULT_CHUNK paths, arm by arm."""
    a, b = {"arm": "a"}, {"arm": "b"}
    tasks = sampler.chunked([a, b], 45_000)
    assert [(t["arm"], t["first_path"], t["count"]) for t in tasks] == [
        ("a", 0, 20_000), ("a", 20_000, 20_000), ("a", 40_000, 5_000),
        ("b", 45_000, 20_000), ("b", 65_000, 20_000), ("b", 85_000, 5_000)]
    assert a == {"arm": "a"} and b == {"arm": "b"}


def test_sum_stats_adds_each_arm_alone():
    """Two arms' totals are those of each arm's parts summed alone, in
    chunk order; arrays and -0.0 pass through unchanged."""
    parts = [{"n": 1, "s": 0.1, "v": np.array([1.0, -0.0]), "z": -0.0},
             {"n": 2, "s": 0.2, "v": np.array([2.0, -0.0]), "z": -0.0},
             {"n": 3, "s": 0.7, "v": np.array([-0.0, 3.0]), "z": -0.0},
             {"n": 4, "s": 1e16, "v": np.array([-0.0, 4.0]), "z": -0.0}]
    both = sampler.sum_stats(parts, 2)
    assert len(both) == 2
    for total, arm in zip(both, (parts[:2], parts[2:])):
        alone, = sampler.sum_stats(arm)
        assert total.keys() == alone.keys() == arm[0].keys()
        assert total["n"] == alone["n"] == arm[0]["n"] + arm[1]["n"]
        assert total["s"] == alone["s"] == arm[0]["s"] + arm[1]["s"]
        assert total["v"].tobytes() == alone["v"].tobytes() == (
            arm[0]["v"] + arm[1]["v"]).tobytes()
        assert math.copysign(1.0, total["z"]) == -1.0
    assert both[0]["v"].tobytes() == np.array([3.0, -0.0]).tobytes()
    one, = sampler.sum_stats(parts[:1])
    assert one["v"] is parts[0]["v"] and one["z"] is parts[0]["z"]


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
    """Each chunk returns the normals it drew, count x substeps, as a
    counting wrapper on its module's normal_block sees them; sum_stats adds
    them up.  4-step windows make several draws a tile."""
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
        assert parts[-1]["draws"] == sum(drawn) == task["count"] * substeps
    total, = sampler.sum_stats(parts)
    assert total["draws"] == 30 * len(tasks) * substeps


def test_ensemble_tile_with_every_path_stopped_draws_no_further_window(
        monkeypatch):
    """At gap 0.05 every path sits inside the guard-12 layer at step 0 of
    500, two windows of 250 steps: the tile ends there and draws only the
    first window, as sampler.normal_block sees it.  The chunk counts that
    window, and its other sums are those of a one-step run, bit for bit."""
    cfg = validate_config((0.0, 0.05))
    drawn = []
    draw = sampler.normal_block

    def counting(*args):
        out = draw(*args)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(sampler, "normal_block", counting)

    def chunk(T):
        task, = sampler.chunked([sampler._ensemble_task(
            SPEC_BACK, cfg, 0, T, 1e-3, 10.0, 0, j=None)], 30)
        return sampler._ensemble_chunk(task)

    out = chunk(0.5)
    assert drawn == [(30, 250)]
    assert out.pop("draws") == 30 * 250
    assert out["n_swallowed"] == 30
    one = chunk(1e-3)
    del one["draws"]
    assert out == one


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


# a companion at 1e6: at gap 1 it stops at step 0, and a tile whose paths
# have all stopped ends at once
@pytest.mark.parametrize("fields", [
    {"check": "martingale", "points": [0.0, 1e6]},
    {"check": "crossvar", "gamma": 2.0, "points": [0.0, 1e6],
     "bulk_points": [[1.0, 2.0], [-1.0, 2.0]]},
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
