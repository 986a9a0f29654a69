"""Tests for scheme planning, generators, and the commutation experiment."""

import numpy as np
import pytest

from slelab import commutation
from slelab.commutation import (
    _generator_value,
    _run_legs,
    _scheme_chunk,
    arctan_sum,
    commutation_experiment,
    commutator_residual,
    plan_schemes,
)
from slelab.core import ConfigError, validate_config
from slelab.partition import PartitionSpec
from slelab.sampler import chunked

CFG = validate_config((0.0, 1.0))
SPEC = PartitionSpec("backward", 4.0, 2)


def _first_legs(i, j, eps_tilde, c):
    """(eps, eps_prime): the first-leg times of scheme 1 and scheme 2."""
    ((_, eps), _), ((_, eps_prime), _) = plan_schemes("backward", CFG, i, j,
                                                      eps_tilde, c)
    return eps, eps_prime


def test_plan_schemes_legs():
    legs1, legs2 = plan_schemes("backward", CFG, 0, 1, 0.01, 2.0)
    assert [slot for slot, _ in legs1] == [0, 1]
    assert [slot for slot, _ in legs2] == [1, 0]
    assert (legs1[1][1], legs2[1][1]) == (0.01, 2.0 * 0.01)


def test_plan_schemes_symmetric_budget():
    eps, eps_prime = _first_legs(0, 1, 0.01, 1.0)
    np.testing.assert_allclose(eps, 0.0096, rtol=1e-14)
    np.testing.assert_allclose(eps_prime, 0.0096, rtol=1e-14)


def test_plan_schemes_asymmetric_budget():
    eps, eps_prime = _first_legs(0, 1, 0.01, 2.0)
    np.testing.assert_allclose(eps, 0.0192, rtol=1e-14)
    np.testing.assert_allclose(eps_prime, 0.0092, rtol=1e-14)


def test_plan_schemes_zero_budget():
    eps, eps_prime = _first_legs(0, 1, 0.0, 1.0)
    assert eps == 0.0 and eps_prime == 0.0


def test_plan_schemes_epsilon_too_large():
    with pytest.raises(ConfigError, match="must stay below the squared gap"):
        plan_schemes("backward", CFG, 0, 1, 0.3, 1.0)


def test_plan_schemes_role_swap_symmetry():
    """Swapping (i,j) with c -> 1/c and eps_tilde -> c*eps_tilde exchanges
    the two corrected leg times."""
    a_eps, a_eps_prime = _first_legs(0, 1, 0.01, 2.0)
    b_eps, b_eps_prime = _first_legs(1, 0, 0.02, 0.5)
    np.testing.assert_allclose(a_eps, b_eps_prime, rtol=1e-14)
    np.testing.assert_allclose(a_eps_prime, b_eps, rtol=1e-14)


def _apply_generator(phi):
    """(L_0 phi) at CFG with the default single-level step, 1e-4 times
    the gap."""
    return _generator_value(SPEC, phi, CFG.as_array(), 0, 1e-4, None)


def test_apply_generator_constant():
    assert _apply_generator(lambda x: 1.0) == 0.0


def test_apply_generator_drift_term():
    got = _apply_generator(lambda x: float(x[0]))
    np.testing.assert_allclose(got, 2.0, rtol=0, atol=1e-8)


def test_apply_generator_transport_term():
    got = _apply_generator(lambda x: float(x[1]))
    np.testing.assert_allclose(got, -2.0, rtol=0, atol=1e-8)


def test_commutator_residual_product_drifts():
    phi = lambda x: float(x[0] * x[1])
    assert commutator_residual(SPEC, phi, CFG, 0, 1, 1e-3) < 1e-4


def test_commutator_residual_zero_drift_control():
    phi = lambda x: float(x[0] * x[1])
    res = commutator_residual(SPEC, phi, CFG, 0, 1, 1e-3,
                              drift_fn=lambda x, k: 0.0)
    assert res > 0.1


def test_commutator_residual_constant_phi():
    assert commutator_residual(SPEC, lambda x: 1.0, CFG, 0, 1, 1e-3) == 0.0


def test_commutator_residual_sweep():
    phi = lambda x: float(np.sin(x).sum())
    for mode in ("backward", "forward"):
        for kappa in (2.0, 4.0, 6.0):
            for pts in ((0.0, 1.0), (0.0, 1.0, 3.0)):
                spec = PartitionSpec(mode, kappa, len(pts))
                cfg = validate_config(pts)
                assert commutator_residual(spec, phi, cfg, 0, 1) < 1e-4


def test_arctan_sum_default_observable():
    np.testing.assert_allclose(arctan_sum(np.array([[0.0, 1.0]])),
                               [np.pi / 4], rtol=1e-14)


def _final_noiseless(legs, dt, drifted, spec=SPEC, cfg=CFG):
    """Final configuration of one path of a scheme with every normal zero:
    both legs reduce to pure companion slit flows."""
    flow, _ = _run_legs(legs, dt, spec, cfg.as_array()[None, :],
                        lambda n_steps, first_step: np.zeros((1, n_steps)),
                        drifted)
    assert flow.active.all()
    return flow.x[0]


def test_run_scheme_deterministic_drifted_flows_commute():
    """With noise off and the drift kept, the corrected leg times make the
    two orderings agree up to the O(dt) integrator error."""
    legs1, legs2 = plan_schemes("backward", CFG, 0, 1, 0.01, 2.0)
    diffs = []
    for dt in (1e-4, 1e-5):
        x1 = _final_noiseless(legs1, dt, drifted=True)
        x2 = _final_noiseless(legs2, dt, drifted=True)
        diffs.append(np.abs(x1 - x2).max())
    assert diffs[0] < 1e-6
    assert diffs[1] < diffs[0] / 5.0  # first-order in dt


@pytest.mark.parametrize("mode, kappa", [("backward", 4.0),
                                         ("forward", 2.0)])
def test_planned_leg_times_cancel_the_flows_commutator(mode, kappa):
    """At three points, with noise off and the drift kept, the two orders
    planned with the flow's sign differ at third order in eps_tilde: at
    most 1e-4 at 0.01, and at least 6x less at 0.005.  Planned with the
    backward sign, forward schemes differed by 1.4e-3 at 0.01, only 3.8x
    less at 0.005."""
    cfg = validate_config((0.0, 1.0, 3.0))
    spec = PartitionSpec(mode, kappa, 3)
    diffs = []
    for eps_tilde in (0.01, 0.005):
        x1, x2 = (_final_noiseless(legs, 1e-5, True, spec, cfg)
                  for legs in plan_schemes(mode, cfg, 0, 1, eps_tilde, 2.0))
        diffs.append(np.abs(x1 - x2).max())
    assert diffs[0] <= 1e-4
    assert diffs[1] * 6.0 <= diffs[0]


def test_run_scheme_zero_drift_breaks_commutation():
    """Dropping the drift violates the commutation identity; the residual
    is dt-independent and far above the drifted case."""
    legs1, legs2 = plan_schemes("backward", CFG, 0, 1, 0.01, 1.0)
    vals = []
    for dt in (1e-4, 1e-5):
        x1 = _final_noiseless(legs1, dt, drifted=False)
        x2 = _final_noiseless(legs2, dt, drifted=False)
        vals.append(np.abs(x1 - x2).max())
    assert vals[0] > 1e-3
    np.testing.assert_allclose(vals[0], vals[1], rtol=1e-3)


def test_run_scheme_repeatable():
    legs1, _ = plan_schemes("backward", CFG, 0, 1, 0.01, 2.0)
    task, = chunked([{"legs": legs1, "spec": SPEC,
                      "points": tuple(CFG.points), "dt": 1e-4, "seed": 3}],
                    50)
    task = dict(task, first_path=7)
    assert _scheme_chunk(task) == _scheme_chunk(task)


def test_scheme_tile_with_every_path_swallowed_draws_no_further_window(
        monkeypatch):
    """Scheme 2 at (0, 1, 1.001) first drives slot 1, whose companion at
    gap 0.001 is swallowed at step 0 on every row: of the 92 + 200 steps,
    two windows of 146, the tile draws only the first, as
    commutation.normal_block sees it.  The chunk counts that window, and
    its other sums are those of a one-step run, bit for bit."""
    cfg = validate_config((0.0, 1.0, 1.001))
    spec = PartitionSpec("backward", 4.0, 3)
    _, legs2 = plan_schemes("backward", cfg, 0, 1, 0.01, 2.0)
    drawn = []
    draw = commutation.normal_block

    def counting(*args):
        out = draw(*args)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(commutation, "normal_block", counting)
    task, = chunked([{"legs": legs2, "spec": spec, "points": cfg.points,
                      "dt": 1e-4, "seed": 0}], 20)
    out = _scheme_chunk(task)
    assert drawn == [(20, 146)]
    assert (out.pop("path_steps"), out.pop("draws")) == (20 * 146, 20 * 146)
    assert (out["n"], out["n_discarded"]) == (0, 20)
    one = _scheme_chunk(dict(task, legs=((1, 1e-4),)))
    del one["path_steps"], one["draws"]
    assert out == one


def test_forward_scheme_keeps_its_near_misses():
    """Forward legs stop only where the slit map swallows, which it never
    does forward: at gap 0.1 with kappa 6, eps_tilde 0.001 and dt 1e-4 both
    schemes keep all 100 rows, where a stop at gap^2 <= 4 * dt in both
    modes froze and discarded 12 and 23 of them."""
    cfg = validate_config((0.0, 0.1))
    spec = PartitionSpec("forward", 6.0, 2)
    for legs in plan_schemes("forward", cfg, 0, 1, 0.001, 2.0):
        task, = chunked([{"legs": legs, "spec": spec, "points": cfg.points,
                          "dt": 1e-4, "seed": 0}], 100)
        out = _scheme_chunk(task)
        assert (out["n"], out["n_discarded"]) == (100, 0)
        assert all(np.isfinite(v) for v in out.values())


def test_commutation_experiment_small():
    reports = commutation_experiment(SPEC, CFG, 0, 1, 0.02, 1.0,
                                     1e-4, 2000, seed=0)
    names = [r.name for r in reports]
    assert names == ["scheme_diff_x_0", "scheme_diff_x_1", "scheme_diff_phi"]
    for r in reports:
        assert r.passed, r


def test_commutation_experiment_seed_consistency():
    a = commutation_experiment(SPEC, CFG, 0, 1, 0.005, 1.0,
                               1e-4, 2000, seed=0)
    b = commutation_experiment(SPEC, CFG, 0, 1, 0.005, 1.0,
                               1e-4, 2000, seed=1)
    for ra, rb in zip(a, b):
        assert np.isfinite(ra.estimate) and np.isfinite(rb.estimate)
        # independent seeds agree within combined tolerances
        assert abs(ra.estimate - rb.estimate) < ra.tolerance + rb.tolerance


def test_commutation_experiment_worker_invariance():
    a = commutation_experiment(SPEC, CFG, 0, 1, 0.01, 2.0,
                               1e-4, 1000, seed=2)
    b = commutation_experiment(SPEC, CFG, 0, 1, 0.01, 2.0,
                               1e-4, 1000, seed=2, n_workers=2)
    for ra, rb in zip(a, b):
        assert ra.estimate == rb.estimate
        assert ra.reference == rb.reference
