"""Tests for the field-coupling checks: Green functions, boundary data,
the defining PDE, and the martingale/cross-variation experiments."""

import dataclasses

import numpy as np
import pytest

from slelab import coupling
from slelab.core import (ConfigError, build_driving_path, normal_block,
                         validate_config)
from slelab.coupling import (
    CouplingSpec,
    _h_run,
    boundary_u,
    coupling_martingale_check,
    coupling_pde_residual,
    cross_variation_experiment,
    forward_chi,
    green,
    green_increment_check,
    green_increment_coefficient,
    holo_u_tilde,
    q_charge,
)
from slelab.loewner import evolve, initial_state
from slelab.partition import PartitionSpec
from slelab.sampler import REASON_SWALLOWED

CFG = validate_config((0.0, 1.0))
SPEC_BACK = PartitionSpec("backward", 4.0, 2)
CS_BACK = CouplingSpec(SPEC_BACK, gamma=2.0)
CS_FWD = CouplingSpec(PartitionSpec("forward", 2.0, 2))


def test_green_neumann_examples():
    """Backward flows couple to the Neumann Green function."""
    np.testing.assert_allclose(green("backward", 1j, 2j), -np.log(3.0), rtol=1e-14)
    np.testing.assert_allclose(green("backward", 1j, 1 + 1j),
                               -np.log(np.sqrt(5.0)), rtol=1e-14)


def test_green_dirichlet_sign():
    """Forward flows couple to the Dirichlet Green function."""
    np.testing.assert_allclose(green("forward", 1j, 2j), np.log(3.0), rtol=1e-14)


def test_green_symmetric():
    for mode in ("backward", "forward"):
        assert green(mode, 0.3 + 1j, -2 + 0.5j) == green(mode, -2 + 0.5j, 0.3 + 1j)


def test_green_coincident_points():
    """green only evaluates: +inf at z == w.  The check refuses the pair."""
    with np.errstate(divide="ignore"):
        assert green("backward", 1j, 1j) == np.inf
    with pytest.raises(ConfigError, match="Green function singular"):
        green_increment_check("backward", 4.0, 1j, 1j, 0.01, 1e-3)


def test_green_refuses_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        green("neumann", 1j, 2j)


def test_green_dirichlet_positive():
    zs = [0.5j, 1 + 1j, -2 + 0.3j, 3 + 2j]
    for a in zs:
        for b in zs:
            if a != b:
                assert green("forward", a, b) > 0
                assert np.isfinite(green("backward", a, b))


def test_q_charge_dual_gamma():
    np.testing.assert_allclose(q_charge(2.0), 2.0, rtol=1e-14)
    np.testing.assert_allclose(q_charge(0.5), q_charge(8.0), rtol=1e-14)
    g = 1.3
    np.testing.assert_allclose(q_charge(g), q_charge(4.0 / g), rtol=1e-14)


def test_forward_chi():
    np.testing.assert_allclose(forward_chi(2.0),
                               2 / np.sqrt(2) - np.sqrt(2) / 2, rtol=1e-14)
    np.testing.assert_allclose(forward_chi(6.0),
                               np.sqrt(6) / 2 - 2 / np.sqrt(6), rtol=1e-14)
    with pytest.raises(ConfigError, match="degenerate at kappa = 4"):
        forward_chi(4.0)


def test_check_backward_relation():
    """A backward spec is built only at sqrt(kappa) = gamma or 4/gamma."""
    CouplingSpec(SPEC_BACK, gamma=2.0)       # sqrt(kappa) = gamma
    CouplingSpec(PartitionSpec("backward", 16.0, 2),
                 gamma=1.0)      # sqrt(kappa) = 4/gamma
    with pytest.raises(ConfigError, match="gamma or 4/gamma; got kappa=4.0, "
                                          "gamma=1.3"):
        CouplingSpec(SPEC_BACK, gamma=1.3)


def test_default_epsilon_signs():
    """The spec fills in the coupled signs; given ones are kept as given,
    because flipped signs are the control that must fail."""
    back3 = PartitionSpec("backward", 4.0, 3)
    assert CouplingSpec(back3, gamma=2.0).epsilon_signs == (-1, -1, -1)
    assert CouplingSpec(PartitionSpec("forward", 2.0, 3)).epsilon_signs \
        == (1, 1, 1)
    assert CouplingSpec(PartitionSpec("forward", 6.0, 3)).epsilon_signs \
        == (-1, -1, -1)
    flipped = CouplingSpec(back3, gamma=2.0, epsilon_signs=[1, -1, -1])
    assert flipped.epsilon_signs == (1, -1, -1)


def test_make_coupling_spec_requires_gamma_backward():
    with pytest.raises(ConfigError, match="backward coupling needs gamma"):
        CouplingSpec(SPEC_BACK)


def test_make_coupling_spec_refuses_gamma_forward():
    with pytest.raises(ConfigError, match="forward coupling takes no gamma"):
        CouplingSpec(PartitionSpec("forward", 2.0, 2), gamma=2.0)


def test_q_charge_follows_gamma():
    """Q is read from gamma, not stored next to it, so no spec can carry
    a charge that disagrees with its gamma."""
    assert not hasattr(CS_BACK, "q_charge")
    assert CS_BACK.curvature_constant == q_charge(2.0)
    assert CouplingSpec(PartitionSpec("backward", 16.0, 2),
                        gamma=1.0).curvature_constant == q_charge(1.0)
    with pytest.raises(ConfigError, match="gamma must be positive"):
        dataclasses.replace(CS_BACK, gamma=-2.0)


def test_forward_curvature_follows_kappa():
    """The forward curvature constant is forward_chi(kappa), set when the
    spec is built; no argument or field can give it another value."""
    assert CS_FWD.curvature_constant == forward_chi(2.0)
    six = dataclasses.replace(CS_FWD, pspec=PartitionSpec("forward", 6.0, 2))
    assert six.curvature_constant == forward_chi(6.0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(CS_FWD, curvature_constant=0.5)
    with pytest.raises(ConfigError, match="degenerate at kappa = 4"):
        CouplingSpec(PartitionSpec("forward", 4.0, 2))


def test_boundary_u_backward_examples():
    np.testing.assert_allclose(boundary_u("backward", 2j, [0.0], 4.0, (-1,)),
                               np.log(2.0), rtol=1e-14)
    assert boundary_u("backward", 1j, [0.0], 4.0, (-1,)) == 0.0


def test_boundary_u_forward_example():
    np.testing.assert_allclose(boundary_u("forward", 1j, [0.0], 2.0, (1,)),
                               -np.sqrt(2) * np.pi / 2, rtol=1e-14)


def test_holo_u_tilde_examples():
    ut = holo_u_tilde(2j, [0.0], 4.0, (-1,))
    np.testing.assert_allclose(ut, np.log(2.0) + 1j * np.pi / 2, rtol=1e-14)
    # backward boundary data is the real part
    np.testing.assert_allclose(ut.real, boundary_u("backward", 2j, [0.0], 4.0, (-1,)),
                               rtol=1e-14)
    # forward boundary data is the imaginary part
    utf = holo_u_tilde(1j, [0.0], 2.0, (1,))
    np.testing.assert_allclose(utf.imag, boundary_u("forward", 1j, [0.0], 2.0, (1,)),
                               rtol=1e-14)


def test_boundary_u_translation_scale_invariance():
    """u changes by a z-independent constant under translation and scaling."""
    pts = np.array([0.0, 1.0, 3.0])
    signs = (-1, -1, -1)
    zs = [0.5 + 0.8j, -1 + 2j, 2 + 0.3j, 4 + 1j]
    for op in (lambda z, x: (z + 1.7, x + 1.7), lambda z, x: (2.5 * z, 2.5 * x)):
        deltas = []
        for z in zs:
            z2, x2 = op(z, pts)
            deltas.append(boundary_u("backward", z2, x2, 4.0, signs)
                          - boundary_u("backward", z, pts, 4.0, signs))
        np.testing.assert_allclose(deltas, deltas[0], rtol=0, atol=1e-12)


def test_coupling_pde_residual_backward():
    assert coupling_pde_residual(CS_BACK, 1 + 2j, CFG, 0) < 1e-4


def test_coupling_pde_residual_forward():
    assert coupling_pde_residual(CS_FWD, 1 + 2j, CFG, 1) < 1e-4


def test_coupling_pde_residual_flipped_sign_control():
    bad = CouplingSpec(SPEC_BACK, gamma=2.0, epsilon_signs=(1, 1))
    assert coupling_pde_residual(bad, 1 + 2j, CFG, 0) > 1e-2


def test_coupling_pde_residual_converges():
    r_coarse = coupling_pde_residual(CS_BACK, 1 + 2j, CFG, 0, fd_step=0.02)
    r_fine = coupling_pde_residual(CS_BACK, 1 + 2j, CFG, 0, fd_step=0.01)
    assert r_coarse / r_fine > 3.5


def test_green_increment_coefficient_examples():
    assert green_increment_coefficient("backward", 1j, 2j, 0.0) == 0.0
    np.testing.assert_allclose(
        green_increment_coefficient("backward", 1 + 1j, 2 + 2j, 0.0), -0.5,
        rtol=1e-14)


def test_green_increment_identity_pathwise():
    """dG/dt matches the product of increment coefficients along a noisy
    flow in both modes."""
    assert green_increment_check("backward", 4.0, 1 + 2j, -1 + 2j,
                                 0.02, 1e-5, seed=0) < 1e-6
    assert green_increment_check("forward", 2.0, 1 + 2j, -1 + 2j,
                                 0.02, 1e-5, seed=0) < 1e-6


def _short_run(cspec, bulk, n_paths=3):
    return _h_run(cspec, CFG, 0, bulk, 0.05, 1e-3, 0, 0, n_paths)


@pytest.mark.parametrize("cspec", [CS_BACK, CS_FWD], ids=["backward", "forward"])
def test_simulate_h_process_initial_values(cspec):
    """h_0 is the boundary data at each bulk point, on every path."""
    bulk = [1 + 2j, -1 + 2j]
    run = _short_run(cspec, bulk)
    assert run["h0"].shape == (3, 2)
    for m, z in enumerate(bulk):
        np.testing.assert_allclose(
            run["h0"][:, m],
            boundary_u(cspec.mode, z, [0.0, 1.0], cspec.kappa,
                       cspec.epsilon_signs),
            rtol=1e-14)
    assert (run["reason"] == 0).all()
    assert run["accum"].shape == (3, 1)


def test_simulate_h_process_forward_bulk_swallowed():
    # a bulk point right above the driven slot dies almost immediately
    run = _short_run(CS_FWD, [0.02j], n_paths=1)
    assert run["reason"][0] == REASON_SWALLOWED
    # the frozen path keeps its starting field value, so it froze before
    # its first step
    np.testing.assert_array_equal(run["ht"], run["h0"])


def test_simulate_h_process_backward_companion_swallowed():
    """A companion at gap 0.05 has gap**2 = 0.0025 <= 4 dt, so the first
    substep swallows it on every path: each row freezes before its first
    step, and no NaN of the slit map's swallowed entries reaches a
    returned array."""
    cfg = validate_config((0.0, 0.05))
    run = _h_run(CS_BACK, cfg, 0, [0.5 + 1j, -0.5 + 1j], 0.05, 1e-3, 0, 0, 5)
    np.testing.assert_array_equal(run["reason"], REASON_SWALLOWED)
    np.testing.assert_array_equal(run["ht"], run["h0"])
    for name, values in run.items():
        assert np.isfinite(values).all(), name


def test_h_run_with_every_path_frozen_draws_no_further_window(monkeypatch):
    """At gap 0.05 every path is swallowed at step 0 of 500, two windows
    of 250 steps: the tile ends there and draws only the first window.
    The chunk counts the normals drawn, as coupling.normal_block sees
    them, and the run's arrays are those of a one-step run, bit for bit."""
    cfg = validate_config((0.0, 0.05))
    bulk = (0.5 + 1j, -0.5 + 1j)
    drawn = []
    draw = coupling.normal_block

    def counting(*args):
        out = draw(*args)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(coupling, "normal_block", counting)
    task = {"cspec": CS_BACK, "cfg": cfg, "i": 0, "bulk": bulk, "T": 0.5,
            "dt": 1e-3, "seed": 0, "first_path": 0, "count": 5}
    out = coupling._h_chunk(task)
    assert drawn == [(5, 250)]
    assert out["draws"] == 5 * 250
    run = _h_run(CS_BACK, cfg, 0, bulk, 0.5, 1e-3, 0, 0, 5)
    one = _h_run(CS_BACK, cfg, 0, bulk, 1e-3, 1e-3, 0, 0, 5)
    for key in ("h0", "ht", "accum", "g_drop", "reason"):
        assert run[key].tobytes() == one[key].tobytes(), key


def test_h_run_final_state_is_the_backward_chain():
    """With one marked point and no companion the flow is driftless: its
    final bulk images, derivatives and driver are those of the one-path
    backward chain on each path's own Brownian driving."""
    kappa, bulk, dt = 2.0, (2j, 0.3 + 1j), 1e-3
    cspec = CouplingSpec(PartitionSpec("backward", kappa, 1),
                         gamma=np.sqrt(kappa))
    run = _h_run(cspec, validate_config((0.0,)), 0, bulk, 0.05, dt, 4, 0, 3)
    for p in range(3):
        inc = np.sqrt(dt) * normal_block(4, p, 1, 50)[0]
        path = build_driving_path(kappa, 0.0, inc, dt)
        chain = evolve(initial_state("backward", bulk=bulk), path)
        np.testing.assert_allclose(run["zb"][p], chain.bulk_values,
                                   rtol=1e-12)
        np.testing.assert_allclose(run["db"][p], chain.bulk_derivs,
                                   rtol=1e-12)
        np.testing.assert_allclose(run["w"][p], path.values[-1], rtol=1e-12)


def test_simulate_h_process_rejects_boundary_bulk():
    with pytest.raises(ValueError):
        coupling_martingale_check(CS_BACK, CFG, 0, [0.5 + 0j], 0.05, 1e-3,
                                  10, seed=0)


def test_coupling_martingale_check():
    rep = coupling_martingale_check(CS_BACK, CFG, 0, [1 + 2j], 0.05, 1e-3,
                                    4000, seed=0)
    assert len(rep) == 1
    assert rep[0].passed
    assert abs(rep[0].estimate) <= 3 * rep[0].std_error


def test_coupling_martingale_check_forward():
    """The forward field is the imaginary part of the holomorphic sum."""
    rep = coupling_martingale_check(CS_FWD, CFG, 0, [-1 + 1j], 0.05, 1e-3,
                                    10_000, seed=0)
    assert rep[0].passed
    assert abs(rep[0].estimate) <= 3 * rep[0].std_error


def test_coupling_martingale_wrong_boundary_data_fails():
    bad = CouplingSpec(SPEC_BACK, gamma=2.0, epsilon_signs=(1, 1))
    rep = coupling_martingale_check(bad, CFG, 0, [1 + 2j], 0.05, 1e-3,
                                    4000, seed=0)
    assert not rep[0].passed


def test_coupling_martingale_far_field_tiny():
    rep = coupling_martingale_check(CS_BACK, CFG, 0, [100j], 0.05, 1e-3,
                                    1000, seed=0)
    assert abs(rep[0].estimate) < 1e-5
    assert rep[0].std_error < 1e-5


def test_cross_variation_experiment():
    rep = cross_variation_experiment(CS_BACK, CFG, 0, [1 + 2j, -1 + 2j],
                                     0.05, 1e-4, 200, seed=0)
    assert rep[0].name == "crossvar_pair_0_1"
    assert rep[0].passed


def test_cross_variation_experiment_forward():
    rep = cross_variation_experiment(CS_FWD, CFG, 0, [1 + 2j, -1 + 2j],
                                     0.05, 1e-4, 200, seed=0)
    assert rep[0].passed
