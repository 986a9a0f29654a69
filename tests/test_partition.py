"""Tests for product partition functions and their differential identities."""

import numpy as np
import pytest

from slelab.commutation import (arctan_sum, commutation_experiment,
                                commutator_residual)
from slelab.core import ConfigError, validate_config
from slelab.coupling import (CouplingSpec, coupling_martingale_check,
                             coupling_pde_residual, cross_variation_experiment)
from slelab.partition import (
    PartitionSpec,
    bpz_operator,
    bpz_residual,
    fd_first,
    fd_second,
    kz_residual,
    log_z_cols,
    min_gap,
)
from slelab.sampler import girsanov_check, martingale_check


def test_h_kappa_values():
    np.testing.assert_allclose(PartitionSpec("backward", 6.0, 2).h_weight, -1.0,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(PartitionSpec("backward", 2.0, 2).h_weight, -2.0,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(PartitionSpec("forward", 8.0 / 3.0, 2).h_weight,
                               0.625, rtol=1e-14)


def test_spec_derived_fields():
    s = PartitionSpec("backward", 4.0, 2)
    np.testing.assert_allclose(s.exponent, -0.5)
    np.testing.assert_allclose(s.h_weight, -1.25)


def test_spec_given_exponent():
    """A given exponent replaces the derived one and leaves h alone; it
    must be finite."""
    s = PartitionSpec("backward", 4.0, 2, exponent=0.0)
    assert (s.exponent, s.h_weight) == (0.0, -1.25)
    assert s.grad_log_z(np.array([0.0, 1.0]), 0) == 0.0
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError):
            PartitionSpec("forward", 2.0, 2, exponent=bad)


def test_spec_refuses_kappa_whose_double_overflows():
    """h = (-+6 - kappa)/(2 kappa) read -0.0 once 2 kappa overflowed,
    above about 9e307; such a kappa is refused, a smaller one keeps h."""
    for mode in ("backward", "forward"):
        np.testing.assert_allclose(PartitionSpec(mode, 8e307, 2).h_weight,
                                   -0.5, rtol=1e-15)
        with pytest.raises(ConfigError, match="2 kappa"):
            PartitionSpec(mode, 1e308, 2)


def test_z_value_examples():
    np.testing.assert_allclose(
        PartitionSpec("backward", 2.0, 3).z((0, 1, 3)),
        1.0 / 6.0, rtol=1e-14)
    np.testing.assert_allclose(
        PartitionSpec("backward", 4.0, 2).z((0, 1)),
        1.0, rtol=1e-14)
    np.testing.assert_allclose(
        PartitionSpec("forward", 2.0, 2).z((0, 2)),
        2.0, rtol=1e-14)


def test_z_value_translation_invariant():
    spec = PartitionSpec("backward", 4.0, 3)
    a = spec.z((0, 1, 3))
    b = spec.z((7, 8, 10))
    assert a == b  # gaps are identical floats, no tolerance needed


def test_z_value_homogeneous():
    spec = PartitionSpec("backward", 4.0, 3)
    lam = 2.0
    a = spec.z((0, 2, 6))
    # Z has degree exponent * N(N-1)/2 = 3 * exponent for N = 3
    b = lam**(spec.exponent * 3) * spec.z((0, 1, 3))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_z_value_permutation_invariant():
    spec = PartitionSpec("forward", 6.0, 3)
    a = spec.z((0, 1, 3))
    b = spec.z((3, 0, 1))
    np.testing.assert_allclose(a, b, rtol=1e-14)


@pytest.mark.parametrize("n_points", [5, 6])
def test_z_sums_as_the_kernel_rows(n_points):
    """Z of one configuration is the exp of the kernel's log Z of a row of
    it, bit for bit: the stopping bound and log M_0 share one summation
    order (from 8 pairs on, np.sum of a vector adds in another)."""
    rng = np.random.default_rng(2026)
    for _ in range(100):
        x = np.sort(rng.uniform(-3.0, 3.0, n_points))
        spec = PartitionSpec(rng.choice(["backward", "forward"]),
                             float(rng.choice([1.0, 2.0, 8 / 3, 4.0, 6.0, 8.0])),
                             n_points)
        row = log_z_cols(spec.exponent, x[None, :])[0]
        assert spec.z(x) == np.exp(row)


def test_grad_log_z_first_point():
    spec = PartitionSpec("backward", 4.0, 2)
    g = spec.grad_log_z((0, 1), 0)
    np.testing.assert_allclose(g, 0.5, rtol=1e-14)
    np.testing.assert_allclose(spec.kappa * g, 2.0, rtol=1e-14)


def test_grad_log_z_middle_point_drift():
    """kappa * grad log Z = -2 sum 1/(x_i - x_l), independent of kappa."""
    cfg = validate_config((0, 1, 3))
    for kappa in (2.0, 4.0, 6.0):
        spec = PartitionSpec("backward", kappa, 3)
        np.testing.assert_allclose(
            kappa * spec.grad_log_z(cfg.as_array(), 1), -1.0, rtol=1e-14)


def test_grad_log_z_antisymmetric_pair():
    cfg = validate_config((-1.5, 1.5))
    spec = PartitionSpec("forward", 3.0, 2)
    g0 = spec.grad_log_z(cfg.as_array(), 0)
    g1 = spec.grad_log_z(cfg.as_array(), 1)
    np.testing.assert_allclose(g0, -g1, rtol=1e-14)


def test_grad_log_z_matches_fd():
    spec = PartitionSpec("backward", 4.0, 3)
    cfg = validate_config((0.0, 1.0, 3.0))
    x = cfg.as_array()
    logz = lambda y: np.log(spec.z(y))
    for i in range(3):
        fd = fd_first(logz, x, i, 1e-6)
        np.testing.assert_allclose(spec.grad_log_z(x, i), fd, rtol=0,
                                   atol=1e-8)


def test_fd_stencils_on_polynomial():
    f = lambda y: float(y[0] ** 3 + 2 * y[1])
    x = np.array([1.5, -0.5])
    np.testing.assert_allclose(fd_first(f, x, 0, 1e-5), 3 * 1.5**2, rtol=1e-8)
    np.testing.assert_allclose(fd_first(f, x, 1, 1e-5), 2.0, rtol=1e-8)
    np.testing.assert_allclose(fd_second(f, x, 0, 1e-4), 6 * 1.5, rtol=1e-6)


def test_bpz_residual_backward():
    spec = PartitionSpec("backward", 4.0, 3)
    assert bpz_residual(spec, validate_config((0, 1, 3)), 0, 1e-4) < 1e-5


def test_bpz_residual_forward():
    spec = PartitionSpec("forward", 2.0, 2)
    assert bpz_residual(spec, validate_config((0, 1)), 1, 1e-4) < 1e-5


def test_bpz_residual_all_indices_all_kappas():
    cfg = validate_config((0, 1, 3))
    for mode in ("backward", "forward"):
        for kappa in (2.0, 8.0 / 3.0, 4.0, 6.0):
            spec = PartitionSpec(mode, kappa, 3)
            for i in range(3):
                assert bpz_residual(spec, cfg, i, 1e-4) < 1e-5


def test_bpz_wrong_exponent_control():
    """A product with exponent -3/kappa must not satisfy the equation: the
    Z of backward kappa = 8/3 has the exponent -3/4."""
    spec = PartitionSpec("backward", 4.0, 2)
    acc, z0 = bpz_operator(spec, PartitionSpec("backward", 8.0 / 3.0, 2).z,
                           np.array([0.0, 1.0]), 0, 1e-4)
    assert abs(acc) / abs(z0) > 0.1


def test_bpz_step_too_large():
    spec = PartitionSpec("backward", 4.0, 2)
    with pytest.raises(ConfigError, match="tenth of the length scale"):
        bpz_residual(spec, validate_config((0, 1)), 0, 0.2)


def test_bpz_residual_truncation_order():
    """In the truncation-dominated range the residual drops >= 4x per halving."""
    spec = PartitionSpec("backward", 4.0, 3)
    cfg = validate_config((0, 1, 3))
    r_coarse = bpz_residual(spec, cfg, 0, 0.04)
    r_fine = bpz_residual(spec, cfg, 0, 0.02)
    assert r_coarse / r_fine > 3.5


def test_kz_residual_backward():
    spec = PartitionSpec("backward", 4.0, 2)
    assert kz_residual(spec, validate_config((0, 1)), 0, 1e-5) < 1e-8


def test_kz_residual_forward():
    spec = PartitionSpec("forward", 6.0, 4)
    assert kz_residual(spec, validate_config((0, 1, 2, 5)), 2) < 1e-7


def test_kz_residual_symmetric_pair():
    spec = PartitionSpec("backward", 4.0, 2)
    cfg = validate_config((-1, 1))
    total = kz_residual(spec, cfg, 0) + kz_residual(spec, cfg, 1)
    assert total < 1e-8


def test_min_gap():
    assert min_gap(validate_config((0, 1, 3))) == 1.0
    assert min_gap(validate_config((5, -2))) == 7.0


# a three-point flow next to a two-point configuration, at every entry
# point that takes both
SPEC3 = PartitionSpec("backward", 4.0, 3)
CS3 = CouplingSpec(SPEC3, gamma=2.0)
CFG2 = validate_config((0.0, 1.0))
BULK = [1 + 2j, -1 + 2j]
MISMATCHED = {
    "bpz_residual": lambda: bpz_residual(SPEC3, CFG2, 0),
    "kz_residual": lambda: kz_residual(SPEC3, CFG2, 0),
    "commutator_residual": lambda: commutator_residual(SPEC3, arctan_sum,
                                                       CFG2, 0, 1),
    "commutation_experiment": lambda: commutation_experiment(
        SPEC3, CFG2, 0, 1, 0.01, 2.0, 1e-3, 10),
    "martingale_check": lambda: martingale_check(SPEC3, CFG2, 0, 0.01, 1e-3,
                                                 100),
    "girsanov_check": lambda: girsanov_check(SPEC3, CFG2, 0, None, 0.01,
                                             1e-3, 100),
    "coupling_pde_residual": lambda: coupling_pde_residual(CS3, 1 + 2j, CFG2,
                                                           0),
    "coupling_martingale_check": lambda: coupling_martingale_check(
        CS3, CFG2, 0, BULK, 0.01, 1e-3, 10),
    "cross_variation_experiment": lambda: cross_variation_experiment(
        CS3, CFG2, 0, BULK, 0.01, 1e-3, 10),
}


@pytest.mark.parametrize("entry", sorted(MISMATCHED))
def test_point_count_mismatch_is_refused(entry):
    with pytest.raises(ValueError, match="spec is for 3 points"):
        MISMATCHED[entry]()


# The second root of the two-point BPZ equation for Z = |x_1 - x_2|**a,
# (kappa/2) a^2 - (kappa/2 -+ 2) a + 2h = 0: besides the derived exponent,
# a2 = 1 + 6/kappa backward and (kappa - 6)/kappa forward.  Its flows
# commute at N = 2, but the coupling keeps the derived root only, and at
# N = 3 the product form solves the system with the derived root alone.
def _second_root(mode, kappa, n_points):
    a2 = 1.0 + 6.0 / kappa if mode == "backward" else (kappa - 6.0) / kappa
    return PartitionSpec(mode, kappa, n_points, exponent=a2)


SECOND_ROOT_N2 = [("backward", 2.0), ("backward", 4.0), ("backward", 6.0),
                  ("forward", 2.0), ("forward", 8.0 / 3.0), ("forward", 6.0)]


@pytest.mark.parametrize("mode, kappa", SECOND_ROOT_N2)
def test_second_root_solves_bpz_and_commutes_at_two_points(mode, kappa):
    spec = _second_root(mode, kappa, 2)
    assert max(bpz_residual(spec, CFG2, i) for i in (0, 1)) <= 1e-5
    assert commutator_residual(spec, arctan_sum, CFG2, 0, 1) <= 1e-4


@pytest.mark.parametrize("mode, kappa", SECOND_ROOT_N2)
def test_coupling_keeps_one_root(mode, kappa):
    def residuals(spec):
        gamma = np.sqrt(kappa) if mode == "backward" else None
        return [coupling_pde_residual(CouplingSpec(spec, gamma=gamma),
                                      0.5 + 1j, CFG2, i) for i in (0, 1)]

    assert min(residuals(_second_root(mode, kappa, 2))) > 1.0
    assert max(residuals(PartitionSpec(mode, kappa, 2))) <= 1e-4


# forward kappa 6 is left out: there a2 = 0 and h = 0, so Z = 1 solves
# the system at every N
@pytest.mark.parametrize("mode, kappa", SECOND_ROOT_N2[:-1])
def test_second_root_fails_bpz_at_three_points(mode, kappa):
    spec = _second_root(mode, kappa, 3)
    cfg = validate_config((0.0, 1.0, 2.5))
    assert max(bpz_residual(spec, cfg, i) for i in range(3)) >= 100 * 1e-5


@pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0])
def test_second_root_weight_is_a_martingale(kappa):
    rep = martingale_check(_second_root("backward", kappa, 2), CFG2, 0, 0.1,
                           1e-3, 4000, seed=0)
    assert rep.passed, rep
    control = martingale_check(PartitionSpec("backward", kappa, 2,
                                             exponent=0.5),
                               CFG2, 0, 0.1, 1e-3, 4000, seed=0)
    assert not control.passed, control


@pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0])
def test_second_root_is_a_girsanov_transform(kappa):
    rep = girsanov_check(_second_root("backward", kappa, 2), CFG2, 0, None,
                         0.1, 1e-3, 4000, seed=0)
    assert rep.passed, rep
    control = girsanov_check(PartitionSpec("backward", kappa, 2,
                                           exponent=0.5),
                             CFG2, 0, None, 0.1, 1e-3, 4000, seed=0)
    assert not control.passed, control
