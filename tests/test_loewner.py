"""Tests for the slit-map substeps and the chain evolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab.core import (ConfigError, NumericalFailure, build_driving_path,
                         normal_block)
from slelab.loewner import (
    Swallowed,
    evolve,
    extract_hcap,
    initial_state,
    reference_map_zero_driving,
    slit_complex,
    slit_real,
    sqrt_him,
)

SQRT5 = np.sqrt(5.0)


def zero_path(n_steps, dt, w0=0.0):
    return build_driving_path(4.0, w0, np.zeros(n_steps), dt)


def test_sqrt_him_branch():
    assert sqrt_him(-4.0) == 2j
    assert sqrt_him(4.0) == 2 + 0j
    np.testing.assert_allclose(sqrt_him(2j), 1 + 1j, rtol=0, atol=1e-15)
    # branch stays in the closed upper half plane
    for z in (-1 - 0.01j + 0j, 3 + 2j, -5 + 0.3j):
        assert complex(sqrt_him(z * z)).imag >= 0 or z.imag < 0


def test_substep_backward_real():
    new, mult, bad = slit_real(np.array([3.0]), 0.0, 1.0, "backward")
    np.testing.assert_allclose(new, [SQRT5], rtol=0, atol=1e-12)
    # deriv multiplier w0 / w_delta
    np.testing.assert_allclose(mult, [3.0 / SQRT5], rtol=0, atol=1e-12)
    assert not bad.any()


def test_substep_backward_complex():
    new, _, bad = slit_complex(np.array([1j]), 0.0, 1.0, "backward")
    np.testing.assert_allclose(new, [SQRT5 * 1j], rtol=0, atol=1e-12)
    assert not bad.any()


def test_substep_backward_swallows_real():
    """A swallowed point is flagged; its value is left to the caller."""
    _, _, bad = slit_real(np.array([0.1, 3.0]), 0.0, 1.0, "backward")
    np.testing.assert_array_equal(bad, [True, False])


def test_substep_backward_boundary_case():
    # gap^2 == 4 delta sits on the swallowed side
    _, _, bad = slit_real(np.array([2.0, -2.0]), 0.0, 1.0, "backward")
    np.testing.assert_array_equal(bad, [True, True])


def test_substep_forward_complex():
    new, _, bad = slit_complex(np.array([3j]), 0.0, 1.0, "forward")
    np.testing.assert_allclose(new, [SQRT5 * 1j], rtol=0, atol=1e-12)
    assert not bad.any()


def test_substep_forward_real():
    new, mult, bad = slit_real(np.array([1.0]), 0.0, 1.0, "forward")
    np.testing.assert_allclose(new, [SQRT5], rtol=0, atol=1e-12)
    np.testing.assert_allclose(mult, [1.0 / SQRT5], rtol=0, atol=1e-12)
    assert not bad.any()


def test_substep_forward_flags_absorbed_bulk():
    """w=i is absorbed at t=1/4 < 1: flagged, value and derivative kept."""
    new, mult, bad = slit_complex(np.array([1j, 3j]), 0.0, 1.0, "forward")
    np.testing.assert_array_equal(bad, [True, False])
    assert new[0] == 1j and mult[0] == 1.0


def test_substep_deriv_chains():
    """Multipliers of two substeps compose to the multiplier of their
    composition (chain rule), since capacities add."""
    x = np.array([3.0, -1.7])
    for mode in ("backward", "forward"):
        one, m_one, _ = slit_real(x, 0.2, 0.5, mode)
        half, m1, _ = slit_real(x, 0.2, 0.25, mode)
        two, m2, _ = slit_real(half, 0.2, 0.25, mode)
        np.testing.assert_allclose(two, one, rtol=1e-14)
        np.testing.assert_allclose(m1 * m2, m_one, rtol=1e-14)


def test_substep_shift_covariance():
    """Shifting w and U0 together shifts the image and keeps the deriv."""
    a, ma, _ = slit_real(np.array([3.0]), 0.0, 1.0, "backward")
    b, mb, _ = slit_real(np.array([4.5]), 1.5, 1.0, "backward")
    np.testing.assert_allclose(b - 1.5, a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mb, ma, rtol=0, atol=1e-12)
    za, mza, _ = slit_complex(np.array([0.4 + 0.7j]), 0.0, 0.1, "forward")
    zb, mzb, _ = slit_complex(np.array([1.9 + 0.7j]), 1.5, 0.1, "forward")
    np.testing.assert_allclose(zb - 1.5, za, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mzb, mza, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(("backward", "forward")), k=st.integers(-30, 30),
       seed=st.integers(0, 2**32 - 1))
def test_substep_scale_covariance(mode, k, seed):
    """Scaling x and U0 by lambda = 2**k and delta by lambda**2 scales
    every image by lambda bit for bit, and keeps every multiplier and
    swallow mask: powers of two scale each operation of a substep
    exactly."""
    rng = np.random.default_rng(seed)
    lam = 2.0**k
    u0, delta = rng.uniform(-3.0, 3.0), rng.uniform(1e-4, 1.0)
    x = rng.uniform(-3.0, 3.0, 64)
    z = rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(1e-3, 3.0, 64)
    # straight above U0 the forward map swallows points below 2 sqrt(delta)
    z[:4] = u0 + 1j * rng.uniform(1e-3, 3.0, 4)
    for slit, w in ((slit_real, x), (slit_complex, z)):
        new, mult, bad = slit(w, u0, delta, mode)
        new_s, mult_s, bad_s = slit(lam * w, lam * u0, lam * lam * delta, mode)
        np.testing.assert_array_equal(new_s, lam * new)
        np.testing.assert_array_equal(mult_s, mult)
        np.testing.assert_array_equal(bad_s, bad)


def _clear_points(seed, u0, delta):
    """64 real and 64 bulk points that no substep of size delta at u0
    swallows, none within rounding of the swallow set: real gaps of at
    least 2.2 sqrt(delta), bulk points at least 0.01 off the vertical
    line above u0."""
    rng = np.random.default_rng(seed)
    side = rng.choice([-1.0, 1.0], 64)
    x = u0 + side * 2.0 * np.sqrt(delta) * rng.uniform(1.1, 10.0, 64)
    z = u0 + side * rng.uniform(0.01, 3.0, 64) + 1j * rng.uniform(1e-3, 3.0, 64)
    return x, z


SUBSTEP = dict(mode=st.sampled_from(("backward", "forward")),
               u0=st.floats(-3.0, 3.0), delta=st.floats(1e-4, 1.0),
               seed=st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(shift=st.floats(-10.0, 10.0), **SUBSTEP)
def test_substep_shift_covariance_property(mode, u0, delta, seed, shift):
    """Shifting the points and U0 by s shifts every image by s and keeps
    every multiplier, to within the rounding of the shifted gaps."""
    for slit, w in zip((slit_real, slit_complex), _clear_points(seed, u0, delta)):
        new, mult, bad = slit(w, u0, delta, mode)
        new_s, mult_s, bad_s = slit(w + shift, u0 + shift, delta, mode)
        assert not bad.any() and not bad_s.any()
        np.testing.assert_allclose(new_s - shift, new, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mult_s, mult, rtol=1e-11)


@settings(max_examples=100, deadline=None)
@given(**SUBSTEP)
def test_substep_moves_im_z_monotonically(mode, u0, delta, seed):
    """A backward substep raises Im z of every bulk point, a forward one
    lowers it."""
    z = _clear_points(seed, u0, delta)[1]
    new = slit_complex(z, u0, delta, mode)[0]
    if mode == "backward":
        assert (new.imag > z.imag).all()
    else:
        assert (new.imag < z.imag).all()


@settings(max_examples=100, deadline=None)
@given(**SUBSTEP)
def test_substep_semigroup_property(mode, u0, delta, seed):
    """Two half substeps at the same U0 are one full substep, and their
    multipliers compose, to within rounding."""
    for slit, w in zip((slit_real, slit_complex), _clear_points(seed, u0, delta)):
        one, m_one, _ = slit(w, u0, delta, mode)
        half, m1, _ = slit(w, u0, delta / 2, mode)
        two, m2, _ = slit(half, u0, delta / 2, mode)
        np.testing.assert_allclose(two, one, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m1 * m2, m_one, rtol=1e-11)


def test_evolve_zero_driving_bulk():
    st = initial_state("backward", bulk=(1 + 1j,))
    out = evolve(st, zero_path(25, 0.01))
    np.testing.assert_allclose(out.bulk_values[0], 0.78615 + 1.27202j,
                               rtol=0, atol=1e-5)
    ref = reference_map_zero_driving(1 + 1j, 0.25, "backward")
    np.testing.assert_allclose(out.bulk_values[0], ref, rtol=0, atol=1e-10)


def test_evolve_zero_steps_identity():
    st = initial_state("forward", bulk=(1j,))
    out = evolve(st, zero_path(0, 0.01))
    np.testing.assert_array_equal(out.bulk_values, st.bulk_values)


def test_evolve_matches_reference_grid():
    """Zero driving agrees with the closed form in both modes."""
    zs = [0.5 + 0.5j, -1 + 2j, 3 + 0.25j, 2j]
    for mode, T in (("backward", 0.3), ("forward", 0.04)):
        st = initial_state(mode, bulk=tuple(zs))
        out = evolve(st, zero_path(int(round(T / 1e-3)), 1e-3))
        for k, z in enumerate(zs):
            ref = reference_map_zero_driving(z, T, mode)
            np.testing.assert_allclose(out.bulk_values[k], ref, rtol=0, atol=1e-10)


def test_evolve_semigroup_constant_driving():
    """Substeps are exact maps, so splitting a constant leg changes nothing."""
    st = initial_state("backward", bulk=(0.4 + 0.7j,))
    one = evolve(st, zero_path(1, 0.1, w0=0.25))
    half = zero_path(1, 0.05, w0=0.25)
    two = evolve(evolve(st, half), half)
    np.testing.assert_allclose(one.bulk_values, two.bulk_values,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(one.bulk_derivs, two.bulk_derivs,
                               rtol=0, atol=1e-12)


def test_evolve_deriv_against_finite_difference():
    h = 1e-6
    z = 0.8 + 1.1j
    inc = np.sqrt(1e-3) * normal_block(2, 0, 1, 200)[0]
    path = build_driving_path(4.0, 0.0, inc, 1e-3)
    st = initial_state("backward", bulk=(z, z + h))
    out = evolve(st, path)
    fd = (out.bulk_values[1] - out.bulk_values[0]) / h
    np.testing.assert_allclose(out.bulk_derivs[0], fd, rtol=1e-5, atol=0)


def test_evolve_backward_im_nondecreasing():
    st = initial_state("backward", bulk=(0.3 + 0.4j,))
    ims = [st.bulk_values[0].imag]
    for k in range(60):
        inc = np.sqrt(1e-3) * normal_block(4, 1, 1, 60)[0]
        st = evolve(st, build_driving_path(4.0, 0.0, inc[k:k + 1], 1e-3))
        ims.append(st.bulk_values[0].imag)
    assert all(b >= a for a, b in zip(ims, ims[1:]))


def test_evolve_swallows_forward_bulk():
    # absorbed at t = 0.1**2 / 4, inside the first substep
    with pytest.raises(Swallowed, match="during step 0$"):
        evolve(initial_state("forward", bulk=(0.1j,)), zero_path(100, 0.01))


def test_initial_state_rejects_bad_mode():
    with pytest.raises(ValueError):
        initial_state("sideways")


def test_hcap_backward():
    R = 1e4
    st = initial_state("backward", bulk=(1j * R, 2j * R))
    out = evolve(st, zero_path(50, 0.01))
    np.testing.assert_allclose(extract_hcap("backward", *out.bulk_values, R),
                               1.0, rtol=0, atol=1e-5)


def test_hcap_time_zero():
    R = 1e4
    st = initial_state("backward", bulk=(1j * R, 2j * R))
    assert extract_hcap("backward", *st.bulk_values, R) == 0.0


def test_hcap_forward():
    R = 1e4
    st = initial_state("forward", bulk=(1j * R, 2j * R))
    out = evolve(st, zero_path(100, 0.01))
    np.testing.assert_allclose(extract_hcap("forward", *out.bulk_values, R),
                               2.0, rtol=0, atol=1e-5)


def test_hcap_independent_of_driving():
    """hcap(K_t) = 2t whatever the driver does."""
    R = 1e4
    T, dt = 0.2, 1e-3
    inc = np.sqrt(dt) * normal_block(13, 2, 1, int(T / dt))[0]
    path = build_driving_path(6.0, 0.0, inc, dt)
    st = initial_state("backward", bulk=(1j * R, 2j * R))
    out = evolve(st, path)
    np.testing.assert_allclose(extract_hcap("backward", *out.bulk_values, R),
                               2 * T, rtol=0, atol=1e-5)


def test_hcap_probe_too_close():
    r = 1.5
    st = initial_state("backward", bulk=(1j * r, 2j * r))
    out = evolve(st, zero_path(50, 0.01))
    with pytest.raises(NumericalFailure, match="varies by"):
        extract_hcap("backward", *out.bulk_values, r)


def test_reference_map_examples():
    np.testing.assert_allclose(reference_map_zero_driving(3j, 1.0, "forward"),
                               SQRT5 * 1j, rtol=0, atol=1e-12)
    np.testing.assert_allclose(reference_map_zero_driving(1j, 1.0, "backward"),
                               SQRT5 * 1j, rtol=0, atol=1e-12)
    for mode in ("backward", "forward"):
        np.testing.assert_allclose(reference_map_zero_driving(0.7 + 0.2j, 0.0, mode),
                                   0.7 + 0.2j, rtol=0, atol=1e-15)


def test_reference_map_swallowed():
    # the closed form takes interior points only
    with pytest.raises(ConfigError):
        reference_map_zero_driving(1.0, 1.0, "backward")
    with pytest.raises(Swallowed):
        reference_map_zero_driving(1j, 1.0, "forward")
