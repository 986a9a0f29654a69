"""Deterministic Loewner machinery.

Chains are integrated as compositions of exact slit maps over
piecewise-constant driving (zipper-style discretization), never by Euler
steps on the ODE: each substep is exact, so half-plane capacity accumulates
as exactly 2*dt per step and there is no stiffness at the driving point.

Substep closed forms, with d = w - U0 and step capacity 2*delta:

    backward:  w  ->  U0 + sqrt(d**2 - 4*delta)
    forward:   w  ->  U0 + sqrt(d**2 + 4*delta)

with the square-root branch of nonnegative imaginary part for complex w and
the sign of d for real w (copysign, so d = +-0 picks a prime end); both
maps multiply an incoming derivative by d / (new - U0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (BACKWARD, FORWARD, DrivingPath, NumericalFailure,
                   _check_mode, require_bulk)

DEFAULT_PROBE_RADIUS = 1e4


class Swallowed(NumericalFailure):
    """A tracked point was absorbed by the hull; the message names the point
    and, from a chain, the step."""


def sqrt_him(q):
    """Square root with branch Im >= 0 (array-safe)."""
    q = np.asarray(q, dtype=complex)
    s = np.sqrt(q, out=np.empty_like(q))     # an array, also for 0-d q
    np.negative(s, out=s, where=s.imag < 0)
    return s


def slit_shift(mode: str) -> float:
    """-4 backward, +4 forward: the slit root is sqrt(d**2 + shift * delta),
    and a real gap d is swallowed where d**2 + shift * delta <= 0."""
    return -4.0 if mode == BACKWARD else 4.0


# Vectorized substeps for path-ensemble engines.  No exceptions: swallowed
# entries are reported through the mask and left to the caller.

def slit_gap(d, d2, U0, delta, mode: str):
    """(new_x, multiplier) of the real substep from the gap d = x - U0 and
    its square d2 = d * d, which becomes new_x: U0 + copysign(root, d) with
    root = sqrt(d2 + slit_shift * delta), so the forward base d = +-0 goes
    to the prime end U0 +- 2 * sqrt(delta) with multiplier 0.  A swallowed
    entry gets NaN or inf, which the caller masks under its np.errstate."""
    d2 += slit_shift(mode) * delta
    root = np.sqrt(d2, out=d2)
    mult = np.abs(d)
    mult /= root
    new = np.copysign(root, d, out=root)
    new += U0
    return new, mult


def slit_real(x, U0, delta, mode: str):
    """(new_x, multiplier, swallowed) for arrays of real boundary points;
    swallowed entries hold NaN or inf, which the caller masks."""
    d = x - U0
    d2 = d * d
    # d2 + shift * delta <= 0, exact under gradual underflow; never forward
    bad = d2 <= -slit_shift(mode) * delta
    with np.errstate(invalid="ignore", divide="ignore"):
        new, mult = slit_gap(d, d2, U0, delta, mode)
    return new, mult, bad


def slit_complex(z, U0, delta, mode: str):
    """(new_z, multiplier, swallowed) for arrays of interior points;
    swallowed entries hold whatever the map gives, which the caller drops."""
    d = z - U0
    s = sqrt_him(d * d + slit_shift(mode) * delta)
    new = s + U0
    # the backward map swallows no interior point
    bad = (np.zeros(new.shape, dtype=bool) if mode == BACKWARD
           else s.imag <= 0.0)
    # a forward point at the slit tip has s = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return new, np.divide(d, s, out=d), bad


@dataclass(frozen=True)
class ChainState:
    """Snapshot of a chain: images and derivatives of the tracked interior
    points."""

    mode: str
    bulk_values: np.ndarray
    bulk_derivs: np.ndarray


def initial_state(mode: str, bulk=()) -> ChainState:
    """Time-zero state tracking the given interior points."""
    _check_mode(mode)
    bk = np.asarray(list(bulk), dtype=complex)
    require_bulk(bk)
    return ChainState(mode=mode, bulk_values=bk, bulk_derivs=np.ones_like(bk))


def evolve(state: ChainState, path: DrivingPath,
           first_step: int = 0) -> ChainState:
    """Apply one exact substep per path step, of the path's size for it
    (driving frozen at the step start).  Raises Swallowed, naming the step
    (counted from `first_step`, the index of the path's first step in a
    longer chain), when a tracked point is absorbed."""
    bk = state.bulk_values
    bkd = state.bulk_derivs
    sizes = np.broadcast_to(path.dt, len(path.values) - 1).tolist()

    for step, (U0, delta) in enumerate(zip(path.values[:-1], sizes),
                                       start=first_step):
        new, mult, bad = slit_complex(bk, U0, delta, state.mode)
        if bad.any():
            raise Swallowed(
                f"bulk point {int(np.argmax(bad))} absorbed during step {step}")
        bk, bkd = new, bkd * mult

    return replace(state, bulk_values=bk, bulk_derivs=bkd)


def extract_hcap(mode: str, f_r: complex, f_2r: complex,
                 probe_radius: float = DEFAULT_PROBE_RADIUS) -> float:
    """Capacity read off the hydrodynamic expansion, from the images f_r of
    z = i*probe_radius and f_2r of 2i*probe_radius under the chain's map.

    Uses Re(z*(f(z) - z)): at a purely imaginary probe the real part kills
    the (real) first subleading coefficient, leaving errors O(radius**-2).
    The same quantity at 2i*probe_radius must agree within 1% or the probe
    is declared too close to the hull.
    """
    z1, z2 = 1j * probe_radius, 2j * probe_radius
    m1 = abs(f_r - z1) * abs(z1)
    m2 = abs(f_2r - z2) * abs(z2)
    scale = max(abs(m1), abs(m2), 1e-300)
    if abs(m1 - m2) > 0.01 * scale:
        raise NumericalFailure(
            f"|f(z)-z|*|z| varies by {abs(m1 - m2) / scale:.2%} "
            f"between radius {probe_radius:g} and {2 * probe_radius:g}"
        )
    coef = (z1 * (f_r - z1)).real
    return -coef if mode == BACKWARD else coef


def reference_map_zero_driving(z, t: float, mode: str):
    """Closed form of the chain with zero driving at an interior point z:
    sqrt(z**2 -+ 4t), branch Im >= 0."""
    _check_mode(mode)
    if t < 0:
        raise ValueError("t must be nonnegative")
    zc = complex(z)
    require_bulk([zc])
    out = complex(sqrt_him(zc * zc + slit_shift(mode) * t))
    if mode == FORWARD and out.imag <= 0.0:
        raise Swallowed(f"point {z} swallowed by the forward flow at {t}")
    return out
