"""Product-form partition functions and finite-difference residuals.

The backward flow pairs with Z = prod |x_i - x_j|**(-2/kappa) and conformal
weight h = -(kappa+6)/(2*kappa); the forward flow flips both signs of the
story: Z = prod |x_i - x_j|**(+2/kappa), h = (6-kappa)/(2*kappa).

PartitionSpec is every flow's one source of drift, kappa * d(log Z)/dx_i:
it evaluates Z and d(log Z)/dx_i for every caller outside the ensemble
kernel, which sums log_z_cols over its rows.  Only product forms are built
here.  The exponent defaults to the derived one; a control sets another (0.0:
no drift), as does the second two-point BPZ root, 1 + 6/kappa backward and
(kappa - 6)/kappa forward, whose flows commute but fail the coupling.

All indices are 0-based.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (BACKWARD, ConfigError, PointConfig, _check_mode,
                   sum_columns)

LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class PartitionSpec:
    """Mode/kappa, the derived weight h and the exponent (2*(-+1)/kappa
    unless given), and the product partition function they define."""

    mode: str
    kappa: float
    n_points: int
    h_weight: float = field(init=False)
    exponent: float | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        sign = -1.0 if self.mode == BACKWARD else 1.0
        # h = -(kappa+6)/(2 kappa) backward, (6-kappa)/(2 kappa) forward
        twice = 2.0 * self.kappa     # inf above about 9e307: refused
        object.__setattr__(self, "h_weight", (6.0 * sign - self.kappa) / twice)
        if self.exponent is None:
            object.__setattr__(self, "exponent", 2.0 * sign / self.kappa)
        if not all(map(math.isfinite, (twice, self.h_weight, self.exponent))):
            raise ConfigError(f"2 kappa, h or the exponent {self.exponent!r} "
                              f"leaves the floats at kappa {self.kappa!r}")

    def z(self, x: np.ndarray) -> float:
        """Z = prod_{i<j} |x_i - x_j|**exponent at one configuration, via
        log space.  A Z that overflows or underflows (tiny kappa makes the
        exponent huge) raises ConfigError instead of turning a residual
        into nan."""
        log_z = log_z_cols(self.exponent, x)
        z = float(np.exp(log_z)) if log_z < LOG_FLOAT_MAX else math.inf
        if not 0.0 < z < math.inf:
            raise ConfigError(f"Z {'underflows' if z == 0.0 else 'overflows'}"
                              f" at kappa {self.kappa!r}")
        return z

    def grad_log_z(self, x: np.ndarray, i: int) -> np.ndarray:
        """d(log Z)/dx_i along the last axis: exponent * sum_{j != i}
        1/(x_i - x_j); the drift is b_i = kappa * grad_log_z."""
        x = np.asarray(x, dtype=float)
        d = x[..., i, None] - np.delete(x, i, axis=-1)
        return self.exponent * np.sum(1.0 / d, axis=-1)


def require_points(spec: PartitionSpec, cfg: PointConfig) -> None:
    """Refuse a configuration whose point count is not the spec's: the
    flow would run silently on the wrong number of points."""
    if len(cfg) != spec.n_points:
        raise ValueError(f"the spec is for {spec.n_points} points but the "
                         f"configuration has {len(cfg)}")


def log_z_cols(exponent: float, x: np.ndarray) -> np.ndarray:
    """log Z along the last axis: exponent * sum_{i<j} log|x_i - x_j|.

    x has shape (..., N); returns shape (...).  The pairs add left to
    right, for one configuration as for many.  Coinciding pairs give -inf
    (backward) which downstream code treats as a collision; a gap that
    overflows gives inf.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < 2:
        return np.zeros(x.shape[:-1])
    # one pair of columns at a time (contiguous for a column-major x),
    # pairs in np.triu_indices order
    with np.errstate(divide="ignore", over="ignore"):
        logs = [np.log(np.abs(x[..., i] - x[..., j]))
                for i in range(n) for j in range(i + 1, n)]
        return exponent * sum_columns(logs)


def _check_index(cfg: PointConfig, i: int) -> None:
    if not 0 <= i < len(cfg):
        raise IndexError(f"index {i} out of range for {len(cfg)} points")


def min_gap(cfg: PointConfig) -> float:
    """Smallest gap; ConfigError where the span overflows (±1e308)."""
    if math.isinf(max(cfg.points) - min(cfg.points)):
        raise ConfigError("the gap between the outermost points overflows")
    x = cfg.as_array()
    n = len(x)
    if n < 2:
        return np.inf
    iu, ju = np.triu_indices(n, k=1)
    return float(np.min(np.abs(x[iu] - x[ju])))


# 5-point central stencils (4th order).
def fd_second(f: Callable, x: np.ndarray, i: int, h: float) -> float:
    shift = np.zeros_like(x)
    shift[i] = h
    return (
        -f(x + 2 * shift) + 16 * f(x + shift) - 30 * f(x)
        + 16 * f(x - shift) - f(x - 2 * shift)
    ) / (12.0 * h * h)


def fd_first(f: Callable, x: np.ndarray, i: int, h: float) -> float:
    shift = np.zeros_like(x)
    shift[i] = h
    return (
        -f(x + 2 * shift) + 8 * f(x + shift) - 8 * f(x - shift) + f(x - 2 * shift)
    ) / (12.0 * h)


def _resolve_step(cfg: PointConfig, gap: float, fd_step: float | None,
                  default_frac: float, scale: float = 1.0) -> float:
    """The FD step for points cfg whose length scale is `gap` (default:
    default_frac times it); scale times it must stay below a tenth of the
    gap, the stencil points x ± 2 * scale * step must stay finite, and its
    square, which the second-difference stencils divide by, must not
    underflow (as it does for points 1e-300 apart)."""
    if fd_step is None:     # 0 where the gap is tiny: refused below
        fd_step = default_frac * gap
    elif not fd_step > 0:
        raise ValueError("fd_step must be positive")
    if scale * fd_step >= gap / 10.0:
        raise ConfigError(
            f"{scale:g} * fd_step = {scale * fd_step:g} must stay below a "
            f"tenth of the length scale {gap:g}"
        )
    if math.isinf(max(map(abs, cfg.points)) + 2.0 * scale * fd_step):
        raise ConfigError(f"fd_step {fd_step:g} puts the stencil points "
                          f"x ± {2 * scale:g} * fd_step outside the floats")
    if fd_step * fd_step < sys.float_info.min:
        raise ConfigError(
            f"fd_step {fd_step:g} is too small: its square underflows")
    return fd_step


def bpz_operator(spec: PartitionSpec, f: Callable, x: np.ndarray, i: int,
                 h: float):
    """(D_i f(x), f(x)) by central finite differences of step h, where

        D_i = (kappa/2) d^2/dx_i^2 -+ 2 sum_{j != i} ( 1/(x_j-x_i) d/dx_j
                                                      - h_weight/(x_j-x_i)^2 )

    (upper sign backward, lower forward); the h_weight term multiplies
    f(x) itself.  bpz_residual applies it to Z, the coupling PDE to
    u_tilde * Z."""
    sgn = -1.0 if spec.mode == BACKWARD else 1.0
    f0 = f(x)
    acc = 0.5 * spec.kappa * fd_second(f, x, i, h)
    for j in range(len(x)):
        if j == i:
            continue
        gap = x[j] - x[i]
        with np.errstate(over="ignore"):     # a squared gap of inf: term 0
            gap2 = gap**2
        acc += sgn * 2.0 * (fd_first(f, x, j, h) / gap - spec.h_weight * f0 / gap2)
    return acc, f0


def bpz_residual(spec: PartitionSpec, cfg: PointConfig, i: int,
                 fd_step: float | None = None) -> float:
    """|D_i Z| / |Z| with D_i the operator of bpz_operator.  Default
    fd_step is 1e-4 times the minimum pairwise gap; steps at or above a
    tenth of the gap are refused.
    """
    require_points(spec, cfg)
    _check_index(cfg, i)
    h = _resolve_step(cfg, min_gap(cfg), fd_step, 1e-4)
    acc, z0 = bpz_operator(spec, spec.z, cfg.as_array(), i, h)
    return abs(acc) / abs(z0)


def kz_residual(spec: PartitionSpec, cfg: PointConfig, i: int,
                fd_step: float | None = None) -> float:
    """|FD d(log Z)/dx_i - closed form| / max(1, |exponent| sum_{j != i}
    1/|x_i - x_j|): an exact identity, so FD truncation and rounding, which
    grow with the size of the closed form's terms, remain."""
    require_points(spec, cfg)
    _check_index(cfg, i)
    h = _resolve_step(cfg, min_gap(cfg), fd_step, 1e-5)
    x = cfg.as_array()

    def logz(y: np.ndarray) -> float:
        if not math.isfinite(out := float(log_z_cols(spec.exponent, y))):
            raise ConfigError(
                f"log Z leaves the floats at kappa {spec.kappa!r}")
        return out

    exact = float(spec.grad_log_z(x, i))
    size = abs(spec.exponent) * float(np.sum(1.0 / np.abs(np.delete(x, i) - x[i])))
    return abs(fd_first(logz, x, i, h) - exact) / max(1.0, size)
