"""Two-scheme commutation experiment and infinitesimal generator checks.

Scheme 1 grows a hull at point i for time eps, then one at point j for time
eps_tilde; Scheme 2 grows at j for time eps_prime, then at i for c*eps_tilde.
The first-leg times are the first-order capacity-matching truncations

    eps       = (1 -+ 4*eps_tilde/(X_i-X_j)**2) * c * eps_tilde
    eps_prime = (1 -+ 4*c*eps_tilde/(X_j-X_i)**2) * eps_tilde

(- backward, + forward): to second order they cancel the commutator
[L_i, L_j] = +-4/(X_i-X_j)**2 (L_i - L_j) that commutator_residual checks,
so the orders differ at third order in eps_tilde (at second with the other
sign), and scheme comparisons carry an o(eps_tilde**2) allowance on top of
Monte Carlo error.

The generator of the k-th flow acting on functions of the configuration is

    L_k = (kappa/2) d^2/dx_k^2 + b_k d/dx_k -+ sum_{l != k} 2/(x_l-x_k) d/dx_l

(transport sign - backward, + forward) with b_k = kappa * d(log Z)/dx_k.
Nested finite differences evaluate the commutator [L_i, L_j]; the outer
differences use a 10x larger step than the inner ones, which keeps the
rounding noise of the nested evaluation far below the truncation target.

All indices are 0-based.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import (BACKWARD, ConfigError, McReport, NumericalFailure,
                   PointConfig, _check_mode, mean_var, normal_block,
                   require_gaps, require_square)
from .loewner import slit_shift
from .partition import (PartitionSpec, _resolve_step, fd_first, fd_second,
                        min_gap, require_points)
from .sampler import (REASON_SWALLOWED, Flow, chunked, horizon, map_chunks,
                      run_leg, step_sizes, step_windows, sum_stats, tiled)


Legs = tuple[tuple[int, float], ...]


def plan_schemes(mode: str, cfg: PointConfig, i: int, j: int,
                 eps_tilde: float, c: float) -> tuple[Legs, Legs]:
    """The legs of scheme 1 and of scheme 2, each leg a (driving slot,
    leg time) pair, with the truncated first-leg times, whose -+ follows
    the flow `mode` (module docstring); refuses eps_tilde too large for the
    (i, j) gap, or a squared gap to i or j that overflows."""
    if i == j:
        raise ValueError("i and j must differ")
    if eps_tilde < 0 or c <= 0:
        raise ValueError("eps_tilde must be >= 0 and c > 0")
    require_gaps(cfg, i)
    require_gaps(cfg, j)
    gap2 = (cfg.points[i] - cfg.points[j]) ** 2
    if 4.0 * max(1.0, c) * eps_tilde >= gap2:
        raise ConfigError(
            f"4*max(1,c)*eps_tilde = {4 * max(1.0, c) * eps_tilde:g} "
            f"must stay below the squared gap {gap2:g}")
    four = slit_shift(_check_mode(mode))
    eps = (1.0 + four * eps_tilde / gap2) * c * eps_tilde
    eps_prime = (1.0 + four * c * eps_tilde / gap2) * eps_tilde
    return ((i, eps), (j, eps_tilde)), ((j, eps_prime), (i, c * eps_tilde))


def arctan_sum(x: np.ndarray) -> np.ndarray:
    """Default bounded test observable: sum_k arctan(x_k)."""
    return np.sum(np.arctan(x), axis=-1)


def _run_legs(legs: Legs, dt: float, spec: PartitionSpec, x: np.ndarray,
              draw: Callable, drifted: bool) -> tuple[Flow, int]:
    """Run the legs of a scheme on rows x in substeps of dt, each leg on
    its own steps of the rows' streams; returns the final Flow and the
    steps drawn per row.  `draw(n_steps, first_step)` gives the normals of
    steps first_step .. first_step + n_steps - 1 of the whole scheme, one
    window of step_windows at a time across leg boundaries; each run_leg
    call covers a window's part of one leg, and none is made once every
    row has stopped.  Scheme legs carry no weights, so a row stops exactly
    where the slit map swallows a companion, which it never does forward.
    """
    starts = np.cumsum([0] + [horizon(T, dt)[0] for _, T in legs])
    flow = Flow.start(x)
    drawn = 0
    for a, b in step_windows(int(starts[-1])):
        normals = draw(b - a, a)
        drawn = b
        for (slot, T), start, stop in zip(legs, starts, starts[1:]):
            lo, hi = max(a, start), min(b, stop)
            if lo < hi and flow.active.any():
                run_leg(spec.mode, spec.kappa, spec.exponent, spec.h_weight,
                        flow, slot, normals[:, lo - a:hi - a],
                        step_sizes(T, dt, lo - start, hi - start),
                        drifted=drifted)
        del normals      # before the next window is drawn
        if not flow.active.any():
            break
    return flow, drawn


def _scheme_chunk(task: dict) -> dict:
    legs, dt = task["legs"], task["dt"]
    points = np.asarray(task["points"])

    def run_tile(t0: int, t1: int) -> dict:
        draw = functools.partial(normal_block, task["seed"],
                                 task["first_path"] + t0, t1 - t0)
        x = np.broadcast_to(points, (t1 - t0, len(points)))
        flow, drawn = _run_legs(legs, dt, task["spec"], x, draw,
                                drifted=True)
        return {"x": flow.x, "reason": flow.reason,
                "steps": np.array([(t1 - t0) * drawn])}

    flow = tiled(task["count"], run_tile)
    x = flow["x"]
    keep = flow["reason"] != REASON_SWALLOWED
    steps = int(flow["steps"].sum())     # of the windows drawn
    out = {"n": int(keep.sum()), "n_discarded": int((~keep).sum()),
           "path_steps": steps, "draws": steps}
    n_pts = x.shape[1]
    cols = {f"x_{k}": x[keep, k] for k in range(n_pts)}
    cols["phi"] = arctan_sum(x[keep])
    for name, v in cols.items():
        out[f"s_{name}"] = float(np.sum(v))
        out[f"s2_{name}"] = float(np.sum(v * v))
    return out


def commutation_experiment(
    spec: PartitionSpec,
    cfg: PointConfig,
    i: int,
    j: int,
    eps_tilde: float,
    c: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    n_workers: int = 1,
) -> list[McReport]:
    """Scheme 1 vs Scheme 2 Monte Carlo means, one report per observable
    (each final marked point and the arctan test function); tolerance
    max(3 * pooled SE, 10 * eps_tilde**2).  Both schemes share one
    map_chunks call (one pool)."""
    require_points(spec, cfg)
    task = {"spec": spec, "points": tuple(cfg.points), "dt": dt, "seed": seed}
    arms = [dict(task, legs=legs)
            for legs in plan_schemes(spec.mode, cfg, i, j, eps_tilde, c)]
    s1, s2 = sum_stats(map_chunks(_scheme_chunk, chunked(arms, n_paths),
                                  n_workers), len(arms))
    for order, st in (("scheme1", s1), ("scheme2", s2)):
        if st["n"] == 0:
            raise NumericalFailure(
                f"{order} swallowed all {n_paths} paths; no mean is left")
        if not all(map(math.isfinite, st.values())):
            raise NumericalFailure(f"the {order} sums overflowed")
    names = [f"x_{k}" for k in range(len(cfg))] + ["phi"]
    reports = []
    for name in names:
        m1, v1 = mean_var(s1[f"s_{name}"], s1[f"s2_{name}"], s1["n"])
        m2, v2 = mean_var(s2[f"s_{name}"], s2[f"s2_{name}"], s2["n"])
        pooled = math.sqrt(v1 + v2)
        tol = max(3.0 * pooled, 10.0 * eps_tilde**2)
        reports.append(McReport(f"scheme_diff_{name}", m1, pooled, m2, tol,
                                s1["n"] + s2["n"]))
    return reports


def _generator_value(spec: PartitionSpec, phi: Callable, x: np.ndarray,
                     k: int, h: float, drift_fn: Callable | None) -> float:
    """(L_k phi)(x) by 5-point central stencils."""
    sgn = -2.0 if spec.mode == BACKWARD else 2.0
    acc = 0.5 * spec.kappa * fd_second(phi, x, k, h)
    b = (drift_fn(x, k) if drift_fn is not None
         else spec.kappa * spec.grad_log_z(x, k))
    acc += float(b) * fd_first(phi, x, k, h)
    for l in range(len(x)):
        if l == k:
            continue
        acc += sgn / (x[l] - x[k]) * fd_first(phi, x, l, h)
    return acc


def commutator_residual(
    spec: PartitionSpec,
    phi: Callable[[np.ndarray], float],
    cfg: PointConfig,
    i: int,
    j: int,
    fd_step: float | None = None,
    drift_fn: Callable | None = None,
) -> float:
    """|([L_i, L_j] -+ 4/(x_i-x_j)**2 (L_i - L_j)) phi| at cfg via nested
    finite differences (outer step = 10 * fd_step); the right-hand sign
    is - for backward generators and + for forward ones.

    Default inner step is 2e-3 * min gap, coarser than the single-level
    default: the outer second derivative divides the inner stencils'
    rounding noise (about eps/h^2) by (10h)^2, so tiny steps drown the
    identity in noise while h ~ eps^(1/6) balances noise against the
    O(h^4) truncation of both levels.
    """
    require_points(spec, cfg)
    if i == j:
        raise ValueError("i and j must differ")
    require_square(cfg.points[i] - cfg.points[j],
                   f"gap between points {i} and {j}")
    h = _resolve_step(cfg, min_gap(cfg), fd_step, 2e-3, scale=10.0)
    x = cfg.as_array()

    def L(k: int, g: Callable) -> Callable:
        return lambda y: _generator_value(spec, g, y, k, h, drift_fn)

    li_phi = L(i, phi)
    lj_phi = L(j, phi)
    outer = 10.0 * h
    # forward generators flip every first-order coefficient, which flips
    # the sign of the right-hand side as well
    sgn = 1.0 if spec.mode == BACKWARD else -1.0
    # kappa scales the stencils' rounding noise, past the floats if huge
    with np.errstate(over="ignore", invalid="ignore"):
        lij = _generator_value(spec, lj_phi, x, i, outer, drift_fn)
        lji = _generator_value(spec, li_phi, x, j, outer, drift_fn)
        rhs = sgn * 4.0 / (x[i] - x[j]) ** 2 * (li_phi(x) - lj_phi(x))
        out = abs(lij - lji - rhs)
    if not math.isfinite(out):
        raise NumericalFailure(
            f"the commutator terms overflow at kappa {spec.kappa!r}")
    return out
