"""Coupling of Loewner flows to a free boundary field.

A harmonic observable is attached to every bulk point z: the field value
u at the flowed point plus a curvature term built from the map derivative,

    backward:  h_t(z) = u(f_t(z); x_1..x_N with W_t in slot i) + Q log|f'_t(z)|
    forward:   h_t(z) = u(g_t(z); ...)                         - K arg g'_t(z)

where u is the real (backward) or imaginary (forward) part of the
holomorphic sum  -(2/sqrt(kappa)) sum_k eps_k log(z - x_k).  Under the
drifted measure h_t(z) is a martingale in t for every fixed z, and the
cross variation of h(z), h(w) equals the decrease of the boundary Green
function along the flow, Neumann backward and Dirichlet forward.  Both
statements, and the one-point martingales of the driftless backward flow,
are checked here by Monte Carlo; the stationarity of u itself is checked
as an exact PDE residual via finite differences.

Sign conventions are load bearing: the backward coupling needs every
eps_k = -1 and sqrt(kappa) in {gamma, 4/gamma}; the forward one needs
eps_k = +1 with K = forward_chi(kappa) = 2/sqrt(kappa) - sqrt(kappa)/2 for
kappa < 4 and the mirrored pair for kappa > 4.  Both constants are fixed
by the flow (and gamma), so no spec can set another.  Controls flip a sign
and must fail.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BACKWARD,
    FORWARD,
    ConfigError,
    McReport,
    PointConfig,
    _check_mode,
    mean_var,
    normal_block,
    require_bulk,
    require_gaps,
)
from .loewner import Swallowed, slit_complex, slit_real
from .partition import (
    PartitionSpec,
    _resolve_step,
    bpz_operator,
    fd_first,
    min_gap,
    require_points,
)
from .sampler import (REASON_SWALLOWED, Flow, chunked, driver_step, horizon,
                      map_chunks, step_sizes, step_windows, sum_stats, tiled)

_RELATION_TOL = 1e-9
_COINCIDENT_TOL = 1e-14


def q_charge(gamma: float) -> float:
    """2/gamma + gamma/2.  gamma > 2 is allowed: gamma and 4/gamma give the
    same charge, and checks are run in both forms."""
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    return 2.0 / gamma + gamma / 2.0


def forward_chi(kappa: float) -> float:
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    if kappa == 4.0:
        raise ConfigError("forward coupling is degenerate at kappa = 4")
    rk = math.sqrt(kappa)
    return 2.0 / rk - rk / 2.0 if kappa < 4.0 else rk / 2.0 - 2.0 / rk


@dataclasses.dataclass(frozen=True)
class CouplingSpec:
    """A coupled flow: the flow's PartitionSpec plus the field side
    (gamma, signs, and which part of the holomorphic sum is the field).
    A spec exists only where a coupling theorem holds: backward needs
    sqrt(kappa) = gamma or 4/gamma, forward refuses a gamma and kappa = 4.
    The curvature constant is computed here: the charge Q(gamma) backward,
    forward_chi(kappa) forward.

    Without epsilon_signs the coupled ones are filled in: every -1
    backward; forward every +1 below kappa = 4 and every -1 above.  Signs
    given are stored as given: flipped signs are the one control, and
    must fail.
    """

    pspec: PartitionSpec
    gamma: Optional[float] = None
    epsilon_signs: Optional[Tuple[int, ...]] = None
    curvature_constant: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.epsilon_signs is None:
            sign = 1 if self.mode == FORWARD and self.kappa < 4.0 else -1
            signs = (sign,) * self.pspec.n_points
        else:
            signs = tuple(self.epsilon_signs)
        object.__setattr__(self, "epsilon_signs", signs)
        if len(signs) != self.pspec.n_points:
            raise ValueError("need one epsilon sign per boundary point")
        if any(abs(e) != 1 for e in signs):
            raise ValueError("epsilon signs must be +1 or -1")
        if self.mode == BACKWARD:
            if self.gamma is None:
                raise ConfigError("backward coupling needs gamma")
            curvature = q_charge(self.gamma)     # refuses a nonpositive gamma
            rk = math.sqrt(self.kappa)
            if min(abs(rk - self.gamma),
                   abs(rk - 4.0 / self.gamma)) > _RELATION_TOL:
                raise ConfigError(
                    f"backward coupling needs sqrt(kappa) = gamma or "
                    f"4/gamma; got kappa={self.kappa}, gamma={self.gamma}")
        elif self.gamma is not None:
            raise ConfigError("forward coupling takes no gamma: kappa alone "
                              "fixes its signs and curvature")
        else:
            curvature = forward_chi(self.kappa)
        object.__setattr__(self, "curvature_constant", curvature)

    @property
    def mode(self) -> str:
        return self.pspec.mode

    @property
    def kappa(self) -> float:
        return self.pspec.kappa


# ---------------------------------------------------------------------------
# Field building blocks


def green(mode: str, z: np.ndarray | complex,
          w: np.ndarray | complex) -> np.ndarray | float:
    """Boundary Green function of the upper half plane; the flow fixes
    the boundary condition.

    backward (Neumann):  -log|z-w| - log|z-conj(w)|
    forward (Dirichlet): -log|z-w| + log|z-conj(w)|

    It is infinite at z == w and z == conj(w), a pair the checks refuse.
    """
    _check_mode(mode)
    za = np.asarray(z, dtype=complex)
    wa = np.asarray(w, dtype=complex)
    direct = np.abs(za - wa)
    mirror = np.abs(za - np.conj(wa))
    sign = -1.0 if mode == BACKWARD else 1.0
    return -np.log(direct) + sign * np.log(mirror)


def _require_apart(z: complex, w: complex) -> None:
    """Refuse a bulk pair where the Green function is singular."""
    if min(np.abs(z - w), np.abs(z - np.conj(w))) < _COINCIDENT_TOL:
        raise ConfigError(f"Green function singular at z={z}, w={w}")


def holo_u_tilde(
    z: np.ndarray | complex,
    points: np.ndarray | Sequence[float],
    kappa: float,
    epsilon_signs: Sequence[int],
) -> np.ndarray | complex:
    """-(2/sqrt(kappa)) sum_k eps_k Log(z - x_k), principal branch."""
    za = np.asarray(z, dtype=complex)
    xs = np.asarray(points, dtype=float)
    eps = np.asarray(epsilon_signs, dtype=float)
    diff = za[..., None] - xs
    return -(2.0 / math.sqrt(kappa)) * np.sum(eps * np.log(diff), axis=-1)


def boundary_u(
    mode: str,
    z: np.ndarray | complex,
    points: np.ndarray | Sequence[float],
    kappa: float,
    epsilon_signs: Sequence[int],
) -> np.ndarray | float:
    """Real part of the holomorphic sum backward, imaginary part forward."""
    _check_mode(mode)
    val = holo_u_tilde(z, points, kappa, epsilon_signs)
    return np.real(val) if mode == BACKWARD else np.imag(val)


# ---------------------------------------------------------------------------
# Stationarity PDE residual (finite differences)


def coupling_pde_residual(
    cspec: CouplingSpec,
    z: complex,
    cfg: PointConfig,
    i: int,
    fd_step: Optional[float] = None,
) -> float:
    """Relative residual of the defining relation for X = u_tilde * Z:
    partition.bpz_operator's D_i X plus two bulk terms,

    backward: D_i X - (2/(z-x_i)) X_z + 2 Q Z/(z-x_i)^2 = 0
    forward:  D_i X + (2/(z-x_i)) X_z + 2 K Z/(z-x_i)^2 = 0
    """
    require_points(cspec.pspec, cfg)
    require_bulk([z])
    require_gaps(cfg, i, [z])
    spec = cspec.pspec
    eps = cspec.epsilon_signs
    kappa = cspec.kappa
    x0 = np.asarray(cfg.points, dtype=float)
    # the length scale: z's distance to the points, or their smallest gap
    # if that is shorter (min_gap is inf for a single point)
    scale = min(float(np.min(np.abs(z - x0))), min_gap(cfg))
    h = _resolve_step(cfg, scale, fd_step, 1e-4)

    z_center = spec.z(x0)

    def x_fn(x: np.ndarray) -> complex:
        return complex(holo_u_tilde(z, x, kappa, eps)) * spec.z(x)

    def x_of_z(shift: np.ndarray) -> complex:
        # real-direction shift of z; enough for d/dz of a holomorphic factor
        return complex(holo_u_tilde(z + shift[0], x0, kappa, eps)) * z_center

    # the flow's operator on X, plus the bulk transport and curvature terms
    acc, _ = bpz_operator(spec, x_fn, x0, i, h)
    sgn = -1.0 if cspec.mode == BACKWARD else 1.0
    acc += sgn * (2.0 / (z - x0[i])) * fd_first(x_of_z, np.zeros(1), 0, h)
    acc += 2.0 * cspec.curvature_constant * z_center / (z - x0[i]) ** 2
    return float(abs(acc) / abs(z_center))


# ---------------------------------------------------------------------------
# Coupled flow ensembles


def _log_abs(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.log(a, out=a)


def _field_values(cspec: CouplingSpec, x: np.ndarray, zb: np.ndarray,
                  db: np.ndarray) -> List[np.ndarray]:
    """h at every bulk point, one (n,) column per bulk point; x (n, N) and
    zb, db (n, M) are column-major, so each call reads one column."""
    # log|.| and +Q backward, arg and -K forward
    if cspec.mode == BACKWARD:
        part, curvature = _log_abs, cspec.curvature_constant
    else:
        part, curvature = np.angle, -cspec.curvature_constant
    # complex minus complex: a float column would go through a slower
    # mixed-type loop, with the same bits
    x_c = [x[:, k].astype(complex) for k in range(x.shape[1])]
    scale = -(2.0 / math.sqrt(cspec.kappa))
    columns = []
    for m in range(zb.shape[1]):
        # the sum over points adds left to right from zero
        h = np.zeros(x.shape[0])
        for e, xk in zip(cspec.epsilon_signs, x_c):
            if e > 0:
                h += part(zb[:, m] - xk)
            else:
                h -= part(zb[:, m] - xk)
        h *= scale
        curv = part(db[:, m])
        curv *= curvature
        h += curv
        columns.append(h)
    return columns


def _pair_green(mode: str, zb: np.ndarray, pairs: List[Tuple[int, int]]) -> np.ndarray:
    """Green function per path for each tracked pair; zb (n,M) -> (n,P)."""
    return _stack([green(mode, zb[:, a], zb[:, b]) for a, b in pairs], zb.shape[0])


def _stack(cols: List[np.ndarray], n: int) -> np.ndarray:
    """(n, len(cols)) C-ordered: the chunk sums over paths read this
    layout, and summing another one adds in a different order."""
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


def _h_run(
    cspec: CouplingSpec,
    cfg: PointConfig,
    i: int,
    bulk: Sequence[complex],
    T: float,
    dt: float,
    seed: int,
    first_path: int,
    n_paths: int,
) -> Dict[str, np.ndarray]:
    """Drifted-measure flow of paths first_path .. first_path + n_paths - 1
    under `seed` over T in substeps of dt, carrying field observables;
    normals and substep sizes are built one step window at a time.

    Companions move by exact slit maps; the driver by driver_step, Euler
    steps of dW = sqrt(kappa) dB + kappa (d/dW) log Z dt.  Paths whose
    companion or tracked bulk point is swallowed are frozen at the start
    of the offending substep and kept (their h increments vanish from then
    on, so once every path is frozen the run ends and draws no further
    window; draws counts the normals drawn).  The state is
    column-major and every step works one point's column at a time.
    It also returns the final bulk images zb, their derivatives db (the
    product of the slit multipliers, f') and the driver column w.
    """
    mode = cspec.mode
    kappa = cspec.kappa
    sqk = math.sqrt(kappa)
    kb = kappa * cspec.pspec.exponent
    flow = Flow.start(np.broadcast_to(cfg.as_array(), (n_paths, len(cfg))))
    m_bulk = len(bulk)
    zb = np.empty((n_paths, m_bulk), dtype=complex, order="F")
    zb[:] = np.asarray(bulk, dtype=complex)
    db = np.ones_like(zb)
    pairs = [(a, b) for a in range(m_bulk) for b in range(a + 1, m_bulk)]

    h_prev = _field_values(cspec, flow.x, zb, db)
    h0 = _stack(h_prev, n_paths)
    g0 = _pair_green(mode, zb, pairs)
    accum = [np.zeros(n_paths) for _ in pairs]

    # column views, written in place; frozen rows are never written
    u0 = flow.x[:, i]
    comps = [flow.x[:, k] for k in range(len(cfg)) if k != i]
    z_cols = [zb[:, m] for m in range(m_bulk)]
    d_cols = [db[:, m] for m in range(m_bulk)]
    drawn = 0     # normals drawn, each path
    # a frozen row may hold a zero gap, so an inf driver step, but no
    # frozen row is ever copied back
    with np.errstate(divide="ignore", invalid="ignore"):
        for first, stop in step_windows(horizon(T, dt)[0]):
            normals = normal_block(seed, first_path, n_paths, stop - first,
                                   first)
            drawn = stop
            for k, delta in enumerate(step_sizes(T, dt, first, stop)):
                new_c, bad = [], []
                for xc in comps:
                    new, _, swallowed = slit_real(xc, u0, delta, mode)
                    new_c.append(new)
                    bad.append(swallowed)
                new_b, mult_b = [], []
                for zc in z_cols:
                    new, mult, swallowed = slit_complex(zc, u0, delta, mode)
                    new_b.append(new)
                    mult_b.append(mult)
                    bad.append(swallowed)
                # most steps swallow nothing: test the whole masks first;
                # frozen rows never change, so steps left add zeros only
                if any(b.any() for b in bad) and not flow.stop(
                        functools.reduce(np.logical_or, bad),
                        REASON_SWALLOWED):
                    break
                w_new = driver_step(u0, [xc - u0 for xc in comps],
                                    normals[:, k], delta, sqk, kb)
                for xc, new in zip(comps, new_c):
                    np.copyto(xc, new, where=flow.active)
                np.copyto(u0, w_new, where=flow.active)
                for zc, dc, new, mult in zip(z_cols, d_cols, new_b, mult_b):
                    np.copyto(zc, new, where=flow.active)
                    np.multiply(dc, mult, out=dc, where=flow.active)
                h_new = _field_values(cspec, flow.x, zb, db)
                for p, (a, b) in enumerate(pairs):
                    accum[p] += ((h_new[a] - h_prev[a])
                                 * (h_new[b] - h_prev[b]))
                h_prev = h_new
            del normals      # before the next window is drawn
            if not flow.active.any():
                break
    gt = _pair_green(mode, zb, pairs)
    return {
        "h0": h0,
        "ht": _stack(h_prev, n_paths),
        "accum": _stack(accum, n_paths),
        "g_drop": g0 - gt,
        "reason": flow.reason,
        "draws": np.array([n_paths * drawn]),
        "zb": zb,
        "db": db,
        "w": u0,
    }


def _tile_run(task: dict, keys: Sequence[str]) -> Dict[str, np.ndarray]:
    """_h_run of the task's paths, tile by tile, keeping only `keys`."""
    def run_tile(t0: int, t1: int) -> dict:
        run = _h_run(task["cspec"], task["cfg"], task["i"], task["bulk"],
                     task["T"], task["dt"], task["seed"],
                     task["first_path"] + t0, t1 - t0)
        return {k: run[k] for k in keys}

    return tiled(task["count"], run_tile)


def _h_chunk(task: dict) -> dict:
    run = _tile_run(task, ("h0", "ht", "accum", "g_drop", "reason", "draws"))
    diff = run["ht"] - run["h0"]
    xv_err = run["accum"] - run["g_drop"]
    # h scales as 1/sqrt(kappa): at tiny kappa the sums of squares leave
    # the floats, which _run_h_ensemble refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "n": diff.shape[0],
            "sh": diff.sum(axis=0),
            "sh2": (diff**2).sum(axis=0),
            "sx": run["accum"].sum(axis=0),
            "sg": run["g_drop"].sum(axis=0),
            "sd": xv_err.sum(axis=0),
            "sd2": (xv_err**2).sum(axis=0),
            "n_swallowed": int(np.sum(run["reason"] == REASON_SWALLOWED)),
            "draws": int(run["draws"].sum()),
        }


ONE_POINT_C = np.array([-1.0, 1.0, 2.0])     # fixed, not a field


def _one_point_chunk(task: dict) -> dict:
    """Sums of M_T / M_0 and of its square, an (M, 3) array each (bulk
    point by c), for bulk_martingale_check's M = |f'|^a (Im Z)^b |Z|^c;
    the ratio is built in log space, with M_0 = (Im z)^b |z|^c."""
    kappa, z0 = task["cspec"].kappa, np.asarray(task["bulk"])
    b = -kappa * ONE_POINT_C**2 / 8.0
    a = ONE_POINT_C * (1.0 + kappa / 4.0) + b
    run = _tile_run(task, ("zb", "db", "w", "draws"))
    zt = run["zb"] - run["w"][:, None]
    # a huge kappa takes log M past the floats: a sum sum_stats refuses
    with np.errstate(over="ignore", invalid="ignore"):
        log_r = (_log_abs(run["db"])[..., None] * a
                 + np.log(zt.imag / z0.imag)[..., None] * b
                 + np.log(np.abs(zt) / np.abs(z0))[..., None] * ONE_POINT_C)
        r = np.exp(log_r)
        return {"n": task["count"], "s1": r.sum(axis=0),
                "s2": (r * r).sum(axis=0), "draws": int(run["draws"].sum())}


def _run_h_ensemble(
    chunk: Callable[[dict], dict],
    cspec: CouplingSpec,
    cfg: PointConfig,
    i: int,
    bulk: Sequence[complex],
    t_final: float,
    dt: float,
    n_paths: int,
    seed: int,
    n_workers: int,
) -> dict:
    """`chunk`'s sums over the flow's paths, refusing bad points first."""
    require_bulk(bulk)
    require_gaps(cfg, i, bulk)
    for z, w in itertools.combinations(bulk, 2):
        _require_apart(z, w)
    horizon(t_final, dt)     # refuses a horizon before any task is built
    task = {"cspec": cspec, "cfg": cfg, "i": i, "bulk": tuple(bulk),
            "T": t_final, "dt": dt, "seed": seed}
    stats, = sum_stats(map_chunks(chunk, chunked([task], n_paths),
                                  n_workers))
    return stats


def _mean_se(s1: float, s2: float, n: int) -> Tuple[float, float]:
    """(mean, SE of the mean) of n samples from s1 = sum x, s2 = sum x^2;
    the h-ensemble rows use the population variance."""
    mean = s1 / n
    var = max(s2 / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def coupling_martingale_check(
    cspec: CouplingSpec,
    cfg: PointConfig,
    i: int,
    bulk: Sequence[complex],
    t_final: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    n_workers: int = 1,
) -> List[McReport]:
    """Mean of h_T(z) - h_0(z) under the drifted measure, against zero.

    Tolerance is 3 standard errors per bulk point.  Paths whose companion
    is swallowed freeze at the swallow step and stay in the mean: the
    frozen value is h at a stopping time, and a stopped martingale still
    has mean h_0.  Unlike the path weight, h(z) for bulk z has no
    singularity at a companion collision, so no collision layer is needed.
    """
    require_points(cspec.pspec, cfg)
    stats = _run_h_ensemble(_h_chunk, cspec, cfg, i, bulk, t_final, dt,
                            n_paths, seed, n_workers)
    n = stats["n"]
    reports = []
    for m, zz in enumerate(bulk):
        mean, se = _mean_se(stats["sh"][m], stats["sh2"][m], n)
        reports.append(McReport(
            f"coupling_drift_z{m}_re{np.real(zz):g}_im{np.imag(zz):g}",
            mean, se, 0.0, 3.0 * se, n))
    return reports


def cross_variation_experiment(
    cspec: CouplingSpec,
    cfg: PointConfig,
    i: int,
    bulk: Sequence[complex],
    t_final: float,
    dt: float,
    n_paths: int,
    seed: int = 0,
    n_workers: int = 1,
) -> List[McReport]:
    """Discrete cross variation of h(z), h(w) vs the Green function drop.

    Both sides are averaged over paths; they agree to O(dt) per path, so
    the tolerance is 5% of the reference magnitude (the drop is
    deterministic for these couplings, which makes it a clean yardstick).
    """
    require_points(cspec.pspec, cfg)
    if len(bulk) < 2:
        raise ConfigError("cross variation needs at least two bulk points")
    pairs = [(a, b) for a in range(len(bulk)) for b in range(a + 1, len(bulk))]
    stats = _run_h_ensemble(_h_chunk, cspec, cfg, i, bulk, t_final, dt,
                            n_paths, seed, n_workers)
    n = stats["n"]
    reports = []
    for p, (a, b) in enumerate(pairs):
        ref = stats["sg"][p] / n
        se = _mean_se(stats["sd"][p], stats["sd2"][p], n)[1]
        reports.append(McReport(
            f"crossvar_pair_{a}_{b}", stats["sx"][p] / n, se, ref,
            0.05 * abs(ref), n))
    return reports


def bulk_martingale_check(kappa: float, bulk: Sequence[complex],
                          t_final: float, dt: float, n_paths: int,
                          seed: int = 0, n_workers: int = 1) -> List[McReport]:
    """The one-point martingales of driftless backward SLE_kappa from 0
    (Rohde & Schramm, Ann. Math. 161, 2005): with Z = f_T(z) - W_T,

        M = |f_T'(z)|^a (Im Z)^b |Z|^c,  b = -kappa c^2 / 8,
        a = c (1 + kappa / 4) + b,

    has mean M_0 = (Im z)^b |z|^c for every real c.  One row per bulk
    point and c in ONE_POINT_C: the mean of M_T / M_0 against 1, at 3 SE.
    The flow is _h_run's with one marked point at 0 and no companion, so
    no drift; the reference is absolute, so a wrong slit map fails a row.
    """
    cspec = CouplingSpec(PartitionSpec(BACKWARD, kappa, 1),
                         gamma=math.sqrt(kappa))
    stats = _run_h_ensemble(_one_point_chunk, cspec, PointConfig((0.0,)), 0,
                            bulk, t_final, dt, n_paths, seed, n_workers)
    n = stats["n"]
    reports = []
    for m in range(len(bulk)):
        for k, c in enumerate(ONE_POINT_C):
            mean, var = mean_var(stats["s1"][m, k], stats["s2"][m, k], n)
            se = math.sqrt(var)
            reports.append(McReport(f"bulk_martingale_z{m}_c{c:g}", mean, se,
                                    1.0, 3.0 * se, n))
    return reports


# ---------------------------------------------------------------------------
# Deterministic Green increment identity


def green_increment_coefficient(
    mode: str, fz: complex, fw: complex, u0: float
) -> float:
    """Instantaneous rate of the Green function along the flow.

    backward (neumann):  -Re(2/(fz-u0)) Re(2/(fw-u0))
    forward (dirichlet): -Im(2/(fz-u0)) Im(2/(fw-u0))
    """
    _check_mode(mode)
    part = np.real if mode == BACKWARD else np.imag
    return float(-part(2.0 / (fz - u0)) * part(2.0 / (fw - u0)))


def green_increment_check(
    mode: str,
    kappa: float,
    z: complex,
    w: complex,
    t_final: float,
    dt: float,
    seed: int = 0,
) -> float:
    """Per-substep check that dG/dt matches the rate coefficient.

    Within a substep the driving is frozen at u0, so the exact slit map
    makes (G_{k+1} - G_k)/delta equal the trapezoid average of the
    coefficient at the substep endpoints up to O(delta^2).  Returns the
    largest relative mismatch over the path; a wrong sign or the other
    mode's Green function shows up as O(1).
    """
    _check_mode(mode)
    require_bulk((z, w))
    _require_apart(z, w)
    pts = np.array([z, w], dtype=complex)
    u = 0.0
    worst = 0.0
    g_before = green(mode, pts[0], pts[1])
    # one step window of normals and sizes at a time, so memory does not
    # grow with the horizon
    for a, b in step_windows(horizon(t_final, dt)[0]):
        normals = normal_block(seed, 0, 1, b - a, a)[0]
        for delta, normal in zip(step_sizes(t_final, dt, a, b), normals):
            # p is evaluated afresh at both ends: u moves between steps
            p0 = green_increment_coefficient(mode, pts[0], pts[1], u)
            new, _, bad = slit_complex(pts[None, :], u, delta, mode)
            if np.any(bad):
                raise Swallowed(
                    "bulk point swallowed during Green increment check")
            pts = new[0]
            p1 = green_increment_coefficient(mode, pts[0], pts[1], u)
            g_after = green(mode, pts[0], pts[1])
            pbar = 0.5 * (p0 + p1)
            rel = (abs((g_after - g_before) / delta - pbar)
                   / max(abs(pbar), 1e-12))
            worst = max(worst, rel)
            g_before = g_after
            u = driver_step(u, (), normal, delta, math.sqrt(kappa), 0.0)
    return worst
