"""Stochastic driving: i-th SLE(kappa, b) simulation and measure changes.

The driving coordinate follows Euler-Maruyama steps (drift frozen at the
substep start) while companion points advance by exact slit-map substeps,
so the only time-discretization error lives in the driving SDE.

Weight process along a path, in log space:

    log M_t = h * sum_j log f'_t(X_j) + log Z(running configuration)

with the running configuration holding W_t in the driving slot.  M_0 is
Z(initial configuration) because all derivatives start at 1.  Paths stop at
the first substep boundary (after at least one completed substep) where
|M| exceeds bound_n * M_0, or when a companion is swallowed; stopped paths
stay frozen and are retained in Monte Carlo averages.

All indices are 0-based.  Paths are chunked for the sums and optional
process-level parallelism.  Inside a chunk the kernels run one path tile
(at most TILE paths) at a time, and a tile draws its normals one window at
a time: step_windows splits the horizon into ceil(n / STEP_BLOCK) windows
of equal length (up to one step), so a chunk holds at most TILE *
STEP_BLOCK * 8 bytes of normals (20.5 MB) however long the horizon, and
often less.  Every path owns the stream keyed by (seed, path_index) and a
window resumes it at its first step, so no split changes a path; the
tiles' per-path arrays are joined in path order before the chunk sums
them.  Reports are byte-identical across worker counts, STEP_BLOCK and
TILE at the fixed chunk size DEFAULT_CHUNK; another chunk size adds the
per-chunk sums in another order, which can change the last bits.

The ensemble state (Flow) is column-major: each point's column of all
paths is contiguous, and the kernel works one column at a time.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (ConfigError, McReport, NumericalFailure, PointConfig,
                   mean_var, normal_block, require_gaps, sum_columns)
from .loewner import slit_gap, slit_shift
from .partition import PartitionSpec, log_z_cols, require_points

# why a path stopped; 0 while it runs
REASON_BOUND = 1
REASON_SWALLOWED = 2

DERIV_CAP = 1e300
# substeps of one horizon: as many as an array of their sizes could hold,
# though none is built
MAX_STEPS = np.iinfo(np.intp).max // 8
# paths of one run: 2**31 is about 107,000 chunk tasks
MAX_PATHS = 2**31
DEFAULT_CHUNK = 20_000
# the longest window of normals: a chunk holds at most TILE * STEP_BLOCK *
# 8 bytes of them (20.5 MB), and a horizon of n steps is split into
# ceil(n / STEP_BLOCK) even windows, so a 292-step scheme holds 146 steps
# (11.7 MB).  Each window costs one Philox reset per path: 500 steps of
# 20000 paths took 0.50 s in one block, 0.53 s in 256-step windows, 0.58 s
# in 128-step and 0.88 s in 64-step windows (2-vCPU host).
STEP_BLOCK = 256
# the most paths one kernel call works on: a chunk runs its paths in
# ceil(count / TILE) even tiles.  Measured on a 2-vCPU host: at 5000 rows
# a weighted run_leg costs about 20% more per path-step (numpy's per-call
# overhead), _h_run gains nothing more below 10000 rows, and at 20000 rows
# (one tile per chunk) _h_run took more CPU time than at 10000 in 9 of 12
# interleaved pairs.
TILE = 10_000

# Weighted paths stop when a companion gap enters the collision layer
# gap^2 <= COLLISION_GUARD^2 * dt (a guard of at least 2).  The slit map
# swallows only at gap^2 <= 4 dt backward, but inside the wider layer the
# frozen-driver splitting stops being a martingale step (per-step weight
# error ~ dt/gap^2 is O(1) there, independent of dt).  Stopping at the layer
# edge is a legitimate stopping time, so means of the stopped weight are
# preserved while the corrupted steps are never taken.  Guard 12 keeps the
# residual martingale bias ~3e-3 at dt=1e-3 (scaling like 1/guard^2).
COLLISION_GUARD = 12.0


def horizon(T: float, dt: float) -> tuple[int, float]:
    """(substep count, size of the last substep) of the horizon T: uniform
    substeps of size dt, plus one shorter remainder step if dt does not
    divide T.  The one substep rule of every check.  A horizon of
    MAX_STEPS substeps or more (T / dt may be inf) is refused before
    anything is allocated for it."""
    if not T > 0 or not dt > 0:
        raise ValueError("T and dt must be positive")
    if not T / dt < MAX_STEPS:
        raise ConfigError(
            f"horizon {T!r} is {T / dt:g} substeps of {dt!r}, more than an "
            "array can hold")
    n_full = int(math.floor(T / dt + 1e-9))
    rem = T - n_full * dt
    if rem > 1e-6 * dt:
        return n_full + 1, rem
    if n_full == 0:
        raise ConfigError(
            f"horizon {T!r} is shorter than one substep of {dt!r}")
    return n_full, dt


def step_sizes(T: float, dt: float, a: int, b: int) -> np.ndarray:
    """Sizes of substeps a .. b - 1 of the horizon T, so a step window
    never builds the whole horizon's sizes."""
    n, last = horizon(T, dt)
    out = np.full(b - a, dt, dtype=float)
    if b == n and a < b:
        out[-1] = last
    return out


def _even_split(n: int, block: int) -> Iterator[tuple[int, int]]:
    """Bounds [a, b) of ceil(n / block) consecutive ranges that cover
    0 .. n - 1, with lengths that differ by at most one; made one at a
    time, so their number costs no memory."""
    count = -(-n // block)
    size, extra = divmod(n, max(count, 1))
    for k in range(count):
        yield k * size + min(k, extra), (k + 1) * size + min(k + 1, extra)


def step_windows(n_steps: int) -> Iterator[tuple[int, int]]:
    """Bounds [a, b) of ceil(n_steps / STEP_BLOCK) consecutive windows that
    cover n_steps steps, with lengths that differ by at most one step.
    As many windows as full STEP_BLOCK ones plus a remainder, so as many
    Philox resets, but none longer than it has to be."""
    return _even_split(n_steps, STEP_BLOCK)


def tiled(count: int, run_tile: Callable[[int, int], dict]) -> dict:
    """run_tile(a, b) on each of the ceil(count / TILE) even path tiles
    [a, b) of a chunk, its per-path arrays (or one-entry arrays, such as a
    tile's count of path-steps) joined in path order.
    np.concatenate keeps the tiles' memory layout, so the chunk's sums over
    paths read what one call would have built."""
    parts = [run_tile(a, b) for a, b in _even_split(count, TILE)]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


@dataclass
class Flow:
    """Ensemble state carried from call to call of run_leg (rows = paths).
    Calls write it in place, and a row that has stopped is never written
    again.  Continuing a Flow is exact, so a leg may be run one step window
    at a time.  `x` and `derivs` are column-major: each point's column of
    all paths is contiguous, and the kernels work one column at a time.
    `derivs` and `log_m` exist only once a weighted call (track_weight)
    has started them, and only weighted calls update them."""

    x: np.ndarray              # (n, N) configuration, driver in its slot
    derivs: np.ndarray | None  # (n, N) companion derivatives, driver slot 1
    active: np.ndarray         # (n,) bool
    reason: np.ndarray         # (n,) int8, 0 or REASON_*
    log_m: np.ndarray | None   # (n,) log M at stop/terminal, if tracked

    @classmethod
    def start(cls, x: np.ndarray) -> Flow:
        """A column-major copy of the (n, N) start array x, every row
        active, no weights."""
        xs = np.array(x, dtype=float, order="F")
        n = xs.shape[0]
        return cls(xs, None, np.ones(n, dtype=bool), np.zeros(n, dtype=np.int8),
                   None)

    def stop(self, mask: np.ndarray, reason: int) -> bool:
        """Freeze the active rows of `mask` with `reason`; False once no
        row is active, which is counted only when a row was frozen."""
        hit = mask & self.active
        if not hit.any():
            return True
        self.reason[hit] = reason
        self.active[hit] = False
        return bool(self.active.any())


def driver_step(u0: np.ndarray, gaps: Sequence[np.ndarray],
                normal: np.ndarray, delta: float, sqk: float,
                kb: float) -> np.ndarray:
    """The driver after one Euler substep, drift frozen at its start, as
    normal * (sqk * sqrt(delta)) + u0 + (sum_c -1 / gap_c) * kb * delta
    with the gaps x_c - u0 added left to right; no gaps, no drift.  A zero
    gap gives an inf for the caller to mask under its np.errstate."""
    step = normal * (sqk * math.sqrt(delta))
    step += u0
    if gaps:
        # 1 / (u0 - x_c) is -1 / gap bit for bit where the gap is not 0
        drift = sum_columns([np.divide(-1.0, d) for d in gaps])
        drift *= kb
        drift *= delta
        step += drift
    return step


def run_leg(
    mode: str,
    kappa: float,
    exponent: float,
    h_weight: float,
    x: np.ndarray | Flow,
    slot: int,
    normals: np.ndarray,
    deltas: np.ndarray,
    drifted: bool,
    track_weight: bool = False,
    log_bound: float | None = None,
) -> Flow:
    """Advance an ensemble for len(deltas) substeps with driving in column
    `slot`.  `x` is either an (n, N) start array, which is copied into a
    column-major Flow and never written, or the Flow of an earlier call,
    which is continued in place: splitting the steps over several calls
    gives the same bits as one call.  Weighted calls start the derivatives
    at 1 and log M at log Z of the configuration where tracking begins;
    neither is reset on a Flow.  A path freezes with reason `swallowed` at
    the start of the substep where its smallest companion gap is inside
    the stop layer: weighted calls stop at the collision layer gap^2 <=
    COLLISION_GUARD^2 * delta, unweighted ones exactly where the slit map
    swallows (slit_shift; never forward).  Bound-stopped paths freeze at
    the boundary where |M| first exceeded the bound.  Once no row is
    active the call returns: the steps left would write no row."""
    flow = x if isinstance(x, Flow) else Flow.start(x)
    if track_weight and flow.derivs is None:
        flow.derivs = np.ones_like(flow.x)
    if track_weight and flow.log_m is None:
        flow.log_m = log_z_cols(exponent, flow.x)
    x, active, log_m = flow.x, flow.active, flow.log_m
    others = [c for c in range(x.shape[1]) if c != slot]
    # column views: U0 and comps are written in place below
    U0 = x[:, slot]
    comps = [x[:, c] for c in others]
    dcols = [flow.derivs[:, c] for c in others] if track_weight else []
    sqk = math.sqrt(kappa)
    kb = kappa * exponent

    # the docstring's stop layer d^2 <= stop_at * delta
    stop_at = COLLISION_GUARD**2 if track_weight else -slit_shift(mode)
    # a stopped row may hold a zero gap, so an inf drift and a NaN slit
    # value, but no stopped row is ever copied back
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, delta in enumerate(deltas):
            # each gap d = xc - U0 and d^2 once, for the layer test, the
            # slit map and the drift
            gaps = [xc - U0 for xc in comps]
            if comps:
                sqs = [d * d for d in gaps]
                lim = stop_at * delta
                layer = sqs[0] <= lim
                for d2 in sqs[1:]:
                    layer |= d2 <= lim
                if not flow.stop(layer, REASON_SWALLOWED):
                    break
                # no active row is inside the layer, so none is swallowed
                for j, (xc, d, d2) in enumerate(zip(comps, gaps, sqs)):
                    new, mult = slit_gap(d, d2, U0, delta, mode)
                    np.copyto(xc, new, where=active)
                    if track_weight:
                        np.multiply(dcols[j], mult, out=dcols[j],
                                    where=active)
            step = driver_step(U0, gaps if drifted else (), normals[:, k],
                               delta, sqk, kb)
            np.copyto(U0, step, where=active)

            if track_weight:
                # every row: a stopped row passed this on its last active
                # step
                for dc in dcols:
                    if np.any(dc <= 0.0) or np.any(dc >= DERIV_CAP):
                        raise NumericalFailure(
                            "companion derivative left (0, 1e300)")
                new_m = log_z_cols(exponent, x)
                if dcols:
                    # h_weight * sum log f' + log Z
                    logs = sum_columns([np.log(dc) for dc in dcols])
                    logs *= h_weight
                    logs += new_m
                    new_m = logs
                np.copyto(log_m, new_m, where=active)
                if (log_bound is not None
                        and not flow.stop(log_m > log_bound, REASON_BOUND)):
                    break
    return flow


def chunked(arms: Sequence[dict], n_paths: int) -> list[dict]:
    """Arm k's task once per DEFAULT_CHUNK of paths k * n_paths ..
    (k + 1) * n_paths - 1, whose streams it reads, keyed by its first path
    index and path count; more than MAX_PATHS paths an arm are refused."""
    if n_paths > MAX_PATHS:
        raise ConfigError(f"{n_paths} paths are more than the {MAX_PATHS} "
                          "a run may have")
    return [dict(task, first_path=k * n_paths + a,
                 count=min(DEFAULT_CHUNK, n_paths - a))
            for k, task in enumerate(arms)
            for a in range(0, n_paths, DEFAULT_CHUNK)]


def sum_stats(parts: list[dict], arms: int = 1) -> list[dict]:
    """Key-wise sums of each arm's chunk statistics as chunked laid them
    out, in chunk order.  A sum starts from its arm's first part, so array
    values and -0.0 pass through unchanged.  A total that is not finite
    (a sum that overflowed, or inf - inf) raises NumericalFailure."""
    size = len(parts) // arms
    with np.errstate(over="ignore", invalid="ignore"):
        totals = [{k: functools.reduce(operator.add, (p[k] for p in arm))
                   for k in arm[0]}
                  for arm in (parts[a:a + size]
                              for a in range(0, len(parts), size))]
    for a, total in enumerate(totals):
        for k, v in total.items():
            if not np.all(np.isfinite(v)):
                raise NumericalFailure(
                    f"the sum {k!r} of arm {a + 1} is not finite")
    return totals


def map_chunks(fn: Callable, tasks: Sequence, n_workers: int = 1) -> list:
    """Run chunk tasks sequentially or on a pool of at most one process
    per task and per CPU; aggregation by the caller must be associative so
    the worker count never changes results."""
    n_workers = min(n_workers, len(tasks), os.cpu_count() or 1)
    if n_workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=n_workers) as ex:
        return list(ex.map(fn, tasks))


def _ensemble_chunk(task: dict) -> dict:
    """Terminal sufficient statistics for one chunk of paths; the
    observable is the terminal position of companion task["j"], or 0
    where j is None."""
    spec: PartitionSpec = task["spec"]
    T, dt = task["T"], task["dt"]
    n_steps = horizon(T, dt)[0]
    points = np.asarray(task["points"])

    def run_tile(t0: int, t1: int) -> dict:
        flow = np.broadcast_to(points, (t1 - t0, len(points)))
        drawn = 0
        for a, b in step_windows(n_steps):
            normals = normal_block(task["seed"], task["first_path"] + t0,
                                   t1 - t0, b - a, a)
            drawn = b
            flow = run_leg(
                spec.mode, spec.kappa, spec.exponent, spec.h_weight,
                flow, task["slot"], normals, step_sizes(T, dt, a, b),
                drifted=task["drifted"], track_weight=True,
                log_bound=task["log_bound"],
            )
            del normals      # before the next window is drawn
            if not flow.active.any():    # frozen rows never change
                break
        return {"x": flow.x, "log_m": flow.log_m, "reason": flow.reason,
                "draws": np.array([(t1 - t0) * drawn])}

    count = task["count"]
    flow = tiled(count, run_tile)
    with np.errstate(over="ignore"):     # inf fails the caller's tests
        log_w = flow["log_m"] - log_z_cols(spec.exponent, points[None, :])
        w = np.exp(log_w)   # M / M_0
    j = task["j"]
    f = flow["x"][:, j] if j is not None else np.zeros(count)
    # a product that overflows makes a sum that sum_stats refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "n": count,
            "sw": float(np.sum(w)),
            "sw2": float(np.sum(w * w)),
            "swf": float(np.sum(w * f)),
            "sw2f": float(np.sum(w * w * f)),
            "sw2f2": float(np.sum(w * w * f * f)),
            "sf": float(np.sum(f)),
            "sf2": float(np.sum(f * f)),
            "n_swallowed": int(np.sum(flow["reason"] == REASON_SWALLOWED)),
            "n_bound": int(np.sum(flow["reason"] == REASON_BOUND)),
            "n_underflow": int(np.sum((w == 0.0) & np.isfinite(log_w))),
            "draws": int(flow["draws"].sum()),
        }


def _ensemble_task(spec, cfg, i, T, dt, bound_n, seed, j) -> dict:
    """A driftless arm's task; bound_n is a multiple of M_0 = Z(initial)."""
    bound = bound_n * spec.z(cfg.as_array())
    if not bound > 0:
        raise ConfigError(f"stopping bound {bound!r} is not positive "
                          "(a multiple of a Z that underflows is 0)")
    return {
        "spec": spec, "points": tuple(cfg.points), "slot": i, "T": T, "dt": dt,
        "seed": seed, "drifted": False, "log_bound": math.log(bound), "j": j,
    }


def martingale_check(
    spec: PartitionSpec,
    cfg: PointConfig,
    i: int,
    T: float,
    dt: float,
    n_paths: int,
    bound_n: float = 10.0,
    seed: int = 0,
    n_workers: int = 1,
) -> McReport:
    """Optional-stopping test: mean of M_{T and tau}/M_0 against 1.  A
    weight whose finite log underflows exp to 0 raises NumericalFailure."""
    require_points(spec, cfg)
    require_gaps(cfg, i)
    task = _ensemble_task(spec, cfg, i, T, dt, bound_n, seed, j=None)
    st, = sum_stats(map_chunks(_ensemble_chunk, chunked([task], n_paths),
                               n_workers))
    n = st["n"]
    if st["n_underflow"]:
        raise NumericalFailure(
            f"{st['n_underflow']} of {n} weights M/M_0 underflow to 0")
    mean, var = mean_var(st["sw"], st["sw2"], n)
    se = math.sqrt(var)
    return McReport(
        f"martingale_mean_weight_k{spec.kappa:g}_N{len(cfg)}",
        mean, se, 1.0, 3.0 * se, n,
    )


def girsanov_check(
    spec: PartitionSpec,
    cfg: PointConfig,
    i: int,
    j: int | None,
    T: float,
    dt: float,
    n_paths: int,
    bound_n: float = 10.0,
    seed: int = 0,
    n_workers: int = 1,
) -> McReport:
    """Reweighted base-measure mean against the drifted-measure mean of
    the terminal position of companion j (None: the first index != i).

    Arm 1 simulates driftless paths and weights the observable by the
    terminal M/M_0 (self-normalized); arm 2 simulates drifted paths stopped
    by the same bound rule applied to their reconstructed M.  The arms read
    disjoint streams and share one map_chunks call (one pool).
    """
    require_points(spec, cfg)
    require_gaps(cfg, i)
    if j is None:
        j = 0 if i != 0 else 1
    if j == i or not 0 <= j < len(cfg):
        raise IndexError(f"companion index {j} invalid for driver {i}")
    task = _ensemble_task(spec, cfg, i, T, dt, bound_n, seed, j)
    tasks = chunked([task, dict(task, drifted=True)], n_paths)
    base, drift = sum_stats(map_chunks(_ensemble_chunk, tasks, n_workers), 2)
    n = base["n"]
    ess = base["sw"] ** 2 / max(base["sw2"], 1e-300)
    if not ess >= 0.01 * n:
        raise NumericalFailure(
            f"effective sample size {ess:.1f} below 1% of {n} paths")
    est1 = base["swf"] / base["sw"]
    var1 = (base["sw2f2"] - 2.0 * est1 * base["sw2f"] + est1**2 * base["sw2"])
    se1 = math.sqrt(max(var1, 0.0)) / base["sw"]
    est2, var2 = mean_var(drift["sf"], drift["sf2"], drift["n"])
    se2 = math.sqrt(var2)
    pooled = math.hypot(se1, se2)
    return McReport("girsanov", est1, pooled, est2, 3.0 * pooled, n)
