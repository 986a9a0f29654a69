"""Layer micro-benchmarks: each layer's functions called directly.

Inputs come from `numpy.random.default_rng(seed)`, not from the package's
own RNG, so run_leg and the slit maps get the same arrays on every commit.
One round times every metric once; rounds repeat while the next one is
expected to end within the time budget, and each metric reports its
median over rounds.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from slelab.commutation import arctan_sum, commutator_residual
from slelab.core import build_driving_path, normal_block, validate_config
from slelab.coupling import green_increment_check
from slelab.loewner import evolve, initial_state, slit_complex, slit_real
from slelab.partition import PartitionSpec, bpz_residual, log_z_cols
from slelab.sampler import map_chunks, run_leg

ROWS = 20_000          # paths per normal_block / run_leg call
LEG_STEPS = 200
DELTA = 1e-4
KAPPA = 4.0
LEG_POINTS = {"N2": (0.0, 1.0), "N3": (0.0, 1.0, 3.0)}   # driving slot 0
SLIT_POINTS = 200_000
LOGZ_ROWS = 200_000
EVOLVE_STEPS = 2_000
FD_POINTS = (0.0, 1.0, 2.5)


def _timed(fn, repeat: int = 1) -> float:
    """Median seconds of `repeat` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Inputs:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.normals = rng.standard_normal((ROWS, LEG_STEPS))
        self.deltas = np.full(LEG_STEPS, DELTA)
        n = SLIT_POINTS // 2
        self.u0 = 0.1 * rng.standard_normal((n, 1))
        self.z = rng.uniform(-2.0, 2.0, (n, 2)) + 1j * rng.uniform(0.1, 3.0, (n, 2))
        self.x = rng.uniform(-3.0, 3.0, (n, 2))
        self.logz_x = np.sort(rng.uniform(-3.0, 3.0, (LOGZ_ROWS, 3)), axis=1)
        incs = math.sqrt(DELTA) * rng.standard_normal(EVOLVE_STEPS)
        self.path = build_driving_path(KAPPA, 0.0, incs, DELTA)


def one_round(inp: Inputs) -> dict:
    m = {}
    # first, before the large normal blocks: a pool's fork cost grows with RSS
    m["sampler.map_chunks.pool_start_s"] = _timed(
        lambda: map_chunks(abs, [1, -1], n_workers=2), repeat=3)
    for steps in (50, 500):
        t = _timed(lambda: normal_block(inp.seed, 0, ROWS, steps))
        m[f"core.normal_block.draws_per_s.steps{steps}"] = ROWS * steps / t
    for tag, pts in LEG_POINTS.items():
        x0 = np.tile(np.asarray(pts), (ROWS, 1))
        for mode in ("backward", "forward"):
            spec = PartitionSpec(mode, KAPPA, len(pts))
            for w in (0, 1):
                t = _timed(lambda: run_leg(
                    mode, KAPPA, spec.exponent, spec.h_weight, x0, 0,
                    inp.normals, inp.deltas, drifted=True,
                    track_weight=bool(w)))
                m[f"sampler.run_leg.ns_per_path_step.{tag}.{mode}.w{w}"] = (
                    1e9 * t / (ROWS * LEG_STEPS))
    m["loewner.slit_complex.ns_per_point"] = 1e9 * _timed(
        lambda: slit_complex(inp.z, inp.u0, DELTA, "backward"),
        repeat=5) / SLIT_POINTS
    m["loewner.slit_real.ns_per_point"] = 1e9 * _timed(
        lambda: slit_real(inp.x, inp.u0, DELTA, "backward"),
        repeat=5) / SLIT_POINTS
    state = initial_state("backward", bulk=(1e4j, 2e4j))
    m["loewner.evolve.ns_per_step"] = 1e9 * _timed(
        lambda: evolve(state, inp.path), repeat=3) / EVOLVE_STEPS
    m["partition.log_z_cols.ns_per_row"] = 1e9 * _timed(
        lambda: log_z_cols(-2.0 / KAPPA, inp.logz_x), repeat=5) / LOGZ_ROWS
    cfg = validate_config(FD_POINTS)
    spec = PartitionSpec("backward", KAPPA, len(FD_POINTS))
    m["partition.bpz_residual.us_per_call"] = 1e6 * _timed(
        lambda: bpz_residual(spec, cfg, 0), repeat=50)
    m["commutation.commutator_residual.us_per_call"] = 1e6 * _timed(
        lambda: commutator_residual(spec, arctan_sum, cfg, 0, 1), repeat=10)
    # the crossvar CLI check's identity run: t 0.01 at dt 1e-5
    m["coupling.green_increment_check.us_per_step"] = 1e6 * _timed(
        lambda: green_increment_check("backward", KAPPA, 1 + 2j, -1 + 2j,
                                      0.01, 1e-5, seed=inp.seed),
        repeat=3) / 1000
    return m


def run(seed: int, seconds: float) -> dict:
    inp = Inputs(seed)
    rounds = []
    start = time.perf_counter()
    # start another round only while it is expected to end within `seconds`
    while (not rounds or (time.perf_counter() - start)
           * (len(rounds) + 1) / len(rounds) <= seconds):
        rounds.append(one_round(inp))
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
