"""Shared domain types, configuration-space operations and reproducible RNG.

Random numbers
--------------
Every Monte Carlo path owns an independent counter-based stream: a Philox
bit generator whose 128-bit key packs the run seed in the high 64 bits and
the path index in the low 64 bits, with its counter starting at zero.
Gaussian variates use the inverse-CDF method (fixed, documented choice):
take a uniform 53-bit integer k = random_raw() >> 11 from the keyed stream
and map

    z = ndtri((k + 0.5) * 2**-53)

so the uniform argument is strictly inside (0, 1) and the stream for a
given (seed, path_index) is bit-for-bit reproducible regardless of how
paths are batched or parallelized.  k is exactly what
Generator(Philox(key)).integers(0, 2**53, dtype=uint64) draws: Lemire's
bounded-integer method keeps the high 53 bits of each 64-bit word, and it
never rejects because 2**53 divides 2**64.  Drawing through random_raw lets
one Philox serve a whole block of paths by resetting its key and counter.

Blocks are laid out step-major: normal_block returns an (n_paths, n_steps)
array whose columns (one step of every path) are contiguous, because every
ensemble kernel reads one step of all paths at a time.  Philox is
counter-based, so a block can start at any step: word w of a stream is
word w % 4 of the Philox output at counter w // 4 + 1, and setting the
counter to first_step // 4 (empty buffer) and dropping first_step % 4
words resumes the stream exactly.  Callers therefore draw long horizons
in windows of steps and never hold more than one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

BACKWARD = "backward"
FORWARD = "forward"
MODES = (BACKWARD, FORWARD)

_MASK64 = (1 << 64) - 1
_GROUP = 256       # rows per conversion group of normal_block


class ConfigError(ValueError):
    """The configuration cannot be run: a bad field, or a quantity it fixes
    (Z, a squared gap, a substep count) outside the float range.  The CLI
    exits 2 on it, as on any subclass."""


class NumericalFailure(RuntimeError):
    """A valid configuration's run went numerically wrong.  The CLI exits
    3 on it, as on any subclass."""


class DuplicatePoint(ConfigError):
    """Two marked points coincide (violates the distinctness requirement)."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"points {i} and {j} coincide (x = {value!r})")


def require_square(d: complex, what: str) -> None:
    """Refuse a distance d set by the config whose |d|**2 overflows; a
    check calls it before any kernel squares d."""
    d = complex(d)
    if math.isinf(d.real * d.real + d.imag * d.imag):
        raise ConfigError(f"the squared {what} overflows")


def require_gaps(cfg: PointConfig, i: int, bulk: Sequence[complex] = ()) -> None:
    """Refuse points whose squared gap to the driving point i, or bulk
    points whose squared distance to a point, overflows."""
    for k, x in enumerate(cfg.points):
        require_square(x - cfg.points[i], f"gap between points {i} and {k}")
        for z in bulk:
            require_square(z - x, f"distance from bulk point {z} to point {k}")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class PointConfig:
    """Ordered tuple of pairwise-distinct boundary points (kept in user
    order; nothing downstream depends on sortedness)."""

    points: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


def validate_config(points: Sequence[float]) -> PointConfig:
    """Build a PointConfig, rejecting exactly the diagonal.

    Raises DuplicatePoint with 1-based indices of the first coinciding pair.
    """
    pts = tuple(float(x) for x in points)
    if not pts:
        raise ValueError("need at least one point")
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if pts[a] == pts[b]:
                raise DuplicatePoint(a + 1, b + 1, pts[a])
    return PointConfig(pts)


@dataclass(frozen=True)
class DrivingPath:
    """Realized driving function on a uniform grid: values[k] at time k*dt,
    values[0] the start point."""

    dt: float
    n_steps: int
    values: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if len(self.values) != self.n_steps + 1:
            raise ValueError("values must have length n_steps + 1")


def build_driving_path(kappa: float, w0: float, increments: np.ndarray,
                       dt: float) -> DrivingPath:
    """values[k+1] = values[k] + sqrt(kappa)*increments[k], values[0] = w0,
    from Brownian increments of variance dt each."""
    increments = np.asarray(increments, dtype=float)
    n = len(increments)
    values = np.empty(n + 1)
    values[0] = w0
    np.cumsum(np.sqrt(kappa) * increments, out=values[1:])
    values[1:] += w0
    return DrivingPath(dt=dt, n_steps=n, values=values)


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 first_step: int = 0) -> np.ndarray:
    """(n_paths, n_steps) standard normals, laid out step-major; row p is
    steps first_step .. first_step + n_steps - 1 of the stream keyed by
    (seed, first_path + p), so batching along paths or steps never changes
    results.  Brownian increments of variance dt are sqrt(dt) times it."""
    # one Philox for the block: per row, reset it under that row's key to
    # the counter before first_step's 4-word group, with an empty buffer
    counter, skip = divmod(first_step, 4)
    key = [0, seed & _MASK64]
    start = {"bit_generator": "Philox",
             "state": {"counter": [counter, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bits = Philox(key=0)
    out = np.empty((n_steps, n_paths))
    # raw words of one group of rows; never a whole block of them
    raw = np.empty((min(_GROUP, n_paths), skip + n_steps), dtype=np.uint64)
    for a in range(0, n_paths, _GROUP):
        b = min(a + _GROUP, n_paths)
        for p in range(a, b):
            key[0] = (first_path + p) & _MASK64
            bits.state = start
            raw[p - a] = bits.random_raw(skip + n_steps)
        k = raw[:b - a, skip:]
        k >>= 11
        np.copyto(out[:, a:b], k.T, casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    return ndtri(out, out=out).T


@dataclass(frozen=True)
class McReport:
    """Universal output record of a statistical check.

    `passed` implements the contract pass = (|estimate - reference| <=
    tolerance); it is serialized under the column name "pass" (a Python
    keyword, hence the attribute spelling).
    """

    name: str
    estimate: float
    std_error: float
    reference: float
    tolerance: float
    n_samples: int
    passed: bool = field(default=False)


def make_report(
    name: str,
    estimate: float,
    std_error: float,
    reference: float,
    tolerance: float,
    n_samples: int,
) -> McReport:
    ok = abs(estimate - reference) <= tolerance
    return McReport(name, float(estimate), float(std_error), float(reference),
                    float(tolerance), int(n_samples), bool(ok))


def mean_var(s1: float, s2: float, n: int) -> tuple[float, float]:
    """Mean and variance of the mean from the power sums s1 = sum x and
    s2 = sum x^2 of n samples (sample variance with n - 1)."""
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return mean, var / n


def sum_columns(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of equal-shape arrays, added left to right.  These are the bits
    of np.sum(a, axis=1) for an (n, P) array `a` whose columns are not
    adjacent in memory, such as x[:, indices], however large P is.  numpy
    starts from +0.0, which differs only when the first term is -0.0, and
    no kernel term (1/gap, the log of a positive value) is.  A single
    term is returned as it is."""
    out = cols[0]
    for c in cols[1:]:
        out = out + c
    return out
