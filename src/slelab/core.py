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

so the stream for a given (seed, path_index) is bit-for-bit reproducible
regardless of how paths are batched or parallelized.  The uniform
argument lies in (0, 1], not strictly inside (0, 1): at the top value
k = 2**53 - 1, k + 0.5 needs 54 significant bits and rounds to even, to
2**53, so the argument is 1.0 and z = +inf, with probability 2**-53 per
draw.  normal_block evaluates the definition in one pass over the block:
with w the raw word, (w >> 10) | 1 is the integer 2k + 1, and converting
it to float rounds 2(k + 0.5) exactly as adding 0.5 rounds k + 0.5, up to
the factor 2, so float((w >> 10) | 1) * 2**-54 is (k + 0.5) * 2**-53 bit
for bit; scaling by a power of two is exact.  k is exactly what
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

BACKWARD = "backward"
FORWARD = "forward"
MODES = (BACKWARD, FORWARD)

_MASK64 = (1 << 64) - 1
# rows per conversion group of normal_block.  A group's raw words are held
# twice while np.concatenate joins them, so groups stay small: at 20000
# rows x 50, 146 and 250 steps (numpy 2.4, 2-vCPU AMD EPYC), groups of 32
# to 256 rows all took about 30, 19 and 17 ns per draw, and 64 rows hold
# 0.26 MB of raw words at 250 steps.
_GROUP = 64


class ConfigError(ValueError):
    """The configuration cannot be run: a bad field, or a quantity it fixes
    (Z, a squared gap, a substep count) outside the float range.  The CLI
    exits 2 on it, as on any subclass."""


class NumericalFailure(RuntimeError):
    """A valid configuration's run went numerically wrong.  The CLI exits
    3 on it, as on any subclass."""


def require_square(d: complex, what: str) -> None:
    """Refuse a distance d set by the config whose |d|**2 overflows; a
    check calls it before any kernel squares d."""
    d = complex(d)
    if math.isinf(d.real * d.real + d.imag * d.imag):
        raise ConfigError(f"the squared {what} overflows")


def require_bulk(bulk: Sequence[complex]) -> None:
    """Refuse a bulk point off the open upper half-plane (NaN included)
    or one whose squared modulus overflows; a chain squares it."""
    for z in map(complex, bulk):
        if not z.imag > 0:
            raise ConfigError(f"bulk point {z} must have Im z > 0")
        require_square(z, f"modulus of bulk point {z}")


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

    Raises ConfigError with 1-based indices of the first coinciding pair.
    """
    pts = tuple(float(x) for x in points)
    if not pts:
        raise ValueError("need at least one point")
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if pts[a] == pts[b]:
                raise ConfigError(
                    f"points {a + 1} and {b + 1} coincide (x = {pts[a]!r})")
    return PointConfig(pts)


@dataclass(frozen=True)
class DrivingPath:
    """Realized driving function on a uniform grid: values[k] at time k*dt,
    values[0] the start point."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def build_driving_path(kappa: float, w0: float, increments: np.ndarray,
                       dt: float) -> DrivingPath:
    """values[k+1] = values[k] + sqrt(kappa)*increments[k], values[0] = w0,
    from Brownian increments of variance dt each.  w0 is the first term of
    one sequential sum, so a path continued from another's last value has
    the bits of one path over both."""
    values = np.empty(len(increments) + 1)
    values[0] = w0
    values[1:] = np.sqrt(kappa) * np.asarray(increments, dtype=float)
    return DrivingPath(dt=dt, values=np.cumsum(values, out=values))


def normal_block(seed: int, first_path: int, n_paths: int, n_steps: int,
                 first_step: int = 0) -> np.ndarray:
    """(n_paths, n_steps) standard normals, laid out step-major; row p is
    steps first_step .. first_step + n_steps - 1 of the stream keyed by
    (seed, first_path + p), so batching along paths or steps never changes
    results.  Brownian increments of variance dt are sqrt(dt) times it.
    A seed outside [0, 2**64) is refused: masked, it would share a stream."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed {seed!r} is outside [0, 2**64)")
    # one Philox for the block: per row, reset it under that row's key to
    # the counter before first_step's 4-word group, with an empty buffer
    counter, skip = divmod(first_step, 4)
    width = skip + n_steps
    key = [0, seed]
    start = {"bit_generator": "Philox",
             "state": {"counter": [counter, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bits = Philox(key=0)
    out = np.empty((n_steps, n_paths))
    for a in range(0, n_paths, _GROUP):
        b = min(a + _GROUP, n_paths)
        rows = []
        for p in range(a, b):
            key[0] = (first_path + p) & _MASK64
            bits.state = start
            rows.append(bits.random_raw(width))
        # raw words of one group of rows; never a whole block of them
        w = np.concatenate(rows).reshape(b - a, width)[:, skip:]
        # 2k + 1 with k = w >> 11; its float times 2**-54 is (k + 0.5) 2**-53
        w >>= 10
        w |= 1
        np.copyto(out[:, a:b], w.T, casting="unsafe")
        del w    # before the next group's draws: two groups at most
    out *= 2.0**-54
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
    passed: bool


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
