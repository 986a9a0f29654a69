"""SE calibration census: error bars tested as error bars.

Each Monte Carlo check compares an estimate with its reference once, in
units of its own standard error.  Wherever the identity holds and the SE
is honest, z = (estimate - reference) / SE is about N(0, 1) across seeds.
Each check runs here at a small size over K seeds through the CLI's
config reader, and every row with a nonzero SE must give, over the K
seeds:

- |mean z| <= 4 / sqrt(K), four SEs of the mean z;
- sd z in [0.75, 1.25];
- at most 3 seeds with |z| > 3.

Two checks are known to be off and are carried as strict xfails; their
configs, seeds and bounds are those of the others.
"""

from collections import defaultdict

import numpy as np
import pytest

from slelab.cli import CHECKS, _read

K = 100
N_PATHS = 2001
SHORT = {"t_final": 0.005, "dt": 1e-3, "n_paths": N_PATHS}
FLOW = {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0]}

CONFIGS = {
    "martingale": dict(FLOW, i_index=0, **SHORT),
    "girsanov": dict(FLOW, i_index=0, **SHORT),
    "inverse": dict(kappa=4.0, **SHORT),
    "coupling_mc": dict(FLOW, gamma=2.0, bulk_points=[[0.5, 1.0]], **SHORT),
    "crossvar": dict(FLOW, gamma=2.0,
                     bulk_points=[[1.0, 2.0], [-1.0, 2.0]], **SHORT),
    "schemes": dict(FLOW, i_index=0, j_index=1, eps_tilde=0.01, c=2.0,
                    dt=1e-3, n_paths=N_PATHS),
}

KNOWN_BIASED = {
    "schemes": "ROADMAP item 4d: the scheme differences are biased, "
               "by 0.5-0.9 SE at this size",
    "crossvar": "ROADMAP item 8: an O(dt) discretization bias, which the "
                "check's 5% allowance hides",
}


def z_scores(check: str) -> dict:
    """Row name -> z of that row at config seeds 0 .. K-1, for each row
    with a nonzero SE at some seed."""
    rows = defaultdict(list)
    for seed in range(K):
        _, args = _read(dict(CONFIGS[check], check=check, seed=seed,
                             n_workers=1))
        for r in CHECKS[check][0](**args):
            rows[r.name].append((r.estimate - r.reference, r.std_error))
    out = {}
    for row, pairs in rows.items():
        diff, se = np.array(pairs).T
        if se.any():
            assert len(se) == K and se.all(), f"{row}: SE is 0 at some seed"
            out[row] = diff / se
    return out


@pytest.mark.parametrize("check", [
    pytest.param(check, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=KNOWN_BIASED[check]))
    if check in KNOWN_BIASED else check
    for check in CONFIGS])
def test_se_calibration(check):
    zs = z_scores(check)
    assert zs, f"{check} reports no row with a standard error"
    bad = []
    for row, z in zs.items():
        mean, sd = z.mean(), z.std(ddof=1)
        far = int(np.sum(np.abs(z) > 3.0))
        if abs(mean) > 4.0 / np.sqrt(K) or not 0.75 <= sd <= 1.25 or far > 3:
            bad.append(f"{row}: mean z {mean:+.3f}, sd z {sd:.3f}, "
                       f"{far} of {K} beyond 3")
    assert bad == []
