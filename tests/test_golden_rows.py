"""Golden report rows for ensembles of three and four points.

Every benchmark workload and census ensemble has two points, so nothing
else pins the order in which the kernels add per-point terms (the drift,
sum log f', the pairs of log Z): reordering any of those sums changes
the last bits of these rows.  The expected values were recorded from the
row-major kernels that preceded the column-major ensemble state.
"""

import pytest

from slelab import sampler
from slelab.commutation import commutation_experiment
from slelab.core import McReport, validate_config
from slelab.coupling import (CouplingSpec, coupling_martingale_check,
                             cross_variation_experiment)
from slelab.partition import PartitionSpec
from slelab.sampler import girsanov_check, martingale_check

POINTS = {"N3": (0.0, 1.0, 3.0), "N4": (0.0, 1.0, 3.0, 4.5)}
T, DT, PATHS, SEED = 0.05, 1e-3, 300, 0
# the driver sits in slot 1, between companions on both sides
I = 1
BULK = (0.5 + 1j, 2.0 + 1.5j)
PAIR_BULK = (1 + 2j, -1 + 2j)
SCHEME_PAIR = {"N3": (0, 1), "N4": (1, 2)}


def _run(case: str) -> list[McReport]:
    check, mode, tag = case.split("-")
    pts = POINTS[tag]
    cfg = validate_config(pts)
    n = len(pts)
    if check in ("martingale", "girsanov", "schemes"):
        spec = PartitionSpec(mode, 4.0, n)
        if check == "martingale":
            return [martingale_check(spec, cfg, I, T, DT, PATHS, seed=SEED)]
        if check == "girsanov":
            return [girsanov_check(spec, cfg, I, None, T, DT, PATHS,
                                   seed=SEED)]
        i, j = SCHEME_PAIR[tag]
        return commutation_experiment(spec, cfg, i, j, 0.01, 2.0, DT, PATHS,
                                      seed=SEED)
    if mode == "backward":
        cspec = CouplingSpec(PartitionSpec(mode, 4.0, n), gamma=2.0)
    else:
        cspec = CouplingSpec(PartitionSpec(mode, 2.0, n))
    if check.startswith("coupling_mc"):
        # coupling_mc1: one bulk point, whose field terms einsum adds
        bulk = BULK[:1] if check == "coupling_mc1" else BULK
        return coupling_martingale_check(cspec, cfg, I, bulk, T, DT, PATHS,
                                         seed=SEED)
    return cross_variation_experiment(cspec, cfg, I, PAIR_BULK, T, DT, PATHS,
                                      seed=SEED)


# (name, estimate, std_error, reference, tolerance, n_samples, passed); the
# crossvar rows fail their 5% tolerance at 300 paths and are kept as bytes
EXPECTED = {
    'martingale-backward-N3': [
        ('martingale_mean_weight_k4_N3', 0.981013309471144, 0.008483298080691986,
         1.0, 0.025449894242075957, 300, True),
    ],
    'girsanov-backward-N3': [
        ('girsanov', 0.10055154672685307, 0.002041068395256011,
         0.10043806539830363, 0.006123205185768033, 300, True),
    ],
    'martingale-forward-N3': [
        ('martingale_mean_weight_k4_N3', 1.0169145995923237, 0.006394933784374463,
         1.0, 0.01918480135312339, 300, True),
    ],
    'girsanov-forward-N3': [
        ('girsanov', -0.09589399548226027, 0.001563665676432576,
         -0.09776733398450482, 0.004690997029297728, 300, True),
    ],
    'coupling_mc-backward-N3': [
        ('coupling_drift_z0_re0.5_im1', 0.009901836813648576, 0.00903110469796254,
         0.0, 0.02709331409388762, 300, True),
        ('coupling_drift_z1_re2_im1.5', -0.01386238558155692, 0.006932196678786317,
         0.0, 0.02079659003635895, 300, True),
    ],
    'coupling_mc-forward-N3': [
        ('coupling_drift_z0_re0.5_im1', -0.04433794418621402, 0.018581002251831232,
         0.0, 0.05574300675549369, 300, True),
        ('coupling_drift_z1_re2_im1.5', -0.02190601799554404, 0.011818659523139189,
         0.0, 0.03545597856941757, 300, True),
    ],
    'crossvar-backward-N3': [
        ('crossvar_pair_0_1', -7.95293239578994e-06, 3.493008840904328e-05,
         9.227324779114217e-05, 4.613662389557109e-06, 300, False),
    ],
    'martingale-backward-N4': [
        ('martingale_mean_weight_k4_N4', 0.988414924023515, 0.006468472250083249,
         1.0, 0.019405416750249746, 300, True),
    ],
    'girsanov-backward-N4': [
        ('girsanov', 0.10015494197740844, 0.0019981312865635986,
         0.10128261742421463, 0.005994393859690796, 300, True),
    ],
    'martingale-forward-N4': [
        ('martingale_mean_weight_k4_N4', 1.011063693415903, 0.0047064820401715385,
         1.0, 0.014119446120514616, 300, True),
    ],
    'girsanov-forward-N4': [
        ('girsanov', -0.09669047842200433, 0.0015906243489947382,
         -0.09882467024555938, 0.0047718730469842145, 300, True),
    ],
    'coupling_mc-backward-N4': [
        ('coupling_drift_z0_re0.5_im1', 0.010197553345285014, 0.00915211433618581,
         0.0, 0.027456343008557427, 300, True),
        ('coupling_drift_z1_re2_im1.5', -0.0149851461660311, 0.006828552374765316,
         0.0, 0.020485657124295946, 300, True),
    ],
    'coupling_mc-forward-N4': [
        ('coupling_drift_z0_re0.5_im1', -0.044853791936636585, 0.0188126853359864,
         0.0, 0.0564380560079592, 300, True),
        ('coupling_drift_z1_re2_im1.5', -0.021664308262189978, 0.01171838098070475,
         0.0, 0.03515514294211425, 300, True),
    ],
    'crossvar-backward-N4': [
        ('crossvar_pair_0_1', 0.00013284369160268073, 3.497558501719275e-05,
         0.0002254525077734145, 1.1272625388670725e-05, 300, False),
    ],
    'schemes-backward-N3': [
        ('scheme_diff_x_0', 0.06707696547278114, 0.022406155744433717,
         0.06394326731631111, 0.06721846723330115, 577, True),
        ('scheme_diff_x_1', 0.9624485752705789, 0.016906294086893967,
         0.9388961247204821, 0.0507188822606819, 577, True),
        ('scheme_diff_x_2', 2.9770882647618806, 6.932710266259123e-05,
         2.9771672800473796, 0.001, 577, True),
        ('scheme_diff_phi', 2.0649130029631375, 0.022488627708211712,
         2.0524463927598453, 0.06746588312463514, 577, True),
    ],
    'schemes-backward-N4': [
        ('scheme_diff_x_0', 0.04943976146364294, 0.0007895241378413378,
         0.04999409772587315, 0.0023685724135240134, 599, True),
        ('scheme_diff_x_1', 1.0037927970653042, 0.023319241573901053,
         1.0081264781273718, 0.06995772472170315, 599, True),
        ('scheme_diff_x_2', 2.9947290183811615, 0.016847166466298722,
         2.9559022645921944, 0.05054149939889617, 599, True),
        ('scheme_diff_x_3', 4.475119694393221, 9.077989856039613e-05,
         4.475342624744633, 0.001, 599, True),
        ('scheme_diff_phi', 3.4170580817627543, 0.011699835317853903,
         3.411243080276538, 0.03509950595356171, 599, True),
    ],
    'coupling_mc1-backward-N3': [
        ('coupling_drift_z0_re0.5_im1', 0.009901836813648816, 0.00903110469796254,
         0.0, 0.02709331409388762, 300, True),
    ],
    'coupling_mc1-forward-N3': [
        ('coupling_drift_z0_re0.5_im1', -0.04433794418621397, 0.01858100225183123,
         0.0, 0.055743006755493686, 300, True),
    ],
    'coupling_mc1-backward-N4': [
        ('coupling_drift_z0_re0.5_im1', 0.010197553345285463, 0.009152114336185808,
         0.0, 0.027456343008557423, 300, True),
    ],
    'coupling_mc1-forward-N4': [
        ('coupling_drift_z0_re0.5_im1', -0.04485379193663649, 0.0188126853359864,
         0.0, 0.0564380560079592, 300, True),
    ],
}


# with TILE 7 the kernels see 43 tiles of 6 or 7 paths in place of one of
# 300, and joining the tiles' rows must keep every bit of the chunk sums
@pytest.mark.parametrize("case, tile", [
    *(pytest.param(case, None, id=case) for case in sorted(EXPECTED)),
    *(pytest.param(case, 7, id=f"{case}-tile7") for case in sorted(EXPECTED)),
])
def test_golden_rows(case, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(sampler, "TILE", tile)
    assert _run(case) == [McReport(*row) for row in EXPECTED[case]]
