"""Partition-function weights along driven paths.

Three views of the same theorem: the weight process averages to one, the
drifted simulation equals the reweighted one, and the drift itself is the
gradient of log Z.

Run: python3 demos/weight_martingale.py
"""

import math

from slelab.core import validate_config
from slelab.partition import PartitionSpec
from slelab.sampler import girsanov_check, martingale_check


def show(report):
    flag = "ok" if report.passed else "FAIL"
    print(f"  {report.name:<32} {report.estimate:>10.5f}"
          f" (+- {report.std_error:.5f}) vs {report.reference:<8g} {flag}")


def main():
    cfg = validate_config((0.0, 1.0, 3.0))
    print("drift b_i = kappa * d/dx_i log Z at (0, 1, 3):")
    for kappa in (2.0, 4.0):
        spec = PartitionSpec("backward", kappa, 3)
        grads = [float(spec.grad_log_z(cfg.as_array(), i)) for i in range(3)]
        bs = [kappa * g for g in grads]
        ss = [math.sqrt(kappa) * g for g in grads]
        print(f"  kappa={kappa}: b = {[round(b, 4) for b in bs]},"
              f" s = b/sqrt(kappa) = {[round(s, 4) for s in ss]}")

    print("\nmean of M_T/M_0 under the base measure (want 1):")
    for kappa, pts in ((2.0, (0.0, 1.0)), (4.0, (0.0, 1.0)), (4.0, (0.0, 1.0, 3.0))):
        n = len(pts)
        show(martingale_check(PartitionSpec("backward", kappa, n),
                              validate_config(pts), 0, 0.1, 1e-3, 5000, seed=0))

    print("\ndrifted-measure mean vs weight-reweighted mean of the companion:")
    spec = PartitionSpec("backward", 4.0, 2)
    two = validate_config((0.0, 1.0))
    show(girsanov_check(spec, two, 0, None, 0.05, 1e-3, 20_000, seed=0))
    # with a tight stopping bound all paths freeze immediately but the
    # equality still holds (optional stopping)
    show(girsanov_check(spec, two, 0, None, 0.05, 1e-3, 20_000, bound_n=0.5,
                        seed=0))


if __name__ == "__main__":
    main()
