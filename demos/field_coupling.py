"""Free-field coupling checks: boundary data, the defining PDE, and the
martingale + cross-variation pair that defines the coupling.

Run: python3 demos/field_coupling.py
"""

import numpy as np

from slelab.core import validate_config
from slelab.coupling import (
    CouplingSpec,
    boundary_u,
    coupling_martingale_check,
    coupling_pde_residual,
    cross_variation_experiment,
    green,
    green_increment_check,
    q_charge,
)
from slelab.partition import PartitionSpec


def main():
    print("half-plane Green functions:")
    for kind, mode in (("neumann", "backward"), ("dirichlet", "forward")):
        print(f"  {kind:<10} G(i, 2i) = {green(mode, 1j, 2j):+.5f}")

    print(f"\nbackground charge Q(gamma=2) = {q_charge(2.0)}"
          f" = Q(gamma=4/2) = {q_charge(4.0 / 2.0)}")
    print(f"boundary data u(2i; x=0) = {boundary_u('backward', 2j, [0.0], 4.0, (-1,)):.5f}"
          f" (= log 2)")

    cfg = validate_config((0.0, 1.0))
    print("\ndefining PDE residual at z = 1+2i:")
    back = PartitionSpec("backward", 4.0, 2)
    rows = [
        ("backward kappa=4 gamma=2", CouplingSpec(back, gamma=2.0), 0),
        ("backward kappa=1 gamma=4",
         CouplingSpec(PartitionSpec("backward", 1.0, 2), gamma=4.0), 0),
        ("forward  kappa=2        ",
         CouplingSpec(PartitionSpec("forward", 2.0, 2)), 1),
    ]
    for label, cspec, i in rows:
        print(f"  {label}  {coupling_pde_residual(cspec, 1 + 2j, cfg, i):.2e}")
    flipped = CouplingSpec(back, gamma=2.0, epsilon_signs=(1, 1))
    print(f"  flipped boundary signs    {coupling_pde_residual(flipped, 1 + 2j, cfg, 0):.2f}"
          "  <- control, must be large")

    cspec = CouplingSpec(back, gamma=2.0)
    bulk = [1 + 2j, -1 + 2j]
    print("\nh_T(z) - h_0(z) mean under the drifted measure (want 0):")
    for r in coupling_martingale_check(cspec, cfg, 0, bulk, 0.05, 1e-3,
                                       10_000, seed=0):
        flag = "ok" if r.passed else "FAIL"
        print(f"  {r.name:<28} {r.estimate:>+10.2e} +- {r.std_error:.2e}  {flag}")

    print("\ncross variation sum vs Green-function drop:")
    for r in cross_variation_experiment(cspec, cfg, 0, bulk, 0.05, 1e-4,
                                        200, seed=0):
        flag = "ok" if r.passed else "FAIL"
        print(f"  {r.name:<20} {r.estimate:>+.6f} vs {r.reference:>+.6f}  {flag}")

    worst = max(green_increment_check("backward", 4.0, *bulk, 0.02, 1e-5, seed=0),
                green_increment_check("forward", 2.0, *bulk, 0.02, 1e-5, seed=0))
    print(f"\npathwise dG identity, both modes, worst relative error: {worst:.1e}")


if __name__ == "__main__":
    main()
