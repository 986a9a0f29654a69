"""Walk through the slit-map integrator: closed form, capacity, inverse law.

Run: python3 demos/zipper_map.py
"""

import numpy as np

from slelab.core import build_driving_path, normal_block
from slelab.loewner import (
    Swallowed,
    evolve,
    extract_hcap,
    initial_state,
    reference_map_zero_driving,
    sqrt_him,
)
from slelab.sampler import inverse_law_check


def closed_form_table():
    print("backward chain, zero driving: f_t(z) vs sqrt(z^2 - 4t)")
    print(f"{'z':>12} {'t':>5} {'f_t(z)':>24} {'|err|':>10}")
    zs = (0.5 + 0.5j, 1 + 1j, -2 + 0.3j, 2j)
    for t in (0.1, 0.5, 1.0):
        state = evolve(initial_state("backward", bulk=zs),
                       build_driving_path(4.0, 0.0, np.zeros(20), t / 20))
        for k, z in enumerate(zs):
            got = state.bulk_values[k]
            ref = sqrt_him(z * z - 4 * t)
            print(f"{z!s:>12} {t:>5.2f} {got:>24.12f} {abs(got - ref):>10.2e}")


def capacity_demo():
    # hcap(K_t) = 2t no matter what the driver does
    R = 1e4
    dt, T = 1e-4, 0.5
    inc = np.sqrt(dt) * normal_block(0, 0, 1, int(T / dt))[0]
    path = build_driving_path(4.0, 0.0, inc, dt)
    state = evolve(initial_state("backward", bulk=(1j * R, 2j * R)), path)
    print(f"\nstochastic driving, kappa=4, T={T}:"
          f" hcap = {extract_hcap('backward', *state.bulk_values, R):.8f}"
          f" (want {2 * T})")


def inverse_demo():
    print("\nbackward map vs inverted forward map at z0 = 2i, kappa = 2:")
    for r in inverse_law_check(2.0, 2j, 0.1, 1e-3, 10_000, seed=0):
        flag = "ok" if r.passed else "MISMATCH"
        print(f"  {r.name:<18} {r.estimate:>12.6f} vs {r.reference:>12.6f}  {flag}")


if __name__ == "__main__":
    closed_form_table()
    capacity_demo()
    inverse_demo()
    # the forward reference has a swallowing region; show the guard
    try:
        reference_map_zero_driving(1j, 1.0, "forward")
    except Swallowed as exc:
        print(f"\nforward closed form refuses absorbed points: {exc}")
