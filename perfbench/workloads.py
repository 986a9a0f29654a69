"""The benchmark's workloads and the census configs, built from a seed.

A workload is one `slelab check` config.  Its report is byte-identical for
a given (config, seed), so `reference_hashes.json` stores the SHA-256 of
the CSV and JSON reports for config seeds 0 .. SEED_TABLE-1, and the
benchmark's `--seed n` runs config seed `n % SEED_TABLE`.  Every run can
then be checked byte for byte, whatever seed it is given.
"""

from __future__ import annotations

SEED_TABLE = 16

# Why each workload was chosen is recorded in BENCHMARK.json.

# Reports are written as <out dir>/report.csv and report.json; the stem is
# echoed in the report header, so it must not depend on the machine.
OUT_STEM = "report"

WORKLOADS = {
    "girsanov-short": {
        "config": {
            "check": "girsanov", "mode": "backward", "kappa": 4.0,
            "points": [0.0, 1.0], "i_index": 0,
            "t_final": 0.05, "dt": 0.001, "n_paths": 100_000,
            "n_workers": 1,
        },
        # 2 arms x 1e5 paths x 50 substeps
        "path_steps": 2 * 100_000 * 50,
    },
    "schemes-cell": {
        "config": {
            "check": "schemes", "mode": "backward", "kappa": 4.0,
            "points": [0.0, 1.0], "i_index": 0, "j_index": 1,
            "eps_tilde": 0.01, "c": 2.0, "dt": 1e-4, "n_paths": 100_000,
            "n_workers": 2,
        },
        # scheme 1 runs 192 + 100 substeps, scheme 2 runs 92 + 200
        "path_steps": 100_000 * (192 + 100) + 100_000 * (92 + 200),
    },
    "crossvar-bulk": {
        "config": {
            "check": "crossvar", "mode": "backward", "kappa": 4.0,
            "gamma": 2.0, "points": [0.0, 1.0], "i_index": 0,
            "bulk_points": [[1.0, 2.0], [-1.0, 2.0]],
            "t_final": 0.05, "dt": 1e-4, "n_paths": 40_000,
            "n_workers": 2,
        },
        # one arm: 4e4 paths x 500 substeps
        "path_steps": 40_000 * 500,
    },
}


def config_seed(seed: int) -> int:
    return seed % SEED_TABLE


def workload_config(name: str, seed: int) -> dict:
    return dict(WORKLOADS[name]["config"], seed=config_seed(seed),
                out_path=OUT_STEM)


# Every check once at tiny size on 2 workers; the Monte Carlo checks get
# 20001 paths, so each of their ensembles runs 2 chunks through a pool.
_MC_PATHS = 20_001
_SHORT = {"t_final": 0.005, "dt": 0.001}
CENSUS = {
    "zip": {"mode": "backward", "t_final": 0.01, "dt": 0.001},
    "hcap": {"mode": "backward", "kappa": 4.0, "t_final": 0.01, "dt": 0.001},
    "bpz": {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0, 2.5]},
    "kz": {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0, 2.5]},
    "commutator": {"mode": "backward", "kappa": 4.0,
                   "points": [0.0, 1.0, 2.5], "i_index": 0, "j_index": 1},
    "schemes": {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0],
                "i_index": 0, "j_index": 1, "eps_tilde": 0.01, "c": 2.0,
                "dt": 0.001, "n_paths": _MC_PATHS},
    "martingale": {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0],
                   "i_index": 0, "n_paths": _MC_PATHS, **_SHORT},
    "girsanov": {"mode": "backward", "kappa": 4.0, "points": [0.0, 1.0],
                 "i_index": 0, "n_paths": _MC_PATHS, **_SHORT},
    "inverse": {"kappa": 4.0, "n_paths": _MC_PATHS, **_SHORT},
    "coupling_pde": {"mode": "backward", "kappa": 4.0, "gamma": 2.0,
                     "points": [0.0, 1.0], "bulk_points": [[0.5, 1.0]]},
    "coupling_mc": {"mode": "backward", "kappa": 4.0, "gamma": 2.0,
                    "points": [0.0, 1.0], "bulk_points": [[0.5, 1.0]],
                    "n_paths": _MC_PATHS, **_SHORT},
    "crossvar": {"mode": "backward", "kappa": 4.0, "gamma": 2.0,
                 "points": [0.0, 1.0],
                 "bulk_points": [[1.0, 2.0], [-1.0, 2.0]],
                 "n_paths": _MC_PATHS, **_SHORT},
}


def census_configs(seed: int) -> dict:
    return {check: dict(fields, check=check, seed=config_seed(seed),
                        n_workers=2, out_path=f"census_{check}")
            for check, fields in CENSUS.items()}
