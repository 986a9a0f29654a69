"""Command line front end: JSON experiment configs in, CSV/JSON reports out.

Subcommand `check` runs one named check from a config file; `sweep`
expands array-valued kappa / points / eps_tilde fields into a Cartesian
product, writes one report per cell plus a summary CSV.

Reports are byte-identical across reruns of the same (config, seed): no
timestamps, floats written with repr, JSON keys sorted.  Exit codes:
0 all rows pass, 1 some row failed, 2 any core.ConfigError (a field
outside the check's list in CHECKS, an invalid value, duplicate points, a
squared gap that overflows), 3 any core.NumericalFailure (a blowup,
excess swallowing, weight collapse).  Either prints one stderr line.

Indices (i_index, j_index) are 0-based.  bound_n is a multiple of the
initial weight M_0, so 0.5 means "stop when |M| exceeds half its start".
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .commutation import (
    arctan_sum,
    commutation_experiment,
    commutator_residual,
)
from .core import (
    BACKWARD,
    MODES,
    ConfigError,
    DrivingPath,
    McReport,
    NumericalFailure,
    PointConfig,
    make_report,
    normal_block,
    validate_config,
)
from .coupling import (
    CouplingSpec,
    coupling_martingale_check,
    coupling_pde_residual,
    cross_variation_experiment,
    green_increment_check,
)
from .loewner import (
    DEFAULT_PROBE_RADIUS,
    ChainState,
    evolve,
    extract_hcap,
    initial_state,
    reference_map_zero_driving,
)
from .partition import (
    PartitionSpec,
    bpz_residual,
    kz_residual,
)
from .sampler import (
    check_horizon,
    girsanov_check,
    inverse_law_check,
    martingale_check,
    step_windows,
)

EXIT_PASS = 0
EXIT_FAILED_ROW = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3

ENV_WORKERS = "SLELAB_WORKERS"

# identity check runs at its own fine step so the 1e-6 target is meaningful
_GREEN_ID_T = 0.01
_GREEN_ID_DT = 1e-5

_DEFAULT_ZIP_GRID = tuple(
    complex(re, im)
    for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
    for im in (0.5, 1.0, 1.5, 2.0, 2.5)
)


# ---------------------------------------------------------------------------
# Config fields: _READERS maps each field to reader(field, value), which
# checks the value's type and bounds and returns it; runners read via _get


def _real(field: str, val) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {val!r}")
    try:
        if math.isfinite(out := float(val)):
            return out
    except OverflowError:     # an integer beyond the float range
        pass
    raise ConfigError(f"field {field!r} must be finite, got {val!r}")


def _positive(field: str, val) -> float:
    if (val := _real(field, val)) <= 0:
        raise ConfigError(f"field {field!r} must be positive, got {val!r}")
    return val


def _integer(field: str, val) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"field {field!r} must be an integer, got {val!r}")
    return val


def _count(field: str, val) -> int:
    if (val := _integer(field, val)) < 1:
        raise ConfigError(f"field {field!r} must be >= 1, got {val}")
    return val


def _mode(field: str, mode) -> str:
    if mode not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    return mode


def _points(field: str, raw) -> PointConfig:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'points' must be a non-empty array of reals")
    return validate_config([_real(field, v) for v in raw])


def _bulk_points(field: str, raw) -> List[complex]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(
            "field 'bulk_points' must be an array of at least 1 [re, im] pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(
                f"each bulk point must be a [re, im] pair of reals, got {entry!r}")
        z = complex(*(_real(field, v) for v in entry))
        if z.imag <= 0:
            raise ConfigError(f"bulk point {entry!r} must have positive imaginary part")
        out.append(z)
    return out


_READERS: dict[str, Callable] = {
    "mode": _mode, "points": _points, "bulk_points": _bulk_points,
    **dict.fromkeys(("kappa", "t_final", "dt", "eps_tilde", "c", "bound_n",
                     "fd_step"), _positive),
    "gamma": _real,
    **dict.fromkeys(("n_paths", "n_workers"), _count),
    **dict.fromkeys(("seed", "i_index", "j_index"), _integer),
}
_REQUIRED = object()


def _get(config: dict, field: str, default=_REQUIRED):
    """The checked value of `field`, or `default` where it is absent."""
    if field in config:
        return _READERS[field](field, config[field])
    if default is _REQUIRED:
        raise ConfigError(f"missing required field {field!r}")
    return default


def _index(config: dict, field: str, n_points: int, default=_REQUIRED):
    val = _get(config, field, default)
    if val is not None and not 0 <= val < n_points:
        raise ConfigError(
            f"field {field!r} must be a 0-based index below {n_points}, got {val}")
    return val


def _times(config: dict) -> tuple[float, float]:
    t_final = _get(config, "t_final")
    dt = _get(config, "dt")
    if not dt < t_final:
        raise ConfigError(f"dt ({dt!r}) must be smaller than t_final ({t_final!r})")
    return t_final, dt


def _uniform_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Round to a whole number of equal substeps covering t_final exactly."""
    check_horizon(t_final, dt)
    n = max(1, int(round(t_final / dt)))
    return n, t_final / n


def resolve_workers(config: dict) -> int:
    """SLELAB_WORKERS, else n_workers, else the CPU count (1 if unknown);
    n_workers is checked also where the environment overrides it."""
    n_workers = _get(config, "n_workers", None)
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{ENV_WORKERS} must be an integer, got {env!r}")
    return n_workers or os.cpu_count() or 1


def _flow(config: dict, check: str, min_points: int = 1):
    """(PartitionSpec, PointConfig) from mode, kappa and points."""
    mode = _get(config, "mode", BACKWARD)
    kappa = _get(config, "kappa")
    cfg = _get(config, "points")
    if len(cfg) < min_points:
        raise ConfigError(f"{check} check needs at least {min_points} points")
    return PartitionSpec(mode, kappa, len(cfg)), cfg


def _pair(config: dict, n_points: int,
          defaults=(_REQUIRED, _REQUIRED)) -> tuple[int, Optional[int]]:
    i = _index(config, "i_index", n_points, defaults[0])
    j = _index(config, "j_index", n_points, defaults[1])
    if i == j:
        raise ConfigError("i_index and j_index must differ")
    return i, j


def _indices(config: dict, n_points: int) -> Sequence[int]:
    """The optional i_index, or every index when it is absent."""
    i_index = _index(config, "i_index", n_points, None)
    return range(n_points) if i_index is None else [i_index]


def _ensemble(config: dict) -> tuple[float, float, int, int]:
    """(t_final, dt, n_paths, seed) of a Monte Carlo check."""
    t_final, dt = _times(config)
    return t_final, dt, _get(config, "n_paths"), _get(config, "seed", 0)


def _coupling(config: dict):
    """(PointConfig, CouplingSpec) of a coupling check, with the spec
    checked against the coupling theorems."""
    spec, cfg = _flow(config, "coupling")
    cspec = CouplingSpec(spec, gamma=_get(config, "gamma", None))
    cspec.require_coupled()
    return cfg, cspec


def _exact_row(name: str, estimate: float, tolerance: float,
               n_samples: int = 1, reference: float = 0.0) -> McReport:
    """Row of a deterministic check: no standard error."""
    return make_report(name=name, estimate=float(estimate), std_error=0.0,
                       reference=reference, tolerance=tolerance,
                       n_samples=n_samples)


# ---------------------------------------------------------------------------
# Check runners (config dict -> McReport rows)


def _evolve_windows(state: ChainState, n: int, dt: float,
                    steps: Callable[[int, int], np.ndarray]
                    ) -> Tuple[ChainState, float]:
    """(final state, max |W|) of evolving `state` by n substeps of dt
    driven from W = 0, one step window at a time, so memory does not grow
    with the horizon; steps(a, b) gives the driving increments of steps
    a .. b - 1.  The last driving value is carried into each window's
    cumsum, so the values keep the bits of one sequential sum."""
    value = reach = 0.0
    for a, b in step_windows(n):
        inc = steps(a, b)
        inc[0] += value
        values = np.empty(b - a + 1)
        values[0] = value
        np.cumsum(inc, out=values[1:])
        state = evolve(state, DrivingPath(dt, values), first_step=a)
        value = values[-1]
        reach = max(reach, float(np.max(np.abs(values))))
    return state, reach


def _run_zip(config: dict, workers: int) -> List[McReport]:
    mode = _get(config, "mode", BACKWARD)
    t_final, dt = _times(config)
    bulk = _get(config, "bulk_points", list(_DEFAULT_ZIP_GRID))
    n, dt_eff = _uniform_steps(t_final, dt)
    final, _ = _evolve_windows(initial_state(mode, bulk=bulk), n, dt_eff,
                               lambda a, b: np.zeros(b - a))
    return [_exact_row(f"zip_z_re{z.real:g}_im{z.imag:g}",
                       abs(final.bulk_values[k]
                           - reference_map_zero_driving(z, t_final, mode)),
                       1e-10, n)
            for k, z in enumerate(bulk)]


def _run_hcap(config: dict, workers: int) -> List[McReport]:
    mode = _get(config, "mode", BACKWARD)
    kappa = _get(config, "kappa")
    t_final, dt = _times(config)
    seed = _get(config, "seed", 0)
    n, dt_eff = _uniform_steps(t_final, dt)

    def steps(a: int, b: int) -> np.ndarray:
        incs = normal_block(seed, 0, 1, b - a, a)[0] * math.sqrt(dt_eff)
        return np.sqrt(kappa) * incs

    radius = DEFAULT_PROBE_RADIUS
    final, reach = _evolve_windows(
        initial_state(mode, bulk=(1j * radius, 2j * radius)), n, dt_eff,
        steps)
    # the capacity is read off the 1/z expansion about 0
    if not reach < radius / 100:
        raise NumericalFailure(f"the driving reaches |W| = {reach:g}, not "
                               f"small against the probe radius {radius:g}")
    return [_exact_row(f"hcap_k{kappa:g}_t{t_final:g}",
                       extract_hcap(mode, *final.bulk_values, radius), 1e-4, n,
                       reference=2.0 * t_final)]


def _residual_check(fn: Callable, label: str, tolerance: float) -> Callable:
    """Runner of the FD residual `fn`: one row per index."""
    def run(config: dict, workers: int) -> List[McReport]:
        spec, cfg = _flow(config, label)
        fd_step = _get(config, "fd_step", None)
        return [_exact_row(f"{label}_i{i}", fn(spec, cfg, i, fd_step=fd_step),
                           tolerance)
                for i in _indices(config, len(cfg))]
    return run


def _run_commutator(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "commutator", min_points=2)
    i, j = _pair(config, len(cfg))
    fd_step = _get(config, "fd_step", None)
    observables = [("x0x1", lambda x: x[0] * x[1]), ("arctan_sum", arctan_sum)]
    return [_exact_row(f"commutator_{obs_name}",
                       commutator_residual(spec, phi, cfg, i, j,
                                           fd_step=fd_step), 1e-4)
            for obs_name, phi in observables]


def _run_schemes(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "schemes", min_points=2)
    i, j = _pair(config, len(cfg))
    return commutation_experiment(
        spec, cfg, i, j, _get(config, "eps_tilde"), _get(config, "c"),
        _get(config, "dt"), _get(config, "n_paths"),
        seed=_get(config, "seed", 0), n_workers=workers)


def _run_martingale(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "martingale")
    i = _index(config, "i_index", len(cfg), 0)
    t_final, dt, n_paths, seed = _ensemble(config)
    return [martingale_check(spec, cfg, i, t_final, dt, n_paths,
                             bound_n=_get(config, "bound_n", 10.0), seed=seed,
                             n_workers=workers)]


def _run_girsanov(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "girsanov", min_points=2)
    i, j = _pair(config, len(cfg), defaults=(0, None))
    t_final, dt, n_paths, seed = _ensemble(config)
    return [girsanov_check(spec, cfg, i, j, t_final, dt, n_paths,
                           bound_n=_get(config, "bound_n", 10.0), seed=seed,
                           n_workers=workers)]


def _run_inverse(config: dict, workers: int) -> List[McReport]:
    kappa = _get(config, "kappa")
    t_final, dt, n_paths, seed = _ensemble(config)
    z0, *rest = _get(config, "bulk_points", [2j])
    if rest:
        raise ConfigError("inverse check takes one bulk point, got "
                          f"{len(rest) + 1}")
    return inverse_law_check(kappa, z0, t_final, dt, n_paths, seed=seed,
                             n_workers=workers)


def _run_coupling_pde(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    bulk = _get(config, "bulk_points")
    fd_step = _get(config, "fd_step", None)
    indices = _indices(config, len(cfg))
    return [_exact_row(f"coupling_pde_z{m}_i{i}",
                       coupling_pde_residual(cspec, z, cfg, i, fd_step=fd_step),
                       1e-4)
            for m, z in enumerate(bulk) for i in indices]


def _run_coupling_mc(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    i = _index(config, "i_index", len(cfg), 0)
    bulk = _get(config, "bulk_points")
    t_final, dt, n_paths, seed = _ensemble(config)
    return coupling_martingale_check(cspec, cfg, i, bulk, t_final, dt,
                                     n_paths, seed=seed, n_workers=workers)


def _run_crossvar(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    i = _index(config, "i_index", len(cfg), 0)
    bulk = _get(config, "bulk_points")
    t_final, dt, n_paths, seed = _ensemble(config)
    rows = cross_variation_experiment(cspec, cfg, i, bulk, t_final, dt,
                                      n_paths, seed=seed, n_workers=workers)
    worst = green_increment_check(cspec.mode, cspec.kappa, bulk[0], bulk[1],
                                  _GREEN_ID_T, _GREEN_ID_DT, seed=seed)
    rows.append(_exact_row("green_increment_identity", worst, 1e-6,
                           int(round(_GREEN_ID_T / _GREEN_ID_DT))))
    return rows


# Each check's runner and the fields it reads; a config may also carry
# "check", "out_path", "seed" (echoed in the report header) and "n_workers"
_FLOW = ("mode", "kappa", "points")
_RESIDUAL = (*_FLOW, "i_index", "fd_step")
_TIMES = ("t_final", "dt")
_ENSEMBLE = (*_TIMES, "n_paths")
_COUPLING = (*_FLOW, "gamma", "bulk_points", "i_index")
_UNIVERSAL = ("check", "out_path", "seed", "n_workers")
CHECKS: dict[str, tuple[Callable[[dict, int], List[McReport]],
                        tuple[str, ...]]] = {
    "zip": (_run_zip, ("mode", *_TIMES, "bulk_points")),
    "hcap": (_run_hcap, ("mode", "kappa", *_TIMES)),
    "bpz": (_residual_check(bpz_residual, "bpz", 1e-5), _RESIDUAL),
    "kz": (_residual_check(kz_residual, "kz", 1e-7), _RESIDUAL),
    "commutator": (_run_commutator, (*_RESIDUAL, "j_index")),
    "schemes": (_run_schemes, (*_FLOW, "i_index", "j_index", "eps_tilde",
                               "c", "dt", "n_paths")),
    "martingale": (_run_martingale, (*_FLOW, "i_index", "bound_n",
                                     *_ENSEMBLE)),
    "girsanov": (_run_girsanov, (*_FLOW, "i_index", "j_index", "bound_n",
                                 *_ENSEMBLE)),
    "inverse": (_run_inverse, ("kappa", "bulk_points", *_ENSEMBLE)),
    "coupling_pde": (_run_coupling_pde, (*_COUPLING, "fd_step")),
    "coupling_mc": (_run_coupling_mc, (*_COUPLING, *_ENSEMBLE)),
    "crossvar": (_run_crossvar, (*_COUPLING, *_ENSEMBLE)),
}


# ---------------------------------------------------------------------------
# Report files

CSV_COLUMNS = ("check", "name", "estimate", "std_error", "reference",
               "tolerance", "n_samples", "pass")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_dict(check: str, row: McReport) -> dict:
    return {
        "check": check,
        "name": row.name,
        "estimate": float(row.estimate),
        "std_error": float(row.std_error),
        "reference": float(row.reference),
        "tolerance": float(row.tolerance),
        "n_samples": int(row.n_samples),
        "pass": bool(row.passed),
    }


def _out_base(config: dict, check: str, out_dir: Optional[str]) -> Path:
    raw = config.get("out_path", f"report_{check}")
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"field 'out_path' must be a non-empty string, got {raw!r}")
    base = Path(raw)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    if out_dir is not None:
        base = Path(out_dir) / base.name
    return base


def write_report(base: Path, check: str, config: dict,
                 rows: Sequence[McReport]) -> None:
    base.parent.mkdir(parents=True, exist_ok=True)
    seed = config.get("seed", 0)
    echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
    dicts = [_row_dict(check, r) for r in rows]
    lines = [
        f"# artifact_version: {__version__}",
        f"# seed: {seed}",
        f"# config: {echo}",
        ",".join(CSV_COLUMNS),
    ]
    for d in dicts:
        lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    base.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    twin = {
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "rows": dicts,
    }
    base.with_suffix(".json").write_text(
        json.dumps(twin, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except ValueError as exc:     # also an integer of over 4300 digits
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _check_name(config: dict) -> str:
    """The config's check; a field the check does not read is refused."""
    if "check" not in config:
        raise ConfigError("missing required field 'check'")
    check = config["check"]
    if not isinstance(check, str) or check not in CHECKS:
        raise ConfigError(
            f"field 'check' must be one of {sorted(CHECKS)}, got {check!r}")
    unknown = sorted(set(config) - set(CHECKS[check][1]) - set(_UNIVERSAL))
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} for check {check!r}")
    return check


def run_check(config: dict, out_dir: Optional[str] = None) -> List[McReport]:
    """Run the config's check, write its report and print its summary."""
    check = _check_name(config)
    workers = resolve_workers(config)
    _get(config, "seed", 0)     # echoed in the report, read or not
    rows = CHECKS[check][0](config, workers)
    base = _out_base(config, check, out_dir)
    write_report(base, check, config, rows)
    n_pass = sum(1 for r in rows if r.passed)
    print(f"{check}: {n_pass}/{len(rows)} rows pass -> {base.with_suffix('.csv')}")
    for r in rows:
        if not r.passed:
            print(f"  FAIL {r.name}: estimate {r.estimate!r} vs "
                  f"reference {r.reference!r} (tolerance {r.tolerance!r})")
    return rows


_SWEEPABLE = ("kappa", "points", "eps_tilde")


def _sweep_values(config: dict) -> tuple[list[str], list[list]]:
    fields, values = [], []
    for field in _SWEEPABLE:
        val = config.get(field)
        if not isinstance(val, list):
            continue
        if not val:
            raise ConfigError(f"sweep field {field!r} is empty")
        # an array of arrays sweeps points; a flat array is one config
        if field != "points" or all(isinstance(v, list) for v in val):
            fields.append(field)
            values.append(val)
    if not fields:
        raise ConfigError(
            f"sweep needs at least one array-valued field among {_SWEEPABLE}")
    return fields, values


def run_sweep(config: dict, out_dir: Optional[str] = None) -> int:
    check = _check_name(config)
    fields, values = _sweep_values(config)
    base = _out_base(config, check, out_dir)
    summary = [
        f"# artifact_version: {__version__}",
        f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}",
        "cell," + ",".join(fields) + ",n_rows,n_pass,all_pass",
    ]
    worst = EXIT_PASS
    for cell, combo in enumerate(itertools.product(*values)):
        cell_config = dict(config)
        for field, val in zip(fields, combo):
            cell_config[field] = val
        cell_config["out_path"] = f"{base}_cell{cell:03d}"
        rows = run_check(cell_config, out_dir=None)
        n_rows, n_pass = len(rows), sum(1 for r in rows if r.passed)
        if n_pass < n_rows:
            worst = EXIT_FAILED_ROW
        cells = [json.dumps(v, separators=(",", ":")).replace(",", ";")
                 for v in combo]
        summary.append(
            f"{cell}," + ",".join(cells)
            + f",{n_rows},{n_pass},{_fmt(n_pass == n_rows)}")
    summary_path = Path(f"{base}_summary.csv")
    summary_path.write_text("\n".join(summary) + "\n")
    print(f"sweep: {summary_path}")
    return worst


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slelab",
        description="Loewner-flow checks: JSON config in, CSV/JSON report out.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("check", "run one named check"),
                            ("sweep", "expand array-valued fields into cells")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", default=None,
                       help="directory overriding the config out_path location")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "check":
            rows = run_check(config, out_dir=args.out)
            return EXIT_PASS if all(r.passed for r in rows) else EXIT_FAILED_ROW
        return run_sweep(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
