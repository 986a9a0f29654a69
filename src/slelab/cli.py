"""Command line front end: JSON experiment configs in, CSV/JSON reports out.

Subcommand `check` runs one named check from a config file; `sweep`
expands array-valued kappa / points / eps_tilde fields into a Cartesian
product, writes one report per cell plus a summary CSV.

Reports are byte-identical across reruns of the same (config, seed): no
timestamps, floats written with repr, JSON keys sorted.  Exit codes:
0 all rows pass, 1 some row failed, 2 config error (missing or invalid
field, infeasible eps_tilde, duplicate points, a horizon shorter than one
substep or with more substeps than an array can hold, a Z or squared gap
outside the float range, an unusable finite-difference step), 3 numerical
failure (blowup, overflowing power sums, excess swallowing or a scheme
with no path left, weight collapse, probe trouble).

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
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import __version__
from .commutation import (
    EpsilonTooLarge,
    arctan_sum,
    commutation_experiment,
    commutator_residual,
)
from .core import (
    BACKWARD,
    MODES,
    DrivingPath,
    DuplicatePoint,
    McReport,
    OutOfFloatRange,
    PointConfig,
    make_report,
    normal_block,
    validate_config,
)
from .coupling import (
    BadCouplingParameters,
    CoincidentPoints,
    coupling_martingale_check,
    coupling_pde_residual,
    cross_variation_experiment,
    green_increment_check,
    make_coupling_spec,
)
from .loewner import (
    ChainState,
    ProbeTooClose,
    Swallowed,
    SwallowedReference,
    evolve,
    extract_hcap,
    initial_state,
    reference_map_zero_driving,
)
from .partition import (
    PartitionSpec,
    StepTooLarge,
    bpz_residual,
    kz_residual,
    z_value,
)
from .sampler import (
    EffectiveSampleCollapse,
    HorizonTooLong,
    HorizonTooShort,
    NumericalBlowup,
    RaggedGrid,
    SwallowedTooOften,
    check_horizon,
    companion_observable,
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

_CONFIG_ERRORS = (DuplicatePoint, EpsilonTooLarge, BadCouplingParameters,
                  StepTooLarge, CoincidentPoints, RaggedGrid, HorizonTooShort,
                  HorizonTooLong, OutOfFloatRange)
_NUMERIC_ERRORS = (NumericalBlowup, EffectiveSampleCollapse, SwallowedTooOften,
                   Swallowed, SwallowedReference, ProbeTooClose)

# identity check runs at its own fine step so the 1e-6 target is meaningful
_GREEN_ID_T = 0.01
_GREEN_ID_DT = 1e-5

_DEFAULT_ZIP_GRID = tuple(
    complex(re, im)
    for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
    for im in (0.5, 1.0, 1.5, 2.0, 2.5)
)


class ConfigError(ValueError):
    """Bad or missing experiment-config field."""


# ---------------------------------------------------------------------------
# Field access with diagnostics naming the field


def _require(config: dict, field: str):
    if field not in config:
        raise ConfigError(f"missing required field {field!r}")
    return config[field]


def _number(config: dict, field: str, required: bool = False,
            default: Optional[float] = None, positive: bool = False) -> Optional[float]:
    if field not in config:
        if required:
            raise ConfigError(f"missing required field {field!r}")
        return default
    val = config[field]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field {field!r} must be a number, got {val!r}")
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(f"field {field!r} must be finite, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"field {field!r} must be positive, got {val!r}")
    return val


def _integer(config: dict, field: str, required: bool = False,
             default: Optional[int] = None, minimum: Optional[int] = None) -> Optional[int]:
    if field not in config:
        if required:
            raise ConfigError(f"missing required field {field!r}")
        return default
    val = config[field]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"field {field!r} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"field {field!r} must be >= {minimum}, got {val}")
    return val


def _mode(config: dict) -> str:
    mode = config.get("mode", BACKWARD)
    if mode not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    return mode


def _points(config: dict) -> PointConfig:
    raw = _require(config, "points")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'points' must be a non-empty array of reals")
    try:
        pts = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        raise ConfigError(f"field 'points' must contain only reals, got {raw!r}")
    if not all(math.isfinite(p) for p in pts):
        raise ConfigError("field 'points' must contain only finite reals")
    validate_config(pts)
    return PointConfig(pts)


def _bulk_points(config: dict, required: bool = False,
                 minimum: int = 1) -> Optional[List[complex]]:
    if "bulk_points" not in config:
        if required:
            raise ConfigError("missing required field 'bulk_points'")
        return None
    raw = config["bulk_points"]
    if not isinstance(raw, list) or len(raw) < minimum:
        raise ConfigError(
            f"field 'bulk_points' must be an array of at least {minimum} [re, im] pairs")
    out = []
    for entry in raw:
        if (not isinstance(entry, list) or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in entry)):
            raise ConfigError(
                f"each bulk point must be a [re, im] pair of reals, got {entry!r}")
        z = complex(float(entry[0]), float(entry[1]))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConfigError(f"bulk point {entry!r} must be finite")
        if z.imag <= 0:
            raise ConfigError(f"bulk point {entry!r} must have positive imaginary part")
        out.append(z)
    return out


def _index(config: dict, field: str, n_points: int, required: bool = False,
           default: Optional[int] = None) -> Optional[int]:
    val = _integer(config, field, required=required, default=default)
    if val is not None and not 0 <= val < n_points:
        raise ConfigError(
            f"field {field!r} must be a 0-based index below {n_points}, got {val}")
    return val


def _times(config: dict) -> tuple[float, float]:
    t_final = _number(config, "t_final", required=True, positive=True)
    dt = _number(config, "dt", required=True, positive=True)
    if not dt < t_final:
        raise ConfigError(f"dt ({dt!r}) must be smaller than t_final ({t_final!r})")
    return t_final, dt


def _uniform_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Round to a whole number of equal substeps covering t_final exactly."""
    check_horizon(t_final, dt)
    n = max(1, int(round(t_final / dt)))
    return n, t_final / n


def resolve_workers(config: dict) -> int:
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{ENV_WORKERS} must be an integer, got {env!r}")
    val = _integer(config, "n_workers", default=None, minimum=1)
    if val is not None:
        return val
    return os.cpu_count() or 1


def _flow(config: dict, check: str, min_points: int = 1):
    """(PartitionSpec, PointConfig) from mode, kappa and points."""
    mode = _mode(config)
    kappa = _number(config, "kappa", required=True, positive=True)
    cfg = _points(config)
    if len(cfg) < min_points:
        raise ConfigError(f"{check} check needs at least {min_points} points")
    return PartitionSpec(mode, kappa, len(cfg)), cfg


def _pair(config: dict, n_points: int) -> tuple[int, int]:
    i = _index(config, "i_index", n_points, required=True)
    j = _index(config, "j_index", n_points, required=True)
    if i == j:
        raise ConfigError("i_index and j_index must differ")
    return i, j


def _indices(config: dict, n_points: int) -> Sequence[int]:
    """The optional i_index, or every index when it is absent."""
    i_index = _index(config, "i_index", n_points)
    return range(n_points) if i_index is None else [i_index]


def _ensemble(config: dict) -> tuple[float, float, int, int]:
    """(t_final, dt, n_paths, seed) of a Monte Carlo check."""
    t_final, dt = _times(config)
    n_paths = _integer(config, "n_paths", required=True, minimum=1)
    seed = _integer(config, "seed", default=0)
    return t_final, dt, n_paths, seed


def _bound(config: dict, spec: PartitionSpec, cfg: PointConfig) -> Optional[float]:
    """bound_n times the initial weight, or None for the check's default."""
    bound_mult = _number(config, "bound_n", positive=True)
    return None if bound_mult is None else bound_mult * z_value(spec, cfg)


def _coupling(config: dict):
    """(PointConfig, CouplingSpec) of a coupling check, with the spec
    checked against the coupling theorems."""
    spec, cfg = _flow(config, "coupling")
    gamma = _number(config, "gamma")
    if spec.mode == BACKWARD and gamma is None:
        raise ConfigError("backward coupling checks need field 'gamma'")
    cspec = make_coupling_spec(spec, gamma=gamma, chi=_number(config, "chi"))
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
                    steps: Callable[[int, int], np.ndarray]) -> ChainState:
    """Evolve `state` by n substeps of dt driven from 0, one step window at
    a time, so memory does not grow with the horizon; steps(a, b) gives
    the driving increments of steps a .. b - 1.  The last driving value is
    carried into each window's cumsum, so the values keep the bits of one
    sequential sum."""
    value = 0.0
    for a, b in step_windows(n):
        inc = steps(a, b)
        inc[0] += value
        values = np.empty(b - a + 1)
        values[0] = value
        np.cumsum(inc, out=values[1:])
        state = evolve(state, DrivingPath(dt, b - a, values), first_step=a)
        value = values[-1]
    return state


def _run_zip(config: dict, workers: int) -> List[McReport]:
    mode = _mode(config)
    t_final, dt = _times(config)
    bulk = _bulk_points(config) or list(_DEFAULT_ZIP_GRID)
    n, dt_eff = _uniform_steps(t_final, dt)
    final = _evolve_windows(initial_state(mode, bulk=bulk), n, dt_eff,
                            lambda a, b: np.zeros(b - a))
    return [_exact_row(f"zip_z_re{z.real:g}_im{z.imag:g}",
                       abs(final.bulk_values[k]
                           - reference_map_zero_driving(z, t_final, mode)),
                       1e-10, n)
            for k, z in enumerate(bulk)]


def _run_hcap(config: dict, workers: int) -> List[McReport]:
    mode = _mode(config)
    kappa = _number(config, "kappa", required=True, positive=True)
    t_final, dt = _times(config)
    seed = _integer(config, "seed", default=0)
    n, dt_eff = _uniform_steps(t_final, dt)

    def steps(a: int, b: int) -> np.ndarray:
        incs = normal_block(seed, 0, 1, b - a, a)[0] * math.sqrt(dt_eff)
        return np.sqrt(kappa) * incs

    radius = 1e4
    final = _evolve_windows(
        initial_state(mode, bulk=(1j * radius, 2j * radius)), n, dt_eff,
        steps)
    return [_exact_row(f"hcap_k{kappa:g}_t{t_final:g}",
                       extract_hcap(final, probe_radius=radius), 1e-4, n,
                       reference=2.0 * t_final)]


def _residual_rows(config: dict, fn: Callable, label: str,
                   tolerance: float) -> List[McReport]:
    spec, cfg = _flow(config, label)
    fd_step = _number(config, "fd_step", positive=True)
    return [_exact_row(f"{label}_i{i}", fn(spec, cfg, i, fd_step=fd_step),
                       tolerance)
            for i in _indices(config, len(cfg))]


def _run_bpz(config: dict, workers: int) -> List[McReport]:
    return _residual_rows(config, bpz_residual, "bpz", 1e-5)


def _run_kz(config: dict, workers: int) -> List[McReport]:
    return _residual_rows(config, kz_residual, "kz", 1e-7)


def _run_commutator(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "commutator", min_points=2)
    i, j = _pair(config, len(cfg))
    fd_step = _number(config, "fd_step", positive=True)
    observables = [
        ("x0x1", lambda x: x[0] * x[1]),
        ("arctan_sum", arctan_sum),
    ]
    return [_exact_row(f"commutator_{obs_name}",
                       commutator_residual(spec, phi, cfg, i, j,
                                           fd_step=fd_step), 1e-4)
            for obs_name, phi in observables]


def _run_schemes(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "schemes", min_points=2)
    i, j = _pair(config, len(cfg))
    eps_tilde = _number(config, "eps_tilde", required=True, positive=True)
    c = _number(config, "c", required=True, positive=True)
    dt = _number(config, "dt", required=True, positive=True)
    n_paths = _integer(config, "n_paths", required=True, minimum=1)
    seed = _integer(config, "seed", default=0)
    return commutation_experiment(spec, cfg, i, j, eps_tilde, c, dt, n_paths,
                                  seed=seed, n_workers=workers)


def _run_martingale(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "martingale")
    i = _index(config, "i_index", len(cfg), default=0)
    t_final, dt, n_paths, seed = _ensemble(config)
    return [martingale_check(spec, cfg, i, t_final, dt, n_paths,
                             bound_n=_bound(config, spec, cfg), seed=seed,
                             n_workers=workers)]


def _run_girsanov(config: dict, workers: int) -> List[McReport]:
    spec, cfg = _flow(config, "girsanov", min_points=2)
    i = _index(config, "i_index", len(cfg), default=0)
    j = _index(config, "j_index", len(cfg))
    if j == i:
        raise ConfigError("i_index and j_index must differ")
    t_final, dt, n_paths, seed = _ensemble(config)
    bound = _bound(config, spec, cfg)
    observable = companion_observable(i, len(cfg), j)
    return [girsanov_check(spec, cfg, i, observable, t_final, dt, n_paths,
                           bound_n=bound, seed=seed, n_workers=workers)]


def _run_inverse(config: dict, workers: int) -> List[McReport]:
    kappa = _number(config, "kappa", required=True, positive=True)
    t_final, dt, n_paths, seed = _ensemble(config)
    bulk = _bulk_points(config)
    z0 = bulk[0] if bulk else 2j
    return inverse_law_check(kappa, z0, t_final, dt, n_paths, seed=seed,
                             n_workers=workers)


def _run_coupling_pde(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    bulk = _bulk_points(config, required=True)
    fd_step = _number(config, "fd_step", positive=True)
    indices = _indices(config, len(cfg))
    return [_exact_row(f"coupling_pde_z{m}_i{i}",
                       coupling_pde_residual(cspec, z, cfg, i, fd_step=fd_step),
                       1e-4)
            for m, z in enumerate(bulk) for i in indices]


def _run_coupling_mc(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    i = _index(config, "i_index", len(cfg), default=0)
    bulk = _bulk_points(config, required=True)
    t_final, dt, n_paths, seed = _ensemble(config)
    return coupling_martingale_check(cspec, cfg, i, bulk, t_final, dt,
                                     n_paths, seed=seed, n_workers=workers)


def _run_crossvar(config: dict, workers: int) -> List[McReport]:
    cfg, cspec = _coupling(config)
    i = _index(config, "i_index", len(cfg), default=0)
    bulk = _bulk_points(config, required=True, minimum=2)
    t_final, dt, n_paths, seed = _ensemble(config)
    rows = cross_variation_experiment(cspec, cfg, i, bulk, t_final, dt,
                                      n_paths, seed=seed, n_workers=workers)
    worst = green_increment_check(cspec.mode, cspec.kappa, bulk[0], bulk[1],
                                  _GREEN_ID_T, _GREEN_ID_DT, seed=seed)
    rows.append(_exact_row("green_increment_identity", worst, 1e-6,
                           int(round(_GREEN_ID_T / _GREEN_ID_DT))))
    return rows


CHECKS: dict[str, Callable[[dict, int], List[McReport]]] = {
    "zip": _run_zip,
    "hcap": _run_hcap,
    "bpz": _run_bpz,
    "kz": _run_kz,
    "commutator": _run_commutator,
    "schemes": _run_schemes,
    "martingale": _run_martingale,
    "girsanov": _run_girsanov,
    "inverse": _run_inverse,
    "coupling_pde": _run_coupling_pde,
    "coupling_mc": _run_coupling_mc,
    "crossvar": _run_crossvar,
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _check_name(config: dict) -> str:
    check = _require(config, "check")
    if check not in CHECKS:
        raise ConfigError(
            f"field 'check' must be one of {sorted(CHECKS)}, got {check!r}")
    return check


def run_check(config: dict, out_dir: Optional[str] = None) -> int:
    check = _check_name(config)
    workers = resolve_workers(config)
    rows = CHECKS[check](config, workers)
    base = _out_base(config, check, out_dir)
    write_report(base, check, config, rows)
    n_pass = sum(1 for r in rows if r.passed)
    print(f"{check}: {n_pass}/{len(rows)} rows pass -> {base.with_suffix('.csv')}")
    for r in rows:
        if not r.passed:
            print(f"  FAIL {r.name}: estimate {r.estimate!r} vs "
                  f"reference {r.reference!r} (tolerance {r.tolerance!r})")
    return EXIT_PASS if n_pass == len(rows) else EXIT_FAILED_ROW


_SWEEPABLE = ("kappa", "points", "eps_tilde")


def _sweep_values(config: dict) -> tuple[list[str], list[list]]:
    fields, values = [], []
    for field in _SWEEPABLE:
        val = config.get(field)
        if field == "points":
            # an array of arrays means a sweep; a flat array is one config
            if isinstance(val, list) and val and all(isinstance(v, list) for v in val):
                fields.append(field)
                values.append(val)
            elif isinstance(val, list) and not val:
                raise ConfigError("sweep field 'points' is empty")
        elif isinstance(val, list):
            if not val:
                raise ConfigError(f"sweep field {field!r} is empty")
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
        code = run_check(cell_config, out_dir=None)
        worst = max(worst, code)
        rows_file = Path(f"{base}_cell{cell:03d}.json")
        data = json.loads(rows_file.read_text())
        n_rows = len(data["rows"])
        n_pass = sum(1 for r in data["rows"] if r["pass"])
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
            return run_check(config, out_dir=args.out)
        return run_sweep(config, out_dir=args.out)
    except (ConfigError, *_CONFIG_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
