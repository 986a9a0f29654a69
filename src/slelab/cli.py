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

A check's fields are its runner's parameters, listed in CHECKS; one with
no default is required.  `check` reads every field, and `sweep` every
cell's, the rules between fields too, before any report directory or path.

Indices (i_index, j_index) are 0-based.  bound_n is a multiple of the
initial weight M_0, so 0.5 means "stop when |M| exceeds half its start".
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
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
    McReport,
    NumericalFailure,
    PointConfig,
    build_driving_path,
    normal_block,
    require_bulk,
    validate_config,
)
from .coupling import (
    CouplingSpec,
    bulk_martingale_check,
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
    girsanov_check,
    horizon,
    martingale_check,
    step_sizes,
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

_DEFAULT_ZIP_GRID = tuple(complex(re, im) for re in (-2.0, -1.0, 0.0, 1.0, 2.0)
                          for im in (0.5, 1.0, 1.5, 2.0, 2.5))


# ---------------------------------------------------------------------------
# Config fields: _READERS maps each field but n_workers (resolve_workers's)
# to reader(field, value), which checks its type and bounds and returns it


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


def _seed(field: str, val) -> int:
    if not 0 <= (val := _integer(field, val)) < 2**64:
        raise ConfigError(f"field {field!r} must be in [0, 2**64), got {val}")
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
        out.append(complex(*(_real(field, v) for v in entry)))
    require_bulk(out)
    return out


_READERS: dict[str, Callable] = {
    "mode": _mode, "points": _points, "bulk_points": _bulk_points,
    **dict.fromkeys(("kappa", "t_final", "dt", "eps_tilde", "c", "bound_n",
                     "fd_step"), _positive),
    "gamma": _real,
    "n_paths": _count, "seed": _seed,
    **dict.fromkeys(("i_index", "j_index"), _integer),
}


def resolve_workers(config: dict) -> int:
    """SLELAB_WORKERS, else n_workers, else the CPU count (1 if unknown);
    n_workers is checked also where the environment overrides it."""
    n_workers = (_count("n_workers", config["n_workers"])
                 if "n_workers" in config else None)
    env = os.environ.get(ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{ENV_WORKERS} must be an integer, got {env!r}")
    return n_workers or os.cpu_count() or 1


def _exact_row(name: str, estimate: float, tolerance: float,
               n_samples: int = 1, reference: float = 0.0) -> McReport:
    """Row of a deterministic check: no standard error."""
    return McReport(name, estimate, 0.0, reference, tolerance, n_samples)


# ---------------------------------------------------------------------------
# Check runners: fields in, McReport rows out


def _evolve_windows(state: ChainState, kappa: float, t_final: float,
                    dt: float, steps: Callable[[int, int], np.ndarray]
                    ) -> Tuple[ChainState, float]:
    """(final state, max |W|) of evolving `state` over the substeps of
    horizon(t_final, dt), driven from W = 0, one step window at a time, so
    memory does not grow with the horizon; steps(a, b) gives standard
    normals for steps a .. b - 1, scaled here by the root of each step's
    size.  Each window's path starts from the last value of the one
    before, so the values keep the bits of one path."""
    value = reach = 0.0
    for a, b in step_windows(horizon(t_final, dt)[0]):
        sizes = step_sizes(t_final, dt, a, b)
        path = build_driving_path(kappa, value, np.sqrt(sizes) * steps(a, b),
                                  sizes)
        state = evolve(state, path, first_step=a)
        value = path.values[-1]
        reach = max(reach, float(np.max(np.abs(path.values))))
    return state, reach


def _run_zip(t_final: float, dt: float, mode: str = BACKWARD,
             bulk_points: Sequence[complex] = _DEFAULT_ZIP_GRID
             ) -> List[McReport]:
    n = horizon(t_final, dt)[0]
    final, _ = _evolve_windows(initial_state(mode, bulk=bulk_points), 0.0,
                               t_final, dt, lambda a, b: np.zeros(b - a))
    return [_exact_row(f"zip_z_re{z.real:g}_im{z.imag:g}",
                       abs(final.bulk_values[k]
                           - reference_map_zero_driving(z, t_final, mode)),
                       1e-10, n)
            for k, z in enumerate(bulk_points)]


def _run_hcap(kappa: float, t_final: float, dt: float, mode: str = BACKWARD,
              seed: int = 0) -> List[McReport]:
    radius = DEFAULT_PROBE_RADIUS
    final, reach = _evolve_windows(
        initial_state(mode, bulk=(1j * radius, 2j * radius)), kappa, t_final,
        dt, lambda a, b: normal_block(seed, 0, 1, b - a, a)[0])
    # the capacity is read off the 1/z expansion about 0
    if not reach < radius / 100:
        raise NumericalFailure(f"the driving reaches |W| = {reach:g}, not "
                               f"small against the probe radius {radius:g}")
    return [_exact_row(f"hcap_k{kappa:g}_t{t_final:g}",
                       extract_hcap(mode, *final.bulk_values, radius), 1e-4,
                       horizon(t_final, dt)[0], reference=2.0 * t_final)]


def _residual_check(fn: Callable, label: str, tolerance: float) -> Callable:
    """Runner of the FD residual `fn`: one row per index, or i_index's."""
    def run(kappa: float, points: PointConfig, mode: str = BACKWARD,
            i_index: Optional[int] = None, fd_step: Optional[float] = None
            ) -> List[McReport]:
        spec = PartitionSpec(mode, kappa, len(points))
        indices = range(len(points)) if i_index is None else [i_index]
        return [_exact_row(f"{label}_i{i}",
                           fn(spec, points, i, fd_step=fd_step), tolerance)
                for i in indices]
    return run


def _run_commutator(kappa: float, points: PointConfig, i_index: int,
                    j_index: int, mode: str = BACKWARD,
                    fd_step: Optional[float] = None) -> List[McReport]:
    spec = PartitionSpec(mode, kappa, len(points))
    observables = [("x0x1", lambda x: x[0] * x[1]), ("arctan_sum", arctan_sum)]
    return [_exact_row(f"commutator_{obs_name}",
                       commutator_residual(spec, phi, points, i_index, j_index,
                                           fd_step=fd_step), 1e-4)
            for obs_name, phi in observables]


def _run_schemes(kappa: float, points: PointConfig, i_index: int,
                 j_index: int, eps_tilde: float, c: float, dt: float,
                 n_paths: int, mode: str = BACKWARD, seed: int = 0,
                 n_workers: int = 1) -> List[McReport]:
    return commutation_experiment(
        PartitionSpec(mode, kappa, len(points)), points, i_index, j_index,
        eps_tilde, c, dt, n_paths, seed=seed, n_workers=n_workers)


def _run_martingale(kappa: float, points: PointConfig, t_final: float,
                    dt: float, n_paths: int, mode: str = BACKWARD,
                    i_index: int = 0, bound_n: float = 10.0, seed: int = 0,
                    n_workers: int = 1) -> List[McReport]:
    return [martingale_check(PartitionSpec(mode, kappa, len(points)), points,
                             i_index, t_final, dt, n_paths, bound_n=bound_n,
                             seed=seed, n_workers=n_workers)]


def _run_girsanov(kappa: float, points: PointConfig, t_final: float,
                  dt: float, n_paths: int, mode: str = BACKWARD,
                  i_index: int = 0, j_index: Optional[int] = None,
                  bound_n: float = 10.0, seed: int = 0,
                  n_workers: int = 1) -> List[McReport]:
    return [girsanov_check(PartitionSpec(mode, kappa, len(points)), points,
                           i_index, j_index, t_final, dt, n_paths,
                           bound_n=bound_n, seed=seed, n_workers=n_workers)]


def _run_inverse(kappa: float, t_final: float, dt: float, n_paths: int,
                 bulk_points: Sequence[complex] = (2j,), seed: int = 0,
                 n_workers: int = 1) -> List[McReport]:
    return bulk_martingale_check(kappa, bulk_points, t_final, dt, n_paths,
                                 seed=seed, n_workers=n_workers)


def _run_coupling_pde(kappa: float, points: PointConfig,
                      bulk_points: Sequence[complex], mode: str = BACKWARD,
                      gamma: Optional[float] = None,
                      i_index: Optional[int] = None,
                      fd_step: Optional[float] = None) -> List[McReport]:
    cspec = CouplingSpec(PartitionSpec(mode, kappa, len(points)), gamma=gamma)
    indices = range(len(points)) if i_index is None else [i_index]
    return [_exact_row(f"coupling_pde_z{m}_i{i}",
                       coupling_pde_residual(cspec, z, points, i,
                                             fd_step=fd_step), 1e-4)
            for m, z in enumerate(bulk_points) for i in indices]


def _run_coupling_mc(kappa: float, points: PointConfig,
                     bulk_points: Sequence[complex], t_final: float,
                     dt: float, n_paths: int, mode: str = BACKWARD,
                     gamma: Optional[float] = None, i_index: int = 0,
                     seed: int = 0, n_workers: int = 1) -> List[McReport]:
    cspec = CouplingSpec(PartitionSpec(mode, kappa, len(points)), gamma=gamma)
    return coupling_martingale_check(cspec, points, i_index, bulk_points,
                                     t_final, dt, n_paths, seed=seed,
                                     n_workers=n_workers)


def _run_crossvar(kappa: float, points: PointConfig,
                  bulk_points: Sequence[complex], t_final: float, dt: float,
                  n_paths: int, mode: str = BACKWARD,
                  gamma: Optional[float] = None, i_index: int = 0,
                  seed: int = 0, n_workers: int = 1) -> List[McReport]:
    cspec = CouplingSpec(PartitionSpec(mode, kappa, len(points)), gamma=gamma)
    rows = cross_variation_experiment(cspec, points, i_index, bulk_points,
                                      t_final, dt, n_paths, seed=seed,
                                      n_workers=n_workers)
    worst = green_increment_check(mode, kappa, bulk_points[0], bulk_points[1],
                                  _GREEN_ID_T, _GREEN_ID_DT, seed=seed)
    rows.append(_exact_row("green_increment_identity", worst, 1e-6,
                           horizon(_GREEN_ID_T, _GREEN_ID_DT)[0]))
    return rows


# Each check's runner and the fields it reads, its parameters; a config may
# also carry "check", "out_path", "seed" (echoed in the report) and "n_workers"
_UNIVERSAL = ("check", "out_path", "seed", "n_workers")
CHECKS: dict[str, tuple[Callable[..., List[McReport]], tuple[str, ...]]] = {
    name: (run, tuple(f for f in inspect.signature(run).parameters
                      if f not in _UNIVERSAL))
    for name, run in (
        ("zip", _run_zip), ("hcap", _run_hcap),
        ("bpz", _residual_check(bpz_residual, "bpz", 1e-5)),
        ("kz", _residual_check(kz_residual, "kz", 1e-7)),
        ("commutator", _run_commutator), ("schemes", _run_schemes),
        ("martingale", _run_martingale), ("girsanov", _run_girsanov),
        ("inverse", _run_inverse), ("coupling_pde", _run_coupling_pde),
        ("coupling_mc", _run_coupling_mc), ("crossvar", _run_crossvar))}


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
    # McReport has cast every field; only "passed" is renamed
    out = {"check": check, **dataclasses.asdict(row)}
    out["pass"] = out.pop("passed")
    return out


def _out_base(config: dict, check: str, out_dir: Optional[str]) -> Path:
    """The report stem, its directory created; reports append to its name."""
    raw = config.get("out_path", f"report_{check}")
    if not isinstance(raw, str) or not raw:
        raise ConfigError(f"field 'out_path' must be a non-empty string, got {raw!r}")
    if "\0" in raw:     # the file system refuses it only at the write
        raise ConfigError(f"field 'out_path' {raw!r} holds a null byte")
    try:     # and a name it cannot encode, too
        os.fsencode(raw)
    except UnicodeEncodeError as exc:
        raise ConfigError(f"unusable report path: {exc}")
    base = Path(raw)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    if not base.name:
        raise ConfigError(f"field 'out_path' {raw!r} names no file")
    if out_dir is not None:
        base = Path(out_dir) / base.name
    _report_io(base.parent.mkdir, parents=True, exist_ok=True)
    return base


def _report_io(action: Callable, *args, **kwargs) -> None:
    """action(*args, **kwargs); a report path it cannot use is a ConfigError."""
    try:
        action(*args, **kwargs)
    except (OSError, ValueError) as exc:     # ValueError: a name the OS refuses
        raise ConfigError(f"unusable report path: {exc}")


def write_report(base: Path, check: str, config: dict,
                 rows: Sequence[McReport]) -> None:
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
    _report_io(Path(f"{base}.csv").write_text, "\n".join(lines) + "\n")
    twin = {
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "rows": dicts,
    }
    _report_io(Path(f"{base}.json").write_text,
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


def _read(config: dict) -> Tuple[str, dict]:
    """The config's check and its runner's keyword arguments: a field the
    check does not read is refused, every field is read (seed too, which
    the report echoes), defaults are filled, the worker count is resolved
    and the rules between fields are checked."""
    if "check" not in config:
        raise ConfigError("missing required field 'check'")
    check = config["check"]
    if not isinstance(check, str) or check not in CHECKS:
        raise ConfigError(
            f"field 'check' must be one of {sorted(CHECKS)}, got {check!r}")
    unknown = sorted(set(config) - set(CHECKS[check][1]) - set(_UNIVERSAL))
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} for check {check!r}")
    workers = resolve_workers(config)
    signature = inspect.signature(CHECKS[check][0])
    given = {f: _READERS[f](f, v) for f, v in config.items() if f in _READERS}
    for name, param in signature.parameters.items():
        if param.default is param.empty and name not in given:
            raise ConfigError(f"missing required field {name!r}")
    given["n_workers"] = workers
    bound = signature.bind(**{f: v for f, v in given.items()
                              if f in signature.parameters})
    bound.apply_defaults()
    args = bound.arguments
    if "t_final" in args and not args["dt"] < args["t_final"]:
        raise ConfigError(f"dt ({args['dt']!r}) must be smaller than "
                          f"t_final ({args['t_final']!r})")
    n_points = len(args.get("points", ()))
    if "j_index" in args and n_points < 2:
        raise ConfigError(f"{check} check needs at least 2 points")
    for field in ("i_index", "j_index"):
        if args.get(field) is not None and not 0 <= args[field] < n_points:
            raise ConfigError(f"field {field!r} must be a 0-based index "
                              f"below {n_points}, got {args[field]}")
    if "j_index" in args and args["i_index"] == args["j_index"]:
        raise ConfigError("i_index and j_index must differ")
    return check, args


def _run(check: str, args: dict, config: dict, base: Path) -> List[McReport]:
    """The step of `check` and of every sweep cell: run a read config's
    check, write its report at `base` and print its summary."""
    rows = CHECKS[check][0](**args)
    write_report(base, check, config, rows)
    n_pass = sum(1 for r in rows if r.passed)
    print(f"{check}: {n_pass}/{len(rows)} rows pass -> {base}.csv")
    for r in rows:
        if not r.passed:
            print(f"  FAIL {r.name}: estimate {r.estimate!r} vs "
                  f"reference {r.reference!r} (tolerance {r.tolerance!r})")
    return rows


def run_check(config: dict, out_dir: Optional[str] = None) -> List[McReport]:
    """Run the config's check, write its report and print its summary."""
    check, args = _read(config)
    return _run(check, args, config, _out_base(config, check, out_dir))


_SWEEPABLE = ("kappa", "points", "eps_tilde")


def run_sweep(config: dict, out_dir: Optional[str] = None) -> int:
    """Run one check per cell of the grid of the array-valued fields, each
    cell read before the report directory is made or any cell runs."""
    # an array of arrays sweeps points; a flat array is one config
    fields = [f for f in _SWEEPABLE if isinstance(config.get(f), list) and
              (f != "points" or all(isinstance(v, list) for v in config[f]))]
    if not fields:
        raise ConfigError(
            f"sweep needs at least one array-valued field among {_SWEEPABLE}")
    for field in fields:
        if not config[field]:
            raise ConfigError(f"sweep field {field!r} is empty")
    combos = list(itertools.product(*(config[f] for f in fields)))
    cells = [{**config, **dict(zip(fields, combo))} for combo in combos]
    reads = [_read(cell) for cell in cells]
    base = _out_base(config, reads[0][0], out_dir)
    summary = [
        f"# artifact_version: {__version__}",
        f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}",
        "cell," + ",".join(fields) + ",n_rows,n_pass,all_pass",
    ]
    worst = EXIT_PASS
    for k, (combo, cell, (check, args)) in enumerate(zip(combos, cells, reads)):
        stem = f"{base}_cell{k:03d}"
        rows = _run(check, args, dict(cell, out_path=stem), Path(stem))
        n_rows, n_pass = len(rows), sum(1 for r in rows if r.passed)
        if n_pass < n_rows:
            worst = EXIT_FAILED_ROW
        values = [json.dumps(v, separators=(",", ":")).replace(",", ";")
                  for v in combo]
        summary.append(
            f"{k}," + ",".join(values)
            + f",{n_rows},{n_pass},{_fmt(n_pass == n_rows)}")
    summary_path = Path(f"{base}_summary.csv")
    _report_io(summary_path.write_text, "\n".join(summary) + "\n")
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
