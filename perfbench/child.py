"""One step of the benchmark in a fresh interpreter, started by run.py.

    child.py setup  RESULT CONFIG           time `import slelab.cli` + config load
    child.py run    RESULT CONFIG OUT_DIR   one timed `slelab check` via cli.main
    child.py trace  RESULT CONFIG OUT_DIR   the same run with layer spans
    child.py micro  RESULT SEED SECONDS     layer micro-benchmarks
    child.py census RESULT SEED OUT_DIR     every check once at tiny size

Each step writes its result as JSON to RESULT.  A run is its own process
because its peak RSS is read from the process high-water marks.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import OUT_STEM, census_configs  # noqa: E402


def _import_cli(config_path: str):
    """(cli module, seconds spent importing it and loading the config)."""
    t0 = time.perf_counter()
    from slelab import cli
    cli._load_config(config_path)
    return cli, time.perf_counter() - t0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _report_facts(out_dir: str) -> dict:
    base = Path(out_dir) / OUT_STEM
    facts = {}
    for suffix in ("csv", "json"):
        path = base.with_suffix("." + suffix)
        facts[suffix] = (hashlib.sha256(path.read_bytes()).hexdigest()
                         if path.is_file() else None)
    if facts["json"] is not None:
        rows = json.loads(base.with_suffix(".json").read_text())["rows"]
        facts["rows"] = len(rows)
        facts["rows_out_of_tol"] = sum(1 for r in rows if not r["pass"])
    return facts


def timed_check(main, config_path: str, out_dir: str) -> dict:
    """Run `slelab check` in-process; time it to the written report."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        code, error = main(["check", config_path, "--out", out_dir]), None
    except Exception as exc:  # an escaped traceback is a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    report_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"report_s": report_s, "cpu_s": cpu_s,
            "peak_rss_mib": max(own, kids) / 1024.0,  # ru_maxrss is in KiB
            "exit_code": code, "error": error, **_report_facts(out_dir)}


def setup(config_path: str) -> dict:
    _cli, setup_s = _import_cli(config_path)
    return {"setup_s": setup_s}


def run(config_path: str, out_dir: str) -> dict:
    cli, setup_s = _import_cli(config_path)
    return {"setup_s": setup_s, **timed_check(cli.main, config_path, out_dir)}


def trace(config_path: str, out_dir: str) -> dict:
    from slelab import cli, commutation, coupling, sampler
    from tracing import ROOT_LAYER, Tracer
    tracer = Tracer()
    modules = {"cli": cli, "commutation": commutation, "coupling": coupling,
               "sampler": sampler}
    with tracer.installed(modules):
        result = timed_check(tracer.wrap(ROOT_LAYER, cli.main), config_path,
                             out_dir)
    return {**result, "self_s": tracer.self_times(), "counts": tracer.counts,
            "spans": tracer.as_records()}


def micro(seed: str, seconds: str) -> dict:
    import micro as bench
    return bench.run(int(seed), float(seconds))


def census(seed: str, out_dir: str) -> dict:
    from slelab import cli
    outcomes = {}
    for check, config in census_configs(int(seed)).items():
        path = Path(out_dir) / f"census_{check}.config.json"
        path.write_text(json.dumps(config))
        try:
            outcomes[check] = {"exit_code": cli.main(
                ["check", str(path), "--out", out_dir]), "error": None}
        except Exception as exc:  # recorded, not hidden: a traceback escaped
            outcomes[check] = {"exit_code": None,
                               "error": f"{type(exc).__name__}: {exc}"}
    return outcomes


STEPS = {"setup": setup, "run": run, "trace": trace, "micro": micro,
         "census": census}

if __name__ == "__main__":
    step, result_path, *step_args = sys.argv[1:]
    result = STEPS[step](*step_args)
    Path(result_path).write_text(json.dumps(result))
