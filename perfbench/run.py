"""slelab benchmark: time to a checked `slelab check` report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it builds nothing and imports the package from `src/`
of the checkout it sits in.  Workloads are in workloads.py; the metrics,
units and bounds are in BENCHMARK.json at the root.

--trace 0  end-to-end metrics.  The workload's check runs through
           `slelab.cli.main`, each run in a fresh interpreter, while the
           next run is expected to end within S seconds (at least MIN_RUNS
           runs); every metric is the median over runs.  setup_s is the
           median over fresh interpreters of `import slelab.cli` plus
           config load.
--trace 1  per-layer metrics: a census of all 12 checks at tiny size on
           2 workers, one untraced and one traced single-worker run of the
           workload, then layer micro-benchmarks for what is left of S
           seconds, but at least MICRO_MIN_S, so that a traced run takes
           about as long as an untraced one.

Every workload run must write report bytes whose SHA-256 matches
reference_hashes.json; a run that raised, exited 2 or 3, or wrote other
bytes counts as failed, and op_fail_frac is failed / attempted.  Rows out
of tolerance (exit 1) are a scientific result, reported as
rows_out_of_tol, not a failure.  The last line of stdout is the JSON
result; the full record, with provenance and load averages, goes to
.perfbench/results/ in the checkout, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, config_seed, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference_hashes.json"
ENV_WORKERS = "SLELAB_WORKERS"

MIN_RUNS = 3          # measured runs per end-to-end result, at least
SETUP_RUNS = 3        # setup-only interpreters, besides one per run
MICRO_MIN_S = 10.0    # layer micro-benchmarks in a traced run, at least
BUDGET_S = 170.0      # whole invocation, kept under the 180 s limit


class Benchmark:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.n_steps = 0

    def child(self, step: str, *args, workers: int | None = None) -> dict:
        """Run one child.py step in a fresh interpreter; return its result."""
        self.n_steps += 1
        result = self.work / f"{self.n_steps:03d}-{step}.json"
        env = dict(os.environ)
        if workers is not None:
            env[ENV_WORKERS] = str(workers)
        cmd = [sys.executable, str(HERE / "child.py"), step, str(result),
               *map(str, args)]
        proc = subprocess.Popen(cmd, cwd=self.work, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool
            proc.communicate()
            raise RuntimeError(f"{step} step ran past the time budget")
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"{step} step failed ({proc.returncode}):\n"
                               f"{err[-2000:]}")
        return json.loads(result.read_text())

    def write_config(self, config: dict) -> Path:
        path = self.work / "workload.json"
        path.write_text(json.dumps(config))
        return path

    def out_dir(self) -> Path:
        path = self.work / f"out{self.n_steps + 1:03d}"
        path.mkdir()
        return path


def run_failures(run: dict, reference: dict | None) -> list[str]:
    """Why a workload run counts as failed (empty when it did not)."""
    if run["error"] is not None:
        return [f"raised {run['error']}"]
    why = []
    if run["exit_code"] not in (0, 1):
        why.append(f"exit code {run['exit_code']}")
    if reference is None:
        why.append("no stored report hash for this config seed")
    else:
        why += [f"{kind.upper()} bytes differ from the stored hash"
                for kind in ("csv", "json") if run[kind] != reference[kind]]
    return why


def end_to_end(bench: Benchmark, name: str, config_path: Path,
               seconds: float) -> tuple[dict, list[dict]]:
    """Per-run samples of every end-to-end metric, and the raw runs."""
    bench.child("setup", config_path)  # compiles bytecode, warms file cache
    setups = [bench.child("setup", config_path) for _ in range(SETUP_RUNS)]
    runs = []
    start = time.monotonic()
    # start another run only while it is expected to end within `seconds`
    while (len(runs) < MIN_RUNS or (time.monotonic() - start)
           * (len(runs) + 1) / len(runs) <= seconds):
        runs.append(bench.child("run", config_path, bench.out_dir()))
    path_steps = WORKLOADS[name]["path_steps"]
    samples = {
        "report_s": [r["report_s"] for r in runs],
        "path_steps_per_s": [path_steps / r["report_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups + runs],
    }
    return samples, runs


def per_layer(bench: Benchmark, name: str, config_path: Path, seed: int,
              seconds: float) -> tuple[dict, list[dict], dict]:
    """Every per-layer metric, the workload runs made, and the raw record."""
    start = time.monotonic()
    census = bench.child("census", seed, bench.out_dir())
    untraced = bench.child("run", config_path, bench.out_dir(), workers=1)
    traced = bench.child("trace", config_path, bench.out_dir(), workers=1)
    left = seconds - (time.monotonic() - start)
    metrics = dict(bench.child("micro", seed, max(left, MICRO_MIN_S)))

    total = sum(traced["self_s"].values())
    for layer, self_s in traced["self_s"].items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / total
    metrics["trace.overhead_s"] = traced["report_s"] - untraced["report_s"]
    counts = traced["counts"]
    metrics["sampler.path_steps"] = counts["run_leg.path_steps"]
    metrics["core.normal_block.calls"] = counts["normal_block.calls"]
    metrics["core.normal_block.draws"] = counts["normal_block.draws"]
    # at 2 or more workers map_chunks builds one pool per multi-chunk call
    pooled = WORKLOADS[name]["config"]["n_workers"] > 1
    metrics["sampler.map_chunks.pools"] = (
        counts["map_chunks.multi_chunk"] if pooled else 0)
    codes = [c["exit_code"] for c in census.values()]
    metrics["cli.census.crashed"] = sum(c["error"] is not None
                                        for c in census.values())
    for code in range(4):
        metrics[f"cli.census.exit.{code}"] = codes.count(code)
    metrics["rows_out_of_tol"] = untraced.get("rows_out_of_tol")
    spans = traced.pop("spans")
    return metrics, [untraced, traced], {"census": census, "spans": spans}


def provenance() -> dict:
    src = ROOT / "src" / "slelab"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "slelab" / "cli.py").is_file():
        print(f"error: no slelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(
        str(config_seed(args.seed)))
    # SLELAB_WORKERS would override the configs' n_workers
    os.environ.pop(ENV_WORKERS, None)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "config_seed": config_seed(args.seed), "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(),
              "loadavg_before": os.getloadavg()}
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        bench = Benchmark(work, started + BUDGET_S)
        config_path = bench.write_config(workload_config(args.workload, args.seed))
        if args.trace:
            values, runs, extra = per_layer(bench, args.workload, config_path,
                                            args.seed, args.seconds)
            metric_specs = spec["per_layer"]
        else:
            samples, runs = end_to_end(bench, args.workload, config_path,
                                       args.seconds)
            values = {k: statistics.median(v) for k, v in samples.items()}
            extra = {"samples": samples,
                     "rows_out_of_tol": runs[0].get("rows_out_of_tol")}
            metric_specs = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()

    failures = [run_failures(r, reference) for r in runs]
    failed = sum(1 for f in failures if f)
    # op_fail_frac is 0 on a healthy commit, so it is a per-layer metric;
    # the result line's failed/attempted carry it in both modes
    values["op_fail_frac"] = failed / len(runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    record.update(runs=runs, failures=failures, op_fail_frac=failed / len(runs),
                  metrics=metrics, **extra)

    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in record:
        stem.with_suffix(".spans.json").write_text(
            json.dumps(record.pop("spans")))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    print_summary(record, args)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


def print_summary(record: dict, args) -> None:
    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed} (config seed "
          f"{record['config_seed']})  trace {args.trace}")
    print(f"git {prov['git_sha']}  src {prov['src_sha256'][:16]}  nproc "
          f"{prov['nproc']}  python {prov['python']}  numpy "
          f"{prov['numpy']}  scipy {prov['scipy']}")
    print(f"loadavg before {record['loadavg_before']}  after "
          f"{record['loadavg_after']}")
    for k, run in enumerate(record["runs"]):
        status = "; ".join(record["failures"][k]) or "ok"
        print(f"run {k}: {run['report_s']:.3f} s  exit {run['exit_code']}  "
              f"rows out of tolerance {run.get('rows_out_of_tol')}  {status}")
    print(f"op_fail_frac {record['op_fail_frac']}")
    if "samples" in record:
        print(f"rows_out_of_tol {record['rows_out_of_tol']}")
        for name, vals in record["samples"].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:18s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n {len(vals)}")
    else:
        for check, outcome in record["census"].items():
            print(f"census {check:12s} exit {outcome['exit_code']}"
                  + (f"  CRASH {outcome['error']}" if outcome["error"] else ""))
        for name, metric in record["metrics"].items():
            print(f"{name:50s} {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
