"""End-to-end tests for the CLI: configs in, reports out, exit codes."""

import ast
import contextlib
import csv
import io
import inspect
import json
import os
import tempfile
import textwrap
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slelab import cli, sampler
from slelab.cli import _READERS, CHECKS, main, resolve_workers
from slelab.core import ConfigError, McReport, validate_config
from slelab.partition import PartitionSpec
from slelab.sampler import (girsanov_check, horizon, map_chunks,
                            martingale_check)

CSV_COLUMNS = ["check", "name", "estimate", "std_error", "reference",
               "tolerance", "n_samples", "pass"]


def write_config(tmp_path, name="c.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def read_rows(stem):
    with open(stem + ".csv") as fh:
        data = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(data))


def test_check_pass_exit_zero(tmp_path):
    cfg = write_config(tmp_path, check="kz", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0,
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    rows = read_rows(str(tmp_path / "r"))
    assert len(rows) == 1
    assert rows[0]["pass"] == "true"
    assert list(rows[0]) == CSV_COLUMNS


def test_check_writes_json_twin(tmp_path):
    cfg = write_config(tmp_path, check="kz", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0,
                       out_path=str(tmp_path / "r"))
    main(["check", cfg])
    doc = json.loads((tmp_path / "r.json").read_text())
    assert set(doc) == {"artifact_version", "config", "rows", "seed"}
    assert doc["rows"][0]["name"] == "kz_i0"


def test_check_header_lines(tmp_path):
    cfg = write_config(tmp_path, check="bpz", mode="backward", kappa=4.0,
                       points=[0.0, 1.0, 3.0], out_path=str(tmp_path / "r"),
                       seed=5)
    main(["check", cfg])
    text = (tmp_path / "r.csv").read_text()
    assert text.startswith("# artifact_version:")
    assert "# seed: 5" in text
    assert "# config:" in text


def test_check_failed_rows_exit_one(tmp_path):
    # points this close leave the fd evaluator above the bpz tolerance
    cfg = write_config(tmp_path, check="bpz", mode="backward", kappa=4.0,
                       points=[0.0, 0.01], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 1
    assert any(r["pass"] == "false" for r in read_rows(str(tmp_path / "r")))


def test_check_missing_field_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, check="bpz", mode="backward",
                       points=[0.0, 1.0], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err


def test_check_unknown_check_exit_two(tmp_path):
    cfg = write_config(tmp_path, check="frobnicate", mode="backward",
                       kappa=4.0, points=[0.0, 1.0],
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2


def test_check_epsilon_too_large_exit_two(tmp_path):
    cfg = write_config(tmp_path, check="schemes", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0, j_index=1,
                       eps_tilde=0.3, c=1.0, dt=1e-4, n_paths=10,
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2


def test_check_numerical_failure_exit_three(tmp_path):
    # forward zip sweeps the tracked point into the hull
    cfg = write_config(tmp_path, check="zip", mode="forward", t_final=1.0,
                       dt=1e-3, bulk_points=[[0.0, 0.05]],
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 3


def test_check_reruns_byte_identical(tmp_path):
    kw = dict(check="martingale", mode="backward", kappa=4.0,
              points=[0.0, 1.0], i_index=0, t_final=0.05, dt=1e-3,
              n_paths=500, seed=3)
    c1 = write_config(tmp_path, name="a.json", out_path=str(tmp_path / "r1"), **kw)
    c2 = write_config(tmp_path, name="b.json", out_path=str(tmp_path / "r2"), **kw)
    main(["check", c1])
    main(["check", c2])
    a = (tmp_path / "r1.csv").read_text()
    b = (tmp_path / "r2.csv").read_text()
    assert a.replace("r1", "rX") == b.replace("r2", "rX")


def test_check_worker_env_does_not_change_rows(tmp_path, monkeypatch):
    kw = dict(check="girsanov", mode="backward", kappa=4.0,
              points=[0.0, 1.0], i_index=0, t_final=0.05, dt=1e-3,
              n_paths=400, seed=1)
    c1 = write_config(tmp_path, name="a.json", out_path=str(tmp_path / "r1"), **kw)
    main(["check", c1])
    monkeypatch.setenv("SLELAB_WORKERS", "2")
    c2 = write_config(tmp_path, name="b.json", out_path=str(tmp_path / "r2"), **kw)
    main(["check", c2])
    assert read_rows(str(tmp_path / "r1")) == read_rows(str(tmp_path / "r2"))


def _pool_matches_one_worker(tmp_path, monkeypatch, **kw):
    # 20001 paths make two chunks, so two workers go through the process pool
    kw = dict(kw, n_paths=20001, seed=0)
    monkeypatch.setenv("SLELAB_WORKERS", "1")
    c1 = write_config(tmp_path, name="a.json", out_path=str(tmp_path / "r1"), **kw)
    assert main(["check", c1]) in (0, 1)
    monkeypatch.setenv("SLELAB_WORKERS", "2")
    c2 = write_config(tmp_path, name="b.json", out_path=str(tmp_path / "r2"), **kw)
    assert main(["check", c2]) in (0, 1)
    assert read_rows(str(tmp_path / "r1")) == read_rows(str(tmp_path / "r2"))


SHORT = dict(t_final=0.005, dt=1e-3)
POOL_CHECKS = {
    "schemes": dict(mode="backward", kappa=4.0, points=[0.0, 1.0], i_index=0,
                    j_index=1, eps_tilde=0.01, c=2.0, dt=1e-3),
    "inverse": dict(kappa=4.0, **SHORT),
    "coupling_mc": dict(mode="backward", kappa=4.0, gamma=2.0,
                        points=[0.0, 1.0], bulk_points=[[0.5, 1.0]], **SHORT),
    "martingale": dict(mode="backward", kappa=4.0, points=[0.0, 1.0],
                       **SHORT),
    "crossvar": dict(mode="backward", kappa=4.0, gamma=2.0,
                     points=[0.0, 1.0], bulk_points=[[1.0, 2.0], [-1.0, 2.0]],
                     **SHORT),
}


def test_girsanov_on_worker_pool_matches_one_worker(tmp_path, monkeypatch):
    _pool_matches_one_worker(tmp_path, monkeypatch, check="girsanov",
                             mode="backward", kappa=4.0, points=[0.0, 1.0],
                             i_index=0, **SHORT)


def test_girsanov_explicit_companion_on_worker_pool(tmp_path, monkeypatch):
    """The companion travels to the pool as its index j."""
    _pool_matches_one_worker(tmp_path, monkeypatch, check="girsanov",
                             mode="backward", kappa=4.0,
                             points=[0.0, 1.0, 3.0], i_index=0, j_index=2,
                             **SHORT)


@pytest.mark.parametrize("check", sorted(POOL_CHECKS))
def test_ensemble_on_worker_pool_matches_one_worker(tmp_path, monkeypatch,
                                                    check):
    _pool_matches_one_worker(tmp_path, monkeypatch, check=check,
                             **POOL_CHECKS[check])


def _config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


def test_inverse_ragged_grid_runs(tmp_path):
    """0.1 is 3 substeps of 0.03 and one of 0.01: the inverse check runs a
    ragged horizon, as every other check does."""
    cfg = write_config(tmp_path, check="inverse", kappa=4.0, t_final=0.1,
                       dt=0.03, n_paths=10, out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    assert len(read_rows(str(tmp_path / "r"))) == 3


def test_crossvar_coincident_bulk_points_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, check="crossvar", mode="backward", kappa=4.0,
                       gamma=2.0, points=[0.0, 1.0],
                       bulk_points=[[1, 2], [1, 2]], n_paths=10,
                       out_path=str(tmp_path / "r"), **SHORT)
    assert main(["check", cfg]) == 2
    assert "singular" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_girsanov_companion_equal_to_driver_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, check="girsanov", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0, j_index=0, n_paths=10,
                       out_path=str(tmp_path / "r"), **SHORT)
    assert main(["check", cfg]) == 2
    assert "must differ" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_bpz_underflowing_fd_step_exit_two(tmp_path, capsys):
    # the default step, 1e-4 of the gap, has a square below the float range
    cfg = write_config(tmp_path, check="bpz", mode="backward", kappa=4.0,
                       points=[0.0, 1e-300], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "underflows" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_coupling_pde_underflowing_fd_step_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, check="coupling_pde", mode="forward",
                       kappa=2.0, points=[0.0, 1.0],
                       bulk_points=[[0.0, 1e-300]],
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "underflows" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()
    # the same guard refuses a step of half the length scale
    cfg = write_config(tmp_path, check="coupling_pde", mode="forward",
                       kappa=2.0, points=[0.0, 1.0],
                       bulk_points=[[0.5, 1.0]], fd_step=0.5,
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "tenth of the length scale" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("gamma", [0, -1.0])
def test_coupling_nonpositive_gamma_exit_two(tmp_path, capsys, gamma):
    cfg = write_config(tmp_path, check="coupling_pde", mode="backward",
                       kappa=4.0, gamma=gamma, points=[0.0, 1.0],
                       bulk_points=[[0.5, 1.0]], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "gamma must be positive" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_forward_coupling_gamma_exit_two(tmp_path, capsys):
    # kappa alone fixes the forward coupling; a gamma would be ignored
    cfg = write_config(tmp_path, check="coupling_pde", mode="forward",
                       kappa=2.0, gamma=123.0, points=[0.0, 1.0],
                       bulk_points=[[0.5, 1.0]], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "forward coupling takes no gamma" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


OFF_RELATION = {
    "coupling_pde": dict(bulk_points=[[0.5, 1.0]]),
    "coupling_mc": dict(bulk_points=[[0.5, 1.0]], n_paths=10, **SHORT),
    "crossvar": dict(bulk_points=[[1.0, 2.0], [-1.0, 2.0]], n_paths=10,
                     **SHORT),
}


@pytest.mark.parametrize("check", sorted(OFF_RELATION))
def test_coupling_off_the_gamma_relation_exit_two(tmp_path, capsys, check):
    # at kappa 4 the coupled gamma is 2 (= 4/2); 1.3 is neither
    cfg = write_config(tmp_path, check=check, mode="backward", kappa=4.0,
                       gamma=1.3, points=[0.0, 1.0], n_workers=1,
                       out_path=str(tmp_path / "r"), **OFF_RELATION[check])
    assert main(["check", cfg]) == 2
    assert _config_error_line(capsys) == (
        "config error: backward coupling needs sqrt(kappa) = gamma or "
        "4/gamma; got kappa=4.0, gamma=1.3\n")
    assert not (tmp_path / "r.csv").exists()


def test_coupling_on_the_dual_gamma_branch_runs(tmp_path):
    # sqrt(16) = 4/gamma at gamma 1
    cfg = write_config(tmp_path, check="coupling_mc", mode="backward",
                       kappa=16.0, gamma=1.0, points=[0.0, 1.0],
                       bulk_points=[[0.5, 1.0]], t_final=0.01, dt=1e-3,
                       n_paths=200, n_workers=1, out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    assert read_rows(str(tmp_path / "r"))[0]["pass"] == "true"


def test_schemes_leg_shorter_than_substep_exit_two(tmp_path, capsys):
    # the first leg lasts about 2e-12, far less than one substep of dt
    cfg = write_config(tmp_path, check="schemes", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0, j_index=1,
                       eps_tilde=1e-12, c=2.0, dt=1e-3, n_paths=10,
                       n_workers=1, out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "shorter than one substep" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


MISSPELLED = {"mdoe": "forward", "sed": 3, "boundn": 0.5}


@pytest.mark.parametrize("typo", sorted(MISSPELLED))
def test_misspelled_field_exit_two(tmp_path, capsys, typo):
    # an optional field under a wrong name used to be ignored: the run
    # went backward, or with seed 0, and exited 0
    cfg = write_config(tmp_path, check="martingale", kappa=4.0,
                       points=[0.0, 1.0], t_final=0.01, dt=0.001, n_paths=100,
                       out_path=str(tmp_path / "r"),
                       **{typo: MISSPELLED[typo]})
    assert main(["check", cfg]) == 2
    assert f"unknown field {typo!r}" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_sweep_refuses_misspelled_field(tmp_path, capsys):
    cfg = write_config(tmp_path, check="kz", kappa=[2.0, 4.0],
                       points=[0.0, 1.0], sed=3, out_path=str(tmp_path / "s"))
    assert main(["sweep", cfg]) == 2
    assert "unknown field 'sed'" in _config_error_line(capsys)
    assert list(tmp_path.glob("s_*")) == []


def test_kz_residual_is_relative_at_tiny_kappa(tmp_path):
    # |d log Z/dx_i| is 1e300 here; the FD residual is 3e-12 of it
    cfg = write_config(tmp_path, check="kz", mode="forward", kappa=1e-300,
                       points=[0.0, 2.0], out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    assert all(r["pass"] == "true" for r in read_rows(str(tmp_path / "r")))


def test_kz_residual_is_relative_to_cancelling_terms(tmp_path):
    # d log Z/dx_1 cancels to about 0 while its terms are 1e300
    cfg = write_config(tmp_path, check="kz", kappa=1e-300,
                       points=[-1.0, 0.5, 2.0], i_index=1,
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    assert all(r["pass"] == "true" for r in read_rows(str(tmp_path / "r")))


# residual checks at points whose gaps or squared gaps leave the float
# range: bpz still passes, the others are refused, and none warns
HUGE_GAP = dict(kappa=4.0, points=[1e308, -1e308])
FAR_APART = {
    "bpz_squared_gap": (0, dict(check="bpz", kappa=4.0, points=[0.0, 1e300])),
    "bpz_gap": (2, dict(check="bpz", **HUGE_GAP)),
    "kz_gap": (2, dict(check="kz", **HUGE_GAP)),
    "kz_gap_given_step": (2, dict(check="kz", fd_step=1e-3, **HUGE_GAP)),
    "commutator_gap": (2, dict(check="commutator", i_index=0, j_index=1,
                               **HUGE_GAP)),
    "coupling_pde_gap": (2, dict(check="coupling_pde", gamma=2.0,
                                 bulk_points=[[0.5, 1.0]], **HUGE_GAP)),
}


@pytest.mark.parametrize("case", sorted(FAR_APART))
def test_far_apart_points_run_without_warnings(tmp_path, capsys, case):
    code, fields = FAR_APART[case]
    cfg = write_config(tmp_path, out_path=str(tmp_path / "r"), **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", cfg]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0), err


def test_out_flag_redirects_stem(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    cfg = write_config(tmp_path, check="kz", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0,
                       out_path=str(tmp_path / "elsewhere" / "r"))
    assert main(["check", cfg, "--out", str(sub)]) == 0
    assert (sub / "r.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_dotted_stem_keeps_its_tail(tmp_path, capsys):
    # <stem>.csv appends to the whole stem; it replaced the tail ".5"
    cfg = write_config(tmp_path, check="bpz", kappa=4.0, points=[0.0, 1.0],
                       out_path=str(tmp_path / "sw" / "bpz_k4.5"))
    assert main(["check", cfg]) == 0
    assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == [
        "bpz_k4.5.csv", "bpz_k4.5.json"]
    assert capsys.readouterr().out.endswith("bpz_k4.5.csv\n")


def test_dotted_sweep_writes_one_report_pair_per_cell(tmp_path):
    # every cell's stem k.v2_cellNNN once lost its tail to k.csv, so each
    # cell overwrote the one before
    cfg = write_config(tmp_path, check="bpz", kappa=[2.0, 4.0, 6.0],
                       points=[0.0, 1.0], out_path=str(tmp_path / "sw" / "k.v2"))
    assert main(["sweep", cfg]) == 0
    cells = [f"k.v2_cell{k:03d}.{ext}" for k in range(3) for ext in ("csv", "json")]
    assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == sorted(
        [*cells, "k.v2_summary.csv"])


UNUSABLE_STEMS = {
    "empty_name": (".", ()),
    "under_a_file": ("f/x", ()),
    "null_byte": ("a\u0000b", ()),
    "out_dir_under_a_file": ("r", ("--out", "f/d")),
}


@pytest.mark.parametrize("command", ["check", "sweep"])
@pytest.mark.parametrize("case", sorted(UNUSABLE_STEMS))
def test_unusable_stem_exit_two_with_no_report(tmp_path, monkeypatch, capsys,
                                               case, command):
    """A stem that cannot be written exits 2 with one line, not with a
    traceback once the check has run."""
    out_path, flags = UNUSABLE_STEMS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("")
    kappa = [4.0] if command == "sweep" else 4.0
    cfg = write_config(tmp_path, check="bpz", kappa=kappa, points=[0.0, 1.0],
                       out_path=out_path)
    assert main([command, cfg, *flags]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json", "f"]


def test_null_byte_stem_is_refused_before_the_run(tmp_path, capsys):
    """A stem with a null byte is refused with the other unusable stems,
    not at the report write: this forward chain swallows its bulk point,
    so a run would end in exit 3 before any write."""
    cfg = write_config(tmp_path, check="zip", mode="forward", t_final=0.01,
                       dt=1e-3, bulk_points=[[0.0, 0.05]], out_path="a\u0000b")
    assert main(["check", cfg]) == 2
    assert "null byte" in _config_error_line(capsys)


def test_unencodable_stem_is_refused_before_the_run(tmp_path, monkeypatch,
                                                    capsys):
    """A stem the file system cannot encode (a lone surrogate) is refused
    before the check runs, not at the report write after it."""
    monkeypatch.chdir(tmp_path)
    runner = mock.Mock(return_value=McReport("m", 1.0, 0.0, 1.0, 0.0, 1))
    monkeypatch.setattr(cli, "martingale_check", runner)
    cfg = write_config(tmp_path, check="martingale", kappa=4.0,
                       points=[0.0, 1.0], t_final=0.01, dt=1e-3, n_paths=100,
                       out_path="a\ud800b")
    assert main(["check", cfg]) == 2
    assert "unusable report path" in _config_error_line(capsys)
    runner.assert_not_called()


@pytest.mark.parametrize("check, fields", [("hcap", {"kappa": 4.0}),
                                           ("zip", {})], ids=["hcap", "zip"])
def test_chain_checks_run_the_horizon_substeps(tmp_path, check, fields):
    """hcap and zip walk sampler.horizon's substeps, as every other check
    does: t_final 0.014 at dt 0.01 is a substep of 0.01 and a remainder of
    0.004, not one substep of 0.014, longer than dt."""
    cfg = write_config(tmp_path, check=check, t_final=0.014, dt=0.01,
                       out_path=str(tmp_path / "r"), **fields)
    assert main(["check", cfg]) == 0
    rows = read_rows(str(tmp_path / "r"))
    assert {r["n_samples"] for r in rows} == {str(horizon(0.014, 0.01)[0])}
    assert horizon(0.014, 0.01)[0] == 2


def test_forward_zip_keeps_points_near_the_driver(tmp_path):
    """The forward chain swallows a point only where the slit map's own
    flag says so; a point 1e-7 from the driver stays in the upper half
    plane and matches the closed form."""
    cfg = write_config(tmp_path, check="zip", mode="forward", t_final=0.01,
                       dt=1e-3, bulk_points=[[1e-7, 1e-7], [0.5, 1.0]],
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    assert [r["pass"] for r in read_rows(str(tmp_path / "r"))] == ["true"] * 2


def test_resolve_workers_precedence(monkeypatch):
    # env, then n_workers, then the CPU count (1 if it is unknown)
    monkeypatch.delenv("SLELAB_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert resolve_workers({}) == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers({}) == 1
    assert resolve_workers({"n_workers": 3}) == 3
    monkeypatch.setenv("SLELAB_WORKERS", "5")
    assert resolve_workers({"n_workers": 3}) == 5
    # the environment overrides n_workers, but a bad one is still refused
    for bad in ("abc", 0, 1.5):
        with pytest.raises(ConfigError, match="n_workers"):
            resolve_workers({"n_workers": bad})


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the process count it is
    asked for and runs the tasks in this process."""

    def __init__(self, asked, max_workers):
        asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool map_chunks starts; none is started."""
    asked = []
    monkeypatch.setattr(sampler, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(asked, max_workers))
    return asked


def test_map_chunks_starts_one_process_per_task_and_cpu(monkeypatch,
                                                         pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert map_chunks(abs, [1, -2, 3], n_workers=100_000) == [1, 2, 3]
    assert map_chunks(abs, [-1] * 10, n_workers=100_000) == [1] * 10
    assert map_chunks(abs, [1, -2, 3], n_workers=2) == [1, 2, 3]
    assert pool_sizes == [3, 4, 2]
    # one worker, one task or one CPU run in this process
    assert map_chunks(abs, [-1, -2], n_workers=1) == [1, 2]
    assert map_chunks(abs, [-1], n_workers=100_000) == [1]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert map_chunks(abs, [-1, -2], n_workers=100_000) == [1, 2]
    assert pool_sizes == [3, 4, 2]


@pytest.mark.parametrize("source", ["config", "env"])
def test_cli_worker_count_is_capped_by_tasks(tmp_path, monkeypatch,
                                             pool_sizes, source):
    # 20001 paths make two chunk tasks, so at most two processes start
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    fields = dict(check="martingale", kappa=4.0, points=[0.0, 1.0],
                  n_paths=20_001, out_path=str(tmp_path / "r"), **SHORT)
    if source == "env":
        monkeypatch.setenv("SLELAB_WORKERS", "100000")
    else:
        monkeypatch.delenv("SLELAB_WORKERS", raising=False)
        fields["n_workers"] = 100_000
    assert main(["check", write_config(tmp_path, **fields)]) == 0
    assert pool_sizes == [2]


def test_sweep_cells_and_summary(tmp_path):
    cfg = write_config(tmp_path, check="kz", mode="backward",
                       kappa=[2.0, 4.0], points=[[0.0, 1.0], [0.0, 1.0, 3.0]],
                       i_index=0, out_path=str(tmp_path / "s"))
    assert main(["sweep", cfg]) == 0
    for k in range(4):
        assert (tmp_path / f"s_cell{k:03d}.csv").exists()
    with open(tmp_path / "s_summary.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert len(rows) == 4
    assert {"cell", "kappa", "points", "n_rows", "n_pass", "all_pass"} <= set(rows[0])
    assert all(r["all_pass"] == "true" for r in rows)
    # list values keep a comma-free encoding
    assert ";" in rows[-1]["points"] or "," not in rows[-1]["points"]


def test_sweep_refuses_a_bad_value_before_any_cell_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, check="bpz", mode="backward",
                       kappa=[4.0, -1.0], points=[0.0, 1.0, 2.5],
                       out_path=str(tmp_path / "s"))
    assert main(["sweep", cfg]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


BAD_CELL_SWEEPS = {
    # i_index 2 is out of range for the second cell's two points
    "index_out_of_range": dict(check="kz", kappa=4.0, i_index=2,
                               points=[[0.0, 1.0, 2.5], [0.0, 1.0]]),
    # the second cell has too few points for j_index
    "too_few_points": dict(check="commutator", kappa=4.0, i_index=0,
                           j_index=1, points=[[0.0, 1.0, 2.5], [0.0]]),
}


@pytest.mark.parametrize("case", sorted(BAD_CELL_SWEEPS))
def test_sweep_reads_every_cell_before_any_cell_runs(tmp_path, capsys, case):
    """A rule between fields that only a later cell breaks exits 2 with
    one line before the first cell writes its report, as `check` does."""
    cfg = write_config(tmp_path, out_path=str(tmp_path / "sw" / "s"),
                       **BAD_CELL_SWEEPS[case])
    assert main(["sweep", cfg]) == 2
    _config_error_line(capsys)
    assert not (tmp_path / "sw").exists()


def test_sweep_cell_report_is_the_report_of_its_check(tmp_path):
    """Each cell runs through the path `check` takes: its report is the
    one `check` writes for the cell's config, byte for byte."""
    sweep = dict(check="kz", mode="backward", points=[0.0, 1.0, 2.5])
    assert main(["sweep", write_config(tmp_path, kappa=[2.0, 4.0],
                                       out_path=str(tmp_path / "s"),
                                       **sweep)]) == 0
    for k, kappa in enumerate([2.0, 4.0]):
        files = [tmp_path / f"s_cell{k:03d}.{ext}" for ext in ("csv", "json")]
        swept = [f.read_bytes() for f in files]
        cfg = write_config(tmp_path, name=f"cell{k}.json", kappa=kappa,
                           out_path=str(tmp_path / f"s_cell{k:03d}"), **sweep)
        assert main(["check", cfg]) == 0
        assert [f.read_bytes() for f in files] == swept


def test_sweep_propagates_row_failures(tmp_path):
    cfg = write_config(tmp_path, check="bpz", mode="backward",
                       kappa=[4.0], points=[[0.0, 0.01]],
                       out_path=str(tmp_path / "s"))
    assert main(["sweep", cfg]) == 1


def test_commutator_check_runs_both_orders(tmp_path):
    cfg = write_config(tmp_path, check="commutator", mode="backward",
                       kappa=4.0, points=[0.0, 1.0], i_index=0, j_index=1,
                       out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 0
    rows = read_rows(str(tmp_path / "r"))
    assert len(rows) == 2
    assert all(r["pass"] == "true" for r in rows)


# configs the fuzz test below found escaping with a traceback or a numpy
# warning, and the documented exit code each now gets
FIELD_FLOW = dict(mode="backward", kappa=4.0, gamma=2.0)
SMALL_RUN = dict(t_final=0.01, dt=1e-3, n_paths=10)
ESCAPES = {
    "horizon_of_1e298_substeps": (2, dict(
        check="girsanov", kappa=2.0, points=[0.0, 1.0], i_index=0,
        j_index=1, t_final=0.01, dt=1e-300, n_paths=1)),
    "horizon_of_inf_substeps": (2, dict(
        check="hcap", kappa=6.0, t_final=1e308, dt=0.03)),
    "uniform_grid_of_1e298_substeps": (2, dict(
        check="zip", mode="forward", t_final=0.01, dt=1e-300,
        bulk_points=[[0.5, 1.0]])),
    "stopping_bound_underflows": (2, dict(
        check="martingale", kappa=1e-300, points=[0.0, 1.0, 2.5],
        i_index=0, t_final=0.05, dt=0.03, n_paths=50)),
    "bpz_z_overflows": (2, dict(
        check="bpz", mode="forward", kappa=1e-300, points=[0.0, 2.0])),
    "z_overflows_near_points": (2, dict(
        check="coupling_pde", mode="forward", kappa=1e-300,
        points=[0.0, 1.0], bulk_points=[[0.5, 1.0]])),
    "squared_gap_overflows": (2, dict(
        check="schemes", kappa=2.0, points=[0.0, 1e300], i_index=0,
        j_index=1, eps_tilde=0.01, c=1e-300, dt=1e-3, n_paths=10)),
    "commutator_squared_gap_overflows": (2, dict(
        check="commutator", kappa=4.0, points=[0.0, 1e300], i_index=0,
        j_index=1)),
    "coupling_pde_squared_gap_overflows_backward": (2, dict(
        check="coupling_pde", mode="backward", kappa=4.0, gamma=2.0,
        points=[0.0, 1e300], bulk_points=[[0.5, 1.0]])),
    "coupling_pde_squared_gap_overflows_forward": (2, dict(
        check="coupling_pde", mode="forward", kappa=2.0,
        points=[0.0, 1e300], bulk_points=[[0.5, 1.0]])),
    "coupling_pde_squared_bulk_distance_overflows": (2, dict(
        check="coupling_pde", mode="backward", kappa=4.0, gamma=2.0,
        points=[0.0, 1.0], bulk_points=[[1e300, 1.0]])),
    "every_scheme_path_swallowed": (3, dict(
        check="schemes", kappa=1e300, points=[0.0, 1.0, 2.5], i_index=0,
        j_index=1, eps_tilde=0.005, c=1.0, dt=1e-3, n_paths=1)),
    "forward_scheme_sums_overflow": (3, dict(
        check="schemes", mode="forward", kappa=1e300, points=[0.0, 1.0, 3.0],
        i_index=0, j_index=1, eps_tilde=0.01, c=2.0, dt=1e-3, n_paths=50)),
    "inverse_power_sums_overflow": (3, dict(
        check="inverse", kappa=1e300, bulk_points=[[0.5, 1.0]],
        t_final=0.01, dt=1e-3, n_paths=1)),
    "inverse_power_sums_cancel_to_nan": (2, dict(
        check="inverse", kappa=1e308, t_final=0.05, dt=1e-3, n_paths=10)),
    "integer_kappa_beyond_floats": (2, dict(
        check="kz", kappa=10**400, points=[0.0, 1.0])),
    "integer_point_beyond_floats": (2, dict(
        check="kz", kappa=4.0, points=[0.0, -10**400])),
    "integer_bulk_point_beyond_floats": (2, dict(
        check="zip", t_final=0.01, dt=1e-3, bulk_points=[[10**400, 1.0]])),
    "zip_squared_bulk_modulus_overflows": (2, dict(
        check="zip", t_final=0.01, dt=1e-3, bulk_points=[[1e300, 1.0]])),
    "inverse_squared_bulk_modulus_overflows": (2, dict(
        check="inverse", kappa=2.0, bulk_points=[[1e300, 1.0]],
        t_final=0.01, dt=1e-3, n_paths=10)),
    "coupling_mc_squared_bulk_distance_overflows": (2, dict(
        check="coupling_mc", **FIELD_FLOW, points=[0.0, 1.0],
        bulk_points=[[1e300, 1.0]], **SMALL_RUN)),
    "crossvar_squared_bulk_distance_overflows": (2, dict(
        check="crossvar", **FIELD_FLOW, points=[0.0, 1.0],
        bulk_points=[[1e300, 1.0], [1.0, 2.0]], **SMALL_RUN)),
    "coupling_mc_squared_gap_overflows": (2, dict(
        check="coupling_mc", **FIELD_FLOW, points=[0.0, 1e300],
        bulk_points=[[0.5, 1.0]], **SMALL_RUN)),
    "coupling_mc_coincident_bulk_points": (2, dict(
        check="coupling_mc", **FIELD_FLOW, points=[0.0, 1.0],
        bulk_points=[[1.0, 2.0], [1.0, 2.0]], **SMALL_RUN)),
    "martingale_squared_gap_overflows": (2, dict(
        check="martingale", kappa=2.0, points=[0.0, 1e300], **SMALL_RUN)),
    "girsanov_squared_gap_overflows": (2, dict(
        check="girsanov", kappa=2.0, points=[0.0, 1e300], **SMALL_RUN)),
    "martingale_gap_overflows": (2, dict(
        check="martingale", bound_n=10.0, **HUGE_GAP,
        **SMALL_RUN)),
    "girsanov_gap_overflows": (2, dict(
        check="girsanov", **HUGE_GAP, **SMALL_RUN)),
    "schemes_squared_gap_to_third_point_overflows": (2, dict(
        check="schemes", kappa=2.0, points=[0.0, 1e300, 2.0], i_index=0,
        j_index=2, eps_tilde=0.01, c=1.0, dt=1e-3, n_paths=10)),
    "bpz_stencil_overflows": (2, dict(
        check="bpz", kappa=4.0, points=[0.0], fd_step=1e308)),
    "kz_stencil_overflows": (2, dict(
        check="kz", kappa=4.0, points=[0.0], fd_step=1e308)),
    "martingale_z_overflows": (2, dict(
        check="martingale", mode="forward", kappa=1e-300,
        points=[0.0, 1.0, 2.5], **SMALL_RUN)),
    "girsanov_bound_z_overflows": (2, dict(
        check="girsanov", kappa=1e-300, points=[0.0, 1e-300], bound_n=0.5,
        **SMALL_RUN)),
    "girsanov_weights_overflow": (3, dict(
        check="girsanov", kappa=1e-300, points=[0.0, 1.0], bound_n=0.5,
        **SMALL_RUN)),
    "commutator_terms_overflow": (3, dict(
        check="commutator", kappa=1e300, points=[0.0, 1.0], i_index=0,
        j_index=1, fd_step=1e-4)),
    "coupling_mc_field_sums_overflow": (3, dict(
        check="coupling_mc", mode="forward", kappa=1e-300, points=[0.0, 1.0],
        bulk_points=[[1.0, 2.0], [-1.0, 2.0]], **SMALL_RUN)),
    "crossvar_field_sums_overflow": (3, dict(
        check="crossvar", mode="forward", kappa=1e-300, points=[0.0, 1.0],
        bulk_points=[[1.0, 2.0], [-1.0, 2.0]], **SMALL_RUN)),
    "more_paths_than_a_run_may_have": (2, dict(
        check="martingale", kappa=2.0, points=[0.0, 1.0], t_final=0.01,
        dt=0.001, n_paths=10**15)),
    "hcap_driving_beyond_the_probe": (3, dict(
        check="hcap", kappa=1e308, t_final=0.05, dt=1e-3)),
    "martingale_weights_underflow": (3, dict(
        check="martingale", kappa=1e-300, points=[0.0, 1.0], bound_n=0.5,
        t_final=0.01, dt=1e-3, n_paths=1000)),
    # the default step, 1e-4 of a gap of 5e-324, is 0
    **{f"{check}_default_fd_step_underflows": (2, dict(
        check=check, kappa=4.0, points=[0.0, 5e-324], **fields))
       for check, fields in (
           ("bpz", {}), ("kz", {}),
           ("commutator", dict(i_index=0, j_index=1)),
           ("coupling_pde", dict(gamma=2.0, bulk_points=[[0.5, 1.0]])))},
    "forward_bpz_default_fd_step_underflows": (2, dict(
        check="bpz", mode="forward", kappa=4.0, points=[0.0, 5e-324, 1e6])),
    # 2/kappa is inf at kappa 5e-324, and h is -inf at 1.2e-308
    "kz_exponent_beyond_floats": (2, dict(
        check="kz", kappa=5e-324, points=[0.001, 4.0])),
    "martingale_exponent_beyond_floats": (2, dict(
        check="martingale", kappa=5e-324, points=[0.0, 1.0], **SMALL_RUN)),
    "forward_coupling_pde_exponent_beyond_floats": (2, dict(
        check="coupling_pde", mode="forward", kappa=5e-324,
        points=[0.0, 1.0], bulk_points=[[0.5, 1.0]])),
    "bpz_weight_beyond_floats": (2, dict(
        check="bpz", kappa=1.2e-308, points=[0.001, 4.0])),
    "martingale_weight_beyond_floats": (2, dict(
        check="martingale", kappa=1.2e-308, points=[0.0, 4.0], **SMALL_RUN)),
    "kz_weight_beyond_floats": (2, dict(
        check="kz", kappa=1.2e-308, points=[0.001, 4.0])),
    # 2 kappa is inf above about 9e307, which made h -0.0
    "martingale_twice_kappa_beyond_floats": (2, dict(
        check="martingale", kappa=1e308, points=[0.0, 1.0], t_final=0.01,
        dt=1e-3, n_paths=50)),
    "bpz_twice_kappa_beyond_floats": (2, dict(
        check="bpz", kappa=1e308, points=[0.0, 1.0])),
    # at kappa 2e-308 h and 2/kappa are finite, but log Z is not
    "bpz_log_z_overflows": (2, dict(
        check="bpz", kappa=2e-308, points=[0.0, 100.0])),
    "kz_log_z_overflows": (2, dict(
        check="kz", kappa=2e-308, points=[0.0, 100.0])),
    "martingale_weight_sums_overflow": (3, dict(
        check="martingale", kappa=1e300, points=[1e-12, 0.5, 8.0],
        bound_n=1.0, t_final=0.01, dt=1e-3, n_paths=3)),
    "girsanov_weight_sums_overflow": (3, dict(
        check="girsanov", kappa=1e300, points=[1e-12, 0.5, 8.0],
        bound_n=1.0, t_final=0.01, dt=1e-3, n_paths=3)),
}


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_found_escape_exits_with_one_line(tmp_path, capsys, case):
    code, fields = ESCAPES[case]
    cfg = write_config(tmp_path, n_workers=1, out_path=str(tmp_path / "r"),
                       **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", cfg]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "r.csv").exists()


def test_integer_too_long_to_parse_exit_two(tmp_path, capsys):
    # json refuses integers of more than 4300 digits with a ValueError
    path = tmp_path / "c.json"
    path.write_text('{"check": "kz", "kappa": 1' + "0" * 5000
                    + ', "points": [0.0, 1.0]}')
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


# ---------------------------------------------------------------------------
# Fuzzing: any config built from a check's documented fields exits with a
# documented code and never raises.

MISSING = object()
NAN = float("nan")
HUGE = (1e300, -1e300, 1e308)
# wrong types, NaN, zero and negatives, shared by the numeric fields
BAD_NUMBER = (MISSING, "1", None, True, [1.0], NAN, 0, -1, -0.5, *HUGE)
BAD_INDEX = (MISSING, -1, 7, 0.5, "0", None, True, NAN, 1e300)
# Sizes stay at 50 paths and 50 steps or below, except where t_final / dt
# is 1e298 or more, which the CLI must refuse before allocating: no huge
# dt below the largest t_final, since 1e308 / 1e300 is a valid horizon of
# 1e8 substeps.
BAD_DT = (MISSING, "1", None, True, [1.0], NAN, 0, -1, -0.5, -1e300, 1e308)
# field: (valid and boundary values, invalid values)
FIELDS = {
    "mode": (["backward"] * 3 + ["forward"] * 2,
             ["sideways", 1, None, MISSING]),
    "kappa": ([2.0, 4.0, 4.0, 6.0, 8.0 / 3.0, 1e-300, 1.2e-308, 5e-324,
               1e308],
              BAD_NUMBER),
    "points": ([[0.0, 1.0]] * 3 + [[0.0, 1.0, 2.5], [-1.0, 0.5, 2.0], [0.0],
                [0.0, 1e-300], [0.0, 5e-324], [0.0, 1e300], [1e308, -1e308],
                [0.0, 0.0]],
               [MISSING, [], "x", [NAN, 1.0], [0.0, "a"], None, 5]),
    "i_index": ([0, 0, 1], BAD_INDEX),
    "j_index": ([1, 1, 0, 2], BAD_INDEX),
    "t_final": ([0.01, 0.02, 0.05], BAD_NUMBER),
    "dt": ([1e-3, 1e-3, 2e-3, 0.01, 0.03, 0.05, 1e-300], BAD_DT),
    "n_paths": ([1, 10, 50, 50],
                [MISSING, 0, -1, 1.5, "10", None, True, NAN, 1e300]),
    "seed": ([0, 3, 2**64 - 1],
             [MISSING, 1.5, "s", None, NAN, 1e300, 2**64, -1, 10**30]),
    "bound_n": ([0.5, 10.0, 1e-300, 1e300], BAD_NUMBER),
    "eps_tilde": ([0.005, 0.01, 0.01, 0.3, 1e-12], BAD_NUMBER),
    "c": ([1.0, 2.0, 2.0, 1e-300], BAD_NUMBER),
    "gamma": ([2.0, 2.0, 1.0, 1.3], BAD_NUMBER),
    "fd_step": ([1e-4, 1e-3, 0.5, 1e-300], BAD_NUMBER),
    "bulk_points": ([[[0.5, 1.0]], [[1.0, 2.0], [-1.0, 2.0]],
                     [[1.0, 2.0], [-1.0, 2.0]], [[0.0, 1e-300]],
                     [[1.0, 2.0], [1.0, 2.0]], [[1e300, 1.0]]],
                    [MISSING, [], "x", [[1.0]], [[NAN, 1.0]], [1.0, 2.0],
                     [[0.5, 0.0]], [[0.5, -1.0]], [[True, 1.0]]]),
}


def test_fuzz_covers_every_config_field():
    # n_workers is read by resolve_workers alone, and the fuzz run sets it
    assert set(FIELDS) == set(_READERS)
    assert set(FIELDS) == {"seed"}.union(*(f for _, f in CHECKS.values()))


# ---------------------------------------------------------------------------
# Each check accepts the fields of its list in CHECKS, plus "check",
# "out_path", "seed" and "n_workers"; any other field exits 2.

TINY_RUN = dict(t_final=0.005, dt=1e-3, n_paths=10)
VALID = {
    "zip": dict(mode="backward", t_final=0.01, dt=1e-3),
    "hcap": dict(kappa=4.0, t_final=0.01, dt=1e-3),
    "bpz": dict(kappa=4.0, points=[0.0, 1.0]),
    "kz": dict(kappa=4.0, points=[0.0, 1.0]),
    "commutator": dict(kappa=4.0, points=[0.0, 1.0], i_index=0, j_index=1),
    "schemes": dict(kappa=4.0, points=[0.0, 1.0], i_index=0, j_index=1,
                    eps_tilde=0.01, c=2.0, dt=1e-3, n_paths=10),
    "martingale": dict(kappa=4.0, points=[0.0, 1.0], bound_n=5.0,
                       **TINY_RUN),
    "girsanov": dict(kappa=4.0, points=[0.0, 1.0], **TINY_RUN),
    "inverse": dict(kappa=4.0, bulk_points=[[0.0, 2.0]], **TINY_RUN),
    "coupling_pde": dict(kappa=4.0, gamma=2.0, points=[0.0, 1.0],
                         bulk_points=[[0.5, 1.0]]),
    "coupling_mc": dict(kappa=4.0, gamma=2.0, points=[0.0, 1.0],
                        bulk_points=[[0.5, 1.0]], **TINY_RUN),
    "crossvar": dict(kappa=4.0, gamma=2.0, points=[0.0, 1.0],
                     bulk_points=[[1.0, 2.0], [-1.0, 2.0]], **TINY_RUN),
}


def _run_with(tmp_path, check, **extra) -> int:
    fields = dict(seed=1, n_workers=1, out_path=str(tmp_path / "r"),
                  **VALID[check])
    cfg = write_config(tmp_path, check=check, **{**fields, **extra})
    return main(["check", cfg])


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_config_of_check_fields_runs(tmp_path, check):
    assert set(VALID[check]) <= set(CHECKS[check][1])
    assert _run_with(tmp_path, check) in (0, 1)


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_reads_exactly_its_fields(check):
    """A runner's parameters are its check's fields, so its body loads
    each one: a parameter it never reads would be a field that changes
    nothing.  A field read but not listed cannot exist, as a runner sees
    only its parameters."""
    run = CHECKS[check][0]
    body = ast.parse(textwrap.dedent(inspect.getsource(run))).body[0].body
    loaded = {node.id for stmt in body for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert set(inspect.signature(run).parameters) <= loaded


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_bad_seed_exit_two(tmp_path, capsys, check):
    """Every report echoes the seed, so every check refuses a bad one,
    also the checks that draw no random numbers.  An integer outside
    [0, 2**64) is bad too: masked to 64 bits, seeds 0 and 2**64 would
    draw one stream while their reports echo different seeds."""
    for seed in ("abc", 2**64, -1, 10**30):
        assert _run_with(tmp_path, check, seed=seed) == 2
        assert "field 'seed'" in _config_error_line(capsys)
        assert not (tmp_path / "r.csv").exists()
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_field_of_another_check_exit_two(tmp_path, capsys, check):
    every = set().union(*(fields for _, fields in CHECKS.values()))
    foreign = sorted(every - set(CHECKS[check][1]))
    assert foreign
    for field in foreign:
        assert _run_with(tmp_path, check, **{field: FIELDS[field][0][0]}) == 2
        assert f"unknown field {field!r}" in _config_error_line(capsys)
        assert not (tmp_path / "r.csv").exists()


# a foreign field used to pass with any value: zip never read kappa, and
# inverse ran backward whatever mode said
@pytest.mark.parametrize("check, field, value", [
    ("zip", "kappa", -1), ("inverse", "mode", "forward"),
    ("kz", "n_paths", 0), ("hcap", "points", [0.0, 0.0])])
def test_foreign_field_with_any_value_exit_two(tmp_path, capsys, check,
                                               field, value):
    assert _run_with(tmp_path, check, **{field: value}) == 2
    assert f"unknown field {field!r}" in _config_error_line(capsys)


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_chi_is_no_field(tmp_path, capsys, check):
    # the coupling fixes the forward curvature from kappa alone
    assert _run_with(tmp_path, check, chi=0.5) == 2
    assert "unknown field 'chi'" in _config_error_line(capsys)


@pytest.mark.parametrize("check", ["martingale", "girsanov"])
def test_bound_n_is_a_multiple_of_z_in_cli_and_library(tmp_path, check):
    # at points (0, 2) Z is 2^-1/2, so a multiple and an absolute bound differ
    spec, cfg = PartitionSpec("backward", 4.0, 2), validate_config([0.0, 2.0])
    z = spec.z(cfg.as_array())
    assert z != 1.0
    run = dict(t_final=0.05, dt=1e-3, n_paths=400)
    path = write_config(tmp_path, check=check, kappa=4.0, points=[0.0, 2.0],
                        i_index=0, bound_n=1.1, seed=3,
                        out_path=str(tmp_path / "r"), **run)
    assert main(["check", path]) in (0, 1)
    (row,) = read_rows(str(tmp_path / "r"))

    def library(bound_n, t_final=run["t_final"]):
        fn, j = ((girsanov_check, (None,)) if check == "girsanov"
                 else (martingale_check, ()))
        rep = fn(spec, cfg, 0, *j, t_final, run["dt"], run["n_paths"],
                 bound_n=bound_n, seed=3)
        return [repr(float(v)) for v in
                (rep.estimate, rep.std_error, rep.reference)]

    assert [row["estimate"], row["std_error"], row["reference"]] \
        == library(1.1) != library(1.1 / z)
    # 0.9 M_0 stops every path after one step; an absolute 0.9 would not,
    # since M_0 = Z < 0.9
    assert library(0.9) == library(0.9, t_final=run["dt"]) != library(0.9 / z)


# misspelled field names; about one fuzzed config in ten gets one
TYPOS = ("mdoe", "sed", "boundn", "kapa", "n_path", "fdstep")


def _field_value(field):
    valid, bad = FIELDS[field]
    # each valid value weighs three times a bad one, so most configs
    # get past validation
    return st.sampled_from(list(valid) * 3 + list(bad))


@st.composite
def _configs(draw, check):
    config = {"check": check}
    for field in (*CHECKS[check][1], "seed"):
        value = draw(_field_value(field))
        if value is not MISSING:
            config[field] = value
    typo = draw(st.sampled_from((None,) * 9 + TYPOS))
    if typo is not None:
        config[typo] = 1
    return config


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_fuzzed_config_exits_with_a_documented_code(check):
    @settings(max_examples=40, deadline=None)
    @given(config=_configs(check))
    def run(config):
        with tempfile.TemporaryDirectory() as tmp:
            config = dict(config, n_workers=1,
                          out_path=os.path.join(tmp, "r"))
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            err = io.StringIO()
            # a numpy warning would print lines of its own
            with mock.patch.dict(os.environ, {"SLELAB_WORKERS": "1"}), \
                    warnings.catch_warnings(), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(["check", path])
        assert code in (0, 1, 2, 3), (code, config)
        if set(config) & set(TYPOS):
            assert code == 2 and "unknown field" in err.getvalue(), config
        if code in (2, 3):
            assert err.getvalue().count("\n") == 1, (err.getvalue(), config)
    run()
