"""End-to-end tests for the CLI: configs in, reports out, exit codes."""

import csv
import json
import os

import pytest

from slelab.cli import main, resolve_workers

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
    cfg = write_config(tmp_path, check="zip", mode="forward", kappa=4.0,
                       points=[0.0, 1.0], t_final=1.0, dt=1e-3,
                       bulk_points=[[0.0, 0.05]], out_path=str(tmp_path / "r"))
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
}


def test_girsanov_on_worker_pool_matches_one_worker(tmp_path, monkeypatch):
    _pool_matches_one_worker(tmp_path, monkeypatch, check="girsanov",
                             mode="backward", kappa=4.0, points=[0.0, 1.0],
                             i_index=0, **SHORT)


@pytest.mark.parametrize("check", sorted(POOL_CHECKS))
def test_ensemble_on_worker_pool_matches_one_worker(tmp_path, monkeypatch,
                                                    check):
    _pool_matches_one_worker(tmp_path, monkeypatch, check=check,
                             **POOL_CHECKS[check])


def _config_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


def test_inverse_ragged_grid_exit_two(tmp_path, capsys):
    # 0.1 is not a whole number of 0.03 substeps; time reversal needs one
    cfg = write_config(tmp_path, check="inverse", kappa=4.0, t_final=0.1,
                       dt=0.03, n_paths=10, out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "multiple of dt" in _config_error_line(capsys)


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


def test_schemes_leg_shorter_than_substep_exit_two(tmp_path, capsys):
    # the first leg lasts about 2e-12, far less than one substep of dt
    cfg = write_config(tmp_path, check="schemes", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0, j_index=1,
                       eps_tilde=1e-12, c=2.0, dt=1e-3, n_paths=10,
                       n_workers=1, out_path=str(tmp_path / "r"))
    assert main(["check", cfg]) == 2
    assert "shorter than one substep" in _config_error_line(capsys)
    assert not (tmp_path / "r.csv").exists()


def test_out_flag_redirects_stem(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    cfg = write_config(tmp_path, check="kz", mode="backward", kappa=4.0,
                       points=[0.0, 1.0], i_index=0,
                       out_path=str(tmp_path / "elsewhere" / "r"))
    assert main(["check", cfg, "--out", str(sub)]) == 0
    assert (sub / "r.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


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
