"""Tests for the benchmark harness: configs, rate fits, suites, CLI, and
the package's public exports."""

import csv
import json
import math

import numpy as np
import pytest

import saddleopt
from saddleopt.cli import (LOWERBOUND_HEADER, RESULT_HEADER, BenchConfig,
                           fit_rate, lowerbound_csv, main, run_suite)
from saddleopt.lowerbound import experiment_row
from saddleopt.problems import _KIND_KEYS

QUAD2 = {"problem": "quadratic", "dim": 2, "p": 1}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_eps_grid_must_decrease():
    with pytest.raises(ValueError, match="decreasing"):
        BenchConfig(problems=[QUAD2], eps_grid=[1e-3, 1e-2])
    with pytest.raises(ValueError, match="decreasing"):
        BenchConfig(problems=[QUAD2], eps_grid=[1e-2, 1e-2])


def test_eps_grid_needs_two_points():
    with pytest.raises(ValueError, match="2 points"):
        BenchConfig(problems=[QUAD2], eps_grid=[1e-2])


def test_unknown_solver_rejected():
    with pytest.raises(ValueError, match="solver"):
        BenchConfig(problems=[QUAD2], eps_grid=[1e-2, 1e-3],
                    solvers=["gradient_descent"])


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_power_law():
    eps = [10.0 ** -k for k in range(1, 7)]
    rows = [(e, (1.0 / e) ** 0.5) for e in eps]
    fit = fit_rate(rows)
    assert fit.slope == pytest.approx(0.5, abs=1e-10)
    assert fit.half_width <= 1e-10
    assert not fit.degenerate


def test_fit_rate_with_noise():
    rng = np.random.default_rng(5)
    eps = [10.0 ** -(0.5 * k) for k in range(1, 13)]
    for _ in range(5):
        rows = [(e, (1.0 / e) ** (2.0 / 3.0)
                 * (1.0 + 0.1 * rng.uniform(-1, 1))) for e in eps]
        fit = fit_rate(rows)
        assert abs(fit.slope - 2.0 / 3.0) <= 0.05


def test_fit_rate_needs_three_rows():
    with pytest.raises(ValueError, match="3"):
        fit_rate([(1e-2, 10.0), (1e-3, 100.0)])


def test_fit_rate_degenerate_counts_flagged():
    fit = fit_rate([(1e-1, 50.0), (1e-2, 50.0), (1e-3, 50.0)])
    assert fit.slope == 0.0
    assert fit.degenerate


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_empty_problem_list_gives_header_only_csv(tmp_path):
    cfg = BenchConfig(problems=[], eps_grid=[1e-2, 1e-3])
    summary = run_suite(cfg, str(tmp_path / "out"))
    text = (tmp_path / "out" / "results.csv").read_text()
    assert text.strip() == ",".join(RESULT_HEADER)
    assert summary["rows"] == 0 and summary["exit_code"] == 0


def test_suite_cardinality_and_determinism(tmp_path):
    cfg = BenchConfig(problems=[QUAD2,
                                {"problem": "power", "dim": 2, "p": 1}],
                      eps_grid=[1e-2, 3e-3], solvers=["eg_baseline"],
                      seeds=[1])
    s1 = run_suite(cfg, str(tmp_path / "a"), jobs=2)
    s2 = run_suite(cfg, str(tmp_path / "b"), jobs=1)
    assert s1["rows"] == 4                       # 2 problems x 2 eps x 1 seed
    for name in ["results.csv"] + [f"trace_{i:04d}.csv" for i in range(4)]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    with open(tmp_path / "a" / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["row"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["target_met"] == "True" for r in rows)


def test_bad_cell_is_flagged_and_run_continues(tmp_path):
    cfg = BenchConfig(problems=[{"problem": "no_such_kind"}, QUAD2],
                      eps_grid=[1e-2, 3e-3], solvers=["eg_baseline"],
                      seeds=[0])
    summary = run_suite(cfg, str(tmp_path / "out"))
    assert summary["exit_code"] == 2
    assert summary["flagged_rows"] == [0, 1]     # both eps of the bad problem
    with open(tmp_path / "out" / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["flags"].startswith("error:")
    assert rows[2]["target_met"] == "True"       # healthy problem still ran


def test_rate_fit_in_summary(tmp_path):
    cfg = BenchConfig(problems=[QUAD2], eps_grid=[3e-2, 1e-2, 3e-3],
                      solvers=["eg_baseline"], seeds=[1])
    summary = run_suite(cfg, str(tmp_path / "out"))
    assert len(summary["rate_fits"]) == 1
    (fit,) = summary["rate_fits"].values()
    assert fit["slope"] > 0


# ---------------------------------------------------------------------------
# lower-bound experiment plumbing
# ---------------------------------------------------------------------------

def test_lowerbound_rows_and_csv():
    rows = [experiment_row(1, T) for T in (4, 8)]
    assert [r["T"] for r in rows] == [4, 8]
    for r in rows:
        assert r["ratio"] >= 1.0
        assert r["support_violations"] == 0
        assert r["unit_diameter_residual"] == pytest.approx(
            r["measured_residual"] / math.sqrt(2 * (r["T"] + 1)))
    text = lowerbound_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(LOWERBOUND_HEADER)
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------

def test_cli_solve(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(QUAD2, seed=1, eps=1e-2,
                                    solver="eg_baseline")))
    code = main(["solve", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["residual"] <= 1e-2
    assert out["method"].startswith("eg")


def test_cli_lowerbound(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code = main(["lowerbound", "--p", "1", "--tmax", "16",
                 "--out", str(out_file)])
    assert code == 0
    captured = capsys.readouterr()
    printed = captured.out
    assert printed == out_file.read_text()
    assert printed.splitlines()[0] == ",".join(LOWERBOUND_HEADER)
    assert len(printed.splitlines()) == 4          # header + T = 4, 8, 16
    assert captured.err.startswith("# unit-diameter residual ~ T^-")


def test_cli_lowerbound_rejects_small_tmax(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound", "--p", "1", "--tmax", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tmax must be at least 4" in captured.err


def test_cli_bench(tmp_path, capsys):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"problems": [QUAD2],
                                    "eps_grid": [1e-2, 3e-3],
                                    "solvers": ["eg_baseline"],
                                    "seeds": [1]}))
    code = main(["bench", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--jobs", "1"])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_check(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "check: ok" in lines
    # the self-test checks the derivatives of every kind from_config builds
    for kind in _KIND_KEYS:
        assert any(ln.startswith(f"derivatives {kind}(") for ln in lines), kind


@pytest.mark.parametrize("command, cfg, detail", [
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "solver": "eg_baseline"}, "'solver'"),
    ("solve", dict(QUAD2, solver="eg_baseline"), "missing key 'eps'"),
    ("solve", {"problem": "no_such_kind", "eps": 1e-2},
     "unknown problem kind 'no_such_kind'"),
    ("solve", dict(QUAD2, eps=1e-2, paper_value_mode=True),
     "unknown keys for problem 'quadratic': paper_value_mode"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "paper_value_mode": True}, "'paper_value_mode'"),
    ("solve", "abc", "config must be a JSON object"),
    ("solve", dict(QUAD2, eps=-1), "eps must be a finite number > 0"),
    ("solve", dict(QUAD2, eps=1e9), "precision precondition violated"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, -1e-2]},
     "every eps must be > 0"),
    ("solve", {"problem": "hard_lin", "eps": 1e-2},
     "unknown problem kind 'hard_lin'"),
    # eps values are checked, not coerced
    ("solve", dict(QUAD2, eps=True), "eps must be a finite number > 0"),
    ("solve", dict(QUAD2, eps="0.05"), "eps must be a finite number > 0"),
    ("bench", {"problems": [QUAD2], "eps_grid": [math.inf, 1e-2],
               "solvers": ["eg_baseline"]}, "every eps must be > 0"),
    ("bench", {"problems": [QUAD2], "eps_grid": [True, 1e-2],
               "solvers": ["eg_baseline"]}, "every eps must be > 0"),
    ("bench", {"problems": [QUAD2], "eps_grid": ["0.02", 1e-2],
               "solvers": ["eg_baseline"]}, "every eps must be > 0"),
])
def test_bad_config_is_one_line_and_exit_2(tmp_path, capsys, command, cfg,
                                           detail):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command == "bench":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("saddlebench: bad config: ")
    assert detail in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# public exports
# ---------------------------------------------------------------------------

def test_every_public_name_resolves():
    for name in saddleopt.__all__:
        assert getattr(saddleopt, name) is not None, name
    ns = {}
    exec("from saddleopt import *", ns)
    assert set(saddleopt.__all__) <= set(ns)
