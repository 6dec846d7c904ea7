"""Tests for the benchmark harness: configs, rate fits, suites, CLI, and
the package's public exports."""

import ast
import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import saddleopt
from saddleopt import cli
from saddleopt.cli import (LOWERBOUND_HEADER, RESULT_HEADER, BenchConfig,
                           fit_rate, lowerbound_csv, main, run_suite)
from saddleopt.lowerbound import experiment_row
from saddleopt.problems import _KIND_KEYS, from_config

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


def test_empty_problem_list_is_refused():
    with pytest.raises(ValueError, match="non-empty list of objects"):
        BenchConfig(problems=[], eps_grid=[1e-2, 1e-3])


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
    assert list(rows[0]) == RESULT_HEADER
    assert [r["row"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["target_met"] == "True" for r in rows)


AIPE_SUITE = BenchConfig(problems=[QUAD2], eps_grid=[4e-2, 3e-2],
                         solvers=["minimax_aipe"], seeds=[0])


def _rows(out):
    with open(out / "results.csv") as fh:
        return list(csv.DictReader(fh))


def test_aipe_rows_in_worker_processes_keep_the_serial_bytes(
        tmp_path, monkeypatch):
    # jobs=2 and jobs above the row count write what jobs=1 writes
    for jobs in (1, 2, 5):
        summary = run_suite(AIPE_SUITE, str(tmp_path / str(jobs)), jobs=jobs)
        assert summary["rows"] == 2 and summary["exit_code"] == 0
    for name in ("results.csv", "trace_0000.csv", "trace_0001.csv"):
        serial = (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / "2" / name).read_bytes() == serial
        assert (tmp_path / "5" / name).read_bytes() == serial
    assert all(r["target_met"] == "True" and r["flags"] == ""
               for r in _rows(tmp_path / "1"))

    # and the rows really run in other processes
    real = cli.solve

    def tagged(problem, eps, cfg):
        z, report = real(problem, eps, cfg)
        report.flags.append(f"pid:{os.getpid()}")
        return z, report

    monkeypatch.setattr(cli, "solve", tagged)
    run_suite(AIPE_SUITE, str(tmp_path / "pids"), jobs=2)
    pids = [r["flags"] for r in _rows(tmp_path / "pids")]
    assert len(pids) == 2 and all(f.startswith("pid:") for f in pids)
    assert f"pid:{os.getpid()}" not in pids


def _off_by_one(real):
    def solver(problem, eps, *args):
        z, report = real(problem, eps, *args)
        key = next(iter(report.counts))
        counts = dict(report.counts, **{key: report.counts[key] + 1})
        return z, dataclasses.replace(report, counts=counts)
    return solver


def _far_point(real):
    # the point of the corner box with the largest residual, measured on
    # an instance of its own so the row's counter does not move
    def solver(problem, eps, *args):
        z, report = real(problem, eps, *args)
        other = from_config(dict(QUAD2, seed=0))
        corners = [np.array(c, float) for c in
                   np.ndindex(*(2,) * len(z))]
        far = max((2.0 * c - 1.0 for c in corners), key=lambda c:
                  other.domain.tangent_residual(c, other.operator()(c)))
        return far, report
    return solver


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("wrap, flag", [(_off_by_one, "recheck:calls:"),
                                        (_far_point, "recheck:residual:")])
def test_each_row_rechecks_its_calls_and_residual(tmp_path, monkeypatch,
                                                  jobs, wrap, flag):
    cfg = BenchConfig(problems=[QUAD2], eps_grid=[4e-2, 3e-2],
                      solvers=["eg_baseline"], seeds=[0])
    monkeypatch.setattr(cli, "baseline_eg_solve",
                        wrap(cli.baseline_eg_solve))
    summary = run_suite(cfg, str(tmp_path / "out"), jobs=jobs)
    assert summary["exit_code"] == 2 and summary["flagged_rows"] == [0, 1]
    for r in _rows(tmp_path / "out"):
        assert r["target_met"] == "False"
        (miss,) = [f for f in r["flags"].split(";")
                   if f.startswith("recheck:")]
        assert miss.startswith(flag), r["flags"]
        assert float(r["residual"]) <= float(r["eps"])   # as reported


def test_a_dead_worker_leaves_flagged_rows_not_a_traceback(tmp_path,
                                                           monkeypatch):
    # a worker that dies in the row at eps 3e-3 breaks the pool; every row
    # the pool did not finish is an error row, and run_suite returns
    cfg = BenchConfig(problems=[QUAD2], eps_grid=[1e-2, 3e-3],
                      solvers=["eg_baseline"], seeds=[0, 1])
    real = cli.baseline_eg_solve

    def dies(problem, eps, *args):
        if eps == 3e-3:
            os._exit(1)
        return real(problem, eps, *args)

    monkeypatch.setattr(cli, "baseline_eg_solve", dies)
    summary = run_suite(cfg, str(tmp_path / "out"), jobs=2)
    assert summary["exit_code"] == 2
    rows = _rows(tmp_path / "out")
    assert len(rows) == 4
    for r in rows:
        dead = r["flags"].startswith("error:BrokenProcessPool:")
        assert dead or (r["flags"] == "" and r["target_met"] == "True")
        assert dead or float(r["eps"]) != 3e-3
    assert {int(r["row"]) for r in rows if r["flags"]} >= {2, 3}
    assert all(r["target_met"] == "False" for r in rows if r["flags"])


def test_importing_the_package_loads_no_process_pool():
    code = ("import sys, saddleopt, saddleopt.cli; print(sorted(m for m in "
            "sys.modules if m.startswith(('multiprocessing', "
            "'concurrent.futures.process'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(
                             pathlib.Path(cli.__file__).parents[1])))
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("problems", [
    [{"problem": "power", "dim": 2, "p": 1},
     {"problem": "power", "dim": 2, "p": 2}],
    [{"problem": "bilinear", "dim": 2, "L1": 1.0},
     {"problem": "bilinear", "dim": 2, "L1": 4.0}],
])
def test_rate_fits_keep_distinct_problems_apart(tmp_path, problems):
    # two problems with the same dim and seed but another p or L1 must get
    # one fit each, not one fit over their 6 rows together
    cfg = BenchConfig(problems=problems, eps_grid=[0.1, 0.05, 0.02],
                      solvers=["eg_baseline"], seeds=[0])
    summary = run_suite(cfg, str(tmp_path / "out"))
    assert summary["rows"] == 6 and not summary["flagged_rows"]
    assert len(summary["rate_fits"]) == 2        # so 3 rows each
    with open(tmp_path / "out" / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len({(r["problem"], r["p"]) for r in rows}) == 2


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_bench_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"problems": [QUAD2],
                                    "eps_grid": [1e-2, 3e-3]}))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(cfg_path),
              "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs must be at least 1" in captured.err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["bench", "lowerbound"])
def test_unwritable_out_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch,
                                               command):
    # --out under a regular file cannot be written: the path is checked
    # before any row runs, and the error is one line, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"problems": [QUAD2],
                                    "eps_grid": [1e-2, 3e-3]}))
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(cli, "experiment_row", lambda *a: ran.append(a))
    argv = (["bench", "--config", str(cfg_path)] if command == "bench"
            else ["lowerbound", "--p", "1"])
    assert main(argv + ["--out", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not ran
    assert captured.err.startswith("saddlebench: cannot write --out: ")
    assert captured.err.count("\n") == 1


def test_cli_check(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "check: ok" in lines
    # the self-test checks the derivatives of every kind from_config builds
    for kind in _KIND_KEYS:
        assert any(ln.startswith(f"derivatives {kind}(") for ln in lines), kind
    # the p=2 problems (power and the p=2 chain) also report the Hessian
    for ln in lines:
        if ln.startswith("derivatives "):
            p2 = ln.startswith(("derivatives power(",
                                "derivatives hard_new(p=2,"))
            assert ("hess err" in ln) == p2, ln


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
    # seeds and problems are checked before any row runs
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "seeds": [-1]}, "seed must be an integer >= 0, got -1"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "seeds": [True]}, "seed must be an integer >= 0, got True"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "seeds": 3}, "seeds must be a non-empty list of integers"),
    ("bench", {"problems": 3, "eps_grid": [1e-2, 3e-3]},
     "problems must be a non-empty list of objects"),
    ("bench", {"problems": [], "eps_grid": [1e-2, 3e-3]},
     "problems must be a non-empty list of objects"),
    # solvers: a non-empty list of distinct known names
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "solvers": []}, "solvers must be a non-empty list of distinct"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "solvers": "minimax_aipe"},
     "solvers must be a non-empty list of distinct"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "solvers": 3}, "solvers must be a non-empty list of distinct"),
    ("bench", {"problems": [QUAD2], "eps_grid": [1e-2, 3e-3],
               "solvers": ["eg_baseline", "eg_baseline"]},
     "solvers must be a non-empty list of distinct"),    # the suite's seeds set every row's seed; a problem's own is refused
    ("bench", {"problems": [dict(QUAD2, seed=7)], "eps_grid": [1e-2, 3e-3]},
     "a problems entry takes its seed from seeds, not a seed key"),
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


def test_library_holds_no_test_only_code():
    """Every top-level function and class of the package is referenced by
    another package module or the benchmark, used elsewhere in its own
    module, or exported in __all__.  Every public method or class-level
    alias of a package class is reached as an attribute by package or
    benchmark code, or is a name the benchmark patches by string.
    Anything else only the tests reach."""
    lib = pathlib.Path(saddleopt.__file__).parent
    bench = lib.parents[1] / "perfbench"
    trees = {p: ast.parse(p.read_text())
             for p in sorted(lib.glob("*.py")) + sorted(bench.glob("*.py"))}

    def names(nodes):
        out = set()
        for node in nodes:
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    out.add(n.id)
                elif isinstance(n, ast.Attribute):
                    out.add(n.attr)
                elif isinstance(n, ast.alias):
                    out.add(n.name)
        return out

    reached = {n.attr for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.Attribute)}
    # the tracer patches (owner, "attribute", "metric") triples
    reached |= {n.elts[1].value for p, t in trees.items()
                if p.parent == bench for n in ast.walk(t)
                if isinstance(n, ast.Tuple) and len(n.elts) == 3
                and isinstance(n.elts[0], (ast.Name, ast.Attribute))
                and isinstance(n.elts[1], ast.Constant)}

    def members(cls):
        """The class's public methods and name = other_name aliases."""
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                yield item.name
            elif isinstance(item, ast.Assign) \
                    and isinstance(item.value, ast.Name):
                yield from (t.id for t in item.targets
                            if isinstance(t, ast.Name))

    unused = []
    for path in lib.glob("*.py"):
        body = trees[path].body
        others = names(t for p, t in trees.items() if p != path)
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = names(n for n in body if n is not node)
                if node.name not in others | own | set(saddleopt.__all__):
                    unused.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.name}:{node.name}.{m}"
                           for m in members(node)
                           if not m.startswith("_") and m not in reached]
    assert unused == []


def test_library_norms_every_vector_through_geometry_norm():
    """np.linalg.norm is called only for a matrix norm, with an ord; a
    vector norm goes through geometry.norm, which skips its overhead."""
    lib = pathlib.Path(saddleopt.__file__).parent
    bare = []
    for path in sorted(lib.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).endswith("linalg.norm")
                    and len(node.args) < 2
                    and not any(k.arg == "ord" for k in node.keywords)):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is for the tests only
    code = ("import sys, saddleopt, saddleopt.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(saddleopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
