"""Benchmark harness: solver suites, empirical rate fits, floor experiments.

Subcommands:
  solve       run one solver on one problem from a JSON config
  bench       run a suite (problems x solvers x eps grid x seeds) to CSV/JSON
  lowerbound  residual-floor experiment on the chain hard instances
  check       derivative and geometry self-tests

All randomness flows from config seeds; result CSVs contain no wall-clock
values, so identical configs give byte-identical files.  Wall times go to
the JSON summary only.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import norm
from .lowerbound import experiment_row
from .minimax import baseline_eg_solve, derive_parameters, solve
from .problems import _int_key, _positive, check_derivatives, from_config

RESULT_HEADER = ["row", "problem", "solver", "p", "eps", "seed", "residual",
                 "target_met", "oracle_calls", "flags"]
TRACE_HEADER = ["oracle_calls", "residual", "gap_if_available", "loop_level"]
LOWERBOUND_HEADER = ["T", "p", "measured_residual", "analytic_floor", "ratio",
                     "support_violations", "unit_diameter_residual"]

SOLVERS = ("minimax_aipe", "eg_baseline")


def _fmt(v) -> str:
    """17-significant-digit formatting for all floats in CSV output."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
class BenchConfig:
    """A benchmark suite: every problem spec is run with every solver at
    every epsilon for every seed."""

    problems: list                    # problem-config dicts
    eps_grid: list
    solvers: list = field(default_factory=lambda: list(SOLVERS))
    seeds: list = field(default_factory=lambda: [0])
    name: str = "bench"

    def __post_init__(self):
        try:
            self.eps_grid = [_positive(e, "eps") for e in self.eps_grid]
        except ValueError as exc:
            raise ValueError(f"every eps must be > 0 ({exc})") from None
        if len(self.eps_grid) < 2:
            raise ValueError("eps grid needs at least 2 points")
        if any(b >= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise ValueError("eps grid must be strictly decreasing")
        shape = ("solvers must be a non-empty list of distinct names from "
                 f"{SOLVERS}, got {self.solvers!r}")
        if not (isinstance(self.solvers, list) and self.solvers):
            raise ValueError(shape)
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}")
        if len(set(self.solvers)) < len(self.solvers):
            raise ValueError(shape)
        if not (isinstance(self.problems, list) and self.problems
                and all(isinstance(q, dict) for q in self.problems)):
            raise ValueError("problems must be a non-empty list of objects, "
                             f"got {self.problems!r}")
        for q in self.problems:
            if "seed" in q:
                raise ValueError("a problems entry takes its seed from "
                                 f"seeds, not a seed key, got {q!r}")
        if not (isinstance(self.seeds, list) and self.seeds):
            raise ValueError("seeds must be a non-empty list of integers "
                             f">= 0, got {self.seeds!r}")
        for s in self.seeds:
            _int_key({"seed": s}, "seed", 0, lo=0)

    @classmethod
    def from_file(cls, path: str) -> "BenchConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls(**raw)


@dataclass
class RateFit:
    slope: float
    half_width: float                 # 2 x standard error of the slope
    degenerate: bool = False


def fit_rate(rows) -> RateFit:
    """Least-squares slope of log(oracle count) against log(1/eps)."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError("need at least 3 (eps, count) rows to fit a rate")
    x = np.log([1.0 / float(e) for e, _ in rows])
    y = np.asarray([float(c) for _, c in rows])
    if np.all(y == y[0]):
        return RateFit(slope=0.0, half_width=0.0, degenerate=True)
    y = np.log(y)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (y - y.mean()) / sxx)
    resid = y - y.mean() - slope * xm
    dof = len(rows) - 2
    s2 = float(resid @ resid) / dof if dof > 0 else 0.0
    return RateFit(slope=slope, half_width=2.0 * math.sqrt(s2 / sxx))


def _run_row(spec: dict) -> dict:
    """One (problem, solver, eps, seed) cell; exceptions become flags so a
    bad cell cannot take down the suite."""
    prob_cfg = dict(spec["problem_cfg"], seed=spec["seed"])
    out = {"row": spec["row"], "problem": "", "solver": spec["solver"],
           "p": prob_cfg.get("p", 1), "eps": spec["eps"],
           "seed": spec["seed"], "residual": math.nan, "target_met": False,
           "oracle_calls": 0, "flags": "", "trace": [], "wall_time": 0.0}
    try:
        problem = from_config(prob_cfg)
        out["problem"] = problem.name
        eps = float(spec["eps"])
        if spec["solver"] == "minimax_aipe":
            _, report = solve(problem, eps, derive_parameters(problem, eps))
        else:
            _, report = baseline_eg_solve(problem, eps)
        out["residual"] = float(report.residual)
        out["oracle_calls"] = int(sum(report.counts.values()))
        out["flags"] = ";".join(report.flags)
        out["target_met"] = report.ok and report.residual <= eps
        out["trace"] = report.trace
        out["wall_time"] = report.wall_time
    except Exception as exc:                      # noqa: BLE001
        out["flags"] = f"error:{type(exc).__name__}:{exc}"
    return out


def run_suite(config: BenchConfig, out_dir: str, jobs: int = 1) -> dict:
    """Runs every cell, writes results.csv, per-row trace CSVs, and
    summary.json; returns the summary dict.  Output order is by row index
    regardless of completion order."""
    os.makedirs(out_dir, exist_ok=True)
    specs = []
    for prob_cfg in config.problems:
        for solver in config.solvers:
            for eps in config.eps_grid:
                for seed in config.seeds:
                    specs.append({"row": len(specs), "problem_cfg": prob_cfg,
                                  "solver": solver, "eps": eps, "seed": seed})
    if jobs > 1 and len(specs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_row, specs))
    else:
        results = [_run_row(s) for s in specs]
    results.sort(key=lambda r: r["row"])

    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RESULT_HEADER)
        for r in results:
            w.writerow([_fmt(r[k]) for k in RESULT_HEADER])
    for r in results:
        path = os.path.join(out_dir, f"trace_{r['row']:04d}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TRACE_HEADER)
            for calls, resid, gap, level in r["trace"]:
                w.writerow([int(calls), _fmt(float(resid)),
                            "" if gap is None else _fmt(float(gap)), level])

    fits = _fit_groups(results)

    flagged = [r["row"] for r in results if r["flags"]]
    unmet = [r["row"] for r in results if not r["flags"]
             and not r["target_met"]]
    summary = {
        "name": config.name,
        "rows": len(results),
        "flagged_rows": flagged,
        "unmet_rows": unmet,
        "rate_fits": fits,
        "wall_times": {str(r["row"]): r["wall_time"] for r in results},
        "exit_code": 2 if (flagged or unmet) else 0,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def _fit_groups(results) -> dict:
    """Per-(problem, p, solver) rate fits over the clean rows, where at
    least 3 epsilon points exist, keyed "name|p=P|solver"."""
    groups = {}
    for r in results:
        if r["flags"]:
            continue
        groups.setdefault(f"{r['problem']}|p={r['p']}|{r['solver']}",
                          []).append((r["eps"], r["oracle_calls"]))
    fits = {}
    for key, rows in groups.items():
        if len(rows) < 3:
            continue
        fit = fit_rate(rows)
        fits[key] = {"slope": fit.slope,
                                     "half_width": fit.half_width,
                                     "degenerate": fit.degenerate}
    return fits


def lowerbound_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(LOWERBOUND_HEADER)
    for r in rows:
        w.writerow([_fmt(r[k]) for k in LOWERBOUND_HEADER])
    return buf.getvalue()


def run_check() -> int:
    """Derivative + geometry self-tests on the built-in problem kinds."""
    rng = np.random.default_rng(0)
    failures = []
    specs = [{"problem": "bilinear", "dim": 3, "p": 1},
             {"problem": "quadratic", "dim": 3, "p": 1},
             {"problem": "power", "dim": 3, "p": 2},
             {"problem": "hard_new", "p": 1, "T": 4},
             {"problem": "hard_new", "p": 2, "T": 4}]
    for spec in specs:
        prob = from_config(dict(spec, seed=1))
        z = 0.5 * prob.domain.center() + 0.25 * prob.domain.sample(rng)
        z = prob.domain.project(z)
        rep = check_derivatives(prob, z)
        status = "ok" if rep.ok else "FAIL"
        hess = f", hess err {rep.max_hess_err:.2e}" if prob.p == 2 else ""
        print(f"derivatives {prob.name}: {status} "
              f"(grad err {rep.max_grad_err:.2e}{hess})")
        if not rep.ok:
            failures.append(prob.name)
        # geometry: projection idempotent, zero operator has zero residual
        zp = prob.domain.project(prob.domain.sample(rng) * 1.5)
        if norm(prob.domain.project(zp) - zp) > 1e-12:
            failures.append(f"{prob.name}:projection")
            print(f"geometry {prob.name}: FAIL (projection not idempotent)")
        elif prob.domain.tangent_residual(zp, np.zeros_like(zp)) > 1e-12:
            failures.append(f"{prob.name}:residual")
            print(f"geometry {prob.name}: FAIL (zero field residual)")
        else:
            print(f"geometry {prob.name}: ok")
    print("check:", "FAIL" if failures else "ok")
    return 1 if failures else 0


# what reading a config and building its problem can raise
CONFIG_ERRORS = (OSError, KeyError, TypeError, ValueError)


def _bad_config(exc) -> int:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    print(f"saddlebench: bad config: {detail}", file=sys.stderr)
    return 2


def _bad_out(exc) -> int:
    print(f"saddlebench: cannot write --out: {exc}", file=sys.stderr)
    return 2


def _cmd_solve(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        eps = _positive(cfg.pop("eps"), "eps")
        solver = cfg.pop("solver", "minimax_aipe")
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        problem = from_config(cfg)
        params = (derive_parameters(problem, eps)
                  if solver == "minimax_aipe" else None)
    except CONFIG_ERRORS as exc:
        return _bad_config(exc)
    if solver == "minimax_aipe":
        _, report = solve(problem, eps, params)
    else:
        _, report = baseline_eg_solve(problem, eps)
    print(report.to_json())
    return 0 if (report.ok and report.residual <= eps) else 2


def _cmd_bench(args) -> int:
    try:
        config = BenchConfig.from_file(args.config)
    except CONFIG_ERRORS as exc:
        return _bad_config(exc)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _bad_out(exc)
    summary = run_suite(config, args.out, jobs=args.jobs)
    print(json.dumps({k: summary[k] for k in
                      ("name", "rows", "flagged_rows", "unmet_rows",
                       "exit_code")}, indent=2))
    return summary["exit_code"]


def _cmd_lowerbound(args) -> int:
    # opened before any row is computed, so a bad path costs no rows
    try:
        fh = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        return _bad_out(exc)
    with fh:
        T_list = []
        T = 4
        while T <= args.tmax:
            T_list.append(T)
            T *= 2
        rows = [experiment_row(args.p, T) for T in T_list]
        text = lowerbound_csv(rows)
        if args.out:
            fh.write(text)
    sys.stdout.write(text)
    if len(rows) >= 3:
        # log-log slope of the unit-diameter residual against T
        fit = fit_rate([(1.0 / r["T"], r["unit_diameter_residual"])
                        for r in rows])
        print(f"# unit-diameter residual ~ T^{fit.slope:.3f}",
              file=sys.stderr)
    bad = any(r["ratio"] < 1.0 or r["support_violations"] for r in rows)
    return 2 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="saddlebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--config", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--jobs", type=int, default=1)

    p_lb = sub.add_parser("lowerbound", help="residual-floor experiment")
    p_lb.add_argument("--p", type=int, choices=(1, 2), required=True)
    p_lb.add_argument("--tmax", type=int, default=64)
    p_lb.add_argument("--out", default=None)

    sub.add_parser("check", help="derivative and geometry self-tests")

    args = parser.parse_args(argv)
    if args.command == "lowerbound" and args.tmax < 4:
        p_lb.error("--tmax must be at least 4")
    if args.command == "bench" and args.jobs < 1:
        p_bench.error("--jobs must be at least 1")
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "lowerbound":
        return _cmd_lowerbound(args)
    return run_check()


if __name__ == "__main__":           # pragma: no cover
    raise SystemExit(main())
