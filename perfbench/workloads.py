"""The benchmark's workloads: their fixed cells, set-up and one timed pass.

A cell is one solver call (Minimax-AIPE or the EG baseline on one problem
at one eps) or one floor-experiment row.  Every workload runs a fixed set
of cells; the seed only fixes the order in which they are submitted, so
every per-cell result must be identical across seeds and runs.  README.md
says why the cells are these and why the seed does not move the generator
seeds.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import os
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from saddleopt import cli, lowerbound, minimax, problems
from saddleopt.cli import BenchConfig

WORKLOADS = ("suite-aipe", "solve-p2", "direct")

# suite-aipe: few long Minimax-AIPE rows through the cli thread pool
SUITE_AIPE_PROBLEMS = [
    {"problem": "quadratic", "dim": 3, "p": 1},
    {"problem": "quadratic", "dim": 4, "p": 1},
    {"problem": "bilinear", "dim": 2, "p": 1},
]
SUITE_AIPE_EPS = [4e-2, 3e-2]

# solve-p2: the criterion-09 power games, library calls, off-center start
SOLVE_P2_SEEDS = (2, 5, 11)
SOLVE_P2_EPS = (1e-2,)
SOLVE_P2_Z0 = 0.1

# direct: many short EG-baseline rows plus the floor experiment
DIRECT_PROBLEMS = [
    {"problem": "bilinear", "dim": 8, "p": 1},
    {"problem": "bilinear", "dim": 16, "p": 1},
    {"problem": "power", "dim": 16, "p": 2},
    {"problem": "hard_new", "p": 1, "T": 16},
    {"problem": "hard_new", "p": 1, "T": 32},
    {"problem": "hard_new", "p": 2, "T": 16},
    {"problem": "hard_new", "p": 2, "T": 32},
]
DIRECT_EPS = [1e-2, 5e-3]
DIRECT_FLOOR = [(p, T) for p in (1, 2) for T in (4, 8, 16, 32, 64, 128)]


def cell_key(solver: str, name: str, p: int, eps: float) -> str:
    return f"{solver}|{name}|p={int(p)}|eps={float(eps)!r}"


def floor_key(p: int, T: int) -> str:
    return f"floor|p={p}|T={T}"


@dataclass
class Cell:
    """Outcome of one cell in one pass."""

    key: str
    kind: str                      # "minimax_aipe", "eg_baseline", "floor"
    eps: float = 0.0
    oracle_calls: int = 0
    counts: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    ok: bool = False
    residual: float = float("nan")
    z: np.ndarray = None           # returned point, when the run exposes it
    delta: int = None              # oracle-counter delta around the call
    rebuild: tuple = None          # (constructor, kwargs) of a fresh problem
    digest: str = ""               # hash of the cell's output
    error: str = ""
    floor_ratio: float = float("nan")
    support_violations: int = 0


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float                   # CPU of the process and its children
    cells: list
    suite_wall_s: float = 0.0      # time inside cli.run_suite
    suite_cpu_s: float = 0.0       # CPU of self and children meanwhile
    suite_rows: int = 0


class Capture:
    """Records what cli's solver calls return, keyed by cell.

    run_suite writes residuals but not points; wrapping the two solver
    names at cli's import site keeps the returned point and the
    oracle-counter delta for the correctness gate.  Rows run in worker
    processes are invisible here and get the CSV-level checks only.
    """

    def __init__(self):
        self.cells = {}
        self._lock = threading.Lock()
        self._saved = []

    def _wrap(self, fn, solver):
        def captured(problem, eps, *args, **kwargs):
            before = problem.oracle_counter
            z, report = fn(problem, eps, *args, **kwargs)
            delta = problem.oracle_counter - before
            key = cell_key(solver, problem.name, problem.p, eps)
            with self._lock:
                self.cells[key] = (np.array(z, float), delta, report)
            return z, report
        return captured

    def install(self):
        for attr, solver in (("solve", "minimax_aipe"),
                             ("baseline_eg_solve", "eg_baseline")):
            fn = getattr(cli, attr)
            self._saved.append((attr, fn))
            setattr(cli, attr, self._wrap(fn, solver))

    def uninstall(self):
        for attr, fn in reversed(self._saved):
            setattr(cli, attr, fn)
        self._saved.clear()

    def take(self):
        with self._lock:
            out, self.cells = self.cells, {}
        return out


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _order(items, seed: int):
    """The seed's submission order of a workload's cells."""
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in perm]


# ---------------------------------------------------------------------------
# set-up: everything a workload builds before its first solve
# ---------------------------------------------------------------------------

def setup(name: str, seed: int) -> dict:
    """Builds a workload's inputs through the package's public constructors."""
    if name == "suite-aipe":
        cfg = BenchConfig(problems=_order(SUITE_AIPE_PROBLEMS, seed),
                          eps_grid=SUITE_AIPE_EPS, solvers=["minimax_aipe"],
                          seeds=[0], name="suite-aipe")
        for spec in cfg.problems:
            prob = problems.from_config(dict(spec, seed=0))
            for eps in cfg.eps_grid:
                minimax.derive_parameters(prob, eps)
        return {"config": cfg}
    if name == "solve-p2":
        cells = []
        for s in SOLVE_P2_SEEDS:
            for eps in SOLVE_P2_EPS:
                prob = problems.make_power(3, 2, s)
                cfg = minimax.derive_parameters(prob, eps)
                cells.append({"seed": s, "eps": eps, "problem": prob,
                              "eg_problem": problems.make_power(3, 2, s),
                              "cfg": cfg})
        return {"cells": _order(cells, seed),
                "z0": np.full(6, SOLVE_P2_Z0)}
    if name == "direct":
        cfg = BenchConfig(problems=_order(DIRECT_PROBLEMS, seed),
                          eps_grid=DIRECT_EPS, solvers=["eg_baseline"],
                          seeds=[0], name="direct")
        for spec in cfg.problems:
            problems.from_config(dict(spec, seed=0))
        floors = [{"p": p, "T": T,
                   "schedule": lowerbound.anchored_eg_schedule(T)}
                  for p, T in _order(DIRECT_FLOOR, seed)]
        return {"config": cfg, "floors": floors}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def run_pass(name: str, inputs: dict, jobs: int, out_dir: str,
             capture: Capture, span) -> PassResult:
    """Runs every cell of the workload once; span(name, cell) is the
    tracer's cell boundary (a no-op context when tracing is off)."""
    t0, cpu0 = time.perf_counter(), _cpu_s()
    cells = []
    suite = {}
    if "config" in inputs:
        suite = _run_suite(inputs["config"], jobs, out_dir, capture, span)
        cells += suite["cells"]
    if name == "solve-p2":
        tasks = [(c, solver, inputs["z0"]) for c in inputs["cells"]
                 for solver in ("minimax_aipe", "eg_baseline")]
        cells += _clients(_solve_cell, tasks, jobs, span)
    cells += _clients(_floor_cell, inputs.get("floors", ()), jobs, span)
    return PassResult(wall_s=time.perf_counter() - t0,
                      cpu_s=_cpu_s() - cpu0, cells=cells,
                      suite_wall_s=suite.get("wall", 0.0),
                      suite_cpu_s=suite.get("cpu", 0.0),
                      suite_rows=suite.get("rows", 0))


def _clients(run, tasks, jobs, span):
    """run(task, span) for every task from `jobs` client threads: a closed
    loop, each client starting its next task when its last one returns.
    Results come back in task order."""
    if jobs == 1:
        return [run(t, span) for t in tasks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda t: run(t, span), tasks))


def _floor_cell(row, span):
    key = floor_key(row["p"], row["T"])
    try:
        with span("cell.floor", key):
            out = lowerbound.experiment_row(row["p"], row["T"],
                                            schedule=row["schedule"])
    except Exception as exc:               # noqa: BLE001 -- counted as failed
        return Cell(key=key, kind="floor", error=f"{type(exc).__name__}: {exc}")
    return Cell(key=key, kind="floor", ok=True,
                floor_ratio=float(out["ratio"]),
                support_violations=int(out["support_violations"]),
                digest=_digest(repr(sorted(out.items()))))


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _run_suite(config, jobs, out_dir, capture, span):
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with span("cli.run_suite", None):
        summary = cli.run_suite(config, out_dir, jobs=jobs)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    captured = capture.take()
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = []
    for row in rows:
        solver = row["solver"]
        eps = float(row["eps"])
        spec = config.problems[int(row["row"]) // (len(config.solvers)
                                                   * len(config.eps_grid)
                                                   * len(config.seeds))]
        key = cell_key(solver, row["problem"], row["p"], eps)
        with open(os.path.join(out_dir, f"trace_{int(row['row']):04d}.csv"),
                  "rb") as fh:
            trace_bytes = fh.read()
        # the row index moves with the seed's order; the rest must not
        body = ",".join(v for k, v in row.items() if k != "row")
        cell = Cell(key=key, kind=solver, eps=eps,
                    oracle_calls=int(row["oracle_calls"]),
                    flags=[f for f in row["flags"].split(";") if f],
                    ok=row["target_met"] == "True",
                    residual=float(row["residual"]),
                    rebuild=(problems.from_config,
                             {"cfg": dict(spec, seed=int(row["seed"]))}),
                    digest=_digest(body.encode() + b"\n" + trace_bytes))
        if cell.flags and cell.flags[0].startswith("error:"):
            cell.error = cell.flags[0]
        if key in captured:
            z, delta, report = captured[key]
            cell.z, cell.delta = z, delta
            cell.counts = dict(report.counts)
        cells.append(cell)
    return {"cells": cells, "wall": wall, "cpu": cpu,
            "rows": int(summary["rows"])}


def _solve_cell(task, span):
    """One solve-p2 cell: the library called directly, no cli."""
    c, solver, z0 = task
    prob = c["problem"] if solver == "minimax_aipe" else c["eg_problem"]
    key = cell_key(solver, prob.name, prob.p, c["eps"])
    cell = Cell(key=key, kind=solver, eps=c["eps"],
                rebuild=(problems.make_power,
                         {"dim": 3, "p": 2, "seed": c["seed"]}))
    before = prob.oracle_counter
    try:
        with span(f"cell.{solver}", key):
            if solver == "minimax_aipe":
                z, rep = minimax.solve(prob, c["eps"], c["cfg"], z0=z0)
            else:
                z, rep = minimax.baseline_eg_solve(prob, c["eps"], z0=z0)
    except Exception as exc:               # noqa: BLE001 -- counted as failed
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.delta = prob.oracle_counter - before
    cell.counts = dict(rep.counts)
    cell.oracle_calls = int(sum(rep.counts.values()))
    cell.flags = list(rep.flags)
    cell.ok = bool(rep.ok)
    cell.residual = float(rep.residual)
    cell.z = np.array(z, float)
    cell.digest = _digest(repr((cell.oracle_calls, sorted(cell.counts.items()),
                                cell.flags, cell.residual,
                                [(int(a), float(r), g, lvl)
                                 for a, r, g, lvl in rep.trace])))
    return cell
