"""saddleopt benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload suite-aipe --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload direct --seed 3 --seconds 40 --trace 1

Run it from the root of a checkout; it imports saddleopt from the
checkout's src/ and writes only under .bench_out/.  With --trace 0 it
repeats the workload's fixed set of cells for --seconds and reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of
one traced pass.  Every cell is checked (README.md lists the checks); a
failed check makes the run exit 1.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

END_TO_END = [("wall_s", "s"), ("oracle_calls", "count"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
LEVELS = ("outer", "middle", "inner", "polish")


def _per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def calls_self(prefix):
        out.extend([(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")])

    for op in ("project", "project_tangent"):
        for dom in ("box", "product", "ordered_box"):
            calls_self(f"geometry.{op}.{dom}")
    calls_self("geometry.tangent_residual")
    calls_self("geometry.contains")
    calls_self("problems.oracle_eval.raw")
    calls_self("problems.oracle_eval.reg")
    out.append(("problems.count_per_query", "ratio"))
    calls_self("tensor_step.q1")
    calls_self("tensor_step.q2")
    calls_self("eg.eg_epoch")
    out.append(("eg.eg_epoch.steps", "count"))
    calls_self("eg.iprox_psi")
    out.append(("eg.iprox_psi.cert_fail", "count"))
    calls_self("eg.polish_step")
    calls_self("aipe.aipe_epoch")
    out += [(f"aipe.aipe_epoch.{k}", "count")
            for k in ("iters", "aborted", "stall_exits")]
    out += [(f"minimax.calls.{lvl}", "count") for lvl in LEVELS]
    out += [(f"minimax.seconds.{lvl}", "s") for lvl in LEVELS]
    calls_self("minimax.inner_min")
    calls_self("minimax.ifunc_igrad_primal")
    calls_self("minimax.iprox_phi")
    out += [("minimax.iprox_phi.cert_fail", "count"),
            ("minimax.flags", "count"),
            ("minimax.aipe_over_eg_calls", "ratio"),
            ("minimax.derive_parameters.self_s", "s")]
    calls_self("lowerbound.run_alg_class")
    out += [("lowerbound.check_run.self_s", "s"),
            ("lowerbound.best_residual.self_s", "s"),
            ("lowerbound.floor_ratio_min", "ratio"),
            ("lowerbound.support_violations", "count"),
            ("cli.run_suite.self_s", "s"), ("cli.rows", "count"),
            ("cli.cores_used", "cores"), ("tracing_overhead_s", "s")]
    return out


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _code_hash() -> str:
    """Hash of the package sources and the workload definitions: the
    determinism record holds for one version of both."""
    h = hashlib.sha256()
    paths = glob.glob(os.path.join(SRC, "saddleopt", "**", "*.py"),
                      recursive=True) + [os.path.join(HERE, "workloads.py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _setup_seconds(workload: str, seed: int) -> list:
    """Cold set-up times, each in its own interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=False,
            timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up probes
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_cells(cells, failures: list) -> int:
    """Checks one pass's cells, appends (cell, reason) per miss and returns
    the number of failed cells."""
    failed = 0
    for c in cells:
        reasons = []
        if c.error:
            reasons.append(f"raised {c.error}")
        elif c.kind == "floor":
            if not c.floor_ratio >= 1.0:
                reasons.append(f"floor ratio {c.floor_ratio!r} < 1")
            if c.support_violations:
                reasons.append(f"{c.support_violations} support violations")
        else:
            if not c.ok:
                reasons.append("report.ok is false")
            if not c.residual <= c.eps:
                reasons.append(f"reported residual {c.residual!r} > eps")
            if c.z is not None:
                build, kwargs = c.rebuild
                fresh = build(**kwargs)
                r = fresh.domain.tangent_residual(c.z, fresh.operator()(c.z))
                if not r <= c.eps:
                    reasons.append(f"rechecked residual {r!r} > eps")
            if c.delta is not None:
                total = sum(c.counts.values())
                if total != c.delta or c.oracle_calls != c.delta:
                    reasons.append(f"sum(report.counts)={total}, reported "
                                   f"{c.oracle_calls}, counter delta "
                                   f"{c.delta}")
        if reasons:
            failed += 1
            failures.append((c.key, "; ".join(reasons)))
    return failed


def check_determinism(passes, record_path: str, failures: list) -> int:
    """Per-cell oracle calls and output hashes must agree across the
    passes of this run and with every earlier run of this code."""
    failed = 0
    first = {c.key: [c.oracle_calls, c.digest] for c in passes[0].cells}
    for i, p in enumerate(passes[1:], 1):
        for c in p.cells:
            if first.get(c.key) != [c.oracle_calls, c.digest]:
                failed += 1
                failures.append((c.key, f"pass {i} gave {c.oracle_calls} "
                                 f"calls / {c.digest}, pass 0 gave "
                                 f"{first.get(c.key)}"))
    if os.path.exists(record_path):
        with open(record_path) as fh:
            recorded = json.load(fh)
        for key in sorted(set(recorded) | set(first)):
            if recorded.get(key) != first.get(key):
                failed += 1
                failures.append((key, f"this run {first.get(key)}, earlier "
                                 f"run {recorded.get(key)}"))
    else:
        tmp = record_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
        os.replace(tmp, record_path)
    return failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _solver_cells(p, kind=None):
    return [c for c in p.cells if c.kind != "floor"
            and (kind is None or c.kind == kind)]


def per_layer(tracer, traced, parallel, overhead_s) -> dict:
    m = {}
    for name, unit in _per_layer_names():
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = tracer.calls(base)
        elif field == "self_s":
            m[name] = tracer.self_s(base)
    m.update(tracer.counters)
    aipe = _solver_cells(traced, "minimax_aipe")
    egc = _solver_cells(traced, "eg_baseline")
    for lvl in LEVELS:
        m[f"minimax.calls.{lvl}"] = sum(c.counts.get(lvl, 0) for c in aipe)
        m[f"minimax.seconds.{lvl}"] = tracer.level_s[lvl]
    m["minimax.flags"] = sum(len(c.flags) for c in aipe)
    n_aipe = sum(c.oracle_calls for c in aipe)
    n_eg = sum(c.oracle_calls for c in egc)
    m["minimax.aipe_over_eg_calls"] = n_aipe / n_eg if n_aipe and n_eg else 0.0
    delta = sum(c.delta or 0 for c in _solver_cells(traced))
    m["problems.count_per_query"] = (delta / tracer.solver_queries
                                     if tracer.solver_queries else 0.0)
    floors = [c for c in traced.cells if c.kind == "floor"]
    m["lowerbound.floor_ratio_min"] = min((c.floor_ratio for c in floors),
                                          default=0.0)
    m["lowerbound.support_violations"] = sum(c.support_violations
                                             for c in floors)
    m["cli.rows"] = traced.suite_rows
    m["cli.cores_used"] = (parallel.suite_cpu_s / parallel.suite_wall_s
                           if parallel.suite_wall_s else 0.0)
    m["tracing_overhead_s"] = overhead_s
    units = dict(_per_layer_names())
    return {k: {"value": m.get(k, 0), "unit": u} for k, u in units.items()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "saddleopt", "__init__.py")):
        print(f"perfbench: no saddleopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy
    import scipy
    import saddleopt
    if not os.path.abspath(saddleopt.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported saddleopt from {saddleopt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = _nproc()
    jobs = nproc
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "cpu": _cpu_model(), "git_commit": _git_commit(),
            "code_hash": _code_hash(),
            "jobs": jobs if not args.trace else f"{jobs} untraced, 1 traced"}
    print("meta:", json.dumps(meta))
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(run_dir, exist_ok=True)

    setup_times = [] if args.trace else _setup_seconds(args.workload,
                                                       args.seed)
    capture = wl.Capture()
    capture.install()
    inputs = wl.setup(args.workload, args.seed)
    null_span = _NullSpan()
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(args.workload, inputs, jobs,
                                  os.path.join(run_dir, "untraced"), capture,
                                  null_span))
        elapsed = time.perf_counter() - t_start
        median = statistics.median(p.wall_s for p in passes)
        if args.trace or elapsed + median > args.seconds:
            break

    tracer = traced = None
    if args.trace:
        # same cells serially, untraced then traced: the difference is the
        # tracing overhead, and jobs=1 lets the wrappers see every call
        serial = wl.run_pass(args.workload, inputs, 1,
                             os.path.join(run_dir, "serial"), capture,
                             null_span)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_inputs = wl.setup(args.workload, args.seed)
            traced = wl.run_pass(args.workload, traced_inputs, 1,
                                 os.path.join(run_dir, "traced"), capture,
                                 tracer.span)
        finally:
            tracer.uninstall()
        passes += [serial, traced]
    capture.uninstall()

    failures = []
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(check_cells(p.cells, failures) for p in passes)
    record = os.path.join(OUT, f"determinism-{args.workload}-"
                          f"{meta['code_hash']}.json")
    failed += check_determinism(passes, record, failures)
    failed = min(failed, attempted)

    if args.trace:
        metrics = per_layer(tracer, traced, passes[0],
                            traced.wall_s - passes[-2].wall_s)
        with open(os.path.join(run_dir, "spans.jsonl"), "w") as fh:
            for s in tracer.span_rows():
                fh.write(json.dumps(s) + "\n")
    else:
        first = passes[0]
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "oracle_calls": sum(c.oracle_calls for c in
                                _solver_cells(first)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {k: {"value": metrics[k], "unit": u}
                   for k, u in END_TO_END}

    _report(args, passes, metrics, failures, attempted, failed,
            setup_times)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, f"result-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"meta": meta, "pass_walls_s": [p.wall_s for p in passes],
                   "pass_cpu_s": [p.cpu_s for p in passes],
                   "failures": failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


class _NullSpan:
    """Tracing off: the cell boundary costs one no-op context."""

    def __call__(self, name, cell=None):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _report(args, passes, metrics, failures, attempted, failed,
            setup_times):
    print(f"workload {args.workload}: {len(passes)} passes, pass walls "
          + ", ".join(f"{p.wall_s:.3f}" for p in passes) + " s")
    if setup_times:
        print("set-up runs: " + ", ".join(f"{t:.3f}" for t in setup_times)
              + " s")
    seen = set()
    for c in passes[0].cells:
        if c.flags and c.key not in seen:
            seen.add(c.key)
            print(f"flagged cell {c.key}: {'; '.join(c.flags)}")
    for key, reason in failures:
        print(f"FAILED cell {key}: {reason}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells)")


if __name__ == "__main__":
    sys.exit(main())
