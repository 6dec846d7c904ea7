"""The benchmark reaches the package through patched names (the tracer)
and direct calls (the workloads); a deleted or renamed name or argument
must fail here, not only in a benchmark run."""

import importlib
import inspect
import pathlib

from saddleopt import cli, lowerbound, minimax

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, fn in saved:
            assert _current(owner, attr) is not fn
    finally:
        tracer.uninstall()
    for owner, attr, fn in saved:
        assert _current(owner, attr) is fn, f"{owner!r}.{attr} not restored"


def test_benchmark_calls_match_the_library(monkeypatch):
    """Every workload's inputs build, and the benchmark's direct library
    calls bind to the current signatures."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        inputs = workloads.setup(name, 0)
        if "config" in inputs:
            inspect.signature(cli.run_suite).bind(inputs["config"], "out",
                                                  jobs=2)
        for c in inputs.get("cells", ()):
            inspect.signature(minimax.solve).bind(
                c["problem"], c["eps"], c["cfg"], z0=inputs["z0"])
            inspect.signature(minimax.baseline_eg_solve).bind(
                c["eg_problem"], c["eps"], z0=inputs["z0"])
        for row in inputs.get("floors", ()):
            inspect.signature(lowerbound.experiment_row).bind(
                row["p"], row["T"], schedule=row["schedule"])


def test_one_pass_of_each_workload_passes_the_gate(monkeypatch, tmp_path):
    """One serial pass of every workload passes the benchmark's own
    correctness gate, so a library change that breaks a cell fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    capture = workloads.Capture()
    capture.install()
    try:
        for name in workloads.WORKLOADS:
            inputs = workloads.setup(name, 0)
            result = workloads.run_pass(name, inputs, 1, str(tmp_path / name),
                                        capture, run._NullSpan())
            failures = []
            assert result.cells, name
            assert run.check_cells(result.cells, failures) == 0, failures
    finally:
        capture.uninstall()


def test_one_traced_pass_fires_the_epoch_hook(monkeypatch, tmp_path):
    """One traced pass of suite-aipe, the tracer installed and then
    removed as `run.py --trace 1` does.  Every inner step is one q=1
    tensor step inside an eg_epoch run, so the hook that counts each
    run's steps must count them all, the hooks on both prox oracles must
    read their answers' certificates, and both oracle layers must see
    their calls; a library change that breaks a hook fails here, not only
    in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer").Tracer()
    capture = workloads.Capture()
    capture.install()
    try:
        inputs = workloads.setup("suite-aipe", 0)
        tracer.install()
        try:
            result = workloads.run_pass("suite-aipe", inputs, 1,
                                        str(tmp_path), capture, tracer.span)
        finally:
            tracer.uninstall()
    finally:
        capture.uninstall()
    failures = []
    assert run.check_cells(result.cells, failures) == 0, failures
    steps = tracer.counters.get("eg.eg_epoch.steps", 0)
    assert steps > 0 and steps == tracer.calls("tensor_step.q1")
    # every regularized query enters the regularized oracle_eval, which
    # asks the raw one
    assert 0 < tracer.calls("problems.oracle_eval.reg") \
        <= tracer.calls("problems.oracle_eval.raw")
    # both prox oracles' hooks read the certificate at index 2 of the
    # answer; each fired, and counted at most one failure per call
    for span in ("eg.iprox_psi", "minimax.iprox_phi"):
        assert tracer.calls(span) > 0
        assert 0 <= tracer.counters[f"{span}.cert_fail"] \
            <= tracer.calls(span)
