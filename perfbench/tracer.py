"""Per-layer tracing from outside the package.

Wrappers are installed on the package's classes and module attributes for
the traced pass only and removed afterwards.  Each wrapped call pushes a
frame on a thread-local stack so that its self time (duration minus the
time of wrapped calls inside it) can be computed.  Coarse boundaries keep
a full span record (name, start, end, parent, cell); leaf calls -- the
oracles and projections, millions per pass -- are only aggregated to a
call count and self time.

The pass-through wrappers geometry.project, geometry.diameter,
problems.oracle_eval and cli.lowerbound_experiment are deliberately not
wrapped: the benchmark must not depend on code slated for deletion.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from saddleopt import cli, eg, geometry, lowerbound, minimax, problems

from workloads import cell_key

# spans that open a loop level of the triple-loop solver; a level's
# seconds are its spans' time not covered by a nested level span
LEVEL_OF = {"cell.minimax_aipe": "outer", "minimax.iprox_phi": "middle",
            "eg.iprox_psi": "inner", "eg.polish_step": "polish"}
ORACLES = {"problems.oracle_eval.raw", "problems.oracle_eval.reg"}


# (owner, attribute, metric name); leaf calls are aggregated only
LEAF = [
    (geometry.Box, "project", "geometry.project.box"),
    (geometry.Product, "project", "geometry.project.product"),
    (problems.OrderedBox, "project", "geometry.project.ordered_box"),
    (geometry.Box, "project_tangent", "geometry.project_tangent.box"),
    (geometry.Product, "project_tangent", "geometry.project_tangent.product"),
    (problems.OrderedBox, "project_tangent",
     "geometry.project_tangent.ordered_box"),
    (geometry.Domain, "tangent_residual", "geometry.tangent_residual"),
    (geometry.Domain, "contains", "geometry.contains"),
    (problems.SaddleProblem, "oracle_eval", "problems.oracle_eval.raw"),
    (problems.PowerRegularized, "oracle_eval", "problems.oracle_eval.reg"),
    (minimax, "_inner_min", "minimax.inner_min"),
    (minimax, "ifunc_igrad_primal", "minimax.ifunc_igrad_primal"),
    (eg, "eg_epoch", "eg.eg_epoch"),
]
# boundaries that keep a full span record
COARSE = [
    (minimax, "iprox_phi", "minimax.iprox_phi"),
    (minimax, "iprox_psi", "eg.iprox_psi"),
    (minimax, "aipe_epoch", "aipe.aipe_epoch"),
    (eg, "polish_step", "eg.polish_step"),
    (minimax, "polish_step", "eg.polish_step"),
    (minimax, "derive_parameters", "minimax.derive_parameters"),
    (cli, "derive_parameters", "minimax.derive_parameters"),
    (lowerbound, "run_alg_class", "lowerbound.run_alg_class"),
    (lowerbound, "check_run", "lowerbound.check_run"),
    (lowerbound, "best_residual", "lowerbound.best_residual"),
]
# counters read from what a wrapped call returns
HOOKS = {
    "eg.eg_epoch": lambda tr, a, out: tr.add("eg.eg_epoch.steps",
                                             len(out[1].step_norms)),
    "eg.iprox_psi": lambda tr, a, out: tr.add("eg.iprox_psi.cert_fail",
                                              not out[2].ok),
    "minimax.iprox_phi": lambda tr, a, out: tr.add(
        "minimax.iprox_phi.cert_fail", not out[2].ok),
    "aipe.aipe_epoch": lambda tr, a, out: (
        tr.add("aipe.aipe_epoch.iters", len(out[1].lam)),
        tr.add("aipe.aipe_epoch.aborted", out[1].aborted),
        tr.add("aipe.aipe_epoch.stall_exits",
               out[1].note.startswith("early exit"))),
}


class Tracer:
    def __init__(self):
        self.agg = {}          # name -> [calls, self seconds]
        self.counters = {}     # name -> count read from returned values
        self.spans = []        # (id, name, start, end, parent id, cell)
        self.level_s = {lvl: 0.0 for lvl in LEVEL_OF.values()}
        self.solver_queries = 0   # outermost oracle_eval calls, solver cells
        self._tl = threading.local()
        self._saved = []

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + int(value)

    # -- frames --------------------------------------------------------------

    def _enter(self, name, coarse, cell):
        tl = self._tl
        try:
            stack = tl.stack
        except AttributeError:
            stack = tl.stack = []
            tl.cell, tl.levels, tl.oracle_depth = None, [], 0
        if name in ORACLES:
            if tl.oracle_depth == 0 and tl.cell is not None \
                    and not tl.cell.startswith("floor"):
                self.solver_queries += 1
            tl.oracle_depth += 1
        span_id = parent = None
        if coarse:
            span_id = len(self.spans)
            self.spans.append(None)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                          None)
        level = LEVEL_OF.get(name)
        if level is not None:
            tl.levels.append([level, 0.0])
        frame = [0.0, span_id, name, parent, tl.cell, 0.0]
        if cell is not None:
            tl.cell = cell
        stack.append(frame)
        frame[5] = time.perf_counter()
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        tl = self._tl
        child_s, span_id, name, parent, prev_cell, t0 = frame
        dur = t1 - t0
        stack = tl.stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0]
        a[0] += 1
        a[1] += dur - child_s
        if name in ORACLES:
            tl.oracle_depth -= 1
        if name in LEVEL_OF:
            level, covered = tl.levels.pop()
            self.level_s[level] += dur - covered
            if tl.levels:
                tl.levels[-1][1] += dur
        if span_id is not None:
            self.spans[span_id] = (span_id, name, t0, t1, parent, tl.cell)
        tl.cell = prev_cell

    @contextmanager
    def span(self, name, cell=None):
        """A coarse span around a block of the benchmark's own code."""
        frame = self._enter(name, True, cell)
        try:
            yield
        finally:
            self._exit(frame)

    # -- installation ----------------------------------------------------------

    def _wrapper(self, fn, name, coarse, hook=None, name_of=None,
                 cell_of=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name_of(args) if name_of else name, coarse,
                          cell_of(args) if cell_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def _patch(self, owner, attr, wrapper_of):
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper_of(fn))

    def install(self):
        for owner, attr, name in LEAF:
            self._patch(owner, attr, lambda fn, n=name: self._wrapper(
                fn, n, False, HOOKS.get(n)))
        for owner, attr, name in COARSE:
            self._patch(owner, attr, lambda fn, n=name: self._wrapper(
                fn, n, True, HOOKS.get(n)))
        # tensor steps at their import sites, split by the step order q
        for owner in (eg, minimax, lowerbound):
            self._patch(owner, "tensor_step", lambda fn: self._wrapper(
                fn, None, False,
                name_of=lambda a: f"tensor_step.q{a[3].order}"))
        # cli's solver calls are the run_suite cells
        for attr, solver in (("solve", "minimax_aipe"),
                             ("baseline_eg_solve", "eg_baseline")):
            self._patch(cli, attr, lambda fn, s=solver: self._wrapper(
                fn, f"cell.{s}", True,
                cell_of=lambda a, s=s: cell_key(s, a[0].name, a[0].p, a[1])))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def calls(self, name):
        return self.agg.get(name, (0, 0.0))[0]

    def self_s(self, name):
        return self.agg.get(name, (0, 0.0))[1]

    def span_rows(self):
        return [s for s in self.spans if s is not None]
