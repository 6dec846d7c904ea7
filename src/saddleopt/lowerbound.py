"""Algorithm-class experiments on the chain-structured hard instances.

The tensor-algorithm class starts at z0 = 0 and, at step t, picks span
points x_bar in span{x_0..x_t}, y_bar in span{y_0..y_t} and applies one
tensor step of order q <= p to either the x-partial operator (option A),
the negated y-partial operator (option B), or the joint operator
(option C).  On the chain instance every such step grows the coordinate
support by at most one index per iteration, which pins the duality gap
-- and hence the tangent residual -- above an explicit floor after T
steps.  This module replays schedules from that class, checks the
support property exactly, and compares measured residuals against the
analytic floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import SaddleProblem, hard_instance, join, split
from .tensor_step import TensorStepConfig, tensor_step

# the replayed steps' model-VI tolerance and the magnitude below which a
# coordinate counts as zero in the support and precondition checks
TOL = 1e-12


class SpanViolation(ValueError):
    pass


@dataclass
class StepSpec:
    """One step of an algorithm-class schedule.

    x_coeffs/y_coeffs are the span coefficients over the iterate history
    x_0..x_t (explicit bookkeeping, not a numerical rank test); None
    means "the latest iterate".  M defaults to 2 Lp of the instance.
    """

    option: str
    q: int = 1
    M: float = None
    x_coeffs: list = None
    y_coeffs: list = None

    def __post_init__(self):
        if self.option not in ("A", "B", "C"):
            raise ValueError(f"unknown option {self.option!r}")
        if self.q not in (1, 2):
            raise ValueError("only orders q in {1, 2} are runnable")


@dataclass
class AlgClassRun:
    """Replay record of a schedule: its iterates and base points."""

    xs: list = field(default_factory=list)     # x_0, x_1, ..., x_T
    ys: list = field(default_factory=list)
    bases: list = field(default_factory=list)  # evaluated base point per step
    base_shift: float = 0.0   # largest feasibility-projection displacement

    @property
    def T(self):
        return len(self.bases)

    def iterates(self):
        return [join(x, y) for x, y in zip(self.xs, self.ys)]


def anchored_eg_schedule(T: int, Lp: float = 1.0, c: float = 2.6) -> list:
    """Extragradient with Halpern anchoring toward z0, written as joint
    first-order steps with explicit span coefficients.

    Each extragradient iteration takes two class steps: a half step from
    the anchor-corrected base b_k and a probe step from its output w_k,
    whose displacement u_k - w_k reproduces the operator value at w_k.
    The next base b_{k+1} = (1 - 1/(k+3)) (b_k + u_k - w_k) is then a
    fixed linear combination of recorded iterates, so the coefficients
    are computed in advance -- no value-dependent bookkeeping.  The
    stepsize constant M = c Lp / sqrt(T) spends the known budget T; the
    anchoring is what makes the best residual track the analytic floor.
    """
    M = c * Lp / math.sqrt(T)
    schedule = []
    # coefficients of the current base over history indices 0..len-1
    bcoef = [0.0]                      # b_0 = 0 = z_0
    k = 0
    while len(schedule) < T:
        schedule.append(StepSpec("C", q=1, M=M, x_coeffs=list(bcoef),
                                 y_coeffs=list(bcoef)))
        w_idx = len(schedule)          # history index of this step's output
        if len(schedule) >= T:
            break
        schedule.append(StepSpec("C", q=1, M=M))   # base = w_k itself
        u_idx = len(schedule)
        k += 1
        fac = 1.0 - 1.0 / (k + 2)
        bcoef = [fac * v for v in bcoef] + [0.0] * (u_idx + 1 - len(bcoef))
        bcoef[w_idx] -= fac
        bcoef[u_idx] += fac
    return schedule


def _span_point(coeffs, history, t):
    if coeffs is None:
        return history[t].copy()
    coeffs = np.asarray(coeffs, float)
    if coeffs.size > t + 1:
        raise SpanViolation(
            f"step {t}: {coeffs.size} span coefficients but only "
            f"{t + 1} iterates exist")
    pt = np.zeros_like(history[0])
    for c, v in zip(coeffs, history):
        pt += c * v
    return pt


def run_alg_class(problem: SaddleProblem, schedule) -> AlgClassRun:
    """Replays a schedule from the tensor-algorithm class; z_0 = 0."""
    if problem.dx != problem.dy:
        raise ValueError("hard instances have matching block dimensions")
    run = AlgClassRun()
    x = np.zeros(problem.dx)
    y = np.zeros(problem.dy)
    run.xs.append(x.copy())
    run.ys.append(y.copy())
    for t, step in enumerate(schedule):
        if step.q > problem.p:
            raise ValueError(f"step {t}: order {step.q} exceeds p="
                             f"{problem.p}")
        M = step.M if step.M is not None else 2.0 * problem.Lp
        x_bar = _span_point(step.x_coeffs, run.xs, t)
        y_bar = _span_point(step.y_coeffs, run.ys, t)
        # feasibility guard for the oracle: span points may drift outside
        # the domain by roundoff-scale amounts; projecting preserves the
        # coordinate support on these box-type domains, and the recorded
        # shift lets callers confirm it stayed negligible
        xp = problem.x_domain.project(x_bar)
        yp = problem.y_domain.project(y_bar)
        run.base_shift = max(run.base_shift,
                             float(np.linalg.norm(xp - x_bar)),
                             float(np.linalg.norm(yp - y_bar)))
        x_bar, y_bar = xp, yp
        cfg = TensorStepConfig(order=step.q, M=M, vi_tol=TOL)
        if step.option == "A":
            x, _ = tensor_step(problem.restricted(y_bar, True),
                               problem.x_domain, x_bar, cfg)
        elif step.option == "B":
            y, _ = tensor_step(problem.restricted(x_bar, False),
                               problem.y_domain, y_bar, cfg)
        else:
            z, _ = tensor_step(problem.operator(), problem.domain,
                               join(x_bar, y_bar), cfg)
            x, y = split(z, problem.dx)
        run.xs.append(np.asarray(x, float).copy())
        run.ys.append(np.asarray(y, float).copy())
        run.bases.append(join(x_bar, y_bar))
    return run


def support_violation(v, t: int) -> float:
    """Largest magnitude beyond the first t coordinates minus the
    tolerance floor: positive means the support property failed."""
    v = np.asarray(v, float)
    tail = np.abs(v[t:]) if t < v.size else np.zeros(0)
    return float(tail.max() - TOL) if tail.size else -TOL


def residual_floor(T: int, p: int, Lp: float = 1.0) -> float:
    """Analytic tangent-residual floor for any support-respecting point
    after T steps on the unscaled chain instance: the duality gap stays
    at least Lp / (2^{p+1} p! (T+1)^{p-1}) and dividing by the domain
    diameter sqrt(2(T+1)) converts gap to residual."""
    if T < 1 or p < 1:
        raise ValueError("need T >= 1 and p >= 1")
    dz_bar = math.sqrt(2.0 * (T + 1))
    return Lp / (2 ** (p + 1) * math.factorial(p)
                 * (T + 1) ** (p - 1) * dz_bar)


@dataclass
class FloorRow:
    t: int
    support_slack: float       # <= 0 means the support property held
    precondition_ok: bool      # trailing coordinate pair exactly zero
    residual: float
    floor: float


def check_run(problem: SaddleProblem, run: AlgClassRun) -> list:
    """Per-iterate floor comparison for a replayed run.

    The floor argument only applies at points whose last coordinate pair
    vanishes; the rows report that precondition instead of assuming it.
    """
    T = getattr(problem, "T", run.T)
    # rescaling the instance by 1/beta divides the gap by beta^{p+1} and
    # the diameter by beta, so the residual floor gains 1/beta^p
    beta = getattr(problem, "beta", 1.0)
    floor = residual_floor(T, problem.p, problem.Lp) / beta ** problem.p
    op = problem.operator()
    rows = []
    for t, (x, y) in enumerate(zip(run.xs, run.ys)):
        slack = max(support_violation(x, t), support_violation(y, t))
        pre = abs(x[-1]) <= TOL and abs(y[-1]) <= TOL
        z = join(x, y)
        r = problem.domain.tangent_residual(z, op(z))
        rows.append(FloorRow(t=t, support_slack=slack,
                             precondition_ok=pre, residual=r, floor=floor))
    return rows


def best_residual(problem: SaddleProblem, run: AlgClassRun,
                  rows: list) -> float:
    """Smallest tangent residual over every point the run evaluated the
    oracle at: the recorded iterates, whose residuals are check_run's rows,
    and the (anchor) base points, measured here unless one has the bytes
    of an iterate.  The floor applies to all of them since each lies in
    the span of the history."""
    op = problem.operator()
    seen = {z.tobytes() for z in run.iterates()}
    return min([r.residual for r in rows]
               + [problem.domain.tangent_residual(z, op(z))
                  for z in run.bases if z.tobytes() not in seen])


def experiment_row(p: int, T: int, Lp: float = 1.0, schedule=None) -> dict:
    """One row of the floor experiment on the unscaled chain instance.

    The slope of the analytic floor in T depends on the normalization:
    the unscaled family's diameter grows like sqrt(T), which hides half
    a power of T.  The row therefore also carries the unit-diameter
    residual (the measured value divided by the exact rescaling factor
    beta^p, whose consistency check_run verifies numerically); residuals
    of an optimal-rate schedule decay like T^{-(3p-1)/2} in that
    normalization.
    """
    problem = hard_instance(p, T, Lp)
    if schedule is None:
        schedule = anchored_eg_schedule(T, Lp)
    run = run_alg_class(problem, schedule)
    rows = check_run(problem, run)
    measured = best_residual(problem, run, rows)
    floor = rows[0].floor
    violations = sum(1 for r in rows if r.support_slack > 0)
    beta_unit = math.sqrt(2.0 * (T + 1))        # rescale to diameter 1
    return {
        "T": T,
        "p": p,
        "measured_residual": measured,
        "analytic_floor": floor,
        "ratio": measured / floor,
        "support_violations": violations,
        "unit_diameter_residual": measured / beta_unit ** p,
        "base_shift": run.base_shift,
    }
