"""Higher-order regularized steps for monotone operators.

The basic move: given an anchor z_bar, build the (q-1)st Taylor model of
the operator F, add the regularizer (M/q!)||z - z_bar||^{q-1} (z - z_bar),
and solve the resulting variational inequality over the feasible set.  For
q = 1 this is a plain projected step; for q = 2 an implicit step through
the Jacobian, solved by a scalar bisection when its point is feasible and
otherwise by first-order extragradient steps (eg.eg_steps) on the
(strongly monotone) model, sized at its measured curvature and driven by
the package's one extragradient driver, eg.eg_epoch.

Applied to a gradient field, the same step is an inexact proximal-point
oracle: the returned point z and the leftover model force u in the normal
cone satisfy

    || grad h(z) + u + lam (z - z_bar) || <= (lam/2) ||z - z_bar|| + delta

with lam = gamma ||z - z_bar||^{q-1}, gamma = M/q!, and delta accounting
only for the inner-solve slack.  With M = 2 Lp the Taylor remainder is at
most (Lp/q!) s^q = (lam/2) s, so the inequality is tight but exact.  (For
q = 2 that gamma is exactly Lp; for q = 1 it is 2 Lp -- the gradient-step
case genuinely needs the larger constant: a flat direction of a convex
quadratic violates the inequality with gamma = Lp.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Domain, norm

_LAMBDA_FLOOR = 1e-12
# bisection tolerance on the q=2 step size; the iteration cap of the
# bisection, and the step cap of the constrained model solve
_BISECTION_TOL = 1e-12
_MAX_INNER_ITERS = 10_000
# every q=2 step solves its model VI to slack <= _VI_TOL (1 + ||F(z_bar)||)
_VI_TOL = 1e-10


@dataclass
class TensorStepConfig:
    """A tensor step's order q and M; its model-VI tolerance is _VI_TOL."""

    order: int = 1            # q, the step order (1 or 2)
    M: float = 1.0            # regularization strength

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"step order must be 1 or 2, got {self.order}")
        if not self.M > 0:
            raise ValueError("M must be positive")


@dataclass
class ProxCertificate:
    """Outcome of one inexact proximal step on a function h.

    residual is the measured norm ||grad h(z) + u + lam (z - z_bar)||,
    bound the target (lam/2)||z - z_bar|| + delta.  ok records whether the
    certificate holds; callers treat a failed certificate as a diagnostic,
    not an exception.  z and u are the point and normal of the ProxAnswer
    that carries it.
    """

    lam: float
    residual: float
    bound: float
    ok: bool = True


class ProxAnswer(NamedTuple):
    """A prox oracle's answer: the point, a normal-cone element at it, the
    point's certificate, where the caller's next solve starts, and whether
    the oracle's capped inner run ended certified (iprox_psi's; iprox_phi
    runs none of its own).  A NamedTuple, since perfbench/tracer.py reads
    the certificate as answer[2]."""

    point: np.ndarray
    normal: np.ndarray
    certificate: ProxCertificate
    start: np.ndarray
    certified: bool = True


def prox_certificate(z_bar, z, residual, gamma: float, q: int,
                     delta: float) -> ProxCertificate:
    """The inexact-prox condition at z for the anchor z_bar:
    lam = gamma ||z - z_bar||^{q-1}, bound = (lam/2)||z - z_bar|| + delta,
    ok = residual <= bound, for residual the measured norm.
    """
    s = norm(z - z_bar)
    lam = float(gamma) * s ** (q - 1)
    bound = 0.5 * lam * s + delta
    return ProxCertificate(lam=lam, residual=residual, bound=bound,
                           ok=residual <= bound)


def model_operator(op, z_bar, cfg: TensorStepConfig, F0=None):
    """The regularized Taylor model G(z) whose VI the tensor step solves.

    Building it queries the anchor at most once: at q = 1 for F(z_bar)
    unless F0 is given to stand in for it (past extragradient builds its
    step from the last half point's value); at q = 2 for F and the
    Jacobian together (op.derivatives), and F0 does not apply there.
    They are kept as G.F0 and G.J; evaluating G makes no oracle call.
    """
    z_bar = np.asarray(z_bar, float)
    q = cfg.order
    scale = cfg.M / math.factorial(q)
    J = None
    if q == 2:
        F0, J = op.derivatives(z_bar)
    F0 = np.asarray(op(z_bar) if F0 is None else F0, float)

    def G(z):
        s = np.asarray(z, float) - z_bar
        lin = F0 if J is None else F0 + J @ s
        return lin + scale * norm(s) ** (q - 1) * s

    G.z_bar, G.F0, G.J = z_bar, F0, J
    return G


def _bisection_q2(F0, J, M):
    """Solve lam = (M/2)||s(lam)|| with s(lam) = -(J + lam I)^{-1} F0.

    For monotone J the map lam -> (M/2)||s(lam)|| is nonincreasing, so the
    fixed point is unique; we bracket it and bisect.  Returns s.
    """
    n = F0.shape[0]
    eye = np.eye(n)

    def s_of(lam):
        return -np.linalg.solve(J + lam * eye, F0)

    def target(lam):
        return 0.5 * M * norm(s_of(lam))

    lo = _LAMBDA_FLOOR
    t_lo = target(lo)
    if t_lo <= lo:
        return s_of(max(t_lo, _LAMBDA_FLOOR))
    # target is nonincreasing, so target(hi) <= target(lo) = t_lo <= hi:
    # [lo, hi] brackets the fixed point
    hi = max(t_lo, 2 * lo)
    for _ in range(_MAX_INNER_ITERS):
        mid = 0.5 * (lo + hi)
        if target(mid) > mid:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_TOL * max(1.0, hi):
            break
    s = s_of(0.5 * (lo + hi))
    # one fixed-point polish: re-solve at the lambda the final s implies
    return s_of(max(0.5 * M * norm(s), _LAMBDA_FLOOR))


def _solve_model(G, domain: Domain, cfg: TensorStepConfig):
    """Solve the VI of the model G built by model_operator; returns the
    point z.  At q = 2 a constrained solve stops at tangent residual <=
    _VI_TOL (1 + ||F0||), or uncertified at its step cap, unreported."""
    z_bar, F0, J = G.z_bar, G.F0, G.J
    if cfg.order == 1:
        # projection solves the model VI exactly
        return domain.project(z_bar - F0 / cfg.M)

    tol = _VI_TOL * (1.0 + norm(F0))
    cand = z_bar + _bisection_q2(F0, J, cfg.M)
    # a feasible candidate with ||G|| <= tol has tangent residual <= tol,
    # the extragradient run's own stop
    if domain._feasible(cand) and norm(G(cand)) <= tol:
        return cand
    # infeasible (or the bisection left too much slack): solve the VI by
    # q=1 extragradient steps on G from the projected candidate, starting
    # at the step's M; eg imports this module, so it is imported here
    from .eg import eg_epoch, eg_steps
    z = domain.project(cand)
    return eg_epoch(eg_steps(G, domain, z, TensorStepConfig(1, cfg.M)), z,
                    _MAX_INNER_ITERS, stop_residual=tol)[0]


def tensor_step(op, domain: Domain, z_bar, cfg: TensorStepConfig, F0=None):
    """The order-q regularized step from z_bar; returns (z, F0), the new
    point and the operator value that built the model: F(z_bar), or the
    F0 given to stand in for it, which applies only at q = 1 (see
    model_operator)."""
    G = model_operator(op, z_bar, cfg, F0)
    return _solve_model(G, domain, cfg), G.F0
