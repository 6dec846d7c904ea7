"""Higher-order regularized steps for monotone operators.

The basic move: given an anchor z_bar, build the (q-1)st Taylor model of
the operator F, add the regularizer (M/q!)||z - z_bar||^{q-1} (z - z_bar),
and solve the resulting variational inequality over the feasible set.  For
q = 1 this is a plain projected step; for q = 2 an implicit step through
the Jacobian, solved by a scalar bisection in the interior case and
otherwise by the package's one extragradient loop, eg.eg_steps, run on the
(strongly monotone) model with steps sized at its measured curvature.

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
from itertools import islice

import numpy as np

from .geometry import Domain, norm

# interior margin at which the q=2 bisection solution is trusted without
# running the constrained VI subsolver
_INTERIOR_MARGIN = 1e-6
_LAMBDA_FLOOR = 1e-12
# bisection tolerance on the q=2 step size; the iteration cap of the
# bisection, and the step cap of the constrained model-VI subsolver
_BISECTION_TOL = 1e-12
_MAX_INNER_ITERS = 10_000


@dataclass
class TensorStepConfig:
    order: int = 1            # q, the step order (1 or 2)
    M: float = 1.0            # regularization strength
    vi_tol: float = 1e-10     # relative tangent-residual target for the model VI

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"step order must be 1 or 2, got {self.order}")
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not self.vi_tol > 0:
            raise ValueError("vi_tol must be positive")


@dataclass
class ProxCertificate:
    """Outcome of one inexact proximal step on a function h.

    residual is the measured norm ||grad h(z) + u + lam (z - z_bar)||,
    bound the target (lam/2)||z - z_bar|| + delta.  ok records whether the
    certificate holds; callers treat a failed certificate as a diagnostic,
    not an exception.
    """

    z: np.ndarray
    u: np.ndarray
    lam: float
    residual: float
    bound: float
    ok: bool = True


def prox_certificate(z_bar, z, u, residual, gamma: float, q: int,
                     delta: float) -> ProxCertificate:
    """The inexact-prox condition at z for the anchor z_bar:
    lam = gamma ||z - z_bar||^{q-1}, bound = (lam/2)||z - z_bar|| + delta,
    ok = residual <= bound, for residual the measured norm.
    """
    s = norm(z - z_bar)
    lam = float(gamma) * s ** (q - 1)
    bound = 0.5 * lam * s + delta
    return ProxCertificate(z=z, u=u, lam=lam, residual=residual, bound=bound,
                           ok=residual <= bound)


def model_operator(op, z_bar, cfg: TensorStepConfig, F0=None):
    """The regularized Taylor model G(z) whose VI the tensor step solves.

    Building it queries the anchor at most once: at q = 1 for F(z_bar)
    unless F0, the operator value there, is given; at q = 2 for F and the
    Jacobian together (op.derivatives).  They are kept as G.F0 and G.J;
    evaluating G makes no oracle call.
    """
    z_bar = np.asarray(z_bar, float)
    q = cfg.order
    scale = cfg.M / math.factorial(q)
    J = None
    if q == 2:
        F, J = op.derivatives(z_bar)
        F0 = F if F0 is None else F0
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
    fixed point is unique; we bracket it and bisect.  Returns (s, lam).
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
        lam = max(t_lo, _LAMBDA_FLOOR)
        return s_of(lam), lam
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
    lam = 0.5 * (lo + hi)
    s = s_of(lam)
    # one fixed-point polish: re-solve at the lambda the final s implies
    lam = max(0.5 * M * norm(s), _LAMBDA_FLOOR)
    return s_of(lam), lam


def _model_vi_subsolve(G, domain: Domain, z_start, M, tol):
    """The model VI by first-order extragradient steps (eg.eg_steps) on G,
    from the projection of z_start and starting at regularization M; each
    step measures the model's local Lipschitz constant and resizes the
    next one.  Keeps the half point of least residual and stops once that
    residual is <= tol, on a zero step (its point solves the VI), or after
    _MAX_INNER_ITERS steps; returns (z, r, iters, r <= tol).
    """
    # eg imports this module, so eg_steps is imported at call time
    from .eg import eg_steps
    z0 = domain.project(np.asarray(z_start, float))
    steps = eg_steps(G, domain, z0, TensorStepConfig(1, M))
    best, best_r = z0, math.inf
    for iters, (zh, _, r, _, eta) in enumerate(
            islice(steps, _MAX_INNER_ITERS), 1):
        if r < best_r:
            best, best_r = zh, r
        if r <= tol or eta is None:
            break
    return best, best_r, iters, best_r <= tol


def _solve_model(G, domain: Domain, cfg: TensorStepConfig):
    """Solve the VI of the model G built by model_operator; returns
    (z, vi_slack, iters, ok)."""
    z_bar, F0, J = G.z_bar, G.F0, G.J
    if cfg.order == 1:
        z = domain.project(z_bar - F0 / cfg.M)
        # projection solves the model VI exactly
        return z, 0.0, 0, True

    tol = cfg.vi_tol * (1.0 + norm(F0))
    s, _lam = _bisection_q2(F0, J, cfg.M)
    cand = z_bar + s
    if domain.interior_margin(cand) >= _INTERIOR_MARGIN:
        slack = norm(G(cand))
        if slack <= tol:
            return cand, slack, 0, True
    # constrained (or the bisection left too much slack): solve the VI,
    # from the projected candidate, by steps that start at the step's M
    return _model_vi_subsolve(G, domain, cand, cfg.M, tol)


def tensor_step(op, domain: Domain, z_bar, cfg: TensorStepConfig, F0=None):
    """The order-q regularized step from z_bar; returns (z, F(z_bar)), the
    new point and the operator value at the anchor that built the model.
    F0, that value when the caller already has it, saves the query."""
    G = model_operator(op, z_bar, cfg, F0)
    z, _, _, _ = _solve_model(G, domain, cfg)
    return z, G.F0
