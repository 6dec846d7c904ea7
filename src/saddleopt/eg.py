"""Restarted higher-order extragradient on regularized saddle problems.

The inner workhorse of the triple-loop solver: the two-sided surrogate
h_eps is uniformly monotone, so order-p extragradient epochs contract the
distance to its saddle at a fixed rate, and a restart loop drives that
distance below a target zeta3.  First-order steps size themselves from the
local Lipschitz constant each step measures with the operator values it
already has (the adaptive steps of Malitsky, "Golden ratio algorithms for
variational inequalities", 2020); second-order steps keep the caller's M.
eg_steps takes those steps, for the epochs here and for the EG baseline
in minimax.
A final short gradient step ("polish") converts small distance into a
small operator residual plus an explicit normal-cone certificate, which is
exactly the currency the middle loop's inexact proximal oracle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .geometry import Domain
from .problems import PowerRegularized, SaddleProblem, join, surrogate_h
from .tensor_step import TensorStepConfig, prox_certificate, tensor_step


@dataclass
class EgTrace:
    step_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    certified: bool = False
    F: np.ndarray = None       # operator value at the returned point, if known


def certified_distance(residual: float, mu_uc: float, p: int,
                       mu2: float = 0.0) -> float:
    """Distance bound from an operator residual via uniform monotonicity.

    For a (p+1)th-order mu_uc-uniformly-convex-concave function the
    operator is (2 mu_uc/(p+1))-uniformly monotone of order p+1, so any
    g in F(z)+N(z) has ||g|| >= (2 mu_uc/(p+1)) ||z-z*||^p.  When an
    order-2 strong modulus mu2 is also known the linear bound
    ||g|| >= mu2 ||z-z*|| applies as well; the tighter bound wins.
    """
    r = max(residual, 0.0)
    best = math.inf
    if mu_uc > 0:
        best = ((p + 1) * r / (2 * mu_uc)) ** (1.0 / p)
    if mu2 > 0:
        best = min(best, r / mu2)
    return best


def eg_steps(op, domain: Domain, z, cfg: TensorStepConfig, F0=None):
    """Order-q extragradient steps from z; yields (zh, Fh, r, d, eta) per
    step: the half iterate, F there, the free residual estimate
    ||project_tangent(zh, -Fh)||, the step length d = ||zh - z|| and the
    step size eta = q!/(M d^{q-1}) of the update z <- project(z - eta Fh).

    cfg regularizes the first step.  A q=1 step then sets the next one's
    M_{k+1} = max(M_k/2, 2 L_k), where L_k = ||Fh - F(z)|| / d is the local
    Lipschitz constant measured from two values the step already has, so
    the rule costs no oracle call; q=2 steps keep M.  A zero step (zh = z)
    means z solves the VI: it is yielded with eta None, measured from F(z),
    and ends the steps.  F0, the operator value at z when the caller has
    it, seeds the first step.
    """
    q = cfg.order
    while True:
        zh, Fz = tensor_step(op, domain, z, cfg, F0=F0)
        d = float(np.linalg.norm(zh - z))
        if d == 0.0:
            # the model was solved exactly at z: zh solves the VI itself
            Fh, eta = Fz, None
        else:
            eta = math.factorial(q) / (cfg.M * d ** (q - 1))
            Fh = np.asarray(op(zh), float)
        r = float(np.linalg.norm(domain.project_tangent(zh, -Fh)))
        yield zh, Fh, r, d, eta
        if eta is None:
            return
        z, F0 = domain.project(z - eta * Fh), None
        if q == 1:
            L_k = float(np.linalg.norm(Fh - Fz)) / d
            cfg = TensorStepConfig(order=1, M=max(0.5 * cfg.M, 2.0 * L_k))


def eg_epoch(op, domain: Domain, z0, M: float, T: int, q: int,
             stop_residual: float = 0.0, F0=None):
    """T steps of eg_steps at regularization M; returns the eta-weighted
    average of the half iterates and the per-step trace.  A zero step
    returns its point, which solves the VI.

    stop_residual > 0 turns the free per-step residual estimate into an
    early exit: once some half iterate already certifies the caller's
    distance target there is no point in finishing the epoch; the trace
    then keeps F at that half iterate.  F0, the operator value at z0 when
    the caller has it, seeds the first step.
    """
    z0 = np.asarray(z0, float)
    z = domain.project(z0)
    if F0 is not None and z.tobytes() != z0.tobytes():
        F0 = None
    trace = EgTrace()
    halves = []
    steps = eg_steps(op, domain, z, TensorStepConfig(order=q, M=M), F0)
    for zh, Fh, r, d, eta in islice(steps, T):
        trace.step_norms.append(d)
        if eta is None:
            return zh, trace
        halves.append(zh)
        trace.etas.append(eta)
        if stop_residual > 0.0 and r <= stop_residual:
            trace.certified, trace.F = True, Fh
            return zh, trace
    if not halves:
        return z, trace
    w = np.asarray(trace.etas)
    z_avg = (w[:, None] * np.asarray(halves)).sum(axis=0) / w.sum()
    z_avg = domain.project(z_avg)  # guard roundoff on faces
    return z_avg, trace


def default_epoch_length(problem: SaddleProblem, mono_coeff: float) -> int:
    """Epoch length making each epoch at least halve the distance, from the
    contraction ||z+ - z*||^{p+1} <= 2^{p+2} Lp ||z - z*||^{p+1} /
    (c p! T^{(p+1)/2})."""
    p = problem.p
    ratio = 2 ** (2 * p + 3) * problem.Lp / (mono_coeff * math.factorial(p))
    return max(1, math.ceil(ratio ** (2.0 / (p + 1))))


def restarted_eg(problem: SaddleProblem, M: float, zeta3: float, z0=None,
                 F0=None):
    """Restart loop with distance certification; returns (point, trace).

    Each epoch runs T3 = default_epoch_length steps, enough to halve the
    distance to the saddle, starting at regularization M (which q=1 steps
    then adapt, see eg_epoch), and up to
    S3 = ceil(log2(D/zeta3)) + 2 epochs (D the domain diameter) run until
    the measured residual certifies distance <= zeta3.  The operator value
    measured at an epoch's end seeds the next epoch's first step, and
    trace.F keeps it at the returned point; F0 is that value at z0.
    """
    c_min = max(min(problem.mu_x, problem.mu_y), 1e-12)
    T3 = default_epoch_length(problem, c_min)
    D = problem.domain.diameter()
    S3 = math.ceil(math.log2(max(D / max(zeta3, 1e-300), 2.0))) + 2
    op = problem.operator()
    domain = problem.domain
    p = problem.p
    mu = min(problem.uc(True), problem.uc(False))   # the weaker side
    mu2 = min(problem.mu2_x, problem.mu2_y)
    z = domain.project(np.asarray(z0, float)) if z0 is not None \
        else domain.center()
    if F0 is not None and z.tobytes() != np.asarray(z0, float).tobytes():
        F0 = None
    full = EgTrace()
    best, best_bound = z, math.inf
    # residual level at which uniform monotonicity certifies the target
    r_stop = max(2.0 * mu * zeta3 ** p / (p + 1), mu2 * zeta3)
    for _ in range(S3):
        z, tr = eg_epoch(op, domain, z, M, T3, p, stop_residual=r_stop,
                         F0=F0)
        full.step_norms += tr.step_norms
        full.etas += tr.etas
        if tr.certified:
            best = z
            full.certified, full.F = True, tr.F
            break
        F0 = op(z)
        r = domain.tangent_residual(z, F0)
        bound = certified_distance(r, mu, p, mu2=mu2)
        if bound < best_bound:
            best, best_bound, full.F = z, bound, F0
        if bound <= zeta3:
            full.certified = True
            break
    return best, full


def polish_step(op, domain: Domain, z, L_tilde: float, Fz=None):
    """One gradient step turning small distance into a small residual:
    z_hat = project(z - F(z)/L), c_hat = L (z - z_hat) - F(z) in N(z_hat);
    then ||F(z_hat) + c_hat|| <= 6 L ||z - z*||.  Fz is F(z) when the
    caller already has it, from the subsolver that returned z; otherwise
    the step queries it."""
    z = np.asarray(z, float)
    Fz = np.asarray(op(z) if Fz is None else Fz, float)
    z_hat = domain.project(z - Fz / L_tilde)
    c_hat = L_tilde * (z - z_hat) - Fz
    return z_hat, c_hat


def iprox_psi(problem_g_eps: PowerRegularized, x_bar, y_bar, gamma: float,
              delta: float, M: float, zeta3: float, z0=None, F0=None):
    """Inexact proximal oracle for the middle loop's dual function.

    Psi(y) = min_x g_eps(x, y); its proximal subproblem at y_bar is the
    saddle of h_eps = g_eps - (gamma/(p+1))||y - y_bar||^{p+1}, solved by
    restarted EG (regularization M, distance target zeta3) plus a polish.
    The certificate's residual can't query grad Psi exactly, so it is the
    measured y-block residual plus a Lipschitz bound on the Danskin-gradient
    error, obtained from the certified distance of the x block to its own
    minimizer.  A failed certificate gets one retry at the tenfold tighter
    target zeta3/10, warm-started from the first attempt.  F0, the operator
    of g_eps at a start z0 whose y block is y_bar, seeds the first step:
    the prox term has zero gradient at its center, so it is h_eps's too.

    Returns (y_hat, v_hat, certificate, (z_hat, base_out)): the polished
    point z_hat = (x_hat, y_hat) is measured by one order-p query of the
    base problem, and base_out is that tuple, which any view on the same base
    extends (PowerRegularized.extend) without another call.  x_hat is the
    argmin of g_eps(., y_hat) to within the certified dist_x, since the
    y-prox term of h_eps does not depend on x, so the caller can start its
    next solve on g_eps(., y_hat) there.
    """
    x_bar = np.asarray(x_bar, float)
    y_bar = np.asarray(y_bar, float)
    p = problem_g_eps.p
    h_eps = surrogate_h(problem_g_eps, y_bar, gamma)
    dx = h_eps.dx
    op = h_eps.operator()
    domain = h_eps.domain
    if z0 is None:
        z0 = join(x_bar, y_bar)
    if F0 is not None and np.asarray(z0, float)[dx:].tobytes() \
            != y_bar.tobytes():
        F0 = None
    for target in (zeta3, zeta3 / 10.0):
        zS, tr = restarted_eg(h_eps, M, target, z0, F0)
        z_hat, c_hat = polish_step(op, domain, zS, h_eps.L1, Fz=tr.F)
        base_out = h_eps.base.oracle_eval(z_hat, p)
        resid_vec = op.from_tuple(h_eps.extend(z_hat, base_out)) + c_hat
        rx = float(np.linalg.norm(resid_vec[:dx]))
        ry = float(np.linalg.norm(resid_vec[dx:]))
        y_hat = z_hat[dx:]
        v_hat = c_hat[dx:]
        # x block: g_eps(., y_hat) is (mu_x)-power-regularized, so the
        # residual certifies the distance to argmin_x, and the Danskin
        # gradient of Psi differs from the measured one by at most L1*dist
        dist_x = certified_distance(rx, h_eps.uc(True), p, mu2=h_eps.mu2_x)
        cert = prox_certificate(y_bar, y_hat, v_hat,
                                ry + problem_g_eps.L1 * dist_x, gamma, p,
                                delta)
        if cert.ok:
            break
        z0, F0 = zS, tr.F
    return y_hat, v_hat, cert, (z_hat, base_out)
