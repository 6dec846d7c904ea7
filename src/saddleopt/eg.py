"""Restarted higher-order extragradient on regularized saddle problems.

The inner workhorse of the triple-loop solver: the two-sided surrogate
h_eps is uniformly monotone, so order-p extragradient epochs contract the
distance to its saddle at a fixed rate, and a restart loop drives that
distance below a target zeta3.  A final short gradient step ("polish")
converts small distance into a small operator residual plus an explicit
normal-cone certificate, which is exactly the currency the middle loop's
inexact proximal oracle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Domain
from .problems import PowerRegularized, SaddleProblem, join, split
from .tensor_step import ProxCertificate, TensorStepConfig, tensor_step


@dataclass
class EgConfig:
    M: float = None          # default 32 * problem.Lp when unset
    T3: int = None           # epoch length; sized from the contraction bound
    S3: int = None           # number of epochs; sized from log2(D/zeta3)
    zeta3: float = 1e-6      # target distance to the surrogate saddle
    adaptive_stop: bool = True
    vi_tol: float = 1e-10
    max_inner_iters: int = 10_000

    def __post_init__(self):
        if self.T3 is not None and self.T3 < 1:
            raise ValueError("T3 must be >= 1")
        if self.S3 is not None and self.S3 < 1:
            raise ValueError("S3 must be >= 1")


@dataclass
class EgTrace:
    step_norms: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)   # cheap projection-based
    epoch_points: list = field(default_factory=list)
    oracle_calls: int = 0
    certified: bool = False
    dist_bound: float = math.inf


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


def uc_modulus(problem: SaddleProblem) -> float:
    """The two-sided uniform-convexity modulus of a regularized problem.

    Each power term (c/(p+1))||.||^{p+1} is c/2^{p-1}-uniformly convex of
    order p+1; the joint modulus is the weaker of the two sides.
    """
    return min(problem.mu_x, problem.mu_y) / 2 ** (problem.p - 1)


def eg_epoch(op, domain: Domain, z0, M: float, T: int, q: int,
             vi_tol: float = 1e-10, stop_residual: float = 0.0):
    """T extragradient steps with order-q half-steps; returns the
    eta-weighted average of the half iterates and the per-step trace.

    stop_residual > 0 turns the free per-step residual estimate into an
    early exit: once some half iterate already certifies the caller's
    distance target there is no point in finishing the epoch.
    """
    z = domain.project(np.asarray(z0, float))
    trace = EgTrace()
    cfg = TensorStepConfig(order=q, M=M, vi_tol=vi_tol)
    halves = []
    for _ in range(T):
        zh = tensor_step(op, domain, z, cfg)
        d = float(np.linalg.norm(zh - z))
        if d == 0.0 and q == 2:
            # the model was solved exactly at z: zh solves the VI itself
            trace.step_norms.append(0.0)
            trace.residuals.append(0.0)
            trace.epoch_points.append(zh)
            return zh, trace
        eta = math.factorial(q) / (M * d ** (q - 1))
        Fh = np.asarray(op(zh), float)
        z = domain.project(z - eta * Fh)
        halves.append(zh)
        trace.step_norms.append(d)
        trace.etas.append(eta)
        # free residual estimate: reuse the operator value at the half point
        r = float(np.linalg.norm(domain.project_tangent(zh, -Fh)))
        trace.residuals.append(r)
        if stop_residual > 0.0 and r <= stop_residual:
            trace.certified = True
            trace.epoch_points.append(zh)
            return zh, trace
    if not halves:
        return z, trace
    w = np.asarray(trace.etas)
    z_avg = (w[:, None] * np.asarray(halves)).sum(axis=0) / w.sum()
    z_avg = domain.project(z_avg)  # guard roundoff on faces
    trace.epoch_points.append(z_avg)
    return z_avg, trace


def default_epoch_length(problem: SaddleProblem, mono_coeff: float) -> int:
    """Epoch length making each epoch at least halve the distance, from the
    contraction ||z+ - z*||^{p+1} <= 2^{p+2} Lp ||z - z*||^{p+1} /
    (c p! T^{(p+1)/2})."""
    p = problem.p
    ratio = 2 ** (2 * p + 3) * problem.Lp / (mono_coeff * math.factorial(p))
    return max(1, math.ceil(ratio ** (2.0 / (p + 1))))


def _fill_config(problem: SaddleProblem, cfg: EgConfig) -> EgConfig:
    M = cfg.M if cfg.M is not None else 32.0 * problem.Lp
    c_min = max(min(problem.mu_x, problem.mu_y), 1e-12)
    T3 = cfg.T3 if cfg.T3 is not None else default_epoch_length(problem, c_min)
    if cfg.S3 is None:
        D = problem.domain.diameter()
        S3 = max(1, math.ceil(math.log2(max(D / max(cfg.zeta3, 1e-300), 2.0)))
                 + 2)
    else:
        S3 = cfg.S3
    return replace(cfg, M=M, T3=T3, S3=S3)


def restarted_eg(problem: SaddleProblem, cfg: EgConfig, z0=None):
    """Restart loop with distance certification; returns (point, trace)."""
    cfg = _fill_config(problem, cfg)
    op = problem.operator()
    domain = problem.domain
    p = problem.p
    mu = uc_modulus(problem)
    mu2 = min(problem.mu2_x, problem.mu2_y)
    z = domain.project(np.asarray(z0, float)) if z0 is not None \
        else domain.center()
    start = problem.oracle_counter
    full = EgTrace()
    best, best_bound = z, math.inf
    # residual level at which uniform monotonicity certifies the target
    r_stop = max(2.0 * mu * cfg.zeta3 ** p / (p + 1), mu2 * cfg.zeta3) \
        if cfg.adaptive_stop else 0.0
    for _ in range(cfg.S3):
        z, tr = eg_epoch(op, domain, z, cfg.M, cfg.T3, p, cfg.vi_tol,
                         stop_residual=r_stop)
        full.step_norms += tr.step_norms
        full.etas += tr.etas
        full.residuals += tr.residuals
        full.epoch_points.append(z)
        if tr.certified:
            best, best_bound = z, certified_distance(tr.residuals[-1], mu, p,
                                                     mu2=mu2)
            full.certified = True
            break
        if cfg.adaptive_stop:
            r = domain.tangent_residual(z, op(z))
            bound = certified_distance(r, mu, p, mu2=mu2)
            if bound < best_bound:
                best, best_bound = z, bound
            if bound <= cfg.zeta3:
                full.certified = True
                break
    if not cfg.adaptive_stop:
        r = domain.tangent_residual(z, op(z))
        best, best_bound = z, certified_distance(r, mu, p, mu2=mu2)
        full.certified = best_bound <= cfg.zeta3
    full.dist_bound = best_bound
    full.oracle_calls = problem.oracle_counter - start
    return best, full


def polish_step(op, domain: Domain, z, L_tilde: float):
    """One gradient step turning small distance into a small residual:
    z_hat = project(z - F(z)/L), c_hat = L (z - z_hat) - F(z) in N(z_hat);
    then ||F(z_hat) + c_hat|| <= 6 L ||z - z*||."""
    z = np.asarray(z, float)
    Fz = np.asarray(op(z), float)
    z_hat = domain.project(z - Fz / L_tilde)
    c_hat = L_tilde * (z - z_hat) - Fz
    return z_hat, c_hat


def iprox_psi(problem_g_eps: PowerRegularized, x_bar, y_bar, gamma: float,
              delta2: float, cfg: EgConfig, z0=None):
    """Inexact proximal oracle for the middle loop's dual function.

    Psi(y) = min_x g_eps(x, y); its proximal subproblem at y_bar is the
    saddle of h_eps = g_eps - (gamma/(p+1))||y - y_bar||^{p+1}, solved by
    restarted EG plus a polish.  The certificate's residual can't query
    grad Psi exactly, so it is the measured y-block residual plus a
    Lipschitz bound on the Danskin-gradient error, obtained from the
    certified distance of the x block to its own minimizer.
    """
    x_bar = np.asarray(x_bar, float)
    y_bar = np.asarray(y_bar, float)
    p = problem_g_eps.p
    h_eps = PowerRegularized(
        problem_g_eps.base, problem_g_eps.x_terms,
        problem_g_eps.y_terms + [(float(gamma), y_bar)],
        name=f"h_eps({problem_g_eps.base.name})")
    dx = h_eps.dx
    op = h_eps.operator()
    domain = h_eps.domain
    if z0 is None:
        z0 = join(x_bar, y_bar)

    attempt_cfg = cfg
    for attempt in range(2):
        zS, trace = restarted_eg(h_eps, attempt_cfg, z0)
        z_hat, c_hat = polish_step(op, domain, zS, h_eps.L1)
        resid_vec = np.asarray(op(z_hat), float) + c_hat
        rx = float(np.linalg.norm(resid_vec[:dx]))
        ry = float(np.linalg.norm(resid_vec[dx:]))
        y_hat = z_hat[dx:]
        v_hat = c_hat[dx:]
        # x block: g_eps(., y_hat) is (mu_x)-power-regularized, so the
        # residual certifies the distance to argmin_x, and the Danskin
        # gradient of Psi differs from the measured one by at most L1*dist
        mu_ucx = h_eps.mu_x / 2 ** (p - 1)
        dist_x = certified_distance(rx, mu_ucx, p, mu2=h_eps.mu2_x)
        lam = float(gamma) * np.linalg.norm(y_hat - y_bar) ** (p - 1)
        residual = ry + problem_g_eps.L1 * dist_x
        bound = 0.5 * lam * np.linalg.norm(y_hat - y_bar) + delta2
        cert = ProxCertificate(z=y_hat, u=v_hat, lam=lam, residual=residual,
                               bound=bound, delta=delta2,
                               ok=residual <= bound,
                               inner_iters=trace.oracle_calls)
        if cert.ok or attempt == 1:
            return y_hat, v_hat, cert
        # one automatic retry at a tighter inner target
        attempt_cfg = replace(cfg, zeta3=attempt_cfg.zeta3 / 10.0, S3=None)
        z0 = zS
    return y_hat, v_hat, cert  # pragma: no cover
