"""Certified higher-order extragradient on regularized saddle problems.

The inner workhorse of the triple-loop solver: the two-sided surrogate
h_eps is uniformly monotone, so a measured residual bounds the distance
to its saddle, and one extragradient run (restarted_eg) stops at the
first half point whose residual certifies distance below a target zeta3,
or earlier, at the first half point where the caller's probe finds the
certificate it serves holding: iprox_psi's dual prox certificate, an
inexact prox step's relative-error test (Monteiro and Svaiter, "An
accelerated hybrid proximal extragradient method", SIAM J. Optim.,
2013).  The analysis's restart schedule, S3 epochs of T3 steps that each
halve the distance, serves only as that run's step cap.  First-order steps
size themselves from the local Lipschitz constant each step measures
with the operator values it already has (the adaptive steps of Malitsky,
"Golden ratio algorithms for variational inequalities", 2020);
second-order steps keep the caller's M.  The run takes first-order steps
as past_eg_steps, Popov's past extragradient ("A modification of the
Arrow-Hurwicz method for search of saddle points", 1980): one oracle
call per step, since the last half point's value stands in for the
anchor's, and on the strongly monotone h_eps it keeps extragradient's
linear rate.  Second-order run steps, the constrained q=2 model solve in
tensor_step and the EG baseline in minimax take eg_steps, two calls per
step.  All of them run through one driver, eg_epoch: the half point of
least residual wins, and a stop residual or a caller's probe ends the run
certified.  Steps hand up no F: a caller that wants F at a half point
asks the oracle, whose memory answers a repeated question at no call.
A final short gradient step ("polish") converts small distance into a
small operator residual plus an explicit normal-cone certificate, which is
exactly the currency the middle loop's inexact proximal oracle needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .geometry import Domain, norm
from .problems import PowerRegularized, SaddleProblem, surrogate_h
from .tensor_step import TensorStepConfig, prox_certificate, tensor_step


@dataclass
class EgTrace:
    # one step length per step taken; perfbench/tracer.py counts a run's
    # steps by its length
    step_norms: list = field(default_factory=list)
    certified: bool = False
    residual: float = math.inf     # measured residual at the returned point


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


def eg_steps(op, domain: Domain, z, cfg: TensorStepConfig):
    """Order-q extragradient steps from z; yields (zh, t, d, eta) per
    step: the half iterate, the tangent vector t = project_tangent(zh,
    -Fh) for Fh = F(zh), whose norm is the free residual estimate, the
    step length d = ||zh - z|| and the step size eta = q!/(M d^{q-1}) of
    the update z <- project(z - eta Fh).  Each step asks F at its
    anchor z and at zh, two calls.  Three runs take these steps: the q=2
    inner run (restarted_eg), the constrained q=2 model solve
    (tensor_step, on the model) and the EG baseline in minimax.

    cfg regularizes the first step.  A q=1 step then sets the next one's
    M_{k+1} = max(M_k/2, 2 L_k), where L_k = ||Fh - F(z)|| / d is the local
    Lipschitz constant measured from two values the step already has, so
    the rule costs no oracle call; q=2 steps keep M.  A zero step (zh = z)
    means z solves the VI: it is yielded with eta None and ends the steps.
    """
    q = cfg.order
    while True:
        zh, Fz = tensor_step(op, domain, z, cfg)
        d = norm(zh - z)
        # a zero step: the model was solved exactly at z, so zh solves the
        # VI itself
        eta = None if d == 0.0 else math.factorial(q) / (cfg.M * d ** (q - 1))
        Fh = np.asarray(op(zh), float)
        yield zh, domain.project_tangent(zh, -Fh), d, eta
        if eta is None:
            return
        z = domain.project(z - eta * Fh)
        if q == 1:
            L_k = norm(Fh - Fz) / d
            cfg = TensorStepConfig(order=1, M=max(0.5 * cfg.M, 2.0 * L_k))


def past_eg_steps(op, domain: Domain, z, M: float):
    """Popov's past-extragradient q=1 steps from z; yields what eg_steps
    yields, at one oracle call per step.

    Step k takes zh_k = project(z_k - F(zh_{k-1})/M_k), with zh_{-1} = z,
    asks F(zh_k) and updates z_{k+1} = project(z_k - F(zh_k)/M_k).  The
    next M is max(M_k/2, 2 L_k), with L_k = ||F(zh_k) - F(zh_{k-1})|| /
    ||zh_k - zh_{k-1}|| measured between consecutive half points, and L_k
    = 0 when they are equal.  Only the first step is built from F(z)
    itself, so only it ends the steps when it does not move (eta None):
    then z solves the VI.
    """
    zh_prev, F_prev = z, None
    first = True
    while True:
        # F_prev is F(zh_{k-1}); the first step queries F(z)
        zh, F_prev = tensor_step(op, domain, z, TensorStepConfig(1, M),
                                 F0=F_prev)
        d = norm(zh - z)
        dh = norm(zh - zh_prev)
        Fh = np.asarray(op(zh), float)
        zero_step = first and d == 0.0
        eta = None if zero_step else 1.0 / M
        yield zh, domain.project_tangent(zh, -Fh), d, eta
        if zero_step:
            return
        z = domain.project(z - eta * Fh)
        L_k = norm(Fh - F_prev) / dh if dh > 0.0 else 0.0
        M = max(0.5 * M, 2.0 * L_k)
        zh_prev, F_prev, first = zh, Fh, False


def eg_epoch(steps, z, T: int, stop_residual: float = 0.0, probe=None):
    """The package's one extragradient driver: up to T steps of the
    started step generator steps (eg_steps or past_eg_steps, from the
    point z); returns one point and the run's trace.

    Its rule: the half iterate of least residual ||t|| wins, and the run
    returns it, or z when no step is taken; a zero step simply ends the
    generator.  Two exits end the run at the half iterate zh, marked
    certified: a residual <= stop_residual, when that is > 0, and
    probe(zh, t) -> True, which is asked at every half iterate the first
    exit passes over, with the tangent vector there.  trace.residual keeps
    the residual at the returned point, already measured there, when a
    step was taken.
    """
    trace = EgTrace()
    for zh, t, d, _ in islice(steps, T):
        r = norm(t)
        trace.step_norms.append(d)
        done = (0.0 < stop_residual and r <= stop_residual) or \
            (probe is not None and probe(zh, t))
        if r < trace.residual or done:
            z, trace.residual = zh, r
        if done:
            trace.certified = True
            break
    return z, trace


def default_epoch_length(problem: SaddleProblem, mono_coeff: float) -> int:
    """Epoch length making each epoch at least halve the distance, from the
    contraction ||z+ - z*||^{p+1} <= 2^{p+2} Lp ||z - z*||^{p+1} /
    (c p! T^{(p+1)/2})."""
    p = problem.p
    ratio = 2 ** (2 * p + 3) * problem.Lp / (mono_coeff * math.factorial(p))
    return max(1, math.ceil(ratio ** (2.0 / (p + 1))))


def restarted_eg(problem: SaddleProblem, M: float, zeta3: float, z0=None,
                 probe=None):
    """One extragradient run certified to distance zeta3; returns (point,
    trace).

    The run projects z0, by default the domain's center, and starts there
    at regularization M, which q=1 steps (past_eg_steps, one call each) then
    adapt.  It stops at the first half point whose measured residual is
    <= r_stop, the level at which uniform monotonicity certifies distance
    <= zeta3, or whose probe(zh, t) returns True: the caller's own
    certificate, which eg_epoch asks at each half point that r_stop does
    not end the run at.  Its cap is the analysis's budget of S3 =
    ceil(log2(D/zeta3)) + 2 restarts (D the domain diameter) of T3 =
    default_epoch_length steps each, enough to halve the distance: S3*T3
    steps.  A run that reaches the cap returns its half point of least
    residual, uncertified.
    """
    c_min = max(min(problem.mu_x, problem.mu_y), 1e-12)
    T3 = default_epoch_length(problem, c_min)
    D = problem.domain.diameter()
    S3 = math.ceil(math.log2(max(D / max(zeta3, 1e-300), 2.0))) + 2
    p = problem.p
    mu = min(problem.uc(True), problem.uc(False))   # the weaker side
    mu2 = min(problem.mu2_x, problem.mu2_y)
    # residual level at which uniform monotonicity certifies the target
    r_stop = max(2.0 * mu * zeta3 ** p / (p + 1), mu2 * zeta3)
    op, domain = problem.operator(), problem.domain
    z0 = domain.center() if z0 is None else np.asarray(z0, float)
    z = domain.project(z0)
    steps = past_eg_steps(op, domain, z, M) if p == 1 else \
        eg_steps(op, domain, z, TensorStepConfig(order=p, M=M))
    return eg_epoch(steps, z, S3 * T3, stop_residual=r_stop, probe=probe)


def polish_step(op, domain: Domain, z, L_tilde: float):
    """One gradient step turning small distance into a small residual:
    z_hat = project(z - F(z)/L), c_hat = L (z - z_hat) - F(z) in N(z_hat);
    then ||F(z_hat) + c_hat|| <= 6 L ||z - z*||."""
    z = np.asarray(z, float)
    Fz = np.asarray(op(z), float)
    z_hat = domain.project(z - Fz / L_tilde)
    c_hat = L_tilde * (z - z_hat) - Fz
    return z_hat, c_hat


def iprox_psi(problem_g_eps: PowerRegularized, y_bar, gamma: float,
              delta: float, M: float, zeta3: float, z0):
    """Inexact proximal oracle for the middle loop's dual function.

    Psi(y) = min_x g_eps(x, y); its proximal subproblem at y_bar is the
    saddle of h_eps = g_eps - (gamma/(p+1))||y - y_bar||^{p+1}, solved by
    one certified extragradient run (restarted_eg: regularization M,
    distance target zeta3, the analysis's S3*T3 steps only as its cap)
    plus a polish; a run that reaches its cap hands its least-residual
    half point to the polish.
    The certificate's residual can't query grad Psi exactly, so it is the
    measured y-block residual plus a Lipschitz bound on the Danskin-gradient
    error, obtained from the certified distance of the x block to its own
    minimizer.  The run starts at z0 = (x, y).  A failed certificate is
    returned as it is.

    The run also stops on that certificate, as Monteiro and Svaiter end
    an inexact prox step on its relative-error test.  Its probe first
    forms the same residual from the tangent vector the step yields at
    the half point, split by block, and only when that is within half the
    certificate's bound does it measure: the polish, the order-p query and
    the certificate, the answer this oracle returns.  The run ends, certified,
    once a measured certificate holds; one that fails costs its query and
    the run goes on.  The answer is measured at the returned point after
    the run.  When the run ended on its probe there, the oracle's memory
    still holds both of that probe's questions (F at the half point and
    the order-p query at the polished point), so the measurement repeats
    the probe's at no call and with the same bits.

    Returns (y_hat, v_hat, certificate, z_hat, certified): the polished
    point z_hat = (x_hat, y_hat) is measured by one order-p query.
    certified is the run's EgTrace.certified, False when neither r_stop
    nor the probe ended the run before its cap; the caller flags it.
    x_hat is the argmin of g_eps(., y_hat) to within the certified dist_x,
    since the y-prox term of h_eps does not depend on x, so the caller can
    start its next solve on g_eps(., y_hat) there.
    """
    y_bar = np.asarray(y_bar, float)
    p = problem_g_eps.p
    h_eps = surrogate_h(problem_g_eps, y_bar, gamma)
    dx = h_eps.dx
    op = h_eps.operator()
    domain = h_eps.domain
    mu_x = h_eps.uc(True)

    def dual_residual(rx, ry):
        # x block: g_eps(., y_hat) is (mu_x)-power-regularized, so the
        # residual certifies the distance to argmin_x, and the Danskin
        # gradient of Psi differs from the measured one by at most L1*dist
        dist_x = certified_distance(rx, mu_x, p, mu2=h_eps.mu2_x)
        return ry + problem_g_eps.L1 * dist_x

    def measure(z):
        """The answer at the half point z."""
        z_hat, c_hat = polish_step(op, domain, z, h_eps.L1)
        out = op.query(z_hat, p)
        resid_vec = out[1] + c_hat
        y_hat = z_hat[dx:]
        v_hat = c_hat[dx:]
        cert = prox_certificate(
            y_bar, y_hat, v_hat,
            dual_residual(norm(resid_vec[:dx]), norm(resid_vec[dx:])),
            gamma, p, delta)
        return y_hat, v_hat, cert, z_hat

    def probe(zh, t):
        # t is the tangent vector at zh.  The certificate's bound at zh;
        # the free check asks for half of it (0.5, a fixed safety factor),
        # so that what the polish and the measurement move rarely fails
        # the measured certificate
        bound = 0.5 * gamma * norm(zh[dx:] - y_bar) ** p + delta
        if dual_residual(norm(t[:dx]), norm(t[dx:])) > 0.5 * bound:
            return False
        return measure(zh)[2].ok

    zS, tr = restarted_eg(h_eps, M, zeta3, z0, probe=probe)
    return (*measure(zS), tr.certified)
