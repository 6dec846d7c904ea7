"""Accelerated inexact proximal-point method with restarts.

Monteiro-Svaiter-type acceleration driven by three inexact oracles
(function value, gradient, proximal step), with an adaptive bracketing of
the proximal stepsize lambda': each iteration either accepts the step and
halves the bracket or damps the step and doubles it.  A restart wrapper
halves the optimality gap per epoch on uniformly convex objectives; the
exact-oracle instantiation uses tensor steps as the proximal oracle and
certifies its stopping point through gradient domination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain
from .problems import FunctionOracle
from .tensor_step import TensorStepConfig, iprox_via_tensor, certified_gamma

# iterations without a best-value improvement before an epoch exits early
STALL_PATIENCE = 5


@dataclass
class OracleBundle:
    """ifunc(z, d) -> value, igrad(z, d) -> vector, iprox(z_bar, gamma, d)
    -> (z, u) or (z, u, certificate); each promised accurate to its d."""

    ifunc: callable
    igrad: callable
    iprox: callable
    order: int = 1                    # q, the prox-step order
    nfunc: int = 0
    ngrad: int = 0
    nprox: int = 0

    def func(self, z, delta):
        self.nfunc += 1
        return float(self.ifunc(z, delta))

    def grad(self, z, delta):
        self.ngrad += 1
        return np.asarray(self.igrad(z, delta), float)

    def prox(self, z_bar, gamma, delta):
        self.nprox += 1
        out = self.iprox(z_bar, gamma, delta)
        if len(out) == 2:
            return np.asarray(out[0], float), np.asarray(out[1], float), None
        return np.asarray(out[0], float), np.asarray(out[1], float), out[2]


@dataclass
class AipeState:
    """Per-epoch trace of the acceleration recursion."""

    A: list = field(default_factory=list)
    a: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    lam_prime: list = field(default_factory=list)
    gamma_t: list = field(default_factory=list)
    h_hat: list = field(default_factory=list)     # values at z_t
    h_tilde: list = field(default_factory=list)   # values at z~_t
    aborted: bool = False
    fixed_point: bool = False
    stopped_by_probe: bool = False
    note: str = ""


def solve_a(A: float, lambda_prime: float):
    """Positive root of A + a' = 2 lambda' a'^2 and the new running sum."""
    if not lambda_prime > 0:
        raise ValueError("lambda' must be positive")
    a_prime = (1.0 + math.sqrt(1.0 + 8.0 * lambda_prime * A)) \
        / (4.0 * lambda_prime)
    return a_prime, A + a_prime


def aipe_epoch(oracles: OracleBundle, domain: Domain, z_start, gamma: float,
               delta: float, T: int, q: int,
               stall_patience: int = STALL_PATIENCE, probe=None):
    """One acceleration epoch; returns (best recorded point, state trace).

    probe(best_point) -> bool, if given, is consulted after every
    iteration's recording; returning True ends the epoch (used by callers
    that can certify global optimality from the current best point).
    """
    z = domain.project(np.asarray(z_start, float))
    v = z.copy()
    z_tilde = z.copy()
    A = 0.0
    lam_p = 1.0
    st = AipeState()

    best_val = math.inf
    best_pt = z
    stall = 0

    def record(zc, zt):
        nonlocal best_val, best_pt, stall
        h_hat = oracles.func(zc, delta)
        h_til = oracles.func(zt, delta)
        st.h_hat.append(h_hat)
        st.h_tilde.append(h_til)
        # strict ordering favors the z_t family on ties
        val, pt = (h_hat, zc) if h_hat < h_til else (h_til, zt)
        if val < best_val - delta:
            best_val, best_pt, stall = val, pt, 0
        else:
            stall += 1
            if val < best_val:
                best_val, best_pt = val, pt

    record(z, z_tilde)
    for t in range(T):
        a_p, A_p = solve_a(A, lam_p)
        z_bar = (A * z + a_p * v) / A_p
        z_bar = domain.project(z_bar)  # convex combination; guards roundoff
        z_tilde, u, cert = oracles.prox(z_bar, gamma, delta)
        if cert is not None and not cert.ok:
            st.aborted = True
            st.note = (f"prox certificate failed at t={t}: "
                       f"residual {cert.residual:.3e} > bound "
                       f"{cert.bound:.3e}")
            break
        s = float(np.linalg.norm(z_tilde - z_bar))
        if s <= 1e-15 * (1.0 + np.linalg.norm(z_bar)):
            # proximal fixed point: the prox condition collapses to
            # ||grad h + u|| <= delta, so z~ is already a solution
            st.fixed_point = True
            return z_tilde, st
        lam = gamma * s ** (q - 1)
        if t == 0:
            # the bracket starts at the first measured lambda; A=0 keeps
            # z_bar unchanged, so re-solving a' is consistent
            lam_p = lam
            a_p, A_p = solve_a(A, lam_p)
        if lam <= lam_p:
            gam = 1.0
            a = a_p
            A_new = A_p
            lam_p_next = 0.5 * lam_p
        else:
            gam = lam_p / lam
            a = gam * a_p
            A_new = A + a
            lam_p_next = 2.0 * lam_p
        z = ((1.0 - gam) * A / A_new) * z + (gam * A_p / A_new) * z_tilde
        g = oracles.grad(z_tilde, delta)
        v = domain.project(v - a * (g + u))

        st.A.append(A_new)
        st.a.append(a)
        st.lam.append(lam)
        st.lam_prime.append(lam_p)
        st.gamma_t.append(gam)
        A, lam_p = A_new, lam_p_next

        record(z, z_tilde)
        if probe is not None and probe(best_pt):
            st.stopped_by_probe = True
            st.note = "stopped by probe"
            break
        if stall_patience and stall >= stall_patience:
            st.note = f"early exit after {stall} stalled iterations"
            break
    return best_pt, st


def aipe_restart(oracles: OracleBundle, domain: Domain, z0, gamma: float,
                 delta: float, T: int, S: int, gap_oracle=None,
                 stop_when=None, stall_patience: int = STALL_PATIENCE,
                 probe=None):
    """The restart scheme: up to S epochs of order oracles.order, each
    seeded from the previous epoch's best point (each epoch projects its
    start point).  Returns (z, {"gaps": [...], "traces": [AipeState]}).

    stall_patience and probe(best_point) -> bool are passed to every epoch.
    The loop ends after an epoch that hits a proximal fixed point, aborts
    on a failed prox certificate (callers turn aborted traces into flags)
    or is stopped by probe, and once stop_when(z) -> bool certifies the
    epoch's point.  A truthy stall_patience also ends it once an epoch's
    best recorded value improves on the previous best by no more than
    delta: the oracles can no longer resolve progress.  A falsy one turns
    off this break along with the in-epoch stall exit (paper mode).
    gap_oracle(z) -> float, if given, logs the gap at the start point and
    after every epoch.
    """
    z = np.asarray(z0, float)
    gaps = [] if gap_oracle is None \
        else [float(gap_oracle(domain.project(z)))]
    traces = []
    prev_best = math.inf
    for _ in range(S):
        z, st = aipe_epoch(oracles, domain, z, gamma, delta, T,
                           oracles.order, stall_patience, probe)
        traces.append(st)
        if gap_oracle is not None:
            gaps.append(float(gap_oracle(z)))
        if st.fixed_point or st.aborted or st.stopped_by_probe:
            break
        if stop_when is not None and stop_when(z):
            break
        cur_best = min(st.h_hat + st.h_tilde)
        if stall_patience and cur_best > prev_best - delta:
            break
        prev_best = min(prev_best, cur_best)
    return z, {"gaps": gaps, "traces": traces}


def gap_from_residual(residual: float, mu: float, p: int) -> float:
    """Optimality-gap bound from a tangent residual under uniform convexity
    of order q = p+1 (modulus convention h >= ... + (mu/q)||.||^q):
    gap <= (1 - 1/q) (r^q / mu)^{1/(q-1)}."""
    q = p + 1
    if mu <= 0:
        return math.inf
    return (1.0 - 1.0 / q) * (max(residual, 0.0) ** q / mu) ** (1.0 / (q - 1))


def estimate_initial_gap(func, domain: Domain, z0, n_probes: int = 16,
                         seed: int = 0) -> float:
    """Crude upper estimate of h(z0) - h*: spread against random feasible
    probes, doubled (it only enters a logarithm)."""
    rng = np.random.default_rng(seed)
    v0 = float(func(z0))
    lowest = min(float(func(domain.sample(rng))) for _ in range(n_probes))
    return 2.0 * max(v0 - lowest, 1e-12)


def optms_restart(h: FunctionOracle, domain: Domain, z0, eps: float,
                  T: int = None, max_S: int = None, vi_tol: float = 1e-10):
    """Exact-oracle accelerated solver for a uniformly convex function.

    The proximal oracle is a tensor step with M = 2 Lp; epochs stop early
    once the tangent residual certifies a gap below eps via gradient
    domination (valid on constrained domains: the normal-cone part of the
    residual witness has nonnegative inner product with z - z*).
    """
    if not h.mu > 0:
        raise ValueError("optms_restart needs a uniform-convexity modulus")
    p = h.p
    cfg = TensorStepConfig(order=p, M=2.0 * h.Lp, vi_tol=vi_tol)
    gamma = certified_gamma(p, h.Lp)
    grad_op = h.grad_operator()

    bundle = OracleBundle(
        ifunc=lambda z, d: h.value(z),
        igrad=lambda z, d: h.grad(z),
        iprox=lambda zb, g, d: (
            lambda c: (c.z, c.u, c))(iprox_via_tensor(h, domain, zb, g, cfg)),
        order=p)

    if T is None:
        T = math.ceil(8.0 * (gamma / h.mu) ** (2.0 / (3 * p + 1)))
    delta_gap = estimate_initial_gap(h.value, domain, z0)
    S = max(1, math.ceil(math.log2(max(delta_gap / eps, 2.0))))
    if max_S is not None:
        S = min(S, max_S)

    def certified(z):
        r = domain.tangent_residual(z, h.grad(z))
        return gap_from_residual(r, h.mu, p) <= eps

    # improvements below a fraction of the target no longer matter, and
    # feeding that scale to the stall logic keeps nearly-flat directions
    # (tiny mu against a large gamma) from consuming the full epoch budget
    z, _info = aipe_restart(bundle, domain, z0, gamma, delta=0.25 * eps,
                            T=T, S=S, stop_when=certified)
    return z
