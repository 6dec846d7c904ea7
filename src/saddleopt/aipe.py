"""Accelerated inexact proximal-point method with restarts.

Monteiro-Svaiter-type acceleration driven by three inexact oracles
(function value, gradient, proximal step), with an adaptive bracketing of
the proximal stepsize lambda': each iteration either accepts the step and
halves the bracket or damps the step and doubles it.  A restart wrapper
halves the optimality gap per epoch on uniformly convex objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain

# iterations without a best-value improvement before an epoch exits early
STALL_PATIENCE = 5


@dataclass
class OracleBundle:
    """ifunc(z, d) -> value, igrad(z, d) -> (value, gradient),
    iprox(z_bar, gamma, d) -> (z, u) or (z, u, certificate); each promised
    accurate to its d.  igrad hands up the value its one solve measured
    along with the gradient, so the epoch never asks ifunc at a point it
    just passed to igrad."""

    ifunc: callable
    igrad: callable
    iprox: callable
    order: int = 1                    # q, the prox-step order

    def func(self, z, delta):
        return float(self.ifunc(z, delta))

    def grad(self, z, delta):
        value, g = self.igrad(z, delta)
        return float(value), np.asarray(g, float)

    def prox(self, z_bar, gamma, delta):
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
               delta: float, T: int,
               stall_patience: int = STALL_PATIENCE, probe=None):
    """One acceleration epoch of prox steps of order q = oracles.order;
    returns (best recorded point, state trace).

    Each iteration records h at z~ from the value igrad returned with the
    gradient there, and asks ifunc only for h at z, unless z has z~'s
    bytes (an accepted step, gamma_t = 1), so ifunc runs at most once per
    iteration plus once at the start.

    probe(best_point) -> bool, if given, is consulted after every
    iteration's recording; returning True ends the epoch (used by callers
    that can certify global optimality from the current best point).
    """
    q = oracles.order
    z = domain.project(np.asarray(z_start, float))
    v = z.copy()
    z_tilde = z.copy()
    A = 0.0
    lam_p = 1.0
    st = AipeState()

    best_val = math.inf
    best_pt = z
    stall = 0

    def record(zc, zt, h_til):
        nonlocal best_val, best_pt, stall
        h_hat = h_til if zc.tobytes() == zt.tobytes() \
            else oracles.func(zc, delta)
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

    record(z, z_tilde, oracles.func(z_tilde, delta))
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
        h_til, g = oracles.grad(z_tilde, delta)
        v = domain.project(v - a * (g + u))

        st.A.append(A_new)
        st.a.append(a)
        st.lam.append(lam)
        st.lam_prime.append(lam_p)
        st.gamma_t.append(gam)
        A, lam_p = A_new, lam_p_next

        record(z, z_tilde, h_til)
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
                 stall_patience: int = STALL_PATIENCE, probe=None):
    """The restart scheme: up to S epochs of order oracles.order, each
    seeded from the previous epoch's best point (each epoch projects its
    start point).  Returns (z, {"gaps": [...], "traces": [AipeState]}).

    stall_patience and probe(best_point) -> bool are passed to every epoch.
    The loop ends after an epoch that hits a proximal fixed point, aborts
    on a failed prox certificate (only an iprox that returns certificates
    can abort) or is stopped by probe.  A truthy stall_patience also ends
    it once an epoch's best recorded value improves on the previous best by
    no more than delta: the oracles can no longer resolve progress.  A
    falsy one turns off this break along with the in-epoch stall exit.
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
                           stall_patience, probe)
        traces.append(st)
        if gap_oracle is not None:
            gaps.append(float(gap_oracle(z)))
        if st.fixed_point or st.aborted or st.stopped_by_probe:
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
