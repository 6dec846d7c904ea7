"""Accelerated inexact proximal-point method with restarts.

Monteiro-Svaiter-type acceleration driven by three inexact oracles
(function value, gradient, proximal step).  A step whose stepsize
lambda = gamma s^{q-1} (s the prox step's length) exceeds the bracket
lambda' is damped by lambda'/lambda.  The bracket then moves as if s were
halved after an accepted step and doubled after a damped one, by the
factor 2^{-(q-1)} or 2^{q-1}.  At q = 1 lambda = gamma is known, lambda'
stays at gamma and no step is damped: the epoch is Guler's accelerated
proximal point method.  An epoch ends early for one of three recorded
reasons (a proximal fixed point, the caller's probe, a stall of the best
value) or runs all its T iterations.  The probe lets a caller whose
epochs compute an inexact prox step end them on that step's certificate,
as Monteiro and Svaiter end each inexact prox step on its relative-error
test rather than after a count ("An accelerated hybrid proximal
extragradient method", SIAM J. Optim., 2013); the stall exit is the
fallback.  A restart wrapper halves the optimality gap per epoch on
uniformly convex objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, norm

# iterations without a best-value improvement before an epoch exits early
STALL_PATIENCE = 5


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
    # why the epoch ended early; none is set when it ran all T iterations
    fixed_point: bool = False
    stopped_by_probe: bool = False
    stalled: bool = False


def solve_a(A: float, lambda_prime: float):
    """Positive root of A + a' = 2 lambda' a'^2 and the new running sum."""
    if not lambda_prime > 0:
        raise ValueError("lambda' must be positive")
    a_prime = (1.0 + math.sqrt(1.0 + 8.0 * lambda_prime * A)) \
        / (4.0 * lambda_prime)
    return a_prime, A + a_prime


def aipe_epoch(oracles, domain: Domain, z_start, gamma: float, delta: float,
               T: int, probe=None):
    """One acceleration epoch of prox steps of order q = oracles.order;
    returns (best recorded point, state trace).

    oracles has four names: ifunc(z, d) -> value and igrad(z, d) ->
    (value, gradient), each promised accurate to its d; iprox(z_bar,
    gamma) -> (z, u), which holds its own tolerance; and order, the prox
    step's order q.  Values are floats and points float arrays.  igrad
    hands up the value its one solve measured along with the gradient,
    and an iprox that can check its answer flags a failed check itself;
    the epoch never stops on one.  The solver passes each level's
    minimax.Envelope.

    Each iteration records h at z~ from the value igrad returned with the
    gradient there, and asks ifunc only for h at z, unless z has z~'s
    bytes (an accepted step, gamma_t = 1), so ifunc runs at most once per
    iteration plus once at the start.

    probe(best_point, stalled) -> bool, if given, is consulted after every
    iteration's recording; returning True ends the epoch.  stalled is True
    when the iteration improved the best value by no more than delta, so
    that it counts toward the stall exit: a caller whose measurement costs
    more than an iteration can check only then (the middle level's primal
    prox certificate), one whose check is cheap checks every time (the
    outer level's residual).  STALL_PATIENCE stalled iterations in a row
    also end the epoch.
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
            else oracles.ifunc(zc, delta)
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

    record(z, z_tilde, oracles.ifunc(z_tilde, delta))
    for t in range(T):
        a_p, A_p = solve_a(A, lam_p)
        z_bar = (A * z + a_p * v) / A_p
        z_bar = domain.project(z_bar)  # convex combination; guards roundoff
        z_tilde, u = oracles.iprox(z_bar, gamma)
        s = norm(z_tilde - z_bar)
        if s <= 1e-15 * (1.0 + norm(z_bar)):
            # proximal fixed point: the prox condition collapses to
            # ||grad h + u|| <= iprox's tolerance: z~ is already a solution
            st.fixed_point = True
            return z_tilde, st
        lam = gamma * s ** (q - 1)
        if t == 0:
            # the bracket starts at the first measured lambda; A=0 keeps
            # z_bar unchanged, so re-solving a' is consistent
            lam_p = lam
            a_p, A_p = solve_a(A, lam_p)
        # an accepted step (gam = 1) has A + a = A_p, as solve_a forms it
        gam = min(1.0, lam_p / lam)
        a = gam * a_p
        A_new = A + a
        z = ((1.0 - gam) * A / A_new) * z + (gam * A_p / A_new) * z_tilde
        h_til, g = oracles.igrad(z_tilde, delta)
        v = domain.project(v - a * (g + u))

        st.A.append(A_new)
        st.a.append(a)
        st.lam.append(lam)
        st.lam_prime.append(lam_p)
        st.gamma_t.append(gam)
        A = A_new
        lam_p *= (2.0 if lam > lam_p else 0.5) ** (q - 1)

        record(z, z_tilde, h_til)
        if probe is not None and probe(best_pt, stall > 0):
            st.stopped_by_probe = True
            break
        if stall >= STALL_PATIENCE:
            st.stalled = True
            break
    return best_pt, st


def aipe_restart(oracles, domain: Domain, z0, gamma: float, delta: float,
                 T: int, S: int, probe=None):
    """The restart scheme: up to S epochs of order oracles.order (oracles
    as in aipe_epoch), each seeded from the previous epoch's best point
    (each epoch projects its start point).  Returns (z, traces), one
    AipeState per epoch run; an epoch's h_hat[0] is the value at its start
    point.

    probe(best_point, stalled) -> bool is passed to every epoch.  The loop ends
    after an epoch that hits a proximal fixed point or is stopped by probe,
    and once an epoch's best recorded value improves on the previous best
    by no more than delta: the oracles can no longer resolve progress.
    """
    z = np.asarray(z0, float)
    traces = []
    prev_best = math.inf
    for _ in range(S):
        z, st = aipe_epoch(oracles, domain, z, gamma, delta, T, probe)
        traces.append(st)
        if st.fixed_point or st.stopped_by_probe:
            break
        cur_best = min(st.h_hat + st.h_tilde)
        if cur_best > prev_best - delta:
            break
        prev_best = min(prev_best, cur_best)
    return z, traces


def gap_from_residual(residual: float, mu: float, p: int) -> float:
    """Optimality-gap bound from a tangent residual under uniform convexity
    of order q = p+1 (modulus convention h >= ... + (mu/q)||.||^q):
    gap <= (1 - 1/q) (r^q / mu)^{1/(q-1)}."""
    q = p + 1
    if mu <= 0:
        return math.inf
    return (1.0 - 1.0 / q) * (max(residual, 0.0) ** q / mu) ** (1.0 / (q - 1))
