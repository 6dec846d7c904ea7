import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from test_problems import view_value

from saddleopt.aipe import (
    aipe_epoch, aipe_restart, gap_from_residual, solve_a,
)
from saddleopt.geometry import Box
from saddleopt.problems import OracleView
from saddleopt.tensor_step import (
    _VI_TOL, ProxAnswer, TensorStepConfig, _solve_model, model_operator,
    prox_certificate,
)


def certified_gamma(q: int, Lp: float) -> float:
    """The proximal-oracle gamma that an M = 2 Lp tensor step certifies."""
    return 2.0 * Lp / math.factorial(q)


def iprox_via_tensor(h_grad, domain, z_bar, gamma: float,
                     cfg: TensorStepConfig) -> ProxAnswer:
    """One inexact proximal step on a function through the library's tensor
    step model, certified by its prox_certificate; the answer's start is
    its point.

    h_grad is the gradient operator (callable, with .derivatives for q = 2),
    such as an OracleView.  gamma sets the certificate's lam = gamma
    ||z - z_bar||^{q-1}; the step itself is governed by cfg.M.  gamma =
    M/q! makes the certificate exact when M >= 2 Lp (use certified_gamma).
    """
    G = model_operator(h_grad, z_bar, cfg)
    z = _solve_model(G, domain, cfg)
    s = z - G.z_bar

    # leftover model force; its tangential part is inner-solve noise, the
    # normal part is the certified u
    u = -np.asarray(G(z), float)
    u = u - domain.project_tangent(z, u)

    grad_z = np.asarray(h_grad(z), float)
    delta = _VI_TOL * (1.0 + np.linalg.norm(G.F0)) * 2.0
    lam = float(gamma) * float(np.linalg.norm(s)) ** (cfg.order - 1)
    cert = prox_certificate(
        G.z_bar, z, float(np.linalg.norm(grad_z + u + lam * s)), gamma,
        cfg.order, delta)
    return ProxAnswer(z, u, cert, z)


def restart_gaps(traces, f_star):
    """The gap at the start point and after every epoch, read from the
    traces: each epoch's best point has the smallest value it recorded."""
    return [traces[0].h_hat[0] - f_star] + \
        [min(st.h_hat + st.h_tilde) - f_star for st in traces]


def function_oracle(value, grad, hess, **fields):
    """An OracleView whose one query evaluates value, grad, hess."""
    def query(v, order):
        return tuple(f(v) for f in (value, grad, hess)[:order + 1])
    return OracleView(query=query, **fields)


def exact_bundle(h: OracleView, domain, M, order, calls=None):
    """Exact oracles on h for aipe_epoch, with a tensor-step prox oracle;
    appends each prox center to calls."""
    cfg = TensorStepConfig(order=order, M=M)

    def iprox(zb, g):
        if calls is not None:
            calls.append(zb)
        ans = iprox_via_tensor(h, domain, zb, g, cfg)
        return ans.point, ans.normal

    return SimpleNamespace(ifunc=lambda z, d: view_value(h, z),
                           igrad=lambda z, d: (view_value(h, z), h(z)),
                           iprox=iprox, order=order)


def quad_oracle(c, lo=-10.0, hi=10.0):
    c = np.atleast_1d(np.asarray(c, float))
    dim = c.size
    return function_oracle(
        lambda z: 0.5 * np.sum((z - c) ** 2),
        lambda z: np.asarray(z, float) - c,
        lambda z: np.eye(dim),
        domain=Box([lo] * dim, [hi] * dim), p=1, Lp=1.0, mu=1.0)


def quartic_oracle(dim=3, seed=0):
    """h = ||z||^4/4 + z'Pz/2 + b'z on [-1,1]^dim, P psd."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    P = A @ A.T / dim
    b = rng.normal(scale=0.5, size=dim)

    def val(z):
        return 0.25 * np.linalg.norm(z) ** 4 + 0.5 * z @ P @ z + b @ z

    def grad(z):
        return np.linalg.norm(z) ** 2 * z + P @ z + b

    def hess(z):
        n2 = np.linalg.norm(z) ** 2
        return n2 * np.eye(dim) + 2 * np.outer(z, z) + P

    # L2 on the unit box: third derivative of the quartic term
    L2 = 6 * math.sqrt(dim) + 6.0
    return function_oracle(val, grad, hess,
                           domain=Box([-1.0] * dim, [1.0] * dim), p=2, Lp=L2,
                           mu=0.25)


def reference_min(h: OracleView):
    box = h.domain
    best = None
    for s in range(5):
        z0 = box.sample(np.random.default_rng(s))
        res = minimize(lambda z: view_value(h, z), z0, jac=h,
                       method="L-BFGS-B", bounds=list(zip(box.lo, box.hi)),
                       options={"ftol": 1e-16, "gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, best.fun


# ---------------------------------------------------------------------------
# the stepsize recursion
# ---------------------------------------------------------------------------

def test_solve_a_examples():
    a, A = solve_a(0.0, 1.0)
    assert (a, A) == (0.5, 0.5)
    a, _ = solve_a(0.5, 0.5)
    assert a == pytest.approx((1 + math.sqrt(3)) / 2)
    with pytest.raises(ValueError):
        solve_a(1.0, 0.0)


def test_solve_a_identity_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = rng.uniform(0, 100)
        lp = rng.uniform(1e-6, 100)
        a, A_new = solve_a(A, lp)
        assert A + a == pytest.approx(2 * lp * a ** 2, rel=1e-12)
        assert A_new == A + a


# ---------------------------------------------------------------------------
# one epoch
# ---------------------------------------------------------------------------

def test_epoch_hand_trace_scalar():
    h = quad_oracle([0.0])
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    z, st = aipe_epoch(bundle, h.domain, [1.0], gamma=1.0, delta=0.0, T=1)
    # one prox step from z_bar = z0 = 1 lands at 0.5; h(0.5) = 0.125
    assert st.h_tilde[-1] == pytest.approx(0.125)
    assert view_value(h, z) == pytest.approx(0.125)


def quartic_epoch(wrap=lambda bundle: bundle):
    """A q=2 epoch on quartic_oracle(3, seed=2), where the lambda' bracket
    damps some steps and accepts others; wrap(bundle) may log its calls.
    Returns (h, z, state)."""
    h = quartic_oracle(dim=3, seed=2)
    bundle = wrap(exact_bundle(h, h.domain, M=2 * h.Lp, order=2))
    z0 = h.domain.sample(np.random.default_rng(3))
    return (h, *aipe_epoch(bundle, h.domain, z0, gamma=h.Lp, delta=0.0,
                           T=12))


def test_epoch_records_exact_values_and_invariants():
    h = quad_oracle([0.3, -0.2, 0.1], lo=-2.0, hi=2.0)
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    z, st = aipe_epoch(bundle, h.domain, [1.5, -1.5, 0.0], gamma=2.0,
                       delta=0.0, T=12)
    # at q=1 lambda = gamma is known: lambda' stays there, nothing damped
    assert all(b >= a for a, b in zip(st.A, st.A[1:]))
    assert st.lam_prime == [2.0] * 12
    assert st.gamma_t == [1.0] * 12
    # recorded values are the exact function values at replayed points
    assert len(st.h_hat) == len(st.h_tilde) == 13
    assert h.domain.contains(z)
    # at q=2 lambda' halves after an accepted step, doubles after a damped
    h, z, st = quartic_epoch()
    assert all(b >= a for a, b in zip(st.A, st.A[1:]))
    assert 1.0 in st.gamma_t and min(st.gamma_t) < 1.0
    for gam, lp_prev, lp_next in zip(st.gamma_t, st.lam_prime,
                                     st.lam_prime[1:]):
        assert lp_next == (0.5 if gam == 1.0 else 2.0) * lp_prev
    assert all(0 < g <= 1 for g in st.gamma_t)
    assert h.domain.contains(z)


def logged_bundle(inner, log):
    """inner with each ifunc, igrad and iprox call appended to log."""
    def ifunc(z, d):
        log.append(("f", np.asarray(z, float).tobytes()))
        return inner.ifunc(z, d)

    def igrad(z, d):
        log.append(("g", np.asarray(z, float).tobytes()))
        return inner.igrad(z, d)

    def iprox(zb, g):
        log.append(("p", None))
        return inner.iprox(zb, g)

    return SimpleNamespace(ifunc=ifunc, igrad=igrad, iprox=iprox,
                           order=inner.order)


def test_epoch_asks_ifunc_only_where_igrad_did_not_answer():
    # igrad hands up the value at z~ with the gradient, so ifunc runs once
    # at the start and then only at a z without z~'s bytes (gamma_t < 1)
    log = []
    h, _, st = quartic_epoch(lambda bundle: logged_bundle(bundle, log))
    assert 1.0 in st.gamma_t and min(st.gamma_t) < 1.0
    # split the log by prox call: the start, then one chunk per iteration
    chunks = [[]]
    for entry in log:
        if entry[0] == "p":
            chunks.append([])
        else:
            chunks[-1].append(entry)
    assert [k for k, _ in chunks[0]] == ["f"]
    assert len(chunks) == len(st.gamma_t) + 1
    for gam, chunk in zip(st.gamma_t, chunks[1:]):
        kinds = [k for k, _ in chunk]
        assert kinds == (["g"] if gam == 1.0 else ["g", "f"])
        if gam < 1.0:
            assert chunk[1][1] != chunk[0][1]
    assert st.h_tilde[1:] == [view_value(h, np.frombuffer(c[0][1]))
                              for c in chunks[1:]]
    # at q=1 no step is damped, so ifunc runs only at the start
    log = []
    q1 = quad_oracle([0.3, -0.2], lo=-2.0, hi=2.0)
    bundle = logged_bundle(exact_bundle(q1, q1.domain, M=2.0, order=1), log)
    _, st = aipe_epoch(bundle, q1.domain, [1.8, -1.5], gamma=1.0, delta=0.0,
                       T=12)
    assert len(st.gamma_t) == 12
    assert [k for k, _ in log].count("f") == 1 and log[0][0] == "f"


def test_epoch_fixed_point_event():
    # start at the unconstrained minimizer: the first prox step returns it
    h = quad_oracle([0.25, -0.5], lo=-1.0, hi=1.0)
    calls = []
    bundle = exact_bundle(h, h.domain, M=2.0, order=1, calls=calls)
    z, st = aipe_epoch(bundle, h.domain, [0.25, -0.5], gamma=1.0, delta=0.0,
                       T=10)
    assert st.fixed_point
    assert np.allclose(z, [0.25, -0.5])
    assert len(calls) == 1


def test_epoch_counts_iprox_calls():
    h = quad_oracle([0.0, 0.0], lo=-3.0, hi=3.0)
    calls = []
    bundle = exact_bundle(h, h.domain, M=2.0, order=1, calls=calls)
    aipe_epoch(bundle, h.domain, [2.0, -1.0], gamma=1.0, delta=0.0, T=7)
    assert len(calls) == 7


@pytest.mark.parametrize("c, hi, z0, delta, T, S, probe, reasons", [
    ([0.25, -0.5], 1.0, [0.25, -0.5], 0.0, 10, 1, None, ["fixed_point"]),
    ([0.0, 0.0], 3.0, [2.0, -1.0], 0.0, 5, 4, lambda z, stalled: True,
     ["stopped_by_probe"]),
    ([0.5], 1.0, [-1.0], 1e-3, 8, 3, None, [None, "stalled"]),
    ([0.0, 0.0], 3.0, [2.0, -1.0], 0.0, 7, 1, None, [None]),
], ids=["fixed_point", "probe", "stall", "full_T"])
def test_epoch_records_one_stop_reason(c, hi, z0, delta, T, S, probe,
                                       reasons):
    # each epoch records at most one reason for ending early, and records
    # none only when it ran all T iterations
    h = quad_oracle(c, lo=-hi, hi=hi)
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    _, traces = aipe_restart(bundle, h.domain, z0, 1.0, delta, T, S,
                             probe=probe)
    seen = []
    for st in traces:
        set_ = [r for r in ("fixed_point", "stopped_by_probe", "stalled")
                if getattr(st, r)]
        assert len(set_) <= 1 and (set_ or len(st.lam) == T)
        seen += set_ or [None]
    assert seen == reasons


# ---------------------------------------------------------------------------
# restarts
# ---------------------------------------------------------------------------

def test_restart_s0_returns_start():
    h = quad_oracle([0.0])
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    z, traces = aipe_restart(bundle, h.domain, [1.0], 1.0, 0.0, T=5, S=0)
    assert np.allclose(z, [1.0])
    assert traces == []


def test_restart_gap_halving_quartic():
    h = quartic_oracle(dim=3, seed=2)
    z_star, f_star = reference_min(h)
    bundle = exact_bundle(h, h.domain, M=2 * h.Lp, order=2)
    T = math.ceil(8.0 * (h.Lp / h.mu) ** (2.0 / 7.0))
    z, traces = aipe_restart(bundle, h.domain, h.domain.sample(
        np.random.default_rng(3)), gamma=h.Lp, delta=0.0, T=T, S=8)
    gaps = restart_gaps(traces, f_star)
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 < 1e-12:
            break
        assert g1 <= 0.75 * g0 + 1e-12


def test_restart_probe_stops_after_first_epoch():
    h = quad_oracle([0.0, 0.0], lo=-3.0, hi=3.0)
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    seen = []

    def probe(z, stalled):
        seen.append(np.array(z))
        return True

    z, traces = aipe_restart(bundle, h.domain, [2.0, -1.0], 1.0, 0.0, T=5,
                             S=4, probe=probe)
    (st,) = traces
    assert st.stopped_by_probe and not st.stalled and not st.fixed_point
    assert len(st.lam) == 1 and len(seen) == 1
    assert np.array_equal(z, seen[0])


def test_probe_is_told_which_iterations_count_toward_the_stall_exit():
    # stalled is True exactly when an iteration improves the best recorded
    # value by no more than delta
    h = quad_oracle([0.5], lo=-1.0, hi=1.0)
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    seen = []

    def probe(z, stalled):
        seen.append(stalled)
        return False

    _, (st,) = aipe_restart(bundle, h.domain, [-1.0], 1.0, 1e-3, T=8, S=1,
                            probe=probe)
    best, want = min(st.h_hat[0], st.h_tilde[0]), []
    for val in map(min, st.h_hat[1:], st.h_tilde[1:]):
        want.append(not val < best - 1e-3)
        best = min(best, val)
    assert seen == want
    assert True in seen and False in seen


def test_restart_stops_after_a_stalled_epoch():
    # the minimizer is reached in the first epoch, so the second one cannot
    # improve the best value, and the stall break ends the loop there
    h = quad_oracle([0.5], lo=-1.0, hi=1.0)
    bundle = exact_bundle(h, h.domain, M=2.0, order=1)
    _, traces = aipe_restart(bundle, h.domain, [-1.0], gamma=1.0, delta=1e-3,
                             T=8, S=3)
    assert len(traces) == 2
    assert min(traces[1].h_hat + traces[1].h_tilde) \
        > min(traces[0].h_hat + traces[0].h_tilde) - 1e-3


def test_gap_from_residual():
    # p=1 strongly convex (mu=1): gap <= r^2/2
    assert gap_from_residual(0.2, 1.0, 1) == pytest.approx(0.02)
    assert gap_from_residual(0.0, 1.0, 2) == 0.0
    assert gap_from_residual(1.0, 0.0, 1) == math.inf

