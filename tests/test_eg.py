import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from saddleopt import eg
from saddleopt.eg import (
    certified_distance, default_epoch_length, eg_epoch, eg_steps, iprox_psi,
    polish_step, restarted_eg,
)
from saddleopt.geometry import Box, norm
from saddleopt.problems import (
    SaddleProblem, join, make_power, make_quadratic, regularize_f_eps, split,
    surrogate_g, surrogate_h,
)
from saddleopt.tensor_step import TensorStepConfig


def xy_problem(L=1.0, half_width=1.0):
    """f(x, y) = L*x*y on [-half_width, half_width]^2; its operator
    F = L (y, -x) has ||F(a) - F(b)|| = L ||a - b|| for every pair."""
    box = Box([-half_width], [half_width])
    return SaddleProblem(
        box, box, 1,
        value=lambda z: L * z[0] * z[1],
        grad=lambda z: L * np.array([z[1], z[0]]),
        L1=L, Lp=L, name="xy")


def zero_problem(dim=2):
    box = Box([-1.0] * dim, [1.0] * dim)
    return SaddleProblem(
        box, box, 1,
        value=lambda z: 0.0,
        grad=lambda z: np.zeros(2 * dim),
        L1=1e-3, Lp=0.0, name="zero")


def reference_saddle(problem, iters=300_000, eta=None):
    """Independent oracle: plain first-order EG, last iterate."""
    op = problem.operator()
    dom = problem.domain
    eta = eta or 0.2 / problem.L1
    z = dom.center()
    for _ in range(iters):
        w = dom.project(z - eta * op(z))
        z_new = dom.project(z - eta * op(w))
        if np.linalg.norm(z_new - z) < 1e-15:
            return z_new
        z = z_new
    return z


def two_call_saddle(problem, tol, max_steps=100_000):
    """Reference saddle from two-call eg_steps run to measured residual
    <= tol; returns (point, residual)."""
    steps = eg_steps(problem.operator(), problem.domain,
                     problem.domain.center(),
                     TensorStepConfig(order=1, M=2.0 * problem.Lp))
    for zh, t, _, eta in islice(steps, max_steps):
        r = norm(t)
        if r <= tol or eta is None:
            return zh, r
    raise AssertionError(f"no residual <= {tol} in {max_steps} steps")


def record_half_points(monkeypatch, steps="past_eg_steps"):
    """Patches eg's step generator of that name to record each half point
    it yields; returns the record, half point bytes -> measured residual."""
    halves = {}
    real_steps = getattr(eg, steps)

    def recorded(*args):
        for step in real_steps(*args):
            halves[step[0].tobytes()] = norm(step[1])
            yield step

    monkeypatch.setattr(eg, steps, recorded)
    return halves


def assert_F_is_remembered(problem, z):
    """Asking F at z costs problem no call and answers, bit for bit, what
    a new evaluation there does."""
    op = problem.operator()
    before = problem.oracle_counter
    kept = op(z)
    assert problem.oracle_counter == before
    problem.forget()
    assert kept.tobytes() == op(z).tobytes()


def run_epoch(op, domain, z0, M, T, q):
    """eg_epoch over q=1 past_eg_steps or q=2 eg_steps from z0 at
    regularization M; returns (point, trace, etas), etas the step size
    each step yielded, a zero step's excepted."""
    z0 = np.asarray(z0, float)
    steps = eg.past_eg_steps(op, domain, z0, M) if q == 1 else \
        eg.eg_steps(op, domain, z0, TensorStepConfig(order=q, M=M))
    etas = []

    def sized(steps):
        for step in steps:
            if step[3] is not None:
                etas.append(step[3])
            yield step

    z, tr = eg_epoch(sized(steps), z0, T)
    return z, tr, etas


def make_h_eps(seed, p=1, gamma=0.5, mu=0.1):
    prob = make_quadratic(3, seed=seed) if p == 1 else make_power(
        3, p=2, seed=seed)
    z0 = prob.domain.center()
    f_eps = regularize_f_eps(prob, z0, mu, mu)
    x0, y0 = split(z0, prob.dx)
    return surrogate_h(surrogate_g(f_eps, x0, gamma), y0, gamma)


# ---------------------------------------------------------------------------
# eg_epoch
# ---------------------------------------------------------------------------

def test_epoch_hand_trace():
    prob = xy_problem()
    z, _, etas = run_epoch(prob.operator(), prob.domain, [1.0, 1.0], M=1.0,
                           T=1, q=1)
    assert np.allclose(z, [0.0, 1.0])
    assert etas == [1.0]


@pytest.mark.parametrize("L", [0.5, 3.0])
def test_epoch_q1_step_follows_local_lipschitz(L):
    # on F = L (y, -x) every step measures L exactly, and on this box no
    # step projects: M goes 8L, 4L, 2L, then stays at 2L; from L/4 the
    # first measurement lifts it straight to 2L
    prob = xy_problem(L, half_width=1e3)
    op, dom = prob.operator(), prob.domain
    z0 = np.array([0.3, -0.2])
    _, _, etas = run_epoch(op, dom, z0, M=8 * L, T=4, q=1)
    np.testing.assert_allclose(etas, np.array([1 / 8, 1 / 4, 1 / 2,
                                               1 / 2]) / L, rtol=1e-12)
    _, _, etas = run_epoch(op, dom, z0, M=L / 4, T=2, q=1)
    assert etas[1] == pytest.approx(1 / (2 * L), rel=1e-12)


def test_epoch_q1_step_rule_costs_no_call():
    # an epoch from a point just asked asks F at its T half points and
    # nowhere else: the oracle's memory answers F at the start, each
    # past-extragradient step reuses the last half point's value as its
    # anchor's, and the step rule measures from values already in hand
    h = make_h_eps(0)
    op = h.operator()
    z0 = h.domain.sample(np.random.default_rng(1))
    op(z0)
    start = h.oracle_counter
    _, _, etas = run_epoch(op, h.domain, z0, M=4.0, T=6, q=1)
    assert len(etas) == 6
    assert h.oracle_counter - start == 6


def test_epoch_q1_repeated_half_point_asks_no_call():
    # f = x - y on [-1, 1]^2: F = (1, 1) pins every half point to the corner
    # (-1, -1) from the first step on, so only F(z0) and F(zh_0) are asked;
    # the later steps are not zero steps (their anchors are not built from
    # F there), and each reuses the value the step before asked
    box = Box([-1.0], [1.0])
    prob = SaddleProblem(box, box, 1, value=lambda z: z[0] - z[1],
                         grad=lambda z: np.array([1.0, -1.0]),
                         L1=1.0, Lp=1.0, name="corner")
    z, _, etas = run_epoch(prob.operator(), prob.domain, [0.0, 0.0], M=1.0,
                           T=4, q=1)
    assert prob.oracle_counter == 2
    assert np.array_equal(z, [-1.0, -1.0])
    assert etas == [1.0, 2.0, 4.0, 8.0]


def test_epoch_zero_step_returns_at_once():
    # F = 0: the first step does not move, so its anchor solves the VI
    prob = zero_problem()
    z0 = np.array([0.3, -0.2, 0.1, 0.5])
    start = prob.oracle_counter
    z, tr, etas = run_epoch(prob.operator(), prob.domain, z0, M=1.0, T=5,
                            q=1)
    assert prob.oracle_counter - start == 1
    assert np.array_equal(z, z0)
    assert tr.step_norms == [0.0] and etas == []


def test_epoch_t0_returns_start():
    prob = xy_problem()
    z0 = np.array([0.3, -0.2])
    z, tr, etas = run_epoch(prob.operator(), prob.domain, z0, M=1.0, T=0,
                            q=1)
    assert np.allclose(z, z0)
    assert etas == [] and tr.step_norms == []


@pytest.mark.parametrize("q", [1, 2])
def test_epoch_returns_a_half_point_and_F_there(monkeypatch, q):
    # the epoch returns its half point of least residual, where F was
    # just measured: the oracle's memory answers it at no call
    h = make_h_eps(2, p=q, gamma=1.0 if q == 2 else 0.5)
    rng = np.random.default_rng(3)
    op = h.operator()
    z0 = h.domain.sample(rng)
    halves = record_half_points(
        monkeypatch, "past_eg_steps" if q == 1 else "eg_steps")
    z, tr, etas = run_epoch(op, h.domain, z0,
                            M=8.0 if q == 1 else 2 * h.Lp, T=5, q=q)
    assert np.all(np.asarray(etas) > 0)
    assert halves[z.tobytes()] == min(halves.values())
    assert_F_is_remembered(h, z)


def test_epoch_iterates_feasible_q2():
    h = make_h_eps(4, p=2, gamma=1.0)
    z, _, etas = run_epoch(h.operator(), h.domain, h.domain.center(),
                           M=2 * h.Lp, T=4, q=2)
    assert h.domain.contains(z)
    assert all(e > 0 for e in etas)


@pytest.mark.parametrize("q", [1, 2])
def test_epoch_residual_is_measured_at_the_returned_point(monkeypatch, q):
    # one driver over both generators: a capped run returns its half point
    # of least residual, uncertified, and a stop residual ends the run,
    # certified, at the first half point that meets it; either way
    # trace.residual is the residual measured at the returned point
    h = make_h_eps(2, p=q, gamma=1.0 if q == 2 else 0.5)
    op, dom = h.operator(), h.domain
    z0 = dom.sample(np.random.default_rng(5))
    M = 8.0 if q == 1 else 2 * h.Lp
    halves = record_half_points(
        monkeypatch, "past_eg_steps" if q == 1 else "eg_steps")
    z, tr, _ = run_epoch(op, dom, z0, M, T=6, q=q)
    assert not tr.certified and len(tr.step_norms) == 6
    assert tr.residual == halves[z.tobytes()] == min(halves.values())
    assert tr.residual == dom.tangent_residual(z, op(z))

    residuals = list(halves.values())
    steps = eg.past_eg_steps(op, dom, z0, M) if q == 1 else \
        eg.eg_steps(op, dom, z0, TensorStepConfig(order=2, M=M))
    z, tr = eg_epoch(steps, z0, 6, stop_residual=residuals[2])
    first = next(i for i, r in enumerate(residuals) if r <= residuals[2])
    assert tr.certified and len(tr.step_norms) == first + 1
    assert tr.residual == residuals[first]
    assert tr.residual == dom.tangent_residual(z, op(z))


# ---------------------------------------------------------------------------
# restarted EG
# ---------------------------------------------------------------------------

def test_epoch_contraction_rate():
    h = make_h_eps(5, gamma=0.5, mu=0.2)
    z_star = reference_saddle(h)
    op = h.operator()
    M = 32.0 * h.Lp
    T3 = default_epoch_length(h, min(h.mu_x, h.mu_y))
    z = h.domain.sample(np.random.default_rng(6))
    for _ in range(6):
        d_before = np.linalg.norm(z - z_star)
        if d_before < 1e-9:
            break
        z, _, _ = run_epoch(op, h.domain, z, M, T3, h.p)
        assert np.linalg.norm(z - z_star) <= 0.75 * d_before + 1e-12


def test_restart_from_saddle_is_fixed():
    h = make_h_eps(7)
    z_star = reference_saddle(h)
    out, _ = restarted_eg(h, 32.0 * h.Lp, 1e-6, z0=z_star)
    assert np.linalg.norm(out - z_star) <= 1e-5


@pytest.mark.parametrize("p", [1, 2])
def test_restart_zero_step_costs_one_call(p):
    # at the power game's saddle the first step does not move: the run
    # ends there, with F there remembered, instead of taking the same step
    # again
    prob = make_power(2, p, 0)
    center = prob.domain.center()
    z, tr = restarted_eg(prob, 2.0 * prob.Lp, 1e-3, z0=center)
    assert prob.oracle_counter == 1
    assert np.array_equal(z, center)
    assert tr.step_norms == [0.0]
    assert_F_is_remembered(prob, z)


def test_restart_certifies_distance():
    # the single-call run certifies what it returns: each point is within
    # zeta3 of a saddle that two-call extragradient resolves to 1e-12
    for seed in (8, 9, 10, 11, 12):
        h = make_h_eps(seed, gamma=0.8, mu=0.2)
        z_star, r_star = two_call_saddle(h, 1e-12)
        slack = certified_distance(r_star, min(h.uc(True), h.uc(False)), 1,
                                   mu2=min(h.mu2_x, h.mu2_y))
        out, tr = restarted_eg(h, 32.0 * h.Lp, 1e-5)
        assert tr.certified, seed
        assert np.linalg.norm(out - z_star) <= 1e-5 + slack, seed


def test_run_at_its_cap_returns_its_least_residual_half_point(monkeypatch):
    # zeta3 = 1e-20 puts r_stop near 1e-20, below what float64 resolves,
    # so the run takes all S3*T3 steps at one call each, plus F at its
    # start, and returns its half point of least residual, uncertified,
    # with the residual measured there
    h = make_h_eps(0, gamma=2.0, mu=1.0)
    zeta3 = 1e-20
    T3 = default_epoch_length(h, min(h.mu_x, h.mu_y))
    S3 = math.ceil(math.log2(h.domain.diameter() / zeta3)) + 2
    halves = record_half_points(monkeypatch)
    start = h.oracle_counter
    z, tr = restarted_eg(h, 4.0 * h.Lp, zeta3)
    assert not tr.certified
    assert len(tr.step_norms) == S3 * T3
    assert h.oracle_counter - start <= S3 * T3 + 1
    assert halves[z.tobytes()] == min(halves.values())
    assert tr.residual == h.domain.tangent_residual(z, h.operator()(z))


def test_certified_distance_formula():
    # p=1, modulus mu: strongly monotone, dist <= r / mu
    assert certified_distance(0.3, 0.5, 1) == pytest.approx(0.3 / 0.5)
    assert certified_distance(0.0, 0.5, 2) == 0.0
    assert certified_distance(1.0, 0.0, 1) == np.inf


# ---------------------------------------------------------------------------
# polish step
# ---------------------------------------------------------------------------

def test_polish_interior_stationary():
    prob = make_quadratic(3, seed=11)
    assert hasattr(prob, "known_saddle")
    z_hat, c_hat = polish_step(prob.operator(), prob.domain,
                               prob.known_saddle, prob.L1)
    assert np.allclose(z_hat, prob.known_saddle, atol=1e-9)
    assert np.linalg.norm(c_hat) <= 1e-9


def test_polish_cone_membership_and_bound():
    rng = np.random.default_rng(12)
    for seed in range(10):
        h = make_h_eps(seed, gamma=0.6, mu=0.2)
        z_star = reference_saddle(h)
        z = h.domain.sample(rng)
        z_hat, c_hat = polish_step(h.operator(), h.domain, z, h.L1)
        assert h.domain.contains(z_hat)
        for _ in range(10):
            zp = h.domain.sample(rng)
            assert c_hat @ (zp - z_hat) <= 1e-9 * max(
                1.0, np.linalg.norm(c_hat))
        op = h.operator()
        measured = np.linalg.norm(op(z_hat) + c_hat)
        assert measured <= 6 * h.L1 * np.linalg.norm(z - z_star) + 1e-9


# ---------------------------------------------------------------------------
# iprox for the dual envelope
# ---------------------------------------------------------------------------

def test_iprox_psi_pure_regularizer():
    base = zero_problem()
    z0 = base.domain.center()
    f_eps = regularize_f_eps(base, z0, 0.3, 0.3)
    x0, y0 = split(z0, base.dx)
    g_eps = surrogate_g(f_eps, x0, gamma=0.5)
    M = 32.0 * surrogate_h(g_eps, y0, 0.5).Lp
    ans = iprox_psi(g_eps, y0, gamma=0.5, delta=1e-6, M=M, zeta3=1e-9, z0=z0)
    assert np.linalg.norm(ans.point - y0) <= 1e-6
    assert ans.certificate.lam * np.linalg.norm(ans.point - y0) <= 1e-6
    assert ans.certificate.ok and ans.certified


def test_iprox_psi_returns_a_failed_certificate_after_one_run(monkeypatch):
    # the only certificate retry is iprox_phi's; iprox_psi makes one
    # restarted EG run and hands its certificate up as it is.  Its probes
    # measure certificates too, each failing here, so the run goes on past
    # them, and the one handed up is the last one measured
    runs, certs = [], []
    real_run, real_cert = eg.restarted_eg, eg.prox_certificate

    def counted_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    def failing_cert(*args, **kwargs):
        certs.append(replace(real_cert(*args, **kwargs), ok=False))
        return certs[-1]

    monkeypatch.setattr(eg, "restarted_eg", counted_run)
    monkeypatch.setattr(eg, "prox_certificate", failing_cert)
    prob = make_quadratic(2, seed=0)
    z0 = prob.domain.center()
    f_eps = regularize_f_eps(prob, z0, 0.2, 0.2)
    x0, y0 = split(z0, prob.dx)
    g_eps = surrogate_g(f_eps, x0, prob.L1)
    cert = iprox_psi(
        g_eps, y0, prob.L1, delta=1e-2,
        M=32.0 * surrogate_h(g_eps, y0, prob.L1).Lp, zeta3=1e-9,
        z0=z0).certificate
    assert len(runs) == 1
    assert certs and cert is certs[-1] and not cert.ok


@pytest.mark.parametrize("p", [1, 2])
def test_iprox_psi_certificate_battery(p):
    rng = np.random.default_rng(20 + p)
    n_games = 8 if p == 2 else 25
    for seed in range(n_games):
        prob = (make_quadratic(int(rng.integers(2, 4)), seed=seed) if p == 1
                else make_power(2, p=2, seed=seed))
        z0 = prob.domain.center()
        f_eps = regularize_f_eps(prob, z0, 0.2, 0.2)
        x0, y0 = split(z0, prob.dx)
        x_bar = prob.x_domain.sample(rng)
        y_bar = prob.y_domain.sample(rng)
        gamma = prob.Lp if p == 2 else prob.L1
        g_eps = surrogate_g(f_eps, x_bar, gamma)
        ans = iprox_psi(
            g_eps, y_bar, gamma, delta=1e-2,
            M=32.0 * surrogate_h(g_eps, y_bar, gamma).Lp,
            zeta3=1e-9 if p == 1 else 1e-10, z0=join(x_bar, y_bar))
        cert, y_t, z_hat = ans.certificate, ans.point, ans.start
        assert cert.ok, (p, seed, cert.residual, cert.bound)
        assert prob.y_domain.contains(y_t)
        # the returned point (x_hat, y_t) was measured at order p: asking
        # there again costs no call and answers what a new evaluation does
        assert np.array_equal(z_hat[prob.dx:], y_t)
        before = prob.oracle_counter
        kept = g_eps.oracle_eval(z_hat, p)
        assert prob.oracle_counter == before
        prob.forget()
        for got, want in zip(kept, g_eps.oracle_eval(z_hat, p)):
            assert np.array_equal(got, want)
        assert prob.oracle_counter == before + 1
