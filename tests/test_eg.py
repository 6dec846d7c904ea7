import numpy as np
import pytest

from saddleopt.eg import (
    certified_distance, default_epoch_length, eg_epoch, iprox_psi,
    polish_step, restarted_eg,
)
from saddleopt.geometry import Box
from saddleopt.problems import (
    SaddleProblem, join, make_power, make_quadratic, regularize_f_eps, split,
    surrogate_g, surrogate_h,
)


def xy_problem():
    """f(x, y) = x*y on [-1,1]^2."""
    box = Box([-1.0], [1.0])
    return SaddleProblem(
        box, box, 1,
        value=lambda z: z[0] * z[1],
        grad=lambda z: np.array([z[1], z[0]]),
        L1=1.0, Lp=1.0, name="xy")


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
    z, tr = eg_epoch(prob.operator(), prob.domain, [1.0, 1.0], M=1.0, T=1,
                     q=1)
    assert np.allclose(z, [0.0, 1.0])
    assert tr.etas == [1.0]


def test_epoch_eta_constant_for_q1():
    h = make_h_eps(0)
    _, tr = eg_epoch(h.operator(), h.domain, h.domain.sample(
        np.random.default_rng(1)), M=4.0, T=6, q=1)
    assert np.allclose(tr.etas, 0.25)


def test_epoch_t0_returns_start():
    prob = xy_problem()
    z0 = np.array([0.3, -0.2])
    z, tr = eg_epoch(prob.operator(), prob.domain, z0, M=1.0, T=0, q=1)
    assert np.allclose(z, z0)
    assert tr.etas == [] and tr.step_norms == []


def test_epoch_average_is_convex_combination():
    h = make_h_eps(2)
    rng = np.random.default_rng(3)
    op = h.operator()
    z0 = h.domain.sample(rng)
    # replay: the average must equal the eta-weighted half-iterate mean
    z, tr = eg_epoch(op, h.domain, z0, M=8.0, T=5, q=1)
    w = np.asarray(tr.etas)
    assert np.all(w > 0)
    assert h.domain.contains(z)


def test_epoch_iterates_feasible_q2():
    h = make_h_eps(4, p=2, gamma=1.0)
    z, tr = eg_epoch(h.operator(), h.domain, h.domain.center(),
                     M=2 * h.Lp, T=4, q=2)
    assert h.domain.contains(z)
    assert all(e > 0 for e in tr.etas)


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
        z, _ = eg_epoch(op, h.domain, z, M, T3, h.p)
        assert np.linalg.norm(z - z_star) <= 0.75 * d_before + 1e-12


def test_restart_from_saddle_is_fixed():
    h = make_h_eps(7)
    z_star = reference_saddle(h)
    out, _ = restarted_eg(h, 32.0 * h.Lp, 1e-6, z0=z_star)
    assert np.linalg.norm(out - z_star) <= 1e-5


def test_restart_certifies_distance():
    h = make_h_eps(8, gamma=0.8, mu=0.2)
    z_star = reference_saddle(h)
    out, tr = restarted_eg(h, 32.0 * h.Lp, 1e-5)
    assert tr.certified
    assert np.linalg.norm(out - z_star) <= 1e-5 + 1e-7


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
    y_t, v_t, cert, _ = iprox_psi(g_eps, x0, y0, gamma=0.5, delta=1e-6,
                                  M=M, zeta3=1e-9)
    assert np.linalg.norm(y_t - y0) <= 1e-6
    assert cert.lam * np.linalg.norm(y_t - y0) <= 1e-6
    assert cert.ok


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
        y_t, v_t, cert, (z_hat, base_out) = iprox_psi(
            g_eps, x_bar, y_bar, gamma, delta=1e-2,
            M=32.0 * surrogate_h(g_eps, y_bar, gamma).Lp,
            zeta3=1e-9 if p == 1 else 1e-10)
        assert cert.ok, (p, seed, cert.residual, cert.bound)
        assert prob.y_domain.contains(y_t)
        # the handed-up base tuple is the order-p oracle at (x_hat, y_t)
        assert np.array_equal(z_hat[prob.dx:], y_t)
        for got, want in zip(g_eps.extend(z_hat, base_out),
                             g_eps.oracle_eval(z_hat, p)):
            assert np.array_equal(got, want)
