import numpy as np
import pytest
from scipy.optimize import brentq

from test_aipe import certified_gamma, function_oracle, iprox_via_tensor

from saddleopt import eg
from saddleopt.geometry import Box, norm
from saddleopt import tensor_step as tensor_step_module
from saddleopt.problems import (
    SaddleProblem, hard_instance, join, make_power, regularize_f_eps,
    surrogate_g, surrogate_h,
)
from saddleopt.tensor_step import (
    _VI_TOL, TensorStepConfig, model_operator, prox_certificate, tensor_step,
)


class Op:
    """Test operator from explicit call/jacobian closures."""

    def __init__(self, f, jac=None, order=1):
        self._f, self._jac, self.order = f, jac, order

    def __call__(self, z):
        return np.atleast_1d(np.asarray(self._f(np.asarray(z, float)), float))

    def jacobian(self, z):
        return np.atleast_2d(np.asarray(self._jac(np.asarray(z, float)), float))

    def derivatives(self, z):
        return self(z), self.jacobian(z)


def cube_op():
    return Op(lambda z: z ** 3, lambda z: np.diag(3 * z ** 2), order=2)


BIG = Box([-100.0], [100.0])


# ---------------------------------------------------------------------------
# random smooth convex test functions with certified constants:
# h(z) = z'Qz/2 + b'z + sum_j c_j (w_j'z + d_j)^4 / 12   on [-1,1]^n
# ---------------------------------------------------------------------------

def random_convex_function(rng, dim, p):
    k = int(rng.integers(1, 4))
    R = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    eigs = rng.uniform(0, 3, size=dim)
    eigs[rng.integers(0, dim)] = 0.0  # keep a flat direction in the mix
    Q = R @ np.diag(eigs) @ R.T
    b = rng.normal(scale=1.5, size=dim)
    C = rng.uniform(0.1, 1.0, size=k)
    W = rng.normal(size=(k, dim))
    d = rng.uniform(-0.5, 0.5, size=k)
    B = np.abs(W).sum(axis=1) + np.abs(d)  # |w'z + d| <= B on the unit box
    wn = np.linalg.norm(W, axis=1)

    def val(z):
        t = W @ z + d
        return 0.5 * z @ Q @ z + b @ z + np.sum(C * t ** 4) / 12

    def grad(z):
        t = W @ z + d
        return Q @ z + b + W.T @ (C * t ** 3) / 3

    def hess(z):
        t = W @ z + d
        return Q + (W.T * (C * t ** 2)) @ W

    L1 = float(np.max(eigs) + np.sum(C * B ** 2 * wn ** 2))
    L2 = float(2 * np.sum(C * B * wn ** 3))
    return function_oracle(val, grad, hess,
                           domain=Box([-1.0] * dim, [1.0] * dim), p=p,
                           Lp=L1 if p == 1 else L2)


# ---------------------------------------------------------------------------
# Taylor model
# ---------------------------------------------------------------------------

def test_taylor_remainder_second_order():
    prob = make_power(dim=3, p=2, seed=1)
    op = prob.operator()
    rng = np.random.default_rng(2)
    for _ in range(50):
        zb = prob.domain.sample(rng)
        z = prob.domain.sample(rng)
        F, J = op.derivatives(zb)
        taylor = F + J @ (z - zb)
        err = np.linalg.norm(op(z) - taylor)
        assert err <= 0.5 * prob.Lp * np.linalg.norm(z - zb) ** 2 + 1e-9


# ---------------------------------------------------------------------------
# tensor step
# ---------------------------------------------------------------------------

def test_step_q1_linear():
    op = Op(lambda z: z)
    z, _ = tensor_step(op, BIG, [1.0], TensorStepConfig(order=1, M=2.0))
    assert np.allclose(z, [0.5])


def test_step_q1_corner_fixed_point():
    # at the lower corner with F in the normal cone the projection is a no-op
    op = Op(lambda z: np.ones_like(z))
    box = Box([0.0, 0.0], [1.0, 1.0])
    z, _ = tensor_step(op, box, [0.0, 0.0], TensorStepConfig(order=1, M=2.0))
    assert np.allclose(z, [0.0, 0.0])


def test_step_q2_scalar_frozen():
    # independent oracle: root of the scalar model 1 + 3s + |s|s = 0
    s_star = brentq(lambda s: 1 + 3 * s + abs(s) * s, -1.0, 0.0, xtol=1e-14)
    assert s_star == pytest.approx((3 - np.sqrt(13)) / 2, abs=1e-12)
    cfg = TensorStepConfig(order=2, M=2.0)
    z, _ = tensor_step(cube_op(), BIG, [1.0], cfg)
    assert z[0] == pytest.approx(1 + s_star, abs=1e-8)
    assert z[0] == pytest.approx(0.6972, abs=1e-4)


def test_bisection_map_monotone():
    rng = np.random.default_rng(3)
    n = 6
    A = rng.normal(size=(n, n))
    J = A @ A.T + (A - A.T)  # monotone: PSD symmetric part
    F0 = rng.normal(size=n)
    vals = [np.linalg.norm(np.linalg.solve(J + lam * np.eye(n), F0))
            for lam in np.logspace(-6, 3, 40)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("q", [1, 2])
def test_model_vi_residual(q):
    rng = np.random.default_rng(10 + q)
    for trial in range(25):
        prob = make_power(dim=int(rng.integers(2, 5)), p=2,
                          seed=100 * q + trial)
        op = prob.operator()
        zb = prob.domain.project(prob.domain.sample(rng) * 3)  # often on faces
        cfg = TensorStepConfig(order=q, M=2 * (prob.Lp if q == 2 else prob.L1))
        z, _ = tensor_step(op, prob.domain, zb, cfg)
        G = model_operator(op, zb, cfg)
        r = prob.domain.tangent_residual(z, G(z))
        assert r <= _VI_TOL * (1 + np.linalg.norm(op(zb))) + 1e-12


def test_step_q2_constrained_hits_boundary():
    # strong pull towards a point outside a tiny box: candidate is exterior,
    # so the constrained VI path runs and lands on the boundary
    op = Op(lambda z: z - 5.0, lambda z: np.eye(z.size), order=2)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    cfg = TensorStepConfig(order=2, M=2.0)
    z, _ = tensor_step(op, box, np.zeros(2), cfg)
    G = model_operator(op, np.zeros(2), cfg)
    assert box.tangent_residual(z, G(z)) <= _VI_TOL * (1 + 5 * np.sqrt(2))
    assert np.max(np.abs(z)) == pytest.approx(1.0, abs=1e-9)


def test_q2_constrained_step_queries_its_anchor_once(monkeypatch):
    # f = (x-a)'A(x-a)/2 - (y-a)'A(y-a)/2 on [-1,1]^2 x [-1,1]^2 with
    # a = (3, -1) as a counted saddle problem, and its restricted view in x:
    # the bisection candidate leaves the box and its projection is not the
    # solution (1, 0), so the model VI takes several extragradient steps;
    # the model keeps F and its Jacobian at the anchor, so the step costs
    # one order-2 query however often those steps evaluate it, and returns
    # that query's F
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    a = np.array([3.0, -1.0])
    H = np.zeros((4, 4))
    H[:2, :2], H[2:, 2:] = A, -A
    box = Box([-1.0, -1.0], [1.0, 1.0])
    prob = SaddleProblem(
        box, box, 2,
        value=lambda z: 0.5 * (z[:2] - a) @ A @ (z[:2] - a)
        - 0.5 * (z[2:] - a) @ A @ (z[2:] - a),
        grad=lambda z: np.concatenate([A @ (z[:2] - a), -A @ (z[2:] - a)]),
        hess=lambda z: H, L1=1.5, Lp=1.0)
    evals = []
    real_steps = eg.eg_steps

    def spied(G, *args):
        return real_steps(lambda z: evals.append(1) or G(z), *args)

    monkeypatch.setattr(eg, "eg_steps", spied)
    cfg = TensorStepConfig(order=2, M=2.0)
    for op in (prob.operator(), prob.restricted(np.zeros(2), True)):
        # both views ask at the same joint point; start each unanswered
        prob.forget()
        evals.clear()
        before = prob.oracle_counter
        z, F = tensor_step(op, op.domain, np.zeros(op.domain.dim), cfg)
        assert len(evals) > 2
        assert prob.oracle_counter == before + 1
        assert np.max(np.abs(z)) == pytest.approx(1.0, abs=1e-9)
        assert F.tobytes() == op.derivatives(np.zeros(op.domain.dim))[0] \
            .tobytes()


def test_q2_model_on_the_hard_chain_is_solved_within_the_cap(monkeypatch):
    # a constrained q=2 model of solve(hard_instance(2, 4), 1e-2): h_eps at
    # mu = 5e-4 around the center, gamma = 1 at x_bar = center and at y_bar
    # below, anchored at z_bar with M = 12.004.  A constant-step subsolver
    # ran all _MAX_INNER_ITERS steps on it and ended at slack 3.1e-10 > tol
    center = np.full(5, 0.5)
    y_bar = np.array([0.9376456023664074, 0.5531559618921781,
                      0.503141094213993, 0.5001655543007862,
                      0.5000079008455507])
    z_bar = np.array([0.6742337706625396, 0.5413615134779699,
                      0.5089451839551532, 0.5019400072748222,
                      0.5005012050319079, 1.0, 0.5697581537970403,
                      0.5041284223901772, 0.5002115764126037,
                      0.5000098390232349])
    mu = 0.0004999999999999999
    f_eps = regularize_f_eps(hard_instance(2, 4), join(center, center),
                             mu, mu)
    h_eps = surrogate_h(surrogate_g(f_eps, center, 1.0), y_bar, 1.0)
    op = h_eps.operator()
    cfg = TensorStepConfig(order=2, M=12.004)
    G = model_operator(op, z_bar, cfg)
    s = tensor_step_module._bisection_q2(G.F0, G.J, cfg.M)
    assert not op.domain._feasible(z_bar + s)
    traces, real_epoch = [], eg.eg_epoch

    def epoch(*args, **kwargs):
        z, tr = real_epoch(*args, **kwargs)
        traces.append(tr)
        return z, tr

    monkeypatch.setattr(eg, "eg_epoch", epoch)
    z = tensor_step_module._solve_model(G, op.domain, cfg)
    tol = _VI_TOL * (1 + np.linalg.norm(G.F0))
    [tr] = traces
    iters = len(tr.step_norms)
    assert tr.certified and 0 < iters < tensor_step_module._MAX_INNER_ITERS
    slack = op.domain.tangent_residual(z, G(z))
    assert slack == tr.residual and slack <= tol


def test_q2_feasible_bisection_point_near_a_face_is_returned(monkeypatch):
    # F(z) = z - c on [-1, 1]^2 from z_bar = 0 with M = 2: the model
    # s + (M/2)||s|| s = c is solved by s = target for the c below, a
    # feasible point 1e-7 from a face; with ||G|| <= tol its tangent
    # residual is <= tol, so the step returns it without an extragradient
    # run
    box = Box([-1.0, -1.0], [1.0, 1.0])
    target = np.array([1.0 - 1e-7, 0.2])
    c = target + norm(target) * target
    op = Op(lambda z: z - c, lambda z: np.eye(z.size), order=2)
    cfg = TensorStepConfig(order=2, M=2.0)

    def no_run(*args, **kwargs):
        raise AssertionError("the feasible candidate went to eg_epoch")

    monkeypatch.setattr(eg, "eg_epoch", no_run)
    z_bar = np.zeros(2)
    G = model_operator(op, z_bar, cfg)
    s = tensor_step_module._bisection_q2(G.F0, G.J, cfg.M)
    z, _ = tensor_step(op, box, z_bar, cfg)
    assert z.tobytes() == (z_bar + s).tobytes()
    assert box._feasible(z) and 0.0 < 1.0 - z[0] < 1e-6
    assert norm(G(z)) <= _VI_TOL * (1 + norm(c))


def test_q1_step_returns_the_handed_in_anchor_value():
    # F0 is F at the anchor: the step makes no query and hands F0 back
    prob = make_power(2, p=1, seed=0)
    op = prob.operator()
    zb = np.full(4, 0.3)
    F0 = op(zb)
    before = prob.oracle_counter
    z, F = tensor_step(op, prob.domain, zb, TensorStepConfig(order=1, M=2.0),
                       F0=F0)
    assert prob.oracle_counter == before
    assert F.tobytes() == F0.tobytes()
    assert np.array_equal(z, prob.domain.project(zb - F0 / 2.0))


# ---------------------------------------------------------------------------
# inexact proximal oracle
# ---------------------------------------------------------------------------

def quad_oracle(dim=1, shift=0.0):
    c = np.full(dim, shift)
    return function_oracle(
        lambda z: 0.5 * np.sum((z - c) ** 2), lambda z: z - c,
        lambda z: np.eye(dim), domain=Box([-10.0] * dim, [10.0] * dim), p=1,
        Lp=1.0)


@pytest.mark.parametrize("q, lam", [(1, 0.5), (2, 1.0)])
def test_prox_certificate_holds_at_equality(q, lam):
    # s = 2, so bound = (lam/2) * 2 + delta = lam + 0.25 exactly
    z_bar, z = np.array([0.0]), np.array([2.0])
    bound = lam + 0.25
    cert = prox_certificate(z_bar, z, bound, 0.5, q, 0.25)
    assert cert.lam == lam and cert.bound == bound and cert.ok
    above = np.nextafter(bound, np.inf)
    assert not prox_certificate(z_bar, z, above, 0.5, q, 0.25).ok


def test_iprox_scalar_frozen():
    ans = iprox_via_tensor(quad_oracle(), Box([-10.0], [10.0]), [1.0],
                           gamma=1.0, cfg=TensorStepConfig(order=1, M=2.0))
    cert = ans.certificate
    assert ans.point[0] == pytest.approx(0.5, abs=1e-12)
    assert cert.lam == pytest.approx(1.0)
    assert cert.residual == pytest.approx(0.0, abs=1e-12)
    assert cert.ok


def test_iprox_at_constrained_minimizer():
    # minimizer of ||z - 20||^2/2 over the box is the corner z = 10
    h = quad_oracle(dim=2, shift=20.0)
    zb = np.array([10.0, 10.0])
    ans = iprox_via_tensor(h, h.domain, zb, gamma=2.0,
                           cfg=TensorStepConfig(order=1, M=2.0))
    cert = ans.certificate
    assert np.allclose(ans.point, zb)
    assert cert.lam * np.linalg.norm(ans.point - zb) == 0.0
    assert cert.residual <= 1e-9
    assert cert.ok


@pytest.mark.parametrize("p", [1, 2])
def test_iprox_certificate_battery(p):
    rng = np.random.default_rng(40 + p)
    for trial in range(100):
        dim = int(rng.integers(1, 21))
        h = random_convex_function(rng, dim, p)
        zb = h.domain.sample(rng)
        if trial % 3 == 0:  # exercise anchors on faces too
            zb = h.domain.project(zb * 5)
        cfg = TensorStepConfig(order=p, M=2 * h.Lp)
        ans = iprox_via_tensor(h, h.domain, zb, certified_gamma(p, h.Lp), cfg)
        cert, z, u = ans.certificate, ans.point, ans.normal
        s = np.linalg.norm(z - zb)
        assert cert.residual <= 0.5 * cert.lam * s + 1e-6, \
            f"p={p} trial={trial}: {cert.residual} > {0.5 * cert.lam * s}"
        assert h.domain.contains(z)
        # normal-cone membership of u, sampled
        for _ in range(5):
            zp = h.domain.sample(rng)
            assert u @ (zp - z) <= 1e-9 * max(1.0, np.linalg.norm(u))
