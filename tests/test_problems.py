import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from test_geometry import brute_tangent

from saddleopt.geometry import Box
from saddleopt.problems import (
    OrderedBox, OrderError, SaddleProblem, _reg_grad,
    _reg_value, check_derivatives, from_config, hard_instance,
    join, make_bilinear, make_power, make_quadratic,
    regularize_f_eps, split, surrogate_g, surrogate_h,
)


def scalar_bilinear(p=1):
    """f(x, y) = x*y on [-1,1]^2 — the hand-checkable workhorse."""
    def value(z):
        return float(z[0] * z[1])

    def grad(z):
        return np.array([z[1], z[0]])

    def hess(z):
        return np.array([[0.0, 1.0], [1.0, 0.0]])

    prob = SaddleProblem(Box([-1.0], [1.0]), Box([-1.0], [1.0]), p,
                         value, grad, hess if p == 2 else None,
                         L1=1.0, Lp=(1.0 if p == 1 else 1e-8),
                         name="xy")

    def exact_gap(z):
        x, y = z[0], z[1]
        return (x * 1.0 if x >= 0 else -x) + (abs(y))

    prob._exact_gap = lambda z: abs(z[0]) + abs(z[1])
    return prob


# ---------------------------------------------------------------------------
# oracle basics
# ---------------------------------------------------------------------------

def test_oracle_eval_examples():
    prob = scalar_bilinear()
    # bilinear f = x*y at (1, 2) is outside [-1,1]^2; use the in-domain
    # analogue at (1, 0.5)
    f, g = prob.oracle_eval([1.0, 0.5], 1)
    assert f == 0.5
    assert np.allclose(g, [0.5, 1.0])
    before = prob.oracle_counter
    prob.oracle_eval([0.0, 0.0], 0)
    assert prob.oracle_counter == before + 1


def test_oracle_order_and_domain_errors():
    prob = scalar_bilinear(p=1)
    with pytest.raises(OrderError):
        prob.oracle_eval([0.0, 0.0], 2)
    with pytest.raises(ValueError):
        prob.oracle_eval([5.0, 0.0], 0)


@pytest.mark.parametrize("cfg", [
    {"problem": "bilinear", "dim": 2, "L1": 2.0},
    {"problem": "quadratic", "dim": 2},
    {"problem": "power", "dim": 2, "a": 0.5},
    {"problem": "hard_new", "T": 4, "Lp": 2.0, "DZ": 3.0},
    {"problem": "hard_new", "T": 2, "Lp": 2.0},
])
def test_from_config_reads_each_kinds_keys(cfg):
    prob = from_config(dict(cfg, p=1, seed=3))
    if "dim" in cfg:
        assert prob.dx == cfg["dim"]
    if "Lp" in cfg:
        assert prob.Lp == cfg["Lp"]
    if "DZ" in cfg:
        assert prob.domain.diameter() == pytest.approx(cfg["DZ"])


@pytest.mark.parametrize("cfg, unknown", [
    ({"problem": "quadratic", "dimm": 5}, "dimm"),
    ({"problem": "hard_new", "dim": 3}, "dim"),
    ({"problem": "power", "paper_value_mode": True, "x": 1},
     "paper_value_mode, x"),
])
def test_from_config_rejects_unknown_keys(cfg, unknown):
    with pytest.raises(ValueError, match=f"unknown keys .*: {unknown}$"):
        from_config(dict(cfg, seed=0))


@pytest.mark.parametrize("cfg, key", [
    ({"problem": "quadratic", "dim": 2.7}, "dim"),
    ({"problem": "quadratic", "dim": True}, "dim"),
    ({"problem": "quadratic", "dim": 0}, "dim"),
    ({"problem": "power", "p": 1.9}, "p"),
    ({"problem": "power", "p": 3}, "p"),
    ({"problem": "quadratic", "seed": -1}, "seed"),
    ({"problem": "quadratic", "seed": 1.5}, "seed"),
    ({"problem": "hard_new", "T": 2.5}, "T"),
    ({"problem": "hard_new", "T": 0}, "T"),
    ({"problem": "bilinear", "L1": -1}, "L1"),
    ({"problem": "bilinear", "L1": True}, "L1"),
    ({"problem": "hard_new", "DZ": "3"}, "DZ"),
    ({"problem": "hard_new", "Lp": float("inf")}, "Lp"),
    ({"problem": "hard_new", "Lp": float("nan")}, "Lp"),
    ({"problem": "power", "a": 0.0}, "a"),
])
def test_from_config_rejects_bad_values(cfg, key):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        from_config(cfg)


def single_queries(prob, z):
    """One zero-argument call per oracle query that prob's views offer."""
    x, y = split(z, prob.dx)
    op = prob.operator()
    fx, fy = prob.restricted(y, True), prob.restricted(x, False)
    queries = [lambda k=k: prob.oracle_eval(z, k) for k in range(prob.p + 1)]
    queries += [lambda: op(z), lambda: fx.value(x), lambda: fx.grad(x),
                lambda: fy.value(y), lambda: fy.grad(y)]
    if prob.p == 2:
        queries += [lambda: op.derivatives(z), lambda: fx.derivatives(x),
                    lambda: fy.derivatives(y)]
    return queries


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["bilinear", "quadratic", "power", "hard_new"]),
       p=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
def test_one_query_counts_one_oracle_call_on_every_view(kind, p, seed):
    base = from_config({"problem": kind, "p": p, "seed": seed % 5})
    rng = np.random.default_rng(seed)
    f_eps = regularize_f_eps(base, base.domain.sample(rng), 0.3, 0.2)
    g_eps = surrogate_g(f_eps, base.x_domain.sample(rng), 0.5)
    h_eps = surrogate_h(g_eps, base.y_domain.sample(rng), 0.7)
    z = base.domain.sample(rng)
    for prob in (base, f_eps, g_eps, h_eps):
        for query in single_queries(prob, z):
            before = prob.oracle_counter
            query()
            assert prob.oracle_counter == before + 1
    # a regularized query is the base query plus the regularizer terms
    v, g = base.oracle_eval(z, 1)
    x, y = split(z, base.dx)
    for prob in (f_eps, g_eps, h_eps):
        rv, rg = prob.oracle_eval(z, 1)
        ev = (v + sum(_reg_value(x - w, c, p) for c, w in prob.x_terms)
              - sum(_reg_value(y - w, c, p) for c, w in prob.y_terms))
        eg = np.concatenate([
            g[:base.dx] + sum(_reg_grad(x - w, c, p) for c, w in prob.x_terms),
            g[base.dx:] - sum(_reg_grad(y - w, c, p) for c, w in prob.y_terms),
        ])
        assert abs(rv - ev) <= 1e-12
        assert np.max(np.abs(rg - eg)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_joint_query_restricts_bit_for_bit(p):
    # the value, gradient and Hessian a restricted view reads from its one
    # joint query are exactly its own value/grad/hess: reusing a subsolver's
    # tuple in place of a fresh query then leaves every iterate unchanged
    rng = np.random.default_rng(10 + p)
    for kind in ("bilinear", "quadratic", "power"):
        base = from_config({"problem": kind, "p": p, "dim": 3, "seed": p})
        f_eps = regularize_f_eps(base, base.domain.sample(rng), 0.3, 0.2)
        g_eps = surrogate_g(f_eps, base.x_domain.sample(rng), 0.5)
        h_eps = surrogate_h(g_eps, base.y_domain.sample(rng), 0.7)
        for prob in (base, f_eps, g_eps, h_eps):
            x, y = split(prob.domain.sample(rng), prob.dx)
            for fo, v, z in ((prob.restricted(y, True), x, join(x, y)),
                             (prob.restricted(x, False), y, join(x, y))):
                for order in range(1, p + 1):
                    before = prob.oracle_counter
                    out, res = fo.query(v, order)
                    assert prob.oracle_counter == before + 1
                    ref = prob.oracle_eval(z, order)
                    assert len(out) == len(res) == order + 1
                    assert all(np.array_equal(a, b) for a, b in zip(out, ref))
                    assert res[0] == fo.value(v)
                    assert np.array_equal(res[1], fo.grad(v))
                    if order == 2:
                        assert np.array_equal(res[2], fo.derivatives(v)[1])
                    assert all(np.array_equal(a, b) for a, b in
                               zip(fo.restrict(out), res))


def test_quadratic_hessian_signs():
    # f = x^2/2 - y^2/2 has operator-consistent Hessian diag(1, -1)
    def value(z):
        return 0.5 * z[0] ** 2 - 0.5 * z[1] ** 2

    def grad(z):
        return np.array([z[0], -z[1]])

    def hess(z):
        return np.diag([1.0, -1.0])

    prob = SaddleProblem(Box([-2.0], [2.0]), Box([-2.0], [2.0]), 2,
                         value, grad, hess, L1=1.0, Lp=1e-8)
    H = prob.oracle_eval([1.0, 1.0], 2)[2]
    assert np.allclose(H, np.diag([1.0, -1.0]))
    # operator view Jacobian is sign-flipped in the y block
    J = prob.operator().derivatives([1.0, 1.0])[1]
    assert np.allclose(J, np.eye(2))


def test_operator_monotone_on_builtins():
    rng = np.random.default_rng(11)
    for make in (make_bilinear, make_quadratic, make_power):
        prob = make(4, p=2, seed=3)
        F = prob.operator()
        for _ in range(50):
            z1 = prob.domain.sample(rng)
            z2 = prob.domain.sample(rng)
            lhs = (F(z1) - F(z2)) @ (z1 - z2)
            assert lhs >= -1e-8 * np.linalg.norm(z1 - z2) ** 2


# ---------------------------------------------------------------------------
# regularized surrogates
# ---------------------------------------------------------------------------

def zero_problem(dim=1, p=1, width=4.0):
    z0 = np.zeros(2 * dim)

    def value(z):
        return 0.0

    def grad(z):
        return np.zeros(2 * dim)

    def hess(z):
        return np.zeros((2 * dim, 2 * dim))

    return SaddleProblem(Box(-width * np.ones(dim), width * np.ones(dim)),
                         Box(-width * np.ones(dim), width * np.ones(dim)),
                         p, value, grad, hess if p == 2 else None,
                         L1=1.0, Lp=1.0, name="zero")


def test_regularizer_gradient_example():
    prob = zero_problem()
    feps = regularize_f_eps(prob, np.zeros(2), 1.0, 1.0)
    g = feps.oracle_eval(np.array([1.0, 1.0]), 1)[1]
    assert np.allclose(g, [1.0, -1.0])


def test_regularizer_gradient_bound():
    rng = np.random.default_rng(1)
    prob = make_bilinear(3, p=1, seed=5)
    Dx = prob.x_domain.diameter()
    Dy = prob.y_domain.diameter()
    mu_x, mu_y = 0.37, 0.11
    feps = regularize_f_eps(prob, prob.domain.center(), mu_x, mu_y)
    bound = mu_x * Dx ** prob.p + mu_y * Dy ** prob.p
    for _ in range(200):
        z = prob.domain.sample(rng)
        df = feps.oracle_eval(z, 1)[1] - prob.oracle_eval(z, 1)[1]
        assert np.linalg.norm(df) <= bound + 1e-12


def test_regularizer_eps_half_closeness():
    rng = np.random.default_rng(2)
    prob = make_quadratic(4, p=1, seed=9)
    eps = 0.05
    mu_x = eps / (4 * prob.x_domain.diameter() ** prob.p)
    mu_y = eps / (4 * prob.y_domain.diameter() ** prob.p)
    feps = regularize_f_eps(prob, prob.domain.center(), mu_x, mu_y)
    for _ in range(1000):
        z = prob.domain.sample(rng)
        df = feps.oracle_eval(z, 1)[1] - prob.oracle_eval(z, 1)[1]
        assert np.linalg.norm(df) <= eps / 2 + 1e-12


def test_surrogate_g_examples():
    prob = zero_problem()
    feps = regularize_f_eps(prob, np.zeros(2), 1e-9, 1e-9)
    g = surrogate_g(feps, np.zeros(1), 1.0)
    gx = g.oracle_eval(np.array([2.0, 0.0]), 1)[1][0]
    assert gx == pytest.approx(2.0, abs=1e-6)
    # regularizer vanishes at the center
    rng = np.random.default_rng(0)
    base = make_bilinear(2, seed=1)
    feps = regularize_f_eps(base, base.domain.center(), 0.1, 0.1)
    xbar = base.x_domain.sample(rng)
    gg = surrogate_g(feps, xbar, 2.0)
    for _ in range(10):
        y = base.y_domain.sample(rng)
        z = join(xbar, y)
        assert gg.oracle_eval(z, 0)[0] == pytest.approx(
            feps.oracle_eval(z, 0)[0], abs=1e-12)


def test_surrogate_g_pulls_minimizer():
    # on a quadratic game the x-minimizer of g moves to xbar as gamma grows
    base = make_quadratic(2, seed=4)
    feps = regularize_f_eps(base, base.domain.center(), 0.01, 0.01)
    xbar = np.array([0.3, -0.2])
    y = np.array([0.1, 0.4])

    def argmin_x(gamma):
        g = surrogate_g(feps, xbar, gamma)
        fx = g.restricted(y, True)
        res = minimize(lambda x: fx.value(x), np.zeros(2),
                       jac=lambda x: fx.grad(x))
        return res.x

    d_small = np.linalg.norm(argmin_x(0.5) - xbar)
    d_big = np.linalg.norm(argmin_x(500.0) - xbar)
    assert d_big < d_small / 10


def test_surrogate_h_examples():
    prob = zero_problem()
    feps = regularize_f_eps(prob, np.zeros(2), 1e-12, 1e-12)
    h = surrogate_h(surrogate_g(feps, np.zeros(1), 1.0), np.zeros(1), 1.0)
    z = np.array([1.0, 1.0])
    assert h.oracle_eval(np.zeros(2), 0)[0] == pytest.approx(
        feps.oracle_eval(np.zeros(2), 0)[0])
    F = h.operator()
    assert np.allclose(F(z), [1.0, 1.0], atol=1e-10)


def test_h_eps_uniform_monotonicity():
    # Lemma-5 style inequality at order p+1 with mu = gamma/2^{p-1}
    rng = np.random.default_rng(8)
    for p in (1, 2):
        base = make_bilinear(3, p=p, seed=2)
        feps = regularize_f_eps(base, base.domain.center(), 0.05, 0.05)
        gamma = 0.7
        h = surrogate_h(surrogate_g(feps, rng.uniform(-1, 1, 3), gamma),
                        rng.uniform(-1, 1, 3), gamma)
        mu = gamma / 2 ** (p - 1)
        F = h.operator()
        for _ in range(300):
            z1 = h.domain.sample(rng)
            z2 = h.domain.sample(rng)
            lhs = (F(z1) - F(z2)) @ (z1 - z2)
            rhs = (2 * mu / (p + 1)) * np.linalg.norm(z1 - z2) ** (p + 1)
            assert lhs >= rhs - 1e-9


def regularized_views(p, rng):
    """f_eps, g_eps and h_eps of a bilinear game, whose blocks are linear,
    so each restricted view's curvature is its power terms' alone."""
    base = make_bilinear(3, p=p, seed=2)
    f_eps = regularize_f_eps(base, base.domain.center(), 0.05, 0.08)
    g_eps = surrogate_g(f_eps, base.x_domain.sample(rng), 0.7)
    h_eps = surrogate_h(g_eps, base.y_domain.sample(rng), 0.4)
    return base, (f_eps, g_eps, h_eps)


@pytest.mark.parametrize("p", [1, 2])
def test_restricted_views_report_their_parents_lp(p):
    # a regularized view's Lp already counts every power term
    rng = np.random.default_rng(11)
    base, views = regularized_views(p, rng)
    for view in views:
        x, y = split(base.domain.sample(rng), base.dx)
        assert view.restricted(y, True).Lp == view.Lp
        assert view.restricted(x, False).Lp == view.Lp


@pytest.mark.parametrize("p", [1, 2])
def test_restricted_view_modulus_is_uniformly_convex(p):
    # h(w) >= h(v) + <grad h(v), w - v> + (mu/(p+1)) ||w - v||^{p+1}
    # with mu = view.uc(side) on both blocks of every view
    rng = np.random.default_rng(12)
    base, views = regularized_views(p, rng)
    for view in views:
        for x_side in (True, False):
            x, y = split(base.domain.sample(rng), base.dx)
            sub = view.restricted(y if x_side else x, x_side)
            mu = view.uc(x_side)
            assert sub.mu == mu > 0
            for _ in range(200):
                v, w = sub.domain.sample(rng), sub.domain.sample(rng)
                d = w - v
                lower = sub.value(v) + sub.grad(v) @ d \
                    + mu / (p + 1) * np.linalg.norm(d) ** (p + 1)
                assert sub.value(w) >= lower - 1e-12


# ---------------------------------------------------------------------------
# ordered box
# ---------------------------------------------------------------------------

def _feasible_ordered(dom, rng):
    return dom.project(rng.uniform(-0.5, 1.5, dom.dim) * max(dom.upper[0], 1))


@given(st.integers(0, 5000), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_ordered_box_projection_is_valid(seed, n):
    rng = np.random.default_rng(seed)
    u = np.full(n, 1.0 if rng.uniform() < 0.5 else rng.uniform(0, 3))
    dom = OrderedBox(u)
    v = rng.normal(scale=2, size=n)
    pv = dom.project(v)
    # feasibility
    assert np.all(pv >= -1e-12) and np.all(pv <= u + 1e-12)
    assert np.all(np.diff(pv) <= 1e-12)
    # idempotence
    assert np.allclose(dom.project(pv), pv, atol=1e-12)
    # variational characterization on sampled feasible points
    for _ in range(20):
        q = _feasible_ordered(dom, rng)
        assert (v - pv) @ (q - pv) <= 1e-9


@pytest.mark.parametrize("upper", [[2.0, 1.0], [1.0, 2.0], [-1.0, -1.0]])
def test_ordered_box_rejects_unequal_or_negative_bounds(upper):
    with pytest.raises(ValueError, match="equal and nonnegative"):
        OrderedBox(np.array(upper))


def _tied_point(rng, n, u):
    """A feasible point of OrderedBox(u) made of runs of tied coordinates,
    the first run often at u and the last often at 0, each run spread by
    less than the active tolerance."""
    k = int(rng.integers(1, n + 1))
    levels = np.sort(rng.uniform(0.0, u, k))[::-1]
    if rng.uniform() < 0.5:
        levels[0] = u
    if rng.uniform() < 0.5:
        levels[-1] = 0.0
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False))
    z = np.repeat(levels, np.diff([0, *cuts, n]))
    if rng.uniform() < 0.5:
        z = np.maximum(z - np.cumsum(rng.uniform(0.0, 1e-11, n)), 0.0)
    return z


def test_ordered_box_tangent_residual_vs_reference():
    # whole vectors against v - A nnls(A, v) over the active generators
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        dom = OrderedBox(np.full(n, rng.uniform(0.2, 2)))
        z = _tied_point(rng, n, dom.upper[0])
        v = rng.normal(scale=2, size=n)
        t = dom.project_tangent(z, v)
        assert np.max(np.abs(t - brute_tangent(dom, z, v))) <= 1e-12, (z, v)
        assert dom.tangent_residual(z, -v) == np.linalg.norm(t)
    # the chain instance's domain: an ordered box times a box, both scaled
    for T in (1, 4, 16):
        dom = hard_instance(1, T, DZ=3.0).domain
        n, u = dom.left.dim, dom.left.upper[0]
        for _ in range(50):
            y = rng.uniform(0.0, u, n)
            y[rng.uniform(size=n) < 0.3] = 0.0
            y[rng.uniform(size=n) < 0.3] = u
            z = join(_tied_point(rng, n, u), y)
            v = rng.normal(size=2 * n)
            t = dom.project_tangent(z, v)
            assert np.max(np.abs(t - brute_tangent(dom, z, v))) <= 1e-12


@given(st.integers(0, 5000), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_ordered_box_tangent_projection_is_a_projection(seed, n):
    # Moreau: the projection is idempotent and t is orthogonal to v - t
    rng = np.random.default_rng(seed)
    dom = OrderedBox(np.full(n, rng.uniform(0.2, 2)))
    z = _tied_point(rng, n, dom.upper[0])
    v = rng.normal(scale=2, size=n)
    t = dom.project_tangent(z, v)
    assert np.array_equal(dom.project_tangent(z, t), t)
    assert abs(t @ (v - t)) <= 1e-12 * (1.0 + v @ v)


# ---------------------------------------------------------------------------
# hard instances
# ---------------------------------------------------------------------------

def test_hard_instance_values():
    prob = hard_instance(p=1, T=1, Lp=1.0)
    z = join(np.zeros(2), np.ones(2))
    assert prob.oracle_eval(z, 0)[0] == pytest.approx(0.25)
    assert hard_instance(1, 3).domain.diameter() == pytest.approx(np.sqrt(8))


def test_hard_instance_scaling():
    DZ = 2.0
    prob = hard_instance(p=2, T=3, Lp=1.5, DZ=DZ)
    assert prob.domain.diameter() == pytest.approx(DZ)
    # scaled and unscaled values agree through the beta map
    bar = hard_instance(p=2, T=3, Lp=1.5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = prob.domain.sample(rng)
        v = prob.oracle_eval(z, 0)[0]
        vb = bar.oracle_eval(prob.beta * z, 0)[0] / prob.beta ** 3
        assert v == pytest.approx(vb, rel=1e-12, abs=1e-14)


def test_hard_instance_derivative_lipschitz():
    rng = np.random.default_rng(4)
    for p in (1, 2):
        prob = hard_instance(p=p, T=4, Lp=1.0)
        for _ in range(100):
            z1 = prob.domain.sample(rng)
            z2 = prob.domain.sample(rng)
            if p == 1:
                d1 = prob.oracle_eval(z1, 1)[1]
                d2 = prob.oracle_eval(z2, 1)[1]
            else:
                d1 = prob.oracle_eval(z1, 2)[2]
                d2 = prob.oracle_eval(z2, 2)[2]
            diff = np.linalg.norm(d1 - d2, ord=2)
            assert diff <= prob.Lp * np.linalg.norm(z1 - z2) + 1e-10


# ---------------------------------------------------------------------------
# duality gap + derivative checks
# ---------------------------------------------------------------------------

def test_gap_example():
    prob = scalar_bilinear()
    g = prob._exact_gap(np.array([0.5, -0.5]))
    assert float(g) == pytest.approx(1.0)


def test_gap_zero_at_saddle():
    prob = make_quadratic(3, seed=7)
    assert hasattr(prob, "known_saddle")
    assert float(prob._exact_gap(prob.known_saddle)) == pytest.approx(
        0.0, abs=1e-10)


def test_gap_bounded_by_residual():
    rng = np.random.default_rng(21)
    F_ok = 0
    for trial in range(100):
        prob = make_bilinear(int(rng.integers(1, 5)), seed=trial)
        z = prob.domain.project(rng.normal(scale=1.5, size=prob.dx + prob.dy))
        gap = float(prob._exact_gap(z))
        r = prob.domain.tangent_residual(z, prob.operator()(z))
        assert gap <= prob.domain.diameter() * r + 1e-10
        F_ok += 1
    assert F_ok == 100


def test_check_derivatives():
    prob = make_quadratic(3, p=2, seed=0)
    z = np.zeros(6)
    before = prob.oracle_counter
    assert check_derivatives(prob, z).ok
    # a gradient and two values per coordinate, then a Hessian and two
    # gradients per coordinate: the gradient at z is asked for once
    assert prob.oracle_counter - before == 2 * (1 + 2 * 6)
    feps = regularize_f_eps(prob, 0.1 * np.ones(6), 0.3, 0.2)
    assert check_derivatives(feps, z).ok

    bad = make_quadratic(3, p=1, seed=0)
    orig = bad._grad

    def corrupted(zz):
        g = np.array(orig(zz))
        g[2] += 1.0
        return g

    bad._grad = corrupted
    rep = check_derivatives(bad, z)
    assert not rep.ok
    assert any(kind == "grad" and idx == 2 for kind, idx, _ in rep.failures)


def test_check_derivatives_hard_instances():
    prob = hard_instance(2, 3)
    z = join(np.array([0.8, 0.6, 0.4, 0.2]), 0.5 * np.ones(4))
    assert check_derivatives(prob, z, h=1e-6).ok


# ---------------------------------------------------------------------------
# uniform convexity battery (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def uc_battery(n_pairs=1000, seed=123, slack=1e-9):
    """Sampled checks of the power-function uniform-convexity facts and the
    gradient-domination inequality.  Returns the number of violations."""
    rng = np.random.default_rng(seed)
    bad = 0
    for p in (1, 2):
        q = p + 1                      # we use the (p+1)-power regularizers
        mu = (0.5) ** (q - 2)          # d_q is (1/2)^{q-2}-uniformly convex
        for _ in range(n_pairs):
            d = int(rng.integers(1, 5))
            z1 = rng.normal(scale=2, size=d)
            z2 = rng.normal(scale=2, size=d)
            h1 = np.linalg.norm(z1) ** q / q
            h2 = np.linalg.norm(z2) ** q / q
            g2 = np.linalg.norm(z2) ** (q - 2) * z2
            rhs = h2 + g2 @ (z1 - z2) + (mu / q) * np.linalg.norm(
                z1 - z2) ** q
            if h1 < rhs - slack:
                bad += 1
            # gradient domination (unconstrained form) for the same h:
            # (q-1)/q * (1/mu)^{1/(q-1)} ||grad||^{q/(q-1)} >= h - h*
            gnorm = np.linalg.norm(g2)
            lhs = (q - 1) / q * (1 / mu) ** (1 / (q - 1)) * gnorm ** (
                q / (q - 1))
            if lhs < h2 - 0.0 - slack:   # h* = 0 at the origin
                bad += 1
    return bad


def test_uniform_convexity_battery():
    assert uc_battery(n_pairs=1000) == 0
