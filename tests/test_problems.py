import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from test_geometry import brute_tangent

from saddleopt.geometry import Box, Domain
from saddleopt.problems import (
    OrderedBox, OrderError, PowerRegularized, SaddleProblem,
    _pav_nonincreasing,
    check_derivatives, from_config, hard_instance, join, make_bilinear,
    make_power, make_quadratic, regularize_f_eps, split, surrogate_g,
    surrogate_h,
)


def view_value(view, v):
    """The value of an OracleView at v, from one order-0 query."""
    return view.query(v, 0)[0]


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


@pytest.mark.parametrize("order", [-1, -2])
def test_negative_order_is_an_order_error(order):
    # a negative order is refused as a too-high one is, each time it is
    # asked: it neither evaluates nor counts, and the memory does not
    # answer it with an empty tuple
    prob = make_bilinear(2)
    center = prob.domain.center()
    for _ in range(2):
        with pytest.raises(OrderError):
            prob.oracle_eval(center, order)
    assert prob.oracle_counter == 0


def test_oracle_eval_checks_the_point_once(monkeypatch):
    # oracle_eval checks z's shape, then reads its distance to the domain
    # without a second check
    prob = make_bilinear(2, 1, 0)
    checks = []
    check = Domain._check_dim

    def counted(self, z):
        checks.append(1)
        return check(self, z)

    monkeypatch.setattr(Domain, "_check_dim", counted)
    prob.oracle_eval(prob.domain.center(), 1)
    assert len(checks) == 1


@pytest.mark.parametrize("make", [lambda: make_bilinear(2, p=1, seed=0),
                                  lambda: hard_instance(1, 4)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_oracle_eval_refuses_nonfinite_points(make, bad):
    # an infinite coordinate once made the guard's tolerance infinite, so
    # the query was counted and returned NaNs; every block is refused
    prob = make()
    z0 = prob.domain.center()
    for i in (0, prob.dx):
        z = z0.copy()
        z[i] = bad
        for order in range(prob.p + 1):
            before = prob.oracle_counter
            with pytest.raises(ValueError, match="outside the domain"):
                prob.oracle_eval(z, order)
            assert prob.oracle_counter == before


@pytest.mark.parametrize("make", [lambda: make_bilinear(2, p=1, seed=0),
                                  lambda: hard_instance(1, 4)])
def test_oracle_eval_projects_only_points_not_known_feasible(make,
                                                             monkeypatch):
    # a feasible query projects nothing; a point 1e-6 outside a face is
    # projected, answered and counted; one beyond 1e-4 max(1, ||z||) is
    # projected and refused without counting
    prob = make()
    rng = np.random.default_rng(0)
    dom = prob.domain
    feasible = [dom.center(), dom.sample(rng),
                dom.project(rng.normal(scale=3.0, size=dom.dim))]
    z_out = dom.center()
    z_out[prob.dx] = prob.y_domain.project(np.full(prob.dy, 1e9))[0] + 1e-6
    projected = []
    for cls in (Box, OrderedBox):
        def counted(self, z, _project=cls.project):
            projected.append(1)
            return _project(self, z)
        monkeypatch.setattr(cls, "project", counted)
    for z in feasible:
        before = prob.oracle_counter
        prob.oracle_eval(z, 1)
        assert prob.oracle_counter == before + 1
    assert projected == []
    before = prob.oracle_counter
    prob.oracle_eval(z_out, 1)
    assert prob.oracle_counter == before + 1 and projected
    z_out[prob.dx] += 2e-4 * max(1.0, np.linalg.norm(z_out))
    with pytest.raises(ValueError, match="outside the domain"):
        prob.oracle_eval(z_out, 1)
    assert prob.oracle_counter == before + 1


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


def reference_power_term(w, c, p):
    """[value, gradient] and at p = 2 the Hessian of (c/(p+1))||w||^{p+1},
    each from its own np.linalg.norm, as the library once wrote them."""
    value = c / (p + 1) * np.linalg.norm(w) ** (p + 1)
    grad = c * np.linalg.norm(w) ** (p - 1) * w
    if p == 1:
        return [value, grad]
    n = np.linalg.norm(w)
    d = len(w)
    if n == 0.0:
        return [value, grad, np.zeros((d, d))]
    return [value, grad, c * (n ** (p - 1) * np.eye(d)
                              + (p - 1) * n ** (p - 3) * np.outer(w, w))]


def reference_extend(prob, z, base):
    """prob.oracle_eval(z, order) from the base tuple there, with the
    reference terms summed in the same order: the value adds the x terms'
    sum and subtracts the y terms'."""
    order = len(base) - 1
    x, y = split(z, prob.dx)
    xs = [reference_power_term(x - w, c, prob.p) for c, w in prob.x_terms]
    ys = [reference_power_term(y - w, c, prob.p) for c, w in prob.y_terms]
    v = base[0]
    v += sum(t[0] for t in xs)
    v -= sum(t[0] for t in ys)
    out = [v]
    if order >= 1:
        g = np.array(base[1], float)
        for t in xs:
            g[:prob.dx] += t[1]
        for t in ys:
            g[prob.dx:] -= t[1]
        out.append(g)
    if order >= 2:
        H = np.array(base[2], float)
        for t in xs:
            H[:prob.dx, :prob.dx] += t[2]
        for t in ys:
            H[prob.dx:, prob.dx:] -= t[2]
        out.append(H)
    return tuple(out)


@pytest.mark.parametrize("p", [1, 2])
def test_extend_matches_the_reference_at_every_order(p):
    # two terms per side: one x term centred at the query point itself,
    # where ||x - c|| = 0 and, at p = 2, the Hessian term is the zero
    # matrix, and one y term 1e-160 away, where ||y - c||^{-1} is huge
    rng = np.random.default_rng(40 + p)
    base = make_power(3, p=p, seed=p)
    for _ in range(5):
        z = base.domain.sample(rng)
        z[base.dx] = 0.0
        x, y = split(z, base.dx)
        near = y.copy()
        near[0] = 1e-160
        prob = PowerRegularized(
            base, [(0.3, x.copy()), (0.5, base.x_domain.sample(rng))],
            [(0.2, near), (0.7, base.y_domain.sample(rng))])
        for order in range(p + 1):
            out = prob.oracle_eval(z, order)
            ref = reference_extend(prob, z, base.oracle_eval(z, order))
            assert len(out) == len(ref) == order + 1
            assert out[0] == ref[0]
            assert all(np.array_equal(a, b) for a, b in zip(out[1:], ref[1:]))


def single_queries(prob, z):
    """One zero-argument call per oracle query that prob's views offer."""
    x, y = split(z, prob.dx)
    op = prob.operator()
    fx, fy = prob.restricted(y, True), prob.restricted(x, False)
    queries = [lambda k=k: prob.oracle_eval(z, k) for k in range(prob.p + 1)]
    queries += [lambda: op(z), lambda: fx.query(x, 0), lambda: fx(x),
                lambda: fy.query(y, 0), lambda: fy(y)]
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
    # every view's query is its own problem's oracle_eval: a surrogate's
    # query enters PowerRegularized.oracle_eval once, on that surrogate
    entered = []
    reg_eval = PowerRegularized.oracle_eval

    def recording(self, z, order):
        entered.append(self)
        return reg_eval(self, z, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PowerRegularized, "oracle_eval", recording)
        for prob in (base, f_eps, g_eps, h_eps):
            for query in single_queries(prob, z):
                # a query the oracle's memory cannot answer
                prob.forget()
                before = prob.oracle_counter
                entered.clear()
                query()
                assert prob.oracle_counter == before + 1
                assert entered == ([] if prob is base else [prob])
    # a regularized query is the base query plus the regularizer terms
    v, g = base.oracle_eval(z, 1)
    x, y = split(z, base.dx)
    for prob in (f_eps, g_eps, h_eps):
        rv, rg = prob.oracle_eval(z, 1)
        xs = [reference_power_term(x - w, c, p) for c, w in prob.x_terms]
        ys = [reference_power_term(y - w, c, p) for c, w in prob.y_terms]
        ev = v + sum(t[0] for t in xs) - sum(t[0] for t in ys)
        eg = np.concatenate([g[:base.dx] + sum(t[1] for t in xs),
                             g[base.dx:] - sum(t[1] for t in ys)])
        assert abs(rv - ev) <= 1e-12
        assert np.max(np.abs(rg - eg)) <= 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_joint_query_restricts_bit_for_bit(p):
    # the value, gradient and Hessian a restricted view reads from its one
    # joint query are exactly the joint tuple's block, negated on the y
    # side, and the joint query that follows is answered from the oracle's
    # memory: a view's answer and the joint one never disagree
    rng = np.random.default_rng(10 + p)
    for kind in ("bilinear", "quadratic", "power"):
        base = from_config({"problem": kind, "p": p, "dim": 3, "seed": p})
        f_eps = regularize_f_eps(base, base.domain.sample(rng), 0.3, 0.2)
        g_eps = surrogate_g(f_eps, base.x_domain.sample(rng), 0.5)
        h_eps = surrogate_h(g_eps, base.y_domain.sample(rng), 0.7)
        for prob in (base, f_eps, g_eps, h_eps):
            x, y = split(prob.domain.sample(rng), prob.dx)
            for fo, v, blk, sign in (
                    (prob.restricted(y, True), x, slice(None, prob.dx), 1),
                    (prob.restricted(x, False), y, slice(prob.dx, None), -1)):
                for order in range(1, p + 1):
                    prob.forget()
                    before = prob.oracle_counter
                    res = fo.query(v, order)
                    assert prob.oracle_counter == before + 1
                    ref = prob.oracle_eval(join(x, y), order)
                    assert prob.oracle_counter == before + 1
                    assert len(ref) == len(res) == order + 1
                    assert res[0] == sign * ref[0]
                    assert np.array_equal(res[1], sign * ref[1][blk])
                    if order == 2:
                        assert np.array_equal(res[2], sign * ref[2][blk, blk])
                        assert np.array_equal(res[2], fo.derivatives(v)[1])
                    assert res[0] == view_value(fo, v)
                    assert np.array_equal(res[1], fo(v))


def surrogates(base, centers):
    """base, f_eps, g_eps and h_eps, with their power terms at centers."""
    cf, xb, yb = centers
    f_eps = regularize_f_eps(base, cf, 0.3, 0.2)
    g_eps = surrogate_g(f_eps, xb, 0.5)
    return base, f_eps, g_eps, surrogate_h(g_eps, yb, 0.7)


@pytest.mark.parametrize("p", [1, 2])
def test_oracle_remembers_its_last_two_evaluations(p):
    # a repeat at either of the last two evaluated points, at an order no
    # higher than the one evaluated there, is answered without a call and
    # equals a new problem's evaluation bit for bit; a third point evicts
    # the older one, a higher order is evaluated, and a point outside the
    # domain is still refused
    rng = np.random.default_rng(50 + p)
    base = make_power(3, p=p, seed=p)
    centers = (base.domain.sample(rng), base.x_domain.sample(rng),
               base.y_domain.sample(rng))
    fresh_base = make_power(3, p=p, seed=p)
    for prob, fresh in zip(surrogates(base, centers),
                           surrogates(fresh_base, centers)):
        a, b, c, d = (prob.domain.sample(rng) for _ in range(4))

        def calls(z, order):
            before = prob.oracle_counter
            out = prob.oracle_eval(z, order)
            return prob.oracle_counter - before, out

        prob.forget()
        assert calls(a, p)[0] == calls(b, p)[0] == 1
        for z in (a, b, a):
            for order in range(p + 1):
                n, out = calls(z.copy(), order)
                fresh_base.forget()
                ref = fresh.oracle_eval(z, order)
                assert n == 0 and len(out) == len(ref) == order + 1
                assert all(np.array_equal(u, w) for u, w in zip(out, ref))
        assert calls(c, p)[0] == 1
        assert calls(b, p)[0] == 0
        assert calls(a, p)[0] == 1
        assert calls(d, 0)[0] == 1
        for order in range(1, p + 1):
            assert calls(d, order)[0] == 1
        assert all(calls(d, order)[0] == 0 for order in range(p + 1))
        outside = d.copy()
        outside[0] = 5.0
        before = prob.oracle_counter
        with pytest.raises(ValueError, match="outside the domain"):
            prob.oracle_eval(outside, 0)
        assert prob.oracle_counter == before


def test_oracle_count_and_memory_agree_under_threads():
    # threads asking one problem at three points, so answers from memory
    # and evaluations interleave: every evaluation is counted once, and
    # every answer is the one for the point asked
    evals = []
    box = Box([-1.0, -1.0], [1.0, 1.0])
    prob = SaddleProblem(
        box, box, 1, value=lambda z: evals.append(1) or float(z @ z),
        grad=lambda z: 2.0 * z, L1=2.0, Lp=2.0)
    points = [np.full(4, v) for v in (-0.5, 0.0, 0.5)]
    wrong = []

    def ask(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            z = points[int(rng.integers(3))]
            value, grad = prob.oracle_eval(z, 1)
            if value != z @ z or not np.array_equal(grad, 2.0 * z):
                wrong.append(z)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert prob.oracle_counter == len(evals) > 0


def views_at(base, centers, z):
    """Every view of base, f_eps, g_eps and h_eps (their power terms at
    centers) that asks at z: (view, its argument) pairs."""
    x, y = split(z, base.dx)
    return [(view, v) for prob in surrogates(base, centers)
            for view, v in ((prob.operator(), z),
                            (prob.restricted(y, True), x),
                            (prob.restricted(x, False), y))]


@pytest.mark.parametrize("p", [1, 2])
def test_one_base_query_reads_through_every_view(p):
    # one order-p evaluation at z serves every view that asks there: the
    # operator and both restricted blocks of the base problem, f_eps,
    # g_eps and h_eps answer from the oracle's memory without a call, bit
    # for bit what the same view of a new problem evaluates
    rng = np.random.default_rng(30 + p)
    base = make_power(3, p=p, seed=p)
    centers = (base.domain.sample(rng), base.x_domain.sample(rng),
               base.y_domain.sample(rng))
    z = base.domain.sample(rng)
    base.oracle_eval(z, p)
    before = base.oracle_counter
    got = [view.query(v, p) for view, v in views_at(base, centers, z)]
    assert base.oracle_counter == before
    new = make_power(3, p=p, seed=p)
    labels = [f"{prob} {view}" for prob in ("f", "f_eps", "g_eps", "h_eps")
              for view in ("operator", "x block", "y block")]
    for (view, v), kept, label in zip(views_at(new, centers, z), got, labels):
        new.forget()
        fresh = view.query(v, p)
        assert len(kept) == len(fresh) == p + 1
        assert all(np.array_equal(a, b) for a, b in zip(kept, fresh)), label


def test_surrogates_keep_no_count_lock_or_memory_of_their_own():
    # f_eps, g_eps and h_eps are built once per prox call; only the base
    # problem evaluates f, so only it holds a counter, a lock, a memory
    # and the callables, and every surrogate's count and forget are its;
    # each shares the base's joint domain, built once
    rng = np.random.default_rng(60)
    base = make_power(3, p=2, seed=2)
    centers = (base.domain.sample(rng), base.x_domain.sample(rng),
               base.y_domain.sample(rng))
    own = ("_counter", "_lock", "_memory", "_value", "_grad", "_hess")
    assert all(attr in vars(base) for attr in own)
    z = base.domain.sample(rng)
    for prob in surrogates(base, centers)[1:]:
        assert prob.base is base and prob.domain is base.domain
        assert not [attr for attr in own if attr in vars(prob)], prob.name
        prob.forget()
        before = base.oracle_counter
        prob.operator()(z)
        base.operator()(z)                  # from the base's memory
        assert prob.oracle_counter == base.oracle_counter == before + 1
        prob.forget()
        base.operator()(z)
        assert prob.oracle_counter == before + 2


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
        res = minimize(lambda x: view_value(fx, x), np.zeros(2), jac=fx)
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
                lower = view_value(sub, v) + sub(v) @ d \
                    + mu / (p + 1) * np.linalg.norm(d) ** (p + 1)
                assert view_value(sub, w) >= lower - 1e-12


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


def _pav_stack_loop(v):
    """The pool-adjacent-violators stack loop as it was before ordered
    input got its shortcut: the reference the shortcut must match."""
    n = len(v)
    w = v[::-1]
    vals, cnts = [], []
    for i in range(n):
        vals.append(w[i])
        cnts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            tot = vals[-1] * cnts[-1] + vals[-2] * cnts[-2]
            cnt = cnts[-1] + cnts[-2]
            vals.pop(); cnts.pop()
            vals[-1] = tot / cnt
            cnts[-1] = cnt
    out = np.empty(n)
    pos = 0
    for val, cnt in zip(vals, cnts):
        out[pos:pos + cnt] = val
        pos += cnt
    return out[::-1]


def _pav_inputs():
    rng = np.random.default_rng(23)
    out = [np.zeros(0), np.array([1.5]), np.array([-0.0]),
           np.array([0.0, -0.0]), np.array([-0.0, 0.0]),
           np.array([1.0, 1.0, 1.0]), np.array([2.0, 1.0, 1.0, 0.0]),
           np.array([0.0, 1.0]), np.array([1.0, np.nan, 0.5]),
           np.array([np.nan]), np.array([np.inf, 1.0, -np.inf])]
    for n in (2, 3, 7, 40):
        v = rng.normal(size=n)
        out += [v, np.sort(v)[::-1], np.sort(v),
                np.round(np.sort(v)[::-1], 1), np.round(v, 1)]
        v = v.copy()
        v[rng.integers(n)] = np.nan
        out.append(v)
    return out


def test_pav_matches_the_stack_loop_bit_for_bit():
    for v in _pav_inputs():
        out = _pav_nonincreasing(v)
        assert out.tobytes() == _pav_stack_loop(v).tobytes(), v
        # ordered input comes back as a new array, not the caller's
        assert not np.shares_memory(out, v)


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


def chain_matrix_form(p, T, Lp=1.0, DZ=None):
    """The chain instance written with its dense difference matrix G,
    d = G x + e1: ((value, grad, hess), L1), the three functions of z and
    L1 from the SVD norm of G."""
    n = T + 1
    cst = Lp / (2 ** (p + 1) * math.factorial(p))
    G = np.zeros((n, n))
    G[0, 0] = -1.0
    for i in range(1, n):
        G[i, i - 1], G[i, i] = 1.0, -1.0
    e1 = np.zeros(n)
    e1[0] = 1.0
    beta = 1.0 if DZ is None else math.sqrt(2.0 * n) / DZ

    def at(z):
        x, y = split(beta * np.asarray(z, float), n)
        return G @ x + e1, y

    def value(z):
        d, y = at(z)
        return cst * float(y @ d ** p) / beta ** (p + 1)

    def grad(z):
        d, y = at(z)
        return join(cst * p * (G.T @ (y * d ** (p - 1))),
                    cst * d ** p) / beta ** p

    def hess(z):
        d, y = at(z)
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = cst * p * (p - 1) * (G.T @ np.diag(y * d ** (p - 2)) @ G)
        H[:n, n:] = cst * p * (G.T @ np.diag(d ** (p - 1)))
        H[n:, :n] = H[:n, n:].T
        return H / beta ** (p - 1)

    nG = np.linalg.norm(G, 2)
    L1 = max(cst * p * ((p - 1) * nG ** 2 + nG) / beta ** (p - 1), 1e-8)
    return (value, grad, hess), L1


@pytest.mark.parametrize("p", [1, 2])
def test_chain_matches_its_matrix_form(p):
    # the difference form gives the dense-matrix numbers at every order
    rng = np.random.default_rng(p)
    for T in (1, 4, 16, 64):
        for DZ in (None, 3.0):
            prob = hard_instance(p, T, DZ=DZ)
            fns, L1 = chain_matrix_form(p, T, DZ=DZ)
            assert prob.L1 == pytest.approx(L1, rel=1e-14, abs=0.0)
            for _ in range(5):
                z = prob.domain.sample(rng)
                out = prob.oracle_eval(z, p)
                for k in range(p + 1):
                    assert np.array_equal(out[k], fns[k](z))


def test_chain_holds_no_n_by_n_matrix():
    # a dense 2049 x 2049 difference matrix alone would take 33.6 MB
    tracemalloc.start()
    try:
        prob = hard_instance(1, 2048)
        prob.oracle_eval(prob.domain.center(), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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


BOX_GAMES = [make_bilinear, make_quadratic, make_power]


def test_gap_bounded_by_residual():
    rng = np.random.default_rng(21)
    F_ok = 0
    for make in BOX_GAMES:
        for p in (1, 2):
            for trial in range(100):
                prob = make(int(rng.integers(1, 5)), p=p, seed=trial)
                z = prob.domain.project(
                    rng.normal(scale=1.5, size=prob.dx + prob.dy))
                gap = float(prob._exact_gap(z))
                r = prob.domain.tangent_residual(z, prob.operator()(z))
                assert gap <= prob.domain.diameter() * r + 1e-10, \
                    (prob.name, p)
                F_ok += 1
    assert F_ok == 600


def box_max(fun, dim, rng):
    """max of a concave fun (value, gradient) over [-1,1]^dim, by L-BFGS-B
    from a random start."""
    res = minimize(lambda w: tuple(-v for v in fun(w)),
                   rng.uniform(-1.0, 1.0, dim), jac=True, method="L-BFGS-B",
                   bounds=[(-1.0, 1.0)] * dim,
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    return -res.fun


@pytest.mark.parametrize("make", BOX_GAMES)
def test_exact_gap_matches_brute_force_max_min(make):
    # the exact gap's best responses (box corner, clip, clipped cube root)
    # against a numerical max over y of f(x, .) and min over x of f(., y)
    rng = np.random.default_rng(22)
    for trial in range(6):
        dim = int(rng.integers(1, 5))
        prob = make(dim, p=1 + trial % 2, seed=trial)
        z = prob.domain.project(rng.normal(scale=1.5, size=2 * dim))
        x, y = split(z, dim)

        def in_y(v):
            f, g = prob.oracle_eval(join(x, v), 1)
            return f, g[dim:]

        def in_x(v):
            f, g = prob.oracle_eval(join(v, y), 1)
            return -f, -g[:dim]

        gap = box_max(in_y, dim, rng) + box_max(in_x, dim, rng)
        assert float(prob._exact_gap(z)) == pytest.approx(gap, abs=1e-7)


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
    assert check_derivatives(prob, z).ok


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
