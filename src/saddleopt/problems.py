"""Saddle-point problem oracles, built-in test games, regularized
surrogates, and the chain-structured hard instances used by the
lower-bound experiments.

A SaddleProblem bundles f, its derivatives up to order p in {1, 2}, the
feasible sets X, Y, and Lipschitz constants.  Solvers only touch problems
through ``oracle_eval`` (which counts calls) or views derived from it, so
oracle-complexity accounting is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import nnls

from .geometry import (
    ACTIVE_TOL, EXTRA_JSON_DECODERS, Box, Domain, Product, _check_beta,
)


def split(z, dx):
    z = np.asarray(z, dtype=float)
    return z[:dx], z[dx:]


def join(x, y):
    return np.concatenate([np.asarray(x, float), np.asarray(y, float)])


# ---------------------------------------------------------------------------
# ordered box domain (the polytope of the lower-bound constructions)
# ---------------------------------------------------------------------------

def _pav_nonincreasing(v):
    """Isotonic regression onto nonincreasing sequences (pool adjacent
    violators, O(n))."""
    n = len(v)
    # fit nondecreasing to the reversed sequence
    w = v[::-1]
    vals = []   # block means
    cnts = []
    for i in range(n):
        vals.append(w[i])
        cnts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            tot = vals[-1] * cnts[-1] + vals[-2] * cnts[-2]
            cnt = cnts[-1] + cnts[-2]
            vals.pop(); cnts.pop()
            vals[-1] = tot / cnt
            cnts[-1] = cnt
        # merged in place
    out = np.empty(n)
    pos = 0
    for val, cnt in zip(vals, cnts):
        out[pos:pos + cnt] = val
        pos += cnt
    return out[::-1]


@dataclass(frozen=True)
class OrderedBox(Domain):
    """{x : 0 <= x_n <= ... <= x_1, x_i <= upper_i} with nonincreasing
    upper bounds.

    For the uniform-bound case (all upper_i equal) projection is
    pool-adjacent-violators isotonic regression followed by clipping, which
    is exact; with varying bounds clipping the PAV output is *not* optimal,
    so we run Dykstra's alternating projections between the monotone cone
    and the box to 1e-13.  The tangent-cone projection solves the
    active-generator NNLS system exactly.
    """

    upper: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if np.any(u < 0) or np.any(np.diff(u) > 0):
            raise ValueError("upper bounds must be nonnegative, nonincreasing")
        object.__setattr__(self, "upper", u)

    @property
    def dim(self):
        return self.upper.shape[0]

    def project(self, z):
        z = self._check_dim(z)
        u = self.upper
        if np.all(u == u[0]):
            return np.clip(_pav_nonincreasing(z), 0.0, u)
        # Dykstra between the nonincreasing cone and the box [0, u]
        x = z.copy()
        p_inc = np.zeros_like(x)
        q_inc = np.zeros_like(x)
        for _ in range(20_000):
            y = _pav_nonincreasing(x + p_inc)
            p_new = x + p_inc - y
            x_new = np.clip(y + q_inc, 0.0, u)
            q_new = y + q_inc - x_new
            # the iterates can stall while the corrections still move, so
            # watch all three sequences before declaring convergence
            delta = max(np.max(np.abs(x_new - x)),
                        np.max(np.abs(p_new - p_inc)),
                        np.max(np.abs(q_new - q_inc)))
            x, p_inc, q_inc = x_new, p_new, q_new
            if delta < 1e-14:
                break
        return x

    def _active_generators(self, z):
        n = self.dim
        scale = max(1.0, float(self.upper[0]))
        cols = []
        for i in range(n - 1):
            if z[i] - z[i + 1] <= ACTIVE_TOL * scale:
                g = np.zeros(n)
                g[i + 1], g[i] = 1.0, -1.0
                cols.append(g)
        for i in range(n):
            if z[i] <= ACTIVE_TOL * scale:
                g = np.zeros(n)
                g[i] = -1.0
                cols.append(g)
            if self.upper[i] - z[i] <= ACTIVE_TOL * scale:
                g = np.zeros(n)
                g[i] = 1.0
                cols.append(g)
        return cols

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        v = np.asarray(v, dtype=float)
        cols = self._active_generators(z)
        if not cols:
            return v.copy()
        A = np.column_stack(cols)
        t, _ = nnls(A, v)
        return v - A @ t

    def diameter(self):
        # upper is itself feasible and 0 is feasible; per-coordinate spread
        # is capped by upper, so ||upper|| is the exact diameter.
        return float(np.linalg.norm(self.upper))

    def scale(self, beta):
        _check_beta(beta)
        return OrderedBox(self.upper / beta)

    def interior_margin(self, z):
        z = self._check_dim(z)
        slacks = [np.min(self.upper - z), np.min(z)]
        if self.dim > 1:
            slacks.append(np.min(z[:-1] - z[1:]))
        return float(min(slacks))

    def sample(self, rng):
        return self.project(rng.uniform(0.0, np.maximum(self.upper, 1e-12)))

    def center(self):
        return self.project(self.upper / 2.0)

    def to_json(self):
        return {"type": "ordered_box", "upper": self.upper.tolist()}


EXTRA_JSON_DECODERS["ordered_box"] = (
    lambda obj: OrderedBox(np.asarray(obj["upper"], float)))


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

class OrderError(ValueError):
    pass


class SaddleProblem:
    """Oracle bundle for f on X x Y with F = (grad_x f, -grad_y f).

    value/grad/hess are callables on the joint vector z = (x, y); hess may
    be None for p = 1.  Every oracle_eval increments a thread-safe counter.
    """

    def __init__(self, x_domain: Domain, y_domain: Domain, p: int,
                 value: Callable, grad: Callable, hess: Callable = None,
                 L1: float = 1.0, Lp: float = 1.0, name: str = ""):
        if p not in (1, 2):
            raise ValueError("order p must be 1 or 2")
        if not L1 > 0 or Lp < 0:
            raise ValueError("need L1 > 0 and Lp >= 0")
        self.x_domain = x_domain
        self.y_domain = y_domain
        self.p = p
        self._value = value
        self._grad = grad
        self._hess = hess
        self.L1 = float(L1)
        self.Lp = float(Lp)
        self.name = name
        self.domain = Product(x_domain, y_domain)
        self.dx = x_domain.dim
        self.dy = y_domain.dim
        self._counter = 0
        self._lock = threading.Lock()
        # regularizer metadata (zero for raw problems)
        self.mu_x = 0.0
        self.mu_y = 0.0
        # order-2 strong convexity/concavity moduli of f itself, when the
        # instance generator knows them (zero means "not known")
        self.mu2_x = 0.0
        self.mu2_y = 0.0

    # -- counting ---------------------------------------------------------

    @property
    def oracle_counter(self) -> int:
        return self._counter

    def _count(self):
        with self._lock:
            self._counter += 1

    # -- oracles ----------------------------------------------------------

    def oracle_eval(self, z, order: int):
        if order > self.p:
            raise OrderError(f"order {order} oracle on a p={self.p} problem")
        z = np.asarray(z, dtype=float)
        # coarse sanity guard only: finite-difference probes may sit a few
        # steps outside a face, which is fine for the analytic formulas
        if not self.domain.contains(z, tol=1e-4 * max(1.0, np.linalg.norm(z))):
            raise ValueError("oracle query outside the domain")
        self._count()
        out = [self._value(z)]
        if order >= 1:
            out.append(self._grad(z))
        if order >= 2:
            out.append(self._hess(z))
        return tuple(out)

    def split(self, z):
        return split(z, self.dx)

    def operator(self) -> "OperatorView":
        return OperatorView(self)

    # -- restricted function oracles (for the primal/dual single-variable
    #    subproblems) ------------------------------------------------------

    def x_function(self, y) -> "FunctionOracle":
        """f(., y) over X as a convex minimization oracle."""
        y = np.asarray(y, float)
        dx = self.dx

        def val(x):
            return self.oracle_eval(join(x, y), 0)[0]

        def grad(x):
            return self.oracle_eval(join(x, y), 1)[1][:dx]

        hess = None
        if self.p == 2:
            def hess(x):
                return self.oracle_eval(join(x, y), 2)[2][:dx, :dx]

        return FunctionOracle(
            domain=self.x_domain, value=val, grad=grad, hess=hess, p=self.p,
            Lp=self.Lp + math.factorial(self.p) * self.mu_x,
            mu=self.mu_x / 2 ** (self.p - 1),
            name=f"{self.name}|x")

    def y_function(self, x) -> "FunctionOracle":
        """-f(x, .) over Y — minimizing it maximizes f in y."""
        x = np.asarray(x, float)
        dx = self.dx

        def val(y):
            return -self.oracle_eval(join(x, y), 0)[0]

        def grad(y):
            return -self.oracle_eval(join(x, y), 1)[1][dx:]

        hess = None
        if self.p == 2:
            def hess(y):
                return -self.oracle_eval(join(x, y), 2)[2][dx:, dx:]

        return FunctionOracle(
            domain=self.y_domain, value=val, grad=grad, hess=hess, p=self.p,
            Lp=self.Lp + math.factorial(self.p) * self.mu_y,
            mu=self.mu_y / 2 ** (self.p - 1),
            name=f"{self.name}|y")


class OperatorView:
    """F(z) = (grad_x f, -grad_y f), with Jacobian access for p = 2."""

    def __init__(self, problem: SaddleProblem):
        self.problem = problem
        self.domain = problem.domain
        self.order = problem.p
        s = np.ones(problem.dx + problem.dy)
        s[problem.dx:] = -1.0
        self._sign = s

    def __call__(self, z):
        _, g = self.problem.oracle_eval(z, 1)
        return self._sign * g

    def jacobian(self, z):
        H = self.problem.oracle_eval(z, 2)[2]
        return self._sign[:, None] * H

    def lipschitz(self):
        return self.problem.L1


@dataclass
class FunctionOracle:
    """A convex function with derivatives on a compact domain.

    mu is the (p+1)th-order uniform-convexity modulus (0 if unknown); Lp
    bounds the Lipschitz constant of the pth derivative.
    """

    domain: Domain
    value: Callable
    grad: Callable
    hess: Optional[Callable]
    p: int
    Lp: float
    mu: float = 0.0
    name: str = ""

    def grad_operator(self) -> "GradOperator":
        return GradOperator(self)


class GradOperator:
    """The gradient field of a FunctionOracle, shaped like OperatorView."""

    def __init__(self, func: FunctionOracle):
        self.func = func
        self.domain = func.domain
        self.order = func.p

    def __call__(self, z):
        return self.func.grad(z)

    def jacobian(self, z):
        if self.func.hess is None:
            raise OrderError("no Hessian available")
        return self.func.hess(z)


# ---------------------------------------------------------------------------
# power regularizers: f + sum (c/(p+1)) ||x - cx||^{p+1}
#                       - sum (c/(p+1)) ||y - cy||^{p+1}
# ---------------------------------------------------------------------------

def _reg_value(w, coeff, p):
    return coeff / (p + 1) * np.linalg.norm(w) ** (p + 1)


def _reg_grad(w, coeff, p):
    return coeff * np.linalg.norm(w) ** (p - 1) * w


def _reg_hess(w, coeff, p):
    n = np.linalg.norm(w)
    d = len(w)
    if p == 1:
        return coeff * np.eye(d)
    if n == 0.0:
        return np.zeros((d, d))
    return coeff * (n ** (p - 1) * np.eye(d)
                    + (p - 1) * n ** (p - 3) * np.outer(w, w))


class PowerRegularized(SaddleProblem):
    """Base problem plus (p+1)-power proximal regularizers on each side.

    x_terms/y_terms are lists of (coefficient, center); x terms are added,
    y terms subtracted, keeping the function convex-concave.  Oracle calls
    delegate to the base problem, so the base counter keeps counting.
    """

    def __init__(self, base: SaddleProblem, x_terms, y_terms, name=""):
        self.base = base
        self.x_terms = [(float(c), np.asarray(w, float)) for c, w in x_terms]
        self.y_terms = [(float(c), np.asarray(w, float)) for c, w in y_terms]
        p = base.p
        mu_x = base.mu_x + sum(c for c, _ in self.x_terms)
        mu_y = base.mu_y + sum(c for c, _ in self.y_terms)
        Dx = base.x_domain.diameter()
        Dy = base.y_domain.diameter()
        L1 = base.L1 + p * max(mu_x * Dx ** (p - 1), mu_y * Dy ** (p - 1))
        Lp = base.Lp + math.factorial(p) * max(mu_x, mu_y)
        super().__init__(base.x_domain, base.y_domain, p,
                         self._val, self._grd, self._hes if p == 2 else None,
                         L1=L1, Lp=Lp, name=name or f"reg({base.name})")
        self.mu_x = mu_x
        self.mu_y = mu_y
        # p = 1 power terms are quadratic, so they add order-2 strength
        extra_x = sum(c for c, _ in self.x_terms) if p == 1 else 0.0
        extra_y = sum(c for c, _ in self.y_terms) if p == 1 else 0.0
        self.mu2_x = base.mu2_x + extra_x
        self.mu2_y = base.mu2_y + extra_y

    def _count(self):
        pass  # the delegated base call does the counting

    def _val(self, z):
        x, y = split(z, self.base.dx)
        v = self.base.oracle_eval(z, 0)[0]
        v += sum(_reg_value(x - w, c, self.p) for c, w in self.x_terms)
        v -= sum(_reg_value(y - w, c, self.p) for c, w in self.y_terms)
        return v

    def _grd(self, z):
        x, y = split(z, self.base.dx)
        g = np.array(self.base.oracle_eval(z, 1)[1], dtype=float)
        for c, w in self.x_terms:
            g[:self.dx] += _reg_grad(x - w, c, self.p)
        for c, w in self.y_terms:
            g[self.dx:] -= _reg_grad(y - w, c, self.p)
        return g

    def _hes(self, z):
        x, y = split(z, self.base.dx)
        H = np.array(self.base.oracle_eval(z, 2)[2], dtype=float)
        for c, w in self.x_terms:
            H[:self.dx, :self.dx] += _reg_hess(x - w, c, self.p)
        for c, w in self.y_terms:
            H[self.dx:, self.dx:] -= _reg_hess(y - w, c, self.p)
        return H

    def oracle_eval(self, z, order):
        if order > self.p:
            raise OrderError(f"order {order} oracle on a p={self.p} problem")
        z = np.asarray(z, dtype=float)
        out = [self._val(z)]
        if order >= 1:
            out.append(self._grd(z))
        if order >= 2:
            out.append(self._hes(z))
        return tuple(out)

    @property
    def oracle_counter(self):
        return self.base.oracle_counter


def regularize_f_eps(problem: SaddleProblem, z0, mu_x: float,
                     mu_y: float) -> PowerRegularized:
    """f_eps: adds the strongly-convexifying power terms around z0."""
    if not (mu_x > 0 and mu_y > 0):
        raise ValueError("regularization coefficients must be positive")
    x0, y0 = split(np.asarray(z0, float), problem.dx)
    return PowerRegularized(problem, [(mu_x, x0)], [(mu_y, y0)],
                            name=f"f_eps({problem.name})")


def surrogate_g(problem_f_eps: PowerRegularized, x_bar,
                gamma: float) -> PowerRegularized:
    """g_eps: f_eps plus the x-side proximal power term at x_bar."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return PowerRegularized(
        problem_f_eps.base,
        problem_f_eps.x_terms + [(gamma, np.asarray(x_bar, float))],
        problem_f_eps.y_terms,
        name=f"g_eps({problem_f_eps.base.name})")


def surrogate_h(problem_f_eps: PowerRegularized, x_bar, y_bar,
                gamma: float) -> PowerRegularized:
    """h_eps: two-sided proximal surrogate at (x_bar, y_bar)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return PowerRegularized(
        problem_f_eps.base,
        problem_f_eps.x_terms + [(gamma, np.asarray(x_bar, float))],
        problem_f_eps.y_terms + [(gamma, np.asarray(y_bar, float))],
        name=f"h_eps({problem_f_eps.base.name})")


# ---------------------------------------------------------------------------
# built-in games on boxes
# ---------------------------------------------------------------------------

def _box_linear_max(coef, lo, hi):
    """max of coef.y over the box [lo, hi], attained componentwise."""
    return float(np.sum(np.where(coef >= 0, coef * hi, coef * lo)))


def make_bilinear(dim: int, p: int = 1, seed: int = 0,
                  L1: float = None) -> SaddleProblem:
    """f = x'Ay + b'x + c'y on [-1,1]^dim x [-1,1]^dim."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim))
    if L1 is not None:
        A *= L1 / np.linalg.norm(A, 2)
    b = rng.normal(scale=0.3, size=dim)
    c = rng.normal(scale=0.3, size=dim)
    nA = np.linalg.norm(A, 2)
    xdom = Box(-np.ones(dim), np.ones(dim))
    ydom = Box(-np.ones(dim), np.ones(dim))

    def value(z):
        x, y = split(z, dim)
        return float(x @ A @ y + b @ x + c @ y)

    def grad(z):
        x, y = split(z, dim)
        return join(A @ y + b, A.T @ x + c)

    def hess(z):
        H = np.zeros((2 * dim, 2 * dim))
        H[:dim, dim:] = A
        H[dim:, :dim] = A.T
        return H

    prob = SaddleProblem(xdom, ydom, p, value, grad,
                         hess if p == 2 else None,
                         L1=max(nA, 1e-8), Lp=(nA if p == 1 else 0.0),
                         name=f"bilinear(d={dim},seed={seed})")

    def exact_gap(z):
        x, y = split(np.asarray(z, float), dim)
        max_over_y = float(b @ x) + _box_linear_max(A.T @ x + c,
                                                    ydom.lo, ydom.hi)
        min_over_x = float(c @ y) - _box_linear_max(-(A @ y + b),
                                                    xdom.lo, xdom.hi)
        return max_over_y - min_over_x

    prob._exact_gap = exact_gap
    return prob


def make_quadratic(dim: int, p: int = 1, seed: int = 0) -> SaddleProblem:
    """Quadratic game f = x'Px/2 + x'Ay - y'Qy/2 + b'x + c'y with diagonal
    positive P, Q (closed-form gap and interior saddle)."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.8, 1.6, size=dim)
    Q = rng.uniform(0.8, 1.6, size=dim)
    A = rng.normal(scale=0.5 / np.sqrt(dim), size=(dim, dim))
    b = rng.normal(scale=0.1, size=dim)
    c = rng.normal(scale=0.1, size=dim)
    xdom = Box(-np.ones(dim), np.ones(dim))
    ydom = Box(-np.ones(dim), np.ones(dim))

    def value(z):
        x, y = split(z, dim)
        return float(0.5 * x @ (P * x) + x @ A @ y - 0.5 * y @ (Q * y)
                     + b @ x + c @ y)

    def grad(z):
        x, y = split(z, dim)
        return join(P * x + A @ y + b, A.T @ x - Q * y + c)

    Hconst = np.block([[np.diag(P), A], [A.T, -np.diag(Q)]])

    def hess(z):
        return Hconst.copy()

    L1 = float(np.linalg.norm(Hconst, 2))
    prob = SaddleProblem(xdom, ydom, p, value, grad,
                         hess if p == 2 else None,
                         L1=L1, Lp=(L1 if p == 1 else 0.0),
                         name=f"quadratic(d={dim},seed={seed})")
    prob.mu2_x = float(np.min(P))
    prob.mu2_y = float(np.min(Q))

    # interior saddle from the first-order conditions, if it lands inside
    K = np.block([[np.diag(P), A], [A.T, -np.diag(Q)]])
    zs = np.linalg.solve(K, -join(b, c))
    if np.max(np.abs(zs)) < 0.95:
        prob.known_saddle = zs

    def exact_gap(z):
        x, y = split(np.asarray(z, float), dim)
        # max_y' concave separable quadratic over the box
        m = A.T @ x + c
        ys = np.clip(m / Q, ydom.lo, ydom.hi)
        max_part = float(0.5 * x @ (P * x) + b @ x
                         + m @ ys - 0.5 * ys @ (Q * ys))
        # min_x' convex separable quadratic over the box
        l = A @ y + b
        xs = np.clip(-l / P, xdom.lo, xdom.hi)
        min_part = float(-0.5 * y @ (Q * y) + c @ y
                         + l @ xs + 0.5 * xs @ (P * xs))
        return max_part - min_part

    prob._exact_gap = exact_gap
    return prob


def make_power(dim: int, p: int = 2, seed: int = 0,
               a: float = 1.0) -> SaddleProblem:
    """Quartic-plus-bilinear game f = (a/4) sum x^4 + x'Ay - (a/4) sum y^4
    on [-1,1]^dim boxes; the natural smooth p=2 test (L2 = 6a)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.5 / np.sqrt(dim), size=(dim, dim))
    xdom = Box(-np.ones(dim), np.ones(dim))
    ydom = Box(-np.ones(dim), np.ones(dim))
    nA = np.linalg.norm(A, 2)

    def value(z):
        x, y = split(z, dim)
        return float(0.25 * a * np.sum(x ** 4) + x @ A @ y
                     - 0.25 * a * np.sum(y ** 4))

    def grad(z):
        x, y = split(z, dim)
        return join(a * x ** 3 + A @ y, A.T @ x - a * y ** 3)

    def hess(z):
        x, y = split(z, dim)
        H = np.zeros((2 * dim, 2 * dim))
        H[:dim, :dim] = np.diag(3 * a * x ** 2)
        H[:dim, dim:] = A
        H[dim:, :dim] = A.T
        H[dim:, dim:] = np.diag(-3 * a * y ** 2)
        return H

    prob = SaddleProblem(xdom, ydom, p, value, grad,
                         hess if p == 2 else None,
                         L1=3 * a + nA,
                         Lp=(3 * a + nA if p == 1 else 6 * a),
                         name=f"power(d={dim},seed={seed})")

    def exact_gap(z):
        x, y = split(np.asarray(z, float), dim)
        m = A.T @ x
        ys = np.clip(np.cbrt(m / a), ydom.lo, ydom.hi)
        max_part = float(0.25 * a * np.sum(x ** 4)
                         + m @ ys - 0.25 * a * np.sum(ys ** 4))
        l = A @ y
        xs = np.clip(np.cbrt(-l / a), xdom.lo, xdom.hi)
        min_part = float(-0.25 * a * np.sum(y ** 4)
                         + l @ xs + 0.25 * a * np.sum(xs ** 4))
        return max_part - min_part

    prob._exact_gap = exact_gap
    if p == 2:
        prob.known_saddle = np.zeros(2 * dim)
    return prob


# ---------------------------------------------------------------------------
# hard instances
# ---------------------------------------------------------------------------

def hard_instance(p: int, T: int, Lp: float = 1.0,
                  DZ: float = None) -> SaddleProblem:
    """Chain instance f = (Lp/(2^{p+1} p!)) (y_1 (1-x_1)^p
    + sum y_{i+1}(x_i - x_{i+1})^p) on the ordered unit box times [0,1]^n,
    n = T+1, optionally rescaled to a joint diameter DZ."""
    if T < 1:
        raise ValueError("T >= 1 required")
    if DZ is not None and not DZ > 0:
        raise ValueError("DZ must be positive")
    n = T + 1
    cst = Lp / (2 ** (p + 1) * math.factorial(p))
    # d(x) = G x + e1 gives the chain differences (1-x_1, x_1-x_2, ...)
    G = np.zeros((n, n))
    G[0, 0] = -1.0
    for i in range(1, n):
        G[i, i - 1], G[i, i] = 1.0, -1.0
    e1 = np.zeros(n)
    e1[0] = 1.0

    DZbar = math.sqrt(2.0 * n)
    beta = 1.0 if DZ is None else DZbar / DZ

    def base_value(x, y):
        d = G @ x + e1
        return cst * float(y @ d ** p)

    def base_grad(x, y):
        d = G @ x + e1
        gx = cst * p * (G.T @ (y * d ** (p - 1)))
        gy = cst * d ** p
        return join(gx, gy)

    def base_hess(x, y):
        d = G @ x + e1
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = cst * p * (p - 1) * (G.T @ np.diag(y * d ** (p - 2)) @ G)
        Hxy = cst * p * (G.T @ np.diag(d ** (p - 1)))
        H[:n, n:] = Hxy
        H[n:, :n] = Hxy.T
        return H

    def value(z):
        x, y = split(z, n)
        return base_value(beta * x, beta * y) / beta ** (p + 1)

    def grad(z):
        x, y = split(z, n)
        return base_grad(beta * x, beta * y) / beta ** p

    def hess(z):
        x, y = split(z, n)
        return base_hess(beta * x, beta * y) / beta ** (p - 1)

    nG = np.linalg.norm(G, 2)
    # Hessian norm bound on the feasible set (|d| <= 1, |y| <= 1)
    L1bar = cst * p * ((p - 1) * nG ** 2 + nG)
    xdom = OrderedBox(np.ones(n)).scale(beta)
    ydom = Box(np.zeros(n), np.ones(n)).scale(beta)
    prob = SaddleProblem(
        xdom, ydom, p, value, grad, hess if p == 2 else None,
        L1=max(L1bar / beta ** (p - 1), 1e-8), Lp=Lp,
        name=f"hard_new(p={p},T={T})")
    prob.T = T
    prob.beta = beta
    prob.DZbar = DZbar
    return prob


def lin_hard_instance(p: int, T: int, Lp: float = 1.0) -> SaddleProblem:
    """The 4T+1-dimensional chain instance of the earlier lower-bound
    construction, kept for replication; implemented exactly as printed.
    reference_DX/reference_DY carry the diameter constants quoted with it.
    """
    if T < 1:
        raise ValueError("T >= 1 required")
    n = 4 * T + 1
    cst = Lp / (2 ** (p + 1) * math.factorial(p + 1))
    # w = C x collects the difference terms; last two rows are identities
    C = np.zeros((n, n))
    for i in range(n - 2):
        C[i, i], C[i, i + 1] = 1.0, -1.0
    C[n - 2, n - 2] = 1.0
    C[n - 1, n - 1] = 1.0
    # q: coefficients of the y^{p+1} terms
    q = np.zeros(n)
    q[: n - 2] += 1.0
    q[1: n - 1] -= 1.0 / (p * (p + 1))
    shift = 4 * T - 1.0 / p
    e1 = np.zeros(n)
    e1[0] = 1.0

    def value(z):
        x, y = split(z, n)
        w = C @ x
        return cst * float(y @ w ** p + q @ y ** (p + 1)
                           - (x[0] - shift) * y[0])

    def grad(z):
        x, y = split(z, n)
        w = C @ x
        gx = cst * (p * (C.T @ (y * w ** (p - 1))) - y[0] * e1)
        gy = cst * (w ** p + (p + 1) * q * y ** p - (x[0] - shift) * e1)
        return join(gx, gy)

    def hess(z):
        x, y = split(z, n)
        w = C @ x
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = cst * p * (p - 1) * (C.T @ np.diag(y * w ** (p - 2)) @ C)
        Hxy = cst * (p * (C.T @ np.diag(w ** (p - 1)))
                     - np.outer(e1, e1))
        H[:n, n:] = Hxy
        H[n:, :n] = Hxy.T
        H[n:, n:] = cst * (p + 1) * p * np.diag(q * y ** (p - 1))
        return H

    ux = np.array([4.0 * T - i for i in range(n)])  # 4T-i+1, i = 1..n
    xdom = OrderedBox(ux)
    hi_y = np.ones(n)
    hi_y[-1] = 0.0
    ydom = Box(np.zeros(n), hi_y)
    nC = np.linalg.norm(C, 2)
    wmax = max(np.max(ux), 1.0)
    L1bar = cst * (p * ((p - 1) * wmax ** max(p - 2, 0) * nC ** 2
                        + wmax ** (p - 1) * nC) + 1.0
                   + (p + 1) * p * np.max(np.abs(q)))
    prob = SaddleProblem(xdom, ydom, p, value, grad,
                         hess if p == 2 else None,
                         L1=max(L1bar, 1e-8), Lp=Lp,
                         name=f"hard_lin(p={p},T={T})")
    prob.T = T
    prob.reference_DX = 8.0 * T ** 1.5
    prob.reference_DY = T ** 0.5
    return prob


# ---------------------------------------------------------------------------
# gap and derivative checking
# ---------------------------------------------------------------------------

@dataclass
class GapEstimate:
    value: float
    error: float = 0.0

    def __float__(self):
        return float(self.value)


def duality_gap(problem: SaddleProblem, z, inner_solver=None,
                tol: float = 1e-8) -> GapEstimate:
    """Gap(z) = max_y' f(x, y') - min_x' f(x', y).

    Uses the problem's closed form when available, otherwise solves both
    inner problems with `inner_solver(func_oracle, z0, tol) -> point`.
    """
    z = np.asarray(z, dtype=float)
    if hasattr(problem, "_exact_gap"):
        return GapEstimate(problem._exact_gap(z), 0.0)
    if inner_solver is None:
        raise ValueError("no closed-form gap; supply an inner solver")
    x, y = problem.split(z)
    fy = problem.y_function(x)     # minimizes -f(x, .)
    yhat = inner_solver(fy, problem.y_domain.center(), tol)
    fx = problem.x_function(y)
    xhat = inner_solver(fx, problem.x_domain.center(), tol)
    hi = problem.oracle_eval(join(x, yhat), 0)[0]
    lo = problem.oracle_eval(join(xhat, y), 0)[0]
    return GapEstimate(hi - lo, 2 * tol)


@dataclass
class DerivativeReport:
    ok: bool
    max_grad_err: float
    max_hess_err: float
    failures: list = field(default_factory=list)


def check_derivatives(problem: SaddleProblem, z, tol: float = None,
                      h: float = 1e-6) -> DerivativeReport:
    """Central finite differences of the oracle at an interior point."""
    z = np.asarray(z, dtype=float)
    n = len(z)
    scale = max(1.0, float(np.max(np.abs(problem.oracle_eval(z, 1)[1]))))
    if tol is None:
        tol = max(1e-5, 1e-6 * scale)
    g = problem.oracle_eval(z, 1)[1]
    failures = []
    gerr = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp = problem.oracle_eval(z + e, 0)[0]
        fm = problem.oracle_eval(z - e, 0)[0]
        err = abs((fp - fm) / (2 * h) - g[i])
        gerr = max(gerr, err)
        if err > tol:
            failures.append(("grad", i, err))
    herr = 0.0
    if problem.p == 2:
        H = problem.oracle_eval(z, 2)[2]
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            gp = problem.oracle_eval(z + e, 1)[1]
            gm = problem.oracle_eval(z - e, 1)[1]
            col = (gp - gm) / (2 * h)
            err = float(np.max(np.abs(col - H[:, i])))
            herr = max(herr, err)
            if err > tol:
                failures.append(("hess", i, err))
    return DerivativeReport(not failures, gerr, herr, failures)


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------

def from_config(cfg: dict) -> SaddleProblem:
    kind = cfg["problem"]
    p = int(cfg.get("p", 1))
    seed = int(cfg.get("seed", 0))
    if kind == "bilinear":
        return make_bilinear(int(cfg.get("dim", 3)), p, seed,
                             L1=cfg.get("L1"))
    if kind == "quadratic":
        return make_quadratic(int(cfg.get("dim", 3)), p, seed)
    if kind == "power":
        return make_power(int(cfg.get("dim", 3)), p, seed,
                          a=float(cfg.get("a", 1.0)))
    if kind == "hard_new":
        return hard_instance(p, int(cfg.get("T", 4)),
                             Lp=float(cfg.get("Lp", 1.0)),
                             DZ=cfg.get("DZ"))
    if kind == "hard_lin":
        return lin_hard_instance(p, int(cfg.get("T", 1)),
                                 Lp=float(cfg.get("Lp", 1.0)))
    raise ValueError(f"unknown problem kind {kind!r}")
