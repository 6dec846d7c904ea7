"""Saddle-point problem oracles, built-in test games, regularized
surrogates, and the chain-structured hard instance used by the
lower-bound experiments.

A SaddleProblem bundles f, its derivatives up to order p in {1, 2}, the
feasible sets X, Y, and Lipschitz constants.  Solvers only touch problems
through ``oracle_eval`` (which counts calls) or views derived from it, so
oracle-complexity accounting is exact: one query of any order on any view,
regularized surrogates included, is one base call and counts once.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ACTIVE_TOL, Box, Domain, Product, _check_beta


def split(z, dx):
    z = np.asarray(z, dtype=float)
    return z[:dx], z[dx:]


def join(x, y):
    return np.concatenate([np.asarray(x, float), np.asarray(y, float)])


# ---------------------------------------------------------------------------
# ordered box domain (the polytope of the lower-bound construction)
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
    """{x : 0 <= x_n <= ... <= x_1 <= u}, one bound u >= 0 for every
    coordinate, stored per coordinate in upper.

    Projection is pool-adjacent-violators isotonic regression followed by
    clipping to [0, u], which is exact because the bound is common to all
    coordinates.  The tangent-cone projection is the same in pieces: z is
    cut into runs of tied coordinates, v is pooled on each run, and the
    last run is clipped below at 0 when z ends at 0, the first above at 0
    when z starts at u; each run has one common bound, so this is exact.
    """

    upper: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if np.any(u < 0) or np.any(u != u[:1]):
            raise ValueError("upper bounds must be equal and nonnegative")
        object.__setattr__(self, "upper", u)

    @property
    def dim(self):
        return self.upper.shape[0]

    def project(self, z):
        z = self._check_dim(z)
        return np.clip(_pav_nonincreasing(z), 0.0, self.upper)

    def _feasible(self, z):
        # pool adjacent violators returns such input unchanged
        return bool((z[:-1] >= z[1:]).all()
                    and ((0.0 <= z) & (z <= self.upper)).all())

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        t = np.array(v, dtype=float)
        tol = ACTIVE_TOL * max(1.0, float(self.upper[0]))
        # runs of tied coordinates; each run's cone is "nonincreasing"
        cuts = [0, *(np.flatnonzero(z[:-1] - z[1:] > tol) + 1), self.dim]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a > 1:
                t[a:b] = _pav_nonincreasing(t[a:b])
        # coordinates at 0 end the last run, those at u open the first
        if z[-1] <= tol:
            t[cuts[-2]:] = np.maximum(t[cuts[-2]:], 0.0)
        if self.upper[0] - z[0] <= tol:
            t[:cuts[1]] = np.minimum(t[:cuts[1]], 0.0)
        return t

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

    def operator(self) -> "OperatorView":
        return OperatorView(self)

    def restricted(self, fixed, x_side: bool) -> "FunctionOracle":
        """The function of one block with the other held at fixed: f(., y)
        over X with x_side, else -f(x, .) over Y, whose minimization
        maximizes f in y.  Its joint query is this problem's oracle_eval at
        the joint point; restrict reads the block's value, gradient and
        Hessian from that tuple."""
        fixed = np.asarray(fixed, float)
        blk = slice(None, self.dx) if x_side else slice(self.dx, None)

        def joint(v, order):
            z = join(v, fixed) if x_side else join(fixed, v)
            return self.oracle_eval(z, order)

        def restrict(out):
            res = [out[0]]
            if len(out) > 1:
                res.append(out[1][blk])
            if len(out) > 2:
                res.append(out[2][blk, blk])
            return tuple(res) if x_side else tuple(-r for r in res)

        # a regularized problem's Lp already counts its power terms
        return FunctionOracle(
            domain=self.x_domain if x_side else self.y_domain,
            joint=joint, restrict=restrict, p=self.p, Lp=self.Lp,
            mu=self.uc(x_side),
            name=f"{self.name}|{'x' if x_side else 'y'}")

    def uc(self, x_side: bool) -> float:
        """The order-(p+1) uniform-convexity modulus of one block: each
        power term (c/(p+1))||.||^{p+1} is c/2^{p-1}-uniformly convex."""
        return (self.mu_x if x_side else self.mu_y) / 2 ** (self.p - 1)


class OperatorView:
    """F(z) = (grad_x f, -grad_y f), with Jacobian access for p = 2."""

    def __init__(self, problem: SaddleProblem):
        self.problem = problem
        self.domain = problem.domain
        s = np.ones(problem.dx + problem.dy)
        s[problem.dx:] = -1.0
        self._sign = s

    def __call__(self, z):
        return self.from_tuple(self.problem.oracle_eval(z, 1))

    def from_tuple(self, out):
        """F from a joint oracle tuple of the problem (order >= 1)."""
        return self._sign * out[1]

    def derivatives(self, z):
        """(F(z), its Jacobian) from one order-2 query."""
        out = self.problem.oracle_eval(z, 2)
        return self.from_tuple(out), self._sign[:, None] * out[2]


@dataclass
class FunctionOracle:
    """A convex function with derivatives on a compact domain, and its own
    gradient field, shaped like OperatorView: calling it gives the
    gradient, derivatives the gradient and the Hessian.

    joint(v, order) is the one counted query, returning a tuple at v (for
    a restricted view, its problem's tuple at the joint point);
    restrict(tuple) -> (value, grad, ...) of this function from it.  Every
    question is answered from one such query.  mu is the (p+1)th-order
    uniform-convexity modulus (0 if unknown); Lp bounds the Lipschitz
    constant of the pth derivative.
    """

    domain: Domain
    joint: Callable
    restrict: Callable
    p: int
    Lp: float
    mu: float = 0.0
    name: str = ""

    def query(self, v, order: int):
        """One counted query at v: (joint tuple, restricted tuple)."""
        out = self.joint(v, order)
        return out, self.restrict(out)

    def value(self, v):
        return self.query(v, 0)[1][0]

    def __call__(self, v):
        """The gradient at v."""
        return self.query(v, 1)[1][1]

    grad = __call__

    def derivatives(self, v):
        """(gradient, Hessian) at v from one order-2 query."""
        return self.query(v, 2)[1][1:]


# ---------------------------------------------------------------------------
# power regularizers: f + sum (c/(p+1)) ||x - cx||^{p+1}
#                       - sum (c/(p+1)) ||y - cy||^{p+1}
# ---------------------------------------------------------------------------

def power_lipschitz(problem: SaddleProblem, mu_x: float,
                    mu_y: float) -> tuple:
    """(L1, Lp) of problem plus weight-mu_x and weight-mu_y power terms on
    X and Y: a term adds p c D^{p-1} to L1 (D its block's diameter) and
    p! c to Lp, and the stronger side bounds the joint operator."""
    p = problem.p
    Dx = problem.x_domain.diameter()
    Dy = problem.y_domain.diameter()
    return (problem.L1 + p * max(mu_x * Dx ** (p - 1), mu_y * Dy ** (p - 1)),
            problem.Lp + math.factorial(p) * max(mu_x, mu_y))


def _reg_value(w, coeff, p):
    return coeff / (p + 1) * np.linalg.norm(w) ** (p + 1)


def _reg_grad(w, coeff, p):
    return coeff * np.linalg.norm(w) ** (p - 1) * w


def _reg_hess(w, coeff, p):
    n = np.linalg.norm(w)
    d = len(w)
    if n == 0.0:
        return np.zeros((d, d))
    return coeff * (n ** (p - 1) * np.eye(d)
                    + (p - 1) * n ** (p - 3) * np.outer(w, w))


class PowerRegularized(SaddleProblem):
    """Base problem plus (p+1)-power proximal regularizers on each side.

    x_terms/y_terms are lists of (coefficient, center); x terms are added,
    y terms subtracted, keeping the function convex-concave.  Each query
    makes one base oracle_eval call of the same order, which checks the
    order and the domain and counts once, then adds the regularizer terms.
    """

    def __init__(self, base: SaddleProblem, x_terms, y_terms, name=""):
        self.base = base
        self.x_terms = [(float(c), np.asarray(w, float)) for c, w in x_terms]
        self.y_terms = [(float(c), np.asarray(w, float)) for c, w in y_terms]
        p = base.p
        mu_x = base.mu_x + sum(c for c, _ in self.x_terms)
        mu_y = base.mu_y + sum(c for c, _ in self.y_terms)
        L1, Lp = power_lipschitz(base, mu_x, mu_y)
        super().__init__(base.x_domain, base.y_domain, p, None, None,
                         L1=L1, Lp=Lp, name=name or f"reg({base.name})")
        self.mu_x = mu_x
        self.mu_y = mu_y
        # p = 1 power terms are quadratic, so they add order-2 strength
        extra_x = sum(c for c, _ in self.x_terms) if p == 1 else 0.0
        extra_y = sum(c for c, _ in self.y_terms) if p == 1 else 0.0
        self.mu2_x = base.mu2_x + extra_x
        self.mu2_y = base.mu2_y + extra_y

    def oracle_eval(self, z, order):
        return self.extend(z, self.base.oracle_eval(z, order))

    def extend(self, z, out):
        """This view's tuple at z from the base problem's tuple there, of
        the same order; adds the power terms and makes no oracle call.
        Every view built on one base (f_eps, g_eps, h_eps) can extend the
        same base tuple."""
        order = len(out) - 1
        x, y = split(z, self.dx)
        v = out[0]
        v += sum(_reg_value(x - w, c, self.p) for c, w in self.x_terms)
        v -= sum(_reg_value(y - w, c, self.p) for c, w in self.y_terms)
        res = [v]
        if order >= 1:
            g = np.array(out[1], dtype=float)
            for c, w in self.x_terms:
                g[:self.dx] += _reg_grad(x - w, c, self.p)
            for c, w in self.y_terms:
                g[self.dx:] -= _reg_grad(y - w, c, self.p)
            res.append(g)
        if order >= 2:
            H = np.array(out[2], dtype=float)
            for c, w in self.x_terms:
                H[:self.dx, :self.dx] += _reg_hess(x - w, c, self.p)
            for c, w in self.y_terms:
                H[self.dx:, self.dx:] -= _reg_hess(y - w, c, self.p)
            res.append(H)
        return tuple(res)

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


def surrogate_h(problem_g_eps: PowerRegularized, y_bar,
                gamma: float) -> PowerRegularized:
    """h_eps: g_eps minus the y-side proximal power term at y_bar."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return PowerRegularized(
        problem_g_eps.base, problem_g_eps.x_terms,
        problem_g_eps.y_terms + [(gamma, np.asarray(y_bar, float))],
        name=f"h_eps({problem_g_eps.base.name})")


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
    zs = np.linalg.solve(Hconst, -join(b, c))
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

    beta = 1.0 if DZ is None else math.sqrt(2.0 * n) / DZ

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
    return prob


# ---------------------------------------------------------------------------
# derivative checking
# ---------------------------------------------------------------------------

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
    g = problem.oracle_eval(z, 1)[1]
    scale = max(1.0, float(np.max(np.abs(g))))
    if tol is None:
        tol = max(1e-5, 1e-6 * scale)
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

# the keys each problem kind reads besides problem, p and seed
_KIND_KEYS = {"bilinear": {"dim", "L1"}, "quadratic": {"dim"},
              "power": {"dim", "a"}, "hard_new": {"T", "Lp", "DZ"}}


def _int_key(cfg: dict, key: str, default: int, lo: int = 1,
             hi: int = None) -> int:
    """cfg[key] (or default) as an integer in [lo, hi]; bools are refused."""
    v = cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
            or v < lo or (hi is not None and v > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{key} must be an integer {span}, got {v!r}")
    return int(v)


def _positive(v, key: str) -> float:
    """v, the value of key, as a finite real > 0; bools, strings and other
    non-numbers are refused, not coerced."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) \
            or not (math.isfinite(v) and v > 0):
        raise ValueError(f"{key} must be a finite number > 0, got {v!r}")
    return float(v)


def _positive_key(cfg: dict, key: str, default: float = None) -> float:
    """cfg[key] as a finite real > 0, or default when the key is absent."""
    return _positive(cfg[key], key) if key in cfg else default


def from_config(cfg: dict) -> SaddleProblem:
    """Builds a problem from a config dict.  p is 1 or 2, seed an integer
    >= 0, dim and T integers >= 1, and L1, Lp, DZ and a finite numbers > 0;
    an unknown kind, a key the kind does not read or a value outside these
    rules raises ValueError."""
    kind = cfg["problem"]
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown problem kind {kind!r}")
    unknown = set(cfg) - _KIND_KEYS[kind] - {"problem", "p", "seed"}
    if unknown:
        raise ValueError(f"unknown keys for problem {kind!r}: "
                         f"{', '.join(sorted(unknown))}")
    p = _int_key(cfg, "p", 1, hi=2)
    seed = _int_key(cfg, "seed", 0, lo=0)
    if kind == "bilinear":
        return make_bilinear(_int_key(cfg, "dim", 3), p, seed,
                             L1=_positive_key(cfg, "L1"))
    if kind == "quadratic":
        return make_quadratic(_int_key(cfg, "dim", 3), p, seed)
    if kind == "power":
        return make_power(_int_key(cfg, "dim", 3), p, seed,
                          a=_positive_key(cfg, "a", 1.0))
    return hard_instance(p, _int_key(cfg, "T", 4),
                         Lp=_positive_key(cfg, "Lp", 1.0),
                         DZ=_positive_key(cfg, "DZ"))
