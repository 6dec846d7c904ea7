"""Saddle-point problem oracles, built-in test games, regularized
surrogates, and the chain-structured hard instance used by the
lower-bound experiments.

The three built-in games are one separable family on [-1,1]^d boxes,
f = s_x(x) + x'Ay + b'x + c'y - s_y(y), each s being 0 (bilinear), a
diagonal P w^2/2 (quadratic) or a w^4/4 (power); one builder writes their
value, gradient, Hessian and exact duality gap.

A SaddleProblem holds f, its derivatives up to order p in {1, 2}, the
feasible sets X, Y, and Lipschitz constants.  Solvers see a problem
through an OracleView, its operator() or one restricted() block, whose
one query is its own problem's ``oracle_eval``; a regularized surrogate's
asks the base problem's and adds its power terms, and only the base
problem evaluates and counts.  So oracle-complexity accounting is exact:
every evaluation of f counts one call, whatever view asked for it.  The
base problem remembers its last two evaluations (see
``SaddleProblem.oracle_eval``), so a question asked again at one of those
points, on any view of the same base, is answered without a call, and no
subsolver passes answers to another by hand.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ACTIVE_TOL, Box, Domain, Product, norm


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
    violators, O(n)).  Input that is already nonincreasing pools nothing,
    so it comes back as a copy without the loop."""
    if (v[:-1] >= v[1:]).all():
        return np.array(v, dtype=float)
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
        if not np.isfinite(u).all():
            raise ValueError("upper bounds must be finite")
        object.__setattr__(self, "upper", u)
        object.__setattr__(self, "dim", u.shape[0])

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
        return norm(self.upper)

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
    """f on X x Y with F = (grad_x f, -grad_y f).

    value/grad/hess are callables on the joint vector z = (x, y); hess may
    be None for p = 1.  Every evaluation increments a thread-safe counter.
    base is the problem that evaluates f, counts and remembers (itself
    here); every view's query is this problem's oracle_eval.
    """

    def __init__(self, x_domain: Domain, y_domain: Domain, p: int,
                 value: Callable, grad: Callable, hess: Callable = None,
                 L1: float = 1.0, Lp: float = 1.0, name: str = ""):
        self._shape(Product(x_domain, y_domain), p, L1, Lp, name)
        self._value = value
        self._grad = grad
        self._hess = hess
        self._counter = 0
        self._lock = threading.Lock()
        self._memory = (None, None)   # (older, newer) (point bytes, tuple)
        self.base = self

    def _shape(self, domain: Product, p: int, L1: float, Lp: float,
               name: str):
        """What every problem has, whether it evaluates f or asks its base
        problem: the joint domain and its blocks, order, constants and
        name.  Problems on one domain share it."""
        if p not in (1, 2):
            raise ValueError("order p must be 1 or 2")
        if not L1 > 0 or Lp < 0:
            raise ValueError("need L1 > 0 and Lp >= 0")
        self.domain = domain
        self.x_domain = domain.left
        self.y_domain = domain.right
        self.p = p
        self.L1 = float(L1)
        self.Lp = float(Lp)
        self.name = name
        self.dx = domain.left.dim
        self.dy = domain.right.dim
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
        return self.base._counter

    def forget(self):
        """Empties the base problem's oracle memory, so the next question
        at any point is evaluated and counted."""
        with self.base._lock:
            self.base._memory = (None, None)

    # -- oracles ----------------------------------------------------------

    def oracle_eval(self, z, order: int):
        """(value, gradient[, Hessian]) of f at z up to order, which must
        lie in 0..p (OrderError otherwise).

        The problem remembers its last two evaluations.  A query at the
        bytes of either point, at an order no higher than the one evaluated
        there, returns that tuple cut to order + 1 entries, with no call
        and no domain check; any other query is checked, evaluated and
        counted, and replaces the older entry.  Two entries, not one,
        because the middle level's restart and its retry first ask where
        the last probe solved, and that probe's polish query came after
        it: with one entry bilinear(3,1,0) at eps 1e-3 takes 8 514 calls,
        with two 8 485.
        """
        if not 0 <= order <= self.p:
            raise OrderError(f"order {order} oracle on a p={self.p} problem")
        z = self.domain._check_dim(z)
        key = z.tobytes()
        for seen in self._memory:
            if seen is not None and seen[0] == key and len(seen[1]) > order:
                return seen[1][:order + 1]
        # coarse sanity guard only: finite-difference probes may sit a few
        # steps outside a face, which is fine for the analytic formulas.  A
        # point known feasible (hence finite) passes at once; any other
        # pays for its norm and its distance, and a point of infinite norm,
        # which would make the tolerance infinite, is refused
        if not self.domain._feasible(z):
            nz = norm(z)
            if not (math.isfinite(nz) and norm(self.domain.project(z) - z)
                    <= 1e-4 * max(1.0, nz)):
                raise ValueError("oracle query outside the domain")
        out = [self._value(z)]
        if order >= 1:
            out.append(self._grad(z))
        if order >= 2:
            out.append(self._hess(z))
        out = tuple(out)
        with self._lock:
            self._counter += 1
            self._memory = (self._memory[1], (key, out))
        return out

    def operator(self) -> "OracleView":
        """F(z) = (grad_x f, -grad_y f), with the Jacobian at order 2; its
        value is f's."""
        sign = np.ones(self.dx + self.dy)
        sign[self.dx:] = -1.0

        def query(z, order):
            out = self.oracle_eval(z, order)
            res = [out[0]]
            if len(out) > 1:
                res.append(sign * out[1])
            if len(out) > 2:
                res.append(sign[:, None] * out[2])
            return tuple(res)

        return OracleView(self.domain, query, self.p, self.Lp)

    def restricted(self, fixed, x_side: bool) -> "OracleView":
        """The function of one block with the other held at fixed: f(., y)
        over X with x_side, else -f(x, .) over Y, whose minimization
        maximizes f in y.  It reads the block's value, gradient and Hessian
        from this problem's tuple at the joint point."""
        fixed = np.asarray(fixed, float)
        blk = slice(None, self.dx) if x_side else slice(self.dx, None)

        def query(v, order):
            z = join(v, fixed) if x_side else join(fixed, v)
            out = self.oracle_eval(z, order)
            res = [out[0]]
            if len(out) > 1:
                res.append(out[1][blk])
            if len(out) > 2:
                res.append(out[2][blk, blk])
            return tuple(res) if x_side else tuple(-r for r in res)

        # a regularized problem's Lp already counts its power terms
        return OracleView(
            self.x_domain if x_side else self.y_domain, query, self.p,
            self.Lp, mu=self.uc(x_side))

    def uc(self, x_side: bool) -> float:
        """The order-(p+1) uniform-convexity modulus of one block: each
        power term (c/(p+1))||.||^{p+1} is c/2^{p-1}-uniformly convex."""
        return (self.mu_x if x_side else self.mu_y) / 2 ** (self.p - 1)


@dataclass
class OracleView:
    """A problem seen as a function (or, for operator(), a field) on a
    compact domain: calling it gives the field (the gradient), an order-0
    query the value and derivatives the field and its Jacobian (the
    Hessian).

    query(v, order) is the one counted query: its problem's oracle_eval
    at v's joint point, read as this view's (value, field[, Jacobian]) at
    v.  mu is the (p+1)th-order uniform-convexity modulus (0 if unknown);
    Lp bounds the Lipschitz constant of the pth derivative.
    """

    domain: Domain
    query: Callable
    p: int
    Lp: float
    mu: float = 0.0

    def __call__(self, v):
        """The field (gradient) at v."""
        return self.query(v, 1)[1]

    def derivatives(self, v):
        """(field, Jacobian) at v from one order-2 query."""
        return self.query(v, 2)[1:]


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


def _power_term(w, coeff, p, order):
    """[value, gradient, Hessian] of (coeff/(p+1))||w||^{p+1} up to order,
    all from one norm of w."""
    n = norm(w)
    out = [coeff / (p + 1) * n ** (p + 1)]
    if order >= 1:
        out.append(coeff * n ** (p - 1) * w)
    if order >= 2:
        d = len(w)
        # a nonzero n is at least sqrt(5e-324), so n ** (p - 3), at p = 2,
        # is finite and raises no OverflowError
        if n == 0.0:
            out.append(np.zeros((d, d)))
        else:
            out.append(coeff * (n ** (p - 1) * np.eye(d)
                                + (p - 1) * n ** (p - 3) * np.outer(w, w)))
    return out


class PowerRegularized(SaddleProblem):
    """Base problem plus (p+1)-power proximal regularizers on each side.

    x_terms/y_terms are lists of (coefficient, center); x terms are added,
    y terms subtracted, keeping the function convex-concave.  Every view
    of it asks its oracle_eval.  That asks the base problem's oracle_eval
    at the same order, which checks the order and answers from its memory
    or evaluates and counts, then adds the regularizer terms with no call:
    each term takes its value, gradient and Hessian from one norm of the
    block's offset from its center, and the value adds the x terms' sum,
    then subtracts the y terms' sum.  It keeps no memory, count or lock
    of its own; oracle_counter and forget are the base problem's.
    """

    def __init__(self, base: SaddleProblem, x_terms, y_terms, name=""):
        self.x_terms = [(float(c), np.asarray(w, float)) for c, w in x_terms]
        self.y_terms = [(float(c), np.asarray(w, float)) for c, w in y_terms]
        p = base.p
        mu_x = base.mu_x + sum(c for c, _ in self.x_terms)
        mu_y = base.mu_y + sum(c for c, _ in self.y_terms)
        L1, Lp = power_lipschitz(base, mu_x, mu_y)
        # no count, lock or memory of its own: those are the base's
        self._shape(base.domain, p, L1, Lp, name or f"reg({base.name})")
        self.base = base
        self.mu_x = mu_x
        self.mu_y = mu_y
        # p = 1 power terms are quadratic, so they add order-2 strength
        extra_x = sum(c for c, _ in self.x_terms) if p == 1 else 0.0
        extra_y = sum(c for c, _ in self.y_terms) if p == 1 else 0.0
        self.mu2_x = base.mu2_x + extra_x
        self.mu2_y = base.mu2_y + extra_y

    def oracle_eval(self, z, order):
        base = self.base.oracle_eval(z, order)
        x, y = split(z, self.dx)
        xs = [_power_term(x - w, c, self.p, order) for c, w in self.x_terms]
        ys = [_power_term(y - w, c, self.p, order) for c, w in self.y_terms]
        res = [base[0] + sum(t[0] for t in xs) - sum(t[0] for t in ys)]
        for k in range(1, order + 1):
            # the gradient (k = 1) or Hessian (k = 2) block of each side
            D = np.array(base[k], dtype=float)
            bx, by = (slice(None, self.dx),) * k, (slice(self.dx, None),) * k
            for t in xs:
                D[bx] += t[k]
            for t in ys:
                D[by] -= t[k]
            res.append(D)
        return tuple(res)


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

def _name(kind: str, **keys) -> str:
    """kind(key=value,...) over the keys that are not None.  Every maker
    names its problem here, passing each kind key that is off its default,
    so two problems that differ in a kind key differ in name."""
    shown = ",".join(f"{k}={v}" for k, v in keys.items() if v is not None)
    return f"{kind}({shown})"


def _separable(P=None, a=None):
    """One side's separable term s(w) of a box game: 0, the diagonal
    P w^2/2 or the quartic a w^4/4.  Returns (value, gradient, Hessian
    diagonal, best), where best(m) is (m'w*, w*) for w* the maximizer of
    m'w - s(w) over [-1,1]^d: the box corner, clip(m/P) or clip(cbrt(m/a))."""
    if P is not None:
        def best(m):
            w = np.clip(m / P, -1.0, 1.0)
            return m @ w, w
        return lambda w: 0.5 * w @ (P * w), lambda w: P * w, lambda w: P, best
    if a is not None:
        def best(m):
            w = np.clip(np.cbrt(m / a), -1.0, 1.0)
            return m @ w, w
        return (lambda w: 0.25 * a * np.sum(w ** 4), lambda w: a * w ** 3,
                lambda w: 3 * a * w ** 2, best)
    return (lambda w: 0.0, lambda w: 0.0, np.zeros_like,
            lambda m: (np.sum(np.where(m >= 0, m, -m)),
                       np.where(m >= 0, 1.0, -1.0)))


def _box_game(name, p, A, b, c, sx, sy, L1, Lp) -> SaddleProblem:
    """f = s_x(x) + x'Ay - s_y(y) + b'x + c'y on [-1,1]^d x [-1,1]^d, for
    separable terms s_x, s_y from _separable."""
    dim = A.shape[0]
    vx, gx, hx, best_x = sx
    vy, gy, hy, best_y = sy
    box = Box(-np.ones(dim), np.ones(dim))

    def value(z):
        x, y = split(z, dim)
        return float(vx(x) + x @ A @ y - vy(y) + b @ x + c @ y)

    def grad(z):
        x, y = split(z, dim)
        return join(gx(x) + A @ y + b, A.T @ x - gy(y) + c)

    def hess(z):
        x, y = split(z, dim)
        return np.block([[np.diag(hx(x)), A], [A.T, np.diag(-hy(y))]])

    prob = SaddleProblem(box, box, p, value, grad, hess if p == 2 else None,
                         L1=L1, Lp=Lp, name=name)

    def exact_gap(z):
        # max_y' f(x, y') - min_x' f(x', y); min_x' is -max_x' of -f.  The
        # order of each sum fixes the last bits of the gaps a trace logs
        x, y = split(np.asarray(z, float), dim)
        my, ys = best_y(A.T @ x + c)
        mx, xs = best_x(-(A @ y + b))
        return float(vx(x) + b @ x + my - vy(ys)) \
            - float(-vy(y) + c @ y - mx + vx(xs))

    prob._exact_gap = exact_gap
    return prob


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
    return _box_game(_name("bilinear", d=dim, seed=seed, L1=L1), p, A, b, c,
                     _separable(), _separable(), L1=max(nA, 1e-8),
                     Lp=(nA if p == 1 else 0.0))


def make_quadratic(dim: int, p: int = 1, seed: int = 0) -> SaddleProblem:
    """Quadratic game f = x'Px/2 + x'Ay - y'Qy/2 + b'x + c'y with diagonal
    positive P, Q (closed-form gap and interior saddle)."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.8, 1.6, size=dim)
    Q = rng.uniform(0.8, 1.6, size=dim)
    A = rng.normal(scale=0.5 / np.sqrt(dim), size=(dim, dim))
    b = rng.normal(scale=0.1, size=dim)
    c = rng.normal(scale=0.1, size=dim)
    H = np.block([[np.diag(P), A], [A.T, -np.diag(Q)]])
    L1 = float(np.linalg.norm(H, 2))
    prob = _box_game(_name("quadratic", d=dim, seed=seed), p, A, b, c,
                     _separable(P=P), _separable(P=Q), L1=L1,
                     Lp=(L1 if p == 1 else 0.0))
    prob.mu2_x = float(np.min(P))
    prob.mu2_y = float(np.min(Q))

    # interior saddle from the first-order conditions, if it lands inside
    zs = np.linalg.solve(H, -join(b, c))
    if np.max(np.abs(zs)) < 0.95:
        prob.known_saddle = zs
    return prob


def make_power(dim: int, p: int = 2, seed: int = 0,
               a: float = 1.0) -> SaddleProblem:
    """Quartic-plus-bilinear game f = (a/4) sum x^4 + x'Ay - (a/4) sum y^4
    on [-1,1]^dim boxes; the natural smooth p=2 test (L2 = 6a)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.5 / np.sqrt(dim), size=(dim, dim))
    nA = np.linalg.norm(A, 2)
    zero = np.zeros(dim)
    prob = _box_game(_name("power", d=dim, seed=seed,
                           a=None if a == 1.0 else a), p, A, zero, zero,
                     _separable(a=a), _separable(a=a), L1=3 * a + nA,
                     Lp=(3 * a + nA if p == 1 else 6 * a))
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
    n = T+1, optionally rescaled to a joint diameter DZ.

    f = cst y'd^p reads the differences d = G x + e1 = (1 - x_1, x_1 - x_2,
    ...) and the adjoint G'w = (w_2 - w_1, ..., -w_n) without forming G, so
    an order-1 query is O(n), and ||G||_2 = 2 cos(pi/(2n+1)).  The p=2
    Hessian (tridiagonal xx block, bidiagonal xy block) is dense for the
    tensor step: at T=512 an order-2 query takes 1 ms and 8 MB and one q=2
    step 0.7 s; at T=2048 the query takes 14 ms and 134 MB and each dense
    solve of a step 0.4 s, so p=2 stops being practical above T = 512.
    """
    if T < 1:
        raise ValueError("T >= 1 required")
    if DZ is not None and not DZ > 0:
        raise ValueError("DZ must be positive")
    n = T + 1
    cst = Lp / (2 ** (p + 1) * math.factorial(p))
    beta = 1.0 if DZ is None else math.sqrt(2.0 * n) / DZ

    def chain(z):
        # the differences d and the y block at the unscaled point
        x, y = split(beta * z, n)
        return np.concatenate(([1.0], x[:-1])) - x, y

    def value(z):
        d, y = chain(z)
        return cst * float(y @ d ** p) / beta ** (p + 1)

    def grad(z):
        d, y = chain(z)
        w = y * d ** (p - 1)
        gx = cst * p * (np.append(w[1:], 0.0) - w)
        return join(gx, cst * d ** p) / beta ** p

    def hess(z):
        d, y = chain(z)
        w = y * d ** (p - 2)
        v = d ** (p - 1)
        i, j = np.arange(n), np.arange(n - 1)
        H = np.zeros((2 * n, 2 * n))
        # xx = G' diag(w) G, tridiagonal; xy = G' diag(v), bidiagonal
        H[i, i] = cst * p * (p - 1) * (w + np.append(w[1:], 0.0))
        H[j, j + 1] = H[j + 1, j] = cst * p * (p - 1) * -w[1:]
        H[i, n + i] = H[n + i, i] = cst * p * -v
        H[j, n + j + 1] = H[n + j + 1, j] = cst * p * v[1:]
        H /= beta ** (p - 1)
        return H

    nG = 2.0 * math.cos(math.pi / (2 * n + 1))
    # Hessian norm bound on the feasible set (|d| <= 1, |y| <= 1)
    L1bar = cst * p * ((p - 1) * nG ** 2 + nG)
    prob = SaddleProblem(
        OrderedBox(np.ones(n) / beta), Box(np.zeros(n), np.ones(n) / beta),
        p, value, grad, hess if p == 2 else None,
        L1=max(L1bar / beta ** (p - 1), 1e-8), Lp=Lp,
        name=_name("hard_new", p=p, T=T, Lp=None if Lp == 1.0 else Lp,
                   DZ=DZ))
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


def check_derivatives(problem: SaddleProblem, z) -> DerivativeReport:
    """Central finite differences of the oracle at an interior point, with
    step h = 1e-6 and tolerance max(1e-5, 1e-6 max(1, ||grad||_inf))."""
    h = 1e-6
    z = np.asarray(z, dtype=float)
    n = len(z)
    g = problem.oracle_eval(z, 1)[1]
    tol = max(1e-5, 1e-6 * max(1.0, float(np.max(np.abs(g)))))
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
