"""Triple-loop accelerated solver for smooth convex-concave saddle problems.

Structure: regularize both sides so the problem becomes uniformly
convex-concave (the added gradients cost at most eps/2 of residual), then

  * outer loop  -- accelerated inexact proximal method on the primal
    envelope Phi(x) = max_y f_eps(x, y);
  * middle loop -- the same method on the dual envelope of the one-sided
    surrogate g_eps, implementing the outer proximal oracle;
  * inner level -- one higher-order extragradient run on the two-sided
    surrogate h_eps, certified by its measured residual, implementing the
    middle proximal oracle.

Each accelerated level's oracle is an Envelope, which aipe_restart
takes as it is: inexact values and gradients come from warm-started,
uniformly convex restricted minimizations (Danskin's rule), one routine
for either side, whose steps follow the curvature they measure at either
order (_inner_min), and the prox oracle is the level below.  Each level
opens one count scope (CountTracker.level) around all of its work, in
which the level below opens its own.
Each level hands its answer up: an envelope gradient comes with the
value its solve measured, and each prox oracle (iprox_psi for the middle
loop, iprox_phi for the outer one) hands back its measured point and
base oracle tuple, which the envelope keeps as the start of its next
solve at the point the prox returned.  The worst-case loop counts of
the analysis (T1, T2, S) are only caps: every level stops on a measured
certificate, with a stall of its best value as the fallback.  The inner
run stops once the middle level's dual prox certificate holds at a half
point, or on a residual that certifies its distance target; the middle
loop stops once the outer level's primal prox certificate holds at its
best dual point; the outer loop halts as soon as a recovered primal-dual
pair has tangent residual <= eps for the ORIGINAL operator -- which is
also the guarantee the solver reports.  The inner tolerances are eps/100
rather than a worst-case delta chain.

The schedule (MinimaxConfig, from derive_parameters) holds no Lipschitz
constant or modulus: each level reads them from the regularized view it
works on (its L1 and Lp, and uc for the uniform-convexity modulus).
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# aipe_epoch is unused here, but perfbench/tracer.py patches it at this
# import site, so the name must stay
from .aipe import aipe_epoch, aipe_restart, gap_from_residual  # noqa: F401
from .eg import (
    certified_distance, eg_epoch, eg_steps, iprox_psi, polish_step,
)
from .geometry import norm
from .problems import (
    PowerRegularized, SaddleProblem, _positive, join, power_lipschitz,
    regularize_f_eps, surrogate_g,
)
# tensor_step is unused here, but perfbench/tracer.py patches it at this
# import site, so the name must stay
from .tensor_step import (  # noqa: F401
    TensorStepConfig, prox_certificate, tensor_step,
)

LEVELS = ("outer", "middle", "inner", "polish")


class CountTracker:
    """Attributes oracle-counter deltas to the innermost active level."""

    def __init__(self, problem: SaddleProblem):
        self.problem = problem
        self.counts = {lvl: 0 for lvl in LEVELS}
        self._stack = []

    @contextmanager
    def level(self, name: str):
        frame = [self.problem.oracle_counter, 0]  # [entry count, child use]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            total = self.problem.oracle_counter - frame[0]
            self.counts[name] += total - frame[1]
            if self._stack:
                self._stack[-1][1] += total


@dataclass
class MinimaxConfig:
    gamma: float
    mu_x: float
    mu_y: float
    T1: int                # outer epoch-length cap
    T2: int                # middle epoch-length cap
    S: int                 # outer and middle restart cap
    delta: float           # outer and middle prox-certificate tolerance
    stall1: float          # outer value-improvement resolution
    stall2: float          # middle value-improvement resolution
    zeta2: float
    zeta3: float
    M_inner: float         # first inner EG step's regularization (4 Lp of
                           # h_eps); single-call q=1 steps adapt from it

    def __post_init__(self):
        for name in ("gamma", "mu_x", "mu_y", "delta", "stall1", "stall2",
                     "zeta2", "zeta3", "M_inner"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("T1", "T2", "S"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class SolveReport:
    z: np.ndarray
    residual: float
    counts: dict
    trace: list                     # rows (oracle_calls, residual, gap, level)
    wall_time: float
    flags: list = field(default_factory=list)
    ok: bool = True
    method: str = "minimax-aipe"

    def to_json(self):
        return json.dumps({
            "z": np.asarray(self.z).tolist(),
            "residual": self.residual,
            "counts": self.counts,
            "total_oracle_calls": int(sum(self.counts.values())),
            "trace": [[int(c), float(r), None if g is None else float(g), l]
                      for c, r, g, l in self.trace],
            "wall_time": self.wall_time,
            "flags": list(self.flags),
            "ok": bool(self.ok),
            "method": self.method,
        })


def derive_parameters(problem: SaddleProblem, eps: float) -> MinimaxConfig:
    """The solver's schedule from the problem's smoothness and geometry.

    zeta1 = eps/(24 L1t), a local, is the primal-dual distance making a
    polish residual <= eps/2 (the regularizer gradients account for the
    other eps/2); it sets zeta2 = zeta1/4, zeta3 = zeta2/20 and the outer
    stall resolution stall1.  The measured residual at the
    recovered pair is the arbiter, so there is no worst-case delta chain:
    delta = eps/100 at both the outer and the middle level.  T1, T2 and S
    are the analysis's loop counts, used as caps on loops that stop on
    measured progress; the outer and middle levels share the restart cap S.
    Lipschitz constants and moduli are not part of it: the solver reads
    each from its view.  zeta1 and S use f_eps's L1 (L1t) and M_inner =
    4 Lpg uses h_eps's Lp, both from power_lipschitz before the views exist.
    M_inner regularizes the first step of each inner extragradient run; at
    p=1 the run takes one-call past-extragradient steps whose M follows
    the local Lipschitz constant measured between consecutive half points
    (eg.past_eg_steps), at p=2 every step keeps it.
    """
    p = problem.p
    Dx = problem.x_domain.diameter()
    Dy = problem.y_domain.diameter()
    DZ = problem.domain.diameter()
    min_dp = min(Dx ** p, Dy ** p)
    if problem.Lp > 0 and eps > problem.Lp * min_dp:
        raise ValueError(
            f"precision precondition violated: eps/min(Dx^p, Dy^p) = "
            f"{eps / min_dp:.3e} exceeds Lp = {problem.Lp:.3e}")
    # keep the surrogates uniformly convex even for degenerate Lp = 0
    gamma = max(problem.Lp, eps / min_dp)
    mu_x = eps / (4.0 * Dx ** p)
    mu_y = eps / (4.0 * Dy ** p)
    L1t = power_lipschitz(problem, mu_x, mu_y)[0]
    Lpg = power_lipschitz(problem, gamma + mu_x, gamma + mu_y)[1]

    expo = 2.0 / (3 * p + 1)
    T1 = math.ceil(8.0 * (gamma / mu_x) ** expo)
    T2 = math.ceil(8.0 * (gamma / mu_y) ** expo)

    zeta1 = eps / (24.0 * L1t)
    zeta2 = zeta1 / 4.0
    zeta3 = max(zeta2 / 20.0, 1e-14)
    # value improvements smaller than the worst-case value gap of the
    # distance targets are noise; stalls are judged against these
    stall1 = max(mu_x / (p + 1) * zeta1 ** (p + 1), 1e-14)
    stall2 = max(mu_y / (p + 1) * zeta2 ** (p + 1), 1e-14)

    S = max(1, math.ceil(math.log2(max(4.0 * L1t * DZ / eps, 2.0))))
    return MinimaxConfig(
        gamma=gamma, mu_x=mu_x, mu_y=mu_y, T1=T1, T2=T2, S=S,
        delta=eps / 100.0, stall1=stall1, stall2=stall2,
        zeta2=zeta2, zeta3=zeta3,
        # the contraction analysis wants 32 Lp; measured-stopping runs are
        # stable at the much smaller 4 Lp, which p=1 steps then adapt
        M_inner=4.0 * Lpg)


def _dist_to_gap(mu: float, p: int, dist: float) -> float:
    """Value target guaranteeing a distance target under uniform
    convexity h - h* >= (mu/(p+1)) dist^{p+1}."""
    return max(mu / (p + 1) * dist ** (p + 1), 1e-16)


def _inner_min(oracle, target_gap, warm, warm_base=None):
    """Uniformly convex restricted minimization for the envelope oracles.

    Accelerated projected gradient with gradient-based adaptive restart;
    stops once the tangent residual certifies a gap below target_gap
    through gradient domination, or when the residual stops improving
    (the flat directions of a weakly regularized subproblem eventually
    hit oracle resolution).  oracle is a restricted view, from
    SaddleProblem.restricted.  Returns (x, base): the best certified point
    seen and the base tuple of the one query there, which the caller reads
    instead of asking again.

    The step is 1/L at either order, L = min(L_max, max(L/2, L_hat, 1e-8))
    with L_hat = ||g(w) - g(w_prev)|| / ||w - w_prev|| the curvature
    measured between the last two momentum points from gradients already
    in hand, so the rule makes no query, and no order-0 query is made.  A
    restricted block is often curved only by its regularizer, far less
    than any bound.  At p=1, L starts at the view's Lp, which caps it.  At
    p=2, Lp bounds how fast the Hessian changes, not the gradient (it is 0
    on a quadratic), so L starts at the Hessian's norm at the start point,
    from the one order-2 query there, and has no cap.  The rule keeps no
    descent guarantee: its safety rests on the measured stop and the
    gradient restart (Malitsky & Mishchenko, "Adaptive gradient descent
    without descent", 2020, give a variant that keeps one).

    No point is queried twice in a row: the last query is reused while
    the next point has the same bytes and needs no higher order (the start
    point's order-2 query serving its first gradient, a residual check
    followed by a restart at the checked point).  warm_base, the base
    tuple at warm joined with the view's fixed block, seeds that reuse.
    """
    dom = oracle.domain
    p = oracle.p
    start = np.asarray(warm if warm is not None else dom.center(), float)
    x = dom.project(start)
    # (point bytes, base tuple, the view's tuple)
    last = None
    if warm_base is not None and x.tobytes() == start.tobytes():
        last = (x.tobytes(), warm_base, oracle.read(x, warm_base))

    def query(v, order):
        nonlocal last
        key = v.tobytes()
        if last is None or last[0] != key or len(last[2]) <= order:
            last = (key, *oracle.query(v, order))
        return last[1], last[2]

    if p == 1:
        L = L_max = max(oracle.Lp, 1e-8)
    else:
        L = max(float(np.linalg.norm(query(x, 2)[1][2], 2)), 1e-8)
        L_max = math.inf
    w = x.copy()
    w_prev = g_prev = None
    t = 1.0
    best_x, best_base, best_r = x, None, math.inf
    since_improve = 0
    for k in range(20_000):
        g_w = np.asarray(query(w, 1)[1][1], float)
        if w_prev is not None:
            # the curvature between the last two momentum points
            dw = norm(w - w_prev)
            L_hat = norm(g_w - g_prev) / dw if dw > 0.0 else 0.0
            L = min(L_max, max(0.5 * L, L_hat, 1e-8))
        w_prev, g_prev = w, g_w
        x_new = dom.project(w - g_w / L)
        step = x_new - x
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # gradient restart: momentum pointing uphill resets the schedule
        if g_w @ step > 0.0:
            t_new = 1.0
            w = x_new.copy()
        else:
            w = dom.project(x_new + ((t - 1.0) / t_new) * step)
        x, t = x_new, t_new
        if k % 8 == 0 or norm(step) <= 1e-15 * (1 + norm(x)):
            base, res = query(x, 1)
            r = dom.tangent_residual(x, np.asarray(res[1], float))
            if r < 0.9 * best_r:
                best_x, best_base, best_r, since_improve = x, base, r, 0
            else:
                if r < best_r:
                    best_x, best_base, best_r = x, base, r
                since_improve += 1
            if gap_from_residual(r, oracle.mu, p) <= target_gap:
                return x, base
            if since_improve >= 25:
                break
    return best_x, best_base


class Envelope:
    """A view's envelope over one block, solved for with the other fixed.

    With x_side it is -min_x view(x, y), a function of y (the middle
    loop's dual envelope of g_eps); otherwise max_y view(x, y), a function
    of x (the outer loop's primal envelope of f_eps).  mu is the solved
    block's uniform-convexity modulus (view.uc) and the view's L1 turns a
    gradient accuracy into a distance target.  pt is where the next
    restricted solve starts; the base tuple kept with it, of one query at
    pt joined with the other block, seeds that solve's reuse when the
    fixed block has the same bytes.

    It is its level's oracle for aipe_restart: ifunc and igrad are its
    solves, iprox the level's prox oracle and order the view's p.
    """

    def __init__(self, view: PowerRegularized, x_side: bool, pt=None,
                 iprox=None):
        self.view, self.x_side, self.pt = view, x_side, pt
        self.mu = view.uc(x_side)
        self.iprox, self.order = iprox, view.p
        self._at = None   # (fixed bytes, base tuple kept with pt)

    def keep(self, pt, fixed, base):
        """Starts the next solve at pt; base is the base tuple at pt joined
        with the other block at fixed."""
        self.pt, self._at = pt, (fixed.tobytes(), base)

    def base_at(self, fixed):
        """The base tuple kept with pt if taken at fixed, else None."""
        if self._at is not None and self._at[0] == fixed.tobytes():
            return self._at[1]
        return None

    def solve(self, fixed, target_gap):
        """_inner_min of the solved block with the other at fixed, started
        at pt and seeded with the tuple kept there; keeps the new point.
        Returns (point, base tuple, restricted oracle), the tuple of the one
        query at the point joined with fixed."""
        fixed = np.asarray(fixed, float)
        oracle = self.view.restricted(fixed, self.x_side)
        pt, base = _inner_min(oracle, target_gap, self.pt,
                              self.base_at(fixed))
        self.keep(pt, fixed, base)
        return pt, base, oracle

    # both call the module-level ifunc_igrad_primal, which
    # perfbench/tracer.py wraps
    def ifunc(self, z, d):
        return ifunc_igrad_primal(self, z, d, need_grad=False)[0]

    def igrad(self, z, d):
        return ifunc_igrad_primal(self, z, d)[:2]


def ifunc_igrad_primal(env: Envelope, fixed, delta: float,
                       need_grad: bool = True):
    """Inexact value and gradient of env's envelope at fixed.

    The restricted solve runs to a value target of delta for the value;
    a gradient call needs the solution to distance delta/L1, which a
    (p+1)-uniformly convex objective converts into a (much tighter) value
    target.  The value and gradient are those of the fixed block's own
    restricted view at the solution (Danskin's rule), read from the base
    tuple of the solve's last query.  Returns (value, gradient, solution);
    env keeps the solution, with that tuple, as the next call's start.
    """
    target = max(delta, 1e-16)
    if need_grad:
        target = min(target, _dist_to_gap(env.mu, env.view.p,
                                          delta / env.view.L1))
    pt, base, _ = env.solve(fixed, target)
    fixed_view = env.view.restricted(pt, not env.x_side)
    value, grad = fixed_view.read(fixed, base)[:2]
    return float(value), np.asarray(grad, float), pt


def iprox_phi(problem_f_eps: PowerRegularized, x_bar, gamma: float,
              cfg: MinimaxConfig, start, tracker: CountTracker, flags: list):
    """Inexact proximal oracle for the primal envelope at x_bar.

    Runs the middle-loop acceleration on the dual envelope of g_eps =
    f_eps + (gamma/(p+1))||x - x_bar||^{p+1}; its answer comes from a
    recovery at a dual point y_hat: the envelope solve for the primal
    minimizer to distance zeta2, a polish step and the primal prox
    certificate.  Returns (x_tilde, u_tilde, certificate, (z, base_out),
    next_start); the certificate residual adds a Danskin-error bound
    (from the measured dual-side residual) to the directly measured
    polished gradient.  That measurement is one order-p base query at z =
    (x_tilde, y_hat), the envelope solve's own when the polish step did
    not move, and base_out is its tuple: the x-prox term is constant in
    y, so y_hat is also the caller's start for maximizing f_eps(x_tilde,
    .).

    The recovery is the middle loop's probe.  It runs at the epoch's best
    dual point on each iteration that counts toward the stall exit, and
    the epoch ends as soon as the certificate holds; the stall exit stays
    as the fallback.  The answer is the last probe's when the loop
    returns the point it probed, which every stall exit does, and a
    recovery at the returned point otherwise, so no returned point is
    recovered twice.  Failed dual prox certificates and inner runs that
    end uncertified at their step cap are appended to flags; the middle
    loop keeps going past them.  A failed primal certificate gets one
    retry with zeta2 and zeta3 ten times tighter.  This is the package's
    only certificate retry: the retry's zeta3 is the target each of its
    iprox_psi calls receives, and iprox_psi itself runs once and returns
    its certificate as it is.

    start = (x, y) (None: the domain center) is where the envelope's
    first solve and the middle loop start; next_start, the recovered
    minimizer joined with the returned dual point, is the next call's.
    Each middle-loop oracle starts where the level below left off: the
    envelope gradient hands up its value, and the envelope keeps each
    iprox_psi's x block and base tuple as the start of its next solve.
    """
    x_bar = np.asarray(x_bar, float)
    p = problem_f_eps.p
    g_eps = surrogate_g(problem_f_eps, x_bar, gamma)
    op = g_eps.operator()
    dx = g_eps.dx
    y_dom = g_eps.y_domain
    start = g_eps.domain.center() if start is None else start
    y = start[dx:]

    # recover, mid_iprox and probe read the current attempt's zeta2, zeta3
    # and probed, which the loop below sets
    def recover(y_hat):
        """The answer and its primal prox certificate at the dual point
        y_hat, with the envelope solved to distance zeta2."""
        x_hat, base_hat, oracle = env.solve(y_hat,
                                            _dist_to_gap(env.mu, p, zeta2))
        with tracker.level("polish"):
            x_t, u_t = polish_step(oracle, g_eps.x_domain, x_hat, g_eps.L1,
                                   Fz=oracle.read(x_hat, base_hat)[1])
            # measured residual at the polished point + Danskin error bound
            z_t = join(x_t, y_hat)
            # a polish step that did not move is measured by the solve's
            # own query there
            if x_t.tobytes() == x_hat.tobytes() and len(base_hat) > p:
                base_out = base_hat
            else:
                base_out = op.joint(z_t, p)
            F = op.read(z_t, base_out)[1]
            w = F[:dx] + u_t
            # maximizing f_eps(x_t, .) means minimizing -f_eps, whose
            # gradient field at y_hat is -grad_y g_eps (x terms don't enter)
            r_y = y_dom.tangent_residual(y_hat, F[dx:])
        dist_y = certified_distance(r_y, problem_f_eps.uc(False), p,
                                    mu2=problem_f_eps.mu2_y)
        cert = prox_certificate(x_bar, x_t, u_t,
                                norm(w) + problem_f_eps.L1 * dist_y, gamma, p,
                                cfg.delta)
        return x_t, u_t, cert, (z_t, base_out), join(x_hat, y_hat)

    def mid_iprox(yb, g):
        with tracker.level("inner"):
            yb = np.asarray(yb, float)
            y_t, v_t, cert, (z_hat, base_out), certified = iprox_psi(
                g_eps, yb, g, cfg.delta, cfg.M_inner, zeta3,
                z0=join(env.pt, yb), base0=env.base_at(yb))
        env.keep(z_hat[:dx], y_t, base_out)
        if not certified:
            flags.append("inner run ended uncertified at its step cap")
        if not cert.ok:
            flags.append(f"dual prox certificate: {cert.residual:.3e} "
                         f"> {cert.bound:.3e}")
        return y_t, v_t

    def probe(y_best, stalled):
        if not stalled:
            return False
        probed.clear()
        ans = probed[y_best.tobytes()] = recover(y_best)
        return ans[2].ok

    env = Envelope(g_eps, True, start[:dx], iprox=mid_iprox)
    with tracker.level("middle"):
        for zeta2, zeta3 in ((cfg.zeta2, cfg.zeta3),
                             (cfg.zeta2 / 10.0, cfg.zeta3 / 10.0)):
            probed = {}   # the last dual point probed (bytes) -> its answer
            y, _ = aipe_restart(env, y_dom, y, gamma, cfg.stall2, cfg.T2,
                                cfg.S, probe=probe)
            y = np.asarray(y, float)
            out = probed.get(y.tobytes()) or recover(y)
            if out[2].ok:
                break
    return out


def solve(problem: SaddleProblem, eps: float, cfg: MinimaxConfig = None,
          z0=None):
    """Full solve: returns (z_tilde, SolveReport) with the measured tangent
    residual of the ORIGINAL operator at z_tilde; ok means residual <= eps.
    eps must be a finite number > 0 (ValueError otherwise).

    z0 (default: the domain center) is both the starting point and the
    center of the power regularizers.  A failed primal prox certificate is
    appended to the report's flags; the outer loop keeps going past it.
    """
    t_start = time.perf_counter()
    _positive(eps, "eps")
    cfg = cfg or derive_parameters(problem, eps)
    domain = problem.domain
    tracker = CountTracker(problem)
    trace = []
    flags = []
    start_count = problem.oracle_counter

    z0 = domain.center() if z0 is None \
        else domain.project(np.asarray(z0, float))
    f_eps = regularize_f_eps(problem, z0, cfg.mu_x, cfg.mu_y)
    op_f = problem.operator()
    op_feps = f_eps.operator()
    gap_fn = getattr(problem, "_exact_gap", None)

    mid = None   # where the next iprox_phi starts (its last hand-back)
    best = {"z": None, "r": math.inf}

    def recover(x):
        """Dual recovery + joint polish + residual of the original f.

        The dual point is the middle loop's last one, which tracked the
        saddle through the gamma-strengthened surrogate; every recovery
        follows at least one iprox_phi, which sets mid.  The pair is
        polished on f_eps and measured on f.
        """
        with tracker.level("polish"):
            z_t, _ = polish_step(op_feps, domain, join(x, mid[problem.dx:]),
                                 f_eps.L1)
            r = domain.tangent_residual(z_t, op_f(z_t))
        gap = float(gap_fn(z_t)) if gap_fn is not None else None
        trace.append((problem.oracle_counter - start_count, r, gap, "outer"))
        if r < best["r"]:
            best["z"], best["r"] = z_t, r
        return z_t, r

    def probe(x_best, _stalled):
        _, r = recover(x_best)
        return r <= eps

    def out_iprox(xb, g):
        nonlocal mid
        x_t, u_t, cert, (z_m, base_out), mid = iprox_phi(
            f_eps, xb, g, cfg, mid, tracker=tracker, flags=flags)
        outer.keep(z_m[problem.dx:], x_t, base_out)
        if not cert.ok:
            flags.append(f"primal prox certificate: {cert.residual:.3e} > "
                         f"{cert.bound:.3e}")
        return x_t, u_t

    outer = Envelope(f_eps, False, iprox=out_iprox)
    with tracker.level("outer"):
        x, traces = aipe_restart(outer, problem.x_domain, z0[:problem.dx],
                                 cfg.gamma, cfg.stall1, cfg.T1, cfg.S,
                                 probe=probe)
        # the probe measured every point an epoch returns but a proximal
        # fixed point
        if traces[-1].fixed_point:
            recover(x)

    z_t, r = best["z"], best["r"]
    ok = r <= eps
    if not ok:
        flags.append(f"final residual {r:.3e} exceeds target {eps:.3e}")
    report = SolveReport(z=z_t, residual=float(r),
                         counts=dict(tracker.counts), trace=trace,
                         wall_time=time.perf_counter() - t_start,
                         flags=flags, ok=ok)
    return z_t, report


def baseline_eg_solve(problem: SaddleProblem, eps: float,
                      max_oracle_calls: int = 10_000_000, z0=None):
    """Plain order-p extragradient on f itself, stopping at measured
    tangent residual <= eps; the comparison baseline for the benchmark.
    eps must be a finite number > 0 (ValueError otherwise).

    The steps are eg.eg_steps, the two-call steps of extragradient, not
    the inner run's one-call p=1 steps: the first is regularized by
    M = 2 max(Lp, eps), later p=1 steps size themselves from the local
    Lipschitz constant, and p=2 steps keep M.  eg.eg_epoch drives them and
    returns the half point of least residual.  A zero step (zh = z) means
    z solves the VI: its residual, from F(z), ends the run.  Every step
    but a zero step costs two calls at either order, so the budget is a
    cap of ceil(max_oracle_calls / 2) steps: the run stops at the first
    step that meets or passes the budget, and is flagged when it ends
    there without reaching eps.  A trace row is written every 16th step
    and at the step that ends the run on eps or a zero step.
    """
    t_start = time.perf_counter()
    _positive(eps, "eps")
    p = problem.p
    domain = problem.domain
    tracker = CountTracker(problem)
    gap_fn = getattr(problem, "_exact_gap", None)
    trace = []
    flags = []
    start_count = problem.oracle_counter

    def traced(steps):
        for n, (zh, Fh, t, d, eta) in enumerate(steps):
            r = norm(t)
            if n % 16 == 0 or r <= eps or eta is None:
                gap = float(gap_fn(zh)) if gap_fn is not None else None
                trace.append((problem.oracle_counter - start_count, r, gap,
                              "outer"))
            yield zh, Fh, t, d, eta

    z = domain.center() if z0 is None else \
        domain.project(np.asarray(z0, float))
    cap = max(0, math.ceil(max_oracle_calls / 2))
    steps = eg_steps(problem.operator(), domain, z,
                     TensorStepConfig(order=p, M=2.0 * max(problem.Lp, eps)))
    with tracker.level("outer"):
        z, tr = eg_epoch(traced(steps), z, cap, stop_residual=eps)
    if not tr.certified and len(tr.step_norms) == cap:
        flags.append(f"oracle budget {max_oracle_calls} exhausted at "
                     f"residual {tr.residual:.3e}")

    ok = tr.residual <= eps
    report = SolveReport(z=z, residual=float(tr.residual),
                         counts=dict(tracker.counts), trace=trace,
                         wall_time=time.perf_counter() - t_start,
                         flags=flags, ok=ok, method=f"eg-p{p}")
    return z, report
