"""Triple-loop accelerated solver for smooth convex-concave saddle problems.

Structure: regularize both sides so the problem becomes uniformly
convex-concave (the added gradients cost at most eps/2 of residual), then

  * outer loop  -- accelerated inexact proximal method on the primal
    envelope Phi(x) = max_y f_eps(x, y);
  * middle loop -- the same method on the dual envelope of the one-sided
    surrogate g_eps, implementing the outer proximal oracle;
  * inner loop  -- restarted higher-order extragradient on the two-sided
    surrogate h_eps, implementing the middle proximal oracle.

Both accelerated levels take their oracles from one Envelope: inexact
values and gradients come from warm-started, uniformly convex restricted
minimizations (Danskin's rule), one routine for either side.  Each level
hands its answer up: an envelope gradient comes with the value its solve
measured, and each prox oracle (iprox_psi for the middle loop, iprox_phi
for the outer one) hands back its measured point and base oracle tuple,
which the envelope keeps as the start of its next solve at the point the
prox returned.  The worst-case loop counts of the analysis (T1, T2, S)
are only caps: every level stops on measured certificates and stalls, the
inner tolerances are eps/100 rather than a worst-case delta chain, and the
outer loop halts as soon as a recovered primal-dual pair has tangent
residual <= eps for the ORIGINAL operator -- which is also the guarantee
the solver reports.

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
from .aipe import (  # noqa: F401
    OracleBundle, aipe_epoch, aipe_restart, gap_from_residual,
)
from .eg import certified_distance, eg_steps, iprox_psi, polish_step
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

    @property
    def total(self):
        return sum(self.counts.values())


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
    zeta1: float
    zeta2: float
    zeta3: float
    M_inner: float         # first inner EG step's regularization (4 Lp of
                           # h_eps); q=1 steps adapt from it

    def __post_init__(self):
        for name in ("gamma", "mu_x", "mu_y", "delta", "stall1", "stall2",
                     "zeta1", "zeta2", "zeta3", "M_inner"):
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

    zeta1 is the primal-dual distance making the final polish residual
    <= eps/2 (the regularizer gradients account for the other eps/2),
    zeta2 = zeta1/4 and zeta3 = zeta2/20.  The measured residual at the
    recovered pair is the arbiter, so there is no worst-case delta chain:
    delta = eps/100 at both the outer and the middle level.  T1, T2 and S
    are the analysis's loop counts, used as caps on loops that stop on
    measured progress; the outer and middle levels share the restart cap S.
    Lipschitz constants and moduli are not part of it: the solver reads
    each from its view.  zeta1 and S use f_eps's L1 (L1t) and M_inner =
    4 Lpg uses h_eps's Lp, both from power_lipschitz before the views exist.
    M_inner regularizes the first step of each inner extragradient epoch; at
    p=1 later steps follow the local Lipschitz constant they measure
    (eg.eg_epoch), at p=2 every step keeps it.
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
        zeta1=zeta1, zeta2=zeta2, zeta3=zeta3,
        # the contraction analysis wants 32 Lp; measured-stopping runs are
        # stable at the much smaller 4 Lp, which p=1 epochs then adapt
        M_inner=4.0 * Lpg)


def _dist_to_gap(mu: float, p: int, dist: float) -> float:
    """Value target guaranteeing a distance target under uniform
    convexity h - h* >= (mu/(p+1)) dist^{p+1}."""
    return max(mu / (p + 1) * dist ** (p + 1), 1e-16)


def _inner_min(oracle, target_gap, warm, warm_out=None):
    """Uniformly convex restricted minimization for the envelope oracles.

    Accelerated projected gradient with gradient-based adaptive restart;
    stops once the tangent residual certifies a gap below target_gap
    through gradient domination, or when the residual stops improving
    (the flat directions of a weakly regularized subproblem eventually
    hit oracle resolution).  oracle is a restricted view, from
    SaddleProblem.restricted.  Returns (x, out): the best certified point
    seen and the view's joint oracle tuple there, so the caller need not
    ask again.

    No point is queried twice in a row: the tuple of the last query is
    reused while the next point has the same bytes and needs no higher
    order (a residual check followed by a restart at the checked point,
    the value and gradient read at one point).  warm_out, the joint tuple
    at warm, seeds that reuse; pass it only for the same problem view at
    the same fixed block.
    """
    dom = oracle.domain
    p = oracle.p
    start = np.asarray(warm if warm is not None else dom.center(), float)
    x = dom.project(start)
    last = None   # (point bytes, joint tuple, restricted tuple)
    if warm_out is not None and x.tobytes() == start.tobytes():
        last = (x.tobytes(), warm_out, oracle.restrict(warm_out))

    def query(v, order):
        nonlocal last
        key = v.tobytes()
        if last is None or last[0] != key or len(last[1]) <= order:
            last = (key,) + oracle.query(v, order)
        return last[1], last[2]

    L = max(oracle.Lp, 1e-8)
    if p == 2:
        # the quadratic upper model needs a gradient-Lipschitz constant;
        # start from local curvature and let backtracking correct it
        L = max(float(np.linalg.norm(query(x, 2)[1][2], 2)), 1e-8)
    w = x.copy()
    t = 1.0
    best_x, best_out, best_r = x, None, math.inf
    since_improve = 0
    for k in range(20_000):
        f_w, g_w = query(w, 1)[1][:2]
        g_w = np.asarray(g_w, float)
        if p == 1:
            x_new = dom.project(w - g_w / L)
        else:
            f_w = float(f_w)
            for _ in range(60):
                x_new = dom.project(w - g_w / L)
                d = x_new - w
                f_new = float(query(x_new, 0)[1][0])
                if f_new <= f_w + g_w @ d + 0.5 * L * (d @ d) \
                        + 1e-12 * (1.0 + abs(f_w)):
                    break
                L *= 2.0
        step = x_new - x
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # gradient restart: momentum pointing uphill resets the schedule
        if g_w @ step > 0.0:
            t_new = 1.0
            w = x_new.copy()
        else:
            w = dom.project(x_new + ((t - 1.0) / t_new) * step)
        x, t = x_new, t_new
        if k % 8 == 0 or np.linalg.norm(step) <= 1e-15 * (1 + np.linalg.norm(x)):
            out, res = query(x, 1)
            r = dom.tangent_residual(x, np.asarray(res[1], float))
            if r < 0.9 * best_r:
                best_x, best_out, best_r, since_improve = x, out, r, 0
            else:
                if r < best_r:
                    best_x, best_out, best_r = x, out, r
                since_improve += 1
            if gap_from_residual(r, oracle.mu, p) <= target_gap:
                return x, out
            if since_improve >= 25:
                break
    return best_x, best_out


class Envelope:
    """A view's envelope over one block, solved for with the other fixed.

    With x_side it is -min_x view(x, y), a function of y (the middle
    loop's dual envelope of g_eps); otherwise max_y view(x, y), a function
    of x (the outer loop's primal envelope of f_eps).  mu is the solved
    block's uniform-convexity modulus (view.uc) and the view's L1 turns a
    gradient accuracy into a distance target.  pt is where the next
    restricted solve starts; the joint tuple kept with it seeds that
    solve's reuse when the fixed block has the same bytes.
    """

    def __init__(self, view: PowerRegularized, x_side: bool, pt=None):
        self.view, self.x_side, self.pt = view, x_side, pt
        self.mu = view.uc(x_side)
        self._at = None   # (fixed bytes, joint tuple at pt joined with fixed)

    def keep(self, pt, fixed, out):
        """Starts the next solve at pt; out is the view's joint tuple at pt
        joined with the other block at fixed."""
        self.pt, self._at = pt, (fixed.tobytes(), out)

    def out_at(self, fixed):
        """The joint tuple kept with pt if it was taken at fixed, else None."""
        if self._at is not None and self._at[0] == fixed.tobytes():
            return self._at[1]
        return None

    def solve(self, fixed, target_gap):
        """_inner_min of the solved block with the other at fixed, started
        at pt and seeded with the tuple kept there; keeps the new point.
        Returns (point, joint tuple, restricted oracle)."""
        fixed = np.asarray(fixed, float)
        oracle = self.view.restricted(fixed, self.x_side)
        pt, out = _inner_min(oracle, target_gap, self.pt, self.out_at(fixed))
        self.keep(pt, fixed, out)
        return pt, out, oracle

    def bundle(self, tracker: CountTracker, level: str, iprox):
        """This envelope's OracleBundle: value and gradient queries count
        toward level, iprox is the level's own prox oracle."""
        def ifunc(z, d):
            with tracker.level(level):
                return ifunc_igrad_primal(self, z, d, need_grad=False)[0]

        def igrad(z, d):
            with tracker.level(level):
                return ifunc_igrad_primal(self, z, d)[:2]

        return OracleBundle(ifunc=ifunc, igrad=igrad, iprox=iprox,
                            order=self.view.p)


def ifunc_igrad_primal(env: Envelope, fixed, delta: float,
                       need_grad: bool = True):
    """Inexact value and gradient of env's envelope at fixed.

    The restricted solve runs to a value target of delta for the value;
    a gradient call needs the solution to distance delta/L1, which a
    (p+1)-uniformly convex objective converts into a (much tighter) value
    target.  The gradient is the view's gradient in the fixed block at the
    solution (Danskin's rule), negated with the value for an x-side
    envelope.  Returns (value, gradient, solution); env keeps the solution,
    with the joint tuple there, as the next call's start.
    """
    target = max(delta, 1e-16)
    if need_grad:
        target = min(target, _dist_to_gap(env.mu, env.view.p,
                                          delta / env.view.L1))
    pt, out, _ = env.solve(fixed, target)
    dx = env.view.dx
    if env.x_side:
        return -float(out[0]), -np.asarray(out[1], float)[dx:], pt
    return float(out[0]), np.asarray(out[1], float)[:dx], pt


def iprox_phi(problem_f_eps: PowerRegularized, x_bar, gamma: float,
              cfg: MinimaxConfig, start=None,
              tracker: CountTracker = None, flags: list = None):
    """Inexact proximal oracle for the primal envelope at x_bar.

    Runs the middle-loop acceleration on the dual envelope of g_eps =
    f_eps + (gamma/(p+1))||x - x_bar||^{p+1}, then recovers the primal
    minimizer at the returned dual point and polishes it.  Returns
    (x_tilde, u_tilde, certificate, (z, base_out), next_start); the
    certificate residual adds a Danskin-error bound (from the measured
    dual-side residual) to the directly measured polished gradient.  That
    measurement is one order-p base query at z = (x_tilde, y_hat), and
    base_out is its tuple: the x-prox term is constant in y, so y_hat is
    also the caller's start for maximizing f_eps(x_tilde, .).  Failed dual
    prox certificates are appended to flags; the middle loop keeps going
    past them.  A failed certificate gets one retry with zeta2 and zeta3
    ten times tighter.

    start = (x, y) (default: the domain center) is where the envelope's
    first solve and the middle loop start; next_start, the recovered
    minimizer joined with the returned dual point, is the next call's.
    Each middle-loop oracle starts where the level below left off: the
    envelope gradient hands up its value, and the envelope keeps each
    iprox_psi's x block and base tuple as the start of its next solve.
    """
    x_bar = np.asarray(x_bar, float)
    p = problem_f_eps.p
    tracker = tracker or CountTracker(problem_f_eps.base)
    g_eps = surrogate_g(problem_f_eps, x_bar, gamma)
    dx = g_eps.dx
    y_dom = g_eps.y_domain
    flags = flags if flags is not None else []
    start = g_eps.domain.center() if start is None else start
    env = Envelope(g_eps, True, start[:dx])
    y = start[dx:]

    for zeta2, zeta3 in ((cfg.zeta2, cfg.zeta3),
                         (cfg.zeta2 / 10.0, cfg.zeta3 / 10.0)):
        def mid_iprox(yb, g, d):
            with tracker.level("inner"):
                yb = np.asarray(yb, float)
                out = env.out_at(yb)
                F0 = None if out is None \
                    else g_eps.operator().from_tuple(out)
                y_t, v_t, cert, (z_hat, base_out) = iprox_psi(
                    g_eps, x_bar, yb, g, cfg.delta, cfg.M_inner, zeta3,
                    z0=join(env.pt, yb), F0=F0)
            env.keep(z_hat[:dx], y_t, g_eps.extend(z_hat, base_out))
            if not cert.ok:
                flags.append(f"dual prox certificate: {cert.residual:.3e} "
                             f"> {cert.bound:.3e}")
            return y_t, v_t

        y, _ = aipe_restart(env.bundle(tracker, "middle", mid_iprox), y_dom,
                            y, gamma, cfg.stall2, cfg.T2, cfg.S)
        y_hat = np.asarray(y, float)

        with tracker.level("middle"):
            x_hat, out, oracle = env.solve(y_hat,
                                           _dist_to_gap(env.mu, p, zeta2))
        with tracker.level("polish"):
            x_t, u_t = polish_step(oracle, g_eps.x_domain, x_hat, g_eps.L1,
                                   Fz=oracle.restrict(out)[1])
            # measured residual at the polished point + Danskin error bound
            z_t = join(x_t, y_hat)
            base_out = g_eps.base.oracle_eval(z_t, p)
            g_at = g_eps.extend(z_t, base_out)[1]
            w = g_at[:dx] + u_t
            # maximizing f_eps(x_t, .) means minimizing -f_eps, whose
            # gradient field at y_hat is -grad_y g_eps (x terms don't enter)
            r_y = y_dom.tangent_residual(y_hat, -g_at[dx:])
        dist_y = certified_distance(r_y, problem_f_eps.uc(False), p,
                                    mu2=problem_f_eps.mu2_y)
        cert = prox_certificate(x_bar, x_t, u_t,
                                float(np.linalg.norm(w))
                                + problem_f_eps.L1 * dist_y, gamma, p,
                                cfg.delta)
        if cert.ok:
            break
    return x_t, u_t, cert, (z_t, base_out), join(x_hat, y_hat)


def solve(problem: SaddleProblem, eps: float, cfg: MinimaxConfig = None,
          z0=None):
    """Full solve: returns (z_tilde, SolveReport) with the measured tangent
    residual of the ORIGINAL operator at z_tilde; ok means residual <= eps.
    eps must be a finite number > 0 (ValueError otherwise).

    z0 (default: the domain center) is both the starting point and the
    center of the power regularizers.
    """
    t_start = time.perf_counter()
    _positive(eps, "eps")
    cfg = cfg or derive_parameters(problem, eps)
    p = problem.p
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

    # the outer loop's envelope, the recovery's own one on the same view,
    # and where the next iprox_phi starts (its last handed-back point)
    outer = Envelope(f_eps, False)
    rec = Envelope(f_eps, False)
    mid = None
    best = {"z": None, "r": math.inf}

    def recover(x):
        """Dual recovery + joint polish + residual of the original f.

        Two dual candidates are polished and measured: the maximizer of
        f_eps(x, .) (the textbook recovery, unstable where the coupling
        is flat and only the tiny regularizer decides y), and the middle
        loop's last dual point, which tracked the saddle through the
        gamma-strengthened surrogate.  The measured residual arbitrates.
        """
        x = np.asarray(x, float)
        with tracker.level("outer"):
            y_hat, out, _ = rec.solve(x, _dist_to_gap(rec.mu, p, cfg.zeta1))
        # the first candidate's F comes with the recovery's last query;
        # every recovery follows at least one iprox_phi, which sets mid
        candidates = [(y_hat, op_feps.from_tuple(out)),
                      (mid[problem.dx:], None)]
        z_t, r = None, math.inf
        with tracker.level("polish"):
            for y_c, F_c in candidates:
                z_c, _ = polish_step(op_feps, domain, join(x, y_c),
                                     f_eps.L1, Fz=F_c)
                r_c = domain.tangent_residual(z_c, op_f(z_c))
                if r_c < r:
                    z_t, r = z_c, r_c
        gap = float(gap_fn(z_t)) if gap_fn is not None else None
        trace.append((problem.oracle_counter - start_count, r, gap, "outer"))
        if r < best["r"]:
            best["z"], best["r"] = z_t, r
        return z_t, r

    def probe(x_best):
        _, r = recover(x_best)
        return r <= eps

    def out_iprox(xb, g, d):
        nonlocal mid
        x_t, u_t, cert, (z_m, base_out), mid = iprox_phi(
            f_eps, xb, g, cfg, mid, tracker=tracker, flags=flags)
        outer.keep(z_m[problem.dx:], x_t, f_eps.extend(z_m, base_out))
        if not cert.ok:
            flags.append(f"primal prox certificate: {cert.residual:.3e} > "
                         f"{cert.bound:.3e}")
        return x_t, u_t

    bundle = outer.bundle(tracker, "outer", out_iprox)
    with tracker.level("outer"):
        x, info = aipe_restart(bundle, problem.x_domain, z0[:problem.dx],
                               cfg.gamma, cfg.stall1, cfg.T1, cfg.S,
                               probe=probe)
        if not info["traces"][-1].stopped_by_probe:
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

    The steps are eg.eg_steps, the inner epochs' steps: the first is
    regularized by M = 2 max(Lp, eps), later p=1 steps size themselves
    from the local Lipschitz constant, so a step costs two calls, and p=2
    steps keep M.  A zero step (zh = z) means z solves the VI: its
    residual, from F(z), ends the run.  The budget is checked before each
    step, so the run stops at the first step that meets or passes it.
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

    if z0 is None:
        z = domain.center()
    else:
        z = domain.project(np.asarray(z0, float))
    best_z, best_r = z, math.inf
    steps = eg_steps(problem.operator(), domain, z,
                     TensorStepConfig(order=p, M=2.0 * max(problem.Lp, eps)))
    n_steps = 0
    with tracker.level("outer"):
        while problem.oracle_counter - start_count < max_oracle_calls:
            zh, _, r, _, eta = next(steps)
            if r < best_r:
                best_z, best_r = zh, r
            done = r <= eps or eta is None
            if n_steps % 16 == 0 or done:
                gap = float(gap_fn(zh)) if gap_fn is not None else None
                trace.append((problem.oracle_counter - start_count, r, gap,
                              "outer"))
            n_steps += 1
            if done:
                break
        else:
            flags.append(f"oracle budget {max_oracle_calls} exhausted at "
                         f"residual {best_r:.3e}")

    ok = best_r <= eps
    report = SolveReport(z=best_z, residual=float(best_r),
                         counts=dict(tracker.counts), trace=trace,
                         wall_time=time.perf_counter() - t_start,
                         flags=flags, ok=ok, method=f"eg-p{p}")
    return best_z, report
