"""Triple-loop accelerated solver for smooth convex-concave saddle problems.

Structure: regularize both sides so the problem becomes uniformly
convex-concave (the added gradients cost at most eps/2 of residual), then

  * outer loop  -- accelerated inexact proximal method on the primal
    envelope Phi(x) = max_y f_eps(x, y);
  * middle loop -- the same method on the dual envelope of the one-sided
    surrogate g_eps, implementing the outer proximal oracle;
  * inner loop  -- restarted higher-order extragradient on the two-sided
    surrogate h_eps, implementing the middle proximal oracle.

Inexact function values and gradients of the envelopes come from nested
uniformly convex minimizations (Danskin's rule).  Each level hands its
answer up: an envelope gradient comes with the value its solve measured,
and each prox oracle (iprox_psi for the middle loop, iprox_phi for the
outer one) hands back its measured point and base oracle tuple, where the
next envelope solve at the point it returned starts.  The worst-case loop
counts of the analysis (T1, T2, S) are only caps: every level stops
on measured certificates and stalls, the inner tolerances are eps/100
rather than a worst-case delta chain, and the outer loop halts as soon as
a recovered primal-dual pair has tangent residual <= eps for the ORIGINAL
operator -- which is also the guarantee the solver reports.
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
from .eg import certified_distance, iprox_psi, polish_step
from .problems import (
    PowerRegularized, SaddleProblem, join, regularize_f_eps, surrogate_g,
)
from .tensor_step import TensorStepConfig, prox_certificate, tensor_step

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
    eps: float
    p: int
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
    L1_tilde: float        # Lipschitz of the regularized operator
    L1x_tilde: float       # x-side polish constant of g_eps
    L1g_tilde: float       # Lipschitz of the two-sided surrogate operator
    M_inner: float         # inner extragradient regularization (4 Lpg)

    def __post_init__(self):
        for name in ("eps", "gamma", "mu_x", "mu_y", "delta", "stall1",
                     "stall2", "zeta1", "zeta2", "zeta3", "L1_tilde",
                     "L1x_tilde", "L1g_tilde", "M_inner"):
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
    """All solver constants from the problem's smoothness and geometry.

    zeta1 is the primal-dual distance making the final polish residual
    <= eps/2 (the regularizer gradients account for the other eps/2),
    zeta2 = zeta1/4 and zeta3 = zeta2/20.  The measured residual at the
    recovered pair is the arbiter, so there is no worst-case delta chain:
    delta = eps/100 at both the outer and the middle level.  T1, T2 and S
    are the analysis's loop counts, used as caps on loops that stop on
    measured progress; the outer and middle levels share the restart cap S.
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
    L1 = problem.L1
    L1t = L1 + p * max(mu_x * Dx ** (p - 1), mu_y * Dy ** (p - 1))
    L1x = L1 + p * (gamma + mu_x) * Dx ** (p - 1)
    L1g = L1 + p * max((gamma + mu_x) * Dx ** (p - 1),
                       (gamma + mu_y) * Dy ** (p - 1))
    Lpg = problem.Lp + math.factorial(p) * (gamma + max(mu_x, mu_y))

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
        eps=eps, p=p, gamma=gamma, mu_x=mu_x, mu_y=mu_y, T1=T1, T2=T2, S=S,
        delta=eps / 100.0, stall1=stall1, stall2=stall2,
        zeta1=zeta1, zeta2=zeta2, zeta3=zeta3,
        L1_tilde=L1t, L1x_tilde=L1x, L1g_tilde=L1g,
        # the contraction analysis wants 32 Lp; measured-stopping runs are
        # stable (and ~8x faster) at the much smaller regularization
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
    hit oracle resolution).  oracle is a restricted view (x_function or
    y_function).  Returns (x, out): the best certified point seen and the
    view's joint oracle tuple there, so the caller need not ask again.

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


def _kept_out(warm: dict, slot: str, view, fixed):
    """The joint tuple kept with the point warm[slot], if it was taken on
    view with the other block at fixed; else None."""
    seen = warm.get(slot + "_at")
    if seen is not None and seen[0] is view and seen[1] == fixed.tobytes():
        return seen[2]
    return None


def _keep(warm: dict, slot: str, pt, view, fixed, out):
    """Keeps pt in warm[slot] with out, view's joint tuple at pt joined
    with the other block at fixed, for _kept_out to hand back."""
    warm[slot], warm[slot + "_at"] = pt, (view, fixed.tobytes(), out)


def _warm_min(view, fixed, x_side: bool, target_gap, warm: dict, slot: str):
    """_inner_min of view's function of one block, the other held at
    fixed, warm-started from warm[slot] and seeded with the joint tuple
    kept there (see _kept_out).  Keeps the new point and its tuple in warm;
    returns (point, joint tuple, restricted oracle)."""
    fixed = np.asarray(fixed, float)
    oracle = view.x_function(fixed) if x_side else view.y_function(fixed)
    pt, out = _inner_min(oracle, target_gap, warm.get(slot),
                         _kept_out(warm, slot, view, fixed))
    _keep(warm, slot, pt, view, fixed, out)
    return pt, out, oracle


def ifunc_igrad_primal(problem_f_eps: PowerRegularized, x, delta: float,
                       warm: dict = None, need_grad: bool = True):
    """Inexact value and gradient of Phi(x) = max_y f_eps(x, y).

    The inner maximization runs to a value target of delta for the value;
    a gradient call needs the maximizer to distance delta/L1, which a
    (p+1)-uniformly concave objective converts into a (much tighter)
    value target.  Returns (value, gradient, y_hat); warm["y_out"] keeps
    y_hat, with the joint tuple there, to warm-start the next call.
    """
    p = problem_f_eps.p
    warm = warm if warm is not None else {}
    if need_grad:
        mu = problem_f_eps.mu_y / 2 ** (p - 1)   # modulus of -f_eps(x, .)
        target = min(delta, _dist_to_gap(mu, p, delta / problem_f_eps.L1))
    else:
        target = max(delta, 1e-16)
    y_hat, out, _ = _warm_min(problem_f_eps, x, False, target, warm, "y_out")
    return float(out[0]), np.asarray(out[1], float)[:problem_f_eps.dx], y_hat


def iprox_phi(problem_f_eps: PowerRegularized, x_bar, gamma: float,
              cfg: MinimaxConfig, warm: dict = None,
              tracker: CountTracker = None, flags: list = None):
    """Inexact proximal oracle for the primal envelope at x_bar.

    Runs the middle-loop acceleration on the dual envelope of g_eps =
    f_eps + (gamma/(p+1))||x - x_bar||^{p+1}, then recovers the primal
    minimizer at the returned dual point and polishes it.  Returns
    (x_tilde, u_tilde, certificate, (z, base_out)); the certificate
    residual adds a Danskin-error bound (from the measured dual-side
    residual) to the directly measured polished gradient.  That measurement
    is one order-p base query at z = (x_tilde, y_hat), and base_out is its
    tuple: the x-prox term is constant in y, so y_hat is also the caller's
    start for maximizing f_eps(x_tilde, .).  Failed dual prox certificates
    are appended to flags; the middle loop keeps going past them.  A failed
    certificate gets one retry with zeta2 and zeta3 ten times tighter.

    Each middle-loop oracle starts where the level below left off: the
    envelope gradient hands up its value, and each iprox_psi leaves its x
    block and base tuple in warm["x_val"], keyed to the dual point it
    returns, where the next envelope solve at that point starts.
    """
    x_bar = np.asarray(x_bar, float)
    p = cfg.p
    warm = warm if warm is not None else {}
    tracker = tracker or CountTracker(problem_f_eps.base)
    g_eps = surrogate_g(problem_f_eps, x_bar, gamma)
    dx = g_eps.dx
    y_dom = g_eps.y_domain
    mu_ucx_g = g_eps.mu_x / 2 ** (p - 1)
    flags = flags if flags is not None else []

    for zeta2, zeta3 in ((cfg.zeta2, cfg.zeta3),
                         (cfg.zeta2 / 10.0, cfg.zeta3 / 10.0)):
        def mid_ifunc(y, d):
            with tracker.level("middle"):
                _, out, _ = _warm_min(g_eps, y, True, max(d, 1e-16), warm,
                                      "x_val")
                return -float(out[0])

        def mid_igrad(y, d):
            with tracker.level("middle"):
                target = min(max(d, 1e-16),
                             _dist_to_gap(mu_ucx_g, p, d / cfg.L1g_tilde))
                _, out, _ = _warm_min(g_eps, y, True, target, warm, "x_val")
                return -float(out[0]), -np.asarray(out[1], float)[dx:]

        def mid_iprox(yb, g, d):
            with tracker.level("inner"):
                yb = np.asarray(yb, float)
                z0 = F0 = None
                if warm.get("x_val") is not None:
                    z0 = join(warm["x_val"], yb)
                    out = _kept_out(warm, "x_val", g_eps, yb)
                    if out is not None:
                        F0 = g_eps.operator().from_tuple(out)
                y_t, v_t, cert, (z_hat, base_out) = iprox_psi(
                    g_eps, x_bar, yb, g, cfg.delta, cfg.M_inner, zeta3,
                    z0=z0, F0=F0)
            _keep(warm, "x_val", z_hat[:dx], g_eps, y_t,
                  g_eps.extend(z_hat, base_out))
            if not cert.ok:
                flags.append(f"dual prox certificate: {cert.residual:.3e} "
                             f"> {cert.bound:.3e}")
            return y_t, v_t

        bundle = OracleBundle(ifunc=mid_ifunc, igrad=mid_igrad,
                              iprox=mid_iprox, order=p)
        y = warm.get("y_mid")
        y, _ = aipe_restart(bundle, y_dom,
                            y_dom.center() if y is None else y, gamma,
                            cfg.stall2, cfg.T2, cfg.S)
        warm["y_mid"] = y
        y_hat = np.asarray(y, float)

        with tracker.level("middle"):
            x_hat, out, oracle = _warm_min(
                g_eps, y_hat, True, _dist_to_gap(mu_ucx_g, p, zeta2), warm,
                "x_val")
        with tracker.level("polish"):
            x_t, u_t = polish_step(oracle.grad_operator(), g_eps.x_domain,
                                   x_hat, cfg.L1x_tilde,
                                   Fz=oracle.restrict(out)[1])
            # measured residual at the polished point + Danskin error bound
            z_t = join(x_t, y_hat)
            base_out = g_eps.base.oracle_eval(z_t, p)
            g_at = g_eps.extend(z_t, base_out)[1]
            w = g_at[:dx] + u_t
            # maximizing f_eps(x_t, .) means minimizing -f_eps, whose
            # gradient field at y_hat is -grad_y g_eps (x terms don't enter)
            r_y = y_dom.tangent_residual(y_hat, -g_at[dx:])
        mu_ucy_f = problem_f_eps.mu_y / 2 ** (p - 1)
        dist_y = certified_distance(r_y, mu_ucy_f, p,
                                    mu2=problem_f_eps.mu2_y)
        cert = prox_certificate(x_bar, x_t, u_t,
                                float(np.linalg.norm(w))
                                + cfg.L1_tilde * dist_y, gamma, p, cfg.delta)
        if cert.ok:
            break
    return x_t, u_t, cert, (z_t, base_out)


def _check_eps(eps):
    """A residual target must be a finite number > 0: the stop
    residual <= eps can never hold otherwise."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")


def solve(problem: SaddleProblem, eps: float, cfg: MinimaxConfig = None,
          z0=None):
    """Full solve: returns (z_tilde, SolveReport) with the measured tangent
    residual of the ORIGINAL operator at z_tilde; ok means residual <= eps.
    eps must be a finite number > 0 (ValueError otherwise).

    z0 (default: the domain center) is both the starting point and the
    center of the power regularizers.
    """
    t_start = time.perf_counter()
    _check_eps(eps)
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
    mu_ucy = f_eps.mu_y / 2 ** (p - 1)    # the modulus of -f_eps(x, .)
    op_f = problem.operator()
    op_feps = f_eps.operator()
    gap_fn = getattr(problem, "_exact_gap", None)

    warm = {}
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
            y_hat, out, _ = _warm_min(
                f_eps, x, False, _dist_to_gap(mu_ucy, p, cfg.zeta1), warm,
                "y_rec")
        # the first candidate's F comes with the recovery's last query
        candidates = [(y_hat, op_feps.from_tuple(out))]
        if warm.get("y_mid") is not None:
            candidates.append((np.asarray(warm["y_mid"], float), None))
        z_t, r = None, math.inf
        with tracker.level("polish"):
            for y_c, F_c in candidates:
                z_c, _ = polish_step(op_feps, domain, join(x, y_c),
                                     cfg.L1_tilde, Fz=F_c)
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

    def out_ifunc(z, d):
        with tracker.level("outer"):
            return ifunc_igrad_primal(f_eps, z, d, warm, need_grad=False)[0]

    def out_igrad(z, d):
        with tracker.level("outer"):
            return ifunc_igrad_primal(f_eps, z, d, warm)[:2]

    def out_iprox(xb, g, d):
        x_t, u_t, cert, (z_m, base_out) = iprox_phi(
            f_eps, xb, g, cfg, warm=warm, tracker=tracker, flags=flags)
        _keep(warm, "y_out", z_m[problem.dx:], f_eps, x_t,
              f_eps.extend(z_m, base_out))
        if not cert.ok:
            flags.append(f"primal prox certificate: {cert.residual:.3e} > "
                         f"{cert.bound:.3e}")
        return x_t, u_t

    bundle = OracleBundle(ifunc=out_ifunc, igrad=out_igrad,
                          iprox=out_iprox, order=p)
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


def baseline_eg_solve(problem: SaddleProblem, eps: float, q: int = None,
                      max_oracle_calls: int = 10_000_000, z0=None):
    """Plain order-q extragradient on f itself, stopping at measured
    tangent residual <= eps; the comparison baseline for the benchmark.
    eps must be a finite number > 0 (ValueError otherwise)."""
    t_start = time.perf_counter()
    _check_eps(eps)
    q = q or problem.p
    domain = problem.domain
    op = problem.operator()
    M = 2.0 * max(problem.Lp, eps)
    step_cfg = TensorStepConfig(order=q, M=M)
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
    n_steps = 0
    with tracker.level("outer"):
        while problem.oracle_counter - start_count < max_oracle_calls:
            zh = tensor_step(op, domain, z, step_cfg)
            d = float(np.linalg.norm(zh - z))
            Fh = np.asarray(op(zh), float)
            r = float(np.linalg.norm(domain.project_tangent(zh, -Fh)))
            if r < best_r:
                best_z, best_r = zh, r
            if n_steps % 16 == 0 or r <= eps:
                gap = float(gap_fn(zh)) if gap_fn is not None else None
                trace.append((problem.oracle_counter - start_count, r, gap,
                              "outer"))
            n_steps += 1
            if r <= eps:
                break
            if d == 0.0 and q == 2:
                break
            eta = math.factorial(q) / (M * d ** (q - 1))
            z = domain.project(z - eta * Fh)
        else:
            flags.append(f"oracle budget {max_oracle_calls} exhausted at "
                         f"residual {best_r:.3e}")

    ok = best_r <= eps
    report = SolveReport(z=best_z, residual=float(best_r),
                         counts=dict(tracker.counts), trace=trace,
                         wall_time=time.perf_counter() - t_start,
                         flags=flags, ok=ok, method=f"eg-p{q}")
    return best_z, report
