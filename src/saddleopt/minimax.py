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
uniformly convex minimizations (Danskin's rule).  In practical mode every
level stops on measured certificates instead of worst-case iteration
counts, and the outer loop halts as soon as a recovered primal-dual pair
has tangent residual <= eps for the ORIGINAL operator -- which is also
the guarantee the solver reports.
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
    STALL_PATIENCE, OracleBundle, aipe_epoch, aipe_restart, gap_from_residual,
)
from .eg import EgConfig, certified_distance, iprox_psi, polish_step
from .problems import (
    PowerRegularized, SaddleProblem, join, regularize_f_eps, surrogate_g,
)
from .tensor_step import ProxCertificate, TensorStepConfig, tensor_step

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
    T1: int
    T2: int
    T3: int
    S1: int
    S2: int
    S3: int
    delta1: float
    delta2: float
    stall1: float          # outer value-improvement resolution
    stall2: float          # middle value-improvement resolution
    zeta1: float
    zeta2: float
    zeta3: float
    L1_tilde: float        # Lipschitz of the regularized operator
    L1x_tilde: float       # x-side polish constant of g_eps
    L1g_tilde: float       # Lipschitz of the two-sided surrogate operator
    Lpg_tilde: float       # pth-derivative constant of the surrogates
    M_inner: float         # inner extragradient regularization (32 Lpg)
    practical_mode: bool = True

    def __post_init__(self):
        for name in ("eps", "gamma", "mu_x", "mu_y", "delta1", "delta2",
                     "stall1", "stall2", "zeta1", "zeta2", "zeta3",
                     "L1_tilde", "L1x_tilde", "L1g_tilde", "M_inner"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("T1", "T2", "T3", "S1", "S2", "S3"):
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


def derive_parameters(problem: SaddleProblem, eps: float,
                      practical_mode: bool = True) -> MinimaxConfig:
    """All solver constants from the problem's smoothness and geometry.

    The zeta/delta chain is evaluated backwards from eps: zeta1 is the
    primal-dual distance making the final polish residual <= eps/2 (the
    regularizer gradients account for the other eps/2), each later level
    gets a factor-4 safety margin, and the deltas follow the analytic
    scalings delta_i ~ zeta_i^{2(p+2)/(p+1)} / mu^{1/(p+1)} capped at
    eps/100 and floored at 1e-14.
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
    T3 = max(1, math.ceil(
        (2 ** (2 * p + 3) * Lpg / (gamma * math.factorial(p)))
        ** (2.0 / (p + 1))))

    zeta1 = eps / (24.0 * L1t)
    zeta2 = zeta1 / 4.0
    # value improvements smaller than the worst-case value gap of the
    # distance targets are noise; stalls are judged against these
    stall1 = max(mu_x / (p + 1) * zeta1 ** (p + 1), 1e-14)
    stall2 = max(mu_y / (p + 1) * zeta2 ** (p + 1), 1e-14)
    if practical_mode:
        # the measured residual at the recovered pair is the arbiter, so
        # the inner tolerances only need to be eps-scaled, not worst-case
        delta1 = delta2 = eps / 100.0
        zeta3 = max(zeta2 / 20.0, 1e-14)
    else:
        chain_pow = 2.0 * (p + 2) / (p + 1)
        delta1 = max(min(zeta1 ** chain_pow / mu_x ** (1.0 / (p + 1)),
                         eps / 100.0), 1e-14)
        delta2 = max(min(zeta2 ** chain_pow / mu_y ** (1.0 / (p + 1)),
                         eps / 100.0), 1e-14)
        # inner distance so the dual prox certificate can close: both the
        # polished residual 6 L zeta3 and the Danskin error from the
        # certified x-distance must stay below delta2
        mu_ucx_g = (gamma + mu_x) / 2 ** (p - 1)
        z3_resid = delta2 / (12.0 * L1g)
        z3_danskin = (2.0 * mu_ucx_g / (p + 1)) \
            * (delta2 / (2.0 * L1g)) ** p / (6.0 * L1g)
        zeta3 = max(min(zeta2 / 4.0, z3_resid, z3_danskin), 1e-14)

    S1 = max(1, math.ceil(math.log2(max(4.0 * L1t * DZ / eps, 2.0))))
    S2 = S1
    S3 = max(1, math.ceil(math.log2(max(DZ / zeta3, 2.0))) + 2)
    return MinimaxConfig(
        eps=eps, p=p, gamma=gamma, mu_x=mu_x, mu_y=mu_y,
        T1=T1, T2=T2, T3=T3, S1=S1, S2=S2, S3=S3,
        delta1=delta1, delta2=delta2, stall1=stall1, stall2=stall2,
        zeta1=zeta1, zeta2=zeta2, zeta3=zeta3,
        L1_tilde=L1t, L1x_tilde=L1x, L1g_tilde=L1g, Lpg_tilde=Lpg,
        # the contraction analysis wants 32 Lp; measured-stopping runs are
        # stable (and ~8x faster) at the much smaller regularization
        M_inner=(4.0 if practical_mode else 32.0) * Lpg,
        practical_mode=practical_mode)


def _dist_to_gap(mu: float, p: int, dist: float) -> float:
    """Value target guaranteeing a distance target under uniform
    convexity h - h* >= (mu/(p+1)) dist^{p+1}."""
    return max(mu / (p + 1) * dist ** (p + 1), 1e-16)


def _inner_min(oracle, target_gap, warm, max_iters=20_000):
    """Uniformly convex restricted minimization for the envelope oracles.

    Accelerated projected gradient with gradient-based adaptive restart;
    stops once the tangent residual certifies a gap below target_gap
    through gradient domination, or when the residual stops improving
    (the flat directions of a weakly regularized subproblem eventually
    hit oracle resolution).  Returns the best certified point seen.
    """
    dom = oracle.domain
    p = oracle.p
    x = dom.project(np.asarray(warm if warm is not None else dom.center(),
                               float))
    L = max(oracle.Lp, 1e-8)
    if p == 2:
        # the quadratic upper model needs a gradient-Lipschitz constant;
        # start from local curvature and let backtracking correct it
        L = max(float(np.linalg.norm(oracle.hess(x), 2)), 1e-8)
    w = x.copy()
    t = 1.0
    best_x, best_r = x, math.inf
    since_improve = 0
    for k in range(max_iters):
        g_w = np.asarray(oracle.grad(w), float)
        if p == 1:
            x_new = dom.project(w - g_w / L)
        else:
            f_w = float(oracle.value(w))
            for _ in range(60):
                x_new = dom.project(w - g_w / L)
                d = x_new - w
                f_new = float(oracle.value(x_new))
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
            r = dom.tangent_residual(x, np.asarray(oracle.grad(x), float))
            if r < 0.9 * best_r:
                best_x, best_r, since_improve = x, r, 0
            else:
                if r < best_r:
                    best_x, best_r = x, r
                since_improve += 1
            if gap_from_residual(r, oracle.mu, p) <= target_gap:
                return x
            if since_improve >= 25:
                break
    return best_x


def ifunc_igrad_primal(problem_f_eps: PowerRegularized, x, delta: float,
                       L1_bound: float = None, warm=None,
                       need_grad: bool = True):
    """Inexact value and gradient of Phi(x) = max_y f_eps(x, y).

    The inner maximization runs to a value target of delta for the value;
    a gradient call needs the maximizer to distance delta/L1, which a
    (p+1)-uniformly concave objective converts into a (much tighter)
    value target.  Returns (value, gradient, y_hat) with y_hat intended
    for warm-starting the next call.
    """
    x = np.asarray(x, float)
    oracle = problem_f_eps.y_function(x)   # convex: minimizes -f_eps(x, .)
    p = problem_f_eps.p
    if need_grad:
        L1_bound = L1_bound or problem_f_eps.L1
        target = min(delta, _dist_to_gap(oracle.mu, p, delta / L1_bound))
    else:
        target = max(delta, 1e-16)
    y_hat = _inner_min(oracle, target, warm)
    val, grad = problem_f_eps.oracle_eval(join(x, y_hat), 1)
    dx = problem_f_eps.dx
    return float(val), np.asarray(grad, float)[:dx], y_hat


def iprox_phi(problem_f_eps: PowerRegularized, x_bar, gamma: float,
              delta1: float, cfg: MinimaxConfig, warm: dict = None,
              tracker: CountTracker = None):
    """Inexact proximal oracle for the primal envelope at x_bar.

    Runs the middle-loop acceleration on the dual envelope of g_eps =
    f_eps + (gamma/(p+1))||x - x_bar||^{p+1}, then recovers the primal
    minimizer at the returned dual point and polishes it.  Returns
    (x_tilde, u_tilde, certificate); the certificate residual adds a
    Danskin-error bound (from the measured dual-side residual) to the
    directly measured polished gradient.
    """
    x_bar = np.asarray(x_bar, float)
    p = cfg.p
    warm = warm if warm is not None else {}
    tracker = tracker or CountTracker(problem_f_eps.base)
    g_eps = surrogate_g(problem_f_eps, x_bar, gamma)
    dx = g_eps.dx
    y_dom = g_eps.y_domain
    mu_ucx_g = g_eps.mu_x / 2 ** (p - 1)
    flags = []
    # practical mode ends stalled epochs and restart loops early
    patience = STALL_PATIENCE if cfg.practical_mode else None
    zeta2, zeta3 = cfg.zeta2, cfg.zeta3

    for attempt in range(2):
        def mid_ifunc(y, d):
            with tracker.level("middle"):
                oracle = g_eps.x_function(np.asarray(y, float))
                x_hat = _inner_min(oracle, max(d, 1e-16),
                                   warm.get("x_val"))
                warm["x_val"] = x_hat
                return -float(g_eps.oracle_eval(join(x_hat, y), 0)[0])

        def mid_igrad(y, d):
            with tracker.level("middle"):
                y = np.asarray(y, float)
                oracle = g_eps.x_function(y)
                target = min(max(d, 1e-16),
                             _dist_to_gap(mu_ucx_g, p, d / cfg.L1g_tilde))
                x_hat = _inner_min(oracle, target, warm.get("x_val"))
                warm["x_val"] = x_hat
                g_full = g_eps.oracle_eval(join(x_hat, y), 1)[1]
                return -np.asarray(g_full, float)[dx:]

        def mid_iprox(yb, g, d):
            with tracker.level("inner"):
                z0 = None
                if warm.get("x_val") is not None:
                    z0 = join(warm["x_val"], np.asarray(yb, float))
                eg_cfg = EgConfig(M=cfg.M_inner, zeta3=zeta3,
                                  T3=None if cfg.practical_mode else cfg.T3,
                                  adaptive_stop=cfg.practical_mode)
                y_t, v_t, cert = iprox_psi(g_eps, x_bar, yb, g, cfg.delta2,
                                           eg_cfg, z0=z0)
            if not cert.ok:
                flags.append(f"dual prox certificate: {cert.residual:.3e} "
                             f"> {cert.bound:.3e}")
                if cfg.practical_mode:
                    return y_t, v_t   # diagnostics only; keep going
            return y_t, v_t, cert

        bundle = OracleBundle(ifunc=mid_ifunc, igrad=mid_igrad,
                              iprox=mid_iprox, order=p)
        y = warm.get("y_mid")
        y, info = aipe_restart(bundle, y_dom,
                               y_dom.center() if y is None else y, gamma,
                               cfg.stall2, cfg.T2, cfg.S2,
                               stall_patience=patience)
        flags += [st.note for st in info["traces"] if st.aborted]
        warm["y_mid"] = y
        y_hat = np.asarray(y, float)

        with tracker.level("middle"):
            oracle = g_eps.x_function(y_hat)
            x_hat = _inner_min(oracle, _dist_to_gap(mu_ucx_g, p, zeta2),
                               warm.get("x_val"))
            warm["x_val"] = x_hat
        with tracker.level("polish"):
            gx = np.asarray(
                g_eps.oracle_eval(join(x_hat, y_hat), 1)[1], float)[:dx]
            x_dom = g_eps.x_domain
            x_t = x_dom.project(x_hat - gx / cfg.L1x_tilde)
            u_t = cfg.L1x_tilde * (x_hat - x_t) - gx
            # measured residual at the polished point + Danskin error bound
            g_at = np.asarray(
                g_eps.oracle_eval(join(x_t, y_hat), 1)[1], float)
            w = g_at[:dx] + u_t
            # maximizing f_eps(x_t, .) means minimizing -f_eps, whose
            # gradient field at y_hat is -grad_y g_eps (x terms don't enter)
            r_y = y_dom.tangent_residual(y_hat, -g_at[dx:])
        mu_ucy_f = problem_f_eps.mu_y / 2 ** (p - 1)
        dist_y = certified_distance(r_y, mu_ucy_f, p,
                                    mu2=problem_f_eps.mu2_y)
        s = float(np.linalg.norm(x_t - x_bar))
        lam = gamma * s ** (p - 1)
        residual = float(np.linalg.norm(w)) + cfg.L1_tilde * dist_y
        bound = 0.5 * lam * s + delta1
        cert = ProxCertificate(z=x_t, u=u_t, lam=lam, residual=residual,
                               bound=bound, delta=delta1,
                               ok=residual <= bound)
        if cert.ok or attempt == 1:
            return x_t, u_t, cert
        zeta2, zeta3 = zeta2 / 10.0, zeta3 / 10.0
    return x_t, u_t, cert  # pragma: no cover


def solve(problem: SaddleProblem, eps: float, cfg: MinimaxConfig = None,
          z0=None):
    """Full solve: returns (z_tilde, SolveReport) with the measured tangent
    residual of the ORIGINAL operator at z_tilde; ok means residual <= eps.

    z0 (default: the domain center) is both the starting point and the
    center of the power regularizers.
    """
    t_start = time.perf_counter()
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
            oracle = f_eps.y_function(x)
            y_hat = _inner_min(oracle,
                               _dist_to_gap(oracle.mu, p, cfg.zeta1),
                               warm.get("y_rec"))
            warm["y_rec"] = y_hat
        candidates = [y_hat]
        if warm.get("y_mid") is not None:
            candidates.append(np.asarray(warm["y_mid"], float))
        z_t, r = None, math.inf
        with tracker.level("polish"):
            for y_c in candidates:
                z_c, _ = polish_step(op_feps, domain, join(x, y_c),
                                     cfg.L1_tilde)
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
        return cfg.practical_mode and r <= eps

    def out_ifunc(z, d):
        with tracker.level("outer"):
            val, _, y = ifunc_igrad_primal(f_eps, z, d, cfg.L1_tilde,
                                           warm.get("y_out"),
                                           need_grad=False)
            warm["y_out"] = y
            return val

    def out_igrad(z, d):
        with tracker.level("outer"):
            _, g, y = ifunc_igrad_primal(f_eps, z, d, cfg.L1_tilde,
                                         warm.get("y_out"))
            warm["y_out"] = y
            return g

    def out_iprox(xb, g, d):
        x_t, u_t, cert = iprox_phi(f_eps, xb, g, cfg.delta1, cfg, warm=warm,
                                   tracker=tracker)
        if not cert.ok:
            flags.append(f"primal prox certificate: {cert.residual:.3e} > "
                         f"{cert.bound:.3e}")
            if cfg.practical_mode:
                return x_t, u_t
        return x_t, u_t, cert

    bundle = OracleBundle(ifunc=out_ifunc, igrad=out_igrad,
                          iprox=out_iprox, order=p)
    patience = STALL_PATIENCE if cfg.practical_mode else None
    with tracker.level("outer"):
        x, info = aipe_restart(bundle, problem.x_domain, z0[:problem.dx],
                               cfg.gamma, cfg.stall1, cfg.T1, cfg.S1,
                               stall_patience=patience, probe=probe)
        flags += [st.note for st in info["traces"] if st.aborted]
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
    tangent residual <= eps; the comparison baseline for the benchmark."""
    t_start = time.perf_counter()
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
