import math
from dataclasses import replace

import numpy as np
import pytest

from saddleopt import eg, minimax
from saddleopt.aipe import gap_from_residual
from saddleopt.geometry import Box, norm
from saddleopt.minimax import (
    CountTracker, Envelope, MinimaxConfig, baseline_eg_solve,
    derive_parameters, ifunc_igrad_primal, iprox_phi, solve,
)
from saddleopt.problems import (
    SaddleProblem, hard_instance, join, make_bilinear,
    make_power, make_quadratic, regularize_f_eps, split, surrogate_g,
)
from saddleopt.tensor_step import ProxAnswer, TensorStepConfig, tensor_step


def unit_square_problem():
    """f = x*y on [0,1]^2: Dx = Dy = 1 for parameter-formula checks."""
    box = Box([0.0], [1.0])
    return SaddleProblem(box, box, 1,
                         value=lambda z: z[0] * z[1],
                         grad=lambda z: np.array([z[1], z[0]]),
                         L1=1.0, Lp=1.0, name="xy-unit")


def danskin_problem(dim=3, seed=0, mu=0.05):
    """f = x'Ay + b'x - ||y||^2/2 on boxes wide enough that the inner
    maximizer stays interior; with the y-regularizer mu at y0 = 0 the
    envelope has the closed form Phi(x) = ||A'x||^2/(2(1+mu)) + b'x."""
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.4, size=(dim, dim))
    b = rng.normal(scale=0.2, size=dim)
    xdom = Box(-np.ones(dim), np.ones(dim))
    ydom = Box(-5 * np.ones(dim), 5 * np.ones(dim))

    def value(z):
        x, y = split(z, dim)
        return float(x @ A @ y + b @ x - 0.5 * y @ y)

    def grad(z):
        x, y = split(z, dim)
        return join(A @ y + b, A.T @ x - y)

    L1 = float(np.linalg.norm(A, 2)) + 1.0
    prob = SaddleProblem(xdom, ydom, 1, value, grad, L1=L1, Lp=L1,
                         name="danskin")
    f_eps = regularize_f_eps(prob, prob.domain.center(), mu, mu)
    scale = 1.0 / (1.0 + mu)

    def phi(x):
        w = A.T @ x
        return 0.5 * scale * w @ w + b @ x + 0.5 * mu * np.sum((x - 0.0) ** 2)

    def phi_grad(x):
        return scale * (A @ (A.T @ x)) + b + mu * x

    return prob, f_eps, phi, phi_grad, A


def reference_saddle_g(g_eps, iters=300_000):
    op = g_eps.operator()
    dom = g_eps.domain
    eta = 0.2 / g_eps.L1
    z = dom.center()
    for _ in range(iters):
        w = dom.project(z - eta * op(z))
        z_new = dom.project(z - eta * op(w))
        if np.linalg.norm(z_new - z) < 1e-15:
            return z_new
        z = z_new
    return z


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

def test_parameters_unit_square_frozen_values():
    prob = unit_square_problem()
    cfg = derive_parameters(prob, 0.04)
    # mu = eps / (4 D^p) with D = 1
    assert cfg.mu_x == pytest.approx(0.01)
    assert cfg.mu_y == pytest.approx(0.01)
    # Lp dominates the eps/D^p floor, so gamma echoes Lp
    assert cfg.gamma == pytest.approx(1.0)
    # p=1 polish constant of f_eps: L1 + max regularizer strength
    f_eps = regularize_f_eps(prob, prob.domain.center(), cfg.mu_x, cfg.mu_y)
    assert f_eps.L1 == pytest.approx(1.0 + 0.01)
    assert cfg.zeta2 == pytest.approx(0.04 / (96 * 1.01))


def test_parameters_gamma_floor_for_degenerate_lp():
    box = Box([0.0], [1.0])
    prob = SaddleProblem(box, box, 1,
                         value=lambda z: 0.0,
                         grad=lambda z: np.zeros(2),
                         L1=1.0, Lp=0.0, name="flat")
    cfg = derive_parameters(prob, 0.01)
    assert cfg.gamma == pytest.approx(0.01)  # eps / min(Dx, Dy)^p


def test_parameters_precision_precondition():
    prob = unit_square_problem()   # Lp = 1, min D^p = 1
    with pytest.raises(ValueError, match="precondition"):
        derive_parameters(prob, 2.0)
    cfg = derive_parameters(prob, 0.999)   # boundary side that is allowed
    assert cfg.delta == 0.999 / 100.0


def test_parameters_positive_and_validated():
    prob = make_quadratic(3, seed=0)
    cfg = derive_parameters(prob, 1e-3)
    for name in ("gamma", "mu_x", "mu_y", "delta",
                 "zeta2", "zeta3", "stall1", "stall2"):
        assert getattr(cfg, name) > 0
    assert cfg.T1 >= 1 and cfg.S >= 1
    with pytest.raises(ValueError):
        MinimaxConfig(**{**cfg.__dict__, "gamma": 0.0})


# ---------------------------------------------------------------------------
# oracle accounting
# ---------------------------------------------------------------------------

def test_count_tracker_nested_attribution():
    # each burn asks at a new point, so each question is one evaluation
    prob = make_quadratic(2, seed=3)
    tr = CountTracker(prob)
    rng = np.random.default_rng(3)

    def burn(n):
        for _ in range(n):
            prob.oracle_eval(prob.domain.sample(rng), 1)

    start = prob.oracle_counter
    with tr.level("outer"):
        burn(3)
        with tr.level("middle"):
            burn(5)
            with tr.level("inner"):
                burn(7)
            burn(2)
        with tr.level("polish"):
            burn(1)
        burn(4)
    assert tr.counts == {"outer": 7, "middle": 7, "inner": 7, "polish": 1}
    assert sum(tr.counts.values()) == prob.oracle_counter - start


def test_count_tracker_random_nesting_sums_exactly():
    rng = np.random.default_rng(0)
    prob = make_quadratic(2, seed=4)
    tr = CountTracker(prob)
    z = prob.domain.center()
    start = prob.oracle_counter
    levels = ["outer", "middle", "inner", "polish"]

    def run(depth):
        for _ in range(int(rng.integers(0, 4))):
            prob.oracle_eval(z, 0)
        if depth < 3:
            for _ in range(int(rng.integers(0, 3))):
                with tr.level(levels[int(rng.integers(0, 4))]):
                    run(depth + 1)

    with tr.level("outer"):
        run(0)
    assert sum(tr.counts.values()) == prob.oracle_counter - start


# ---------------------------------------------------------------------------
# envelope value/gradient oracle
# ---------------------------------------------------------------------------

def test_ifunc_igrad_matches_closed_form_danskin():
    prob, f_eps, phi, phi_grad, A = danskin_problem(dim=3, seed=1)
    env = Envelope(f_eps, False)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = prob.x_domain.sample(rng)
        val, grad = ifunc_igrad_primal(env, x, 1e-9)
        y_hat = env.pt
        assert val == pytest.approx(phi(x), abs=1e-6)
        assert np.linalg.norm(grad - phi_grad(x)) <= 1e-5
        # the maximizer env keeps matches A'x/(1+mu)
        assert np.linalg.norm(y_hat - A.T @ x / 1.05) <= 1e-5


def test_ifunc_igrad_matches_closed_form_x_side():
    """The middle loop's side: for f = ||x||^2/2 + x'Ay - c'y with the
    mu-regularizers at 0, the minimizer of f_eps(., y) is -Ay/(1+mu) and
    the envelope -min_x f_eps(x, y) is ||Ay||^2/(2(1+mu)) + c'y +
    (mu/2)||y||^2, whose gradient -grad_y f_eps at the minimizer is
    A'Ay/(1+mu) + c + mu y."""
    dim, mu = 3, 0.05
    rng = np.random.default_rng(4)
    A = rng.normal(scale=0.4, size=(dim, dim))
    c = rng.normal(scale=0.2, size=dim)
    xdom = Box(-5 * np.ones(dim), 5 * np.ones(dim))
    ydom = Box(-np.ones(dim), np.ones(dim))

    def value(z):
        x, y = split(z, dim)
        return float(0.5 * x @ x + x @ A @ y - c @ y)

    def grad(z):
        x, y = split(z, dim)
        return join(x + A @ y, A.T @ x - c)

    L1 = float(np.linalg.norm(A, 2)) + 1.0
    prob = SaddleProblem(xdom, ydom, 1, value, grad, L1=L1, Lp=L1,
                         name="danskin-x")
    f_eps = regularize_f_eps(prob, prob.domain.center(), mu, mu)
    env = Envelope(f_eps, True)
    for _ in range(5):
        y = ydom.sample(rng)
        val, grad_y = ifunc_igrad_primal(env, y, 1e-9)
        x_hat = env.pt
        w = A @ y
        assert val == pytest.approx(w @ w / (2 * (1 + mu)) + c @ y
                                    + 0.5 * mu * y @ y, abs=1e-6)
        assert np.linalg.norm(grad_y - (A.T @ w / (1 + mu) + c + mu * y)) \
            <= 1e-5
        assert np.linalg.norm(x_hat + w / (1 + mu)) <= 1e-5


def test_ifunc_warm_start_returns_same_point():
    prob, f_eps, phi, _, _ = danskin_problem(dim=2, seed=5)
    x = np.array([0.3, -0.4])
    env = Envelope(f_eps, False)
    v1, _ = ifunc_igrad_primal(env, x, 1e-10)
    y1 = env.pt
    v2, _ = ifunc_igrad_primal(env, x, 1e-10)
    y2 = env.pt
    assert np.allclose(y1, y2, atol=1e-8)
    assert v2 == pytest.approx(v1, abs=1e-9)


# ---------------------------------------------------------------------------
# the primal proximal oracle (middle loop)
# ---------------------------------------------------------------------------

def test_iprox_phi_tracks_surrogate_saddle():
    prob = make_bilinear(3, seed=1)
    cfg = derive_parameters(prob, 1e-3)
    f_eps = regularize_f_eps(prob, prob.domain.center(), cfg.mu_x, cfg.mu_y)
    x_bar = np.array([0.3, -0.2, 0.5])
    g_eps = surrogate_g(f_eps, x_bar, cfg.gamma)
    x_star, _ = split(reference_saddle_g(g_eps), prob.dx)
    ans = iprox_phi(f_eps, x_bar, cfg.gamma, cfg, None, CountTracker(prob),
                    [])
    x_t, u_t = ans.point, ans.normal
    assert np.linalg.norm(x_t - x_star) <= 1e-3
    assert prob.x_domain.contains(x_t)
    # u lies in the normal cone: nonpositive against feasible directions
    rng = np.random.default_rng(3)
    for _ in range(10):
        xp = prob.x_domain.sample(rng)
        assert u_t @ (xp - x_t) <= 1e-8 * max(1.0, np.linalg.norm(u_t))


def test_iprox_phi_certificate_battery():
    for seed in range(6):
        prob = make_quadratic(2, seed=seed)
        cfg = derive_parameters(prob, 0.05)
        f_eps = regularize_f_eps(prob, prob.domain.center(),
                                 cfg.mu_x, cfg.mu_y)
        rng = np.random.default_rng(100 + seed)
        x_bar = prob.x_domain.sample(rng)
        cert = iprox_phi(f_eps, x_bar, cfg.gamma, cfg, None,
                         CountTracker(prob), []).certificate
        assert cert.ok, (seed, cert.residual, cert.bound)
        assert cert.residual <= cert.bound


def test_iprox_phi_retries_a_failed_certificate_with_tighter_zeta3(
        monkeypatch):
    # the package's one certificate retry: a failed primal certificate
    # reruns the middle loop, and each inner prox of the rerun gets
    # zeta3 ten times tighter
    restarts, zetas = [], []
    real_restart, real_psi = minimax.aipe_restart, minimax.iprox_psi
    real_cert = minimax.prox_certificate

    def restart(*args, **kwargs):
        restarts.append(args)
        return real_restart(*args, **kwargs)

    def psi(g_eps, y_bar, gamma, delta, M, zeta3, **kwargs):
        zetas.append((len(restarts), zeta3))
        return real_psi(g_eps, y_bar, gamma, delta, M, zeta3, **kwargs)

    def first_fails(*args, **kwargs):
        cert = real_cert(*args, **kwargs)
        return replace(cert, ok=False) if len(restarts) == 1 else cert

    monkeypatch.setattr(minimax, "aipe_restart", restart)
    monkeypatch.setattr(minimax, "iprox_psi", psi)
    monkeypatch.setattr(minimax, "prox_certificate", first_fails)
    prob = make_quadratic(2, seed=0)
    cfg = derive_parameters(prob, 0.05)
    f_eps = regularize_f_eps(prob, prob.domain.center(), cfg.mu_x, cfg.mu_y)
    x_bar = prob.x_domain.sample(np.random.default_rng(100))
    iprox_phi(f_eps, x_bar, cfg.gamma, cfg, None, CountTracker(prob), [])
    assert len(restarts) == 2
    assert {run for run, _ in zetas} == {1, 2}
    assert all(z == (cfg.zeta3 if run == 1 else cfg.zeta3 / 10.0)
               for run, z in zetas)


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def test_solve_bilinear_reaches_target():
    prob = make_bilinear(3, seed=1)
    z, rep = solve(prob, 1e-3)
    assert rep.ok
    assert rep.residual <= 1e-3
    assert prob.domain.contains(z)
    # independent residual measurement at the returned point
    op = prob.operator()
    assert prob.domain.tangent_residual(z, op(z)) == pytest.approx(
        rep.residual, rel=1e-9)


def test_solve_quadratic_and_power():
    for maker, kw in [(make_quadratic, {}), (make_power, {"p": 2})]:
        prob = maker(3, seed=1, **kw)
        z, rep = solve(prob, 1e-3)
        assert rep.ok and rep.residual <= 1e-3
        assert not rep.flags


def test_solve_reports_failed_dual_prox_certificate(monkeypatch):
    # the middle level's flags reach the report, not just the outer ones
    real = minimax.iprox_psi
    calls = []

    def first_fails(*args, **kwargs):
        ans = real(*args, **kwargs)
        calls.append(ans.certificate)
        if len(calls) == 1:
            ans = ans._replace(certificate=replace(ans.certificate, ok=False))
        return ans

    monkeypatch.setattr(minimax, "iprox_psi", first_fails)
    z, rep = solve(make_quadratic(2, seed=8), 1e-2)
    assert calls
    assert any(f.startswith("dual prox certificate") for f in rep.flags)


@pytest.mark.parametrize("problem, eps, z0", [
    (make_quadratic(3, 1, 0), 4e-2, None),
    (make_power(3, 2, 5), 1e-2, np.full(6, 0.1)),
], ids=["quadratic", "power"])
def test_prox_answers_are_read_by_name(monkeypatch, problem, eps, z0):
    # both prox oracles answer with a ProxAnswer, whose certificate is
    # also its item 2, where perfbench/tracer.py reads it.  iprox_psi's
    # point is its start's y block; every normal lies in the normal cone
    # at its point; iprox_phi runs no capped inner run, so it is certified
    answers = []
    for name in ("iprox_psi", "iprox_phi"):
        def wrapped(*args, real=getattr(minimax, name), name=name, **kwargs):
            answers.append((name, real(*args, **kwargs)))
            return answers[-1][1]

        monkeypatch.setattr(minimax, name, wrapped)
    _, rep = solve(problem, eps, z0=z0)
    assert rep.ok
    assert {name for name, _ in answers} == {"iprox_psi", "iprox_phi"}
    for name, ans in answers:
        assert isinstance(ans, ProxAnswer) and ans[2] is ans.certificate
        assert isinstance(ans.certified, bool)
        if name == "iprox_psi":
            assert ans.point.tobytes() == ans.start[problem.dx:].tobytes()
            domain = problem.y_domain
        else:
            assert ans.certified
            domain = problem.x_domain
        t = domain.project_tangent(ans.point, ans.normal)
        assert norm(t) <= 1e-12 * max(1.0, norm(ans.normal))


def test_solve_accounting_identity():
    prob = make_quadratic(3, seed=2)
    start = prob.oracle_counter
    z, rep = solve(prob, 1e-2)
    assert sum(rep.counts.values()) == prob.oracle_counter - start
    assert set(rep.counts) == {"outer", "middle", "inner", "polish"}
    assert all(v >= 0 for v in rep.counts.values())
    # trace call counts are cumulative and end at the total
    calls = [row[0] for row in rep.trace]
    assert calls == sorted(calls)
    assert calls[-1] <= sum(rep.counts.values())


def test_outer_level_counts_only_the_outer_envelope(monkeypatch):
    # the recovery solves no envelope of its own, so the outer level is
    # the primal envelope's value and gradient solves and nothing else
    problem = make_power(3, 2, 2)
    real = minimax.ifunc_igrad_primal
    used = []

    def ifunc_igrad(env, fixed, delta, need_grad=True):
        before = problem.oracle_counter
        out = real(env, fixed, delta, need_grad)
        if not env.x_side:
            used.append(problem.oracle_counter - before)
        return out

    monkeypatch.setattr(minimax, "ifunc_igrad_primal", ifunc_igrad)
    _, rep = solve(problem, 1e-2, z0=np.full(6, 0.1))
    assert rep.ok
    assert used and sum(used) == rep.counts["outer"]


@pytest.mark.parametrize("problem, eps, z0", [
    (make_power(3, 2, 2), 1e-2, np.full(6, 0.1)),
    (make_quadratic(3, 1, 2), 1e-2, None),
    (make_bilinear(2, 1, 0), 4e-2, None),
])
def test_middle_level_counts_only_its_dual_envelope(monkeypatch, problem, eps,
                                                    z0):
    # iprox_phi opens the middle level once; inside it the inner runs and
    # the recovery polish open their own, so the middle level is the dual
    # envelope's solves and nothing else
    real = Envelope.solve
    used = []

    def env_solve(self, fixed, target_gap):
        before = problem.oracle_counter
        out = real(self, fixed, target_gap)
        if self.x_side:
            used.append(problem.oracle_counter - before)
        return out

    monkeypatch.setattr(Envelope, "solve", env_solve)
    _, rep = solve(problem, eps, z0=z0)
    assert rep.ok
    assert used and sum(used) == rep.counts["middle"]


@pytest.mark.parametrize("T1, S, calls", [(1, 1, 219), (3, 1, 558),
                                          (2, 2, 723)])
def test_solve_measures_each_outer_point_once(monkeypatch, T1, S, calls):
    # the outer probe measures the best point after every iteration, so
    # a loop ended by its T1 cap, a stall or the restart's no-progress
    # exit returns a point already measured: one trace row per outer
    # iteration, the last one at the final call
    real = minimax.aipe_restart
    depth, outer = [0], []

    def restart(*args, **kwargs):
        depth[0] += 1
        try:
            z, traces = real(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            outer.extend(traces)
        return z, traces

    monkeypatch.setattr(minimax, "aipe_restart", restart)
    problem = make_quadratic(3, 1, 0)
    cfg = replace(derive_parameters(problem, 1e-4), T1=T1, S=S)
    _, rep = solve(problem, 1e-4, cfg=cfg)
    assert not any(st.fixed_point for st in outer)
    assert len(rep.trace) == sum(len(st.lam) for st in outer)
    assert rep.trace[-1][0] == sum(rep.counts.values()) == calls


def test_each_recovery_makes_two_polish_queries(monkeypatch):
    # a recovery polishes one pair, one query, and measures the polished
    # pair on f, one more; the rest of the polish level is iprox_phi's
    real = minimax.iprox_phi
    in_phi = []

    def iprox_phi(*args, tracker, **kwargs):
        before = tracker.counts["polish"]
        out = real(*args, tracker=tracker, **kwargs)
        in_phi.append(tracker.counts["polish"] - before)
        return out

    monkeypatch.setattr(minimax, "iprox_phi", iprox_phi)
    _, rep = solve(make_quadratic(3, seed=2), 1e-2)
    assert rep.ok and in_phi
    assert rep.counts["polish"] - sum(in_phi) == 2 * len(rep.trace)


def test_solve_known_saddle_is_detected_fast():
    # the power game's saddle sits at the domain center = starting point
    prob = make_power(3, p=2, seed=0)
    z, rep = solve(prob, 1e-3)
    assert rep.residual <= 1e-12
    assert np.linalg.norm(z - prob.known_saddle) <= 1e-9


def test_envelope_solve_starts_where_iprox_psi_ended(monkeypatch):
    # iprox_psi hands up its polished point, measured by its last query;
    # the envelope solve that follows is at the dual point it returned, so
    # it starts from the inner x block instead of a stale warm point, and
    # its first question, at that same joint point, costs no call
    real_psi, real_min = minimax.iprox_psi, minimax._inner_min
    problem = make_quadratic(2, 1, 0)
    events = []

    def psi(*args, **kwargs):
        out = real_psi(*args, **kwargs)
        events.append(("psi", out.start))
        return out

    def inner_min(oracle, target_gap, warm):
        first = []

        def query(v, order):
            before = problem.oracle_counter
            out = oracle.query(v, order)
            if not first:
                first.append(problem.oracle_counter - before)
            return out

        events.append(("min", warm, first))
        return real_min(replace(oracle, query=query), target_gap, warm)

    monkeypatch.setattr(minimax, "iprox_psi", psi)
    monkeypatch.setattr(minimax, "_inner_min", inner_min)
    _, rep = solve(problem, 3e-2)
    assert rep.ok
    follows = [(a[1], b) for a, b in zip(events, events[1:])
               if a[0] == "psi"]
    assert follows
    for z_hat, (kind, warm, first) in follows:
        assert kind == "min"
        assert warm.tobytes() == z_hat[:problem.dx].tobytes()
        assert first == [0]


@pytest.mark.parametrize("problem, eps, z0, budget", [
    (make_quadratic(3, 1, 0), 4e-2, None, 227),
    (make_power(3, 2, 2), 1e-2, np.full(6, 0.1), 1_750),
    (make_bilinear(2, 1, 0), 4e-2, None, 620),
    (make_bilinear(3, 1, 0), 1e-2, None, 4_750),
    (hard_instance(1, 16), 1e-2, None, 8_500),
    (make_quadratic(3, 1, 0), 1e-4, None, 2_650),
    (make_power(3, 2, 5), 1e-2, np.full(6, 0.1), 1_570),
])
def test_solve_stays_within_its_call_budget(problem, eps, z0, budget):
    # each level starts from what the level below computed and nothing is
    # asked twice, and each inner q=1 step makes one call; re-solving those
    # answers or two-call inner steps cost well over these budgets.  Middle
    # epochs end on the primal prox certificate, not on a five-iteration
    # stall tail, and inner runs end on the dual prox certificate, not only
    # on the residual that certifies zeta3: these budgets are about 1.1x
    # the counts with both exits and leave room for neither tail.  The
    # power(3,2,2) row's tighter budget has a test of its own
    _, rep = solve(problem, eps, z0=z0)
    assert rep.ok
    assert sum(rep.counts.values()) <= budget


def test_power_game_solve_fits_the_tighter_budget():
    # a recovery solves no envelope of its own and inner runs stop on the
    # dual prox certificate, which take this run well under the 1_750 it
    # is held to above
    _, rep = solve(make_power(3, 2, 2), 1e-2, z0=np.full(6, 0.1))
    assert rep.ok
    assert sum(rep.counts.values()) <= 1_220


@pytest.mark.parametrize("problem, eps, z0, budget", [
    (make_quadratic(3, 1, 0), 1e-4, None, 1_900),
    (make_power(3, 2, 5), 1e-3, np.full(6, 0.1), 2_885),
])
def test_envelope_solves_check_their_stop_early(problem, eps, z0, budget):
    # _inner_min also checks its stop at k = 1, 3, 7, 15, so a solve
    # certified after a step or two ends there and does not run on to
    # k = 8: checked at multiples of 8 alone, the quadratic cell takes
    # 2_413 calls; the power cell's budget is its 2_828 calls then plus 2 %
    _, rep = solve(problem, eps, z0=z0)
    assert rep.ok and not rep.flags
    assert sum(rep.counts.values()) <= budget


def test_middle_epochs_stop_on_the_primal_prox_certificate(monkeypatch):
    # a middle epoch ends once the primal prox certificate holds at its
    # best dual point, checked on the iterations that count toward the
    # stall exit; iprox_phi then returns that probe's answer, so it solves
    # its envelope to zeta2 at the dual point it returns exactly once
    problem = make_quadratic(3, 1, 0)
    cfg = derive_parameters(problem, 4e-2)
    real_restart, real_phi = minimax.aipe_restart, minimax.iprox_phi
    real_solve = Envelope.solve
    depth, middle, solves, returned = [0], [], [], []

    def restart(*args, **kwargs):
        depth[0] += 1
        try:
            z, traces = real_restart(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0]:
            middle.extend(traces)
        return z, traces

    def env_solve(self, fixed, target_gap):
        recovery = any(
            target_gap == minimax._dist_to_gap(self.mu, self.view.p, z2)
            for z2 in (cfg.zeta2, cfg.zeta2 / 10.0))
        if self.x_side and recovery:
            solves[-1].append(np.asarray(fixed, float).tobytes())
        return real_solve(self, fixed, target_gap)

    def iprox_phi(*args, **kwargs):
        solves.append([])
        out = real_phi(*args, **kwargs)
        returned.append(out.start[problem.dx:].tobytes())
        return out

    monkeypatch.setattr(minimax, "aipe_restart", restart)
    monkeypatch.setattr(Envelope, "solve", env_solve)
    monkeypatch.setattr(minimax, "iprox_phi", iprox_phi)
    _, rep = solve(problem, 4e-2, cfg=cfg)
    assert rep.ok and returned
    assert any(st.stopped_by_probe for st in middle)
    for at, y in zip(solves, returned):
        assert at.count(y) == 1


def test_solve_flags_an_inner_run_that_ends_uncertified(monkeypatch):
    # inner runs of one step per restart reach their S3*T3 cap before
    # their residual certifies zeta3; each such run is one flag.  The
    # wrapper drops the run's probe, which would otherwise stop it on its
    # dual prox certificate before the cap
    uncertified = []
    real_run = eg.restarted_eg

    def run(*args, probe=None, **kwargs):
        z, tr = real_run(*args, **kwargs)
        uncertified.append(not tr.certified)
        return z, tr

    monkeypatch.setattr(eg, "default_epoch_length", lambda problem, c: 1)
    monkeypatch.setattr(eg, "restarted_eg", run)
    _, rep = solve(make_quadratic(2, 1, 0), 4e-2)
    capped = [f for f in rep.flags if f.startswith("inner run")]
    assert any(uncertified)
    assert len(capped) == sum(uncertified)


def log_probes(monkeypatch):
    """Patches the inner run to log each run's probes and trace: a list of
    (asked, trace), asked holding one (measured, ok) pair per probe in
    the order the run asked them, measured when the probe got past its
    free check to a dual prox certificate."""
    runs, certs = [], []
    real_run, real_cert = eg.restarted_eg, eg.prox_certificate

    def cert(*args, **kwargs):
        certs.append(real_cert(*args, **kwargs))
        return certs[-1]

    def run(*args, probe, **kwargs):
        asked = []

        def logged(zh, t):
            before = len(certs)
            ok = probe(zh, t)
            asked.append((len(certs) > before, ok))
            return ok

        z, tr = real_run(*args, probe=logged, **kwargs)
        runs.append((asked, tr))
        return z, tr

    monkeypatch.setattr(eg, "prox_certificate", cert)
    monkeypatch.setattr(eg, "restarted_eg", run)
    return runs


def test_inner_runs_stop_on_the_dual_prox_certificate(monkeypatch):
    # a run whose last probe returned True stopped on it; iprox_psi hands
    # up that probe's certificate, and the run counts as certified
    runs = log_probes(monkeypatch)
    handed = []
    real_psi = minimax.iprox_psi

    def psi(*args, **kwargs):
        out = real_psi(*args, **kwargs)
        handed.append((runs[-1][0], out.certificate, out.certified))
        return out

    monkeypatch.setattr(minimax, "iprox_psi", psi)
    _, rep = solve(make_quadratic(3, 1, 0), 4e-2)
    assert rep.ok
    stopped = [(cert, certified) for asked, cert, certified in handed
               if asked and asked[-1][1]]
    assert stopped
    for cert, certified in stopped:
        assert cert.ok and certified


def test_iprox_psi_measures_the_point_it_returns_once(monkeypatch):
    # one order-p evaluation at the returned point per iprox_psi, whether
    # a probe made it inside the run or the measurement after the run did;
    # some returned point is a probe's, measured before its run returned
    queries, ends, checks = [], [], []
    real_eval, real_run = SaddleProblem.oracle_eval, eg.restarted_eg
    real_psi = minimax.iprox_psi

    def query(self, z, order):
        before = self.oracle_counter
        out = real_eval(self, z, order)
        if self.oracle_counter > before:
            queries.append((np.asarray(z, float).tobytes(), order))
        return out

    def run(*args, **kwargs):
        out = real_run(*args, **kwargs)
        ends.append(len(queries))
        return out

    def psi(*args, **kwargs):
        start = len(queries)
        out = real_psi(*args, **kwargs)
        key = (out.start.tobytes(), 1)  # the quadratic game has p = 1
        checks.append(([i for i in range(start, len(queries))
                        if queries[i] == key], ends[-1]))
        return out

    monkeypatch.setattr(SaddleProblem, "oracle_eval", query)
    monkeypatch.setattr(eg, "restarted_eg", run)
    monkeypatch.setattr(minimax, "iprox_psi", psi)
    _, rep = solve(make_quadratic(3, 1, 0), 4e-2)
    assert rep.ok and checks
    for at, _ in checks:
        assert len(at) == 1
    assert any(at[0] < end for at, end in checks)


def test_a_failed_measured_probe_does_not_end_the_run(monkeypatch):
    # a half point can pass the free check and still fail the measured
    # certificate; that probe costs its query and the run goes on.  The
    # run asks its i-th probe at its i-th half point
    runs = log_probes(monkeypatch)
    _, rep = solve(make_power(3, 2, 5), 1e-2, z0=np.full(6, 0.1))
    assert rep.ok
    failed = [(i, tr) for asked, tr in runs
              for i, (measured, ok) in enumerate(asked)
              if measured and not ok]
    assert failed
    for i, tr in failed:
        assert len(tr.step_norms) > i + 1


@pytest.mark.parametrize("p, Lp", [(1, 1.0), (2, 0.0)])
def test_inner_min_steps_at_the_curvature_it_measures(monkeypatch, p, Lp):
    # f = (m/2)(x-c)' diag(1, .5, .2) (x-c) is far flatter than its p=1
    # Lp = 1: steps of 1/Lp crawl, steps at the measured curvature do not.
    # At p=2 its Hessian is constant, so Lp = 0 bounds no gradient change,
    # and the steps start at the Hessian's norm; neither order asks a value.
    # f is the x block of a counted problem whose y block is inert
    m = 1e-3
    c = np.array([0.3, -0.5, 0.8])
    diag = np.array([1.0, 0.5, 0.2])
    box = Box(-np.ones(3), np.ones(3))
    prob = SaddleProblem(
        box, Box([0.0], [1.0]), p,
        value=lambda z: 0.5 * m * (z[:3] - c) @ (diag * (z[:3] - c)),
        grad=lambda z: np.append(m * diag * (z[:3] - c), 0.0),
        hess=lambda z: np.diag(np.append(m * diag, 0.0)), L1=1.0, Lp=Lp)
    asked = []
    real_eval = SaddleProblem.oracle_eval

    def logged(self, z, order):
        asked.append(order)
        return real_eval(self, z, order)

    monkeypatch.setattr(SaddleProblem, "oracle_eval", logged)
    oracle = replace(prob.restricted(np.zeros(1), True), mu=0.2 * m)
    x = minimax._inner_min(oracle, 1e-12, None)
    calls = prob.oracle_counter
    r = box.tangent_residual(x, oracle(x))
    assert gap_from_residual(r, oracle.mu, p) <= 1e-12
    assert 0 not in asked
    assert calls <= 100


def test_envelope_solves_end_before_their_iteration_cap(monkeypatch):
    # 20 000 queries would mean an _inner_min ran to its iteration cap
    problem = make_bilinear(3, 1, 0)
    real_min = minimax._inner_min
    used = []

    def inner_min(oracle, target_gap, warm):
        before = problem.oracle_counter
        out = real_min(oracle, target_gap, warm)
        used.append(problem.oracle_counter - before)
        return out

    monkeypatch.setattr(minimax, "_inner_min", inner_min)
    _, rep = solve(problem, 1e-2)
    assert rep.ok and used
    assert max(used) < 20_000


@pytest.mark.parametrize("problem, z0", [
    (make_quadratic(2, 1, 0), None),
    (make_power(2, 2, 0), np.full(4, 0.1)),
    (make_bilinear(2, 1, 0), None),
])
def test_no_query_repeats_the_previous_one(monkeypatch, problem, z0):
    # the oracle remembers its last two evaluations, so no evaluation is
    # at the point of either of the two before it for an order that one
    # already returned, and every evaluation is one counted call
    real_eval = SaddleProblem.oracle_eval
    log = []

    def logged(self, z, order):
        before = self.oracle_counter
        out = real_eval(self, z, order)
        if self.oracle_counter > before:
            log.append((np.asarray(z, float).tobytes(), order))
        return out

    monkeypatch.setattr(SaddleProblem, "oracle_eval", logged)
    _, rep = solve(problem, 3e-2, z0=z0)
    assert rep.ok and len(log) == sum(rep.counts.values())
    repeats = [i for i in range(1, len(log))
               for j in (i - 2, i - 1)
               if j >= 0 and log[i][0] == log[j][0]
               and log[i][1] <= log[j][1]]
    assert not repeats, f"{len(repeats)} of {len(log)} evaluations repeat"


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf, True,
                                 "0.05"])
def test_solvers_reject_bad_eps(eps):
    # residual <= eps can never hold, so the run would go on to its budget
    prob = make_quadratic(2, 1, 0)
    with pytest.raises(ValueError, match="^eps must be a finite number > 0"):
        solve(prob, eps)
    with pytest.raises(ValueError, match="^eps must be a finite number > 0"):
        baseline_eg_solve(prob, eps)
    cfg = derive_parameters(prob, 1e-2)
    with pytest.raises(ValueError, match="^eps must be a finite number > 0"):
        solve(prob, eps, cfg)
    assert prob.oracle_counter == 0


def test_solve_determinism():
    reports = []
    for _ in range(2):
        prob = make_quadratic(3, seed=7)
        z, rep = solve(prob, 1e-2)
        reports.append((z.tobytes(), rep.residual, tuple(rep.trace[-1][:2]),
                        tuple(sorted(rep.counts.items()))))
    assert reports[0] == reports[1]


def test_back_to_back_solves_on_one_problem_report_the_same_counts():
    # each solve starts with an empty oracle memory: the EG baseline from
    # the power game's saddle takes one zero step, one call, every time,
    # and a second AIPE solve on the same object repeats the first
    prob = make_power(3, 2, 0)
    for _ in range(2):
        before = prob.oracle_counter
        _, rep = baseline_eg_solve(prob, 1e-2, z0=np.zeros(6))
        assert rep.ok and rep.counts["outer"] == 1
        assert prob.oracle_counter - before == 1
    prob = make_quadratic(2, 1, 0)
    reports = [solve(prob, 4e-2)[1] for _ in range(2)]
    assert reports[0].counts == reports[1].counts
    assert reports[0].trace == reports[1].trace


def test_solve_report_json_roundtrip():
    import json
    prob = make_quadratic(2, seed=8)
    z, rep = solve(prob, 1e-2)
    blob = json.loads(rep.to_json())
    assert blob["residual"] == rep.residual
    assert blob["total_oracle_calls"] == sum(rep.counts.values())
    assert np.allclose(blob["z"], z)
    assert blob["ok"] is True


# ---------------------------------------------------------------------------
# baseline extragradient
# ---------------------------------------------------------------------------

def hand_rolled_eg(prob, eps):
    """Replay of the p=1 baseline: the first step at M = 2 max(Lp, eps),
    then M <- max(M/2, 2 |F(zh) - F(z)| / |zh - z|); returns the best
    point, its residual and the number of steps."""
    op = prob.operator()
    dom = prob.domain
    M = 2.0 * max(prob.Lp, eps)
    z = dom.center()
    best_z, best_r = z, math.inf
    for k in range(1, 10_000_000):
        zh, Fz = tensor_step(op, dom, z, TensorStepConfig(order=1, M=M))
        d = float(np.linalg.norm(zh - z))
        if d == 0.0:
            r = float(np.linalg.norm(dom.project_tangent(z, -Fz)))
            return (z, r, k) if r < best_r else (best_z, best_r, k)
        Fh = np.asarray(op(zh), float)
        r = float(np.linalg.norm(dom.project_tangent(zh, -Fh)))
        if r < best_r:
            best_z, best_r = zh, r
        if r <= eps:
            return best_z, best_r, k
        z = dom.project(z - (1.0 / M) * Fh)
        M = max(0.5 * M, 2.0 * (float(np.linalg.norm(Fh - Fz)) / d))


def test_baseline_matches_hand_rolled_eg():
    # replay the exact adaptive update rule and compare bit for bit
    prob = make_quadratic(3, seed=9)
    eps = 1e-6
    z_a, rep = baseline_eg_solve(prob, eps)
    best_z, best_r, _ = hand_rolled_eg(make_quadratic(3, seed=9), eps)
    assert np.array_equal(z_a, best_z)
    assert rep.residual == best_r


def test_baseline_runs_through_the_eg_module(monkeypatch):
    # the baseline calls eg.eg_epoch through its module, so a wrapper put
    # on eg (as a tracer installs one) sees its one run
    runs = []
    epoch = eg.eg_epoch

    def counting(*args, **kwargs):
        runs.append(1)
        return epoch(*args, **kwargs)

    monkeypatch.setattr(eg, "eg_epoch", counting)
    prob = make_bilinear(3, 1, 0)
    _, rep = baseline_eg_solve(prob, 1e-2)
    assert rep.ok and len(runs) == 1
    assert prob.oracle_counter == sum(rep.counts.values()) == 354


@pytest.mark.parametrize("make, args, eps", [
    (make_quadratic, (3, 1, 0), 1e-4),
    (make_bilinear, (3, 1, 0), 1e-2),
    (hard_instance, (1, 16), 1e-2),
])
def test_baseline_p1_step_costs_two_calls(make, args, eps):
    # the step-size rule reuses F(z) and F(zh), so k steps cost 2k calls
    _, _, k = hand_rolled_eg(make(*args), eps)
    prob = make(*args)
    _, rep = baseline_eg_solve(prob, eps)
    assert rep.ok
    assert prob.oracle_counter == sum(rep.counts.values()) == 2 * k
    assert rep.trace[-1][0] == 2 * k


@pytest.mark.parametrize("p", [1, 2])
def test_baseline_zero_step_at_saddle(p):
    # the center solves the VI: the first step is zero, and F(center),
    # which the step already has at either order, measures the point
    prob = make_power(2, p, 0)
    z, rep = baseline_eg_solve(prob, 1e-8)
    assert np.array_equal(z, prob.domain.center())
    assert rep.residual == 0.0 and rep.ok and not rep.flags
    assert sum(rep.counts.values()) == prob.oracle_counter == 1
    assert len(rep.trace) == 1 and rep.trace[0][:2] == (1, 0.0)


@pytest.mark.parametrize("problem, eps, budget", [
    (make_bilinear(8, 1, 0), 1e-2, 6_000),
    (hard_instance(1, 16), 1e-2, 60),
])
def test_baseline_stays_within_its_call_budget(problem, eps, budget):
    # each p=1 step is sized from the local Lipschitz constant it measured;
    # the fixed 1/(2 Lp) step costs well over these budgets
    _, rep = baseline_eg_solve(problem, eps)
    assert rep.ok
    assert sum(rep.counts.values()) <= budget


@pytest.mark.parametrize("T, eps, calls", [
    (16, 1e-2, 6), (16, 5e-3, 12), (32, 1e-2, 6), (32, 5e-3, 12),
])
def test_baseline_p2_chain_call_counts(T, eps, calls):
    # the benchmark's hard_new p=2 EG rows: their q=2 steps solve model
    # VIs on the ordered box, so a change to that subsolver shows here
    prob = hard_instance(2, T)
    _, rep = baseline_eg_solve(prob, eps)
    assert rep.ok and rep.residual <= eps
    assert prob.oracle_counter == sum(rep.counts.values()) == calls


@pytest.mark.parametrize("p, budget, calls", [
    pytest.param(p, budget, calls, id=f"{prefix}{budget}-{calls}")
    for p, prefix, rows in (
        (1, "", [(0, 0), (1, 2), (200, 200), (201, 202)]),
        (2, "p2-", [(0, 0), (1, 2), (3, 4), (21, 22)]))
    for budget, calls in rows
])
def test_baseline_budget_flag(p, budget, calls):
    # every step costs two calls at either order, so the budget is a cap
    # of ceil(budget / 2) steps: a budget of 0 takes no step, and the step
    # that meets or passes the budget is the last
    if p == 1:
        prob, eps = make_bilinear(3, seed=0), 1e-12
    else:
        prob, eps = hard_instance(2, 8), 1e-14
    z, rep = baseline_eg_solve(prob, eps, max_oracle_calls=budget)
    assert prob.oracle_counter == sum(rep.counts.values()) == calls
    assert not rep.ok
    assert rep.flags == [f"oracle budget {budget} exhausted at residual "
                         f"{rep.residual:.3e}"]


def test_baseline_quadratic_converges():
    prob = make_quadratic(3, seed=4)
    z, rep = baseline_eg_solve(prob, 1e-5)
    assert rep.ok and rep.residual <= 1e-5
    op = prob.operator()
    assert prob.domain.tangent_residual(z, op(z)) <= 1e-5


# ---------------------------------------------------------------------------
# oracle-count scaling sanity
# ---------------------------------------------------------------------------

def test_tighter_eps_costs_no_fewer_calls():
    costs = []
    for eps in (3e-2, 3e-3):
        prob = make_quadratic(3, seed=11)
        _, rep = solve(prob, eps)
        assert rep.ok
        costs.append(sum(rep.counts.values()))
    assert costs[1] >= costs[0]
