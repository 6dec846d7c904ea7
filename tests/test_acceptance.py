"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, each with its stated tolerance and runtime budget.

Shared independent oracles are imported from the unit-test modules:
brute-force normal-cone residuals (test_geometry), the uniform-convexity
battery (test_problems), plain-EG reference saddles (test_eg), and exact
proximal bundles plus quartic references (test_aipe).
"""

import math
import time

import numpy as np

from test_aipe import (
    certified_gamma, exact_bundle, function_oracle, iprox_via_tensor,
    quad_oracle, quartic_oracle, reference_min, restart_gaps,
)
from test_eg import make_h_eps, reference_saddle, run_epoch
from test_geometry import boundaryish_point, brute_residual, random_domain
from test_problems import uc_battery

from saddleopt.aipe import aipe_restart
from saddleopt.cli import BenchConfig, fit_rate, run_suite
from saddleopt.eg import default_epoch_length, polish_step
from saddleopt.geometry import Box
from saddleopt.lowerbound import experiment_row, residual_floor
from saddleopt.minimax import baseline_eg_solve, derive_parameters, solve
from saddleopt.problems import (
    make_bilinear, make_power, make_quadratic,
    regularize_f_eps, split, surrogate_g, surrogate_h,
)
from saddleopt.tensor_step import TensorStepConfig


def test_criterion_01_tangent_residual_matches_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        dom = random_domain(rng, dim)
        z = boundaryish_point(dom, rng)
        F = rng.normal(scale=3.0, size=dim)
        assert abs(dom.tangent_residual(z, F)
                   - brute_residual(dom, z, F)) <= 1e-8
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_gap_bounded_by_diameter_times_residual():
    for seed in range(100):
        prob = make_bilinear(2 + seed % 3, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        z = prob.domain.project(rng.uniform(-1.3, 1.3, size=2 * prob.dx))
        r = prob.domain.tangent_residual(z, prob.operator()(z))
        gap = prob._exact_gap(z)
        assert gap <= prob.domain.diameter() * r + 1e-10


def test_criterion_03_polish_residual_bounded_by_distance():
    rng = np.random.default_rng(7)
    checked, seed = 0, 0
    while checked < 50:
        prob = make_quadratic(2 + seed % 3, seed=seed)
        seed += 1
        if not hasattr(prob, "known_saddle"):
            continue
        z = prob.domain.sample(rng)
        z_hat, c_hat = polish_step(prob.operator(), prob.domain, z, prob.L1)
        measured = np.linalg.norm(prob.operator()(z_hat) + c_hat)
        dist = np.linalg.norm(z - prob.known_saddle)
        assert measured <= 6.0 * prob.L1 * dist + 1e-9
        checked += 1


def test_criterion_04_tensor_prox_certificate():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    for k in range(100):
        p = 1 + k % 2
        if p == 1:
            dim = int(rng.integers(1, 21))
            A = rng.normal(size=(dim, dim))
            Q = A @ A.T / dim + 0.1 * np.eye(dim)
            b = rng.normal(size=dim)
            Lp = float(np.linalg.norm(Q, 2))
            h = function_oracle(
                lambda z, Q=Q, b=b: 0.5 * z @ Q @ z + b @ z,
                lambda z, Q=Q, b=b: Q @ z + b,
                lambda z, Q=Q: Q.copy(),
                domain=Box([-2.0] * dim, [2.0] * dim), p=1, Lp=Lp, mu=0.0)
        else:
            h = quartic_oracle(dim=int(rng.integers(1, 21)), seed=k)
        cfg = TensorStepConfig(order=p, M=2.0 * h.Lp)
        z_bar = h.domain.sample(rng)
        ans = iprox_via_tensor(h, h.domain, z_bar, certified_gamma(p, h.Lp),
                               cfg)
        cert = ans.certificate
        snorm = np.linalg.norm(ans.point - z_bar)
        assert cert.residual <= 0.5 * cert.lam * snorm + 1e-6
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_uniform_convexity_battery():
    assert uc_battery(n_pairs=1000, slack=1e-9) == 0
    # uniform monotonicity of the regularized operators, 1000 pairs per p
    rng = np.random.default_rng(55)
    for p in (1, 2):
        h = make_h_eps(3, p=p, gamma=0.7, mu=0.3)
        op = h.operator()
        mu_uc = min(h.mu_x, h.mu_y) / 2 ** (p - 1)
        for _ in range(1000):
            z1 = h.domain.sample(rng)
            z2 = h.domain.sample(rng)
            lhs = (np.asarray(op(z1)) - np.asarray(op(z2))) @ (z1 - z2)
            rhs = (2 * mu_uc / (p + 1)) * np.linalg.norm(z1 - z2) ** (p + 1)
            assert lhs >= rhs - 1e-9


def test_criterion_06_inner_epoch_contraction():
    t0 = time.monotonic()
    for p in (1, 2):
        prob = make_quadratic(3, seed=5) if p == 1 \
            else make_power(3, p=2, seed=5)
        z0 = prob.domain.center()
        f_eps = regularize_f_eps(prob, z0, 0.2, 0.2)
        x0, y0 = split(z0, prob.dx)
        h = surrogate_h(surrogate_g(f_eps, x0, prob.Lp), y0,
                        prob.Lp)                    # gamma = Lp
        z_star = reference_saddle(h)
        M = 32.0 * h.Lp
        T3 = default_epoch_length(h, min(h.mu_x, h.mu_y))
        op = h.operator()
        z = h.domain.sample(np.random.default_rng(6))
        for _ in range(10):
            d_before = np.linalg.norm(z - z_star)
            if d_before < 1e-9:
                break
            z, _, _ = run_epoch(op, h.domain, z, M, T3, p)
            assert np.linalg.norm(z - z_star) <= 0.75 * d_before + 1e-12
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_restart_gap_ratio():
    h = quartic_oracle(dim=3, seed=2)
    _, f_star = reference_min(h)
    bundle = exact_bundle(h, h.domain, M=2 * h.Lp, order=2)
    T = math.ceil(8.0 * (h.Lp / h.mu) ** (2.0 / 7.0))
    _, traces = aipe_restart(
        bundle, h.domain, h.domain.sample(np.random.default_rng(3)),
        gamma=h.Lp, delta=0.0, T=T, S=8)
    gaps = restart_gaps(traces, f_star)
    assert len(gaps) >= 2
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 < 1e-12:
            break
        assert g1 <= 0.75 * g0 + 1e-12


END_TO_END_SUITE = [(3, 1, 0), (4, 1, 1), (3, 2, 0)]   # (dim, p, seed)
EPS_GRID = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]


def test_criterion_08_end_to_end_residual_targets():
    t0 = time.monotonic()
    for dim, p, seed in END_TO_END_SUITE:
        for eps in EPS_GRID:
            prob = make_quadratic(dim, p, seed)
            _, rep = solve(prob, eps, derive_parameters(prob, eps))
            assert rep.ok and rep.residual <= eps, \
                f"{prob.name} p={p} eps={eps}: residual {rep.residual}"
            assert not rep.flags, \
                f"{prob.name} p={p} eps={eps}: flags {rep.flags}"
    assert time.monotonic() - t0 < 900.0


def test_criterion_09_rate_separation_p2():
    # power games off-center so the baseline is nontrivial; counts summed
    # over the suite per eps; bands are reported, the hard gate is the
    # slope comparison
    eps_grid = [1e-2, 3e-3, 1e-3]
    totals = {"aipe": dict.fromkeys(eps_grid, 0),
              "eg": dict.fromkeys(eps_grid, 0)}
    for seed in (2, 5, 11):
        for eps in eps_grid:
            z0 = np.full(6, 0.1)
            prob = make_power(3, 2, seed)
            _, rep = baseline_eg_solve(prob, eps, z0=z0)
            assert rep.ok
            totals["eg"][eps] += sum(rep.counts.values())
            prob = make_power(3, 2, seed)
            _, rep = solve(prob, eps, derive_parameters(prob, eps), z0=z0)
            assert rep.ok
            totals["aipe"][eps] += sum(rep.counts.values())
    s_aipe = fit_rate([(e, totals["aipe"][e]) for e in eps_grid]).slope
    s_eg = fit_rate([(e, totals["eg"][e]) for e in eps_grid]).slope
    print(f"\nrate separation: slope(AIPE)={s_aipe:.3f} "
          f"(band <= {4 / 7 + 0.18:.3f}: {s_aipe <= 4 / 7 + 0.18}), "
          f"slope(EG)={s_eg:.3f} (band [{2 / 3 - 0.15:.3f}, "
          f"{2 / 3 + 0.18:.3f}]: {2 / 3 - 0.15 <= s_eg <= 2 / 3 + 0.18})")
    assert s_aipe <= s_eg + 0.05, \
        f"hard failure: slope(AIPE)={s_aipe:.3f} > slope(EG)+0.05={s_eg + 0.05:.3f}"


def test_criterion_10_lower_bound_floors():
    t0 = time.monotonic()
    Ts = [4, 8, 16, 32, 64]
    rows = [experiment_row(1, T) for T in Ts]
    for r in rows:
        assert r["support_violations"] == 0          # (a) zero-respecting
        assert r["base_shift"] == 0.0
        assert r["ratio"] >= 1.0                     # (b) above the floor
    assert abs(residual_floor(3, 1) - 0.25 / math.sqrt(8)) < 1e-12
    xs = [math.log(T) for T in Ts]
    ys = [math.log(r["unit_diameter_residual"]) for r in rows]
    mx, my = np.mean(xs), np.mean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)
    assert slope <= -0.9                             # (c) decay rate
    assert time.monotonic() - t0 < 120.0


def test_criterion_11_accounting_and_determinism(tmp_path):
    # per-loop splits sum exactly to the oracle-counter delta
    for solver in ("minimax_aipe", "eg_baseline"):
        prob = make_quadratic(3, 1, 0)
        before = prob.oracle_counter
        if solver == "minimax_aipe":
            _, rep = solve(prob, 1e-2, derive_parameters(prob, 1e-2))
        else:
            _, rep = baseline_eg_solve(prob, 1e-2)
        assert sum(rep.counts.values()) == prob.oracle_counter - before
    # byte-identical outputs for identical seed/config
    cfg = BenchConfig(problems=[{"problem": "quadratic", "dim": 2, "p": 1},
                                {"problem": "power", "dim": 2, "p": 1}],
                      eps_grid=[1e-2, 3e-3], seeds=[3])
    run_suite(cfg, str(tmp_path / "a"))
    run_suite(cfg, str(tmp_path / "b"))
    for f in sorted((tmp_path / "a").iterdir()):
        if f.suffix == ".csv":
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
