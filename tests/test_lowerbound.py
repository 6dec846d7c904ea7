"""Tests for the algorithm-class replay and residual-floor experiments."""

import math

import numpy as np
import pytest

from saddleopt.lowerbound import (AlgClassRun, SpanViolation, StepSpec,
                                  anchored_eg_schedule, best_residual,
                                  check_run, experiment_row,
                                  residual_floor, run_alg_class,
                                  support_violation)
from saddleopt.problems import hard_instance, join


# ---------------------------------------------------------------------------
# floors
# ---------------------------------------------------------------------------

def test_frozen_floor_values():
    # T=3, p=1, Lp=1: gap floor 1/4, diameter sqrt(8)
    assert residual_floor(3, 1) == pytest.approx(0.25 / math.sqrt(8.0),
                                                 rel=1e-15)
    assert residual_floor(3, 1) == pytest.approx(0.0883883476, abs=1e-9)


def test_floor_matches_exponent_form():
    # independent form: Lp (DZ/sqrt2)^{p+1} / (2^{p+1} p! (T+1)^{(3p-1)/2} DZ)
    for T in (1, 3, 7, 20):
        for p in (1, 2):
            dz = math.sqrt(2.0 * (T + 1))
            ref = (dz / math.sqrt(2.0)) ** (p + 1) / (
                2 ** (p + 1) * math.factorial(p)
                * (T + 1) ** ((3 * p - 1) / 2.0) * dz)
            assert residual_floor(T, p) == pytest.approx(ref, rel=1e-12)


def test_floor_input_validation():
    with pytest.raises(ValueError):
        residual_floor(0, 1)
    with pytest.raises(ValueError):
        residual_floor(3, 0)


def test_zero_iterate_residual_exceeds_floor():
    # at z=0 the only nonzero operator block is the y-gradient cst*e1, and
    # moving along +e1 is feasible from y=0, so r(0) = Lp/(2^{p+1} p!)
    for p in (1, 2):
        for T in (3, 8):
            prob = hard_instance(p, T)
            op = prob.operator()
            z0 = np.zeros(2 * (T + 1))
            r0 = prob.domain.tangent_residual(z0, op(z0))
            cst = 1.0 / (2 ** (p + 1) * math.factorial(p))
            assert r0 == pytest.approx(cst, rel=1e-12)
            assert r0 >= residual_floor(T, p)


# ---------------------------------------------------------------------------
# schedule validation and replay mechanics
# ---------------------------------------------------------------------------

def test_stepspec_validation():
    with pytest.raises(ValueError):
        StepSpec("D")
    with pytest.raises(ValueError):
        StepSpec("C", q=3)


def test_span_violation_rejected():
    prob = hard_instance(1, 3)
    sched = [StepSpec("C", x_coeffs=[1.0, 1.0], y_coeffs=[1.0])]
    with pytest.raises(SpanViolation):
        run_alg_class(prob, sched)


def test_q_exceeding_p_rejected():
    prob = hard_instance(1, 3)
    with pytest.raises(ValueError, match="exceeds"):
        run_alg_class(prob, [StepSpec("C", q=2)])


def test_t0_supports_empty():
    prob = hard_instance(1, 5)
    run = run_alg_class(prob, [])
    assert run.T == 0
    assert support_violation(run.xs[0], 0) <= 0
    assert support_violation(run.ys[0], 0) <= 0
    assert np.all(run.xs[0] == 0) and np.all(run.ys[0] == 0)


def test_all_c_matches_hand_rolled_projected_gradient():
    # all-C with q=1 and base = previous iterate is exactly
    # z_{t+1} = P(z_t - F(z_t)/M)
    prob = hard_instance(1, 6)
    M = 2.0 * prob.Lp
    run = run_alg_class(prob, [StepSpec("C", q=1, M=M)] * 4)
    op = prob.operator()
    z = np.zeros(2 * 7)
    for t in range(4):
        z = prob.domain.project(z - np.asarray(op(z), float) / M)
        assert np.linalg.norm(run.iterates()[t + 1] - z) <= 1e-12


def test_option_a_moves_only_x():
    prob = hard_instance(1, 4)
    run = run_alg_class(prob, [StepSpec("A"), StepSpec("A")])
    for t in range(1, 3):
        assert np.all(run.ys[t] == 0)
    # hand-rolled: x step on grad_x f(., y=0), which vanishes at y=0, so
    # x stays put as well -- the instance only grows support through y
    assert np.all(run.xs[1] == 0)


def test_option_b_grows_y_support_by_one():
    prob = hard_instance(1, 4)
    run = run_alg_class(prob, [StepSpec("B"), StepSpec("B")])
    y1 = run.ys[1]
    assert abs(y1[0]) > 0           # first coordinate activated
    assert np.all(y1[1:] == 0)      # nothing beyond index 1
    assert np.all(run.xs[1] == 0)   # x untouched by option B


@pytest.mark.parametrize("p", [1, 2])
def test_zero_respecting_mixed_schedules(p):
    rng = np.random.default_rng(3)
    prob = hard_instance(p, 6)
    opts = ["A", "B", "C"]
    for _ in range(3):
        sched = [StepSpec(opts[rng.integers(3)],
                          q=int(rng.integers(1, p + 1)))
                 for _ in range(6)]
        run = run_alg_class(prob, sched)
        rows = check_run(prob, run)
        for row in rows:
            assert row.support_slack <= 0
            assert row.precondition_ok


def test_anchored_schedule_base_coefficients():
    # reconstruct the anchor recursion by hand from the recorded iterates
    # and compare with the bases the replay actually used
    T = 8
    prob = hard_instance(1, T)
    sched = anchored_eg_schedule(T)
    run = run_alg_class(prob, sched)
    its = run.iterates()
    b = np.zeros_like(its[0])
    k = 0
    for i in range(0, T, 2):
        assert np.linalg.norm(run.bases[i] - b) <= 1e-12
        w, u = its[i + 1], its[i + 2]
        assert np.linalg.norm(run.bases[i + 1] - w) <= 1e-12
        k += 1
        b = (1.0 - 1.0 / (k + 2)) * (b + u - w)


def test_anchored_bases_are_true_span_points():
    run = run_alg_class(hard_instance(1, 16), anchored_eg_schedule(16))
    assert run.base_shift == 0.0


# ---------------------------------------------------------------------------
# the floor experiment
# ---------------------------------------------------------------------------

def test_experiment_ratios_and_slope():
    Ts = [4, 8, 16, 32, 64]
    rows = [experiment_row(1, T) for T in Ts]
    for row in rows:
        assert row["support_violations"] == 0
        assert row["ratio"] >= 1.0
    slope = np.polyfit(np.log(Ts),
                       np.log([r["unit_diameter_residual"] for r in rows]),
                       1)[0]
    assert slope <= -0.9


def test_best_residual_covers_bases():
    prob = hard_instance(1, 16)
    run = run_alg_class(prob, anchored_eg_schedule(16))
    op = prob.operator()
    iter_best = min(prob.domain.tangent_residual(z, op(z))
                    for z in run.iterates())
    best = best_residual(prob, run, check_run(prob, run))
    assert best <= iter_best + 1e-15
    assert best == min(prob.domain.tangent_residual(z, op(z))
                       for z in run.iterates() + run.bases)


def test_best_residual_skips_bases_measured_as_iterates():
    # 9 of the 16 bases have the bytes of an iterate check_run measured
    prob = hard_instance(1, 16)
    run = run_alg_class(prob, anchored_eg_schedule(16))
    rows = check_run(prob, run)
    before = prob.oracle_counter
    best_residual(prob, run, rows)
    assert prob.oracle_counter - before == 7


def test_scaled_floor_consistency():
    # p=1, q=1 steps are stride-for-stride equivalent under the diameter
    # rescaling, so measured residuals and floors both shrink by beta^p
    # and the ratio is invariant
    T = 8
    sched = anchored_eg_schedule(T)
    un = hard_instance(1, T)
    sc = hard_instance(1, T, DZ=1.0)
    run_un = run_alg_class(un, sched)
    run_sc = run_alg_class(sc, sched)
    beta = sc.beta
    rows_un = check_run(un, run_un)
    rows_sc = check_run(sc, run_sc)
    r_un = best_residual(un, run_un, rows_un)
    r_sc = best_residual(sc, run_sc, rows_sc)
    assert r_sc == pytest.approx(r_un / beta, rel=1e-9)
    f_un = rows_un[0].floor
    f_sc = rows_sc[0].floor
    assert f_sc == pytest.approx(f_un / beta, rel=1e-12)
    # iterate correspondence z_scaled = z_unscaled / beta
    for zu, zs in zip(run_un.iterates(), run_sc.iterates()):
        assert np.linalg.norm(zs - zu / beta) <= 1e-9


def test_precondition_violation_reported():
    prob = hard_instance(1, 3)
    run = AlgClassRun()
    x = np.zeros(4)
    y = np.zeros(4)
    y[-1] = 0.5                       # trailing coordinate active
    run.xs = [x]
    run.ys = [y]
    rows = check_run(prob, run)
    assert not rows[0].precondition_ok
    assert rows[0].support_slack > 0   # also a support violation at t=0


def test_p2_q2_schedule_runs_and_respects_support():
    prob = hard_instance(2, 4)
    run = run_alg_class(prob, [StepSpec("C", q=2)] * 4)
    for row in check_run(prob, run):
        assert row.support_slack <= 0
