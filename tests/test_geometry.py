import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from saddleopt.geometry import (
    Ball, Box, DimensionMismatch, NotInDomain, Product, domain_from_json,
    tangent_residual,
)


# ---------------------------------------------------------------------------
# independent oracle: minimize ||F + c|| over c in the normal cone, with the
# cone parameterized by active-constraint generators and solved by NNLS.
# ---------------------------------------------------------------------------

def normal_cone_generators(domain, z, tol=1e-9):
    """Columns spanning N(z) as a finitely generated cone."""
    if isinstance(domain, Box):
        cols = []
        scale = np.maximum(1.0, np.abs(domain.hi - domain.lo))
        for i in range(domain.dim):
            e = np.zeros(domain.dim)
            if z[i] - domain.lo[i] <= tol * scale[i]:
                e[i] = -1.0
                cols.append(e.copy())
                e[i] = 0.0
            if domain.hi[i] - z[i] <= tol * scale[i]:
                e[i] = 1.0
                cols.append(e.copy())
        return cols
    if isinstance(domain, Ball):
        if domain.radius == 0.0:
            # degenerate: normal cone is all of R^n
            eye = np.eye(domain.dim)
            return list(eye) + list(-eye)
        d = z - domain.ball_center
        n = np.linalg.norm(d)
        if domain.radius - n <= tol * max(1.0, domain.radius):
            return [d / n]
        return []
    if isinstance(domain, Product):
        a, b = z[: domain.left.dim], z[domain.left.dim:]
        cols = []
        for g in normal_cone_generators(domain.left, a, tol):
            cols.append(np.concatenate([g, np.zeros(domain.right.dim)]))
        for g in normal_cone_generators(domain.right, b, tol):
            cols.append(np.concatenate([np.zeros(domain.left.dim), g]))
        return cols
    raise TypeError(type(domain))


def brute_residual(domain, z, F):
    gens = normal_cone_generators(domain, z)
    if not gens:
        return float(np.linalg.norm(F))
    A = np.column_stack(gens)
    _, res = nnls(A, -np.asarray(F, float))
    return float(res)


def random_domain(rng, dim, depth=0):
    kind = rng.integers(0, 3 if dim >= 2 and depth < 2 else 2)
    if kind == 0:
        lo = rng.uniform(-2, 0, size=dim)
        hi = lo + rng.uniform(0.1, 3, size=dim)
        return Box(lo, hi)
    if kind == 1:
        return Ball(rng.uniform(-1, 1, size=dim), rng.uniform(0.2, 3))
    k = int(rng.integers(1, dim))
    return Product(random_domain(rng, k, depth + 1),
                   random_domain(rng, dim - k, depth + 1))


def boundaryish_point(domain, rng):
    # projecting a point sampled well outside lands on faces often
    z = domain.sample(rng)
    if rng.uniform() < 0.7:
        z = domain.project(z + rng.normal(scale=2.0, size=domain.dim))
    return z


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_examples():
    assert np.allclose(Box([0, 0], [1, 1]).project([2, -1]), [1, 0])
    assert np.allclose(Ball(np.zeros(2), 1.0).project([3, 4]), [0.6, 0.8])
    dom = Product(Box([0], [1]), Ball(np.zeros(1), 2.0))
    assert np.allclose(dom.project([1.5, 3]), [1, 2])


def test_project_idempotent_nonexpansive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        dom = random_domain(rng, dim)
        a = rng.normal(scale=3, size=dim)
        b = rng.normal(scale=3, size=dim)
        pa, pb = dom.project(a), dom.project(b)
        assert np.allclose(dom.project(pa), pa, atol=1e-12)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Box([0, 0], [1, 1]).project([1.0])


# ---------------------------------------------------------------------------
# tangent residual
# ---------------------------------------------------------------------------

def test_residual_trivial_examples():
    box = Box([0, 0], [1, 1])
    assert tangent_residual(box, [0, 0], [1, 1]) == pytest.approx(0, abs=1e-12)
    assert tangent_residual(box, [0.5, 0.5], [1, 1]) == pytest.approx(
        np.sqrt(2), abs=1e-12)
    # frozen oracle value: brute_residual(box, (0,0.5), (1,-2)) == 2.0
    assert tangent_residual(box, [0, 0.5], [1, -2]) == pytest.approx(
        2.0, abs=1e-12)


def test_residual_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        dom = random_domain(rng, dim)
        z = boundaryish_point(dom, rng)
        F = rng.normal(scale=2, size=dim)
        r = tangent_residual(dom, z, F)
        assert r == pytest.approx(brute_residual(dom, z, F), abs=1e-8)


def test_residual_zero_iff_projected_stationary():
    rng = np.random.default_rng(3)
    eta = 1e-6
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        dom = random_domain(rng, dim)
        z = boundaryish_point(dom, rng)
        F = rng.normal(size=dim)
        r = tangent_residual(dom, z, F)
        moved = np.linalg.norm(dom.project(z - eta * F) - z) / eta
        if r <= 1e-12:
            assert moved <= 1e-8
        if moved <= 1e-12:
            assert r <= 1e-8


def test_residual_interior_is_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dom = random_domain(rng, 4)
        z = dom.center()
        F = rng.normal(size=4)
        if dom.interior_margin(z) > 1e-6:
            assert tangent_residual(dom, z, F) == pytest.approx(
                np.linalg.norm(F), abs=1e-12)


def test_residual_rejects_outside_point():
    with pytest.raises(NotInDomain):
        tangent_residual(Box([0], [1]), [2.0], [1.0])


# ---------------------------------------------------------------------------
# diameter / scaling / serialization
# ---------------------------------------------------------------------------

def test_diameter_examples():
    assert Box([0] * 3, [1] * 3).diameter() == pytest.approx(np.sqrt(3))
    assert Ball(np.zeros(2), 5.0).diameter() == 10
    assert Product(Box([0, 0], [1, 1]),
                   Box([0, 0], [1, 1])).diameter() == pytest.approx(2.0)


def test_scale_examples():
    d = Box([0], [1]).scale(2.0)
    assert np.allclose([d.lo, d.hi], [[0], [0.5]])
    d = Ball(np.zeros(2), 4.0).scale(4.0)
    assert d.radius == 1.0
    with pytest.raises(ValueError):
        Box([0], [1]).scale(-1.0)


@given(st.floats(0.01, 100), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_scale_divides_diameter(beta, seed):
    rng = np.random.default_rng(seed)
    dom = random_domain(rng, int(rng.integers(1, 6)))
    assert dom.scale(beta).diameter() == pytest.approx(
        dom.diameter() / beta, rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(seed):
    rng = np.random.default_rng(seed)
    dom = random_domain(rng, int(rng.integers(1, 6)))
    back = domain_from_json(json.dumps(dom.to_json()))
    z = rng.normal(scale=2, size=dom.dim)
    assert np.allclose(dom.project(z), back.project(z))
    assert back.diameter() == pytest.approx(dom.diameter())
