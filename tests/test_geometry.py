import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from saddleopt.geometry import (
    ACTIVE_TOL, Box, DimensionMismatch, NotInDomain, Product, norm,
)
from saddleopt.problems import OrderedBox


# ---------------------------------------------------------------------------
# independent oracle: minimize ||F + c|| over c in the normal cone, with the
# cone parameterized by active-constraint generators and solved by NNLS.
# ---------------------------------------------------------------------------

def normal_cone_generators(domain, z, tol=1e-9):
    """Columns spanning N(z) as a finitely generated cone."""
    if isinstance(domain, OrderedBox):
        # one column per active constraint: x_{i+1} <= x_i, 0 <= x_i, x_i <= u
        n = domain.dim
        scale = max(1.0, float(domain.upper[0]))
        cols = []
        for i in range(n - 1):
            if z[i] - z[i + 1] <= tol * scale:
                g = np.zeros(n)
                g[i + 1], g[i] = 1.0, -1.0
                cols.append(g)
        for i in range(n):
            if z[i] <= tol * scale:
                g = np.zeros(n)
                g[i] = -1.0
                cols.append(g)
            if domain.upper[i] - z[i] <= tol * scale:
                g = np.zeros(n)
                g[i] = 1.0
                cols.append(g)
        return cols
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


def brute_tangent(domain, z, v):
    """v minus its projection onto N(z): the projection onto the tangent
    cone, by Moreau's decomposition."""
    v = np.asarray(v, float)
    gens = normal_cone_generators(domain, z)
    if not gens:
        return v.copy()
    A = np.column_stack(gens)
    t, _ = nnls(A, v)
    return v - A @ t


def random_domain(rng, dim, depth=0):
    if dim < 2 or depth >= 2 or rng.integers(0, 2) == 0:
        lo = rng.uniform(-2, 0, size=dim)
        hi = lo + rng.uniform(0.1, 3, size=dim)
        return Box(lo, hi)
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
    dom = Product(Box([0], [1]), Box([-2], [2]))
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


@pytest.mark.parametrize("dom, points", [
    (Box([-1.0, 0.0], [1.0, 2.0]),
     [[0.2, 1.0], [-1.0, 2.0], [1.0, 0.0], [1.0 + 1e-12, 0.5],
      [1.5, 0.5], [0.0, -3.0], [np.nan, 1.0]]),
    (OrderedBox(np.full(3, 2.0)),
     [[1.5, 1.0, 0.5], [2.0, 2.0, 0.0], [1.0, 1.0, 1.0],
      [1.0, 1.0 + 1e-12, 0.5], [0.5, 1.0, 0.2], [2.5, 1.0, 0.0],
      [1.0, 0.5, -1e-3], [1.0, np.nan, 0.5]]),
    (Product(Box([0.0], [1.0]), OrderedBox(np.ones(2))),
     [[0.5, 0.8, 0.3], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0],
      [0.5, 0.3, 0.8], [1.5, 0.8, 0.3], [0.5, 0.8, np.nan]]),
])
def test_contains_matches_projection_distance(dom, points):
    # a point known feasible skips the projection; the answer must be the
    # one the projection gives, at a face, outside and at NaN too
    for z in points:
        z = np.asarray(z, float)
        for tol in (1e-10, 1e-2):
            expected = bool(np.linalg.norm(dom.project(z) - z) <= tol)
            assert dom.contains(z, tol) is expected, (z, tol)


def box_tangent_by_masks(box, z, v):
    """Box.project_tangent as a copy and two boolean-index updates, the
    form its two np.where passes replace."""
    at_lo = z - box.lo <= box._active_tol
    at_hi = box.hi - z <= box._active_tol
    out = np.array(v, dtype=float)
    out[at_lo] = np.maximum(out[at_lo], 0.0)
    out[at_hi] = np.minimum(out[at_hi], 0.0)
    return out


def blockwise(dom, op, z, *v):
    """op of a product of two boxes at z computed block by block: the
    composition the joint box replaces with one pass."""
    k = dom.left.dim
    parts = []
    for box, blk in ((dom.left, slice(None, k)), (dom.right, slice(k, None))):
        args = (box, z[blk], *(w[blk] for w in v))
        parts.append(box_tangent_by_masks(*args) if op == "project_tangent"
                     else getattr(Box, op)(*args))
    a, b = parts
    if op == "_feasible":
        return a and b
    if op == "interior_margin":
        return min(a, b)
    return np.concatenate([a, b])


def box_points(dom, rng):
    """Points of a product of two boxes: inside, on faces, within ACTIVE_TOL
    of a face on either side, just beyond it, outside, and with a NaN or
    an infinite coordinate."""
    lo, hi = dom._box.lo, dom._box.hi
    tol = ACTIVE_TOL * np.maximum(1.0, hi - lo)
    # lo + tol and hi - tol are exactly tol from a face at 0, the edge
    # of the active test
    out = [dom.center(), lo.copy(), hi.copy(), lo + tol, hi - tol]
    for _ in range(20):
        z = dom.sample(rng)
        face = rng.uniform(size=dom.dim) < 0.5
        offset = tol * rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0],
                                  size=dom.dim)
        z[face] = np.where(rng.uniform(size=dom.dim) < 0.5, lo + offset,
                           hi - offset)[face]
        out.append(z)
        out.append(z + rng.normal(scale=2.0, size=dom.dim))
        out.append(z + 1e-12)
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(dom.dim):
            z = dom.center()
            z[i] = bad
            out.append(z)
    return out


def _same(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def test_product_of_boxes_is_one_box_bit_for_bit():
    # the joint box gives what the blocks give, at every point kind; only
    # interior_margin at a NaN point differs: the joint pass says NaN on
    # either block, where the block-wise min said NaN only on the left
    rng = np.random.default_rng(11)
    doms = [Product(Box([-1.0, 0.0], [0.0, 2.0]), Box([0.0], [1e3])),
            Product(Box([0.0], [0.0]), Box([-2.0, -2.0], [-1.0, 5.0]))]
    for _ in range(40):
        k, m = rng.integers(1, 4, size=2)
        doms.append(Product(random_domain(rng, k, depth=2),
                            random_domain(rng, m, depth=2)))
    for dom in doms:
        assert dom.diameter() == float(np.hypot(dom.left.diameter(),
                                                dom.right.diameter()))
        for z in box_points(dom, rng):
            v = rng.normal(size=dom.dim)
            v[rng.uniform(size=dom.dim) < 0.2] = 0.0
            assert dom._feasible(z) is blockwise(dom, "_feasible", z), z
            assert _same(dom.project(z), blockwise(dom, "project", z)), z
            for w in (v, -v):
                assert _same(dom.project_tangent(z, w),
                             blockwise(dom, "project_tangent", z, w)), z
            m = dom.interior_margin(z)
            if np.isnan(z).any():
                assert np.isnan(m)
            else:
                assert _same(m, blockwise(dom, "interior_margin", z)), z


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 64), scale=st.floats(-150, 150),
       dx=st.integers(0, 64), zero=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_norm_is_np_linalg_norm_bit_for_bit(n, scale, dx, zero, seed):
    # norm replaces np.linalg.norm on every vector of the package, so it
    # must give the same float: lengths 0-64, magnitudes 1e-150 to 1e150,
    # all-zero vectors and the contiguous blocks z[:dx], z[dx:] of a point
    rng = np.random.default_rng(seed)
    z = np.zeros(n) if zero else rng.normal(size=n) * 10.0 ** scale
    dx = min(dx, n)
    for v in (z, z[:dx], z[dx:]):
        assert np.float64(norm(v)).tobytes() == np.linalg.norm(v).tobytes()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Box([0, 0], [1, 1]).project([1.0])
    dom = Product(Box([0.0], [1.0]), Box([0.0], [1.0]))
    for op in ("project", "interior_margin"):
        with pytest.raises(DimensionMismatch):
            getattr(dom, op)([0.5])
    with pytest.raises(DimensionMismatch):
        dom.project_tangent([0.5], [1.0])


@pytest.mark.parametrize("dom", [
    Box([-1.0, 0.0], [1.0, 2.0]), OrderedBox(np.full(3, 2.0)),
    Product(Box([0.0], [1.0]), Box([-1.0, -1.0], [1.0, 1.0])),
    Product(OrderedBox(np.ones(2)), Box([0.0, 0.0], [1.0, 1.0]))])
def test_feasible_implies_finite(dom):
    # the oracle guard accepts a feasible point without reading its norm
    z0 = dom.center()
    assert dom._feasible(z0)
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(dom.dim):
            z = z0.copy()
            z[i] = bad
            assert not dom._feasible(z), z


@pytest.mark.parametrize("make", [lambda: Box([0.0], [np.inf]),
                                  lambda: Box([-np.inf], [0.0]),
                                  lambda: OrderedBox(np.full(2, np.inf))])
def test_unbounded_domains_are_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


# ---------------------------------------------------------------------------
# tangent residual
# ---------------------------------------------------------------------------

def test_residual_trivial_examples():
    box = Box([0, 0], [1, 1])
    assert box.tangent_residual([0, 0], [1, 1]) == pytest.approx(0, abs=1e-12)
    assert box.tangent_residual([0.5, 0.5], [1, 1]) == pytest.approx(
        np.sqrt(2), abs=1e-12)
    # frozen oracle value: brute_residual(box, (0,0.5), (1,-2)) == 2.0
    assert box.tangent_residual([0, 0.5], [1, -2]) == pytest.approx(
        2.0, abs=1e-12)


def test_residual_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        dom = random_domain(rng, dim)
        z = boundaryish_point(dom, rng)
        F = rng.normal(scale=2, size=dim)
        r = dom.tangent_residual(z, F)
        assert r == pytest.approx(brute_residual(dom, z, F), abs=1e-8)


def test_residual_zero_iff_projected_stationary():
    rng = np.random.default_rng(3)
    eta = 1e-6
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        dom = random_domain(rng, dim)
        z = boundaryish_point(dom, rng)
        F = rng.normal(size=dim)
        r = dom.tangent_residual(z, F)
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
            assert dom.tangent_residual(z, F) == pytest.approx(
                np.linalg.norm(F), abs=1e-12)


def test_residual_rejects_outside_point():
    with pytest.raises(NotInDomain):
        Box([0], [1]).tangent_residual([2.0], [1.0])
    for dom, z in [(Box([0], [1]), [np.nan]),
                   (OrderedBox(np.ones(2)), [0.5, np.nan])]:
        with pytest.raises(NotInDomain):
            dom.tangent_residual(z, np.ones(dom.dim))


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_examples():
    assert Box([0] * 3, [1] * 3).diameter() == pytest.approx(np.sqrt(3))
    assert Product(Box([0, 0], [1, 1]),
                   Box([0, 0], [1, 1])).diameter() == pytest.approx(2.0)

