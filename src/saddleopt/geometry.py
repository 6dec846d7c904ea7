"""Compact convex domains: projections, tangent cones, diameters.

This module defines boxes and (binary) products of domains; problems adds
the ordered box of the hard instances.  The one operation beyond
projection that the solvers need is the tangent residual

    r(z) = min_{c in N_Z(z)} ||F(z) + c||,

the constrained analogue of the gradient norm.  By Moreau's decomposition
this equals the norm of the projection of -F(z) onto the tangent cone at
z, which has a closed form for boxes and products.

Every vector norm of the package is norm(v) = sqrt(v @ v), bit for bit
what np.linalg.norm gives for a 1-d float vector without its per-call
overhead; only matrix 2-norms call np.linalg.norm, with an ord.  A
domain's dim is stored once when it is built, so the shape check that
opens each entry point reads an attribute.

A product of two boxes is itself a box, and it is handled as one: the
joint bounds are built once with the product, and project, _feasible
and project_tangent make one shape check and one pass over the joint
vector.  A product with another block (the ordered box of the hard
instances) splits the point between its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for "z lies in the domain" checks.
MEMBERSHIP_TOL = 1e-10
# Tolerance for deciding that a constraint is active when identifying the
# tangent cone.  Looser than membership on purpose: points that have been
# through many projections sit within ~1e-15 of a face, but callers may
# also hand us points a few ulps inside.
ACTIVE_TOL = 1e-9


def norm(v) -> float:
    """The Euclidean norm of a 1-d float vector."""
    return math.sqrt(v @ v)


class DimensionMismatch(ValueError):
    pass


class NotInDomain(ValueError):
    pass


class Domain:
    """Abstract compact convex set in R^dim; dim is set when it is built."""

    dim: int

    def project(self, z):
        raise NotImplementedError

    def project_tangent(self, z, v):
        """Projection of v onto the tangent cone of the domain at z."""
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator):
        """A random feasible point."""
        raise NotImplementedError

    def center(self):
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def _check_dim(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected shape ({self.dim},), got {z.shape}")
        return z

    def _feasible(self, z) -> bool:
        """True only if z certainly lies in the domain (project(z) is z);
        False means "not known" and leaves the decision to a projection.
        Every domain is bounded, so True implies that every coordinate of
        z is finite: a NaN or infinite coordinate fails the comparisons."""
        return False

    def _distance(self, z) -> float:
        """||project(z) - z||, without projecting when z is certainly
        feasible; NaN for a NaN point."""
        if self._feasible(z):
            return 0.0
        return norm(self.project(z) - z)

    def contains(self, z, tol: float = MEMBERSHIP_TOL) -> bool:
        return self._distance(self._check_dim(z)) <= tol

    def tangent_residual(self, z, Fz) -> float:
        """min_{c in N_Z(z)} ||Fz + c|| via Moreau decomposition."""
        z = self._check_dim(z)
        Fz = self._check_dim(Fz)
        dist = self._distance(z)
        if not dist <= MEMBERSHIP_TOL:
            raise NotInDomain(f"point is {dist:.3e} outside")
        return norm(self.project_tangent(z, -Fz))


@dataclass(frozen=True)
class Box(Domain):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-d and equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dim", lo.shape[0])
        # per-coordinate active-constraint tolerance of project_tangent
        object.__setattr__(self, "_active_tol",
                           ACTIVE_TOL * np.maximum(1.0, np.abs(hi - lo)))

    def project(self, z):
        z = self._check_dim(z)
        return np.minimum(np.maximum(z, self.lo), self.hi)

    def _feasible(self, z):
        return bool(((self.lo <= z) & (z <= self.hi)).all())

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        v = np.asarray(v, dtype=float)
        v = np.where(z - self.lo <= self._active_tol, np.maximum(v, 0.0), v)
        return np.where(self.hi - z <= self._active_tol, np.minimum(v, 0.0), v)

    def diameter(self):
        return norm(self.hi - self.lo)

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def center(self):
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Product(Domain):
    """left x right.  When both blocks are boxes, the product is the box
    of the joint bounds, built once here, and its one-pass operations run
    on that box; diameter, center and sample keep the block formulas."""

    left: Domain
    right: Domain

    def __post_init__(self):
        object.__setattr__(self, "dim", self.left.dim + self.right.dim)
        a, b = self.left, self.right
        box = None
        if isinstance(a, Box) and isinstance(b, Box):
            box = Box(np.concatenate([a.lo, b.lo]),
                      np.concatenate([a.hi, b.hi]))
        object.__setattr__(self, "_box", box)

    def _split(self, z):
        return z[: self.left.dim], z[self.left.dim:]

    def project(self, z):
        if self._box is not None:
            return self._box.project(z)
        z = self._check_dim(z)
        a, b = self._split(z)
        return np.concatenate([self.left.project(a), self.right.project(b)])

    def _feasible(self, z):
        if self._box is not None:
            return self._box._feasible(z)
        a, b = self._split(z)
        return self.left._feasible(a) and self.right._feasible(b)

    def project_tangent(self, z, v):
        if self._box is not None:
            return self._box.project_tangent(z, v)
        z = self._check_dim(z)
        v = np.asarray(v, dtype=float)
        a, b = self._split(z)
        va, vb = self._split(v)
        return np.concatenate([self.left.project_tangent(a, va),
                               self.right.project_tangent(b, vb)])

    def diameter(self):
        return float(np.hypot(self.left.diameter(), self.right.diameter()))

    def sample(self, rng):
        return np.concatenate([self.left.sample(rng), self.right.sample(rng)])

    def center(self):
        return np.concatenate([self.left.center(), self.right.center()])

