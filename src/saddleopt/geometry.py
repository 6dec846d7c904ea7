"""Compact convex domains: projections, tangent cones, diameters.

Every feasible set used by the solvers is a box, a Euclidean ball, or a
(binary) product of such sets.  The one operation beyond projection that
the solvers need is the tangent residual

    r(z) = min_{c in N_Z(z)} ||F(z) + c||,

the constrained analogue of the gradient norm.  By Moreau's decomposition
this equals the norm of the projection of -F(z) onto the tangent cone at
z, which has a closed form for all three variants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Tolerance for "z lies in the domain" checks.
MEMBERSHIP_TOL = 1e-10
# Tolerance for deciding that a constraint is active when identifying the
# tangent cone.  Looser than membership on purpose: points that have been
# through many projections sit within ~1e-15 of a face, but callers may
# also hand us points a few ulps inside.
ACTIVE_TOL = 1e-9


class DimensionMismatch(ValueError):
    pass


class NotInDomain(ValueError):
    pass


class Domain:
    """Abstract compact convex set in R^dim."""

    dim: int

    def project(self, z):
        raise NotImplementedError

    def project_tangent(self, z, v):
        """Projection of v onto the tangent cone of the domain at z."""
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def scale(self, beta: float) -> "Domain":
        """The set {z : beta*z in domain}; diameters divide by beta."""
        raise NotImplementedError

    def interior_margin(self, z) -> float:
        """Smallest constraint slack at z (<= 0 on the boundary/outside)."""
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

    def contains(self, z, tol: float = MEMBERSHIP_TOL) -> bool:
        z = self._check_dim(z)
        return bool(np.linalg.norm(self.project(z) - z) <= tol)

    def tangent_residual(self, z, Fz) -> float:
        """min_{c in N_Z(z)} ||Fz + c|| via Moreau decomposition."""
        z = self._check_dim(z)
        Fz = self._check_dim(Fz)
        if not self.contains(z):
            raise NotInDomain(
                f"point is {np.linalg.norm(self.project(z) - z):.3e} outside")
        return float(np.linalg.norm(self.project_tangent(z, -Fz)))

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Box(Domain):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-d and equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def project(self, z):
        z = self._check_dim(z)
        return np.clip(z, self.lo, self.hi)

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        v = np.array(v, dtype=float)
        scale = np.maximum(1.0, np.abs(self.hi - self.lo))
        at_lo = z - self.lo <= ACTIVE_TOL * scale
        at_hi = self.hi - z <= ACTIVE_TOL * scale
        out = v.copy()
        out[at_lo] = np.maximum(out[at_lo], 0.0)
        out[at_hi] = np.minimum(out[at_hi], 0.0)
        return out

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def scale(self, beta):
        _check_beta(beta)
        return Box(self.lo / beta, self.hi / beta)

    def interior_margin(self, z):
        z = self._check_dim(z)
        return float(min(np.min(z - self.lo), np.min(self.hi - z)))

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def center(self):
        return 0.5 * (self.lo + self.hi)

    def to_json(self):
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class Ball(Domain):
    ball_center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.ball_center, dtype=float))
        if self.radius < 0:
            raise ValueError("ball requires radius >= 0")
        object.__setattr__(self, "ball_center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self):
        return self.ball_center.shape[0]

    def project(self, z):
        z = self._check_dim(z)
        d = z - self.ball_center
        n = np.linalg.norm(d)
        if n <= self.radius:
            return z.copy()
        return self.ball_center + d * (self.radius / n)

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        v = np.array(v, dtype=float)
        if self.radius == 0.0:
            return np.zeros_like(v)
        d = z - self.ball_center
        n = np.linalg.norm(d)
        if self.radius - n > ACTIVE_TOL * max(1.0, self.radius):
            return v  # interior: tangent cone is everything
        # boundary: drop the outward radial part if positive
        nhat = d / n
        rad = float(v @ nhat)
        if rad > 0:
            v = v - rad * nhat
        return v

    def diameter(self):
        return 2.0 * self.radius

    def scale(self, beta):
        _check_beta(beta)
        return Ball(self.ball_center / beta, self.radius / beta)

    def interior_margin(self, z):
        z = self._check_dim(z)
        return float(self.radius - np.linalg.norm(z - self.ball_center))

    def sample(self, rng):
        d = rng.normal(size=self.dim)
        d /= max(np.linalg.norm(d), 1e-300)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.ball_center + r * d

    def center(self):
        return self.ball_center.copy()

    def to_json(self):
        return {"type": "ball", "center": self.ball_center.tolist(),
                "radius": self.radius}


@dataclass(frozen=True)
class Product(Domain):
    left: Domain
    right: Domain

    @property
    def dim(self):
        return self.left.dim + self.right.dim

    def _split(self, z):
        return z[: self.left.dim], z[self.left.dim:]

    def project(self, z):
        z = self._check_dim(z)
        a, b = self._split(z)
        return np.concatenate([self.left.project(a), self.right.project(b)])

    def project_tangent(self, z, v):
        z = self._check_dim(z)
        v = np.asarray(v, dtype=float)
        a, b = self._split(z)
        va, vb = self._split(v)
        return np.concatenate([self.left.project_tangent(a, va),
                               self.right.project_tangent(b, vb)])

    def diameter(self):
        return float(np.hypot(self.left.diameter(), self.right.diameter()))

    def scale(self, beta):
        _check_beta(beta)
        return Product(self.left.scale(beta), self.right.scale(beta))

    def interior_margin(self, z):
        z = self._check_dim(z)
        a, b = self._split(z)
        return min(self.left.interior_margin(a), self.right.interior_margin(b))

    def sample(self, rng):
        return np.concatenate([self.left.sample(rng), self.right.sample(rng)])

    def center(self):
        return np.concatenate([self.left.center(), self.right.center()])

    def to_json(self):
        return {"type": "product", "left": self.left.to_json(),
                "right": self.right.to_json()}


def _check_beta(beta):
    if not beta > 0:
        raise ValueError(f"scale factor must be positive, got {beta}")


def tangent_residual(domain: Domain, z, Fz) -> float:
    return domain.tangent_residual(z, Fz)


# extra decoders (e.g. the ordered box in problems) register here
EXTRA_JSON_DECODERS = {}


def domain_from_json(obj) -> Domain:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("type")
    if kind == "box":
        return Box(np.asarray(obj["lo"], float), np.asarray(obj["hi"], float))
    if kind == "ball":
        return Ball(np.asarray(obj["center"], float), float(obj["radius"]))
    if kind == "product":
        return Product(domain_from_json(obj["left"]),
                       domain_from_json(obj["right"]))
    if kind in EXTRA_JSON_DECODERS:
        return EXTRA_JSON_DECODERS[kind](obj)
    raise ValueError(f"unknown domain type {kind!r}")
