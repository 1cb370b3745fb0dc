"""Analytic geometry on the unit sphere: curves, sampling, distances, intersections.

Points are numpy arrays of shape (3,) with unit norm; polylines are (n, 3) arrays.
All operations are pure functions over immutable values.

Every crossing pair has a circle, and its crossings are found on it: the
other curve is a level set, whose level function is read at its samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, OutOfRange

UNIT_TOL = 1e-9

# sampling default shared by callers
DEFAULT_STEP = np.pi / 2000


def unit_vector(v) -> np.ndarray:
    """Normalize v to a unit 3-vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise DegenerateInput("cannot normalize a zero vector")
    return v / n


def require_unit(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(float(p @ p) - 1.0) > 1e-6:
        raise DegenerateInput(f"point is not unit norm: |p|^2 = {float(p @ p)}")
    return p


def antipode(p) -> np.ndarray:
    """The antipodal point -p."""
    return -require_unit(p)


def geodesic_distance(p, q) -> float:
    """Angle between two unit vectors, in [0, pi]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.arccos(np.clip(p @ q, -1.0, 1.0)))


def cross3(a, b) -> np.ndarray:
    """a x b of two 3-vectors, with np.cross's arithmetic but not its
    per-call overhead, which dominates on single vectors."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def perpendicular_basis(axis) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic orthonormal pair spanning the plane perpendicular to axis."""
    axis = np.asarray(axis, dtype=float)
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = cross3(axis, ref)
    e1 /= np.linalg.norm(e1)
    e2 = cross3(axis, e1)
    return e1, e2


def rotation_to_south_pole(node) -> np.ndarray:
    """Rotation matrix R with R @ node = (0, 0, -1)."""
    node = require_unit(node)
    # v = node x (0, 0, -1) and c = node . (0, 0, -1), written out: np.cross
    # and np.linalg.norm cost more than the rest of the call
    x, y, z = node
    v = np.array([-y, x, 0.0])
    c = -float(z)
    s = float(np.sqrt(v @ v))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # node at the north pole: rotate pi about the x axis
        return np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    rot = vx @ vx * ((1.0 - c) / (s * s))
    rot += vx
    rot[[0, 1, 2], [0, 1, 2]] += 1.0
    return rot


@dataclass(frozen=True)
class SphericalCircle:
    """Circle of geodesic radius rho (polar angle from axis); rho = pi/2 is a great circle.

    start, when given, is a point on the circle where sampling begins (used to
    give closed read curves a deterministic traversal origin).
    """

    axis: np.ndarray
    rho: float
    start: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis))
        if not (0.0 < self.rho <= np.pi / 2 + 1e-12):
            raise OutOfRange(f"circle radius must be in (0, pi/2], got {self.rho}")

    def circumference(self) -> float:
        return 2 * np.pi * np.sin(self.rho)

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(e1, e2) spanning the plane of the angle, e1 towards any start."""
        if self.start is not None:
            e1 = self.start - float(self.start @ self.axis) * self.axis
            n1 = np.linalg.norm(e1)
            if n1 > 1e-12:
                e1 = e1 / n1
                return e1, cross3(self.axis, e1)
        return perpendicular_basis(self.axis)

    def points(self, t) -> np.ndarray:
        """cos rho axis + sin rho (cos t e1 + sin t e2) at angles t (`basis`)."""
        e1, e2 = self.basis
        t = np.asarray(t, dtype=float)[..., None]
        return np.cos(self.rho) * self.axis + np.sin(self.rho) * (np.cos(t) * e1
                                                                  + np.sin(t) * e2)


@dataclass(frozen=True)
class SphericalSpiral:
    """Spiral with latitude proportional to longitude: phi = a * theta.

    In the local frame the curve is
        (cos(theta + theta0) cos(phi), sin(theta + theta0) cos(phi), sin(phi)),
    swept over phi_range; `frame` rotates the accessing node to the local south
    pole, so the world curve is local @ frame.
    """

    frame: np.ndarray
    a: float
    theta0: float
    phi_range: tuple[float, float] = (-np.pi / 2, np.pi / 2)

    def __post_init__(self):
        if self.a <= 0:
            raise OutOfRange(f"spiral pitch must be positive, got {self.a}")

    def local_points(self, theta: np.ndarray) -> np.ndarray:
        phi = self.a * theta
        cos_phi = np.cos(phi)
        return np.stack([
            np.cos(theta + self.theta0) * cos_phi,
            np.sin(theta + self.theta0) * cos_phi,
            np.sin(phi),
        ], axis=-1)

    def points(self, theta: np.ndarray) -> np.ndarray:
        return self.local_points(theta) @ self.frame

    def theta_range(self) -> tuple[float, float]:
        lo, hi = self.phi_range
        return lo / self.a, hi / self.a

    def branches(self) -> list[tuple[float, float, float, float, float]]:
        """(base, pitch, phase, lo, hi) of each branch the sweep enters: where
        h = phi / pitch + phase - lambda (latitude, longitude in the local
        frame) is a multiple of 2 pi, at theta = base + phi / pitch in
        [lo, hi]. Past the far pole (a >= 1/2) a second runs back."""
        half = np.pi / (2 * self.a)
        t0, t1 = self.theta_range()
        if t0 < -half - UNIT_TOL or t1 > 3 * half + UNIT_TOL:
            raise OutOfRange("a spiral's sweep must lie within phi in [-pi/2, 3 pi/2]")
        return [(base, pitch, phase, lo, lo + 2 * half)
                for base, pitch, phase, lo in ((0.0, self.a, self.theta0, -half),
                                               (2 * half, -self.a,
                                                self.theta0 + np.pi + 2 * half, half))
                if t0 < lo + 2 * half - UNIT_TOL and t1 > lo + UNIT_TOL]


@dataclass(frozen=True)
class GeodesicPolyline:
    """Ordered samples along a curve."""

    points: np.ndarray

    def length(self) -> float:
        p = self.points
        dots = np.clip(np.einsum("ij,ij->i", p[:-1], p[1:]), -1.0, 1.0)
        return float(np.arccos(dots).sum())


SphericalCurve = SphericalCircle | SphericalSpiral


def great_circle_through(p, q) -> SphericalCircle:
    """The unique great circle through two non-coincident, non-antipodal points."""
    p = require_unit(p)
    q = require_unit(q)
    axis = cross3(p, q)
    n = np.linalg.norm(axis)
    if n < UNIT_TOL:
        raise DegenerateInput("points are identical or antipodal; great circle not unique")
    return SphericalCircle(axis=axis / n, rho=np.pi / 2, start=p.copy())


def circle_with_radius(center, rho: float) -> SphericalCircle:
    """Circle of all points at polar angle rho in (0, pi/2] from center."""
    return SphericalCircle(axis=require_unit(center), rho=float(rho))


def latitude_circle(axis, through) -> SphericalCircle:
    """Circle around `axis` passing through `through`.

    When `through` lies more than pi/2 from the axis the circle is expressed
    around the antipodal axis so the stored radius stays in (0, pi/2]; the
    Euclidean radius equals sin(polar angle) either way.
    """
    axis = require_unit(axis)
    through = require_unit(through)
    if np.linalg.norm(cross3(axis, through)) < UNIT_TOL:
        raise DegenerateInput("point coincides with the circle axis or its antipode")
    polar = geodesic_distance(axis, through)
    if polar > np.pi / 2:
        axis, polar = -axis, np.pi - polar
    return SphericalCircle(axis=axis, rho=polar, start=through.copy())


def spiral_for(node, a: float, theta0: float) -> SphericalSpiral:
    """Read-quorum spiral from `node` with pitch a and phase theta0.

    The sweep covers latitudes [-pi/2, pi/2] (node to antipode). For a >= 0.5
    that single sweep turns at most once in longitude and can miss a write
    circle entirely, so the sweep is extended past the far pole and returns to
    the node.
    """
    frame = rotation_to_south_pole(node)
    phi_range = (-np.pi / 2, 3 * np.pi / 2) if a >= 0.5 else (-np.pi / 2, np.pi / 2)
    return SphericalSpiral(frame=frame, a=float(a), theta0=float(theta0 % (2 * np.pi)),
                           phi_range=phi_range)


def _circle_angles(circle: SphericalCircle, step: float) -> np.ndarray:
    """Sample angles at spacing <= step; the last repeats the first point."""
    n = max(int(np.ceil(circle.circumference() / step)), 8)
    return np.linspace(0.0, 2 * np.pi, n + 1)


def _sample_spiral(spiral: SphericalSpiral, step: float) -> GeodesicPolyline:
    t0, t1 = spiral.theta_range()
    speed_max = np.sqrt(spiral.a ** 2 + 1.0)  # |C'(theta)| = sqrt(a^2 + cos^2 phi)
    n = max(int(np.ceil((t1 - t0) * speed_max / step)), 8)
    return GeodesicPolyline(points=spiral.points(np.linspace(t0, t1, n + 1)))


def sample(curve: SphericalCurve, step: float) -> GeodesicPolyline:
    """Sample a curve at geodesic spacing <= step; a circle repeats its first point."""
    if step <= 0:
        raise OutOfRange(f"step must be positive, got {step}")
    if isinstance(curve, SphericalCircle):
        return GeodesicPolyline(points=curve.points(_circle_angles(curve, step)))
    if isinstance(curve, SphericalSpiral):
        return _sample_spiral(curve, step)
    raise TypeError(f"not a spherical curve: {type(curve)!r}")


def _latlon(spiral: SphericalSpiral, pts) -> tuple[np.ndarray, np.ndarray]:
    """Latitude and longitude of the points in the spiral's local frame."""
    x, y, z = (pts @ spiral.frame.T).T
    return np.arctan2(z, np.hypot(x, y)), np.arctan2(y, x)


def circle_crossings(circle: SphericalCircle, other, step: float):
    """Where `other`, a circle or a spiral, crosses `circle`, found on
    `circle` sampled at `step`: (t, points, theta) in order of t, each
    crossing's angle along `circle` (`SphericalCircle.points`), its point on
    `circle`, and its theta along a spiral `other` (None for a circle).

    `other` is crossed on each segment between samples where its level
    function passes a level:
      - a circle (n, rho) where f = p . n - cos rho changes sign, a sample
        within UNIT_TOL of the plane counting as positive; f is a sinusoid
        in the angle, so at most 2 crossings, interpolated linearly in f;
      - a spiral where h / 2 pi of a branch (`branches`) passes an integer,
        lambda unwrapped by each segment's principal increment, as along its
        chord. Regula falsi places the crossing, which counts when its theta
        lies in the sweep; samples at most a apart pass one level each.

    Guarantees, except where a pole lies between an arc and its chord:
    every crossing counted is a real crossing on that arc of the circle;
    a crossing is missed only with another, where the level function
    passes a level and comes back within one segment, so misses come in
    pairs within one step; and the count on a spiral branch has the parity
    of the sampled circle's winding about the spiral's axis, so it is odd
    exactly when the circle encloses one pole.
    """
    if isinstance(other, SphericalCircle):
        t = _circle_angles(circle, step)
        f = circle.points(t) @ other.axis - np.cos(other.rho)
        seg = np.flatnonzero(np.diff(f >= -UNIT_TOL))
        tc = t[seg] + np.clip(f[seg] / (f[seg] - f[seg + 1]), 0.0, 1.0) * (t[seg + 1] - t[seg])
        return tc, circle.points(tc), None
    if not isinstance(other, SphericalSpiral):
        raise TypeError(f"circle_crossings needs a circle or a spiral, not {type(other)!r}")
    t = _circle_angles(circle, min(step, other.a))
    phi, lam = _latlon(other, circle.points(t))
    lam = np.unwrap(lam)  # principal increments, the rule `loadsim` applies on an edge
    tc, theta = [], []
    for base, pitch, phase, _, _ in other.branches():
        g = (phi / pitch + phase - lam) / (2 * np.pi)
        seg = np.flatnonzero(np.diff(np.floor(g)))
        level = np.floor(np.maximum(g[seg], g[seg + 1]))
        ta, ga, tb, gb = t[seg], g[seg] - level, t[seg + 1], g[seg + 1] - level
        for _ in range(2):  # regula falsi on the segment's bracket
            tm = ta + np.clip(ga / (ga - gb), 0.0, 1.0) * (tb - ta)
            phi_m, lam_m = _latlon(other, circle.points(tm))
            lam_m += 2 * np.pi * np.round((lam[seg] - lam_m) / (2 * np.pi))
            gm = (phi_m / pitch + phase - lam_m) / (2 * np.pi) - level
            left = (gm < 0) == (ga < 0)
            ta, ga = np.where(left, tm, ta), np.where(left, gm, ga)
            tb, gb = np.where(left, tb, tm), np.where(left, gb, gm)
        tc.append(tm)
        theta.append(base + phi_m / pitch)
    tc, theta = np.concatenate(tc), np.concatenate(theta)
    lo, hi = other.theta_range()
    keep = np.flatnonzero((theta >= lo - UNIT_TOL) & (theta <= hi + UNIT_TOL))
    keep = keep[np.argsort(tc[keep], kind="stable")]
    return tc[keep], circle.points(tc[keep]), theta[keep]


def count_intersections(c1: SphericalCurve, c2: SphericalCurve,
                        step: float = DEFAULT_STEP, merge_tol: float = 0.0):
    """Count the transversal crossings of a circle with a circle or a spiral:
    (count, points) of `circle_crossings` on the SphericalCircle argument
    (the first when both are), sampled at `step`. Exact tangency is not
    counted, which undercounts conservatively. `merge_tol` has no effect;
    it is still checked to be at most 2 step, as callers pass it."""
    if step <= 0:
        raise OutOfRange("step must be positive")
    if merge_tol > 2 * step * (1 + 1e-9):
        raise OutOfRange("merge_tol must not exceed 2 * step")
    circle, other = (c1, c2) if isinstance(c1, SphericalCircle) else (c2, c1)
    if not isinstance(circle, SphericalCircle):
        raise DegenerateInput("count_intersections needs a SphericalCircle argument")
    _, pts, _ = circle_crossings(circle, other, step)
    return len(pts), pts
