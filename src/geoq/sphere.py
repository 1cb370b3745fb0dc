"""Analytic geometry on the unit sphere: curves, sampling, distances, intersections.

Points are numpy arrays of shape (3,) with unit norm; polylines are (n, 3) arrays.
All operations are pure functions over immutable values.

Every crossing pair has a circle, and its crossings are found on it: a
circle's in closed form, a spiral's from its level function at samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, OutOfRange

UNIT_TOL = 1e-9
TWO_PI = 2 * np.pi

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
    t = np.arange(n + 1) * (TWO_PI / n)  # np.linspace's values, without its overhead
    t[-1] = TWO_PI
    return t


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


def circle_crossings(circle: SphericalCircle, other, step: float):
    """Where `other`, a circle or a spiral, crosses `circle`: (t, points,
    theta) in order of t, each crossing's angle along `circle`
    (`SphericalCircle.points`), its point on `circle`, and its theta along a
    spiral `other` (None for a circle).

    A circle (n, rho) is crossed in closed form, without `step`: on `circle`,
    p . n - cos rho = A cos t + B sin t - d, with roots t = atan2(B, A) -+
    arccos(d / R), R = hypot(A, B), and none when |d| >= R (tangency).

    A spiral is crossed on `circle` sampled at `step`, on each segment
    between samples where h / 2 pi of a branch (`branches`) passes an
    integer, lambda unwrapped by each segment's principal increment, as
    along its chord (the rule `loadsim` applies on mesh edges). One pass
    runs in the spiral's local frame: the circle's centre and radii are
    rotated into it once, and each sample's latitude and longitude come from
    cos t and sin t. Two regula falsi steps place the crossing on its
    segment's bracket, and it counts when its theta lies in the sweep;
    samples at most a apart pass one level each.

    Guarantees on a spiral, except where a pole lies between an arc and its
    chord: every crossing counted is a real crossing on that arc of the
    circle; a crossing is missed only with another, where the level function
    passes a level and comes back within one segment, so misses come in
    pairs within one step; and the count on a spiral branch has the parity
    of the sampled circle's winding about the spiral's axis, so it is odd
    exactly when the circle encloses one pole.
    """
    if isinstance(other, SphericalCircle):
        a, b = (math.sin(circle.rho) * np.array(circle.basis) @ other.axis).tolist()
        d = math.cos(other.rho) - math.cos(circle.rho) * float(circle.axis @ other.axis)
        r = math.hypot(a, b)
        tc = (np.sort(np.mod(math.atan2(b, a) + np.array([-1.0, 1.0]) * math.acos(d / r), TWO_PI))
              if abs(d) < r else np.empty(0))
        return tc, circle.points(tc), None
    if not isinstance(other, SphericalSpiral):
        raise TypeError(f"circle_crossings needs a circle or a spiral, not {type(other)!r}")
    t = _circle_angles(circle, min(step, other.a))
    # the circle's centre and its two radii, rotated into the spiral's frame:
    # a sample's local coordinates are c + cos t u + sin t v
    e1, e2 = circle.basis
    cos_rho, sin_rho = math.cos(circle.rho), math.sin(circle.rho)
    local = other.frame @ np.array([cos_rho * circle.axis, sin_rho * e1, sin_rho * e2]).T
    x, y, z = local[:, :1] + local[:, 1:] @ np.array([np.cos(t), np.sin(t)])
    phi, lam = np.arctan2(z, np.hypot(x, y)), np.arctan2(y, x)
    # lambda unwrapped: each increment d between samples is taken as its
    # principal value d - 2 pi round(d / 2 pi), the rule `loadsim` applies
    # on a mesh edge
    lam[1:] -= TWO_PI * np.rint((lam[1:] - lam[:-1]) / TWO_PI).cumsum()
    (cx, ux, vx), (cy, uy, vy), (cz, uz, vz) = local.tolist()
    lo, hi = other.theta_range()
    found = []
    for base, pitch, phase, _, _ in other.branches():
        g = (phi / pitch + phase - lam) / TWO_PI
        turn = np.floor(g)
        seg = np.flatnonzero(turn[1:] != turn[:-1])
        for ta, tb, ga, gb, lam_a in zip(t[seg].tolist(), t[seg + 1].tolist(),
                                         g[seg].tolist(), g[seg + 1].tolist(),
                                         lam[seg].tolist()):
            level = math.floor(max(ga, gb))
            ga, gb = ga - level, gb - level
            for _ in range(2):  # regula falsi on the segment's bracket
                tm = ta + min(max(ga / (ga - gb), 0.0), 1.0) * (tb - ta)
                cos_t, sin_t = math.cos(tm), math.sin(tm)
                xm, ym = cx + cos_t * ux + sin_t * vx, cy + cos_t * uy + sin_t * vy
                phi_m = math.atan2(cz + cos_t * uz + sin_t * vz, math.hypot(xm, ym))
                lam_m = math.atan2(ym, xm)
                lam_m += TWO_PI * round((lam_a - lam_m) / TWO_PI)
                gm = (phi_m / pitch + phase - lam_m) / TWO_PI - level
                if (gm < 0) == (ga < 0):
                    ta, ga = tm, gm
                else:
                    tb, gb = tm, gm
            theta = base + phi_m / pitch
            if lo - UNIT_TOL <= theta <= hi + UNIT_TOL:
                found.append((tm, theta))
    found.sort(key=lambda crossing: crossing[0])
    tc, theta = np.array(found, dtype=float).reshape(-1, 2).T
    return tc, circle.points(tc), theta


def count_intersections(c1: SphericalCurve, c2: SphericalCurve,
                        step: float = DEFAULT_STEP, merge_tol: float = 0.0):
    """Count the transversal crossings of a circle with a circle or a spiral:
    (count, points) of `circle_crossings` on the SphericalCircle argument
    (the first when both are). Two circles' crossings are exact; a spiral's
    are found on the circle sampled at `step`. Tangency is not counted, which
    undercounts conservatively. `merge_tol` has no effect; it is still
    checked to be at most 2 step, as callers pass it."""
    if step <= 0:
        raise OutOfRange("step must be positive")
    if merge_tol > 2 * step * (1 + 1e-9):
        raise OutOfRange("merge_tol must not exceed 2 * step")
    circle, other = (c1, c2) if isinstance(c1, SphericalCircle) else (c2, c1)
    if not isinstance(circle, SphericalCircle):
        raise DegenerateInput("count_intersections needs a SphericalCircle argument")
    _, pts, _ = circle_crossings(circle, other, step)
    return len(pts), pts
