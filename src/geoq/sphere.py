"""Analytic geometry on the unit sphere: curves, sampling, distances, intersections.

Points are numpy arrays of shape (3,) with unit norm; polylines are (n, 3) arrays.
All operations are pure functions over immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, OutOfRange

UNIT_TOL = 1e-9

# sampling defaults shared by callers
DEFAULT_STEP = np.pi / 2000
DEFAULT_MERGE_TOL = np.pi / 1000


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


def perpendicular_basis(axis) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic orthonormal pair spanning the plane perpendicular to axis."""
    axis = np.asarray(axis, dtype=float)
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


def rotation_to_south_pole(node) -> np.ndarray:
    """Rotation matrix R with R @ node = (0, 0, -1)."""
    node = require_unit(node)
    target = np.array([0.0, 0.0, -1.0])
    v = np.cross(node, target)
    c = float(node @ target)
    s = float(np.linalg.norm(v))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # node at the north pole: rotate pi about the x axis
        return np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))


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
        return np.stack([
            np.cos(theta + self.theta0) * np.cos(phi),
            np.sin(theta + self.theta0) * np.cos(phi),
            np.sin(phi),
        ], axis=-1)

    def points(self, theta: np.ndarray) -> np.ndarray:
        return self.local_points(theta) @ self.frame

    def theta_range(self) -> tuple[float, float]:
        lo, hi = self.phi_range
        return lo / self.a, hi / self.a


@dataclass(frozen=True)
class GeodesicPolyline:
    """Ordered samples along a curve."""

    points: np.ndarray

    def length(self) -> float:
        p = self.points
        dots = np.clip(np.einsum("ij,ij->i", p[:-1], p[1:]), -1.0, 1.0)
        return float(np.arccos(dots).sum())


SphericalCurve = SphericalCircle | SphericalSpiral | GeodesicPolyline


def great_circle_through(p, q) -> SphericalCircle:
    """The unique great circle through two non-coincident, non-antipodal points."""
    p = require_unit(p)
    q = require_unit(q)
    axis = np.cross(p, q)
    n = np.linalg.norm(axis)
    if n < UNIT_TOL:
        raise DegenerateInput("points are identical or antipodal; great circle not unique")
    return SphericalCircle(axis=axis / n, rho=np.pi / 2, start=p.copy())


def circle_with_radius(center, rho: float) -> SphericalCircle:
    """Circle of all points at polar angle rho from center."""
    if not (0.0 < rho <= np.pi / 2 + 1e-12):
        raise OutOfRange(f"rho must be in (0, pi/2], got {rho}")
    return SphericalCircle(axis=require_unit(center), rho=float(rho))


def latitude_circle(axis, through) -> SphericalCircle:
    """Circle around `axis` passing through `through`.

    When `through` lies more than pi/2 from the axis the circle is expressed
    around the antipodal axis so the stored radius stays in (0, pi/2]; the
    Euclidean radius equals sin(polar angle) either way.
    """
    axis = require_unit(axis)
    through = require_unit(through)
    polar = geodesic_distance(axis, through)
    if polar < UNIT_TOL or polar > np.pi - UNIT_TOL:
        raise DegenerateInput("point coincides with the circle axis or its antipode")
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
    if a <= 0:
        raise OutOfRange(f"spiral pitch must be positive, got {a}")
    frame = rotation_to_south_pole(node)
    phi_range = (-np.pi / 2, 3 * np.pi / 2) if a >= 0.5 else (-np.pi / 2, np.pi / 2)
    return SphericalSpiral(frame=frame, a=float(a), theta0=float(theta0 % (2 * np.pi)),
                           phi_range=phi_range)


def _sample_circle(circle: SphericalCircle, step: float) -> GeodesicPolyline:
    if circle.start is not None:
        e1 = circle.start - float(circle.start @ circle.axis) * circle.axis
        n1 = np.linalg.norm(e1)
        if n1 > 1e-12:
            e1 = e1 / n1
            e2 = np.cross(circle.axis, e1)
        else:
            e1, e2 = perpendicular_basis(circle.axis)
    else:
        e1, e2 = perpendicular_basis(circle.axis)
    circ = circle.circumference()
    n = max(int(np.ceil(circ / step)), 8)
    t = np.linspace(0.0, 2 * np.pi, n + 1)  # repeats the first point last
    pts = (np.cos(circle.rho) * circle.axis[None, :]
           + np.sin(circle.rho) * (np.cos(t)[:, None] * e1[None, :]
                                   + np.sin(t)[:, None] * e2[None, :]))
    return GeodesicPolyline(points=pts)


def _sample_spiral(spiral: SphericalSpiral, step: float) -> GeodesicPolyline:
    t0, t1 = spiral.theta_range()
    speed_max = np.sqrt(spiral.a ** 2 + 1.0)  # |C'(theta)| = sqrt(a^2 + cos^2 phi)
    n = max(int(np.ceil((t1 - t0) * speed_max / step)), 8)
    theta = np.linspace(t0, t1, n + 1)
    return GeodesicPolyline(points=spiral.points(theta))


def sample(curve: SphericalCurve, step: float) -> GeodesicPolyline:
    """Sample a curve with geodesic spacing <= step; closed curves repeat the
    first point last."""
    if step <= 0:
        raise OutOfRange(f"step must be positive, got {step}")
    if isinstance(curve, GeodesicPolyline):
        return curve
    if isinstance(curve, SphericalCircle):
        return _sample_circle(curve, step)
    if isinstance(curve, SphericalSpiral):
        return _sample_spiral(curve, step)
    raise TypeError(f"not a spherical curve: {type(curve)!r}")


def circle_crossings(circle: SphericalCircle, curve: SphericalCurve, step: float):
    """Where `curve`, sampled at `step`, crosses the exact `circle`.

    A circle (n, rho) is the plane section p.n = cos rho of the sphere, so the
    sampled curve crosses it on each segment whose ends lie on opposite sides
    of that plane; a sample within UNIT_TOL of the plane counts as on the
    positive side. Returns (offsets, segments, points): the signed offset
    p.n - cos rho of every sample, the indices of the crossing segments in
    curve order, and the crossing points, interpolated linearly in the offset
    along each segment and put back on the sphere.
    """
    pts = sample(curve, step).points
    f = pts @ circle.axis - np.cos(circle.rho)
    pos = f >= -UNIT_TOL
    seg = np.flatnonzero(pos[:-1] != pos[1:])
    t = np.clip(f[seg] / (f[seg] - f[seg + 1]), 0.0, 1.0)[:, None]
    p = pts[seg] + t * (pts[seg + 1] - pts[seg])
    return f, seg, p / np.linalg.norm(p, axis=1, keepdims=True)


def _merge_points(pts: np.ndarray, merge_tol: float) -> np.ndarray:
    """Greedy clustering of near-coincident crossing points."""
    if len(pts) == 0:
        return pts
    reps = []
    used = np.zeros(len(pts), bool)
    for i in range(len(pts)):
        if used[i]:
            continue
        ang = np.arccos(np.clip(pts @ pts[i], -1.0, 1.0))
        grp = (ang < merge_tol) & ~used
        used |= grp
        rep = pts[grp].mean(axis=0)
        reps.append(rep / np.linalg.norm(rep))
    return np.array(reps)


def count_intersections(c1: SphericalCurve, c2: SphericalCurve,
                        step: float = DEFAULT_STEP,
                        merge_tol: float = DEFAULT_MERGE_TOL):
    """Count the transversal crossings of a circle with another curve.

    One argument must be a SphericalCircle (the first one is taken when both
    are); the other curve is sampled at `step` and its crossings are the sign
    changes of p.n - cos rho against the exact circle (`circle_crossings`).
    Returns (count, points). Crossings closer than merge_tol merge into one;
    exact tangency (no sign change) is not counted, which undercounts
    conservatively.
    """
    if step <= 0:
        raise OutOfRange("step must be positive")
    if merge_tol > 2 * step * (1 + 1e-9):
        raise OutOfRange("merge_tol must not exceed 2 * step")
    if isinstance(c1, SphericalCircle):
        circle, other = c1, c2
    elif isinstance(c2, SphericalCircle):
        circle, other = c2, c1
    else:
        raise DegenerateInput("count_intersections needs a SphericalCircle argument")
    _, _, pts = circle_crossings(circle, other, step)
    merged = _merge_points(pts, merge_tol)
    return len(merged), merged
