"""Analytic geometry on the unit sphere: curves, sampling, distances, intersections.

Points are numpy arrays of shape (3,) with unit norm; polylines are (n, 3) arrays.
All operations are pure functions over immutable values.

Every crossing pair has a circle. Another circle crosses it in closed form;
a spiral crosses it at the roots of the circle's plane function along the
spiral, which a bound on that function's second derivative certifies: every
root is counted but a double root, so tangency is not counted.
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
    if not abs(float(p @ p) - 1.0) <= 1e-6:   # a NaN coordinate fails too
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


# `_spiral_roots` samples F at most _ROOT_GRID apart in theta (12 samples a
# turn), over the circle's latitude band widened by _BAND_PAD so that a
# crossing on the band's edge (a circle centred on a spiral pole) lies inside
# it. A refined root is within _ROOT_TOL in theta; an interval shorter than
# _SPLIT_FLOOR that no test certifies holds a double root, not counted.
_ROOT_GRID = TWO_PI / 12
_BAND_PAD = 1e-6
_ROOT_TOL = 1e-12
_SPLIT_FLOOR = 1e-9


def _refine(f, bound, ta, fa, tb, fb) -> float:
    """The root of f in [ta, tb], where f changes sign (fa, fb at the ends) and
    |f''| <= bound: Newton steps from the regula falsi point, bisecting
    where a step leaves the bracket, until the step's own error bound,
    bound step^2 / |f'|, is below _ROOT_TOL."""
    t = ta + fa * (tb - ta) / (fa - fb)
    for _ in range(100):
        ft, dt = f(t)
        if (ft > 0) == (fa > 0):
            ta = t
        else:
            tb = t
        step = ft / dt if dt else math.inf
        if not ta <= t - step <= tb:
            t = 0.5 * (ta + tb)
        elif bound * step * step <= _ROOT_TOL * abs(dt) or abs(step) <= _ROOT_TOL:
            return t - step
        else:
            t -= step
        if tb - ta <= _ROOT_TOL:
            break
    return t


def _roots_between(f, bound, ta, fa, da, tb, fb, db, roots) -> None:
    """Append to roots the roots of f in [ta, tb] (f, f' at the ends), in
    order: the interval is split until each piece is certified by
    |f''| <= bound to hold no root or exactly one (`_spiral_roots`)."""
    stack = [(ta, fa, da, tb, fb, db)]
    while stack:
        ta, fa, da, tb, fb, db = stack.pop()
        w = tb - ta
        if (fa > 0) != (fb > 0):
            if da * db > 0 and abs(da) + abs(db) > bound * w or w < _SPLIT_FLOOR:
                roots.append(_refine(f, bound, ta, fa, tb, fb))
                continue
        elif min(abs(fa), abs(fb)) > bound * w * w / 8 or w < _SPLIT_FLOOR:
            continue
        tm = 0.5 * (ta + tb)
        fm, dm = f(tm)
        stack += ((tm, fm, dm, tb, fb, db), (ta, fa, da, tm, fm, dm))


def _spiral_roots(circle: SphericalCircle, spiral: SphericalSpiral, upper: float = math.inf):
    """(theta, points) of the spiral's crossings with the circle, in order
    of theta: the roots, in the sweep, of

        F(theta) = sin(a theta) n_z + cos(a theta) |n_xy| cos(theta + theta0
                   - lambda_n) - cos rho,

    the circle's plane function p . n - cos rho at the spiral's point, with
    n = (n_xy, n_z) the circle's centre at longitude lambda_n in the
    spiral's local frame. The cosine absorbs lambda's 2 pi ambiguity.

    F vanishes only where the spiral's latitude lies in the circle's band
    [phi_n - rho, phi_n + rho], so each branch is sampled there alone, at
    most _ROOT_GRID apart. |F''| <= M = hypot(a^2, 1 + a^2), so F departs
    from its chord on an interval of width w by at most M w^2 / 8: an
    interval whose ends have one sign is split until both ends lie farther
    than that from zero, and then holds no root. A sign change is split
    until F' keeps its sign across it (|F'| at the ends sum to more than
    M w), and then holds exactly one root, which is refined in scalar
    arithmetic. So every root is counted but a double root (tangency).

    With `upper`, the search stops at the first grid interval that starts at
    or past it, on the same grid, so every root below `upper` is found as
    the same float, and roots past it may be left out."""
    nx, ny, nz = (spiral.frame @ circle.axis).tolist()
    r = math.hypot(nx, ny)
    phi_n, shift = math.atan2(nz, r), spiral.theta0 - math.atan2(ny, nx)
    a, cos_rho = spiral.a, math.cos(circle.rho)
    bound = math.hypot(a * a, 1.0 + a * a)

    def f(th):  # F and F' at theta
        s, c = math.sin(a * th), math.cos(a * th)
        rc, cu, su = r * c, math.cos(th + shift), math.sin(th + shift)
        return s * nz + rc * cu - cos_rho, a * (c * nz - s * r * cu) - rc * su

    t0, t1 = spiral.theta_range()
    band = (max(phi_n - circle.rho - _BAND_PAD, -np.pi / 2),
            min(phi_n + circle.rho + _BAND_PAD, np.pi / 2))
    roots = []
    for base, pitch, _, lo, hi in spiral.branches():
        u, v = sorted(base + lat / pitch for lat in band)
        u, v = max(u, lo, t0), min(v, hi, t1)
        if u >= min(v, upper):
            continue
        n = math.ceil((v - u) / _ROOT_GRID)
        w = (v - u) / n
        clear = bound * w * w / 8
        ta, (fa, da) = u, f(u)
        for i in range(1, n + 1):
            if ta >= upper:
                break
            tb = u + i * w if i < n else v
            fb, db = f(tb)
            # most grid intervals clear the chord bound; skip those inline
            if (fa > 0) != (fb > 0) or min(abs(fa), abs(fb)) <= clear:
                _roots_between(f, bound, ta, fa, da, tb, fb, db, roots)
            ta, fa, da = tb, fb, db
    (f0, f1, f2), (g0, g1, g2), (h0, h1, h2) = spiral.frame.tolist()
    points = []
    for th in roots:
        cos_phi, z = math.cos(a * th), math.sin(a * th)
        x, y = math.cos(th + spiral.theta0) * cos_phi, math.sin(th + spiral.theta0) * cos_phi
        points.append((x * f0 + y * g0 + z * h0, x * f1 + y * g1 + z * h1,
                       x * f2 + y * g2 + z * h2))
    return np.array(roots, dtype=float), np.array(points, dtype=float).reshape(-1, 3)


def circle_crossings(circle: SphericalCircle, other):
    """Where `other`, a circle or a spiral, crosses `circle`: (t, points,
    theta) in order of t, each crossing's angle along `circle`
    (`SphericalCircle.points`), its point, and its theta along a spiral
    `other` (None for a circle).

    A circle (n, rho) is crossed in closed form: on `circle`,
    p . n - cos rho = A cos t + B sin t - d, with roots t = atan2(B, A) -+
    arccos(d / R), R = hypot(A, B), and none when |d| >= R (tangency).

    A spiral is crossed at the roots of the circle's plane function along
    it (`_spiral_roots`), each within 1e-12 in theta, and its points are the
    spiral's there. Every root is counted but a double root, so a crossing
    is missed only at tangency. The count on a spiral branch is odd exactly
    when the circle encloses one of the spiral's poles.
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
    theta, pts = _spiral_roots(circle, other)
    e1, e2 = circle.basis
    tc = np.mod(np.arctan2(pts @ e2, pts @ e1), TWO_PI)
    order = np.argsort(tc, kind="stable")
    return tc[order], pts[order], theta[order]


def count_intersections(c1: SphericalCurve, c2: SphericalCurve,
                        step: float = DEFAULT_STEP, merge_tol: float = 0.0):
    """Count the transversal crossings of a circle with a circle or a spiral:
    (count, points) on the SphericalCircle argument (the first when both
    are). Two circles cross in closed form (`circle_crossings`); a spiral
    crosses at the roots of the circle's plane function along it, in order
    of theta (`_spiral_roots`). Every root is counted but a double root, so
    tangency is not counted, which undercounts conservatively. `step` and
    `merge_tol` have no effect; they are still checked (step positive,
    merge_tol at most 2 step), as callers pass them."""
    if step <= 0:
        raise OutOfRange("step must be positive")
    if merge_tol > 2 * step * (1 + 1e-9):
        raise OutOfRange("merge_tol must not exceed 2 * step")
    circle, other = (c1, c2) if isinstance(c1, SphericalCircle) else (c2, c1)
    if not isinstance(circle, SphericalCircle):
        raise DegenerateInput("count_intersections needs a SphericalCircle argument")
    if isinstance(other, SphericalSpiral):
        pts = _spiral_roots(circle, other)[1]
    else:
        pts = circle_crossings(circle, other)[1]
    return len(pts), pts
