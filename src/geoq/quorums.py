"""Quorum-curve construction and access strategies for the five system kinds.

Kinds:
  QG        symmetric; write pure great circle through (writer, hash);
            read mixed-uniform over great circles through the hash.
  QGm       QG with the write made mixed-uniform over great circles through
            the writer.
  QL        write as QG; read pure latitude circle around the hash through
            the reader.
  QLd       dual of QL: write latitude circle, read great circle.
  GeoQuorum write mixed-uniform over radius-R_W circles through the writer;
            read spiral from the reader with random phase. The dual flag
            swaps the two roles.

Every strategy is one family of curves over a mixing angle psi,
`quorum_curve(kind, role, node, hash_point, psi)`; a pure strategy ignores
psi. Monte Carlo accesses draw psi uniformly (`write_quorum`, `read_quorum`),
expected mode takes it at quadrature nodes (`mixing_angles`).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .sphere import (DEFAULT_STEP, SphericalCircle, SphericalCurve,
                     circle_with_radius, count_intersections, geodesic_distance,
                     great_circle_through, latitude_circle,
                     perpendicular_basis, require_unit, spiral_for)

KIND_NAMES = ("QG", "QGm", "QL", "QLd", "GeoQuorum")


@dataclass(frozen=True)
class QuorumSystemKind:
    """Tagged quorum-system identifier plus GeoQuorum parameters."""

    name: str
    r_w: float | None = None
    a: float | None = None
    dual: bool = False

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise OutOfRange(f"unknown quorum system kind {self.name!r}")
        if self.name == "GeoQuorum":
            if self.r_w is None or self.a is None:
                raise OutOfRange("GeoQuorum needs r_w and a")
            # radii beyond pi/2 are realized by the complementary circle
            # around the antipodal center (the same point set)
            if not (0 < self.r_w < np.pi):
                raise OutOfRange(f"GeoQuorum r_w must be in (0, pi), got {self.r_w}")
            if self.a <= 0:
                raise OutOfRange(f"GeoQuorum a must be positive, got {self.a}")
            if self.robustness_target() < 1:
                raise OutOfRange(f"GeoQuorum r_w={self.r_w}, a={self.a} gives "
                                 f"robustness target k < 1")

    def robustness_target(self) -> int:
        """Nominal robustness target k = floor(R_W / (a pi)).

        The write circle is realised at rho = min(R_W, pi - R_W) (a wider
        radius is the complementary circle around the antipodal centre), and
        what a node-to-antipode read spiral guarantees depends on where that
        circle lies relative to the spiral's poles, the reader and its
        antipode:
          - a circle that clears both poles is crossed at least
            2 floor(rho / (a pi)) times;
          - a circle that encloses a pole is crossed an odd number of times,
            at least once.
        For R_W > pi/2, rho < R_W, so the nominal k overstates the guarantee.
        """
        if self.name != "GeoQuorum":
            return 1
        return int(np.floor(self.r_w / (self.a * np.pi) + 1e-9))

    @classmethod
    def geoquorum(cls, r_w: float, a: float, dual: bool = False):
        return cls("GeoQuorum", r_w=float(r_w), a=float(a), dual=dual)


@dataclass(frozen=True)
class DataType:
    """A stored data type: its hash location and who writes/reads it."""

    id: str
    hash_point: np.ndarray
    contributors: tuple = ()
    queriers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hash_point", require_unit(self.hash_point))
        object.__setattr__(self, "contributors", tuple(self.contributors))
        object.__setattr__(self, "queriers", tuple(self.queriers))


def hash_location(data_id: str, seed: int, override=None) -> np.ndarray:
    """Deterministic, approximately uniform sphere point for a data id.

    An explicit override point wins when supplied (e.g. to place the hash at
    the region center image).
    """
    if override is not None:
        return require_unit(np.asarray(override, dtype=float))
    digest = hashlib.blake2b(f"{seed}:{data_id}".encode(), digest_size=16).digest()
    u1 = int.from_bytes(digest[:8], "big") / 2 ** 64
    u2 = int.from_bytes(digest[8:], "big") / 2 ** 64
    z = 2.0 * u1 - 1.0
    phi = 2.0 * np.pi * u2
    r = np.sqrt(max(1.0 - z * z, 0.0))
    return np.array([r * np.cos(phi), r * np.sin(phi), z])


def _great_circle_at(point, psi: float) -> SphericalCircle:
    """Great circle through `point` whose axis lies at angle psi in the
    point's perpendicular plane."""
    point = require_unit(point)
    e1, e2 = perpendicular_basis(point)
    axis = np.cos(psi) * e1 + np.sin(psi) * e2
    return SphericalCircle(axis=axis, rho=np.pi / 2, start=point.copy())


def _circle_at(point, rho: float, psi: float) -> SphericalCircle:
    """Circle of geodesic radius rho through `point`, centred at angle psi
    around it.

    Radii above pi/2 are expressed as the complementary circle around the
    antipodal center, which is the identical point set.
    """
    point = require_unit(point)
    e1, e2 = perpendicular_basis(point)
    center = (np.cos(rho) * point
              + np.sin(rho) * (np.cos(psi) * e1 + np.sin(psi) * e2))
    if rho > np.pi / 2:
        center, rho = -center, np.pi - rho
    circ = circle_with_radius(center, rho)
    return SphericalCircle(axis=circ.axis, rho=circ.rho, start=point.copy())


ROLES = ("write", "read")


def is_mixed(kind: QuorumSystemKind, role: str) -> bool:
    """Whether the strategy draws a mixing angle psi: QGm writes, QG and QGm
    reads, and both GeoQuorum roles. A pure strategy ignores psi."""
    if role not in ROLES:
        raise OutOfRange(f"unknown quorum role {role!r}")
    return kind.name in (("QGm", "GeoQuorum") if role == "write"
                         else ("QG", "QGm", "GeoQuorum"))


def is_read_shared(kind: QuorumSystemKind) -> bool:
    """Whether the read curves depend on the hash point alone, not on the
    reader, so every querier has the same read family."""
    return kind.name in ("QG", "QGm")


def quorum_curve(kind: QuorumSystemKind, role: str, node, hash_point,
                 psi: float) -> SphericalCurve:
    """The curve of `role` ("write" or "read") from `node` for data hashed at
    `hash_point`, at mixing angle psi. Pure strategies ignore psi and shared
    reads ignore the node, which may then be None."""
    if not is_mixed(kind, role):  # also validates the role
        if (kind.name, role) in (("QL", "read"), ("QLd", "write")):
            return latitude_circle(hash_point, node)
        return great_circle_through(node, hash_point)
    write = role == "write"
    if kind.name == "GeoQuorum":
        if write != kind.dual:
            return _circle_at(node, kind.r_w, psi)
        return spiral_for(node, kind.a, psi)
    return _great_circle_at(node if write else hash_point, psi)


def mixing_angles(k: int) -> np.ndarray:
    """Deterministic quadrature nodes over the mixing angle: expected mode's
    counterpart of the uniform draw in write_quorum/read_quorum."""
    return 2 * np.pi * (np.arange(k) + 0.5) / k


def _draw(kind: QuorumSystemKind, role: str, node, data: DataType, rng) -> SphericalCurve:
    """One access's curve; draws psi uniformly only for a mixed strategy."""
    node = require_unit(node)
    psi = rng.uniform(0.0, 2.0 * np.pi) if is_mixed(kind, role) else 0.0
    return quorum_curve(kind, role, node, data.hash_point, psi)


def write_quorum(kind: QuorumSystemKind, writer, data: DataType, rng) -> SphericalCurve:
    """Curve contacted by a write access from `writer` for `data`."""
    return _draw(kind, "write", writer, data, rng)


def read_quorum(kind: QuorumSystemKind, reader, data: DataType, rng) -> SphericalCurve:
    """Curve contacted by a read access from `reader` for `data`."""
    return _draw(kind, "read", reader, data, rng)


def random_unit(rng, n: int | None = None) -> np.ndarray:
    v = rng.normal(size=(n or 1, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[0] if n is None else v


def _far_from(point, rng, eps=1e-6) -> np.ndarray:
    """A uniform unit vector more than eps from point and its antipode."""
    while True:
        p = random_unit(rng)
        if eps < geodesic_distance(p, point) < np.pi - eps:
            return p


def geometric_robustness(kind: QuorumSystemKind, data: DataType, trials: int, rng,
                         step: float = DEFAULT_STEP) -> int:
    """Minimum write/read curve intersection count over sampled access pairs."""
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    best = None
    for _ in range(trials):
        writer = _far_from(data.hash_point, rng)
        reader = _far_from(data.hash_point, rng)
        wq = write_quorum(kind, writer, data, rng)
        rq = read_quorum(kind, reader, data, rng)
        n, _ = count_intersections(wq, rq, step=step)
        best = n if best is None else min(best, n)
    return int(best)
