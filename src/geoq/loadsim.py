"""Rasterize quorum curves onto the embedded mesh and account per-node load.

Charging rule: every vertex of every triangle traversed by an access's curve
receives the access weight once (set semantics per access); loads of mirror
copies accrue to the physical (original) vertex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import SphericalEmbedding, locate_many, walk
from .errors import ConfigError, DegenerateInput, OutOfRange
from .quorums import (DataType, QuorumSystemKind, is_read_pure, is_write_pure,
                      mixed_read, mixed_write, read_quorum, write_quorum)
from .sphere import (UNIT_TOL, GeodesicPolyline, SphericalCircle,
                     SphericalCurve, circle_crossings, sample)

RASTER_STEP_FACTOR = 0.25  # sampling step as a fraction of the median edge length


def raster_step(emb: SphericalEmbedding) -> float:
    return RASTER_STEP_FACTOR * emb.median_edge_length()


def rasterize(curve: SphericalCurve, emb: SphericalEmbedding,
              step: float | None = None) -> np.ndarray:
    """Sorted unique indices of the mesh triangles that the geodesic segments
    between the curve's samples pass through: the triangle of every sample,
    and every triangle walked through between consecutive samples that lie in
    different triangles."""
    if step is None:
        step = raster_step(emb)
    pts = sample(curve, step).points
    tids = locate_many(pts, emb)
    gaps = np.flatnonzero(tids[:-1] != tids[1:])
    _, entered = walk(emb, tids[gaps], pts[gaps], pts[gaps + 1])
    return np.unique(np.concatenate([tids, entered]))


def _charged_nodes(triangles, emb: SphericalEmbedding) -> np.ndarray:
    """Sorted ids of the physical nodes incident to the triangles."""
    verts = np.unique(emb.mesh.triangles[np.asarray(triangles, dtype=int)].ravel())
    return np.unique(emb.mesh.original_vertex(verts))


def charge(load: np.ndarray, triangles, emb: SphericalEmbedding, weight: float) -> np.ndarray:
    """Add `weight` once to every physical node incident to the triangles."""
    if weight < 0:
        raise OutOfRange("charge weight must be nonnegative")
    load[_charged_nodes(triangles, emb)] += weight
    return load


@dataclass(frozen=True)
class Workload:
    """Access pattern: data types, relative write rate, and the event model.

    write_rate_r is the per-contributor data production rate relative to a
    per-querier query rate of 1. MonteCarlo mode draws `events` accesses per
    accessor (each carrying rate/events weight); Expected mode charges pure
    strategies once at full rate and mixed strategies through a deterministic
    mixing quadrature of `mix_samples` curves.
    """

    data_types: tuple
    write_rate_r: float
    read_rate: float = 1.0
    mode: str = "montecarlo"
    events: int = 1
    mix_samples: int = 16

    def __post_init__(self):
        if self.write_rate_r <= 0:
            raise OutOfRange("write_rate_r must be positive")
        if self.mode not in ("montecarlo", "expected"):
            raise ConfigError(f"unknown workload mode {self.mode!r}")
        if self.events < 1 or self.mix_samples < 1:
            raise OutOfRange("events and mix_samples must be >= 1")


@dataclass(frozen=True)
class Metrics:
    system_load: float
    total_load: float
    robustness_geometric: int | None = None
    robustness_discrete: int | None = None


def _validate_nodes(data: DataType, n_nodes: int) -> None:
    for group in (data.contributors, data.queriers):
        for i in group:
            if not (0 <= int(i) < n_nodes):
                raise ConfigError(f"node id {i} outside deployment of {n_nodes}")


def _mixing_angles(k: int) -> np.ndarray:
    """Deterministic quadrature nodes over the mixing angle."""
    return 2 * np.pi * (np.arange(k) + 0.5) / k


def _mixed_write_family(kind: QuorumSystemKind, node, k: int):
    return [mixed_write(kind, node, psi) for psi in _mixing_angles(k)]


def _mixed_read_family(kind: QuorumSystemKind, node, hash_point, k: int):
    return [mixed_read(kind, node, hash_point, psi) for psi in _mixing_angles(k)]


def _first_hit_truncate(read: SphericalCurve, writes: list,
                        step: float) -> GeodesicPolyline:
    """Sample the read curve and cut it at its first crossing with any write.

    Every write/read pair has a circle. Against a circle write the read keeps
    its first segment that straddles the circle or starts on it (within
    UNIT_TOL). Spiral writes (dual GeoQuorum, passed as their samples) meet a
    circle read: their crossings with it are placed along the read by their
    angle about its axis, in which sample() spaces a circle's samples evenly
    from the first.
    """
    poly = sample(read, step)
    a = poly.points
    cut = len(a)
    for w in writes:
        if isinstance(w, SphericalCircle):
            f, seg, _ = circle_crossings(w, poly, step)
            hits = np.concatenate([seg, np.flatnonzero(np.abs(f) <= UNIT_TOL)])
        else:
            _, _, pts = circle_crossings(read, w, step)
            u = a[0] - (a[0] @ read.axis) * read.axis
            ang = np.mod(np.arctan2(pts @ np.cross(read.axis, u), pts @ u), 2 * np.pi)
            hits = (ang / (2 * np.pi) * (len(a) - 1)).astype(int)
        if len(hits):
            cut = min(cut, int(hits.min()) + 2)  # keep the crossing segment
    return GeodesicPolyline(points=a[:cut], step=step, closed=False)


def run(workload: Workload, kind: QuorumSystemKind, emb: SphericalEmbedding,
        rng, read_termination: str = "full",
        robustness_trials: int = 0, robustness_rng=None):
    """Execute the workload; returns (Metrics, load array indexed by node id).

    read_termination="first_hit" truncates each read curve at its first
    intersection with a write quorum of the same data type; "full" charges the
    entire curve.
    """
    if read_termination not in ("full", "first_hit"):
        raise ConfigError(f"unknown read_termination {read_termination!r}")
    n_nodes = emb.n_nodes
    load = np.zeros(n_nodes)
    node_pos = emb.node_positions()
    step = raster_step(emb)

    for data in workload.data_types:
        _validate_nodes(data, n_nodes)
        write_curves: list[SphericalCurve] = []  # realized writes, for first_hit

        def charge_curve(curve, weight, keep=False):
            poly = sample(curve, step)
            if keep:  # a spiral is kept as its samples, so no read resamples it
                write_curves.append(curve if isinstance(curve, SphericalCircle) else poly)
            charge(load, rasterize(poly, emb, step), emb, weight)

        keep_writes = read_termination == "first_hit"
        # writes
        for i in data.contributors:
            node = node_pos[int(i)]
            if workload.mode == "expected":
                if is_write_pure(kind):
                    charge_curve(write_quorum(kind, node, data, rng),
                                 workload.write_rate_r, keep=keep_writes)
                else:
                    for c in _mixed_write_family(kind, node, workload.mix_samples):
                        charge_curve(c, workload.write_rate_r / workload.mix_samples,
                                     keep=keep_writes)
            else:
                for _ in range(workload.events):
                    charge_curve(write_quorum(kind, node, data, rng),
                                 workload.write_rate_r / workload.events,
                                 keep=keep_writes)

        # reads
        def charge_read(curve, weight):
            if read_termination == "first_hit":
                poly = _first_hit_truncate(curve, write_curves, step)
            else:
                poly = sample(curve, step)
            charge(load, rasterize(poly, emb, step), emb, weight)

        if workload.mode == "expected" and kind.name in ("QG", "QGm"):
            # the read family depends only on the hash; share it across queriers
            total = workload.read_rate * len(data.queriers)
            if total > 0:
                for c in _mixed_read_family(kind, None, data.hash_point,
                                            workload.mix_samples):
                    charge_read(c, total / workload.mix_samples)
        else:
            for i in data.queriers:
                node = node_pos[int(i)]
                if workload.mode == "expected":
                    if is_read_pure(kind):
                        charge_read(read_quorum(kind, node, data, rng),
                                    workload.read_rate)
                    else:
                        for c in _mixed_read_family(kind, node, data.hash_point,
                                                    workload.mix_samples):
                            charge_read(c, workload.read_rate / workload.mix_samples)
                else:
                    for _ in range(workload.events):
                        charge_read(read_quorum(kind, node, data, rng),
                                    workload.read_rate / workload.events)

    rg = rd = None
    if robustness_trials > 0:
        rr = robustness_rng if robustness_rng is not None else rng
        from .quorums import geometric_robustness
        coarse = max(step, np.pi / 400)
        rg = geometric_robustness(kind, workload.data_types[0], robustness_trials,
                                  rr, step=coarse)
        rd = discrete_robustness(kind, workload.data_types[0], emb,
                                 robustness_trials, rr)
    metrics = Metrics(system_load=float(load.max()), total_load=float(load.sum()),
                      robustness_geometric=rg, robustness_discrete=rd)
    return metrics, load


def discrete_robustness(kind: QuorumSystemKind, data: DataType,
                        emb: SphericalEmbedding, trials: int, rng) -> int:
    """Minimum count of shared charged physical nodes over write/read pairs."""
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    node_pos = emb.node_positions()
    contributors = data.contributors or tuple(range(emb.n_nodes))
    queriers = data.queriers or tuple(range(emb.n_nodes))
    best = None
    for _ in range(trials):
        wi = int(rng.choice(len(contributors)))
        ri = int(rng.choice(len(queriers)))
        writer = node_pos[int(contributors[wi])]
        reader = node_pos[int(queriers[ri])]
        try:
            wq = write_quorum(kind, writer, data, rng)
            rq = read_quorum(kind, reader, data, rng)
        except DegenerateInput:
            continue
        wv = _charged_nodes(rasterize(wq, emb), emb)
        rv = _charged_nodes(rasterize(rq, emb), emb)
        shared = len(np.intersect1d(wv, rv, assume_unique=True))
        best = shared if best is None else min(best, shared)
    return int(best) if best is not None else 0
