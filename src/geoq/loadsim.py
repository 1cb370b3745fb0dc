"""Rasterize quorum curves onto the embedded mesh and account per-node load.

A run builds its access curves in access order, samples each once and
rasterizes them in batches: one point location per curve, for its first
sample, then one walk that moves every curve along its samples, each chord
starting in the triangle where the previous one stopped.

Charging rule: every vertex of every triangle traversed by an access's curve
receives the access weight once (set semantics per access); loads of mirror
copies accrue to the physical (original) vertex. Weights are added in access
order, so loads do not depend on how the accesses are batched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embedding import SphericalEmbedding, locate_many, walk
from .errors import ConfigError, DegenerateInput, OutOfRange
from .quorums import (DataType, QuorumSystemKind, geometric_robustness, is_mixed,
                      is_read_shared, mixing_angles, quorum_curve, read_quorum,
                      write_quorum)
from .sphere import (UNIT_TOL, GeodesicPolyline, SphericalCircle,
                     SphericalCurve, circle_crossings, sample)

RASTER_STEP_FACTOR = 0.25  # sampling step as a fraction of the median edge length
# Samples per edge length: about how many consecutive samples one triangle
# holds, so one walk iteration tests that many.
_LOOKAHEAD = math.ceil(1 / RASTER_STEP_FACTOR)
# Samples rasterized together; bounds a batch's memory (about 100 bytes each).
_BATCH_SAMPLES = 1 << 17


def raster_step(emb: SphericalEmbedding) -> float:
    return RASTER_STEP_FACTOR * emb.median_edge_length()


def stack_polylines(polylines):
    """(points, offsets): the polylines' samples end to end, polyline c being
    points[offsets[c]:offsets[c + 1]]."""
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in polylines])])
    return np.concatenate(polylines), offsets


def rasterize_polylines(points, offsets, emb: SphericalEmbedding):
    """(owner, triangles): the unique (polyline, triangle) pairs, sorted by
    polyline then triangle, of the mesh triangles that the geodesic segments
    between each polyline's samples pass through. Polyline c is
    points[offsets[c]:offsets[c + 1]] (see `stack_polylines`).

    Only each polyline's first sample is located; one walk then moves every
    polyline along its samples (`embedding.walk`), and each charges its first
    triangle and every triangle it enters.
    """
    first = locate_many(points[offsets[:-1]], emb)
    owner, entered = walk(emb, first, points, offsets, lookahead=_LOOKAHEAD)
    n_tri = emb.mesh.n_triangles
    key = np.unique(np.concatenate([np.arange(len(first)), owner]) * n_tri
                    + np.concatenate([first, entered]))
    return key // n_tri, key % n_tri


def rasterize(curve: SphericalCurve, emb: SphericalEmbedding,
              step: float | None = None) -> np.ndarray:
    """Sorted unique indices of the mesh triangles that the geodesic segments
    between the curve's samples pass through: `rasterize_polylines` of one.

    A curve that starts at a mesh vertex, as writes and reader spirals do, is
    located in one triangle of the vertex's fan, and its first segment turns
    about the vertex to the triangle it enters, so the curve also charges the
    fan triangles it turns through, which meet it only at that vertex. This
    is kept: starting the walk in the triangle the first segment enters
    would lower total loads.
    """
    if step is None:
        step = raster_step(emb)
    pts = sample(curve, step).points
    return rasterize_polylines(pts, [0, len(pts)], emb)[1]


def _access_nodes(owner, triangles, emb: SphericalEmbedding):
    """The unique (access, physical node) pairs of the triangles' vertices,
    sorted by access then node, as two arrays."""
    n = emb.n_nodes
    nodes = emb.mesh.original_vertex(emb.mesh.triangles[np.asarray(triangles, dtype=int)])
    key = np.unique(np.asarray(owner, dtype=int)[:, None] * n + nodes)
    return key // n, key % n


def charge(load: np.ndarray, triangles, emb: SphericalEmbedding, weight,
           owner=None) -> np.ndarray:
    """Add `weight` once to every physical node incident to the triangles.

    With `owner`, triangle i belongs to access owner[i], whose weight is
    weight[owner[i]]; each access charges its nodes once, and the weights
    are added in access order, as charging one access at a time would.
    """
    weight = np.atleast_1d(np.asarray(weight, dtype=float))
    if (weight < 0).any():
        raise OutOfRange("charge weight must be nonnegative")
    if owner is None:
        owner = np.zeros(len(triangles), dtype=int)
    access, nodes = _access_nodes(owner, triangles, emb)
    np.add.at(load, nodes, weight[access])
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
    return GeodesicPolyline(points=a[:cut])


def _accesses(workload: Workload, kind: QuorumSystemKind, data: DataType,
              node_pos, rng, step: float, first_hit: bool):
    """The data type's accesses in charging order, as (samples, weight): every
    write, then every read. An accessor's curves are `events` draws in Monte
    Carlo mode; in expected mode, the mixing quadrature of a mixed strategy or
    the one curve of a pure one. A first-hit read is cut at its first
    crossing with this data type's writes."""
    writes: list[SphericalCurve] = []  # realized writes, for first_hit
    expected = workload.mode == "expected"
    for role, accessors, rate, draw in (
            ("write", data.contributors, workload.write_rate_r, write_quorum),
            ("read", data.queriers, workload.read_rate, read_quorum)):
        nodes = [node_pos[int(i)] for i in accessors]
        if expected and role == "read" and is_read_shared(kind):
            # the read family depends only on the hash; share it across queriers
            rate *= len(nodes)
            nodes = [None] if rate > 0 else []
        for node in nodes:
            if expected and is_mixed(kind, role):
                curves = [quorum_curve(kind, role, node, data.hash_point, psi)
                          for psi in mixing_angles(workload.mix_samples)]
            else:
                curves = [draw(kind, node, data, rng)
                          for _ in range(1 if expected else workload.events)]
            for curve in curves:
                if role == "read" and first_hit:
                    poly = _first_hit_truncate(curve, writes, step)
                else:
                    poly = sample(curve, step)
                    if first_hit:  # a spiral is kept as its samples, so no read resamples it
                        writes.append(curve if isinstance(curve, SphericalCircle) else poly)
                yield poly.points, rate / len(curves)


def _batches(accesses):
    """The accesses in consecutive batches of about _BATCH_SAMPLES samples,
    each as ((points, offsets), weights)."""
    polylines, weights, size = [], [], 0
    for pts, weight in accesses:
        polylines.append(pts)
        weights.append(weight)
        size += len(pts)
        if size >= _BATCH_SAMPLES:
            batch = stack_polylines(polylines), weights
            polylines, weights, size = [], [], 0   # free the samples before the walk
            yield batch
    if polylines:
        yield stack_polylines(polylines), weights


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
    for data in workload.data_types:
        _validate_nodes(data, n_nodes)
    load = np.zeros(n_nodes)
    node_pos = emb.node_positions()
    step = raster_step(emb)

    accesses = chain.from_iterable(
        _accesses(workload, kind, data, node_pos, rng, step,
                  read_termination == "first_hit")
        for data in workload.data_types)
    for (points, offsets), weights in _batches(accesses):
        owner, triangles = rasterize_polylines(points, offsets, emb)
        charge(load, triangles, emb, weights, owner)

    rg = rd = None
    if robustness_trials > 0:
        rr = robustness_rng if robustness_rng is not None else rng
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
    step = raster_step(emb)
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
        owner, triangles = rasterize_polylines(
            *stack_polylines([sample(wq, step).points, sample(rq, step).points]), emb)
        access, nodes = _access_nodes(owner, triangles, emb)
        shared = len(np.intersect1d(nodes[access == 0], nodes[access == 1],
                                    assume_unique=True))
        best = shared if best is None else min(best, shared)
    return int(best) if best is not None else 0
