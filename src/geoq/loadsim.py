"""Rasterize quorum curves onto the embedded mesh and account per-node load.

The embedded mesh is a polyhedron of flat triangles, and each quorum curve
is a level set of a function known at every vertex, so a curve is
rasterized with no sampling and no point location.

- A circle (n, rho) is the plane section f(p) = p . n - cos rho = 0 of the
  sphere. f is linear, so the plane cuts a flat triangle exactly when f
  takes both signs at its vertices. One matrix product gives f at every
  vertex for a block of circles.
- A spiral of pitch a and phase theta0 is where its phase
  h = phi / a + theta0 - lambda is a multiple of 2 pi, with latitude phi
  and longitude lambda in the reader's frame (`SphericalSpiral.frame`). An
  edge is crossed when h, with lambda unwrapped along the edge, passes a
  multiple of 2 pi between its ends; a triangle is crossed when one of its
  edges is, which is when [min h, max h] over its vertices, lambda unwrapped
  inside it, holds a multiple of 2 pi. A triangle around which lambda winds
  holds a pole, which every spiral passes, and one of its edges always
  qualifies; an edge along which lambda turns by pi (within POLE_TOL) holds
  a pole, so both its triangles are crossed. For a >= 1/2 the sweep past
  the far pole adds a second branch (`SphericalSpiral.branches`).

Tie rule: a vertex lies on the curve when |f| <= UNIT_TOL, or, for a
spiral, when h lies within UNIT_TOL of a multiple of 2 pi or the vertex is
at a pole. Such a vertex is charged, and a triangle is charged when its
off-curve vertices lie strictly on both sides. So a triangle that meets the
curve only at a vertex is not charged, and a curve along mesh edges (an
equator along the seam of the doubled mesh) charges just the vertices on
it. A circle whose cap holds no vertex crosses no flat triangle; it charges
the triangle that holds its centre.

First hit: a read cut at its first crossing with a write keeps an interval
of its parameter, the angle about a circle's axis from its start or theta
along a spiral, found on the circle of each pair (`circle_crossings`).
Its level set keeps the triangles and on-curve vertices whose parameter
range meets that interval, a subset of the full read's.

Charging rule: every vertex of every charged triangle and every vertex on
the curve receives the access weight once (set semantics per access); loads
of mirror copies accrue to the physical (original) vertex. Weights are added
in access order, so loads do not depend on how the accesses are blocked.

The write rate enters only the weights: `run_geometry` draws and rasterizes
a run's accesses, and `RunGeometry.charge` charges them at any rate, as
`run` does at the workload's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embedding import SphericalEmbedding, locate_many
from .errors import ConfigError, DegenerateInput, OutOfRange
from .quorums import (DataType, QuorumSystemKind, geometric_robustness, is_mixed,
                      is_read_shared, mixing_angles, quorum_curve, read_quorum,
                      write_quorum)
# sample is bound for the benchmark's tracer, which wraps geoq.loadsim.sample
from .sphere import (TWO_PI, UNIT_TOL, SphericalCircle, SphericalCurve,
                     SphericalSpiral, _spiral_roots, circle_crossings, sample)

POLE_TOL = 1e-6  # a boundary reader's far pole lies on a seam edge, where lambda turns by pi
# Curve x mesh entries (vertices for a circle, edges per spiral branch) of one
# block: bounds each of a block's float arrays to 2 MB.
_BLOCK = 1 << 18


def _pack(bits):
    """The rows of a bool array packed 8 columns to a byte."""
    return np.packbits(bits, axis=1)


def _any_of(packed, index):
    """Packed rows: for every index row i, the columns r where packed[j] has
    bit r for some j in index[i]."""
    return packed[index[:, 0]] | packed[index[:, 1]] | packed[index[:, 2]]


def _set_pairs(packed):
    """(column, row) of every set bit of packed rows (`_pack`)."""
    row, byte = np.nonzero(packed)
    k, bit = np.nonzero(np.unpackbits(packed[row, byte][:, None], axis=1))
    return byte[k] * 8 + bit, row[k]


def _meets(values, lo, hi, period=None):
    """Whether the range of each row of `values`, a triangle's or a vertex's
    parameter values, meets [lo, hi] (UNIT_TOL wide). A periodic parameter is
    unwrapped about the row's first value, and its range meets the interval
    when it meets it modulo the period."""
    if period is not None:
        values = values[:, :1] + np.mod(values - values[:, :1] + period / 2, period) - period / 2
    vmin, vmax = values.min(axis=1), values.max(axis=1)
    if period is None:
        return (vmin <= hi + UNIT_TOL) & (vmax >= lo - UNIT_TOL)
    shift = np.floor((vmin - lo) / period) * period
    return (vmin - shift <= hi + UNIT_TOL) | (vmax - shift >= lo + period - UNIT_TOL)


def _restrict(pairs, lo, hi, parameter, vertices, period=None):
    """The (row, index) pairs whose parameter range meets their row's kept
    interval [lo[row], hi[row]]; rows with lo = -inf and hi = inf keep all.
    `parameter(rows, verts)` gives the parameter at vertices, and `vertices`
    maps an index to its vertices (n, k)."""
    row, idx = pairs
    sel = np.flatnonzero(np.isfinite(lo[row]) | np.isfinite(hi[row]))
    if not len(sel):
        return pairs
    r = row[sel]
    ok = np.ones(len(row), dtype=bool)
    ok[sel] = _meets(parameter(r[:, None], vertices(idx[sel])), lo[r], hi[r], period)
    return row[ok], idx[ok]


def _circle_sets(circles, keep, emb: SphericalEmbedding):
    """((row, triangle), (row, vertex)): the triangles that each circle's
    plane cuts and the vertices on it, under the tie rule."""
    axes = np.array([c.axis for c in circles])
    f = emb.positions @ axes.T - np.cos([c.rho for c in circles])    # (vertices, rows)
    pos, neg = f > UNIT_TOL, f < -UNIT_TOL
    tri = emb.mesh.triangles
    crossed = _set_pairs(_any_of(_pack(pos), tri) & _any_of(_pack(neg), tri))
    on = _set_pairs(_pack(~(pos | neg)))
    if any(k is not None for k in keep):
        lo = np.array([-np.inf if k is None else k[0] for k in keep])
        hi = np.array([np.inf if k is None else k[1] for k in keep])
        basis = np.array([c.basis for c in circles])    # (rows, 2, 3)

        def angle(rows, verts):
            p = emb.positions[verts]
            return np.arctan2(np.einsum("...k,...k->...", p, basis[rows, 1]),
                              np.einsum("...k,...k->...", p, basis[rows, 0]))

        crossed = _restrict(crossed, lo, hi, angle, lambda t: tri[t], TWO_PI)
        on = _restrict(on, lo, hi, angle, lambda v: v[:, None], TWO_PI)
    # a cap that holds no vertex: the circle lies inside the mesh's faces
    empty = np.flatnonzero(neg.all(axis=0))
    if len(empty):
        crossed = (np.concatenate([crossed[0], empty]),
                   np.concatenate([crossed[1], locate_many(axes[empty], emb)]))
    return crossed, on


def _spiral_rows(spirals, keep):
    """One row per branch of each spiral: (spiral, frame, pitch, phase, base,
    lo, hi). Along a row, theta = base + phi / pitch, and the row keeps
    theta in [lo, hi], or all of it where lo = -inf and hi = inf."""
    rows = []
    for i, (s, k) in enumerate(zip(spirals, keep)):
        lo, hi = s.theta_range()
        if k is not None:
            lo, hi = max(lo, k[0]), min(hi, k[1])
        for base, pitch, phase, start, end in s.branches():
            if lo <= end + UNIT_TOL and hi >= start - UNIT_TOL:
                full = lo <= start + UNIT_TOL and hi >= end - UNIT_TOL
                rows.append((i, s.frame, pitch, phase, base,
                             -np.inf if full else lo, np.inf if full else hi))
        if not rows or rows[-1][0] != i:
            raise OutOfRange(f"kept interval {k} misses the spiral's sweep")
    return rows


def _spiral_sets(spirals, keep, emb: SphericalEmbedding):
    """((spiral, triangle), (spiral, vertex)): the triangles that each
    spiral's branches cross and the vertices on them, under the tie rule."""
    spiral, frame, pitch, phase, base, lo, hi = (np.array(col) for col in
                                                 zip(*_spiral_rows(spirals, keep)))
    # the vertices in each row's reader frame: x, y, z of (vertices, rows)
    x, y, z = np.split(emb.positions @ np.concatenate(frame.transpose(1, 2, 0), axis=1), 3,
                       axis=1)
    rxy = np.hypot(x, y)
    phi = np.arctan2(z, rxy)
    lam = np.arctan2(y, x)
    del x, y, z
    h = phi / pitch + phase - lam
    turn = np.floor(h / TWO_PI)    # h = 2 pi turn + rest, rest in [0, 2 pi)
    rest = h - TWO_PI * turn
    del h
    on_curve = (rxy <= UNIT_TOL) | (rest <= UNIT_TOL) | (rest >= TWO_PI - UNIT_TOL)
    turn = turn.astype(np.int32)
    ends, sides = emb.edges()
    u, w = ends[:, 0], ends[:, 1]
    # lambda unwrapped along an edge moves the turn at w by one where it
    # passes the cut of arctan2; h passes a multiple of 2 pi between u and w
    # exactly when the turns at the ends then differ
    dlam = lam[w] - lam[u]
    cut = turn[u] != turn[w] + (dlam > np.pi) - (dlam < -np.pi)
    cut &= ~on_curve[u] & ~on_curve[w]
    np.abs(dlam, out=dlam)    # in place: a block's float array is 2 MB
    cut |= (dlam >= np.pi - POLE_TOL) & (dlam <= np.pi + POLE_TOL)
    del dlam
    crossed = _set_pairs(_any_of(_pack(cut), sides))
    on = _set_pairs(_pack(on_curve))

    def theta(rows, verts):
        return base[rows] + phi[verts, rows] / pitch[rows]

    crossed = _restrict(crossed, lo, hi, theta, lambda t: emb.mesh.triangles[t])
    on = _restrict(on, lo, hi, theta, lambda v: v[:, None])
    if len(spiral) == len(spirals):
        return (spiral[crossed[0]], crossed[1]), (spiral[on[0]], on[1])
    # two branches may cross one triangle, or meet at a pole
    return tuple(_unique_pairs(spiral[row], idx) for row, idx in (crossed, on))


def _unique_pairs(row, idx):
    n = idx.max(initial=0) + 1
    key = np.unique(row * n + idx)
    return key // n, key % n


def level_sets(curves, emb: SphericalEmbedding, keep=None):
    """The curves' level sets on the mesh, as (owner, triangles, on).

    Curve owner[i] crosses triangle triangles[i], and on = (owner, vertices)
    lists the vertices that lie on each curve (see the module's tie rule).
    Each pair occurs once, in no set order. keep[c], where given and not
    None, is the (lo, hi) interval of curve c's parameter to keep: the angle
    from its start about a circle's axis (lo = 0), or theta along a spiral.
    """
    keep = [None] * len(curves) if keep is None else list(keep)
    parts, n_done = [], 0
    for sets, shape in ((_circle_sets, SphericalCircle), (_spiral_sets, SphericalSpiral)):
        ids = np.array([i for i, c in enumerate(curves) if isinstance(c, shape)], dtype=int)
        if len(ids):
            (row, tri), (v_row, vert) = sets([curves[i] for i in ids],
                                             [keep[i] for i in ids], emb)
            parts.append((ids[row], tri, ids[v_row], vert))
            n_done += len(ids)
    if n_done < len(curves):
        raise TypeError("level_sets rasterizes SphericalCircle and SphericalSpiral curves")
    if not parts:
        none = np.zeros(0, dtype=int)
        return none, none, (none, none)
    owner, tri, v_owner, vert = (np.concatenate(col) for col in zip(*parts))
    return owner, tri, (v_owner, vert)


def rasterize(curve: SphericalCurve, emb: SphericalEmbedding) -> np.ndarray:
    """Sorted unique indices of the mesh triangles that the curve crosses:
    the triangles of its level set (`level_sets`), exact on the flat
    triangles."""
    return np.unique(level_sets([curve], emb)[1])


def _access_nodes(owner, triangles, emb: SphericalEmbedding, on=None):
    """The unique (access, physical node) pairs of the triangles' vertices
    and of the vertices on = (owner, vertices), sorted by access then node,
    as two arrays."""
    access = [np.repeat(np.asarray(owner, dtype=int), 3)]
    verts = [emb.mesh.triangles[np.asarray(triangles, dtype=int)].ravel()]
    if on is not None:
        access.append(np.asarray(on[0], dtype=int))
        verts.append(np.asarray(on[1], dtype=int))
    access = np.concatenate(access)
    hit = np.zeros((access.max(initial=-1) + 1, emb.n_nodes), dtype=bool)
    hit[access, emb.mesh.original_vertex(np.concatenate(verts))] = True
    return np.nonzero(hit)


def charge(load: np.ndarray, triangles, emb: SphericalEmbedding, weight,
           owner=None, on=None) -> np.ndarray:
    """Add `weight` once to every physical node incident to the triangles,
    and to every vertex of on = (owner, vertices).

    With `owner`, triangle i belongs to access owner[i], whose weight is
    weight[owner[i]]; each access charges its nodes once, and the weights
    are added in access order, as charging one access at a time would.
    """
    weight = np.atleast_1d(np.asarray(weight, dtype=float))
    if (weight < 0).any():
        raise OutOfRange("charge weight must be nonnegative")
    if owner is None:
        owner = np.zeros(len(triangles), dtype=int)
    access, nodes = _access_nodes(owner, triangles, emb, on)
    np.add.at(load, nodes, weight[access])
    return load


def _check_rate(r) -> None:
    if not (math.isfinite(r) and r > 0):
        raise OutOfRange(f"write_rate_r must be finite and positive, got {r}")


@dataclass(frozen=True)
class Workload:
    """Access pattern: data types, relative write rate, and the event model.

    write_rate_r is the per-contributor data production rate; every querier
    queries at rate 1, and loads are affine in the rates, so a write-only
    load is a workload with no queriers. The rate enters only the weights
    that `RunGeometry.charge` adds: no curve, cut or level set depends on it.
    MonteCarlo mode draws `events` accesses per accessor (each carrying
    rate/events weight); Expected mode charges pure strategies once at full
    rate and mixed strategies through a deterministic mixing quadrature of
    `mix_samples` curves.
    """

    data_types: tuple
    write_rate_r: float
    mode: str = "montecarlo"
    events: int = 1
    mix_samples: int = 16

    def __post_init__(self):
        _check_rate(self.write_rate_r)
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


def _first_hit_keep(read: SphericalCurve, writes: list):
    """The interval of the read's parameter kept up to its first crossing
    with any write: the angle about a circle's axis from its start, or theta
    along a spiral, from `circle_crossings` and `_spiral_roots`; (lo, lo) if
    the read starts on a write circle or at a pole of a write spiral, and
    None if it never crosses a write. A spiral read searches each write
    only below the first crossing found so far."""
    circle = isinstance(read, SphericalCircle)
    lo = 0.0 if circle else read.theta_range()[0]
    start = read.points(np.array([lo]))[0]
    first = math.inf
    for w in writes:
        if (abs(start @ w.axis - np.cos(w.rho)) <= UNIT_TOL if isinstance(w, SphericalCircle)
                else math.hypot(*(w.frame[:2] @ start)) <= UNIT_TOL):
            return lo, lo
        params = (circle_crossings(read, w)[0] if circle
                  else _spiral_roots(w, read, upper=first)[0])
        first = min(first, float(params.min(initial=math.inf)))
    return None if first == math.inf else (lo, first)


def _accesses(workload: Workload, kind: QuorumSystemKind, data: DataType,
              node_pos, rng, first_hit: bool):
    """The data type's accesses in charging order, as (curve, keep, (write,
    factor, count)): every write, then every read. An access weighs
    factor * r / count if it is a write and factor / count if not, where
    count is the number of its accessor's curves: `events` draws in Monte
    Carlo mode; in expected mode, the mixing quadrature of a mixed strategy
    or the one curve of a pure one. keep is None for a whole curve;
    a first-hit read keeps the parameter interval before its first crossing
    with this data type's writes (`_first_hit_keep`)."""
    writes: list[SphericalCurve] = []  # realized writes, for first_hit
    expected = workload.mode == "expected"
    for role, accessors, draw in (("write", data.contributors, write_quorum),
                                  ("read", data.queriers, read_quorum)):
        nodes = [node_pos[int(i)] for i in accessors]
        factor = 1.0
        if expected and role == "read" and is_read_shared(kind):
            # the read family depends only on the hash; share it across queriers
            factor = float(len(nodes))
            nodes = [None] if nodes else []
        for node in nodes:
            if expected and is_mixed(kind, role):
                curves = [quorum_curve(kind, role, node, data.hash_point, psi)
                          for psi in mixing_angles(workload.mix_samples)]
            else:
                curves = [draw(kind, node, data, rng)
                          for _ in range(1 if expected else workload.events)]
            for curve in curves:
                if first_hit and role == "write":
                    writes.append(curve)
                keep = (_first_hit_keep(curve, writes)
                        if first_hit and role == "read" else None)
                yield curve, keep, (role == "write", factor, len(curves))


def _blocks(accesses, emb: SphericalEmbedding):
    """The accesses in consecutive blocks of about _BLOCK curve x mesh
    entries: a circle's row has a value per vertex, a spiral has a row of
    values per edge for each branch it sweeps."""
    n_vertices, n_edges = len(emb.positions), len(emb.edges()[0])
    block, size = [], 0
    for access in accesses:
        curve = access[0]
        block.append(access)
        size += (n_vertices if isinstance(curve, SphericalCircle)
                 else n_edges * len(curve.branches()))
        if size >= _BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


@dataclass(frozen=True, eq=False)
class RunGeometry:
    """What a run charges, at any write rate: its accesses' level sets and
    rate terms, and its robustness counts (`run_geometry`).

    blocks[i] is (owner, triangles, on) from `level_sets` for the i-th block
    of accesses, and splits holds the index of the first access of each
    block after the first. Per access, write says whether its role's rate is
    r or 1, factor multiplies that rate, and count divides it (`_accesses`).
    """

    blocks: tuple
    splits: np.ndarray
    write: np.ndarray
    factor: np.ndarray
    count: np.ndarray
    robustness_geometric: int | None = None
    robustness_discrete: int | None = None

    def charge(self, r: float, emb: SphericalEmbedding):
        """(Metrics, load array indexed by node id) at write rate r: each
        block charged in order (the module-level `charge`), as `run` does."""
        _check_rate(r)
        weight = np.where(self.write, r, 1.0) * self.factor / self.count
        load = np.zeros(emb.n_nodes)
        for (owner, triangles, on), w in zip(self.blocks, np.split(weight, self.splits)):
            charge(load, triangles, emb, w, owner, on)
        metrics = Metrics(system_load=float(load.max()), total_load=float(load.sum()),
                          robustness_geometric=self.robustness_geometric,
                          robustness_discrete=self.robustness_discrete)
        return metrics, load


def run_geometry(workload: Workload, kind: QuorumSystemKind, emb: SphericalEmbedding,
                 rng, read_termination: str = "full",
                 robustness_trials: int = 0, robustness_rng=None) -> RunGeometry:
    """Draw and rasterize the workload's accesses, and count robustness,
    without charging: every part of `run` that does not depend on the write
    rate. `RunGeometry.charge(r, emb)` then gives the run's result at any r,
    and draws nothing from rng."""
    if read_termination not in ("full", "first_hit"):
        raise ConfigError(f"unknown read_termination {read_termination!r}")
    for data in workload.data_types:
        _validate_nodes(data, emb.n_nodes)
    node_pos = emb.node_positions()

    accesses = chain.from_iterable(
        _accesses(workload, kind, data, node_pos, rng, read_termination == "first_hit")
        for data in workload.data_types)
    blocks, rates, ends = [], [], []
    for block in _blocks(accesses, emb):
        curves, keep, rate = zip(*block)
        owner, triangles, (v_owner, vertices) = level_sets(curves, emb, keep)
        # kept for every rate, so in 32 bits: no mesh or block has 2**31 entries
        owner, triangles, v_owner, vertices = (
            a.astype(np.int32) for a in (owner, triangles, v_owner, vertices))
        blocks.append((owner, triangles, (v_owner, vertices)))
        rates.extend(rate)
        ends.append(len(rates))
    write, factor, count = np.array(rates, dtype=float).reshape(-1, 3).T

    rg = rd = None
    if robustness_trials > 0:
        rr = robustness_rng if robustness_rng is not None else rng
        rg = geometric_robustness(kind, workload.data_types[0], robustness_trials, rr)
        rd = discrete_robustness(kind, workload.data_types[0], emb,
                                 robustness_trials, rr)
    return RunGeometry(tuple(blocks), np.array(ends[:-1], dtype=int), write > 0, factor,
                       count, rg, rd)


def run(workload: Workload, kind: QuorumSystemKind, emb: SphericalEmbedding,
        rng, read_termination: str = "full",
        robustness_trials: int = 0, robustness_rng=None):
    """Execute the workload; returns (Metrics, load array indexed by node id).

    read_termination="first_hit" truncates each read curve at its first
    intersection with a write quorum of the same data type; "full" charges the
    entire curve. A pure strategy's accessor at the hash point or its
    antipode raises DegenerateInput: its great circle (QG and QL writes, QLd
    reads) or latitude circle (QL reads, QLd writes) is undefined there.
    The write rate enters only the charge: this is
    `run_geometry(...).charge(workload.write_rate_r, emb)`.
    """
    return run_geometry(workload, kind, emb, rng, read_termination, robustness_trials,
                        robustness_rng).charge(workload.write_rate_r, emb)


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
        owner, triangles, on = level_sets([wq, rq], emb)
        access, nodes = _access_nodes(owner, triangles, emb, on)
        shared = len(np.intersect1d(nodes[access == 0], nodes[access == 1],
                                    assume_unique=True))
        best = shared if best is None else min(best, shared)
    return int(best) if best is not None else 0
