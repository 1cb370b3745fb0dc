"""Planar triangulations, deployments, and the doubled (genus-0) mesh.

All mesh topology (edge counts, the boundary loop, chord edges and triangle
neighbours) is read from one sorted edge table, `edge_table`.

The doubled mesh glues the region to its orientation-reversed copy along the
boundary loop; interior vertices are duplicated, boundary vertices shared. A
valid input mesh must not contain an interior edge joining two boundary
vertices (the double would not be a simplicial manifold) nor a triangle with
all three vertices on the boundary.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, DegenerateMesh


def point_in_polygon(points, polygon) -> np.ndarray:
    """Ray-crossing test; points (n,2), polygon (m,2) simple, any orientation."""
    q = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    x, y = q[:, 0], q[:, 1]
    inside = np.zeros(len(q), dtype=bool)
    for i in range(len(poly)):
        x1, y1 = poly[i - 1]
        x2, y2 = poly[i]
        cond = ((y1 > y) != (y2 > y)) & (x < (x2 - x1) * (y - y1) / (y2 - y1 + 1e-300) + x1)
        inside ^= cond
    return inside


def distance_to_polygon(points, polygon) -> np.ndarray:
    """Distance from each point to the polygon outline."""
    q = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    d = np.full(len(q), np.inf)
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        ab = b - a
        t = np.clip(((q - a) @ ab) / float(ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.minimum(d, np.linalg.norm(q - proj, axis=1))
    return d


def polygon_area(polygon) -> float:
    poly = np.asarray(polygon, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def validate_simple_polygon(polygon) -> np.ndarray:
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise DegenerateInput("polygon needs at least 3 vertices")
    m = len(poly)
    for i in range(m):
        for j in range(i + 1, m):
            if j in (i, (i + 1) % m) or i == (j + 1) % m:
                continue
            if _segments_intersect(poly[i], poly[(i + 1) % m], poly[j], poly[(j + 1) % m]):
                raise DegenerateInput("polygon is self-intersecting")
    return poly


@dataclass(frozen=True)
class PlanarMesh:
    """Triangulated simply-connected planar region.

    vertices (n,2); triangles (m,3) CCW; boundary: ordered index loop (CCW).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def edge_count(self) -> int:
        return len(edge_table(self.triangles).first)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.edge_count() + self.n_triangles


@dataclass(frozen=True)
class EdgeTable:
    """The edges of a triangle list, one slot per triangle side.

    Slot 3t + i is the side of triangle t opposite its vertex i, directed
    tail -> head as the triangle runs. `order` sorts the slots by the edge
    key min * n + max, stably, so each edge's slots stay in triangle order:
    unique edge e (in key order) owns order[first[e]:first[e] + count[e]].
    """

    tail: np.ndarray
    head: np.ndarray
    order: np.ndarray
    first: np.ndarray
    count: np.ndarray

    def slots(self, multiplicity: int | None = None, k: int = 0) -> np.ndarray:
        """The k-th slot of every edge, or of every edge that occurs exactly
        `multiplicity` times, in key order."""
        first = self.first if multiplicity is None else self.first[self.count == multiplicity]
        return self.order[first + k]


def edge_table(triangles) -> EdgeTable:
    """Sort the sides of a triangle list into its edge table."""
    tri = np.asarray(triangles, dtype=int).reshape(-1, 3)
    tail, head = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
    n = tri.max(initial=0) + 1
    key = np.minimum(tail, head) * n + np.maximum(tail, head)
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    return EdgeTable(tail, head, order, first, np.diff(first, append=len(key)))


def triangle_neighbors(triangles) -> np.ndarray:
    """neighbors[t, i] = the triangle across the side opposite vertex i: the
    other slot of an edge that occurs exactly twice, else -1."""
    et = edge_table(triangles)
    s, u = et.slots(2), et.slots(2, 1)
    nb = np.full(len(et.tail), -1)
    nb[s], nb[u] = u // 3, s // 3
    return nb.reshape(-1, 3)


def _boundary_loop(triangles) -> np.ndarray:
    """The boundary of CCW triangles as one counter-clockwise vertex loop.

    The boundary sides (edges that occur once) run counter-clockwise in
    their triangles, so the loop chains them tail to head. It starts at the
    smaller end of the first boundary side in slot order, or one vertex
    further on if that side runs into it.
    """
    et = edge_table(triangles)
    s = et.slots(1)
    if not len(s):
        raise DegenerateInput("mesh has no boundary")
    tail, head = et.tail[s], et.head[s]
    if not np.array_equal(np.unique(tail), np.sort(head)):  # in- and out-degree 1
        raise DegenerateInput("boundary is not a simple loop")
    succ = np.zeros(tail.max() + 1, dtype=int)
    succ[tail] = head
    a, b = et.tail[s.min()], et.head[s.min()]
    # loop[k] is the start's k-th successor; hop jumps len(loop) sides
    loop, hop = np.array([a if a < b else succ[b]]), succ
    while len(loop) < len(s):
        loop, hop = np.concatenate([loop, hop[loop]]), hop[hop]
    loop = loop[:len(s)]
    if len(np.unique(loop)) < len(s):
        raise DegenerateInput("boundary has more than one loop")
    return loop


def _orient_ccw(vertices, triangles):
    t = np.asarray(triangles).copy()
    v0, v1, v2 = vertices[t[:, 0]], vertices[t[:, 1]], vertices[t[:, 2]]
    cross = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
             - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
    if np.any(np.abs(cross) < 1e-300):
        raise DegenerateMesh("zero-area triangle in triangulation")
    flip = cross < 0
    t[flip] = t[flip][:, [0, 2, 1]]
    return t


def chord_edges(mesh: PlanarMesh) -> list[tuple[int, int]]:
    """Interior edges joining two boundary vertices (illegal for doubling),
    in order of first occurrence."""
    et = edge_table(mesh.triangles)
    s = np.sort(et.slots(2))
    ab = np.sort(np.c_[et.tail[s], et.head[s]], axis=1)
    return [tuple(e) for e in ab[np.isin(ab, mesh.boundary).all(axis=1)].tolist()]


def _flip_chords(vertices, triangles) -> np.ndarray:
    """The CCW triangles with each chord's two triangles (a, b, c) and
    (b, a, d) replaced in place by (a, d, c) and (d, b, c), where c or d is
    interior and cd crosses ab; each flip removes a chord and adds none."""
    t = np.array(triangles)
    while True:
        et = edge_table(t)
        on_b = np.isin(np.arange(len(vertices)), et.tail[et.slots(1)])
        s, u = et.slots(2), et.slots(2, 1)   # slot 3t + i faces vertex i of t
        a, b, c, d = et.tail[s], et.head[s], t.ravel()[s], t.ravel()[u]
        for k in np.flatnonzero(on_b[a] & on_b[b] & ~(on_b[c] & on_b[d])):
            if _segments_intersect(*vertices[[a[k], b[k], c[k], d[k]]]):
                t[[s[k] // 3, u[k] // 3]] = [[a[k], d[k], c[k]], [d[k], b[k], c[k]]]
                break   # one flip per pass: two chords may share a triangle
        else:
            return t


def validate_mesh(mesh: PlanarMesh) -> None:
    """Raise unless the mesh is a triangulated disk.

    Boundary-to-boundary chord edges are allowed here (the double is then a
    multigraph complex); the embedding solver rejects them separately.
    """
    if mesh.euler_characteristic() != 1:
        raise DegenerateInput(f"mesh is not a disk: euler characteristic "
                              f"{mesh.euler_characteristic()} != 1")
    used = np.zeros(mesh.n_vertices, bool)
    used[np.asarray(mesh.triangles).ravel()] = True
    if not used.all():
        raise DegenerateInput("mesh has unused vertices")


def triangulate(points, boundary=None) -> PlanarMesh:
    """Delaunay triangulation of a point set.

    Without `boundary` the convex hull is the region boundary. With a simple
    polygon `boundary` containing all points, triangles whose centroid falls
    outside the polygon are dropped, so the mesh follows the (possibly
    non-convex) outline traced by the points nearest the polygon. Chords,
    which the double cannot take, are flipped away where they can be
    (`_flip_chords`)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise DegenerateInput("need at least 3 planar points")
    if boundary is not None:
        poly = validate_simple_polygon(boundary)
        inside = point_in_polygon(pts, poly)
        if not inside.all():
            # points exactly on the outline (fence nodes) count as contained
            diam = float(np.linalg.norm(poly.max(axis=0) - poly.min(axis=0)))
            near = distance_to_polygon(pts[~inside], poly) <= 1e-9 * diam
            if not near.all():
                raise DegenerateInput("some points fall outside the boundary polygon")
    # imported here: a run from a saved embedding never triangulates
    from scipy.spatial import Delaunay, QhullError
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegenerateInput(f"triangulation failed (collinear input?): {exc}") from exc
    T = _orient_ccw(pts, tri.simplices)
    if boundary is not None:
        cent = pts[T].mean(axis=1)
        T = T[point_in_polygon(cent, poly)]
        if len(T) == 0:
            raise DegenerateInput("no triangles remain inside the polygon")
    T = _flip_chords(pts, T)
    mesh = PlanarMesh(vertices=pts, triangles=T, boundary=_boundary_loop(T))
    validate_mesh(mesh)
    return mesh


@dataclass(frozen=True)
class DoubledMesh:
    """Closed genus-0 mesh: the region glued to its mirrored copy.

    planar carries each doubled vertex's source coordinates (mirror copies
    share their original's coordinates); copy_map is the mirror involution
    (boundary vertices map to themselves).
    """

    planar: np.ndarray
    triangles: np.ndarray
    copy_map: np.ndarray
    boundary: np.ndarray
    n_original: int
    source: PlanarMesh

    @property
    def n_vertices(self) -> int:
        return len(self.planar)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def vertex_node(self) -> np.ndarray:
        """The physical (original-copy) vertex of every doubled vertex, built
        on first use from copy_map and n_original, which a frozen mesh keeps."""
        node = self.copy_map.copy()
        node[:self.n_original] = np.arange(self.n_original)
        return node

    def original_vertex(self, v) -> np.ndarray:
        """Physical (original-copy) vertex id for any doubled vertex id."""
        return self.vertex_node[v]

    def edge_count(self) -> int:
        # every source edge exists once per copy except the shared boundary
        # loop; chord edges count once per copy (multigraph semantics)
        return 2 * self.source.edge_count() - len(self.boundary)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.edge_count() + self.n_triangles


def double_cover(mesh: PlanarMesh) -> DoubledMesh:
    """Glue the mesh to its orientation-reversed copy along the boundary."""
    validate_mesh(mesh)
    n = mesh.n_vertices
    interior = np.setdiff1d(np.arange(n), mesh.boundary)
    mirror = np.arange(n)
    mirror[interior] = n + np.arange(len(interior))
    copy_map = np.concatenate([mirror, interior])
    t_mirror = mirror[mesh.triangles][:, [0, 2, 1]]  # reversed orientation
    triangles = np.vstack([mesh.triangles, t_mirror])
    planar = np.vstack([mesh.vertices, mesh.vertices[interior]])
    return DoubledMesh(planar=planar, triangles=triangles, copy_map=copy_map,
                       boundary=mesh.boundary.copy(), n_original=n, source=mesh)


# ---------------------------------------------------------------------------
# deployment generation

def ring_points(polygon, spacing: float) -> np.ndarray:
    """Evenly spaced points along the polygon outline, corners included."""
    poly = np.asarray(polygon, dtype=float)
    out = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        ell = float(np.linalg.norm(b - a))
        k = max(int(np.ceil(ell / spacing)), 1)
        for j in range(k):
            out.append(a + (b - a) * (j / k))
    return np.array(out)


def corner_anchors(polygon, offset: float) -> np.ndarray:
    """One interior point near each polygon corner, along the inward bisector.

    Keeps corner triangles from having all three vertices on the boundary.
    """
    poly = np.asarray(polygon, dtype=float)
    m = len(poly)
    anchors = []
    for i in range(m):
        prv, cur, nxt = poly[i - 1], poly[i], poly[(i + 1) % m]
        d1 = (prv - cur) / np.linalg.norm(prv - cur)
        d2 = (nxt - cur) / np.linalg.norm(nxt - cur)
        bis = d1 + d2
        nb = float(np.linalg.norm(bis))
        if nb < 1e-9:  # straight angle, no distinguished corner
            continue
        bis /= nb
        cand = cur + offset * bis
        if not point_in_polygon(cand[None, :], poly)[0]:
            cand = cur - offset * bis
        anchors.append(cand)
    return np.array(anchors) if anchors else np.zeros((0, 2))


def generate_deployment(polygon, n_nodes: int, rng) -> np.ndarray:
    """Node positions for a deployment in a polygonal region.

    A ring of fence nodes lines the outline (spacing ~ the mean node spacing,
    with an anchor node inside each corner); the rest are uniform in the
    region, kept a small margin off the outline so boundary triangles stay
    well shaped.
    """
    poly = validate_simple_polygon(polygon)
    area = polygon_area(poly)
    h = float(np.sqrt(area / n_nodes))
    ring = ring_points(poly, h)
    anchors = corner_anchors(poly, 0.6 * h)
    n_int = n_nodes - len(ring) - len(anchors)
    if n_int <= 0:
        raise DegenerateInput(f"n_nodes={n_nodes} too small for this region "
                              f"(outline alone needs {len(ring) + len(anchors)})")
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    margin = 0.45 * h
    acc: list = []
    while len(acc) < n_int:
        q = rng.uniform(lo, hi, size=(4 * max(n_nodes, 64), 2))
        q = q[point_in_polygon(q, poly)]
        q = q[distance_to_polygon(q, poly) > margin]
        acc.extend(q.tolist())
    return np.vstack([ring, anchors, np.array(acc[:n_int])])


# ---------------------------------------------------------------------------
# text format:  header "V F B", V lines "x y", F lines "i j k", B index lines

def mesh_to_text(mesh: PlanarMesh) -> str:
    nv, nf, nb = mesh.n_vertices, mesh.n_triangles, len(mesh.boundary)
    return (f"{nv} {nf} {nb}\n"
            + "%.12g %.12g\n" * nv % tuple(mesh.vertices.ravel().tolist())
            + "%d %d %d\n" * nf % tuple(mesh.triangles.ravel().tolist())
            + "%d\n" * nb % tuple(mesh.boundary.tolist()))


def text_block(rows, start: int, n: int, width: int, dtype) -> np.ndarray:
    """rows[start:start + n] parsed as an (n, width) array. Raises ValueError
    where the block is empty or cut short, or a row has another number of
    fields or does not parse as dtype."""
    if not 0 < n <= len(rows) - start:
        raise ValueError(f"a block of {n} rows from row {start}, "
                         f"{max(len(rows) - start, 0)} rows left")
    # comments=None: no character starts a comment in this format. Where numpy
    # reads a float ("1.5", "1e3", an index past int64) in an integer column as
    # its truncation with only a DeprecationWarning (numpy 1.23 on), that
    # warning is made an error, so the row is refused under any warning filter
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            block = np.loadtxt(rows[start:start + n], dtype=dtype, comments=None, ndmin=2)
    except DeprecationWarning as exc:
        raise ValueError(f"rows from row {start}: {exc}") from exc
    if block.shape != (n, width):
        raise ValueError(f"rows from row {start} have {block.shape[1]} fields, expected {width}")
    return block


def mesh_from_rows(rows) -> tuple[PlanarMesh, int]:
    """The mesh that mesh_to_text wrote, from its non-blank lines (rows may
    go on after it), and the number of rows it takes. Raises DegenerateInput
    where a block is malformed or cut short."""
    try:
        nv, nf, nb = (int(x) for x in rows[0].split())
        verts = text_block(rows, 1, nv, 2, float)
        tris = text_block(rows, 1 + nv, nf, 3, int)
        loop = text_block(rows, 1 + nv + nf, nb, 1, int).ravel()
    except (ValueError, IndexError) as exc:
        raise DegenerateInput(f"malformed mesh text: {exc}") from exc
    mesh = PlanarMesh(vertices=verts, triangles=tris, boundary=loop)
    validate_mesh(mesh)
    return mesh, 1 + nv + nf + nb


def mesh_from_text(text: str) -> PlanarMesh:
    """The mesh that mesh_to_text wrote. Raises DegenerateInput where a block
    is malformed or cut short, or lines follow the boundary block."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    mesh, used = mesh_from_rows(rows)
    if used != len(rows):
        raise DegenerateInput(f"malformed mesh text: {len(rows) - used} line(s) "
                              f"after the boundary block")
    return mesh


def save_mesh(mesh: PlanarMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_to_text(mesh))


def load_mesh(path) -> PlanarMesh:
    with open(path) as fh:
        return mesh_from_text(fh.read())
