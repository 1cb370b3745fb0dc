"""Planar triangulations, deployments, and the doubled (genus-0) mesh.

The doubled mesh glues the region to its orientation-reversed copy along the
boundary loop; interior vertices are duplicated, boundary vertices shared. A
valid input mesh must not contain an interior edge joining two boundary
vertices (the double would not be a simplicial manifold) nor a triangle with
all three vertices on the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

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
        return len(_edge_multiplicity(self.triangles))

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.edge_count() + self.n_triangles


def _edge_multiplicity(triangles) -> dict:
    edges: dict[tuple[int, int], int] = {}
    for t in np.asarray(triangles):
        for i in range(3):
            a, b = int(t[(i + 1) % 3]), int(t[(i + 2) % 3])
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    return edges


def _boundary_loop(triangles) -> np.ndarray:
    """Order boundary edges (multiplicity one) into a single simple loop."""
    edges = _edge_multiplicity(triangles)
    bedges = [e for e, c in edges.items() if c == 1]
    if not bedges:
        raise DegenerateInput("mesh has no boundary")
    nbr: dict[int, list[int]] = {}
    for a, b in bedges:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    if any(len(v) != 2 for v in nbr.values()):
        raise DegenerateInput("boundary is not a simple loop")
    loop = [bedges[0][0]]
    prev = None
    while True:
        cur = loop[-1]
        nxt = [x for x in nbr[cur] if x != prev]
        prev = cur
        if nxt[0] == loop[0]:
            break
        loop.append(nxt[0])
        if len(loop) > len(bedges) + 1:
            raise DegenerateInput("boundary is not a single loop")
    if len(loop) != len(bedges):
        raise DegenerateInput("boundary has more than one loop")
    return np.array(loop, dtype=int)


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


def _loop_ccw(vertices, loop) -> np.ndarray:
    pts = vertices[loop]
    area2 = float(np.dot(pts[:, 0], np.roll(pts[:, 1], -1)) - np.dot(pts[:, 1], np.roll(pts[:, 0], -1)))
    return loop if area2 > 0 else loop[::-1].copy()


def chord_edges(mesh: PlanarMesh) -> list[tuple[int, int]]:
    """Interior edges joining two boundary vertices (illegal for doubling)."""
    on_b = np.zeros(mesh.n_vertices, bool)
    on_b[mesh.boundary] = True
    out = []
    for (a, b), c in _edge_multiplicity(mesh.triangles).items():
        if c == 2 and on_b[a] and on_b[b]:
            out.append((a, b))
    return out


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
    non-convex) outline traced by the points nearest the polygon.
    """
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
    loop = _loop_ccw(pts, _boundary_loop(T))
    mesh = PlanarMesh(vertices=pts, triangles=T, boundary=loop)
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

    def original_vertex(self, v) -> np.ndarray:
        """Physical (original-copy) vertex id for any doubled vertex id."""
        v = np.asarray(v)
        return np.where(v < self.n_original, v, self.copy_map[v])

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
    on_b = np.zeros(n, bool)
    on_b[mesh.boundary] = True
    interior = np.where(~on_b)[0]
    mirror = np.arange(n)
    mirror_ids = n + np.arange(len(interior))
    mirror[interior] = mirror_ids
    vd = n + len(interior)
    copy_map = np.arange(vd)
    copy_map[:n] = mirror
    copy_map[mirror_ids] = interior
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
    lines = [f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary)}"]
    lines += [f"{x:.12g} {y:.12g}" for x, y in mesh.vertices]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    lines += [str(int(b)) for b in mesh.boundary]
    return "\n".join(lines) + "\n"


def mesh_from_text(text: str) -> PlanarMesh:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    try:
        nv, nf, nb = (int(x) for x in rows[0].split())
        verts = np.array([[float(x) for x in rows[1 + i].split()] for i in range(nv)])
        tris = np.array([[int(x) for x in rows[1 + nv + i].split()] for i in range(nf)],
                        dtype=int)
        loop = np.array([int(rows[1 + nv + nf + i]) for i in range(nb)], dtype=int)
    except (ValueError, IndexError) as exc:
        raise DegenerateInput(f"malformed mesh text: {exc}") from exc
    mesh = PlanarMesh(vertices=verts, triangles=tris, boundary=loop)
    validate_mesh(mesh)
    return mesh


def save_mesh(mesh: PlanarMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_to_text(mesh))


def load_mesh(path) -> PlanarMesh:
    with open(path) as fh:
        return mesh_from_text(fh.read())
