"""Harmonic embedding of the doubled mesh on the unit sphere, and point location.

The solve minimizes the cotangent-weighted Dirichlet energy of the sphere map
directly, in a symmetric parameterization: the upper copy is tracked through
stereographic coordinates (interior) and equator angles (boundary), and the
mirror copy is the z-reflection by construction, so mirror symmetry and the
boundary-on-equator property hold exactly at every iterate.

Phases: (A) L-BFGS with three boundary angles pinned (fixes the residual
Moebius gauge and blocks collapse), (B) damped Newton polish that refuses
steps introducing boundary folds or flipped triangles, (C) recentering
rounds until the area-weighted centroid and the residual are under
tolerance: each round takes one Newton step on the two-parameter equatorial
Moebius dilation that zeroes the centroid, then a short Newton re-solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import DegenerateMesh, NoConvergence, NotFound
from .mesh import (DoubledMesh, PlanarMesh, chord_edges, mesh_from_text,
                   mesh_to_text)

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 20000
# Hashed into the CLI's embedding cache key; raise it whenever a change to the
# solver changes the embedding it returns for the same mesh and settings.
SOLVER_VERSION = 2
WEIGHT_FLOOR = 1e-3  # keeps seam triangles strictly oriented; raising weights preserves PSD

_Z = np.array([1.0, 1.0, -1.0])


def cot_weights(points, triangles, n_vertices: int, floor: float | None = None):
    """Symmetric cotangent edge-weight matrix; optionally floored from below."""
    pts = np.asarray(points, dtype=float)[:, :2]
    tri = np.asarray(triangles)
    p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]

    def cot_at(a, b, c):
        u, v = b - a, c - a
        crossn = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        if np.any(crossn < 1e-14):
            raise DegenerateMesh("zero-area triangle; cotangent weights undefined")
        return (u * v).sum(axis=1) / crossn

    c0, c1, c2 = cot_at(p0, p1, p2), cot_at(p1, p2, p0), cot_at(p2, p0, p1)
    i = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    j = np.concatenate([tri[:, 2], tri[:, 0], tri[:, 1]])
    w = 0.5 * np.concatenate([c0, c1, c2])
    m = sparse.coo_matrix((w, (i, j)), shape=(n_vertices, n_vertices))
    m = (m + m.T).tocsr()
    if floor is not None:
        m.data = np.maximum(m.data, floor)
    return m


def _triple_products(P, tri) -> np.ndarray:
    """Signed triple product p0 . (p1 x p2) of every triangle's vertices."""
    return np.einsum("ij,ij->i", P[tri[:, 0]], np.cross(P[tri[:, 1]], P[tri[:, 2]]))


@dataclass
class SphericalEmbedding:
    """Doubled mesh with unit-sphere vertex positions.

    residual is the final stationarity measure (max tangential energy-gradient
    component over the free degrees of freedom).
    """

    mesh: DoubledMesh
    positions: np.ndarray
    residual: float
    energy: float = 0.0
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _tri_centroids: np.ndarray | None = field(default=None, repr=False)
    _kdtree: cKDTree | None = field(default=None, repr=False)
    _neighbors: np.ndarray | None = field(default=None, repr=False)
    _planes: np.ndarray | None = field(default=None, repr=False)
    _orient: float = field(default=0.0, repr=False)
    _median_edge: float = field(default=0.0, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_original

    def node_positions(self) -> np.ndarray:
        """Sphere positions of the physical nodes (original-copy vertices)."""
        return self.positions[:self.mesh.n_original]

    def orientation(self) -> float:
        """Sign of the (shared) signed triple product of triangle vertices."""
        if self._orient == 0.0:
            det = _triple_products(self.positions, self.mesh.triangles)
            self._orient = 1.0 if np.median(det) > 0 else -1.0
        return self._orient

    def flipped_triangles(self, tol: float = 1e-12) -> np.ndarray:
        det = _triple_products(self.positions, self.mesh.triangles)
        return np.where(self.orientation() * det < -tol)[0]

    def median_edge_length(self) -> float:
        if self._median_edge == 0.0:
            tri = self.mesh.triangles
            p = self.positions
            lens = []
            for a, b in ((0, 1), (1, 2), (2, 0)):
                d = np.clip(np.einsum("ij,ij->i", p[tri[:, a]], p[tri[:, b]]), -1, 1)
                lens.append(np.arccos(d))
            self._median_edge = float(np.median(np.concatenate(lens)))
        return self._median_edge

    def tri_centroids(self) -> np.ndarray:
        """Unit directions of the triangle centroids."""
        if self._tri_centroids is None:
            cent = self.positions[self.mesh.triangles].mean(axis=1)
            self._tri_centroids = cent / np.linalg.norm(cent, axis=1, keepdims=True)
        return self._tri_centroids

    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            self._kdtree = cKDTree(self.tri_centroids())
        return self._kdtree

    def planes(self) -> np.ndarray:
        """planes[t] is 3 x 4: column i is orient * (v[i+1] x v[i+2]), the
        inward normal of the plane of triangle t's edge opposite vertex i, and
        column 3 the unit direction of its centroid."""
        if self._planes is None:
            v = self.positions[self.mesh.triangles]
            normals = self.orientation() * np.cross(v[:, [1, 2, 0]], v[:, [2, 0, 1]])
            self._planes = np.concatenate([normals, self.tri_centroids()[:, None]],
                                          axis=1).transpose(0, 2, 1).copy()
        return self._planes

    def neighbors(self) -> np.ndarray:
        """neighbors[t, i] = triangle across the edge opposite vertex i (-1 at none)."""
        if self._neighbors is None:
            tri = self.mesh.triangles
            edge_to_tris: dict = {}
            for t, tv in enumerate(tri):
                for i in range(3):
                    a, b = int(tv[(i + 1) % 3]), int(tv[(i + 2) % 3])
                    edge_to_tris.setdefault((min(a, b), max(a, b)), []).append((t, i))
            nb = -np.ones((len(tri), 3), dtype=int)
            for pair in edge_to_tris.values():
                if len(pair) == 2:
                    (t1, i1), (t2, i2) = pair
                    nb[t1, i1] = t2
                    nb[t2, i2] = t1
            self._neighbors = nb
        return self._neighbors

    def area_centroid(self) -> np.ndarray:
        return _area_centroid(self.mesh.triangles, self.positions)


# ---------------------------------------------------------------------------
# solver

class _System:
    """Index plumbing and energy/gradient/hessian for the symmetric solve."""

    def __init__(self, dbl: DoubledMesh):
        self.dbl = dbl
        n = dbl.n_original
        on_b = np.zeros(n, bool)
        on_b[dbl.boundary] = True
        self.boundary = dbl.boundary
        self.interior = np.where(~on_b)[0]
        self.mirror_ids = n + np.arange(len(self.interior))
        self.nI, self.nB = len(self.interior), len(dbl.boundary)
        self.Vd = dbl.n_vertices
        self.W = cot_weights(dbl.planar, dbl.triangles, self.Vd, floor=WEIGHT_FLOOR)
        deg = np.asarray(self.W.sum(axis=1)).ravel()
        self.L = (sparse.diags(deg) - self.W).tocsr()
        self.L2 = (2.0 * self.L).tocsr()
        # pins at arc-length thirds of the boundary
        pts = dbl.source.vertices
        seg = np.linalg.norm(pts[np.roll(self.boundary, -1)] - pts[self.boundary], axis=1)
        self.seg = seg
        cums = np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
        self.arc_param = cums * 2 * np.pi
        self.pin_pos = np.array(sorted(int(np.argmin(np.abs(cums - f)))
                                       for f in (0.0, 1.0 / 3.0, 2.0 / 3.0)))
        if len(set(self.pin_pos.tolist())) < 3:
            self.pin_pos = np.array([0, self.nB // 3, (2 * self.nB) // 3])
        self.free_b = np.setdiff1d(np.arange(self.nB), self.pin_pos)
        self.ndof = 2 * self.nI + len(self.free_b)
        self.pin_val = self.arc_param[self.pin_pos].copy()

    def positions(self, u_int, th):
        P = np.zeros((self.Vd, 3))
        r2 = (u_int ** 2).sum(axis=1)
        d = 1.0 + r2
        P[self.interior, 0] = 2 * u_int[:, 0] / d
        P[self.interior, 1] = 2 * u_int[:, 1] / d
        P[self.interior, 2] = (1.0 - r2) / d
        P[self.boundary, 0] = np.cos(th)
        P[self.boundary, 1] = np.sin(th)
        P[self.mirror_ids] = P[self.interior] * _Z
        return P

    def coords_from_positions(self, P):
        u_int = P[self.interior, :2] / (1.0 + P[self.interior, 2])[:, None]
        th = np.unwrap(np.arctan2(P[self.boundary, 1], P[self.boundary, 0]))
        return u_int, th

    def energy(self, P) -> float:
        return float((P * (self.L @ P)).sum())

    def grad(self, u_int, th):
        P = self.positions(u_int, th)
        LP = self.L @ P
        E = float((P * LP).sum())
        g_P = 2.0 * LP
        gU = g_P[self.interior] + g_P[self.mirror_ids] * _Z
        r2 = (u_int ** 2).sum(axis=1)
        f = 2.0 / (1.0 + r2)
        ux, uy = u_int[:, 0], u_int[:, 1]
        f2 = f * f
        gI = np.empty((self.nI, 2))
        gI[:, 0] = gU[:, 0] * (f - f2 * ux * ux) + gU[:, 1] * (-f2 * ux * uy) + gU[:, 2] * (-f2 * ux)
        gI[:, 1] = gU[:, 0] * (-f2 * ux * uy) + gU[:, 1] * (f - f2 * uy * uy) + gU[:, 2] * (-f2 * uy)
        gB = g_P[self.boundary]
        gth = -gB[:, 0] * np.sin(th) + gB[:, 1] * np.cos(th)
        return E, gI, gth, g_P

    def pack_grad(self, gI, gth):
        return np.concatenate([gI.ravel(), gth[self.free_b]])

    def hessian(self, u_int, th, g_P):
        r2 = (u_int ** 2).sum(axis=1)
        f = 2.0 / (1.0 + r2)
        ux, uy = u_int[:, 0], u_int[:, 1]
        f2, f3 = f * f, f * f * f
        jac = {
            0: (f - f2 * ux * ux, -f2 * ux * uy),
            1: (-f2 * ux * uy, f - f2 * uy * uy),
            2: (-f2 * ux, -f2 * uy),
        }
        colsx = 2 * np.arange(self.nI)
        colsy = colsx + 1
        bcols = 2 * self.nI + np.arange(len(self.free_b))
        bverts = self.boundary[self.free_b]
        H = None
        for a in range(3):
            dx, dy = jac[a]
            sgn = -1.0 if a == 2 else 1.0
            if a == 0:
                bval = -np.sin(th[self.free_b])
            elif a == 1:
                bval = np.cos(th[self.free_b])
            else:
                bval = np.zeros(len(self.free_b))
            Ja = sparse.coo_matrix(
                (np.concatenate([dx, dy, sgn * dx, sgn * dy, bval]),
                 (np.concatenate([self.interior, self.interior,
                                  self.mirror_ids, self.mirror_ids, bverts]),
                  np.concatenate([colsx, colsy, colsx, colsy, bcols]))),
                shape=(self.Vd, self.ndof)).tocsr()
            Ha = Ja.T @ self.L2 @ Ja
            H = Ha if H is None else H + Ha
        gU = g_P[self.interior] + g_P[self.mirror_ids] * _Z
        cxx = (gU[:, 0] * (-3 * f2 * ux + 2 * f3 * ux ** 3)
               + gU[:, 1] * (-f2 * uy + 2 * f3 * ux * ux * uy)
               + gU[:, 2] * (2 * f3 * ux * ux - f2))
        cxy = (gU[:, 0] * (-f2 * uy + 2 * f3 * ux * ux * uy)
               + gU[:, 1] * (-f2 * ux + 2 * f3 * ux * uy * uy)
               + gU[:, 2] * (2 * f3 * ux * uy))
        cyy = (gU[:, 0] * (-f2 * ux + 2 * f3 * ux * uy * uy)
               + gU[:, 1] * (-3 * f2 * uy + 2 * f3 * uy ** 3)
               + gU[:, 2] * (2 * f3 * uy * uy - f2))
        gB = g_P[self.boundary][self.free_b]
        cth = -(gB[:, 0] * np.cos(th[self.free_b]) + gB[:, 1] * np.sin(th[self.free_b]))
        ii = colsx
        curv = sparse.coo_matrix(
            (np.concatenate([cxx, cxy, cxy, cyy, cth]),
             (np.concatenate([ii, ii, ii + 1, ii + 1, bcols]),
              np.concatenate([ii, ii + 1, ii, ii + 1, bcols]))),
            shape=(self.ndof, self.ndof))
        return (H + curv).tocsc()


def _fold_count(th) -> int:
    return int((np.diff(np.unwrap(th)) < 0).sum())


def _flip_count(sys_: _System, P) -> int:
    det = _triple_products(P, sys_.dbl.triangles)
    return int(min((det > 1e-14).sum(), (det < -1e-14).sum()))


def _repair_folds(th):
    thw = np.unwrap(th).copy()
    for _ in range(32):
        d = np.diff(thw)
        bad = np.where(d < 0)[0]
        if len(bad) == 0:
            break
        for k in bad:
            mid = 0.5 * (thw[k] + thw[k + 1])
            thw[k], thw[k + 1] = mid - 1e-6, mid + 1e-6
    return thw


def _newton(sys_: _System, u_int, th, iters: int, grad_target: float = 1e-12):
    """Damped Newton; accepts only gradient-decreasing, fold/flip-safe steps."""
    E, gI, gth, g_P = sys_.grad(u_int, th)
    g = sys_.pack_grad(gI, gth)
    base_folds = _fold_count(th)
    base_flips = _flip_count(sys_, sys_.positions(u_int, th))
    tau = 1e-6
    eye = sparse.identity(sys_.ndof, format="csc")
    for _ in range(iters):
        ginf = float(np.abs(g).max())
        if ginf < grad_target:
            break
        H = sys_.hessian(u_int, th, g_P)
        accepted = False
        for _ in range(40):
            try:
                dx = splu(H + tau * eye).solve(-g)
            except RuntimeError:
                tau *= 10
                continue
            u_new = u_int + dx[:2 * sys_.nI].reshape(sys_.nI, 2)
            th_new = th.copy()
            th_new[sys_.free_b] = th[sys_.free_b] + dx[2 * sys_.nI:]
            if (_fold_count(th_new) > base_folds
                    or _flip_count(sys_, sys_.positions(u_new, th_new)) > base_flips):
                tau *= 10
                continue
            E_new, gI_new, gth_new, gP_new = sys_.grad(u_new, th_new)
            g_new = sys_.pack_grad(gI_new, gth_new)
            if np.abs(g_new).max() < np.abs(g).max():
                accepted = True
                break
            tau *= 10
        if not accepted:
            break
        u_int, th, E, g, g_P = u_new, th_new, E_new, g_new, gP_new
        gI, gth = gI_new, gth_new
        tau = max(tau * 0.25, 1e-14)
    return u_int, th, float(np.abs(g).max())


def _conformal_dilate(P, v):
    """Moebius dilation by the equatorial vector v = (vx, vy): toward the axis
    v/|v| with tan(theta'/2) = exp(-|v|) tan(theta/2). An equatorial axis keeps
    the equator and the z-reflection symmetry."""
    nv = float(np.hypot(v[0], v[1]))
    if nv < 1e-300:   # the identity: exp(-|v|) rounds to 1; v/|v| may not be unit
        return P
    axis = np.array([v[0], v[1], 0.0]) / nv
    cu = P @ axis
    w = P - cu[:, None] * axis[None, :]
    wn = np.linalg.norm(w, axis=1)
    theta = np.arctan2(wn, cu)
    tp = 2.0 * np.arctan(np.exp(-nv) * np.tan(theta / 2.0))
    what = np.zeros_like(w)
    ok = wn > 1e-12
    what[ok] = w[ok] / wn[ok, None]
    Q = np.cos(tp)[:, None] * axis[None, :] + np.sin(tp)[:, None] * what
    return Q / np.linalg.norm(Q, axis=1, keepdims=True)


def _tutte_disk(mesh: PlanarMesh, sys_: _System) -> np.ndarray:
    """Barycentric map of the region to the unit disk (positive weights)."""
    n = mesh.n_vertices
    W = cot_weights(mesh.vertices, mesh.triangles, n, floor=None)
    W.data = np.clip(W.data, 1e-3, 1e3)  # positivity for a bijective disk map
    deg = np.asarray(W.sum(axis=1)).ravel()
    L = sparse.diags(deg) - W
    disk = np.zeros((n, 2))
    bl = sys_.boundary
    disk[bl] = np.stack([np.cos(sys_.arc_param), np.sin(sys_.arc_param)], axis=1)
    idx = sys_.interior
    lhs = L[idx][:, idx].tocsc()
    rhs = -L[idx][:, bl] @ disk[bl]
    disk[idx] = splu(lhs).solve(rhs)
    return disk


def harmonic_sphere_map(dbl: DoubledMesh, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> SphericalEmbedding:
    """Compute the symmetric harmonic map of the doubled mesh to the unit sphere.

    Raises NoConvergence (carrying the best embedding) if the stationarity
    residual stays above tol.
    """
    ch = chord_edges(dbl.source)
    if ch:
        raise DegenerateMesh(
            f"{len(ch)} interior edge(s) join boundary vertices; the doubled "
            f"surface is not simplicial there and cannot be embedded")
    sys_ = _System(dbl)
    disk = _tutte_disk(dbl.source, sys_)
    u0 = disk[sys_.interior]

    energy_trace: list[float] = []

    def objective(x):
        uI = x[:2 * sys_.nI].reshape(sys_.nI, 2)
        th = np.empty(sys_.nB)
        th[sys_.free_b] = x[2 * sys_.nI:]
        th[sys_.pin_pos] = sys_.pin_val
        E, gI, gth, _ = sys_.grad(uI, th)
        return E, sys_.pack_grad(gI, gth)

    x0 = np.concatenate([u0.ravel(), sys_.arc_param[sys_.free_b]])
    # scipy hands the iterate's result (with .fun) only to a callback whose
    # one parameter is named intermediate_result
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   callback=lambda intermediate_result: energy_trace.append(
                       intermediate_result.fun),
                   options=dict(maxiter=max_iters, maxfun=2 * max_iters,
                                ftol=1e-16, gtol=1e-12, maxcor=40))
    u_int = res.x[:2 * sys_.nI].reshape(sys_.nI, 2)
    th = np.empty(sys_.nB)
    th[sys_.free_b] = res.x[2 * sys_.nI:]
    th[sys_.pin_pos] = sys_.pin_val

    if _fold_count(th):
        th = _repair_folds(th)
        sys_.pin_val = th[sys_.pin_pos].copy()
    u_int, th, ginf = _newton(sys_, u_int, th, iters=40)

    # recentering (phase C): the centroid's z part vanishes by symmetry; the
    # Jacobian of its xy part in the dilation vector is a forward difference
    tri = sys_.dbl.triangles
    P = sys_.positions(u_int, th)
    for _ in range(24):
        c = _area_centroid(tri, P)[:2]
        if np.linalg.norm(c) < 5e-7 and ginf < tol:
            break
        h = 1e-2
        J = np.column_stack([(_area_centroid(tri, _conformal_dilate(P, e))[:2] - c) / h
                             for e in ((h, 0.0), (0.0, h))])
        P = _conformal_dilate(P, -np.linalg.solve(J, c))
        u_int, th = sys_.coords_from_positions(P)
        sys_.pin_val = th[sys_.pin_pos].copy()
        u_int, th, ginf = _newton(sys_, u_int, th, iters=8)
        P = sys_.positions(u_int, th)

    emb = SphericalEmbedding(mesh=dbl, positions=P, residual=ginf,
                             energy=sys_.energy(P),
                             energy_trace=np.array(energy_trace))
    if ginf > tol:
        raise NoConvergence(f"embedding residual {ginf:.3e} above tol {tol:.1e}",
                            residual=ginf, best=emb)
    return emb


def _area_centroid(tri, P) -> np.ndarray:
    """Centroid of the vertices P, each weighted by a third of the flat area
    of every triangle in `tri` incident to it."""
    ar = 0.5 * np.linalg.norm(np.cross(P[tri[:, 1]] - P[tri[:, 0]],
                                       P[tri[:, 2]] - P[tri[:, 0]]), axis=1)
    m = np.zeros(len(P))
    for k in range(3):
        np.add.at(m, tri[:, k], ar / 3.0)
    return (m[:, None] * P).sum(axis=0) / m.sum()


def embedding_residual(emb: SphericalEmbedding) -> float:
    """Recompute the stationarity residual from scratch (used after loading)."""
    sys_ = _System(emb.mesh)
    u_int, th = sys_.coords_from_positions(emb.positions)
    _, gI, gth, _ = sys_.grad(u_int, th)
    return float(np.abs(sys_.pack_grad(gI, gth)).max())


# ---------------------------------------------------------------------------
# point location

LOCATE_TOL = 1e-10  # slack of the containment predicate and of the walk's side tests


# p @ planes[t] > _INSIDE: every edge side >= -LOCATE_TOL, the centroid side > 0
_INSIDE = np.array([np.nextafter(-LOCATE_TOL, -np.inf)] * 3 + [0.0])


def _locate_test(emb: SphericalEmbedding, tris, p):
    """Edge sides of the points p[..., k, :] in the triangles tris[...], and
    which of the points each triangle contains.

    sides[..., k, i] = edge normal i of the triangle . p is >= 0 where p lies
    on the inner side of the edge opposite vertex i (the edge neighbors()[t, i]
    shares). A triangle contains p (gnomonically) when all three sides are
    >= -LOCATE_TOL and p lies in the hemisphere of its centroid. Returns
    (sides, contains).
    """
    s = np.matmul(p, emb.planes()[tris])
    return s[..., :3], (s > _INSIDE).all(axis=-1)


def walk(emb: SphericalEmbedding, tris, points, offsets, lookahead: int = 1):
    """Walk polylines across the mesh, chord after chord.

    Polyline c is points[offsets[c]:offsets[c + 1]]; its walk starts in the
    triangle tris[c], which contains its first point. Each chord walks from
    the triangle the previous chord stopped in to the first triangle that
    contains its end point by `locate`'s predicate. Every iteration moves
    each polyline past the leading points, of the next `lookahead`, that its
    current triangle contains, then takes one step on the chord to the first
    point it does not contain, so the iterations follow the triangles crossed
    rather than the points. The result does not depend on `lookahead`.

    A chord leaves its triangle through the edge it crosses outward: the edge
    u -> w, in the triangle's positive order, with u right of the chord's great
    circle, w left of it and its end point outside the edge. A vertex within
    LOCATE_TOL of the great circle counts on both sides, so a chord through a
    vertex turns about it; when no edge qualifies, the chord leaves through
    the edge its end point lies furthest outside.

    Returns (owner, entered): every triangle entered on the way, in walking
    order, with the polyline that entered it. Raises NotFound when one chord
    takes more than n_triangles steps.
    """
    nb, corners = emb.neighbors(), emb.positions[emb.mesh.triangles]
    tris = np.array(tris, dtype=int).reshape(-1)
    points = np.atleast_2d(points)
    offsets = np.asarray(offsets, dtype=int)
    # m[i]: the unit normal of chord i -> i + 1; x lies left of it where m . x > 0.
    # Built column by column: np.cross copies both inputs.
    a, b = points[:-1], points[1:]
    m = np.empty_like(a)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[:, j] * b[:, k], a[:, k] * b[:, j], out=m[:, i])
    m *= (emb.orientation()
          / np.maximum(np.sqrt(np.einsum("ij,ij->i", m, m)), 1e-300))[:, None]
    window = np.arange(lookahead)
    # the walking polylines: index, triangle, next point, last point, steps on this chord
    ids = np.flatnonzero(offsets[1:] - offsets[:-1] > 1)
    cur, nxt, last = tris[ids], offsets[ids] + 1, offsets[ids + 1] - 1
    steps = np.zeros(len(ids), dtype=int)
    owner, entered = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    while len(ids):
        # a window index past the last point repeats it, and so adds no skip
        sides, contains = _locate_test(emb, cur,
                                       points[np.minimum(nxt[:, None] + window, last[:, None])])
        skip = np.logical_and.accumulate(contains, axis=1).sum(axis=1)
        nxt += skip
        steps[skip > 0] = 0
        go = np.flatnonzero(skip < lookahead)
        if len(go):
            if steps[go].max() == emb.mesh.n_triangles:
                raise NotFound(f"a chord did not arrive within {emb.mesh.n_triangles} "
                               f"steps; embedding may be folded")
            t, s = cur[go], sides[go, skip[go]]
            left = np.einsum("nij,nj->ni", corners[t], m[nxt[go] - 1])[:, [1, 2, 0, 1]]
            crossed = ((left[:, :3] <= LOCATE_TOL) & (left[:, 1:] >= -LOCATE_TOL)
                       & (s < -LOCATE_TOL))
            # among the crossed edges (all edges if none is), the one the end is furthest outside
            exits = np.argmin(np.where(crossed | ~crossed.any(axis=1, keepdims=True),
                                       s, np.inf), axis=1)
            cur[go] = nb[t, exits]
            steps[go] += 1
            owner.append(ids[go])
            entered.append(cur[go])
        keep = nxt <= last
        if not keep.all():
            ids, cur, nxt, last, steps = ids[keep], cur[keep], nxt[keep], last[keep], steps[keep]
    return np.concatenate(owner), np.concatenate(entered)


def locate(p, emb: SphericalEmbedding) -> int:
    """Triangle whose gnomonic projection contains p: the first of all
    triangles, by index, that `_locate_test` finds containing it."""
    contains = _locate_test(emb, np.arange(emb.mesh.n_triangles),
                            np.asarray(p, dtype=float)[None])[1][:, 0]
    if not contains.any():
        raise NotFound("no triangle contains the query point; embedding may be folded")
    return int(np.argmax(contains))


def locate_many(points, emb: SphericalEmbedding) -> np.ndarray:
    """Vectorized location of many points: each is tested against the
    triangles with its 12 nearest centroids, and a miss goes to `locate`."""
    pts = np.asarray(points, dtype=float)
    k = min(12, emb.mesh.n_triangles)
    _, cand = emb.kdtree().query(pts, k=k)
    cand = np.atleast_2d(cand)
    contains = _locate_test(emb, cand, pts[:, None, None, :])[1][..., 0]
    out = np.where(contains.any(axis=1),
                   cand[np.arange(len(pts)), np.argmax(contains, axis=1)], -1)
    for i in np.flatnonzero(out < 0):
        out[i] = locate(pts[i], emb)
    return out


# ---------------------------------------------------------------------------
# distortion

@dataclass(frozen=True)
class DistortionReport:
    mean_angle_error: float
    max_angle_error: float
    percentiles: dict
    mean_dilatation: float
    max_dilatation: float


def _planar_angles(pts, tris):
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]

    def ang(p0, p1, p2):
        u, v = p1 - p0, p2 - p0
        cu = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        return np.arccos(np.clip(cu, -1, 1))

    return np.stack([ang(a, b, c), ang(b, c, a), ang(c, a, b)], axis=1)


def _spherical_angles(pos, tris):
    a, b, c = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]

    def ang(p0, p1, p2):
        u = p1 - (p1 * p0).sum(axis=1, keepdims=True) * p0
        v = p2 - (p2 * p0).sum(axis=1, keepdims=True) * p0
        nu = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        cu = (u * v).sum(axis=1) / np.maximum(nu, 1e-300)
        return np.arccos(np.clip(cu, -1, 1))

    return np.stack([ang(a, b, c), ang(b, c, a), ang(c, a, b)], axis=1)


def _dilatation(emb: SphericalEmbedding) -> np.ndarray:
    """Per-triangle quasi-conformal dilatation: the singular-value ratio of the
    linear map from the planar triangle to the embedded one, each in an
    orthonormal frame of its plane; inf where either triangle is degenerate."""
    tris = emb.mesh.triangles
    p2, p3 = emb.mesh.planar[tris], emb.positions[tris]
    src = np.stack([p2[:, 1] - p2[:, 0], p2[:, 2] - p2[:, 0]], axis=2)  # (n, 2, 2) edge columns
    dst = np.stack([p3[:, 1] - p3[:, 0], p3[:, 2] - p3[:, 0]], axis=2)  # (n, 3, 2)
    n = np.cross(dst[:, :, 0], dst[:, :, 1])
    nn = np.linalg.norm(n, axis=1)
    ok = (nn >= 1e-300) & (np.linalg.det(src) != 0)
    f1 = dst[ok, :, 0] / np.linalg.norm(dst[ok, :, 0], axis=1, keepdims=True)
    frame = np.stack([f1, np.cross(n[ok] / nn[ok, None], f1)], axis=1)  # (m, 2, 3) rows
    sv = np.linalg.svd(frame @ dst[ok] @ np.linalg.inv(src[ok]), compute_uv=False)
    dil = np.full(len(tris), np.inf)
    dil[ok] = sv[:, 0] / np.maximum(sv[:, 1], 1e-300)
    return dil


def distortion_report(emb: SphericalEmbedding) -> DistortionReport:
    """Per-triangle angle distortion (planar vs spherical) and dilatation."""
    tris = emb.mesh.triangles
    ap = _planar_angles(emb.mesh.planar, tris)
    asph = _spherical_angles(emb.positions, tris)
    rel = (np.abs(asph - ap) / ap).mean(axis=1)
    dil = _dilatation(emb)
    finite = dil[np.isfinite(dil)]
    return DistortionReport(
        mean_angle_error=float(rel.mean()),
        max_angle_error=float(rel.max()),
        percentiles={p: float(np.percentile(rel, p)) for p in (50, 90, 99)},
        mean_dilatation=float(finite.mean()) if len(finite) else float("inf"),
        max_dilatation=float(finite.max()) if len(finite) else float("inf"),
    )


# ---------------------------------------------------------------------------
# embedding text format: the planar mesh block, then one "x y z" line per
# original vertex (mirror positions follow from the z reflection)

def embedding_to_text(emb: SphericalEmbedding) -> str:
    head = mesh_to_text(emb.mesh.source)
    pos = emb.positions[:emb.mesh.n_original]
    lines = [f"{x:.12g} {y:.12g} {z:.12g}" for x, y, z in pos]
    return head + "\n".join(lines) + "\n"


def embedding_from_text(text: str) -> SphericalEmbedding:
    from .mesh import double_cover  # at call time: perfbench times mesh.double_cover by wrapping it

    rows = [ln for ln in text.splitlines() if ln.strip()]
    nv, nf, nb = (int(x) for x in rows[0].split())
    mesh_rows = rows[:1 + nv + nf + nb]
    mesh = mesh_from_text("\n".join(mesh_rows))
    pos_rows = rows[1 + nv + nf + nb:]
    if len(pos_rows) != nv:
        raise DegenerateMesh(f"embedding text has {len(pos_rows)} position lines, "
                             f"expected {nv}")
    upper = np.array([[float(x) for x in r.split()] for r in pos_rows])
    dbl = double_cover(mesh)
    P = np.empty((dbl.n_vertices, 3))
    P[:nv] = upper
    on_b = np.zeros(nv, bool)
    on_b[dbl.boundary] = True
    interior = np.where(~on_b)[0]
    P[nv:] = upper[interior] * _Z
    emb = SphericalEmbedding(mesh=dbl, positions=P, residual=float("nan"))
    emb.residual = embedding_residual(emb)
    return emb


def save_embedding(emb: SphericalEmbedding, path) -> None:
    with open(path, "w") as fh:
        fh.write(embedding_to_text(emb))


def load_embedding(path) -> SphericalEmbedding:
    with open(path) as fh:
        return embedding_from_text(fh.read())
