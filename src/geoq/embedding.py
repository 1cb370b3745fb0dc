"""Harmonic embedding of the doubled mesh on the unit sphere, and point location.

The solve minimizes the cotangent-weighted Dirichlet energy of the sphere map
directly, in a symmetric parameterization: the upper copy is tracked through
stereographic coordinates (interior) and equator angles (boundary), and the
mirror copy is the z-reflection by construction, so mirror symmetry and the
boundary-on-equator property hold exactly at every iterate.

Phases:
(A) The disk start: the discrete Riemann map of the region onto the unit
    disk, read as stereographic coordinates. The boundary takes the angles
    of the harmonic measure of the interior vertex farthest from the
    boundary, and the interior the barycentric map with that rim; both
    solves share one LU of the solve's own Laplacian.
(B) Rounds of Newton until the area-weighted centroid and the residual are
    under tolerance. Each round takes one Newton step on the two-parameter
    equatorial Moebius dilation that zeroes the centroid, then runs damped
    Newton with three boundary angles pinned where the dilation put them
    (fixing the rotation). Each Newton iteration factors the Hessian once
    and halves the step until the gradient's 2-norm falls. The Hessian's
    sparsity pattern is built once per solve, on the first Newton step, and
    every Hessian is summed into it. The first factorization's
    minimum-degree ordering is stored, and every later one factors in that
    order. A stalled Newton run or a non-finite centroid or residual ends
    the solve, and a final map with flipped triangles is refused.
Every solve returns an EmbeddingStats record of what it did.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .errors import DegenerateMesh, NoConvergence, NotFound
from .mesh import (DoubledMesh, chord_edges, edge_table, mesh_from_text,
                   mesh_to_text, triangle_neighbors)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 40   # Newton steps per round
CENTROID_TOL = 5e-7      # the area-weighted centroid's norm at a converged solve
WEIGHT_FLOOR = 1e-3  # keeps seam triangles strictly oriented; raising weights preserves PSD

_Z = np.array([1.0, 1.0, -1.0])


# Never called: the benchmark's tracer (perfbench/tracing.py) wraps
# geoq.embedding.minimize, and its test checks that the name is bound.
def minimize(*args, **kwargs):
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


# scipy's sparse LU is imported on the first solve, since a run from a saved
# embedding needs none; the benchmark's tracer wraps this name
def splu(*args, **kwargs):
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(*args, **kwargs)


def cot_weights(points, triangles, n_vertices: int):
    """Symmetric cotangent edge-weight matrix, each weight floored at WEIGHT_FLOOR."""
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
    m.data = np.maximum(m.data, WEIGHT_FLOOR)
    return m


def _triple_products(P, tri) -> np.ndarray:
    """Signed triple product p0 . (p1 x p2) of every triangle's vertices."""
    return np.einsum("ij,ij->i", P[tri[:, 0]], np.cross(P[tri[:, 1]], P[tri[:, 2]]))


@dataclass
class EmbeddingStats:
    """What one solve did: the Newton steps accepted over all rounds, the
    step halvings (newton_rejected, each a trial step that did not lower the
    gradient's 2-norm), the rounds, the norm of the returned map's
    area-weighted centroid, and seconds, the wall time of the set-up (the
    system and the disk start) and of the rounds."""

    newton_accepted: int = 0
    newton_rejected: int = 0
    recenter_rounds: int = 0
    centroid_norm: float = 0.0
    seconds: dict = field(default_factory=dict)

    def summary(self) -> str:
        """The record on one line."""
        secs = " ".join(f"{k}={v:.2f}" for k, v in self.seconds.items())
        return (f"newton accepted={self.newton_accepted} rejected={self.newton_rejected}; "
                f"recenter rounds={self.recenter_rounds} |c|={self.centroid_norm:.1e}; "
                f"seconds {secs}")


@dataclass
class SphericalEmbedding:
    """Doubled mesh with unit-sphere vertex positions.

    residual is the final stationarity measure (max tangential energy-gradient
    component over the free degrees of freedom). stats is the solve's record;
    None for an embedding read from text.
    """

    mesh: DoubledMesh
    positions: np.ndarray
    residual: float
    stats: EmbeddingStats | None = None
    _tri_centroids: np.ndarray | None = field(default=None, repr=False)
    _kdtree: cKDTree | None = field(default=None, repr=False)
    _neighbors: np.ndarray | None = field(default=None, repr=False)
    _edges: tuple | None = field(default=None, repr=False)
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
            p = self.positions[self.edges()[0]]
            d = np.clip(np.einsum("ij,ij->i", p[:, 0], p[:, 1]), -1, 1)
            self._median_edge = float(np.median(np.arccos(d)))
        return self._median_edge

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(ends, sides): ends[e] is the (tail, head) vertex pair of edge e, once
        per edge, and sides[t, i] the edge of triangle t opposite its vertex i."""
        if self._edges is None:
            et = edge_table(self.mesh.triangles)
            sides = np.empty(len(et.tail), dtype=int)
            sides[et.order] = np.repeat(np.arange(len(et.first)), et.count)
            s = et.slots()
            self._edges = (np.stack([et.tail[s], et.head[s]], axis=1), sides.reshape(-1, 3))
        return self._edges

    def tri_centroids(self) -> np.ndarray:
        """Unit directions of the triangle centroids."""
        if self._tri_centroids is None:
            cent = self.positions[self.mesh.triangles].mean(axis=1)
            self._tri_centroids = cent / np.linalg.norm(cent, axis=1, keepdims=True)
        return self._tri_centroids

    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            # imported here: a run from a saved embedding may never locate a point
            from scipy.spatial import cKDTree
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
            self._neighbors = triangle_neighbors(self.mesh.triangles)
        return self._neighbors

    def area_centroid(self) -> np.ndarray:
        return _area_centroid(self.mesh.triangles, self.positions)


# ---------------------------------------------------------------------------
# solver

@dataclass
class _Pattern:
    """The fixed sparsity pattern of a system's Hessian: the CSC matrix of
    rows and indptr (_System._build_pattern says what lap and curv hold).
    Once the first factorization has stored its fill-reducing ordering,
    perm is its column permutation and inv the inverse, and the Hessian
    reordered by it is the CSC matrix of data[perm_data], perm_rows and
    perm_indptr. perm_data and perm_rows are allocated with the pattern and
    filled in place: allocated after the first factorization, they would pin
    the heap above its memory and raise the solve's peak RSS."""

    rows: np.ndarray
    indptr: np.ndarray
    lap: np.ndarray
    curv: np.ndarray
    perm_data: np.ndarray
    perm_rows: np.ndarray
    perm: np.ndarray | None = None
    inv: np.ndarray | None = None
    perm_indptr: np.ndarray | None = None

    def order_by(self, perm) -> None:
        """Store the ordering that moves row and column i to perm[i]."""
        self.perm = perm.astype(np.int32)
        self.inv = np.argsort(self.perm).astype(np.int32)
        rows = self.perm[self.rows]
        cols = np.repeat(self.perm, np.diff(self.indptr))
        self.perm_data[:] = np.argsort(cols.astype(np.int64) * len(perm) + rows)
        self.perm_rows[:] = rows[self.perm_data]
        self.perm_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=len(perm)))]).astype(np.int32)


class _System:
    """Index plumbing and energy/gradient/hessian for the symmetric solve."""

    def __init__(self, dbl: DoubledMesh):
        self.dbl = dbl
        self.boundary = dbl.boundary
        self.interior = dbl.copy_map[dbl.n_original:]
        self.mirror = np.s_[dbl.n_original:]   # the mirror of interior[k] is vertex n_original + k
        self.nI, self.nB = len(self.interior), len(dbl.boundary)
        W = cot_weights(dbl.planar, dbl.triangles, dbl.n_vertices)
        self.L = (sparse.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()
        # pins at arc-length thirds of the boundary: the three boundary angles
        # that Newton holds where they are and the packed coordinates leave out
        pts = dbl.source.vertices
        seg = np.linalg.norm(pts[np.roll(self.boundary, -1)] - pts[self.boundary], axis=1)
        cums = np.concatenate([[0.0], np.cumsum(seg)[:-1]]) / seg.sum()
        self.pin_pos = np.array(sorted(int(np.argmin(np.abs(cums - f)))
                                       for f in (0.0, 1.0 / 3.0, 2.0 / 3.0)))
        if len(set(self.pin_pos.tolist())) < 3:
            self.pin_pos = np.array([0, self.nB // 3, (2 * self.nB) // 3])
        self.free_b = np.setdiff1d(np.arange(self.nB), self.pin_pos)
        self.ndof = 2 * self.nI + len(self.free_b)
        self._pattern: _Pattern | None = None   # the Hessian's, built by its first call

    def positions(self, u_int, th):
        P = np.zeros((self.dbl.n_vertices, 3))
        r2 = (u_int ** 2).sum(axis=1)
        d = 1.0 + r2
        Q = np.empty((self.nI, 3))
        Q[:, :2] = 2 * u_int / d[:, None]
        Q[:, 2] = (1.0 - r2) / d
        P[self.interior] = Q
        P[self.boundary, 0] = np.cos(th)
        P[self.boundary, 1] = np.sin(th)
        P[self.mirror] = Q * _Z
        return P

    def coords_from_positions(self, P):
        u_int = P[self.interior, :2] / (1.0 + P[self.interior, 2])[:, None]
        th = np.unwrap(np.arctan2(P[self.boundary, 1], P[self.boundary, 0]))
        return u_int, th

    @staticmethod
    def jacobian(u_int):
        """(f, jac) of the stereographic map P(u) = (f u, f - 1), f = 2 / (1 + |u|^2):
        jac[a] = (dP_a/du_x, dP_a/du_y) for the axes a = x, y, z. The z row is
        grad f = -f^2 u."""
        r2 = (u_int ** 2).sum(axis=1)
        f = 2.0 / (1.0 + r2)
        ux, uy = u_int[:, 0], u_int[:, 1]
        f2 = f * f
        zx, zy = -f2 * ux, -f2 * uy
        xy = zx * uy
        return f, ((f - f2 * ux * ux, xy), (xy, f - f2 * uy * uy), (zx, zy))

    def grad(self, u_int, th):
        """(E, gI, gth, g_P): the energy, its gradient in u_int and th, and its
        gradient 2 L P in the positions."""
        P = self.positions(u_int, th)
        LP = self.L @ P
        E = float((P * LP).sum())
        g_P = 2.0 * LP
        gx, gy, gz = (g_P[self.interior] + g_P[self.mirror] * _Z).T
        (xx, xy), (yx, yy), (zx, zy) = self.jacobian(u_int)[1]
        gI = np.empty((self.nI, 2))
        gI[:, 0] = gx * xx + gy * yx + gz * zx
        gI[:, 1] = gx * xy + gy * yy + gz * zy
        gB = g_P[self.boundary]
        gth = -gB[:, 0] * np.sin(th) + gB[:, 1] * np.cos(th)
        return E, gI, gth, g_P

    def pack_grad(self, gI, gth):
        return np.concatenate([gI.ravel(), gth[self.free_b]])

    def _build_pattern(self) -> _Pattern:
        """The Hessian's sparsity pattern: the Laplacian's vertex pairs mapped
        to the packed dofs, S = Q^T L Q with Q[v, i] = 1 where v (an interior
        vertex, its mirror or a free boundary vertex) owns dof i, in CSC
        order. S holds the interior 2 x 2 diagonal blocks and the boundary
        diagonal, where the curvature term adds to it; curv is the places of
        those entries in data."""
        nI2, ndof = 2 * self.nI, self.ndof
        owner = np.concatenate([np.repeat(self.interior, 2), self.boundary[self.free_b],
                                self.dbl.n_original + np.arange(nI2) // 2])
        Q = sparse.csr_matrix((np.ones(len(owner)), (owner, np.r_[:ndof, :nI2])),
                              shape=(self.dbl.n_vertices, ndof))
        S = (Q.T @ self.L @ Q).tocsc()
        S.sort_indices()
        rows = S.indices.astype(np.int32)
        # CSC order sorts the key col * ndof + row: find the places of the
        # interior blocks' entries (2k + a, 2k + b) and the boundary diagonal
        key = np.repeat(np.arange(0, ndof * ndof, ndof), np.diff(S.indptr)) + rows
        k2, a, b = np.arange(0, nI2, 2)[:, None, None], np.arange(2)[:, None], np.arange(2)
        bdiag = np.arange(nI2, ndof) * (ndof + 1)
        curv = np.searchsorted(key, np.concatenate([((k2 + b) * ndof + k2 + a).ravel(), bdiag]))
        return _Pattern(rows=rows, indptr=S.indptr.astype(np.int32), lap=2.0 * S.data,
                        curv=curv.astype(np.int32),
                        perm_data=np.empty_like(rows), perm_rows=np.empty_like(rows))

    def hessian(self, u_int, th, g_P):
        """The energy's Hessian in the packed coordinates, g_P being grad's: the
        Gauss-Newton term 2 J_a^T L J_a of each axis a, J_a the Jacobian of P_a,
        plus the curvature term g . d2P. At an interior vertex that term is
        G grad(f)^T + grad(f) G^T + s (2 f^3 u u^T - f^2 I), where G = (g_x, g_y)
        and s = g . (u, 1); at a boundary angle it is -g . (cos th, sin th).

        The pattern is built on the first call, and every call fills its
        data. An interior vertex and its mirror have the same derivatives up
        to the sign of the z row, and no edge joins the two copies'
        interiors, so the Gauss-Newton entry (i, j) is 2 S_ij sum_a
        D[a, i] D[a, j], S being the pattern's Laplacian and D[a, i] the
        derivative of P_a at the upper vertex that owns dof i."""
        if self._pattern is None:
            self._pattern = self._build_pattern()
        pat = self._pattern
        f, jac = self.jacobian(u_int)
        thf = th[self.free_b]
        D = np.zeros((3, self.ndof))
        D[:, :2 * self.nI] = np.transpose(jac, (0, 2, 1)).reshape(3, -1)
        D[0, 2 * self.nI:] = -np.sin(thf)
        D[1, 2 * self.nI:] = np.cos(thf)
        counts = np.diff(pat.indptr)   # CSC: entry e lies in column repeat(arange, counts)[e]
        data = D[0].take(pat.rows) * np.repeat(D[0], counts)
        for Da in D[1:]:
            data += Da.take(pat.rows) * np.repeat(Da, counts)
        data *= pat.lap
        gU = g_P[self.interior] + g_P[self.mirror] * _Z
        G, df, u = gU[:, :2, None], np.stack(jac[2], axis=1)[:, None, :], u_int[:, :, None]
        s = (gU[:, 0] * u_int[:, 0] + gU[:, 1] * u_int[:, 1] + gU[:, 2])[:, None, None]
        f2 = (f * f)[:, None, None]
        C = G * df
        C = C + C.transpose(0, 2, 1) + s * (2 * f2 * f[:, None, None] * (u * u.transpose(0, 2, 1))
                                            - f2 * np.eye(2))
        gB = g_P[self.boundary[self.free_b]]
        data[pat.curv] += np.concatenate([C.ravel(),
                                          -(gB[:, 0] * np.cos(thf) + gB[:, 1] * np.sin(thf))])
        return sparse.csc_matrix((data, pat.rows, pat.indptr), shape=(self.ndof, self.ndof))

    def solve(self, H, rhs):
        """H^-1 rhs by sparse LU with diagonal pivots, H being hessian's. The
        first factorization takes a minimum-degree ordering of A + A^T, and
        the system keeps it: every later one factors the matrix already in
        that order. Raises RuntimeError where H is singular."""
        pat = self._pattern
        lu_opts = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        if pat.perm is None:
            lu = splu(H, permc_spec="MMD_AT_PLUS_A", **lu_opts)
            pat.order_by(lu.perm_c)
            return lu.solve(rhs)
        A = sparse.csc_matrix((H.data.take(pat.perm_data), pat.perm_rows, pat.perm_indptr),
                              shape=H.shape)
        return splu(A, permc_spec="NATURAL", **lu_opts).solve(rhs.take(pat.inv)).take(pat.perm)


def _newton(sys_: _System, u_int, th, iters: int, stats: EmbeddingStats):
    """Damped Newton: each iteration fills one Hessian H into the system's
    fixed pattern, factors it once (see _System.solve) and takes the step
    H dx = -g, halved at most 30 times until the 2-norm of the packed
    gradient falls. The run stalls where H is singular or 30 halvings do
    not lower the gradient. Steps may flip triangles; harmonic_sphere_map
    refuses a folded final map. The pinned boundary angles stay as th holds
    them. The run stops early once the gradient's max-norm is under 1e-12.
    Neither u_int nor th is written to. Returns (u_int, th, ginf, ok),
    ginf the gradient's max-norm; ok is False when the run stalled.
    """
    _, gI, gth, g_P = sys_.grad(u_int, th)
    g = sys_.pack_grad(gI, gth)
    nI2 = 2 * sys_.nI
    for _ in range(iters):
        if np.abs(g).max() < 1e-12:
            break
        try:
            dx = sys_.solve(sys_.hessian(u_int, th, g_P), -g)
        except RuntimeError:
            return u_int, th, float(np.abs(g).max()), False
        gnorm = np.linalg.norm(g)
        for _ in range(31):   # the full step, then up to 30 halvings
            u_new = u_int + dx[:nI2].reshape(sys_.nI, 2)
            th_new = th.copy()
            th_new[sys_.free_b] += dx[nI2:]
            _, gI, gth, g_P_new = sys_.grad(u_new, th_new)
            g_new = sys_.pack_grad(gI, gth)
            if np.linalg.norm(g_new) < gnorm:
                break
            stats.newton_rejected += 1
            dx = 0.5 * dx
        else:
            return u_int, th, float(np.abs(g).max()), False
        stats.newton_accepted += 1
        u_int, th, g, g_P = u_new, th_new, g_new, g_P_new
    return u_int, th, float(np.abs(g).max()), True


def _conformal_dilate(P, v):
    """Moebius dilation by the equatorial vector v = (vx, vy): the boost of
    rapidity s = |v| towards e = v/|v|, with tan(theta'/2) = exp(-s)
    tan(theta/2) for the polar angle about e. With u = p . e,
        p -> ((u + tanh s) e + sech s (p - u e)) / (1 + u tanh s).
    An equatorial axis keeps the equator and the z-reflection symmetry.
    sech s = 2 exp(-s) / (1 + exp(-2 s)) underflows where cosh s overflows."""
    s = float(np.hypot(v[0], v[1]))
    e = np.array([v[0], v[1], 0.0]) / max(s, 1e-300)   # v = 0: e = 0, the identity
    beta, x = np.tanh(s), np.exp(-s)
    u = (P[:, 0] * e[0] + P[:, 1] * e[1])[:, None]
    den = 1 + beta * u
    Q = (u + beta) / den * e + (P - u * e) * (2 * x / (1 + x * x) / den)
    return Q / np.linalg.norm(Q, axis=1, keepdims=True)


def _disk_start(sys_: _System):
    """The start (u_int, th): the discrete Riemann map of the region onto the
    unit disk that sends z0 to 0, read as stereographic coordinates, z0 being
    the interior vertex farthest in the plane from every boundary vertex.

    The harmonic measure of z0, G with L_II G = e_z0, gives the boundary
    fluxes q = -L_BI G, which are positive and sum to 1. Boundary vertex b
    takes the angle 2 pi (q_0 + ... + q_(b-1) + q_b / 2), and the interior the
    barycentric map with that rim. Both solves share one LU of the interior
    rows of the solve's own Laplacian, whose weights there are the source
    mesh's planar cotangent weights, floored at WEIGHT_FLOOR, so positive and
    the disk map bijective."""
    idx, bl = sys_.interior, sys_.boundary
    pts = sys_.dbl.planar
    inner, gap = pts[idx], np.full(sys_.nI, np.inf)
    for b in pts[bl]:
        gap = np.minimum(gap, ((inner - b) ** 2).sum(axis=1))
    e_z0 = np.zeros(sys_.nI)
    e_z0[np.argmax(gap)] = 1.0
    L = sys_.L[idx]
    L_IB = L[:, bl]
    lu = splu(L[:, idx].tocsc())
    q = -(L_IB.T @ lu.solve(e_z0))
    th = 2 * np.pi * (np.cumsum(q) - 0.5 * q)
    return lu.solve(-L_IB @ np.stack([np.cos(th), np.sin(th)], axis=1)), th


def harmonic_sphere_map(dbl: DoubledMesh, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> SphericalEmbedding:
    """Compute the symmetric harmonic map of the doubled mesh to the unit sphere.

    Newton runs from the disk start in rounds, at most 24. Each round moves
    the map by the equatorial Moebius dilation that one Newton step takes
    towards a zero area-weighted centroid, its Jacobian a forward
    difference, and then runs _newton for at most max_iters steps; the three
    pinned boundary angles stay where the dilation put them. The rounds stop
    when the centroid's norm is under CENTROID_TOL and the residual under
    tol. Newton steps may flip triangles; the final map is checked once.

    Raises NoConvergence (carrying the best embedding) if the stationarity
    residual is above tol after the last round or a stalled Newton run, if
    the centroid's norm is not under CENTROID_TOL after the last round
    (carrying that round's state), if the final map folds (naming its
    flipped triangles and carrying the folded map), or at once if a round
    meets a non-finite centroid or residual (carrying the last state where
    both were finite).
    """
    ch = chord_edges(dbl.source)
    if ch:
        raise DegenerateMesh(
            f"{len(ch)} interior edge(s) join boundary vertices; the doubled "
            f"surface is not simplicial there and cannot be embedded")
    t0 = time.perf_counter()
    stats = EmbeddingStats()
    sys_ = _System(dbl)
    u_int, th = _disk_start(sys_)
    _, gI, gth, _ = sys_.grad(u_int, th)
    ginf = float(np.abs(sys_.pack_grad(gI, gth)).max())
    t1 = time.perf_counter()

    # the centroid's z part vanishes by symmetry; the Jacobian of its xy part
    # in the dilation vector is a forward difference
    tri = dbl.triangles
    P = sys_.positions(u_int, th)
    last, diverged, stalled = (P, ginf), False, False
    for _ in range(24):
        c = _area_centroid(tri, P)[:2]
        diverged = not (np.isfinite(c).all() and np.isfinite(ginf))
        if diverged or stalled or (np.linalg.norm(c) < CENTROID_TOL and ginf < tol):
            break
        last = P, ginf
        stats.recenter_rounds += 1
        h = 1e-2
        J = np.column_stack([(_area_centroid(tri, _conformal_dilate(P, e))[:2] - c) / h
                             for e in ((h, 0.0), (0.0, h))])
        diverged = not np.isfinite(J).all()
        if diverged:
            break
        P = _conformal_dilate(P, -np.linalg.solve(J, c))
        u_int, th, ginf, ok = _newton(sys_, *sys_.coords_from_positions(P), iters=max_iters,
                                      stats=stats)
        # a run that stalls at round-off under tol has converged; only the
        # centroid may still need rounds
        stalled = not (ok or ginf <= tol)
        P = sys_.positions(u_int, th)
    if diverged:
        P, ginf = last
    stats.centroid_norm = c_norm = float(np.linalg.norm(_area_centroid(tri, P)))
    stats.seconds = {"setup": t1 - t0, "rounds": time.perf_counter() - t1}

    emb = SphericalEmbedding(mesh=dbl, positions=P, residual=ginf, stats=stats)
    if diverged:
        raise NoConvergence(f"recentering stopped after {stats.recenter_rounds} round(s) at a "
                            f"non-finite centroid or residual; best residual {ginf:.3e}",
                            residual=ginf, best=emb)
    if not ginf <= tol:   # a NaN residual is no convergence either
        why = "a stalled Newton run" if stalled else f"{stats.recenter_rounds} round(s)"
        raise NoConvergence(f"embedding residual {ginf:.3e} above tol {tol:.1e} after {why}",
                            residual=ginf, best=emb)
    if not c_norm < CENTROID_TOL:
        raise NoConvergence(f"area centroid |c| = {c_norm:.1e} not under {CENTROID_TOL:.0e} "
                            f"after {stats.recenter_rounds} round(s)", residual=ginf, best=emb)
    flipped = emb.flipped_triangles()
    if len(flipped):
        raise NoConvergence(f"the final map folds: {len(flipped)} flipped triangle(s), "
                            f"among them {flipped[:8].tolist()}", residual=ginf, best=emb)
    return emb


def _area_centroid(tri, P) -> np.ndarray:
    """Centroid of the vertices P, each weighted by a third of the flat area
    of every triangle in `tri` incident to it; NaN where they have no area."""
    ar = 0.5 * np.linalg.norm(np.cross(P[tri[:, 1]] - P[tri[:, 0]],
                                       P[tri[:, 2]] - P[tri[:, 0]]), axis=1)
    m = np.bincount(tri.T.ravel(), weights=np.tile(ar / 3.0, 3), minlength=len(P))
    total = m.sum()
    if not total > 0:   # collapsed or non-finite positions
        return np.full(3, np.nan)
    return (m[:, None] * P).sum(axis=0) / total


def embedding_residual(emb: SphericalEmbedding) -> float:
    """Recompute the stationarity residual from scratch (used after loading)."""
    sys_ = _System(emb.mesh)
    u_int, th = sys_.coords_from_positions(emb.positions)
    _, gI, gth, _ = sys_.grad(u_int, th)
    return float(np.abs(sys_.pack_grad(gI, gth)).max())


# ---------------------------------------------------------------------------
# point location

LOCATE_TOL = 1e-10  # slack of the containment predicate


# p @ planes[t] > _INSIDE: every edge side >= -LOCATE_TOL, the centroid side > 0
_INSIDE = np.array([np.nextafter(-LOCATE_TOL, -np.inf)] * 3 + [0.0])


def _locate_test(emb: SphericalEmbedding, tris, p):
    """Which of the points p[..., k, :] each of the triangles tris[...]
    contains: gnomonically, when p . (edge normal i) >= -LOCATE_TOL for the
    three inward edge normals and p lies in the hemisphere of the centroid.
    """
    return (np.matmul(p, emb.planes()[tris]) > _INSIDE).all(axis=-1)


def locate(p, emb: SphericalEmbedding) -> int:
    """Triangle whose gnomonic projection contains p: the first of all
    triangles, by index, that `_locate_test` finds containing it."""
    contains = _locate_test(emb, np.arange(emb.mesh.n_triangles),
                            np.asarray(p, dtype=float)[None])[:, 0]
    if not contains.any():
        raise NotFound("no triangle contains the query point; embedding may be folded")
    return int(np.argmax(contains))


def locate_many(points, emb: SphericalEmbedding) -> np.ndarray:
    """Vectorized `locate`: each point is tested against the triangles with
    its 12 nearest centroids. A point that just one of them contains gets
    that one; a point that none or several contain, such as a point on an
    edge, goes to `locate`, which returns the lowest-index container."""
    pts = np.asarray(points, dtype=float)
    k = min(12, emb.mesh.n_triangles)
    _, cand = emb.kdtree().query(pts, k=k)
    cand = np.atleast_2d(cand)
    contains = _locate_test(emb, cand, pts[:, None, None, :])[..., 0]
    out = np.where(contains.sum(axis=1) == 1,
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


def _angles(pts, tris, sphere: bool):
    """Corner angles of every triangle between its two sides there; on the
    sphere, between the sides' projections onto the tangent plane."""
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]

    def ang(p0, p1, p2):
        u, v = ((p - ((p * p0).sum(axis=1, keepdims=True) if sphere else 1.0) * p0)
                for p in (p1, p2))
        nu = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        cu = (u * v).sum(axis=1) / np.maximum(nu, 1e-300)
        return np.arccos(np.clip(cu, -1, 1))

    return np.stack([ang(a, b, c), ang(b, c, a), ang(c, a, b)], axis=1)


def _dilatation(emb: SphericalEmbedding) -> np.ndarray:
    """Per-triangle quasi-conformal dilatation: the singular-value ratio
    s1 / s2 of the linear map from the planar triangle to the embedded one,
    inf where the planar det or the embedded |u x v| is 0. With j1, j2 the
    map's columns times det, s1 / s2 = (|j1|^2 + |j2|^2 + hypot(|j1|^2 -
    |j2|^2, 2 j1 . j2)) / (2 |j1 x j2|), and |j1 x j2| = |det| |u x v|."""
    tris = emb.mesh.triangles
    p2, p3 = emb.mesh.planar[tris], emb.positions[tris]
    (ax, ay), (bx, by) = (p2[:, 1] - p2[:, 0]).T, (p2[:, 2] - p2[:, 0]).T
    u, v = p3[:, 1] - p3[:, 0], p3[:, 2] - p3[:, 0]
    det, uxv = ax * by - ay * bx, np.linalg.norm(np.cross(u, v), axis=1)
    j1, j2 = by[:, None] * u - ay[:, None] * v, ax[:, None] * v - bx[:, None] * u
    e, g, f = (j1 * j1).sum(axis=1), (j2 * j2).sum(axis=1), (j1 * j2).sum(axis=1)
    return np.divide(e + g + np.hypot(e - g, 2 * f), 2 * np.abs(det) * uxv,
                     out=np.full(len(tris), np.inf), where=(uxv >= 1e-300) & (det != 0))


def distortion_report(emb: SphericalEmbedding) -> DistortionReport:
    """Per-triangle angle distortion (planar vs spherical) and dilatation."""
    tris = emb.mesh.triangles
    ap = _angles(emb.mesh.planar, tris, sphere=False)
    asph = _angles(emb.positions, tris, sphere=True)
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

POSITION_TOL = 1e-6  # how far a read position's norm may be from 1


def embedding_to_text(emb: SphericalEmbedding) -> str:
    head = mesh_to_text(emb.mesh.source)
    pos = emb.positions[:emb.mesh.n_original]
    lines = [f"{x:.12g} {y:.12g} {z:.12g}" for x, y, z in pos]
    return head + "\n".join(lines) + "\n"


def embedding_from_text(text: str) -> SphericalEmbedding:
    """The embedding that embedding_to_text wrote. Raises DegenerateMesh where a
    position line does not hold three numbers or its point is not within
    POSITION_TOL of the unit sphere (a truncated or corrupted file)."""
    from .mesh import double_cover  # at call time: perfbench times mesh.double_cover by wrapping it

    rows = [ln for ln in text.splitlines() if ln.strip()]
    try:
        nv, nf, nb = (int(x) for x in rows[0].split())
    except (ValueError, IndexError) as exc:
        raise DegenerateMesh(f"malformed embedding text header: {exc}") from exc
    mesh_rows = rows[:1 + nv + nf + nb]
    mesh = mesh_from_text("\n".join(mesh_rows))
    pos_rows = rows[1 + nv + nf + nb:]
    if len(pos_rows) != nv:
        raise DegenerateMesh(f"embedding text has {len(pos_rows)} position lines, "
                             f"expected {nv}")
    try:   # a ragged or non-numeric line is a ValueError
        upper = np.array([r.split() for r in pos_rows], dtype=float)
    except ValueError as exc:
        raise DegenerateMesh(f"malformed position line in embedding text: {exc}") from exc
    if upper.shape != (nv, 3):
        raise DegenerateMesh(f"position lines have {upper.shape[-1]} fields, expected 3")
    off = np.flatnonzero(~(np.abs(np.linalg.norm(upper, axis=1) - 1.0) <= POSITION_TOL))
    if len(off):
        raise DegenerateMesh(f"{len(off)} position line(s) not on the unit sphere, "
                             f"the first is line {off[0]}: {pos_rows[off[0]]!r}")
    dbl = double_cover(mesh)
    P = np.empty((dbl.n_vertices, 3))
    P[:nv] = upper
    P[nv:] = upper[dbl.copy_map[nv:]] * _Z
    emb = SphericalEmbedding(mesh=dbl, positions=P, residual=float("nan"))
    emb.residual = embedding_residual(emb)
    return emb


def save_embedding(emb: SphericalEmbedding, path) -> None:
    with open(path, "w") as fh:
        fh.write(embedding_to_text(emb))


def load_embedding(path) -> SphericalEmbedding:
    with open(path) as fh:
        return embedding_from_text(fh.read())
