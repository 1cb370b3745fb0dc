"""Harmonic embedding of the doubled mesh on the unit sphere, and point location.

The solve minimizes the cotangent-weighted Dirichlet energy of the sphere map
directly, in a symmetric parameterization: the upper copy is tracked through
stereographic coordinates (interior) and equator angles (boundary), and the
mirror copy is the z-reflection by construction, so mirror symmetry and the
boundary-on-equator property hold exactly at every iterate.

Phases:
(A) L-BFGS from the Tutte disk map (the barycentric map built from the
    solve's own Laplacian), with three boundary angles pinned
    (fixes the residual Moebius gauge and blocks collapse).
(B) Damped Newton, which refuses steps that add boundary folds or flipped
    triangles. Probes, short strict Newton runs from L-BFGS iterates, decide
    when L-BFGS hands the solve over; if Newton then stalls, L-BFGS resumes
    and Newton polishes its end point (the rule is in harmonic_sphere_map).
(C) Recentering rounds until the area-weighted centroid and the residual are
    under tolerance: each round takes one Newton step on the two-parameter
    equatorial Moebius dilation that zeroes the centroid, then a short Newton
    re-solve.
Every solve returns an EmbeddingStats record of what each phase did.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import minimize
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import DegenerateMesh, NoConvergence, NotFound
from .mesh import (DoubledMesh, chord_edges, edge_table, mesh_from_text,
                   mesh_to_text, triangle_neighbors)

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITERS = 20000
# Hashed into the CLI's embedding cache key; raise it whenever a change to the
# solver changes the embedding it returns for the same mesh and settings.
SOLVER_VERSION = 4
WEIGHT_FLOOR = 1e-3  # keeps seam triangles strictly oriented; raising weights preserves PSD
# The handoff probe (phase B; see harmonic_sphere_map and _newton): the first
# probe's L-BFGS iteration, the largest gap between probes, the Newton steps
# of a probe, the factor each step must shrink the gradient's max-norm by,
# and the rejected trial steps a strict Newton run survives.
PROBE_FIRST = 15
PROBE_EVERY = 100
PROBE_STEPS = 3
PROBE_SHRINK = 0.5
PROBE_REJECTS = 4

_Z = np.array([1.0, 1.0, -1.0])


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
    """What one solve did, phase by phase.

    lbfgs_* sum over the L-BFGS runs (two when a handoff is taken back); the
    message is the last run's. Newton steps count every Newton run, probes
    included. seconds maps each phase (setup, lbfgs, probes, newton,
    recenter) to its wall time; lbfgs excludes the probes run inside it.
    """

    lbfgs_nit: int = 0
    lbfgs_nfev: int = 0
    lbfgs_message: str = ""
    probes: int = 0
    probes_failed: int = 0
    handoff: bool = False
    resumed: bool = False
    newton_accepted: int = 0
    newton_rejected: int = 0
    folds_repaired: int = 0
    recenter_rounds: int = 0
    centroid_norm: float = 0.0
    seconds: dict = field(default_factory=dict)

    def summary(self) -> str:
        """The record on one line."""
        handoff = "resumed" if self.resumed else ("handoff" if self.handoff else "no handoff")
        secs = " ".join(f"{k}={v:.2f}" for k, v in self.seconds.items())
        return (f"lbfgs nit={self.lbfgs_nit} nfev={self.lbfgs_nfev} "
                f"({self.lbfgs_message}); probes={self.probes} "
                f"failed={self.probes_failed} {handoff}; newton "
                f"accepted={self.newton_accepted} rejected={self.newton_rejected}; "
                f"folds_repaired={self.folds_repaired}; recenter "
                f"rounds={self.recenter_rounds} |c|={self.centroid_norm:.1e}; "
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
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
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
        # pins at arc-length thirds of the boundary
        pts = dbl.source.vertices
        seg = np.linalg.norm(pts[np.roll(self.boundary, -1)] - pts[self.boundary], axis=1)
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

    def unpack(self, x):
        """(u_int, th) of an L-BFGS vector, the pins filled in; u_int is a view of x."""
        th = np.empty(self.nB)
        th[self.free_b] = x[2 * self.nI:]
        th[self.pin_pos] = self.pin_val
        return x[:2 * self.nI].reshape(self.nI, 2), th

    def hessian(self, u_int, th, g_P):
        """The energy's Hessian in the packed coordinates, g_P being grad's: the
        Gauss-Newton term 2 J_a^T L J_a of each axis a, J_a the Jacobian of P_a,
        plus the curvature term g . d2P. At an interior vertex that term is
        G grad(f)^T + grad(f) G^T + s (2 f^3 u u^T - f^2 I), where G = (g_x, g_y)
        and s = g . (u, 1); at a boundary angle it is -g . (cos th, sin th)."""
        f, jac = self.jacobian(u_int)
        thf = th[self.free_b]
        ucols = np.arange(2 * self.nI).reshape(self.nI, 2)
        bcols = np.arange(2 * self.nI, self.ndof)
        upper_and_mirror = np.r_[self.interior, self.dbl.n_original:self.dbl.n_vertices]
        rows = np.concatenate([np.repeat(upper_and_mirror, 2), self.boundary[self.free_b]])
        cols = np.concatenate([ucols.ravel(), ucols.ravel(), bcols])
        H = 0
        for (dx, dy), sgn, dth in zip(jac, _Z, (-np.sin(thf), np.cos(thf), np.zeros_like(thf))):
            du = np.stack([dx, dy], axis=1).ravel()
            Ja = sparse.csr_matrix((np.concatenate([du, sgn * du, dth]), (rows, cols)),
                                   shape=(self.dbl.n_vertices, self.ndof))
            H = H + Ja.T @ self.L @ Ja
        H.data *= 2.0
        gU = g_P[self.interior] + g_P[self.mirror] * _Z
        G, df, u = gU[:, :2, None], np.stack(jac[2], axis=1)[:, None, :], u_int[:, :, None]
        s = (gU[:, 0] * u_int[:, 0] + gU[:, 1] * u_int[:, 1] + gU[:, 2])[:, None, None]
        f2 = (f * f)[:, None, None]
        C = G * df
        C = C + C.transpose(0, 2, 1) + s * (2 * f2 * f[:, None, None] * (u * u.transpose(0, 2, 1))
                                            - f2 * np.eye(2))
        gB = g_P[self.boundary[self.free_b]]
        curv = sparse.coo_matrix(
            (np.concatenate([C.ravel(), -(gB[:, 0] * np.cos(thf) + gB[:, 1] * np.sin(thf))]),
             (np.concatenate([np.repeat(ucols, 2, axis=1).ravel(), bcols]),
              np.concatenate([np.tile(ucols, 2).ravel(), bcols]))),
            shape=(self.ndof, self.ndof))
        return (H + curv).tocsc()


def _fold_count(th) -> int:
    return int((np.diff(np.unwrap(th)) < 0).sum())


def _flip_count(sys_: _System, P) -> int:
    det = _triple_products(P, sys_.dbl.triangles)
    return int(min((det > 1e-14).sum(), (det < -1e-14).sum()))


def _repair_folds(th):
    """The boundary angles unwrapped and sorted: the vertices keep their order
    along the boundary and take the angles in increasing order, so an inverted
    run swaps its values among its own vertices and no fold is left."""
    return np.sort(np.unwrap(th))


def _newton(sys_: _System, u_int, th, iters: int, stats: EmbeddingStats,
            grad_target: float = 1e-12, strict: bool = False):
    """Damped Newton; accepts only gradient-decreasing, fold/flip-safe steps.

    Each iteration factors H + tau I, raising tau tenfold after every rejected
    trial; the run stalls when 40 trials in a row are rejected. A strict run
    (a probe, or the Newton finish after a handoff) fails sooner: at its
    (PROBE_REJECTS + 1)-th rejected trial in all, or at an accepted step that
    shrinks the gradient's max-norm by less than the factor PROBE_SHRINK. A
    strict run therefore factors at most iters + PROBE_REJECTS times. Neither
    u_int nor th is written to. Returns (u_int, th, ginf, ok); ok is False
    when the run stalled or failed.
    """
    _, gI, gth, g_P = sys_.grad(u_int, th)
    g = sys_.pack_grad(gI, gth)
    ginf = float(np.abs(g).max())
    base_folds = _fold_count(th)
    base_flips = _flip_count(sys_, sys_.positions(u_int, th))
    tau = 1e-6
    rejected = 0
    eye = sparse.identity(sys_.ndof, format="csc")
    for _ in range(iters):
        if ginf < grad_target:
            break
        H = sys_.hessian(u_int, th, g_P)
        for _ in range(40):
            step = _trial_step(sys_, H + tau * eye, g, u_int, th, base_folds, base_flips)
            if step is not None:
                break
            stats.newton_rejected += 1
            rejected += 1
            tau *= 10
            if strict and rejected > PROBE_REJECTS:
                return u_int, th, ginf, False
        else:
            return u_int, th, ginf, False
        stats.newton_accepted += 1
        u_int, th, g, g_P = step
        ginf, last = float(np.abs(g).max()), ginf
        if strict and ginf > PROBE_SHRINK * last:
            return u_int, th, ginf, False
        tau = max(tau * 0.25, 1e-14)
    return u_int, th, ginf, True


def _trial_step(sys_: _System, A, g, u_int, th, base_folds: int, base_flips: int):
    """The step A dx = -g from (u_int, th): the new (u_int, th, g, g_P), or
    None when A is singular, the step adds boundary folds or flipped
    triangles, or it does not lower the gradient's max-norm.

    A is symmetric, so its LU takes a minimum-degree ordering of A + A^T and
    diagonal pivots.
    """
    try:
        dx = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True)).solve(-g)
    except RuntimeError:
        return None
    u_new = u_int + dx[:2 * sys_.nI].reshape(sys_.nI, 2)
    th_new = th.copy()
    th_new[sys_.free_b] = th[sys_.free_b] + dx[2 * sys_.nI:]
    if (_fold_count(th_new) > base_folds
            or _flip_count(sys_, sys_.positions(u_new, th_new)) > base_flips):
        return None
    _, gI, gth, g_P = sys_.grad(u_new, th_new)
    g_new = sys_.pack_grad(gI, gth)
    if not np.abs(g_new).max() < np.abs(g).max():
        return None
    return u_new, th_new, g_new, g_P


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


def _tutte_start(sys_: _System) -> np.ndarray:
    """The L-BFGS start: the barycentric map of the region to the unit disk,
    read as stereographic coordinates, with the boundary at its arc-length
    angles. It solves on the interior rows of the solve's own Laplacian, whose
    weights there are the source mesh's planar cotangent weights, floored at
    WEIGHT_FLOOR, so positive and the disk map bijective."""
    idx, bl = sys_.interior, sys_.boundary
    rim = np.stack([np.cos(sys_.arc_param), np.sin(sys_.arc_param)], axis=1)
    L = sys_.L[idx]
    disk = splu(L[:, idx].tocsc()).solve(-L[:, bl] @ rim)
    return np.concatenate([disk.ravel(), sys_.arc_param[sys_.free_b]])


def _probe(sys_: _System, x, stats: EmbeddingStats):
    """A strict Newton run of PROBE_STEPS steps from the L-BFGS vector x (not
    written to): the (u_int, th) it ends at if it did not fail, else None."""
    u_int, th, _, ok = _newton(sys_, *sys_.unpack(x), iters=PROBE_STEPS, stats=stats,
                               strict=True)
    return (u_int, th) if ok else None


class _Laps:
    """Charges the wall time since the previous lap to a named phase."""

    def __init__(self, seconds: dict):
        self.seconds, self.t = seconds, time.perf_counter()

    def __call__(self, phase: str) -> None:
        t = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + t - self.t
        self.t = t


def harmonic_sphere_map(dbl: DoubledMesh, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> SphericalEmbedding:
    """Compute the symmetric harmonic map of the doubled mesh to the unit sphere.

    L-BFGS runs from the Tutte start and is probed at its iterations 15, 30,
    60, 120, 220, 320, ...: the gap between probes doubles from PROBE_FIRST
    until it reaches PROBE_EVERY. Early probes are dense because Newton can
    often finish from one of the first few dozen iterates; later ones are
    sparse because a failed probe costs as much as dozens of L-BFGS
    iterations. A probe that does not fail hands the solve to a strict
    Newton run from where the probe ended; a failed one leaves L-BFGS and its
    memory as they were. If that Newton run ends above tol, or with a
    boundary fold or a flipped triangle, L-BFGS resumes from the iterate it
    handed off, probes no more, and Newton polishes its end point as without
    a handoff.

    Raises NoConvergence (carrying the best embedding) if the stationarity
    residual stays above tol.
    """
    ch = chord_edges(dbl.source)
    if ch:
        raise DegenerateMesh(
            f"{len(ch)} interior edge(s) join boundary vertices; the doubled "
            f"surface is not simplicial there and cannot be embedded")
    stats = EmbeddingStats()
    lap = _Laps(stats.seconds)
    sys_ = _System(dbl)
    x0 = _tutte_start(sys_)
    lap("setup")

    energy_trace: list[float] = []
    handoff = None
    next_probe = PROBE_FIRST

    def objective(x):
        E, gI, gth, _ = sys_.grad(*sys_.unpack(x))
        return E, sys_.pack_grad(gI, gth)

    # scipy hands the iterate's result (with .x and .fun) only to a callback
    # whose one parameter is named intermediate_result
    def callback(intermediate_result):
        nonlocal handoff, next_probe
        energy_trace.append(intermediate_result.fun)
        if stats.handoff or len(energy_trace) < next_probe:
            return
        next_probe += min(next_probe, PROBE_EVERY)
        lap("lbfgs")
        stats.probes += 1
        handoff = _probe(sys_, intermediate_result.x, stats)
        lap("probes")
        if handoff is not None:
            raise StopIteration
        stats.probes_failed += 1

    def lbfgs(x, iters):
        res = minimize(objective, x, jac=True, method="L-BFGS-B", callback=callback,
                       options=dict(maxiter=iters, maxfun=2 * iters,
                                    ftol=1e-16, gtol=1e-12, maxcor=40))
        stats.lbfgs_nit += res.nit
        stats.lbfgs_nfev += res.nfev
        stats.lbfgs_message = str(res.message)
        lap("lbfgs")
        return res

    res = lbfgs(x0, max_iters)
    if handoff is not None:
        stats.handoff = True
        u_int, th, ginf, _ = _newton(sys_, *handoff, iters=40, stats=stats, strict=True)
        lap("newton")
        stats.resumed = not (ginf <= tol and _fold_count(th) == 0
                             and _flip_count(sys_, sys_.positions(u_int, th)) == 0)
        if stats.resumed:
            res = lbfgs(res.x, max_iters - stats.lbfgs_nit)
    if handoff is None or stats.resumed:
        u_int, th = sys_.unpack(res.x)
        stats.folds_repaired = _fold_count(th)
        if stats.folds_repaired:
            th = _repair_folds(th)
            sys_.pin_val = th[sys_.pin_pos].copy()
        u_int, th, ginf, _ = _newton(sys_, u_int, th, iters=40, stats=stats)
        lap("newton")

    # recentering (phase C): the centroid's z part vanishes by symmetry; the
    # Jacobian of its xy part in the dilation vector is a forward difference
    tri = sys_.dbl.triangles
    P = sys_.positions(u_int, th)
    for _ in range(24):
        c = _area_centroid(tri, P)[:2]
        if np.linalg.norm(c) < 5e-7 and ginf < tol:
            break
        stats.recenter_rounds += 1
        h = 1e-2
        J = np.column_stack([(_area_centroid(tri, _conformal_dilate(P, e))[:2] - c) / h
                             for e in ((h, 0.0), (0.0, h))])
        P = _conformal_dilate(P, -np.linalg.solve(J, c))
        u_int, th = sys_.coords_from_positions(P)
        sys_.pin_val = th[sys_.pin_pos].copy()
        u_int, th, ginf, _ = _newton(sys_, u_int, th, iters=8, stats=stats)
        P = sys_.positions(u_int, th)
    stats.centroid_norm = float(np.linalg.norm(_area_centroid(tri, P)))
    lap("recenter")

    emb = SphericalEmbedding(mesh=dbl, positions=P, residual=ginf,
                             energy_trace=np.array(energy_trace), stats=stats)
    if not ginf <= tol:   # a NaN residual is no convergence either
        raise NoConvergence(f"embedding residual {ginf:.3e} above tol {tol:.1e}",
                            residual=ginf, best=emb)
    return emb


def _area_centroid(tri, P) -> np.ndarray:
    """Centroid of the vertices P, each weighted by a third of the flat area
    of every triangle in `tri` incident to it."""
    ar = 0.5 * np.linalg.norm(np.cross(P[tri[:, 1]] - P[tri[:, 0]],
                                       P[tri[:, 2]] - P[tri[:, 0]]), axis=1)
    m = np.bincount(tri.T.ravel(), weights=np.tile(ar / 3.0, 3), minlength=len(P))
    return (m[:, None] * P).sum(axis=0) / m.sum()


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
    """Vectorized location of many points: each is tested against the
    triangles with its 12 nearest centroids, and a miss goes to `locate`."""
    pts = np.asarray(points, dtype=float)
    k = min(12, emb.mesh.n_triangles)
    _, cand = emb.kdtree().query(pts, k=k)
    cand = np.atleast_2d(cand)
    contains = _locate_test(emb, cand, pts[:, None, None, :])[..., 0]
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
