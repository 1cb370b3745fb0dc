import dataclasses
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import geoq
from geoq import embedding
from geoq.config import IRREGULAR
from geoq.embedding import (_centre_vertex, _conformal_dilate, _dilatation, _disk_start,
                            _System, _triple_products, embedding_from_text,
                            embedding_residual, embedding_to_text, locate_many)
from geoq.errors import DegenerateInput, DegenerateMesh, NoConvergence
from geoq.mesh import mesh_to_text

from conftest import SQUARE, random_unit

_Z = np.array([1.0, 1.0, -1.0])
RECT = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
FIXTURE = Path(__file__).resolve().parent.parent / "perfbench/fixture/emb_square_2000_seed1.txt"


def _polar_angle_dilate(P, v):
    """The equatorial dilation by its polar angles about e = v/|v|:
    tan(theta'/2) = exp(-|v|) tan(theta/2), written apart from the library's
    closed form as the reference."""
    nv = float(np.hypot(v[0], v[1]))
    if nv < 1e-300:
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


def _cover(n_nodes, seed, region=SQUARE):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    pts = geoq.generate_deployment(np.array(region), n_nodes, rng)
    return geoq.double_cover(geoq.triangulate(pts, boundary=region))


class TestInvariants:
    def test_unit_positions(self, emb400):
        norms = np.linalg.norm(emb400.positions, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_mirror_symmetry(self, emb400):
        p = emb400.positions
        cm = emb400.mesh.copy_map
        err = np.linalg.norm(p[cm] * np.array([1, 1, -1.0]) - p, axis=1).max()
        assert err < 1e-6

    def test_boundary_on_equator(self, emb400):
        assert np.abs(emb400.positions[emb400.mesh.boundary, 2]).max() < 1e-6

    def test_no_flipped_triangles(self, emb400):
        assert len(emb400.flipped_triangles()) == 0

    def test_moebius_centroid(self, emb400):
        assert np.linalg.norm(emb400.area_centroid()) < 1e-6

    def test_residual_below_tol(self, emb400):
        assert emb400.residual <= 1e-7

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vx=st.floats(-2.0, 2.0), vy=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_equatorial_dilation(self, vx, vy, seed):
        # unit norms, the equator kept, commutes with the z-reflection, and
        # v then -v is the identity
        rng = np.random.default_rng(seed)
        P = np.vstack([random_unit(rng, 30), np.eye(3), -np.eye(3)])
        P[:10, 2] = 0.0
        P[:10] /= np.linalg.norm(P[:10], axis=1, keepdims=True)
        Q = _conformal_dilate(P, (vx, vy))
        assert np.abs(np.linalg.norm(Q, axis=1) - 1.0).max() < 1e-12
        assert np.all(Q[:10, 2] == 0.0)
        assert np.array_equal(_conformal_dilate(P * _Z, (vx, vy)), Q * _Z)
        assert np.abs(_conformal_dilate(Q, (-vx, -vy)) - P).max() < 1e-12
        assert np.abs(Q - _polar_angle_dilate(P, (vx, vy))).max() < 1e-13

    def test_large_dilation_is_finite(self):
        # cosh(800) overflows; the dilation takes every point to the axis
        P = random_unit(np.random.default_rng(5), 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = _conformal_dilate(P, (480.0, 640.0))
        assert np.abs(np.linalg.norm(Q, axis=1) - 1.0).max() < 1e-12
        assert np.allclose(Q, [0.6, 0.8, 0.0], rtol=0, atol=1e-12)

    def test_region_center_maps_near_pole(self):
        # 4-fold symmetric deployment; the center vertex lands near the pole
        from geoq.mesh import corner_anchors, ring_points
        ring = ring_points(np.array(SQUARE), 0.1)
        anchors = corner_anchors(np.array(SQUARE), 0.06)
        xs = np.linspace(0.1, 0.9, 9)
        grid = np.array([[x, y] for x in xs for y in xs])
        pts = np.vstack([ring, anchors, grid])
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        emb = geoq.harmonic_sphere_map(geoq.double_cover(mesh))
        center = int(np.argmin(np.linalg.norm(pts - 0.5, axis=1)))
        assert geoq.geodesic_distance(emb.positions[center], [0, 0, 1]) < 0.05


class TestLocate:
    def test_vertex_query_hits_incident_triangle(self, emb400):
        tris = emb400.mesh.triangles
        for v in (0, 57, 200):
            t = geoq.locate(emb400.positions[v], emb400)
            assert v in tris[t]

    def test_centroid_query(self, emb400):
        tris = emb400.mesh.triangles
        for t in (0, 123, 500):
            c = emb400.positions[tris[t]].mean(axis=0)
            c /= np.linalg.norm(c)
            assert geoq.locate(c, emb400) == t

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lat=st.floats(-1.0, 1.0), lon=st.floats(0.0, 2 * np.pi))
    def test_located_triangle_contains_point(self, emb400, lat, lon):
        # the exhaustive scan returns a triangle that contains p
        r = np.sqrt(1.0 - lat * lat)
        p = np.array([r * np.cos(lon), r * np.sin(lon), lat])
        t = geoq.locate(p, emb400)
        v = emb400.positions[emb400.mesh.triangles[t]]
        sides = [np.cross(v[i], v[(i + 1) % 3]) @ p * emb400.orientation() for i in range(3)]
        assert min(sides) >= -1e-10
        assert v.sum(axis=0) @ p > 0

    def test_matches_exhaustive_scan(self, emb400, monkeypatch):
        # enough points that some miss their 12 nearest centroids and go to `locate`
        fallbacks = []
        exhaustive = geoq.embedding.locate

        def counted(p, emb):
            fallbacks.append(p)
            return exhaustive(p, emb)

        monkeypatch.setattr(geoq.embedding, "locate", counted)
        rng = np.random.default_rng(12)
        pts = random_unit(rng, 20000)
        tids = locate_many(pts, emb400)
        assert fallbacks
        # the brute-force predicate, evaluated for the triangle each point got
        a, b, c = np.moveaxis(emb400.positions[emb400.mesh.triangles[tids]], 1, 0)
        s = np.minimum.reduce([np.einsum("ij,ij->i", np.cross(u, v), pts)
                               for u, v in ((a, b), (b, c), (c, a))])
        assert np.all(s * emb400.orientation() >= -1e-10)
        assert np.all(np.einsum("ij,ij->i", a + b + c, pts) > 0)

    def test_many_agrees_with_one_on_ties(self, emb400):
        # an edge midpoint lies in both triangles of its edge and a vertex in
        # its whole fan; both functions take the lowest-index triangle
        mid = emb400.positions[emb400.edges()[0]].sum(axis=1)
        pts = np.vstack([mid / np.linalg.norm(mid, axis=1, keepdims=True), emb400.positions])
        assert locate_many(pts, emb400).tolist() == [geoq.locate(p, emb400) for p in pts]


class TestDistortion:
    def test_fields_sane(self, emb400):
        rep = geoq.distortion_report(emb400)
        assert rep.mean_angle_error >= 0
        assert rep.max_angle_error >= rep.mean_angle_error
        assert rep.mean_dilatation >= 1.0
        assert rep.max_dilatation >= rep.mean_dilatation
        assert rep.percentiles[90] >= rep.percentiles[50]

    def test_dilatation_matches_loop(self, emb400):
        # the per-triangle loop the vectorised dilatation replaced, as reference;
        # one spherical triangle collapsed to an edge reads inf in both
        pos = emb400.positions.copy()
        t0 = emb400.mesh.triangles[0]
        pos[t0[2]] = pos[t0[0]]
        for emb in (emb400, dataclasses.replace(emb400, positions=pos)):
            tris = emb.mesh.triangles
            p2, p3 = emb.mesh.planar, emb.positions
            ref = np.empty(len(tris))
            for i, (a, b, c) in enumerate(tris):
                m_src = np.stack([p2[b] - p2[a], p2[c] - p2[a]], axis=1)
                e1s, e2s = p3[b] - p3[a], p3[c] - p3[a]
                f1 = e1s / (np.linalg.norm(e1s) + 1e-300)
                n = np.cross(e1s, e2s)
                nn = np.linalg.norm(n)
                if nn < 1e-300:
                    ref[i] = np.inf
                    continue
                f2 = np.cross(n / nn, f1)
                m_dst = np.array([[e1s @ f1, e2s @ f1], [e1s @ f2, e2s @ f2]])
                sv = np.linalg.svd(m_dst @ np.linalg.inv(m_src), compute_uv=False)
                ref[i] = sv[0] / max(sv[1], 1e-300)
            got = _dilatation(emb)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert np.allclose(got[np.isfinite(ref)], ref[np.isfinite(ref)], rtol=1e-12, atol=0)
        assert np.isinf(got[0])

    def test_refinement_reduces_distortion(self, emb400, emb800):
        d400 = geoq.distortion_report(emb400).mean_angle_error
        d800 = geoq.distortion_report(emb800).mean_angle_error
        assert d800 < d400


class TestSolverEdges:
    def test_chordal_mesh_rejected(self):
        mesh = geoq.triangulate(np.array(SQUARE))  # diagonal is a chord
        dbl = geoq.double_cover(mesh)
        with pytest.raises(DegenerateMesh):
            geoq.harmonic_sphere_map(dbl)

    def test_no_convergence_reports_best(self):
        rng = np.random.default_rng(14)
        pts = geoq.generate_deployment(np.array(SQUARE), 150, rng)
        dbl = geoq.double_cover(geoq.triangulate(pts, boundary=SQUARE))
        with pytest.raises(NoConvergence) as err:
            geoq.harmonic_sphere_map(dbl, tol=1e-16, max_iters=3)
        assert err.value.best is not None
        assert err.value.residual > 1e-16

    def test_nan_residual_is_no_convergence(self, monkeypatch):
        newton = embedding._newton

        def nan_residual(*args, **kwargs):
            u_int, th, _, ok = newton(*args, **kwargs)
            return u_int, th, float("nan"), ok

        monkeypatch.setattr(embedding, "_newton", nan_residual)
        with pytest.raises(NoConvergence):
            geoq.harmonic_sphere_map(_cover(300, 1))

    def test_nonfinite_recentering_stops_at_once(self, monkeypatch):
        # the first recentering round ends at NaN coordinates: the solve
        # stops there, without a warning, and reports the state before it
        newton = embedding._newton

        def nan_in_recentering(sys_, u_int, th, iters, stats, **kwargs):
            u_int, th, ginf, ok = newton(sys_, u_int, th, iters, stats, **kwargs)
            if stats.recenter_rounds:
                u_int = np.full_like(u_int, np.nan)
            return u_int, th, ginf, ok

        monkeypatch.setattr(embedding, "_newton", nan_in_recentering)
        with pytest.raises(NoConvergence) as err:
            geoq.harmonic_sphere_map(_cover(300, 1))
        best = err.value.best
        assert np.isfinite(best.positions).all()
        assert np.isfinite(err.value.residual)
        assert best.stats.recenter_rounds == 1
        assert np.isfinite(best.stats.centroid_norm)

    def test_uncentred_rounds_are_no_convergence(self):
        # the 2 x 1 rectangle, 300 nodes, seed 2: the last round ends under tol
        # but off centre
        with pytest.raises(NoConvergence, match="centroid") as err:
            geoq.harmonic_sphere_map(_cover(300, 2, RECT))
        best = err.value.best
        assert best.stats.recenter_rounds == 24
        assert best.stats.centroid_norm >= embedding.CENTROID_TOL
        assert best.stats.centroid_norm == np.linalg.norm(best.area_centroid())
        assert err.value.residual <= 1e-7

    def test_stalled_recentering_is_no_convergence(self, monkeypatch):
        # every third dilation, the one each round moves the map by, is dropped
        dilate, calls = embedding._conformal_dilate, itertools.count(1)

        def drops_the_step(P, v):
            return P if next(calls) % 3 == 0 else dilate(P, v)

        monkeypatch.setattr(embedding, "_conformal_dilate", drops_the_step)
        with pytest.raises(NoConvergence, match="centroid") as err:
            geoq.harmonic_sphere_map(_cover(400, 3))
        assert err.value.best.stats.centroid_norm >= embedding.CENTROID_TOL


def _packed_state(dbl, which):
    """A system of dbl with its pins fixed at the state's angles, and the
    packed vector of the state: the disk start, or the solved embedding's
    coordinates."""
    sys_ = _System(dbl)
    if which == "tutte":
        u_int, th = _disk_start(sys_)
    else:
        u_int, th = sys_.coords_from_positions(geoq.harmonic_sphere_map(dbl).positions)
    sys_.pinned = th[sys_.pin_pos]
    return sys_, np.concatenate([u_int.ravel(), th[sys_.free_b]])


def _unpack(sys_, x):
    """(u_int, th) of a packed vector, the pins filled in from sys_.pinned."""
    th = np.empty(sys_.nB)
    th[sys_.free_b] = x[2 * sys_.nI:]
    th[sys_.pin_pos] = sys_.pinned
    return x[:2 * sys_.nI].reshape(sys_.nI, 2), th


def _packed_grad(sys_, x):
    """(energy, packed gradient, g_P) at the packed vector x."""
    E, gI, gth, g_P = sys_.grad(*_unpack(sys_, x))
    return E, sys_.pack_grad(gI, gth), g_P


class TestDerivatives:
    # central differences with step 1e-5; their truncation error on this mesh
    # is about 5e-8 in the gradient and 5e-10 of |Hv| in the Hessian
    @pytest.mark.parametrize("which", ["tutte", "solved"])
    def test_gradient_matches_energy_differences(self, which):
        dbl = _cover(200, 1)
        sys_, x = _packed_state(dbl, which)
        h = 1e-5
        fd = np.array([(_packed_grad(sys_, x + h * e)[0] - _packed_grad(sys_, x - h * e)[0])
                       / (2 * h) for e in np.eye(len(x))])
        # the solved gradient is about 1e-13, so the tolerance scales with the start's
        scale = np.abs(_packed_grad(*_packed_state(dbl, "tutte"))[1]).max()
        assert np.abs(fd - _packed_grad(sys_, x)[1]).max() <= 1e-6 * scale

    @pytest.mark.parametrize("which", ["tutte", "solved"])
    def test_hessian_matches_gradient_differences(self, which):
        sys_, x = _packed_state(_cover(200, 1), which)
        H = sys_.hessian(*_unpack(sys_, x), _packed_grad(sys_, x)[2])
        h = 1e-5
        for v in np.random.default_rng(3).normal(size=(3, len(x))):
            fd = (_packed_grad(sys_, x + h * v)[1] - _packed_grad(sys_, x - h * v)[1]) / (2 * h)
            Hv = H @ v
            assert np.abs(fd - Hv).max() <= 1e-6 * np.abs(Hv).max()


def _reference_hessian(sys_, u_int, th, g_P):
    """The Hessian assembled as three sparse products J_a^T L J_a, J_a the
    Jacobian of the positions' axis a, plus the curvature term: the form the
    fixed-pattern assembly replaced."""
    f, jac = sys_.jacobian(u_int)
    thf = th[sys_.free_b]
    ucols = np.arange(2 * sys_.nI).reshape(sys_.nI, 2)
    bcols = np.arange(2 * sys_.nI, sys_.ndof)
    upper_and_mirror = np.r_[sys_.interior, sys_.dbl.n_original:sys_.dbl.n_vertices]
    rows = np.concatenate([np.repeat(upper_and_mirror, 2), sys_.boundary[sys_.free_b]])
    cols = np.concatenate([ucols.ravel(), ucols.ravel(), bcols])
    H = 0
    for (dx, dy), sgn, dth in zip(jac, _Z, (-np.sin(thf), np.cos(thf), np.zeros_like(thf))):
        du = np.stack([dx, dy], axis=1).ravel()
        Ja = sparse.csr_matrix((np.concatenate([du, sgn * du, dth]), (rows, cols)),
                               shape=(sys_.dbl.n_vertices, sys_.ndof))
        H = H + Ja.T @ sys_.L @ Ja
    H.data *= 2.0
    gU = g_P[sys_.interior] + g_P[sys_.mirror] * _Z
    G, df, u = gU[:, :2, None], np.stack(jac[2], axis=1)[:, None, :], u_int[:, :, None]
    s = (gU[:, 0] * u_int[:, 0] + gU[:, 1] * u_int[:, 1] + gU[:, 2])[:, None, None]
    f2 = (f * f)[:, None, None]
    C = G * df
    C = C + C.transpose(0, 2, 1) + s * (2 * f2 * f[:, None, None] * (u * u.transpose(0, 2, 1))
                                        - f2 * np.eye(2))
    gB = g_P[sys_.boundary[sys_.free_b]]
    curv = sparse.coo_matrix(
        (np.concatenate([C.ravel(), -(gB[:, 0] * np.cos(thf) + gB[:, 1] * np.sin(thf))]),
         (np.concatenate([np.repeat(ucols, 2, axis=1).ravel(), bcols]),
          np.concatenate([np.tile(ucols, 2).ravel(), bcols]))),
        shape=(sys_.ndof, sys_.ndof))
    H = (H + curv).tocsc()
    H.sort_indices()
    return H


def _lu_calls(monkeypatch):
    """Record every splu call of the solver as (permc_spec, result)."""
    calls = []
    lu = embedding.splu

    def recorded(A, **kwargs):
        res = lu(A, **kwargs)
        calls.append((kwargs.get("permc_spec"), res))
        return res

    monkeypatch.setattr(embedding, "splu", recorded)
    return calls


class TestAssembly:
    # the fixed-pattern Hessian against the three-product assembly, at the
    # disk start and where the solve ended (its best state where the small
    # IRREGULAR covers do not converge)
    @pytest.mark.parametrize("which", ["tutte", "solved"])
    @pytest.mark.parametrize("region, n_nodes, seed", [(SQUARE, 300, 1), (IRREGULAR, 300, 2)],
                             ids=["square", "irregular"])
    def test_matches_product_assembly(self, region, n_nodes, seed, which):
        dbl = _cover(n_nodes, seed, region)
        sys_ = _System(dbl)
        if which == "tutte":
            u_int, th = _disk_start(sys_)
        else:
            try:
                P = geoq.harmonic_sphere_map(dbl).positions
            except NoConvergence as err:
                P = err.best.positions
            u_int, th = sys_.coords_from_positions(P)
        g_P = sys_.grad(u_int, th)[3]
        H, ref = sys_.hessian(u_int, th, g_P), _reference_hessian(sys_, u_int, th, g_P)
        assert H.format == "csc" and H.shape == ref.shape
        if which == "tutte":
            assert np.array_equal(H.indptr, ref.indptr)
            assert np.array_equal(H.indices, ref.indices)
        # sparse sums drop the entries that cancel to exactly 0, so at a
        # solved state the reference can lack entries of the pattern; there
        # the fixed pattern may hold only round-off
        stored, ref_stored = (sparse.csc_matrix((np.ones(M.nnz), M.indices, M.indptr),
                                                shape=M.shape).toarray() > 0 for M in (H, ref))
        assert not (ref_stored & ~stored).any()
        scale = np.abs(ref.data).max()
        assert np.abs(H.toarray()[stored & ~ref_stored]).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(H.toarray() - ref.toarray()).max() <= 1e-12 * scale
        # the system builds its pattern once, and every Hessian shares it
        pattern = sys_._pattern
        H2 = sys_.hessian(u_int * 0.9, th, g_P)
        assert sys_._pattern is pattern
        assert np.shares_memory(H2.indices, H.indices)


class TestOrdering:
    def test_one_ordering_per_solve(self, monkeypatch):
        calls = _lu_calls(monkeypatch)
        emb = geoq.harmonic_sphere_map(_cover(400, 1))
        trials = [c for c in calls if c[0] in ("MMD_AT_PLUS_A", "NATURAL")]
        assert [c[0] for c in trials].count("MMD_AT_PLUS_A") == 1
        assert trials[0][0] == "MMD_AT_PLUS_A"
        # one factorization per accepted step, however often a step is halved
        assert len(trials) == emb.stats.newton_accepted
        assert len(calls) == len(trials) + 1   # and the disk start's

    def test_stored_ordering_matches_fresh_one(self, monkeypatch):
        sys_ = _System(_cover(400, 1))
        u_int, th = _disk_start(sys_)
        _, gI, gth, g_P = sys_.grad(u_int, th)
        g = sys_.pack_grad(gI, gth)
        H = sys_.hessian(u_int, th, g_P)
        calls = _lu_calls(monkeypatch)
        sys_.solve(H, g)
        dx = sys_.solve(H, -g)
        assert [c[0] for c in calls] == ["MMD_AT_PLUS_A", "NATURAL"]
        stored = calls[1][1]
        assert np.array_equal(stored.perm_c, np.arange(sys_.ndof))
        fresh = splu(H.copy(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))
        assert stored.L.nnz + stored.U.nnz == fresh.L.nnz + fresh.U.nnz
        ref = fresh.solve(-g)
        assert np.abs(dx - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_residual_and_load_build_no_pattern(self, emb400, tmp_path, monkeypatch):
        def no_pattern(self):
            raise AssertionError("a Hessian pattern was built")

        monkeypatch.setattr(_System, "_build_pattern", no_pattern)
        path = tmp_path / "emb.txt"
        geoq.save_embedding(emb400, path)
        assert geoq.load_embedding(path).residual < 1e-6
        assert embedding_residual(emb400) < 1e-6


class TestTutteStart:
    @pytest.mark.parametrize("region", [SQUARE, IRREGULAR], ids=["square", "irregular"])
    def test_is_barycentric_map_of_planar_mesh(self, region):
        # the reference builds the planar mesh's own cotangent Laplacian, its
        # weights floored at 1e-3 and capped at 1e3, then the harmonic measure
        # of the interior vertex farthest from the boundary vertices, the rim
        # it gives and the barycentric disk map with that rim
        sys_ = _System(_cover(300, 1, region))
        mesh = sys_.dbl.source
        pts, tri, n = mesh.vertices, mesh.triangles, mesh.n_vertices
        cots = []
        for k in range(3):
            a, b, c = pts[tri[:, k]], pts[tri[:, (k + 1) % 3]], pts[tri[:, (k + 2) % 3]]
            u, v = b - a, c - a
            cots.append((u * v).sum(axis=1) / np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
        opposite = [(tri[:, (k + 1) % 3], tri[:, (k + 2) % 3]) for k in range(3)]
        W = sparse.coo_matrix((0.5 * np.concatenate(cots),
                               (np.concatenate([i for i, _ in opposite]),
                                np.concatenate([j for _, j in opposite]))), shape=(n, n))
        W = (W + W.T).tocsr()
        assert W.data.max() < 1e3
        W.data = np.clip(W.data, 1e-3, 1e3)
        L = sparse.diags(np.asarray(W.sum(axis=1)).ravel()) - W
        idx, bl = sys_.interior, sys_.boundary
        L_II, L_IB = L[idx][:, idx].tocsc(), L[idx][:, bl]
        depth = [min(np.linalg.norm(pts[i] - pts[b]) for b in bl) for i in idx]
        G = splu(L_II).solve(np.eye(len(idx))[int(np.argmax(depth))])
        q = -(L_IB.T @ G)
        assert q.min() > 0 and abs(q.sum() - 1.0) < 1e-12
        theta = 2 * np.pi * np.array([q[:b].sum() + q[b] / 2 for b in range(len(bl))])
        rim = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        disk = splu(L_II).solve(-L_IB @ rim)
        u_int, th = _disk_start(sys_)
        assert np.abs(th - theta).max() < 1e-12
        assert np.abs(u_int - disk).max() < 1e-12
        # the rim turns once, in order, and no triangle of the start is flipped
        assert np.all(np.diff(th) > 0) and th[0] > 0 and th[-1] < 2 * np.pi
        det = _triple_products(sys_.positions(u_int, th), sys_.dbl.triangles)
        assert np.all(det > 0) or np.all(det < 0)


class TestHandoff:
    def test_stats_record_the_solve(self, emb400):
        st = emb400.stats
        assert st.newton_accepted > 0 and st.newton_rejected >= 0
        assert st.recenter_rounds > 0 and st.centroid_norm < 5e-7
        assert st.centroid_norm == np.linalg.norm(emb400.area_centroid())
        assert set(st.seconds) == {"setup", "rounds"}
        assert all(v >= 0 for v in st.seconds.values())
        assert f"accepted={st.newton_accepted} " in st.summary() and "\n" not in st.summary()

    def test_irregular_region_converges(self):
        # the rounded L of the irregular preset, 2000 nodes, seed 1
        dbl = _cover(2000, 1, IRREGULAR)
        emb = geoq.harmonic_sphere_map(dbl)
        assert emb.residual < 1e-7
        assert len(emb.flipped_triangles()) == 0
        assert np.all(emb.positions[dbl.boundary, 2] == 0.0)
        assert np.linalg.norm(emb.area_centroid()) < 5e-7

    @pytest.mark.parametrize("n_nodes, seed, region", [(2000, 1, SQUARE), (4000, 1, IRREGULAR),
                                                       (1000, 1, RECT), (300, 5, RECT)],
                             ids=["square-2000-s1", "irregular-4000-s1", "rect-1000-s1",
                                  "rect-300-s5"])
    def test_dilated_solves_converge(self, n_nodes, seed, region):
        # solves whose rounds the dilation moves; the rectangles' Newton runs
        # converge only through halved steps
        emb = geoq.harmonic_sphere_map(_cover(n_nodes, seed, region))
        assert emb.residual <= 1e-7
        assert emb.stats.centroid_norm < embedding.CENTROID_TOL
        assert len(emb.flipped_triangles()) == 0

    def test_stalled_newton_ends_the_solve(self, monkeypatch):
        # a Newton run that reports a stall after one step in round 1 ends
        # the solve there, carrying the state that step reached
        newton = embedding._newton

        def stalls(sys_, u_int, th, iters, stats):
            u_int, th, ginf, _ = newton(sys_, u_int, th, 1, stats)
            return u_int, th, ginf, False

        monkeypatch.setattr(embedding, "_newton", stalls)
        with pytest.raises(NoConvergence, match="stalled") as err:
            geoq.harmonic_sphere_map(_cover(300, 1))
        best = err.value.best
        assert best.stats.recenter_rounds == 1 and best.stats.newton_accepted == 1
        assert np.isfinite(best.positions).all()
        assert 1e-7 < err.value.residual < np.inf


def _scanned_disk_start(sys_):
    """(z0, u_int, th) of the disk start with z0 found by a scan over the
    boundary vertices, as the reference."""
    idx, bl = sys_.interior, sys_.boundary
    pts = sys_.dbl.planar
    inner, gap = pts[idx], np.full(sys_.nI, np.inf)
    for b in pts[bl]:
        gap = np.minimum(gap, ((inner - b) ** 2).sum(axis=1))
    z0 = int(np.argmax(gap))
    e_z0 = np.zeros(sys_.nI)
    e_z0[z0] = 1.0
    L = sys_.L[idx]
    L_IB = L[:, bl]
    lu = splu(L[:, idx].tocsc())
    q = -(L_IB.T @ lu.solve(e_z0))
    th = 2 * np.pi * (np.cumsum(q) - 0.5 * q)
    return z0, lu.solve(-L_IB @ np.stack([np.cos(th), np.sin(th)], axis=1)), th


class TestDiskStart:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("region", [SQUARE, RECT, IRREGULAR],
                             ids=["square", "rect", "irregular"])
    def test_centre_vertex_is_farthest_from_boundary(self, region, seed):
        sys_ = _System(_cover(1000, seed, region))
        pts = sys_.dbl.planar
        inner, rim = pts[sys_.interior], pts[sys_.boundary]
        brute = int(np.argmax(((inner[:, None] - rim[None]) ** 2).sum(axis=2).min(axis=1)))
        z0, u_ref, th_ref = _scanned_disk_start(sys_)
        assert _centre_vertex(sys_) == brute == z0
        u_int, th = _disk_start(sys_)
        assert np.array_equal(u_int, u_ref) and np.array_equal(th, th_ref)


class TestFoldRefusal:
    def test_stalled_run_names_its_flips(self):
        # the 2 x 1 rectangle, 400 nodes, seed 2: Newton stalls on a folded map
        with pytest.raises(NoConvergence, match="stalled") as err:
            geoq.harmonic_sphere_map(_cover(400, 2, RECT))
        flipped = err.value.best.flipped_triangles()
        assert len(flipped) > 0
        named = f"the map folds: {len(flipped)} flipped triangle(s), among them {flipped[:8].tolist()}"
        assert named in str(err.value)

    def test_folding_map_is_refused(self):
        # the discrete harmonic map of this mesh folds, and the solve refuses
        # it, naming its flipped triangles
        with pytest.raises(NoConvergence, match="folds") as err:
            geoq.harmonic_sphere_map(_cover(400, 1, IRREGULAR))
        flipped = err.value.best.flipped_triangles()
        named = f"{len(flipped)} flipped triangle(s), among them {flipped[:8].tolist()}"
        assert named in str(err.value)

    def test_unguarded_solve_folds(self):
        # Newton does not test its steps for flips, so on the same mesh it
        # converges, residual and centroid under tolerance, to a folded map
        with pytest.raises(NoConvergence, match="folds") as err:
            geoq.harmonic_sphere_map(_cover(400, 1, IRREGULAR))
        best = err.value.best
        assert err.value.residual <= embedding.DEFAULT_TOL
        assert best.stats.centroid_norm < embedding.CENTROID_TOL
        assert len(best.flipped_triangles()) > 0

    @pytest.mark.parametrize("n_nodes", (200, 300))
    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    def test_small_squares_converge_unfolded(self, n_nodes, seed):
        emb = geoq.harmonic_sphere_map(_cover(n_nodes, seed))
        assert emb.residual <= embedding.DEFAULT_TOL
        assert len(emb.flipped_triangles()) == 0


def _with_position_line(emb, line):
    """emb's text with its last position line replaced by line."""
    text = embedding_to_text(emb)
    return text[:text.rstrip("\n").rindex("\n") + 1] + line + "\n"


class TestEmbeddingIO:
    @pytest.mark.parametrize("line", ["0.6 0.8", "0.6 0.8 0.0 0.0", "0.6 zero 0.8",
                                      "nan 0.6 0.8", "inf 0.0 0.0", "0.5 0.5 0.5",
                                      "0.6 0.8 3e-3"],
                             ids=["two-fields", "four-fields", "non-numeric", "nan",
                                  "inf", "off-unit", "just-off-unit"])
    def test_corrupt_position_line(self, emb400, line):
        with pytest.raises(DegenerateMesh):
            embedding_from_text(_with_position_line(emb400, line))

    @pytest.mark.parametrize("edit", [lambda rows: rows[:-1], lambda rows: rows[:-2],
                                      lambda rows: rows + ["0 0 1"]],
                             ids=["missing-line", "two-missing-lines", "extra-line"])
    def test_wrong_position_line_count(self, emb400, edit):
        rows = edit(embedding_to_text(emb400).splitlines())
        with pytest.raises(DegenerateMesh, match="position lines"):
            embedding_from_text("\n".join(rows) + "\n")

    def test_corrupt_mesh_block_is_degenerate_input(self, emb400):
        rows = embedding_to_text(emb400).splitlines()
        rows[1] = "0.5 zero"
        with pytest.raises(DegenerateInput, match="malformed mesh text"):
            embedding_from_text("\n".join(rows) + "\n")

    def test_fixture_round_trips_bytes(self):
        text = FIXTURE.read_text()
        assert embedding_to_text(embedding_from_text(text)) == text

    def test_text_matches_row_format(self, emb400):
        # the reference writes one f-string per position row; the odd rows
        # hold signed zeros, small and negative values
        P = emb400.positions.copy()
        P[:4] = [[-0.0, 0.6, -0.8], [1e-5, -1.0, 0.0], [-0.6, 0.0, -0.8],
                 [2.0 / 3.0, -1e-300, -5e-324]]
        emb = dataclasses.replace(emb400, positions=P)
        head = mesh_to_text(emb.mesh.source)
        rows = "".join(f"{x:.12g} {y:.12g} {z:.12g}\n" for x, y, z in P[:emb.mesh.n_original])
        assert embedding_to_text(emb) == head + rows

    def test_corrupt_header(self, emb400):
        text = embedding_to_text(emb400)
        with pytest.raises(DegenerateMesh):
            embedding_from_text("x" + text)
        with pytest.raises(DegenerateMesh):
            embedding_from_text("")

    def test_position_near_unit_loads(self, emb400):
        x, y, z = emb400.positions[emb400.mesh.n_original - 1] * (1 + 5e-7)
        emb = embedding_from_text(_with_position_line(emb400, f"{x:.17g} {y:.17g} {z:.17g}"))
        assert np.isfinite(emb.residual)

    def test_round_trip(self, emb400, tmp_path):
        text = embedding_to_text(emb400)
        again = embedding_from_text(text)
        assert np.allclose(again.positions, emb400.positions, atol=1e-9)
        assert again.residual <= 1e-6  # recomputed from the serialized decimals
        path = tmp_path / "emb.txt"
        geoq.save_embedding(emb400, path)
        loaded = geoq.load_embedding(path)
        assert np.allclose(loaded.positions, emb400.positions, atol=1e-9)
        assert again.stats is None and loaded.stats is None
