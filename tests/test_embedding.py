import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import geoq
from geoq import embedding
from geoq.config import IRREGULAR
from geoq.embedding import (PROBE_REJECTS, PROBE_STEPS, _conformal_dilate, _dilatation,
                            _fold_count, _probe, _repair_folds, _System, _tutte_start,
                            embedding_from_text, embedding_to_text, locate_many)
from geoq.errors import DegenerateMesh, NoConvergence

from conftest import SQUARE, random_unit

_Z = np.array([1.0, 1.0, -1.0])


def _cover(n_nodes, seed, region=SQUARE):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    pts = geoq.generate_deployment(np.array(region), n_nodes, rng)
    return geoq.double_cover(geoq.triangulate(pts, boundary=region))


def _refused(sys_, x, stats):
    return None


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

    def test_energy_trace_monotone(self, emb400):
        e = emb400.energy_trace
        assert len(e) > 10
        assert all(e[i + 1] <= e[i] * (1 + 1e-9) for i in range(len(e) - 1))

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


def _packed_state(dbl, which):
    """A system of dbl and a packed vector: the Tutte start, or the solved
    embedding's coordinates with the pins moved to its boundary angles."""
    sys_ = _System(dbl)
    if which == "tutte":
        return sys_, _tutte_start(sys_)
    u_int, th = sys_.coords_from_positions(geoq.harmonic_sphere_map(dbl).positions)
    sys_.pin_val = th[sys_.pin_pos]
    return sys_, np.concatenate([u_int.ravel(), th[sys_.free_b]])


def _packed_grad(sys_, x):
    """(energy, packed gradient, g_P) at the packed vector x."""
    E, gI, gth, g_P = sys_.grad(*sys_.unpack(x))
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
        H = sys_.hessian(*sys_.unpack(x), _packed_grad(sys_, x)[2])
        h = 1e-5
        for v in np.random.default_rng(3).normal(size=(3, len(x))):
            fd = (_packed_grad(sys_, x + h * v)[1] - _packed_grad(sys_, x - h * v)[1]) / (2 * h)
            Hv = H @ v
            assert np.abs(fd - Hv).max() <= 1e-6 * np.abs(Hv).max()


class TestTutteStart:
    @pytest.mark.parametrize("region", [SQUARE, IRREGULAR], ids=["square", "irregular"])
    def test_is_barycentric_map_of_planar_mesh(self, region):
        # the reference builds the planar mesh's own cotangent Laplacian, its
        # weights floored at 1e-3 and capped at 1e3, and solves for the interior
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
        rim = np.stack([np.cos(sys_.arc_param), np.sin(sys_.arc_param)], axis=1)
        disk = splu(L[idx][:, idx].tocsc()).solve(-L[idx][:, bl] @ rim)
        ref = np.concatenate([disk.ravel(), sys_.arc_param[sys_.free_b]])
        assert np.array_equal(_tutte_start(sys_), ref)


class TestRepairFolds:
    @pytest.mark.parametrize("start", [0, 17, 36])
    @pytest.mark.parametrize("run", [2, 3, 4])
    def test_adjacent_inversions_are_removed(self, start, run):
        # reversing `run` consecutive angles makes run - 1 adjacent inversions
        th = np.linspace(0.0, 2 * np.pi, 40, endpoint=False) + 0.3
        folded = th.copy()
        folded[start:start + run] = th[start:start + run][::-1]
        assert _fold_count(folded) == run - 1
        repaired = _repair_folds(folded)
        assert _fold_count(repaired) == 0
        away = np.r_[:start, start + run:len(th)]
        assert np.array_equal(repaired[away], folded[away])
        assert np.all(np.abs(repaired[start:start + run] - folded[start:start + run])
                      <= th[start + run - 1] - th[start])


class TestHandoff:
    @pytest.mark.parametrize("n_nodes, seed", [(300, 2), (350, 4), (400, 1)])
    def test_handoff_changes_nothing(self, n_nodes, seed, monkeypatch):
        # a probe that always refuses runs L-BFGS to its end, as before the
        # handoff; on these meshes the handoff comes at iterations 220, 120 and 15
        dbl = _cover(n_nodes, seed)
        emb = geoq.harmonic_sphere_map(dbl)
        monkeypatch.setattr(embedding, "_probe", _refused)
        ref = geoq.harmonic_sphere_map(dbl)
        assert emb.stats.handoff and not emb.stats.resumed
        assert not ref.stats.handoff and ref.stats.lbfgs_nit > emb.stats.lbfgs_nit
        assert np.abs(emb.positions - ref.positions).max() < 1e-9
        assert emb.residual < 1e-7 and ref.residual < 1e-7
        assert len(emb.flipped_triangles()) == len(ref.flipped_triangles())
        boundary_z = [np.abs(e.positions[dbl.boundary, 2]).max() for e in (emb, ref)]
        assert boundary_z[0] == boundary_z[1]

    def test_failed_probe_is_cheap(self, monkeypatch):
        sys_ = _System(_cover(400, 3))
        x = _tutte_start(sys_)
        x_before = x.copy()
        calls = []
        lu = embedding.splu

        def counted(*args, **kwargs):
            calls.append(1)
            return lu(*args, **kwargs)

        monkeypatch.setattr(embedding, "splu", counted)
        stats = geoq.EmbeddingStats()
        assert _probe(sys_, x, stats) is None
        assert 0 < len(calls) <= PROBE_STEPS + PROBE_REJECTS
        assert stats.newton_accepted + stats.newton_rejected == len(calls)
        assert np.array_equal(x, x_before)

    def test_probe_gives_up_after_bounded_rejections(self, monkeypatch):
        # every factorization fails, so every trial step is rejected
        sys_ = _System(_cover(400, 3))
        x = _tutte_start(sys_)
        calls = []

        def singular(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(embedding, "splu", singular)
        stats = geoq.EmbeddingStats()
        assert _probe(sys_, x, stats) is None
        assert len(calls) == stats.newton_rejected == PROBE_REJECTS + 1

    def test_stalled_handoff_resumes_lbfgs(self, monkeypatch):
        # the first probe hands over the Tutte start, from which Newton fails
        dbl = _cover(350, 1)
        monkeypatch.setattr(embedding, "_probe", _refused)
        ref = geoq.harmonic_sphere_map(dbl)
        monkeypatch.setattr(embedding, "_probe",
                            lambda sys_, x, stats: sys_.unpack(_tutte_start(sys_)))
        emb = geoq.harmonic_sphere_map(dbl)
        st = emb.stats
        assert st.handoff and st.resumed
        assert st.probes == 1 and st.probes_failed == 0
        assert emb.residual < 1e-7
        assert np.abs(emb.positions - ref.positions).max() < 1e-9
        e = emb.energy_trace
        assert len(e) == st.lbfgs_nit
        assert all(e[i + 1] <= e[i] * (1 + 1e-9) for i in range(len(e) - 1))

    def test_stats_record_the_solve(self, emb400):
        st = emb400.stats
        assert st.lbfgs_nit == len(emb400.energy_trace)
        assert st.lbfgs_nfev >= st.lbfgs_nit and st.lbfgs_message
        assert st.handoff and st.probes - st.probes_failed == 1
        assert st.newton_accepted > 0 and st.centroid_norm < 5e-7
        assert set(st.seconds) == {"setup", "lbfgs", "probes", "newton", "recenter"}
        assert all(v >= 0 for v in st.seconds.values())
        assert f"nit={st.lbfgs_nit} " in st.summary() and "\n" not in st.summary()


class TestEmbeddingIO:
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
