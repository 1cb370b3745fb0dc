import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoq
from geoq.embedding import (_conformal_dilate, _dilatation, embedding_from_text,
                            embedding_to_text, locate_many)
from geoq.errors import DegenerateMesh, NoConvergence

from conftest import SQUARE, random_unit

_Z = np.array([1.0, 1.0, -1.0])


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
