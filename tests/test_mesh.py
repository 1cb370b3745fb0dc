import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geoq
from geoq import config
from geoq.cli import build_mesh
from geoq.config import IRREGULAR
from geoq.errors import DegenerateInput
from geoq.mesh import (_boundary_loop, chord_edges, corner_anchors, mesh_from_text,
                       mesh_to_text, ring_points, triangle_neighbors,
                       validate_simple_polygon)

from conftest import SQUARE

L_SHAPE = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)


def winding_number_inside(point, polygon):
    """Independent point-in-polygon oracle (winding number)."""
    total = 0.0
    poly = np.asarray(polygon, float)
    for i in range(len(poly)):
        a = poly[i] - point
        b = poly[(i + 1) % len(poly)] - point
        total += np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b)
    return abs(total) > np.pi


class TestTriangulate:
    def test_unit_square_corners(self):
        mesh = geoq.triangulate(np.array(SQUARE))
        assert mesh.n_triangles == 2
        assert len(mesh.boundary) == 4
        assert mesh.euler_characteristic() == 1

    def test_random_cloud_is_disk(self):
        rng = np.random.default_rng(0)
        mesh = geoq.triangulate(rng.uniform(0, 1, size=(800, 2)))
        assert mesh.euler_characteristic() == 1

    def test_l_shape_clipping(self):
        rng = np.random.default_rng(1)
        pts = geoq.generate_deployment(L_SHAPE, 800, rng)
        mesh = geoq.triangulate(pts, boundary=L_SHAPE)
        assert mesh.euler_characteristic() == 1
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        for c in centroids:
            assert winding_number_inside(c, L_SHAPE)

    def test_collinear_raises(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10)])
        with pytest.raises(DegenerateInput):
            geoq.triangulate(pts)

    def test_self_intersecting_polygon_raises(self):
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float)
        with pytest.raises(DegenerateInput):
            validate_simple_polygon(bowtie)

    def test_point_outside_polygon_raises(self):
        pts = np.vstack([np.array(SQUARE), [[2.0, 2.0]]])
        with pytest.raises(DegenerateInput):
            geoq.triangulate(pts, boundary=SQUARE)

    @pytest.mark.parametrize("polygon, n_nodes, seed", [(IRREGULAR, 2000, 11),
                                                        (config.SQUARE, 300, 4)])
    def test_deployment_chord_is_flipped(self, polygon, n_nodes, seed, monkeypatch):
        # the Delaunay triangulation of these deployments holds one chord,
        # which cuts off a corner; the flip replaces its two triangles, keeps
        # every other, and the solve takes the mesh
        cfg = config.ExperimentConfig(nodes=n_nodes, polygon=polygon)
        mesh = build_mesh(cfg, seed)
        assert not chord_edges(mesh)
        emb = geoq.harmonic_sphere_map(geoq.double_cover(mesh))
        assert len(emb.flipped_triangles()) == 0
        monkeypatch.setattr(geoq.mesh, "_flip_chords", lambda vertices, triangles: triangles)
        delaunay = build_mesh(cfg, seed)
        assert len(chord_edges(delaunay)) == 1
        assert (mesh.triangles != delaunay.triangles).any(axis=1).sum() == 2


class TestDoubleCover:
    def test_square_two_triangles(self):
        # all four vertices on the boundary: only the faces double
        mesh = geoq.triangulate(np.array(SQUARE))
        dbl = geoq.double_cover(mesh)
        assert dbl.n_vertices == 4
        assert dbl.n_triangles == 4
        assert dbl.euler_characteristic() == 2

    def test_counting_formula(self):
        rng = np.random.default_rng(2)
        pts = geoq.generate_deployment(np.array(SQUARE), 300, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        dbl = geoq.double_cover(mesh)
        n_b = len(mesh.boundary)
        assert dbl.n_vertices == 2 * mesh.n_vertices - n_b
        assert dbl.n_triangles == 2 * mesh.n_triangles
        assert dbl.euler_characteristic() == 2

    def test_every_edge_in_two_triangles(self):
        rng = np.random.default_rng(3)
        pts = geoq.generate_deployment(np.array(SQUARE), 300, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        assert not chord_edges(mesh)  # generated meshes avoid boundary chords
        dbl = geoq.double_cover(mesh)
        counts = {}
        for t in dbl.triangles:
            for i in range(3):
                a, b = int(t[(i + 1) % 3]), int(t[(i + 2) % 3])
                counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
        assert set(counts.values()) == {2}

    def test_mirror_triangles_reverse_orientation(self):
        rng = np.random.default_rng(4)
        pts = geoq.generate_deployment(np.array(SQUARE), 120, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        dbl = geoq.double_cover(mesh)
        n_f = mesh.n_triangles
        for t in range(min(20, n_f)):
            orig = dbl.triangles[t]
            mirr = dbl.triangles[n_f + t]
            assert list(dbl.copy_map[mirr]) == [orig[0], orig[2], orig[1]]

    def test_copy_map_involution(self):
        rng = np.random.default_rng(5)
        pts = geoq.generate_deployment(np.array(SQUARE), 120, rng)
        dbl = geoq.double_cover(geoq.triangulate(pts, boundary=SQUARE))
        assert np.array_equal(dbl.copy_map[dbl.copy_map], np.arange(dbl.n_vertices))
        assert np.array_equal(dbl.copy_map[dbl.boundary], dbl.boundary)


class TestDeployment:
    def test_nodes_inside_region(self):
        rng = np.random.default_rng(6)
        pts = geoq.generate_deployment(L_SHAPE, 500, rng)
        assert len(pts) == 500
        d = geoq.mesh.distance_to_polygon(pts, L_SHAPE)
        inside = geoq.point_in_polygon(pts, L_SHAPE) | (d < 1e-9)
        assert inside.all()

    def test_deterministic(self):
        a = geoq.generate_deployment(np.array(SQUARE), 200, np.random.default_rng(7))
        b = geoq.generate_deployment(np.array(SQUARE), 200, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_ring_and_anchors(self):
        ring = ring_points(np.array(SQUARE), 0.25)
        assert len(ring) == 16
        anchors = corner_anchors(np.array(SQUARE), 0.1)
        assert len(anchors) == 4
        assert geoq.point_in_polygon(anchors, np.array(SQUARE)).all()


def _row_format_text(mesh):
    """mesh_to_text written one f-string per row, as the reference."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary)}"]
    lines += [f"{x:.12g} {y:.12g}" for x, y in mesh.vertices]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    lines += [str(int(b)) for b in mesh.boundary]
    return "\n".join(lines) + "\n"


def _edit_rows(text, edit):
    """text with its rows, split into header, vertex, triangle and boundary
    blocks, passed through edit(head, verts, tris, loop) -> rows."""
    rows = text.splitlines()
    nv, nf, _ = (int(x) for x in rows[0].split())
    blocks = rows[1:1 + nv], rows[1 + nv:1 + nv + nf], rows[1 + nv + nf:]
    return "\n".join(edit(rows[0], *blocks)) + "\n"


# index rows that name no integer: numpy's loadtxt reads a float in an integer
# column as its truncation where it only warns (DeprecationWarning)
_NON_INTEGER_INDEX_EDITS = {
    "fractional-index": lambda h, v, t, b: [h, *v, "0 1.5 2", *t[1:], *b],
    "exponent-index": lambda h, v, t, b: [h, *v, "0 1e1 2", *t[1:], *b],
    "fractional-boundary": lambda h, v, t, b: [h, *v, *t, "1.0", *b[1:]],
    "exponent-boundary": lambda h, v, t, b: [h, *v, *t, "1e3", *b[1:]],
    "int64-overflow": lambda h, v, t, b: [h, *v, "99999999999999999999 1 2", *t[1:], *b],
}


def _square_60_text():
    mesh = geoq.triangulate(geoq.generate_deployment(np.array(SQUARE), 60,
                                                     np.random.default_rng(3)),
                            boundary=SQUARE)
    return mesh_to_text(mesh)


class TestMeshIO:
    def test_text_matches_row_format(self):
        mesh = geoq.triangulate(geoq.generate_deployment(np.array(SQUARE), 150,
                                                         np.random.default_rng(8)),
                                boundary=SQUARE)
        assert mesh_to_text(mesh) == _row_format_text(mesh)
        # signed zeros, small, large and negative coordinates, and numbers
        # with more digits than %.12g keeps
        odd = mesh.vertices.copy()
        odd[:8] = [[-0.0, 1e-5], [-0.25, -1.2345678901234567], [1e-300, -3e16],
                   [123456789012.5, 5e-324], [0.1, 0.2 + 1e-13], [-1e-5, 0.0],
                   [2.0 / 3.0, -1e-4], [1e12, -999999999999.5]]
        odd_mesh = dataclasses.replace(mesh, vertices=odd)
        assert mesh_to_text(odd_mesh) == _row_format_text(odd_mesh)

    @pytest.mark.parametrize("edit", [
        lambda h, v, t, b: [h, v[0] + " 0.5", *v[1:], *t, *b],
        lambda h, v, t, b: [h, v[0], "0.5 zero", *v[2:], *t, *b],
        lambda h, v, t, b: [h, *v, "0 1.5 2", *t[1:], *b],
        lambda h, v, t, b: [h, *v, *t, "1.0", *b[1:]],
        lambda h, v, t, b: [h, *v, *t[:-1], *b],
        lambda h, v, t, b: [h, *v, *t, *b[:-1]],
        lambda h, v, t, b: [h, *(r.split()[0] for r in v), *t, *b],
        lambda h, v, t, b: [h, *(r + " 0" for r in v), *t, *b],
        lambda h, v, t, b: [h, *v, *t, *b, b[0]],
        lambda h, v, t, b: [h + " 1", *v, *t, *b],
        lambda h, v, t, b: [h, *v, "99999999999999999999 1 2", *t[1:], *b],
    ], ids=["ragged-row", "non-numeric", "fractional-index", "fractional-boundary",
            "truncated-block", "truncated-text", "one-field-vertices",
            "three-field-vertices", "trailing-rows", "four-field-header", "int64-overflow"])
    def test_malformed_text(self, edit):
        with pytest.raises(DegenerateInput, match="malformed mesh text"):
            mesh_from_text(_edit_rows(_square_60_text(), edit))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("edit", _NON_INTEGER_INDEX_EDITS.values(),
                             ids=_NON_INTEGER_INDEX_EDITS.keys())
    def test_non_integer_index_warnings_ignored(self, edit):
        # refused whatever the warning filters, not only where pytest makes
        # warnings errors
        with pytest.raises(DegenerateInput, match="malformed mesh text"):
            mesh_from_text(_edit_rows(_square_60_text(), edit))

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_truncating_loadtxt_refused(self, monkeypatch):
        # a numpy whose loadtxt truncates "1.5" to 1 in an integer column and
        # only warns: the warning still refuses the row
        text = _edit_rows(_square_60_text(), _NON_INTEGER_INDEX_EDITS["fractional-index"])
        loadtxt = np.loadtxt

        def truncating(rows, dtype=float, **kw):
            if dtype is int and any("." in r for r in rows):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                return loadtxt(rows, dtype=float, **kw).astype(int)
            return loadtxt(rows, dtype=dtype, **kw)

        monkeypatch.setattr(np, "loadtxt", truncating)
        with pytest.raises(DegenerateInput, match="malformed mesh text"):
            mesh_from_text(text)

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(8)
        pts = geoq.generate_deployment(np.array(SQUARE), 150, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        text = mesh_to_text(mesh)
        again = mesh_from_text(text)
        assert mesh_to_text(again) == text
        assert np.array_equal(again.triangles, mesh.triangles)
        assert np.allclose(again.vertices, mesh.vertices)

    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = geoq.generate_deployment(np.array(SQUARE), 100, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        path = tmp_path / "m.txt"
        geoq.save_mesh(mesh, path)
        again = geoq.load_mesh(path)
        assert np.array_equal(again.boundary, mesh.boundary)


# ---------------------------------------------------------------------------
# reference topology: one dict entry per edge, built a triangle side at a time

def _ref_edge_multiplicity(triangles) -> dict:
    edges: dict[tuple[int, int], int] = {}
    for t in np.asarray(triangles):
        for i in range(3):
            a, b = int(t[(i + 1) % 3]), int(t[(i + 2) % 3])
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0) + 1
    return edges


def _ref_boundary_loop(vertices, triangles) -> np.ndarray:
    """Walk the boundary edges from the smaller end of the first one, then
    reverse the loop if it runs clockwise."""
    edges = _ref_edge_multiplicity(triangles)
    bedges = [e for e, c in edges.items() if c == 1]
    nbr: dict[int, list[int]] = {}
    for a, b in bedges:
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)
    assert all(len(v) == 2 for v in nbr.values())
    loop, prev = [bedges[0][0]], None
    while True:
        cur = loop[-1]
        nxt = [x for x in nbr[cur] if x != prev]
        prev = cur
        if nxt[0] == loop[0]:
            break
        loop.append(nxt[0])
    assert len(loop) == len(bedges)
    loop = np.array(loop, dtype=int)
    pts = vertices[loop]
    area2 = float(np.dot(pts[:, 0], np.roll(pts[:, 1], -1))
                  - np.dot(pts[:, 1], np.roll(pts[:, 0], -1)))
    return loop if area2 > 0 else loop[::-1].copy()


def _ref_chord_edges(mesh) -> list[tuple[int, int]]:
    on_b = np.zeros(mesh.n_vertices, bool)
    on_b[mesh.boundary] = True
    return [(a, b) for (a, b), c in _ref_edge_multiplicity(mesh.triangles).items()
            if c == 2 and on_b[a] and on_b[b]]


def _ref_neighbors(triangles) -> np.ndarray:
    edge_to_tris: dict = {}
    for t, tv in enumerate(triangles):
        for i in range(3):
            a, b = int(tv[(i + 1) % 3]), int(tv[(i + 2) % 3])
            edge_to_tris.setdefault((min(a, b), max(a, b)), []).append((t, i))
    nb = -np.ones((len(triangles), 3), dtype=int)
    for pair in edge_to_tris.values():
        if len(pair) == 2:
            (t1, i1), (t2, i2) = pair
            nb[t1, i1] = t2
            nb[t2, i2] = t1
    return nb


def _assert_topology_matches_reference(mesh, rng=None):
    dbl = geoq.double_cover(mesh)
    assert np.array_equal(mesh.boundary, _ref_boundary_loop(mesh.vertices, mesh.triangles))
    assert chord_edges(mesh) == _ref_chord_edges(mesh)
    assert mesh.edge_count() == len(_ref_edge_multiplicity(mesh.triangles))
    assert dbl.edge_count() == 2 * mesh.edge_count() - len(mesh.boundary)
    for tri in (mesh.triangles, dbl.triangles):
        assert np.array_equal(triangle_neighbors(tri), _ref_neighbors(tri))
    if rng is not None:
        # the same CCW triangles with the vertices renumbered and listed in
        # another order, each from another corner: the loop's start depends
        # on which boundary side comes first and which way it runs
        ids = rng.permutation(mesh.n_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[ids] = mesh.vertices
        tri = ids[mesh.triangles][rng.permutation(mesh.n_triangles)]
        tri = np.take_along_axis(tri, (np.arange(3) + rng.integers(0, 3, (len(tri), 1))) % 3, 1)
        assert np.array_equal(_boundary_loop(tri), _ref_boundary_loop(vertices, tri))
        assert np.array_equal(triangle_neighbors(tri), _ref_neighbors(tri))


class TestEdgeTable:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(irregular=st.booleans(), n_nodes=st.integers(30, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, irregular, n_nodes, seed):
        poly = np.array(IRREGULAR if irregular else SQUARE)
        try:
            pts = geoq.generate_deployment(poly, n_nodes, np.random.default_rng(seed))
        except DegenerateInput:  # too few nodes for the outline's fence
            assume(False)
        _assert_topology_matches_reference(geoq.triangulate(pts, boundary=poly),
                                           np.random.default_rng(seed))

    def test_two_triangle_square(self):
        # its diagonal is a chord, shared by all four triangles of the double
        mesh = geoq.triangulate(np.array(SQUARE))
        _assert_topology_matches_reference(mesh)
        assert chord_edges(mesh) == [(1, 3)]
        assert (triangle_neighbors(geoq.double_cover(mesh).triangles) == -1).sum() == 4

    @pytest.mark.parametrize("triangles, message", [
        ([[0, 1, 2], [2, 3, 4]], "not a simple loop"),     # pinched at vertex 2
        ([[0, 1, 2], [3, 4, 5]], "more than one loop"),    # two components
    ], ids=("pinched", "two-components"))
    def test_boundary_errors(self, triangles, message):
        with pytest.raises(DegenerateInput, match=message):
            _boundary_loop(np.array(triangles))

    def test_closed_surface_has_no_boundary(self):
        rng = np.random.default_rng(10)
        pts = geoq.generate_deployment(np.array(SQUARE), 60, rng)
        dbl = geoq.double_cover(geoq.triangulate(pts, boundary=SQUARE))
        with pytest.raises(DegenerateInput, match="no boundary"):
            _boundary_loop(dbl.triangles)
