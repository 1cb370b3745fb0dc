import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoq
import geoq.loadsim
from geoq.embedding import locate_many
from geoq.errors import ConfigError, DegenerateInput, OutOfRange
from geoq.loadsim import _first_hit_keep
from geoq.quorums import ROLES, is_mixed, is_read_shared, mixing_angles, quorum_curve
from geoq.sphere import UNIT_TOL, SphericalCircle, SphericalSpiral, _spiral_roots

from conftest import random_unit

# (kind, role) of every pure strategy: a great or latitude circle fixed by the
# node and the hash point
PURE_ACCESSES = [(name, role) for name in ("QG", "QL", "QLd") for role in ROLES
                 if not is_mixed(geoq.QuorumSystemKind(name), role)]

def _workload(emb, n_contrib=20, n_query=6, r=4.0, seed=1, **kw):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    contributors = tuple(int(i) for i in rng.permutation(emb.n_nodes)[:n_contrib])
    rng2 = np.random.default_rng(np.random.SeedSequence([seed, 0xB1]))
    queriers = tuple(int(i) for i in rng2.permutation(emb.n_nodes)[:n_query])
    data = geoq.DataType("d0", geoq.hash_location("d0", seed),
                         contributors=contributors, queriers=queriers)
    return geoq.Workload(data_types=(data,), write_rate_r=r, **kw)


def _segment_oracle(curve, emb, step):
    """Brute force: the triangles that strictly contain a sample of the curve,
    and both triangles at every edge a chord between consecutive samples
    strictly crosses on the near side."""
    pts = geoq.sample(curve, step).points
    tri, pos, orient = emb.mesh.triangles, emb.positions, emb.orientation()
    a, b, c = pos[tri[:, 0]], pos[tri[:, 1]], pos[tri[:, 2]]
    sides = [orient * (np.cross(u, w) @ pts.T) for u, w in ((b, c), (c, a), (a, b))]
    inside = (sides[0] > 0) & (sides[1] > 0) & (sides[2] > 0) & ((a + b + c) @ pts.T > 0)
    found = set(np.flatnonzero(inside.any(axis=1)).tolist())
    nb = emb.neighbors()
    t, i = np.nonzero(nb > np.arange(len(tri))[:, None])   # each edge once
    u, w = pos[tri[t, (i + 1) % 3]], pos[tri[t, (i + 2) % 3]]
    n_edge = np.cross(u, w)
    p, q = pts[:-1], pts[1:]
    n_chord = np.cross(p, q)
    for lo in range(0, len(p), 256):
        sl = slice(lo, lo + 256)
        chord_straddles = (n_edge @ p[sl].T) * (n_edge @ q[sl].T) < 0
        edge_straddles = (u @ n_chord[sl].T) * (w @ n_chord[sl].T) < 0
        near = (u + w) @ (p[sl] + q[sl]).T > 0
        e = np.flatnonzero((chord_straddles & edge_straddles & near).any(axis=1))
        found |= set(t[e].tolist()) | set(nb[t[e], i[e]].tolist())
    return found


def _vertex_sign_oracle(circle, emb):
    """Brute force, one triangle at a time: the triangles whose off-circle
    vertices lie strictly on both sides of the circle's plane, and the
    vertices on it (|f| <= UNIT_TOL)."""
    f = [float(p @ circle.axis) - np.cos(circle.rho) for p in emb.positions]
    on = {v for v, fv in enumerate(f) if abs(fv) <= UNIT_TOL}
    crossed = set()
    for t, tri in enumerate(emb.mesh.triangles):
        off = [f[v] for v in tri if v not in on]
        if any(x > 0 for x in off) and any(x < 0 for x in off):
            crossed.add(t)
    return crossed, on


def _sets(curves, emb, keep=None):
    """Per curve, (triangles, on-curve vertices) of one level_sets call."""
    owner, tris, (v_owner, verts) = geoq.level_sets(curves, emb, keep)
    return [(set(tris[owner == i].tolist()), set(verts[v_owner == i].tolist()))
            for i in range(len(curves))]


class TestRasterize:
    def test_circles_match_vertex_sign_oracle(self, emb400):
        rng = np.random.default_rng(21)
        nodes = emb400.node_positions()
        curves = []
        for _ in range(6):
            p, q = random_unit(rng, 2)
            curves.append(geoq.great_circle_through(p, q))
            curves.append(geoq.circle_with_radius(random_unit(rng),
                                                  rng.uniform(0.05, 0.5) * np.pi))
            # through mesh vertices, as every write is: the tie rule decides
            i, j = rng.choice(emb400.n_nodes, 2, replace=False)
            curves.append(geoq.great_circle_through(nodes[i], nodes[j]))
            curves.append(geoq.latitude_circle(random_unit(rng), nodes[i]))
        for curve, (tris, on) in zip(curves, _sets(curves, emb400)):
            assert (tris, on) == _vertex_sign_oracle(curve, emb400)
        assert all(on for _, on in _sets(curves[2::4] + curves[3::4], emb400))

    def test_equator_charges_boundary_nodes(self, emb400):
        # with the hash on a boundary node, a QG write from another one is the
        # equator, which runs along the seam of the doubled mesh: no triangle
        # straddles it, and exactly its vertices are charged
        boundary = emb400.mesh.boundary
        nodes = emb400.node_positions()
        data = geoq.DataType("d0", nodes[boundary[0]], contributors=(int(boundary[5]),))
        _, load = geoq.run(geoq.Workload(data_types=(data,), write_rate_r=1.0),
                           geoq.QuorumSystemKind("QG"), emb400, np.random.default_rng(0))
        assert set(np.flatnonzero(load).tolist()) == set(boundary.tolist())
        assert load.max() == 1.0

    def test_spiral_charges_reader_and_far_pole(self, emb400):
        # a boundary node's antipode lies on the seam, on an edge along which
        # lambda turns by pi up to rounding: both triangles of that edge are
        # crossed, so the one that locate_many finds is among them
        rng = np.random.default_rng(23)
        boundary = emb400.mesh.boundary
        for a in (0.05, 0.2, 0.7):
            for node in np.concatenate([boundary, rng.choice(emb400.n_nodes, 6, replace=False)]):
                p = emb400.node_positions()[node]
                spiral = geoq.spiral_for(p, a, rng.uniform(0, 2 * np.pi))
                [(tris, on)] = _sets([spiral], emb400)
                assert node in on
                assert int(locate_many(-p[None], emb400)[0]) in tris

    def test_spirals_near_segment_oracle(self, emb400):
        # h is taken at the vertices, and it is not linear along an edge: where
        # a spiral clips the corner of a triangle, h can pass a multiple of
        # 2 pi and come back between two vertices, and a fine walk (the
        # oracle) sees a triangle the level set misses. Over 30 spirals per
        # pitch from random nodes, 0.9 / 1.6 / 1.4 % of the oracle's triangles
        # for a = 0.05 / 0.2 / 0.7, and no triangle outside the oracle.
        rng = np.random.default_rng(24)
        step = 0.25 * emb400.median_edge_length() / 8
        missed = total = 0
        for a in (0.05, 0.2, 0.7):
            for node in rng.choice(emb400.n_nodes, 4, replace=False):
                p = emb400.node_positions()[node]
                spiral = geoq.spiral_for(p, a, rng.uniform(0, 2 * np.pi))
                tris = set(geoq.rasterize(spiral, emb400).tolist())
                oracle = _segment_oracle(spiral, emb400, step)
                assert tris <= oracle
                missed += len(oracle - tris)
                total += len(oracle)
        assert missed <= 0.03 * total

    def test_level_sets_batch_match_single(self, emb400):
        # one call over curves of every shape gives each its own set
        rng = np.random.default_rng(22)
        curves = [geoq.great_circle_through(*random_unit(rng, 2)),
                  geoq.circle_with_radius(random_unit(rng), 0.3 * np.pi)]
        curves += [geoq.spiral_for(random_unit(rng), a, rng.uniform(0, 2 * np.pi))
                   for a in (0.05, 0.2, 0.7)]
        c = emb400.positions[emb400.mesh.triangles[37]].mean(axis=0)
        curves.append(geoq.circle_with_radius(c / np.linalg.norm(c), 1e-4))
        curves.append(geoq.latitude_circle(random_unit(rng), emb400.node_positions()[9]))
        order = rng.permutation(len(curves))
        batch = _sets([curves[i] for i in order], emb400)
        for k, i in enumerate(order):
            assert batch[k] == _sets([curves[i]], emb400)[0]
            assert batch[k][0] == set(geoq.rasterize(curves[i], emb400).tolist())
        assert batch[list(order).index(5)] == ({37}, set())

    def test_first_hit_is_subset_of_full_read(self, emb400):
        rng = np.random.default_rng(26)
        nodes = emb400.node_positions()
        for kind in (geoq.QuorumSystemKind("QG"),
                     geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
                     geoq.QuorumSystemKind.geoquorum(0.6 * np.pi, 0.6),
                     geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)):
            data = geoq.DataType("d0", random_unit(rng))
            writes = [geoq.write_quorum(kind, nodes[i], data, rng)
                      for i in rng.choice(emb400.n_nodes, 3, replace=False)]
            for i in rng.choice(emb400.n_nodes, 4, replace=False):
                read = geoq.read_quorum(kind, nodes[i], data, rng)
                keep = _first_hit_keep(read, writes)
                [(tris, on)] = _sets([read], emb400, [keep])
                [(full_tris, full_on)] = _sets([read], emb400)
                assert tris <= full_tris and on <= full_on
                assert tris or on
                if keep is not None and kind.name == "GeoQuorum" and not kind.dual:
                    assert i in on   # the reader, where the spiral starts
                    assert len(tris) < len(full_tris)

    def test_tiny_circle_single_triangle(self, emb400):
        t = 37
        c = emb400.positions[emb400.mesh.triangles[t]].mean(axis=0)
        c /= np.linalg.norm(c)
        tiny = geoq.circle_with_radius(c, 1e-4)
        tris = geoq.rasterize(tiny, emb400)
        assert list(tris) == [t]

    def test_covers_curve(self, emb400):
        curve = geoq.great_circle_through([1, 0, 0], [0, 0.6, 0.8])
        tris = set(geoq.rasterize(curve, emb400))
        pts = geoq.sample(curve, 0.25 * emb400.median_edge_length()).points
        for t in locate_many(pts, emb400):
            assert int(t) in tris


class TestWorkload:
    @pytest.mark.parametrize("rate", (float("nan"), float("inf"), -float("inf"), -1.0, 0.0))
    def test_write_rate_must_be_finite_positive(self, rate):
        with pytest.raises(OutOfRange):
            geoq.Workload(data_types=(), write_rate_r=rate)

    @pytest.mark.parametrize("counts", [dict(mix_samples=2.5), dict(events=1.5),
                                        dict(events=2.0), dict(mix_samples=0)])
    def test_counts_must_be_positive_integers(self, counts):
        # mix_samples = 2.5 would charge 3 unequally spaced mixing curves
        with pytest.raises(OutOfRange, match="integers >= 1"):
            geoq.Workload(data_types=(), write_rate_r=1.0, **counts)

    def test_numpy_integer_counts_accepted(self):
        wl = geoq.Workload(data_types=(), write_rate_r=1.0, events=np.int64(3),
                           mix_samples=np.int32(8))
        assert (wl.events, wl.mix_samples) == (3, 8)


LINEARITY_KINDS = (geoq.QuorumSystemKind("QG"), geoq.QuorumSystemKind("QL"),
                   geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(kind=st.sampled_from(LINEARITY_KINDS), seed=st.integers(0, 2**16),
       r1=st.floats(0.5, 8.0), dr=st.floats(0.5, 8.0))
def test_load_linear_in_write_rate(emb400, kind, seed, r1, dr):
    # one rng seed draws the same curves at both rates, so the load is affine
    # in the write rate: its slope counts the writes charged at each node
    r2 = r1 + dr
    loads = [geoq.run(_workload(emb400, n_contrib=8, n_query=3, r=r, seed=seed % 7 + 1),
                      kind, emb400, np.random.default_rng(seed))[1] for r in (r1, r2)]
    w = (loads[1] - loads[0]) / (r2 - r1)
    reads = loads[0] - r1 * w
    assert np.allclose(w, np.round(w), atol=1e-6)
    assert np.allclose(reads, np.round(reads), atol=1e-6)
    data = _workload(emb400, n_contrib=8, n_query=3, seed=seed % 7 + 1).data_types[0]
    contributors, queriers = list(data.contributors), list(data.queriers)
    assert w.min() > -1e-6 and w.max() < len(contributors) + 1e-6
    assert (w[contributors] > 1 - 1e-6).all()
    assert reads.min() > -1e-6 and reads.max() < len(queriers) + 1e-6
    if kind.name != "QG":   # QL and GeoQuorum reads pass through the reader
        assert (reads[queriers] > 1 - 1e-6).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(LINEARITY_KINDS), mode=st.sampled_from(["montecarlo", "expected"]),
       termination=st.sampled_from(["full", "first_hit"]), seed=st.integers(0, 2**16),
       r1=st.floats(0.5, 8.0), d1=st.floats(0.5, 8.0), d2=st.floats(0.5, 8.0))
def test_loads_collinear_in_write_rate(emb400, kind, mode, termination, seed, r1, d1, d2):
    # the curves do not depend on the rate, so three rates give collinear
    # loads at every node: (L3 - L1)(r2 - r1) = (L2 - L1)(r3 - r1)
    rates = (r1, r1 + d1, r1 + d1 + d2)
    l1, l2, l3 = (geoq.run(_workload(emb400, n_contrib=8, n_query=3, r=r,
                                     seed=seed % 7 + 1, mode=mode),
                           kind, emb400, np.random.default_rng(seed),
                           read_termination=termination)[1] for r in rates)
    lhs = (l3 - l1) * (rates[1] - rates[0])
    rhs = (l2 - l1) * (rates[2] - rates[0])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * np.abs(lhs).max())


def _charged_nodes(curve, emb):
    """The physical nodes that the curve's level set charges."""
    _, tris, (_, on) = geoq.level_sets([curve], emb)
    verts = np.concatenate([emb.mesh.triangles[tris].ravel(), on])
    return set(emb.mesh.original_vertex(verts).tolist())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=st.floats(-1.0, 1.0), lon=st.floats(0.0, 2 * np.pi),
       rho=st.floats(1e-3, np.pi / 2))
def test_mirror_circle_charges_the_same_nodes(emb400, z, lon, rho):
    # the embedding is its own z-mirror with the copies swapped, so a circle
    # and its mirror image charge the same physical nodes
    s = np.sqrt(1.0 - z * z)
    axis = np.array([s * np.cos(lon), s * np.sin(lon), z])
    circle = geoq.circle_with_radius(axis, rho)
    mirror = geoq.circle_with_radius(axis * np.array([1.0, 1.0, -1.0]), rho)
    assert _charged_nodes(circle, emb400) == _charged_nodes(mirror, emb400)


class TestCharge:
    def test_adjacent_triangles_four_vertices(self, emb400):
        nb = emb400.neighbors()
        t = 10
        t2 = int(nb[t][0])
        load = np.zeros(emb400.n_nodes)
        geoq.charge(load, [t, t2], emb400, 1.0)
        assert load.sum() == pytest.approx(4.0)
        assert set(np.unique(load)) == {0.0, 1.0}

    def test_empty_set_identity(self, emb400):
        load = np.zeros(emb400.n_nodes)
        geoq.charge(load, [], emb400, 1.0)
        assert load.sum() == 0.0

    def test_linearity(self, emb400):
        load = np.zeros(emb400.n_nodes)
        geoq.charge(load, [5], emb400, 0.5)
        geoq.charge(load, [5], emb400, 0.5)
        assert load.max() == pytest.approx(1.0)

    def test_negative_weight_rejected(self, emb400):
        with pytest.raises(OutOfRange):
            geoq.charge(np.zeros(emb400.n_nodes), [1], emb400, -1.0)

    def test_non_finite_weight_rejected(self, emb400):
        # NaN fails every comparison with 0, so a sign test alone accepts it
        load = np.zeros(emb400.n_nodes)
        for weight, owner in ((np.nan, None), (np.inf, None), (-np.inf, None),
                              ([1.0, np.nan], [0, 1])):
            with pytest.raises(OutOfRange, match="finite and nonnegative"):
                geoq.charge(load, [5, 6], emb400, weight, owner)
        assert not load.any()

    def test_ids_out_of_range_rejected(self, emb400):
        # a negative id would wrap to the last triangle, and a fractional one
        # would be truncated; a weight array shorter than the owners is a
        # missing access weight
        load = np.zeros(emb400.n_nodes)
        n_tri, n_vert = emb400.mesh.n_triangles, emb400.mesh.n_vertices
        for triangles, weight, owner, on in (([-1], 1.0, None, None),
                                             ([5.7], 1.0, None, None),
                                             ([n_tri], 1.0, None, None),
                                             ([5, 6], [1.0], [0, 1], None),
                                             ([5, 6], [1.0, 1.0], [0, -1], None),
                                             ([5], 1.0, None, ([0], [n_vert])),
                                             ([5], 1.0, None, ([0], [-1])),
                                             ([5], 1.0, None, ([1], [0]))):
            with pytest.raises(OutOfRange, match="ids"):
                geoq.charge(load, triangles, emb400, weight, owner, on)
        for owner, on in (([0], None), ([0, 0], ([0, 0], [1]))):
            with pytest.raises(OutOfRange, match="one access id"):
                geoq.charge(load, [5, 6], emb400, 1.0, owner, on)
        assert not load.any()
        geoq.charge(load, [n_tri - 1], emb400, 1.0, None, ([0], [n_vert - 1]))
        assert 3 <= load.sum() <= 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(0, 6), width=st.integers(0, 27), data=st.data())
def test_set_pairs_are_the_unpacked_nonzero(rows, width, data):
    # widths that are not a multiple of 8 leave zero pad bits; a row may be
    # all zero, or all set (bytes of 0xFF)
    fill = data.draw(st.lists(st.sampled_from(["zero", "set", "drawn"]),
                              min_size=rows, max_size=rows))
    bits = np.array([[f == "set" or (f == "drawn" and data.draw(st.booleans()))
                      for _ in range(width)] for f in fill], dtype=bool).reshape(rows, width)
    packed = geoq.loadsim._pack(bits)
    ref = np.nonzero(np.unpackbits(packed, axis=1))[::-1]
    got = geoq.loadsim._set_pairs(packed)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype


class TestAccessNodes:
    def test_vertex_node_is_the_physical_vertex(self, emb400):
        mesh = emb400.mesh
        v = np.arange(mesh.n_vertices)
        assert np.array_equal(mesh.vertex_node,
                              np.where(v < mesh.n_original, v, mesh.copy_map[v]))
        assert mesh.vertex_node is mesh.vertex_node
        assert np.array_equal(mesh.original_vertex(v), mesh.vertex_node)

    def test_matches_brute_force_sets(self, emb400):
        # access 0 has triangles and on-curve vertices, 1 has no pair, 2 has
        # only on-curve vertices, 3 and 4 only triangles; mirror copies and
        # their originals, and repeated triangles, give one pair per node
        mesh, rng = emb400.mesh, np.random.default_rng(12)
        n = mesh.n_original
        tri_owner = rng.choice([0, 3, 4], 60)
        tris = rng.choice(mesh.n_triangles, 60)
        tris[-5:] = tris[:5]
        mirrors = rng.choice(np.arange(n, mesh.n_vertices), 8)
        on_verts = np.concatenate([mirrors, mesh.copy_map[mirrors], rng.choice(n, 8)])
        on_owner = rng.choice([0, 2], len(on_verts))
        order = rng.permutation(len(on_verts))
        on = (on_owner[order], on_verts[order])

        def node(v):
            return int(v) if v < n else int(mesh.copy_map[v])

        expected = {(int(a), node(v)) for a, t in zip(tri_owner, tris)
                    for v in mesh.triangles[t]}
        expected |= {(int(a), node(v)) for a, v in zip(*on)}
        access, nodes = geoq.loadsim._access_nodes(tri_owner, tris, emb400, on)
        assert list(zip(access.tolist(), nodes.tolist())) == sorted(expected)
        assert {0, 2, 3, 4} == set(access.tolist())
        assert 1 not in access
        assert nodes.max() < n


class TestRun:
    def test_metrics_match_load(self, emb400):
        wl = _workload(emb400)
        m, load = geoq.run(wl, geoq.QuorumSystemKind("QG"), emb400,
                           np.random.default_rng(1))
        assert m.system_load == pytest.approx(load.max())
        assert m.total_load == pytest.approx(load.sum())

    def test_rate_linearity_and_determinism(self, emb400):
        kind = geoq.QuorumSystemKind("QG")
        totals = {}
        for r in (4.0, 8.0, 12.0):
            wl = _workload(emb400, r=r)
            m, _ = geoq.run(wl, kind, emb400, np.random.default_rng(5))
            totals[r] = m.total_load
        assert (totals[12.0] - totals[8.0]) == pytest.approx(totals[8.0] - totals[4.0])
        wl = _workload(emb400, r=4.0)
        m1, _ = geoq.run(wl, kind, emb400, np.random.default_rng(5))
        m2, _ = geoq.run(wl, kind, emb400, np.random.default_rng(5))
        assert m1 == m2

    def test_monotone_in_contributors(self, emb400):
        kind = geoq.QuorumSystemKind("QG")
        base = _workload(emb400, n_contrib=10, mode="expected")
        more_ids = base.data_types[0].contributors + (399,)
        data2 = geoq.DataType("d0", base.data_types[0].hash_point,
                              contributors=more_ids,
                              queriers=base.data_types[0].queriers)
        wl2 = geoq.Workload(data_types=(data2,), write_rate_r=4.0, mode="expected")
        m1, _ = geoq.run(base, kind, emb400, np.random.default_rng(2))
        m2, _ = geoq.run(wl2, kind, emb400, np.random.default_rng(2))
        assert m2.system_load >= m1.system_load
        assert m2.total_load > m1.total_load

    def test_first_hit_not_more_than_full(self, emb400):
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        for seed in (3, 4, 5):
            wl = _workload(emb400, seed=seed)
            full, _ = geoq.run(wl, kind, emb400, np.random.default_rng(seed),
                               read_termination="full")
            fh, _ = geoq.run(wl, kind, emb400, np.random.default_rng(seed),
                             read_termination="first_hit")
            assert fh.total_load <= full.total_load

    def test_no_spiral_is_sampled(self, emb400, monkeypatch):
        # crossings are found on the circle of each write/read pair, so
        # neither a count nor a first-hit cut samples a spiral
        def refuse(*args):
            raise AssertionError("a spiral was sampled")

        monkeypatch.setattr(geoq.sphere, "_sample_spiral", refuse)
        spiral = geoq.spiral_for([0.0, 0.0, -1.0], 0.2, 0.5)
        n, _ = geoq.count_intersections(geoq.circle_with_radius([1.0, 0.0, 0.0], 0.3), spiral)
        assert n >= 1
        for dual in (False, True):
            kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=dual)
            m, _ = geoq.run(_workload(emb400), kind, emb400, np.random.default_rng(7),
                            read_termination="first_hit")
            assert m.total_load > 0

    def test_single_read_accounting(self, emb400):
        # zero contributors, one querier of weight 1: total equals the read
        # curve's charged-vertex count
        data = geoq.DataType("d0", geoq.hash_location("d0", 1),
                             contributors=(), queriers=(5,))
        wl = geoq.Workload(data_types=(data,), write_rate_r=1.0)
        m, load = geoq.run(wl, geoq.QuorumSystemKind("QL"), emb400,
                           np.random.default_rng(4))
        reader = emb400.node_positions()[5]
        curve = geoq.read_quorum(geoq.QuorumSystemKind("QL"), reader,
                                 data, np.random.default_rng(4))
        tris = geoq.rasterize(curve, emb400)
        verts = np.unique(emb400.mesh.triangles[tris].ravel())
        nodes = np.unique(emb400.mesh.original_vertex(verts))
        assert m.total_load == pytest.approx(len(nodes))
        assert m.system_load == pytest.approx(1.0)

    def test_expected_close_to_montecarlo(self, emb400):
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        wl_exp = _workload(emb400, n_contrib=4, n_query=2, mode="expected",
                           mix_samples=64)
        m_exp, _ = geoq.run(wl_exp, kind, emb400, np.random.default_rng(6))
        wl_mc = _workload(emb400, n_contrib=4, n_query=2, mode="montecarlo",
                          events=600)
        m_mc, _ = geoq.run(wl_mc, kind, emb400, np.random.default_rng(6))
        assert m_mc.total_load == pytest.approx(m_exp.total_load, rel=0.05)

    def test_bad_options(self, emb400):
        wl = _workload(emb400)
        with pytest.raises(ConfigError):
            geoq.run(wl, geoq.QuorumSystemKind("QG"), emb400,
                     np.random.default_rng(0), read_termination="sometimes")
        data = geoq.DataType("d0", geoq.hash_location("d0", 1),
                             contributors=(10_000,), queriers=())
        with pytest.raises(ConfigError):
            geoq.run(geoq.Workload(data_types=(data,), write_rate_r=1.0),
                     geoq.QuorumSystemKind("QG"), emb400, np.random.default_rng(0))

    @pytest.mark.parametrize("sign", (1.0, -1.0), ids=("hash", "antipode"))
    @pytest.mark.parametrize("name, role", PURE_ACCESSES)
    def test_accessor_on_hash_axis_raises(self, emb400, name, role, sign):
        # node 1's position p has arccos(p . p) ~ 2e-8 > UNIT_TOL: only the
        # size of p x p, not the polar angle, shows p on its own axis
        node = 1
        data = geoq.DataType("d0", sign * emb400.node_positions()[node],
                             contributors=(node,) if role == "write" else (),
                             queriers=(node,) if role == "read" else ())
        with pytest.raises(DegenerateInput):
            geoq.run(geoq.Workload(data_types=(data,), write_rate_r=1.0),
                     geoq.QuorumSystemKind(name), emb400, np.random.default_rng(0))


def _reference_accesses(wl, kind, emb, rng, read_termination):
    """run()'s accesses in charging order, each rasterized alone by
    `level_sets`, as (physical nodes, write, factor, count): the access
    weighs factor / count at rate 1, and a write's weight scales with r."""
    node_pos = emb.node_positions()
    expected, mix = wl.mode == "expected", wl.mix_samples
    psis = mixing_angles(mix)
    accesses = []

    def add(curve, write, factor, count, keep=None):
        _, tris, (_, on) = geoq.level_sets([curve], emb, [keep])
        verts = np.concatenate([emb.mesh.triangles[tris].ravel(), on])
        accesses.append((np.unique(emb.mesh.original_vertex(verts)), write, factor, count))

    for data in wl.data_types:
        writes = []
        for i in data.contributors:
            node = node_pos[i]
            if expected and is_mixed(kind, "write"):
                curves = [quorum_curve(kind, "write", node, data.hash_point, psi)
                          for psi in psis]
            else:
                curves = [geoq.write_quorum(kind, node, data, rng)
                          for _ in range(1 if expected else wl.events)]
            for curve in curves:
                writes.append(curve)
                add(curve, True, 1.0, len(curves))
        if expected and is_read_shared(kind):
            families = [([quorum_curve(kind, "read", None, data.hash_point, psi)
                          for psi in psis], float(len(data.queriers)))]
        else:
            families = []
            for i in data.queriers:
                node = node_pos[i]
                if expected and is_mixed(kind, "read"):
                    curves = [quorum_curve(kind, "read", node, data.hash_point, psi)
                              for psi in psis]
                else:
                    curves = [geoq.read_quorum(kind, node, data, rng)
                              for _ in range(1 if expected else wl.events)]
                families.append((curves, 1.0))
        for curves, factor in families:
            for curve in curves:
                keep = None
                if read_termination == "first_hit":
                    keep = _first_hit_keep(curve, writes)
                add(curve, False, factor, len(curves), keep)
    return accesses


def _reference_run(wl, kind, emb, rng, read_termination):
    """run()'s loads: each access charged alone at rate 1 to its role's load,
    in access order, and the load r * writes + reads."""
    writes, reads = np.zeros(emb.n_nodes), np.zeros(emb.n_nodes)
    for nodes, write, factor, count in _reference_accesses(wl, kind, emb, rng,
                                                           read_termination):
        (writes if write else reads)[nodes] += factor / count
    return wl.write_rate_r * writes + reads


def _rate_first_sums(accesses, r, n_nodes):
    """One load that adds each access's weight at rate r, r * factor / count
    for a write and factor / count for a read, in access order."""
    load = np.zeros(n_nodes)
    for nodes, write, factor, count in accesses:
        load[nodes] += (r if write else 1.0) * factor / count
    return load


class TestBatchedRun:
    KINDS = (geoq.QuorumSystemKind("QG"), geoq.QuorumSystemKind("QGm"),
             geoq.QuorumSystemKind("QL"), geoq.QuorumSystemKind("QLd"),
             geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
             geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True))

    @pytest.mark.parametrize("block", [None, 3000])
    @pytest.mark.parametrize("mode", ["montecarlo", "expected"])
    def test_loads_equal_one_access_at_a_time(self, emb400, mode, block, monkeypatch):
        # rate 10/3 gives weights whose sums round, so the order is pinned;
        # 3000-entry blocks hold five circles or two spirals of this mesh, so
        # every run is split between charges
        if block is not None:
            monkeypatch.setattr(geoq.loadsim, "_BLOCK", block)
        for kind in self.KINDS:
            for termination in ("full", "first_hit"):
                wl = _workload(emb400, n_contrib=12, n_query=4, r=10 / 3, mode=mode,
                               events=2, mix_samples=5)
                _, load = geoq.run(wl, kind, emb400, np.random.default_rng(31),
                                   read_termination=termination)
                ref = _reference_run(wl, kind, emb400, np.random.default_rng(31),
                                     termination)
                assert np.array_equal(load, ref), (kind, termination)

    @pytest.mark.parametrize("mode", ["montecarlo", "expected"])
    def test_one_geometry_charges_every_rate(self, emb400, mode, monkeypatch):
        # the load is r * writes + reads: one geometry, built at one rate and
        # charged block by block, gives the reference's loads at every rate
        monkeypatch.setattr(geoq.loadsim, "_BLOCK", 3000)
        calls, charge, blocks = [], geoq.loadsim.charge, geoq.loadsim._blocks

        def each_block(*args):
            for block in blocks(*args):
                calls.append(block)
                yield block

        monkeypatch.setattr(geoq.loadsim, "_blocks", each_block)
        monkeypatch.setattr(geoq.loadsim, "charge",
                            lambda *args: calls.append(args) or charge(*args))
        mixed = 0
        for kind in self.KINDS:
            calls.clear()
            geometry = geoq.loadsim.run_geometry(
                _workload(emb400, n_contrib=12, n_query=4, r=4.0, mode=mode, events=2,
                          mix_samples=5),
                kind, emb400, np.random.default_rng(31), read_termination="first_hit")
            # one block charges its writes and its reads at most: more blocks ran
            assert sum(isinstance(c, tuple) for c in calls) > 2, kind
            mixed += self._check_role_split(calls, geometry, emb400)
            for r in (4.0, 0.3, 1 / 3, 10.0):
                wl = _workload(emb400, n_contrib=12, n_query=4, r=r, mode=mode, events=2,
                               mix_samples=5)
                metrics, load = geometry.charge(r)
                ref = _reference_run(wl, kind, emb400, np.random.default_rng(31), "first_hit")
                assert np.array_equal(load, ref), (kind, r)
                assert metrics == geoq.run(wl, kind, emb400, np.random.default_rng(31),
                                           read_termination="first_hit")[0]
        assert mixed, "no block held both roles"

    @staticmethod
    def _check_role_split(calls, geometry, emb):
        """Each charge call after a block gets only its own role's pairs, and
        the block's calls pass each of its level-set pairs exactly once.
        Returns the number of blocks that held both roles."""
        mixed = 0
        for i, block in enumerate(calls):
            if isinstance(block, tuple):
                continue
            curves, keep, write, _ = zip(*block)
            owner, tris, (v_owner, verts) = geoq.level_sets(curves, emb, keep)
            mine = [c for c in calls[i + 1:i + 3] if isinstance(c, tuple)]
            got_t, got_v = [], []
            for load, triangles, _, _, c_owner, (c_v_owner, c_verts) in mine:
                role = load is geometry.writes
                assert role or load is geometry.reads
                assert all(write[a] == role for a in np.concatenate([c_owner, c_v_owner]))
                got_t += zip(c_owner.tolist(), triangles.tolist())
                got_v += zip(c_v_owner.tolist(), c_verts.tolist())
            assert sorted(got_t) == sorted(zip(owner.tolist(), tris.tolist()))
            assert sorted(got_v) == sorted(zip(v_owner.tolist(), verts.tolist()))
            assert len(mine) == len(set(write))
            mixed += len(set(write)) == 2
        return mixed

    @pytest.mark.parametrize("termination", ["full", "first_hit"])
    @pytest.mark.parametrize("mode", ["montecarlo", "expected"])
    def test_integer_rates_add_as_rate_first_sums(self, emb400, mode, termination):
        # with one event and 16 mixing curves every weight is a multiple of
        # 1/16, so r * writes + reads at an integer r is exact: the loads equal
        # those of adding r * factor / count to one load in access order
        for kind in self.KINDS:
            wl = _workload(emb400, n_contrib=12, n_query=6, mode=mode, events=1,
                           mix_samples=16)
            geometry = geoq.loadsim.run_geometry(wl, kind, emb400, np.random.default_rng(31),
                                                 read_termination=termination)
            accesses = _reference_accesses(wl, kind, emb400, np.random.default_rng(31),
                                           termination)
            for r in (4.0, 6.0, 8.0, 10.0):
                ref = _rate_first_sums(accesses, r, emb400.n_nodes)
                assert np.array_equal(geometry.charge(r)[1], ref), (kind, r)
            assert np.array_equal(geometry.charge(10.0)[1] - geometry.charge(4.0)[1],
                                  6.0 * geometry.writes), kind


def _scan(read, lo, hi, step):
    """The read's points at parameters from lo up to hi, at most `step`
    apart, and the point at hi."""
    speed = np.sin(read.rho) if isinstance(read, SphericalCircle) else np.hypot(read.a, 1.0)
    params = np.linspace(lo, hi, max(int(np.ceil((hi - lo) * speed / step)), 1) + 1)
    return read.points(params[:-1]), read.points(params[-1:])[0]


def _crosses(write, pts):
    """Whether the polyline pts crosses the write: the sign of p . n - cos rho
    changes along it for a circle, or, for a spiral, the turn of its phase on
    a branch, lambda unwrapped by its principal increment (a reference
    written apart from the library's)."""
    if isinstance(write, SphericalCircle):
        side = pts @ write.axis >= np.cos(write.rho)
        return bool((side != side[0]).any())
    x, y, z = (pts @ write.frame.T).T
    lam = np.unwrap(np.arctan2(y, x))
    phi = np.arctan2(z, np.hypot(x, y))
    return any(len(np.unique(np.floor((phi / pitch + phase - lam) / (2 * np.pi)))) > 1
               for _, pitch, phase, _, _ in write.branches())


class TestFirstHit:
    """A first-hit read keeps the interval of its parameter up to its first
    crossing with a write: the end of the interval lies on a write, and a
    scan of the read at STEP / 8 finds no crossing before it."""

    STEP = 0.01

    def _pairs(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        data = geoq.DataType("d0", random_unit(rng))
        for _ in range(n):
            yield (geoq.write_quorum(kind, random_unit(rng), data, rng),
                   geoq.read_quorum(kind, random_unit(rng), data, rng))

    def test_geoquorum_cut_straddles_write_circle(self):
        # the cut falls on the write circle itself, and the read does not
        # reach the circle earlier
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        for write, read in self._pairs(kind, 11, 30):
            lo, hi = _first_hit_keep(read, [write])
            assert lo < hi < read.theta_range()[1]
            before, end = _scan(read, lo, hi, self.STEP / 8)
            assert abs(end @ write.axis - np.cos(write.rho)) < 1e-12
            assert not _crosses(write, before)

    def test_ql_cut_lies_on_the_write_circle(self):
        # a latitude read around the hash crosses every great-circle write
        # through the hash; the cut is their exact crossing
        kind = geoq.QuorumSystemKind("QL")
        for write, read in self._pairs(kind, 15, 30):
            lo, hi = _first_hit_keep(read, [write])
            assert lo == 0.0 and 0.0 < hi < 2 * np.pi
            before, end = _scan(read, lo, hi, self.STEP / 8)
            assert abs(end @ write.axis - np.cos(write.rho)) < 1e-12
            assert not _crosses(write, before)

    def test_qg_read_stops_at_the_hash(self):
        # every QG write passes the hash, where each QG read starts
        kind = geoq.QuorumSystemKind("QG")
        for write, read in self._pairs(kind, 12, 30):
            assert _first_hit_keep(read, [write]) == (0.0, 0.0)

    def test_dual_read_cut_at_write_spiral(self):
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)
        pairs = list(self._pairs(kind, 13, 12))
        writes = [w for w, _ in pairs[:4]]
        for _, read in pairs:
            assert isinstance(read, geoq.SphericalCircle)
            lo, hi = _first_hit_keep(read, writes)
            assert lo == 0.0 and 0.0 < hi < 2 * np.pi
            before, end = _scan(read, lo, hi, self.STEP / 8)
            # the end lies on a write spiral, sampled finely here
            gap = min(np.linalg.norm(geoq.sample(w, self.STEP / 64).points - end, axis=1).min()
                      for w in writes)
            assert gap < self.STEP / 64
            assert not any(_crosses(w, before) for w in writes)

    def test_dual_read_at_a_write_spiral_pole_is_cut_at_its_start(self):
        # a dual read circle starts at its reader; a reader that also writes,
        # or sits at a writer's antipode, starts at a pole of that write spiral
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)
        rng = np.random.default_rng(16)
        hash_point = random_unit(rng)
        for i in range(200):
            node = random_unit(rng)
            psi_w, psi_r = rng.uniform(0, 2 * np.pi, 2)
            write = quorum_curve(kind, "write", node, None, psi_w)
            read = quorum_curve(kind, "read", node if i % 2 else -node, hash_point, psi_r)
            assert _first_hit_keep(read, [write]) == (0.0, 0.0)

    def test_bounded_cut_is_the_least_root(self):
        # each write is searched only below the cut so far; the cut must be
        # the least theta over every write's full root list
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        rng = np.random.default_rng(17)
        data = geoq.DataType("d0", random_unit(rng))
        for _ in range(300):
            writes = [geoq.write_quorum(kind, random_unit(rng), data, rng)
                      for _ in range(int(rng.integers(1, 17)))]
            read = geoq.read_quorum(kind, random_unit(rng), data, rng)
            roots = np.concatenate([_spiral_roots(w, read)[0] for w in writes])
            keep = _first_hit_keep(read, writes)
            if roots.size:
                assert keep == (read.theta_range()[0], float(roots.min()))
            else:
                assert keep is None

    def test_dual_write_family_is_writer_spirals(self):
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)
        node = random_unit(np.random.default_rng(14))
        family = [quorum_curve(kind, "write", node, None, psi) for psi in mixing_angles(8)]
        assert len(family) == 8
        for c in family:
            assert isinstance(c, SphericalSpiral)
            assert c.a == kind.a
            start = c.points(np.array([c.theta_range()[0]]))[0]
            assert np.allclose(start, node, atol=1e-12)


class TestLinearLoadStructure:
    def test_system_load_linear_in_contributors(self, emb400):
        # write-dominated hash concentration: slope of system load vs
        # contributor count approximates the write rate
        kind = geoq.QuorumSystemKind("QG")
        r = 4.0
        counts = (10, 20, 40)
        loads = []
        hash_point = geoq.hash_location("d0", 3)
        rng_sel = np.random.default_rng(7)
        all_ids = rng_sel.permutation(emb400.n_nodes)
        for n in counts:
            data = geoq.DataType("d0", hash_point,
                                 contributors=tuple(int(i) for i in all_ids[:n]),
                                 queriers=tuple(int(i) for i in all_ids[300:310]))
            wl = geoq.Workload(data_types=(data,), write_rate_r=r, mode="expected")
            m, load = geoq.run(wl, kind, emb400, np.random.default_rng(8))
            loads.append(m.system_load)
            argmax_pos = emb400.node_positions()[int(np.argmax(load))]
            d = min(geoq.geodesic_distance(argmax_pos, hash_point),
                    geoq.geodesic_distance(argmax_pos, -hash_point))
            assert d < 0.2  # coarse mesh here; acceptance tightens this
        slope = np.polyfit(counts, loads, 1)[0]
        assert slope == pytest.approx(r, rel=0.15)


class TestDiscreteRobustness:
    def test_at_least_geometric(self, emb400):
        kind = geoq.QuorumSystemKind("QG")
        data = geoq.DataType("d0", geoq.hash_location("d0", 4),
                             contributors=tuple(range(50)),
                             queriers=tuple(range(200, 240)))
        rng = np.random.default_rng(9)
        node_pos = emb400.node_positions()
        for _ in range(8):
            writer = node_pos[int(rng.choice(data.contributors))]
            reader = node_pos[int(rng.choice(data.queriers))]
            wq = geoq.write_quorum(kind, writer, data, rng)
            rq = geoq.read_quorum(kind, reader, data, rng)
            n_geo, _ = geoq.count_intersections(wq, rq)
            wt = geoq.rasterize(wq, emb400)
            rt = geoq.rasterize(rq, emb400)
            wv = np.unique(emb400.mesh.original_vertex(
                np.unique(emb400.mesh.triangles[wt].ravel())))
            rv = np.unique(emb400.mesh.original_vertex(
                np.unique(emb400.mesh.triangles[rt].ravel())))
            shared = len(np.intersect1d(wv, rv))
            assert shared >= n_geo

    def test_qg_discrete_at_least_two(self, emb800):
        kind = geoq.QuorumSystemKind("QG")
        data = geoq.DataType("d0", geoq.hash_location("d0", 5),
                             contributors=tuple(range(40)),
                             queriers=tuple(range(100, 140)))
        r = geoq.discrete_robustness(kind, data, emb800, 12,
                                     np.random.default_rng(10))
        assert r >= 2

    def test_identical_curves_share_everything(self, emb400):
        # degenerate write/read pair (the same curve): the shared charged set
        # is the whole charged set
        kind = geoq.QuorumSystemKind("QG")
        data = geoq.DataType("d0", geoq.hash_location("d0", 6),
                             contributors=(7,), queriers=(7,))
        curve = geoq.write_quorum(kind, emb400.node_positions()[7], data,
                                  np.random.default_rng(0))
        tris_a = geoq.rasterize(curve, emb400)
        tris_b = geoq.rasterize(curve, emb400)
        assert np.array_equal(tris_a, tris_b)
        verts = np.unique(emb400.mesh.original_vertex(
            np.unique(emb400.mesh.triangles[tris_a].ravel())))
        shared = np.intersect1d(verts, verts)
        assert len(shared) == len(verts)


class TestFixtureLoads:
    # the benchmark's committed embedding (square, 2000 nodes), read only
    FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" \
        / "emb_square_2000_seed1.txt"
    KINDS = TestBatchedRun.KINDS + (geoq.QuorumSystemKind.geoquorum(0.6 * np.pi, 0.12),)
    # SHA-256 over the rate-1 writes and reads of every run below
    DIGEST = "1e40bb8c96ee108c6bb4da14e37e59030f099ef59ec8fa650312a14f44880971"

    def test_rate_one_loads_are_pinned(self):
        # one event and a power-of-two quadrature: every share is dyadic, so
        # each load is an exact sum and the digest pins the level sets alone
        emb = geoq.load_embedding(self.FIXTURE)
        digest = hashlib.sha256()
        for kind in self.KINDS:
            for mode, accessors in (("montecarlo", (12, 4)), ("expected", (4, 2))):
                for termination in ("full", "first_hit"):
                    wl = _workload(emb, *accessors, mode=mode, events=1, mix_samples=4)
                    geometry = geoq.loadsim.run_geometry(
                        wl, kind, emb, np.random.default_rng(17), read_termination=termination)
                    for load in (geometry.writes, geometry.reads):
                        digest.update(np.ascontiguousarray(load, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.DIGEST
