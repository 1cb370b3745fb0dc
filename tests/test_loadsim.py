import numpy as np
import pytest

import geoq
import geoq.loadsim
from geoq.embedding import locate_many, walk
from geoq.errors import ConfigError, OutOfRange
from geoq.loadsim import _first_hit_truncate, raster_step
from geoq.quorums import is_mixed, is_read_shared, mixing_angles, quorum_curve
from geoq.sphere import SphericalCircle, SphericalSpiral, circle_crossings

from conftest import random_unit


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


class TestRasterize:
    def test_matches_segment_oracle(self, emb400):
        rng = np.random.default_rng(21)
        curves = []
        for _ in range(6):
            p, q = random_unit(rng, 2)
            curves.append(geoq.great_circle_through(p, q))
            curves.append(geoq.circle_with_radius(random_unit(rng),
                                                  rng.uniform(0.05, 0.5) * np.pi))
        for a in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7):
            curves.append(geoq.spiral_for(random_unit(rng), a, rng.uniform(0, 2 * np.pi)))
        step = raster_step(emb400)
        for curve in curves:
            assert set(geoq.rasterize(curve, emb400).tolist()) == _segment_oracle(
                curve, emb400, step)

    def test_batch_matches_segment_oracle(self, emb400):
        # one batched call over curves of every shape gives each its own set
        rng = np.random.default_rng(22)
        step = raster_step(emb400)
        curves = [geoq.great_circle_through(*random_unit(rng, 2)),
                  geoq.circle_with_radius(random_unit(rng), 0.3 * np.pi)]
        curves += [geoq.spiral_for(random_unit(rng), a, rng.uniform(0, 2 * np.pi))
                   for a in (0.05, 0.2, 0.7)]
        c = emb400.positions[emb400.mesh.triangles[37]].mean(axis=0)
        curves.append(geoq.circle_with_radius(c / np.linalg.norm(c), 1e-4))
        data = geoq.DataType("d0", random_unit(rng))
        kind = geoq.QuorumSystemKind.qg()
        write = geoq.write_quorum(kind, random_unit(rng), data, rng)
        read = geoq.read_quorum(kind, random_unit(rng), data, rng)
        curves.append(_first_hit_truncate(read, [write], step))
        assert len(curves[-1].points) == 2
        owner, tris = geoq.rasterize_polylines(*geoq.stack_polylines(
            [geoq.sample(curve, step).points for curve in curves]), emb400)
        assert np.all(np.diff(owner) >= 0)
        for i, curve in enumerate(curves):
            assert set(tris[owner == i].tolist()) == _segment_oracle(curve, emb400, step)
        assert tris[owner == 5].tolist() == [37]

    def test_guard_counts_steps_per_chord(self, emb400):
        # a long spiral takes more steps in all than the mesh has triangles
        spiral = geoq.spiral_for(random_unit(np.random.default_rng(23)), 0.01, 0.0)
        step = raster_step(emb400)
        pts = geoq.sample(spiral, step).points
        first = locate_many(pts[:1], emb400)
        _, entered = walk(emb400, first, pts, [0, len(pts)])
        assert len(entered) > emb400.mesh.n_triangles
        assert set(geoq.rasterize(spiral, emb400).tolist()) == (
            set(first.tolist()) | set(entered.tolist()))

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
        pts = geoq.sample(curve, raster_step(emb400)).points
        from geoq.embedding import locate_many
        for t in locate_many(pts, emb400):
            assert int(t) in tris

    def test_step_refinement_stable(self, emb400):
        curve = geoq.great_circle_through([1, 0, 0], [0, 0.6, 0.8])
        s = raster_step(emb400)
        a = set(geoq.rasterize(curve, emb400, step=s))
        b = set(geoq.rasterize(curve, emb400, step=s / 2))
        assert len(a ^ b) <= max(1, 0.02 * len(a))


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


class TestRun:
    def test_metrics_match_load(self, emb400):
        wl = _workload(emb400)
        m, load = geoq.run(wl, geoq.QuorumSystemKind.qg(), emb400,
                           np.random.default_rng(1))
        assert m.system_load == pytest.approx(load.max())
        assert m.total_load == pytest.approx(load.sum())

    def test_rate_linearity_and_determinism(self, emb400):
        kind = geoq.QuorumSystemKind.qg()
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
        kind = geoq.QuorumSystemKind.qg()
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

    def test_single_read_accounting(self, emb400):
        # zero contributors, one querier of weight 1: total equals the read
        # curve's charged-vertex count
        data = geoq.DataType("d0", geoq.hash_location("d0", 1),
                             contributors=(), queriers=(5,))
        wl = geoq.Workload(data_types=(data,), write_rate_r=1.0)
        m, load = geoq.run(wl, geoq.QuorumSystemKind.ql(), emb400,
                           np.random.default_rng(4))
        reader = emb400.node_positions()[5]
        curve = geoq.read_quorum(geoq.QuorumSystemKind.ql(), reader,
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
            geoq.run(wl, geoq.QuorumSystemKind.qg(), emb400,
                     np.random.default_rng(0), read_termination="sometimes")
        data = geoq.DataType("d0", geoq.hash_location("d0", 1),
                             contributors=(10_000,), queriers=())
        with pytest.raises(ConfigError):
            geoq.run(geoq.Workload(data_types=(data,), write_rate_r=1.0),
                     geoq.QuorumSystemKind.qg(), emb400, np.random.default_rng(0))


def _reference_run(wl, kind, emb, rng, read_termination):
    """run()'s loads, with each access rasterized alone by `rasterize` and
    charged at once: the order in which run() must add the weights."""
    step = raster_step(emb)
    load = np.zeros(emb.n_nodes)
    node_pos = emb.node_positions()
    expected, mix = wl.mode == "expected", wl.mix_samples
    psis = mixing_angles(mix)

    def charge_one(curve, weight):
        tris = geoq.rasterize(curve, emb, step)
        load[np.unique(emb.mesh.original_vertex(emb.mesh.triangles[tris]))] += weight

    for data in wl.data_types:
        writes = []
        for i in data.contributors:
            node = node_pos[i]
            if expected and is_mixed(kind, "write"):
                curves = [(quorum_curve(kind, "write", node, data.hash_point, psi),
                           wl.write_rate_r / mix) for psi in psis]
            elif expected:
                curves = [(geoq.write_quorum(kind, node, data, rng), wl.write_rate_r)]
            else:
                curves = [(geoq.write_quorum(kind, node, data, rng), wl.write_rate_r / wl.events)
                          for _ in range(wl.events)]
            for curve, weight in curves:
                writes.append(curve if isinstance(curve, SphericalCircle)
                              else geoq.sample(curve, step))
                charge_one(curve, weight)
        if expected and is_read_shared(kind):
            total = wl.read_rate * len(data.queriers)
            curves = [(quorum_curve(kind, "read", None, data.hash_point, psi), total / mix)
                      for psi in psis]
        else:
            curves = []
            for i in data.queriers:
                node = node_pos[i]
                if expected and is_mixed(kind, "read"):
                    curves += [(quorum_curve(kind, "read", node, data.hash_point, psi),
                                wl.read_rate / mix) for psi in psis]
                elif expected:
                    curves.append((geoq.read_quorum(kind, node, data, rng), wl.read_rate))
                else:
                    curves += [(geoq.read_quorum(kind, node, data, rng), wl.read_rate / wl.events)
                               for _ in range(wl.events)]
        for curve, weight in curves:
            if read_termination == "first_hit":
                curve = _first_hit_truncate(curve, writes, step)
            charge_one(curve, weight)
    return load


class TestBatchedRun:
    KINDS = (geoq.QuorumSystemKind.qg(), geoq.QuorumSystemKind.qgm(),
             geoq.QuorumSystemKind.ql(), geoq.QuorumSystemKind.qld(),
             geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
             geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True))

    @pytest.mark.parametrize("batch_samples", [None, 3000])
    @pytest.mark.parametrize("mode", ["montecarlo", "expected"])
    def test_loads_equal_one_access_at_a_time(self, emb400, mode, batch_samples,
                                              monkeypatch):
        # rate 10/3 gives weights whose sums round, so the order is pinned;
        # 3000-sample batches split every run between charges
        if batch_samples is not None:
            monkeypatch.setattr(geoq.loadsim, "_BATCH_SAMPLES", batch_samples)
        for kind in self.KINDS:
            for termination in ("full", "first_hit"):
                wl = _workload(emb400, n_contrib=12, n_query=4, r=10 / 3, mode=mode,
                               events=2, mix_samples=5)
                _, load = geoq.run(wl, kind, emb400, np.random.default_rng(31),
                                   read_termination=termination)
                ref = _reference_run(wl, kind, emb400, np.random.default_rng(31),
                                     termination)
                assert np.array_equal(load, ref), (kind, termination)


class TestFirstHit:
    STEP = 0.01

    def _pairs(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        data = geoq.DataType("d0", random_unit(rng))
        for _ in range(n):
            yield (geoq.write_quorum(kind, random_unit(rng), data, rng),
                   geoq.read_quorum(kind, random_unit(rng), data, rng))

    def test_geoquorum_cut_straddles_write_circle(self):
        # the cut falls on the write circle itself: the last kept segment
        # straddles it and no earlier one does (its antipodal image, where a
        # great-circle plane test through the segment also fires, is no hit)
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        for write, read in self._pairs(kind, 11, 30):
            kept = _first_hit_truncate(read, [write], self.STEP).points
            full = geoq.sample(read, self.STEP).points
            assert len(kept) < len(full)
            side = kept @ write.axis >= np.cos(write.rho)
            assert side[-1] != side[-2]
            assert np.all(side[:-1] == side[0])

    def test_qg_read_stops_at_the_hash(self):
        # every QG write passes the hash, where each QG read starts
        kind = geoq.QuorumSystemKind.qg()
        for write, read in self._pairs(kind, 12, 30):
            kept = _first_hit_truncate(read, [write], self.STEP).points
            assert len(kept) == 2

    def test_dual_read_cut_at_write_spiral(self):
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)
        pairs = list(self._pairs(kind, 13, 12))
        writes = [w for w, _ in pairs[:4]]
        for _, read in pairs:
            assert isinstance(read, geoq.SphericalCircle)
            kept = _first_hit_truncate(read, writes, self.STEP).points
            full = geoq.sample(read, self.STEP).points
            crossings = np.vstack([circle_crossings(read, w, self.STEP)[2] for w in writes])
            # the read sample nearest to the first crossing along the read
            first = int(np.min(np.argmax(crossings @ full.T, axis=1)))
            assert len(kept) < len(full)
            assert len(kept) - 1 in (first, first + 1)

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
        kind = geoq.QuorumSystemKind.qg()
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
        kind = geoq.QuorumSystemKind.qg()
        data = geoq.DataType("d0", geoq.hash_location("d0", 4),
                             contributors=tuple(range(50)),
                             queriers=tuple(range(200, 240)))
        rng = np.random.default_rng(9)
        node_pos = emb400.node_positions()
        coarse = max(raster_step(emb400), np.pi / 200)
        for _ in range(8):
            writer = node_pos[int(rng.choice(data.contributors))]
            reader = node_pos[int(rng.choice(data.queriers))]
            wq = geoq.write_quorum(kind, writer, data, rng)
            rq = geoq.read_quorum(kind, reader, data, rng)
            n_geo, _ = geoq.count_intersections(wq, rq, step=coarse,
                                                merge_tol=2 * coarse)
            wt = geoq.rasterize(wq, emb400)
            rt = geoq.rasterize(rq, emb400)
            wv = np.unique(emb400.mesh.original_vertex(
                np.unique(emb400.mesh.triangles[wt].ravel())))
            rv = np.unique(emb400.mesh.original_vertex(
                np.unique(emb400.mesh.triangles[rt].ravel())))
            shared = len(np.intersect1d(wv, rv))
            assert shared >= n_geo

    def test_qg_discrete_at_least_two(self, emb800):
        kind = geoq.QuorumSystemKind.qg()
        data = geoq.DataType("d0", geoq.hash_location("d0", 5),
                             contributors=tuple(range(40)),
                             queriers=tuple(range(100, 140)))
        r = geoq.discrete_robustness(kind, data, emb800, 12,
                                     np.random.default_rng(10))
        assert r >= 2

    def test_identical_curves_share_everything(self, emb400):
        # degenerate write/read pair (the same curve): the shared charged set
        # is the whole charged set
        kind = geoq.QuorumSystemKind.qg()
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
