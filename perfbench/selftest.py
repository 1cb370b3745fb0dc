"""Tests of the benchmark's own checks: each passes on a real geoq output and
fails on a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

The outputs come from the fixed embedding and from small runs on it, so the
tests take seconds.
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import geoq  # noqa: E402
from geoq import cli  # noqa: E402
from workloads import FIXTURE  # noqa: E402

EMB = geoq.load_embedding(FIXTURE)


def _run_pair(kind, mode="montecarlo", accessors=(10, 3), **kw):
    cfg = geoq.ExperimentConfig(kind=kind, contributors=accessors[0], queriers=accessors[1],
                                mode=mode, **kw)
    (m4, l4, _), (m10, l10, _) = (cli.run_once(cfg, 7, r, EMB) for r in (4.0, 10.0))
    data = cli._workload_for(cfg, 7, 4.0, EMB).data_types[0]
    return dict(load4=l4, load10=l10, metrics4=(m4.system_load, m4.total_load),
                metrics10=(m10.system_load, m10.total_load),
                contributors=data.contributors, queriers=data.queriers)


class TestEmbeddingCheck(unittest.TestCase):
    def setUp(self):
        m = EMB.mesh
        self.args = dict(solved=EMB.positions.copy(), loaded=EMB.positions.copy(),
                         triangles=m.triangles.copy(), boundary=m.boundary,
                         copy_map=m.copy_map, n_original=m.n_original, planar=m.planar,
                         loaded_residual=EMB.residual,
                         reported_angle_error=geoq.distortion_report(EMB).mean_angle_error)

    def problems(self):
        return checks.check_embedding(**self.args)

    def test_real_embedding_passes(self):
        self.assertEqual(self.problems(), [])

    def test_flipped_triangle(self):
        self.args["triangles"][5, [0, 1]] = self.args["triangles"][5, [1, 0]]
        self.assertTrue(any("flipped" in p for p in self.problems()))

    def test_residual(self):
        self.args["loaded_residual"] = 2e-7
        self.assertTrue(any("residual" in p for p in self.problems()))

    def test_boundary_off_equator(self):
        self.args["solved"][self.args["boundary"][0], 2] = 2e-6
        self.assertTrue(any("boundary" in p for p in self.problems()))

    def test_mirror_broken(self):
        self.args["solved"][-1, 0] += 2e-6
        self.assertTrue(any("mirror" in p for p in self.problems()))

    def test_off_centre(self):
        # the area centroid of any fine closed mesh on the sphere is near zero,
        # so an off-centre embedding has left the sphere
        self.args["solved"][:, 0] += 1e-5
        problems = self.problems()
        self.assertTrue(any("centroid" in p for p in problems))
        self.assertTrue(any("unit sphere" in p for p in problems))

    def test_distortion_report_disagrees(self):
        self.args["reported_angle_error"] += 1e-6
        self.assertTrue(any("distortion report" in p for p in self.problems()))

    def test_distortion_too_large(self):
        loaded = self.args["loaded"]
        loaded[:, 0] *= 1.5
        loaded /= np.linalg.norm(loaded, axis=1, keepdims=True)
        self.args["solved"] = loaded.copy()
        self.assertTrue(any("mean angle distortion" in p for p in self.problems()))

    def test_reload_lost_digits(self):
        self.args["loaded"][10, 1] *= 1 + 1e-10
        self.assertTrue(any("12 significant digits" in p for p in self.problems()))


class TestLoadCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {kind: _run_pair(kind) for kind in ("QG", "QL")}
        cls.expected = _run_pair("QGm", mode="expected", accessors=(3, 2), mix_samples=16)

    def problems(self, run, mix=1, reads_through_reader=False):
        return checks.check_loads(**run, mix_samples=mix,
                                  reads_through_reader=reads_through_reader)

    def corrupt(self, run, **changes):
        out = dict(run, load4=run["load4"].copy(), load10=run["load10"].copy())
        out.update(changes)
        return out

    def test_real_runs_pass(self):
        self.assertEqual(self.problems(self.runs["QG"]), [])
        self.assertEqual(self.problems(self.runs["QL"], reads_through_reader=True), [])
        self.assertEqual(self.problems(self.expected, mix=16), [])

    def test_contributor_write_removed(self):
        run = self.corrupt(self.runs["QG"])
        writes = (run["load10"] - run["load4"]) / 6
        c = next(c for c in run["contributors"] if writes[c] == 1)
        run["load4"][c] -= 4
        run["load10"][c] -= 10
        self.assertTrue(any("own write" in p for p in self.problems(run)))

    def test_querier_read_removed(self):
        run = self.corrupt(self.runs["QL"])
        writes = (run["load10"] - run["load4"]) / 6
        reads = run["load4"] - 4 * writes
        q = next(q for q in run["queriers"] if reads[q] == 1)
        run["load4"][q] -= 1
        run["load10"][q] -= 1
        self.assertTrue(any("own read" in p for p in
                            self.problems(run, reads_through_reader=True)))

    def test_fractional_count(self):
        run = self.corrupt(self.expected)
        run["load10"][0] += 6 / 32
        self.assertTrue(any("multiples of 1/16" in p for p in self.problems(run, mix=16)))

    def test_count_out_of_range(self):
        run = self.corrupt(self.runs["QG"])
        run["load4"][0] += 4 * 11
        run["load10"][0] += 10 * 11
        self.assertTrue(any("write counts outside" in p for p in self.problems(run)))

    def test_metrics_disagree_with_load(self):
        run = self.corrupt(self.runs["QG"])
        run["metrics4"] = (run["metrics4"][0], run["metrics4"][1] + 1.0)
        self.assertTrue(any("system/total" in p for p in self.problems(run)))


class TestFirstHitCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        loads = []
        for termination in ("first_hit", "full"):
            cfg = geoq.ExperimentConfig(kind="QG", contributors=10, queriers=3,
                                        read_termination=termination)
            loads.append(cli.run_once(cfg, 7, 4.0, EMB)[1])
        cls.first, cls.full = loads

    def test_real_runs_pass(self):
        self.assertEqual(checks.check_first_hit(self.first, self.full, 3, 1.0), [])

    def test_first_hit_above_full(self):
        first = self.first.copy()
        first[int(np.argmax((self.full == self.first) & (self.full > 0)))] += 1
        self.assertTrue(checks.check_first_hit(first, self.full, 3, 1.0))

    def test_first_hit_too_short(self):
        first = self.first.copy()
        first[int(np.argmax(self.full))] = 0
        self.assertTrue(checks.check_first_hit(first, self.full, 3, 1.0))


class TestCrossingChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rng = np.random.default_rng(11)
        cls.axis1 = geoq.quorums.random_unit(rng, 6)
        cls.axis2 = geoq.quorums.random_unit(rng, 6)
        cls.rho1 = rng.uniform(0.05 * np.pi, 0.5 * np.pi, 6)
        cls.rho2 = rng.uniform(0.05 * np.pi, 0.5 * np.pi, 6)
        cls.pairs = np.array([geoq.count_intersections(
            geoq.circle_with_radius(cls.axis1[i], cls.rho1[i]),
            geoq.circle_with_radius(cls.axis2[i], cls.rho2[i]))[0] for i in range(6)])
        counts, targets, clear = [], [], []
        a, rho = 0.1, 0.2 * np.pi
        for _ in range(40):
            node, ctr = geoq.quorums.random_unit(rng, 2)
            sp = geoq.spiral_for(node, a, rng.uniform(0, 2 * np.pi))
            n, _ = geoq.count_intersections(geoq.circle_with_radius(ctr, rho), sp,
                                            step=np.pi / 300, merge_tol=np.pi / 150)
            counts.append(n)
            targets.append(2 * int(np.floor(rho / (a * np.pi) + 1e-9)))
            d = np.arccos(np.clip(ctr @ node, -1, 1))
            clear.append(rho < d < np.pi - rho)
        cls.spiral = (np.array(counts), np.array(targets), np.array(clear))

    def circle_problems(self, counts):
        return checks.check_circle_pairs(counts, self.axis1, self.rho1, self.axis2, self.rho2)

    def test_real_counts_pass(self):
        self.assertEqual(self.circle_problems(self.pairs), [])
        self.assertEqual(checks.check_circle_spiral(*self.spiral), [])

    def test_circle_count_off_by_one(self):
        _, gap = checks.circle_pair_expected(self.axis1, self.rho1, self.axis2, self.rho2)
        counts = self.pairs.copy()
        counts[int(np.argmax(gap))] += 1
        self.assertTrue(self.circle_problems(counts))

    def test_circle_count_above_two(self):
        counts = self.pairs.copy()
        counts[0] = 3
        self.assertTrue(any("more than twice" in p for p in self.circle_problems(counts)))

    def test_spiral_never_crossed(self):
        counts, targets, clear = self.spiral
        counts = counts.copy()
        counts[0] = 0
        self.assertTrue(any("never cross" in p for p in
                            checks.check_circle_spiral(counts, targets, clear)))

    def test_spiral_below_target(self):
        counts, targets, clear = self.spiral
        counts = counts.copy()
        counts[np.flatnonzero(clear)[0]] = 1
        self.assertTrue(any("pole-clear" in p for p in
                            checks.check_circle_spiral(counts, targets, clear)))

    def test_spiral_enclosing_even(self):
        counts, targets, clear = self.spiral
        self.assertTrue((~clear).any())
        counts = counts.copy()
        counts[np.flatnonzero(~clear)[0]] += 1
        self.assertTrue(any("odd" in p for p in
                            checks.check_circle_spiral(counts, targets, clear)))


if __name__ == "__main__":
    unittest.main()
