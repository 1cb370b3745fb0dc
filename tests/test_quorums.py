import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geoq
from geoq.errors import OutOfRange
from geoq.quorums import KIND_NAMES, ROLES, _circle_at, is_mixed, is_read_shared, quorum_curve
from geoq.sphere import SphericalCircle, SphericalSpiral, perpendicular_basis

from conftest import random_unit


def _data(hash_point=(0, 0, 1)):
    return geoq.DataType("d0", np.asarray(hash_point, float))


class TestHashLocation:
    def test_deterministic(self):
        a = geoq.hash_location("temperature", 7)
        b = geoq.hash_location("temperature", 7)
        assert np.array_equal(a, b)
        assert not np.allclose(a, geoq.hash_location("temperature", 8))

    def test_roughly_uniform(self):
        pts = np.array([geoq.hash_location(f"id{i}", 1) for i in range(10_000)])
        assert np.linalg.norm(pts.mean(axis=0)) < 0.05

    def test_override(self):
        assert np.allclose(geoq.hash_location("x", 1, override=(0, 0, 1)), [0, 0, 1])


class TestKind:
    def test_robustness_target(self):
        k = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        assert k.robustness_target() == 1
        k2 = geoq.QuorumSystemKind.geoquorum(0.4 * np.pi, 0.2)
        assert k2.robustness_target() == 2
        # exact multiples stay exact despite rounding
        k3 = geoq.QuorumSystemKind.geoquorum(0.3 * np.pi / 1.0, 0.3 * np.pi / (5 * np.pi))
        assert k3.robustness_target() == 5

    def test_validation(self):
        with pytest.raises(OutOfRange):
            geoq.QuorumSystemKind.geoquorum(0.0, 0.2)
        with pytest.raises(OutOfRange):
            geoq.QuorumSystemKind.geoquorum(np.pi, 0.2)
        with pytest.raises(OutOfRange):
            geoq.QuorumSystemKind.geoquorum(0.1 * np.pi, 0.5)  # k would be 0
        with pytest.raises(OutOfRange):
            geoq.QuorumSystemKind("bogus")
        for a in (np.nan, np.inf, -np.inf):
            with pytest.raises(OutOfRange, match="GeoQuorum a"):
                geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, a)

    def test_wide_radius_allowed(self):
        k = geoq.QuorumSystemKind.geoquorum(0.6 * np.pi, 0.06)
        assert k.robustness_target() == 10


class TestWriteQuorum:
    def test_qg_passes_through_writer_and_hash(self):
        rng = np.random.default_rng(0)
        data = _data()
        for _ in range(5):
            w = random_unit(rng)
            c = geoq.write_quorum(geoq.QuorumSystemKind("QG"), w, data, rng)
            assert abs(float(c.axis @ w)) < 1e-9
            assert abs(float(c.axis @ data.hash_point)) < 1e-9

    def test_geoquorum_circle_through_writer(self):
        rng = np.random.default_rng(1)
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        w = random_unit(rng)
        c = geoq.write_quorum(kind, w, _data(), rng)
        assert isinstance(c, SphericalCircle)
        assert c.rho == pytest.approx(0.2 * np.pi)
        assert geoq.geodesic_distance(c.axis, w) == pytest.approx(0.2 * np.pi, abs=1e-9)

    def test_geoquorum_wide_radius_through_writer(self):
        rng = np.random.default_rng(2)
        kind = geoq.QuorumSystemKind.geoquorum(0.6 * np.pi, 0.06)
        w = random_unit(rng)
        c = geoq.write_quorum(kind, w, _data(), rng)
        # complementary circle: still passes through the writer
        assert geoq.geodesic_distance(c.axis, w) == pytest.approx(c.rho, abs=1e-9)

    def test_qgm_axis_orthogonal_to_writer(self):
        rng = np.random.default_rng(3)
        w = random_unit(rng)
        c = geoq.write_quorum(geoq.QuorumSystemKind("QGm"), w, _data(), rng)
        assert abs(float(c.axis @ w)) < 1e-12

    def test_qld_latitude_circle(self):
        rng = np.random.default_rng(4)
        w = random_unit(rng)
        data = _data()
        c = geoq.write_quorum(geoq.QuorumSystemKind("QLd"), w, data, rng)
        expect = min(geoq.geodesic_distance(data.hash_point, w),
                     np.pi - geoq.geodesic_distance(data.hash_point, w))
        assert c.rho == pytest.approx(expect, abs=1e-9)

    def test_pure_strategies_ignore_rng(self):
        data = _data()
        w = geoq.unit_vector([0.3, 0.4, 0.86])
        for kind in (geoq.QuorumSystemKind("QG"), geoq.QuorumSystemKind("QL"),
                     geoq.QuorumSystemKind("QLd")):
            c1 = geoq.write_quorum(kind, w, data, np.random.default_rng(1))
            c2 = geoq.write_quorum(kind, w, data, np.random.default_rng(999))
            assert np.allclose(c1.axis, c2.axis)
            assert c1.rho == c2.rho
            assert not is_mixed(kind, "write")

    def test_qgm_axis_uniform_around_writer(self):
        # the random great-circle axis is uniform on the circle of directions
        # perpendicular to the writer (chi-square over angle bins)
        from geoq.sphere import perpendicular_basis
        rng = np.random.default_rng(21)
        w = geoq.unit_vector([0.2, -0.5, 0.84])
        e1, e2 = perpendicular_basis(w)
        data = _data()
        n, bins = 10_000, 20
        angles = np.empty(n)
        for i in range(n):
            c = geoq.write_quorum(geoq.QuorumSystemKind("QGm"), w, data, rng)
            angles[i] = np.arctan2(float(c.axis @ e2), float(c.axis @ e1))
        counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
        expected = n / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 19 dof: 0.999 quantile ~ 43.8
        assert chi2 < 43.8

    def test_seed_stability_for_mixed(self):
        data = _data()
        w = geoq.unit_vector([0.3, 0.4, 0.86])
        for kind in (geoq.QuorumSystemKind("QGm"),
                     geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)):
            c1 = geoq.write_quorum(kind, w, data, np.random.default_rng(42))
            c2 = geoq.write_quorum(kind, w, data, np.random.default_rng(42))
            assert np.allclose(c1.axis, c2.axis)
            assert is_mixed(kind, "write")


class TestReadQuorum:
    def test_ql_latitude_through_reader(self):
        rng = np.random.default_rng(5)
        data = _data()
        reader = geoq.unit_vector([np.sin(np.pi / 3), 0, np.cos(np.pi / 3)])
        c = geoq.read_quorum(geoq.QuorumSystemKind("QL"), reader, data, rng)
        assert c.rho == pytest.approx(np.pi / 3, abs=1e-9)

    def test_geoquorum_spiral_endpoints(self):
        rng = np.random.default_rng(6)
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        reader = random_unit(rng)
        sp = geoq.read_quorum(kind, reader, _data(), rng)
        assert isinstance(sp, SphericalSpiral)
        poly = geoq.sample(sp, 0.01)
        assert np.allclose(poly.points[0], reader, atol=1e-9)
        assert np.allclose(poly.points[-1], -reader, atol=1e-9)

    def test_qld_great_circle_through_reader_and_hash(self):
        rng = np.random.default_rng(7)
        data = _data()
        reader = random_unit(rng)
        c = geoq.read_quorum(geoq.QuorumSystemKind("QLd"), reader, data, rng)
        assert c.rho == pytest.approx(np.pi / 2)
        assert abs(float(c.axis @ reader)) < 1e-9
        assert abs(float(c.axis @ data.hash_point)) < 1e-9

    def test_qg_read_passes_through_hash(self):
        rng = np.random.default_rng(8)
        data = _data((0.6, -0.64, 0.48))
        c = geoq.read_quorum(geoq.QuorumSystemKind("QG"), random_unit(rng), data, rng)
        assert abs(float(c.axis @ data.hash_point)) < 1e-9

    def test_dual_swaps_roles(self):
        rng = np.random.default_rng(9)
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2, dual=True)
        w = geoq.write_quorum(kind, random_unit(rng), _data(), rng)
        r = geoq.read_quorum(kind, random_unit(rng), _data(), rng)
        assert isinstance(w, SphericalSpiral)
        assert isinstance(r, SphericalCircle)


    @pytest.mark.parametrize("kind", [
        geoq.QuorumSystemKind("QG"),
        geoq.QuorumSystemKind("QGm"),
        geoq.QuorumSystemKind("QL"),
        geoq.QuorumSystemKind("QLd"),
        geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
    ])
    def test_shared_reads_ignore_the_reader(self, kind):
        # a shared read family is the same for every reader at the same draw
        data = _data((0.6, -0.64, 0.48))
        readers = random_unit(np.random.default_rng(11), 2)
        curves = [geoq.sample(geoq.read_quorum(kind, r, data, np.random.default_rng(12)),
                              0.05).points for r in readers]
        same = curves[0].shape == curves[1].shape and np.allclose(*curves)
        assert is_read_shared(kind) == same
        assert is_read_shared(kind) == (kind.name in ("QG", "QGm"))


_psi = st.floats(0.0, 2 * np.pi, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(KIND_NAMES), dual=st.booleans(), role=st.sampled_from(ROLES),
       psi1=_psi, psi2=_psi, seed=st.integers(0, 2 ** 32 - 1))
def test_psi_and_rng_draws_follow_is_mixed(name, dual, role, psi1, psi2, seed):
    """quorum_curve depends on psi exactly when the strategy is mixed, and
    write_quorum/read_quorum advance the rng by one uniform draw exactly then:
    the rng stream that Monte Carlo loads rest on."""
    assume(0.01 < abs(psi1 - psi2) < 2 * np.pi - 0.01)
    kind = geoq.QuorumSystemKind(name, dual=dual, **(
        {"r_w": 0.2 * np.pi, "a": 0.2} if name == "GeoQuorum" else {}))
    node, hash_point = random_unit(np.random.default_rng(seed), 2)
    assume(0.01 < geoq.geodesic_distance(node, hash_point) < np.pi - 0.01)
    mixed = is_mixed(kind, role)

    def points(curve):
        return geoq.sample(curve, 0.05).points

    a, b = (points(quorum_curve(kind, role, node, hash_point, psi)) for psi in (psi1, psi2))
    assert (a.shape == b.shape and np.array_equal(a, b)) == (not mixed)

    quorum = geoq.write_quorum if role == "write" else geoq.read_quorum
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = quorum(kind, node, geoq.DataType("d0", hash_point), rng)
    psi = ref.uniform(0.0, 2.0 * np.pi) if mixed else 0.0
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(points(drawn), points(quorum_curve(kind, role, node, hash_point, psi)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=st.floats(-1.0, 1.0), lon=st.floats(0.0, 2 * np.pi),
       rho=st.one_of(st.just(np.pi / 2), st.floats(1e-3, np.pi - 1e-3)),
       psi=st.floats(-10.0, 10.0))
def test_circle_at_is_the_vector_formula(z, lon, rho, psi):
    # the centre as first written, in numpy arithmetic
    r = np.sqrt(1.0 - z * z)
    point = np.array([r * np.cos(lon), r * np.sin(lon), z])
    e1, e2 = perpendicular_basis(point)
    center = np.cos(rho) * point + np.sin(rho) * (np.cos(psi) * e1 + np.sin(psi) * e2)
    radius = rho
    if rho > np.pi / 2:
        center, radius = -center, np.pi - rho
    circle = _circle_at(point, rho, psi)
    assert np.array_equal(circle.axis, center / np.linalg.norm(center))
    assert circle.rho == radius
    assert np.array_equal(circle.start, point)


class TestIntersectionGuarantee:
    @pytest.mark.parametrize("kind", [
        geoq.QuorumSystemKind("QG"),
        geoq.QuorumSystemKind("QGm"),
        geoq.QuorumSystemKind("QL"),
        geoq.QuorumSystemKind("QLd"),
        geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2),
    ])
    def test_write_read_always_intersect(self, kind):
        rng = np.random.default_rng(10)
        data = _data((0.1, -0.3, 0.9486832980505138))
        data = geoq.DataType("d0", geoq.unit_vector([0.1, -0.3, 0.95]))
        for _ in range(40):
            writer, reader = random_unit(rng), random_unit(rng)
            wq = geoq.write_quorum(kind, writer, data, rng)
            rq = geoq.read_quorum(kind, reader, data, rng)
            n, _ = geoq.count_intersections(wq, rq, step=np.pi / 400,
                                            merge_tol=np.pi / 200)
            assert n >= 1


class TestGeometricRobustness:
    def test_qg_at_most_two(self):
        rng = np.random.default_rng(11)
        r = geoq.geometric_robustness(geoq.QuorumSystemKind("QG"), _data(), 60, rng)
        assert 1 <= r <= 2

    def test_geoquorum_k1_at_least_one(self):
        rng = np.random.default_rng(12)
        kind = geoq.QuorumSystemKind.geoquorum(0.2 * np.pi, 0.2)
        r = geoq.geometric_robustness(kind, _data(), 40, rng)
        assert r >= 1

    def test_trials_validation(self):
        with pytest.raises(OutOfRange):
            geoq.geometric_robustness(geoq.QuorumSystemKind("QG"), _data(), 0,
                                      np.random.default_rng(0))
