import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import geoq
from geoq.errors import DegenerateInput, OutOfRange
from geoq.sphere import circle_crossings, perpendicular_basis, rotation_to_south_pole

from conftest import random_unit


class TestAntipode:
    def test_poles(self):
        assert np.allclose(geoq.antipode([0, 0, 1]), [0, 0, -1])
        assert np.allclose(geoq.antipode([1, 0, 0]), [-1, 0, 0])

    def test_involution_and_distance(self):
        rng = np.random.default_rng(0)
        for p in random_unit(rng, 20):
            q = geoq.antipode(p)
            assert np.allclose(geoq.antipode(q), p)
            assert geoq.geodesic_distance(p, q) == pytest.approx(np.pi)


class TestGeodesicDistance:
    def test_examples(self):
        assert geoq.geodesic_distance([1, 0, 0], [1, 0, 0]) == 0.0
        assert geoq.geodesic_distance([1, 0, 0], [0, 0, 1]) == pytest.approx(np.pi / 2)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        pts = random_unit(rng, 30)
        for a, b, c in zip(pts[:-2], pts[1:-1], pts[2:]):
            assert geoq.geodesic_distance(a, b) == pytest.approx(geoq.geodesic_distance(b, a))
            assert (geoq.geodesic_distance(a, c)
                    <= geoq.geodesic_distance(a, b) + geoq.geodesic_distance(b, c) + 1e-12)


class TestGreatCircle:
    def test_equator(self):
        c = geoq.great_circle_through([1, 0, 0], [0, 1, 0])
        assert np.allclose(c.axis, [0, 0, 1])
        assert c.rho == pytest.approx(np.pi / 2)

    def test_meridian(self):
        c = geoq.great_circle_through([1, 0, 0], [0, 0, 1])
        assert np.allclose(c.axis, [0, -1, 0])

    def test_contains_both_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p, q = random_unit(rng), random_unit(rng)
            c = geoq.great_circle_through(p, q)
            assert abs(float(c.axis @ p)) < 1e-9
            assert abs(float(c.axis @ q)) < 1e-9

    def test_degenerate(self):
        p = geoq.unit_vector([0.3, -0.5, 0.8])
        with pytest.raises(DegenerateInput):
            geoq.great_circle_through(p, p)
        with pytest.raises(DegenerateInput):
            geoq.great_circle_through(p, -p)


class TestCircleWithRadius:
    def test_great_circle_limit(self):
        c = geoq.circle_with_radius([0, 0, 1], np.pi / 2)
        assert c.rho == np.pi / 2
        pts = geoq.sample(c, 0.01).points
        assert np.abs(pts[:, 2]).max() < 1e-9

    def test_latitude_height(self):
        c = geoq.circle_with_radius([0, 0, 1], 0.2 * np.pi)
        pts = geoq.sample(c, 0.01).points
        assert np.allclose(pts[:, 2], np.cos(0.2 * np.pi), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            geoq.circle_with_radius([0, 0, 1], 0.0)
        with pytest.raises(OutOfRange):
            geoq.circle_with_radius([0, 0, 1], 0.6 * np.pi)


class TestLatitudeCircle:
    def test_equatorial_node(self):
        c = geoq.latitude_circle([0, 0, 1], [1, 0, 0])
        assert c.rho == pytest.approx(np.pi / 2)

    def test_euclidean_radius_matches_sin(self):
        through = np.array([np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)])
        c = geoq.latitude_circle([0, 0, 1], through)
        pts = geoq.sample(c, 0.01).points
        euclid_r = np.linalg.norm(pts[:, :2], axis=1)
        assert np.allclose(euclid_r, np.sin(np.pi / 4), atol=1e-12)

    def test_lower_hemisphere_point(self):
        through = geoq.unit_vector([0.1, 0.2, -0.9])
        c = geoq.latitude_circle([0, 0, 1], through)
        pts = geoq.sample(c, 0.01).points
        d = np.arccos(np.clip(pts @ np.array([0, 0, 1.0]), -1, 1))
        assert np.allclose(d, geoq.geodesic_distance([0, 0, 1], through), atol=1e-9)

    def test_pole_degenerate(self):
        with pytest.raises(DegenerateInput):
            geoq.latitude_circle([0, 0, 1], [0, 0, 1])


class TestSpiral:
    def test_equator_point_at_theta_zero(self):
        sp = geoq.spiral_for([0, 0, -1], a=0.2, theta0=0.0)
        p = sp.points(np.array([0.0]))[0]
        assert np.allclose(p, [1, 0, 0], atol=1e-12)

    def test_endpoints_node_to_antipode(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            node = random_unit(rng)
            sp = geoq.spiral_for(node, a=0.17, theta0=rng.uniform(0, 2 * np.pi))
            poly = geoq.sample(sp, 0.01)
            assert np.allclose(poly.points[0], node, atol=1e-9)
            assert np.allclose(poly.points[-1], -node, atol=1e-9)

    def test_loop_spacing(self):
        # latitude gain per full longitude turn is 2*a*pi
        sp = geoq.spiral_for([0, 0, -1], a=0.2, theta0=0.0)
        for theta in (-2.0, 0.5, 1.0):  # both latitudes stay inside (-pi/2, pi/2)
            p1 = sp.points(np.array([theta]))[0]
            p2 = sp.points(np.array([theta + 2 * np.pi]))[0]
            lat1, lat2 = np.arcsin(p1[2]), np.arcsin(p2[2])
            assert lat2 - lat1 == pytest.approx(2 * 0.2 * np.pi, abs=1e-9)

    def test_extended_range_for_large_pitch(self):
        sp = geoq.spiral_for([0, 0, -1], a=0.7, theta0=0.0)
        assert sp.phi_range == (-np.pi / 2, 3 * np.pi / 2)
        poly = geoq.sample(sp, 0.01)
        # still on the sphere, passes the antipode midway, returns to the node
        assert np.allclose(np.linalg.norm(poly.points, axis=1), 1.0, atol=1e-12)
        assert np.allclose(poly.points[-1], [0, 0, -1], atol=1e-9)
        assert poly.points[:, 2].max() > 1 - 1e-6

    def test_extended_range_keeps_intersection(self):
        # at a = 0.6 a single node-to-antipode sweep turns less than once and
        # misses some pole-clear write circles; the extended sweep meets all
        rng = np.random.default_rng(10)
        a, rho = 0.6, 0.4 * np.pi
        single_misses = 0
        for _ in range(200):
            node = random_unit(rng)
            while True:
                center = random_unit(rng)
                if rho < geoq.geodesic_distance(center, node) < np.pi - rho:
                    break
            theta0 = rng.uniform(0, 2 * np.pi)
            circ = geoq.circle_with_radius(center, rho)
            single = geoq.SphericalSpiral(frame=rotation_to_south_pole(node), a=a,
                                          theta0=theta0, phi_range=(-np.pi / 2, np.pi / 2))
            n_single, _ = geoq.count_intersections(circ, single, step=np.pi / 200,
                                                   merge_tol=np.pi / 100)
            n_ext, _ = geoq.count_intersections(circ, geoq.spiral_for(node, a, theta0),
                                                step=np.pi / 200, merge_tol=np.pi / 100)
            single_misses += n_single == 0
            assert n_ext >= 1
        assert single_misses >= 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            geoq.spiral_for([0, 0, -1], a=0.0, theta0=0.0)

    def test_great_circle_limit(self):
        # for large pitch the node-to-antipode sweep hugs the plane through the
        # origin whose local-frame normal is (-sin theta0, cos theta0, 0)
        a = 50.0
        rng = np.random.default_rng(4)
        for _ in range(3):
            theta0 = rng.uniform(0, 2 * np.pi)
            sp = geoq.SphericalSpiral(frame=np.eye(3), a=a, theta0=theta0,
                                      phi_range=(-np.pi / 2, np.pi / 2))
            pts = geoq.sample(sp, 0.002).points
            normal = np.array([-np.sin(theta0), np.cos(theta0), 0.0])
            dev = np.abs(pts @ normal)
            assert dev.max() < 2.0 / a


class TestSample:
    def test_equator_length(self):
        poly = geoq.sample(geoq.circle_with_radius([0, 0, 1], np.pi / 2), np.pi / 180)
        assert poly.length() == pytest.approx(2 * np.pi, rel=1e-3)

    def test_small_circle_length(self):
        c = geoq.circle_with_radius([0, 0, 1], 0.2 * np.pi)
        poly = geoq.sample(c, np.pi / 400)
        assert poly.length() == pytest.approx(2 * np.pi * np.sin(0.2 * np.pi), rel=5e-3)

    def test_spiral_length_against_quadrature(self):
        a = 0.2
        sp = geoq.spiral_for([0, 0, -1], a=a, theta0=0.0)
        ref, _ = quad(lambda t: np.sqrt(a * a + np.cos(a * t) ** 2),
                      -np.pi / (2 * a), np.pi / (2 * a), limit=200)
        poly = geoq.sample(sp, np.pi / 1000)
        assert poly.length() == pytest.approx(ref, rel=1e-2)

    def test_halving_step_converges(self):
        for curve in (geoq.circle_with_radius([0, 0, 1], np.pi / 2),
                      geoq.circle_with_radius(geoq.unit_vector([1, 1, 1]), 0.3),
                      geoq.spiral_for([0, 0, -1], 0.2, 1.0)):
            l1 = geoq.sample(curve, np.pi / 500).length()
            l2 = geoq.sample(curve, np.pi / 1000).length()
            assert abs(l2 - l1) / l2 < 1e-3

    def test_spacing_bound(self):
        step = 0.01
        poly = geoq.sample(geoq.spiral_for([0, 0, -1], 0.1, 0.3), step)
        p = poly.points
        gaps = np.arccos(np.clip(np.einsum("ij,ij->i", p[:-1], p[1:]), -1, 1))
        assert gaps.max() <= 1.5 * step

    def test_closed_curve_repeats_first_point(self):
        poly = geoq.sample(geoq.circle_with_radius([0, 0, 1], 0.4), 0.01)
        assert np.allclose(poly.points[0], poly.points[-1])

    def test_bad_step(self):
        with pytest.raises(OutOfRange):
            geoq.sample(geoq.circle_with_radius([0, 0, 1], 0.4), 0.0)


class TestCountIntersections:
    def test_two_great_circles_exactly_two(self):
        # crossing points coincide with sample points here; the sign convention
        # must still count each crossing once
        eq = geoq.great_circle_through([1, 0, 0], [0, 1, 0])
        mer = geoq.great_circle_through([1, 0, 0], [0, 0, 1])
        n, pts = geoq.count_intersections(eq, mer, step=np.pi / 200, merge_tol=np.pi / 100)
        assert n == 2

    def test_disjoint_latitude_bands(self):
        cap = geoq.circle_with_radius([0, 0, 1], 0.1 * np.pi)
        eq = geoq.circle_with_radius([0, 0, 1], np.pi / 2)
        n, _ = geoq.count_intersections(cap, eq, step=np.pi / 200, merge_tol=np.pi / 100)
        assert n == 0

    def test_random_circle_pairs_at_most_two(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a1 = random_unit(rng)
            a2 = random_unit(rng)
            r1 = np.pi / 2 if rng.random() < 0.5 else rng.uniform(0.05 * np.pi, 0.5 * np.pi)
            r2 = np.pi / 2 if rng.random() < 0.5 else rng.uniform(0.05 * np.pi, 0.5 * np.pi)
            n, _ = geoq.count_intersections(geoq.circle_with_radius(a1, r1),
                                            geoq.circle_with_radius(a2, r2),
                                            step=np.pi / 200, merge_tol=np.pi / 100)
            assert n <= 2

    def test_circle_spiral_guarantee(self):
        # when the circle's latitude band (in the spiral frame) stays clear of
        # the spiral poles, the band argument gives >= 2k crossings; any
        # placement still yields >= 1 (the quorum intersection guarantee)
        rng = np.random.default_rng(6)
        for a, k in ((0.2, 1), (0.1, 2)):
            r_w = k * a * np.pi
            n_clear = 0
            while n_clear < 15:
                node = random_unit(rng)
                center = random_unit(rng)
                sp = geoq.spiral_for(node, a, rng.uniform(0, 2 * np.pi))
                circ = geoq.circle_with_radius(center, r_w)
                n, _ = geoq.count_intersections(circ, sp, step=np.pi / 400,
                                                merge_tol=np.pi / 200)
                assert n >= 1
                pole_dist = min(geoq.geodesic_distance(center, node),
                                geoq.geodesic_distance(center, -node))
                if pole_dist > r_w + 0.05:  # band clear of both poles
                    assert n >= 2 * k
                    n_clear += 1

    def test_merge_tol_validation(self):
        eq = geoq.circle_with_radius([0, 0, 1], np.pi / 2)
        with pytest.raises(OutOfRange):
            geoq.count_intersections(eq, eq, step=0.01, merge_tol=0.05)

    def test_needs_a_circle(self):
        sp = geoq.spiral_for([0, 0, 1], 0.2, 0.0)
        with pytest.raises(DegenerateInput):
            geoq.count_intersections(sp, sp)


STEP = np.pi / 200
_angle = st.floats(0.0, 2 * np.pi)
_radius = st.one_of(st.just(np.pi / 2), st.floats(0.05 * np.pi, 0.5 * np.pi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lat=st.floats(-1.0, 1.0), lon=_angle, rho1=_radius, rho2=_radius,
       theta=st.floats(0.0, np.pi), azimuth=_angle)
def test_circle_pairs_match_closed_form(lat, lon, rho1, rho2, theta, azimuth):
    """Two circles whose axes are theta apart cross twice when
    |rho1 - rho2| < theta < rho1 + rho2 and never otherwise, in either
    argument order, at points on both circles. Pairs within one step of
    tangency are not drawn."""
    lo, hi = abs(rho1 - rho2), rho1 + rho2
    assume(abs(theta - lo) > STEP and abs(theta - hi) > STEP)
    r = np.sqrt(1.0 - lat * lat)
    a1 = np.array([r * np.cos(lon), r * np.sin(lon), lat])
    e1, e2 = perpendicular_basis(a1)
    a2 = np.cos(theta) * a1 + np.sin(theta) * (np.cos(azimuth) * e1 + np.sin(azimuth) * e2)
    c1, c2 = geoq.circle_with_radius(a1, rho1), geoq.circle_with_radius(a2, rho2)
    expected = 2 if lo < theta < hi else 0
    n12, pts = geoq.count_intersections(c1, c2, step=STEP, merge_tol=2 * STEP)
    n21, _ = geoq.count_intersections(c2, c1, step=STEP, merge_tol=2 * STEP)
    assert n12 == expected
    assert n21 == n12
    for axis, rho in ((a1, rho1), (a2, rho2)):
        assert np.all(np.abs(np.arccos(np.clip(pts @ axis, -1, 1)) - rho) <= STEP)


def _unit(lat, lon):
    r = np.sqrt(1.0 - lat * lat)
    return np.array([r * np.cos(lon), r * np.sin(lon), lat])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(node_lat=st.floats(-1.0, 1.0), node_lon=_angle, lat=st.floats(-1.0, 1.0), lon=_angle,
       rho=st.floats(0.02 * np.pi, 0.5 * np.pi), a=st.floats(0.03, 0.45), theta0=_angle)
def test_circle_spiral_crossings_are_real_and_odd_around_a_pole(node_lat, node_lon, lat, lon,
                                                                 rho, a, theta0):
    """Every crossing lies on the circle and on the spiral, at a theta inside
    its sweep, and the count is odd exactly when the circle encloses one of
    the spiral's poles. Circles within a step of a pole are not drawn."""
    node, center = _unit(node_lat, node_lon), _unit(lat, lon)
    to_node = geoq.geodesic_distance(center, node)
    assume(min(abs(to_node - rho), abs(np.pi - to_node - rho)) > STEP)
    circle, spiral = geoq.circle_with_radius(center, rho), geoq.spiral_for(node, a, theta0)
    t, pts, theta = circle_crossings(circle, spiral, STEP)
    n, _ = geoq.count_intersections(circle, spiral, step=STEP)
    assert n == len(pts) == len(theta)
    assert n % 2 == (not rho < to_node < np.pi - rho)
    assert np.all(np.diff(t) >= 0)
    assert np.all(np.abs(np.arccos(np.clip(pts @ center, -1, 1)) - rho) <= STEP)
    lo, hi = spiral.theta_range()
    assert np.all((theta >= lo) & (theta <= hi))
    # on the spiral: the phase h is a multiple of 2 pi at the crossing, up
    # to a distance of a step along the latitude circle through it
    x, y, z = (pts @ spiral.frame.T).T
    h = np.arcsin(np.clip(z, -1, 1)) / a + spiral.theta0 - np.arctan2(y, x)
    off = np.abs(np.mod(h + np.pi, 2 * np.pi) - np.pi)
    assert np.all(off * np.hypot(x, y) <= STEP)
    assert np.allclose(spiral.points(theta), pts, atol=STEP)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lat=st.floats(-1.0, 1.0), lon=_angle, rho1=_radius, rho2=_radius,
       tangent=st.sampled_from((0, 1)), offset=st.floats(-1e-3, 1e-3), azimuth=_angle)
def test_near_tangent_circle_pairs_cross_at_most_twice(lat, lon, rho1, rho2, tangent,
                                                      offset, azimuth):
    """Circles within a thousandth of tangency, inner or outer, or equal,
    still yield at most 2 crossings, and an even count."""
    theta = float(np.clip((abs(rho1 - rho2), rho1 + rho2)[tangent] + offset, 0.0, np.pi))
    a1 = _unit(lat, lon)
    e1, e2 = perpendicular_basis(a1)
    a2 = np.cos(theta) * a1 + np.sin(theta) * (np.cos(azimuth) * e1 + np.sin(azimuth) * e2)
    t, _, _ = circle_crossings(geoq.circle_with_radius(a1, rho1),
                               geoq.circle_with_radius(a2, rho2), STEP)
    assert len(t) in (0, 2)


# Criterion 3's placements (seeds 104 and 105) whose circle encloses a pole
# and that merging nearby crossings counted even: (node, centre, theta0, a, rho)
_ENCLOSING_PLACEMENTS = [
    ([-0.5720197619814826, 0.40458878122642605, -0.713513356573206],
     [0.7526017083179453, -0.16812424276046464, 0.6366513234362516],
     2.9790197580188846, 0.05, 0.1 * np.pi),
    ([-0.05202052620404848, 0.24695876236138264, -0.967628665628705],
     [0.14717682679160968, -0.18728638716726806, -0.9712171697603913],
     4.06911187282982, 0.1, 0.2 * np.pi),
    ([0.864469136849724, 0.4878162450532607, 0.12136071232664257],
     [-0.12379093218179399, 0.9899474841635714, -0.06840894464745116],
     1.0792299335078068, 0.2, 0.4 * np.pi),
    ([0.17628735700139544, -0.5080151144239066, -0.8431153012953374],
     [0.4655660789703926, -0.6537232273557196, -0.5965686617043812],
     1.6525167427129495, 0.05, 0.15 * np.pi),
    ([-0.4109462595167411, 0.336332323624931, 0.8473510133789032],
     [-0.5959702283818983, 0.10073523903967213, 0.7966629767336049],
     1.1634405880532988, 0.1, 0.2 * np.pi),
]


@pytest.mark.parametrize("node, center, theta0, a, rho", _ENCLOSING_PLACEMENTS)
def test_enclosing_placements_cross_an_odd_number_of_times(node, center, theta0, a, rho):
    node, center = np.array(node), np.array(center)
    assert not rho < geoq.geodesic_distance(center, node) < np.pi - rho
    # criterion 3's arguments: merge_tol no longer merges anything
    n, _ = geoq.count_intersections(geoq.circle_with_radius(center, rho),
                                    geoq.spiral_for(node, a, theta0),
                                    step=np.pi / 300, merge_tol=np.pi / 150)
    assert n % 2 == 1


class TestLatitudeMeanLength:
    def test_quarter_pi_ratio_small(self):
        # E[sin(polar)] over the uniform sphere is pi/4
        rng = np.random.default_rng(7)
        pts = random_unit(rng, 4000)
        axis = np.array([0, 0, 1.0])
        total = 0.0
        for p in pts:
            c = geoq.latitude_circle(axis, p)
            total += geoq.sample(c, np.pi / 100).length()
        ratio = (total / len(pts)) / (2 * np.pi)
        assert ratio == pytest.approx(np.pi / 4, rel=0.02)


def test_rotation_to_south_pole():
    rng = np.random.default_rng(8)
    for p in random_unit(rng, 10):
        r = rotation_to_south_pole(p)
        assert np.allclose(r @ p, [0, 0, -1], atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.allclose(rotation_to_south_pole([0, 0, -1]), np.eye(3))
    r = rotation_to_south_pole([0, 0, 1])
    assert np.allclose(r @ np.array([0, 0, 1.0]), [0, 0, -1], atol=1e-12)


def test_perpendicular_basis():
    rng = np.random.default_rng(9)
    for p in random_unit(rng, 10):
        e1, e2 = perpendicular_basis(p)
        assert abs(float(e1 @ p)) < 1e-12
        assert abs(float(e2 @ p)) < 1e-12
        assert abs(float(e1 @ e2)) < 1e-12


class _ReferenceSpiral(geoq.SphericalSpiral):
    """The spiral's local points as first written, with cos(phi) twice."""

    def local_points(self, theta):
        phi = self.a * theta
        return np.stack([
            np.cos(theta + self.theta0) * np.cos(phi),
            np.sin(theta + self.theta0) * np.cos(phi),
            np.sin(phi),
        ], axis=-1)


def _reference_rotation_to_south_pole(node):
    node = np.asarray(node, dtype=float)
    target = np.array([0.0, 0.0, -1.0])
    v = np.cross(node, target)
    c = float(node @ target)
    s = float(np.linalg.norm(v))
    if s < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))


def test_spiral_construction_bit_identical_to_reference():
    # the written-out cross product and the single cos(phi) change no bit
    rng = np.random.default_rng(27)
    nodes = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                       random_unit(rng, 600)])
    for node in nodes:
        a = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.7]))
        theta0 = float(rng.uniform(0, 2 * np.pi))
        spiral = geoq.spiral_for(node, a, theta0)
        frame = _reference_rotation_to_south_pole(node)
        assert np.array_equal(spiral.frame, frame)
        ref = _ReferenceSpiral(frame=frame, a=a, theta0=theta0 % (2 * np.pi),
                               phi_range=spiral.phi_range)
        assert np.array_equal(geoq.sample(spiral, 0.05).points, geoq.sample(ref, 0.05).points)
