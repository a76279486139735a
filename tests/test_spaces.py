import math

import numpy as np
import pytest

from hypcrofton.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    form_coeffs,
)
from hypcrofton.spaces import (
    hyperbolic_distance_matrix,
    normalized_coords,
    projective_distance_matrix,
    random_coords,
    sphere_distance_matrix,
    unit_rows,
)
from reference import (
    DegenerateSegmentError,
    axis_point,
    geodesic_between,
    jordan_trace_distance,
    pair_distance,
    phase_shifted,
    random_isometry,
    real_coords,
)

ALL_FIELDS = [REAL, COMPLEX, QUATERNION]


def unit_phase(field, rng):
    k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
    lam = np.zeros(4)
    lam[:k] = rng.standard_normal(k)
    return lam / np.linalg.norm(lam)


class TestNormalizedCoords:
    def test_normalization(self):
        x = normalized_coords(real_coords([2.0, 1.0, 0.5]))
        assert form_coeffs(x, x)[0] == pytest.approx(-1, abs=1e-10)

    def test_rejects_positive_vector(self):
        with pytest.raises(ValueError):
            normalized_coords(real_coords([0.5, 1.0, 0.0]))

    @pytest.mark.parametrize("coords", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0]])
    def test_rejects_nan_coordinates(self, coords):
        with pytest.raises(ValueError):
            normalized_coords(real_coords(coords))


class TestHyperbolicDistance:
    def test_zero_for_same_point(self):
        x = axis_point(3, 0.0)
        assert pair_distance(REAL, x, x) == 0.0

    def test_axis_construction(self):
        x0 = axis_point(2, 0.0)
        y = axis_point(2, 1.0)
        assert pair_distance(REAL, x0, y) == pytest.approx(1.0, abs=1e-12)

    def test_cluster_cross_pair(self):
        x = [[3, 0, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0]]
        y = [[3, 0, 0, 0], [0, 0, 0, 0], [2, 0, 2, 0]]
        assert pair_distance(QUATERNION, x, y) == pytest.approx(np.arccosh(9),
                                                                abs=1e-12)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_metric_axioms_random_triples(self, field):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = random_coords(field, 3, 2.5, rng, 3)
            dab = pair_distance(field, a, b)
            dba = pair_distance(field, b, a)
            assert dab == dba
            assert dab + pair_distance(field, b, c) >= \
                pair_distance(field, a, c) - 1e-9

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance(self, field):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x, y = random_coords(field, 2, 2.0, rng, 2)
            xs = phase_shifted(x, unit_phase(field, rng))
            ys = phase_shifted(y, unit_phase(field, rng))
            assert pair_distance(field, xs, ys) == pytest.approx(
                pair_distance(field, x, y), abs=1e-12)


class TestProjectiveDistance:
    def test_known_pairs(self):
        p1, p2, q1 = [1, 0, 1], [1, 0, -1], [0, 1, 1]
        assert pair_distance("p", p1, q1) == pytest.approx(np.pi / 3, abs=1e-12)
        assert pair_distance("p", p1, p2) == pytest.approx(np.pi / 2, abs=1e-12)
        assert pair_distance("p", p1, p1) == pytest.approx(0.0, abs=1e-12)

    def test_sign_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert pair_distance("p", x, y) == pytest.approx(
                pair_distance("p", -x, y), abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert 0.0 <= pair_distance("p", x, y) <= np.pi / 2 + 1e-15


class TestSphereDistance:
    def test_endpoints(self):
        e1 = np.array([1.0, 0, 0])
        assert pair_distance("s", e1, e1) == 0.0
        assert pair_distance("s", e1, -e1) == pytest.approx(np.pi)
        assert pair_distance("s", e1, [0, 1, 0]) == pytest.approx(np.pi / 2)


class TestScaleFreeRows:
    """Rows at extreme scale, which plain norms and forms mishandled; the
    scale-free contract over every kind, and rows that are not finite, are
    tested with the CLI's point files in test_cli.TestScaleFreeRows."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.filterwarnings("error")
    def test_distances_at_extreme_scale(self, scale):
        # at 1e200 the norms overflowed: unit projective rows read [0, 0] and
        # both distances 0.0, and the form overflowed with a RuntimeWarning;
        # at 1e-200 the projective row was a "zero vector", the sphere
        # distance nan and the hyperbolic point "not a negative vector"
        x, y = [scale, scale], [scale, -scale]
        assert np.allclose(unit_rows(x, "projective"), [math.sqrt(0.5)] * 2,
                           rtol=1e-15, atol=0)
        assert pair_distance("p", x, y) == pytest.approx(np.pi / 2, rel=1e-15)
        assert pair_distance("s", [scale, scale], [scale, 0.0]) == pytest.approx(
            np.pi / 4, rel=1e-15)
        z = real_coords(scale * np.array([math.cosh(1), math.sinh(1), 0.0]))
        assert pair_distance(REAL, real_coords([1.0, 0.0, 0.0]), z) == \
            pytest.approx(1.0, rel=1e-15)


class TestDistanceMatrixKernels:
    """The batched kernels against the pair formulas, pair by pair.

    Hyperbolic distances are compared in cosh d = |<x, y>|, the sum both
    sides compute in a different order: arccosh near 1 magnifies last-digit
    differences, so close pairs far from the base point (d = 5e-4 at radius
    5) disagree by 5e-10 relative in d while cosh d agrees to 1e-15 of
    |x| |y|, the size of the terms summed.  Sphere distances are compared
    in cos d for the same reason.
    """

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_hyperbolic_matches_form_pair_by_pair(self, field):
        rng = np.random.default_rng(20)
        pts = normalized_coords(np.concatenate(
            [random_coords(field, 2, r, rng, 1) for r in np.linspace(0.0, 5.0, 12)]))
        D = hyperbolic_distance_matrix(pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i == j:
                    continue
                cosh_ref = float(np.linalg.norm(form_coeffs(x, y), axis=-1))
                tol = 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(np.cosh(D[i, j]) - cosh_ref) <= tol
                assert abs(np.cosh(pair_distance(field, x, y)) - cosh_ref) <= tol

    def test_projective_matches_formula_pair_by_pair(self):
        rng = np.random.default_rng(21)
        pts = unit_rows(rng.standard_normal((10, 3)), "projective")
        D = projective_distance_matrix(pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i == j:
                    continue
                inner = float(x @ y)
                ref = np.arctan2(np.linalg.norm(y - x * inner), abs(inner))
                assert D[i, j] == pytest.approx(ref, rel=1e-12)
                assert pair_distance("p", x, y) == pytest.approx(ref, rel=1e-12)

    def test_sphere_matches_formula_pair_by_pair(self):
        rng = np.random.default_rng(22)
        vecs = rng.standard_normal((10, 3)) * rng.uniform(0.5, 2.0, (10, 1))
        D = sphere_distance_matrix(unit_rows(vecs, "sphere"))
        units = [v / np.linalg.norm(v) for v in vecs]
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                cos_ref = float(units[i] @ units[j])
                assert abs(np.cos(D[i, j]) - cos_ref) <= 1e-12
                assert abs(np.cos(pair_distance("s", vecs[i], vecs[j]))
                           - cos_ref) <= 1e-12

    @pytest.mark.parametrize("d", [1e-12, 1e-9, 1e-7, 1.0, np.pi - 1e-7, np.pi])
    def test_sphere_short_and_near_antipodal_arcs(self, d):
        # arccos(x . y) read 1e-9 as 0 and 1e-7 as 9.996e-8
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([np.cos(d), np.sin(d), 0.0])
        assert pair_distance("s", x, y) == pytest.approx(d, rel=1e-12)
        assert pair_distance("s", 3.0 * x, 0.5 * y) == pytest.approx(d, rel=1e-12)

    def test_zero_diagonal_symmetry_and_stacking(self):
        rng = np.random.default_rng(23)
        hyper = normalized_coords(random_coords(QUATERNION, 3, 3.0, rng, 28)).reshape(
            4, 7, 4, 4)
        proj = unit_rows(rng.standard_normal((4, 7, 3)), "projective")
        sphere = unit_rows(rng.standard_normal((4, 7, 3)), "sphere")
        for kernel, coords in ((hyperbolic_distance_matrix, hyper),
                               (projective_distance_matrix, proj),
                               (sphere_distance_matrix, sphere)):
            D = kernel(coords)
            assert D.shape == (4, 7, 7)
            assert np.all(np.diagonal(D, axis1=-2, axis2=-1) == 0.0)
            assert np.array_equal(D, np.swapaxes(D, -1, -2))
            assert np.all(D[:, ~np.eye(7, dtype=bool)] > 0.0)
            for b in range(4):
                assert np.allclose(np.cos(D[b]), np.cos(kernel(coords[b])),
                                   rtol=0.0, atol=1e-14)

    def test_inconsistent_coordinates_raise(self):
        x0 = axis_point(2, 0.0)
        with pytest.raises(ArithmeticError):
            hyperbolic_distance_matrix(np.stack([x0, 0.5 * x0]))

    @pytest.mark.parametrize("field,n", [(REAL, 3), (COMPLEX, 2), (QUATERNION, 2)])
    def test_axis_pairs_bit_identical_to_scalar_formula(self, field, n):
        # the distances of the pairs a Crofton estimate is taken for
        x0 = axis_point(n, 0.0)
        for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            y = axis_point(n, d)
            mod = float(np.linalg.norm(form_coeffs(x0, y), axis=-1))
            D = hyperbolic_distance_matrix(np.stack([x0, y]))
            assert D[0, 1] == float(np.arccosh(max(mod, 1.0)))


class TestJordanTraceDistance:
    def test_same_point(self):
        x = [1, 2, 3]
        assert jordan_trace_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert jordan_trace_distance([1, 0, 0], [0, 1, 0]) == \
            pytest.approx(np.sqrt(2), abs=1e-12)

    def test_sixty_degree_pair(self):
        # cos theta = 1/2 so squared distance is 2 - 2/4
        assert jordan_trace_distance([1, 0, 1], [0, 1, 1]) == \
            pytest.approx(np.sqrt(1.5), abs=1e-12)

    def test_matches_projection_frobenius_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            x, y = unit_rows(rng.standard_normal((2, 3)), "projective")
            px = np.outer(x, x)
            py = np.outer(y, y)
            assert jordan_trace_distance(x, y) == pytest.approx(
                np.linalg.norm(px - py), abs=1e-10)


class TestGeodesics:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_endpoints_and_midpoint(self, field):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x, y = random_coords(field, 2, 2.0, rng, 2)
            seg = geodesic_between(field, x, y)
            assert seg.length == pytest.approx(pair_distance(field, x, y), abs=1e-10)
            assert pair_distance(field, seg.point(0.0), x) == pytest.approx(0, abs=1e-7)
            assert pair_distance(field, seg.point(seg.length), y) == \
                pytest.approx(0, abs=1e-7)
            mid = seg.point(seg.length / 2)
            assert pair_distance(field, mid, x) == pytest.approx(
                seg.length / 2, abs=1e-9)

    def test_degenerate(self):
        x = axis_point(2, 0.0)
        with pytest.raises(DegenerateSegmentError):
            geodesic_between(REAL, x, x)

    def test_unit_speed_additivity(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x, y = random_coords(COMPLEX, 3, 2.0, rng, 2)
            seg = geodesic_between(COMPLEX, x, y)
            s, t = sorted(rng.uniform(0, seg.length, 2))
            assert pair_distance(COMPLEX, seg.point(s), seg.point(t)) == \
                pytest.approx(t - s, abs=1e-9)

    def test_pairing_with_base(self):
        rng = np.random.default_rng(17)
        x, y = random_coords(QUATERNION, 2, 1.5, rng, 2)
        seg = geodesic_between(QUATERNION, x, y)
        for s in rng.uniform(0, 3, 5):
            pairing = form_coeffs(seg.point(s), seg.base)
            assert np.linalg.norm(pairing, axis=-1) == pytest.approx(
                np.cosh(s), rel=1e-10)

    def test_complex_phase_alignment(self):
        # <x, y> = i cosh 1; alignment must give <x, y_hat> = -cosh 1, L = 1
        x = axis_point(2, 0.0)
        y = np.zeros((3, 4))
        y[0, 1] = -np.cosh(1.0)  # y^0 = -i cosh 1 so that <x, y> = i cosh 1
        y[1, 0] = np.sinh(1.0)
        f = form_coeffs(x, y)
        assert f[1] == pytest.approx(np.cosh(1.0), abs=1e-12)
        seg = geodesic_between(COMPLEX, x, y)
        assert seg.length == pytest.approx(1.0, abs=1e-12)
        aligned = form_coeffs(x, seg.endpoint_coords())
        assert aligned[0] == pytest.approx(-np.cosh(1.0), abs=1e-10)
        assert np.allclose(aligned[1:], 0, atol=1e-10)


class TestRandomPoint:
    def test_radius_bound(self):
        rng = np.random.default_rng(18)
        x0 = axis_point(2, 0.0)
        for p in random_coords(QUATERNION, 2, 1.7, rng, 100):
            assert pair_distance(QUATERNION, x0, p) <= 1.7 + 1e-9

    def test_zero_radius(self):
        p = random_coords(REAL, 2, 0.0, np.random.default_rng(0), 1)[0]
        assert pair_distance(REAL, p, axis_point(2, 0.0)) == 0.0

    def test_seed_determinism(self):
        a = random_coords(COMPLEX, 3, 2.0, np.random.default_rng(99), 1)
        b = random_coords(COMPLEX, 3, 2.0, np.random.default_rng(99), 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_generator_calls_replayed_by_hand(self, field):
        # per point: an (n, k) normal for the direction, then one uniform;
        # the first rows of a longer draw are the points of a shorter one
        k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
        rng, replay = np.random.default_rng(24), np.random.default_rng(24)
        coords = random_coords(field, 3, 2.5, rng, 6)
        for c in coords:
            v = replay.standard_normal((3, k))
            s = replay.uniform(0.0, 2.5)
            expected = np.zeros((4, 4))
            expected[0, 0] = np.cosh(s)
            expected[1:, :k] = v / np.linalg.norm(v) * np.sinh(s)
            assert np.allclose(c, expected, rtol=1e-14, atol=0.0)
        assert rng.bit_generator.state == replay.bit_generator.state
        longer = random_coords(field, 3, 2.5, np.random.default_rng(24), 9)
        assert np.array_equal(longer[:6], coords)

    @pytest.mark.parametrize("field,n", [(REAL, 2), (COMPLEX, 3), (QUATERNION, 2),
                                         (REAL, 5)])
    def test_per_point_draws_replayed_bit_for_bit(self, field, n):
        # the per-point calls random_coords made before it drew flat normals
        # and radius * random(): an (n, k) normal, its norm from v.flat,
        # then uniform(0, radius); the same stream gives the same
        # coordinates bit for bit, and leaves the generator where they did
        k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
        count = 40
        for seed in range(5):
            for radius in (0.3, 2.0, 16.0):
                rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
                coords = random_coords(field, n, radius, rng, count)
                normals, radii = [], []
                for _ in range(count):
                    v = replay.standard_normal((n, k))
                    while math.hypot(*v.flat) < 1e-12:
                        v = replay.standard_normal((n, k))
                    normals.append(v)
                    radii.append(replay.uniform(0.0, radius))
                dirs = np.zeros((count, n, 4))
                dirs[:, :, :k] = normals
                norm = np.sqrt(np.sum(dirs**2, axis=(-2, -1)))
                s = np.array(radii)
                want = np.zeros((count, n + 1, 4))
                want[:, 0, 0] = np.cosh(s)
                want[:, 1:] = dirs / norm[:, None, None] * np.sinh(s)[:, None, None]
                assert np.array_equal(coords, want)
                assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("field,n,radius", [("p", 2, 1.0), ("x", 2, 1.0),
                                                (REAL, 0, 1.0), (REAL, 0, 0.0)])
    def test_unknown_space_rejected(self, field, n, radius):
        # only r, c and h are hyperbolic fields, and H^0 has no tangent
        # direction: its empty normal draw would be redrawn forever
        with pytest.raises(ValueError):
            random_coords(field, n, radius, np.random.default_rng(0), 1)

    def test_zero_radius_draws_nothing(self):
        rng = np.random.default_rng(25)
        state = rng.bit_generator.state
        coords = random_coords(QUATERNION, 2, 0.0, rng, 3)
        assert rng.bit_generator.state == state
        assert np.array_equal(coords, np.broadcast_to(axis_point(2, 0.0),
                                                      coords.shape))


class TestRandomIsometry:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_preserves_form(self, field):
        from hypcrofton.algebra import form_coeffs
        rng = np.random.default_rng(19)
        g = random_isometry(field, 2, rng)
        k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
        for _ in range(20):
            z = np.zeros((3, 4))
            w = np.zeros((3, 4))
            z[:, :k] = rng.standard_normal((3, k))
            w[:, :k] = rng.standard_normal((3, k))
            before = form_coeffs(z, w)
            after = form_coeffs(g.apply_coords(z), g.apply_coords(w))
            assert np.allclose(after, before, atol=1e-9 * max(1, np.abs(before).max()))

    def test_zero_perturbation_is_identity(self):
        g = random_isometry(REAL, 3, np.random.default_rng(0), scale=0.0)
        x = axis_point(3, 1.3)
        assert pair_distance(REAL, g @ x, x) == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_distance_invariance(self, field):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_isometry(field, 2, rng)
            x, y = random_coords(field, 2, 2.0, rng, 2)
            assert abs(pair_distance(field, g @ x, g @ y)
                       - pair_distance(field, x, y)) <= 1e-8

    def test_moves_base_point(self):
        rng = np.random.default_rng(21)
        moved = 0
        x0 = axis_point(2, 0.0)
        for _ in range(10):
            g = random_isometry(REAL, 2, rng)
            if pair_distance(REAL, g @ x0, x0) > 0.05:
                moved += 1
        assert moved >= 8  # boosts are actually exercised
