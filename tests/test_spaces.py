import numpy as np
import pytest

from hypcrofton.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    HermitianSpace,
    Quaternion,
    form_coeffs,
    qnorm,
)
from hypcrofton.spaces import (
    DegenerateSegmentError,
    HPoint,
    PPoint,
    base_point,
    geodesic_between,
    hyperbolic_distance,
    hyperbolic_distance_matrix,
    jordan_trace_distance,
    projective_distance,
    projective_distance_matrix,
    random_coords,
    random_isometry,
    random_point,
    sphere_distance,
    sphere_distance_matrix,
)

ALL_FIELDS = [REAL, COMPLEX, QUATERNION]


def axis_point(space, d):
    c = np.zeros((space.dim, 4))
    c[0, 0] = np.cosh(d)
    c[1, 0] = np.sinh(d)
    return HPoint(space, c)


def unit_phase(field, rng):
    k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
    lam = np.zeros(4)
    lam[:k] = rng.standard_normal(k)
    return lam / np.linalg.norm(lam)


class TestHPoint:
    def test_normalization(self):
        space = HermitianSpace(REAL, 2)
        x = HPoint(space, [2.0, 1.0, 0.5])
        from hypcrofton.algebra import form_coeffs
        assert form_coeffs(x.coords, x.coords)[0] == pytest.approx(-1, abs=1e-10)

    def test_rejects_positive_vector(self):
        space = HermitianSpace(REAL, 2)
        with pytest.raises(ValueError):
            HPoint(space, [0.5, 1.0, 0.0])

    @pytest.mark.parametrize("coords", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0]])
    def test_rejects_nan_coordinates(self, coords):
        with pytest.raises(ValueError):
            HPoint(HermitianSpace(REAL, 2), coords)

    def test_immutable(self):
        x = base_point(HermitianSpace(REAL, 2))
        with pytest.raises(AttributeError):
            x.space = None
        with pytest.raises(ValueError):
            x.coords[0, 0] = 2.0


class TestHyperbolicDistance:
    def test_zero_for_same_point(self):
        x = base_point(HermitianSpace(REAL, 3))
        assert hyperbolic_distance(x, x) == 0.0

    def test_axis_construction(self):
        space = HermitianSpace(REAL, 2)
        x0 = base_point(space)
        y = axis_point(space, 1.0)
        assert hyperbolic_distance(x0, y) == pytest.approx(1.0, abs=1e-12)

    def test_cluster_cross_pair(self):
        space = HermitianSpace(QUATERNION, 2)
        zero = Quaternion()
        x = HPoint(space, [Quaternion(3), Quaternion(2, 2, 0, 0), zero])
        y = HPoint(space, [Quaternion(3), zero, Quaternion(2, 0, 2, 0)])
        assert hyperbolic_distance(x, y) == pytest.approx(np.arccosh(9), abs=1e-12)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_metric_axioms_random_triples(self, field):
        space = HermitianSpace(field, 3)
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b, c = (random_point(space, 2.5, rng) for _ in range(3))
            dab = hyperbolic_distance(a, b)
            dba = hyperbolic_distance(b, a)
            assert dab == dba
            assert dab + hyperbolic_distance(b, c) >= \
                hyperbolic_distance(a, c) - 1e-9

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance(self, field):
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = random_point(space, 2.0, rng)
            y = random_point(space, 2.0, rng)
            xs = x.phase_shifted(unit_phase(field, rng))
            ys = y.phase_shifted(unit_phase(field, rng))
            assert hyperbolic_distance(xs, ys) == pytest.approx(
                hyperbolic_distance(x, y), abs=1e-12)


class TestProjectiveDistance:
    def test_known_pairs(self):
        p1 = PPoint([1, 0, 1])
        p2 = PPoint([1, 0, -1])
        q1 = PPoint([0, 1, 1])
        assert projective_distance(p1, q1) == pytest.approx(np.pi / 3, abs=1e-12)
        assert projective_distance(p1, p2) == pytest.approx(np.pi / 2, abs=1e-12)
        assert projective_distance(p1, p1) == pytest.approx(0.0, abs=1e-12)

    def test_sign_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x = PPoint(rng.standard_normal(3))
            y = PPoint(rng.standard_normal(3))
            assert projective_distance(x, y) == pytest.approx(
                projective_distance(PPoint(-x.coords), y), abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = PPoint(rng.standard_normal(4))
            y = PPoint(rng.standard_normal(4))
            assert 0.0 <= projective_distance(x, y) <= np.pi / 2 + 1e-15


class TestSphereDistance:
    def test_endpoints(self):
        e1 = np.array([1.0, 0, 0])
        assert sphere_distance(e1, e1) == 0.0
        assert sphere_distance(e1, -e1) == pytest.approx(np.pi)
        assert sphere_distance(e1, [0, 1, 0]) == pytest.approx(np.pi / 2)


class TestDistanceMatrixKernels:
    """The batched kernels against the scalar formulas, pair by pair.

    Hyperbolic distances are compared in cosh d = |<x, y>|, the sum both
    sides compute in a different order: arccosh near 1 magnifies last-digit
    differences, so close pairs far from the base point (d = 5e-4 at radius
    5) disagree by 5e-10 relative in d while cosh d agrees to 1e-15 of
    |x| |y|, the size of the terms summed.  Sphere distances are compared
    in cos d for the same reason.
    """

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_hyperbolic_matches_form_pair_by_pair(self, field):
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(20)
        pts = [random_point(space, r, rng) for r in np.linspace(0.0, 5.0, 12)]
        D = hyperbolic_distance_matrix(np.stack([p.coords for p in pts]))
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i == j:
                    continue
                cosh_ref = float(qnorm(form_coeffs(x.coords, y.coords)))
                tol = 1e-12 * np.linalg.norm(x.coords) * np.linalg.norm(y.coords)
                assert abs(np.cosh(D[i, j]) - cosh_ref) <= tol
                assert abs(np.cosh(hyperbolic_distance(x, y)) - cosh_ref) <= tol

    def test_projective_matches_formula_pair_by_pair(self):
        rng = np.random.default_rng(21)
        pts = [PPoint(rng.standard_normal(3)) for _ in range(10)]
        D = projective_distance_matrix(np.stack([p.coords for p in pts]))
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                if i == j:
                    continue
                inner = float(x.coords @ y.coords)
                ref = np.arctan2(np.linalg.norm(y.coords - x.coords * inner),
                                 abs(inner))
                assert D[i, j] == pytest.approx(ref, rel=1e-12)
                assert projective_distance(x, y) == pytest.approx(ref, rel=1e-12)

    def test_sphere_matches_formula_pair_by_pair(self):
        rng = np.random.default_rng(22)
        vecs = rng.standard_normal((10, 3)) * rng.uniform(0.5, 2.0, (10, 1))
        D = sphere_distance_matrix(vecs)
        units = [v / np.linalg.norm(v) for v in vecs]
        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                cos_ref = float(units[i] @ units[j])
                assert abs(np.cos(D[i, j]) - cos_ref) <= 1e-12
                assert abs(np.cos(sphere_distance(vecs[i], vecs[j])) - cos_ref) <= 1e-12

    def test_zero_diagonal_symmetry_and_stacking(self):
        rng = np.random.default_rng(23)
        space = HermitianSpace(QUATERNION, 3)
        hyper = np.array([[random_point(space, 3.0, rng).coords for _ in range(7)]
                          for _ in range(4)])
        proj = np.array([[PPoint(v).coords for v in rng.standard_normal((7, 3))]
                         for _ in range(4)])
        sphere = rng.standard_normal((4, 7, 3))
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
        x0 = base_point(HermitianSpace(REAL, 2)).coords
        with pytest.raises(ArithmeticError):
            hyperbolic_distance_matrix(np.stack([x0, 0.5 * x0]))

    @pytest.mark.parametrize("field,n", [(REAL, 3), (COMPLEX, 2), (QUATERNION, 2)])
    def test_axis_pairs_bit_identical_to_scalar_formula(self, field, n):
        # the Crofton estimators take d from these pairs
        space = HermitianSpace(field, n)
        x0 = base_point(space)
        for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            y = axis_point(space, d)
            mod = float(qnorm(form_coeffs(x0.coords, y.coords)))
            assert hyperbolic_distance(x0, y) == float(np.arccosh(max(mod, 1.0)))


class TestJordanTraceDistance:
    def test_same_point(self):
        x = PPoint([1, 2, 3])
        assert jordan_trace_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert jordan_trace_distance(PPoint([1, 0, 0]), PPoint([0, 1, 0])) == \
            pytest.approx(np.sqrt(2), abs=1e-12)

    def test_sixty_degree_pair(self):
        # cos theta = 1/2 so squared distance is 2 - 2/4
        x = PPoint([1, 0, 1])
        y = PPoint([0, 1, 1])
        assert jordan_trace_distance(x, y) == pytest.approx(np.sqrt(1.5), abs=1e-12)

    def test_matches_projection_frobenius_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            x = PPoint(rng.standard_normal(3))
            y = PPoint(rng.standard_normal(3))
            px = np.outer(x.coords, x.coords)
            py = np.outer(y.coords, y.coords)
            assert jordan_trace_distance(x, y) == pytest.approx(
                np.linalg.norm(px - py), abs=1e-10)


class TestGeodesics:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_endpoints_and_midpoint(self, field):
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = random_point(space, 2.0, rng)
            y = random_point(space, 2.0, rng)
            seg = geodesic_between(x, y)
            assert seg.length == pytest.approx(hyperbolic_distance(x, y), abs=1e-10)
            assert hyperbolic_distance(seg.point(0.0), x) == pytest.approx(0, abs=1e-7)
            assert hyperbolic_distance(seg.point(seg.length), y) == \
                pytest.approx(0, abs=1e-7)
            mid = seg.point(seg.length / 2)
            assert hyperbolic_distance(mid, x) == pytest.approx(
                seg.length / 2, abs=1e-9)

    def test_degenerate(self):
        x = base_point(HermitianSpace(REAL, 2))
        with pytest.raises(DegenerateSegmentError):
            geodesic_between(x, x)

    def test_unit_speed_additivity(self):
        space = HermitianSpace(COMPLEX, 3)
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = random_point(space, 2.0, rng)
            y = random_point(space, 2.0, rng)
            seg = geodesic_between(x, y)
            s, t = sorted(rng.uniform(0, seg.length, 2))
            assert hyperbolic_distance(seg.point(s), seg.point(t)) == \
                pytest.approx(t - s, abs=1e-9)

    def test_pairing_with_base(self):
        space = HermitianSpace(QUATERNION, 2)
        rng = np.random.default_rng(17)
        from hypcrofton.algebra import form_coeffs, qnorm
        x = random_point(space, 1.5, rng)
        y = random_point(space, 1.5, rng)
        seg = geodesic_between(x, y)
        for s in rng.uniform(0, 3, 5):
            p = seg.point(s).coords
            assert qnorm(form_coeffs(p, seg.base)) == pytest.approx(
                np.cosh(s), rel=1e-10)

    def test_complex_phase_alignment(self):
        # <x, y> = i cosh 1; alignment must give <x, y_hat> = -cosh 1, L = 1
        space = HermitianSpace(COMPLEX, 2)
        x = base_point(space)
        c = np.zeros((3, 4))
        c[0, 1] = -np.cosh(1.0)  # x^0 = -i cosh 1 so that <x, y> = i cosh 1
        c[1, 0] = np.sinh(1.0)
        y = HPoint(space, c)
        from hypcrofton.algebra import form_coeffs
        f = form_coeffs(x.coords, y.coords)
        assert f[1] == pytest.approx(np.cosh(1.0), abs=1e-12)
        seg = geodesic_between(x, y)
        assert seg.length == pytest.approx(1.0, abs=1e-12)
        aligned = form_coeffs(x.coords, seg.endpoint_coords())
        assert aligned[0] == pytest.approx(-np.cosh(1.0), abs=1e-10)
        assert np.allclose(aligned[1:], 0, atol=1e-10)


class TestRandomPoint:
    def test_radius_bound(self):
        space = HermitianSpace(QUATERNION, 2)
        rng = np.random.default_rng(18)
        x0 = base_point(space)
        for _ in range(100):
            p = random_point(space, 1.7, rng)
            assert hyperbolic_distance(x0, p) <= 1.7 + 1e-9

    def test_zero_radius(self):
        space = HermitianSpace(REAL, 2)
        p = random_point(space, 0.0, np.random.default_rng(0))
        assert hyperbolic_distance(p, base_point(space)) == 0.0

    def test_seed_determinism(self):
        space = HermitianSpace(COMPLEX, 3)
        a = random_point(space, 2.0, np.random.default_rng(99))
        b = random_point(space, 2.0, np.random.default_rng(99))
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_generator_calls_replayed_by_hand(self, field):
        # per point: an (n, k) normal for the direction, then one uniform
        space = HermitianSpace(field, 3)
        k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
        rng, replay = np.random.default_rng(24), np.random.default_rng(24)
        coords = random_coords(space, 2.5, rng, 6)
        for c in coords:
            v = replay.standard_normal((3, k))
            s = replay.uniform(0.0, 2.5)
            expected = np.zeros((4, 4))
            expected[0, 0] = np.cosh(s)
            expected[1:, :k] = v / np.linalg.norm(v) * np.sinh(s)
            assert np.allclose(c, expected, rtol=1e-14, atol=0.0)
        assert rng.bit_generator.state == replay.bit_generator.state
        point = random_point(space, 2.5, rng)
        assert np.array_equal(point.coords,
                              HPoint(space, random_coords(space, 2.5, replay, 1)[0]).coords)

    def test_zero_radius_draws_nothing(self):
        space = HermitianSpace(QUATERNION, 2)
        rng = np.random.default_rng(25)
        state = rng.bit_generator.state
        coords = random_coords(space, 0.0, rng, 3)
        assert rng.bit_generator.state == state
        assert np.array_equal(coords, np.broadcast_to(base_point(space).coords, coords.shape))


class TestRandomIsometry:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_preserves_form(self, field):
        from hypcrofton.algebra import form_coeffs
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(19)
        g = random_isometry(space, rng)
        k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
        for _ in range(20):
            z = np.zeros((space.dim, 4))
            w = np.zeros((space.dim, 4))
            z[:, :k] = rng.standard_normal((space.dim, k))
            w[:, :k] = rng.standard_normal((space.dim, k))
            before = form_coeffs(z, w)
            after = form_coeffs(g.apply_coords(z), g.apply_coords(w))
            assert np.allclose(after, before, atol=1e-9 * max(1, np.abs(before).max()))

    def test_zero_perturbation_is_identity(self):
        space = HermitianSpace(REAL, 3)
        g = random_isometry(space, np.random.default_rng(0), scale=0.0)
        x = axis_point(space, 1.3)
        assert hyperbolic_distance(g @ x, x) == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_distance_invariance(self, field):
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_isometry(space, rng)
            x = random_point(space, 2.0, rng)
            y = random_point(space, 2.0, rng)
            assert abs(hyperbolic_distance(g @ x, g @ y)
                       - hyperbolic_distance(x, y)) <= 1e-8

    def test_moves_base_point(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(21)
        moved = 0
        for _ in range(10):
            g = random_isometry(space, rng)
            if hyperbolic_distance(g @ base_point(space), base_point(space)) > 0.05:
                moved += 1
        assert moved >= 8  # boosts are actually exercised
