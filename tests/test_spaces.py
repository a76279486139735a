import math
import random

import numpy as np
import pytest

from hypcrofton.algebra import (
    COMPLEX,
    CONJ_MUL,
    CONJ_SIGNS,
    FIELD_DIM,
    QUATERNION,
    REAL,
)
from hypcrofton import spaces
from hypcrofton.spaces import (
    _block_rows,
    _form_rows,
    hyperbolic_distance_matrix,
    normalized_coords,
    projective_distance_matrix,
    random_coords,
    random_normals,
    sphere_distance_matrix,
    unit_rows,
)
from reference import (
    DegenerateSegmentError,
    axis_point,
    form_coeffs,
    geodesic_between,
    jordan_trace_distance,
    pair_distance,
    phase_shifted,
    random_isometry,
    real_coords,
    unblocked_angle_distances,
    unblocked_hyperbolic_distances,
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
        stream = random.Random(10)
        for _ in range(50):
            a, b, c = random_coords(field, 3, 2.5, stream, 3)
            dab = pair_distance(field, a, b)
            dba = pair_distance(field, b, a)
            assert dab == dba
            assert dab + pair_distance(field, b, c) >= \
                pair_distance(field, a, c) - 1e-9

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance(self, field):
        rng = np.random.default_rng(11)
        stream = random.Random(11)
        for _ in range(30):
            x, y = random_coords(field, 2, 2.0, stream, 2)
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
        stream = random.Random(20)
        pts = normalized_coords(np.concatenate(
            [random_coords(field, 2, r, stream, 1) for r in np.linspace(0.0, 5.0, 12)]))
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
        stream = random.Random(23)
        hyper = normalized_coords(random_coords(QUATERNION, 3, 3.0, stream, 28)).reshape(
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

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_form_rows_match_the_einsum(self, field):
        # the one matrix product with CONJ_MUL gives the three-operand
        # einsum's entries bit for bit, stacked or not: each entry is a
        # single +-x term
        coords = random_coords(field, 3, 3.0, random.Random(29), 5 * 7)
        X = normalized_coords(coords).reshape(5, 7, 4, 4)
        signs = np.array([-1.0, 1.0, 1.0, 1.0])
        for block in (X, X[0]):
            einsum = np.einsum("...ikp,k,pqc->...ickq", block, signs, CONJ_MUL)
            assert np.array_equal(_form_rows(block), einsum)

    def test_inconsistent_coordinates_raise(self):
        x0 = axis_point(2, 0.0)
        with pytest.raises(ValueError, match="cannot be resolved"):
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


class TestBlockedHyperbolicKernel:
    """hyperbolic_distance_matrix runs in blocks of rows; the unblocked
    formula of the reference is its oracle."""

    @staticmethod
    def points(field, m, radius=3.0, seed=30, shape=None):
        coords = normalized_coords(
            random_coords(field, 2, radius, random.Random(seed), m))
        return coords if shape is None else coords.reshape(*shape, 3, 4)

    @staticmethod
    def check(coords):
        D = hyperbolic_distance_matrix(coords)
        assert np.array_equal(D, np.swapaxes(D, -1, -2))
        assert np.all(np.diagonal(D, axis1=-2, axis2=-1) == 0.0)
        ref = unblocked_hyperbolic_distances(coords)
        # compared in cosh d, whose summed terms are about |x| |y| <= 100
        np.testing.assert_allclose(np.cosh(D), np.cosh(ref), rtol=1e-13)
        return D

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_block_edges(self, field, monkeypatch):
        monkeypatch.setattr(spaces, "BLOCK_BYTES", 1)
        rows = _block_rows(1, 64, 9)
        assert rows == 16
        for m in (1, 2, rows - 1, rows, rows + 1, 3 * rows + 5):
            D = self.check(self.points(field, m))
            assert D.shape == (m, m)

    def test_stacked_batch_in_blocks(self, monkeypatch):
        monkeypatch.setattr(spaces, "BLOCK_BYTES", 72 * 3 * 40 * 16)
        assert _block_rows(3, 40, 9) == 16
        coords = self.points(QUATERNION, 3 * 40, shape=(3, 40))
        D = self.check(coords)
        for b in range(3):
            np.testing.assert_allclose(np.cosh(D[b]), np.cosh(
                hyperbolic_distance_matrix(coords[b])), rtol=1e-13)

    def test_default_budget(self):
        rows = _block_rows(1, 200, 9)
        assert 16 <= rows < 200 and rows % 16 == 0
        self.check(self.points(COMPLEX, 200))

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_points_at_radius_16(self, field):
        # out there |<x, x>|^2 rounds far from 1, to 0.996 for one of these
        # points over R: the resolution check skips the diagonal
        stream = random.Random(31)
        coords = normalized_coords(np.concatenate(
            [random_coords(field, 2, 16.0, stream, 40), axis_point(2, 16.0)[None]]))
        m = len(coords)
        gram = (_form_rows(coords).reshape(m * 4, 12) @ coords.reshape(m, 12).T)
        gram = gram.reshape(m, 4, m)
        own = np.einsum("ici,c,ici->i", gram, CONJ_SIGNS, gram)
        assert own.min() < 1.0 - 1e-4
        D = hyperbolic_distance_matrix(coords)
        assert np.all(np.diagonal(D) == 0.0)
        assert np.all(np.isfinite(D))


class TestBlockedAngleKernels:
    """projective_distance_matrix and sphere_distance_matrix run in blocks
    of rows; the pair-gathering formula of the reference is their oracle,
    to the bit."""

    KERNELS = [(projective_distance_matrix, True), (sphere_distance_matrix, False)]

    @staticmethod
    def rows(count, n, seed=32):
        return unit_rows(random_normals(random.Random(seed), count, n + 1), "s")

    @staticmethod
    def check(kernel, fold, X):
        D = kernel(X)
        assert np.array_equal(D, unblocked_angle_distances(X, fold))
        assert np.array_equal(D, np.swapaxes(D, -1, -2))
        assert np.all(np.diagonal(D, axis1=-2, axis2=-1) == 0.0)
        return D

    @pytest.mark.parametrize("kernel, fold", KERNELS)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_block_edges(self, kernel, fold, n, monkeypatch):
        monkeypatch.setattr(spaces, "BLOCK_BYTES", 1)
        assert _block_rows(1, 53, 2 * (n + 1) + 3) == 16
        for m in (1, 2, 15, 16, 17, 53):
            self.check(kernel, fold, self.rows(m, n))

    @pytest.mark.parametrize("kernel, fold", KERNELS)
    def test_stacked_batch_in_blocks(self, kernel, fold, monkeypatch):
        monkeypatch.setattr(spaces, "BLOCK_BYTES", 1)
        X = self.rows(5 * 30, 3).reshape(5, 30, 4)
        D = self.check(kernel, fold, X)
        for b in range(5):
            assert np.array_equal(D[b], kernel(X[b]))


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
        stream = random.Random(15)
        for _ in range(20):
            x, y = random_coords(field, 2, 2.0, stream, 2)
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
        stream = random.Random(16)
        for _ in range(20):
            x, y = random_coords(COMPLEX, 3, 2.0, stream, 2)
            seg = geodesic_between(COMPLEX, x, y)
            s, t = sorted(rng.uniform(0, seg.length, 2))
            assert pair_distance(COMPLEX, seg.point(s), seg.point(t)) == \
                pytest.approx(t - s, abs=1e-9)

    def test_pairing_with_base(self):
        rng = np.random.default_rng(17)
        stream = random.Random(17)
        x, y = random_coords(QUATERNION, 2, 1.5, stream, 2)
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


class Uniforms:
    """A stream whose draws are the given uniforms in order, each a value
    random() can return, j 2^-53 for an integer j < 2^53: randbytes gives
    the two 32-bit words of each, a = (j >> 26) << 5 and b = (j mod 2^26)
    << 6, from which random.Random makes its doubles."""

    def __init__(self, values):
        self.values = iter(values)

    def randbytes(self, size):
        words = []
        for _ in range(size // 8):
            j = next(self.values) * 2.0**53
            assert j == int(j), "not a value random() returns"
            words += [(int(j) >> 26) << 5, (int(j) % 2**26) << 6]
        return np.array(words, dtype="<u4").tobytes()


def box_muller_by_hand(stream, size):
    """`size` normals from ceil(size/2) (u, v) pairs of stream.random()."""
    normals = []
    for _ in range(-(-size // 2)):
        u, v = stream.random(), stream.random()
        r = math.sqrt(-2.0 * math.log1p(-u))
        normals += [r * math.cos(2.0 * math.pi * v), r * math.sin(2.0 * math.pi * v)]
    return normals[:size]


class TestRandomPoint:
    def test_radius_bound(self):
        x0 = axis_point(2, 0.0)
        for p in random_coords(QUATERNION, 2, 1.7, random.Random(18), 100):
            assert pair_distance(QUATERNION, x0, p) <= 1.7 + 1e-9

    def test_zero_radius(self):
        p = random_coords(REAL, 2, 0.0, random.Random(0), 1)[0]
        assert pair_distance(REAL, p, axis_point(2, 0.0)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    @pytest.mark.parametrize("rows,width", [(0, 3), (3, 0), (1, 1), (1, 2),
                                            (7, 1), (5, 13), (3600, 12)])
    def test_uniforms_are_random_bit_for_bit(self, seed, rows, width):
        # the bulk draw is random()'s values, row after row, bit for bit,
        # and leaves the stream where those calls would
        stream, replay = random.Random(seed), random.Random(seed)
        got = spaces._uniform_rows(stream, rows, width)
        want = np.array([replay.random() for _ in range(rows * width)],
                        dtype=float).reshape(rows, width)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        assert stream.getstate() == replay.getstate()

    def test_seed_determinism(self):
        a = random_coords(COMPLEX, 3, 2.0, random.Random(99), 1)
        b = random_coords(COMPLEX, 3, 2.0, random.Random(99), 1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_generator_calls_replayed_by_hand(self, field):
        # per point: a (u, v) pair of uniforms for each two of its n k
        # normals, then one uniform for its radius; math's log1p, cos and
        # sin may round an ulp away from numpy's
        k = FIELD_DIM[field]
        stream, replay = random.Random(24), random.Random(24)
        coords = random_coords(field, 3, 2.5, stream, 6)
        for c in coords:
            v = np.reshape(box_muller_by_hand(replay, 3 * k), (3, k))
            s = 2.5 * replay.random()
            expected = np.zeros((4, 4))
            expected[0, 0] = np.cosh(s)
            expected[1:, :k] = v / np.linalg.norm(v) * np.sinh(s)
            assert np.allclose(c, expected, rtol=1e-14, atol=0.0)
        assert stream.getstate() == replay.getstate()

    @pytest.mark.parametrize("field,n", [(REAL, 2), (COMPLEX, 3), (QUATERNION, 2),
                                         (REAL, 5)])
    def test_per_point_draws_replayed_bit_for_bit(self, field, n):
        # each point's uniforms, taken from the stream by hand and turned
        # into its coordinates on their own, give the one-pass draw's
        # coordinates bit for bit, and leave the stream where it did
        k = FIELD_DIM[field]
        width = 2 * -(-n * k // 2) + 1
        count = 40
        for seed in range(5):
            for radius in (0.3, 2.0, 16.0):
                stream, replay = random.Random(seed), random.Random(seed)
                coords = random_coords(field, n, radius, stream, count)
                for c in coords:
                    u = np.array([replay.random() for _ in range(width)])
                    r = np.sqrt(-2.0 * np.log1p(-u[0:-1:2]))
                    angle = 2.0 * math.pi * u[1:-1:2]
                    normals = np.stack((r * np.cos(angle), r * np.sin(angle)), axis=-1)
                    v = np.zeros((n, 4))
                    v[:, :k] = normals.reshape(-1)[:n * k].reshape(n, k)
                    s = radius * u[-1]
                    want = np.zeros((n + 1, 4))
                    want[0, 0] = np.cosh(s)
                    want[1:] = v / np.sqrt(np.sum(v**2)) * np.sinh(s)
                    assert np.array_equal(c, want)
                assert stream.getstate() == replay.getstate()

    @pytest.mark.parametrize("field,n", [(REAL, 1), (COMPLEX, 1), (QUATERNION, 3)])
    def test_first_rows_of_a_larger_count(self, field, n):
        # a block is drawn in one pass, and its first rows are the points
        # a smaller count draws from the same stream, with the stream left
        # after the smaller count's calls
        width = 2 * -(-n * FIELD_DIM[field] // 2) + 1
        longer = random_coords(field, n, 3.0, random.Random(5), 97)
        for count in (0, 1, 2, 31, 96):
            stream, replay = random.Random(5), random.Random(5)
            assert np.array_equal(random_coords(field, n, 3.0, stream, count),
                                  longer[:count])
            for _ in range(count * width):
                replay.random()
            assert stream.getstate() == replay.getstate()

    @pytest.mark.parametrize("field,n", [(REAL, 1), (REAL, 3), (COMPLEX, 2),
                                         (QUATERNION, 2)])
    def test_direction_and_radius_law(self, field, n):
        # directions uniform on the unit sphere of R^(n k): mean 0 and
        # second moment I / (n k), here within 5 sigma; radii uniform on
        # [0, radius]
        from scipy import stats

        size, count, radius = n * FIELD_DIM[field], 20_000, 2.0
        coords = random_coords(field, n, radius, random.Random(26), count)
        tangent = coords[:, 1:, :FIELD_DIM[field]].reshape(count, size)
        s = np.arcsinh(np.linalg.norm(tangent, axis=-1))
        dirs = tangent / np.sinh(s)[:, None]
        assert np.abs(dirs.mean(axis=0)).max() < 5.0 / math.sqrt(size * count)
        second = dirs.T @ dirs / count
        sigma = math.sqrt(3.0 / (size * (size + 2)) / count)
        assert np.abs(second - np.eye(size) / size).max() < 5.0 * sigma
        assert stats.kstest(s, "uniform", args=(0.0, radius)).pvalue > 1e-3

    def test_one_normal_per_point(self):
        # n k = 1: the direction is the sign of one normal, from a (u, v)
        # pair whose sine is dropped
        coords = random_coords(REAL, 1, 1.5, random.Random(27), 4000)
        s = np.arcsinh(np.abs(coords[:, 1, 0]))
        assert np.array_equal(coords[:, 1, 1:], np.zeros((4000, 3)))
        assert np.allclose(coords[:, 0, 0], np.cosh(s), rtol=1e-15)
        assert abs(np.mean(coords[:, 1, 0] > 0) - 0.5) < 5 * 0.5 / math.sqrt(4000)
        replay = random.Random(27)
        for c in coords[:3]:
            z = box_muller_by_hand(replay, 1)[0]
            r = 1.5 * replay.random()
            assert c[1, 0] == pytest.approx(math.copysign(math.sinh(r), z), rel=1e-15)

    @pytest.mark.parametrize("field,n", [(REAL, 1), (QUATERNION, 1), (COMPLEX, 3)])
    def test_zero_normals_give_first_axis(self, field, n):
        # all-zero normals (u = 0 in every pair) have no direction: the
        # point goes along the first tangent axis; v and the radius's
        # uniform still count
        pairs = -(-n * FIELD_DIM[field] // 2)
        uniforms = [value for _ in range(pairs) for value in (0.0, 0.375)]
        coords = random_coords(field, n, 2.0, Uniforms(uniforms + [0.25]), 1)
        want = np.zeros((1, n + 1, 4))
        want[0, 0, 0], want[0, 1, 0] = np.cosh(0.5), np.sinh(0.5)
        assert np.array_equal(coords, want)

    def test_normal_rows_law(self):
        # the rows kind p draws: standard normal columns, here within 5
        # sigma in mean and second moment, and by a KS test; an odd width
        # drops each row's last sine
        from scipy import stats

        count = 20_000
        z = random_normals(random.Random(28), count, 3)
        assert np.abs(z.mean(axis=0)).max() < 5.0 / math.sqrt(count)
        assert np.abs(z.T @ z / count - np.eye(3)).max() < 5.0 * math.sqrt(2.0 / count)
        for column in z.T:
            assert stats.kstest(column, "norm").pvalue > 1e-3
        replay = random.Random(28)
        assert np.allclose(z[0], box_muller_by_hand(replay, 3), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("field,n,radius", [("p", 2, 1.0), ("x", 2, 1.0),
                                                (REAL, 0, 1.0), (REAL, 0, 0.0)])
    def test_unknown_space_rejected(self, field, n, radius):
        # only r, c and h are hyperbolic fields, and H^0 has no tangent
        # direction
        with pytest.raises(ValueError):
            random_coords(field, n, radius, random.Random(0), 1)

    def test_zero_radius_draws_nothing(self):
        stream = random.Random(25)
        state = stream.getstate()
        coords = random_coords(QUATERNION, 2, 0.0, stream, 3)
        assert stream.getstate() == state
        assert np.array_equal(coords, np.broadcast_to(axis_point(2, 0.0),
                                                      coords.shape))


class TestRandomIsometry:
    @pytest.mark.parametrize("field", ALL_FIELDS)
    def test_preserves_form(self, field):
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
        stream = random.Random(20)
        for _ in range(10):
            g = random_isometry(field, 2, rng)
            x, y = random_coords(field, 2, 2.0, stream, 2)
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
