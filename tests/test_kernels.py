import numpy as np
import pytest

from hypcrofton.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    DimensionMismatchError,
    HermitianSpace,
)
from hypcrofton.configurations import (
    SPLIT_COEFFICIENTS,
    cluster_sums,
    projective_six_points,
    quaternionic_cluster_points,
)
from hypcrofton.kernels import (
    NotNegativeTypeError,
    _block_trials,
    build_distance_matrix,
    hypermetric_scan,
    negative_type_witness,
    quadratic_form,
    sqrt_embed,
    violation_search,
)
from hypcrofton.spaces import PPoint, jordan_trace_distance, random_point


@pytest.fixture(scope="module")
def projective_D():
    return build_distance_matrix(projective_six_points())


@pytest.fixture(scope="module")
def cluster_D():
    return build_distance_matrix(quaternionic_cluster_points())


def euclidean_D(points):
    pts = np.asarray(points)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


class TestQuadraticForm:
    def test_zero_coefficients(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert quadratic_form(D, [0, 0]) == 0.0

    def test_two_points(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert quadratic_form(D, [1, -1]) == -6.0

    def test_projective_split(self, projective_D):
        q = quadratic_form(projective_D, SPLIT_COEFFICIENTS)
        assert q == pytest.approx(np.pi / 3, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_form(np.zeros((3, 3)), [1, -1])

    def test_scale_equivariance(self, projective_D):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(6)
        t -= t.mean()
        for c in (0.5, 2.0, 10.0):
            assert quadratic_form(c * projective_D, t) == pytest.approx(
                c * quadratic_form(projective_D, t), rel=1e-14)


class TestNegativeTypeWitness:
    def test_euclidean_is_negative_type(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            D = euclidean_D(rng.standard_normal((8, 2)))
            D2 = D**2  # squared euclidean distance is the classic case
            assert negative_type_witness(D2) is None

    def test_projective_violation(self, projective_D):
        witness = negative_type_witness(projective_D)
        assert witness is not None
        t, q = witness
        assert q >= np.pi / 3 - 1e-9  # at least as good as the explicit split

    def test_cluster_violation(self, cluster_D):
        witness = negative_type_witness(cluster_D)
        assert witness is not None
        assert witness[1] > 0

    def test_witness_consistency(self, projective_D, cluster_D):
        for D in (projective_D, cluster_D):
            t, q = negative_type_witness(D)
            assert abs(t.sum()) <= 1e-12
            assert quadratic_form(D, t) == pytest.approx(q, rel=1e-9)

    def test_verdict_scale_invariant(self, projective_D):
        for c in (0.01, 1.0, 100.0):
            assert negative_type_witness(c * projective_D) is not None
            rng = np.random.default_rng(2)
            D2 = euclidean_D(rng.standard_normal((6, 2)))**2
            assert negative_type_witness(c * D2) is None

    def test_permutation_equivariance(self, projective_D):
        rng = np.random.default_rng(3)
        perm = rng.permutation(6)
        Dp = projective_D[np.ix_(perm, perm)]
        _, q0 = negative_type_witness(projective_D)
        _, q1 = negative_type_witness(Dp)
        assert q1 == pytest.approx(q0, rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            negative_type_witness(np.zeros((1, 1)))

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            negative_type_witness(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
    def test_invalid_tolerance(self, projective_D, tol):
        with pytest.raises(ValueError, match="tolerance"):
            negative_type_witness(projective_D, tol=tol)


class TestHypermetricScan:
    def test_random_hyperbolic_plane_configurations_clean(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = [random_point(space, 3.0, rng) for _ in range(6)]
            D = build_distance_matrix(pts)
            assert hypermetric_scan(D, bound=2) == []

    def test_projective_violations_found(self, projective_D):
        violations = hypermetric_scan(projective_D, bound=2)
        assert violations
        for t, q in violations:
            assert t.sum() == 1
            assert np.abs(t).max() <= 2
            assert quadratic_form(projective_D, t) == pytest.approx(q, rel=1e-12)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            hypermetric_scan(np.zeros((12, 12)), bound=3)


class TestSqrtEmbed:
    def test_two_points(self):
        D = np.array([[0.0, 4.0], [4.0, 0.0]])
        emb = sqrt_embed(D)
        assert emb.rank == 1
        d01 = np.linalg.norm(emb.coords[0] - emb.coords[1])
        assert d01 == pytest.approx(2.0, rel=1e-12)  # sqrt of 4
        assert emb.max_radius_residual <= 1e-10

    def test_triangle_from_hyperbolic_plane(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(5)
        pts = [random_point(space, 2.0, rng) for _ in range(3)]
        D = build_distance_matrix(pts)
        emb = sqrt_embed(D)
        assert emb.max_distance_residual <= 1e-9
        assert emb.max_radius_residual <= 1e-8 * emb.radius

    def test_eight_points_h3(self):
        space = HermitianSpace(REAL, 3)
        rng = np.random.default_rng(6)
        pts = [random_point(space, 3.0, rng) for _ in range(8)]
        D = build_distance_matrix(pts)
        emb = sqrt_embed(D)
        assert emb.max_distance_residual <= 1e-9
        assert emb.rank >= 3  # >= ceil(log2(8))

    def test_basepoint_independence(self):
        space = HermitianSpace(REAL, 3)
        rng = np.random.default_rng(7)
        pts = [random_point(space, 2.5, rng) for _ in range(6)]
        D = build_distance_matrix(pts)
        for b in range(6):
            emb = sqrt_embed(D, basepoint=b)
            assert emb.max_distance_residual <= 1e-9

    def test_rejects_non_negative_type(self, projective_D):
        with pytest.raises(NotNegativeTypeError) as exc:
            sqrt_embed(projective_D)
        assert exc.value.eigenvalue < 0


class TestBuildDistanceMatrix:
    def test_single_point(self):
        space = HermitianSpace(COMPLEX, 2)
        pts = [random_point(space, 1.0, np.random.default_rng(8))]
        D = build_distance_matrix(pts)
        assert D.shape == (1, 1) and D[0, 0] == 0.0

    def test_projective_table(self, projective_D):
        expected = np.pi * np.array([
            [0, 1/2, 1/2, 1/3, 1/3, 1/4],
            [1/2, 0, 1/2, 1/3, 1/3, 1/4],
            [1/2, 1/2, 0, 1/4, 1/4, 1/2],
            [1/3, 1/3, 1/4, 0, 1/2, 1/2],
            [1/3, 1/3, 1/4, 1/2, 0, 1/2],
            [1/4, 1/4, 1/2, 1/2, 1/2, 0],
        ])
        assert np.allclose(projective_D, expected, atol=1e-12)

    def test_cluster_sums(self):
        within, cross = cluster_sums(quaternionic_cluster_points())
        assert within == pytest.approx(417.03, abs=0.02)
        assert cross == pytest.approx(415.77, abs=0.02)
        assert cross == pytest.approx(144 * np.arccosh(9), rel=1e-12)

    def test_empty_rejected(self):
        # points[0] raised IndexError, which the CLI reported as a traceback
        with pytest.raises(ValueError, match="no points"):
            build_distance_matrix([])

    def test_mixed_point_types_rejected(self):
        space = HermitianSpace(REAL, 2)
        pts = [random_point(space, 1.0, np.random.default_rng(9)),
               PPoint([1, 0, 0])]
        with pytest.raises(ValueError):
            build_distance_matrix(pts)


    @pytest.mark.parametrize("points", [
        [random_point(HermitianSpace(REAL, 2), 1.0, np.random.default_rng(9)),
         random_point(HermitianSpace(REAL, 3), 1.0, np.random.default_rng(9))],
        [random_point(HermitianSpace(REAL, 2), 1.0, np.random.default_rng(9)),
         random_point(HermitianSpace(COMPLEX, 2), 1.0, np.random.default_rng(9))],
        [PPoint([1, 0, 0]), PPoint([1, 0, 0, 1])],
        [np.array([1.0, 0, 0]), np.array([0, 1.0, 0, 0])],
    ], ids=["hyperbolic-dim", "hyperbolic-field", "projective", "sphere"])
    def test_mixed_spaces_rejected(self, points):
        with pytest.raises(DimensionMismatchError):
            build_distance_matrix(points)

    def test_metric_callable_runs_per_pair(self):
        pts = projective_six_points()
        D = build_distance_matrix(pts, metric=jordan_trace_distance)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert D[i, j] == (jordan_trace_distance(x, y) if i != j else 0.0)


def reference_search(space, m, trials, radius, rng, seed_points=None, tol=1e-9):
    """violation_search one configuration at a time: (trial, q, t, verified)."""
    if isinstance(space, str):
        n = int(space[1:])

        def sample():
            return PPoint(rng.standard_normal(n + 1))
    else:
        def sample():
            return random_point(space, radius, rng)
    best = (-1, -np.inf, None, [])
    configs = [] if seed_points is None else [(-1, list(seed_points))]
    configs += [(trial, [sample() for _ in range(m)]) for trial in range(trials)]
    for trial, points in configs:
        witness = negative_type_witness(build_distance_matrix(points), tol=tol)
        if witness is not None and witness[1] > best[1]:
            best = (trial, witness[1], witness[0], points)
    trial, q, t, points = best
    verified = False
    if t is not None and q > 0:
        direct = quadratic_form(build_distance_matrix(points), t)
        verified = abs(direct - q) <= 1e-9 * max(abs(q), 1.0)
    return trial, q, t, verified


class TestViolationSearch:
    def test_real_hyperbolic_plane_clean(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(10)
        best = violation_search(space, m=6, trials=100, radius=2.5, rng=rng)
        assert best.q <= 1e-9 or best.t is None

    def test_projective_violation_found(self):
        # violating configurations are rare; this seed hits one within 1000
        rng = np.random.default_rng(0)
        best = violation_search("p2", m=6, trials=1000, radius=0.0, rng=rng)
        assert best.q > 0
        assert best.verified

    def test_structured_quaternionic_seed(self):
        space = HermitianSpace(QUATERNION, 2)
        rng = np.random.default_rng(12)
        best = violation_search(space, m=24, trials=5, radius=2.0, rng=rng,
                                seed_points=quaternionic_cluster_points())
        assert best.q > 0
        assert best.verified

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            violation_search("x9", m=4, trials=1, radius=1.0,
                             rng=np.random.default_rng(0))

    @pytest.mark.parametrize("space,m,radius,seeds,structured", [
        (HermitianSpace(QUATERNION, 2), 24, 2.0, (1,), True),
        (HermitianSpace(COMPLEX, 3), 8, 3.0, (2,), False),
        (HermitianSpace(REAL, 2), 8, 0.0, (3,), False),
        ("p2", 6, 0.0, (0, 6), False),
    ], ids=["h2-structured", "c3", "radius-0", "p2"])
    def test_blocks_match_per_trial_search(self, space, m, radius, seeds,
                                           structured):
        block = _block_trials(m)
        seed_points = quaternionic_cluster_points() if structured else None
        for seed in seeds:
            for trials in (0, 1, block - 1, block, block + 1, 3 * block + 2):
                rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
                best = violation_search(space, m, trials, radius, rng,
                                        seed_points=seed_points)
                trial, q, t, verified = reference_search(
                    space, m, trials, radius, ref_rng, seed_points=seed_points)
                assert (best.trial, best.q, best.verified) == (trial, q, verified)
                assert (best.t is None) == (t is None)
                if t is not None:
                    assert np.array_equal(best.t, t)
                # the same generator calls, in the same order
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_p2_hits_in_two_blocks(self):
        # seed 6 violates at trials 127 and 168, seed 0 at 527 (block 2)
        for seed, trial in ((6, 168), (0, 527)):
            best = violation_search("p2", m=6, trials=3 * _block_trials(6) + 2,
                                    radius=0.0, rng=np.random.default_rng(seed))
            assert best.trial == trial and best.verified
