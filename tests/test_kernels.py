import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypcrofton import kernels
from hypcrofton.algebra import COMPLEX, QUATERNION, REAL
from hypcrofton.configurations import (
    SPLIT_COEFFICIENTS,
    cluster_sums,
    projective_six_points,
    quaternionic_cluster_points,
)
from hypcrofton.kernels import (
    MAX_CANDIDATES,
    REL_TOL,
    NotNegativeTypeError,
    _block_trials,
    _double_centered,
    _sum_constrained_vectors,
    _witnesses,
    build_distance_matrix,
    hypermetric_scan,
    negative_type_witness,
    quadratic_form,
    sqrt_embed,
    validate_distance_matrix,
    violation_search,
)
from hypcrofton.cli import main
from hypcrofton.spaces import (
    BLOCK_BYTES,
    projective_distance_matrix,
    random_coords,
    random_normals,
    sphere_distance_matrix,
    unit_rows,
)
from reference import sum_zero_top_eigenvalue


@pytest.fixture(scope="module")
def projective_D():
    return build_distance_matrix("p", projective_six_points())


@pytest.fixture(scope="module")
def cluster_D():
    return build_distance_matrix(QUATERNION, quaternionic_cluster_points())


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


def random_D(kind, n, m, radius, seed):
    return build_distance_matrix(
        kind, random_coords(kind, n, radius, random.Random(seed), m))


def counted(monkeypatch, name):
    """Count the calls of np.linalg.`name` while the test runs."""
    calls = []
    solve = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda a, *args: calls.append(a.shape) or solve(a, *args))
    return calls


class TestCholeskyDecision:
    """negative_type_witness tries a Cholesky of the Gram form before any
    eigensolve; the top eigenvalue on the sum-zero vectors is the rule."""

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("m,radius,seed", [(8, 0.5, 1), (40, 2.0, 2), (120, 8.0, 3)])
    def test_negative_type_without_eigensolve(self, kind, m, radius, seed, monkeypatch):
        D = random_D(kind, 2, m, radius, seed)
        assert sum_zero_top_eigenvalue(D) < 0.0
        calls = counted(monkeypatch, "eigvalsh")
        for tol in (0.0, REL_TOL):
            assert negative_type_witness(D, tol=tol) is None
        assert calls == []

    @pytest.mark.parametrize("m,seed", [(160, 1), (240, 2)])
    def test_quaternionic_witness(self, m, seed):
        # H^2_H fails negative type from about 160 random points at radius 2
        D = random_D(QUATERNION, 2, m, 2.0, seed)
        top, scale = sum_zero_top_eigenvalue(D), D.max()
        assert top > REL_TOL * scale
        for tol in (0.0, REL_TOL):
            t, q = negative_type_witness(D, tol=tol)
            assert abs(t.sum()) <= 1e-12 * m
            assert q == pytest.approx(m * top, rel=1e-9)
        # the top eigenvalue within 1e-3 of the threshold, on either side
        assert negative_type_witness(D, tol=top / scale * (1 - 1e-3)) is not None
        assert negative_type_witness(D, tol=top / scale * (1 + 1e-3)) is None

    def test_double_centering_is_pdp(self):
        # in place over a stack, with no P formed
        D = np.stack([random_D(REAL, 2, 12, 2.0, 4), random_D(QUATERNION, 2, 12, 2.0, 5)])
        P = np.eye(12) - np.full((12, 12), 1.0 / 12)
        centered = D.copy()
        assert _double_centered(centered) is centered
        np.testing.assert_allclose(centered, P @ D @ P, rtol=0.0, atol=1e-14 * D.max())

    @pytest.mark.parametrize("kind,n,m,trials,fallbacks", [
        (REAL, 3, 40, 20, 0), (COMPLEX, 2, 24, 30, 0), (QUATERNION, 2, 160, 5, 5),
    ], ids=["r3", "c2", "h2-160"])
    def test_search_eigensolves_only_failing_blocks(self, kind, n, m, trials,
                                                     fallbacks, monkeypatch):
        calls = counted(monkeypatch, "eigvalsh")
        best = violation_search(kind, n, m, trials, 2.0, random.Random(1))
        assert len(calls) == fallbacks
        assert best.verified == (fallbacks > 0)


#: powers of two that scale a distance matrix from tiny to the float maximum
SCALE_EXPONENTS = (-40, 0, 1020, 1022, 1023)


class TestScaleFree:
    """Negative type and the hypermetric inequalities do not change under
    D -> cD: each check works on the copy of D scaled, exactly, by a power
    of two into [0.5, 1), up to the largest floats."""

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_witness(self, projective_D, k):
        # at k = 1022 eigh did not converge, and at 1023 the Gram form
        # overflowed to inf, which the Cholesky accepted as negative type
        t0, q0 = negative_type_witness(projective_D)
        t, q = negative_type_witness(np.ldexp(projective_D, k))
        assert np.array_equal(t, t0)
        assert q == np.ldexp(q0, k)

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_hypermetric_scan(self, projective_D, k):
        # the cut was REL_TOL * max(max D, 1), absolute below 1: 24
        # violations at k = -30 and none at -40; overflow gave 71 at 1022
        expected = hypermetric_scan(projective_D)
        found = hypermetric_scan(np.ldexp(projective_D, k))
        assert len(found) == len(expected) == 32
        with np.errstate(over="ignore"):  # Q past the largest float is inf
            for (t, q), (t0, q0) in zip(found, expected):
                assert np.array_equal(t, t0)
                assert q == np.ldexp(q0, k)

    @pytest.mark.parametrize("k", SCALE_EXPONENTS)
    def test_embedding(self, k):
        # at k = 1023 the Gram form overflowed and eigh raised LinAlgError
        D = random_D(REAL, 3, 40, 2.0, 1)
        D = np.ldexp(D, -np.frexp(D.max())[1])  # max d in [0.5, 1)
        base, emb = sqrt_embed(D), sqrt_embed(np.ldexp(D, k))
        assert emb.rank == base.rank
        assert emb.max_distance_residual <= 1e-9
        if k % 2 == 0:  # sqrt(d) scales by the power of two 2^(k/2)
            assert np.array_equal(emb.coords, np.ldexp(base.coords, k // 2))
        assert emb.radius == pytest.approx(base.radius * 2.0 ** (k / 2), rel=1e-9)


class TestStackedRule:
    def test_mixed_stack_matches_one_matrix_at_a_time(self, monkeypatch):
        # the H^2_H matrix fails the batched Cholesky for the whole stack,
        # so eigvalsh decides the H^2_R matrices too, as they would not be
        # alone; only the H^2_H matrix, above the bound, is solved with,
        # twice: its centered copy, the diagonal shifted
        stack = np.stack([random_D(REAL, 2, 160, 2.0, 1),
                          random_D(QUATERNION, 2, 160, 2.0, 1),
                          random_D(REAL, 2, 160, 2.0, 2)])
        expected = [negative_type_witness(D) for D in stack]
        centered = _double_centered(
            np.ldexp(stack, -np.frexp(stack.max(axis=(1, 2)))[1][:, None, None]))
        calls = counted(monkeypatch, "eigvalsh")
        solved = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(a.copy()) or solve(a, b))
        found = _witnesses(stack)
        assert calls == [stack.shape]
        assert [w is None for w in found] == [w is None for w in expected] \
            == [True, False, True]
        t, q = found[1]
        assert np.array_equal(t, expected[1][0])
        assert q == expected[1][1]
        off = ~np.eye(160, dtype=bool)
        assert len(solved) == 2
        for a in solved:
            assert np.array_equal(a[off], centered[1][off])


def witness_cases():
    """Violating matrices by name: the projective six points, the addendum,
    H^2_H at m = 160, 240 and 600 (seeds 1-3), and the false H^2_R
    violations that the search reports at radius 1e-6 (seeds 1-3), where
    the top eigenvalue lies just above the bound."""
    yield "projective", lambda: build_distance_matrix("p", projective_six_points())
    yield "addendum", lambda: build_distance_matrix(
        QUATERNION, quaternionic_cluster_points())
    for m in (160, 240, 600):
        for seed in (1, 2, 3):
            yield f"h2-{m}-{seed}", lambda m=m, seed=seed: random_D(
                QUATERNION, 2, m, 2.0, seed)
    for seed in (1, 2, 3):
        yield f"r2-radius-1e-6-{seed}", lambda seed=seed: build_distance_matrix(
            REAL, violation_search(REAL, 2, 24, 50, 1e-6,
                                   random.Random(seed)).points)


class TestTopEigenvector:
    """A witness is the top eigenvector of P D P from eigvalsh's top
    eigenvalue and two steps of inverse iteration, not from eigh."""

    @pytest.mark.parametrize("case", [pytest.param(make, id=name)
                                      for name, make in witness_cases()])
    def test_matches_eigh(self, case):
        D = case()
        m = len(D)
        e = np.frexp(D.max())[1]
        centered = _double_centered(np.ldexp(D, -e))
        eigvals, eigvecs = np.linalg.eigh(centered)
        t, q = negative_type_witness(D)
        v = eigvecs[:, -1] * (np.sqrt(m) / np.linalg.norm(eigvecs[:, -1]))
        v *= np.sign(v @ t)
        assert np.abs(t - v).max() <= 1e-11 * np.abs(t).max()
        assert q == pytest.approx(np.ldexp(m * eigvals[-1], e), rel=1e-12)
        assert abs(t.sum()) <= 1e-12 * m
        # the sign rule: positive at the row of P D P of largest norm
        assert t[np.argmax(np.einsum("ij,ij->i", centered, centered))] > 0

    def test_double_top_eigenvalue(self):
        # a circulant distance matrix, d_ij = 2 + cos(2 pi (i - j) / m) off
        # the diagonal: on the sum-zero vectors P D P has eigenvalue m/2 - 3
        # twice (the cosine and sine of frequency one) and -3 otherwise
        m = 12
        angle = 2 * np.pi * np.subtract.outer(np.arange(m), np.arange(m)) / m
        D = 2.0 + np.cos(angle)
        np.fill_diagonal(D, 0.0)
        top = sum_zero_top_eigenvalue(D)
        assert top == pytest.approx(m / 2 - 3, rel=1e-12)
        t, q = negative_type_witness(D)
        assert q >= (1 - 1e-12) * m * top
        assert abs(t.sum()) <= 1e-12 * m

    def test_runs_without_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert negative_type_witness(build_distance_matrix(
            "p", projective_six_points())) is not None
        best = violation_search(QUATERNION, 2, 160, 5, 2.0, random.Random(1))
        assert best.trial == 4 and best.verified
        for case in ("addendum", "projective"):
            assert main(["reproduce", case]) == 0


def traced_peak(fn, *args):
    """Peak bytes of the allocations tracemalloc sees while fn(*args) runs,
    numpy's arrays among them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


#: runs its arguments as a command and prints the exit code and the peak
#: RSS in kB (Linux) that os.wait4 reads: Linux starts a child's ru_maxrss
#: at the peak of the process that spawned it, so the command is spawned
#: from this small interpreter, not from the test process
PEAK_HELPER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


class TestMemory:
    """The negative-type path holds O(m^2) floats, counted at m = 600."""

    M = 600
    FLOATS = 8 * M * M  # bytes of one m x m matrix

    def test_build_distance_matrix(self):
        coords = random_coords(QUATERNION, 2, 2.0, random.Random(1), self.M)
        peak = traced_peak(build_distance_matrix, QUATERNION, coords)
        assert peak <= 2.0 * self.FLOATS

    @pytest.mark.parametrize("kernel", [projective_distance_matrix,
                                        sphere_distance_matrix])
    def test_angle_kernels(self, kernel):
        # the pairs i < j gathered into (pairs, n+1) arrays held about 7.5 D
        rows = unit_rows(random_normals(random.Random(1), self.M, 4), "s")
        peak = traced_peak(kernel, rows)
        assert peak <= self.FLOATS + 2 * BLOCK_BYTES

    @pytest.mark.parametrize("kind", [REAL, QUATERNION])
    def test_negative_type_witness(self, kind):
        # over R the Cholesky decides; over H the eigensolve gives a witness
        D = random_D(kind, 2, self.M, 2.0, 1)
        peak = traced_peak(negative_type_witness, D)
        assert D.nbytes + peak <= 3.5 * self.FLOATS

    def test_witness_process_peak(self, tmp_path):
        # check-negtype as a process, on an h,2 file, which needs the
        # eigenvalues and a witness, and an r,2 file, which the Cholesky
        # decides: the witness may cost at most one m x m array of peak RSS
        # beyond the Cholesky (eigh's eigenvectors and workspace cost three)
        peaks = {}
        for kind, width in ((QUATERNION, 4), (REAL, 1)):
            coords = random_coords(kind, 2, 2.0, random.Random(1), self.M)
            rows = [f"{kind},2", *(",".join(map(repr, row)) for row in
                                   coords[..., :width].reshape(self.M, -1).tolist())]
            path = tmp_path / f"{kind}.csv"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-c", PEAK_HELPER, sys.executable, "-m",
                 "hypcrofton.cli", "check-negtype", "--points", str(path)],
                capture_output=True, text=True, check=True,
                env=dict(os.environ,
                         PYTHONPATH=str(Path(kernels.__file__).parents[1])))
            code, peaks[kind] = map(int, done.stdout.split())
            assert code == 0
        assert 1024 * peaks[QUATERNION] <= 1024 * peaks[REAL] + self.FLOATS


class TestValidateDistanceMatrix:
    def test_nearly_symmetric_taken_as_its_symmetric_part(self, projective_D):
        # symmetric within np.allclose's rule only: every check sees the
        # symmetric part, as the quadratic form does, whichever triangle
        # it reads
        D = projective_D.copy()
        D[0, 3] *= 1.0 + 1e-7
        sym = 0.5 * (D + D.T)
        assert np.array_equal(validate_distance_matrix(D), sym)
        assert validate_distance_matrix(projective_D) is projective_D
        (t, q), (t_sym, q_sym) = negative_type_witness(D), negative_type_witness(sym)
        assert np.array_equal(t, t_sym) and q == q_sym

    @pytest.mark.parametrize("scale", [1.0, 1e13, 2.0 ** -1000])
    def test_asymmetry_refused_at_every_scale(self, scale):
        # d_01 and d_10 differ threefold; the tolerance was absolute below
        # max d = 1, so this matrix was taken as symmetric at scale 1
        D = scale * np.array([[0, 1e-13, 5e-14], [3e-13, 0, 1e-13],
                              [5e-14, 1e-13, 0]])
        with pytest.raises(ValueError, match="must be symmetric"):
            validate_distance_matrix(D)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_rounding_asymmetry_accepted_at_every_scale(self, scale):
        # one pair off by 5e-13 of max d, where np.allclose's rtol gives
        # nothing: within the tolerance at every scale
        D = scale * np.array([[0, 1, 1], [1, 0, 0], [1, 5e-13, 0]])
        assert np.array_equal(validate_distance_matrix(D), 0.5 * (D + D.T))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_rejected(self, value):
        # np.allclose took inf == inf as symmetric, so sqrt_embed and
        # hypermetric_scan went on with the infinite distances
        D = np.array([[0.0, value, 1.0], [value, 0.0, 1.0], [1.0, 1.0, 0.0]])
        for check in (validate_distance_matrix, negative_type_witness,
                      hypermetric_scan, sqrt_embed):
            with pytest.raises(ValueError, match="^distances must be finite$"):
                check(D)


class TestHypermetricScan:
    def test_random_hyperbolic_plane_configurations_clean(self):
        stream = random.Random(4)
        for _ in range(10):
            D = build_distance_matrix(REAL, random_coords(REAL, 2, 3.0, stream, 6))
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

    @pytest.mark.parametrize("bound,largest", [(1, 12), (2, 9), (3, 7)])
    def test_budget_guard_names_largest_point_count(self, bound, largest):
        # the message read "(<= 3)" and "(<= 8)" at every bound, which an
        # 8-point scan at bound 3 already met
        assert hypermetric_scan(np.zeros((largest, largest)), bound=bound) == []
        with pytest.raises(ValueError,
                           match=rf"point count \(<= {largest} at bound {bound}\)"):
            hypermetric_scan(np.zeros((largest + 1, largest + 1)), bound=bound)

    @pytest.mark.parametrize("m,bound", [
        (m, bound) for bound in (1, 2, 3) for m in range(1, 9)
        if m * (2 * bound + 1) ** m <= MAX_CANDIDATES])
    def test_enumeration_is_filtered_product(self, m, bound):
        # every vector with entries in [-bound, bound] summing to 1, in
        # lexicographic order; m = 1 is the one vector [1]
        expected = [t for t in itertools.product(range(-bound, bound + 1), repeat=m)
                    if sum(t) == 1]
        T = _sum_constrained_vectors(m, bound, 1)
        assert T.shape == (len(expected), m)
        assert T.tolist() == [list(t) for t in expected]


class TestSqrtEmbed:
    def test_two_points(self):
        D = np.array([[0.0, 4.0], [4.0, 0.0]])
        emb = sqrt_embed(D)
        assert emb.rank == 1
        d01 = np.linalg.norm(emb.coords[0] - emb.coords[1])
        assert d01 == pytest.approx(2.0, rel=1e-12)  # sqrt of 4
        assert emb.max_radius_residual <= 1e-10

    def test_triangle_from_hyperbolic_plane(self):
        stream = random.Random(5)
        D = build_distance_matrix(REAL, random_coords(REAL, 2, 2.0, stream, 3))
        emb = sqrt_embed(D)
        assert emb.max_distance_residual <= 1e-9
        assert emb.max_radius_residual <= 1e-8 * emb.radius

    def test_eight_points_h3(self):
        stream = random.Random(6)
        D = build_distance_matrix(REAL, random_coords(REAL, 3, 3.0, stream, 8))
        emb = sqrt_embed(D)
        assert emb.max_distance_residual <= 1e-9
        assert emb.rank >= 3  # >= ceil(log2(8))

    def test_basepoint_independence(self):
        # the first point is the base point; each order puts point b first
        stream = random.Random(7)
        D = build_distance_matrix(REAL, random_coords(REAL, 3, 2.5, stream, 6))
        for b in range(6):
            p = [b, *(i for i in range(6) if i != b)]
            emb = sqrt_embed(D[np.ix_(p, p)])
            assert emb.max_distance_residual <= 1e-9

    @staticmethod
    def perturbed_D(seed, delta):
        """12 random points of H^2_R within radius 3, their distances moved
        by delta u u^T (diagonal zeroed) along a sum-zero unit u."""
        D = build_distance_matrix(REAL, random_coords(REAL, 2, 3.0, random.Random(seed), 12))
        u = np.random.default_rng(seed).standard_normal(12)
        u -= u.mean()
        u /= np.linalg.norm(u)
        B = np.outer(u, u)
        np.fill_diagonal(B, 0.0)
        return D + delta * B

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_refuses_where_negative_type_witness_finds_one(self, seed):
        # embed had its own threshold on the Gram form's least eigenvalue,
        # which let it embed matrices just past negative_type_witness's
        # threshold (seed 0: from delta = 0.4377217053 to 0.4377217129)
        below, above = 0.0, 1.0
        assert negative_type_witness(self.perturbed_D(seed, above)) is not None
        while (mid := 0.5 * (below + above)) not in (below, above):
            if negative_type_witness(self.perturbed_D(seed, mid)) is None:
                below = mid
            else:
                above = mid
        D = self.perturbed_D(seed, above)
        with pytest.raises(NotNegativeTypeError) as exc:
            sqrt_embed(D)
        t, q = exc.value.witness
        t0, q0 = negative_type_witness(D)
        assert np.array_equal(t, t0) and q == q0
        assert sqrt_embed(self.perturbed_D(seed, below)).max_distance_residual <= 1e-6

    def test_rejects_non_negative_type(self, projective_D):
        with pytest.raises(NotNegativeTypeError) as exc:
            sqrt_embed(projective_D)
        assert exc.value.witness[1] > 0


class TestBuildDistanceMatrix:
    def test_single_point(self):
        coords = random_coords(COMPLEX, 2, 1.0, random.Random(8), 1)
        D = build_distance_matrix(COMPLEX, coords)
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

    def test_cluster_points_in_order(self):
        # (3, 2s + 2e, 0), then (3, 0, 2s + 2e), for s = +1, -1 and
        # e = +i, -i, +j, -j, +k, -k: the order search-violations'
        # --structured-seed reports its witness t in
        units = [(0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0),
                 (0, 0, 0, 1), (0, 0, 0, -1)]
        middles = [np.array([s, 0, 0, 0]) * 2 + np.array(e) * 2
                   for s in (1, -1) for e in units]
        lead, zero = [3, 0, 0, 0], [0, 0, 0, 0]
        expected = [[lead, c, zero] for c in middles] + \
            [[lead, zero, c] for c in middles]
        points = quaternionic_cluster_points()
        assert points.shape == (24, 3, 4)
        assert np.array_equal(points, expected)

    def test_cluster_sums(self, cluster_D):
        within, cross = cluster_sums(cluster_D)
        assert within == pytest.approx(417.03, abs=0.02)
        assert cross == pytest.approx(415.77, abs=0.02)
        assert cross == pytest.approx(144 * np.arccosh(9), rel=1e-12)

    def test_empty_rejected(self):
        # points[0] raised IndexError, which the CLI reported as a traceback
        with pytest.raises(ValueError, match="no points"):
            build_distance_matrix("p", [])

    def test_mixed_point_types_rejected(self):
        # a hyperbolic point and a projective row make no array
        pts = [random_coords(REAL, 2, 1.0, random.Random(9), 1)[0],
               [1.0, 0.0, 0.0]]
        for kind in (REAL, "p"):
            with pytest.raises(ValueError):
                build_distance_matrix(kind, pts)

    @pytest.mark.parametrize("kind,points", [
        (REAL, [np.eye(3, 4), np.eye(4)]),
        (REAL, [np.eye(3, 4), [[2, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]]]),
        ("p", [[1, 0, 0], [1, 0, 0, 1]]),
        ("s", [[1.0, 0, 0], [0, 1.0, 0, 0]]),
    ], ids=["hyperbolic-dim", "hyperbolic-field", "projective", "sphere"])
    def test_mixed_spaces_rejected(self, kind, points):
        # rows of two dimensions make no array, and a point of H^2_C is no
        # point of H^2_R
        with pytest.raises(ValueError):
            build_distance_matrix(kind, points)

    @pytest.mark.parametrize("kind,coords,message,point_file", [
        ("x", [[1.0, 0.0]], "unknown point kind 'x'", "x,1\n1,0\n"),
        (REAL, [[1.0, 0.0, 0.0]], r"expected \(m, n\+1, 4\) coefficient arrays",
         "r,2\n1,0\n"),
        ("s", [[[1.0, 0.0]]], r"expected \(m, n\+1\) rows", "s,1\n1,0,0,0\n"),
        ("p", [[1.0], [2.0]], "expected a real vector of length >= 2",
         "p,0\n1\n2\n"),
        (QUATERNION, [[[1.0, 0, 0, 0]]], "dimension must be at least 1",
         "h,0\n1,0,0,0\n"),
        (COMPLEX, [[[np.nan, 0, 0, 0], [0, 0, 0, 0]]],
         "point coordinates must be finite", "c,1\nnan,0,0,0\n"),
        ("p", [[1.0, 0.0], [0.0, 0.0]],
         "zero vector does not define a projective point", "p,1\n1,0\n0,0\n"),
        ("s", [[1.0, 0.0], [0.0, 0.0]],
         "zero vector does not define a sphere point", "s,1\n1,0\n0,0\n"),
        (QUATERNION, [[[0.5, 0, 0, 0], [1, 0, 0, 0]]],
         "not a negative vector of the form", "h,1\n0.5,0,0,0,1,0,0,0\n"),
        (REAL, [[[1.0, 0, 0, 0], [0, 0.5, 0, 0]]], "coefficients outside field 'r'",
         "r,1\n1,0,0,0,0,0.5,0,0\n"),
        (COMPLEX, [[[1.0, 0, 0, 0], [0, 0, 0.5, 0]]],
         "coefficients outside field 'c'", "c,1\n1,0,0,0,0,0,0.5,0\n"),
    ], ids=["unknown-kind", "hyperbolic-width", "sphere-width", "projective-width",
            "dim-0", "non-finite", "projective-zero", "sphere-zero",
            "not-negative", "outside-r", "outside-c"])
    @pytest.mark.filterwarnings("error")
    def test_rejections(self, capsys, tmp_path, kind, coords, message, point_file):
        # every input the point classes rejected; a point file says the
        # same in its own terms, where a slot outside the field is a row of
        # the wrong width, and the CLI exits 2 with its message
        with pytest.raises(ValueError, match=f"^{message}"):
            build_distance_matrix(kind, coords)
        path = tmp_path / "bad.csv"
        path.write_text(point_file, encoding="utf-8")
        assert main(["dist", "--points", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def reference_search(kind, n, m, trials, radius, stream, seed_points=None):
    """violation_search one configuration at a time: (trial, q, t, verified)."""
    def sample():
        if kind == "p":
            return random_normals(stream, m, n + 1)
        return random_coords(kind, n, radius, stream, m)
    best = (-1, -np.inf, None, None)
    configs = [] if seed_points is None else [(-1, seed_points)]
    configs += [(trial, sample()) for trial in range(trials)]
    for trial, points in configs:
        witness = negative_type_witness(build_distance_matrix(kind, points))
        if witness is not None and witness[1] > best[1]:
            best = (trial, witness[1], witness[0], points)
    trial, q, t, points = best
    verified = False
    if t is not None and q > 0:
        direct = quadratic_form(build_distance_matrix(kind, points), t)
        verified = abs(direct - q) <= 1e-9 * max(abs(q), 1.0)
    return trial, q, t, verified


class TestViolationSearch:
    def test_real_hyperbolic_plane_clean(self):
        best = violation_search(REAL, 2, m=6, trials=100, radius=2.5,
                                stream=random.Random(10))
        assert best.q <= 1e-9 or best.t is None

    def test_projective_violation_found(self):
        # violating configurations are rare; this seed hits one within 1000
        # (trial 480), seeds 0 and 1 none
        best = violation_search("p", 2, m=6, trials=1000, radius=0.0,
                                stream=random.Random(3))
        assert best.q > 0
        assert best.verified

    def test_structured_quaternionic_seed(self):
        best = violation_search(QUATERNION, 2, m=24, trials=5, radius=2.0,
                                stream=random.Random(12),
                                seed_points=quaternionic_cluster_points())
        assert best.q > 0
        assert best.verified

    @pytest.mark.parametrize("kind,n,trials,radius,seed_points", [
        (QUATERNION, 2, 5, 2.0, quaternionic_cluster_points()),
        ("p", 2, 1000, 0.0, None),
    ], ids=["h2-structured", "p2"])
    def test_points_remeasure_to_q(self, kind, n, trials, radius, seed_points):
        # the returned points are the raw coordinates of the best
        # configuration: measured again, they give its q
        m = 24 if seed_points is not None else 6
        best = violation_search(kind, n, m, trials, radius, random.Random(3),
                                seed_points=seed_points)
        assert best.verified and best.q > 0
        D = build_distance_matrix(kind, best.points)
        assert quadratic_form(D, best.t) == pytest.approx(best.q, rel=1e-9)
        if seed_points is None:
            drawn = random_normals(random.Random(3), trials * m, 3).reshape(
                trials, m, 3)
            assert np.array_equal(best.points, drawn[best.trial])
        else:
            assert best.trial == -1
            assert np.array_equal(best.points, seed_points)

    @pytest.mark.parametrize("off,verified", [(0.0, True), (1e-6, False)])
    def test_verified_is_relative_below_one(self, projective_D, monkeypatch,
                                            off, verified):
        # the seed configuration measured at 1e-8 times its distances, Q
        # about 1e-8, and the re-measure off by `off` relative: against
        # 1e-9 * max(|Q|, 1) an error of 1e-6 relative passed as verified
        scales = iter([1e-8, 1e-8 * (1 + off)])
        monkeypatch.setattr(kernels, "build_distance_matrix",
                            lambda kind, points: next(scales) * projective_D)
        best = violation_search("p", 2, m=6, trials=0, radius=0.0,
                                stream=random.Random(0),
                                seed_points=projective_six_points())
        assert 1e-9 < best.q < 1e-7
        assert best.verified == verified

    @pytest.mark.parametrize("kind,n", [("s", 2), ("x", 2), (REAL, 0), ("p", 0)],
                             ids=["sphere", "unknown", "r-dim-0", "p-dim-0"])
    def test_unknown_space(self, kind, n):
        # only r, c, h and p have a sampler, and every space has n >= 1;
        # the check comes before any draw, even of no trials
        stream = random.Random(0)
        state = stream.getstate()
        for trials in (0, 1):
            with pytest.raises(ValueError):
                violation_search(kind, n, m=4, trials=trials, radius=1.0,
                                 stream=stream)
        assert stream.getstate() == state

    @pytest.mark.parametrize("kind,n,m,radius,seeds,structured", [
        (QUATERNION, 2, 24, 2.0, (1,), True),
        (COMPLEX, 3, 8, 3.0, (2,), False),
        (REAL, 2, 8, 0.0, (3,), False),
        ("p", 2, 6, 0.0, (25, 2), False),
        (QUATERNION, 2, 160, 2.0, (1,), False),
    ], ids=["h2-structured", "c3", "radius-0", "p2", "h2-160"])
    def test_blocks_match_per_trial_search(self, kind, n, m, radius, seeds,
                                           structured):
        block = _block_trials(m)
        seed_points = quaternionic_cluster_points() if structured else None
        for seed in seeds:
            for trials in (0, 1, block - 1, block, block + 1, 3 * block + 2):
                stream, ref_stream = random.Random(seed), random.Random(seed)
                best = violation_search(kind, n, m, trials, radius, stream,
                                        seed_points=seed_points)
                trial, q, t, verified = reference_search(
                    kind, n, m, trials, radius, ref_stream, seed_points=seed_points)
                assert (best.trial, best.q, best.verified) == (trial, q, verified)
                assert (best.t is None) == (t is None)
                if t is not None:
                    assert np.array_equal(best.t, t)
                # the same calls to the stream, in the same order
                assert stream.getstate() == ref_stream.getstate()

    def test_p2_hits_in_two_blocks(self):
        # blocks of 227 trials: seed 25 violates at trials 126 and 127
        # (block 0) and, most, at 387 (block 1); seed 2 at 338 (block 1)
        # and, most, at 654 (block 2)
        for seed, trial in ((25, 387), (2, 654)):
            best = violation_search("p", 2, m=6, trials=3 * _block_trials(6) + 2,
                                    radius=0.0, stream=random.Random(seed))
            assert best.trial == trial and best.verified
