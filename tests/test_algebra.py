import numpy as np
import pytest

from hypcrofton.algebra import (
    COMPLEX,
    CONJ_MUL,
    QUATERNION,
    REAL,
)
from hypcrofton.kernels import build_distance_matrix
from reference import form_coeffs, qconj, qmul

ONE, QUAT_I, QUAT_J, QUAT_K = np.eye(4)

#: the (3, 4) coefficients of the addendum's points (3, 2 + 2i, 0) and
#: (3, 0, 2 + 2j), one of each cluster
CLUSTER_X = np.array([[3.0, 0, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0]])
CLUSTER_Y = np.array([[3.0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 2, 0]])


def modulus(c):
    return np.linalg.norm(c, axis=-1)


def complex_coeffs(z):
    """(..., 4) coefficients of complex numbers, in the first two slots."""
    return np.stack([z.real, z.imag, 0 * z.real, 0 * z.real], -1)


def isclose(a, b, tol=1e-12):
    """Coefficient scalars equal up to tol relative to the larger modulus."""
    return modulus(a - b) <= tol * max(modulus(a), modulus(b), 1.0)


class TestQuaternion:
    def test_hamilton_relations(self):
        assert np.array_equal(qmul(QUAT_I, QUAT_J), QUAT_K)
        assert np.array_equal(qmul(QUAT_J, QUAT_K), QUAT_I)
        assert np.array_equal(qmul(QUAT_K, QUAT_I), QUAT_J)
        assert np.array_equal(qmul(QUAT_J, QUAT_I), -QUAT_K)
        assert np.array_equal(qmul(QUAT_I, QUAT_I), -ONE)

    def test_one_plus_i_times_one_minus_i(self):
        assert np.array_equal(qmul([1, 1, 0, 0], [1, -1, 0, 0]), 2 * ONE)

    def test_conjugation_involution(self):
        q = np.random.default_rng(0).standard_normal((100, 4))
        assert np.array_equal(qconj(qconj(q)), q)

    def test_norm_multiplicative(self):
        p, q = np.random.default_rng(1).standard_normal((2, 1000, 4))
        np.testing.assert_allclose(modulus(qmul(p, q)), modulus(p) * modulus(q),
                                   rtol=1e-12)

    def test_q_conj_q_is_norm_squared(self):
        q = np.random.default_rng(2).standard_normal((100, 4))
        prod = qmul(q, qconj(q))
        np.testing.assert_allclose(prod[:, 1:], 0, atol=1e-12)
        np.testing.assert_allclose(prod[:, 0], modulus(q) ** 2, rtol=1e-12)


class TestConjMul:
    def test_table_is_the_conjugated_unit_products(self):
        # conj(e_p) e_q from the Hamilton product, with the signs of its zeros
        table = qmul(qconj(np.eye(4))[:, None, :], np.eye(4)[None, :, :])
        assert np.array_equal(CONJ_MUL, table)
        assert np.array_equal(np.signbit(CONJ_MUL), np.signbit(table))


class TestScalarModulus:
    def test_two_term_quaternion(self):
        # the within-cluster pairing of (3, 2 + 2i, 0) and (3, -2 + 2i, 0)
        y = np.array([[3.0, 0, 0, 0], [-2, 2, 0, 0], [0, 0, 0, 0]])
        pairing = form_coeffs(CLUSTER_X, y)
        assert np.array_equal(pairing, [-9, 8, 0, 0])
        assert modulus(pairing) == pytest.approx(np.sqrt(145), rel=1e-12)


class TestFieldEmbeddings:
    def test_real_complex_quaternion_agree(self):
        # a real is the same coefficient vector over R, C and H, and its
        # products stay in the first slot
        a, b = np.random.default_rng(4).standard_normal((2, 50))
        ra, rb = complex_coeffs(a + 0j), complex_coeffs(b + 0j)
        assert np.array_equal(qmul(ra, rb), complex_coeffs(a * b + 0j))
        assert np.array_equal(modulus(ra), np.abs(a))

    def test_complex_products_embed(self):
        re, im = np.random.default_rng(5).standard_normal((2, 2, 50))
        z, w = re + 1j * im
        lhs = qmul(complex_coeffs(z), complex_coeffs(w))
        np.testing.assert_allclose(lhs, complex_coeffs(z * w),
                                   rtol=1e-12, atol=1e-12)


def random_vector(field, n, rng):
    k = {REAL: 1, COMPLEX: 2, QUATERNION: 4}[field]
    c = np.zeros((n + 1, 4))
    c[:, :k] = rng.standard_normal((n + 1, k))
    return c


class TestHermitianForm:
    def test_signature_term_only(self):
        x = np.array([ONE, 0 * ONE, 0 * ONE])  # the base point (1, 0, 0)
        assert np.array_equal(form_coeffs(x, x), -ONE)

    def test_cluster_point_norm(self):
        assert isclose(form_coeffs(CLUSTER_X, CLUSTER_X), -ONE)

    def test_cluster_cross_pairing(self):
        assert isclose(form_coeffs(CLUSTER_X, CLUSTER_Y), -9 * ONE)

    def test_dimension_mismatch(self):
        # a point of one coordinate is rejected where points are measured
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            build_distance_matrix(REAL, [[[1.0, 0.0, 0.0, 0.0]]])

    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    def test_hermitian_symmetry(self, field):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = random_vector(field, 3, rng)
            w = random_vector(field, 3, rng)
            assert isclose(form_coeffs(w, z), qconj(form_coeffs(z, w)))

    def test_right_linearity_in_second_slot(self):
        # <z, w*lam> = <z, w> * lam, in exactly this order over H
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = random_vector(QUATERNION, 2, rng)
            w = random_vector(QUATERNION, 2, rng)
            lam = rng.standard_normal(4)
            lhs = form_coeffs(z, qmul(w, lam))
            rhs = qmul(form_coeffs(z, w), lam)
            assert isclose(lhs, rhs)

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance_of_modulus(self, field):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = random_vector(field, 2, rng)
            w = random_vector(field, 2, rng)
            k = {COMPLEX: 2, QUATERNION: 4}[field]
            lam = np.zeros(4)
            lam[:k] = rng.standard_normal(k)
            lam /= np.linalg.norm(lam)
            mu = np.zeros(4)
            mu[:k] = rng.standard_normal(k)
            mu /= np.linalg.norm(mu)
            base = modulus(form_coeffs(z, w))
            shifted = modulus(form_coeffs(qmul(z, lam), qmul(w, mu)))
            assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)

