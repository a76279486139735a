"""Points, geodesics, distances and isometries in linear-model coordinates.

Hyperbolic points are projective classes of negative vectors of the
signature-(1,n) form, stored as normalized representatives with
<x, x> = -1.  The representative's unit-scalar phase is deliberately not
canonicalized; every public operation is phase invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CONJ_MUL,
    CONJ_SIGNS,
    FIELD_DIM,
    REAL,
    DimensionMismatchError,
    HermitianSpace,
    form_coeffs,
    qconj,
    qmul,
    qnorm,
    to_coeffs,
)

NORMALIZATION_TOL = 1e-10


class DegenerateSegmentError(ValueError):
    """Geodesic requested between projectively equal points."""


def _rmul(coords, lam):
    """Right-multiply every coordinate of an (m, 4) vector by the scalar lam."""
    return qmul(coords, np.asarray(lam, dtype=float)[None, :])


class HPoint:
    """A point of H^n_F: normalized representative with <x, x> = -1."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        coords = to_coeffs(coords, space.field)
        if coords.shape[0] != space.dim:
            raise DimensionMismatchError(
                f"expected {space.dim} coordinates, got {coords.shape[0]}")
        coords = normalized_coords(coords)
        coords.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("HPoint is immutable")

    def phase_shifted(self, lam):
        """The same projective point represented by x * lam, |lam| = 1."""
        return HPoint(self.space, _rmul(self.coords, lam))

    def __repr__(self):
        return f"HPoint({self.space.field!r}, n={self.space.n})"


class PPoint:
    """A point of P^n_R: unit representative, defined up to sign."""

    __slots__ = ("n", "coords")

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1 or coords.shape[0] < 2:
            raise ValueError("expected a real vector of length >= 2")
        norm = np.linalg.norm(coords)
        if norm == 0.0:
            raise ValueError("zero vector does not define a projective point")
        coords = coords / norm
        coords.flags.writeable = False
        object.__setattr__(self, "n", coords.shape[0] - 1)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("PPoint is immutable")

    def __repr__(self):
        return f"PPoint({np.round(self.coords, 6).tolist()})"


def normalized_coords(coords):
    """Stacked (..., n+1, 4) coordinates of negative vectors scaled to
    <x, x> = -1; the scaling `HPoint` applies to its coordinates."""
    coords = np.asarray(coords, dtype=float)
    lead = np.moveaxis(coords, -2, 0)  # form_coeffs wants coordinates first
    q = form_coeffs(lead, lead)[..., 0]
    if not np.all(q < -1e-14 * np.sum(coords**2, axis=(-2, -1))):  # NaN too
        raise ValueError("not a negative vector of the form")
    return coords / np.sqrt(-q)[..., None, None]


def base_point(space):
    """The origin x0 = (1, 0, ..., 0)."""
    c = np.zeros((space.dim, 4))
    c[0, 0] = 1.0
    return HPoint(space, c)


def _check_same_space(x, y):
    if x.space != y.space:
        raise DimensionMismatchError(
            f"points live in different spaces: {x.space} vs {y.space}")


def _pairs_to_matrix(values, m):
    """(..., m, m) matrix with the upper-triangle pair values mirrored below
    an exact zero diagonal."""
    D = np.zeros(values.shape[:-1] + (m, m))
    iu = np.triu_indices(m, k=1)
    D[..., iu[0], iu[1]] = values
    return D + np.swapaxes(D, -1, -2)


def hyperbolic_distance_matrix(coords):
    """Distances between stacked points of H^n_F: (..., m, n+1, 4) normalized
    coordinates -> (..., m, m), cosh d_ij = |<x_i, x_j>|.

    Every <x_i, x_j> comes from one real matrix product: the rows of x_i are
    the real 4x4 matrices of "conjugate, then multiply" by its coordinates,
    with the form's signs, the columns the coefficients of x_j.
    |<x_i, x_j>|^2 is taken as Re(<x_i, x_j> <x_j, x_i>), which is exactly
    symmetric in i and j.
    """
    X = np.asarray(coords, dtype=float)
    *batch, m, dim, _ = X.shape
    signs = np.ones(dim)
    signs[0] = -1.0
    # left[..., i, c, k, q] = signs[k] * (matrix of conj(x_i^k))[c, q]
    left = np.einsum("...ikp,k,pqc->...ickq", X, signs, CONJ_MUL, order="C")
    gram = left.reshape(*batch, m * 4, dim * 4) @ np.swapaxes(
        X.reshape(*batch, m, dim * 4), -1, -2)
    del left  # not needed past the product; freeing it lowers peak memory
    gram = gram.reshape(*batch, m, 4, m)  # gram[..., i, :, j] = <x_i, x_j>
    mod2 = np.einsum("...icj,c,...jci->...ij", gram, CONJ_SIGNS, gram)
    iu = np.triu_indices(m, k=1)
    mod = np.sqrt(mod2[..., iu[0], iu[1]])
    if np.any(mod < 1.0 - 1e-9):
        raise ArithmeticError(
            f"|<x, y>| = {mod.min()} < 1 for negative vectors; inconsistent state")
    return _pairs_to_matrix(np.arccosh(np.maximum(mod, 1.0)), m)


def _pair_angle_parts(X):
    """For the pairs i < j of stacked unit vectors X, (..., m, n+1): the norm
    of x_j's component orthogonal to x_i, |sin| of their angle, and x_i . x_j,
    its cosine.  arctan2 of the two is stable near coincident, orthogonal
    and antipodal vectors, where arccos of the cosine loses small angles."""
    m = X.shape[-2]
    iu = np.triu_indices(m, k=1)
    inner = (X @ np.swapaxes(X, -1, -2))[..., iu[0], iu[1]]
    perp = X[..., iu[1], :] - X[..., iu[0], :] * inner[..., None]
    return np.linalg.norm(perp, axis=-1), inner


def projective_distance_matrix(coords):
    """Distances between stacked points of P^n_R: (..., m, n+1) unit
    representatives -> (..., m, m), cos d_ij = |(x_i, x_j)|, in [0, pi/2]."""
    X = np.asarray(coords, dtype=float)
    sin, cos = _pair_angle_parts(X)
    return _pairs_to_matrix(np.arctan2(sin, np.abs(cos)), X.shape[-2])


def sphere_distance_matrix(coords):
    """Distances between stacked vectors on the unit sphere after
    normalization: (..., m, n+1) -> (..., m, m), cos d_ij = x_i . x_j, in
    [0, pi]."""
    X = np.asarray(coords, dtype=float)
    X = X / np.linalg.norm(X, axis=-1, keepdims=True)
    sin, cos = _pair_angle_parts(X)
    return _pairs_to_matrix(np.arctan2(sin, cos), X.shape[-2])


def hyperbolic_distance(x, y):
    """Geodesic distance: cosh d = |<x, y>| for normalized representatives."""
    _check_same_space(x, y)
    return float(hyperbolic_distance_matrix(np.stack([x.coords, y.coords]))[0, 1])


def projective_distance(x, y):
    """Geodesic distance on P^n_R: cos d = |(x, y)|, in [0, pi/2]."""
    if x.n != y.n:
        raise DimensionMismatchError("projective points of different dimension")
    return float(projective_distance_matrix(np.stack([x.coords, y.coords]))[0, 1])


def sphere_distance(x, y):
    """Geodesic distance on the unit sphere: cos d = x . y, in [0, pi]."""
    return float(sphere_distance_matrix(np.stack([x, y]))[0, 1])


def jordan_trace_distance(x, y):
    """Trace-form distance between the rank-one projections of x and y.

    Equals sqrt(2 - 2 cos^2 t) where cos t is the normalized |(x, y)|.
    """
    if x.n != y.n:
        raise DimensionMismatchError("projective points of different dimension")
    c = abs(float(x.coords @ y.coords))
    c = min(c, 1.0)
    return float(np.sqrt(max(2.0 - 2.0 * c * c, 0.0)))


@dataclass(frozen=True)
class GeodesicSegment:
    """Unit-speed geodesic s -> x cosh s + w sinh s, restricted to [0, length].

    base and tangent are (n+1, 4) coefficient arrays with <x, w> = 0 and
    <w, w> = 1, so <point(s), point(s)> = -1 for all s.
    """

    space: HermitianSpace
    base: np.ndarray
    tangent: np.ndarray
    length: float

    def point_coords(self, s):
        return self.base * np.cosh(s) + self.tangent * np.sinh(s)

    def point(self, s):
        return HPoint(self.space, self.point_coords(s))

    def endpoint_coords(self):
        return self.point_coords(self.length)


def geodesic_between(x, y):
    """The unit-speed segment from x to y.

    The representative of y is phase-aligned (right multiplication by the
    unit scalar lam = -conj(<x,y>)/|<x,y>|) so that <x, y_hat> is real and
    negative, which makes the real-span construction valid over all fields.
    """
    _check_same_space(x, y)
    f = form_coeffs(x.coords, y.coords)
    mod = float(qnorm(f))
    d = float(np.arccosh(max(mod, 1.0)))
    if d < 1e-12:
        raise DegenerateSegmentError("endpoints are projectively equal")
    lam = -qconj(f) / mod
    yhat = _rmul(y.coords, lam)
    w = (yhat - x.coords * np.cosh(d)) / np.sinh(d)
    return GeodesicSegment(x.space, x.coords, w, d)


def random_coords(space, radius, rng, count):
    """Coordinates (count, n+1, 4) of `count` points at geodesic distance
    <= radius from the base point, not yet normalized.

    Each point takes, in order, an (n, k) normal draw for its tangent
    direction, redrawn while its norm is below 1e-12, then one uniform
    radius; radius 0 draws nothing.  `HPoint(space, c)` of row i is the
    point the i-th of `count` successive `random_point` calls returns.
    The n k normals are drawn flat and the radius as radius * random(),
    which take the same values from the stream as an (n, k) draw and
    uniform(0, radius), with two generator calls per point.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    coords = np.zeros((count, space.dim, 4))
    if radius == 0:
        coords[:, 0, 0] = 1.0
        return coords
    k = FIELD_DIM[space.field]
    size = space.n * k
    normals, radii = [], []
    for _ in range(count):
        v = rng.standard_normal(size)
        while math.hypot(*v.tolist()) < 1e-12:
            v = rng.standard_normal(size)
        normals.append(v)
        radii.append(radius * rng.random())
    dirs = np.zeros((count, space.n, 4))
    dirs[:, :, :k] = np.reshape(normals, (count, space.n, k))
    norm = np.sqrt(np.sum(dirs**2, axis=(-2, -1)))
    s = np.array(radii)
    coords[:, 0, 0] = np.cosh(s)
    coords[:, 1:] = dirs / norm[:, None, None] * np.sinh(s)[:, None, None]
    return coords


def random_point(space, radius, rng):
    """A point at geodesic distance <= radius from the base point.

    Distribution: uniform tangent direction at x0 times uniform radius on
    [0, radius] (not uniform in hyperbolic volume).
    """
    return HPoint(space, random_coords(space, radius, rng, 1)[0])


class Isometry:
    """Linear map of F^{n+1} preserving the hermitian form.

    The matrix is stored as an (n+1, n+1, 4) coefficient array; it acts on
    the left of coordinate columns, (g z)_i = sum_j g_ij z_j, compatible
    with the right-module structure.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (space.dim, space.dim, 4):
            raise DimensionMismatchError(
                f"expected matrix of shape {(space.dim, space.dim, 4)}")
        k = FIELD_DIM[space.field]
        if np.any(np.abs(matrix[..., k:]) > 0):
            raise ValueError(f"matrix entries outside field {space.field!r}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("Isometry is immutable")

    def apply_coords(self, coords):
        return qmul(self.matrix, coords[None, :, :]).sum(axis=1)

    def apply(self, x):
        _check_same_space(self, x)
        return HPoint(self.space, self.apply_coords(x.coords))

    def __matmul__(self, x):
        return self.apply(x)

    @classmethod
    def identity(cls, space):
        m = np.zeros((space.dim, space.dim, 4))
        for i in range(space.dim):
            m[i, i, 0] = 1.0
        return cls(space, m)


def _form_gram_schmidt(space, columns):
    """Orthonormalize columns against the form; returns None on degeneracy.

    Column 0 is normalized to <c, c> = -1, the rest to +1, with earlier
    columns projected out (right-module projections, coefficients applied
    on the right).
    """
    d = space.dim
    cols = [np.array(columns[:, j, :]) for j in range(d)]
    signs = [-1.0] + [1.0] * (d - 1)
    for j in range(d):
        c = cols[j]
        for i in range(j):
            lam = form_coeffs(cols[i], c) / signs[i]
            c = c - _rmul(cols[i], lam)
        q = form_coeffs(c, c)[0]
        if signs[j] * q < 1e-6:
            return None
        cols[j] = c / np.sqrt(abs(q))
    return np.stack(cols, axis=1)


def random_isometry(space, rng, scale=0.4, max_retries=20):
    """A random form-preserving matrix mixing boost and rotation parts.

    Built by form-orthonormalizing identity + scale * gaussian noise in the
    field's coefficient slots; scale = 0 returns the identity.
    """
    if scale == 0:
        return Isometry.identity(space)
    k = FIELD_DIM[space.field]
    d = space.dim
    for _ in range(max_retries):
        m = np.zeros((d, d, 4))
        for i in range(d):
            m[i, i, 0] = 1.0
        m[..., :k] += scale * rng.standard_normal((d, d, k))
        ortho = _form_gram_schmidt(space, m)
        if ortho is not None:
            return Isometry(space, ortho)
    raise RuntimeError("failed to orthonormalize a random perturbation")
