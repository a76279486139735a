"""Points, distances and random points in linear-model coordinates.

Hyperbolic points are projective classes of negative vectors of the
signature-(1,n) form, stored as normalized representatives with
<x, x> = -1.  The representative's unit-scalar phase is deliberately not
canonicalized; every public operation is phase invariant.  Projective
points and sphere vectors are unit rows.  Every point row is scale-free:
unit_rows and normalized_coords, the only normalizations, check it and
scale it by a power of two before any square is formed.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    CONJ_MUL,
    CONJ_SIGNS,
    FIELD_DIM,
    DimensionMismatchError,
    form_coeffs,
    to_coeffs,
)


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

    def __repr__(self):
        return f"HPoint({self.space.field!r}, n={self.space.n})"


class PPoint:
    """A point of P^n_R: unit representative, defined up to sign."""

    __slots__ = ("n", "coords")

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 1 or coords.shape[0] < 2:
            raise ValueError("expected a real vector of length >= 2")
        coords = unit_rows(coords, "projective")
        coords.flags.writeable = False
        object.__setattr__(self, "n", coords.shape[0] - 1)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("PPoint is immutable")

    def __repr__(self):
        return f"PPoint({np.round(self.coords, 6).tolist()})"


def _power_of_two_scaled(coords, axes):
    """Finite coords scaled, exactly, by the power of two that puts the
    largest entry over `axes` in [0.5, 1); all-zero blocks stay zero."""
    coords = np.asarray(coords, dtype=float)
    if not np.isfinite(coords).all():
        raise ValueError("point coordinates must be finite")
    top = np.abs(coords).max(axis=axes, keepdims=True)
    return np.ldexp(coords, -np.frexp(top)[1])


def unit_rows(coords, name):
    """Stacked (..., n+1) rows of finite reals scaled to unit length, as
    `PPoint` and sphere distances take them; a zero row defines no `name`
    point.  The exact prescale keeps the norm from overflowing or
    underflowing, and changes no bit of x / |x| where |x| is a normal float.
    """
    coords = _power_of_two_scaled(coords, -1)
    norm = np.linalg.norm(coords, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError(f"zero vector does not define a {name} point")
    return coords / norm


def normalized_coords(coords):
    """Stacked (..., n+1, 4) coordinates of negative vectors scaled to
    <x, x> = -1; the scaling `HPoint` applies to its coordinates.  Each
    point is first scaled by a power of two, as in unit_rows, so that its
    form neither overflows nor underflows for scale alone."""
    coords = _power_of_two_scaled(coords, (-2, -1))
    lead = np.moveaxis(coords, -2, 0)  # form_coeffs wants coordinates first
    q = form_coeffs(lead, lead)[..., 0]
    if not np.all(q < -1e-14 * np.sum(coords**2, axis=(-2, -1))):
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
    """Distances between stacked nonzero vectors, as points of the unit
    sphere (unit_rows): (..., m, n+1) -> (..., m, m), cos d_ij = x_i . x_j,
    in [0, pi]."""
    X = unit_rows(coords, "sphere")
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


