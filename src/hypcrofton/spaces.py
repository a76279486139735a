"""Coordinates, normalizations, distance kernels and random points in the
linear model.

A point is a row of a stacked coordinate array.  Hyperbolic points are
projective classes of negative vectors of the signature-(1,n) form,
(..., n+1, 4) coefficient arrays that normalized_coords scales to
representatives with <x, x> = -1.  The representative's unit-scalar phase
is deliberately not canonicalized; every distance is phase invariant.
Projective points and sphere vectors are (..., n+1) rows that unit_rows
scales to unit length.  Every point row is scale-free: the two
normalizations check it and scale it by a power of two before any square
is formed.  kernels.build_distance_matrix pairs each point kind with its
normalization and kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import CONJ_MUL, CONJ_SIGNS, FIELD_DIM, form_coeffs


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
    the projective and sphere kernels take them; a zero row defines no
    `name` point.  The exact prescale keeps the norm from overflowing or
    underflowing, and changes no bit of x / |x| where |x| is a normal float.
    """
    coords = _power_of_two_scaled(coords, -1)
    norm = np.linalg.norm(coords, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError(f"zero vector does not define a {name} point")
    return coords / norm


def normalized_coords(coords):
    """Stacked (..., n+1, 4) coordinates of negative vectors scaled to
    <x, x> = -1, as hyperbolic_distance_matrix takes them.  Each
    point is first scaled by a power of two, as in unit_rows, so that its
    form neither overflows nor underflows for scale alone."""
    coords = _power_of_two_scaled(coords, (-2, -1))
    lead = np.moveaxis(coords, -2, 0)  # form_coeffs wants coordinates first
    q = form_coeffs(lead, lead)[..., 0]
    if not np.all(q < -1e-14 * np.sum(coords**2, axis=(-2, -1))):
        raise ValueError("not a negative vector of the form")
    return coords / np.sqrt(-q)[..., None, None]


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
    """Distances between stacked points of the unit sphere S^n: (..., m, n+1)
    unit vectors -> (..., m, m), cos d_ij = x_i . x_j, in [0, pi]."""
    X = np.asarray(coords, dtype=float)
    sin, cos = _pair_angle_parts(X)
    return _pairs_to_matrix(np.arctan2(sin, cos), X.shape[-2])


def random_coords(field, n, radius, rng, count):
    """Coordinates (count, n+1, 4) of `count` points of H^n over `field`
    (r, c or h) at geodesic distance <= radius from the base point, not yet
    normalized.

    Distribution: uniform tangent direction at the base point times
    uniform radius on [0, radius] (not uniform in hyperbolic volume).
    Each point takes, in order, n k normals for its tangent direction,
    redrawn while their norm is below 1e-12, then its radius as radius *
    random(); radius 0 draws nothing.  So the points are drawn one after
    another, and the first rows of a larger count are the same points from
    the same stream.  The draws take the same values from the stream as an
    (n, k) normal draw and uniform(0, radius).  Raises ValueError for an
    unknown field, n < 1 and a negative radius.
    """
    if field not in FIELD_DIM:
        raise ValueError(f"unknown field {field!r}")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    coords = np.zeros((count, n + 1, 4))
    if radius == 0:
        coords[:, 0, 0] = 1.0
        return coords
    k = FIELD_DIM[field]
    size = n * k
    normals, radii = [], []
    for _ in range(count):
        v = rng.standard_normal(size)
        while math.hypot(*v.tolist()) < 1e-12:
            v = rng.standard_normal(size)
        normals.append(v)
        radii.append(radius * rng.random())
    dirs = np.zeros((count, n, 4))
    dirs[:, :, :k] = np.reshape(normals, (count, n, k))
    norm = np.sqrt(np.sum(dirs**2, axis=(-2, -1)))
    s = np.array(radii)
    coords[:, 0, 0] = np.cosh(s)
    coords[:, 1:] = dirs / norm[:, None, None] * np.sinh(s)[:, None, None]
    return coords
