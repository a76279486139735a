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


def _form_rows(X):
    """The real matrices of <x_i, .>: (..., m, n+1, 4) coordinates ->
    (..., m, 4, n+1, 4), whose entry [..., i, c, k, q] is signs[k] times
    entry [c, q] of the matrix of conj(x_i^k), with the form's signs.  One
    matrix product with CONJ_MUL builds it; each of its entries is a
    single +-x term."""
    signs = np.ones(X.shape[-2])
    signs[0] = -1.0
    left = (X * signs[:, None]) @ CONJ_MUL.reshape(4, 16)  # [..., i, k, (q, c)]
    return np.moveaxis(left.reshape(*X.shape, 4), -1, -3)


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
    left = _form_rows(X)
    gram = left.reshape(*batch, m * 4, dim * 4) @ np.swapaxes(
        X.reshape(*batch, m, dim * 4), -1, -2)
    del left  # not needed past the product; freeing it lowers peak memory
    gram = gram.reshape(*batch, m, 4, m)  # gram[..., i, :, j] = <x_i, x_j>
    mod2 = np.einsum("...icj,c,...jci->...ij", gram, CONJ_SIGNS, gram)
    iu = np.triu_indices(m, k=1)
    mod = np.sqrt(mod2[..., iu[0], iu[1]])
    if np.any(mod < 1.0 - 1e-9):
        # the rounding of <x, y> grows like |x_0| |y_0|, about e^{2r}/4 at
        # radius r, so near points far out can read a modulus below 1
        raise ValueError(
            f"|<x, y>| = {mod.min()} < 1: points this close together cannot "
            f"be resolved this far from the base point, or are not normalized")
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


def _uniform_rows(stream, rows, width):
    """(rows, width) uniforms on [0, 1) from rows * width calls to
    stream.random(), taken row after row."""
    draw = stream.random
    return np.array([draw() for _ in range(rows * width)]).reshape(rows, width)


def _box_muller(uniforms, width):
    """Normal rows (..., width) from (..., width + width % 2) uniforms on
    [0, 1): each consecutive pair (u, v) gives the two normals
    sqrt(-2 log1p(-u)) times cos(2 pi v) and sin(2 pi v), and an odd width
    drops the last sine.  A row whose normals are all zero, which takes
    u = 0 in each of its pairs, is given the first axis instead, so that
    every row has a direction."""
    u, v = uniforms[..., 0::2], uniforms[..., 1::2]
    r = np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * math.pi * v
    z = np.stack((r * np.cos(angle), r * np.sin(angle)), axis=-1)
    z = z.reshape(uniforms.shape)[..., :width]
    z[~z.any(axis=-1), 0] = 1.0
    return z


def random_normals(stream, rows, width):
    """(rows, width) standard normals drawn from the random.Random `stream`
    in one pass, as _box_muller makes them from rows * (width + width % 2)
    calls to stream.random(), row after row.  So the first rows of a
    larger draw are the rows of a smaller one from the same stream."""
    return _box_muller(_uniform_rows(stream, rows, width + width % 2), width)


def random_coords(field, n, radius, stream, count):
    """Coordinates (count, n+1, 4) of `count` points of H^n over `field`
    (r, c or h) at geodesic distance <= radius from the base point, not yet
    normalized, drawn from the random.Random `stream` in one pass.

    Distribution: uniform tangent direction at the base point times
    uniform radius on [0, radius] (not uniform in hyperbolic volume).
    Each point takes 2 ceil(nk/2) + 1 calls to stream.random(), one point
    after another: first the uniforms that _box_muller turns into its n k
    normals, whose direction is the point's (all-zero normals, a chance of
    2^-53 per pair, give the first tangent axis), then the uniform u of its
    radius, radius * u.  Radius 0 draws nothing.  So the first rows of a
    larger count are the same points from the same stream.  numpy's
    log1p, cos and sin may round an ulp differently on another CPU.
    Raises ValueError for an unknown field, n < 1 and a negative radius.
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
    uniforms = _uniform_rows(stream, count, size + size % 2 + 1)
    dirs = np.zeros((count, n, 4))
    dirs[:, :, :k] = _box_muller(uniforms[:, :-1], size).reshape(count, n, k)
    norm = np.sqrt(np.sum(dirs**2, axis=(-2, -1)))
    s = radius * uniforms[:, -1]
    coords[:, 0, 0] = np.cosh(s)
    coords[:, 1:] = dirs / norm[:, None, None] * np.sinh(s)[:, None, None]
    return coords
