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
is formed.  One row-block driver, _symmetric_blocks, builds every
distance matrix in O(m^2) memory.  kernels.build_distance_matrix pairs
each point kind with its normalization and kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import CONJ_MUL, CONJ_SIGNS, FIELD_DIM

#: bytes of the temporaries one row block of a distance kernel holds
#: besides its (..., m, m) result
BLOCK_BYTES = 1 << 20


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
    sq = np.sum(coords * coords, -1)  # |x_k|^2
    # the real part of <x, x>, summed coordinate after coordinate
    q = np.add.accumulate(sq[..., 1:], axis=-1)[..., -1] - sq[..., 0]
    if not np.all(q < -1e-14 * np.sum(coords**2, axis=(-2, -1))):
        raise ValueError("not a negative vector of the form")
    return coords / np.sqrt(-q)[..., None, None]


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


def _block_rows(count, m, width):
    """Rows per block of _symmetric_blocks over `count` stacked m-point
    configurations: a block's (count, rows, m) pairs, `width` floats of
    temporaries each, fit in BLOCK_BYTES, unless 16 rows do not.  Blocks
    start at multiples of 16 rows, a multiple of the register tiles of
    common BLAS kernels, so that their products tend to round each entry as
    one product over all rows does; no distance depends on it otherwise."""
    return max(16, BLOCK_BYTES // max(1, 8 * width * count * m) // 16 * 16)


def _symmetric_blocks(D, pairs, width):
    """D, (..., m, m), filled with the exactly symmetric matrix whose row
    block start:stop at columns j >= start is pairs(start, stop), which may
    read that part of D (no earlier block writes it); no temporary is m^2."""
    *batch, m, _ = D.shape
    rows = _block_rows(math.prod(batch), m, width)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        values = pairs(start, stop)
        square = values[..., :stop - start]
        np.copyto(square, np.swapaxes(square, -1, -2),
                  where=np.tri(stop - start, k=-1, dtype=bool))
        D[..., start:stop, start:] = values
        D[..., stop:, start:stop] = np.swapaxes(values[..., stop - start:], -1, -2)
    return D


def hyperbolic_distance_matrix(coords):
    """Distances between stacked points of H^n_F: (..., m, n+1, 4) normalized
    coordinates -> (..., m, m), cosh d_ij = |<x_i, x_j>|.

    Every <x_i, x_j> comes from a real matrix product: the rows of x_i are
    the real 4x4 matrices of "conjugate, then multiply" by its coordinates,
    with the form's signs, the columns the coefficients of x_j.
    |<x_i, x_j>|^2 is taken as Re(<x_i, x_j> <x_j, x_i>), symmetric in i
    and j term by term, so that d(a, b) is bit-equal to d(b, a) in any block
    (the squared coefficients of <x_i, x_j> alone would halve the products,
    but not that).  The products run in the row blocks of _symmetric_blocks;
    the square root, the resolution check, the clamp and arccosh then run in
    place on the one (..., m, m) array, whose diagonal is exactly 0.
    """
    X = np.asarray(coords, dtype=float)
    *batch, m, dim, _ = X.shape
    left = _form_rows(X).reshape(*batch, m * 4, dim * 4)
    cols = np.swapaxes(X.reshape(*batch, m, dim * 4), -1, -2)

    def pairs(start, stop):
        # ahead[..., i, :, j] = <x_i, x_j> and behind[..., j, :, i] =
        # <x_j, x_i> for the block's rows i and every j >= start
        ahead = (left[..., 4 * start:4 * stop, :] @ cols[..., start:]).reshape(
            *batch, stop - start, 4, m - start)
        behind = (left[..., 4 * start:, :] @ cols[..., start:stop]).reshape(
            *batch, m - start, 4, stop - start)
        return np.einsum("...icj,c,...jci->...ij", ahead, CONJ_SIGNS, behind)

    D = _symmetric_blocks(np.empty((*batch, m, m)), pairs, 9)
    np.sqrt(D, out=D)
    D.reshape(*batch, m * m)[..., ::m + 1] = 1.0  # the check skips the diagonal
    low = D.min(initial=1.0)
    if low < 1.0 - 1e-9:
        # the rounding of <x, y> grows like |x_0| |y_0|, about e^{2r}/4 at
        # radius r, so near points far out can read a modulus below 1
        raise ValueError(
            f"|<x, y>| = {low} < 1: points this close together cannot "
            f"be resolved this far from the base point, or are not normalized")
    np.maximum(D, 1.0, out=D)
    return np.arccosh(D, out=D)


def _angle_distance_matrix(coords, fold):
    """Angles between stacked unit vectors, (..., m, n+1) -> (..., m, m):
    arctan2 of |x_j - x_i cos| and cos = x_i . x_j, or |cos| if `fold`,
    stable near coincident, orthogonal and antipodal vectors, as arccos is
    not.  The blocks of _symmetric_blocks overwrite the cosines with them."""
    X = np.asarray(coords, dtype=float)
    *batch, m, dim = X.shape
    D = X @ np.swapaxes(X, -1, -2)

    def pairs(start, stop):
        cos = D[..., start:stop, start:]
        perp = X[..., None, start:, :] - X[..., start:stop, None, :] * cos[..., None]
        return np.arctan2(np.linalg.norm(perp, axis=-1),
                          np.abs(cos) if fold else cos)

    _symmetric_blocks(D, pairs, 2 * dim + 3)
    D.reshape(*batch, m * m)[..., ::m + 1] = 0.0
    return D


def projective_distance_matrix(coords):
    """Distances between stacked points of P^n_R: (..., m, n+1) unit
    representatives -> (..., m, m), cos d_ij = |(x_i, x_j)|, in [0, pi/2]."""
    return _angle_distance_matrix(coords, True)


def sphere_distance_matrix(coords):
    """Distances between stacked points of the unit sphere S^n: (..., m, n+1)
    unit vectors -> (..., m, m), cos d_ij = x_i . x_j, in [0, pi]."""
    return _angle_distance_matrix(coords, False)


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
