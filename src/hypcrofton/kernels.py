"""Negative-type and hypermetric analysis of finite distance matrices.

A distance d is of negative type when sum_{i,j} t_i t_j d_ij <= 0 for all
real t with sum t_i = 0, and hypermetric when the same holds for integer t
with sum t_i = 1.  Negative type is decided by a Cholesky factorization
of the matrix's Gram form, and where that fails spectrally (top eigenvalue
of the double-centered matrix, from its eigenvalues alone); a violating
matrix's witness is its top eigenvector, from two steps of inverse
iteration: one rule, over a stack of matrices (_witnesses), for
negative_type_witness, violation_search and sqrt_embed alike.
Hypermetric violations are found by bounded enumeration, in one numpy
pass.  Every check takes D scaled exactly by a power of two to max d
near 1, so none overflows or underflows for scale alone.  The
negative-type checks hold O(m^2) floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import FIELD_DIM
from .spaces import (
    BLOCK_BYTES,
    hyperbolic_distance_matrix,
    normalized_coords,
    projective_distance_matrix,
    random_coords,
    random_normals,
    sphere_distance_matrix,
    unit_rows,
)

#: bytes of the stacked (trials, m, 4, m) Gram array of one block of
#: violation_search; with the kernel's other stacked arrays, a block holds
#: about 1 MB (each stacked trial of 24 points adds ~50 kB to peak RSS)
SEARCH_BLOCK_BYTES = 1 << 18
#: tolerance, relative to the scale of the matrix, below which a quadratic
#: form or an eigenvalue counts as zero: the default of
#: negative_type_witness, and the one the other checks use
REL_TOL = 1e-9
#: largest enumeration, m (2 bound + 1)^m vectors, hypermetric_scan takes
MAX_CANDIDATES = 20_000_000


class NotNegativeTypeError(ValueError):
    """Embedding requested for a matrix that is not of negative type."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        #: the sum-zero witness (t, Q), Q > 0, that negative_type_witness
        #: returns for the same matrix
        self.witness = witness


def validate_distance_matrix(D):
    """Check finiteness, symmetry, zero diagonal and nonnegativity; return
    as float array, exactly symmetric.  Symmetry is np.allclose's rule,
    checked in blocks of rows, so that its temporaries stay within
    BLOCK_BYTES; a matrix symmetric only within it is replaced by its
    symmetric part, which has the same quadratic forms, and which the
    checks that read one triangle of a matrix then see whole."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    top, low = D.max(), D.min()  # inf or nan if any entry is
    if not (np.isfinite(top) and np.isfinite(low)):
        raise ValueError("distances must be finite")
    m = D.shape[0]
    atol = 1e-12 * max(top, -low)
    rows = max(1, BLOCK_BYTES // (64 * m))  # np.allclose takes a few copies
    exact = True
    for start in range(0, m, rows):
        block, mirror = D[start:start + rows], D[:, start:start + rows].T
        if np.array_equal(block, mirror):
            continue
        if not np.allclose(block, mirror, atol=atol):
            raise ValueError("distance matrix must be symmetric")
        exact = False
    if np.any(np.diag(D) != 0.0):
        raise ValueError("distance matrix must have zero diagonal")
    if low < 0.0:
        raise ValueError("distances must be nonnegative")
    return D if exact else 0.5 * (D + D.T)


def quadratic_form(D, t):
    """Ordered double sum Q(t) = sum_{i,j} t_i t_j D_ij."""
    D = np.asarray(D, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.shape[0] != D.shape[0]:
        raise ValueError(
            f"coefficient length {t.shape[0]} != matrix size {D.shape[0]}")
    return float(t @ D @ t)


def negative_type_witness(D, tol=REL_TOL):
    """Return a sum-zero witness (t, Q) with Q > 0, or None.

    The rule (_witnesses): the matrix double-centered with P = I - J/m has
    its top eigenvalue compared against tol * max|D|.  A Cholesky factor
    of the Gram form shifted by tol * max|D| / 2 proves the top eigenvalue
    below the bound, which returns None with no eigensolve.  Otherwise the
    top eigenvalue comes from the eigenvalues alone, and a returned
    witness is the top eigenvector, from inverse iteration, sum-zero,
    scaled to |t|^2 = m so that its Q is at least the Q of any +-1 split
    vector; Q is its quadratic form.  Its sign: t_j > 0 at the row j of
    P D P of largest norm.  Neither the verdict nor t changes under
    D -> 2^k D.  Raises ValueError for a tolerance that is negative or
    not finite.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    D = validate_distance_matrix(D)
    if D.shape[0] < 2:
        raise ValueError("need at least two points")
    return _witnesses(D[None], tol)[0]


def _witnesses(D, tol=REL_TOL):
    """negative_type_witness's rule over a stack (k, m, m) of valid
    distance matrices: a list of k witnesses (t, Q) or None.  Each matrix
    is decided as its copy scaled, exactly, by the power of two 2^-e that
    puts its largest distance in [0.5, 1), so that no form overflows or
    underflows for scale alone, and its Q is scaled back by 2^e.  numpy
    factors a whole stack or raises, so one matrix that fails the
    Cholesky sends the stack to eigvalsh, which returns eigenvalues only;
    only a matrix whose top eigenvalue passes the bound has its top
    eigenvector computed (_top_eigenvector)."""
    out = [None] * len(D)
    top = D.max(axis=(-2, -1))
    e = np.frexp(top)[1][:, None, None]
    bound = tol * np.ldexp(top, -e[:, 0, 0])
    if _gram_has_cholesky(D, e, 0.5 * bound):
        return out
    B = _double_centered(np.ldexp(D, -e))
    eigvals = np.linalg.eigvalsh(B)
    m = D.shape[-1]
    for b in np.flatnonzero(eigvals[:, -1] > bound):
        t = _top_eigenvector(B[b], eigvals[b, -1], np.abs(eigvals[b]).max())
        t -= t.mean()  # kill centering round-off
        t *= np.sqrt(m) / np.linalg.norm(t)
        q = quadratic_form(np.ldexp(D[b], -e[b]), t)
        with np.errstate(over="ignore"):  # a Q past the largest float reads inf
            out[b] = (t, float(np.ldexp(q, e[b, 0, 0])))
    return out


def _top_eigenvector(B, top, norm):
    """An eigenvector of the symmetric (m, m) matrix B for its top
    eigenvalue `top`, by two steps of inverse iteration: x <- (B - s I)^-1 x
    with s = top + 8 ulps of norm, B's 2-norm, so that B - s I is
    nonsingular and the top eigenpair dominates it.  B is overwritten with
    B - s I.  The start is B's row of largest norm, B e_j, whose part
    along an eigenvector v is top v_j; the constant vector, an exact
    eigenvector of P D P, would start orthogonal to the witness.  Each
    step multiplies that part by 1 / (top - s), so after two the result
    has x_j > 0.  Returned unnormalized."""
    j = np.argmax(np.einsum("ij,ij->i", B, B))
    x = B[j].copy()
    B.reshape(-1)[::len(B) + 1] -= top + 8 * np.finfo(float).eps * norm
    for _ in range(2):
        x = np.linalg.solve(B, x)
    return x


def _double_centered(D):
    """D overwritten by P D P, P = I - J/m, over the last two axes: its row
    and column means subtracted and its grand mean added.  For a symmetric
    D the result is symmetric up to rounding; eigvalsh reads one triangle."""
    rows = D.mean(axis=-1, keepdims=True)
    cols = D.mean(axis=-2, keepdims=True)
    D -= rows
    D -= cols
    D += rows.mean(axis=-2, keepdims=True)
    return D


def _gram(D, e):
    """The Gram form at the first point of stacked distance matrices D,
    (..., m, m), scaled exactly by 2^-e (e broadcast over the last two
    axes): G_ij = (d_i0 + d_j0 - d_ij) / 2, a new (..., m, m) array and
    one temporary of its size."""
    base = np.ldexp(D[..., :, :1], -e)
    G = base + np.swapaxes(base, -1, -2)
    G -= np.ldexp(D, -e)
    G *= 0.5
    return G


def _gram_has_cholesky(D, e, shift):
    """Whether G + shift I has a Cholesky factor for every stacked distance
    matrix D, (..., m, m), with G its Gram form _gram(D, e) restricted to
    i, j >= 1 and one shift per matrix.  For sum-zero t,
    t^T D t = -2^(e+1) t'^T G t' with t' = t[1:] and |t'| <= |t|, so a
    factor proves the top eigenvalue of P D P 2^-e below 2 shift."""
    G = _gram(D, e)[..., 1:, 1:]
    i = np.arange(G.shape[-1])  # a reshape of the strided view would copy
    G[..., i, i] += shift[..., None]
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _sum_constrained_vectors(m, bound, total):
    """All integer vectors of length m with entries in [-bound, bound] summing
    to `total`, in lexicographic order: every head of m - 1 entries, from
    np.indices, completed by the last entry where that lies in range."""
    side = 2 * bound + 1  # m = 1 has one head, of no entries
    heads = np.indices((side,) * (m - 1)).reshape(m - 1, side ** (m - 1)).T
    heads -= bound
    last = total - heads.sum(axis=1)
    keep = np.abs(last) <= bound
    return np.column_stack([heads[keep], last[keep]])


def hypermetric_scan(D, bound=2):
    """All integer t with |t_i| <= bound, sum t_i = 1 and
    Q(t) > REL_TOL * max|D|.

    Returns a list of (t, Q) sorted by decreasing Q.  The forms are taken
    on the copy of D scaled, exactly, by the power of two that puts its
    largest distance in [0.5, 1), as negative_type_witness decides, so the
    vectors do not change under D -> cD.  The enumeration size
    m * (2*bound+1)^m is guarded by MAX_CANDIDATES.
    """
    D = validate_distance_matrix(D)
    m = D.shape[0]
    budget = m * (2 * bound + 1) ** m
    if budget > MAX_CANDIDATES:
        fit = m - 1
        while fit * (2 * bound + 1) ** fit > MAX_CANDIDATES:
            fit -= 1
        raise ValueError(
            f"enumeration budget 10^{math.log10(budget):.1f} exceeds "
            f"{MAX_CANDIDATES}; reduce bound, or point count (<= {fit} at "
            f"bound {bound})")
    T = _sum_constrained_vectors(m, bound, 1)
    Tf = T.astype(float)
    e = np.frexp(D.max())[1]
    D = np.ldexp(D, -e)
    qs = np.einsum("ki,ij,kj->k", Tf, D, Tf)
    hits = np.nonzero(qs > REL_TOL * D.max())[0]
    hits = hits[np.argsort(-qs[hits], kind="stable")]
    with np.errstate(over="ignore"):  # a Q past the largest float reads inf
        return [(T[i].copy(), float(np.ldexp(qs[i], e))) for i in hits]


class EmbeddingResult(NamedTuple):
    """Euclidean embedding of (X, sqrt d) with circumsphere diagnostics."""

    coords: np.ndarray
    rank: int
    center: np.ndarray
    radius: float
    max_distance_residual: float
    max_radius_residual: float


def sqrt_embed(D):
    """Classical scaling of the metric sqrt(d) with circumsphere fit.

    A matrix in which negative_type_witness finds a witness (t, Q) raises
    NotNegativeTypeError carrying it, by the same rule (_witnesses).
    Otherwise the Gram matrix G_ij = (d(x_i, b) + d(x_j, b) - d(x_i, x_j))
    / 2, with the first point as b, is factored by eigendecomposition, and
    its small negative eigenvalues are clamped to zero.  G and the
    distance residuals are taken on the copy of D scaled, exactly, by the
    power of four 4^-k that puts its largest distance in [0.25, 1), and
    the coordinates scaled back by 2^k.
    """
    D = validate_distance_matrix(D)
    witness = _witnesses(D[None])[0]
    if witness is not None:
        raise NotNegativeTypeError(
            f"metric is not of negative type: a sum-zero t has "
            f"Q(t) = {witness[1]}", witness=witness)
    m = D.shape[0]
    k = (np.frexp(D.max())[1] + 1) // 2
    scale = np.ldexp(D.max(), -2 * k)
    eigvals, eigvecs = np.linalg.eigh(_gram(D, 2 * k))
    eigvals = np.clip(eigvals, 0.0, None)
    keep = eigvals > REL_TOL * scale
    rank = int(keep.sum())
    coords = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    if rank == 0:
        coords = np.zeros((m, 1))

    # |p_i - p_j| from |p_i|^2 + |p_j|^2 - 2 p_i . p_j, clamped at 0,
    # against sqrt(d_ij), relative where d_ij > 0, off the diagonal
    sq = np.sqrt(np.ldexp(D, -2 * k))
    norms = np.sum(coords**2, axis=1)
    res = coords @ coords.T
    res *= -2.0
    res += norms[:, None]
    res += norms
    np.maximum(res, 0.0, out=res)
    np.sqrt(res, out=res)
    res -= sq
    np.abs(res, out=res)
    np.copyto(sq, 1.0, where=sq == 0)
    res /= sq
    res.reshape(-1)[::m + 1] = 0.0
    max_dist_res = float(res.max())
    coords = np.ldexp(coords, k)

    # circumcenter: linearized equidistance, 2 p_i . c + gamma = |p_i|^2
    A = np.hstack([2.0 * coords, np.ones((m, 1))])
    b = np.sum(coords**2, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:-1]
    gamma = sol[-1]
    radius = float(np.sqrt(max(gamma + center @ center, 0.0)))
    radii = np.linalg.norm(coords - center, axis=1)
    max_rad_res = float(np.abs(radii - radius).max())
    return EmbeddingResult(coords=coords, rank=rank, center=center,
                           radius=radius, max_distance_residual=max_dist_res,
                           max_radius_residual=max_rad_res)


#: point kind -> (normalization, batched distance kernel): r, c and h are
#: points of H^n over that field, (..., m, n+1, 4) coefficient arrays of
#: negative vectors; p points of P^n_R and s points of S^n, (..., m, n+1)
#: nonzero rows.  The kinds are the CLI's point-file letters.
_METRICS = {
    **dict.fromkeys(FIELD_DIM, (normalized_coords, hyperbolic_distance_matrix)),
    "p": (lambda rows: unit_rows(rows, "projective"), projective_distance_matrix),
    "s": (lambda rows: unit_rows(rows, "sphere"), sphere_distance_matrix),
}
POINT_KINDS = tuple(_METRICS)


def build_distance_matrix(kind, coords):
    """Pairwise distance matrix of m points of one kind (POINT_KINDS).

    coords holds the points' coordinates: (m, n+1, 4) coefficient arrays
    for kinds r, c and h, (m, n+1) rows for p and s.  Every point is
    scale-free: spaces normalizes it (normalized_coords, unit_rows), and
    one batched kernel measures all pairs.  Raises ValueError for an
    unknown kind, no points, coordinates of another shape, coefficients
    outside the kind's field, a non-finite coordinate, a zero p or s row
    and a hyperbolic row that is not a negative vector.
    """
    if kind not in _METRICS:
        raise ValueError(f"unknown point kind {kind!r}; expected one of {POINT_KINDS}")
    normalize, kernel = _METRICS[kind]
    coords = np.asarray(coords)
    if coords.dtype.kind not in "biuf":
        raise ValueError(f"expected real coordinates, got dtype {coords.dtype}")
    coords = coords.astype(float)
    if coords.ndim == 0 or len(coords) == 0:
        raise ValueError("no points to measure")
    if kind in FIELD_DIM:
        if coords.ndim != 3 or coords.shape[-1] != 4:
            raise ValueError(f"expected (m, n+1, 4) coefficient arrays for kind "
                             f"{kind!r}, got shape {coords.shape}")
        if coords.shape[1] < 2:
            raise ValueError("dimension must be at least 1")
        if np.any(np.abs(coords[..., FIELD_DIM[kind]:]) > 0):
            raise ValueError(f"coefficients outside field {kind!r}")
    elif coords.ndim != 2 or coords.shape[1] == 0:
        raise ValueError(f"expected (m, n+1) rows for kind {kind!r}, "
                         f"got shape {coords.shape}")
    elif kind == "p" and coords.shape[1] < 2:
        raise ValueError("expected a real vector of length >= 2")
    return kernel(normalize(coords))


class ViolationSearchResult(NamedTuple):
    """Best configuration found by randomized negative-type violation search:
    the raw coordinates of its points, which build_distance_matrix measures."""

    points: np.ndarray | None
    t: np.ndarray | None
    q: float
    trial: int
    verified: bool = False


def _block_trials(m):
    """Trials stacked per block of violation_search for m-point configurations."""
    return max(1, SEARCH_BLOCK_BYTES // (32 * m * m))


def violation_search(kind, n, m, trials, radius, stream, seed_points=None):
    """Randomized search for a negative-type violation.

    The space is named as in a point file's `kind,dim` header: kind r, c
    or h is H^n over that field, whose points random_coords draws within
    `radius` of the base point, and kind p is P^n_R, whose points are
    standard normal (n+1)-rows from random_normals (radius is unused).
    Both draw from the random.Random `stream`.  Runs
    negative_type_witness over `trials` random m-point configurations
    (optionally preceded by an explicit seed configuration, the coordinate
    array of its points, of that kind) and returns the best Q found, with
    the raw coordinates of its points.  Any positive Q is re-verified by
    measuring those points again and evaluating its quadratic form.

    Trials are drawn and decided in stacked blocks: one distance kernel
    and one call of negative_type_witness's rule (_witnesses) per block.
    The stacked kernel measures each configuration as
    build_distance_matrix does.  Each block draws its trials * m points in
    one pass, which gives the same points, from the same calls to the
    stream, as one draw of m points per trial.  Raises ValueError for
    another kind and for n < 1, before any draw.
    """
    if m < 3 and seed_points is None:
        raise ValueError("need at least 3 points")
    if kind not in (*FIELD_DIM, "p"):
        raise ValueError(f"no random configurations of kind {kind!r}; "
                         f"expected one of r, c, h, p")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    normalize, kernel = _METRICS[kind]
    best = ViolationSearchResult(points=None, t=None, q=-np.inf, trial=-1)

    def consider(points, trial, witness):
        nonlocal best
        if witness is not None and witness[1] > best.q:
            best = ViolationSearchResult(points, *witness, trial)

    if seed_points is not None:
        seed_points = np.asarray(seed_points)
        consider(seed_points, -1,
                 negative_type_witness(build_distance_matrix(kind, seed_points)))
    block = _block_trials(m)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        if kind == "p":
            raw = random_normals(stream, count * m, n + 1).reshape(
                count, m, n + 1)
        else:
            raw = random_coords(kind, n, radius, stream, count * m).reshape(
                count, m, n + 1, 4)
        for b, witness in enumerate(_witnesses(kernel(normalize(raw)))):
            consider(raw[b], start + b, witness)

    if best.t is not None and best.q > 0:
        D = build_distance_matrix(kind, best.points)
        direct = quadratic_form(D, best.t)
        best = best._replace(
            verified=abs(direct - best.q) <= 1e-9 * abs(best.q))
    return best
