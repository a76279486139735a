"""Negative-type and hypermetric analysis of finite distance matrices.

A distance d is of negative type when sum_{i,j} t_i t_j d_ij <= 0 for all
real t with sum t_i = 0, and hypermetric when the same holds for integer t
with sum t_i = 1.  Negative type is decided spectrally (top eigenvalue of
the double-centered matrix); hypermetric violations by bounded enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import FIELD_DIM
from .spaces import (
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

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def validate_distance_matrix(D):
    """Check finiteness, symmetry, zero diagonal and nonnegativity; return
    as float array."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    top = np.abs(D).max()  # inf or nan if any entry is
    if not np.isfinite(top):
        raise ValueError("distances must be finite")
    if not np.allclose(D, D.T, atol=1e-12 * max(1.0, top)):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(D) != 0.0):
        raise ValueError("distance matrix must have zero diagonal")
    if np.any(D < 0.0):
        raise ValueError("distances must be nonnegative")
    return D


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

    The matrix is double-centered with P = I - J/m and its top eigenvalue
    compared against tol * max|D|.  A returned witness is the corresponding
    eigenvector, automatically sum-zero, scaled to |t|^2 = m so that its Q
    is at least the Q of any +-1 split vector; Q is its quadratic form.
    Raises ValueError for a tolerance that is negative or not finite.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    D = validate_distance_matrix(D)
    m = D.shape[0]
    if m < 2:
        raise ValueError("need at least two points")
    scale = max(np.abs(D).max(), 1e-300)
    eigvals, eigvecs = np.linalg.eigh(_double_centered(D))
    top = eigvals[-1]
    if top <= tol * scale:
        return None
    t = eigvecs[:, -1]
    t = t - t.mean()  # kill centering round-off
    t = t * (np.sqrt(m) / np.linalg.norm(t))
    q = quadratic_form(D, t)
    return t, q


def _double_centered(D):
    """P D P with P = I - J/m over the last two axes, symmetrized."""
    m = D.shape[-1]
    P = np.eye(m) - np.full((m, m), 1.0 / m)
    centered = P @ D @ P
    return 0.5 * (centered + np.swapaxes(centered, -1, -2))


@lru_cache(maxsize=32)
def _sum_constrained_vectors(m, bound, total):
    """All integer vectors of length m with entries in [-bound, bound] summing
    to `total`, with branch-and-bound pruning."""
    out = []
    t = np.zeros(m, dtype=int)

    def rec(i, remaining):
        slots = m - i
        if remaining > bound * slots or remaining < -bound * slots:
            return
        if i == m:
            out.append(t.copy())
            return
        for v in range(-bound, bound + 1):
            t[i] = v
            rec(i + 1, remaining - v)

    rec(0, total)
    arr = np.array(out, dtype=int).reshape(-1, m)
    arr.flags.writeable = False  # cached; callers must not mutate
    return arr


def hypermetric_scan(D, bound=2):
    """All integer t with |t_i| <= bound, sum t_i = 1 and
    Q(t) > REL_TOL * max(max|D|, 1).

    Returns a list of (t, Q) sorted by decreasing Q.  The enumeration size
    m * (2*bound+1)^m is guarded by MAX_CANDIDATES.
    """
    D = validate_distance_matrix(D)
    m = D.shape[0]
    budget = m * (2 * bound + 1) ** m
    if budget > MAX_CANDIDATES:
        raise ValueError(
            f"enumeration budget {budget} exceeds {MAX_CANDIDATES}; "
            f"reduce bound (<= 3) or point count (<= 8)")
    T = _sum_constrained_vectors(m, bound, 1)
    Tf = T.astype(float)
    qs = np.einsum("ki,ij,kj->k", Tf, D, Tf)
    scale = max(np.abs(D).max(), 1.0)
    hits = np.nonzero(qs > REL_TOL * scale)[0]
    violations = [(T[i].copy(), float(qs[i])) for i in hits]
    violations.sort(key=lambda v: -v[1])
    return violations


@dataclass
class EmbeddingResult:
    """Euclidean embedding of (X, sqrt d) with circumsphere diagnostics."""

    coords: np.ndarray
    rank: int
    center: np.ndarray
    radius: float
    max_distance_residual: float
    max_radius_residual: float


def sqrt_embed(D):
    """Classical scaling of the metric sqrt(d) with circumsphere fit.

    Gram matrix G_ij = (d(x_i, b) + d(x_j, b) - d(x_i, x_j)) / 2, with the
    first point as b, is factored by eigendecomposition; eigenvalues below
    -REL_TOL * max|D| raise NotNegativeTypeError, small negatives are
    clamped to zero.
    """
    D = validate_distance_matrix(D)
    m = D.shape[0]
    scale = max(np.abs(D).max(), 1e-300)
    db = D[:, 0]
    G = 0.5 * (db[:, None] + db[None, :] - D)
    G = 0.5 * (G + G.T)
    eigvals, eigvecs = np.linalg.eigh(G)
    if eigvals[0] < -REL_TOL * scale:
        raise NotNegativeTypeError(
            f"Gram matrix has eigenvalue {eigvals[0]}; "
            f"metric is not of negative type", eigenvalue=float(eigvals[0]))
    eigvals = np.clip(eigvals, 0.0, None)
    keep = eigvals > REL_TOL * scale
    rank = int(keep.sum())
    coords = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    if rank == 0:
        coords = np.zeros((m, 1))

    sq = np.sqrt(D)
    diff = coords[:, None, :] - coords[None, :, :]
    dists = np.linalg.norm(diff, axis=-1)
    off = ~np.eye(m, dtype=bool)
    denom = np.where(sq > 0, sq, 1.0)
    max_dist_res = float(np.abs((dists - sq) / denom)[off].max()) if m > 1 else 0.0

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


@dataclass
class ViolationSearchResult:
    """Best configuration found by randomized negative-type violation search:
    the raw coordinates of its points, which build_distance_matrix measures."""

    points: np.ndarray | None
    t: np.ndarray | None
    q: float
    trial: int
    verified: bool = field(default=False)


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
    the raw coordinates of its points.  Any positive Q is re-verified
    by a direct quadratic-form evaluation before being reported as a
    violation.

    Trials are drawn and screened in stacked blocks: one distance kernel,
    one double centering and one eigvalsh per block.  The configurations
    that pass the screen go through build_distance_matrix and
    negative_type_witness one by one, in trial order, so the result is that
    of running both on every configuration.  Each block draws its trials *
    m points in one pass, which gives the same points, from the same calls
    to the stream, as one draw of m points per trial.  Raises ValueError
    for another kind and for n < 1, before any draw.
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

    def consider(points, trial):
        nonlocal best
        witness = negative_type_witness(build_distance_matrix(kind, points))
        if witness is None:
            return
        t, q = witness
        if q > best.q:
            best = ViolationSearchResult(points=points, t=t, q=q, trial=trial)

    if seed_points is not None:
        consider(np.asarray(seed_points), -1)
    block = _block_trials(m)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        if kind == "p":
            raw = random_normals(stream, count * m, n + 1).reshape(
                count, m, n + 1)
        else:
            raw = random_coords(kind, n, radius, stream, count * m).reshape(
                count, m, n + 1, 4)
        D = kernel(normalize(raw))
        top = np.linalg.eigvalsh(_double_centered(D))[:, -1]
        scale = np.maximum(np.abs(D).max(axis=(-2, -1)), 1e-300)
        # half the tolerance: the stacked arithmetic may round differently
        # from negative_type_witness, which makes the decision
        for b in np.flatnonzero(top > 0.5 * REL_TOL * scale):
            consider(raw[b], start + int(b))

    if best.t is not None and best.q > 0:
        D = build_distance_matrix(kind, best.points)
        direct = quadratic_form(D, best.t)
        best.verified = abs(direct - best.q) <= 1e-9 * max(abs(best.q), 1.0)
    return best
