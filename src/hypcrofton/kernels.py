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

from .algebra import DimensionMismatchError, HermitianSpace
from .spaces import (
    HPoint,
    PPoint,
    hyperbolic_distance_matrix,
    normalized_coords,
    projective_distance_matrix,
    random_coords,
    sphere_distance_matrix,
)

#: bytes of the stacked (trials, m, 4, m) Gram array of one block of
#: violation_search; with the kernel's other stacked arrays, a block holds
#: about 1 MB (each stacked trial of 24 points adds ~50 kB to peak RSS)
SEARCH_BLOCK_BYTES = 1 << 18


class NotNegativeTypeError(ValueError):
    """Embedding requested for a matrix that is not of negative type."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def validate_distance_matrix(D):
    """Check symmetry, zero diagonal and nonnegativity; return as float array."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(D, D.T, atol=1e-12 * max(1.0, np.abs(D).max())):
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


def negative_type_witness(D, tol=1e-9):
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


def hypermetric_scan(D, bound=2, tol=1e-9, max_candidates=20_000_000):
    """All integer t with |t_i| <= bound, sum t_i = 1 and Q(t) > tol.

    Returns a list of (t, Q) sorted by decreasing Q.  The enumeration size
    m * (2*bound+1)^m is guarded by max_candidates.
    """
    D = validate_distance_matrix(D)
    m = D.shape[0]
    budget = m * (2 * bound + 1) ** m
    if budget > max_candidates:
        raise ValueError(
            f"enumeration budget {budget} exceeds {max_candidates}; "
            f"reduce bound (<= 3) or point count (<= 8)")
    T = _sum_constrained_vectors(m, bound, 1)
    Tf = T.astype(float)
    qs = np.einsum("ki,ij,kj->k", Tf, D, Tf)
    scale = max(np.abs(D).max(), 1.0)
    hits = np.nonzero(qs > tol * scale)[0]
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


def sqrt_embed(D, tol=1e-9, basepoint=0):
    """Classical scaling of the metric sqrt(d) with circumsphere fit.

    Gram matrix G_ij = (d(x_i, b) + d(x_j, b) - d(x_i, x_j)) / 2 is factored
    by eigendecomposition; eigenvalues below -tol * max|D| raise
    NotNegativeTypeError, small negatives are clamped to zero.
    """
    D = validate_distance_matrix(D)
    m = D.shape[0]
    scale = max(np.abs(D).max(), 1e-300)
    db = D[:, basepoint]
    G = 0.5 * (db[:, None] + db[None, :] - D)
    G = 0.5 * (G + G.T)
    eigvals, eigvecs = np.linalg.eigh(G)
    if eigvals[0] < -tol * scale:
        raise NotNegativeTypeError(
            f"Gram matrix has eigenvalue {eigvals[0]}; "
            f"metric is not of negative type", eigenvalue=float(eigvals[0]))
    eigvals = np.clip(eigvals, 0.0, None)
    rank_tol = max(tol, 1e-12) * scale
    keep = eigvals > rank_tol
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


def build_distance_matrix(points, metric=None):
    """Pairwise distance matrix; the metric is inferred from the point type.

    HPoint -> hyperbolic, PPoint -> projective, plain unit vectors ->
    spherical, each from one batched kernel over all pairs.  A callable
    `metric` overrides the dispatch and is called once per pair.
    """
    points = list(points)
    m = len(points)
    if m == 0:
        raise ValueError("no points to measure")
    if metric is not None:
        D = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                D[i, j] = D[j, i] = metric(points[i], points[j])
        return D
    kind = type(points[0])
    if any(not isinstance(p, kind) for p in points):
        raise ValueError("mixed point types in one configuration")
    if isinstance(points[0], HPoint):
        if any(p.space != points[0].space for p in points):
            raise DimensionMismatchError("points live in different spaces")
        return hyperbolic_distance_matrix(np.stack([p.coords for p in points]))
    if isinstance(points[0], PPoint):
        if any(p.n != points[0].n for p in points):
            raise DimensionMismatchError("projective points of different dimension")
        return projective_distance_matrix(np.stack([p.coords for p in points]))
    vectors = [np.asarray(p, dtype=float) for p in points]
    if any(v.shape != vectors[0].shape for v in vectors):
        raise DimensionMismatchError("sphere points of different dimension")
    return sphere_distance_matrix(np.stack(vectors))


@dataclass
class ViolationSearchResult:
    """Best configuration found by randomized negative-type violation search."""

    points: list
    t: np.ndarray | None
    q: float
    trial: int
    verified: bool = field(default=False)


def _configuration_sampler(space, radius):
    """Sampler for a space selector: a HermitianSpace (hyperbolic) or a
    string like 'p2' (real projective of that dimension).

    Returns draw(rng, trials, m) -> (D, points): the stacked (trials, m, m)
    distance matrices of `trials` random m-point configurations, and
    points(b), the points of configuration b.  Points are drawn in the
    generator order of `trials * m` successive per-point samples.
    """
    if isinstance(space, HermitianSpace):
        def draw(rng, trials, m):
            raw = random_coords(space, radius, rng, trials * m)
            raw = raw.reshape(trials, m, space.dim, 4)
            D = hyperbolic_distance_matrix(normalized_coords(raw))
            return D, lambda b: [HPoint(space, c) for c in raw[b]]
        return draw
    if isinstance(space, str) and space.startswith("p"):
        n = int(space[1:])

        def draw(rng, trials, m):
            normals = rng.standard_normal((trials, m, n + 1))
            D = projective_distance_matrix(
                normals / np.linalg.norm(normals, axis=-1, keepdims=True))
            return D, lambda b: [PPoint(v) for v in normals[b]]
        return draw
    raise ValueError(f"unknown space selector {space!r}")


def _block_trials(m):
    """Trials stacked per block of violation_search for m-point configurations."""
    return max(1, SEARCH_BLOCK_BYTES // (32 * m * m))


def violation_search(space, m, trials, radius, rng, seed_points=None, tol=1e-9):
    """Randomized search for a negative-type violation.

    `space` is a HermitianSpace or a projective selector like 'p2'.  Runs
    negative_type_witness over `trials` random m-point configurations
    (optionally preceded by an explicit seed configuration) and returns the
    best Q found.  Any positive Q is re-verified by a direct quadratic-form
    evaluation before being reported as a violation.

    Trials are drawn and screened in stacked blocks: one distance kernel,
    one double centering and one eigvalsh per block.  The configurations
    that pass the screen go through build_distance_matrix and
    negative_type_witness one by one, in trial order, so the result is that
    of running both on every configuration.
    """
    if m < 3 and seed_points is None:
        raise ValueError("need at least 3 points")
    draw = _configuration_sampler(space, radius)
    best = ViolationSearchResult(points=[], t=None, q=-np.inf, trial=-1)

    def consider(points, trial):
        nonlocal best
        D = build_distance_matrix(points)
        witness = negative_type_witness(D, tol=tol)
        if witness is None:
            return
        t, q = witness
        if q > best.q:
            best = ViolationSearchResult(points=list(points), t=t, q=q,
                                         trial=trial)

    if seed_points is not None:
        consider(list(seed_points), -1)
    block = _block_trials(m)
    for start in range(0, trials, block):
        D, points = draw(rng, min(block, trials - start), m)
        top = np.linalg.eigvalsh(_double_centered(D))[:, -1]
        scale = np.maximum(np.abs(D).max(axis=(-2, -1)), 1e-300)
        # half the tolerance: the stacked arithmetic may round differently
        # from negative_type_witness, which makes the decision
        for b in np.flatnonzero(top > 0.5 * tol * scale):
            consider(points(b), start + int(b))

    if best.t is not None and best.q > 0:
        D = build_distance_matrix(best.points)
        direct = quadratic_form(D, best.t)
        best.verified = abs(direct - best.q) <= 1e-9 * max(abs(best.q), 1.0)
    return best
