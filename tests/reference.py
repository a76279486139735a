"""The brute-force reference the tests check the package against.

Carriers drawn one at a time from a ball around the base point, with the
predicates that decide whether one meets a segment, and the geometry they
need: unit-speed geodesic segments, random form-preserving isometries and
phase-shifted representatives.  Points are coordinate arrays, as the
package takes them: (n+1, 4) coefficients of a hyperbolic point, which
every function here normalizes, and (n+1,) rows of a projective point.
A space is named as the package names it, by its field letter and its
dimension n, and a function that is given coordinates reads n from them.

Hyperplanes of H^n_R are spacelike unit vectors u = (sinh p, cosh p * w)
with w on S^{n-1}; the invariant measure has density cosh^{n-1}(p) dp dw,
identified under (p, w) ~ (-p, -w).  Horospheres of H^n_F are forward
null vectors xi = r (1, w) modulo right unit-scalar phase, with radial
density r^{k(n+1)-3} dr (k = real dimension of F); the horosphere itself
is the level set {x : |<x, xi>| = 1} and |log r| is its distance from the
base point.

Quaternion products and the hermitian form are here as coefficient
arithmetic (qmul, qconj, form_coeffs): the package needs only the
constant table algebra.CONJ_MUL, which they check.

The package's estimators integrate these carriers in closed form and run
none of this; pair_distance measures two points with the package's
build_distance_matrix.  unblocked_hyperbolic_distances is the hyperbolic
kernel as one product over all rows, and sum_zero_top_eigenvalue the
spectral rule of negative type, without the package's Cholesky.  The
tests import it as `reference` (tests/ is on sys.path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypcrofton.algebra import CONJ_SIGNS, FIELD_DIM, REAL
from hypcrofton.kernels import build_distance_matrix
from hypcrofton.spaces import _form_rows, normalized_coords, unit_rows


# -- coefficient arithmetic ------------------------------------------------------

def qmul(a, b):
    """Hamilton product on (..., 4) coefficient arrays, broadcasting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def qconj(a):
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def form_coeffs(zc, wc):
    """Signature-(1,n) hermitian form on coefficient arrays, as coefficients.

    <z, w> = -conj(z^0) w^0 + sum_k conj(z^k) w^k.  Conjugation acts on the
    first slot, so the form is right-linear in the second.
    """
    prod = qmul(qconj(zc), wc)
    return prod[1:].sum(axis=0) - prod[0]


# -- geometry ------------------------------------------------------------------

class DegenerateSegmentError(ValueError):
    """Geodesic requested between projectively equal points."""


def _rmul(coords, lam):
    """Right-multiply every coordinate of an (m, 4) vector by the scalar lam."""
    return qmul(coords, np.asarray(lam, dtype=float)[None, :])


def pair_distance(kind, x, y):
    """d(x, y) for two points of a kind (kernels.POINT_KINDS), as the
    package measures them: an entry of build_distance_matrix."""
    return float(build_distance_matrix(kind, np.stack([x, y]))[0, 1])


def unblocked_hyperbolic_distances(coords):
    """(..., m, n+1, 4) normalized coordinates -> (..., m, m) distances from
    the whole (..., m, 4, m) array of <x_i, x_j>, one matrix product over
    all rows: |<x_i, x_j>|^2 = Re(<x_i, x_j> <x_j, x_i>), every modulus
    clamped at 1 before arccosh, the diagonal set to 0."""
    X = np.asarray(coords, dtype=float)
    *batch, m, dim, _ = X.shape
    gram = (_form_rows(X).reshape(*batch, m * 4, dim * 4)
            @ np.swapaxes(X.reshape(*batch, m, dim * 4), -1, -2))
    gram = gram.reshape(*batch, m, 4, m)
    mod2 = np.einsum("...icj,c,...jci->...ij", gram, CONJ_SIGNS, gram)
    D = np.arccosh(np.maximum(np.sqrt(mod2), 1.0))
    D[..., np.arange(m), np.arange(m)] = 0.0
    return D


def sum_zero_top_eigenvalue(D):
    """The largest t^T D t over unit t with sum t_i = 0: the top eigenvalue
    of D on an orthonormal basis of the sum-zero vectors, from the QR
    factorization of the differences e_i - e_m.  Unlike the top eigenvalue
    of P D P it leaves out the all-ones direction, whose eigenvalue 0 reads
    as rounding noise of either sign."""
    D = np.asarray(D, dtype=float)
    m = len(D)
    basis = np.linalg.qr(np.vstack([np.eye(m - 1), -np.ones((1, m - 1))]))[0]
    return float(np.linalg.eigvalsh(basis.T @ D @ basis)[-1])


def real_coords(values):
    """(n+1, 4) coefficients of the point of H^n_R given by n+1 reals."""
    c = np.zeros((len(values), 4))
    c[:, 0] = values
    return c


def phase_shifted(x, lam):
    """The same projective point represented by x * lam, |lam| = 1."""
    return _rmul(np.asarray(x, dtype=float), lam)


def axis_point(n, d):
    """The normalized coordinates of the point of H^n at distance d from the
    base point along the first axis; d = 0 is the base point (1, 0, ..., 0)."""
    c = np.zeros((n + 1, 4))
    c[0, 0] = math.cosh(d)
    c[1, 0] = math.sinh(d)
    return normalized_coords(c)


def jordan_trace_distance(x, y):
    """Trace-form distance between the rank-one projections of the
    projective points x and y.

    Equals sqrt(2 - 2 cos^2 t) where cos t is the normalized |(x, y)|.
    """
    x, y = unit_rows(x, "projective"), unit_rows(y, "projective")
    if x.shape != y.shape:
        raise ValueError("projective points of different dimension")
    c = abs(float(x @ y))
    c = min(c, 1.0)
    return float(np.sqrt(max(2.0 - 2.0 * c * c, 0.0)))


@dataclass(frozen=True)
class GeodesicSegment:
    """Unit-speed geodesic s -> x cosh s + w sinh s, restricted to [0, length].

    base and tangent are (n+1, 4) coefficient arrays over `field` with
    <x, w> = 0 and <w, w> = 1, so <point(s), point(s)> = -1 for all s.
    """

    field: str
    base: np.ndarray
    tangent: np.ndarray
    length: float

    def point_coords(self, s):
        return self.base * np.cosh(s) + self.tangent * np.sinh(s)

    def point(self, s):
        return normalized_coords(self.point_coords(s))

    def endpoint_coords(self):
        return self.point_coords(self.length)


def geodesic_between(field, x, y):
    """The unit-speed segment from x to y, two points of H^n over `field`.

    The representative of y is phase-aligned (right multiplication by the
    unit scalar lam = -conj(<x,y>)/|<x,y>|) so that <x, y_hat> is real and
    negative, which makes the real-span construction valid over all fields.
    """
    x, y = normalized_coords(x), normalized_coords(y)
    if x.shape != y.shape:
        raise ValueError("points of different dimension")
    f = form_coeffs(x, y)
    mod = float(np.linalg.norm(f, axis=-1))
    d = float(np.arccosh(max(mod, 1.0)))
    if d < 1e-12:
        raise DegenerateSegmentError("endpoints are projectively equal")
    lam = -qconj(f) / mod
    yhat = _rmul(y, lam)
    w = (yhat - x * np.cosh(d)) / np.sinh(d)
    return GeodesicSegment(field, x, w, d)


class Isometry:
    """Linear map of F^{n+1} preserving the hermitian form, F = `field`.

    The matrix is stored as an (n+1, n+1, 4) coefficient array; it acts on
    the left of coordinate columns, (g z)_i = sum_j g_ij z_j, compatible
    with the right-module structure.
    """

    __slots__ = ("field", "matrix")

    def __init__(self, field, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 3 or matrix.shape[0] != matrix.shape[1] \
                or matrix.shape[2] != 4:
            raise ValueError(f"expected an (n+1, n+1, 4) matrix, got {matrix.shape}")
        if np.any(np.abs(matrix[..., FIELD_DIM[field]:]) > 0):
            raise ValueError(f"matrix entries outside field {field!r}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("Isometry is immutable")

    def apply_coords(self, coords):
        return qmul(self.matrix, coords[None, :, :]).sum(axis=1)

    def apply(self, x):
        x = normalized_coords(x)
        if x.shape != self.matrix.shape[1:]:
            raise ValueError(f"expected coordinates of shape {self.matrix.shape[1:]}")
        return normalized_coords(self.apply_coords(x))

    def __matmul__(self, x):
        return self.apply(x)

    @classmethod
    def identity(cls, field, n):
        m = np.zeros((n + 1, n + 1, 4))
        for i in range(n + 1):
            m[i, i, 0] = 1.0
        return cls(field, m)


def _form_gram_schmidt(columns):
    """Orthonormalize columns against the form; returns None on degeneracy.

    Column 0 is normalized to <c, c> = -1, the rest to +1, with earlier
    columns projected out (right-module projections, coefficients applied
    on the right).
    """
    d = columns.shape[1]
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


def random_isometry(field, n, rng, scale=0.4, max_retries=20):
    """A random form-preserving matrix of F^{n+1}, F = `field`, mixing boost
    and rotation parts.

    Built by form-orthonormalizing identity + scale * gaussian noise in the
    field's coefficient slots; scale = 0 returns the identity.
    """
    if scale == 0:
        return Isometry.identity(field, n)
    k = FIELD_DIM[field]
    d = n + 1
    for _ in range(max_retries):
        m = np.zeros((d, d, 4))
        for i in range(d):
            m[i, i, 0] = 1.0
        m[..., :k] += scale * rng.standard_normal((d, d, k))
        ortho = _form_gram_schmidt(m)
        if ortho is not None:
            return Isometry(field, ortho)
    raise RuntimeError("failed to orthonormalize a random perturbation")


# -- carriers ------------------------------------------------------------------

BOUNDARY_TOL = 1e-12


class SegmentInHyperplaneError(ValueError):
    """The whole segment lies inside the hyperplane (measure-zero event)."""


def cosh_power_antiderivative(m, t):
    """Antiderivative of cosh^m at t (recurrence, exact for integer m >= 0)."""
    t = np.asarray(t, dtype=float)
    if m == 0:
        return t + 0.0
    if m == 1:
        return np.sinh(t)
    return (np.cosh(t) ** (m - 1) * np.sinh(t)
            + (m - 1) * cosh_power_antiderivative(m - 2, t)) / m


def cosh_power_integral(m, a, b):
    """Integral of cosh^m over [a, b]."""
    return float(cosh_power_antiderivative(m, b) - cosh_power_antiderivative(m, a))


def _sample_depths(n, R, u):
    """Inverse-CDF samples of the density cosh^{n-1}(p) on [-R, R].

    Closed form for n = 2; vectorized bisection to 1e-12 otherwise.
    """
    if n == 2:
        return np.arcsinh(np.sinh(R) * (2.0 * u - 1.0))
    lo_val = cosh_power_antiderivative(n - 1, -R)
    total = cosh_power_antiderivative(n - 1, R) - lo_val
    target = lo_val + u * total
    lo = np.full_like(u, -R)
    hi = np.full_like(u, R)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = cosh_power_antiderivative(n - 1, mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _uniform_sphere(m, size, rng):
    """Uniform samples on S^{m-1} embedded in R^m, shape (size, m)."""
    v = rng.standard_normal((size, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class Hyperplane:
    """Totally geodesic hypersurface of H^n_R: {x : <x, u> = 0}, <u, u> = 1."""

    __slots__ = ("u",)

    def __init__(self, u):
        u = np.asarray(u, dtype=float)
        q = -u[0] ** 2 + np.sum(u[1:] ** 2)
        if abs(q - 1.0) > 1e-8:
            raise ValueError("hyperplane normal must be a spacelike unit vector")
        u = u / np.sqrt(q)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    def __setattr__(self, name, value):
        raise AttributeError("Hyperplane is immutable")


class OrientedHalfSpace:
    """Half-space {x : <x, u> > 0}; flipping u complements membership."""

    __slots__ = ("u",)

    def __init__(self, u):
        hp = Hyperplane(u)
        object.__setattr__(self, "u", hp.u)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedHalfSpace is immutable")

    def flipped(self):
        return OrientedHalfSpace(-self.u)


class Horosphere:
    """Level set {x : |<x, xi>| = 1} of a forward null vector xi.

    The representative's phase is fixed so the leading component is a
    positive real; log|<x0, xi>| is the signed distance of the base point
    from the horosphere.
    """

    __slots__ = ("field", "xi")

    def __init__(self, field, xi_coeffs):
        xi = np.asarray(xi_coeffs, dtype=float)
        if xi.ndim != 2 or xi.shape[1] != 4:
            raise ValueError(f"expected (n+1, 4) coefficients, got {xi.shape}")
        norm2 = float(np.sum(xi ** 2))
        if norm2 == 0.0:
            raise ValueError("null vector must be nonzero")
        q = form_coeffs(xi, xi)[0]
        if abs(q) > 1e-10 * norm2:
            raise ValueError("horosphere parameter must be a null vector")
        lead = np.linalg.norm(xi[0], axis=-1)
        if lead <= 0.0:
            raise ValueError("leading component must be nonzero")
        lam = qconj(xi[0]) / lead
        xi = qmul(xi, lam[None, :])
        xi.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "xi", xi)

    def __setattr__(self, name, value):
        raise AttributeError("Horosphere is immutable")

    def level(self, x):
        """|<x, xi>| -- the horosphere is its level-1 set."""
        return float(np.linalg.norm(form_coeffs(normalized_coords(x), self.xi),
                                    axis=-1))

    def busemann_distance(self):
        """Distance of the base point from the horosphere, |log r|."""
        return abs(math.log(float(np.linalg.norm(self.xi[0], axis=-1))))


# -- sampling ------------------------------------------------------------------

def sample_hyperplane(n, R, rng):
    """One hyperplane with distance |p| <= R from the base point."""
    u = _sample_hyperplane_normals(n, R, 1, rng)[0]
    return Hyperplane(u)


def _sample_hyperplane_normals(n, R, size, rng):
    p = _sample_depths(n, R, rng.random(size))
    omega = _uniform_sphere(n, size, rng)
    u = np.empty((size, n + 1))
    u[:, 0] = np.sinh(p)
    u[:, 1:] = np.cosh(p)[:, None] * omega
    return u


def sample_horosphere(field, n, R, rng):
    """One horosphere of H^n over `field` whose distance from the base point
    is <= R."""
    xi = _sample_horosphere_params(field, n, R, 1, rng)[0]
    return Horosphere(field, xi)


def _sample_horosphere_params(field, n, R, size, rng):
    k = FIELD_DIM[field]
    e = k * (n + 1) - 3
    lo, hi = math.exp(-R), math.exp(R)
    u = rng.random(size)
    if e == -1:
        r = lo * np.exp(u * math.log(hi / lo))
    else:
        r = (lo ** (e + 1) + u * (hi ** (e + 1) - lo ** (e + 1))) ** (1.0 / (e + 1))
    omega = _uniform_sphere(k * n, size, rng)
    xi = np.zeros((size, n + 1, 4))
    xi[:, 0, 0] = r
    xi[:, 1:, :k] = r[:, None, None] * omega.reshape(size, n, k)
    return xi


# -- intersection predicates ---------------------------------------------------

def hyperplane_meets_segment(hp, seg):
    """True iff the hyperplane meets the segment (endpoint touching counts).

    A totally geodesic hyperplane meets a geodesic segment at most once, so
    the test reduces to a sign change of <., u> between the endpoints.
    Raises SegmentInHyperplaneError when both endpoints lie on the
    hyperplane (the segment is contained; a measure-zero configuration).
    """
    if seg.field != REAL:
        raise ValueError("hyperplanes are defined over the real field only")
    xr = seg.base[:, 0]
    yr = seg.endpoint_coords()[:, 0]
    fa = -xr[0] * hp.u[0] + xr[1:] @ hp.u[1:]
    fb = -yr[0] * hp.u[0] + yr[1:] @ hp.u[1:]
    tol = BOUNDARY_TOL * np.linalg.norm(hp.u) \
        * max(np.linalg.norm(xr), np.linalg.norm(yr))
    a_on, b_on = abs(fa) <= tol, abs(fb) <= tol
    if a_on and b_on:
        raise SegmentInHyperplaneError("segment lies inside the hyperplane")
    if a_on or b_on:
        return True
    return bool(fa * fb < 0)


def halfspace_side(u, x):
    """+1 if x is in {<x, u> > 0}, -1 in the complement, 0 on the boundary.

    x is a point's (n+1, 4) coefficients or its (n+1,) real coordinates;
    the representative sign of x is fixed by a positive leading coordinate.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    xr = x[:, 0] if x.ndim == 2 else x
    if xr[0] < 0:
        xr = -xr
    v = -xr[0] * u[0] + xr[1:] @ u[1:]
    tol = BOUNDARY_TOL * np.linalg.norm(u) * np.linalg.norm(xr)
    if abs(v) <= tol:
        return 0
    return 1 if v > 0 else -1


def halfspace_contains(half, x):
    """Strict membership; boundary points are reported as not contained."""
    return halfspace_side(half.u, x) > 0


def count_cosh_roots(alpha, beta, gamma, interval):
    """Roots of alpha*cosh t + beta*sinh t = gamma in a closed interval.

    Returns (count, roots) with count in {0, 1, 2}; tangency (double root)
    is counted once.  Raises on the degenerate (alpha, beta) = (0, 0).
    """
    s0, s1 = interval
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("degenerate equation: alpha = beta = 0")
    tol = 1e-12 * max(abs(alpha), abs(beta))
    roots = []
    if abs(abs(alpha) - abs(beta)) <= tol:
        # pure exponential: alpha e^{+-t}
        sign = 1.0 if beta * alpha >= 0 else -1.0
        ratio = gamma / alpha
        if ratio > 0:
            roots = [sign * math.log(ratio)]
    elif abs(alpha) > abs(beta):
        r = math.sqrt(alpha * alpha - beta * beta)
        phi = math.atanh(beta / alpha)
        c = gamma / (math.copysign(r, alpha))
        if abs(c - 1.0) <= 1e-14 * max(abs(c), 1.0):
            roots = [-phi]
        elif c > 1.0:
            h = math.acosh(c)
            roots = [-phi - h, -phi + h]
    else:
        r = math.sqrt(beta * beta - alpha * alpha)
        phi = math.atanh(alpha / beta)
        roots = [math.asinh(gamma / math.copysign(r, beta)) - phi]
    etol = 1e-12 * max(abs(s0), abs(s1), 1.0)
    inside = [t for t in roots if s0 - etol <= t <= s1 + etol]
    return len(inside), inside


def count_horosphere_intersections(h, seg):
    """Number of times the horosphere meets the segment, in {0, 1, 2}.

    With a = <x, xi> and b = <w, xi> for the segment's base x and tangent w,
    the level condition |a cosh s + b sinh s|^2 = 1 along the segment
    becomes alpha cosh 2s + beta sinh 2s = 1 - gamma on [0, 2L], where
    alpha = (|a|^2 + |b|^2) / 2, beta = a.b and gamma = (|a|^2 - |b|^2) / 2.
    """
    if h.field != seg.field or h.xi.shape != seg.base.shape:
        raise ValueError("horosphere and segment live in different spaces")
    a, b = form_coeffs(seg.base, h.xi), form_coeffs(seg.tangent, h.xi)
    if not (a.any() or b.any()):
        raise ArithmeticError("degenerate pairing; invalid horosphere or segment")
    count, _ = count_cosh_roots(0.5 * (a @ a + b @ b), a @ b,
                                1.0 - 0.5 * (a @ a - b @ b), (0.0, 2.0 * seg.length))
    return count
