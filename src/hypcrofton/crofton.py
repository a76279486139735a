"""Invariant samplers, intersection predicates and Crofton estimators.

Hyperplanes of H^n_R are spacelike unit vectors u = (sinh p, cosh p * w)
with w on S^{n-1}; the invariant measure has density cosh^{n-1}(p) dp dw,
identified under (p, w) ~ (-p, -w).  Horospheres of H^n_F are forward null
vectors xi = r (1, w) modulo right unit-scalar phase, with radial density
r^{k(n+1)-3} dr (k = real dimension of F); the horosphere itself is the
level set {x : |<x, xi>| = 1} and |log r| is its distance from the base
point.  The samplers draw carriers from a ball around the base point; the
tests use them, with the scalar predicates, as the reference.

The hyperbolic estimators sample only a carrier's direction and integrate
its depth or radius in closed form (Rao-Blackwellisation of the Crofton
integral; see hyperplane_crofton and horosphere_crofton) on one segment:
the carrier measures are invariant, every segment of length d is
congruent to the axis segment from -d/2 to d/2 through the base point, and
the base point's stabiliser (O(n), U(n), Sp(n)) keeps the uniform law of
directions, so a direction's value depends on d, its first coordinate w1
and |w_rest|^2 alone.  These are drawn from their exact laws
(_first_coordinate), not read off a full unit vector.  estimate_m and
estimate_horosphere_crofton take a pair of points and pass d(x, y).  The
projective and sphere estimators do the same on the canonical arc from e1
to (cos d, sin d, 0, ...): O(n+1) is transitive on arcs of length d, and a
hypersurface u-perp meets that arc according to u's two coordinates in the
arc's plane alone (_arc_plane_coordinates).

The vector entry points hyperplane_crofton_many, horosphere_crofton_many,
projective_crofton_many and sphere_halfspace_crofton_many estimate many
distances, or many pairs with one base point, in one pass: each chunk
draws its directions once and every distance reads them, and one thread
pool serves them all.  hyperplane_crofton, horosphere_crofton,
projective_crofton_estimate and sphere_halfspace_crofton are their
one-pair wrappers, and each estimate of a vector call equals the one its
wrapper gives at the same seed.  So the estimates of one call use common
random numbers.

Estimators are deterministic given an integer master seed: samples are
drawn in fixed-size chunks with independently spawned substreams, so the
result does not depend on the worker count or schedule.  A chunk holds
CHUNK_SIZE = 2^14 directions, so each of its arrays is 128 KiB and a
worker's working set, eight of them and a bool mask for horospheres and
four for hyperplanes, stays in a 2 MiB L2 cache.  The chunks that one
thread runs in one call reuse the same arrays (_thread_arrays), and the
kernels work in them in place.

CARRIERS holds one Carrier per family, keyed by the CLI's carrier names:
its estimator of distances, the fields and distances it takes, and its
ratio estimate / d.  The geometry layer (spaces) is imported only inside
the functions that take points, so no run through the table loads it.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import (
    FIELD_DIM, FIELDS, MAX_DISTANCE, REAL, form_coeffs, qconj, qmul, qnorm)

BOUNDARY_TOL = 1e-12
#: directions per chunk: 2^14 float64 values are a 128 KiB array, so a
#: worker's working set, the eight such arrays and a bool mask that every
#: horosphere chunk of a thread reuses, stays in a 2 MiB L2 cache
CHUNK_SIZE = 1 << 14
#: largest n, and largest k n, whose carrier measure is a positive normal
#: float: vol(S^{n-1}) / 2 for the hyperplanes of H^n_R, vol(S^{kn-1}) for
#: the horospheres of H^n_F (k = dim F); vol(S^m) falls below 2.2e-308 past
#: m = 437
MAX_HYPERPLANE_DIM = 437
MAX_HOROSPHERE_DIM = 438
#: the projective and sphere estimators take a pair at a shorter distance as
#: coincident, with estimate 0
MIN_ARC_DISTANCE = 1e-12


class SegmentInHyperplaneError(ValueError):
    """The whole segment lies inside the hyperplane (measure-zero event)."""


# -- elementary integrals ------------------------------------------------------

def sphere_area(m):
    """Surface area of the unit sphere S^m in R^{m+1}.

    From log-gamma, so large m underflows to 0 instead of overflowing.
    """
    h = 0.5 * (m + 1)
    return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))


def cosh_power_antiderivative(m, t):
    """Antiderivative of cosh^m at t (recurrence, exact for integer m >= 0)."""
    t = np.asarray(t, dtype=float)
    if m == 0:
        return t + 0.0
    if m == 1:
        return np.sinh(t)
    return (np.cosh(t) ** (m - 1) * np.sinh(t)
            + (m - 1) * cosh_power_antiderivative(m - 2, t)) / m


def _doubled_antiderivative_at_artanh(m, s, c2, f):
    """2 F_m(artanh s), F_m = cosh_power_antiderivative(m, .), for s in [0, 1),
    written into f; s and c2 are overwritten.

    At t = artanh s, cosh t = c with c^2 = 1 / ((1 - s)(1 + s)), formed as
    that product so that nothing cancels near s = 1, and sinh t = s c, so
    cosh^{j-1} t sinh t = s c^j and F_j = (s c^j + (j - 1) F_{j-2}) / j from
    F_0 = artanh s or F_1 = s c: one arctanh (m even) or one sqrt (m odd),
    and no cosh, sinh or power.  The doubling is folded into the last step.
    """
    np.subtract(1.0, s, out=c2)
    np.add(1.0, s, out=f)
    c2 *= f
    np.reciprocal(c2, out=c2)
    if m % 2:
        np.sqrt(c2, out=f)
        s *= f
        np.copyto(f, s)
    else:
        np.arctanh(s, out=f)
    for j in range(m % 2 + 2, m + 1, 2):
        s *= c2
        if j > 2:
            f *= j - 1
        f += s
        if j < m:
            f /= j
    # 2 / m at the last step (exactly 1 at m = 2), 2 when there is none
    last = 0.5 * max(m, 1)
    if last != 1.0:
        f /= last
    return f


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


def _first_coordinate(k, m, size, rng, out=None):
    """The first-coordinate statistics (x, a, b) of `size` uniform directions.

    For g ~ N(0, I_{km}) on F^m (k = dim F) and w = g / |g|:
    x = |Re g_1|, a = |Im g_1|^2 ~ chi^2_{k-1} and b = |g_rest|^2 ~
    chi^2_{k(m-1)}, drawn as |normal| and twice a standard gamma (zeros when
    k = 1 or m = 1).  With rho^2 = x^2 + a + b, |Re w_1| = x / rho,
    |Im w_1|^2 = a / rho^2 and |w_rest|^2 = b / rho^2: all the hyperbolic
    integrands read of w.  The sign of Re w_1 is dropped: w_1 -> -w_1 maps a
    direction's value on the axis segment to its value on the reversed
    segment, which is the same.  The draws fill the three arrays of `out`,
    or fresh ones.
    """
    x, a, b = out if out is not None else (np.empty(size) for _ in range(3))
    rng.standard_normal(out=x)
    np.abs(x, out=x)
    for chi2, dof in ((a, k - 1), (b, k * (m - 1))):
        if dof:
            rng.standard_gamma(0.5 * dof, out=chi2)
            chi2 *= 2.0
        else:
            chi2.fill(0.0)
    return x, a, b


def _thread_arrays(count, masks=0):
    """arrays(size) -> `count` float arrays, then `masks` bool arrays, of
    `size` <= CHUNK_SIZE entries, the calling thread's own, which every
    chunk the thread runs reuses.

    A chunk's fresh 128 KiB arrays cost a minor page fault per 4 KiB page
    whenever malloc has handed the freed top of the heap back to the system
    since the previous chunk, which the heap's layout decides; reused
    arrays cost none.  They are separate arrays rather than one block, so
    that malloc can place each in heap pages already resident.  They hold
    one chunk's data at a time, so nothing may keep them past the chunk.
    """
    local = threading.local()

    def arrays(size):
        held = getattr(local, "arrays", None)
        if held is None:
            held = local.arrays = [np.empty(CHUNK_SIZE, dtype) for dtype in
                                   [float] * count + [bool] * masks]
        return [a[:size] for a in held]

    return arrays


def _arc_plane_coordinates(size, rng):
    """(g1, g2), shape (2, size): the first two coordinates of `size`
    normal vectors g ~ N(0, I), whose directions are uniform on the sphere.

    These are g's coordinates in the plane of the canonical arc from e1 to
    (cos d, sin d, 0, ...), all that decides whether g-perp meets the arc.
    """
    return rng.standard_normal((2, size))


# -- carriers ------------------------------------------------------------------

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

    __slots__ = ("space", "xi")

    def __init__(self, space, xi_coeffs):
        xi = np.asarray(xi_coeffs, dtype=float)
        if xi.shape != (space.dim, 4):
            raise ValueError(f"expected coefficients of shape {(space.dim, 4)}")
        norm2 = float(np.sum(xi ** 2))
        if norm2 == 0.0:
            raise ValueError("null vector must be nonzero")
        q = form_coeffs(xi, xi)[0]
        if abs(q) > 1e-10 * norm2:
            raise ValueError("horosphere parameter must be a null vector")
        lead = qnorm(xi[0])
        if lead <= 0.0:
            raise ValueError("leading component must be nonzero")
        lam = qconj(xi[0]) / lead
        xi = qmul(xi, lam[None, :])
        xi.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "xi", xi)

    def __setattr__(self, name, value):
        raise AttributeError("Horosphere is immutable")

    def level(self, x):
        """|<x, xi>| -- the horosphere is its level-1 set."""
        return float(qnorm(form_coeffs(x.coords, self.xi)))

    def busemann_distance(self):
        """Distance of the base point from the horosphere, |log r|."""
        return abs(math.log(float(qnorm(self.xi[0]))))


@dataclass(frozen=True)
class CroftonEstimate:
    """Monte Carlo estimate of a Crofton integral: total_measure * mean_count.

    For the hyperbolic estimators mean_count is the mean over sampled
    directions of the measure of carriers meeting the segment, and
    count_histogram tallies the crossing count of one such carrier per
    direction (1 or 2); for the projective and sphere estimators
    mean_count is the hit fraction, and count_histogram tallies the
    directions whose hypersurface crosses the segment 0 and 1 times.
    """

    d: float
    total_measure: float
    mean_count: float
    estimate: float
    stderr: float
    samples: int
    seed: int
    ratio: float
    boundary_count: int = 0
    count_histogram: dict = field(default_factory=dict)
    note: str = ""


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


def sample_horosphere(space, R, rng):
    """One horosphere whose distance from the base point is <= R."""
    xi = _sample_horosphere_params(space, R, 1, rng)[0]
    return Horosphere(space, xi)


def _sample_horosphere_params(space, R, size, rng):
    k = FIELD_DIM[space.field]
    n = space.n
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
    if seg.space.field != REAL:
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

    The representative sign of x is fixed by a positive leading coordinate.
    """
    from .spaces import HPoint

    u = np.asarray(u, dtype=float)
    xr = x.coords[:, 0] if isinstance(x, HPoint) else np.asarray(x, dtype=float)
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
    if h.space != seg.space:
        raise ValueError("horosphere and segment live in different spaces")
    a, b = form_coeffs(seg.base, h.xi), form_coeffs(seg.tangent, h.xi)
    if not (a.any() or b.any()):
        raise ArithmeticError("degenerate pairing; invalid horosphere or segment")
    count, _ = count_cosh_roots(0.5 * (a @ a + b @ b), a @ b,
                                1.0 - 0.5 * (a @ a - b @ b), (0.0, 2.0 * seg.length))
    return count


def _level_coefficients(x, a, b, rho2, plus):
    """(half, low, high, gamma): the part of a direction's level free of d.

    On the axis segment of length d, p(s) = x0 cosh s + v sinh s, s in
    [0, d], runs along the first axis from -d/2 to d/2.  For xi = (1, w),
    w a unit direction of F^n given by its first-coordinate statistics
    (x, a, b) (_first_coordinate), |<p(s), xi>|^2 = (up e^{2s} + down
    e^{-2s}) / 2 + gamma with up = e^{-d} half low and down = e^{d} half
    high.  Only w's first coordinate w1 pairs with the segment: <x0, xi> +-
    <v, xi> are e^{-d/2} (w1 - 1) and -e^{d/2} (w1 + 1), so up = e^{-d}
    |w1 - 1|^2 / 2, down = e^{d} |w1 + 1|^2 / 2 and gamma = (1 - |w1|^2) / 2
    = |w_rest|^2 / 2.  With rho^2 = x^2 + a + b, rho |w1 -+ 1| has real
    part rho -+ x and squared imaginary part a: half = 1 / (2 rho^2), low =
    (rho - x)^2 + a, high = (rho + x)^2 + a.  rho - x is formed as (a + b)
    / (rho + x), so every term is a sum of squares and none cancels.  They
    are written in place: half in rho2, low in x, high in plus and gamma in
    b; a is only read.
    """
    np.multiply(x, x, out=rho2)
    rho2 += a
    rho2 += b
    np.sqrt(rho2, out=plus)
    plus += x
    minus = np.add(a, b, out=x)
    minus /= plus
    half = np.divide(0.5, rho2, out=rho2)
    minus *= minus
    minus += a
    plus *= plus
    plus += a
    b *= half
    return half, minus, plus, b


def _radial_potential(G, e, spare):
    """Phi(G^{-1/2}) in place of G, where Phi(r) = r^{e+1} / (e+1), or log r
    when e = -1; spare may be overwritten.

    For q = e + 1 >= 1, Phi = y^m / q with y = 1 / G and m = q / 2 when q is
    even, y = 1 / sqrt(G) and m = q when q is odd.  y^m is formed by binary
    exponentiation from the left, so every partial power lies between y and
    y^m and none overflows or underflows where y^m does not: one reciprocal
    (and square root), then a squaring per further bit of m and a multiply
    by y per further set bit, each one pass of a plain ufunc, where
    np.power costs a pow() call per entry whatever the exponent.  At m = 1
    y is formed in G itself and spare is not touched.
    """
    if e == -1:
        np.log(G, out=G)
        G *= -0.5
        return G
    q = e + 1
    m = q if q % 2 else q // 2
    y = G if m == 1 else spare
    if q % 2:
        np.sqrt(G, out=y)
        np.reciprocal(y, out=y)
    else:
        np.reciprocal(G, out=y)
    power = y
    for bit in bin(m)[3:]:
        np.square(power, out=G)
        power = G
        if bit == "1":
            G *= y
    if q > 1:
        G *= 1.0 / q
    return G


def _horosphere_levels(x, a, b, rho2, plus, e):
    """(low, high, gamma, peak): the part of a direction's values free of d,
    in x, plus, b and rho2; a is overwritten.

    low = |w1 - 1|^2 / 2 and high = |w1 + 1|^2 / 2 are _level_coefficients'
    half times its low and high, so up = e^{-d} low and down = e^{d} high on
    the segment of length d.  G's critical value sqrt(up * down) + gamma =
    sqrt(low * high) + gamma does not depend on d, and peak is Phi there
    (_radial_potential).  That value is 0 only when low = gamma = 0 (w1 =
    1), whose minimum never lies inside a segment; peak reads Phi(1) there
    instead of the pole Phi(0).
    """
    half, low, high, gamma = _level_coefficients(x, a, b, rho2, plus)
    low *= half
    high *= half
    peak = np.multiply(low, high, out=half)
    np.sqrt(peak, out=peak)
    peak += gamma
    peak += np.equal(peak, 0.0, out=a)
    return low, high, gamma, _radial_potential(peak, e, a)


def _horosphere_values(d, levels, u, e, out):
    """Per direction w: the measure of crossing horospheres, and whether the
    one drawn is met twice, in the second float array and the bool array of
    out (three float arrays and a bool one).

    The horospheres of direction w are xi = r (1, w), with radial density
    r^e dr, and their measure is the total variation of Phi(G^{-1/2}) on the
    segment of length d, G(s) = (up e^{2s} + down e^{-2s}) / 2 + gamma for s
    in [0, d] (_horosphere_levels): G(0) = e^{-d} (low + high e^{2d}) / 2 +
    gamma and G(d) = e^{-d} (low e^{2d} + high) / 2 + gamma, sums of
    nonnegative terms.  G's only critical point is its minimum, where Phi is
    `peak`, at e^{4s} = down / up, inside the segment when 1 < down / up <
    e^{4d}.  Re w1 >= 0 makes high >= low, so the first bound holds at every
    d > 0 and the second reads high < low e^{2d}.  With hi and lo the larger
    and smaller end value of Phi, the value is hi - lo plus, inside, twice
    the excess max(peak, hi) - hi, which the max keeps >= 0 against
    rounding; the mask multiplies it away outside.  Neither end is taken to
    be hi: in floats G(0) >= G(d) can fail by an ulp.  hi - lo is formed as
    |Phi(G(d)) - Phi(G(0))|, the same float.  One radius per direction is
    drawn by the uniforms u from r^e dr among the horospheres meeting the
    segment: Phi values above both end values, u (top - lo) > hi - lo with
    top = hi + excess, are met twice, so no direction outside is.  Each d
    makes two _radial_potential calls, on G at the ends; most other steps
    write into one of their operands, which numpy runs faster than into a
    third array.
    """
    low, high, gamma, peak = levels
    f0, f1, t, mask = out
    near, grow = 0.5 * math.exp(-d), math.exp(2.0 * d)
    np.multiply(low, grow, out=f1)
    inside = np.less(high, f1, out=mask)
    f1 += high
    f1 *= near
    f1 += gamma
    np.multiply(high, grow, out=f0)
    f0 += low
    f0 *= near
    f0 += gamma
    _radial_potential(f0, e, t)
    _radial_potential(f1, e, t)
    hi = np.maximum(f0, f1, out=t)
    ends = np.subtract(f1, f0, out=f1)
    np.absolute(ends, out=ends)
    excess = np.maximum(peak, hi, out=f0)
    excess -= hi
    np.copyto(t, inside)  # 0.0 and 1.0: a float product is cheaper
    excess *= t
    span = np.add(ends, excess, out=t)  # top - lo
    span *= u
    twice = np.greater(span, ends, out=mask)
    ends += excess
    ends += excess
    return ends, twice


# -- chunked Monte Carlo driver -------------------------------------------------

def _resolve_seed(seed):
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2 ** 63 - 1))
    return int(seed)


def _run_chunks(chunk_fn, samples, seed, workers=1):
    """Run chunk_fn(rng, size) over chunks of CHUNK_SIZE with spawned substreams.

    Returns the chunks' results in chunk order; they are independent of
    worker count and scheduling because chunk boundaries and seeds are
    fixed by (seed, chunk index).
    """
    sizes = [CHUNK_SIZE] * (samples // CHUNK_SIZE)
    if samples % CHUNK_SIZE:
        sizes.append(samples % CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def run(i):
        return chunk_fn(np.random.default_rng(seeds[i]), sizes[i])

    if workers > 1 and len(sizes) > 1:
        # imported here: a one-worker run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(len(sizes))))
    return [run(i) for i in range(len(sizes))]


def _zero_estimate(seed, samples):
    return CroftonEstimate(d=0.0, total_measure=0.0, mean_count=0.0,
                           estimate=0.0, stderr=0.0, samples=samples,
                           seed=seed, ratio=float("nan"),
                           note="coincident points")


def _merge_moments(a, b):
    """Chan et al.'s update of (count, sum, centred sum of squares, histogram)."""
    na, sa, ma, ha = a
    nb, sb, mb, hb = b
    delta = sb / nb - sa / na
    return na + nb, sa + sb, ma + mb + delta * delta * (na * nb / (na + nb)), ha + hb


def _conditional_estimate(ds, samples, seed, workers, measure, draw, values):
    """measure times the mean over sampled directions of a closed-form value,
    one estimate per distance d in ds.

    draw(rng, size) draws `size` directions and returns what their values
    share across distances; values(d, shared) returns, per direction, the
    measure of the carriers of that direction meeting the canonical segment
    of length d, and the counts (zeros, ones, twos) of directions whose
    drawn carrier crosses it 0, 1 and 2 times, which the histogram tallies.
    Each chunk draws once for every d, so the estimates of one call share
    their directions.  Per d, each chunk's sum and centred sum of squares
    are merged in chunk order, so the variance does not cancel when the
    values barely vary.  Raises ValueError for a d that is not finite and
    >= 0, and for an estimate or stderr that underflows below the smallest
    normal float.
    """
    seed = _resolve_seed(seed)
    ds = tuple(ds)
    for d in ds:
        if not (math.isfinite(d) and d >= 0.0):
            raise ValueError(f"the distance must be finite and >= 0, got {d}")
    live = [d for d in ds if d != 0.0]

    def chunk(rng, size):
        shared = draw(rng, size)
        moments = []
        for d in live:
            v, counts = values(d, shared)
            total = float(v.sum())
            v -= total / size
            v *= v
            moments.append((size, total, float(np.sum(v)), np.array(counts)))
        return moments

    chunks = _run_chunks(chunk, samples, seed, workers) if live else []
    merged = (functools.reduce(_merge_moments, per_d) for per_d in zip(*chunks))
    return [_zero_estimate(seed, samples) if d == 0.0
            else _moment_estimate(d, measure, samples, seed, next(merged))
            for d in ds]


def _moment_estimate(d, measure, samples, seed, moments):
    _, total, m2, hist = moments
    mean = total / samples
    est = measure * mean
    stderr = measure * math.sqrt(m2) / samples
    if (mean > 0.0 and est < sys.float_info.min) or \
            (m2 > 0.0 and stderr < sys.float_info.min):
        raise ValueError(f"the estimate at d = {d:g} underflows: {est:g} +- "
                         f"{stderr:g} is below the smallest normal float")
    histogram = {c: int(k) for c, k in enumerate(hist) if k}
    return CroftonEstimate(d=d, total_measure=measure, mean_count=mean,
                           estimate=est, stderr=stderr, samples=samples,
                           seed=seed, ratio=est / d, count_histogram=histogram)


def _line_estimates(ds, samples, seed, workers, measure):
    """The estimates of H^1_R, where every direction carries exactly d and
    its carrier meets the segment once: nothing is drawn, and the values do
    not lose bits to a closed form that is d only in exact arithmetic."""
    return _conditional_estimate(
        ds, samples, seed, workers, measure, lambda rng, size: size,
        lambda d, size: (np.full(size, d, dtype=float), (0, size, 0)))


# -- estimators ----------------------------------------------------------------

def hyperplane_crofton_many(n, ds, samples, seed=0, workers=1):
    """Measures of the hyperplanes of H^n_R meeting segments of lengths ds.

    One estimate per d; each divided by d is the Crofton constant
    vol(S^{n-2}) / (n-1).  For a direction w the hyperplane at depth p
    meets the axis segment from -d/2 to d/2 exactly when tanh p lies
    between -+tanh(d/2) w1; F' = cosh^{n-1} is even, so that direction
    carries 2 F(artanh(tanh(d/2) w1)), in closed form in tanh(d/2) w1
    (_doubled_antiderivative_at_artanh), with w1 = |w_1| >= 0 drawn by
    _first_coordinate once per chunk for every d.  The (p, w) chart
    double-covers the hyperplane space, hence the halved sphere area.  At
    n = 1 every direction carries exactly d, and nothing is drawn.
    Raises ValueError for n outside [1, MAX_HYPERPLANE_DIM].
    """
    if not 1 <= n <= MAX_HYPERPLANE_DIM:
        raise ValueError(f"hyperplane estimates support dimensions 1 to "
                         f"{MAX_HYPERPLANE_DIM}, where the carrier measure "
                         f"vol(S^(n-1)) / 2 is a positive normal float; got {n}")
    if n == 1:
        # the hyperplanes of H^1_R are its points, of measure dp (S^0's
        # area 2, halved): those on the segment, measure d, each met once
        return _line_estimates(ds, samples, seed, workers, 1.0)
    arrays = _thread_arrays(4)

    def draw(rng, size):
        # w1 = x / sqrt(x^2 + b), in x; the zeros of k = 1 hold x^2 + b
        x, rho, b, _ = arrays(size)
        _first_coordinate(1, n, size, rng, (x, rho, b))
        np.multiply(x, x, out=rho)
        rho += b
        np.sqrt(rho, out=rho)
        x /= rho
        return x

    def values(d, w1):
        _, s, c2, f = arrays(w1.size)
        np.multiply(w1, math.tanh(0.5 * d), out=s)
        _doubled_antiderivative_at_artanh(n - 1, s, c2, f)
        return f, (0, f.size, 0)  # a hyperplane meets the segment once

    return _conditional_estimate(ds, samples, seed, workers,
                                 sphere_area(n - 1) / 2.0, draw, values)


def hyperplane_crofton(n, d, samples, seed=0, workers=1):
    """Measure of the hyperplanes of H^n_R meeting a segment of length d."""
    return hyperplane_crofton_many(n, (d,), samples, seed, workers)[0]


def estimate_m(x, y, samples, seed=0, workers=1):
    """Measure of hyperplanes meeting [xy]: hyperplane_crofton at d(x, y)."""
    from .spaces import hyperbolic_distance

    if x.space.field != REAL:
        raise ValueError("hyperplane Crofton estimates require the real field")
    return hyperplane_crofton(x.space.n, hyperbolic_distance(x, y), samples,
                              seed, workers)


def horosphere_crofton_many(field, n, ds, samples, seed=0, workers=1):
    """Horosphere crossing counts of segments of lengths ds in H^n_F.

    One estimate per d, integrated over all horospheres; valid over R, C
    and H, and divided by d it is 2 vol(B^{kn-1}), k = dim F.  Directions w
    are uniform on S^{kn-1}; the radius of (1, w) is integrated against
    r^e dr, e = k(n+1) - 3, in closed form on the axis segment of length d,
    where only w's first coordinate w1 and the norm of the others enter,
    drawn by _first_coordinate.  Each chunk draws these statistics and the
    uniforms of the crossing counts once and forms the levels' d-free part,
    with Phi at G's interior minimum (_horosphere_levels), once for every d.
    At k n = 1 every direction carries exactly d, and nothing is drawn.
    Raises ValueError for k n outside [1, MAX_HOROSPHERE_DIM].
    """
    k = FIELD_DIM[field]
    if not 1 <= k * n <= MAX_HOROSPHERE_DIM:
        raise ValueError(f"horosphere estimates support k n from 1 to "
                         f"{MAX_HOROSPHERE_DIM} (k = {k} for field {field!r}), "
                         f"where the carrier measure vol(S^(kn-1)) is a positive "
                         f"normal float; got k n = {k * n}")
    if k * n == 1:
        # S^0's two directions, w1 = 1 once its sign is dropped, carry the
        # points of H^1_R with log r on the segment: measure d, each met once
        return _line_estimates(ds, samples, seed, workers, 2.0)
    e = k * (n + 1) - 3
    arrays = _thread_arrays(8, masks=1)

    def draw(rng, size):
        x, a, b, rho2, plus, *out = arrays(size)
        _first_coordinate(k, n, size, rng, (x, a, b))
        levels = _horosphere_levels(x, a, b, rho2, plus, e)
        return levels, rng.random(out=a), out

    def values(d, shared):
        levels, u, out = shared
        v, twice = _horosphere_values(d, levels, u, e, out)
        doubles = int(np.count_nonzero(twice))
        return v, (0, v.size - doubles, doubles)

    return _conditional_estimate(ds, samples, seed, workers,
                                 sphere_area(k * n - 1), draw, values)


def horosphere_crofton(field, n, d, samples, seed=0, workers=1):
    """Horosphere crossing count of a segment of length d in H^n_F."""
    return horosphere_crofton_many(field, n, (d,), samples, seed, workers)[0]


def estimate_horosphere_crofton(x, y, samples, seed=0, workers=1):
    """Horosphere crossing count of [xy]: horosphere_crofton at d(x, y)."""
    from .spaces import hyperbolic_distance

    space = x.space
    return horosphere_crofton(space.field, space.n, hyperbolic_distance(x, y),
                              samples, seed, workers)


def _arc_crofton_many(ds, samples, seed, workers, diameter, note):
    """Fractions of the hypersurfaces u-perp, u uniform on S^n, meeting arcs
    of lengths ds; the expected fraction is d / pi.

    Each d is held by the canonical arc from e1 to (cos d, sin d, 0, ...),
    which u-perp meets exactly when (u . e1)(u . y) < 0, that is when g1 (g1
    cos d + g2 sin d) < 0 for u's coordinates (g1, g2) in the arc's plane
    (_arc_plane_coordinates).  A d below MIN_ARC_DISTANCE is a coincident
    pair, and an estimate within 1e-12 of the diameter carries the note.
    """
    ds = [0.0 if d < MIN_ARC_DISTANCE else d for d in ds]

    def draw(rng, size):
        g1, g2 = _arc_plane_coordinates(size, rng)
        g2 *= g1
        g1 *= g1
        return g1, g2

    def values(d, shared):
        g11, g12 = shared
        v = g11 * math.cos(d)
        v += g12 * math.sin(d)
        np.less(v, 0.0, out=v)
        hits = int(np.count_nonzero(v))
        return v, (v.size - hits, hits, 0)

    estimates = _conditional_estimate(ds, samples, seed, workers, 1.0, draw, values)
    return [replace(e, note=note) if e.d > diameter - 1e-12 else e
            for e in estimates]


def projective_crofton_many(x, ys, samples, seed=0, workers=1):
    """Fractions of hypersurfaces u-perp meeting the short segments [x y], y in ys.

    In P^n_R the hypersurface of a uniform u on S^n meets a short segment
    iff the sign of (., u) changes along a lift of it to S^n, an arc of
    length d(x, y); with the sampling measure normalized to 1 the expected
    fraction is d(x, y) / pi.  No half-space decomposition exists here: a
    hypersurface does not separate projective space, so only the meet
    predicate is exposed.  The pairs share each chunk's u.
    """
    from .spaces import projective_distance

    return CARRIERS["projective"].estimate(
        None, None, [projective_distance(x, y) for y in ys], samples, seed, workers)


def projective_crofton_estimate(x, y, samples, seed=0, workers=1):
    """Fraction of hypersurfaces u-perp meeting the short segment in P^n_R."""
    return projective_crofton_many(x, (y,), samples, seed, workers)[0]


def sphere_halfspace_crofton_many(x, ys, samples, seed=0, workers=1):
    """Fractions of half-spaces of S^n containing exactly one of x, y, y in ys.

    u is uniform on S^n; the half-spaces are the hemispheres {u . z > 0}.
    Expected fraction is d(x, y) / pi; this is also ||chi_x - chi_y||^2 for
    the hemisphere indicator feature map.  The pairs share each chunk's u.
    """
    from .spaces import sphere_distance

    return CARRIERS["sphere"].estimate(
        None, None, [sphere_distance(x, y) for y in ys], samples, seed, workers)


def sphere_halfspace_crofton(x, y, samples, seed=0, workers=1):
    """Fraction of half-spaces of S^n containing exactly one of x, y."""
    return sphere_halfspace_crofton_many(x, (y,), samples, seed, workers)[0]


# -- carrier table -------------------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    """A family's Crofton formula: estimate(field, n, ds, samples, seed,
    workers) -> a CroftonEstimate per d in ds, for low <= d <= high (high_name,
    bounded for the reason why); constant(k, n) = estimate / d, k = dim F."""

    estimate: Callable
    fields: tuple
    low: float
    high: float
    high_name: str
    why: str
    constant: Callable


def _arc_carrier(diameter, name, space, note):
    """An arc family: past its diameter d reads 2 pi - d (S^n) or pi - d (P^n_R)."""
    return Carrier(lambda field, n, *rest: _arc_crofton_many(*rest, diameter, note),
                   FIELDS, MIN_ARC_DISTANCE, diameter, name,
                   f"the diameter of {space}", lambda k, n: 1.0 / math.pi)


_H_RANGE = (0.0, MAX_DISTANCE, f"{MAX_DISTANCE:g}", "the largest supported in H^n")
# The hyperbolic entries look their estimators up among the module's globals
# when called, so a rebinding of the module attribute applies to them.
CARRIERS = {
    "hyperplane": Carrier(lambda field, *rest: hyperplane_crofton_many(*rest),
                          (REAL,), *_H_RANGE,
                          lambda k, n: sphere_area(n - 2) / (n - 1) if n > 1 else 1.0),
    # 2 vol(B^m) = vol(S^{m+1}) / pi, m = k n - 1
    "horosphere": Carrier(lambda *args: horosphere_crofton_many(*args), FIELDS,
                          *_H_RANGE, lambda k, n: sphere_area(k * n) / math.pi),
    "projective": _arc_carrier(
        0.5 * math.pi, "pi/2", "P^n_R", "pair at distance pi/2, the diameter: "
        "both short segments give the same fraction"),
    "sphere": _arc_carrier(math.pi, "pi", "S^n", "antipodal pair: geodesic "
                           "non-unique, fraction is maximal"),
}
