"""Crofton estimators: the measure of the carriers that meet a segment.

Hyperplanes of H^n_R are spacelike unit vectors u = (sinh p, cosh p * w)
with w on S^{n-1}; the invariant measure has density cosh^{n-1}(p) dp dw,
identified under (p, w) ~ (-p, -w).  Horospheres of H^n_F are forward null
vectors xi = r (1, w) modulo right unit-scalar phase, with radial density
r^{k(n+1)-3} dr (k = real dimension of F); the horosphere itself is the
level set {x : |<x, xi>| = 1} and |log r| is its distance from the base
point.  No estimator draws a whole carrier or tests one against a segment:
the brute-force reference that does, carriers drawn from a ball around the
base point with their intersection predicates, is tests/reference.py.

The hyperbolic estimators sample only a carrier's direction and integrate
its depth or radius in closed form (Rao-Blackwellisation of the Crofton
integral; see hyperplane_crofton_many and horosphere_crofton_many) on one
segment:
the carrier measures are invariant, every segment of length d is
congruent to the axis segment from -d/2 to d/2 through the base point, and
the base point's stabiliser (O(n), U(n), Sp(n)) keeps the uniform law of
directions, so a direction's value depends on d, its first coordinate w1
and |w_rest|^2 alone: on the angles theta, with |w1| = cos theta, and phi,
with |Re w1| = |w1| cos phi, whose laws _sphere_law gives.  The
projective and sphere estimators do the same on the canonical arc from e1
to (cos d, sin d, 0, ...): O(n+1) is transitive on arcs of length d, and a
hypersurface u-perp meets that arc according to the angle of u's
projection onto the arc's plane alone, which is uniform.  Every estimator
takes distances, not points: the distance of a pair of points is an entry
of kernels.build_distance_matrix.

Every estimator's points come from one sampler, _lattice: a randomly
shifted rank-1 lattice whose coordinates each carrier declares once, as
(fraction, law, fold) triples.  A coordinate steps by g / N, g the
integer prime to the chunk size N nearest N times the fraction
(_generator), and stands for a graded angle with its law, or is a plain
uniform.  A graded coordinate t stands for its angle at tan(angle/2) =
t^GRADE, which crowds the points towards w1 = 1, where long segments
concentrate their values, and each point carries its angle laws' density
times the derivative of the angles in t as its weight.  The carriers'
coordinates:

- hyperplanes: theta, on the step 1 / N;
- horospheres: the angles that _sphere_law does not fix, theta's first,
  on 1 / N and then the golden ratio's step, with phi's coordinate folded;
  an angle the law fixes (theta at n = 1, phi over R, so that H^1_C and
  H^1_H have phi alone, on 1 / N) reads sin = (1 - cos)/2 = 0 and cos = 1.
  A last plain coordinate on sqrt(2)'s step gives each point's uniform
  for the crossing tally;
- arcs: one plain coordinate, the grid t = frac(i / N + shift) in the
  projected angle, of equal weight.

All of it is formed without a trigonometric call, and the horosphere
levels come from the angles' half-angle forms (1 - cos)/2 and sin/2, so
that nothing cancels near w1 = 1.

Each estimator estimates many distances in one pass: each chunk draws its
points once and every distance reads them, and one set of worker
processes (_run_chunks) serves them all.  So the estimates of one call use
common random numbers, and the estimate of d in a call is the one that a
call with d alone gives at the same seed.

Estimators are deterministic given a non-negative integer master seed:
the samples are split into at least MIN_REPLICATES chunks of near-equal
size (_chunk_sizes), and one random.Random(seed) stream draws every
chunk's lattice shifts, in chunk order and before any chunk runs, so the
result does not depend on the worker count or schedule; no estimator
loads numpy.random.  Each chunk is an unbiased replicate, and an
estimate's stderr is the spread of the chunk means over the square root
of their count.  A chunk holds at most CHUNK_SIZE = 2^14 points, so each
of its arrays is at most 128 KiB and a worker's working set, nine of
them and a bool mask for horospheres and five for hyperplanes, stays in
a 2 MiB L2 cache.  The chunks that one process runs in one call reuse
the same arrays (_chunk_arrays), and the kernels work in them in place.

CARRIERS holds one Carrier per family, keyed by the CLI's carrier names:
its estimator of distances, the fields and distances it takes, and its
ratio estimate / d.  No estimator loads the geometry layer (spaces).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import pickle
import random
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import FIELD_DIM, FIELDS, MAX_DISTANCE, REAL

#: the most points per chunk: 2^14 float64 values are a 128 KiB array, so a
#: worker's working set, the nine such arrays and a bool mask that every
#: horosphere chunk of a process reuses, stays in a 2 MiB L2 cache
CHUNK_SIZE = 1 << 14
#: the projective and sphere estimators take a pair at a shorter distance as
#: coincident, with estimate 0
MIN_ARC_DISTANCE = 1e-12


# -- elementary integrals ------------------------------------------------------

def sphere_area(m):
    """Surface area of the unit sphere S^m in R^{m+1}.

    From log-gamma, so large m underflows to 0 instead of overflowing.
    """
    h = 0.5 * (m + 1)
    return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))


def _doubled_antiderivative_at_artanh(m, s, c2, f):
    """2 F_m(artanh s), F_m the antiderivative of cosh^m that is 0 at 0, for
    s in [0, 1), written into f; s and c2 are overwritten.

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


def _chunk_arrays(count, masks=0):
    """arrays(size) -> `count` float arrays, then `masks` bool arrays, of
    `size` <= CHUNK_SIZE entries, which every chunk that one process runs
    reuses: each worker process allocates its own at its first chunk.

    A chunk's fresh 128 KiB arrays cost a minor page fault per 4 KiB page
    whenever malloc has handed the freed top of the heap back to the system
    since the previous chunk, which the heap's layout decides; reused
    arrays cost none.  They are separate arrays rather than one block, so
    that malloc can place each in heap pages already resident.  They hold
    one chunk's data at a time, so nothing may keep them past the chunk.
    """
    held = []

    def arrays(size):
        if not held:
            held.extend(np.empty(CHUNK_SIZE, dtype)
                        for dtype in [float] * count + [bool] * masks)
        return [a[:size] for a in held]

    return arrays


# -- graded lattice directions --------------------------------------------------

#: the lattice's grading: a lattice coordinate t in [0, 1) stands for the
#: angle a in [0, pi/2] with tan(a/2) = t^GRADE, which crowds the points
#: towards a = 0, where long segments concentrate their values
GRADE = 4
#: the fewest replicates, chunks with their own lattice shift, that an
#: estimate's stderr is taken from
MIN_REPLICATES = 16
#: the golden ratio's fractional part, which sets the lattice generator of
#: the second graded angle, and sqrt(2)'s, which sets that of the
#: horospheres' crossing coordinate (_generator)
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_SILVER = math.sqrt(2.0) - 1.0
#: the lattice index i as a float, shared read-only by every chunk
_INDEX = np.arange(CHUNK_SIZE, dtype=float)
_INDEX.flags.writeable = False


def _chunk_sizes(samples):
    """The sizes of the replicates that `samples` points are split into.

    There are at least MIN_REPLICATES of them (one point each when there
    are fewer samples), none holds more than CHUNK_SIZE points, and their
    sizes differ by at most one, so that every replicate's mean weighs
    alike in their spread.
    """
    count = min(samples, max(MIN_REPLICATES, -(-samples // CHUNK_SIZE)))
    size, extra = divmod(samples, count)
    return [size + 1] * extra + [size] * (count - extra)


@functools.lru_cache(maxsize=128)
def _generator(size, fraction):
    """The integer prime to size nearest size * fraction, at least 1: the
    generator g of a lattice coordinate (_lattice), whose points i g / size
    mod 1, i < size, are then a permutation of i / size.

    Fraction 0 gives g = 1, the plain grid.  The golden ratio's fractional
    part makes (1, g) a Fibonacci lattice when size is a Fibonacci number,
    and close to one otherwise.  sqrt(2)'s gives a third coordinate that is
    neither g nor g^2 mod size, which is +-1 for a Fibonacci size and would
    repeat the first.
    """
    g = max(1, round(fraction * size))
    for step in range(size):
        for candidate in (g - step, g + step):
            if candidate >= 1 and math.gcd(candidate, size) == 1:
                return candidate
    raise AssertionError("1 is prime to every size")


def _shifted(step, shift, t, spare):
    """frac(i step + shift) for i < t.size, written into t; spare is
    overwritten."""
    np.multiply(_INDEX[:t.size], step, out=t)
    t += shift
    np.floor(t, out=spare)
    t -= spare
    return t


def _power(y, m, spare):
    """y^m for an integer m >= 1: y itself when m = 1, else in spare.

    Binary exponentiation from the left: a squaring per further bit of m
    and a multiply by y per further set bit, so every partial power lies
    between y and y^m and none overflows or underflows where y^m does not.
    """
    power = y
    for bit in bin(m)[3:]:
        np.multiply(power, power, out=spare)
        power = spare
        if bit == "1":
            spare *= y
    return power


def _law_constant(law):
    """2^beta GRADE / Z for law = (alpha, beta): Z = B(alpha/2, beta/2) / 2
    is the integral of cos^(alpha-1) a sin^(beta-1) a over [0, pi/2], from
    log-gamma, and 2^(beta-1) turns (sin(a)/2)^(beta-1) into sin^(beta-1)
    a."""
    alpha, beta = law
    return 4.0 * GRADE * math.exp(math.lgamma(0.5 * (alpha + beta))
                                  - math.lgamma(0.5 * alpha)
                                  - math.lgamma(0.5 * beta)
                                  + (beta - 1) * math.log(2.0))


def _graded_angle(law, t, hav, cos, weight, spare):
    """(1 - cos a) / 2, sin(a) / 2 and cos a of the angles a that the
    lattice coordinates t stand for, written into hav, t and cos, and
    weight multiplied by each point's weight under the law cos^(alpha-1) a
    sin^(beta-1) a da on [0, pi/2], law = (alpha, beta), short of the
    constant _law_constant(law); spare is overwritten.

    With tau = tan(a/2) = t^GRADE and h = 1 / (1 + tau^2): (1 - cos a) / 2 =
    tau^2 h, sin(a) / 2 = tau h, cos a = h - tau^2 h and da/dt = 2 h GRADE
    t^(GRADE-1), so nothing calls a trigonometric function.  The weight is
    the density times da/dt over the density's integral Z: cos^(alpha-1) a
    (sin(a)/2)^(beta-1) h t^(GRADE-1) times 2^beta GRADE / Z.
    """
    alpha, beta = law
    power = _power(t, GRADE - 1, spare)
    weight *= power
    t *= power  # tau
    np.multiply(t, t, out=hav)
    np.add(hav, 1.0, out=cos)
    h = np.reciprocal(cos, out=cos)
    weight *= h
    t *= h
    hav *= h
    np.subtract(h, hav, out=cos)
    for y, m in ((cos, alpha - 1), (t, beta - 1)):
        if m:
            weight *= _power(y, m, spare)
    return hav, t, cos


def _lattice(lattice, arrays, shifts, weight, spare):
    """One chunk's points of a randomly shifted rank-1 lattice, and their
    weights, written into arrays.

    lattice declares a carrier's coordinates, a (fraction, law, fold) each:
    the coordinate frac(i g / size + shift), i < size, has the generator g
    = _generator(size, fraction), 1 at fraction 0; law is the law of the
    angle it stands for (_graded_angle), or None for a plain uniform
    coordinate; fold says whether it is folded by the tent map t -> 1 -
    |2t - 1| = 2 min(t, 1 - t), which keeps it uniform and makes an
    integrand that differs at t = 0 and t = 1 continuous where the lattice
    wraps.  arrays holds each coordinate's arrays, (t,) for a plain one
    and (t, hav, cos) for an angle, which get its sin/2 in t, (1 - cos)/2
    and cos; shifts holds the chunk's uniform shift of each coordinate.
    The weights, the product of the angles' weights with their constants,
    are written into weight, None when no coordinate is an angle; spare is
    overwritten.  Every point's weighted value has the laws' mean as its
    expectation, so each chunk is an independent, unbiased replicate.
    Raises ValueError when arrays or shifts do not hold one entry per
    coordinate.
    """
    if weight is not None:
        weight.fill(math.prod(_law_constant(law) for _, law, _ in lattice if law))
    for (fraction, law, fold), (t, *angle), shift in zip(lattice, arrays, shifts,
                                                         strict=True):
        _shifted(_generator(t.size, fraction) / t.size, shift, t, spare)
        if fold:
            np.subtract(1.0, t, out=spare)
            np.minimum(t, spare, out=t)
            t *= 2.0
        if law:
            _graded_angle(law, t, *angle, weight, spare)


def _sphere_law(k, n):
    """(theta, phi): the laws of a uniform direction w of F^n, k = dim F, as
    angles in [0, pi/2], or None for an angle fixed at 0.

    |w1| = cos theta, with density cos^(k-1) theta sin^(k(n-1)-1) theta
    (fixed when n = 1), and |Re w1| = |w1| cos phi, with density
    sin^(k-2) phi (fixed when k = 1); the sign of Re w1 is dropped: w1 ->
    -w1 maps a direction's value on the axis segment to its value on the
    reversed segment, which is the same.
    """
    return ((k, k * (n - 1)) if n > 1 else None,
            (1, k - 1) if k > 1 else None)


# -- estimates -----------------------------------------------------------------

@dataclass(frozen=True)
class CroftonEstimate:
    """Monte Carlo estimate of a Crofton integral: total_measure * mean_count.

    For the hyperbolic estimators mean_count is the weighted mean over the
    lattice points of the measure of carriers meeting the segment, and
    count_histogram tallies the crossing count of one such carrier per
    point (1 or 2); for the projective and sphere estimators mean_count is
    the hit fraction, and count_histogram tallies the points whose
    hypersurface crosses the segment 0 and 1 times.  stderr is the spread
    of the chunks' means (_moment_estimate).
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


# -- closed-form values --------------------------------------------------------

def _radial_potential(G, e, spare):
    """q Phi(G^{-1/2}) = G^{-q/2} in place of G, where Phi(r) = r^q / q and
    q = e + 1 >= 1 (k n >= 2: H^1_R, the one space with e = -1, takes exact
    lines instead); spare may be overwritten.  The estimator scales a
    chunk's sum by 1 / q once.

    G^{-q/2} = y^m with y = 1 / G and m = q / 2 when q is even,
    y = 1 / sqrt(G) and m = q when q is odd.  y^m is formed by binary
    exponentiation from the left, so every partial power lies between y and
    y^m and none overflows or underflows where y^m does not: one reciprocal
    (and square root), then a squaring per further bit of m and a multiply
    by y per further set bit, each one pass of a plain ufunc, where
    np.power costs a pow() call per entry whatever the exponent.  At m = 1
    y is formed in G itself and spare is not touched.
    """
    q = e + 1
    m = q if q % 2 else q // 2
    y = G if m == 1 else spare
    if q % 2:
        np.sqrt(G, out=y)
        np.reciprocal(y, out=y)
    else:
        np.reciprocal(G, out=y)
    return _power(y, m, G)


def _horosphere_levels(hav_theta, sin_theta, cos_theta, hav_phi, cross, e):
    """(low, high, gamma, peak): the part of a direction's values free of d,
    in hav_theta, cos_theta, hav_phi and cross, from the direction's
    half-angle statistics (_lattice); sin_theta is overwritten.

    On the axis segment of length d, p(s) = x0 cosh s + v sinh s, s in
    [0, d], runs along the first axis from -d/2 to d/2.  For xi = (1, w),
    w a unit direction of F^n, |<p(s), xi>|^2 = (up e^{2s} + down e^{-2s})
    / 2 + gamma with up = e^{-d} low and down = e^{d} high.  Only w's first
    coordinate w1 pairs with the segment: <x0, xi> +- <v, xi> are e^{-d/2}
    (w1 - 1) and -e^{d/2} (w1 + 1), so low = |w1 - 1|^2 / 2, high = |w1 +
    1|^2 / 2 and gamma = (1 - |w1|^2) / 2 = sin^2(theta) / 2.  With c = cos
    theta, |w1 - 1|^2 = (1 - c)^2 + 2 c (1 - cos phi), so low = 2
    hav_theta^2 + 2 c hav_phi, a sum of nonnegative terms, which nothing
    cancels near w1 = 1; high = low + 2 Re w1 with Re w1 = c - 2 c hav_phi,
    so high = low exactly where Re w1 = 0; gamma = 2 sin_theta^2.  G's
    critical value sqrt(up * down) + gamma = sqrt(low * high) + gamma does
    not depend on d, and peak is q Phi there (_radial_potential).  That value is 0 only when low = gamma = 0 (w1 =
    1), whose minimum never lies inside a segment; peak reads q Phi(1)
    there instead of the pole.
    """
    np.multiply(cos_theta, hav_phi, out=cross)
    gamma = np.multiply(sin_theta, sin_theta, out=hav_phi)
    gamma += gamma
    low = np.multiply(hav_theta, hav_theta, out=hav_theta)
    low += cross
    low += low
    cross *= -2.0
    high = np.add(cos_theta, cross, out=cos_theta)  # Re w1
    high += high
    high += low
    peak = np.multiply(low, high, out=cross)
    np.sqrt(peak, out=peak)
    peak += gamma
    peak += np.equal(peak, 0.0, out=sin_theta)
    return low, high, gamma, _radial_potential(peak, e, sin_theta)


def _horosphere_values(d, levels, u, e, out):
    """Per direction w: q = e + 1 times the measure of crossing horospheres,
    and whether the one drawn is met twice, in the first float array and
    the bool array of out (three float arrays and a bool one).

    The horospheres of direction w are xi = r (1, w), with radial density
    r^e dr, and their measure is the total variation of Phi(G^{-1/2}) on the
    segment of length d, G(s) = (up e^{2s} + down e^{-2s}) / 2 + gamma for s
    in [0, d] (_horosphere_levels): G(0) = e^{-d} (low + high e^{2d}) / 2 +
    gamma and G(d) = e^{-d} (low e^{2d} + high) / 2 + gamma, sums of
    nonnegative terms.  Every Phi value here is q Phi (_radial_potential).
    G's only critical point is its minimum, where Phi is `peak`, at e^{4s}
    = down / up, inside the segment when 1 < down / up < e^{4d}.  Re w1 >=
    0 makes high >= low, so the first bound holds at every d > 0 and the
    second reads high < low e^{2d}.  With hi and lo the larger and smaller
    end value of Phi, the value is hi - lo plus, inside, twice
    the excess max(peak, hi) - hi, which the max keeps >= 0 against
    rounding; the mask multiplies it away outside.  Neither end is taken to
    be hi: in floats G(0) >= G(d) can fail by an ulp.  hi - lo is formed as
    |Phi(G(d)) - Phi(G(0))|, the same float.  One radius per direction is
    drawn by its lattice coordinate u from r^e dr among the horospheres
    meeting the segment: Phi values above both end values, u (top - lo) >
    hi - lo with top = hi + excess, are met twice, so no direction outside
    is.  Each d makes two _radial_potential calls, on G at the ends; most
    other steps write into one of their operands, which numpy runs faster
    than into a third array.
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
    value = np.add(span, excess, out=f0)
    span *= u
    return value, np.greater(span, ends, out=mask)


# -- chunked Monte Carlo driver -------------------------------------------------

#: below this d (e + 1) a horosphere direction's value is its d -> 0 limit
#: d |Re w1|: off by O(d^2 (e + 1)^3) relative, under 1e-8 here, where the
#: kernel's difference of two Phi values loses 2e-16 / d relative
SHORT_SEGMENT = 1e-5
#: the largest natural log of one direction's value that the hyperbolic
#: estimators take: a value below e^600 whose weight underflows to 0 loses
#: less than 1e-47, and none overflows
LOG_VALUE_LIMIT = 600.0


def _resolve_seed(seed):
    """The master seed as an int.  Raises ValueError for a negative seed,
    which random.Random would take as its absolute value."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    return seed


def _resolve_count(name, count):
    """A call's samples or workers as an int.  Raises ValueError for one
    that is not an integer >= 1."""
    try:
        value = operator.index(count)
    except TypeError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    return value


def _usable_cpus():
    """The CPUs this process may run on, or all of the machine's where the
    platform keeps no affinity mask; 1 where it cannot fork, and while
    other threads run: a forked child holds only the calling thread, so a
    lock that another thread held at the fork would never be released in
    it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(chunk_fn, samples, seed, workers=1, dims=1):
    """Run chunk_fn(shifts, size) over the chunks of _chunk_sizes(samples),
    shifts being the chunk's `dims` uniform lattice shifts.

    One random.Random(seed) stream draws every chunk's shifts with
    random(), whose sequence for an integer seed Python keeps across
    versions, in chunk order and in the calling process before any chunk
    runs.  Returns the chunks' results in chunk order; they are independent
    of the worker count because chunk sizes and shifts are fixed by
    (samples, seed, chunk index).  The worker count is capped at the CPUs
    this process may use (_usable_cpus) and at the chunk count.  With w > 1
    workers, w - 1 children forked with os.fork run the chunks i = j mod w,
    j = 1, ..., w - 1, and the calling process runs those with j = 0:
    numpy's short calls on a chunk's arrays hand the interpreter lock over
    about as often as they compute, so threads would not overlap.  Each child sends its
    results, or the first exception of its chunks, as one pickle over a
    pipe and leaves through os._exit, so it flushes none of the caller's
    buffers and runs none of its code.  Of the chunks that raise, the
    lowest index's exception is re-raised here; a child that ends without
    sending its outcome raises ChildProcessError.  Every child is reaped
    before the call returns or raises, and killed first if the calling
    process raises (KeyboardInterrupt included).
    """
    sizes = _chunk_sizes(samples)
    stream = random.Random(seed)
    shifts = [tuple(stream.random() for _ in range(dims)) for _ in sizes]
    workers = min(workers, len(sizes), _usable_cpus())
    if workers == 1:
        return [chunk_fn(s, size) for s, size in zip(shifts, sizes)]

    def share(j):
        """({index: result}, None) for the chunks i = j mod workers, or
        with (index, exception) of the first that raises."""
        done = {}
        for i in range(j, len(sizes), workers):
            try:
                done[i] = chunk_fn(shifts[i], sizes[i])
            except Exception as exc:  # re-raised by the calling process
                return done, (i, exc)
        return done, None

    pipes = {}  # child pid -> the read end of its pipe
    try:
        for j in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(share, j, write)
            pipes[pid] = open(read, "rb")
            os.close(write)
        outcomes = [share(0)]
        for pid, pipe in list(pipes.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            pipe.close()
            if code:
                raise ChildProcessError(
                    f"a chunk worker (pid {pid}) ended without its results: "
                    f"{_exit_status(code)}")
            outcomes.append(pickle.loads(data))
    finally:
        _kill_and_reap(pipes)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures)[1]  # (index, exception): indices are distinct
    results = [None] * len(sizes)
    for done, _ in outcomes:
        for i, result in done.items():
            results[i] = result
    return results


def _serve_share(share, j, write):
    """A forked chunk worker: writes the pickle of share(j) to the file
    descriptor `write` and exits, with status 0 only once all of it is
    written."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(share(j), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _exit_status(code):
    """A child's exit code (os.waitstatus_to_exitcode) in words."""
    if code < 0:
        import signal  # only a child killed by a signal needs its name

        return f"killed by {signal.Signals(-code).name}"
    return f"exit status {code}"


def _kill_and_reap(pipes):
    """Close each pipe of `pipes`, {pid: read end}, and kill and reap its
    child."""
    if not pipes:
        return
    import signal  # only a call that fails with children running needs it

    for pid, pipe in pipes.items():
        pipe.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _weighted_sum(v, w):
    """The sum of v_i w_i, in one pass that calls no BLAS: np.dot's digits
    can change with OpenBLAS's thread count."""
    return float(np.einsum("i,i->", v, w))


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


def _conditional_estimate(ds, samples, seed, workers, measure, lattice, draw,
                          values, log_value_bound=None, resolution=0.0):
    """measure times the weighted mean over the chunks' points of a
    closed-form value, one estimate per distance d in ds.

    draw(shifts, size) forms a chunk of `size` points from its shifts, one
    per coordinate that `lattice` declares (_lattice, _run_chunks), and
    returns what their values share across distances; values(d, shared)
    returns the sum over the chunk of the measure of the carriers meeting
    the canonical segment of length d, each point's value times its
    weight, and the counts (zeros, ones, twos) of points whose drawn
    carrier crosses it 0, 1 and 2 times, which the histogram tallies.  Each chunk draws once for every d,
    so the estimates of one call share their points.  Each chunk is one
    replicate: per d, the chunks' sums are merged in chunk order with
    Chan's update, each chunk counted as its size with no spread of its
    own, so the merged centred sum of squares is the spread of the chunk
    means, and the stderr is that spread over the square root of the chunk
    count (_moment_estimate), or the bound that `resolution` sets, whichever
    is larger.  Raises ValueError, before any chunk runs, for samples or
    workers that are not an integer >= 1, for a measure that is not a
    positive normal float (past some dimension the carrier measure
    underflows), for a d that is not finite and >= 0 and for one whose
    log_value_bound(d), the log of the largest value one direction can
    carry, exceeds LOG_VALUE_LIMIT; and for an estimate or stderr that
    underflows below the smallest normal float.
    """
    seed = _resolve_seed(seed)
    samples = _resolve_count("samples", samples)
    workers = _resolve_count("workers", workers)
    if not sys.float_info.min <= measure < math.inf:
        raise ValueError(f"the carrier measure {measure:.3g} is not a positive "
                         f"normal float: take a lower dimension")
    ds = tuple(ds)
    for d in ds:
        if not (math.isfinite(d) and d >= 0.0):
            raise ValueError(f"the distance must be finite and >= 0, got {d}")
        if d and log_value_bound and log_value_bound(d) > LOG_VALUE_LIMIT:
            raise ValueError(
                f"at d = {d:g} one direction's value can reach "
                f"e^{log_value_bound(d):.0f}, past e^{LOG_VALUE_LIMIT:g}, where "
                f"its lattice weight underflows beside it: take a shorter "
                f"segment or a lower dimension")
    live = [d for d in ds if d != 0.0]

    def chunk(shifts, size):
        shared = draw(shifts, size)
        # a chunk's own spread does not enter: it is one replicate
        return [(size, total, 0.0, counts)
                for total, counts in (values(d, shared) for d in live)]

    chunks = _run_chunks(chunk, samples, seed, workers, len(lattice)) \
        if live else []
    merged = (functools.reduce(_merge_moments, per_d) for per_d in zip(*chunks))
    return [_zero_estimate(seed, samples) if d == 0.0
            else _moment_estimate(d, measure, samples, seed, len(chunks),
                                  next(merged), resolution)
            for d in ds]


def _moment_estimate(d, measure, samples, seed, replicates, moments,
                     resolution=0.0):
    """The estimate at d from the merged chunk moments.

    stderr^2 is the spread of the chunk means, sum_i n_i (m_i - m)^2 /
    (samples (replicates - 1)), about s^2 / replicates for their sample
    variance s^2 since the sizes n_i differ by at most one; one replicate
    has no spread, and its stderr is infinite.  When each chunk's mean
    takes one of two values `resolution` / n apart (n the smaller chunk
    size), its variance is at most (resolution / 2n)^2, and the stderr is
    at least that bound's over the square root of the chunk count.
    """
    _, total, m2, hist = moments
    mean = total / samples
    est = measure * mean
    stderr = measure * math.sqrt(m2 / (samples * (replicates - 1))) \
        if replicates > 1 else math.inf
    stderr = max(stderr, measure * resolution
                 / (2.0 * (samples // replicates) * math.sqrt(replicates)))
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
        ds, samples, seed, workers, measure, (), lambda shifts, size: size,
        lambda d, size: (d * size, np.array((0, size, 0))))


# -- estimators ----------------------------------------------------------------

def hyperplane_crofton_many(n, ds, samples, seed=0, workers=1):
    """Measures of the hyperplanes of H^n_R meeting segments of lengths ds.

    One estimate per d; each divided by d is the Crofton constant
    vol(S^{n-2}) / (n-1).  For a direction w the hyperplane at depth p
    meets the axis segment from -d/2 to d/2 exactly when tanh p lies
    between -+tanh(d/2) w1; F' = cosh^{n-1} is even, so that direction
    carries 2 F(artanh(tanh(d/2) w1)), in closed form in tanh(d/2) w1
    (_doubled_antiderivative_at_artanh), with w1 = |w_1| = cos theta.  Each
    chunk's points are graded lattice points in theta, the lattice's one
    coordinate, with its law (_sphere_law, _lattice), shared by every d;
    each value is multiplied by its point's weight.  The (p, w) chart
    double-covers the hyperplane space, hence the halved sphere area.  At
    n = 1 every direction carries exactly d, and nothing is drawn.  Raises
    ValueError for n < 1, for an n past 437, where the measure vol(S^(n-1))
    / 2 is not a positive normal float (_conditional_estimate), and for a
    d where a direction's value 2 F(d/2) <= d cosh^{n-1}(d/2) can pass
    e^LOG_VALUE_LIMIT.
    """
    if n < 1:
        raise ValueError(f"hyperplane estimates need a dimension n >= 1, got {n}")
    if n == 1:
        # the hyperplanes of H^1_R are its points, of measure dp (S^0's
        # area 2, halved): those on the segment, measure d, each met once
        return _line_estimates(ds, samples, seed, workers, 1.0)
    arrays = _chunk_arrays(5)
    lattice = ((0.0, _sphere_law(1, n)[0], False),)  # theta, on 1 / N

    def draw(shifts, size):
        w1, weight, s, c2, f = arrays(size)
        _lattice(lattice, [(s, c2, w1)], shifts, weight, f)
        return w1, weight

    def values(d, shared):
        w1, weight = shared
        _, _, s, c2, f = arrays(w1.size)
        np.multiply(w1, math.tanh(0.5 * d), out=s)
        _doubled_antiderivative_at_artanh(n - 1, s, c2, f)
        # a hyperplane meets the segment once
        return _weighted_sum(f, weight), np.array((0, f.size, 0))

    return _conditional_estimate(
        ds, samples, seed, workers, sphere_area(n - 1) / 2.0, lattice, draw,
        values,
        lambda d: math.log(d) + (n - 1) * math.log(math.cosh(0.5 * d)))


def horosphere_crofton_many(field, n, ds, samples, seed=0, workers=1):
    """Horosphere crossing counts of segments of lengths ds in H^n_F.

    One estimate per d, integrated over all horospheres; valid over R, C
    and H, and divided by d it is 2 vol(B^{kn-1}), k = dim F.  Directions w
    range over S^{kn-1}; the radius of (1, w) is integrated against r^e
    dr, e = k(n+1) - 3, in closed form on the axis segment of length d,
    where only w's first coordinate w1 and the norm of the others enter.
    Each chunk's points are graded lattice points in the angles theta of
    |w1| and phi of Re w1, with their laws (_sphere_law), in their
    half-angle forms (_lattice), plus a plain coordinate, the uniforms of
    the crossing counts; it forms them and the levels' d-free part with
    Phi at G's interior minimum (_horosphere_levels) once for every d, and
    each value is multiplied by its point's weight.  At k n = 1 every
    direction carries exactly d, and nothing is drawn.  Raises ValueError
    for a field other than r, c and h, for k n < 1, for a k n past 438,
    where the measure vol(S^(kn-1)) is not a positive normal float
    (_conditional_estimate), and for a d where a direction's value, at
    most twice Phi(e^{d/2}) = 2 e^{d(e+1)/2} / (e+1) since G >= e^{-d} on
    the segment, can pass e^LOG_VALUE_LIMIT.
    """
    if field not in FIELD_DIM:
        raise ValueError(f"horosphere estimates take the fields "
                         f"{', '.join(FIELDS)}, got {field!r}")
    k = FIELD_DIM[field]
    if k * n < 1:
        raise ValueError(f"horosphere estimates need k n >= 1 (k = {k} for "
                         f"field {field!r}), got k n = {k * n}")
    if k * n == 1:
        # S^0's two directions, w1 = 1 once its sign is dropped, carry the
        # points of H^1_R with log r on the segment: measure d, each met once
        return _line_estimates(ds, samples, seed, workers, 2.0)
    e = k * (n + 1) - 3
    q = e + 1  # >= 1 once k n >= 2
    arrays = _chunk_arrays(9, masks=1)
    law = _sphere_law(k, n)
    # the angles the law does not fix, theta's first, step by 1 / N, then by
    # the golden ratio's g / N; phi's coordinate is folded: its weight
    # vanishes at phi = 0 but not at pi/2, where Re w1 = 0 and a direction's
    # value is not 0 (theta's vanishes at both ends when k > 1); the
    # crossing coordinate steps by sqrt(2)'s g / N, so each point's uniform
    # is independent of its angles
    graded = [(angle, fold) for angle, fold in zip(law, (False, True)) if angle]
    lattice = (*((fraction, *angle)
                 for fraction, angle in zip((0.0, _GOLDEN), graded)),
               (_SILVER, None, False))

    def draw(shifts, size):
        (hav_theta, cos_theta, hav_phi, cross, weight, u,
         sin_theta, t_phi, cos_phi, mask) = arrays(size)
        angles = ((sin_theta, hav_theta, cos_theta), (t_phi, hav_phi, cos_phi))
        for angle, (sin, hav, cos) in zip(law, angles):
            if not angle:  # fixed at 0
                sin.fill(0.0)
                hav.fill(0.0)
                cos.fill(1.0)
        _lattice(lattice, [*itertools.compress(angles, law), (u,)], shifts,
                 weight, cross)
        # q Phi at G's minimum overflows for points near w1 = 1, whose
        # minimum lies outside every segment the value bound admits (there
        # G >= e^{-d} and Phi <= e^LOG_VALUE_LIMIT): capped at q times
        # that, finite for every admitted k n, their masked excess is a
        # finite 0
        with np.errstate(over="ignore"):
            levels = _horosphere_levels(hav_theta, sin_theta, cos_theta,
                                        hav_phi, cross, e)
        np.minimum(levels[3], q * math.exp(LOG_VALUE_LIMIT), out=levels[3])
        return levels, u, weight, (sin_theta, t_phi, cos_phi, mask)

    def values(d, shared):
        levels, u, weight, out = shared
        v, twice = _horosphere_values(d, levels, u, e, out)
        doubles = int(np.count_nonzero(twice))
        scale = 1.0 / q
        if d * q <= SHORT_SEGMENT:
            # the d -> 0 limit d |Re w1| = d (high - low) / 2, free of the
            # kernel's difference of two Phi values that agree up to d
            low, high = levels[:2]
            np.subtract(high, low, out=v)
            scale = 0.5 * d
        return scale * _weighted_sum(v, weight), \
            np.array((0, v.size - doubles, doubles))

    return _conditional_estimate(
        ds, samples, seed, workers, sphere_area(k * n - 1), lattice, draw,
        values,
        lambda d: 0.5 * d * q + math.log(2.0 / q))


def _arc_crofton_many(ds, samples, seed, workers, diameter, note):
    """Fractions of the hypersurfaces u-perp, u uniform on S^n, meeting arcs
    of lengths ds; the expected fraction is d / pi.

    Each d is held by the canonical arc from e1 to (cos d, sin d, 0, ...),
    which u-perp meets exactly when (u . e1)(u . y) < 0, that is when cos
    phi cos(phi - d) < 0 for the angle phi of u's projection onto the arc's
    plane.  phi is uniform, and the test does not change under phi -> phi +
    pi, so each chunk's points are the shifted grid t = frac(i / N +
    shift), i < N, the lattice's one plain coordinate, at phi = pi (t + 1/2): there cos phi cos(phi - d) =
    sin(pi t) sin(pi t - d), which is negative exactly when 0 < t < d / pi.
    Every point weighs alike, and a chunk's hit fraction is m / N or (m +
    1) / N, m = floor(N d / pi): two values, whose spread over the chunks
    can read 0, so the stderr is at least the largest spread such chunks
    can have (resolution 1 in _moment_estimate).  A d below
    MIN_ARC_DISTANCE is a coincident pair, and an estimate within 1e-12 of
    the diameter carries the note.
    """
    ds = [0.0 if d < MIN_ARC_DISTANCE else d for d in ds]
    arrays = _chunk_arrays(2, masks=1)
    lattice = ((0.0, None, False),)  # the plain grid on 1 / N

    def draw(shifts, size):
        t, spare, _ = arrays(size)
        _lattice(lattice, [(t,)], shifts, None, spare)
        return t

    def values(d, t):
        hits = int(np.count_nonzero(np.less(t, d / math.pi, out=arrays(t.size)[2])))
        return float(hits), np.array((t.size - hits, hits, 0))

    estimates = _conditional_estimate(ds, samples, seed, workers, 1.0, lattice,
                                      draw, values, resolution=1.0)
    return [replace(e, note=note) if e.d > diameter - 1e-12 else e
            for e in estimates]


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
    """An arc family: the hypersurfaces u-perp of P^n_R, which meet a short
    segment iff (., u) changes sign along its lift to S^n, or the
    hemispheres {u . z > 0} of S^n, of which those u-perp meets hold exactly
    one end of the arc.  Past its diameter d reads 2 pi - d (S^n) or pi - d
    (P^n_R)."""
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
