import dataclasses
import functools
import math
import os
import random
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from hypcrofton import crofton
from hypcrofton.algebra import (
    COMPLEX,
    FIELD_DIM,
    QUATERNION,
    REAL,
    form_coeffs,
    qmul,
)
from hypcrofton.spaces import random_coords

import reference
from reference import (
    Horosphere,
    Hyperplane,
    OrientedHalfSpace,
    SegmentInHyperplaneError,
    axis_point,
    cosh_power_integral,
    count_cosh_roots,
    count_horosphere_intersections,
    geodesic_between,
    halfspace_contains,
    halfspace_side,
    hyperplane_meets_segment,
    pair_distance,
    random_isometry,
    real_coords,
    sample_horosphere,
    sample_hyperplane,
)


def brute_force_horosphere_measure(field, x, y, R, samples, rng):
    """Measure of the horospheres crossing [xy], each counted per crossing,
    for two points of H^n over `field`.

    The mean crossing count of horospheres drawn by sample_horosphere from
    the ball of radius R around the base point, which must hold the
    segment, times that ball's measure; returns (value, stderr).
    """
    n = len(x) - 1
    seg = geodesic_between(field, x, y)
    counts = np.array([count_horosphere_intersections(
        sample_horosphere(field, n, R, rng), seg) for _ in range(samples)])
    k = FIELD_DIM[field]
    e = k * (n + 1) - 3
    ball = crofton.sphere_area(k * n - 1) \
        * (math.exp(R * (e + 1)) - math.exp(-R * (e + 1))) / (e + 1)
    return ball * counts.mean(), ball * counts.std() / math.sqrt(samples)


def use_cpus(monkeypatch, count):
    """Let the chunk pool see `count` usable CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def combined_z(e1, e2):
    return abs(e1.estimate - e2.estimate) / math.hypot(e1.stderr, e2.stderr)


class TestIntegrals:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 6])
    def test_cosh_power_matches_quadrature(self, m):
        val, _ = integrate.quad(lambda t: math.cosh(t) ** m, -1.3, 2.1)
        assert cosh_power_integral(m, -1.3, 2.1) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("m", range(10))
    def test_doubled_antiderivative_at_artanh(self, m):
        # the hyperplane estimator's closed form in s = tanh t against the
        # recurrence in t, up to s = tanh(8) of the longest segment, d = 16
        s = np.concatenate([[0.0, 1e-12, 0.3, 0.9, math.tanh(8.0)],
                            np.random.default_rng(m).random(1000)])
        want = 2.0 * reference.cosh_power_antiderivative(m, np.arctanh(s))
        c2, f = np.empty_like(s), np.empty_like(s)
        with np.errstate(all="raise"):
            got = crofton._doubled_antiderivative_at_artanh(m, s.copy(), c2, f)
        assert got is f
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_sphere_area(self):
        assert crofton.sphere_area(1) == pytest.approx(2 * math.pi)
        assert crofton.sphere_area(2) == pytest.approx(4 * math.pi)

    def test_sphere_area_large(self):
        # vol(S^m) = vol(S^{m-2}) 2 pi / (m - 1) from S^0 and S^1, as far as
        # it stays a normal float; math.gamma overflowed from m = 343
        area = [2.0, 2.0 * math.pi]
        for m in range(2, 440):
            area.append(area[m - 2] * 2.0 * math.pi / (m - 1))
        for m in (3, 10, 100, 342, 343, 399, 437):
            assert crofton.sphere_area(m) == pytest.approx(area[m], rel=1e-12)
        assert crofton.sphere_area(799) == 0.0

    def test_dimension_limits(self, monkeypatch):
        # the estimators take every dimension whose carrier measure is a
        # normal float, vol(S^(n-1)) / 2 for hyperplanes and vol(S^(kn-1))
        # for horospheres, and refuse the next before any chunk runs
        tiny = sys.float_info.min
        n = max(m for m in range(1, 1000) if crofton.sphere_area(m - 1) / 2 >= tiny)
        kn = max(m for m in range(1, 1000) if crofton.sphere_area(m - 1) >= tiny)
        assert (n, kn) == (437, 438)

        def refuse(*args):
            raise AssertionError("ran a chunk")

        monkeypatch.setattr(crofton, "_run_chunks", refuse)
        # at d = 0 no chunk runs
        assert crofton.hyperplane_crofton_many(n, (0.0,), 10)[0].estimate == 0.0
        assert crofton.horosphere_crofton_many(REAL, kn, (0.0,), 10)[0].estimate == 0.0
        for call in (lambda: crofton.hyperplane_crofton_many(n + 1, (1.0,), 10),
                     lambda: crofton.horosphere_crofton_many(REAL, kn + 1, (1.0,), 10),
                     lambda: crofton.horosphere_crofton_many(COMPLEX, 220, (1.0,), 10)):
            with pytest.raises(ValueError, match="not a positive normal float"):
                call()


class TestHyperplaneSampler:
    def test_spacelike_unit(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(50):
                hp = sample_hyperplane(n, 2.0, rng)
                u = hp.u
                assert -u[0] ** 2 + np.sum(u[1:] ** 2) == pytest.approx(1, abs=1e-10)

    def test_depth_within_radius(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            hp = sample_hyperplane(3, 1.5, rng)
            assert abs(math.asinh(hp.u[0])) <= 1.5 + 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_depth_density(self, n):
        # histogram of p against cosh^{n-1} restricted to [-R, R]
        R = 2.0
        rng = np.random.default_rng(2)
        u = reference._sample_hyperplane_normals(n, R, 100_000, rng)
        p = np.arcsinh(u[:, 0])
        edges = np.linspace(-R, R, 21)
        observed, _ = np.histogram(p, bins=edges)
        total = cosh_power_integral(n - 1, -R, R)
        expected = np.array([cosh_power_integral(n - 1, a, b) / total
                             for a, b in zip(edges[:-1], edges[1:])]) * p.size
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.05

    def test_median_closed_form_n2(self):
        # for n = 2 the CDF is (sinh p + sinh R) / (2 sinh R)
        R = 1.2
        rng = np.random.default_rng(3)
        p = np.arcsinh(reference._sample_hyperplane_normals(2, R, 200_000, rng)[:, 0])
        assert np.median(p) == pytest.approx(0.0, abs=0.01)
        q25 = math.asinh(0.25 * 2 * math.sinh(R) - math.sinh(R))
        assert np.quantile(p, 0.25) == pytest.approx(q25, abs=0.01)


class TestHyperplanePredicates:
    def setup_method(self):
        self.s0 = Hyperplane([0.0, 0.0, 0.0, 1.0])  # last coordinate zero

    def test_transversal_crossing(self):
        eps = 0.1
        x = real_coords([1.0, 0.0, 0.0, eps])
        y = real_coords([1.0, 0.0, 0.0, -eps])
        seg = geodesic_between(REAL, x, y)
        assert hyperplane_meets_segment(self.s0, seg)

    def test_strictly_inside_halfspace(self):
        x = real_coords([1.2, 0.0, 0.0, 0.3])
        y = real_coords([1.5, 0.5, 0.0, 0.7])
        seg = geodesic_between(REAL, x, y)
        assert not hyperplane_meets_segment(self.s0, seg)

    def test_endpoint_on_hyperplane_counts(self):
        x = real_coords([1.2, 0.0, 0.0, 0.3])
        y = axis_point(3, 0.0)  # last coordinate exactly zero
        seg = geodesic_between(REAL, x, y)
        assert hyperplane_meets_segment(self.s0, seg)

    def test_contained_segment_flagged(self):
        x = axis_point(3, 0.0)
        y = axis_point(3, 1.0)  # both have last coordinate zero
        seg = geodesic_between(REAL, x, y)
        with pytest.raises(SegmentInHyperplaneError):
            hyperplane_meets_segment(self.s0, seg)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            hp = sample_hyperplane(3, 2.5, rng)
            flipped = Hyperplane(-hp.u)
            x, y = random_coords(REAL, 3, 2.0, rng, 2)
            seg = geodesic_between(REAL, x, y)
            assert hyperplane_meets_segment(hp, seg) == \
                hyperplane_meets_segment(flipped, seg)

    def test_rejects_complex_field(self):
        rng = np.random.default_rng(5)
        seg = geodesic_between(COMPLEX, *random_coords(COMPLEX, 2, 1, rng, 2))
        with pytest.raises(ValueError):
            hyperplane_meets_segment(Hyperplane([0, 0, 1]), seg)


class TestHalfSpace:
    def test_base_point_on_boundary(self):
        u = np.array([0.0, 0.0, 0.0, 1.0])
        assert halfspace_side(u, axis_point(3, 0.0)) == 0

    def test_positive_last_coordinate(self):
        h = OrientedHalfSpace([0.0, 0.0, 0.0, 1.0])
        x = real_coords([math.sqrt(2), 0.0, 0.0, 1.0])
        assert halfspace_contains(h, x)
        assert not halfspace_contains(h.flipped(), x)

    def test_flip_complements(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            hp = sample_hyperplane(2, 2.0, rng)
            x = random_coords(REAL, 2, 1.5, rng, 1)[0]
            side = halfspace_side(hp.u, x)
            assert halfspace_side(-hp.u, x) == -side

    def test_representative_sign_independent(self):
        rng = np.random.default_rng(7)
        hp = sample_hyperplane(2, 2.0, rng)
        x = random_coords(REAL, 2, 1.5, rng, 1)[0]
        assert halfspace_side(hp.u, x[:, 0]) == halfspace_side(hp.u, -x[:, 0])


class TestCountCoshRoots:
    def test_two_roots(self):
        count, roots = count_cosh_roots(1.0, 0.0, 2.0, (-2.0, 2.0))
        assert count == 2
        assert roots == pytest.approx([-math.acosh(2), math.acosh(2)], abs=1e-12)

    def test_no_roots_below_one(self):
        assert count_cosh_roots(1.0, 0.0, 0.5, (-5.0, 5.0))[0] == 0

    def test_pure_sinh(self):
        count, roots = count_cosh_roots(0.0, 1.0, 0.0, (-1.0, 1.0))
        assert count == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            count_cosh_roots(0.0, 0.0, 1.0, (0.0, 1.0))

    def test_exponential_case(self):
        # alpha = beta: alpha e^t = gamma
        count, roots = count_cosh_roots(1.0, 1.0, math.e, (0.0, 2.0))
        assert count == 1
        assert roots[0] == pytest.approx(1.0, abs=1e-12)
        assert count_cosh_roots(1.0, 1.0, -1.0, (0.0, 2.0))[0] == 0

    def test_against_sign_scan_oracle(self):
        rng = np.random.default_rng(8)
        grid = 10_000
        checked = 0
        for _ in range(1000):
            alpha, beta, gamma = rng.uniform(-3, 3, 3)
            if abs(alpha) < 1e-3 and abs(beta) < 1e-3:
                continue
            s0, s1 = sorted(rng.uniform(-3, 3, 2))
            ts = np.linspace(s0, s1, grid)
            f = alpha * np.cosh(ts) + beta * np.sinh(ts) - gamma
            sign_changes = int(np.sum(np.diff(np.sign(f)) != 0))
            count, _ = count_cosh_roots(alpha, beta, gamma, (s0, s1))
            # the scan can miss roots within a grid cell of the endpoints
            # or tangencies; skip near-tangent cases
            if abs(alpha) > abs(beta):
                r = math.sqrt(alpha**2 - beta**2)
                if abs(abs(gamma) - r) < 1e-3:
                    continue
            assert count == sign_changes, (alpha, beta, gamma, s0, s1)
            checked += 1
        assert checked > 900


class TestHorosphere:
    def test_sampler_null_and_level(self):
        rng = np.random.default_rng(9)
        for field in (REAL, COMPLEX, QUATERNION):
            for _ in range(50):
                h = sample_horosphere(field, 2, 1.5, rng)
                q = form_coeffs(h.xi, h.xi)
                assert np.abs(q).max() <= 1e-10 * np.sum(h.xi**2)
                assert h.busemann_distance() <= 1.5 + 1e-12
                # |<x0, xi>| = r exactly, r = leading component
                assert h.level(axis_point(2, 0.0)) == pytest.approx(
                    float(np.linalg.norm(h.xi[0], axis=-1)), rel=1e-12)

    def test_phase_normalization(self):
        rng = np.random.default_rng(10)
        h = sample_horosphere(COMPLEX, 2, 1.0, rng)
        assert h.xi[0, 0] > 0
        assert np.allclose(h.xi[0, 1:], 0, atol=1e-14)

    def test_real_radial_density_flat(self):
        # for H^2_R the radial exponent k(n+1)-3 = 0: flat in r
        rng = np.random.default_rng(11)
        xi = reference._sample_horosphere_params(REAL, 2, 1.0, 100_000, rng)
        r = xi[:, 0, 0]
        lo, hi = math.exp(-1.0), math.exp(1.0)
        observed, _ = np.histogram(r, bins=np.linspace(lo, hi, 21))
        _, pvalue = stats.chisquare(observed)
        assert pvalue > 0.05

    def test_complex_radial_density_cubic(self):
        # H^2_C: exponent k(n+1)-3 = 3
        rng = np.random.default_rng(12)
        xi = reference._sample_horosphere_params(COMPLEX, 2, 1.0, 100_000, rng)
        r = xi[:, 0, 0]
        lo, hi = math.exp(-1.0), math.exp(1.0)
        edges = np.linspace(lo, hi, 21)
        observed, _ = np.histogram(r, bins=edges)
        expected = np.diff(edges**4) / (hi**4 - lo**4) * r.size
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.05

    def test_isometry_moves_parameter(self):
        rng = np.random.default_rng(13)
        g = random_isometry(COMPLEX, 2, rng)
        h = sample_horosphere(COMPLEX, 2, 1.0, rng)
        gh = Horosphere(COMPLEX, g.apply_coords(h.xi))
        x = random_coords(COMPLEX, 2, 1.5, rng, 1)[0]
        gx = g @ x
        assert gh.level(gx) == pytest.approx(h.level(x), rel=1e-9)


class TestHorosphereIntersections:
    def test_far_segment_misses(self):
        # horosphere at busemann distance ~2 from x0; segment near x0
        xi = np.zeros((3, 4))
        xi[0, 0] = math.exp(2.0)
        xi[1, 0] = math.exp(2.0)
        h = Horosphere(REAL, xi)
        seg = geodesic_between(REAL, axis_point(2, 0.05),
                               real_coords([1.0, 0.0, 0.05]))
        assert count_horosphere_intersections(h, seg) == 0

    def test_double_crossing_through_center_direction(self):
        # the base point lies inside the horoball (r < 1) and both segment
        # endpoints lie outside, so the segment enters and exits once each
        xi = np.zeros((3, 4))
        xi[0, 0] = math.exp(-0.5)
        xi[1, 0] = math.exp(-0.5)
        h = Horosphere(REAL, xi)
        x = real_coords([math.cosh(2.0), 0.0, -math.sinh(2.0)])
        y = real_coords([math.cosh(2.0), 0.0, math.sinh(2.0)])
        seg = geodesic_between(REAL, x, y)
        # check against a dense scan of the level function
        ts = np.linspace(0, seg.length, 20_000)
        levels = np.array([h.level(seg.point(t)) for t in ts[:: 40]])
        crossings = int(np.sum(np.diff(np.sign(levels - 1.0)) != 0))
        assert count_horosphere_intersections(h, seg) == crossings == 2

    def test_count_two_occurs_randomly(self):
        rng = np.random.default_rng(14)
        seg = geodesic_between(REAL, axis_point(2, -1.2),
                               axis_point(2, 1.2))
        counts = [count_horosphere_intersections(
            sample_horosphere(REAL, 2, 2.0, rng), seg) for _ in range(2000)]
        assert counts.count(2) > 0
        assert max(counts) <= 2

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance(self, field):
        rng = np.random.default_rng(15)
        k = {COMPLEX: 2, QUATERNION: 4}[field]
        for _ in range(50):
            x, y = random_coords(field, 2, 1.5, rng, 2)
            seg = geodesic_between(field, x, y)
            h = sample_horosphere(field, 2, 2.0, rng)
            lam = np.zeros(4)
            lam[:k] = rng.standard_normal(k)
            lam /= np.linalg.norm(lam)
            shifted = Horosphere(field, qmul(h.xi, lam[None, :]))
            assert count_horosphere_intersections(shifted, seg) == \
                count_horosphere_intersections(h, seg)

    def test_histogram_counts_match_scalar(self):
        # replay the estimator's lattice for every chunk: per point w, its
        # crossing coordinate u picks the radius r with Phi(r) = lo + u
        # (peak - lo), where Phi(r) = r^{e+1} / (e+1) over the radii
        # 1 / |<p(s), (1, w)>| met along the segment, found here by a dense
        # scan.  The scalar count of that horosphere is the one the
        # estimator histogrammed.
        k, e, samples, seed, d = 2, 3, 400, 16, 1.2
        seg = geodesic_between(COMPLEX, axis_point(2, -0.5 * d),
                               axis_point(2, 0.5 * d))
        est = crofton.horosphere_crofton_many(COMPLEX, 2, (d,), samples, seed)[0]
        sizes = crofton._chunk_sizes(samples)
        stream = random.Random(seed)
        draws = []
        for size in sizes:
            shifts = [stream.random() for _ in range(3)]
            stats = horosphere_statistics(crofton._sphere_law(k, 2), shifts, size)
            g2 = crofton._generator(size, crofton._SILVER)
            u = (np.arange(size) * g2 / size + shifts[2]) % 1.0
            draws.append(first_coordinate(*stats[:4]) + [u])
        x1, a, b, u = (np.concatenate(c) for c in zip(*draws))
        # a direction with these statistics: ((x, sqrt a), (sqrt b, 0)) / rho
        w = np.column_stack([x1, np.sqrt(a), np.sqrt(b), np.zeros(samples)])
        w /= np.sqrt(x1 * x1 + a + b)[:, None]
        s = np.linspace(0.0, d, 4001)[:, None]
        path = seg.base[:, None] * np.cosh(s) + seg.tangent[:, None] * np.sinh(s)
        tally = {1: 0, 2: 0}
        unclear = 0
        for wi, ui in zip(w, u):
            xi = np.zeros((3, 4))
            xi[0, 0] = 1.0
            xi[1:, :k] = wi.reshape(2, k)
            pairing = form_coeffs(path, xi[:, None, :])
            phi = np.linalg.norm(pairing, axis=-1) ** -(e + 1) / (e + 1)
            lo, hi = sorted((phi[0], phi[-1]))
            target = lo + ui * (phi.max() - lo)
            if abs(target - hi) <= 1e-6 * phi.max():
                unclear += 1
                continue
            r = ((e + 1) * target) ** (1 / (e + 1))
            tally[count_horosphere_intersections(Horosphere(COMPLEX, r * xi), seg)] += 1
        assert unclear <= 2
        assert tally[2] > 0
        for c in (1, 2):
            assert abs(est.count_histogram.get(c, 0) - tally[c]) <= unclear


def spare(size, count):
    """`count` arrays of `size` floats for the kernels to write into."""
    return [np.empty(size) for _ in range(count)]


def angle_lattice(law):
    """The horosphere lattice's angle coordinates for law = _sphere_law(k,
    n), as _lattice takes them: the angles the law does not fix, theta's
    first, on the steps 1 / N and then the golden ratio's g / N, phi's
    coordinate folded."""
    graded = [(angle, i == 1) for i, angle in enumerate(law) if angle]
    return tuple((fraction, angle, fold) for fraction, (angle, fold)
                 in zip((0.0, crofton._GOLDEN), graded))


def horosphere_statistics(law, shifts, size):
    """[hav_theta, sin_theta, cos_theta, hav_phi, w]: a horosphere chunk's
    `size` graded lattice points in the angles of law = _sphere_law(k, n),
    in half-angle form, and their weights w, drawn by _lattice over
    angle_lattice(law) from the first shifts, one per angle.  An angle the
    law fixes at 0 reads (1 - cos)/2 = sin/2 = 0 and cos = 1."""
    hav, sin, cos = np.zeros((2, size)), np.zeros((2, size)), np.ones((2, size))
    lattice = angle_lattice(law)
    weight = np.empty(size)
    crofton._lattice(lattice, [(sin[i], hav[i], cos[i])
                               for i, angle in enumerate(law) if angle],
                     shifts[:len(lattice)], weight, np.empty(size))
    return [hav[0], sin[0], cos[0], hav[1], weight]


def first_coordinate(hav_theta, sin_theta, cos_theta, hav_phi):
    """[x, a, b]: |Re w1|, |Im w1|^2 and |w_rest|^2 of the directions whose
    half-angle statistics horosphere_statistics gives, (1 - cos theta) / 2,
    sin(theta) / 2, cos theta and (1 - cos phi) / 2, where |w1| = cos theta
    and |Re w1| = |w1| cos phi."""
    return [cos_theta * (1.0 - 2.0 * hav_phi),
            cos_theta ** 2 * 4.0 * hav_phi * (1.0 - hav_phi),
            4.0 * sin_theta ** 2]


def half_angles(cos_theta, cos_phi):
    """The half-angle statistics of a direction with |w1| = cos_theta and
    |Re w1| = |w1| cos_phi, as 1-element arrays."""
    return [np.array([v]) for v in (
        0.5 * (1.0 - cos_theta), 0.5 * math.sqrt(1.0 - cos_theta ** 2),
        cos_theta, 0.5 * (1.0 - cos_phi))]


def values_out(size):
    """The arrays _horosphere_values writes into: three float, one bool."""
    return (*spare(size, 3), np.empty(size, bool))


def radial_potential(G, e):
    """q Phi(G^{-1/2}) = G^{-q/2}, Phi(r) = r^q / q and q = e + 1, as the
    kernel forms it."""
    return G ** (-0.5 * (e + 1))


def reference_horosphere_values(d, levels, u, e):
    """The horosphere kernel with G's minimum formed at every d: (values,
    counts, scale) from the levels (low, high, gamma) of _horosphere_levels.

    G's interior minimum sqrt(up * down) + gamma, kept at most the smaller
    end value against rounding, where up < down < up e^{4d}; Phi at the
    minimum, the two ends and one radius drawn by u as in the estimator.
    scale is the size of the Phi values that the value 2 peak - f0 - f1
    differences.
    """
    low, high, gamma = levels
    up = math.exp(-d) * low
    down = math.exp(d) * high
    grow = math.exp(2.0 * d)
    g0 = (up + down) * 0.5 + gamma
    g1 = (up * grow + down / grow) * 0.5 + gamma
    interior = (up < down) & (down < up * grow * grow)
    ends = np.minimum(g0, g1)
    lowest = np.where(interior, np.minimum(np.sqrt(up * down) + gamma, ends), ends)
    f0, f1, peak = (radial_potential(g, e) for g in (g0, g1, lowest))
    lo = np.minimum(f0, f1)
    drawn = (peak - lo) * u + lo
    counts = 1 + (drawn > np.maximum(f0, f1))
    scale = 2.0 * np.abs(peak) + np.abs(f0) + np.abs(f1)
    return 2.0 * peak - f0 - f1, counts, scale


class TestLevelMatrix:
    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_form(self, field, n):
        # the closed-form level rows [a + b | a - b], and (up, down, gamma)
        # formed at d, as _horosphere_values does, from the d-free part that
        # _horosphere_levels takes from a direction's half-angle statistics,
        # against a = <x, xi> and b = <v, xi> from form_coeffs,
        # one direction at a time, on the explicit axis segment from -d/2 to
        # d/2 (base x, tangent v) for d up to 12; w = g / |g| with Re w1 >= 0
        k = FIELD_DIM[field]
        rng = np.random.default_rng(50 + 3 * n + k)
        one = np.array([1.0, 0.0, 0.0, 0.0])
        with np.errstate(all="raise"):
            for d in (1e-3, 0.5, 2.0, 6.0, 12.0):
                base, tangent = np.zeros((n + 1, 4)), np.zeros((n + 1, 4))
                base[:2, 0] = math.cosh(0.5 * d), -math.sinh(0.5 * d)
                tangent[:2, 0] = -math.sinh(0.5 * d), math.cosh(0.5 * d)
                scale = np.linalg.norm(base) + np.linalg.norm(tangent)
                g = rng.standard_normal((5, k * n))
                g *= np.sign(g[:, :1])
                w = g / np.linalg.norm(g, axis=1, keepdims=True)
                # |w1| = cos theta and Re w1 = |w1| cos phi, with 1 - cos =
                # sin^2 / (1 + cos), which does not cancel
                rest = np.sum(w[:, k:] ** 2, axis=1)
                im = np.sum(w[:, 1:k] ** 2, axis=1)
                cos_theta = np.sqrt(np.sum(w[:, :k] ** 2, axis=1))
                cos_phi = w[:, 0] / cos_theta
                low, high, gamma, _ = crofton._horosphere_levels(
                    0.5 * rest / (1.0 + cos_theta), 0.5 * np.sqrt(rest), cos_theta,
                    0.5 * im / cos_theta ** 2 / (1.0 + cos_phi), *spare(5, 1), 0)
                up, down = math.exp(-d) * low, math.exp(d) * high
                for i in range(5):
                    xi = np.zeros((n + 1, 4))
                    xi[0, 0] = 1.0
                    xi[1:, :k] = w[i].reshape(n, k)
                    a, b = form_coeffs(base, xi), form_coeffs(tangent, xi)
                    bound = scale * np.linalg.norm(xi)  # of |a| + |b|
                    closed = np.r_[math.exp(-0.5 * d) * (xi[1] - one),
                                   -math.exp(0.5 * d) * (xi[1] + one)]
                    assert np.abs(closed - np.r_[a + b, a - b]).max() \
                        <= 1e-14 * bound
                    for got, want in ((up[i], 0.5 * np.sum((a + b) ** 2)),
                                      (down[i], 0.5 * np.sum((a - b) ** 2)),
                                      (gamma[i], 0.5 * (a @ a - b @ b))):
                        assert abs(got - want) <= 1e-14 * bound ** 2


class TestHorosphereKernel:
    # k n >= 2: the estimator takes H^1_R's horospheres as exact lines
    @pytest.mark.parametrize("n,field", [
        (n, field) for n in (1, 2, 3) for field in (REAL, COMPLEX, QUATERNION)
        if FIELD_DIM[field] * n >= 2])
    def test_matches_reference(self, field, n):
        # the same levels and u through the reference, which forms G's
        # minimum at every d, and through the kernel, which takes Phi at it
        # from the chunk's d-free levels; one chunk's graded lattice points,
        # plus w1 = 1, where low = gamma = 0 and G's critical value is 0, and
        # Re w1 = 0 with |w1|^2 = (k - 1) / (kn - 1), where low = high and
        # f0 = f1 up to rounding, in either order
        k = FIELD_DIM[field]
        e = k * (n + 1) - 3
        rng = np.random.default_rng(90 + 3 * n + k)
        edges = [half_angles(1.0, 1.0),
                 half_angles(math.sqrt((k - 1) / (k * n - 1)),
                             0.0 if k > 1 else 1.0)]
        drawn = horosphere_statistics(crofton._sphere_law(k, n), rng.random(2),
                                      2000)
        stats = [np.concatenate(c) for c in zip(drawn[:4], *edges)]
        size = stats[0].size
        u = rng.random(size)
        with np.errstate(all="raise"):
            levels = crofton._horosphere_levels(*stats, *spare(size, 1), e)
            for d in (1e-13, 1e-3, 0.5, 2.0, 12.0, 16.0):
                want, counts, scale = reference_horosphere_values(
                    d, [v.copy() for v in levels[:3]], u, e)
                got, twice = crofton._horosphere_values(d, levels, u, e,
                                                        values_out(size))
                assert np.all(np.abs(got - want) <= 1e-14 * scale)
                assert np.array_equal(1 + twice, counts)


class TestFirstCoordinate:
    @pytest.mark.parametrize("k,m", [(1, 1), (1, 3), (2, 2), (4, 1), (4, 2)])
    def test_law_matches_uniform_sphere(self, k, m):
        # the weighted means of |Re w1|, |Im w1|^2 and |w_rest|^2 over the
        # graded lattice points of an estimator's chunks against their
        # values for uniform unit vectors of F^m, N = k m real coordinates:
        # Gamma(N/2) / (sqrt(pi) Gamma((N+1)/2)), (k-1)/N and k(m-1)/N; a
        # wrong weight exponent or normaliser moves them by many sigma
        samples, big = 200_000, k * m
        sizes = crofton._chunk_sizes(samples)
        stream = random.Random(70 + big)
        means = []
        for size in sizes:
            *stats, w = horosphere_statistics(
                crofton._sphere_law(k, m), [stream.random(), stream.random()],
                size)
            means.append([np.mean(w * s) for s in first_coordinate(*stats)])
        means = np.array(means)
        want = (math.exp(math.lgamma(0.5 * big) - math.lgamma(0.5 * (big + 1)))
                / math.sqrt(math.pi), (k - 1) / big, k * (m - 1) / big)
        for got, value in zip(means.T, want):
            sigma = got.std(ddof=1) / math.sqrt(got.size)
            assert abs(got.mean() - value) <= 5 * sigma + 1e-15

    def test_generator_calls(self, monkeypatch):
        # per chunk: one uniform shift per coordinate that the carrier's
        # lattice declares, from one random.Random(seed) stream in chunk
        # order, and no other draw; a horosphere lattice holds the angles
        # _sphere_law does not fix, theta's then phi's, on the steps 1 /
        # size and then the golden ratio's, phi folded, and then the
        # crossing coordinate on sqrt(2)'s, so over C^1 and H^1, where phi
        # is the only angle, phi steps by 1 / size.  The angle points are
        # the shifted rank-1 lattice (i, i g) / size at tan(angle / 2) =
        # t^GRADE, and each weighs its law's density times the angle's
        # derivative in t, over the density's integral
        size = 7
        step = (1.0 / size, crofton._generator(size, crofton._GOLDEN) / size)
        t = np.arange(size)
        grade = crofton.GRADE
        seen = []
        real = crofton._lattice

        def recorded(lattice, arrays, shifts, weight, spare):
            seen.append((lattice, shifts))
            return real(lattice, arrays, shifts, weight, spare)

        def drawn(estimate, *args):
            seen.clear()
            estimate(*args, (1.0,), 16 * size, 5, 1)
            lattices = {lattice for lattice, _ in seen}
            replay = random.Random(5)
            width = len(next(iter(lattices))) if lattices else 0
            assert [shifts for _, shifts in seen] == \
                [tuple(replay.random() for _ in range(width))
                 for _ in range(16 if lattices else 0)]
            return lattices

        monkeypatch.setattr(crofton, "_lattice", recorded)
        plain = (0.0, None, False)
        assert drawn(crofton.hyperplane_crofton_many, 3) == \
            {((0.0, crofton._sphere_law(1, 3)[0], False),)}
        for carrier in ("projective", "sphere"):
            assert drawn(crofton.CARRIERS[carrier].estimate, REAL, 2) == {(plain,)}
        for k, m in ((1, 1), (1, 3), (2, 1), (4, 1), (4, 2)):
            field = {1: REAL, 2: COMPLEX, 4: QUATERNION}[k]
            law = crofton._sphere_law(k, m)
            laws = [angle for angle in law if angle]
            # H^1_R draws nothing
            want = {(*angle_lattice(law), (crofton._SILVER, None, False))} \
                if laws else set()
            assert drawn(crofton.horosphere_crofton_many, field, m) == want
            if m == 1 and laws:
                assert angle_lattice(law) == ((0.0, law[1], True),)
            if not laws:
                continue
            shifts = seen[0][1][:len(laws)]
            *stats, w = horosphere_statistics(law, shifts, size)
            x, a, b = first_coordinate(*stats)
            cos = {0: np.ones(size), 1: np.ones(size)}
            sin = {0: np.zeros(size), 1: np.zeros(size)}
            weight = np.ones(size)
            for j, (which, angle) in enumerate((i, angle) for i, angle in enumerate(law)
                                               if angle):
                coordinate = (t * step[j] + shifts[j]) % 1.0
                if which == 1:
                    coordinate = 1.0 - np.abs(2.0 * coordinate - 1.0)
                angle_of = 2.0 * np.arctan(coordinate ** grade)
                slope = 2.0 * grade * coordinate ** (grade - 1) \
                    / (1.0 + coordinate ** (2 * grade))
                alpha, beta = angle
                total = 0.5 * math.gamma(0.5 * alpha) * math.gamma(0.5 * beta) \
                    / math.gamma(0.5 * (alpha + beta))
                cos[which], sin[which] = np.cos(angle_of), np.sin(angle_of)
                weight *= cos[which] ** (alpha - 1) * sin[which] ** (beta - 1) \
                    * slope / total
            want = (cos[0] * cos[1], (cos[0] * sin[1]) ** 2, sin[0] ** 2)
            for got, value in zip((x, a, b), want):
                assert np.allclose(got, value, rtol=0.0, atol=1e-15)
            assert np.allclose(w, weight, rtol=1e-13, atol=0.0)

    def test_too_few_arrays_rejected(self):
        # a draw must pass one array tuple per declared coordinate: a
        # horosphere lattice of two angles and the crossing coordinate
        # given the angles' arrays alone raises
        size = 5
        law = crofton._sphere_law(4, 2)
        lattice = (*angle_lattice(law), (crofton._SILVER, None, False))
        arrays = [tuple(np.empty(size) for _ in range(3)) for _ in law]
        with pytest.raises(ValueError, match="zip"):
            crofton._lattice(lattice, arrays, (0.1, 0.2, 0.3), np.empty(size),
                             np.empty(size))


class TestDistanceEstimators:
    @pytest.mark.parametrize("d", [1e-13, 1e-3, 2.0, 12.0, 16.0])
    def test_no_floating_point_exceptions(self, d):
        # both estimators over R, C and H, from d at rounding level to the
        # CLI's largest distance
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ests = [crofton.hyperplane_crofton_many(n, (d,), 20_000, seed=1)[0]
                    for n in (1, 2, 3, 5)]
            ests += [crofton.horosphere_crofton_many(field, n, (d,), 20_000, seed=2)[0]
                     for field in (REAL, COMPLEX, QUATERNION) for n in (1, 2, 3)]
        for est in ests:
            assert est.d == d
            assert est.estimate > 0 and math.isfinite(est.ratio)
            assert math.isfinite(est.stderr)

    def test_no_full_direction_drawn(self):
        # the hyperbolic estimators draw only the statistics their
        # integrands read, never a full unit vector per sample: the
        # package has no sampler of unit vectors
        assert not hasattr(crofton, "_uniform_sphere")
        assert crofton.hyperplane_crofton_many(3, (1.0,), 1000)[0].estimate > 0
        for field in (REAL, COMPLEX, QUATERNION):
            est, = crofton.horosphere_crofton_many(field, 2, (1.0,), 1000)
            assert est.estimate > 0

    @pytest.mark.parametrize("call", [
        lambda: crofton.hyperplane_crofton_many(3, (-1.0,), 10)[0],
        lambda: crofton.hyperplane_crofton_many(3, (math.inf,), 10)[0],
        lambda: crofton.horosphere_crofton_many(COMPLEX, 2, (math.nan,), 10)[0],
        lambda: crofton.hyperplane_crofton_many(0, (1.0,), 10)[0],
        lambda: crofton.hyperplane_crofton_many(438, (1.0,), 10)[0],
        lambda: crofton.horosphere_crofton_many(QUATERNION, 110, (1.0,), 10)[0],
        # these raised ZeroDivisionError, "range() arg 3 must not be zero",
        # TypeError and KeyError
        lambda: crofton.hyperplane_crofton_many(3, (1.0,), 0)[0],
        lambda: crofton.hyperplane_crofton_many(3, (1.0,), -5)[0],
        lambda: crofton.horosphere_crofton_many(COMPLEX, 2, (1.0,), 100,
                                                workers=-1)[0],
        lambda: crofton.horosphere_crofton_many("x", 2, (1.0,), 100)[0],
        # and these are not integers >= 1 either
        lambda: crofton.hyperplane_crofton_many(3, (1.0,), 100.0)[0],
        lambda: crofton.CARRIERS["sphere"].estimate(REAL, 2, (1.0,), 100, 0, 0)[0],
        lambda: crofton.hyperplane_crofton_many(1, (0.0,), 0)[0],
    ], ids=["d-negative", "d-inf", "d-nan", "n-zero", "n-beyond-measure",
            "kn-beyond-measure", "samples-zero", "samples-negative",
            "workers-negative", "field-unknown", "samples-float", "workers-zero",
            "samples-zero-exact-line"])
    def test_invalid_input_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestGradedLattice:
    @pytest.mark.parametrize("samples", [1, 15, 16, 1000, 20_000,
                                         16 * crofton.CHUNK_SIZE + 1, 1_000_000])
    def test_chunk_sizes(self, samples):
        # the replicates hold every sample, at least MIN_REPLICATES of them
        # (one point each below that), none over CHUNK_SIZE points, and
        # their sizes differ by at most one
        sizes = crofton._chunk_sizes(samples)
        assert sum(sizes) == samples
        assert len(sizes) == min(samples, max(crofton.MIN_REPLICATES,
                                              -(-samples // crofton.CHUNK_SIZE)))
        assert max(sizes) <= crofton.CHUNK_SIZE
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("size", [1, 2, 6, 987, 1250, 16129, 16384])
    def test_lattice_generator(self, size):
        # fraction 0 gives the plain grid's g = 1; the golden ratio's g is
        # prime to size, so the second coordinates are a permutation of i /
        # size, and g = F_{k-1} for size = F_k (the Fibonacci lattice)
        assert crofton._generator(size, 0.0) == 1
        g = crofton._generator(size, crofton._GOLDEN)
        assert 1 <= g <= max(size - 1, 1) and math.gcd(g, size) == 1
        points = np.sort(np.round((np.arange(size) * g) % size))
        assert np.array_equal(points, np.arange(size))
        if size == 987:
            assert g == 610

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 987, 1250, 16129, 16384])
    def test_crossing_generator(self, size):
        # g2 prime to size, so the crossing coordinates are a permutation of
        # i / size, down to one-point chunks (size * (sqrt(2) - 1) rounds to
        # 0 at size 1), and not the angles' generator past tiny sizes
        g2 = crofton._generator(size, crofton._SILVER)
        assert 1 <= g2 <= max(size - 1, 1) and math.gcd(g2, size) == 1
        if size > 6:
            assert g2 != crofton._generator(size, crofton._GOLDEN)
        for samples in (size, 16 * size):
            est, = crofton.horosphere_crofton_many(QUATERNION, 2, (1.0,), samples,
                                                   seed=2)
            assert sum(est.count_histogram.values()) == samples

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pool_reraises_and_keeps_order(self, monkeypatch, workers):
        # results come back by chunk index whatever process ran them, and an
        # exception in any chunk reaches the caller
        use_cpus(monkeypatch, workers)
        sizes = crofton._chunk_sizes(40_000)
        got = crofton._run_chunks(lambda shifts, size: (size, shifts),
                                  40_000, 7, workers, 2)
        replay = random.Random(7)
        want = [(size, (replay.random(), replay.random())) for size in sizes]
        assert got == want

        def fail(shifts, size):
            if shifts == want[-1][1]:  # the last chunk only
                raise ArithmeticError("chunk failed")
            return size

        with pytest.raises(ArithmeticError, match="chunk failed"):
            crofton._run_chunks(fail, 40_000, 7, workers, 2)

    def test_seed_is_a_non_negative_integer(self):
        # a negative seed, which random.Random would take as its absolute
        # value, is rejected, also when no chunk runs
        for call in (lambda: crofton.hyperplane_crofton_many(3, (1.0,), 1000, seed=-1),
                     lambda: crofton.hyperplane_crofton_many(3, (0.0,), 1000, seed=-5)):
            with pytest.raises(ValueError, match="non-negative integer seed"):
                call()

    def test_pool_runs_each_chunk_once_across_processes(self, monkeypatch,
                                                        tmp_path):
        # three processes, whatever this host's CPUs: chunk i runs once, in
        # the process of share i mod 3, the caller's for share 0, and its
        # result lands at its index
        use_cpus(monkeypatch, 3)
        log = tmp_path / "runs"

        def chunk(shifts, size):
            with open(log, "a", encoding="utf-8") as runs:
                runs.write(f"{shifts[0]!r}\n")
            return os.getpid(), shifts[0]

        got = crofton._run_chunks(chunk, 40 * crofton.CHUNK_SIZE, 11, workers=3)
        replay = random.Random(11)
        want = [replay.random() for _ in range(40)]
        assert [shift for _, shift in got] == want
        assert sorted(map(float, log.read_text().split())) == sorted(want)
        pids = [pid for pid, _ in got]
        assert set(pids[0::3]) == {os.getpid()}
        assert all(len(set(pids[j::3])) == 1 for j in (1, 2))
        assert len(set(pids)) == 3

    @pytest.mark.parametrize("cpus,samples", [(2, 10**9), (1000, 2), (None, 10**9)],
                             ids=["two-cpus", "two-chunks", "no-affinity"])
    def test_workers_capped_at_cpus_and_chunks(self, monkeypatch, cpus, samples):
        # --workers 100000 forks one child when the process may use two CPUs
        # (os.cpu_count where there is no affinity mask) or there are two
        # chunks, and the results are those of one worker
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            use_cpus(monkeypatch, cpus)
        forks = []
        fork = os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        got = crofton._run_chunks(lambda shifts, size: size, samples, 1,
                                  workers=100_000)
        assert len(forks) == 1
        assert got == crofton._chunk_sizes(samples)

    @pytest.mark.parametrize("why", ["no-fork", "threads"])
    def test_one_process_where_forking_is_unsafe(self, monkeypatch, why):
        # without os.fork, or while another thread runs, every chunk runs in
        # the calling process
        use_cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            other.start()
        try:
            got = crofton._run_chunks(lambda shifts, size: os.getpid(), 40_000,
                                      1, workers=2)
        finally:
            stop.set()
            if other.is_alive():
                other.join()
        assert got == [os.getpid()] * len(crofton._chunk_sizes(40_000))

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        # the exception that a chunk raises in a child is re-raised in the
        # caller with its type and message
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def chunk(shifts, size):
            if os.getpid() != caller:
                raise ArithmeticError(f"chunk failed in {os.getpid()}")
            return size

        with pytest.raises(ArithmeticError, match="chunk failed in") as caught:
            crofton._run_chunks(chunk, 40_000, 7, workers=2)
        assert int(str(caught.value).split()[-1]) != caller

    @pytest.mark.parametrize("failing", [{2, 3, 5}, {3, 4, 5}, {1, 6}, {4, 2},
                                         {9, 15}],
                             ids=["child-2", "caller", "child-1-before-caller",
                                  "child-2-before-child-1", "caller-twice"])
    def test_lowest_failing_chunk_wins(self, monkeypatch, failing):
        # chunk i runs in share i mod 3: of the chunks that raise, in any
        # of the processes, the lowest index's exception reaches the caller
        use_cpus(monkeypatch, 3)
        replay = random.Random(7)
        index = {(replay.random(),): i
                 for i in range(len(crofton._chunk_sizes(40_000)))}

        def chunk(shifts, size):
            if index[shifts] in failing:
                raise LookupError(f"chunk {index[shifts]}")
            return size

        with pytest.raises(LookupError, match=f"^chunk {min(failing)}$"):
            crofton._run_chunks(chunk, 40_000, 7, workers=3)

    @pytest.mark.parametrize("fails_in", [None, "child", "caller", "interrupt"])
    def test_no_child_outlives_the_call(self, monkeypatch, fails_in):
        # after a success, a child's exception, the caller's and an
        # interrupt of the caller, this process has no child left: an
        # interrupted call kills its children, which would otherwise sleep
        # for a minute
        use_cpus(monkeypatch, 3)
        caller = os.getpid()

        def chunk(shifts, size):
            if os.getpid() == caller:
                if fails_in == "caller":
                    raise ArithmeticError("caller failed")
                if fails_in == "interrupt":
                    raise KeyboardInterrupt
            elif fails_in == "child":
                raise ArithmeticError("child failed")
            elif fails_in == "interrupt":
                time.sleep(60)
            return size

        start = time.perf_counter()
        if fails_in is None:
            crofton._run_chunks(chunk, 40_000, 7, workers=3)
        else:
            with pytest.raises(KeyboardInterrupt if fails_in == "interrupt"
                               else ArithmeticError):
                crofton._run_chunks(chunk, 40_000, 7, workers=3)
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("how", ["killed", "killed-mid-write", "unpicklable"])
    def test_child_without_result(self, monkeypatch, tmp_path, how):
        # a child that ends without sending all of its outcome, killed
        # before or while it writes or unable to pickle its results, is a
        # ChildProcessError that names its exit status, not an unpickling
        # error, and no child remains
        use_cpus(monkeypatch, 2)
        caller = os.getpid()
        ready = tmp_path / "child"

        def chunk(shifts, size):
            if os.getpid() == caller:
                if how == "killed-mid-write" and shifts == last:
                    # the child's outcome outgrows the pipe's buffer, so it
                    # is still writing when it is killed
                    while not ready.exists():
                        time.sleep(0.01)
                    time.sleep(0.2)
                    os.kill(int(ready.read_text()), signal.SIGKILL)
                return size
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "unpicklable":
                return lambda: size
            ready.write_text(str(os.getpid()))
            return bytes(1 << 20)

        replay = random.Random(7)
        last = [(replay.random(),) for _ in crofton._chunk_sizes(40_000)][-2]
        status = "exit status 1" if how == "unpicklable" else "killed by SIGKILL"
        with pytest.raises(ChildProcessError, match=status):
            crofton._run_chunks(chunk, 40_000, 7, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("field,n", [(REAL, 2), (REAL, 3), (COMPLEX, 2),
                                         (COMPLEX, 3), (QUATERNION, 2),
                                         (QUATERNION, 3)])
    def test_long_segments_match_constant(self, field, n):
        # i.i.d. directions read long segments low with a too-small stderr
        # (H^2_H at d = 12 read 4.28 +- 1.50 against 9.4495): on the graded
        # lattice every ratio is within 3 sigma of 2 vol(B^{kn-1})
        k = FIELD_DIM[field]
        constant = crofton.CARRIERS["horosphere"].constant(k, n)
        for est in crofton.horosphere_crofton_many(field, n, (0.5, 2.0, 12.0, 16.0),
                                                   1_000_000, seed=5):
            assert abs(est.ratio - constant) <= 3 * est.stderr / est.d

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_long_segments_match_constant_hyperplanes(self, n):
        # H^5_R at d = 12 read 3.57 +- 0.29 against 4.935 on i.i.d.
        # directions
        constant = crofton.CARRIERS["hyperplane"].constant(1, n)
        for est in crofton.hyperplane_crofton_many(n, (0.5, 2.0, 12.0, 16.0),
                                                   1_000_000, seed=5):
            assert abs(est.ratio - constant) <= 3 * est.stderr / est.d

    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    def test_short_segments_match_constant(self, field):
        # below SHORT_SEGMENT / (e + 1) a value is its d -> 0 limit; the
        # kernel's difference of two Phi values read C^2 at d = 1e-13 7.3e-4
        # high, 77 sigma at 100,000 samples
        k = FIELD_DIM[field]
        constant = crofton.CARRIERS["horosphere"].constant(k, 2)
        for est in crofton.horosphere_crofton_many(field, 2, (1e-13, 1e-9, 1e-6, 1e-3),
                                                   300_000, seed=3):
            assert abs(est.ratio - constant) <= 3 * est.stderr / est.d

    @pytest.mark.parametrize("call", [
        lambda: crofton.hyperplane_crofton_many(100, (16.0,), 1000)[0],
        lambda: crofton.horosphere_crofton_many(REAL, 300, (16.0,), 1000)[0],
    ], ids=["hyperplane", "horosphere"])
    def test_value_past_float_range_rejected(self, call):
        # a direction's value would reach e^726 and e^2387, where its
        # lattice weight underflows to 0 beside it
        with pytest.raises(ValueError, match="past e\\^600"):
            call()

    def test_high_dimension_without_overflow(self):
        # R^300: Phi at G's minimum overflows near w1 = 1, outside every
        # admitted segment; capped, no warning and no NaN reaches the value.
        # i.i.d. directions read 8.23e-188 +- 2.2e-189 against 9.05e-188
        constant = crofton.CARRIERS["horosphere"].constant(1, 300)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            est = crofton.horosphere_crofton_many(REAL, 300, (0.5,), 400_000, seed=3)[0]
        assert abs(est.ratio - constant) <= 3 * est.stderr / est.d


class TestChunkMoments:
    def test_merge_matches_two_pass(self):
        # chunks of unequal size and mean, merged in order, give the count,
        # sum and centred sum of squares of the whole sample
        rng = np.random.default_rng(60)
        chunks = [rng.normal(mean, 0.1, size) for mean, size in
                  ((5.0, 1000), (-3.0, 17), (1e3, 400), (0.0, 1))]
        parts = [(c.size, c.sum(), np.sum((c - c.mean()) ** 2), np.ones(3, int))
                 for c in chunks]
        count, total, m2, hist = functools.reduce(crofton._merge_moments, parts)
        values = np.concatenate(chunks)
        assert (count, hist.tolist()) == (values.size, [4, 4, 4])
        assert total == pytest.approx(values.sum(), rel=1e-14)
        assert m2 == pytest.approx(np.sum((values - values.mean()) ** 2), rel=1e-12)

    def test_constant_values_have_zero_spread(self):
        # every direction of H^1_R carries d, so any spread is rounding; a
        # one-pass total_sq / n - mean^2 cancels to 7.7e-11 here
        est, = crofton.hyperplane_crofton_many(1, (2.0,), 300_000, seed=1)
        assert est.estimate == pytest.approx(2.0, rel=1e-14)
        assert est.stderr <= 1e-14 * est.estimate


class TestChunkMemory:
    @pytest.mark.parametrize("call", [
        lambda samples: crofton.horosphere_crofton_many(
            QUATERNION, 2, (0.5, 1.0, 2.0), samples),
        lambda samples: crofton.hyperplane_crofton_many(3, (0.5, 1.0, 2.0), samples),
    ], ids=["horosphere", "hyperplane"])
    def test_peak_is_one_chunk(self, call):
        # numpy reports its buffers to tracemalloc: the traced peak of a
        # one-worker call holds one chunk's arrays, at most 12 arrays of
        # 2^14 floats (1.5 MiB), whatever the chunk count; past the first
        # chunk only the chunks' moments accumulate, under 1 KiB a chunk
        array = 8 * crofton.CHUNK_SIZE
        call(crofton.CHUNK_SIZE)
        peaks = []
        for chunks in (2, 8):
            tracemalloc.start()
            try:
                call(chunks * crofton.CHUNK_SIZE)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 12 * array
        assert abs(peaks[1] - peaks[0]) <= array / 8

    @staticmethod
    def pointer_sets(monkeypatch, name):
        """The set of the data pointers crofton.<name> is given per call,
        of the arrays among its arguments and in its tuple or list ones."""
        seen = set()
        real = getattr(crofton, name)

        def recorded(*args):
            arrays = [a for arg in args
                      for a in (arg if isinstance(arg, (tuple, list)) else [arg])
                      if isinstance(a, np.ndarray)]
            seen.add(tuple(a.__array_interface__["data"][0] for a in arrays))
            return real(*args)

        monkeypatch.setattr(crofton, name, recorded)
        return seen

    def test_hyperplane_chunks_reuse_their_arrays(self, monkeypatch):
        # every chunk and distance of a one-worker call evaluates in the
        # same arrays, so past the first chunk none waits on fresh pages
        seen = self.pointer_sets(monkeypatch, "_doubled_antiderivative_at_artanh")
        crofton.hyperplane_crofton_many(3, (0.5, 1.0, 2.0),
                                        4 * crofton.CHUNK_SIZE + 5)
        assert len(seen) == 1

    def test_horosphere_chunks_reuse_their_arrays(self, monkeypatch):
        # the same for the arrays the horosphere kernel writes its levels
        # (once per chunk) and its values (once per distance) into
        seen = [self.pointer_sets(monkeypatch, name)
                for name in ("_horosphere_levels", "_horosphere_values")]
        crofton.horosphere_crofton_many(QUATERNION, 2, (0.5, 1.0, 2.0),
                                        4 * crofton.CHUNK_SIZE + 5)
        assert [len(s) for s in seen] == [1, 1]


#: more than two chunks, the last one short
SHARED_SAMPLES = 2 * crofton.CHUNK_SIZE + 1001
SHARED_DS = (0.5, 1e-13, 12.0, 0.0, 2.0)


def fields(estimates):
    """The estimates' fields; the NaN ratio of coincident points as a string."""
    return [[v if v == v else "nan" for v in dataclasses.astuple(e)]
            for e in estimates]


def arc_estimates(carrier, ds, samples, seed=0, workers=1):
    """The estimates of crofton.CARRIERS[carrier], the projective or the
    sphere family, for arcs of lengths ds."""
    return crofton.CARRIERS[carrier].estimate(None, None, ds, samples, seed,
                                              workers)


class TestSharedDraws:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("carrier,args", [
        ("hyperplane", (1,)), ("hyperplane", (3,)),
        ("horosphere", (REAL, 1)), ("horosphere", (REAL, 3)),
        ("horosphere", (COMPLEX, 3)), ("horosphere", (QUATERNION, 2)),
    ], ids=["hyperplane-R1", "hyperplane-R3", "horosphere-R1", "horosphere-R3",
            "horosphere-C3", "horosphere-H2"])
    def test_vector_equals_scalar(self, carrier, args, workers):
        # the estimates of one call share their draws, and each is the one
        # a call for its d alone makes, field for field; d = 0 is the
        # coincident-points estimate wherever it sits
        many = getattr(crofton, f"{carrier}_crofton_many")
        got = many(*args, SHARED_DS, SHARED_SAMPLES, seed=7, workers=workers)
        assert fields(got) == fields(many(*args, (d,), SHARED_SAMPLES, seed=7)[0]
                                     for d in SHARED_DS)
        assert got[3].note == "coincident points"

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("carrier", ["projective", "sphere"],
                             ids=["projective", "sphere_halfspace"])
    def test_sign_change_vector_equals_scalar(self, carrier, workers):
        # includes a coincident pair and the pair at the diameter, whose
        # note is per pair
        ds = (0.3, 0.0, 1.2, math.pi / 2, 3.0, math.pi)
        if carrier == "projective":
            ds = ds[:4]
        got = arc_estimates(carrier, ds, SHARED_SAMPLES, seed=9, workers=workers)
        assert fields(got) == fields(arc_estimates(carrier, (d,), SHARED_SAMPLES,
                                                   seed=9)[0] for d in ds)
        assert got[1].note == "coincident points"
        assert got[-1].note != ""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("carrier,args", [
        ("hyperplane", (REAL, 3)),
        ("horosphere", (QUATERNION, 2)),
        ("projective", (REAL, 2)),
        ("sphere", (REAL, 2)),
    ], ids=["hyperplane", "horosphere", "projective", "sphere"])
    def test_one_draw_per_chunk(self, monkeypatch, tmp_path, carrier, args,
                                workers):
        # the lattice points are drawn once per chunk, however many
        # distances read them; every worker process appends the pid of each
        # draw to one file
        use_cpus(monkeypatch, workers)
        log = tmp_path / "draws"
        real = crofton._lattice

        def counted(*a):
            with open(log, "a", encoding="utf-8") as draws:
                draws.write(f"{os.getpid()}\n")
            return real(*a)

        monkeypatch.setattr(crofton, "_lattice", counted)
        estimate = crofton.CARRIERS[carrier].estimate
        for ds in ((0.5,), (0.5, 1.0, 1.5, 0.25)):
            log.write_text("")
            estimate(*args, ds, SHARED_SAMPLES, 3, workers)
            pids = log.read_text().split()
            assert len(pids) == len(crofton._chunk_sizes(SHARED_SAMPLES))
            assert len(set(pids)) == workers

    def test_no_draw_without_a_positive_distance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew directions for coincident points")

        monkeypatch.setattr(crofton, "_lattice", refuse)
        ests = crofton.horosphere_crofton_many(REAL, 2, (0.0, 0.0), 100)
        ests += arc_estimates("sphere", (0.0,), 100)
        assert [e.estimate for e in ests] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("call", [
        # estimate 5.04e-322 with stderr 0: a subnormal ratio passed on as
        # a number
        lambda: crofton.hyperplane_crofton_many(437, (1e-13,), 100_000, seed=3)[0],
        lambda: crofton.hyperplane_crofton_many(437, (1.0, 1e-13), 20_000, seed=3),
        lambda: crofton.horosphere_crofton_many(REAL, 438, (1e-13,), 20_000, seed=3)[0],
        # estimate 4.2e-308 is normal, its stderr 2.5e-310 is not
        lambda: crofton.hyperplane_crofton_many(436, (1.0,), 20_000, seed=3)[0],
        # a positive mean whose estimate rounds to 0: 0 +- 0
        lambda: crofton.hyperplane_crofton_many(437, (1e-300,), 1000, seed=3)[0],
    ], ids=["hyperplane", "hyperplane-second-pair", "horosphere",
            "hyperplane-stderr", "hyperplane-zero"])
    def test_underflow_rejected(self, call):
        with pytest.raises(ValueError, match="underflows"):
            call()

    def test_normal_estimates_near_the_limit(self):
        # a little below the limit, d = 1 has a normal estimate and stderr
        est = crofton.hyperplane_crofton_many(430, (1.0,), 20_000, seed=3)[0]
        assert est.estimate >= sys.float_info.min
        assert est.stderr >= sys.float_info.min


class TestSignChangeEstimates:
    @pytest.mark.parametrize("carrier", ["projective", "sphere"],
                             ids=["projective", "sphere_halfspace"])
    def test_binomial_histogram_and_stderr(self, carrier):
        # a hypersurface crosses an arc 0 or 1 times: the histogram counts
        # the misses and hits, the hit fraction is hits / N, and the stderr
        # is the spread of the chunks' hit fractions, replayed here from
        # their shifted grids, or at least the largest spread of two-valued
        # fractions 1 / n apart, n the smaller chunk size
        ds = (0.3, 1.2, math.pi / 2, 3.0)[:3 if carrier == "projective" else 4]
        sizes = crofton._chunk_sizes(SHARED_SAMPLES)
        replay = random.Random(5)
        shifts = [replay.random() for _ in sizes]
        for est in arc_estimates(carrier, ds, SHARED_SAMPLES, seed=5):
            hits = est.count_histogram[1]
            assert est.count_histogram == {0: SHARED_SAMPLES - hits, 1: hits}
            assert est.mean_count == hits / SHARED_SAMPLES
            fractions = np.array([np.mean((np.arange(n) / n + shift) % 1.0
                                          < est.d / math.pi)
                                  for n, shift in zip(sizes, shifts)])
            assert round(fractions @ sizes) == hits
            spread = np.sum(sizes * (fractions - hits / SHARED_SAMPLES) ** 2)
            stderr = max(math.sqrt(spread / (SHARED_SAMPLES * (len(sizes) - 1))),
                         0.5 / (min(sizes) * math.sqrt(len(sizes))))
            assert est.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("d", [0.3, 1.2, math.pi / 2])
    def test_projective_equals_sphere(self, d):
        # both estimate on the canonical arc of length d from the same draws
        p, = arc_estimates("projective", (d,), SHARED_SAMPLES, seed=6)
        s, = arc_estimates("sphere", (d,), SHARED_SAMPLES, seed=6)
        assert p.d == s.d
        assert (p.estimate, p.stderr, p.count_histogram) == \
            (s.estimate, s.stderr, s.count_histogram)


class TestEstimateM:
    def test_coincident_points(self):
        x = axis_point(2, 0.0)
        est, = crofton.hyperplane_crofton_many(2, (pair_distance(REAL, x, x),),
                                               100, seed=0)
        assert est.estimate == 0.0 and est.stderr == 0.0

    def test_linearity(self):
        e1, = crofton.hyperplane_crofton_many(2, (1.0,), 300_000, seed=1)
        e2, = crofton.hyperplane_crofton_many(2, (2.0,), 300_000, seed=2)
        assert abs(e2.estimate - 2 * e1.estimate) <= \
            3 * math.hypot(2 * e1.stderr, e2.stderr)

    def test_additivity_collinear(self):
        a, b, c = (axis_point(3, d) for d in (0.0, 0.8, 1.9))
        eab, ebc, eac = (
            crofton.hyperplane_crofton_many(3, (pair_distance(REAL, x, y),),
                                            200_000, seed=seed)[0]
            for x, y, seed in ((a, b, 3), (b, c, 4), (a, c, 5)))
        z = abs(eab.estimate + ebc.estimate - eac.estimate) / \
            math.sqrt(eab.stderr**2 + ebc.stderr**2 + eac.stderr**2)
        assert z <= 3.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ratio_is_crofton_constant(self, n):
        # vol(S^{n-2}) / (n - 1): 2 in H^2_R, pi in H^3_R
        est, = crofton.hyperplane_crofton_many(n, (1.0,), 200_000, seed=6)
        constant = crofton.sphere_area(n - 2) / (n - 1)
        assert abs(est.ratio - constant) <= 4 * est.stderr / est.d

    def test_matches_brute_force_off_axis(self):
        # a segment off the axis and off the base point: the reference
        # draws hyperplanes from the ball of radius R = max d(x0, .), which
        # holds the segment, and tests each against the real segment; the
        # estimator sees only d
        rng = np.random.default_rng(42)
        x, y = random_coords(REAL, 3, 0.6, rng, 2)
        x0 = axis_point(3, 0.0)
        R = max(pair_distance(REAL, x0, x), pair_distance(REAL, x0, y))
        seg = geodesic_between(REAL, x, y)
        samples = 20_000
        # sample_hyperplane's draws, in one batch
        normals = reference._sample_hyperplane_normals(3, R, samples, rng)
        hits = sum(hyperplane_meets_segment(Hyperplane(u), seg) for u in normals)
        ball = crofton.sphere_area(2) / 2 * cosh_power_integral(2, -R, R)
        p = hits / samples
        brute, brute_err = ball * p, ball * math.sqrt(p * (1 - p) / samples)
        est, = crofton.hyperplane_crofton_many(3, (pair_distance(REAL, x, y),),
                                               200_000, seed=43)
        assert abs(est.estimate - brute) <= 4 * math.hypot(est.stderr, brute_err)

    def test_off_centre_unit_segment(self):
        # both endpoints far from the base point: neither the measured
        # distance nor the estimate's precision may depend on where the
        # segment sits
        d = pair_distance(REAL, axis_point(2, 8.0), axis_point(2, 9.0))
        est, near = crofton.hyperplane_crofton_many(2, (d, 1.0), 200_000, seed=7)
        assert 0 < est.stderr <= 2 * near.stderr
        assert abs(est.estimate - 2.0) <= 4 * est.stderr

    def test_worker_count_invariance(self):
        e1, = crofton.hyperplane_crofton_many(2, (1.0,), 300_000, seed=8, workers=1)
        e4, = crofton.hyperplane_crofton_many(2, (1.0,), 300_000, seed=8, workers=4)
        assert e1.estimate == e4.estimate
        assert e1.stderr == e4.stderr

    def test_histogram_is_one_crossing_each(self):
        # a hyperplane meets a segment at most once: every direction's
        # carrier crosses once, over several chunks and distances
        ests = crofton.hyperplane_crofton_many(3, (0.5, 2.0), SHARED_SAMPLES, seed=4)
        assert [e.count_histogram for e in ests] == [{1: SHARED_SAMPLES}] * 2

    def test_complex_field_rejected(self):
        # hyperplanes are real: the carrier takes the real field alone
        assert crofton.CARRIERS["hyperplane"].fields == (REAL,)


class TestSymmetricDifference:
    def test_per_sample_identity(self):
        # half-space sign disagreement == transversal segment crossing
        rng = np.random.default_rng(19)
        x, y = random_coords(REAL, 2, 1.5, rng, 2)
        seg = geodesic_between(REAL, x, y)
        disagreements = 0
        boundary = 0
        for _ in range(2000):
            hp = sample_hyperplane(2, 2.5, rng)
            sx = halfspace_side(hp.u, x)
            sy = halfspace_side(hp.u, y)
            if sx == 0 or sy == 0:
                boundary += 1
                continue
            try:
                meets = hyperplane_meets_segment(hp, seg)
            except SegmentInHyperplaneError:
                boundary += 1
                continue
            if (sx != sy) != meets:
                disagreements += 1
        assert disagreements == 0
        assert boundary < 5


class TestHorosphereEstimator:
    def test_coincident_points(self):
        x = axis_point(2, 0.0)
        est, = crofton.horosphere_crofton_many(
            COMPLEX, 2, (pair_distance(COMPLEX, x, x),), 100, seed=0)
        assert est.estimate == 0.0

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_linearity(self, field):
        ests = crofton.horosphere_crofton_many(field, 2, (0.5, 1.0, 2.0), 200_000,
                                               seed=21)
        for i in range(3):
            for j in range(i + 1, 3):
                ri, rj = ests[i].ratio, ests[j].ratio
                si = ests[i].stderr / ests[i].d
                sj = ests[j].stderr / ests[j].d
                assert abs(ri - rj) <= 3 * math.hypot(si, sj)

    def test_histogram_has_double_crossings(self):
        est, = crofton.horosphere_crofton_many(REAL, 2, (1.0,), 100_000, seed=22)
        assert est.count_histogram.get(2, 0) > 0

    def test_histogram_pinned(self):
        # recorded when the lattice shifts came from random.Random and the
        # crossing tally's uniforms from a third lattice coordinate (19
        # replicates of 15789 or 15790 points): the value 9.4495444 +- 6.5e-6
        # is within 1.9 sigma of 2 vol(B^7) = 9.4495319, and the histogram
        # tallies the lattice points, crowded towards w1 = 1, where a
        # horosphere is met twice less often than over uniform directions;
        # the estimate's float may change in its last digits, the crossing
        # counts may not
        est, = crofton.horosphere_crofton_many(QUATERNION, 2, (1.0,), 300_000,
                                               seed=1)
        assert est.count_histogram == {1: 255916, 2: 44084}
        assert est.estimate == pytest.approx(9.44954438135052, rel=1e-14)

    def test_worker_count_invariance(self):
        e1, = crofton.horosphere_crofton_many(COMPLEX, 2, (1.0,), 300_000, seed=23,
                                              workers=1)
        e3, = crofton.horosphere_crofton_many(COMPLEX, 2, (1.0,), 300_000, seed=23,
                                              workers=3)
        assert e1.estimate == e3.estimate

    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    def test_matches_brute_force_count(self, field):
        # mean crossing count of horospheres drawn from the ball of radius
        # d/2, which holds every horosphere meeting a segment centred at the
        # base point, times that ball's measure; a short segment keeps the
        # hit rate of the r^e radial density workable over H
        d = 0.25
        x, y = axis_point(2, -0.5 * d), axis_point(2, 0.5 * d)
        brute, brute_err = brute_force_horosphere_measure(
            field, x, y, 0.5 * d, 4000, np.random.default_rng(40))
        k = FIELD_DIM[field]
        with np.errstate(all="raise"):
            est, = crofton.horosphere_crofton_many(
                field, 2, (pair_distance(field, x, y),), 200_000, seed=41)
        assert abs(est.estimate - brute) <= 4 * math.hypot(est.stderr, brute_err)
        # the ratio is its d -> 0 limit: a direction w carries d |Re <v, w>|
        # for the unit tangent v at the base point, and vol(S^{m-1}) times
        # the mean of |Re <v, w>| over S^{m-1} is 2 vol(B^{m-1}), m = kn
        constant = 2 * math.pi ** (k - 0.5) / math.gamma(k + 0.5)
        assert abs(est.ratio - constant) <= 4 * est.stderr / d

    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    def test_matches_brute_force_off_axis(self, field):
        # a segment off the axis and off the base point: the reference counts
        # crossings of the real segment by horospheres from the ball of
        # radius R = max d(x0, .); the estimator sees only d
        k = FIELD_DIM[field]
        rng = np.random.default_rng(44 + k)
        x, y = random_coords(field, 2, 0.3, rng, 2)
        x0 = axis_point(2, 0.0)
        R = max(pair_distance(field, x0, x), pair_distance(field, x0, y))
        brute, brute_err = brute_force_horosphere_measure(field, x, y, R, 8000, rng)
        with np.errstate(all="raise"):
            est, = crofton.horosphere_crofton_many(
                field, 2, (pair_distance(field, x, y),), 200_000, seed=49 + k)
        assert abs(est.estimate - brute) <= 4 * math.hypot(est.stderr, brute_err)

    def test_degenerate_directions(self):
        # xi = (1, 1, 0), w1 = 1 at theta = phi = 0, is centred
        # at an end of the segment's geodesic, so up = 0 (|beta| = alpha);
        # each of its horospheres crosses once, and the radii met run from
        # e^{-d/2} to e^{d/2}; w1 = -1 is the same on the reversed segment
        d = 1.4
        stats = [np.concatenate(c) for c in zip(*[half_angles(1.0, 1.0)] * 2)]
        with np.errstate(all="raise"):
            values, twice = crofton._horosphere_values(
                d, crofton._horosphere_levels(*stats, *spare(2, 1), 0),
                np.array([0.3, 0.9]), 0, values_out(2))
        assert values == pytest.approx([2 * math.sinh(0.5 * d)] * 2, rel=1e-12)
        assert (1 + twice).tolist() == [1, 1]


class TestProjectiveEstimator:
    def brute_force_fraction(self, x, y):
        # equal-area Fibonacci grid on S^2 averages the sign-change indicator
        N = 500_000
        i = np.arange(N)
        z = 1.0 - (2.0 * i + 1.0) / N
        rho = np.sqrt(1.0 - z**2)
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        u = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        yr = y if x @ y >= 0 else -y
        return float(np.mean((u @ x) * (u @ yr) < 0))

    def test_fraction_matches_distance_over_pi(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            est, = arc_estimates("projective", (pair_distance("p", x, y),),
                                 200_000, seed=25)
            assert abs(est.estimate - est.d / math.pi) <= 3 * est.stderr

    def test_fraction_matches_quadrature_oracle(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        oracle = self.brute_force_fraction(x, y)
        est, = arc_estimates("projective", (pair_distance("p", x, y),), 300_000,
                             seed=27)
        assert abs(est.estimate - oracle) <= 3 * est.stderr + 1e-3

    def test_coincident(self):
        x = [1, 2, 3]
        d = pair_distance("p", x, x)
        assert arc_estimates("projective", (d,), 100, seed=0)[0].estimate == 0.0
        # a pair closer than 1e-12 counts as coincident too
        est, = arc_estimates("projective", (1e-13,), 100, seed=0)
        assert (est.d, est.estimate, est.note) == (0.0, 0.0, "coincident points")

    def test_cut_locus_note(self):
        d = pair_distance("p", [1, 0, 0], [0, 1, 0])
        est, = arc_estimates("projective", (d,), 10_000, seed=28)
        assert "pi/2" in est.note


class TestSphereEstimator:
    def test_orthogonal_pair(self):
        d = pair_distance("s", [1, 0, 0], [0, 1, 0])
        est, = arc_estimates("sphere", (d,), 200_000, seed=29)
        assert abs(est.estimate - 0.5) <= 3 * est.stderr

    def test_random_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            est, = arc_estimates("sphere", (pair_distance("s", x, y),), 200_000,
                                 seed=31)
            assert abs(est.estimate - est.d / math.pi) <= 3 * est.stderr

    def test_coincident(self):
        d = pair_distance("s", [0, 0, 1], [0, 0, 1])
        assert arc_estimates("sphere", (d,), 100, seed=0)[0].estimate == 0.0

    def test_antipodal_flagged(self):
        d = pair_distance("s", [0, 0, 1.0], [0, 0, -1.0])
        est, = arc_estimates("sphere", (d,), 50_000, seed=32)
        assert "antipodal" in est.note
        assert est.estimate == pytest.approx(1.0, abs=0.01)


class TestIsometryInvariance:
    def test_estimate_m_invariant(self):
        rng = np.random.default_rng(33)
        x, y = random_coords(REAL, 2, 1.5, rng, 2)

        def estimate(x, y, seed):
            d = pair_distance(REAL, x, y)
            return crofton.hyperplane_crofton_many(2, (d,), 150_000, seed=seed)[0]

        e0 = estimate(x, y, 34)
        for i in range(3):
            g = random_isometry(REAL, 2, rng)
            e1 = estimate(g @ x, g @ y, 35 + i)
            assert combined_z(e0, e1) <= 3.0

    def test_horosphere_invariant(self):
        rng = np.random.default_rng(36)
        x, y = random_coords(COMPLEX, 2, 1.5, rng, 2)

        def estimate(x, y, seed):
            d = pair_distance(COMPLEX, x, y)
            return crofton.horosphere_crofton_many(COMPLEX, 2, (d,), 150_000,
                                                   seed=seed)[0]

        e0 = estimate(x, y, 37)
        for i in range(3):
            g = random_isometry(COMPLEX, 2, rng)
            e1 = estimate(g @ x, g @ y, 38 + i)
            assert combined_z(e0, e1) <= 3.0
