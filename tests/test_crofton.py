import dataclasses
import functools
import math
import sys
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
    HermitianSpace,
    form_coeffs,
    qmul,
    qnorm,
)
from hypcrofton.crofton import (
    Horosphere,
    Hyperplane,
    OrientedHalfSpace,
    SegmentInHyperplaneError,
    cosh_power_integral,
    count_cosh_roots,
    count_horosphere_intersections,
    estimate_horosphere_crofton,
    estimate_m,
    halfspace_contains,
    halfspace_side,
    hyperplane_meets_segment,
    projective_crofton_estimate,
    sample_horosphere,
    sample_hyperplane,
    sphere_halfspace_crofton,
)
from hypcrofton.spaces import (
    HPoint,
    PPoint,
    base_point,
    geodesic_between,
    hyperbolic_distance,
    random_isometry,
    random_point,
)


def axis_point(space, d):
    c = np.zeros((space.dim, 4))
    c[0, 0] = math.cosh(d)
    c[1, 0] = math.sinh(d)
    return HPoint(space, c)


def brute_force_horosphere_measure(x, y, R, samples, rng):
    """Measure of the horospheres crossing [xy], each counted per crossing.

    The mean crossing count of horospheres drawn by sample_horosphere from
    the ball of radius R around the base point, which must hold the
    segment, times that ball's measure; returns (value, stderr).
    """
    space = x.space
    seg = geodesic_between(x, y)
    counts = np.array([count_horosphere_intersections(
        sample_horosphere(space, R, rng), seg) for _ in range(samples)])
    k = FIELD_DIM[space.field]
    e = k * (space.n + 1) - 3
    ball = crofton.sphere_area(k * space.n - 1) \
        * (math.exp(R * (e + 1)) - math.exp(-R * (e + 1))) / (e + 1)
    return ball * counts.mean(), ball * counts.std() / math.sqrt(samples)


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
        want = 2.0 * crofton.cosh_power_antiderivative(m, np.arctanh(s))
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

    def test_dimension_limits(self):
        # the largest dimensions whose carrier measures are normal floats
        tiny = sys.float_info.min
        n = crofton.MAX_HYPERPLANE_DIM
        assert crofton.sphere_area(n - 1) / 2 >= tiny > crofton.sphere_area(n) / 2
        kn = crofton.MAX_HOROSPHERE_DIM
        assert crofton.sphere_area(kn - 1) >= tiny > crofton.sphere_area(kn)


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
        u = crofton._sample_hyperplane_normals(n, R, 100_000, rng)
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
        p = np.arcsinh(crofton._sample_hyperplane_normals(2, R, 200_000, rng)[:, 0])
        assert np.median(p) == pytest.approx(0.0, abs=0.01)
        q25 = math.asinh(0.25 * 2 * math.sinh(R) - math.sinh(R))
        assert np.quantile(p, 0.25) == pytest.approx(q25, abs=0.01)


class TestHyperplanePredicates:
    def setup_method(self):
        self.space = HermitianSpace(REAL, 3)
        self.s0 = Hyperplane([0.0, 0.0, 0.0, 1.0])  # last coordinate zero

    def test_transversal_crossing(self):
        eps = 0.1
        x = HPoint(self.space, [1.0, 0.0, 0.0, eps])
        y = HPoint(self.space, [1.0, 0.0, 0.0, -eps])
        seg = geodesic_between(x, y)
        assert hyperplane_meets_segment(self.s0, seg)

    def test_strictly_inside_halfspace(self):
        x = HPoint(self.space, [1.2, 0.0, 0.0, 0.3])
        y = HPoint(self.space, [1.5, 0.5, 0.0, 0.7])
        seg = geodesic_between(x, y)
        assert not hyperplane_meets_segment(self.s0, seg)

    def test_endpoint_on_hyperplane_counts(self):
        x = HPoint(self.space, [1.2, 0.0, 0.0, 0.3])
        y = base_point(self.space)  # last coordinate exactly zero
        seg = geodesic_between(x, y)
        assert hyperplane_meets_segment(self.s0, seg)

    def test_contained_segment_flagged(self):
        x = base_point(self.space)
        y = axis_point(self.space, 1.0)  # both have last coordinate zero
        seg = geodesic_between(x, y)
        with pytest.raises(SegmentInHyperplaneError):
            hyperplane_meets_segment(self.s0, seg)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            hp = sample_hyperplane(3, 2.5, rng)
            flipped = Hyperplane(-hp.u)
            x = random_point(self.space, 2.0, rng)
            y = random_point(self.space, 2.0, rng)
            seg = geodesic_between(x, y)
            assert hyperplane_meets_segment(hp, seg) == \
                hyperplane_meets_segment(flipped, seg)

    def test_rejects_complex_field(self):
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(5)
        seg = geodesic_between(random_point(space, 1, rng),
                               random_point(space, 1, rng))
        with pytest.raises(ValueError):
            hyperplane_meets_segment(Hyperplane([0, 0, 1]), seg)


class TestHalfSpace:
    def test_base_point_on_boundary(self):
        space = HermitianSpace(REAL, 3)
        u = np.array([0.0, 0.0, 0.0, 1.0])
        assert halfspace_side(u, base_point(space)) == 0

    def test_positive_last_coordinate(self):
        space = HermitianSpace(REAL, 3)
        h = OrientedHalfSpace([0.0, 0.0, 0.0, 1.0])
        x = HPoint(space, [math.sqrt(2), 0.0, 0.0, 1.0])
        assert halfspace_contains(h, x)
        assert not halfspace_contains(h.flipped(), x)

    def test_flip_complements(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(6)
        for _ in range(100):
            hp = sample_hyperplane(2, 2.0, rng)
            x = random_point(space, 1.5, rng)
            side = halfspace_side(hp.u, x)
            assert halfspace_side(-hp.u, x) == -side

    def test_representative_sign_independent(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(7)
        hp = sample_hyperplane(2, 2.0, rng)
        x = random_point(space, 1.5, rng)
        assert halfspace_side(hp.u, x.coords[:, 0]) == \
            halfspace_side(hp.u, -x.coords[:, 0])


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
            space = HermitianSpace(field, 2)
            for _ in range(50):
                h = sample_horosphere(space, 1.5, rng)
                q = form_coeffs(h.xi, h.xi)
                assert np.abs(q).max() <= 1e-10 * np.sum(h.xi**2)
                assert h.busemann_distance() <= 1.5 + 1e-12
                # |<x0, xi>| = r exactly, r = leading component
                assert h.level(base_point(space)) == pytest.approx(
                    float(qnorm(h.xi[0])), rel=1e-12)

    def test_phase_normalization(self):
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(10)
        h = sample_horosphere(space, 1.0, rng)
        assert h.xi[0, 0] > 0
        assert np.allclose(h.xi[0, 1:], 0, atol=1e-14)

    def test_real_radial_density_flat(self):
        # for H^2_R the radial exponent k(n+1)-3 = 0: flat in r
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(11)
        xi = crofton._sample_horosphere_params(space, 1.0, 100_000, rng)
        r = xi[:, 0, 0]
        lo, hi = math.exp(-1.0), math.exp(1.0)
        observed, _ = np.histogram(r, bins=np.linspace(lo, hi, 21))
        _, pvalue = stats.chisquare(observed)
        assert pvalue > 0.05

    def test_complex_radial_density_cubic(self):
        # H^2_C: exponent k(n+1)-3 = 3
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(12)
        xi = crofton._sample_horosphere_params(space, 1.0, 100_000, rng)
        r = xi[:, 0, 0]
        lo, hi = math.exp(-1.0), math.exp(1.0)
        edges = np.linspace(lo, hi, 21)
        observed, _ = np.histogram(r, bins=edges)
        expected = np.diff(edges**4) / (hi**4 - lo**4) * r.size
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.05

    def test_isometry_moves_parameter(self):
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(13)
        g = random_isometry(space, rng)
        h = sample_horosphere(space, 1.0, rng)
        gh = Horosphere(space, g.apply_coords(h.xi))
        x = random_point(space, 1.5, rng)
        gx = g @ x
        assert gh.level(gx) == pytest.approx(h.level(x), rel=1e-9)


class TestHorosphereIntersections:
    def test_far_segment_misses(self):
        space = HermitianSpace(REAL, 2)
        # horosphere at busemann distance ~2 from x0; segment near x0
        xi = np.zeros((3, 4))
        xi[0, 0] = math.exp(2.0)
        xi[1, 0] = math.exp(2.0)
        h = Horosphere(space, xi)
        seg = geodesic_between(axis_point(space, 0.05),
                               HPoint(space, [1.0, 0.0, 0.05]))
        assert count_horosphere_intersections(h, seg) == 0

    def test_double_crossing_through_center_direction(self):
        # the base point lies inside the horoball (r < 1) and both segment
        # endpoints lie outside, so the segment enters and exits once each
        space = HermitianSpace(REAL, 2)
        xi = np.zeros((3, 4))
        xi[0, 0] = math.exp(-0.5)
        xi[1, 0] = math.exp(-0.5)
        h = Horosphere(space, xi)
        x = HPoint(space, [math.cosh(2.0), 0.0, -math.sinh(2.0)])
        y = HPoint(space, [math.cosh(2.0), 0.0, math.sinh(2.0)])
        seg = geodesic_between(x, y)
        # check against a dense scan of the level function
        ts = np.linspace(0, seg.length, 20_000)
        levels = np.array([h.level(seg.point(t)) for t in ts[:: 40]])
        crossings = int(np.sum(np.diff(np.sign(levels - 1.0)) != 0))
        assert count_horosphere_intersections(h, seg) == crossings == 2

    def test_count_two_occurs_randomly(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(14)
        seg = geodesic_between(axis_point(space, -1.2), axis_point(space, 1.2))
        counts = [count_horosphere_intersections(
            sample_horosphere(space, 2.0, rng), seg) for _ in range(2000)]
        assert counts.count(2) > 0
        assert max(counts) <= 2

    @pytest.mark.parametrize("field", [COMPLEX, QUATERNION])
    def test_phase_invariance(self, field):
        space = HermitianSpace(field, 2)
        rng = np.random.default_rng(15)
        k = {COMPLEX: 2, QUATERNION: 4}[field]
        for _ in range(50):
            x = random_point(space, 1.5, rng)
            y = random_point(space, 1.5, rng)
            seg = geodesic_between(x, y)
            h = sample_horosphere(space, 2.0, rng)
            lam = np.zeros(4)
            lam[:k] = rng.standard_normal(k)
            lam /= np.linalg.norm(lam)
            shifted = Horosphere(space, qmul(h.xi, lam[None, :]))
            assert count_horosphere_intersections(shifted, seg) == \
                count_horosphere_intersections(h, seg)

    def test_histogram_counts_match_scalar(self):
        # replay the estimator's draws for one chunk: per direction w, a
        # uniform u picks the radius r with Phi(r) = lo + u (peak - lo), where
        # Phi(r) = r^{e+1} / (e+1) over the radii 1 / |<p(s), (1, w)>| met
        # along the segment, found here by a dense scan.  The scalar count
        # of that horosphere is the one the estimator histogrammed.
        space = HermitianSpace(COMPLEX, 2)
        k, e, samples, seed, d = 2, 3, 400, 16, 1.2
        x, y = axis_point(space, -0.5 * d), axis_point(space, 0.5 * d)
        seg = geodesic_between(x, y)
        est = estimate_horosphere_crofton(x, y, samples, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        x1, a, b = crofton._first_coordinate(k, 2, samples, rng)
        u = rng.random(samples)
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
            phi = qnorm(form_coeffs(path, xi[:, None, :])) ** -(e + 1) / (e + 1)
            lo, hi = sorted((phi[0], phi[-1]))
            target = lo + ui * (phi.max() - lo)
            if abs(target - hi) <= 1e-6 * phi.max():
                unclear += 1
                continue
            r = ((e + 1) * target) ** (1 / (e + 1))
            tally[count_horosphere_intersections(Horosphere(space, r * xi), seg)] += 1
        assert unclear <= 2
        assert tally[2] > 0
        for c in (1, 2):
            assert abs(est.count_histogram.get(c, 0) - tally[c]) <= unclear


def spare(size, count):
    """`count` arrays of `size` floats for the kernels to write into."""
    return [np.empty(size) for _ in range(count)]


def values_out(size):
    """The arrays _horosphere_values writes into: three float, one bool."""
    return (*spare(size, 3), np.empty(size, bool))


def radial_potential(G, e):
    """Phi(G^{-1/2}), Phi(r) = r^{e+1} / (e+1), or log r when e = -1."""
    return -0.5 * np.log(G) if e == -1 else G ** (-0.5 * (e + 1)) / (e + 1)


def reference_horosphere_values(d, levels, u, e):
    """The horosphere kernel with G's minimum formed at every d: (values,
    counts, scale) from _level_coefficients' levels.

    G's interior minimum sqrt(up * down) + gamma, kept at most the smaller
    end value against rounding, where up < down < up e^{4d}; Phi at the
    minimum, the two ends and one radius drawn by u as in the estimator.
    scale is the size of the Phi values that the value 2 peak - f0 - f1
    differences, or 1 for Phi = log, whose rounding is absolute.
    """
    half, low, high, gamma = levels
    up = half * math.exp(-d) * low
    down = half * math.exp(d) * high
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
    scale = 2.0 * np.abs(peak) + np.abs(f0) + np.abs(f1) if e != -1 else 1.0
    return 2.0 * peak - f0 - f1, counts, scale


class TestLevelMatrix:
    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_form(self, field, n):
        # the closed-form level rows [a + b | a - b], and (up, down, gamma)
        # formed at d, as _horosphere_values does, from the d-free part that
        # _level_coefficients takes from a direction's statistics (x, a, b),
        # against a = <x, xi> and b = <v, xi> from form_coeffs,
        # one direction at a time, on the explicit axis segment from -d/2 to
        # d/2 (base x, tangent v) for d up to 12; w = g / |g| with Re w1 >= 0
        space = HermitianSpace(field, n)
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
                half, low, high, gamma = crofton._level_coefficients(
                    g[:, 0].copy(), np.sum(g[:, 1:k] ** 2, axis=1),
                    np.sum(g[:, k:] ** 2, axis=1), *spare(5, 2))
                up, down = math.exp(-d) * half * low, math.exp(d) * half * high
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
    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference(self, field, n):
        # the same (x, a, b, u) through the reference, which forms G's
        # minimum at every d, and through the kernel, which takes Phi at it
        # from the chunk's d-free levels; the drawn directions plus w1 = 1,
        # (x, a, b) = (1, 0, 0), where low = gamma = 0 and G's critical
        # value is 0 (every direction of H^1_R is this one), and, where k >= 2
        # or n >= 2, Re w1 = 0, (x, a, b) = (0, k - 1, k (n - 1)), where low
        # = high and f0 = f1 up to rounding, in either order
        k = FIELD_DIM[field]
        e = k * (n + 1) - 3
        rng = np.random.default_rng(90 + 3 * n + k)
        edges = [(1.0, 0.0, 0.0)]
        if k * n > 1:
            edges.append((0.0, k - 1.0, k * (n - 1.0)))
        x, a, b = (np.append(s, v) for s, v in
                   zip(crofton._first_coordinate(k, n, 2000, rng), zip(*edges)))
        u = rng.random(x.size)
        with np.errstate(all="raise"):
            levels = crofton._horosphere_levels(x.copy(), a.copy(), b.copy(),
                                                *spare(x.size, 2), e)
            for d in (1e-13, 1e-3, 0.5, 2.0, 12.0, 16.0):
                want, counts, scale = reference_horosphere_values(
                    d, crofton._level_coefficients(x.copy(), a.copy(), b.copy(),
                                                   *spare(x.size, 2)),
                    u, e)
                got, twice = crofton._horosphere_values(d, levels, u, e,
                                                        values_out(x.size))
                assert np.all(np.abs(got - want) <= 1e-14 * scale)
                assert np.array_equal(1 + twice, counts)


class TestFirstCoordinate:
    @pytest.mark.parametrize("k,m", [(1, 1), (1, 3), (2, 2), (4, 1), (4, 2)])
    def test_law_matches_uniform_sphere(self, k, m):
        # the means of |Re w1|, |Im w1|^2 and |w_rest|^2 from the statistics
        # against the same functions of uniform unit vectors of F^m; a wrong
        # gamma shape moves them by many sigma
        samples = 200_000
        x, a, b = crofton._first_coordinate(k, m, samples,
                                            np.random.default_rng(70 + k * m))
        rho2 = x * x + a + b
        w = crofton._uniform_sphere(k * m, samples, np.random.default_rng(80 + k * m))
        drawn = (x / np.sqrt(rho2), a / rho2, b / rho2)
        read = (np.abs(w[:, 0]), np.sum(w[:, 1:k] ** 2, axis=1),
                np.sum(w[:, k:] ** 2, axis=1))
        for got, want in zip(drawn, read):
            sigma = math.hypot(got.std(), want.std()) / math.sqrt(samples)
            assert abs(got.mean() - want.mean()) <= 5 * sigma + 1e-15

    def test_generator_calls(self):
        # per call: one normal draw, then a gamma draw for Im w1 when k > 1
        # and one for w_rest when m > 1, in that order
        size = 7
        for k, m in ((1, 1), (1, 3), (4, 1), (4, 2)):
            x, a, b = crofton._first_coordinate(k, m, size, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            assert np.array_equal(x, np.abs(rng.standard_normal(size)))
            assert np.array_equal(a, 2 * rng.standard_gamma(0.5 * (k - 1), size)
                                  if k > 1 else np.zeros(size))
            assert np.array_equal(b, 2 * rng.standard_gamma(0.5 * k * (m - 1), size)
                                  if m > 1 else np.zeros(size))


class TestDistanceEstimators:
    @pytest.mark.parametrize("d", [1e-13, 1e-3, 2.0, 12.0, 16.0])
    def test_no_floating_point_exceptions(self, d):
        # both estimators over R, C and H, from d at rounding level to the
        # CLI's largest distance
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ests = [crofton.hyperplane_crofton(n, d, 20_000, seed=1)
                    for n in (1, 2, 3, 5)]
            ests += [crofton.horosphere_crofton(field, n, d, 20_000, seed=2)
                     for field in (REAL, COMPLEX, QUATERNION) for n in (1, 2, 3)]
        for est in ests:
            assert est.d == d
            assert est.estimate > 0 and math.isfinite(est.ratio)
            assert math.isfinite(est.stderr)

    def test_no_full_direction_drawn(self, monkeypatch):
        # the hyperbolic estimators draw only the statistics their
        # integrands read, never a full unit vector per sample
        def refuse(*args):
            raise AssertionError("_uniform_sphere called")

        monkeypatch.setattr(crofton, "_uniform_sphere", refuse)
        space = HermitianSpace(REAL, 3)
        assert estimate_m(base_point(space), axis_point(space, 1.0), 1000).estimate > 0
        for field in (REAL, COMPLEX, QUATERNION):
            space = HermitianSpace(field, 2)
            est = estimate_horosphere_crofton(base_point(space),
                                              axis_point(space, 1.0), 1000)
            assert est.estimate > 0

    @pytest.mark.parametrize("call", [
        lambda: crofton.hyperplane_crofton(3, -1.0, 10),
        lambda: crofton.hyperplane_crofton(3, math.inf, 10),
        lambda: crofton.horosphere_crofton(COMPLEX, 2, math.nan, 10),
        lambda: crofton.hyperplane_crofton(0, 1.0, 10),
        lambda: crofton.hyperplane_crofton(438, 1.0, 10),
        lambda: crofton.horosphere_crofton(QUATERNION, 110, 1.0, 10),
    ], ids=["d-negative", "d-inf", "d-nan", "n-zero", "n-beyond-measure",
            "kn-beyond-measure"])
    def test_invalid_input_rejected(self, call):
        with pytest.raises(ValueError):
            call()


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
        space = HermitianSpace(REAL, 1)
        est = estimate_m(base_point(space), axis_point(space, 2.0), 300_000, seed=1)
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


def sign_change_pairs(carrier, ds):
    """(x, ys) for the projective or sphere estimator, as the CLI builds them."""
    x = np.array([1.0, 0.0, 0.0])
    ys = [np.array([math.cos(d), math.sin(d), 0.0]) for d in ds]
    if carrier == "projective":
        return PPoint(x), [PPoint(y) for y in ys]
    return x, ys


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
        one = getattr(crofton, f"{carrier}_crofton")
        got = many(*args, SHARED_DS, SHARED_SAMPLES, seed=7, workers=workers)
        assert fields(got) == fields(one(*args, d, SHARED_SAMPLES, seed=7)
                                     for d in SHARED_DS)
        assert got[3].note == "coincident points"

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("carrier", ["projective", "sphere_halfspace"])
    def test_sign_change_vector_equals_scalar(self, carrier, workers):
        # includes a coincident pair and the pair at the diameter, whose
        # representative alignment and note are per pair
        ds = (0.3, 0.0, 1.2, math.pi / 2, 3.0, math.pi)
        if carrier == "projective":
            ds = ds[:4]
        many = getattr(crofton, f"{carrier}_crofton_many")
        one = {"projective": projective_crofton_estimate,
               "sphere_halfspace": sphere_halfspace_crofton}[carrier]
        x, ys = sign_change_pairs(carrier, ds)
        got = many(x, ys, SHARED_SAMPLES, seed=9, workers=workers)
        assert fields(got) == fields(one(x, y, SHARED_SAMPLES, seed=9)
                                     for y in ys)
        assert got[1].note == "coincident points"
        assert got[-1].note != ""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("carrier,args,sampler", [
        ("hyperplane", (3,), "_first_coordinate"),
        ("horosphere", (QUATERNION, 2), "_first_coordinate"),
        ("projective", (), "_arc_plane_coordinates"),
        ("sphere_halfspace", (), "_arc_plane_coordinates"),
    ], ids=["hyperplane", "horosphere", "projective", "sphere"])
    def test_one_draw_per_chunk(self, monkeypatch, carrier, args, sampler,
                                workers):
        # the directions are drawn once per chunk, however many distances
        # read them
        calls = []
        real = getattr(crofton, sampler)

        def counted(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(crofton, sampler, counted)
        many = getattr(crofton, f"{carrier}_crofton_many")
        for ds in ((0.5,), (0.5, 1.0, 1.5, 0.25)):
            calls.clear()
            if args:
                many(*args, ds, SHARED_SAMPLES, seed=3, workers=workers)
            else:
                many(*sign_change_pairs(carrier, ds), SHARED_SAMPLES,
                     seed=3, workers=workers)
            assert len(calls) == 3

    def test_no_draw_without_a_positive_distance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew directions for coincident points")

        monkeypatch.setattr(crofton, "_first_coordinate", refuse)
        monkeypatch.setattr(crofton, "_arc_plane_coordinates", refuse)
        ests = crofton.horosphere_crofton_many(REAL, 2, (0.0, 0.0), 100)
        ests += crofton.sphere_halfspace_crofton_many([1, 0], [[2, 0]], 100)
        assert [e.estimate for e in ests] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("call", [
        # estimate 5.04e-322 with stderr 0: a subnormal ratio passed on as
        # a number
        lambda: crofton.hyperplane_crofton(437, 1e-13, 100_000, seed=3),
        lambda: crofton.hyperplane_crofton_many(437, (1.0, 1e-13), 20_000, seed=3),
        lambda: crofton.horosphere_crofton(REAL, 438, 1e-13, 20_000, seed=3),
        # estimate 4.2e-308 is normal, its stderr 2.5e-310 is not
        lambda: crofton.hyperplane_crofton(436, 1.0, 20_000, seed=3),
        # a positive mean whose estimate rounds to 0: 0 +- 0
        lambda: crofton.hyperplane_crofton(437, 1e-300, 1000, seed=3),
    ], ids=["hyperplane", "hyperplane-second-pair", "horosphere",
            "hyperplane-stderr", "hyperplane-zero"])
    def test_underflow_rejected(self, call):
        with pytest.raises(ValueError, match="underflows"):
            call()

    def test_normal_estimates_near_the_limit(self):
        # a little below the limit, d = 1 has a normal estimate and stderr
        est = crofton.hyperplane_crofton(430, 1.0, 20_000, seed=3)
        assert est.estimate >= sys.float_info.min
        assert est.stderr >= sys.float_info.min


class TestSignChangeEstimates:
    @pytest.mark.parametrize("carrier", ["projective", "sphere_halfspace"])
    def test_binomial_histogram_and_stderr(self, carrier):
        # a hypersurface crosses an arc 0 or 1 times: the histogram counts
        # the misses and hits, the hit fraction is hits / N, and the
        # stderr is the binomial sqrt(p (1 - p) / N)
        ds = (0.3, 1.2, math.pi / 2, 3.0)[:3 if carrier == "projective" else 4]
        many = getattr(crofton, f"{carrier}_crofton_many")
        for est in many(*sign_change_pairs(carrier, ds), SHARED_SAMPLES, seed=5):
            hits = est.count_histogram[1]
            assert est.count_histogram == {0: SHARED_SAMPLES - hits, 1: hits}
            assert est.mean_count == hits / SHARED_SAMPLES
            p = est.mean_count
            assert est.stderr == pytest.approx(
                math.sqrt(p * (1.0 - p) / SHARED_SAMPLES), rel=1e-12)

    @pytest.mark.parametrize("d", [0.3, 1.2, math.pi / 2])
    def test_projective_equals_sphere(self, d):
        # both estimate on the canonical arc of length d from the same draws
        px, (py,) = sign_change_pairs("projective", (d,))
        sx, (sy,) = sign_change_pairs("sphere_halfspace", (d,))
        p = projective_crofton_estimate(px, py, SHARED_SAMPLES, seed=6)
        s = sphere_halfspace_crofton(sx, sy, SHARED_SAMPLES, seed=6)
        assert p.d == pytest.approx(s.d, rel=1e-15)
        assert (p.estimate, p.stderr, p.count_histogram) == \
            (s.estimate, s.stderr, s.count_histogram)


class TestEstimateM:
    def test_coincident_points(self):
        space = HermitianSpace(REAL, 2)
        x = base_point(space)
        est = estimate_m(x, x, 100, seed=0)
        assert est.estimate == 0.0 and est.stderr == 0.0

    def test_linearity(self):
        space = HermitianSpace(REAL, 2)
        e1 = estimate_m(axis_point(space, 0.0), axis_point(space, 1.0),
                        300_000, seed=1)
        e2 = estimate_m(axis_point(space, 0.0), axis_point(space, 2.0),
                        300_000, seed=2)
        assert abs(e2.estimate - 2 * e1.estimate) <= \
            3 * math.hypot(2 * e1.stderr, e2.stderr)

    def test_additivity_collinear(self):
        space = HermitianSpace(REAL, 3)
        a, b, c = (axis_point(space, d) for d in (0.0, 0.8, 1.9))
        eab = estimate_m(a, b, 200_000, seed=3)
        ebc = estimate_m(b, c, 200_000, seed=4)
        eac = estimate_m(a, c, 200_000, seed=5)
        z = abs(eab.estimate + ebc.estimate - eac.estimate) / \
            math.sqrt(eab.stderr**2 + ebc.stderr**2 + eac.stderr**2)
        assert z <= 3.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ratio_is_crofton_constant(self, n):
        # vol(S^{n-2}) / (n - 1): 2 in H^2_R, pi in H^3_R
        space = HermitianSpace(REAL, n)
        est = estimate_m(base_point(space), axis_point(space, 1.0), 200_000,
                         seed=6)
        constant = crofton.sphere_area(n - 2) / (n - 1)
        assert abs(est.ratio - constant) <= 4 * est.stderr / est.d

    def test_matches_brute_force_off_axis(self):
        # a segment off the axis and off the base point: the reference
        # draws hyperplanes from the ball of radius R = max d(x0, .), which
        # holds the segment, and tests each against the real segment; the
        # estimator sees only d
        space = HermitianSpace(REAL, 3)
        rng = np.random.default_rng(42)
        x, y = random_point(space, 0.6, rng), random_point(space, 0.6, rng)
        x0 = base_point(space)
        R = max(hyperbolic_distance(x0, x), hyperbolic_distance(x0, y))
        seg = geodesic_between(x, y)
        samples = 20_000
        # sample_hyperplane's draws, in one batch
        normals = crofton._sample_hyperplane_normals(3, R, samples, rng)
        hits = sum(hyperplane_meets_segment(Hyperplane(u), seg) for u in normals)
        ball = crofton.sphere_area(2) / 2 * cosh_power_integral(2, -R, R)
        p = hits / samples
        brute, brute_err = ball * p, ball * math.sqrt(p * (1 - p) / samples)
        est = estimate_m(x, y, 200_000, seed=43)
        assert abs(est.estimate - brute) <= 4 * math.hypot(est.stderr, brute_err)

    def test_off_centre_unit_segment(self):
        # both endpoints far from the base point: neither the value nor its
        # precision may depend on where the segment sits
        space = HermitianSpace(REAL, 2)
        est = estimate_m(axis_point(space, 8.0), axis_point(space, 9.0),
                         200_000, seed=7)
        near = estimate_m(base_point(space), axis_point(space, 1.0),
                          200_000, seed=7)
        assert 0 < est.stderr <= 2 * near.stderr
        assert abs(est.estimate - 2.0) <= 4 * est.stderr

    def test_worker_count_invariance(self):
        space = HermitianSpace(REAL, 2)
        x, y = axis_point(space, 0.0), axis_point(space, 1.0)
        e1 = estimate_m(x, y, 300_000, seed=8, workers=1)
        e4 = estimate_m(x, y, 300_000, seed=8, workers=4)
        assert e1.estimate == e4.estimate
        assert e1.stderr == e4.stderr

    def test_histogram_is_one_crossing_each(self):
        # a hyperplane meets a segment at most once: every direction's
        # carrier crosses once, over several chunks and distances
        ests = crofton.hyperplane_crofton_many(3, (0.5, 2.0), SHARED_SAMPLES, seed=4)
        assert [e.count_histogram for e in ests] == [{1: SHARED_SAMPLES}] * 2

    def test_complex_field_rejected(self):
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            estimate_m(random_point(space, 1, rng),
                       random_point(space, 1, rng), 100)


class TestSymmetricDifference:
    def test_per_sample_identity(self):
        # half-space sign disagreement == transversal segment crossing
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(19)
        x = random_point(space, 1.5, rng)
        y = random_point(space, 1.5, rng)
        seg = geodesic_between(x, y)
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
        space = HermitianSpace(COMPLEX, 2)
        x = base_point(space)
        est = estimate_horosphere_crofton(x, x, 100, seed=0)
        assert est.estimate == 0.0

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_linearity(self, field):
        space = HermitianSpace(field, 2)
        ests = [estimate_horosphere_crofton(
            axis_point(space, 0.0), axis_point(space, d), 200_000, seed=21)
            for d in (0.5, 1.0, 2.0)]
        for i in range(3):
            for j in range(i + 1, 3):
                ri, rj = ests[i].ratio, ests[j].ratio
                si = ests[i].stderr / ests[i].d
                sj = ests[j].stderr / ests[j].d
                assert abs(ri - rj) <= 3 * math.hypot(si, sj)

    def test_histogram_has_double_crossings(self):
        space = HermitianSpace(REAL, 2)
        est = estimate_horosphere_crofton(axis_point(space, -0.5),
                                          axis_point(space, 0.5),
                                          100_000, seed=22)
        assert est.count_histogram.get(2, 0) > 0

    def test_histogram_pinned(self):
        # recorded when chunks shrank to 2^14 directions: the chunk
        # boundaries, and so the stream, moved, while the law did not (the
        # value 9.4227 +- 0.0239 is within 1.2 sigma of 2 vol(B^7) = 9.4495);
        # the estimate's float may change in its last digits, the crossing
        # counts may not
        space = HermitianSpace(QUATERNION, 2)
        est = estimate_horosphere_crofton(axis_point(space, 0.0),
                                          axis_point(space, 1.0), 300_000, seed=1)
        assert est.count_histogram == {1: 152573, 2: 147427}
        assert est.estimate == pytest.approx(9.422742051308571, rel=1e-14)

    def test_worker_count_invariance(self):
        space = HermitianSpace(COMPLEX, 2)
        x, y = axis_point(space, 0.0), axis_point(space, 1.0)
        e1 = estimate_horosphere_crofton(x, y, 300_000, seed=23, workers=1)
        e3 = estimate_horosphere_crofton(x, y, 300_000, seed=23, workers=3)
        assert e1.estimate == e3.estimate

    @pytest.mark.parametrize("field", [REAL, COMPLEX, QUATERNION])
    def test_matches_brute_force_count(self, field):
        # mean crossing count of horospheres drawn from the ball of radius
        # d/2, which holds every horosphere meeting a segment centred at the
        # base point, times that ball's measure; a short segment keeps the
        # hit rate of the r^e radial density workable over H
        space = HermitianSpace(field, 2)
        d = 0.25
        x, y = axis_point(space, -0.5 * d), axis_point(space, 0.5 * d)
        brute, brute_err = brute_force_horosphere_measure(
            x, y, 0.5 * d, 4000, np.random.default_rng(40))
        k = FIELD_DIM[field]
        with np.errstate(all="raise"):
            est = estimate_horosphere_crofton(x, y, 200_000, seed=41)
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
        space = HermitianSpace(field, 2)
        k = FIELD_DIM[field]
        rng = np.random.default_rng(44 + k)
        x, y = random_point(space, 0.3, rng), random_point(space, 0.3, rng)
        x0 = base_point(space)
        R = max(hyperbolic_distance(x0, x), hyperbolic_distance(x0, y))
        brute, brute_err = brute_force_horosphere_measure(x, y, R, 8000, rng)
        with np.errstate(all="raise"):
            est = estimate_horosphere_crofton(x, y, 200_000, seed=49 + k)
        assert abs(est.estimate - brute) <= 4 * math.hypot(est.stderr, brute_err)

    def test_degenerate_directions(self):
        # xi = (1, 1, 0), the statistics (x, a, b) = (1, 0, 0), is centred
        # at an end of the segment's geodesic, so up = 0 (|beta| = alpha);
        # each of its horospheres crosses once, and the radii met run from
        # e^{-d/2} to e^{d/2}; w1 = -1 is the same on the reversed segment
        d = 1.4
        stats = (np.ones(2), np.zeros(2), np.zeros(2))
        with np.errstate(all="raise"):
            values, twice = crofton._horosphere_values(
                d, crofton._horosphere_levels(*stats, *spare(2, 2), 0),
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
        xr = x.coords
        yr = y.coords if xr @ y.coords >= 0 else -y.coords
        return float(np.mean((u @ xr) * (u @ yr) < 0))

    def test_fraction_matches_distance_over_pi(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            x = PPoint(rng.standard_normal(3))
            y = PPoint(rng.standard_normal(3))
            est = projective_crofton_estimate(x, y, 200_000, seed=25)
            assert abs(est.estimate - est.d / math.pi) <= 3 * est.stderr

    def test_fraction_matches_quadrature_oracle(self):
        rng = np.random.default_rng(26)
        x = PPoint(rng.standard_normal(3))
        y = PPoint(rng.standard_normal(3))
        oracle = self.brute_force_fraction(x, y)
        est = projective_crofton_estimate(x, y, 300_000, seed=27)
        assert abs(est.estimate - oracle) <= 3 * est.stderr + 1e-3

    def test_coincident(self):
        x = PPoint([1, 2, 3])
        assert projective_crofton_estimate(x, x, 100, seed=0).estimate == 0.0
        # a pair closer than 1e-12 counts as coincident too
        x, (y,) = sign_change_pairs("projective", (1e-13,))
        est = projective_crofton_estimate(x, y, 100, seed=0)
        assert (est.d, est.estimate, est.note) == (0.0, 0.0, "coincident points")

    def test_cut_locus_note(self):
        est = projective_crofton_estimate(PPoint([1, 0, 0]), PPoint([0, 1, 0]),
                                          10_000, seed=28)
        assert "pi/2" in est.note


class TestSphereEstimator:
    def test_orthogonal_pair(self):
        est = sphere_halfspace_crofton([1, 0, 0], [0, 1, 0], 200_000, seed=29)
        assert abs(est.estimate - 0.5) <= 3 * est.stderr

    def test_random_pairs(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            est = sphere_halfspace_crofton(x, y, 200_000, seed=31)
            assert abs(est.estimate - est.d / math.pi) <= 3 * est.stderr

    def test_coincident(self):
        assert sphere_halfspace_crofton([0, 0, 1], [0, 0, 1], 100,
                                        seed=0).estimate == 0.0

    def test_antipodal_flagged(self):
        est = sphere_halfspace_crofton([0, 0, 1.0], [0, 0, -1.0], 50_000, seed=32)
        assert "antipodal" in est.note
        assert est.estimate == pytest.approx(1.0, abs=0.01)


class TestIsometryInvariance:
    def test_estimate_m_invariant(self):
        space = HermitianSpace(REAL, 2)
        rng = np.random.default_rng(33)
        x = random_point(space, 1.5, rng)
        y = random_point(space, 1.5, rng)
        e0 = estimate_m(x, y, 150_000, seed=34)
        for i in range(3):
            g = random_isometry(space, rng)
            e1 = estimate_m(g @ x, g @ y, 150_000, seed=35 + i)
            assert combined_z(e0, e1) <= 3.0

    def test_horosphere_invariant(self):
        space = HermitianSpace(COMPLEX, 2)
        rng = np.random.default_rng(36)
        x = random_point(space, 1.5, rng)
        y = random_point(space, 1.5, rng)
        e0 = estimate_horosphere_crofton(x, y, 150_000, seed=37)
        for i in range(3):
            g = random_isometry(space, rng)
            e1 = estimate_horosphere_crofton(g @ x, g @ y, 150_000, seed=38 + i)
            assert combined_z(e0, e1) <= 3.0
