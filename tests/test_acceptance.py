"""Acceptance suite: one pass/fail line per top-level correctness criterion.

Each test prints a single "[PASS] criterion k: ..." line (visible with
pytest -s or in captured output on failure) and then asserts the same
condition, so a failing criterion is both reported and red.
"""

import math
import time

import numpy as np
import pytest

from hypcrofton import crofton
from hypcrofton.algebra import COMPLEX, QUATERNION, REAL, HermitianSpace
from hypcrofton.configurations import (
    SPLIT_COEFFICIENTS,
    cluster_sums,
    projective_six_points,
    quaternionic_cluster_points,
)
from hypcrofton.crofton import (
    estimate_horosphere_crofton,
    estimate_m,
    halfspace_side,
    hyperplane_meets_segment,
    projective_crofton_estimate,
    sphere_halfspace_crofton,
)
from hypcrofton.kernels import (
    build_distance_matrix,
    hypermetric_scan,
    negative_type_witness,
    quadratic_form,
    sqrt_embed,
    violation_search,
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


def report(number, description, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def axis_point(space, d):
    c = np.zeros((space.dim, 4))
    c[0, 0] = math.cosh(d)
    c[1, 0] = math.sinh(d)
    return HPoint(space, c)


def ratios_pairwise_consistent(estimates):
    ratios = [e.ratio for e in estimates]
    errs = [e.stderr / e.d for e in estimates]
    return all(
        abs(ratios[i] - ratios[j]) <= 3.0 * math.hypot(errs[i], errs[j])
        for i in range(len(ratios)) for j in range(i + 1, len(ratios)))


def test_criterion_1_quaternionic_cluster_reproduction():
    start = time.perf_counter()
    points = quaternionic_cluster_points()
    within, cross = cluster_sums(points)
    witness = negative_type_witness(build_distance_matrix(points))
    elapsed = time.perf_counter() - start
    ok = (abs(within - 417.03) <= 0.02
          and abs(cross - 415.77) <= 0.02
          and within - cross > 0
          and witness is not None and witness[1] > 0
          and elapsed < 1.0)
    report(1, "24-point quaternionic sums 417.03/415.77, positive witness, "
              f"< 1 s (took {elapsed:.2f} s)", ok)


def test_criterion_2_projective_six_point_reproduction():
    D = build_distance_matrix(projective_six_points())
    expected = np.pi * np.array([
        [0, 1/2, 1/2, 1/3, 1/3, 1/4],
        [1/2, 0, 1/2, 1/3, 1/3, 1/4],
        [1/2, 1/2, 0, 1/4, 1/4, 1/2],
        [1/3, 1/3, 1/4, 0, 1/2, 1/2],
        [1/3, 1/3, 1/4, 1/2, 0, 1/2],
        [1/4, 1/4, 1/2, 1/2, 1/2, 0],
    ])
    q = quadratic_form(D, SPLIT_COEFFICIENTS)
    ok = (np.abs(D - expected).max() <= 1e-12
          and abs(q - np.pi / 3) <= 1e-12)
    report(2, "projective 15-pair table is the pi/2-pi/3-pi/4 pattern and "
              "Q(1,1,1,-1,-1,-1) = pi/3, both to 1e-12", ok)


def test_criterion_3_negative_type_holds_real_and_complex():
    rng = np.random.default_rng(101)
    failures = 0
    for field in (REAL, COMPLEX):
        for n in (2, 3):
            space = HermitianSpace(field, n)
            for _ in range(200):
                pts = [random_point(space, 3.0, rng) for _ in range(10)]
                D = build_distance_matrix(pts)
                if negative_type_witness(D, tol=1e-9) is not None:
                    failures += 1
    ok = failures == 0
    report(3, "800 random 10-point configurations over R and C (n = 2, 3) "
              f"all of negative type ({failures} failures)", ok)


def test_criterion_4_hypermetric_scan_empty_on_real_hyperbolic():
    rng = np.random.default_rng(102)
    violations = 0
    for i in range(50):
        space = HermitianSpace(REAL, 2 + i % 2)
        pts = [random_point(space, 3.0, rng) for _ in range(6)]
        violations += len(hypermetric_scan(build_distance_matrix(pts), bound=3))
    ok = violations == 0
    report(4, "50 random 6-point real hyperbolic configurations, bound 3: "
              f"{violations} hypermetric violations", ok)


def test_criterion_5_hyperplane_measure_linear_in_distance():
    ok = True
    details = []
    for n in (2, 3, 5):
        space = HermitianSpace(REAL, n)
        ests = [estimate_m(base_point(space), axis_point(space, d),
                           1_000_000, seed=103 + n)
                for d in (0.5, 1.0, 2.0)]
        consistent = ratios_pairwise_consistent(ests)
        ok = ok and consistent
        details.append(f"n={n}: ratios {[round(e.ratio, 4) for e in ests]}")
    report(5, "hyperplane measure proportional to d in H2_R, H3_R and H5_R "
              f"({'; '.join(details)})", ok)


def test_criterion_6_halfspace_sign_matches_segment_crossing():
    space = HermitianSpace(REAL, 2)
    rng = np.random.default_rng(104)
    x = random_point(space, 1.5, rng)
    y = random_point(space, 1.5, rng)
    seg = geodesic_between(x, y)
    x0 = base_point(space)
    R = max(hyperbolic_distance(x0, x), hyperbolic_distance(x0, y)) + 0.5
    u = crofton._sample_hyperplane_normals(2, R, 100_000, rng)

    xr = seg.base[:, 0].copy()
    yr = seg.endpoint_coords()[:, 0].copy()
    if xr[0] < 0:
        xr = -xr
    if yr[0] < 0:
        yr = -yr
    fa = -xr[0] * u[:, 0] + u[:, 1:] @ xr[1:]
    fb = -yr[0] * u[:, 0] + u[:, 1:] @ yr[1:]
    tol = crofton.BOUNDARY_TOL * np.linalg.norm(u, axis=1) \
        * max(np.linalg.norm(xr), np.linalg.norm(yr))
    boundary = (np.abs(fa) <= tol) | (np.abs(fb) <= tol)
    crossing = (fa * fb < 0) & ~boundary
    sign_differ = (np.sign(fa) != np.sign(fb)) & ~boundary
    disagreements = int(np.sum(crossing != sign_differ))
    boundary_count = int(np.sum(boundary))

    # spot-check the scalar predicates on a slice of the same samples
    spot = 0
    for ui in u[:1000]:
        if halfspace_side(ui, x) == 0 or halfspace_side(ui, y) == 0:
            continue
        differ = halfspace_side(ui, x) != halfspace_side(ui, y)
        if differ != hyperplane_meets_segment(crofton.Hyperplane(ui), seg):
            spot += 1
    ok = disagreements == 0 and boundary_count < 10 and spot == 0
    report(6, "100000 shared hyperplane samples: segment-crossing and "
              f"half-space-sign predicates agree ({disagreements} "
              f"disagreements, {boundary_count} boundary cases)", ok)


def test_criterion_7_horosphere_measure_linear_in_distance():
    ok = True
    details = []
    for field, label in ((REAL, "H2_R"), (COMPLEX, "H2_C"), (QUATERNION, "H2_H")):
        space = HermitianSpace(field, 2)
        ests = [estimate_horosphere_crofton(
            base_point(space), axis_point(space, d), 1_000_000, seed=105)
            for d in (0.5, 1.0, 2.0)]
        consistent = ratios_pairwise_consistent(ests)
        doubles = all(e.count_histogram.get(2, 0) > 0 for e in ests)
        ok = ok and consistent and doubles
        details.append(f"{label}: ratios {[round(e.ratio, 3) for e in ests]}")
    report(7, "horosphere measure proportional to d with double crossings "
              f"observed ({'; '.join(details)})", ok)


def test_criterion_8_projective_and_sphere_hit_fractions():
    rng = np.random.default_rng(106)
    ok = True
    for i in range(5):
        x = PPoint(rng.standard_normal(3))
        y = PPoint(rng.standard_normal(3))
        est = projective_crofton_estimate(x, y, 1_000_000, seed=107 + i)
        ok = ok and abs(est.estimate - est.d / math.pi) <= 3 * est.stderr
    for i in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        est = sphere_halfspace_crofton(x, y, 1_000_000, seed=112 + i)
        ok = ok and abs(est.estimate - est.d / math.pi) <= 3 * est.stderr
    report(8, "hit fraction equals d/pi within 3 stderr for 5 random pairs "
              "each on P2_R and S2", ok)


def test_criterion_9_isometry_invariance_of_estimators():
    samples = 200_000
    failures = []

    space = HermitianSpace(REAL, 2)
    rng = np.random.default_rng(120)
    x = random_point(space, 1.5, rng)
    y = random_point(space, 1.5, rng)
    e0 = estimate_m(x, y, samples, seed=121)
    for i in range(10):
        g = random_isometry(space, rng)
        e1 = estimate_m(g @ x, g @ y, samples, seed=122 + i)
        if abs(e1.estimate - e0.estimate) > 3 * math.hypot(e0.stderr, e1.stderr):
            failures.append("hyperplane")

    cspace = HermitianSpace(COMPLEX, 2)
    crng = np.random.default_rng(130)
    cx = random_point(cspace, 1.5, crng)
    cy = random_point(cspace, 1.5, crng)
    e0 = estimate_horosphere_crofton(cx, cy, samples, seed=131)
    for i in range(10):
        g = random_isometry(cspace, crng)
        e1 = estimate_horosphere_crofton(g @ cx, g @ cy, samples, seed=132 + i)
        if abs(e1.estimate - e0.estimate) > 3 * math.hypot(e0.stderr, e1.stderr):
            failures.append("horosphere")

    orng = np.random.default_rng(140)
    px = PPoint(orng.standard_normal(3))
    py = PPoint(orng.standard_normal(3))
    sx = orng.standard_normal(3)
    sy = orng.standard_normal(3)
    ep0 = projective_crofton_estimate(px, py, samples, seed=141)
    es0 = sphere_halfspace_crofton(sx, sy, samples, seed=142)
    for i in range(10):
        Q, _ = np.linalg.qr(orng.standard_normal((3, 3)))
        ep1 = projective_crofton_estimate(PPoint(Q @ px.coords),
                                          PPoint(Q @ py.coords),
                                          samples, seed=143 + i)
        es1 = sphere_halfspace_crofton(Q @ sx, Q @ sy, samples, seed=153 + i)
        if abs(ep1.estimate - ep0.estimate) > \
                3 * math.hypot(ep0.stderr, ep1.stderr):
            failures.append("projective")
        if abs(es1.estimate - es0.estimate) > \
                3 * math.hypot(es0.stderr, es1.stderr):
            failures.append("sphere")

    ok = not failures
    report(9, "all four estimators invariant under 10 random isometries "
              f"within 3 combined stderr (failures: {failures or 'none'})", ok)


def test_criterion_10_sqrt_distance_spherical_embedding():
    space = HermitianSpace(REAL, 3)
    rng = np.random.default_rng(160)
    pts = [random_point(space, 2.5, rng) for _ in range(8)]
    D = build_distance_matrix(pts)
    emb = sqrt_embed(D)
    ok = (emb.max_distance_residual <= 1e-9
          and emb.max_radius_residual < 1e-8 * emb.radius
          and emb.rank >= 3)
    report(10, "8 random points of H3_R: sqrt(d) embeds in a euclidean "
               f"sphere (distance residual {emb.max_distance_residual:.1e}, "
               f"radius residual {emb.max_radius_residual:.1e}, "
               f"rank {emb.rank})", ok)


def test_criterion_11_violation_search_soundness():
    # every reported positive Q must re-verify; the structured 24-point
    # quaternionic seed must yield a confirmed violation
    results = []
    results.append(violation_search("p2", m=6, trials=1000, radius=0.0,
                                    rng=np.random.default_rng(0)))
    results.append(violation_search(
        HermitianSpace(QUATERNION, 2), m=24, trials=5, radius=2.0,
        rng=np.random.default_rng(161),
        seed_points=quaternionic_cluster_points()))
    results.append(violation_search(HermitianSpace(REAL, 2), m=6, trials=100,
                                    radius=2.5, rng=np.random.default_rng(162)))
    sound = all(r.verified for r in results if r.t is not None and r.q > 0)
    structured = results[1].q > 0 and results[1].verified
    ok = sound and structured
    report(11, "every positive Q from violation_search re-verifies and the "
               "structured quaternionic family yields a confirmed violation",
           ok)
