"""References computed inside the benchmark, and the checks of CLI outputs.

The distance matrices used as references come from this file's own numpy
quaternion arithmetic, not from hypcrofton, so a defect in the package's
geometry layer shows as a disagreement.  Each check returns a list of
`Check` records; `kind` says how a miss is counted (see `Check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Q_RTOL = 1e-8       # relative agreement of q with the reference matrix
SUM_ZERO_ATOL = 1e-9
PAPER_ATOL = 0.02   # the paper prints the cluster sums to two decimals
PAPER_WITHIN = 417.03
PAPER_CROSS = 415.77
HYPERPLANE_SIGMAS = 4.0
FIELD_DIM = {"r": 1, "c": 2, "h": 4}


@dataclass(frozen=True)
class Check:
    """One checked property of one command output.

    kind "value": the output disagrees with a reference (a wrong answer or a
    crashed command); a miss makes the run's `correct` false.
    kind "operation": the command answered but its answer carries no
    information (an estimate of 0 with stderr 0, that is, no hit at all);
    a miss counts as failed but does not make the run incorrect.
    """

    name: str
    ok: bool
    kind: str = "value"
    detail: str = ""


# -- own quaternion form -------------------------------------------------------

def qmul(a, b):
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def form(x, y):
    """<x, y> = -conj(x0) y0 + sum_k conj(xk) yk over the last two axes."""
    xc = x * np.array([1.0, -1.0, -1.0, -1.0])
    prod = qmul(xc, y)
    return prod[..., 1:, :].sum(axis=-2) - prod[..., 0, :]


def normalize(points):
    """Scale (m, n+1, 4) negative vectors to <x, x> = -1."""
    q = form(points, points)[..., 0]
    return points / np.sqrt(-q)[:, None, None]


def distance_matrix(points):
    """Pairwise hyperbolic distances arccosh |<x, y>| of normalized points."""
    inner = form(points[:, None], points[None, :])
    D = np.arccosh(np.maximum(np.linalg.norm(inner, axis=-1), 1.0))
    np.fill_diagonal(D, 0.0)
    return D


def cluster_points():
    """The 24 points of H^2_H: (3, 2s + 2e, 0) and (3, 0, 2s + 2e)."""
    xs, ys = [], []
    for s in (1.0, -1.0):
        for axis in (1, 2, 3):
            for sign in (1.0, -1.0):
                middle = np.zeros(4)
                middle[0] = 2.0 * s
                middle[axis] = 2.0 * sign
                x = np.zeros((3, 4))
                x[0, 0] = 3.0
                y = x.copy()
                x[1] = middle
                y[2] = middle
                xs.append(x)
                ys.append(y)
    return normalize(np.array(xs + ys))


def ball_points(rng, count, n, k, radius):
    """`count` points of H^n_F, F of real dimension k, at distance <= radius."""
    v = rng.standard_normal((count, n * k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = rng.uniform(0.0, radius, count)
    pts = np.zeros((count, n + 1, 4))
    pts[:, 0, 0] = np.cosh(s)
    pts[:, 1:, :k] = (np.sinh(s)[:, None] * v).reshape(count, n, k)
    return pts


def search_trial_points(seed, trial, m, n, k, radius):
    """The points `search-violations --seed seed` draws for one trial.

    Replays the CLI's generator calls: per point one (n, k) normal draw for
    the direction, redrawn while its norm is below 1e-12, then one uniform
    radius.
    """
    rng = np.random.default_rng(seed)
    for t in range(trial + 1):
        pts = np.zeros((m, n + 1, 4))
        for i in range(m):
            v = rng.standard_normal((n, k))
            while np.sqrt(np.sum(v ** 2)) < 1e-12:
                v = rng.standard_normal((n, k))
            v /= np.sqrt(np.sum(v ** 2))
            s = rng.uniform(0.0, radius)
            pts[i, 0, 0] = np.cosh(s)
            pts[i, 1:, :k] = v * np.sinh(s)
    return normalize(pts)


def write_point_file(path, points, field, n):
    k = FIELD_DIM[field]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{field},{n}\n")
        for p in points:
            fh.write(",".join(repr(float(v)) for v in p[:, :k].ravel()) + "\n")


def sphere_area(m):
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# -- checks --------------------------------------------------------------------

def option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _witness_checks(prefix, t, q, D):
    t = np.asarray(t, dtype=float)
    q_ref = float(t @ D @ t)
    return [
        Check(f"{prefix}.sum_zero", abs(t.sum()) <= SUM_ZERO_ATOL * math.sqrt(t.size),
              detail=f"sum t = {t.sum():.3g}"),
        Check(f"{prefix}.q_positive", q > 0.0, detail=f"q = {q}"),
        Check(f"{prefix}.q_reference", abs(q - q_ref) <= Q_RTOL * max(abs(q_ref), 1.0),
              detail=f"q = {q}, reference {q_ref}"),
    ]


def _estimator_checks(report, ratio_constant=None):
    checks = []
    for r in report["results"]:
        label = f"crofton.d={r['d']:.3g}"
        empty = r["estimate"] == 0.0 and r["stderr"] == 0.0
        checks.append(Check(f"{label}.nonzero", not empty, kind="operation",
                            detail="estimate 0 +- 0 (no hit)"))
        if ratio_constant is not None and not empty:
            sigma = r["stderr"] / r["d"]
            checks.append(Check(
                f"{label}.ratio",
                abs(r["ratio"] - ratio_constant) <= HYPERPLANE_SIGMAS * sigma,
                detail=f"ratio {r['ratio']} +- {sigma:.3g}, "
                       f"reference {ratio_constant}"))
    return checks


def check_output(argv, report, inputs):
    """Checks of one command's JSON report against the benchmark's references.

    `inputs` maps the point-file path of a `--points` argument to the
    points written there.
    """
    command = argv[0]
    if command == "crofton":
        if argv[1] == "hyperplane":
            n = int(option(argv, "--dim"))
            return _estimator_checks(report, sphere_area(n - 2) / (n - 1))
        return _estimator_checks(report)
    if command == "search-violations":
        result = report["results"][0]
        if result["t"] is None:
            return [Check("search.found", False, detail="no witness reported")]
        if result["trial"] < 0:
            points = cluster_points()
        else:
            points = search_trial_points(
                int(option(argv, "--seed")), result["trial"],
                int(option(argv, "--m")), int(option(argv, "--dim", 2)),
                FIELD_DIM[option(argv, "--field", "h")],
                float(option(argv, "--radius", 2.0)))
        return [Check("search.verified", result["verified"] is True)] + \
            _witness_checks("search", result["t"], result["best_q"],
                            distance_matrix(points))
    if command == "check-negtype":
        result = report["results"][0]
        D = distance_matrix(inputs[option(argv, "--points")])
        if result["negative_type"]:
            m = D.shape[0]
            P = np.eye(m) - 1.0 / m
            top = np.linalg.eigvalsh(P @ D @ P)[-1]
            return [Check("negtype.no_witness", top <= 1e-9 * np.abs(D).max(),
                          detail=f"reference top eigenvalue {top}")]
        return _witness_checks("negtype", result["witness_t"], result["q"], D)
    if command == "reproduce" and argv[1] == "addendum":
        result = report["results"][0]
        D = distance_matrix(cluster_points())
        iu = np.triu_indices(12, k=1)
        within = D[:12, :12][iu].sum() + D[12:, 12:][iu].sum()
        cross = 144.0 * math.acosh(9.0)
        w, c = result["within_cluster_sum"], result["cross_cluster_sum"]
        return [
            Check("addendum.within", abs(w - within) <= 1e-9 * within
                  and abs(w - PAPER_WITHIN) <= PAPER_ATOL, detail=f"{w} vs {within}"),
            Check("addendum.cross", abs(c - cross) <= 1e-9 * cross
                  and abs(c - PAPER_CROSS) <= PAPER_ATOL, detail=f"{c} vs {cross}"),
            Check("addendum.violation", w > c),
        ]
    if command == "reproduce" and argv[1] == "projective":
        q = report["results"][0]["q_split"]
        return [Check("projective.q_split", abs(q - math.pi / 3) <= 1e-12,
                      detail=f"{q} vs pi/3")]
    raise ValueError(f"no checks for {argv}")

