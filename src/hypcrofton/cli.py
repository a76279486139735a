"""Command-line front end: distances, kernel checks, Crofton experiments.

Exit codes: 0 = success / verified, 1 = property check failed,
2 = usage error.  Output is JSON (stable key order) or an aligned table;
`--emit-csv` additionally writes (d, estimate, stderr) rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import configurations, crofton, kernels, spaces
from .algebra import FIELD_DIM, FIELDS, REAL, HermitianSpace, Quaternion

POINT_KINDS = ("r", "c", "h", "p", "s")

#: largest hyperbolic distance the CLI takes: the search radius of
#: search-violations, whose points past about 16.46 lose <y, y> = -1 in the
#: rounding of cosh(d)^2, and the hyperplane and horosphere --pairs, whose
#: estimators work with e^{+-2d}
MAX_DISTANCE = 16.0

#: per carrier, the largest --pairs distance, its name and the reason; past
#: the diameters of S^n and P^n_R a pair would be measured at 2 pi - d or
#: pi - d
PAIR_LIMITS = {
    **dict.fromkeys(("hyperplane", "horosphere"), (
        MAX_DISTANCE, f"{MAX_DISTANCE:g}", "the largest supported in H^n")),
    "sphere": (math.pi, "pi", "the diameter of S^n"),
    "projective": (0.5 * math.pi, "pi/2", "the diameter of P^n_R"),
}


def _read_points(path):
    """Load points from CSV: first data row is `kind,dim`, then coefficient rows.

    kind r/c/h -> hyperbolic points over that field ((dim+1) * field-width
    reals per row), p -> projective points, s -> unit sphere vectors
    (dim+1 reals per row).  Lines starting with '#' are comments.  A row of
    another width is rejected.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split(","))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if len(rows[0]) < 2:
        raise ValueError(f"first data row of {path} must be `kind,dim`, "
                         f"got {','.join(rows[0])!r}")
    if len(rows) == 1:
        raise ValueError(f"no point rows in {path}")
    kind = rows[0][0].strip().lower()
    if kind not in POINT_KINDS:
        raise ValueError(f"unknown point kind {kind!r}; expected one of {POINT_KINDS}")
    dim = int(rows[0][1])
    k = FIELD_DIM.get(kind, 1)
    points = []
    for row in rows[1:]:
        vals = np.array([float(v) for v in row])
        if vals.shape[0] != (dim + 1) * k:
            raise ValueError(f"expected {(dim + 1) * k} reals per row for kind "
                             f"{kind!r}, dim {dim}; got {vals.shape[0]}")
        if kind in FIELDS:
            coeffs = np.zeros((dim + 1, 4))
            coeffs[:, :k] = vals.reshape(dim + 1, k)
            points.append(spaces.HPoint(HermitianSpace(kind, dim), coeffs))
        elif kind == "p":
            points.append(spaces.PPoint(vals))
        else:
            points.append(vals / np.linalg.norm(vals))
    return kind, dim, points


def _read_matrix(path):
    D = np.loadtxt(path, delimiter=",", comments="#")
    return kernels.validate_distance_matrix(np.atleast_2d(D))


def _emit(report, args):
    if getattr(args, "output", "json") == "table":
        _print_table(report)
    else:
        json.dump(report, sys.stdout, indent=2, default=_jsonify)
        print()
    path = getattr(args, "emit_csv", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("d,estimate,stderr\n")
            for r in report.get("results", []):
                if isinstance(r, dict) and "estimate" in r:
                    fh.write(f"{r.get('d', '')},{r['estimate']},{r['stderr']}\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _print_table(report, indent=0):
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_table(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _print_table(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {val}")


def _base_report(args, results, verdict):
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and v is not None}
    return {"command": args.command, "config": config,
            "seed": getattr(args, "seed", None),
            "results": results, "verdict": verdict}


def _int_at_least(low):
    """argparse type: an integer >= low."""
    def check(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return check


def _radius(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and 0.0 <= value <= MAX_DISTANCE):
        raise argparse.ArgumentTypeError(
            f"must be finite and in [0, {MAX_DISTANCE:g}], got {text}")
    return value


def _distances(text):
    """Check a comma-separated list of distances; return the text unchanged,
    which the report's config echoes."""
    for item in text.split(","):
        try:
            d = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
        if not (math.isfinite(d) and d > 0):
            raise argparse.ArgumentTypeError(
                f"distances must be finite and > 0, got {item.strip()}")
    return text


def _crofton_constant(carrier, field, n):
    """The ratio estimate / d that the carrier's Crofton formula predicts."""
    if carrier == "hyperplane":
        return crofton.sphere_area(n - 2) / (n - 1) if n > 1 else 1.0
    if carrier == "horosphere":
        # 2 vol(B^m) = vol(S^{m+1}) / pi, m = k n - 1
        return crofton.sphere_area(FIELD_DIM[field] * n) / math.pi
    return 1.0 / math.pi


# -- subcommands ----------------------------------------------------------------

def cmd_dist(args):
    kind, dim, points = _read_points(args.points)
    D = kernels.build_distance_matrix(points)
    report = _base_report(args, [{"kind": kind, "dim": dim,
                                  "matrix": D.tolist()}], "ok")
    _emit(report, args)
    return 0


def _load_matrix_arg(args):
    if args.matrix:
        return _read_matrix(args.matrix)
    if args.points:
        _, _, points = _read_points(args.points)
        return kernels.build_distance_matrix(points)
    raise ValueError("provide --points or --matrix")


def cmd_check_negtype(args):
    D = _load_matrix_arg(args)
    witness = kernels.negative_type_witness(D, tol=args.tolerance)
    if witness is None:
        result = {"negative_type": True}
        verdict = "negative type"
    else:
        t, q = witness
        result = {"negative_type": False, "witness_t": t.tolist(), "q": q}
        verdict = "violation found"
    _emit(_base_report(args, [result], verdict), args)
    return 0


def cmd_scan_hypermetric(args):
    D = _load_matrix_arg(args)
    violations = kernels.hypermetric_scan(D, bound=args.bound)
    results = [{"t": t.tolist(), "q": q} for t, q in violations[:50]]
    verdict = "hypermetric within bound" if not violations else \
        f"{len(violations)} violations"
    _emit(_base_report(args, results, verdict), args)
    return 0


def cmd_embed(args):
    D = _load_matrix_arg(args)
    emb = kernels.sqrt_embed(D)
    result = {
        "rank": emb.rank,
        "radius": emb.radius,
        "center": emb.center.tolist(),
        "max_distance_residual": emb.max_distance_residual,
        "max_radius_residual": emb.max_radius_residual,
        "coords": emb.coords.tolist(),
        "rank_at_least_log2_m": emb.rank >= math.ceil(math.log2(D.shape[0]))
        if D.shape[0] > 1 else True,
    }
    _emit(_base_report(args, [result], "embedded"), args)
    return 0


def cmd_crofton(args):
    pairs = [float(v) for v in args.pairs.split(",")]
    limit, name, why = PAIR_LIMITS[args.carrier]
    for d in pairs:
        if d > limit:
            raise ValueError(f"distance {d:g} is beyond {name}, {why}: "
                             f"{args.carrier} pairs take distances in (0, {name}]")
    # one estimator call for all pairs, so they share the seed's draws; the
    # hyperbolic estimators take d itself, as an estimate depends on a pair
    # only through its distance
    if args.carrier == "hyperplane":
        if args.field != REAL:
            raise ValueError("hyperplane Crofton estimates require the real field")
        estimates = crofton.hyperplane_crofton_many(
            args.dim, pairs, args.samples, seed=args.seed, workers=args.workers)
    elif args.carrier == "horosphere":
        estimates = crofton.horosphere_crofton_many(
            args.field, args.dim, pairs, args.samples, seed=args.seed,
            workers=args.workers)
    else:
        x = np.array([1.0] + [0.0] * args.dim)
        ys = [np.array([math.cos(d), math.sin(d)] + [0.0] * (args.dim - 1))
              for d in pairs]
        if args.carrier == "projective":
            estimates = crofton.projective_crofton_many(
                spaces.PPoint(x), [spaces.PPoint(y) for y in ys], args.samples,
                seed=args.seed, workers=args.workers)
        else:
            estimates = crofton.sphere_halfspace_crofton_many(
                x, ys, args.samples, seed=args.seed, workers=args.workers)
    results = [dataclasses.asdict(e) for e in estimates]
    ratios = [r["ratio"] for r in results]
    ratio_errs = [r["stderr"] / r["d"] for r in results]
    finite = all(math.isfinite(r[key]) for r in results
                 for key in ("estimate", "stderr", "ratio"))
    if len(results) == 1:
        # nothing to compare with but the closed form, exact
        ratios.append(_crofton_constant(args.carrier, args.field, args.dim))
        ratio_errs.append(0.0)
    # the slack covers estimates that are exact up to rounding (R^1 carriers)
    slack = 1e-12 * max(abs(r) for r in ratios)
    consistent = finite and all(
        abs(ratios[i] - ratios[j])
        <= 3.0 * math.hypot(ratio_errs[i], ratio_errs[j]) + slack
        for i in range(len(ratios)) for j in range(i + 1, len(ratios)))
    if not finite:
        verdict = "non-finite estimate"
    else:
        verdict = "ratios consistent" if consistent else "ratios inconsistent"
    _emit(_base_report(args, results, verdict), args)
    return 0 if consistent else 1


def cmd_reproduce(args):
    if args.case == "projective":
        points = configurations.projective_six_points()
        D = kernels.build_distance_matrix(points)
        q = kernels.quadratic_form(D, configurations.SPLIT_COEFFICIENTS)
        ok = abs(q - math.pi / 3) <= 1e-12
        witness = kernels.negative_type_witness(D)
        ok = ok and witness is not None
        results = [{
            "distance_matrix_over_pi": (D / math.pi).tolist(),
            "q_split": q,
            "q_expected": math.pi / 3,
            "witness_q": None if witness is None else witness[1],
        }]
        verdict = "violation confirmed" if ok else "reproduction FAILED"
    else:
        points = configurations.quaternionic_cluster_points()
        within, cross = configurations.cluster_sums(points)
        D = kernels.build_distance_matrix(points)
        witness = kernels.negative_type_witness(D)
        ok = (abs(within - 417.03) <= 0.02 and abs(cross - 415.77) <= 0.02
              and within > cross and witness is not None)
        results = [{
            "within_cluster_sum": within,
            "cross_cluster_sum": cross,
            "difference": within - cross,
            "witness_q": None if witness is None else witness[1],
        }]
        verdict = "violation confirmed" if ok else "reproduction FAILED"
    _emit(_base_report(args, results, verdict), args)
    return 0 if ok else 1


def cmd_search_violations(args):
    space = HermitianSpace(args.field, args.dim)
    rng = np.random.default_rng(args.seed)
    seed_points = None
    if args.structured_seed:
        if (args.field, args.dim) != ("h", 2):
            raise ValueError("--structured-seed requires --field h --dim 2")
        seed_points = configurations.quaternionic_cluster_points()
    best = kernels.violation_search(space, args.m, args.trials, args.radius,
                                    rng, seed_points=seed_points)
    found = best.t is not None and best.q > 0 and best.verified
    results = [{
        "best_q": None if best.q == -math.inf else best.q,
        "trial": best.trial,
        "verified": best.verified,
        "t": None if best.t is None else best.t.tolist(),
    }]
    verdict = "violation found" if found else "no violation found"
    _emit(_base_report(args, results, verdict), args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypcrofton",
        description="Distance kernels, Crofton Monte Carlo experiments and "
                    "negative-type analysis on hyperbolic, projective and "
                    "spherical spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--output", choices=("json", "table"), default="json")
        p.add_argument("--emit-csv", dest="emit_csv", default=None,
                       help="write (d, estimate, stderr) rows to PATH")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dist", help="pairwise distance matrix from a CSV point file")
    p.add_argument("--points", required=True)
    common(p, seeded=False)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("check-negtype", help="spectral negative-type check")
    p.add_argument("--points")
    p.add_argument("--matrix")
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p, seeded=False)
    p.set_defaults(func=cmd_check_negtype)

    p = sub.add_parser("scan-hypermetric", help="bounded integer hypermetric scan")
    p.add_argument("--points")
    p.add_argument("--matrix")
    p.add_argument("--bound", type=_int_at_least(1), default=2)
    common(p, seeded=False)
    p.set_defaults(func=cmd_scan_hypermetric)

    p = sub.add_parser("embed", help="sqrt-distance spherical embedding report")
    p.add_argument("--points")
    p.add_argument("--matrix")
    common(p, seeded=False)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("crofton", help="Monte Carlo Crofton estimates")
    p.add_argument("carrier",
                   choices=("hyperplane", "horosphere", "projective", "sphere"))
    p.add_argument("--field", choices=FIELDS, default="r")
    p.add_argument("--dim", type=_int_at_least(1), default=2)
    p.add_argument("--pairs", type=_distances, default="0.5,1.0,2.0",
                   help="comma-separated geodesic distances from the base point")
    p.add_argument("--samples", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    common(p)
    p.set_defaults(func=cmd_crofton)

    p = sub.add_parser("reproduce",
                       help="reproduce a known negative-type counterexample")
    p.add_argument("case", choices=("addendum", "projective"))
    common(p, seeded=False)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("search-violations",
                       help="randomized search for negative-type violations")
    p.add_argument("--field", choices=FIELDS, default="h")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--m", type=_int_at_least(3), default=6)
    p.add_argument("--trials", type=_int_at_least(0), default=1000)
    p.add_argument("--radius", type=_radius, default=2.0)
    p.add_argument("--structured-seed", action="store_true",
                   help="seed the search with the 24-point quaternionic family")
    common(p)
    p.set_defaults(func=cmd_search_violations)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
