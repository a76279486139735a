"""Command-line front end: distances, kernel checks, Crofton experiments.

Exit codes: 0 = success / verified, 1 = property check failed,
2 = usage error.  Output is JSON (stable key order) or an aligned table;
`crofton --emit-csv` additionally writes its (d, estimate, stderr) rows.

A process pays for the interpreter with `site`, numpy and the modules its
subcommand imports, but not for the interpreter's teardown: `python -m
hypcrofton.cli` and the `hypcrofton` script enter through `run`, which
ends the process through os._exit.  `main` returns and never exits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys

import numpy as np

from .algebra import FIELD_DIM, FIELDS, MAX_DISTANCE


def _read_distances(path):
    """Load a CSV point file and measure its points: (kind, dim, distance matrix).

    The first data row is `kind,dim`, then one coefficient row per point:
    kind r/c/h -> hyperbolic points over that field ((dim+1) * field-width
    reals per row), p -> projective points, s -> unit sphere vectors
    (dim+1 reals per row).  Lines starting with '#' are comments.  A row of
    another width is rejected here; the rows, stacked as coordinate arrays,
    go to kernels.build_distance_matrix, which takes every row as
    scale-free and rejects the rest, an unknown kind among them.
    """
    from . import kernels

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
    dim = int(rows[0][1])
    k = FIELD_DIM.get(kind, 1)
    width = (dim + 1) * k
    for row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"expected {width} reals per row for kind "
                             f"{kind!r}, dim {dim}; got {len(row)}")
    coords = np.array(rows[1:], dtype=float)  # parses as float() does
    if kind in FIELD_DIM:
        coeffs = np.zeros((len(coords), dim + 1, 4))
        coeffs[..., :k] = coords.reshape(len(coords), dim + 1, k)
        coords = coeffs
    return kind, dim, kernels.build_distance_matrix(kind, coords)


def _read_matrix(path):
    from . import kernels

    D = np.loadtxt(path, delimiter=",", comments="#")
    return kernels.validate_distance_matrix(np.atleast_2d(D))


def _emit(report, args):
    if args.output == "table":
        _print_table(report)
    else:
        # JSON has no inf or nan: each is written as null, and a note says where
        missing = []
        written = _finite(report, "", missing)
        if missing:
            written["note"] = ("not finite, written as null: "
                               + ", ".join(missing))
        # json.dump writes token by token, a system call each when stdout
        # is unbuffered; join them in batches, never the whole report
        tokens = json.JSONEncoder(indent=2, default=_jsonify,
                                  allow_nan=False).iterencode(written)
        while batch := "".join(itertools.islice(tokens, 4096)):
            sys.stdout.write(batch)
        print()
    if getattr(args, "emit_csv", None):  # only crofton has estimate rows
        with open(args.emit_csv, "w", encoding="utf-8") as fh:
            fh.write("d,estimate,stderr\n")
            for r in report["results"]:
                fh.write(f"{r['d']},{r['estimate']},{r['stderr']}\n")


def _finite(obj, path, missing):
    """obj with None for each float that is not finite; appends the path of
    each, such as results[0].q, to `missing`."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _finite(value, f"{path}.{key}" if path else key, missing)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        try:
            if math.isfinite(sum(obj)):  # a list of finite numbers, in one call
                return obj
        except (TypeError, OverflowError):
            pass
        return [_finite(value, f"{path}[{i}]", missing)
                for i, value in enumerate(obj)]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        missing.append(path)
        return None
    return obj


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
    if not 0.0 <= value <= MAX_DISTANCE:  # false for nan and inf too
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
        if not 0.0 < d < math.inf:  # false for nan too
            raise argparse.ArgumentTypeError(
                f"distances must be finite and > 0, got {item.strip()}")
    return text


# -- subcommands ----------------------------------------------------------------

# Each command imports the modules it runs, so a process loads only those:
# the Crofton commands never load kernels or configurations, the others
# never load crofton.  Call through the module (crofton.f(...)) so that a
# rebinding of the module attribute applies.

def cmd_dist(args):
    kind, dim, D = _read_distances(args.points)
    report = _base_report(args, [{"kind": kind, "dim": dim,
                                  "matrix": D.tolist()}], "ok")
    _emit(report, args)
    return 0


def _load_matrix_arg(args):
    if args.matrix:
        return _read_matrix(args.matrix)
    if args.points:
        return _read_distances(args.points)[2]
    raise ValueError("provide --points or --matrix")


def cmd_check_negtype(args):
    from . import kernels

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
    from . import kernels

    D = _load_matrix_arg(args)
    violations = kernels.hypermetric_scan(D, bound=args.bound)
    results = [{"t": t.tolist(), "q": q} for t, q in violations[:50]]
    verdict = "hypermetric within bound" if not violations else \
        f"{len(violations)} violations"
    _emit(_base_report(args, results, verdict), args)
    return 0


def cmd_embed(args):
    from . import kernels

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
    from . import crofton

    carrier = crofton.CARRIERS[args.carrier]
    pairs = [float(v) for v in args.pairs.split(",")]
    low, name = carrier.low, carrier.high_name
    for d in pairs:
        if d > carrier.high:
            raise ValueError(f"distance {d:g} is beyond {name}, {carrier.why}: "
                             f"{args.carrier} pairs take distances in (0, {name}]")
        if d < low:
            raise ValueError(
                f"distance {d:g} is below {low:g}, where the {args.carrier} "
                f"estimator takes a pair as coincident: {args.carrier} pairs "
                f"take distances in [{low:g}, {name}]")
    if args.field not in carrier.fields:  # only hyperplanes restrict it, to R
        raise ValueError(f"{args.carrier} Crofton estimates require the real field")
    # one call for all pairs, so they share the seed's draws
    estimates = carrier.estimate(args.field, args.dim, pairs, args.samples,
                                 args.seed, args.workers)
    results = [e._asdict() for e in estimates]
    c = carrier.constant(FIELD_DIM[args.field], args.dim)
    finite = all(abs(r[key]) < math.inf for r in results  # false for nan
                 for key in ("estimate", "stderr", "ratio"))
    # every ratio is held to the closed form; the slack forgives estimates
    # that are exact up to rounding
    consistent = finite and all(
        abs(r["ratio"] - c)
        <= 3.0 * r["stderr"] / r["d"] + 1e-12 * max(abs(r["ratio"]), c)
        for r in results)
    verdict = ("ratios consistent" if consistent else "ratios inconsistent") \
        if finite else "non-finite estimate"
    if any(r["note"].startswith("underpowered") for r in results):
        verdict = f"underpowered: {verdict}"
    _emit(_base_report(args, results, verdict), args)
    return 0 if consistent else 1


def cmd_reproduce(args):
    from . import configurations, kernels

    if args.case == "projective":
        D = kernels.build_distance_matrix(
            "p", configurations.projective_six_points())
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
    else:
        D = kernels.build_distance_matrix(
            "h", configurations.quaternionic_cluster_points())
        within, cross = configurations.cluster_sums(D)
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
    from . import configurations, kernels

    if args.seed < 0:  # random.Random would take its absolute value
        raise ValueError(f"expected non-negative integer seed, got {args.seed}")
    seed_points = None
    if args.structured_seed:
        if (args.field, args.dim) != ("h", 2):
            raise ValueError("--structured-seed requires --field h --dim 2")
        seed_points = configurations.quaternionic_cluster_points()
    best = kernels.violation_search(args.field, args.dim, args.m, args.trials,
                                    args.radius, random.Random(args.seed),
                                    seed_points=seed_points)
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
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dist", help="pairwise distance matrix from a CSV point file")
    p.add_argument("--points", required=True)
    common(p, seeded=False)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("check-negtype", help="spectral negative-type check")
    p.add_argument("--points")
    p.add_argument("--matrix")
    # kernels.REL_TOL, spelled out so that parsing loads no kernels
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
    # crofton.CARRIERS's keys, spelled out so that parsing loads no estimator
    p.add_argument("carrier",
                   choices=("hyperplane", "horosphere", "projective", "sphere"))
    p.add_argument("--field", choices=FIELDS, default="r")
    p.add_argument("--dim", type=_int_at_least(1), default=2)
    p.add_argument("--pairs", type=_distances, default="0.5,1.0,2.0",
                   help="comma-separated geodesic distances from the base point")
    p.add_argument("--samples", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="worker processes, at most the CPUs available; the "
                        "output does not depend on it")
    p.add_argument("--emit-csv", dest="emit_csv", default=None,
                   help="write (d, estimate, stderr) rows to PATH")
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
    p.add_argument("--dim", type=_int_at_least(1), default=2)
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


def run(argv=None):
    """Run main(argv), flush stdout and stderr, and end the process with
    main's code through os._exit.

    That skips the interpreter's teardown, its last garbage collections and
    module teardown over numpy's heap.  Nothing it would do is lost: the
    chunk pool reaps every child before it returns, --emit-csv closes its
    file, and the package registers no atexit handler.  An exception from
    main leaves the normal way.  So does a failed flush (a closed pipe): run
    then returns main's code, and sys.exit reports the pipe as it would
    without run.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the interpreter's fd was closed
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
