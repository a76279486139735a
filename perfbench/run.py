"""Benchmark of the hypcrofton command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hyperplane --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload is a fixed sequence of CLI commands, run as separate
processes with tracing off, pinned to as many CPUs as the commands have
workers.  The sequence repeats until `--seconds` have been measured, each
repetition after a few `--help` runs that time the set-up; timings are
medians over the repetitions.  Every distinct output is checked once
against references the benchmark computes itself (checks.py).

Timings are in reference seconds: each command's wall time times
PROBE_REF_S over the mean time of a fixed probe loop timed on the same
CPUs while the command ran (spawn.py).  The host's CPUs change speed by up
to 1.7x for minutes at a time, which the probe follows, so a run taken in
a slow spell reads about the same as one taken in a fast spell.  The raw
wall-time medians are in the report.

With `--trace 1` the same commands then run once more, in this process,
with spans around hypcrofton's public functions (tracing.py), which gives
the per-layer metrics and the tracing overhead.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, every metric with its unit and the checks
that missed.  Workload names, metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Set before numpy loads: the estimators' --workers pool is the only
# parallelism measured, in this process and in the CLI processes it starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spawn import Spawner, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_REP = 3  # --help runs at the start of each repetition
NEGTYPE_POINTS = 240
NEGTYPE_RADIUS = 2.0
DETERMINISM_SAMPLES = 300_000  # three chunks of the estimators' chunk driver
#: probe loop time (spawn.probe_once) that one reference second is scaled
#: to: the loop's time on an unloaded CPU of a 2-vCPU Firecracker VM
PROBE_REF_S = 0.001

#: BENCHMARK.json holds the workload names and every metric's name and unit
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metric, or the span or module it belongs to -> the end-to-end
#: metric and workloads it should move
MOVES = {
    "algebra.qmul": "wall_s on horosphere and negtype, not hyperplane",
    "algebra.qconj": "wall_s on horosphere and negtype, not hyperplane",
    "algebra.form_coeffs": "wall_s on horosphere and negtype, not hyperplane",
    "spaces.hyperbolic_distance": "wall_s on negtype",
    "spaces.random_point": "wall_s on negtype",
    "spaces.geodesic_between": "wall_s on hyperplane and horosphere",
    "spaces.translation_to_base": "wall_s on horosphere",
    "kernels.build_distance_matrix": "wall_s on negtype",
    "kernels.negative_type_witness": "wall_s on negtype",
    "kernels.violation_search": "wall_s on negtype",
    "configurations.quaternionic_cluster_points": "wall_s on negtype",
    "configurations.cluster_sums": "wall_s on negtype",
    "crofton.estimate": "wall_s and ratio_var_s on hyperplane and horosphere",
    "crofton.cosh_power_antiderivative": "wall_s and ratio_var_s on hyperplane",
    "crofton": "ratio_var_s on hyperplane and horosphere",
    "crofton.ratio_var_s": "estimator figure of merit, wall_s x max (stderr/d)^2, "
                           "on hyperplane and horosphere",
    "cli": "setup_s and wall_s on negtype",
    "trace": "nothing; traced minus untraced wall",
}


def moves(metric):
    """What a per-layer metric should move: its own entry, or its span's."""
    while metric not in MOVES and "." in metric:
        metric = metric.rsplit(".", 1)[0]
    return MOVES[metric]


def commands(workload, seed, point_file):
    if workload == "hyperplane":
        return [["crofton", "hyperplane", "--dim", "3", "--pairs", "0.5,1,2",
                 "--samples", "1000000", "--workers", "1", "--seed", str(seed)]]
    if workload == "horosphere":
        return [["crofton", "horosphere", "--field", "h", "--dim", "2",
                 "--pairs", "0.5,1,2", "--samples", "1000000", "--workers", "2",
                 "--seed", str(seed)]]
    return [["search-violations", "--field", "h", "--dim", "2", "--m", "24",
             "--structured-seed", "--trials", "200", "--seed", str(seed)],
            ["check-negtype", "--points", point_file],
            ["reproduce", "addendum"],
            ["reproduce", "projective"]]


# -- child processes -----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def workload_cpus(argvs):
    """The CPUs a workload runs on: one per worker of its widest command."""
    workers = max(int(checks.option(argv, "--workers", 1)) for argv in argvs)
    return sorted(os.sched_getaffinity(0))[-workers:]


def run_cli(argv, spawner, work, cpus):
    """Run one CLI command on `cpus`.

    Returns the spawn helper's answer plus `ref_s`, the wall time in
    reference seconds, and `stdout`.
    """
    out_path = work / "stdout"
    done = spawner.run([sys.executable, "-m", "hypcrofton.cli", *argv],
                       out_path, work / "stderr", cpus)
    done["ref_s"] = done["wall_s"] * PROBE_REF_S / done["probe_s"]
    done["stdout"] = out_path.read_bytes()
    return done


def parse_report(argv, code, stdout):
    """The command's JSON report, or a failed check when there is none."""
    if code in (0, 1):
        try:
            return json.loads(stdout), None
        except json.JSONDecodeError:
            pass
    return None, checks.Check(f"{argv[0]}.exit", False,
                              detail=f"exit code {code}, no JSON report")


def determinism_check(seed, spawner, work, cpus):
    """A short estimator config must print the same JSON at 1 and 2 workers."""
    argv = ["crofton", "horosphere", "--field", "h", "--dim", "2", "--pairs", "1",
            "--samples", str(DETERMINISM_SAMPLES), "--seed", str(seed)]
    outs = [run_cli(argv + ["--workers", w], spawner, work, cpus)["stdout"]
            for w in ("1", "2")]
    same = outs[0].replace(b'"workers": 1', b'"workers": 2') == outs[1]
    return checks.Check("determinism.workers", same,
                        detail="--workers 1 and 2 print different results")


# -- in-process runs -----------------------------------------------------------

def run_in_process(argvs):
    """Run the commands through cli.main in this process; (wall, reports)."""
    from hypcrofton import cli

    wall, reports = 0.0, []
    for argv in argvs:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        wall += time.perf_counter() - start
        reports.append(json.loads(buf.getvalue()))
    return wall, reports


def crofton_counts(reports, wall_s):
    from hypcrofton.crofton import CHUNK_SIZE

    results = [r for rep in reports if rep["command"] == "crofton"
               for r in rep["results"]]
    samples = sum(r["samples"] for r in results)
    useful = sum(r["samples"] - r["count_histogram"].get("0", 0)
                 if r["count_histogram"] else round(r["mean_count"] * r["samples"])
                 for r in results)
    rel = [r["stderr"] / r["estimate"] for r in results if r["estimate"] > 0]
    return {
        "crofton.samples": samples,
        "crofton.chunks": sum(math.ceil(r["samples"] / CHUNK_SIZE) for r in results),
        "crofton.hit_ratio": useful / samples if samples else 0.0,
        "crofton.rel_stderr_max": max(rel, default=0.0),
        "crofton.boundary_count": sum(r["boundary_count"] for r in results),
        "crofton.ratio_var_s": ratio_var(reports, wall_s),
    }


def ratio_var(reports, wall_s):
    """wall_s x max_i (stderr_i / d_i)^2 over the crofton estimates, or 0."""
    errs = [(r["stderr"] / r["d"]) ** 2 for rep in reports
            if rep["command"] == "crofton" for r in rep["results"]]
    return wall_s * max(errs, default=0.0)


def per_layer(argvs, wall_s, setup_s, cpus):
    """Metrics of one traced in-process run of the commands, by name.

    The run is pinned to the workload's CPUs.  Its wall time is scaled to
    reference seconds by probes taken just before and after it, as a probe
    thread would compete with it for the interpreter lock.  The tracing
    overhead compares it with the untraced median wall_s less one
    interpreter start-up (setup_s) per command, which the in-process run
    does not pay.
    """
    tracer = Tracer()
    allowed = os.sched_getaffinity(0)
    before = probe(cpus)
    os.sched_setaffinity(0, cpus)
    tracer.install()
    try:
        traced, reports = run_in_process(argvs)
    finally:
        tracer.uninstall()
        os.sched_setaffinity(0, allowed)
    traced *= PROBE_REF_S / ((before + probe(cpus)) / 2)
    metrics = dict(tracer.counters)
    for span in tracer.calls:
        metrics[f"{span}.calls"] = tracer.calls[span]
        metrics[f"{span}.self_s"] = tracer.self_s[span]
    metrics.update(crofton_counts(reports, wall_s))
    metrics["cli.self_s"] = sum(v for k, v in tracer.self_s.items()
                                if k.startswith("cli."))
    metrics["trace.overhead_s"] = traced - (wall_s - len(argvs) * setup_s)
    return metrics, traced


# -- one workload --------------------------------------------------------------

def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, work, spawner):
    point_file, inputs = str(work / "points.csv"), {}
    if workload == "negtype":
        points = checks.ball_points(np.random.default_rng([seed, 1]),
                                    NEGTYPE_POINTS, 2, 4, NEGTYPE_RADIUS)
        checks.write_point_file(point_file, points, "h", 2)
        inputs[point_file] = checks.normalize(points)
    argvs = commands(workload, seed, point_file)
    cpus = workload_cpus(argvs)
    run_cli(["--help"], spawner, work, cpus)  # compiles bytecode in a fresh checkout

    walls, setups, rss, raw_walls, raw_setups = [], [], [], [], []
    results, reports, seen = [], [], set()
    start, rep_s = time.perf_counter(), 0.0
    # start another repetition only if it should end within `seconds`
    while not walls or time.perf_counter() - start + rep_s <= seconds:
        rep_start = time.perf_counter()
        for _ in range(SETUP_PER_REP):
            done = run_cli(["--help"], spawner, work, cpus)
            setups.append(done["ref_s"])
            raw_setups.append(done["wall_s"])
        wall, raw_wall, peak = 0.0, 0.0, 0.0
        for argv in argvs:
            done = run_cli(argv, spawner, work, cpus)
            wall += done["ref_s"]
            raw_wall += done["wall_s"]
            peak = max(peak, done["maxrss_kb"] / 1024.0)
            code, stdout = done["code"], done["stdout"]
            # check each distinct output once, so the counts do not grow
            # with the number of repetitions that fit in `seconds`
            if (tuple(argv), code, stdout) in seen:
                continue
            seen.add((tuple(argv), code, stdout))
            report, crash = parse_report(argv, code, stdout)
            if crash:
                results.append(crash)
                continue
            reports.append(report)
            results.extend(checks.check_output(argv, report, inputs))
        walls.append(wall)
        raw_walls.append(raw_wall)
        rss.append(peak)
        rep_s = time.perf_counter() - rep_start
    setup_s, wall_s = statistics.median(setups), statistics.median(walls)
    if workload == "horosphere":
        results.append(determinism_check(seed, spawner, work, cpus))

    missed = [c for c in results if not c.ok]
    values = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": statistics.median(rss)}
    report = {
        "workload": workload,
        "environment": environment(seed),
        "commands": argvs,
        "cpus": cpus,
        "repetitions": len(walls),
        "wall_s_each": walls,
        "setup_s_each": setups,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(raw_setups),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in SPEC["end_to_end"]},
        "fail_rate": len(missed) / len(results),
        "missed_checks": sorted({f"{c.name}: {c.detail}" for c in missed}),
    }
    if workload != "negtype":
        report["ratio_var_s"] = ratio_var(reports, wall_s)
    result_metrics = report["metrics"]
    if trace:
        layer, report["traced_wall_s"] = per_layer(argvs, wall_s, setup_s, cpus)
        result_metrics = {m["name"]: {"value": layer.get(m["name"], 0),
                                      "unit": m["unit"]}
                          for m in SPEC["per_layer"]}
        report["per_layer"] = {name: {**metric, "moves": moves(name)}
                               for name, metric in result_metrics.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not any(c.kind == "value" for c in missed),
        "attempted": len(results),
        "failed": len(missed),
        "metrics": result_metrics,
    }), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypcrofton" / "cli.py").is_file():
        print(f"error: no hypcrofton sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with Spawner(child_env(), ROOT) as spawner:
            for workload in workloads:
                run_workload(workload, args.seed, args.seconds, args.trace, work,
                             spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
