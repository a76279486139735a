import argparse
import dataclasses
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypcrofton
from hypcrofton import cli, crofton, kernels
from hypcrofton.algebra import FIELD_DIM
from hypcrofton.cli import main

#: point files named in argv by test_invalid_argument_exits_2
BAD_POINT_FILES = {
    "no-dim.csv": "h\n1,0,0,0,0,0,0,0\n",
    "no-rows.csv": "# a header and nothing else\nh,2\n",
    "p-short-rows.csv": "p,5\n1,0\n0,1\n1,1\n",
    "s-long-rows.csv": "s,1\n1,0,0\n0,1,0\n",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_projective_csv(path):
    rows = ["p,2",
            "1,0,1", "1,0,-1", "0,1,0", "0,1,1", "0,1,-1", "1,0,0"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def write_real_hyperbolic_csv(path):
    rows = ["# three points of the real hyperbolic plane",
            "r,2",
            "1,0,0",
            f"{math.cosh(1)},{math.sinh(1)},0",
            f"{math.cosh(0.5)},0,{math.sinh(0.5)}"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def write_close_far_csv(path):
    rows = ["r,2", *(f"{math.cosh(10)},{math.sinh(10)},{1e-6 * i}"
                     for i in range(6))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def write_scaled_projective_matrix(path, k):
    """The projective six points' distance matrix times 2^k, as a --matrix
    file that reads back exactly."""
    D = kernels.build_distance_matrix("p", hypcrofton.projective_six_points())
    np.savetxt(path, np.ldexp(D, k), delimiter=",", fmt="%.17g")
    return str(path)


def write_random_real_csv(path, m):
    """m random points of H^2_R within radius 2, as an r,2 point file."""
    coords = hypcrofton.random_coords("r", 2, 2.0, random.Random(1), m)[..., 0]
    rows = ["r,2", *(",".join(map(repr, row)) for row in coords.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestReproduce:
    def test_projective_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "projective")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "violation confirmed"
        result = report["results"][0]
        assert result["q_split"] == pytest.approx(math.pi / 3, abs=1e-12)
        D = np.array(result["distance_matrix_over_pi"])
        assert set(np.round(D[D > 0], 12)) <= {
            round(1 / 2, 12), round(1 / 3, 12), round(1 / 4, 12)}

    def test_addendum_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "addendum")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "violation confirmed"
        result = report["results"][0]
        assert result["within_cluster_sum"] == pytest.approx(417.03, abs=0.02)
        assert result["cross_cluster_sum"] == pytest.approx(415.77, abs=0.02)
        assert result["difference"] > 0

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "addendum",
                               "--output", "table")
        assert code == 0
        assert "verdict: violation confirmed" in out


class TestDist:
    def test_projective_matrix(self, capsys, tmp_path):
        path = write_projective_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "dist", "--points", path)
        assert code == 0
        report = json.loads(out)
        D = np.array(report["results"][0]["matrix"])
        assert D.shape == (6, 6)
        assert D[0, 5] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_hyperbolic_matrix(self, capsys, tmp_path):
        path = write_real_hyperbolic_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "dist", "--points", path)
        assert code == 0
        D = np.array(json.loads(out)["results"][0]["matrix"])
        assert D[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert D[0, 2] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", ["r", "c", "h", "p", "s"])
    def test_stacked_read_matches_points_one_by_one(self, capsys, tmp_path, kind):
        # the matrix dist prints is, bit for bit, the one
        # build_distance_matrix gives for the same rows as coordinate arrays
        rng = np.random.default_rng(len(kind) + ord(kind))
        n, m = 3, 9
        k = FIELD_DIM.get(kind, 1)
        rows = rng.standard_normal((m, (n + 1) * k))
        if kind in FIELD_DIM:
            rows[:, 0] = 3.0 + np.sum(rows[:, 1:] ** 2, axis=1)  # negative
        path = tmp_path / "pts.csv"
        path.write_text(f"{kind},{n}\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows),
            encoding="utf-8")
        coords = rows
        if kind in FIELD_DIM:
            coords = np.zeros((m, n + 1, 4))
            coords[..., :k] = rows.reshape(m, n + 1, k)
        code, out, err = run_cli(capsys, "dist", "--points", str(path))
        assert (code, err) == (0, "")
        result = json.loads(out)["results"][0]
        assert (result["kind"], result["dim"]) == (kind, n)
        want = kernels.build_distance_matrix(kind, coords)
        assert np.array_equal(np.array(result["matrix"]), want)

    @pytest.mark.parametrize("text,message", [
        ("r,1\n1,0\n0,1\n", "not a negative vector of the form"),
        ("p,2\n1,0,0\n0,0,0\n", "zero vector does not define a projective point"),
        ("p,0\n1\n2\n", "expected a real vector of length >= 2"),
        ("h,0\n1,0,0,0\n", "dimension must be at least 1"),
        # printed a NaN matrix with exit 0
        ("s,1\n1,0\n0,0\n", "zero vector does not define a sphere point"),
        ("p,1\nnan,0\n0,1\n", "point coordinates must be finite"),
        # exited 2 only after numpy RuntimeWarnings
        ("r,1\ninf,0\n1,0\n", "point coordinates must be finite"),
        # a null vector at any scale; its form overflowed at this one
        ("r,1\n1e200,1e200\n1,0\n", "not a negative vector of the form"),
    ], ids=["not-negative", "projective-zero", "projective-dim-0", "dim-0",
            "sphere-zero", "projective-nan", "hyperbolic-inf", "hyperbolic-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_bad_point_rows_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "dist", "--points", str(path))
        assert (code, out) == (2, "")
        assert err.strip() == f"error: {message}"

    @pytest.mark.parametrize("kind", ["p", "s"])
    @pytest.mark.parametrize("row", ["1e308,1e308", "1e-320,1e-320"],
                             ids=["huge", "subnormal"])
    @pytest.mark.filterwarnings("error")
    def test_rows_are_scale_free(self, capsys, tmp_path, kind, row):
        # p and s rows are scaled by a power of two to a largest entry in
        # [0.5, 1) before the norm: the norm of the huge row overflowed (p
        # printed pi/2 and s NaN, with exit 0), and that of the subnormal row
        # underflowed to 0 (exit 2, a "zero vector")
        path = tmp_path / "scaled.csv"
        path.write_text(f"{kind},1\n{row}\n0,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "dist", "--points", str(path))
        assert (code, err) == (0, "")
        D = json.loads(out)["results"][0]["matrix"]
        assert D[0][1] == pytest.approx(math.pi / 4, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_huge_quaternionic_row_is_measured(self, capsys, tmp_path):
        # a point of H^1_H at distance 1 from the base point, scaled by 1e200:
        # its form overflowed (exit 2, "point coordinates overflow")
        row = 1e200 * np.array([math.cosh(1), 0, 0, 0, 0, 0, 0, math.sinh(1)])
        path = tmp_path / "huge.csv"
        path.write_text("h,1\n" + ",".join(map(repr, row.tolist()))
                        + "\n1,0,0,0,0,0,0,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "dist", "--points", str(path))
        assert (code, err) == (0, "")
        D = json.loads(out)["results"][0]["matrix"]
        assert D[0][1] == pytest.approx(1.0, rel=1e-15)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "dist", "--points",
                               str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err

    def test_bad_kind_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,2\n1,0,0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "dist", "--points", str(path))
        assert code == 2
        assert "unknown point kind" in err

    @pytest.mark.parametrize("command", ["dist", "check-negtype", "embed"])
    def test_close_points_far_out_exit_2(self, capsys, tmp_path, command):
        # six points 1e-6 apart at distance 10 from the base point: rounding
        # in <x, y> reads |<x, y>| < 1 there, a usage error, not a traceback
        path = write_close_far_csv(tmp_path / "far.csv")
        code, out, err = run_cli(capsys, command, "--points", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "cannot be resolved" in err

    def test_large_report_is_json_dump_text(self, capsys, tmp_path):
        # about 60,000 tokens, written in batches: the text is json.dump's
        path = write_random_real_csv(tmp_path / "points240.csv", 240)
        code, out, _ = run_cli(capsys, "dist", "--points", path)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


#: per point kind, (dim, rows) of three points at distances of order 1;
#: the r rows are those of write_real_hyperbolic_csv
SCALE_FREE_POINTS = {
    "r": (2, [[1, 0, 0], [math.cosh(1), math.sinh(1), 0],
              [math.cosh(0.5), 0, math.sinh(0.5)]]),
    "c": (2, [[1, 0, 0, 0, 0, 0],
              [0.6 * math.cosh(1), 0.8 * math.cosh(1), 0, math.sinh(1), 0, 0],
              [math.cosh(0.7), 0, 0, 0, 0.8 * math.sinh(0.7), 0.6 * math.sinh(0.7)]]),
    "h": (1, [[1, 0, 0, 0, 0, 0, 0, 0],
              [math.cosh(1), 0, 0, 0, 0, 0.6 * math.sinh(1), 0, 0.8 * math.sinh(1)],
              [0.6 * math.cosh(0.5), 0, 0.8 * math.cosh(0.5), 0,
               math.sinh(0.5), 0, 0, 0]]),
    "p": (2, [[1, 1, 0], [1, -1, 0.5], [0.3, 0, 1]]),
    "s": (2, [[1, 1, 0], [-1, 0.2, 0.5], [0.3, 0, -1]]),
}


class TestScaleFreeRows:
    """Every point row is scale-free, through the Python API and through a
    point file: one normalization per kind, in spaces."""

    @staticmethod
    def api_distances(kind, dim, rows):
        """The distance matrix of build_distance_matrix, from the rows as
        coordinate arrays, and the distance of the first pair alone."""
        coords = rows
        if kind in FIELD_DIM:
            k = FIELD_DIM[kind]
            coords = np.zeros((len(rows), dim + 1, 4))
            coords[..., :k] = np.reshape(rows, (len(rows), dim + 1, k))
        pair = kernels.build_distance_matrix(kind, coords[:2])[0, 1]
        return kernels.build_distance_matrix(kind, coords), pair

    @staticmethod
    def cli_distances(capsys, path, kind, dim, rows):
        """(exit code, stderr, matrix) of `dist` on the rows written to path."""
        path.write_text(f"{kind},{dim}\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows.tolist()),
            encoding="utf-8")
        code, out, err = run_cli(capsys, "dist", "--points", str(path))
        D = np.array(json.loads(out)["results"][0]["matrix"]) if code == 0 else None
        return code, err, D

    @pytest.mark.parametrize("kind", list(SCALE_FREE_POINTS))
    @pytest.mark.filterwarnings("error")
    def test_rows_are_scale_free(self, capsys, tmp_path, kind):
        # a power-of-two scale changes no bit of any distance, a decimal one
        # (inexact) no more than rounding; every form and norm of these rows
        # overflowed or underflowed before the prescale
        dim, rows = SCALE_FREE_POINTS[kind]
        rows = np.array(rows, dtype=float)
        path = tmp_path / "points.csv"
        want_D, want_pair = self.api_distances(kind, dim, rows)
        code, err, want_cli = self.cli_distances(capsys, path, kind, dim, rows)
        assert (code, err) == (0, "")
        for scale, rel in [(2.0 ** 600, 0.0), (2.0 ** -600, 0.0),
                           (1e200, 1e-15), (1e-200, 1e-15)]:
            D, pair = self.api_distances(kind, dim, scale * rows)
            code, err, cli_D = self.cli_distances(capsys, path, kind, dim,
                                                  scale * rows)
            assert (code, err) == (0, "")
            assert abs(pair - want_pair) <= rel * want_pair
            assert np.all(np.abs(D - want_D) <= rel * want_D)
            assert np.all(np.abs(cli_D - want_cli) <= rel * want_cli)

    @pytest.mark.parametrize("kind", list(SCALE_FREE_POINTS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0],
                             ids=["nan", "inf", "zero"])
    @pytest.mark.filterwarnings("error")
    def test_bad_row_raises_the_cli_message(self, capsys, tmp_path, kind, bad):
        dim, rows = SCALE_FREE_POINTS[kind]
        rows = np.array(rows, dtype=float)
        if bad == 0.0:
            rows[1] = 0.0
            message = {"p": "zero vector does not define a projective point",
                       "s": "zero vector does not define a sphere point"
                       }.get(kind, "not a negative vector of the form")
        else:
            rows[1, 0] = bad
            message = "point coordinates must be finite"
        code, err, _ = self.cli_distances(capsys, tmp_path / "bad.csv", kind,
                                          dim, rows)
        assert (code, err.strip()) == (2, f"error: {message}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.api_distances(kind, dim, rows)


class TestCheckNegtype:
    def test_projective_points_violate(self, capsys, tmp_path):
        path = write_projective_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "check-negtype", "--points", path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "violation found"
        assert report["results"][0]["q"] >= math.pi / 3 - 1e-9

    def test_matrix_input_negative_type(self, capsys, tmp_path):
        pts = np.random.default_rng(0).standard_normal((5, 2))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1) ** 2
        path = tmp_path / "D.csv"
        np.savetxt(path, D, delimiter=",")
        code, out, _ = run_cli(capsys, "check-negtype", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "negative type"

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_invalid_tolerance_exits_2(self, capsys, tmp_path, tolerance):
        # three points of H^1_R, a metric of negative type: -1 and nan printed
        # "violation found" with q = 0, and inf "negative type" for any input
        rows = ["r,1"] + [f"{math.cosh(s)},{math.sinh(s)}" for s in (0.0, 1.0, 2.5)]
        path = tmp_path / "pts.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check-negtype", "--points", str(path),
                                 "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert "tolerance must be finite and >= 0" in err

    @pytest.mark.parametrize("k", [-40, 1022, 1023])
    def test_scaled_projective_matrix_violates(self, capsys, tmp_path, k):
        # 2^1022 exited 2 when eigh did not converge, and 2^1023 read
        # "negative type" from a Gram form overflowed to inf
        path = write_scaled_projective_matrix(tmp_path / "D.csv", k)
        code, out, _ = run_cli(capsys, "check-negtype", "--matrix", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "violation found"

    def test_no_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check-negtype")
        assert code == 2
        assert "provide --points or --matrix" in err

    def test_default_tolerance_is_rel_tol(self):
        # the parser spells the default out, so that parsing loads no kernels
        args = cli.build_parser().parse_args(["check-negtype"])
        assert args.tolerance == kernels.REL_TOL


class TestMatrixFile:
    @pytest.mark.parametrize("command", ["check-negtype", "scan-hypermetric",
                                         "embed"])
    @pytest.mark.filterwarnings("error")
    def test_infinite_distance_exits_2(self, capsys, tmp_path, command):
        # scan-hypermetric and embed exited 0, and check-negtype exited 2
        # only through LAPACK, after RuntimeWarnings
        path = tmp_path / "inf.csv"
        path.write_text("0,inf,1\ninf,0,1\n1,1,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err.strip() == "error: distances must be finite"


class TestScanHypermetric:
    def test_projective_violations(self, capsys, tmp_path):
        path = write_projective_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "scan-hypermetric", "--points", path,
                               "--bound", "2")
        assert code == 0
        report = json.loads(out)
        assert "violations" in report["verdict"]
        for r in report["results"]:
            assert sum(r["t"]) == 1
            assert r["q"] > 0

    @pytest.mark.parametrize("k", [-40, 0, 1023])
    def test_scaled_projective_matrix(self, capsys, tmp_path, k):
        # the cut was absolute below max d = 1: 2^-40 read "hypermetric
        # within bound", and 2^1023 gave 18 violations from overflowed forms
        path = write_scaled_projective_matrix(tmp_path / "D.csv", k)
        code, out, _ = run_cli(capsys, "scan-hypermetric", "--matrix", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "32 violations"

    def test_clean_metric(self, capsys, tmp_path):
        path = write_real_hyperbolic_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "scan-hypermetric", "--points", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "hypermetric within bound"

    def test_one_point_matrix(self, capsys, tmp_path):
        # one point has one candidate, t = [1], with Q = 0
        path = tmp_path / "one.csv"
        path.write_text("0\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "scan-hypermetric", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "hypermetric within bound"


class TestEmbed:
    def test_hyperbolic_triangle(self, capsys, tmp_path):
        path = write_real_hyperbolic_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "embed", "--points", path)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["max_distance_residual"] <= 1e-9
        assert result["rank_at_least_log2_m"]

    def test_rejects_violating_metric(self, capsys, tmp_path):
        path = write_projective_csv(tmp_path / "pts.csv")
        code, _, err = run_cli(capsys, "embed", "--points", path)
        assert code == 2
        assert "not of negative type" in err


class TestCrofton:
    def test_sphere_schema_and_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "crofton", "sphere",
                               "--pairs", "0.5,1.0", "--samples", "200000",
                               "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "crofton"
        assert report["seed"] == 5
        assert report["verdict"] == "ratios consistent"
        for r in report["results"]:
            for key in ("d", "estimate", "stderr", "ratio", "samples", "seed"):
                assert key in r
            assert r["estimate"] == pytest.approx(r["d"] / math.pi,
                                                  abs=4 * r["stderr"])

    def test_hyperplane_ratio_near_two(self, capsys):
        code, out, _ = run_cli(capsys, "crofton", "hyperplane",
                               "--dim", "2", "--pairs", "1.0",
                               "--samples", "400000", "--seed", "6")
        assert code == 0
        r = json.loads(out)["results"][0]
        assert r["ratio"] == pytest.approx(2.0, abs=4 * r["stderr"] / r["d"])

    def test_seed_reproducibility(self, capsys):
        args = ("crofton", "projective", "--pairs", "0.7",
                "--samples", "100000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_worker_invariance(self, capsys):
        base = ("crofton", "horosphere", "--field", "c", "--pairs", "1.0",
                "--samples", "300000", "--seed", "8")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out3, _ = run_cli(capsys, *base, "--workers", "3")
        r1 = json.loads(out1)["results"][0]
        r3 = json.loads(out3)["results"][0]
        assert r1["estimate"] == r3["estimate"]
        assert r1["count_histogram"] == r3["count_histogram"]

    @pytest.mark.parametrize("carrier", ["hyperplane", "horosphere", "projective",
                                         "sphere"])
    def test_negative_seed_rejected(self, capsys, carrier):
        # random.Random would take a negative seed as its absolute value
        code, out, err = run_cli(capsys, "crofton", carrier, "--pairs", "0.5",
                                 "--samples", "20000", "--seed", "-1")
        assert code == 2 and out == ""
        assert "expected non-negative integer" in err

    def test_negative_search_seed_rejected(self, capsys):
        # search-violations draws from random.Random too
        code, out, err = run_cli(capsys, "search-violations", "--trials", "3",
                                 "--seed", "-1")
        assert code == 2 and out == ""
        assert "expected non-negative integer" in err

    @pytest.mark.parametrize("carrier,args", [
        ("hyperplane", ("--dim", "3")),
        ("horosphere", ("--field", "h", "--dim", "2")),
        ("projective", ("--dim", "2")),
        ("sphere", ("--dim", "2")),
    ], ids=["hyperplane", "horosphere", "projective", "sphere"])
    def test_every_carrier_worker_invariant(self, capsys, monkeypatch, carrier,
                                            args):
        # the whole report, every estimate, stderr and histogram, is the same
        # at any worker count, apart from the workers option it echoes; three
        # CPUs are visible, so --workers 3 runs three processes on any host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        reports = []
        for workers in ("1", "2", "3"):
            code, out, _ = run_cli(capsys, "crofton", carrier, *args,
                                   "--pairs", "0.5,1.2", "--samples", "100000",
                                   "--seed", "4", "--workers", workers)
            assert code in (0, 1)
            report = json.loads(out)
            assert report["config"].pop("workers") == int(workers)
            reports.append(report)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_dead_worker_is_an_error(self, capsys, monkeypatch):
        # a worker process killed mid-run is exit 2 with an error line that
        # names its signal, not a traceback, and no child remains
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        caller, draw = os.getpid(), crofton._lattice

        def killed(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(*args)

        monkeypatch.setattr(crofton, "_lattice", killed)
        code, out, err = run_cli(capsys, "crofton", "horosphere", "--field", "h",
                                 "--pairs", "1", "--samples", "40000",
                                 "--workers", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "killed by SIGKILL" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_emit_csv(self, capsys, tmp_path):
        out_path = tmp_path / "est.csv"
        code, _, _ = run_cli(capsys, "crofton", "sphere", "--pairs", "0.5,1.5",
                             "--samples", "50000", "--seed", "9",
                             "--emit-csv", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "d,estimate,stderr"
        assert len(lines) == 3
        d, est, stderr = (float(v) for v in lines[1].split(","))
        assert d == pytest.approx(0.5)
        assert stderr > 0

    @pytest.mark.parametrize("argv", [
        ("dist", "--points"),
        ("check-negtype", "--points"),
        ("scan-hypermetric", "--points"),
        ("embed", "--points"),
        ("reproduce", "projective"),
        ("search-violations", "--trials", "0"),
    ], ids=lambda argv: argv[0])
    def test_emit_csv_only_on_crofton(self, capsys, tmp_path, argv):
        # these commands have no estimate rows, and wrote only the header
        if argv[-1] == "--points":
            argv += (write_projective_csv(tmp_path / "p.csv"),)
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--emit-csv", str(out_path))
        assert (code, out, out_path.exists()) == (2, "", False)
        assert "unrecognized arguments: --emit-csv" in err

    @pytest.mark.parametrize("argv,message", [
        (("crofton", "hyperplane", "--pairs", "0,1"),
         "--pairs: distances must be finite"),
        (("crofton", "hyperplane", "--pairs", "-1"),
         "--pairs: distances must be finite"),
        (("crofton", "hyperplane", "--pairs", "1,inf"),
         "--pairs: distances must be finite"),
        (("crofton", "hyperplane", "--samples", "0"), "--samples: must be at least 1"),
        (("crofton", "horosphere", "--workers", "0"), "--workers: must be at least 1"),
        (("crofton", "sphere", "--dim", "0"), "--dim: must be at least 1"),
        # past the domain, math.cosh raised OverflowError (exit 1, traceback)
        (("crofton", "horosphere", "--field", "h", "--pairs", "800"),
         "error: distance 800 is beyond 16"),
        # past the domain, the estimate was NaN and called consistent (exit 0)
        (("crofton", "hyperplane", "--dim", "3", "--pairs", "400"),
         "error: distance 400 is beyond 16"),
        (("crofton", "horosphere", "--pairs", "1,16.5", "--samples", "10"),
         "error: distance 16.5 is beyond 16"),
        (("search-violations", "--trials", "-3"), "--trials: must be at least 0"),
        (("search-violations", "--m", "2"), "--m: must be at least 3"),
        (("search-violations", "--m", "x"), "--m: not an integer"),
        (("search-violations", "--radius", "-1"), "--radius: must be finite and in [0, 16]"),
        (("search-violations", "--radius", "nan"), "--radius: must be finite and in [0, 16]"),
        (("search-violations", "--radius", "17"), "--radius: must be finite and in [0, 16]"),
        # H^0 has no points to draw; the search rejected it with its own message
        (("search-violations", "--dim", "0"), "--dim: must be at least 1"),
        # the scan had no vectors to try and printed "hypermetric within bound"
        (("scan-hypermetric", "--bound", "-1"), "--bound: must be at least 1"),
        (("scan-hypermetric", "--bound", "0"), "--bound: must be at least 1"),
        # these exited 1 through an IndexError traceback
        (("dist", "--points", "no-dim.csv"), "must be `kind,dim`, got 'h'"),
        (("dist", "--points", "no-rows.csv"), "error: no point rows in"),
        (("check-negtype", "--points", "no-rows.csv"), "error: no point rows in"),
        (("embed", "--points", "no-rows.csv"), "error: no point rows in"),
        (("scan-hypermetric", "--points", "no-rows.csv"), "error: no point rows in"),
        # these printed distances of another dimension than the header's
        (("dist", "--points", "p-short-rows.csv"),
         "error: expected 6 reals per row for kind 'p', dim 5; got 2"),
        (("dist", "--points", "s-long-rows.csv"),
         "error: expected 2 reals per row for kind 's', dim 1; got 3"),
        # math.gamma raised OverflowError (exit 1, traceback); vol(S^799)
        # underflows to 0, and vol(S^437) / 2 is subnormal
        (("crofton", "horosphere", "--field", "h", "--dim", "200"),
         "error: the carrier measure 0 is not a positive normal float"),
        (("crofton", "hyperplane", "--dim", "438"),
         "error: the carrier measure 1.58e-308 is not a positive normal float"),
        # printed estimate 5.04e-322 with stderr 0.0 and exit 1
        (("crofton", "hyperplane", "--dim", "437", "--pairs", "1e-13",
          "--samples", "100000", "--seed", "3"),
         "error: the estimate at d = 1e-13 underflows"),
        # measured 2 pi - 4 and pi - 2 under the echoed 4 and 2
        (("crofton", "sphere", "--pairs", "1,4"),
         "error: distance 4 is beyond pi, the diameter of S^n: sphere pairs "
         "take distances in (0, pi]"),
        (("crofton", "projective", "--pairs", "2"),
         "error: distance 2 is beyond pi/2, the diameter of P^n_R: projective "
         "pairs take distances in (0, pi/2]"),
        # exited 1 through a ZeroDivisionError traceback (stderr / d at d = 0)
        (("crofton", "sphere", "--pairs", "0.5,1e-13"),
         "error: distance 1e-13 is below 1e-12, where the sphere estimator takes "
         "a pair as coincident: sphere pairs take distances in [1e-12, pi]"),
        (("crofton", "projective", "--pairs", "1e-13"),
         "error: distance 1e-13 is below 1e-12, where the projective estimator "
         "takes a pair as coincident: projective pairs take distances in "
         "[1e-12, pi/2]"),
    ], ids=["pairs-zero", "pairs-negative", "pairs-inf", "samples-zero",
            "workers-zero", "dim-zero", "horosphere-beyond-domain",
            "hyperplane-beyond-domain", "pair-beyond-domain", "trials-negative",
            "m-below-3", "m-not-integer", "radius-negative", "radius-nan",
            "radius-beyond-domain", "search-dim-zero", "bound-negative", "bound-zero",
            "points-no-dim", "points-no-rows-dist", "points-no-rows-check-negtype",
            "points-no-rows-embed", "points-no-rows-scan-hypermetric",
            "points-p-wrong-width", "points-s-wrong-width",
            "horosphere-dim-beyond-measure", "hyperplane-dim-beyond-measure",
            "hyperplane-estimate-underflow", "sphere-beyond-diameter",
            "projective-beyond-diameter", "sphere-below-coincidence",
            "projective-below-coincidence"])
    def test_invalid_argument_exits_2(self, capsys, tmp_path, argv, message):
        for name, text in BAD_POINT_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [str(tmp_path / a) if a in BAD_POINT_FILES else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert message in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ("sphere", "--pairs", "3.141592653589793"),
        ("projective", "--pairs", "1.5707963267948966"),
    ], ids=["sphere", "projective"])
    def test_diameter_supported(self, capsys, argv):
        code, out, _ = run_cli(capsys, "crofton", *argv, "--samples", "1000")
        assert code in (0, 1)
        assert json.loads(out)["results"][0]["note"] != ""

    @pytest.mark.parametrize("argv,pairs", [
        (("hyperplane", "--dim", "3"), "0.5,1e-13,12"),
        (("horosphere", "--field", "h", "--dim", "2"), "2,0.5,1"),
        (("horosphere", "--field", "r", "--dim", "1"), "0.3,1.5"),
        (("projective", "--dim", "2"), "0.5,1.5707963267948966,1"),
        (("sphere", "--dim", "3"), "3.141592653589793,0.5,2"),
    ], ids=["hyperplane", "horosphere-H2", "horosphere-R1", "projective",
            "sphere"])
    def test_pairs_match_single_runs(self, capsys, argv, pairs):
        # the pairs of one run share the seed's draws, and each pair's
        # result is the one a run of that pair alone prints
        common = ("--samples", "300000", "--seed", "12", "--workers", "2")
        _, out, _ = run_cli(capsys, "crofton", *argv, "--pairs", pairs, *common)
        results = json.loads(out)["results"]
        assert len(results) == len(pairs.split(","))
        for d, result in zip(pairs.split(","), results):
            _, out, _ = run_cli(capsys, "crofton", *argv, "--pairs", d, *common)
            assert json.loads(out)["results"] == [result]

    def test_largest_supported_distance(self, capsys):
        code, out, _ = run_cli(capsys, "crofton", "hyperplane", "--dim", "3",
                               "--pairs", "16", "--samples", "1000", "--seed", "1")
        assert code in (0, 1)
        assert math.isfinite(json.loads(out)["results"][0]["ratio"])

    @pytest.mark.parametrize("argv", [
        ("hyperplane", "--dim", "3", "--pairs", "1e-13"),
        ("horosphere", "--field", "c", "--dim", "2", "--pairs", "1e-13"),
        ("hyperplane", "--dim", "3", "--pairs", "12"),
    ], ids=["hyperplane-tiny", "horosphere-tiny", "hyperplane-far"])
    def test_distance_passed_exactly(self, capsys, argv):
        # the estimators take the parsed d: built as axis points and measured
        # back, 1e-13 read 0 (exit 1 through a ZeroDivisionError traceback)
        # and 12 read 11.999999046
        code, out, _ = run_cli(capsys, "crofton", *argv, "--samples", "100000",
                               "--seed", "3")
        assert (code, json.loads(out)["verdict"]) == (0, "ratios consistent")
        assert json.loads(out)["results"][0]["d"] == float(argv[-1])

    @pytest.mark.parametrize("carrier", ["sphere", "projective"])
    @pytest.mark.parametrize("d", ["1e-12", "1e-9", "1e-7", "0.006"])
    def test_short_arc_measured_exactly(self, capsys, carrier, d):
        # the estimators take the parsed d; built as points of S^n and
        # measured back, arccos(x . y) read the sphere's 1e-9 as 0 (exit 1
        # through a ZeroDivisionError traceback) and 1e-7 as 9.996e-8, and
        # the arctan2 form still read 0.006 as 0.005999999999999999
        code, out, _ = run_cli(capsys, "crofton", carrier, "--dim", "2",
                               "--pairs", d, "--samples", "1000", "--seed", "1")
        assert code in (0, 1)
        assert json.loads(out)["results"][0]["d"] == float(d)

    @pytest.mark.parametrize("argv", [
        ("hyperplane", "--dim", "5", "--pairs", "12", "--seed", "5"),
        ("horosphere", "--field", "h", "--dim", "2", "--pairs", "12", "--seed", "5"),
        ("horosphere", "--field", "r", "--dim", "300", "--pairs", "0.5",
         "--samples", "400000", "--seed", "3"),
    ], ids=["hyperplane-H5", "horosphere-H2", "horosphere-R300"])
    def test_long_segments_and_high_dimension(self, capsys, argv):
        # on i.i.d. directions these read 3.57 +- 0.29 against 4.935, 4.28 +-
        # 1.50 against 9.4495 and 8.23e-188 +- 2.2e-189 against 9.05e-188,
        # all "ratios inconsistent" (exit 1)
        code, out, err = run_cli(capsys, "crofton", *argv)
        assert (code, json.loads(out)["verdict"], err) == (0, "ratios consistent", "")

    def test_value_past_float_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "crofton", "horosphere", "--field", "r",
                                 "--dim", "300", "--pairs", "16", "--samples", "1000")
        assert (code, out) == (2, "")
        assert "past e^600" in err and "Traceback" not in err

    def test_short_arc_has_a_stderr(self, capsys):
        # no grid point of a chunk falls on an arc of 1e-9: the estimate is
        # 0, with the stderr of the two-valued chunk fractions, not 0 +- 0
        code, out, _ = run_cli(capsys, "crofton", "projective", "--dim", "2",
                               "--pairs", "1e-9", "--samples", "100000", "--seed", "1")
        result = json.loads(out)["results"][0]
        assert (code, result["estimate"]) == (0, 0.0)
        assert result["stderr"] == 0.5 / (6250 * 4)

    def test_large_dimension(self, capsys):
        # vol(S^399) = 1.4e-273 is a normal float; math.gamma(200) overflowed
        # (exit 1, traceback)
        code, out, err = run_cli(capsys, "crofton", "hyperplane", "--dim", "400",
                                 "--samples", "20000", "--seed", "1")
        assert (code, json.loads(out)["verdict"], err) == (0, "ratios consistent", "")

    def test_non_finite_estimate_is_not_consistent(self, capsys, monkeypatch):
        real = crofton.hyperplane_crofton_many

        def nan_estimate(*args, **kwargs):
            return [dataclasses.replace(e, estimate=math.nan, ratio=math.nan)
                    for e in real(*args, **kwargs)]

        monkeypatch.setattr(crofton, "hyperplane_crofton_many", nan_estimate)
        code, out, _ = run_cli(capsys, "crofton", "hyperplane", "--pairs", "1",
                               "--samples", "1000")
        assert code == 1
        assert json.loads(out)["verdict"] == "non-finite estimate"

    @pytest.mark.parametrize("argv", [
        ("hyperplane", "--dim", "1"),
        ("hyperplane", "--dim", "3"),
        ("horosphere", "--field", "r", "--dim", "1"),
        ("horosphere", "--field", "r", "--dim", "3"),
        ("horosphere", "--field", "r", "--dim", "4"),
        ("horosphere", "--field", "c", "--dim", "1"),
        ("horosphere", "--field", "c", "--dim", "3"),
        ("horosphere", "--field", "h", "--dim", "1"),
        ("projective", "--dim", "2"),
        ("sphere", "--dim", "3"),
        ("hyperplane", "--dim", "3", "--pairs", "0.5,1,2"),
        ("horosphere", "--field", "r", "--dim", "1", "--pairs", "1e-13,0.3,1.5"),
        ("horosphere", "--field", "c", "--dim", "2", "--pairs", "0.5,1"),
        ("projective", "--dim", "2", "--pairs", "0.5,1"),
        ("sphere", "--dim", "3", "--pairs", "0.5,2"),
    ], ids=["hyperplane-R1", "hyperplane-R3", "horosphere-R1", "horosphere-R3",
            "horosphere-R4", "horosphere-C1", "horosphere-C3", "horosphere-H1",
            "projective", "sphere", "hyperplane-R3-pairs", "horosphere-R1-pairs",
            "horosphere-C2-pairs", "projective-pairs", "sphere-pairs"])
    def test_lone_pair_against_constant(self, capsys, monkeypatch, argv):
        # every ratio, a lone pair's as each of many pairs', is held to the
        # carrier's closed-form constant: a lone pair used to be consistent
        # whatever its ratio, and many pairs were only compared with each
        # other, so a shift of all of them passed.  Each moved estimate sits
        # 4 sigma (plus the slack) from the constant, wherever the draw put
        # the estimate itself
        pairs = () if "--pairs" in argv else ("--pairs", "1.3")
        args = ("crofton", *argv, *pairs, "--samples", "100000", "--seed", "11")
        code, out, _ = run_cli(capsys, *args)
        assert (code, json.loads(out)["verdict"]) == (0, "ratios consistent")
        carrier = crofton.CARRIERS[argv[0]]
        field = argv[argv.index("--field") + 1] if "--field" in argv else "r"
        constant = carrier.constant(FIELD_DIM[field],
                                    int(argv[argv.index("--dim") + 1]))

        def move(est):
            moved = constant * est.d + 4.0 * est.stderr + 1e-11 * est.estimate
            return dataclasses.replace(est, estimate=moved, ratio=moved / est.d)

        def shifted(*a, **kw):
            return [move(est) for est in carrier.estimate(*a, **kw)]

        monkeypatch.setitem(crofton.CARRIERS, argv[0],
                            dataclasses.replace(carrier, estimate=shifted))
        code, out, _ = run_cli(capsys, *args)
        assert (code, json.loads(out)["verdict"]) == (1, "ratios inconsistent")

    def test_hyperplane_constant_is_sphere_volume_ratio(self):
        # vol(S^(n-2)) / (n-1) = 2 pi^((n-1)/2) / ((n-1) Gamma((n-1)/2)), for
        # every n up to 343, the last where math.gamma does not overflow
        constant = crofton.CARRIERS["hyperplane"].constant
        for n in range(2, 344):
            h = 0.5 * (n - 1)
            want = 2.0 * math.pi ** h / ((n - 1) * math.gamma(h))
            assert constant(1, n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", ["1e-13", "1e-9", "1e-6", "0.3"])
    def test_real_line_horospheres_exact(self, capsys, d):
        # every direction of H^1_R carries exactly d; formed as a
        # difference of logarithms of numbers near 1 the ratio read 1.99936
        # at 1e-13 (exit 1) and 2.0000000391 at 1e-9
        code, out, _ = run_cli(capsys, "crofton", "horosphere", "--field", "r",
                               "--dim", "1", "--pairs", d, "--samples", "400000",
                               "--seed", "2")
        assert (code, json.loads(out)["verdict"]) == (0, "ratios consistent")
        assert json.loads(out)["results"][0]["ratio"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("d", ["1e-13", "0.3", "16"])
    def test_real_line_hyperplanes_exact(self, capsys, d):
        # the hyperplanes of H^1_R are its points: every direction carries
        # exactly d, and their measure is exactly 1; formed as 2
        # artanh(tanh(d/2)) the ratio read 0.999999999987348 at 16 (exit 1),
        # and the measure vol(S^0) / 2 from log-gamma 1 - 3.3e-16
        code, out, _ = run_cli(capsys, "crofton", "hyperplane", "--dim", "1",
                               "--pairs", d, "--samples", "20000", "--seed", "2")
        report = json.loads(out)
        assert (code, report["verdict"]) == (0, "ratios consistent")
        assert report["results"][0]["total_measure"] == 1.0
        assert report["results"][0]["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_horosphere_constant_is_twice_ball_volume(self):
        # 2 vol(B^m) = 2 pi^(m/2) / Gamma(m/2 + 1), m = k n - 1, for every k n
        # the horosphere estimator takes, those whose carrier measure
        # vol(S^(kn-1)) is a normal float, well inside the verdict's 1e-12
        # slack
        constant = crofton.CARRIERS["horosphere"].constant
        limit = max(kn for kn in range(1, 1000)
                    if crofton.sphere_area(kn - 1) >= sys.float_info.min)
        assert limit == 438
        for k in (1, 2, 4):
            for n in range(1, limit // k + 1):
                m = k * n - 1
                ball = 2.0 * math.exp(0.5 * m * math.log(math.pi)
                                      - math.lgamma(0.5 * m + 1.0))
                assert constant(k, n) == pytest.approx(ball, rel=1e-12)

    def test_carrier_choices_are_the_table(self):
        # the parser spells the names out, so that parsing loads no estimator
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        carrier = next(a for a in sub.choices["crofton"]._actions
                       if a.dest == "carrier")
        assert set(carrier.choices) == set(crofton.CARRIERS)

    @pytest.mark.parametrize("seed", ["1", "4", "8"])
    @pytest.mark.parametrize("argv", [
        ("horosphere", "--field", "r", "--dim", "1", "--pairs", "0.3,1.5",
         "--samples", "300000"),
        ("hyperplane", "--dim", "1", "--pairs", "0.5,2"),
    ], ids=["horosphere-R1", "hyperplane-R1"])
    def test_exact_ratios_consistent(self, capsys, argv, seed):
        # in R^1 every direction carries the same value, so the estimates are
        # exact up to rounding and their stderrs 0 or nearly; the ratios
        # differ from the constant in their last bits (1.9999999999999984
        # against 2, 0.9999999999999996 against 1), which the slack of 1e-12
        # times the ratio forgives
        code, out, _ = run_cli(capsys, "crofton", *argv, "--seed", seed)
        assert (code, json.loads(out)["verdict"]) == (0, "ratios consistent")

    def test_complex_hyperplane_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "crofton", "hyperplane",
                               "--field", "c", "--pairs", "1.0",
                               "--samples", "1000")
        assert code == 2
        assert "real field" in err


def process_env(**overrides):
    """A child interpreter's environment: this package's sources first."""
    return dict(os.environ, PYTHONPATH=str(Path(hypcrofton.__file__).parents[1]),
                **overrides)


#: the CLI as a process, through cli.run, and as a plain sys.exit(main())
MODULE = [sys.executable, "-m", "hypcrofton.cli"]
PLAIN_EXIT = [sys.executable, "-c",
              "import sys; from hypcrofton.cli import main; "
              "sys.exit(main(sys.argv[1:]))"]


def run_cli_process(argv, openblas_threads):
    """The CLI in a fresh interpreter with OpenBLAS held to a thread count."""
    done = subprocess.run([*MODULE, *argv], capture_output=True, text=True,
                          env=process_env(OPENBLAS_NUM_THREADS=str(openblas_threads)),
                          check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def closed_stdout_run(command, env):
    """(exit status, stderr) of `command` whose stdout is a pipe nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, check=False, timeout=120)
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


class TestProcessExit:
    """`python -m hypcrofton.cli` ends through cli.run: flush, then os._exit."""

    @pytest.mark.parametrize("argv,code", [
        (("reproduce", "projective"), 0),
        (("dist", "--points", "points240.csv"), 0),
        (("search-violations", "--dim", "0"), 2),
        (("dist", "--points", "missing.csv"), 2),
        (("dist", "--points", "far.csv"), 2),
    ], ids=["reproduce", "dist-240-points", "usage-error", "missing-file",
            "close-points-far-out"])
    def test_process_prints_what_main_returns(self, capsys, tmp_path, argv, code):
        # the same exit status and bytes as main in process; the 240-point
        # report is larger than a pipe buffer and must arrive whole.  stdout
        # is buffered, so what cli.run does not flush is lost
        write_random_real_csv(tmp_path / "points240.csv", 240)
        write_close_far_csv(tmp_path / "far.csv")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        done = subprocess.run([*MODULE, *argv], capture_output=True, text=True,
                              env=process_env(PYTHONUNBUFFERED=""), check=False,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == \
            (code, *run_cli(capsys, *argv)[1:])
        if code == 2:
            assert done.stdout == "" and "error: " in done.stderr.splitlines()[-1]
        elif argv[0] == "dist":
            assert len(done.stdout) > 1 << 16
            matrix = json.loads(done.stdout)["results"][0]["matrix"]
            assert np.array(matrix).shape == (240, 240)

    def test_emit_csv_file_is_complete(self, tmp_path):
        path = tmp_path / "rows.csv"
        done = subprocess.run([*MODULE, "crofton", "hyperplane", "--dim", "3",
                               "--samples", "20000", "--emit-csv", str(path)],
                              capture_output=True, text=True, env=process_env(),
                              check=False, timeout=120)
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)["results"]
        assert path.read_text(encoding="utf-8").splitlines() == [
            "d,estimate,stderr",
            *(f"{r['d']},{r['estimate']},{r['stderr']}" for r in results)]
        assert len(results) == 3

    def test_no_child_left_after_workers_3(self):
        # the run is its own process group, which every forked worker joins;
        # once the run has exited, no process of that group is left
        argv = ("crofton", "horosphere", "--field", "h", "--dim", "2",
                "--pairs", "0.5,1,2", "--samples", "300000", "--seed", "1",
                "--workers", "3")
        with subprocess.Popen([*MODULE, *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=process_env(), start_new_session=True) as proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out)["verdict"] == "ratios consistent"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ("reproduce", "projective"), ("dist", "--points", "points240.csv"),
    ], ids=["small-report", "large-report"])
    def test_closed_stdout_exits_as_plain_exit(self, tmp_path, argv, unbuffered):
        # a write or flush to a closed pipe raises; the process then leaves
        # the normal way, with the status and stderr of sys.exit(main())
        write_random_real_csv(tmp_path / "points240.csv", 240)
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        env = process_env(PYTHONUNBUFFERED=unbuffered)
        status, err = closed_stdout_run([*MODULE, *argv], env)
        assert (status, err) == closed_stdout_run([*PLAIN_EXIT, *argv], env)
        assert status != 0 and "Broken pipe" in err

    def test_main_returns_in_process(self, capsys, monkeypatch):
        def refuse(code):
            raise AssertionError(f"os._exit({code}) called in process")

        monkeypatch.setattr(os, "_exit", refuse)
        assert main(["reproduce", "projective"]) == 0
        assert main(["search-violations", "--dim", "0"]) == 2
        capsys.readouterr()


class TestDeterminism:
    @pytest.mark.parametrize("argv,exact", [
        (("crofton", "hyperplane", "--dim", "3", "--pairs", "0.5,1,2",
          "--samples", "300000", "--workers", "1", "--seed", "1"), False),
        (("crofton", "horosphere", "--field", "h", "--dim", "2", "--pairs", "0.5,1,2",
          "--samples", "300000", "--workers", "2", "--seed", "1"), False),
        (("crofton", "horosphere", "--field", "r", "--dim", "1", "--pairs", "0.3,1.5",
          "--samples", "300000", "--workers", "2", "--seed", "2"), True),
    ], ids=["hyperplane", "horosphere", "horosphere-R1"])
    def test_output_independent_of_blas_threads(self, argv, exact):
        # the benchmark's crofton commands, shortened: the chunk path makes no
        # BLAS call, so OpenBLAS's thread count cannot change a digit (the
        # stderr of a one-pass variance from a BLAS dot did)
        out = run_cli_process(argv, 1)
        assert run_cli_process(argv, 2) == out
        if exact:
            # every direction of H^1_R carries the same value
            for r in json.loads(out)["results"]:
                assert r["stderr"] <= 1e-14 * r["estimate"]


class TestSearchViolations:
    def test_structured_seed_finds_violation(self, capsys):
        code, out, _ = run_cli(capsys, "search-violations", "--field", "h",
                               "--dim", "2", "--m", "24", "--trials", "2",
                               "--structured-seed", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "violation found"
        assert report["results"][0]["verified"]

    def test_zero_trials_with_structured_seed(self, capsys):
        code, out, _ = run_cli(capsys, "search-violations", "--m", "24",
                               "--trials", "0", "--structured-seed")
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["trial"] == -1 and result["verified"]

    def test_structured_seed_field_guard(self, capsys):
        code, _, err = run_cli(capsys, "search-violations", "--field", "r",
                               "--structured-seed")
        assert code == 2
        assert "--field h --dim 2" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2
