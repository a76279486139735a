import dataclasses
import json
import math

import numpy as np
import pytest

from hypcrofton import crofton
from hypcrofton.cli import main


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

    def test_no_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check-negtype")
        assert code == 2
        assert "provide --points or --matrix" in err


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

    def test_clean_metric(self, capsys, tmp_path):
        path = write_real_hyperbolic_csv(tmp_path / "pts.csv")
        code, out, _ = run_cli(capsys, "scan-hypermetric", "--points", path)
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
    ], ids=["pairs-zero", "pairs-negative", "pairs-inf", "samples-zero",
            "workers-zero", "dim-zero", "horosphere-beyond-domain",
            "hyperplane-beyond-domain", "pair-beyond-domain", "trials-negative",
            "m-below-3", "m-not-integer", "radius-negative", "radius-nan",
            "radius-beyond-domain"])
    def test_invalid_argument_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert message in err.strip().splitlines()[-1]

    def test_largest_supported_distance(self, capsys):
        code, out, _ = run_cli(capsys, "crofton", "hyperplane", "--dim", "3",
                               "--pairs", "16", "--samples", "1000", "--seed", "1")
        assert code in (0, 1)
        assert math.isfinite(json.loads(out)["results"][0]["ratio"])

    def test_non_finite_estimate_is_not_consistent(self, capsys, monkeypatch):
        real = crofton.estimate_m

        def nan_estimate(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), estimate=math.nan,
                                       ratio=math.nan)

        monkeypatch.setattr(crofton, "estimate_m", nan_estimate)
        code, out, _ = run_cli(capsys, "crofton", "hyperplane", "--pairs", "1",
                               "--samples", "1000")
        assert code == 1
        assert json.loads(out)["verdict"] == "non-finite estimate"

    def test_complex_hyperplane_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "crofton", "hyperplane",
                               "--field", "c", "--pairs", "1.0",
                               "--samples", "1000")
        assert code == 2
        assert "real field" in err


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
