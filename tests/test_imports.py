"""What each CLI subcommand loads, and the package's lazy namespace."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypcrofton

#: the names `hypcrofton` exports, by submodule
EXPORTED = {
    "algebra": [
        "COMPLEX", "FIELD_DIM", "FIELDS", "QUATERNION", "REAL",
    ],
    "configurations": [
        "SPLIT_COEFFICIENTS", "cluster_sums", "projective_six_points",
        "quaternionic_cluster_points",
    ],
    "crofton": [
        "CARRIERS", "CroftonEstimate", "horosphere_crofton_many",
        "hyperplane_crofton_many",
    ],
    "kernels": [
        "EmbeddingResult", "NotNegativeTypeError", "build_distance_matrix",
        "hypermetric_scan", "negative_type_witness", "quadratic_form",
        "sqrt_embed", "violation_search",
    ],
    "spaces": ["random_coords"],
}
EXPORTED_NAMES = [(module, name) for module, names in EXPORTED.items()
                  for name in names]
#: names the package once exported and no longer has: translation_to_base,
#: the scalar quaternion layer, the point classes with their scalar
#: distances, the one-pair Crofton wrappers and the space class (a space
#: is a field letter and n) are deleted, and the brute-force reference and
#: the quaternion product with the hermitian form on coefficients moved to
#: tests/reference.py
DROPPED = [
    "HPoint", "PPoint", "base_point", "hyperbolic_distance",
    "projective_distance", "random_point", "sphere_distance",
    "estimate_horosphere_crofton", "estimate_m", "horosphere_crofton",
    "hyperplane_crofton", "projective_crofton_estimate",
    "projective_crofton_many", "sphere_halfspace_crofton",
    "sphere_halfspace_crofton_many",
    "translation_to_base",
    "Quaternion", "hermitian_form", "quat_mul", "scalar_modulus",
    "Horosphere", "Hyperplane", "OrientedHalfSpace", "count_cosh_roots",
    "count_horosphere_intersections", "halfspace_contains", "halfspace_side",
    "hyperplane_meets_segment", "sample_horosphere", "sample_hyperplane",
    "GeodesicSegment", "Isometry", "geodesic_between", "jordan_trace_distance",
    "random_isometry", "HermitianSpace", "qmul", "qconj", "form_coeffs",
]

#: runs the CLI as `python -m hypcrofton.cli` does, and prints the loaded
#: modules as the last line of standard output when cli.run ends the
#: process through os._exit; the chunk pool's forked children leave
#: through os._exit too, and print nothing
DRIVER = """\
import json, os, runpy, sys
caller, exit_now = os.getpid(), os._exit
def list_modules_then_exit(code):
    if os.getpid() == caller:
        print(json.dumps(sorted(sys.modules)), flush=True)
    exit_now(code)
os._exit = list_modules_then_exit
runpy.run_module("hypcrofton.cli", run_name="__main__", alter_sys=True)
"""

POINTS = "\n".join([
    "r,2",
    "1,0,0",
    f"{math.cosh(1)},{math.sinh(1)},0",
    f"{math.cosh(0.5)},0,{math.sinh(0.5)}",
    f"{math.cosh(0.8)},{-math.sinh(0.8)},0",
]) + "\n"

#: 40000 and 1000 samples are each 16 replicate chunks (crofton.MIN_REPLICATES),
#: which --workers 2 runs in the calling process and one forked child; the
#: H^1_R lines and the arcs run no chunk
CROFTON_ARGS = {
    "hyperplane": ("hyperplane", "--dim", "3"),
    "horosphere": ("horosphere", "--field", "h", "--dim", "2"),
    "hyperplane-line": ("hyperplane", "--dim", "1"),
    "horosphere-line": ("horosphere", "--field", "r", "--dim", "1"),
    "projective": ("projective", "--dim", "2"),
    "sphere": ("sphere", "--dim", "2"),
}


def fresh_env():
    """A child interpreter's environment: this package's sources, and no
    bytecode files, so each process compiles every module it loads."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=str(Path(hypcrofton.__file__).parents[1]))


def loaded_modules(argv, cwd):
    """Exit code and sys.modules of one CLI run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", DRIVER, *argv], cwd=cwd,
                          capture_output=True, text=True, env=fresh_env(),
                          check=False)
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("points") / "points.csv"
    path.write_text(POINTS, encoding="utf-8")
    return path


class TestSubcommandImports:
    @pytest.mark.parametrize("argv", [
        ("dist", "--points", "points.csv"),
        ("check-negtype", "--points", "points.csv"),
        ("scan-hypermetric", "--points", "points.csv", "--bound", "1"),
        ("embed", "--points", "points.csv"),
        ("reproduce", "addendum"),
        ("reproduce", "projective"),
        ("search-violations", "--m", "4", "--trials", "2", "--seed", "1"),
    ], ids=["dist", "check-negtype", "scan-hypermetric", "embed",
            "reproduce-addendum", "reproduce-projective", "search-violations"])
    def test_geometry_commands_load_no_estimator(self, points_file, argv):
        code, modules = loaded_modules(argv, points_file.parent)
        assert code == 0
        assert "hypcrofton.spaces" in modules
        # every one measures its points through kernels.build_distance_matrix
        assert "hypcrofton.kernels" in modules
        assert "hypcrofton.crofton" not in modules
        assert "concurrent.futures" not in modules
        # search-violations draws its points from the standard library's
        # random, so no command loads numpy.random
        assert "numpy.random" not in modules

    @pytest.mark.parametrize("workers,samples", [
        ("1", "40000"), ("2", "40000"), ("2", "1000"),
    ], ids=["workers-1", "workers-2", "workers-2-one-chunk"])
    @pytest.mark.parametrize("carrier", list(CROFTON_ARGS))
    def test_crofton_loads_no_kernels(self, tmp_path, carrier, workers, samples):
        argv = ("crofton", *CROFTON_ARGS[carrier], "--pairs", "0.5,1",
                "--samples", samples, "--workers", workers, "--seed", "1")
        code, modules = loaded_modules(argv, tmp_path)
        assert code in (0, 1)
        assert "hypcrofton.crofton" in modules
        assert "hypcrofton.kernels" not in modules
        assert "hypcrofton.configurations" not in modules
        # every carrier's estimator takes distances, not points, so no run
        # loads the geometry layer
        assert "hypcrofton.spaces" not in modules
        # the chunk pool forks with os.fork: no run loads concurrent.futures
        # or multiprocessing
        assert "concurrent.futures" not in modules
        assert "multiprocessing" not in modules
        # only a call that asks for more than one worker loads the pool, and
        # only a lattice one: an arc chunk's hits are in closed form, and a
        # line is measure d
        assert ("hypcrofton.pool" in modules) == \
            (workers != "1" and carrier in ("hyperplane", "horosphere"))
        # the lattice shifts come from the standard library's random
        assert "numpy.random" not in modules

    @pytest.mark.parametrize("argv", [
        ("crofton", "horosphere", "--samples", "16", "--workers", "2"),
        ("check-negtype", "--points", "points.csv"),
        ("reproduce", "addendum"),
        ("search-violations", "--trials", "2"),
    ], ids=["crofton", "check-negtype", "reproduce-addendum", "search-violations"])
    def test_no_run_loads_dataclasses(self, points_file, argv):
        # the records are NamedTuples, so no run generates their methods
        code, modules = loaded_modules(argv, points_file.parent)
        assert code in (0, 1)
        assert "dataclasses" not in modules

    def test_package_loads_a_submodule_on_first_lookup(self, tmp_path):
        script = ("import json, sys, hypcrofton\n"
                  "def loaded():\n"
                  "    print(json.dumps(sorted(m for m in sys.modules\n"
                  "                            if m.startswith('hypcrofton.'))))\n"
                  "loaded()\n"
                  "hypcrofton.random_coords\n"
                  "loaded()\n"
                  "hypcrofton.kernels\n"
                  "loaded()\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=fresh_env(),
                              check=True)
        assert [json.loads(line) for line in done.stdout.splitlines()] == [
            [],
            ["hypcrofton.algebra", "hypcrofton.spaces"],
            ["hypcrofton.algebra", "hypcrofton.kernels", "hypcrofton.spaces"],
        ]


class TestLazyNamespace:
    @pytest.mark.parametrize("module,name", EXPORTED_NAMES,
                             ids=[name for _, name in EXPORTED_NAMES])
    def test_name_is_the_submodule_attribute(self, module, name):
        submodule = importlib.import_module(f"hypcrofton.{module}")
        assert getattr(hypcrofton, name) is getattr(submodule, name)
        namespace = {}
        exec(f"from hypcrofton import {name}", namespace)
        assert namespace[name] is getattr(submodule, name)

    def test_dir_and_all_list_every_name(self):
        names = {name for _, name in EXPORTED_NAMES}
        assert names <= set(dir(hypcrofton))
        assert set(hypcrofton.__all__) == names
        assert len(hypcrofton.__all__) == len(names)

    def test_star_import(self):
        namespace = {}
        exec("from hypcrofton import *", namespace)
        for module, name in EXPORTED_NAMES:
            submodule = importlib.import_module(f"hypcrofton.{module}")
            assert namespace[name] is getattr(submodule, name)

    def test_submodules_and_version(self):
        for module in EXPORTED:
            assert getattr(hypcrofton, module) is \
                importlib.import_module(f"hypcrofton.{module}")
        assert hypcrofton.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", ["no_such_name", *DROPPED])
    def test_unknown_name_raises(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(hypcrofton, name)
        with pytest.raises(ImportError):
            exec(f"from hypcrofton import {name}", {})
        for module in EXPORTED:
            assert not hasattr(importlib.import_module(f"hypcrofton.{module}"), name)
