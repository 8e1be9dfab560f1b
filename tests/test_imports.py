"""What importing the package loads: its exports resolve on first access,
the CLI's closed forms run without numpy, and no module imports a name it
does not read."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmt_autocorr
from rmt_autocorr.cli import main

# The package's exports, by the module the package imported each from when
# it imported them all eagerly.  GroupSpec now lives in `routes`; `haar`
# imports it from there.
EXPORTS = {
    "contour": ("BipartiteKernel", "ContourConfig", "LemmaCheckResult", "SymmetricKernel",
                "circular_integral", "lemma_sym_check", "lemma_unitary_check"),
    "errors": ("ContourTooTight", "DimensionCap", "InconsistentCoefficients", "NearConfluent",
               "PoleHit", "PrecisionLoss", "RouteError"),
    "haar": ("GroupSpec", "char_poly_eval", "functional_equation_residual", "group",
             "monte_carlo_average", "quadrature_average", "sample_eigenangle_batch",
             "weyl_autocorrelation", "weyl_density", "znorm_residual"),
    "identities": ("IdentitySuiteReport", "fn_eval", "identity1_residual", "identity2_residual",
                   "identity3_residual", "identity4_residual", "lemma1_residual",
                   "run_identity_suite", "symmb_coeff_transform"),
    "orthogonal": ("PartialSumResult", "SubsetStats", "ominus_autocorr_det",
                   "ominus_autocorr_eps", "ominus_autocorr_schur", "orthogonal_contour",
                   "pairing_determinant", "pairing_matrix", "so_autocorr_det", "so_autocorr_eps",
                   "so_autocorr_schur", "so_partial_sums", "subset_stats"),
    "precision": ("PrecisionConfig",),
    "routes": ("full_o2n_average",),
    "symcore": ("Partition", "conjugate_partition", "enumerate_even_partitions",
                "enumerate_so_index_sets", "enumerate_split_permutations", "schur_stable",
                "vandermonde"),
    "symplectic": ("sp_autocorr_contour", "sp_autocorr_det", "sp_autocorr_eps",
                   "sp_autocorr_schur", "sp_large_n_ratio"),
    "unitary": ("UnitaryQuery", "autocorr_comb", "autocorr_contour", "autocorr_det",
                "autocorr_schur", "shifted_product_average"),
}

SRC = Path(__file__).resolve().parent.parent / "src" / "rmt_autocorr"

# An import line that carries this marker keeps a binding that only the
# benchmark's tracer reads: it patches the name in every module that has it.
TRACER_MARKER = "bench/tracer.py patches this binding"

SHIFTS = ("--shifts", "0.5,0.3i")
CLOSED_FORMS = [
    ["compute", "--group", "u", "--N", "4", "--m", "1", *SHIFTS, "--method", "schur"],
    ["compute", "--group", "usp", "--N", "3", *SHIFTS, "--method", "eps"],
    ["compute", "--group", "so", "--N", "3", *SHIFTS, "--method", "det"],
    ["compute", "--group", "ominus", "--N", "3", *SHIFTS, "--method", "schur"],
    ["crosscheck", "--group", "usp", "--N", "3", *SHIFTS, "--routes", "schur,det,eps"],
]
CONTOUR = ["compute", "--group", "u", "--N", "4", "--m", "1", "--alpha", "0.1,0.2+0.1i",
           "--method", "contour"]

# Runs each closed form, then the contour route, through cli.main; prints
# the CLI's lines, then whether numpy was loaded before and after the contour.
CHILD = ("import json, sys\n"
         "from rmt_autocorr import cli\n"
         "closed, contour = json.loads(sys.argv[1])\n"
         "codes = [cli.main(argv) for argv in closed]\n"
         "before = 'numpy' in sys.modules\n"
         "codes.append(cli.main(contour))\n"
         "print(json.dumps([codes, before, 'numpy' in sys.modules]))")


def test_every_export_is_its_modules_object():
    wrong = [name for module, names in EXPORTS.items() for name in names
             if getattr(rmt_autocorr, name)
             is not getattr(importlib.import_module(f"rmt_autocorr.{module}"), name)]
    assert wrong == []
    assert sorted(rmt_autocorr.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert set(rmt_autocorr.__all__) <= set(dir(rmt_autocorr))


def test_an_unknown_name_is_an_attribute_error_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match="no_such_name"):
        rmt_autocorr.no_such_name
    from rmt_autocorr import haar
    assert haar.__name__ == "rmt_autocorr.haar" and haar.GroupSpec is rmt_autocorr.GroupSpec


def test_closed_forms_run_without_numpy_and_the_contour_loads_it(capsys):
    closed = [argv + extra for argv in CLOSED_FORMS for extra in ([], ["--digits", "40"])]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps([closed, CONTOUR])],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    *lines, summary = done.stdout.splitlines()
    codes, numpy_before, numpy_after = json.loads(summary)
    assert codes == [0] * (len(closed) + 1)
    assert not numpy_before and numpy_after
    # the same lines in this process, crosscheck timings aside
    for argv, line in zip(closed + [CONTOUR], lines, strict=True):
        assert main(argv) == 0
        here = json.loads(capsys.readouterr().out)
        there = json.loads(line)
        for report in (here, there):
            for route in report.get("routes", {}).values():
                route.pop("seconds")
        assert there == here


def test_every_module_level_import_is_read_or_marked():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or \
                    getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and TRACER_MARKER not in lines[alias.lineno - 1]:
                    unread.append(f"{path.name}:{alias.lineno}: {name}")
    assert unread == []
