"""What importing the package loads: its exports resolve on first access,
the CLI's closed forms run without numpy, `dataclasses` or an unused
family module, and no module imports a name it does not read."""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rmt_autocorr
from rmt_autocorr import (BipartiteKernel, ContourConfig, GroupSpec, LemmaCheckResult,
                          PartialSumResult, Partition, PrecisionConfig, SubsetStats,
                          SymmetricKernel, UnitaryQuery)
from rmt_autocorr.cli import main
from rmt_autocorr.contour import exp_pole

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


# The family modules a closed form of each family loads: `orthogonal`
# reads the sums of `symplectic`.
FAMILY_MODULES = {"u": ["unitary"], "usp": ["symplectic"], "so": ["orthogonal", "symplectic"],
                  "ominus": ["orthogonal", "symplectic"]}
ALL_FAMILY_MODULES = ("unitary", "symplectic", "orthogonal")

# Runs one command through cli.main; prints its exit code and sys.modules.
LOADED = ("import json, sys\n"
          "from rmt_autocorr import cli\n"
          "code = cli.main(json.loads(sys.argv[1]))\n"
          "print(json.dumps([code, sorted(sys.modules)]))")


def _fresh_interpreter(code: str, *args: str) -> list[str]:
    """The stdout lines of `python -c code args` with this tree's src first on PYTHONPATH."""
    src = str(SRC.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return done.stdout.splitlines()


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
    *lines, summary = _fresh_interpreter(CHILD, json.dumps([closed, CONTOUR]))
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


@pytest.mark.parametrize("argv", CLOSED_FORMS[:4], ids=lambda argv: argv[2])
def test_a_closed_form_loads_its_family_module_alone_and_no_dataclasses(argv):
    # `dataclasses` loads `inspect`, `ast` and `dis`: about 7 ms of a start-up
    *_out, summary = _fresh_interpreter(LOADED, json.dumps(argv))
    code, loaded = json.loads(summary)
    assert code == 0
    assert {"dataclasses", "inspect"} & set(loaded) == set()
    package = [m.removeprefix("rmt_autocorr.") for m in loaded if m.startswith("rmt_autocorr.")]
    assert [m for m in package if m in ALL_FAMILY_MODULES] == FAMILY_MODULES[argv[2]]


# One of each record that was a frozen dataclass, one that differs from it
# in a field, and its repr (None: it shows function addresses)
RECORDS = [
    (GroupSpec("usp", 3), GroupSpec("usp", 4), "GroupSpec(family='symplectic', size=3)"),
    (PrecisionConfig(), PrecisionConfig(41), "PrecisionConfig(digits=40)"),
    (Partition([2, 1, 0]), Partition([2, 1]), "Partition(parts=(2, 1, 0))"),
    (ContourConfig(), ContourConfig(64), "ContourConfig(nodes_per_dim=128)"),
    (UnitaryQuery(4, 1, [0.5, 0.3j]), UnitaryQuery(4, 2, [0.5, 0.3j]),
     "UnitaryQuery(N=4, m=1, shifts=(0.5, 0.3j))"),
    (LemmaCheckResult(1, 2j), LemmaCheckResult(1, 2), "LemmaCheckResult(lhs=1, rhs=2j)"),
    (PartialSumResult(1, 2), PartialSumResult(1, 3), "PartialSumResult(value=1, closed_form=2)"),
    (SubsetStats(1, 2, 3, 4, 5, 6, 7, 8), SubsetStats(1, 2, 3, 4, 5, 6, 7, 9),
     "SubsetStats(w_A=1, S=2, W=3, E=4, D=5, delta_A=6, delta_B=7, cal_E_A=8)"),
    (BipartiteKernel(exp_pole), BipartiteKernel(exp_pole, exp_pole), None),
    (SymmetricKernel(exp_pole), SymmetricKernel(exp_pole, include_diagonal=False), None),
]


@pytest.mark.parametrize("record,other,text", RECORDS,
                         ids=[type(r).__name__ for r, _o, _t in RECORDS])
def test_records_are_frozen_values(record, other, text):
    if text is not None:
        assert repr(record) == text
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    # field-wise equality and hashing; a copy is built by the constructor again
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
    assert other != record


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
