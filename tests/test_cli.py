"""CLI behavior: values, exit codes, determinism, canonical serialization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmt_autocorr import PrecisionConfig, sp_large_n_ratio
from rmt_autocorr.cli import UsageError, canonical_json, main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-2j") == 1 - 2j
    assert parse_complex(" 0.3 - 0.25i ") == 0.3 - 0.25j


def test_compute_fixtures(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "1",
                           "--shifts", "2", "--method", "eps")
    assert code == 0
    assert json.loads(out)["value"] == {"im": 0.0, "re": 5.0}

    code, out, _ = run_cli(capsys, "compute", "--group", "so", "--N", "1",
                           "--shifts", "0", "--method", "schur")
    assert code == 0
    assert json.loads(out)["value"]["re"] == 1.0

    code, out, _ = run_cli(capsys, "compute", "--group", "u", "--N", "2", "--m", "1",
                           "--n", "2", "--shifts", "1,1", "--method", "schur")
    assert code == 0
    report = json.loads(out)
    assert report["value"]["re"] == 3.0
    assert report["query"]["m"] == 1 and report["query"]["family"] == "unitary"


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "2",
                           "--shifts", "0.7+0.2i,1.3", "--method", "schur")
    assert code == 0
    line = out.strip()
    assert canonical_json(json.loads(line)) == line


def test_exit_code_usage():
    assert main(["compute", "--group", "u", "--N", "2", "--shifts", "1,1",
                 "--method", "schur"]) == 2  # missing --m
    assert main(["compute", "--group", "u", "--N", "2", "--m", "1", "--n", "3",
                 "--shifts", "1,1", "--method", "schur"]) == 2  # n mismatch
    assert main(["compute", "--group", "usp", "--N", "1", "--shifts", "2",
                 "--method", "comb"]) == 2  # comb is unitary-only
    assert main(["compute", "--group", "usp", "--N", "1", "--shifts", "2",
                 "--method", "eps", "--digits", "10"]) == 2
    assert main(["identity-suite", "--trials", "0"]) == 2
    assert main(["crosscheck", "--group", "usp", "--N", "2", "--shifts", "0.5",
                 "--routes", "eps,eps"]) == 2  # one distinct route compares nothing
    assert main(["nonsense"]) == 2
    assert main(["compute", "--group", "usp", "--N", "1", "--shifts", "2",
                 "--method", "quadrature", "--digits", "40"]) == 2


def test_exit_code_numerical_error(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "2",
                           "--shifts", "0.5,0.5", "--method", "det")
    assert code == 3
    assert json.loads(out)["error"] == "NearConfluent"
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "2",
                           "--shifts", "0", "--method", "eps")
    assert code == 3
    assert json.loads(out)["error"] == "PoleHit"


@pytest.mark.parametrize("argv", [
    ("compute", "--group", "u", "--N", "2", "--m", "1", "--shifts", "0,0.5",
     "--method", "contour"),
    ("crosscheck", "--group", "usp", "--N", "2", "--shifts", "0,0.5",
     "--routes", "schur,contour"),
])
def test_contour_route_refuses_a_zero_shift(capsys, argv):
    # the contour form takes log(w); a zero shift is valid input it cannot reach
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "detail"} and report["error"] == "PoleHit"


@pytest.mark.parametrize("query", [
    ("--group", "u", "--N", "2", "--m", "0", "--shifts", "1e200", "--method", "det"),
    ("--group", "usp", "--N", "100000", "--shifts", "0.5", "--method", "eps"),
])
def test_overflow_is_a_numerical_error(capsys, query):
    code, out, _ = run_cli(capsys, "compute", *query)
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "detail"} and report["error"] == "OverflowError"


def test_crosscheck_pass_and_fail_paths(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "usp", "--N", "2",
                           "--shifts", "0.8+0.1i,1.4", "--routes", "det,schur,eps")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["max_deviation"] <= 1e-9
    assert set(report["routes"]) == {"det", "schur", "eps"}

    code, out, _ = run_cli(capsys, "crosscheck", "--group", "u", "--N", "3",
                           "--m", "1", "--shifts", "0.9,1.2+0.3i,0.5-0.8i",
                           "--routes", "schur,comb,quadrature")
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-8

    code, out, _ = run_cli(capsys, "crosscheck", "--group", "usp", "--N", "1",
                           "--shifts", "0.9,0.9", "--routes", "det,schur")
    assert code == 3  # NearConfluent from the det route


@pytest.mark.parametrize("fam", ["usp", "so", "ominus"])
def test_crosscheck_self_dual_quadrature(capsys, fam):
    code, out, _ = run_cli(capsys, "crosscheck", "--group", fam, "--N", "2",
                           "--shifts", "0.8+0.1i,1.4", "--routes", "eps,quadrature")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["max_deviation"] <= 1e-9


def test_identity_suite_cli(capsys):
    code, out, _ = run_cli(capsys, "identity-suite", "--trials", "25", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert max(report["max_residuals"].values()) <= report["tolerance"]
    assert report["identity3_losing_convention"] == "prose"


def test_montecarlo_cli_and_determinism(capsys):
    args = ["montecarlo", "--group", "so", "--N", "1", "--shifts", "0.5",
            "--samples", "2000", "--seed", "11"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["exact"] == {"im": 0.0, "re": 1.25}
    assert abs(report["z_score"]) <= 4
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # bit-identical report given the seed
    assert main(["montecarlo", "--group", "so", "--N", "1", "--shifts", "0.5",
                 "--samples", "50"]) == 2


@pytest.mark.parametrize("option", [("--method", "montecarlo", "--samples", "0"),
                                    ("--method", "contour", "--nodes", "0")])
def test_zero_samples_or_nodes_is_a_usage_error(option):
    assert main(["compute", "--group", "so", "--N", "1", "--shifts", "0.5", *option]) == 2


@pytest.mark.parametrize("query", [
    ("--group", "u", "--N", "3", "--m", "0", "--shifts", "0.5,0.7+0.1i,-0.4i", "--nodes", "4"),
    ("--group", "usp", "--N", "2", "--shifts", "0.5,0.3", "--nodes", "6"),
])
def test_quadrature_with_aliasing_nodes_is_a_usage_error(query):
    assert main(["compute", "--method", "quadrature", *query]) == 2


@pytest.mark.parametrize("option", [("--radius", "0"), ("--n-min", "1"),
                                    ("--radius", "1e-4", "--n-max", "2"),
                                    ("--n-min", "4", "--n-max", "3"), ("--x-count", "-1")])
def test_identity_suite_settings_it_cannot_sample_are_usage_errors(option):
    assert main(["identity-suite", "--trials", "3", *option]) == 2


def test_scaling_cli(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--k", "1", "--b", "1",
                           "--N-list", "10,100,1000,10000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,ratio_re,ratio_im,abs_err"
    errs = [float(line.split(",")[3]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 5e-3
    assert main(["scaling", "--k", "2", "--b", "1", "--N-list", "10"]) == 2
    assert main(["scaling", "--b", "1,-1", "--N-list", "10"]) == 3  # pole


def test_alpha_input_conventions(capsys):
    # usp: w = exp(-alpha)
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "1",
                           "--alpha", "0.2", "--method", "eps")
    assert code == 0
    import cmath
    w = cmath.exp(-0.2)
    expected = (1 - w ** 4) / (1 - w ** 2)
    assert json.loads(out)["value"]["re"] == pytest.approx(expected)
    # so: w = exp(+alpha)
    code, out, _ = run_cli(capsys, "compute", "--group", "so", "--N", "1",
                           "--alpha", "0.2", "--method", "eps")
    assert json.loads(out)["value"]["re"] == pytest.approx(1 + cmath.exp(0.4))


def test_contour_method_cli(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "2",
                           "--alpha", "0.1", "--method", "contour")
    assert code == 0
    import cmath
    w = cmath.exp(-0.1)
    expected = (1 - w ** 6) / (1 - w ** 2)
    assert json.loads(out)["value"]["re"] == pytest.approx(expected, abs=1e-6)



def test_compute_echoes_extended_precision(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "1", "--shifts", "2",
                           "--method", "eps", "--digits", "40")
    assert code == 0
    assert '"precision":{"digits":40,"mode":"extended"}' in out


@pytest.mark.parametrize("group,N,alpha", [("so", "1", "0.2"), ("ominus", "2", "0.3,0.1i")])
def test_orthogonal_contour_cli_agrees_with_eps(capsys, group, N, alpha):
    values = []
    for method in ("contour", "eps"):
        code, out, _ = run_cli(capsys, "compute", "--group", group, "--N", N, "--alpha", alpha,
                               "--method", method)
        assert code == 0
        value = json.loads(out)["value"]
        values.append(complex(value["re"], value["im"]))
    assert abs(values[0] - values[1]) <= 1e-12 * max(1.0, abs(values[1]))


def test_montecarlo_of_a_constant_integrand(capsys):
    # at w = 0 every sample is 1: a zero standard error and a zero z-score
    code, out, _ = run_cli(capsys, "montecarlo", "--group", "so", "--N", "1", "--shifts", "0",
                           "--samples", "200")
    assert code == 0
    report = json.loads(out)
    assert (report["std_error"], report["z_score"], report["pass"]) == (0, 0, True)


@pytest.mark.parametrize("argv", [
    ("compute", "--group", "usp", "--N", "1", "--shifts", ",", "--method", "eps"),
    ("compute", "--group", "usp", "--N", "1", "--shifts", "abc", "--method", "eps"),
    ("scaling", "--b", "1", "--N-list", ","),
])
def test_empty_or_unparsable_lists_are_usage_errors(argv):
    assert main(list(argv)) == 2

def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "1",
                           "--shifts", "2", "--method", "eps", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_crosscheck_failure_exit_code(capsys):
    # an unreachable tolerance turns route disagreement into exit 4
    code, out, _ = run_cli(capsys, "crosscheck", "--group", "usp", "--N", "2",
                           "--shifts", "0.8+0.1i,1.4", "--routes", "det,schur,eps",
                           "--tol", "1e-18")
    assert code == 4
    assert json.loads(out)["pass"] is False


def test_identity_suite_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "identity-suite", "--trials", "5", "--seed", "3",
                           "--tol", "1e-30")
    assert code == 4
    assert json.loads(out)["pass"] is False


def test_identity_suite_extended_cli(capsys):
    code, out, _ = run_cli(capsys, "identity-suite", "--trials", "5", "--seed", "3",
                           "--digits", "40")
    assert code == 0
    report = json.loads(out)
    assert report["tolerance"] == 1e-30
    assert report["mode"] == "extended(40)"


def test_ominus_schur_route(capsys):
    # the coset moment at k = 1 is (w^2 - 1)(1 + w^2 + ... + w^(2N-2)) = w^(2N) - 1
    w, N = 0.7 + 0.2j, 3
    code, out, _ = run_cli(capsys, "compute", "--group", "ominus", "--N", str(N),
                           "--shifts", "0.7+0.2i", "--method", "schur")
    assert code == 0
    got = json.loads(out)["value"]
    assert complex(got["re"], got["im"]) == pytest.approx(w ** (2 * N) - 1, abs=1e-14)

    code, out, _ = run_cli(capsys, "crosscheck", "--group", "ominus", "--N", "2",
                           "--shifts", "0.8+0.1i,1.4", "--routes", "det,eps,schur")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and set(report["routes"]) == {"det", "eps", "schur"}


def test_unitary_contour_cli(capsys):
    code, out, _ = run_cli(capsys, "compute", "--group", "u", "--N", "2", "--m", "1",
                           "--alpha", "0.1,-0.2i", "--method", "contour")
    assert code == 0
    import cmath
    from rmt_autocorr import UnitaryQuery, autocorr_schur
    w = (cmath.exp(-0.1), cmath.exp(0.2j))
    exact = complex(autocorr_schur(UnitaryQuery(2, 1, w)))
    got = json.loads(out)["value"]
    assert complex(got["re"], got["im"]) == pytest.approx(exact, abs=1e-6)


def test_canonical_json_formatting():
    assert canonical_json({"b": 1, "a": -0.0}) == '{"a":0,"b":1}'
    assert canonical_json(complex(1.5, -2.0)) == '{"im":-2,"re":1.5}'
    assert canonical_json([True, None, "x"]) == '[true,null,"x"]'
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


def test_shifts_and_alpha_are_mutually_exclusive():
    assert main(["compute", "--group", "usp", "--N", "2", "--shifts", "0.5",
                 "--alpha", "0.1", "--method", "eps"]) == 2


@pytest.mark.parametrize("argv", [
    ("montecarlo", "--group", "so", "--N", "1", "--shifts", "0.5", "--samples", "200",
     "--digits", "40"),
    ("scaling", "--b", "1", "--N-list", "10", "--seed", "3"),
])
def test_options_a_command_does_not_read_are_usage_errors(argv):
    assert main(list(argv)) == 2


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
@pytest.mark.parametrize("option", [("--m", "5"), ("--n", "1")])
def test_unitary_split_options_are_usage_errors_for_self_dual_families(capsys, command, option):
    # --m and --n describe the unitary query only; --n 1 even matches the shift count
    route = ("--method", "eps") if command == "compute" else ("--routes", "eps,schur")
    for group in ("usp", "so", "ominus"):
        code, out, err = run_cli(capsys, command, "--group", group, "--N", "2", *option,
                                 "--shifts", "0.5", *route)
        assert (code, out) == (2, ""), (group, option)
        assert f"{option[0]} applies to the unitary family only" in err


def test_scaling_digits(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--b", "0.5,1.5", "--N-list", "10,1000",
                           "--digits", "40")
    assert code == 0
    for line, n in zip(out.strip().splitlines()[1:], (10, 1000)):
        ratio = complex(sp_large_n_ratio([0.5, 1.5], n, PrecisionConfig(40)))
        n_text, re_text, im_text, _ = line.split(",")
        assert (int(n_text), float(re_text), float(im_text)) == (n, ratio.real, ratio.imag)


def test_parse_complex_refuses_non_finite_and_reads_a_trailing_i():
    for token in ("nan", "inf", "-inf", "infj"):
        with pytest.raises(UsageError, match="non-finite"):
            parse_complex(token)
    assert parse_complex("1+2I") == 1 + 2j
    assert parse_complex("I") == 1j
    assert parse_complex("0.5i") == 0.5j


@pytest.mark.parametrize("method", ["schur", "det"])
def test_non_finite_result_is_a_numerical_error(capsys, method):
    code, out, _ = run_cli(capsys, "compute", "--group", "so", "--N", "3",
                           "--shifts", "1e200", "--method", method)
    assert code == 3
    assert set(json.loads(out)) == {"error", "detail"}


def test_identity_suite_nan_residual_is_a_numerical_error(capsys):
    code, out, _ = run_cli(capsys, "identity-suite", "--trials", "1", "--radius", "1e200")
    assert code == 3
    assert set(json.loads(out)) == {"error", "detail"}


def test_cli_as_a_process():
    # the cold-start command the benchmark times, and an exit code through sys.exit(main())
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def launch(*argv):
        return subprocess.run([sys.executable, "-m", "rmt_autocorr.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)

    done = launch("compute", "--group", "usp", "--N", "1", "--shifts", "2", "--method", "eps")
    assert done.returncode == 0
    assert json.loads(done.stdout)["value"] == {"im": 0.0, "re": 5.0}
    done = launch("compute", "--group", "so", "--N", "3", "--shifts", "1e200",
                  "--method", "schur")
    assert done.returncode == 3
    assert set(json.loads(done.stdout)) == {"error", "detail"}
