"""CLI behavior: values, exit codes, determinism, canonical serialization."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmt_autocorr import PrecisionConfig, cli, sp_large_n_ratio
from rmt_autocorr.cli import UsageError, build_parser, canonical_json, main, parse_complex


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
                           "--shifts", "1,1", "--method", "schur")
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
                 "--shifts", "1,1", "--method", "schur"]) == 2  # --n is not an option
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
    # a determinant whose condition bounds its error above the tolerance, and
    # one of an order past the cap
    for N, error in (("64", "PrecisionLoss"), ("100000000", "DimensionCap")):
        code, out, _ = run_cli(capsys, "compute", "--group", "u", "--N", N, "--m", "0",
                               "--shifts", "0.5", "--method", "quadrature")
        assert code == 3
        assert json.loads(out)["error"] == error


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
    ("--group", "u", "--N", "2", "--m", "0", "--shifts", "1e200", "--method", "quadrature"),
    ("--group", "ominus", "--N", "1", "--shifts", "1e200", "--method", "quadrature"),
])
def test_overflow_is_a_numerical_error(capsys, query):
    code, out, _ = run_cli(capsys, "compute", *query)
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "detail"} and report["error"] == "OverflowError"


@pytest.mark.parametrize("group", ["usp", "so"])
def test_heine_matrix_beyond_the_double_range_is_refused(capsys, group):
    # the Toeplitz + Hankel sum and ||G||_1 pass the double range before the
    # determinant does; the condition bound refuses, with no numpy warning
    code, out, _ = run_cli(capsys, "compute", "--group", group, "--N", "3",
                           "--shifts", "1e154,0.5", "--method", "quadrature")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "detail"} and report["error"] == "PrecisionLoss"


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


def test_crosscheck_judges_monte_carlo_by_its_standard_error(capsys, monkeypatch):
    # at N = 4 quadrature is the Heine determinant, and Monte Carlo's
    # deviation (3.3e-3) is within 4 of its standard errors (5.3e-3)
    query = ("crosscheck", "--group", "usp", "--N", "4", "--shifts", "0.5,0.3")
    assert run_cli(capsys, *query, "--routes", "schur,eps,quadrature")[0] == 0
    code, out, _ = run_cli(capsys, *query, "--routes", "schur,eps,quadrature,montecarlo")
    assert code == 0
    routes = json.loads(out)["routes"]
    assert [r for r in routes if "error_estimate" in routes[r]] == ["montecarlo"]

    from rmt_autocorr import haar

    average = haar.monte_carlo_average

    def biased(*args):
        mean, stderr = average(*args)
        return mean + 10 * stderr, stderr

    monkeypatch.setattr(haar, "monte_carlo_average", biased)
    code, out, _ = run_cli(capsys, *query, "--routes", "schur,montecarlo")
    assert code == 4 and json.loads(out)["pass"] is False


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


def test_montecarlo_exact_value_near_one(capsys):
    # every shift within 2e-3 of 1, where the USp `eps` sum printed -1.47e19;
    # the sampled mean is heavy-tailed there, so only `exact` is asserted
    _, out, _ = run_cli(capsys, "montecarlo", "--group", "usp", "--N", "8",
                        "--shifts", "1.001,1.002,0.999,1.0005", "--samples", "1000")
    exact, moment = json.loads(out)["exact"], 3398584.4101577
    assert abs(complex(exact["re"], exact["im"]) - moment) <= 1e-12 * moment


def test_montecarlo_standard_error_past_the_range_of_squares(capsys):
    # USp(600) at w = 2 is about 2^600: the samples and their standard error
    # are doubles, their squared deviations are not; no warning either
    # (warnings are errors in this suite)
    import numpy as np

    from rmt_autocorr import haar

    code, out, err = run_cli(capsys, "montecarlo", "--group", "usp", "--N", "300",
                             "--shifts", "2", "--samples", "100", "--seed", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    chunk = haar._autocorr_chunk(haar.group("usp", 300), (2 + 0j,), 0,
                                 np.random.default_rng(1), 100)
    scaled = chunk.real * 2.0 ** -600  # exact: every sample is real and positive
    se = 2.0 ** 600 * np.sqrt(np.sum((scaled - scaled.mean()) ** 2) / 99 / 100)
    assert abs(report["std_error"] - se) <= 1e-14 * se
    assert report["pass"] is True
    # samples past the double range: still a route error, still no warning
    code, _, err = run_cli(capsys, "montecarlo", "--group", "usp", "--N", "400",
                           "--shifts", "3", "--samples", "100")
    assert code == 3 and err.startswith("numerical route error")


@pytest.mark.parametrize("argv", [
    ("montecarlo", "--group", "so", "--N", "2", "--shifts", "0.5"),
    ("identity-suite",),
    ("crosscheck", "--group", "so", "--N", "2", "--shifts", "0.5", "--routes", "det,montecarlo"),
    ("compute", "--group", "so", "--N", "2", "--shifts", "0.5", "--method", "montecarlo"),
    ("compute", "--group", "so", "--N", "2", "--shifts", "0.5", "--method", "eps"),
])
def test_negative_seed_is_a_usage_error_naming_the_option(capsys, argv):
    # numpy refuses a negative seed in words that name no option, and the
    # routes that draw nothing never see it: every subcommand taking
    # --seed refuses it as it is parsed
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert "--seed must be >= 0" in err


@pytest.mark.parametrize("argv,message", [
    (("compute", "--group", "usp", "--N", "0", "--shifts", "2", "--method", "eps"),
     "argument --N: --N must be >= 1"),
    (("montecarlo", "--group", "so", "--N", "-2", "--shifts", "0.5"),
     "argument --N: --N must be >= 1"),
    (("scaling", "--b", "1", "--N-list", "10,abc"), "argument --N-list: invalid int value: 'abc'"),
    (("scaling", "--b", "1", "--N-list", "10,0"),
     "argument --N-list: --N-list entries must be >= 1"),
    (("scaling", "--b", "1", "--N-list", ","), "argument --N-list: empty list"),
    (("scaling", "--b", ",", "--N-list", "10"), "usage error: empty --b list"),
    (("compute", "--group", "so", "--N", "1", "--shifts", "0.5", "--method", "contour",
      "--nodes", "8"), "usage error: --nodes must be >= 16"),
    (("compute", "--group", "so", "--N", "1", "--shifts", "0.5", "--method", "eps",
      "--digits", "10"), "argument --digits: --digits must be >= 30"),
    (("identity-suite", "--trials", "0"), "argument --trials: --trials must be >= 1"),
    (("identity-suite", "--n-min", "1"), "argument --n-min: --n-min must be >= 2"),
    (("identity-suite", "--x-count", "0"), "argument --x-count: --x-count must be >= 1"),
    (("identity-suite", "--n-min", "4", "--n-max", "3", "--trials", "1"),
     "usage error: --n-max must be >= --n-min (4)"),
    (("compute", "--group", "u", "--N", "2", "--m", "-1", "--shifts", "0.5", "--method", "schur"),
     "argument --m: --m must be >= 0"),
    (("compute", "--group", "u", "--N", "2", "--m", "5", "--shifts", "0.5", "--method", "schur"),
     "usage error: --m must be <= the number of shifts (1)"),
    (("crosscheck", "--group", "u", "--N", "2", "--m", "5", "--shifts", "0.5", "--routes",
      "schur,det"), "usage error: --m must be <= the number of shifts (1)"),
    (("montecarlo", "--group", "u", "--N", "2", "--m", "3", "--shifts", "0.5", "--samples",
      "200"), "usage error: --m must be <= the number of shifts (1)"),
    (("crosscheck", "--group", "usp", "--N", "2", "--shifts", "0.5", "--routes", "schur,eps",
      "--tol=-1"), "usage error: --tol must be >= 0"),
    (("identity-suite", "--trials", "2", "--tol=-1"), "usage error: --tol must be >= 0"),
    *((("identity-suite", f"--radius={r}"), "usage error: --radius must be positive and finite")
      for r in ("-1", "0", "inf", "nan")),
])
def test_size_errors_name_their_option(capsys, argv, message):
    # each was refused (exit 2) in words that named no option or the wrong
    # one: "size must be >= 1", int()'s "invalid literal", "empty shift list",
    # "nodes_per_dim must be >= 16", "digits must be >= 30", "n_min must be >= 2",
    # "n_max must be >= 4", "m must be >= 0", "need 0 <= m <= n",
    # "need 0 <= m <= len(shifts)", "radius must be positive and finite"; a
    # negative --tol was taken, and no pair could pass it (exit 4)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("option", [("--method", "montecarlo", "--samples", "0"),
                                    ("--method", "contour", "--nodes", "0")])
def test_zero_samples_or_nodes_is_a_usage_error(option):
    assert main(["compute", "--group", "so", "--N", "1", "--shifts", "0.5", *option]) == 2


def test_too_few_samples_is_a_usage_error_wherever_a_montecarlo_route_runs(capsys):
    # --samples is checked where it is parsed, also when the routes asked
    # for draw nothing; crosscheck used to run them and exit 0
    for argv in (("crosscheck", "--routes", "schur,eps"),
                 ("crosscheck", "--routes", "schur,montecarlo"),
                 ("compute", "--method", "montecarlo"), ("montecarlo",)):
        command, *rest = argv
        code, out, err = run_cli(capsys, command, "--group", "usp", "--N", "2",
                                 "--shifts", "0.5", *rest, "--samples", "10")
        assert (code, out) == (2, ""), argv
        assert "argument --samples: --samples must be >= 100" in err


@pytest.mark.parametrize("query", [
    ("--group", "u", "--N", "3", "--m", "0", "--shifts", "0.5,0.7+0.1i,-0.4i"),
    ("--group", "usp", "--N", "2", "--shifts", "0.5,0.3"),
])
def test_quadrature_ignores_nodes(capsys, query):
    # the Heine determinant is the same at every node count that does not
    # alias, so the route takes none; 4 nodes would alias both queries
    argv = ("compute", "--method", "quadrature", *query)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--nodes", "4") == (code, out, "")


@pytest.mark.parametrize("option", [("--radius", "0"), ("--n-min", "1"),
                                    ("--radius", "1e-4", "--n-max", "2"),
                                    ("--n-min", "4", "--n-max", "3"), ("--x-count", "-1")])
def test_identity_suite_settings_it_cannot_sample_are_usage_errors(option):
    assert main(["identity-suite", "--trials", "3", *option]) == 2


def test_scaling_cli(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--b", "1", "--N-list", "10,100,1000,10000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,ratio_re,ratio_im,abs_err"
    errs = [float(line.split(",")[3]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 5e-3
    assert main(["scaling", "--k", "2", "--b", "1", "--N-list", "10"]) == 2  # --k is not an option
    assert main(["scaling", "--b", "1,-1", "--N-list", "10"]) == 3  # pole
    capsys.readouterr()
    # b = pi i at N = 1: the exact sum's divisor 1 - exp(-2b/N) vanishes
    code, out, _ = run_cli(capsys, "scaling", "--b", "3.141592653589793i", "--N-list", "1")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"error", "detail"} and report["error"] == "PoleHit"


def test_scaling_refuses_a_cancelling_asymptotic_sum(capsys):
    # b = pi i: e^b = e^(-b) = -1 and the two terms -1/(2b) and -1/(-2b) of the
    # asymptotic sum cancel to rounding; the ratio read -1.28e16 at N = 2
    code, out, _ = run_cli(capsys, "scaling", "--b", "3.141592653589793i", "--N-list", "2")
    assert code == 3
    report = json.loads(out)
    assert report["error"] == "PoleHit" and "asymptotic" in report["detail"]


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


@pytest.mark.parametrize("shifts", ["0.3+0.2i", "37.3+91.1i", "1234.5+0.7i", "0.3+0.2i,1.7-0.4i"])
def test_montecarlo_of_a_constant_integrand_off_zero(capsys, shifts):
    # O^-(2) has no free angle: every sample is the same number, which the
    # mean and spread of the samples would round
    code, out, _ = run_cli(capsys, "montecarlo", "--group", "ominus", "--N", "1",
                           "--shifts", shifts, "--samples", "1000")
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


@pytest.mark.parametrize("query", [
    ("--N", "1", "--shifts", "2", "--method", "eps"),
    ("--N", "2", "--shifts", "0.5,0.5", "--method", "det"),  # NearConfluent: exit 3 otherwise
], ids=["report", "route-error"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys, query, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, _, err = run_cli(capsys, "compute", "--group", "usp", *query, "--out", str(target))
    assert code == 2
    assert err.startswith("usage error: cannot write --out") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ("crosscheck", "--group", "usp", "--N", "2", "--shifts", "0.5,0.3", "--routes", "eps,schur"),
    ("identity-suite", "--trials", "2"),
], ids=["crosscheck", "identity-suite"])
def test_non_finite_tolerance_is_a_usage_error(capsys, command, tol):
    code, out, err = run_cli(capsys, *command, f"--tol={tol}")
    assert code == 2 and out == ""
    assert err.startswith("usage error: non-finite --tol")


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


@pytest.mark.parametrize("given", [
    ("--alpha", "0.1+3.1i,0.15+3.2i"),       # Im alpha past pi: no round trip through log
    ("--shifts=-0.9+0.01i,-0.9-0.02i",),      # principal logs 2 pi apart across the cut
], ids=["alpha", "shifts"])
def test_unitary_contour_cli_near_the_negative_axis(capsys, given):
    # both refused with ContourTooTight (radius 6.28 and 6.35): the route
    # got principal logs, a circle around which crosses the periodic poles
    values = []
    for method in ("contour", "schur"):
        code, out, _ = run_cli(capsys, "compute", "--group", "u", "--N", "2", "--m", "1",
                               *given, "--method", method)
        assert code == 0
        value = json.loads(out)["value"]
        values.append(complex(value["re"], value["im"]))
    assert abs(values[0] - values[1]) <= 1e-12 * max(1.0, abs(values[1]))


@pytest.mark.parametrize("group,N,shifts", [
    ("usp", "1", "-0.5"), ("so", "1", "-0.5"), ("ominus", "1", "-0.5"),
    ("usp", "2", "-0.9+0.01i,-0.9-0.02i"),
], ids=["usp", "so", "ominus", "usp-near-minus-one"])
def test_self_dual_contour_cli_reads_left_half_plane_shifts_as_minus_w(capsys, group, N, shifts):
    # -I is in USp(2N) and SO(2N) and -U stays in O^-(2N), so M(-w) = M(w);
    # the principal logs of these shifts are at least pi/2 from 0 and put the
    # circle on the pole branches (they exited 3, ContourTooTight)
    values = []
    for method in ("contour", "schur"):
        code, out, _ = run_cli(capsys, "compute", "--group", group, "--N", N,
                               f"--shifts={shifts}", "--method", method)
        assert code == 0
        value = json.loads(out)["value"]
        values.append(complex(value["re"], value["im"]))
    assert abs(values[0] - values[1]) <= 1e-12 * max(1.0, abs(values[1]))


def test_self_dual_contour_cli_refuses_shifts_in_both_half_planes(capsys):
    # neither w nor -w puts every shift in Re > 0
    code, out, _ = run_cli(capsys, "compute", "--group", "usp", "--N", "2",
                           "--shifts=-0.9+0.01i,0.9-0.02i", "--method", "contour")
    assert code == 3
    assert json.loads(out) == {"error": "ContourTooTight", "detail": (
        "shifts on both sides of Re w = 0: the self-dual contour reads every w or every -w "
        "(M(-w) = M(w)), and one it reads at Re <= 0 puts the circle on the 2 pi i-periodic "
        "pole branches")}


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
    with pytest.raises(TypeError):
        canonical_json({1, 2})


def test_shifts_and_alpha_are_mutually_exclusive():
    assert main(["compute", "--group", "usp", "--N", "2", "--shifts", "0.5",
                 "--alpha", "0.1", "--method", "eps"]) == 2


# (option strings, dest, default, required) of each subcommand's 44 options
QUERY = [(("--N",), "N", None, True), (("--alpha",), "alpha", None, False),
         (("--group",), "group", None, True), (("--m",), "m", None, False),
         (("--shifts",), "shifts", None, False)]
DIGITS, OUT, SEED = ((("--digits",), "digits", None, False), (("--out",), "out", None, False),
                     (("--seed",), "seed", 1, False))
NODES, SAMPLES, TOL = ((("--nodes",), "nodes", None, False),
                       (("--samples",), "samples", 100000, False), (("--tol",), "tol", None, False))
OPTIONS = {
    "compute": [*QUERY, DIGITS, SEED, OUT, NODES, SAMPLES,
                (("--method",), "method", None, True)],
    "crosscheck": [*QUERY, DIGITS, SEED, OUT, NODES, SAMPLES, TOL,
                   (("--routes",), "routes", None, True)],
    "identity-suite": [DIGITS, SEED, OUT, TOL, (("--trials",), "trials", 500, False),
                       (("--radius",), "radius", 1.0, False),
                       (("--n-min",), "n_min", 2, False), (("--n-max",), "n_max", 6, False),
                       (("--x-count",), "x_count", 20, False)],
    "montecarlo": [*QUERY, SEED, OUT, SAMPLES],
    "scaling": [DIGITS, OUT, (("--b",), "b", None, True),
                (("--N-list",), "N_list", None, True)],
}


def test_each_subcommand_keeps_its_options_and_their_parses():
    # what a subcommand accepts and how it parses, whichever way the parser
    # declares its options
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(OPTIONS)
    for name, p in sub.choices.items():
        rows = [(tuple(a.option_strings), a.dest, a.default, a.required)
                for a in p._actions if a.dest != "help"]
        assert sorted(rows) == sorted(OPTIONS[name]), name
        groups = [(sorted(a.dest for a in g._group_actions), g.required)
                  for g in p._mutually_exclusive_groups]
        has_query = set(QUERY) <= set(OPTIONS[name])
        assert groups == ([(["alpha", "shifts"], True)] if has_query else []), name
    assert sum(len(rows) for rows in OPTIONS.values()) == 44
    compute = {"alpha": None, "digits": None, "out": None, "seed": 1, "nodes": None,
               "samples": 100000}
    suite = {"command": "identity-suite", "func": cli.cmd_identity_suite, "digits": None,
             "seed": 1, "out": None, "tol": None, "trials": 500, "radius": 1.0, "n_min": 2,
             "n_max": 6, "x_count": 20}
    cases = [
        (("compute", "--group", "u", "--N", "3", "--m", "1", "--shifts", "0.5,0.3",
          "--method", "schur"),
         {**compute, "command": "compute", "func": cli.cmd_compute, "group": "u", "N": 3,
          "m": 1, "shifts": "0.5,0.3", "method": "schur"}),
        (("crosscheck", "--group", "usp", "--N", "2", "--alpha", "0.1", "--routes",
          "eps,contour", "--tol", "1e-9", "--nodes", "64", "--samples", "500", "--seed", "4",
          "--digits", "40", "--out", "x.json"),
         {"command": "crosscheck", "func": cli.cmd_crosscheck, "group": "usp", "N": 2,
          "m": None, "shifts": None, "alpha": "0.1", "routes": "eps,contour", "tol": 1e-9,
          "nodes": 64, "samples": 500, "seed": 4, "digits": 40, "out": "x.json"}),
        (("identity-suite",), suite),
        (("identity-suite", "--trials", "3", "--tol", "1e-8", "--n-min", "3", "--n-max", "4",
          "--x-count", "2", "--radius", "0.5", "--seed", "7", "--digits", "35"),
         {**suite, "trials": 3, "tol": 1e-8, "n_min": 3, "n_max": 4, "x_count": 2,
          "radius": 0.5, "seed": 7, "digits": 35}),
        (("montecarlo", "--group", "so", "--N", "2", "--shifts", "0.5", "--samples", "200",
          "--seed", "3"),
         {"command": "montecarlo", "func": cli.cmd_montecarlo, "group": "so", "N": 2,
          "shifts": "0.5", "alpha": None, "m": None, "samples": 200, "seed": 3, "out": None}),
        (("scaling", "--b", "1", "--N-list", "10,100", "--digits", "40"),
         {"command": "scaling", "func": cli.cmd_scaling, "b": "1", "N_list": [10, 100],
          "digits": 40, "out": None}),
    ]
    for argv, namespace in cases:
        assert vars(build_parser().parse_args(argv)) == namespace, argv


@pytest.mark.parametrize("argv", [
    ("montecarlo", "--group", "so", "--N", "1", "--shifts", "0.5", "--samples", "200",
     "--digits", "40"),
    ("scaling", "--b", "1", "--N-list", "10", "--seed", "3"),
])
def test_options_a_command_does_not_read_are_usage_errors(argv):
    assert main(list(argv)) == 2


@pytest.mark.parametrize("command", ["compute", "crosscheck"])
@pytest.mark.parametrize("option", [("--m", "5")])
def test_unitary_split_options_are_usage_errors_for_self_dual_families(capsys, command, option):
    # --m describes the unitary query only
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


@pytest.mark.parametrize("argv", [
    ("compute", "--method", "comb"),
    ("crosscheck", "--routes", "comb,schur"),
], ids=["compute", "crosscheck"])
def test_terms_overflowing_to_opposite_infinities_are_a_numerical_error(capsys, argv):
    # comb's two split terms overflow to -inf and +inf; math.fsum raised
    # "-inf + inf in fsum", which the CLI reported as a usage error (exit 2)
    command, *route = argv
    code, out, _ = run_cli(capsys, command, "--group", "u", "--N", "306", "--m", "1",
                           "--shifts", "10,10.0001", *route)
    assert code == 3
    assert json.loads(out) == {"error": "NonFiniteValue", "detail": "non-finite value in report"}


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


def test_crosscheck_times_an_integration_route_without_its_imports():
    # a fresh interpreter has not imported numpy and haar yet; the Weyl
    # determinant itself takes about 0.05 ms, the imports about 0.2 s
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "rmt_autocorr.cli", "crosscheck",
                           "--group", "usp", "--N", "4", "--shifts", "0.5,0.3",
                           "--routes", "schur,eps,quadrature"], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert json.loads(done.stdout)["routes"]["quadrature"]["seconds"] < 0.05


# A crosscheck whose clock records, at each reading, which modules its
# routes run are not loaded yet
CLOCKED_CROSSCHECK = (
    "import json, sys, time\n"
    "from rmt_autocorr import cli\n"
    "clock, missing = time.perf_counter, []\n"
    "def perf_counter():\n"
    "    missing.append(sorted({'rmt_autocorr.symplectic', 'rmt_autocorr.haar', 'numpy'}\n"
    "                          - set(sys.modules)))\n"
    "    return clock()\n"
    "time.perf_counter = perf_counter\n"
    "code = cli.main(['crosscheck', '--group', 'usp', '--N', '4', '--shifts', '0.5,0.3',\n"
    "                 '--routes', 'schur,eps,quadrature'])\n"
    "print(json.dumps([code, missing]))")


def test_crosscheck_imports_the_family_module_before_its_clock_starts():
    # the routes table imports `symplectic` on a route's first call; a
    # crosscheck imports it, and haar and numpy, before it times a route
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", CLOCKED_CROSSCHECK], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    code, missing = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and missing == [[]] * 6
