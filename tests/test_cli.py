"""CLI behavior: values, exit codes, determinism, canonical serialization."""

import json

import pytest

from rmt_autocorr.cli import canonical_json, main, parse_complex


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
