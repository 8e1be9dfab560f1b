"""Command-line front end.

Subcommands: ``compute`` (one route, one JSON line), ``crosscheck`` (all
requested routes with pairwise deviations), ``identity-suite`` (randomized
residual sweep), ``montecarlo`` (sampled mean vs exact value with a
z-score), ``scaling`` (large-N ratio table as CSV).

Exit codes: 0 success / all checks passed, 2 usage error, 3 numerical
route error (NearConfluent, PoleHit, DimensionCap, ContourTooTight), 4 a
cross-check, identity or Monte Carlo gate failed.

Output is deterministic given the full argument list: JSON objects are
emitted with sorted keys and 17-significant-digit floats, so re-serializing
a parsed report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from typing import Sequence

from . import haar, orthogonal, routes, symplectic, unitary
from .contour import ContourConfig
from .errors import RouteError
from .identities import run_identity_suite
from .precision import PrecisionConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ROUTE = 3
EXIT_FAIL = 4

_METHODS_BY_FAMILY = {family: (*table, "contour", "quadrature", "montecarlo")
                      for family, table in routes.ROUTES.items()}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    if x == 0:
        x = 0.0  # normalize -0.0 so round-trips stay byte-identical
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, complex):
        return canonical_json({"im": obj.imag, "re": obj.real})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + canonical_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text + "\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def parse_complex(token: str) -> complex:
    t = token.strip().replace(" ", "").replace("I", "i").replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex literal {token!r}") from exc


def parse_complex_list(text: str) -> list[complex]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError("empty shift list")
    return [parse_complex(t) for t in items]


def _alpha_to_shifts(family: str, alphas: Sequence[complex]) -> list[complex]:
    # shift conventions: w = exp(-alpha) for U and USp, w = exp(+alpha) for SO/O-
    sign = 1.0 if family in ("so", "ominus") else -1.0
    return [cmath.exp(sign * a) for a in alphas]


def _shifts_to_alpha(family: str, shifts: Sequence[complex]) -> list[complex]:
    sign = 1.0 if family in ("so", "ominus") else -1.0
    return [sign * cmath.log(w) for w in shifts]


def _resolve_precision(args) -> PrecisionConfig | None:
    digits = getattr(args, "digits", None)
    if digits is None:
        return None
    return PrecisionConfig.extended(digits)


def _query_spec(args):
    spec = haar.GroupSpec(args.group, args.N)
    if getattr(args, "alpha", None):
        alphas = parse_complex_list(args.alpha)
        shifts = _alpha_to_shifts(spec.family, alphas)
    elif getattr(args, "shifts", None):
        shifts = parse_complex_list(args.shifts)
        alphas = None
    else:
        raise UsageError("provide --shifts or --alpha")
    m = getattr(args, "m", None)
    if spec.family == "unitary":
        if m is None:
            raise UsageError("the unitary family requires --m")
        n = getattr(args, "n", None)
        if n is not None and n != len(shifts):
            raise UsageError("--n must equal the number of shifts")
        if not 0 <= m <= len(shifts):
            raise UsageError("need 0 <= m <= n")
    else:
        m = 0
    return spec, shifts, alphas, m


def _precision_echo(prec: PrecisionConfig | None) -> dict:
    if prec is None:
        return {"mode": "machine-double"}
    return {"mode": prec.mode, "digits": prec.digits}


def _query_echo(spec, shifts, m) -> dict:
    echo = {"family": spec.family, "N": spec.size,
            "shifts": [complex(w) for w in shifts]}
    if spec.family == "unitary":
        echo["m"] = m
        echo["n"] = len(shifts)
    return echo


def _route_value(spec, shifts, alphas, m, method, args, prec):
    fam = spec.family
    if method in routes.ROUTES[fam]:
        return routes.ROUTES[fam][method](spec.size, shifts, m, prec), None
    if prec is not None:
        raise UsageError("--digits applies to the closed-form routes and the "
                         "identity suite; integration routes run in double precision")
    if method == "quadrature":
        nodes = getattr(args, "nodes", None)
        return haar.weyl_autocorrelation(spec, shifts, m, nodes_per_dim=nodes), None
    if method == "contour":
        al = alphas if alphas is not None else _shifts_to_alpha(fam, shifts)
        cfg = ContourConfig(nodes_per_dim=getattr(args, "nodes", None) or 128)
        if fam == "unitary":
            return unitary.autocorr_contour(spec.size, al, m, cfg), None
        if fam == "symplectic":
            return symplectic.sp_autocorr_contour(spec.size, al, cfg), None
        return orthogonal.orthogonal_contour(fam, spec.size, al, cfg), None
    if method == "montecarlo":
        samples = getattr(args, "samples", None) or 100000
        if samples < 100:
            raise UsageError("--samples must be >= 100")
        integrand = haar.autocorr_integrand(spec, shifts, m)
        mean, stderr = haar.monte_carlo_average(spec, integrand, args.seed, samples)
        return mean, stderr
    raise UsageError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    prec = _resolve_precision(args)
    spec, shifts, alphas, m = _query_spec(args)
    if args.method not in _METHODS_BY_FAMILY[spec.family]:
        raise UsageError(f"method {args.method!r} is not available for {spec.family}")
    value, stderr = _route_value(spec, shifts, alphas, m, args.method, args, prec)
    report = {
        "value": complex(value),
        "method": args.method,
        "error_estimate": stderr,
        "query": _query_echo(spec, shifts, m),
        "precision": _precision_echo(prec),
    }
    _emit(canonical_json(report), args.out)
    return EXIT_OK


def _deviation(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    return diff / scale if scale > 1.0 else diff


def cmd_crosscheck(args) -> int:
    prec = _resolve_precision(args)
    spec, shifts, alphas, m = _query_spec(args)
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    if len(routes) < 2:
        raise UsageError("crosscheck needs at least two routes")
    for r in routes:
        if r not in _METHODS_BY_FAMILY[spec.family]:
            raise UsageError(f"route {r!r} is not available for {spec.family}")
    tol = args.tol if args.tol is not None else (prec.agreement_tol if prec else 1e-9)
    values: dict[str, complex] = {}
    timings: dict[str, float] = {}
    for r in routes:
        t0 = time.perf_counter()
        val, _ = _route_value(spec, shifts, alphas, m, r, args, prec)
        timings[r] = time.perf_counter() - t0
        values[r] = complex(val)
    pairwise = {}
    worst = 0.0
    names = sorted(values)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            d = _deviation(values[a], values[b])
            pairwise[f"{a}|{b}"] = d
            worst = max(worst, d)
    passed = worst <= tol
    report = {
        "query": _query_echo(spec, shifts, m),
        "precision": _precision_echo(prec),
        "routes": {r: {"value": values[r], "seconds": timings[r]} for r in routes},
        "pairwise_deviation": pairwise,
        "max_deviation": worst,
        "agreement_tol": tol,
        "pass": passed,
    }
    _emit(canonical_json(report), args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_identity_suite(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    prec = _resolve_precision(args)
    if args.tol is not None:
        tol = args.tol
    else:
        tol = 1e-10 if prec is None else 10.0 ** (-(prec.digits - 10))
    report = run_identity_suite(args.trials, args.seed, prec,
                                n_min=args.n_min, n_max=args.n_max,
                                radius=args.radius, random_x_count=args.x_count)
    payload = report.as_dict()
    payload["tolerance"] = tol
    payload["pass"] = report.worst() <= tol
    _emit(canonical_json(payload), args.out)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_montecarlo(args) -> int:
    spec, shifts, _alphas, m = _query_spec(args)
    if args.samples < 100:
        raise UsageError("--samples must be >= 100")
    exact = complex(routes.canonical_value(spec.family, spec.size, shifts, m))
    integrand = haar.autocorr_integrand(spec, shifts, m)
    mean, stderr = haar.monte_carlo_average(spec, integrand, args.seed, args.samples)
    if stderr > 0:
        z = abs(mean - exact) / stderr
    else:
        z = 0.0 if abs(mean - exact) <= 1e-12 else float("inf")
    passed = z <= 4.0
    report = {
        "query": _query_echo(spec, shifts, m),
        "samples": args.samples,
        "seed": args.seed,
        "mc_mean": mean,
        "std_error": stderr,
        "exact": exact,
        "z_score": z,
        "pass": passed,
    }
    _emit(canonical_json(report), args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_scaling(args) -> int:
    b = parse_complex_list(args.b)
    if args.k is not None and args.k != len(b):
        raise UsageError("--k must equal the number of b values")
    try:
        n_list = [int(t) for t in args.N_list.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError("--N-list must be a comma-separated list of integers") from exc
    if not n_list or any(n < 1 for n in n_list):
        raise UsageError("--N-list entries must be positive integers")
    lines = ["N,ratio_re,ratio_im,abs_err"]
    for n in n_list:
        ratio = complex(symplectic.sp_large_n_ratio(b, n))
        lines.append(",".join([str(n), _format_float(ratio.real),
                               _format_float(ratio.imag), _format_float(abs(ratio - 1.0))]))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_query: bool = True) -> None:
    if with_query:
        p.add_argument("--group", required=True,
                       help="group family: u, usp, so, ominus")
        p.add_argument("--N", required=True, type=int, help="size parameter")
        p.add_argument("--shifts", help="comma-separated complex shifts, e.g. 0.5,1+0.2i")
        p.add_argument("--alpha", help="shifts in exponentiated coordinates "
                                       "(w = exp(-alpha) for u/usp, exp(+alpha) for so/ominus)")
        p.add_argument("--m", type=int, help="unitary split point (adjoint block size)")
        p.add_argument("--n", type=int, help="unitary total shift count (optional check)")
    p.add_argument("--digits", type=int, help="extended-precision decimal digits (>= 30)")
    p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    p.add_argument("--out", help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmt-autocorr",
        description="Shifted moments of characteristic polynomials over the "
                    "compact classical groups, with cross-checked routes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one route")
    _add_common(p)
    p.add_argument("--method", required=True,
                   help="schur | det | comb (u) / eps | contour | quadrature | montecarlo")
    p.add_argument("--nodes", type=int, help="nodes per dimension (quadrature/contour)")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("crosscheck", help="evaluate several routes and compare")
    _add_common(p)
    p.add_argument("--routes", required=True, help="comma-separated route list")
    p.add_argument("--tol", type=float, help="agreement tolerance")
    p.add_argument("--nodes", type=int, help="nodes per dimension (quadrature/contour)")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("identity-suite", help="randomized identity residual sweep")
    _add_common(p, with_query=False)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--tol", type=float, help="max allowed residual")
    p.add_argument("--radius", type=float, default=1.0, help="shift sampling disk radius")
    p.add_argument("--n-min", dest="n_min", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.add_argument("--x-count", dest="x_count", type=int, default=20)
    p.set_defaults(func=cmd_identity_suite)

    p = sub.add_parser("montecarlo", help="Monte Carlo mean vs the exact value")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("scaling", help="large-N ratio table (CSV)")
    _add_common(p, with_query=False)
    p.add_argument("--k", type=int, help="shift count (checked against --b)")
    p.add_argument("--b", required=True, help="comma-separated b values")
    p.add_argument("--N-list", dest="N_list", required=True,
                   help="comma-separated size parameters")
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "digits", None) is not None and args.digits < 30:
            raise UsageError("--digits must be >= 30")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RouteError as exc:
        _emit(canonical_json({"error": type(exc).__name__, "detail": str(exc)}),
              getattr(args, "out", None))
        print(f"numerical route error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ROUTE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
