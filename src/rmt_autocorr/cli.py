"""Command-line front end.

Subcommands: ``compute`` (one route, one JSON line), ``crosscheck`` (all
requested routes with pairwise deviations; a pair passes within the
tolerance plus `Z_MAX` of its Monte Carlo standard errors),
``identity-suite`` (randomized residual sweep), ``montecarlo`` (sampled
mean vs exact value with a z-score), ``scaling`` (large-N ratio table as
CSV).

Exit codes: 0 success / all checks passed, 2 usage error (a non-finite
input or an unwritable --out among them), 3 numerical route error
(NearConfluent, PoleHit, DimensionCap, ContourTooTight, PrecisionLoss, an
OverflowError of the arithmetic, or an inf or NaN in the report), 4 a
cross-check, identity or Monte Carlo gate failed.

The closed-form routes need no numpy, so this module imports `haar` and
`identities`, which do, only in the commands that run them; a route's
family module is imported by its `routes` table entry, so a closed form
loads its family's module alone.

Output is deterministic given the full argument list: JSON objects are
emitted with sorted keys and 17-significant-digit floats, so re-serializing
a parsed report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from typing import Callable, Sequence

from . import routes
from .contour import ContourConfig
from .errors import ContourTooTight, PoleHit, RouteError, require_count
from .precision import PrecisionConfig, ops_for

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ROUTE = 3
EXIT_FAIL = 4

# Standard errors a sampled value may stray: the Monte Carlo gate, and the
# error-bar term of a crosscheck pair
Z_MAX = 4.0

_METHODS_BY_FAMILY = {family: (*table, "contour", "quadrature", "montecarlo")
                      for family, table in routes.ROUTES.items()}


class UsageError(ValueError):
    pass


class NonFiniteValue(ValueError):
    """An inf or NaN in a report: the route failed, not its input."""


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteValue("non-finite value in report")
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
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from None


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def parse_complex(token: str) -> complex:
    """A finite complex literal; a trailing i or I is the imaginary unit."""
    t = token.strip().replace(" ", "")
    if t[-1:] in ("i", "I"):
        t = t[:-1] + "j"
    try:
        z = complex(t)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex literal {token!r}") from exc
    if not cmath.isfinite(z):
        raise UsageError(f"non-finite complex literal {token!r}")
    return z


def parse_complex_list(text: str, what: str = "shift list") -> list[complex]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"empty {what}")
    return [parse_complex(t) for t in items]


def _resolve_precision(args) -> PrecisionConfig | None:
    return None if args.digits is None else PrecisionConfig(args.digits)


def _tolerance(args, default: float) -> float:
    """--tol, or `default` when it is not given; a non-finite or negative --tol is a usage error."""
    if args.tol is None:
        return default
    if not math.isfinite(args.tol):
        raise UsageError(f"non-finite --tol {args.tol!r}")
    if args.tol < 0:
        raise UsageError("--tol must be >= 0")
    return args.tol


def _query_spec(args):
    spec = routes.GroupSpec(args.group, args.N)
    if args.alpha is not None:
        _route, sign = routes.CONTOUR[spec.family]
        shifts = [cmath.exp(sign * a) for a in parse_complex_list(args.alpha)]
    else:
        shifts = parse_complex_list(args.shifts)
    if spec.family != "unitary":
        if args.m is not None:
            raise UsageError("--m applies to the unitary family only")
        return spec, shifts, 0
    if args.m is None:
        raise UsageError("the unitary family requires --m")
    if args.m > len(shifts):
        raise UsageError(f"--m must be <= the number of shifts ({len(shifts)})")
    return spec, shifts, args.m


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


def _check_method(family: str, method: str) -> None:
    if method not in _METHODS_BY_FAMILY[family]:
        raise UsageError(f"method {method!r} is not available for {family}")


def _contour_alphas(args, spec, shifts, sign: int) -> list[complex]:
    """The contour route's alphas: --alpha as given, or sign * log w of each
    of --shifts.  The U(N) circle encloses the alphas, so each log is moved
    by the multiple of 2 pi i that puts it within pi of the first one
    (principal logs across the negative axis lie 2 pi apart).  The self-dual
    circle encloses +-alpha around 0, which principal logs keep smallest; a
    shift with Re w <= 0 has a log at least pi/2 from 0, which puts the
    circle on the pole branches.  -I is in USp(2N) and SO(2N) and -U stays
    in O^-(2N), so M(-w) = M(w): shifts that all have Re w < 0 are read as -w."""
    if args.alpha is not None:
        return parse_complex_list(args.alpha)
    if spec.family != "unitary":
        left = [w.real < 0 for w in shifts]
        if any(left) and not all(left):
            raise ContourTooTight(
                "shifts on both sides of Re w = 0: the self-dual contour reads every w "
                "or every -w (M(-w) = M(w)), and one it reads at Re <= 0 puts the circle "
                "on the 2 pi i-periodic pole branches")
        return [sign * cmath.log(-w if left[0] else w) for w in shifts]
    alphas = [sign * cmath.log(w) for w in shifts]
    return [a - 2j * math.pi * round((a.imag - alphas[0].imag) / (2 * math.pi)) for a in alphas]


def _route_value(spec, shifts, m, method, args, prec):
    """(value, Monte Carlo standard error or None) of one route."""
    fam = spec.family
    _check_method(fam, method)
    if method in routes.ROUTES[fam]:
        return routes.ROUTES[fam][method](spec.size, shifts, m, prec), None
    if prec is not None:
        raise UsageError("--digits applies to the closed-form routes, scaling and the "
                         "identity suite; integration routes run in double precision")
    if method == "contour":
        if 0 in shifts:  # also an --alpha whose shift underflows
            raise PoleHit("contour route needs nonzero shifts")
        route, sign = routes.CONTOUR[fam]
        # checked here, not where it is parsed: the other routes ignore --nodes
        cfg = ContourConfig() if args.nodes is None else ContourConfig(
            require_count(args.nodes, 16, "--nodes"))
        return route(spec.size, _contour_alphas(args, spec, shifts, sign), m, cfg), None
    from . import haar

    if method == "quadrature":
        return haar.weyl_autocorrelation(spec, shifts, m), None
    # method == "montecarlo"
    integrand = haar.autocorr_integrand(spec, shifts, m)
    return haar.monte_carlo_average(spec, integrand, args.seed, args.samples)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    prec = _resolve_precision(args)
    spec, shifts, m = _query_spec(args)
    value, stderr = _route_value(spec, shifts, m, args.method, args, prec)
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
    spec, shifts, m = _query_spec(args)
    requested = list(dict.fromkeys(r.strip() for r in args.routes.split(",") if r.strip()))
    if len(requested) < 2:
        raise UsageError("crosscheck needs at least two distinct routes")
    for r in requested:
        _check_method(spec.family, r)
    tol = _tolerance(args, ops_for(prec).agreement_tol)
    # imported untimed: the family's module, and an integration route's numpy
    # and haar, are no route's cost
    routes.family_module(spec.family)
    if set(requested) - set(routes.ROUTES[spec.family]):
        from . import haar  # noqa: F401
    entries: dict[str, dict] = {}
    for r in requested:
        t0 = time.perf_counter()
        val, err = _route_value(spec, shifts, m, r, args, prec)
        entries[r] = {"value": complex(val), "seconds": time.perf_counter() - t0}
        if err is not None:
            entries[r]["error_estimate"] = err
    pairwise = {}
    worst = 0.0
    passed = True
    names = sorted(entries)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, vb = entries[a]["value"], entries[b]["value"]
            d = _deviation(va, vb)
            pairwise[f"{a}|{b}"] = d
            worst = max(worst, d)
            # |a - b| <= tol max(1, |a|, |b|) + Z_MAX sqrt(e_a^2 + e_b^2), over
            # max(1, |a|, |b|): d <= tol where neither route has a bar
            bars = math.hypot(entries[a].get("error_estimate", 0.0),
                              entries[b].get("error_estimate", 0.0))
            passed &= d <= tol + Z_MAX * bars / max(1.0, abs(va), abs(vb))
    report = {
        "query": _query_echo(spec, shifts, m),
        "precision": _precision_echo(prec),
        "routes": entries,
        "pairwise_deviation": pairwise,
        "max_deviation": worst,
        "agreement_tol": tol,
        "pass": passed,
    }
    _emit(canonical_json(report), args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_identity_suite(args) -> int:
    from .identities import run_identity_suite

    if args.n_max < args.n_min:
        raise UsageError(f"--n-max must be >= --n-min ({args.n_min})")
    if not 0 < args.radius < math.inf:  # NaN refuses too
        raise UsageError("--radius must be positive and finite")
    prec = _resolve_precision(args)
    tol = _tolerance(args, 1e-10 if prec is None else 10.0 ** (-(prec.digits - 10)))
    report = run_identity_suite(args.trials, args.seed, prec,
                                n_min=args.n_min, n_max=args.n_max,
                                radius=args.radius, random_x_count=args.x_count)
    payload = report.as_dict()
    payload["tolerance"] = tol
    payload["pass"] = report.worst() <= tol
    _emit(canonical_json(payload), args.out)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_montecarlo(args) -> int:
    spec, shifts, m = _query_spec(args)
    mean, stderr = _route_value(spec, shifts, m, "montecarlo", args, None)
    exact = complex(routes.canonical_value(spec.family, spec.size, shifts, m))
    if stderr > 0:
        z = abs(mean - exact) / stderr
    else:
        z = 0.0 if _deviation(mean, exact) <= 1e-12 else float("inf")
    passed = z <= Z_MAX
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
    from .symplectic import sp_large_n_ratio

    prec = _resolve_precision(args)
    b = parse_complex_list(args.b, "--b list")
    lines = ["N,ratio_re,ratio_im,abs_err"]
    for n in args.N_list:
        ratio = complex(sp_large_n_ratio(b, n, prec))
        lines.append(",".join([str(n), _format_float(ratio.real),
                               _format_float(ratio.imag), _format_float(abs(ratio - 1.0))]))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _count(option: str, least: int) -> Callable[[str], int]:
    """The argparse type of an integer option >= `least`, checked where it is
    parsed: numpy's generators refuse a negative seed in words that name no
    option, and the package's own checks name a field (size, digits, n_min)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{option} must be >= {least}")
        return value
    return parse


def _size_list(text: str) -> list[int]:
    """A comma-separated --N-list, each entry a `_count` >= 1."""
    sizes = [_count("--N-list entries", 1)(t) for t in text.split(",") if t.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("empty list")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    # each shared option is declared once, on a parent parser (the query's on one)
    query, digits, seed, out, nodes, samples, tol = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    query.add_argument("--group", required=True, help="group family: u, usp, so, ominus")
    query.add_argument("--N", required=True, type=_count("--N", 1), help="size parameter")
    given = query.add_mutually_exclusive_group(required=True)
    given.add_argument("--shifts", help="comma-separated complex shifts, e.g. 0.5,1+0.2i")
    given.add_argument("--alpha", help="shifts in exponentiated coordinates "
                                       "(w = exp(-alpha) for u/usp, exp(+alpha) for so/ominus)")
    query.add_argument("--m", type=_count("--m", 0),
                       help="unitary split point (adjoint block size)")
    digits.add_argument("--digits", type=_count("--digits", 30),
                        help="extended-precision decimal digits (>= 30)")
    seed.add_argument("--seed", type=_count("--seed", 0), default=1,
                      help="RNG seed >= 0 (default 1)")
    out.add_argument("--out", help="also write the report to this file")
    nodes.add_argument("--nodes", type=int, help="nodes per circle of the contour route")
    samples.add_argument("--samples", type=_count("--samples", 100), default=100000,
                         help="Monte Carlo sample count")
    tol.add_argument("--tol", type=float, help="crosscheck: agreement tolerance; "
                                               "identity-suite: largest allowed residual")
    route = (query, digits, seed, out, nodes, samples)  # what evaluating a route reads

    parser = argparse.ArgumentParser(
        prog="rmt-autocorr",
        description="Shifted moments of characteristic polynomials over the "
                    "compact classical groups, with cross-checked routes.")
    # allow_abbrev=False: an option matches by its whole name only, so an
    # unknown one such as --n is a usage error, not a prefix of --nodes
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, parents=parents, allow_abbrev=False, help=help)
        p.set_defaults(func=func)
        return p

    p = command("compute", cmd_compute, "evaluate one route", *route)
    p.add_argument("--method", required=True,
                   help="schur | det | comb (u) / eps | contour | quadrature | montecarlo")

    p = command("crosscheck", cmd_crosscheck, "evaluate several routes and compare", *route, tol)
    p.add_argument("--routes", required=True, help="comma-separated route list")

    p = command("identity-suite", cmd_identity_suite, "randomized identity residual sweep",
                digits, seed, out, tol)
    p.add_argument("--trials", type=_count("--trials", 1), default=500)
    p.add_argument("--radius", type=float, default=1.0, help="shift sampling disk radius")
    p.add_argument("--n-min", dest="n_min", type=_count("--n-min", 2), default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.add_argument("--x-count", dest="x_count", type=_count("--x-count", 1), default=20)

    command("montecarlo", cmd_montecarlo, "Monte Carlo mean vs the exact value",
            query, seed, out, samples)

    p = command("scaling", cmd_scaling, "large-N ratio table (CSV)", digits, out)
    p.add_argument("--b", required=True, help="comma-separated b values")
    p.add_argument("--N-list", dest="N_list", required=True, type=_size_list,
                   help="comma-separated size parameters")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        try:
            return args.func(args)
        except (RouteError, OverflowError, NonFiniteValue) as exc:
            _emit(canonical_json({"error": type(exc).__name__, "detail": str(exc)}), args.out)
            print(f"numerical route error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_ROUTE
    except ValueError as exc:  # also an unwritable --out for the route-error report
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
