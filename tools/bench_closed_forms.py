"""Before/after rows of every closed-form route at the sizes of the `exact`
benchmark grid.

    python3 tools/bench_closed_forms.py BEFORE_ROOT AFTER_ROOT > BENCH_closed_forms.json
    python3 tools/bench_closed_forms.py --measure ROOT

The command lines are `bench_common`'s.  Rows: each family's closed forms
(U(N) `schur`, `det` and `comb`; USp(2N), SO(2N) and O^-(2N) `schur`, `det`
and `eps`) at each (N, k, m) of `bench/workloads.py`'s `exact` grid, on the
first k ROADMAP points 0.9, 0.7+0.3i, -0.5+0.6i, 1.2-0.4i, in double and at
40 digits.  U(N) takes N = 2, 8, 32, 128 and 256, n = 1..4 and m = 0..n;
the others N = 2, 8 and 32 at k = 1..4, and N = 256 by `eps` alone.  The
error is the relative error against `bench_common.reference` at 60 digits,
bound 1e-12 in double and 1e-30 at 40 digits.  The rows of `LOSSES` are
left out: U(N) `det` at m = 1 and n = 3, 4 loses digits there (ROADMAP
item 4), 1e-8 relative at N = 128 and 0.37 at N = 256 in double, 4e-26 at
N = 256 and 40 digits.  A row's one extra is the time of its
first call, made after every per-size memo of the package is emptied, so
that work moved into the first call shows.
"""

from __future__ import annotations

import functools
import sys
import time

from bench_common import POINTS, main, reference, timed

BOUNDS = {None: 1e-12, 40: 1e-30}
ROUTES_OF = {"unitary": ("schur", "det", "comb"), "symplectic": ("schur", "det", "eps"),
             "so": ("schur", "det", "eps"), "ominus": ("schur", "det", "eps")}
# (family, N, k, m) of the exact grid, in row order
SIZES = ([("unitary", N, n, m) for N in (2, 8, 32, 128, 256) for n in range(1, 5)
          for m in range(n + 1)]
         + [(family, N, k, 0) for family in ("symplectic", "so", "ominus")
            for N in (2, 8, 32, 256) for k in range(1, 5)])
# (family, route, N, n, m, digits): the rows where the route is known to lose digits
LOSSES = {("unitary", "det", N, n, 1, digits) for n in (3, 4)
          for N, digits in ((128, None), (256, None), (256, 40))}


def _clear_plans(symcore) -> None:
    """Empty the package's per-size memos; a tree without them has none."""
    for plan in getattr(symcore, "PLANS", ()):
        plan.cache_clear()


def measure(root):
    """{row: [seconds, relative error, bound, first call ms]} of the package
    under root/src."""
    # every family module loads before a call is timed
    from rmt_autocorr import orthogonal, symcore, symplectic, unitary  # noqa: F401
    from rmt_autocorr.precision import PrecisionConfig
    from rmt_autocorr.routes import ROUTES

    rows = {}
    for family, N, k, m in SIZES:
        points = POINTS[:k]
        ref = reference(family, N, points, m)
        size = f"N={N} n={k} m={m}" if family == "unitary" else f"N={N} k={k}"
        routes = ("eps",) if N == 256 and family != "unitary" else ROUTES_OF[family]
        for digits, bound in BOUNDS.items():
            prec = None if digits is None else PrecisionConfig.extended(digits)
            for route in routes:
                if (family, route, N, k, m, digits) in LOSSES:
                    continue
                call = functools.partial(ROUTES[family][route], N, points, m, prec)
                _clear_plans(symcore)
                start = time.perf_counter()
                call()
                first = time.perf_counter() - start
                seconds, value = timed(call)
                precision = "double" if digits is None else f"{digits} digits"
                rows[f"{family}.{route} {size} {precision}"] = [
                    seconds, float(abs(value - ref) / abs(ref)), bound, round(1e3 * first, 4)]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "relative error against the 60-digit det (U(N)) or eps (the others) "
                  "value, bound 1e-12 in double and 1e-30 at 40 digits; left out, where "
                  "the route loses digits (ROADMAP item 4): "
                  + ", ".join(f"{f}.{r} N={N} n={n} m={m} {'double' if d is None else '40 digits'}"
                              for f, r, N, n, m, d in sorted(LOSSES, key=str)),
                  {"first_ms": "ms of the row's first call, after every per-size memo of the "
                               "package is emptied, largest over rounds"}))
