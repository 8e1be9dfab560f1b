"""Before/after rows of the 40-digit routes that no other BENCH file times.

    python3 tools/bench_extended.py BEFORE_ROOT AFTER_ROOT > BENCH_extended.json
    python3 tools/bench_extended.py --measure ROOT

The command lines are `bench_common`'s.  Rows: the U(N) `det`, `comb` and
`schur` routes (m = 2) and the USp(2N), SO(2N) and O^-(2N) `eps` routes, at
40 digits, N = 2 and 32, on the ROADMAP points 0.9, 0.7+0.3i, -0.5+0.6i,
1.2-0.4i.  The error is the relative error against the same tree's
60-digit value of another route (`REFERENCE`), bound 1e-30.  Three more
rows read the input's digits: the U(N) `det`, `comb` and `schur` routes at
40 digits, N = 1 and m = 0, on the 31-digit shift `SHIFT`, whose moment is
the shift itself; their error is |value - SHIFT| / |SHIFT|, bound 1e-30.
A row's two extras, `mults` and `divs`, are the `DecimalComplex`
multiplications and divisions of one call, counted in the measuring
process by wrapping the class's methods around one untimed call.
"""

from __future__ import annotations

import functools
import sys

from bench_common import POINTS, main, timed

BOUND = 1e-30
SHIFT = "0.1000000000000000000000000000001"   # 5.6e-17 relative from its double
SIZES = (2, 32)
SPLIT = 2
# (family, route) -> the route whose 60-digit value is the row's reference
REFERENCE = {("unitary", "det"): "comb", ("unitary", "comb"): "schur",
             ("unitary", "schur"): "det", ("symplectic", "eps"): "det",
             ("so", "eps"): "det", ("ominus", "eps"): "det"}


def counted(call) -> list:
    """[multiplications, divisions] of `DecimalComplex` in one call(): the
    class's `__mul__`, `__rmul__` and `__truediv__` count while it runs
    (`__rtruediv__` and `__pow__` go through them)."""
    from rmt_autocorr.precision import DecimalComplex

    counts = [0, 0]
    saved = {name: DecimalComplex.__dict__[name] for name in ("__mul__", "__rmul__", "__truediv__")}

    def counting(fn, at):
        def method(*args):
            counts[at] += 1
            return fn(*args)
        return method

    for name, fn in saved.items():
        setattr(DecimalComplex, name, counting(fn, int(name == "__truediv__")))
    try:
        call()
    finally:
        for name, fn in saved.items():
            setattr(DecimalComplex, name, fn)
    return counts


def measure(root):
    """{row: [seconds, relative error, bound, mults, divs]} of the package
    under root/src."""
    from decimal import Decimal

    from rmt_autocorr.precision import PrecisionConfig, ops_for
    from rmt_autocorr.routes import ROUTES

    prec, ref_prec = PrecisionConfig.extended(40), PrecisionConfig.extended(60)
    rows = {}
    for N in SIZES:
        for (family, route), ref_route in REFERENCE.items():
            call = functools.partial(ROUTES[family][route], N, POINTS, SPLIT, prec)
            seconds, value = timed(call)
            ref = ROUTES[family][ref_route](N, POINTS, SPLIT, ref_prec)
            rows[f"{family}.{route} N={N} 40 digits"] = [
                seconds, float(abs(value - ref) / abs(ref)), BOUND, *counted(call)]
    w = ops_for(ref_prec).scalar(Decimal(SHIFT))
    for route in ("det", "comb", "schur"):
        call = functools.partial(ROUTES["unitary"][route], 1, (w,), 0, prec)
        seconds, value = timed(call)
        rows[f"unitary.{route} N=1 m=0 31-digit shift 40 digits"] = [
            seconds, float(abs(value - w) / abs(w)), BOUND, *counted(call)]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "relative error against the 60-digit value of another route: "
                  + ", ".join(f"{f}.{r} against {ref}" for (f, r), ref in REFERENCE.items())
                  + f"; the 31-digit shift rows against the shift {SHIFT} itself",
                  {"mults": "DecimalComplex multiplications of one call",
                   "divs": "DecimalComplex divisions of one call"}))
