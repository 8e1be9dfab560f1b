"""Before/after rows of the contour routes, a check of each lemma and the
three-angle Weyl quadrature.

    python3 tools/bench_quadrature.py BEFORE_ROOT AFTER_ROOT > BENCH_quadrature.json
    python3 tools/bench_quadrature.py --measure ROOT

The command lines are `bench_common`'s.  Rows:
- the four contour routes (U(N) at m = 1, USp, SO, O^-) at N = 2 on three
  alphas with 128 nodes, on two with 128, 160 and 256 nodes and on one
  with 128 and 256 nodes, the geometries of the benchmark's `checks`
  contour cells;
- `lemma_unitary_check` with the package's `exp_pole` at m = 1, and
  `lemma_sym_check` with it, strict pairs and the plain variant, each on
  two alphas with 128 nodes, as in `checks`;
- `weyl_autocorrelation` with three free angles per family (U(3) at m = 2,
  USp(6), SO(6), O^-(8)) at the four ROADMAP points (one Heine
  determinant each; the route takes no node count).
A route's error is the relative error against the family's closed form
at 60 digits (U(N): `det`, the others: `eps`), at the double shifts the
route integrates (w = exp(sign * alpha), the route and its sign from
`routes.CONTOUR`); a lemma's is its residual over its sum side.
The bound is 1e-12.  The extra is the tracemalloc peak of one call after
the timed calls.
"""

from __future__ import annotations

import cmath
import sys
from functools import partial

from bench_common import POINTS, main, peak_mib, reference, timed

ALPHAS = (0.12 + 0.05j, -0.1 + 0.13j, 0.2 - 0.11j)
BOUND = 1e-12
FAMILIES = ("unitary", "symplectic", "so", "ominus")


def _closed_form_error(family, N, m, shifts, value) -> float:
    ref = complex(reference(family, N, shifts, m))
    return abs(complex(value) - ref) / abs(ref)


def _lemma_error(result) -> float:
    return result.residual / abs(result.lhs)


def cases():
    """(row name, call, error) of every row: error(value) is the relative
    error of the value the call returned."""
    from rmt_autocorr import haar
    from rmt_autocorr.contour import (BipartiteKernel, ContourConfig, SymmetricKernel, exp_pole,
                                      lemma_sym_check, lemma_unitary_check)
    from rmt_autocorr.routes import CONTOUR

    out = []
    for n, nodes in ((3, 128), (2, 128), (2, 160), (2, 256), (1, 128), (1, 256)):
        cfg, al = ContourConfig(nodes_per_dim=nodes), ALPHAS[:n]
        for family, (route, sign) in CONTOUR.items():
            m = 1 if family == "unitary" else 0
            shifts = tuple(cmath.exp(sign * a) for a in al)
            out.append((f"contour {family} N=2 n={n} nodes={nodes}",
                        partial(route, 2, al, m, cfg),
                        partial(_closed_form_error, family, 2, m, shifts)))
    out.append(("lemma_unitary exp_pole m=1 n=2 nodes=128",
                partial(lemma_unitary_check, BipartiteKernel(exp_pole), ALPHAS[:2], 1,
                        ContourConfig(128)),
                _lemma_error))
    kernel = SymmetricKernel(exp_pole, include_diagonal=False)
    out.append(("lemma_sym exp_pole diag=False plain k=2 nodes=128",
                partial(lemma_sym_check, kernel, ALPHAS[:2], "plain", ContourConfig(128)),
                _lemma_error))
    for family in FAMILIES:
        N = 4 if family == "ominus" else 3
        m = 2 if family == "unitary" else 0
        spec = haar.group(family, N)
        out.append((f"weyl {family} N={N} angles=3 k=4",
                    partial(haar.weyl_autocorrelation, spec, POINTS, m),
                    partial(_closed_form_error, family, N, m, POINTS)))
    return out


def measure(root):
    """{row: [seconds, relative error, bound, peak MiB]} of the package under
    root/src."""
    rows = {}
    for name, call, error in cases():
        seconds, value = timed(call)
        rows[name] = [seconds, error(value), BOUND, peak_mib(call)]
    return rows


if __name__ == "__main__":
    sys.exit(main(__file__, measure,
                  "relative error against the 60-digit det (U(N)) or eps (USp, SO, O^-) "
                  "closed form at the double shifts the route integrates; a lemma row's "
                  "residual over its sum side",
                  {"peak_mib": "tracemalloc peak of one call after the timed calls, MiB, "
                               "largest over rounds"}))
