"""Seeded operation lists for the three workloads, and their references.

A workload is a fixed list of operations: the grid of cells (route,
family, N, k, shift geometry, precision) is the same for every seed, and
the seed only draws the shift values inside each cell.  Run time and the
accuracy fractions therefore depend on the grid, not on the draw, which is
what keeps them steady from seed to seed.

Every operation calls one public function of the package through its
module attribute at call time, so a traced run can wrap that attribute.
References are computed once per distinct query, untimed, by an
independent route at 60 digits.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rmt_autocorr import contour, haar, identities, orthogonal, symplectic, unitary
from rmt_autocorr.contour import BipartiteKernel, ContourConfig, SymmetricKernel
from rmt_autocorr.errors import RouteError
from rmt_autocorr.haar import GroupSpec
from rmt_autocorr.precision import PrecisionConfig
from rmt_autocorr.unitary import UnitaryQuery

from checker import IDENTITY, LEMMA, VALUE, Z

WORKLOADS = ("exact", "montecarlo", "checks")

PACKAGE = {m.__name__.rsplit(".", 1)[1]: m
           for m in (contour, haar, identities, orthogonal, symplectic, unitary)}

REF = PrecisionConfig.extended(60)
EXT = PrecisionConfig.extended(40)
DOUBLE_TOL = 1e-9                  # PrecisionConfig.double().agreement_tol
EXT_TOL = EXT.agreement_tol        # 1e-25
SELF_CHECK_TOL = 1e-30

# ROADMAP item 2: measured silent failures of the double-precision routes.
ROADMAP_POINTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)

# Term-count cap of the self-dual partition/index sums: binomial(k + N, k)
# <= 60,000 keeps k = 4, N = 32 (58,905 terms, the slowest cell) and drops
# nothing else from the N <= 32 grid.  N = 256 runs the 2^k closed forms only.
TERM_CAP = 60_000

# Closed-form routes: family -> route -> package function.
CLOSED_FORMS = {
    "unitary": {"schur": "unitary.autocorr_schur", "det": "unitary.autocorr_det",
                "comb": "unitary.autocorr_comb"},
    "symplectic": {"schur": "symplectic.sp_autocorr_schur", "det": "symplectic.sp_autocorr_det",
                   "eps": "symplectic.sp_autocorr_eps"},
    "so": {"schur": "orthogonal.so_autocorr_schur", "det": "orthogonal.so_autocorr_det",
           "eps": "orthogonal.so_autocorr_eps"},
    "ominus": {"schur": "orthogonal.ominus_autocorr_schur", "det": "orthogonal.ominus_autocorr_det",
               "eps": "orthogonal.ominus_autocorr_eps"},
}
CONTOUR_ROUTES = {"unitary": "unitary.contour", "symplectic": "symplectic.contour",
                  "so": "orthogonal.contour", "ominus": "orthogonal.contour"}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    cell     grid-cell label; carries no seeded value, so failures can be
             listed by cell across seeds
    route    "<module>.<route>" whose per-layer accuracy counters this op
             feeds, or None
    call     module-level function of this file; resolves the package
             function at call time
    check    verdict kind (see checker)
    ref_key  (family, N, m, shifts) of the reference value, or None
    """

    cell: str
    route: str | None
    call: Callable
    args: tuple
    check: str
    tol: float
    ref_key: tuple | None = None

    def signature(self) -> tuple:
        return (self.cell, self.route, self.call.__name__, self.args, self.check,
                self.tol, self.ref_key)


def package_call(path: str, *args):
    module, name = path.split(".")
    return getattr(PACKAGE[module], name)(*args)


def closed_form_args(family: str, route: str, N: int, m: int, shifts: tuple, prec) -> tuple:
    """package_call arguments of one closed-form route."""
    path = CLOSED_FORMS[family][route]
    if family == "unitary":
        return path, UnitaryQuery(N, m, shifts), prec
    return path, N, shifts, prec


def route_metric(family: str, route: str) -> str:
    """The per-layer name of a closed-form route, e.g. orthogonal.so_det."""
    module = CLOSED_FORMS[family][route].split(".")[0]
    return f"{module}.{family}_{route}" if module == "orthogonal" else f"{module}.{route}"


def monte_carlo(spec: GroupSpec, shifts: tuple, m: int, rng_seed: int, count: int):
    integrand = haar.autocorr_integrand(spec, shifts, m)
    return haar.monte_carlo_average(spec, integrand, rng_seed, count)


def inverse_pole(x):
    return 1.0 / x


def exp_pole(x):
    return 1.0 / (1.0 - np.exp(-x))


# ---------------------------------------------------------------------------
# Shift geometries
# ---------------------------------------------------------------------------

def shift_vector(rng: np.random.Generator, k: int, lo: float, hi: float,
                 sep: float = 0.25, margin: float = 0.05) -> tuple[complex, ...]:
    """k points with modulus in [lo, hi], pairwise separation >= sep, and
    |1 - w_i w_j| >= margin (i <= j), away from the sign-vector poles."""
    out: list[complex] = []
    while len(out) < k:
        c = cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))
        if any(abs(c - p) < sep for p in out):
            continue
        if abs(1 - c * c) < margin or any(abs(1 - c * p) < margin for p in out):
            continue
        out.append(c)
    return tuple(out)


def confluent_vector(rng: np.random.Generator, k: int, gap: float) -> tuple[complex, ...]:
    """k - 1 spread points plus a partner of the first at distance `gap`."""
    base = shift_vector(rng, k - 1, 0.5, 1.2)
    return base + (base[0] + cmath.rect(gap, rng.uniform(0.0, 2.0 * math.pi)),)


# Separation guard of the det/comb/eps routes: 1e-6 relative.  1e-7 sits
# below it (those routes must refuse), 2e-6 just above it (they must answer).
GEOMETRIES = {
    "in": lambda rng, k: shift_vector(rng, k, 0.3, 0.9),
    "on": lambda rng, k: shift_vector(rng, k, 1.0, 1.0),
    "out": lambda rng, k: shift_vector(rng, k, 1.1, 1.3),
    "conf1e-7": lambda rng, k: confluent_vector(rng, k, 1e-7),
    "conf2e-6": lambda rng, k: confluent_vector(rng, k, 2e-6),
    "roadmap": lambda rng, k: ROADMAP_POINTS[:k],
}
SPREAD = ("in", "on", "out")
CONFLUENT = ("conf1e-7", "conf2e-6")


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _exact_queries(rng):
    """(family, N, k, m, geometry, shifts) of every query of the exact grid."""
    cells = []
    for N in (2, 8, 32, 128, 256):
        geoms = SPREAD + (CONFLUENT if N <= 32 else ())
        for n in range(1, 5):
            for geom in geoms:
                if geom in CONFLUENT and n < 2:
                    continue
                for m in range(n + 1):
                    cells.append(("unitary", N, n, m, geom))
        if N >= 128:
            cells += [("unitary", N, n, m, "roadmap") for n in (3, 4) for m in range(n + 1)]
    for fam in ("symplectic", "so", "ominus"):
        for N in (2, 8, 32):
            for k in range(1, 5):
                if math.comb(k + N, k) > TERM_CAP:
                    continue
                if N == 32 and k >= 3:
                    geoms = ("roadmap",)   # the slow cells: one fixed query each
                elif N == 32:
                    geoms = SPREAD
                else:
                    geoms = SPREAD + (CONFLUENT if k >= 2 else ())
                cells += [(fam, N, k, 0, geom) for geom in geoms]
        cells += [(fam, 256, k, 0, geom) for k in range(1, 5) for geom in SPREAD]
    out = []
    for fam, N, k, m, geom in cells:
        shifts = GEOMETRIES[geom](rng, k)
        out.append((fam, N, k, m, geom, shifts))
    return out


def exact_ops(rng) -> list[Op]:
    ops = []
    for fam, N, k, m, geom, shifts in _exact_queries(rng):
        ref_key = (fam, N, m, shifts)
        precisions = [(None, DOUBLE_TOL, "")]
        if N == 2 and geom in ("in", "out"):
            precisions.append((EXT, EXT_TOL, " @40"))
        # at N = 256 only the sign-vector form of the self-dual families is feasible
        routes = ("eps",) if N == 256 and fam != "unitary" else CLOSED_FORMS[fam]
        size = f"n={k} m={m}" if fam == "unitary" else f"k={k}"
        for prec, tol, tag in precisions:
            for route in routes:
                ops.append(Op(f"{fam}/{route} N={N} {size} {geom}{tag}", route_metric(fam, route),
                              package_call, closed_form_args(fam, route, N, m, shifts, prec),
                              VALUE, tol, ref_key))
    return ops


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

MC_SAMPLES = 4096      # one sampling chunk of haar._SAMPLE_CHUNK
Z_MAX = 4.0


def montecarlo_ops(rng) -> list[Op]:
    ops = []
    for fam in ("unitary", "symplectic", "so", "ominus"):
        for N in (2, 8, 16):
            m = 1 if fam == "unitary" else 0
            shifts = shift_vector(rng, 2, 0.3, 0.9)
            spec = GroupSpec(fam, N)
            rng_seed = int(rng.integers(2 ** 31))
            ops.append(Op(f"{fam} N={N} k=2 samples={MC_SAMPLES}", None, monte_carlo,
                          (spec, shifts, m, rng_seed, MC_SAMPLES), Z, Z_MAX,
                          (fam, N, m, shifts)))
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

WEYL_TOL = 1e-8        # acceptance criterion 02
CONTOUR_TOL = 1e-6     # acceptance criterion 06
LEMMA_TOL = 1e-6       # acceptance criterion 05
IDENTITY_TOL = {None: 1e-10, EXT: 1e-30}   # acceptance criterion 04


def alpha_vector(rng, k: int, paired: bool) -> tuple[complex, ...]:
    """Contour alphas in 0.08 <= |a| <= 0.3, separated by 0.08; for the
    paired families the reflections -a are kept apart as well."""
    out: list[complex] = []
    while len(out) < k:
        a = cmath.rect(rng.uniform(0.08, 0.3), rng.uniform(0.0, 2.0 * math.pi))
        if any(abs(a - b) < 0.08 or (paired and abs(a + b) < 0.08) for b in out):
            continue
        out.append(a)
    return tuple(out)


def checks_ops(rng) -> list[Op]:
    ops = []
    for fam in ("unitary", "symplectic", "so", "ominus"):
        for N in ((2, 3, 4) if fam == "ominus" else (1, 2, 3)):
            for k in (1, 2, 3):
                m = k - 1 if fam == "unitary" else 0
                shifts = shift_vector(rng, k, 0.4, 1.6)
                ops.append(Op(f"weyl {fam} N={N} k={k}", None, package_call,
                              ("haar.weyl_autocorrelation", GroupSpec(fam, N), shifts, m),
                              VALUE, WEYL_TOL, (fam, N, m, shifts)))

    # two sizes per cheap contour cell, one for n = 3: over 100 operations a pass
    sizes = itertools.cycle((1, 2, 3))
    for nodes, dims in ((128, (1, 2, 3)), (160, (1, 2)), (256, (1, 2))):
        cfg = ContourConfig(nodes_per_dim=nodes)
        for n in dims:
            for fam, _ in itertools.product(("unitary", "symplectic", "so", "ominus"),
                                            range(1 if n == 3 else 2)):
                N = next(sizes)
                alphas = alpha_vector(rng, n, paired=fam != "unitary")
                cell = f"contour {fam} N={N} n={n} nodes={nodes}"
                if fam == "unitary":
                    m = n // 2
                    args = ("unitary.autocorr_contour", N, alphas, m, cfg)
                    shifts = tuple(cmath.exp(-a) for a in alphas)
                elif fam == "symplectic":
                    m = 0
                    args = ("symplectic.sp_autocorr_contour", N, alphas, cfg)
                    shifts = tuple(cmath.exp(-a) for a in alphas)
                else:
                    m = 0
                    args = ("orthogonal.orthogonal_contour", fam, N, alphas, cfg)
                    shifts = tuple(cmath.exp(a) for a in alphas)
                ops.append(Op(cell, CONTOUR_ROUTES[fam], package_call, args, VALUE,
                              CONTOUR_TOL, (fam, N, m, shifts)))

    cfg = ContourConfig(nodes_per_dim=128)
    for pole in (inverse_pole, exp_pole):
        for m in (0, 1, 2):
            u = alpha_vector(rng, 2, paired=False)
            ops.append(Op(f"lemma_unitary {pole.__name__} m={m}", None, package_call,
                          ("contour.lemma_unitary_check", BipartiteKernel(pole), u, m, cfg),
                          LEMMA, LEMMA_TOL))
    sym_cases = ((exp_pole, True, "plain"), (exp_pole, False, "plain"),
                 (exp_pole, False, "signed"), (inverse_pole, False, "signed"))
    for k in (1, 2):
        for pole, diagonal, variant in sym_cases:
            al = alpha_vector(rng, k, paired=True)
            kernel = SymmetricKernel(pole, include_diagonal=diagonal)
            ops.append(Op(f"lemma_sym {pole.__name__} diag={diagonal} {variant} k={k}", None,
                          package_call, ("contour.lemma_sym_check", kernel, al, variant, cfg),
                          LEMMA, LEMMA_TOL))

    # n_min = n_max pins each call's size, so its cost does not depend on the seed
    for prec, trials, sizes_ in ((None, 4, (3, 4, 5)), (EXT, 1, (3, 4))):
        for n in sizes_:
            suite_seed = int(rng.integers(2 ** 31))
            tag = "double" if prec is None else "@40"
            ops.append(Op(f"identity_suite n={n} trials={trials} {tag}", None, package_call,
                          ("identities.run_identity_suite", trials, suite_seed, prec, n, n),
                          IDENTITY, IDENTITY_TOL[prec]))
    return ops


# Time of one pass at the reference speed of speed.py, measured on a
# shared 2-CPU x86-64 VM.
PASS_S = {"exact": 13.0, "montecarlo": 9.0, "checks": 4.0}
# An operation's latency is the median of its passes: with three or more,
# one pass disturbed by the shared machine does not move it.
MIN_PASSES = 3


def passes(workload: str, seconds: int) -> int:
    """Whole passes a run makes: as many as fill `seconds` at the reference
    speed, at least MIN_PASSES.  A function of its arguments only, so that
    the operations attempted and their verdicts repeat exactly."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operation list; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "exact":
        ops = exact_ops(rng)
    elif workload == "montecarlo":
        ops = montecarlo_ops(rng)
    elif workload == "checks":
        ops = checks_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # One fixed shuffle of the grid, the same for every seed: each kind of
    # cell is spread over the whole pass (so its latency is sampled across
    # the machine's speed swings), and the order is not another variable.
    return [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _closed_form(family: str, N: int, m: int, shifts: tuple, route: str):
    return package_call(*closed_form_args(family, route, N, m, shifts, REF))


def reference(key: tuple):
    """60-digit value of (family, N, m, shifts): det for U(N), the sign-vector
    form otherwise, and the confluent-safe Schur sum where those refuse."""
    family, N, m, shifts = key
    try:
        return _closed_form(family, N, m, shifts, "det" if family == "unitary" else "eps")
    except RouteError:
        return _closed_form(family, N, m, shifts, "schur")


def references(ops: list[Op]) -> dict:
    refs = {}
    for op in ops:
        if op.ref_key is not None and op.ref_key not in refs:
            refs[op.ref_key] = reference(op.ref_key)
    return refs


SELF_CHECK_STRIDE = 5


def self_check_pairs(refs: dict) -> list[tuple[tuple, object]]:
    """Every SELF_CHECK_STRIDE-th reference that a second 60-digit route can
    reproduce cheaply (comb for U(N); det for the others, N <= 8), with that
    second value."""
    pairs = []
    eligible = [k for k in sorted(refs, key=repr)
                if k[0] == "unitary" or k[1] <= 8]
    for key in eligible[::SELF_CHECK_STRIDE]:
        family, N, m, shifts = key
        try:
            second = _closed_form(family, N, m, shifts, "comb" if family == "unitary" else "det")
        except RouteError:
            continue   # near-confluent: only the Schur sum is defined there
        pairs.append((key, second))
    return pairs
