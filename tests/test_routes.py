"""The route table's canonical values."""

import cmath

import numpy as np
import pytest
from schur_reference import jacobi_trudi

from rmt_autocorr import NearConfluent, PrecisionConfig
from rmt_autocorr.haar import autocorr_integrand, group, monte_carlo_average, weyl_autocorrelation
from rmt_autocorr.routes import CONTOUR, ROUTES, canonical_value, full_o2n_average
from rmt_autocorr.symcore import Partition, divided_difference_sum
from rmt_autocorr.symplectic import parity_family

SHIFTS = (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j)
# A 1e-7 pair near |w| = 1.05, where `eps` and `det` refuse; the USp Schur
# sum lost every digit there at N = 256 before it folded |w| > 1 into the
# unit disk.  The reference is the unfolded Schur sum at 100 digits.
PAIR = 1.05 * cmath.exp(0.7j)
NEAR_PAIRS = {
    "unfolded-pair-plus-1e-7": (PAIR, PAIR + 1e-7, 0.9 * cmath.exp(2j), 1.02 * cmath.exp(-1j)),
    "unfolded-pair-times-1+1e-7": (PAIR, PAIR * (1 + 1e-7), 0.7 + 0.3j, -0.5 + 0.6j),
}
# The paper's regime: the central cells w_j = exp(s b_j / N), all near 1,
# where the double `eps` sum cancels without refusing (off by up to 1.2e14
# for USp and O^-, 780 for SO).  The reference is `eps` at 60 digits.
CENTRAL_B = (0.3, 0.5 + 0.2j, 0.7 - 0.1j, 0.9)
CENTRAL_S = {f"central-s={s:g}": s for s in (0.01, 0.1, 1, 10)}
# U(N) cells, judged against the Jacobi-Trudi rectangle at 140 digits: the
# ROADMAP points, where the Jacobi-Trudi route was off by 1.0e102 at N = 256
# and m = 0; a cluster, where `det` printed 3.9573e-13; and a zero shift,
# where the value is 0 at m = 0 and otherwise the rectangle in the others.
UNITARY_CELLS = {"roadmap-points": SHIFTS,
                 "cluster": (0.80002, 0.80005, 0.80007, 0.80001),
                 "zero-shift": (0.0, *SHIFTS[1:])}
JT_REF = PrecisionConfig.extended(140)


def _rectangle(N, shifts, m):
    """s_(N^(n-m)) of the shifts by Jacobi-Trudi at 140 digits."""
    n = len(shifts)
    return jacobi_trudi(Partition((N,) * (n - m) + (0,) * m), shifts, JT_REF)


def _central(N, s):
    return tuple(cmath.exp(s * b / N) for b in CENTRAL_B)


def _reference(family, N, m, reference):
    """(shifts, value) of a row: a route at 60 digits on SHIFTS, a NEAR_PAIRS
    cell's unfolded USp Schur sum at 100 digits, or a central cell's `eps`
    at 60 digits, or a U(N) cell's rectangle at 140 digits."""
    if reference == "zero-shift":
        shifts = UNITARY_CELLS[reference]
        return shifts, 0.0 if m == 0 else _rectangle(N, shifts[1:], m - 1)
    if reference in UNITARY_CELLS:
        return UNITARY_CELLS[reference], _rectangle(N, UNITARY_CELLS[reference], m)
    if reference in NEAR_PAIRS:
        shifts = NEAR_PAIRS[reference]
        families = [parity_family(len(shifts), 2 * N + len(shifts) - 1)]
        return shifts, divided_difference_sum(shifts, families, PrecisionConfig.extended(100))
    if reference in CENTRAL_S:
        shifts = _central(N, CENTRAL_S[reference])
        return shifts, ROUTES[family]["eps"](N, shifts, m, PrecisionConfig.extended(60))
    return SHIFTS, ROUTES[family][reference](N, SHIFTS, m, PrecisionConfig.extended(60))


@pytest.mark.parametrize("family,N,m,reference", [
    ("unitary", 128, 2, "comb"),    # the Jacobi-Trudi Schur route was off by 2.4e3 here
    ("unitary", 32, 0, "cluster"),  # 3.96391e-13
    ("symplectic", 32, 0, "eps"),   # 58,905 Schur terms, off by 3e-9
    ("so", 32, 0, "eps"),
    ("ominus", 32, 0, "eps"),
    ("symplectic", 256, 0, "unfolded-pair-plus-1e-7"),     # was off by 1.4e7
    ("symplectic", 256, 0, "unfolded-pair-times-1+1e-7"),  # was off by 3.2e11
] + [(family, N, 0, cell) for family in ("symplectic", "so", "ominus")
     for N in (8, 32, 256) for cell in CENTRAL_S]
  + [("unitary", N, m, cell) for cell in ("roadmap-points", "zero-shift")
     for N in (128, 256) for m in range(5)])
def test_canonical_value_keeps_its_digits(family, N, m, reference):
    shifts, exact = _reference(family, N, m, reference)
    value = complex(canonical_value(family, N, shifts, m))
    assert abs(value - complex(exact)) <= 1e-12 * abs(complex(exact))


def test_canonical_value_falls_back_when_det_refuses():
    # a 1e-9 pair: the U(N) `det` route raises NearConfluent, and the
    # canonical value is the Schur route's
    shifts = (0.5, 0.5 + 1e-9)
    with pytest.raises(NearConfluent):
        ROUTES["unitary"]["det"](4, shifts, 1, None)
    value = canonical_value("unitary", 4, shifts, 1)
    assert value == ROUTES["unitary"]["schur"](4, shifts, 1, None)
    assert value == pytest.approx(0.31250000125, rel=1e-12)


def _random_unitary_query(rng, geometry):
    """(N, shifts, m): N = round(2^U(0,8)), 1 <= n <= 4, a random m, and the
    shifts of one geometry -- on 0.5 < |w| < 1.5, on the unit circle, within
    relative 1e-7..1e-2 of one point, or within 1e-4..1e-1 of one of +-1."""
    N = int(round(2 ** rng.uniform(0, 8)))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, n + 1))

    def phase():
        return cmath.exp(2j * cmath.pi * rng.uniform())

    if geometry == "annulus":
        shifts = [rng.uniform(0.5, 1.5) * phase() for _ in range(n)]
    elif geometry == "circle":
        shifts = [phase() for _ in range(n)]
    elif geometry == "cluster":
        c = rng.uniform(0.5, 1.5) * phase()
        shifts = [c * (1 + 10 ** rng.uniform(-7, -2) * phase()) for _ in range(n)]
    else:
        sign = rng.choice((-1.0, 1.0))
        shifts = [sign + 10 ** rng.uniform(-4, -1) * phase() for _ in range(n)]
    return N, tuple(complex(w) for w in shifts), m


def test_unitary_canonical_value_keeps_its_digits_on_random_queries():
    # 800 queries, 200 per geometry, in about 0.3 s.  The canonical value
    # that tried `det` and fell back to the Jacobi-Trudi route was off by
    # more than 1e-12 on 174 of them (annulus 4, cluster 106, pm1 64), by up
    # to 35 relative.
    rng = np.random.default_rng(11)
    wrong = []
    for geometry in ("annulus", "circle", "cluster", "pm1"):
        for _ in range(200):
            N, shifts, m = _random_unitary_query(rng, geometry)
            exact = complex(_rectangle(N, shifts, m))
            value = complex(canonical_value("unitary", N, shifts, m))
            if not abs(value - exact) <= 1e-12 * abs(exact):
                wrong.append((geometry, N, shifts, m))
    assert not wrong, f"{len(wrong)} of 800 off by more than 1e-12, first {wrong[:3]}"


@pytest.mark.parametrize("N", [8, 32, 256])
def test_full_o2n_average_keeps_its_digits_near_one(N):
    # the central cell at s = 0.01, where the average of the double `eps`
    # sums is off by 20, 94 and 2.0e3 relative
    shifts, ref = _central(N, 0.01), PrecisionConfig.extended(60)
    so = complex(ROUTES["so"]["eps"](N, shifts, 0, ref))
    ominus = complex(ROUTES["ominus"]["eps"](N, shifts, 0, ref))
    exact = (so + ominus * (-1) ** len(shifts)) / 2
    assert abs(complex(full_o2n_average(N, shifts)) - exact) <= 1e-12 * abs(exact)


# At the smallest size of each family the moment at shifts (a, b) is known:
# U(1) at m = 0 is a b; USp(0) is the trivial group; SO(2) averages
# (1 - 2w cos t + w^2) over t; O^-(2) is prod (w^2 - 1) times USp(0).  U(0),
# SO(0) and O^-(0) are not sizes here.  The contour routes take alphas near
# zero, at shifts w = exp(sign * alpha).
ALPHAS = (0.1 + 0.05j, -0.12 + 0.1j)


@pytest.mark.parametrize("family,smallest,moment", [
    ("symplectic", 0, lambda a, b: 1),
    ("so", 1, lambda a, b: (1 + a * a) * (1 + b * b) + 2 * a * b),
    ("ominus", 1, lambda a, b: (a * a - 1) * (b * b - 1)),
    ("unitary", 1, lambda a, b: a * b),
], ids=["usp", "so", "ominus", "u"])
def test_self_dual_routes_refuse_sizes_below_the_family(family, smallest, moment):
    shifts = (0.5, 0.3j)
    for route in ROUTES[family].values():
        with pytest.raises(ValueError, match=f"must be >= {smallest}"):
            route(smallest - 1, shifts, 0, None)
        assert complex(route(smallest, shifts, 0, None)) == pytest.approx(moment(*shifts),
                                                                           abs=1e-14)
    contour, sign = CONTOUR[family]
    for N in (-1, smallest - 1):
        with pytest.raises(ValueError, match=f"must be >= {smallest}"):
            contour(N, ALPHAS, 0, None)
    w = [cmath.exp(sign * a) for a in ALPHAS]
    assert complex(contour(smallest, ALPHAS, 0, None)) == pytest.approx(moment(*w), abs=1e-12)


NON_FINITE = pytest.mark.parametrize(
    "bad", [complex("nan"), complex("inf"), complex(0.5, float("-inf"))],
    ids=["nan", "inf", "imag-inf"])


@pytest.mark.parametrize("digits", [None, 40], ids=["double", "40-digits"])
@NON_FINITE
@pytest.mark.parametrize("family,name", [(f, n) for f, table in ROUTES.items() for n in table])
def test_every_route_refuses_a_non_finite_shift(family, name, bad, digits):
    # before the check a NaN came back, or OverflowError, decimal.InvalidOperation
    # or MemoryError was raised, by route and precision
    prec = None if digits is None else PrecisionConfig(digits)
    with pytest.raises(ValueError, match="non-finite shift"):
        ROUTES[family][name](2, (0.5, bad), 1, prec)


@NON_FINITE
@pytest.mark.parametrize("family", list(CONTOUR))
def test_every_integration_route_refuses_a_non_finite_shift(family, bad):
    # before the check the self-dual contour routes and Monte Carlo returned
    # NaN with numpy warnings, and the U(N) Weyl route raised PrecisionLoss
    spec, shifts = group(family, 2), (0.5, bad)
    for call in (lambda: CONTOUR[family][0](2, shifts, 1, None),
                 lambda: weyl_autocorrelation(spec, shifts, 1),
                 lambda: monte_carlo_average(spec, autocorr_integrand(spec, shifts, 1), 1, 100)):
        with pytest.raises(ValueError, match="non-finite shift"):
            call()
