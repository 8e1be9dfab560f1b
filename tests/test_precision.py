"""The precision config and the operation sets it selects."""

import inspect
import operator
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from rmt_autocorr.precision import DecimalComplex, ExtendedOps, PrecisionConfig, ops_for


def test_precision_config_sets_only_the_digits():
    prec = PrecisionConfig.extended(40)
    # the digits are its only field: the decimal context is no field
    assert prec._fields == ("digits",)
    assert (prec.mode, prec.agreement_tol, prec.is_double) == ("extended", 1e-25, False)
    with pytest.raises(AttributeError):
        prec.agreement_tol = 1e-9
    with pytest.raises(ValueError):
        PrecisionConfig(29)
    assert ops_for(prec).digits == 40
    # the config is its own operation set, under both names
    assert ExtendedOps is PrecisionConfig
    assert all(ops_for(p) is p for p in (prec, PrecisionConfig(30), PrecisionConfig(80)))
    assert prec == PrecisionConfig(40) and repr(prec) == "PrecisionConfig(digits=40)"


def test_extended_one_and_zero_are_constants():
    # one object each, for every precision: they are exact and immutable
    ops = [ops_for(PrecisionConfig(d)) for d in (30, 40, 80)]
    assert all(o.one is ops[0].one and o.zero is ops[0].zero for o in ops)
    with ops[2].guard():
        assert (ops[2].one, ops[2].zero) == (1, 0)
        assert ops[2].one / 3 == ops[2].scalar(1) / 3


# ---------------------------------------------------------------------------
# The extended scalar against mpmath
# ---------------------------------------------------------------------------

DIGITS = (30, 40, 80)


def _operands(seed, count=6):
    """Seeded complex doubles of modulus between 0.1 and 10 or so."""
    rng = np.random.default_rng(seed)
    return [complex(*v) * 10.0 ** e for v, e in zip(rng.normal(size=(count, 2)),
                                                     rng.uniform(-1, 1, count))]


def _assert_close(got, want, digits, slack=1):
    """|got - want| <= slack 10^-digits |want|, at 20 digits more than the scalar's."""
    with mp.workdps(digits + 20):
        assert abs(mp.mpmathify(got) - want) <= slack * mp.mpf(10) ** -digits * abs(want), (got, want)


@pytest.mark.parametrize("digits", DIGITS)
def test_arithmetic_matches_mpmath(digits):
    num = ops_for(PrecisionConfig(digits))
    xs = _operands(digits)
    for x, y in zip(xs, xs[1:]):
        with num.guard():
            a, b = num.scalar(x), num.scalar(y)
            got = {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "abs": abs(a),
                   "exp": num.exp(a), "expm1": num.expm1(a * 1e-25),
                   **{f"**{e}": a ** e for e in range(-70, 71)}}
        with mp.workdps(digits + 20):
            p, q = mp.mpc(x), mp.mpc(y)
            want = {"+": p + q, "-": p - q, "*": p * q, "/": p / q, "abs": abs(p),
                    "exp": mp.exp(p), "expm1": mp.expm1(p * mp.mpf(1e-25)),
                    **{f"**{e}": p ** e for e in range(-70, 71)}}
        for key in want:
            # binary powering's error grows with |e|: 1.96e-40 at e = 70 and 40 digits
            e = int(key[2:]) if key.startswith("**") else 0
            _assert_close(got[key], want[key], digits, max(1, abs(e) / 16))
    assert got["**0"] is num.one


@pytest.mark.parametrize("digits", (30, 40))
def test_powers_start_from_the_base(digits):
    # 0.1 + 0.7j has parts of 52 and 53 digits: z ** 1 rounds them, as +z does
    num = ops_for(PrecisionConfig(digits))
    z = num.scalar(0.1 + 0.7j)
    assert len(z.real.as_tuple().digits) > digits + 2
    with num.guard():
        assert z ** 1 == +z and (z ** 1).real != z.real
        assert z ** 0 is num.one and num.zero ** 0 is num.one
        assert z ** -1 == num.one / +z
        with pytest.raises(ZeroDivisionError):
            num.zero ** -1
        # each entry of the table is the binary power, product for product
        for top in (-1, 0, 1, 2, 7, 70):
            assert num.power_table(z, top) == [z ** e for e in range(top + 1)]
        assert num.power_table(z, 5)[0] is num.one


def test_extended_products_skip_the_one_and_zero_objects():
    num = ops_for(PrecisionConfig(40))
    with num.guard():
        z, w = num.scalar(0.5 - 2j) * 3, num.scalar(1 + 1j) / 3
        out = num.products([z, num.one, num.zero, z, num.one], [num.one, w, z, w, num.zero])
    assert out[0] is z and out[1] is w and out[2] is num.zero and out[4] is num.zero
    with num.guard():
        assert out[3] == z * w
    assert list(ops_for(None).products([2j, 3], [1, 0.5])) == [2j, 1.5]


@pytest.mark.parametrize("digits", DIGITS)
def test_fsum_adds_exactly_and_rounds_once(digits):
    # five terms near 1 and one more, put first, that cancels them to 30
    # digits: the sum is about 1e-30, and a sum rounded term by term loses
    # 30 of its digits
    num = ops_for(PrecisionConfig(digits))
    xs = _operands(100 + digits, 5)
    with mp.workdps(digits + 40):
        last = -mp.fsum(map(mp.mpc, xs)) + mp.mpc(1, -2) / 3 * mp.mpf(10) ** -30
        want = mp.fsum(list(map(mp.mpc, xs)) + [last])
        assert abs(want) < 1e-29
        terms = [num.scalar(last)] + [num.scalar(x) for x in xs]   # last has the most digits
    with num.guard():
        got = num.fsum(iter(terms))
        naive = sum(terms, num.zero)
    _assert_close(got, want, digits)
    with mp.workdps(digits + 20):
        assert abs(mp.mpc(naive) - want) > mp.mpf(10) ** -digits * abs(want)


@pytest.mark.parametrize("z", [0.1, -2.5e-300, 5e-324, 1e300, 0.1 + 0.7j, complex(3, -1e-20)])
def test_conversion_from_doubles_is_exact(z):
    s = ops_for(PrecisionConfig(40)).scalar(z)
    assert (s.real, s.imag) == (Decimal(complex(z).real), Decimal(complex(z).imag))
    assert complex(s) == z and s == z and hash(s) == hash(z)
    with mp.workdps(15):
        assert mp.mpc(s) == mp.mpc(z)


@pytest.mark.parametrize("dps", [15, 40, 60, 100])
def test_conversion_from_mpmath_is_exact(dps):
    num = ops_for(PrecisionConfig(40))
    rng = np.random.default_rng(dps)
    with mp.workdps(dps):
        values = [mp.mpf(1) / 3, -mp.pi * mp.mpf(10) ** -50, mp.mpf(2) ** 300 / 7,
                  mp.mpc(mp.sqrt(2), -mp.e), mp.mpc(*rng.normal(size=2)) / 3,
                  mp.inf, mp.mpc(-mp.inf, mp.inf)]
        for v in values:
            # the binary value as a Decimal, and back through _mpc_ at the same precision
            s = num.scalar(v)
            assert mp.mpmathify(s) == v and mp.mpc(s) == mp.mpc(v)


def test_repr_of_an_mpmath_nan_and_a_numpy_integer():
    num = ops_for(PrecisionConfig(40))
    assert repr(num.scalar(mp.mpc(mp.nan, -1))) == "DecimalComplex('NaN', '-1')"
    assert repr(num.scalar(np.int64(3))) == "DecimalComplex('3', '0')"


def test_division_by_zero_raises():
    num = ops_for(PrecisionConfig(40))
    with num.guard():
        for call in (lambda: num.one / num.zero, lambda: num.zero / num.zero,
                     lambda: num.one / 0, lambda: 1 / num.zero, lambda: num.zero ** -1,
                     lambda: num.scalar(1 + 1j) / 0.0):
            with pytest.raises(ZeroDivisionError):
                call()


def test_scalar_mixes_with_builtin_numbers_on_either_side():
    num = ops_for(PrecisionConfig(40))
    with num.guard():
        z = num.scalar(0.5 - 2j)
        for other in (3, 0.25, 1.5 + 0.5j, Decimal("0.1"), True):
            c = complex(Decimal(other)) if isinstance(other, Decimal) else complex(other)
            for got, want in ((z + other, 0.5 - 2j + c), (other + z, c + 0.5 - 2j),
                              (z - other, 0.5 - 2j - c), (other - z, c - (0.5 - 2j)),
                              (z * other, (0.5 - 2j) * c), (other * z, c * (0.5 - 2j)),
                              (z / other, (0.5 - 2j) / c), (other / z, c / (0.5 - 2j))):
                assert type(got) is DecimalComplex
                assert abs(complex(got) - want) <= 1e-15 * abs(want)
        # exact: 0.1 is the double nearest 1/10, not a tenth
        assert (z + 0.1).real == Decimal(0.5) + Decimal(0.1)
        assert z == 0.5 - 2j and z != 0.5 and -z == -0.5 + 2j
        # no negative zeros come out, as none did from mpmath
        negative_zero = num.scalar(-1) * num.zero
        assert str(negative_zero.real) == "-0"
        assert str(complex(negative_zero)) == "0j" and str(float(negative_zero)) == "0.0"
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow,
               operator.lt):   # NotImplemented on both sides: a TypeError, as for complex
        for args in ((z, object()), (object(), z)):
            pytest.raises(TypeError, op, *args)
    with pytest.raises(AttributeError):
        z.real = Decimal(1)


def test_abs_is_a_real_that_orders_and_converts():
    num = ops_for(PrecisionConfig(40))
    with num.guard():
        r = abs(num.scalar(3 - 4j))
        assert r == 5 and float(r) == 5.0 and r.imag == 0
        assert 1e-12 * r < 1e-11 < r and r <= 5.0 and r >= num.scalar(5) and not r > 5
        assert max([abs(num.scalar(1j)), r, abs(num.scalar(-2.0))]) is r
        assert abs(num.scalar(-3j)) == 3 and bool(num.scalar(-3j)) and not bool(num.zero)
        with pytest.raises(TypeError):
            num.scalar(1j) < 1
        with pytest.raises(TypeError):
            float(num.scalar(1j))
    with mp.workdps(60):
        assert mp.mpf(r) == 5 and mp.fsum([r, r]) == 10 and isinstance(mp.fsum([r]), mp.mpf)
        assert mp.mpc(num.scalar(1 + 2j)) == mp.mpc(1, 2)


def test_the_benchmark_tracer_finds_det_and_fsum():
    # bench/tracer.py wraps ExtendedOps.det as a plain function and fsum as a staticmethod
    assert inspect.isfunction(ExtendedOps.__dict__["det"])
    assert isinstance(ExtendedOps.__dict__["fsum"], staticmethod)


def test_importing_the_package_leaves_mpmath_out():
    code = ("import sys, rmt_autocorr.cli\n"
            "from rmt_autocorr import PrecisionConfig, sp_autocorr_eps\n"
            "sp_autocorr_eps(2, [0.5, 0.7j], PrecisionConfig(40))\n"
            "print('mpmath' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    assert done.stdout.strip() == "False"
