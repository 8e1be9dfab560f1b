"""The batched elimination against the scalar one it replays, bit for bit,
and the precision config."""

import dataclasses

import numpy as np
import pytest

from rmt_autocorr.precision import PrecisionConfig, _generic_det, batched_det, ops_for


def _scalar_dets(stack):
    """(real, imag) of `_generic_det` of every matrix, or OverflowError."""
    out = []
    for mat in stack.tolist():
        d = complex(_generic_det(mat, abs))
        out.append((d.real, d.imag))
    return np.array(out, dtype=float).reshape(len(stack), 2)


def _assert_bit_identical(stack, name=""):
    try:
        expected = _scalar_dets(stack)
    except OverflowError:
        with pytest.raises(OverflowError):
            batched_det(stack.real.copy(), stack.imag.copy())
        return
    re, im = batched_det(stack.real.copy(), stack.imag.copy())
    got = np.stack([re, im], axis=1)
    # compare the bits: signed zeros and NaNs must match as well
    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _stacks(rng, n, batch=64):
    shape = (batch, n, n)
    yield "gaussian", _complex(rng.standard_normal(shape), rng.standard_normal(shape))
    # small Gaussian integers: exact ties between pivot magnitudes (|1| = |i|, |3+4i| = 5)
    grid = np.array([0.0, 1.0, -1.0, 3.0, -4.0, 5.0])
    yield "ties", _complex(rng.choice(grid, shape), rng.choice(grid, shape))
    yield "real ties", _complex(rng.choice(grid, shape), np.zeros(shape))
    if n:
        singular = _complex(rng.standard_normal(shape), rng.standard_normal(shape))
        singular[: batch // 2, :, rng.integers(n)] = 0.0
        if n > 1:
            singular[batch // 2:, -1] = singular[batch // 2:, 0]   # repeated row
        yield "singular", singular
        # reversed identity: a row swap in every column
        flipped = np.broadcast_to(np.eye(n)[::-1], shape) * (1 + 2j)
        yield "swaps", flipped + 1e-3 * _complex(rng.standard_normal(shape), rng.standard_normal(shape))
    specials = np.array([0.0, -0.0, 1.0, -2.0, np.inf, -np.inf, np.nan, 1e-320])
    yield "specials", _complex(rng.choice(specials, shape), rng.choice(specials, shape))


@pytest.mark.parametrize("n", range(7))
def test_batched_det_matches_the_scalar_elimination_bit_for_bit(n):
    rng = np.random.default_rng(20 + n)
    for name, stack in _stacks(rng, n):
        _assert_bit_identical(stack, name)


def test_batched_det_of_empty_matrices_is_one():
    re, im = batched_det(np.empty((3, 0, 0)), np.empty((3, 0, 0)))
    assert re.tolist() == [1.0] * 3 and im.tolist() == [0.0] * 3


def test_zero_pivot_gives_zero_times_the_corner_entry():
    # 0 * (-1 - 0j) is (-0 + 0j) in CPython: the sign of the zero follows a[0][0]
    stack = np.array([[[-1.0 - 0.0j, 2.0], [0.0, 0.0]],
                      [[0.0, 1.0], [0.0, 3.0j]]])
    _assert_bit_identical(stack)


def test_batched_det_raises_where_abs_overflows():
    big = np.array([[[1.5e308 + 1.5e308j, 1.0], [1.0, 1.0]]])
    with pytest.raises(OverflowError):
        _generic_det(big[0].tolist(), abs)
    with pytest.raises(OverflowError):
        batched_det(big.real.copy(), big.imag.copy())
    # a matrix whose elimination stopped at a zero pivot raises nothing later
    stopped = np.array([[[0.0, 1.0], [0.0, 1.5e308 + 1.5e308j]]])
    _assert_bit_identical(stopped)


def test_precision_config_sets_only_the_digits():
    prec = PrecisionConfig.extended(40)
    assert [f.name for f in dataclasses.fields(prec)] == ["digits"]
    assert (prec.mode, prec.agreement_tol, prec.is_double) == ("extended", 1e-25, False)
    with pytest.raises(AttributeError):
        prec.agreement_tol = 1e-9
    with pytest.raises(ValueError):
        PrecisionConfig(29)
    assert ops_for(prec).digits == 40


def test_extended_one_and_zero_are_constants():
    # one object each, for every precision: they are exact and immutable
    ops = [ops_for(PrecisionConfig(d)) for d in (30, 40, 80)]
    assert all(o.one is ops[0].one and o.zero is ops[0].zero for o in ops)
    with ops[2].guard():
        assert (ops[2].one, ops[2].zero) == (1, 0)
        assert ops[2].one / 3 == ops[2].scalar(1) / 3
