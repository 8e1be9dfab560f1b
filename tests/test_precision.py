"""The batched elimination against the scalar one it replays, bit for bit,
and the precision config."""

import dataclasses

import numpy as np
import pytest

from rmt_autocorr import symcore
from rmt_autocorr.precision import PrecisionConfig, _generic_det, batched_det, ops_for
from rmt_autocorr.symplectic import sp_autocorr_det, sp_autocorr_schur


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


def test_a_nan_pivot_key_wins_only_in_the_first_row():
    # max() by abs: a NaN key in row 0 is never replaced; a later NaN key never
    # replaces the best, not even next to a larger finite key
    rng = np.random.default_rng(7)
    shape = (6, 4, 4)
    stack = _complex(rng.standard_normal(shape), rng.standard_normal(shape))
    stack[:, :, 0] = [[1.0, np.nan, 5.0, 0.5],
                      [1.0, 5.0, complex(np.nan, 1.0), 0.5],
                      [complex(0.0, np.nan), 5.0, 2.0, 0.5],
                      [np.nan, np.nan, 3.0j, 3.0j],
                      [0.0, np.nan, 0.0, 0.0],
                      [0.5, 2.0, np.nan, 4.0]]
    _assert_bit_identical(stack)


def test_one_step_takes_both_quotient_branches():
    # pivots with |re| >= |im| and |re| < |im| in one batch, then in batches of one branch
    rng = np.random.default_rng(8)
    shape = (8, 3, 3)
    stack = _complex(rng.standard_normal(shape), rng.standard_normal(shape)) / 10
    stack[:, 0, 0] = [3 + 1j, 1 + 3j, -2 + 2j, 2 - 2.5j, 4, 4j, -1e-3 + 5j, 5 - 1e-3j]
    assert not (np.abs(stack[:, 0, 0].real) >= np.abs(stack[:, 0, 0].imag)).all()
    _assert_bit_identical(stack, "mixed")
    _assert_bit_identical(stack[[0, 4, 7]], "real branch")
    _assert_bit_identical(stack[[1, 5, 6]], "imag branch")


def _gathered_stacks(route):
    """The (B, 4, 4) stacks that `route(32, ROADMAP points)` eliminates."""
    stacks = []

    def captured(re, im):
        stacks.append(_complex(re, im))
        return batched_det(re, im)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(symcore, "batched_det", captured)
        route(32, (0.9, 0.7 + 0.3j, -0.5 + 0.6j, 1.2 - 0.4j))
    return stacks


def test_batched_det_replays_the_self_dual_sums_at_n32():
    # the full 1,024-matrix stacks of the sp det and schur sums: the first of
    # each, and the first det stack whose column-0 pivot is off row 0 in every
    # matrix (there, and at column 1, every matrix swaps rows)
    det_stacks, schur_stacks = map(_gathered_stacks, (sp_autocorr_det, sp_autocorr_schur))
    swapped = next(s for s in det_stacks if np.abs(s[:, :, 0]).argmax(axis=1).all())
    for name, stack in [("det", det_stacks[0]), ("schur", schur_stacks[0]), ("swaps", swapped)]:
        assert stack.shape == (1024, 4, 4)
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
