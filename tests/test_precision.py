"""The precision config and the operation sets it selects."""

import dataclasses

import pytest

from rmt_autocorr.precision import PrecisionConfig, ops_for


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
