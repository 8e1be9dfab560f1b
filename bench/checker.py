"""Verdicts: every operation's outcome is ok, wrong or refused.

The checker is independent of the package's own comparison code; it
restates the CLI crosscheck rule (relative deviation above magnitude 1,
absolute below) and evaluates it at the references' 60 digits.
"""

from __future__ import annotations

import math

from mpmath import mp

from rmt_autocorr.errors import RouteError

OK, WRONG, REFUSED = "ok", "wrong", "refused"

VALUE = "value"        # a number judged by deviation against the reference
Z = "z"                # a (mean, stderr) pair judged by its z-score
LEMMA = "lemma"        # a LemmaCheckResult judged by its own residual
IDENTITY = "identity"  # an IdentitySuiteReport judged by its worst residual

DIGITS = 60


def deviation(a, b) -> float:
    """|a - b| / max(|a|, |b|) when that scale exceeds 1, else |a - b|."""
    with mp.workdps(DIGITS):
        a, b = mp.mpmathify(a), mp.mpmathify(b)
        scale = max(abs(a), abs(b))
        diff = abs(a - b)
        return float(diff / scale if scale > 1 else diff)


def judge(check: str, tol: float, outcome, ref=None) -> tuple[str, float]:
    """(verdict, error) of one outcome: a returned value or a raised exception.

    A RouteError is a refusal; any other exception, a non-finite error or an
    error above `tol` is wrong.  The error is the deviation for VALUE, the
    z-score for Z and the residual for LEMMA and IDENTITY.
    """
    if isinstance(outcome, RouteError):
        return REFUSED, math.nan
    if isinstance(outcome, BaseException):
        return WRONG, math.inf
    if check == VALUE:
        err = deviation(outcome, ref)
    elif check == Z:
        mean, stderr = outcome
        diff = abs(complex(mean) - complex(ref))
        err = diff / stderr if stderr > 0 else (0.0 if diff == 0 else math.inf)
    elif check == LEMMA:
        err = float(outcome.residual)
    elif check == IDENTITY:
        err = float(outcome.worst())
    else:
        raise ValueError(f"unknown check {check!r}")
    return (OK if err <= tol else WRONG), err
