"""Precision policy and big-float plumbing.

High-precision reals are realized as ``mpmath.mpf`` values.  All evaluation
routines take a :class:`PrecisionPolicy` describing the caller-visible
accuracy contract; internally they run at an elevated precision chosen from
the policy plus a magnitude/cancellation compensation, so that the absolute
error of a returned value stays below ``2**(-working_bits + guard_bits)``
(and relative error stays small whenever the value itself is tiny but
well-conditioned).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

__all__ = [
    "PrecisionPolicy",
    "default_policy",
    "as_mpf",
    "mag_bits",
    "DEFAULT_PREC_ENV",
]

DEFAULT_PREC_ENV = "CMDEG_DEFAULT_PREC"

#: Extra bits carried by every internal evaluation on top of the policy's
#: working precision, absorbing summation rounding across a few hundred terms.
PAD_BITS = 32


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy contract for evaluation routines.

    working_bits: binary precision of delivered values (>= 24).
    guard_bits: slack granted on the absolute error bound (>= 8); the
        absolute error target is ``2**(-working_bits + guard_bits)``.
    """

    working_bits: int = 128
    guard_bits: int = 16

    def __post_init__(self) -> None:
        if self.working_bits < 24:
            raise ValueError("working_bits must be at least 24")
        if self.guard_bits < 8:
            raise ValueError("guard_bits must be at least 8")

    @property
    def abs_error_target(self) -> mp.mpf:
        """Absolute error bound promised for delivered values."""
        return mp.mpf(2) ** (self.guard_bits - self.working_bits)

    def internal_bits(self, extra: int = 0) -> int:
        """Internal precision: working bits plus pad plus compensation."""
        return self.working_bits + PAD_BITS + max(0, extra)


def default_policy() -> PrecisionPolicy:
    """Policy at the precision named by CMDEG_DEFAULT_PREC (default 128)."""
    raw = os.environ.get(DEFAULT_PREC_ENV, "")
    try:
        bits = int(raw) if raw else 128
    except ValueError:
        bits = 128
    return PrecisionPolicy(working_bits=max(24, bits))


def as_mpf(x, prec: int) -> mp.mpf:
    """Convert x (int, float, str, Fraction, mpf) to an mpf at ``prec`` bits.

    Decimal strings and Fractions are converted with correct rounding at the
    target precision, so callers can pass exact inputs without a lossy
    float round-trip.
    """
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return +mp.mpf(x)


def mag_bits(x) -> int:
    """ceil(log2 |x|) for a nonzero mpf; 0 for zero.  Cheap and exact."""
    if x == 0:
        return 0
    return int(mp.mag(x))

