"""Precision policy and big-float plumbing.

High-precision reals are realized as ``mpmath.mpf`` values.  All evaluation
routines take a :class:`PrecisionPolicy` describing the caller-visible
accuracy contract; internally they run at an elevated precision chosen from
the policy plus a magnitude/cancellation compensation, so that the absolute
error of a returned value stays below ``2**(-working_bits + GUARD_BITS)``
(and relative error stays small whenever the value itself is tiny but
well-conditioned).  Precision is set only by the policy a caller passes;
``policy=None`` means ``PrecisionPolicy()``, 128 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidIndex, InvalidSpec, NonPositiveArgument

__all__ = [
    "GUARD_BITS",
    "PrecisionPolicy",
    "as_index",
    "as_mpf",
    "as_point",
    "mag_bits",
]

#: Slack granted on the absolute error bound: delivered values are within
#: ``2**(GUARD_BITS - working_bits)`` of the true value.
GUARD_BITS = 16

#: Extra bits carried by every internal evaluation on top of the policy's
#: working precision, absorbing summation rounding across a few hundred terms.
PAD_BITS = 32


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy contract for evaluation routines.

    working_bits: binary precision of delivered values, an int >= 24; the
        absolute error target is ``2**(-working_bits + GUARD_BITS)``.
    """

    working_bits: int = 128

    def __post_init__(self) -> None:
        if not isinstance(self.working_bits, int) or self.working_bits < 24:
            raise InvalidSpec(f"working_bits must be an integer >= 24, got {self.working_bits!r}")

    @property
    def abs_error_target(self) -> mp.mpf:
        """Absolute error bound promised for delivered values."""
        return mp.mpf(2) ** (GUARD_BITS - self.working_bits)

    def internal_bits(self, extra: int = 0) -> int:
        """Internal precision: working bits plus pad plus compensation."""
        return self.working_bits + PAD_BITS + max(0, extra)


def as_mpf(x, prec: int) -> mp.mpf:
    """Convert x (int, float, str, Fraction, mpf) to an mpf at ``prec`` bits.

    Decimal strings and Fractions are converted with correct rounding at the
    target precision, so callers can pass exact inputs without a lossy
    float round-trip.  Unreadable strings, nan and +-inf raise InvalidSpec.
    """
    if isinstance(x, Fraction):
        with mp.workprec(prec):
            return mp.mpf(x.numerator) / x.denominator
    try:
        value = mp.mpf(x, prec=prec)  # the bits of mp.mpf(x) under workprec(prec)
    except (ValueError, ZeroDivisionError):
        if isinstance(x, str):
            raise InvalidSpec(f"cannot read {x!r} as a real number") from None
        raise
    if not mp.isfinite(value):
        raise InvalidSpec(f"expected a finite real number, got {x!r}")
    return value


def as_point(t, prec: int, what: str) -> mp.mpf:
    """t read by ``as_mpf`` at ``prec`` bits; a point t <= 0 raises
    NonPositiveArgument."""
    tv = as_mpf(t, prec)
    if not tv > 0:
        raise NonPositiveArgument(f"{what} requires t > 0, got {t!r}")
    return tv


def as_index(x, what: str, low: int = 0, high: int | None = None) -> int:
    """x as an index in low..high (no upper end when ``high`` is None): an
    int, never a bool.  Anything else raises InvalidIndex."""
    if isinstance(x, int) and not isinstance(x, bool) and low <= x and (high is None or x <= high):
        return x
    if high is not None:
        raise InvalidIndex(f"{what} must be an integer in {low}..{high}, got {x!r}")
    if low:
        raise InvalidIndex(f"{what} must be an integer >= {low}, got {x!r}")
    raise InvalidIndex(f"{what} must be a nonnegative integer, got {x!r}")


def mag_bits(x) -> int:
    """ceil(log2 |x|) for a nonzero mpf; 0 for zero.  Cheap and exact."""
    if x == 0:
        return 0
    return int(mp.mag(x))


def man_exp(raw: tuple) -> tuple[int, int]:
    """A raw mpf tuple (sign, man, exp, bc) as an exact signed (mantissa,
    exponent) pair."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def aligned(pairs, depth: int | None = None) -> tuple[tuple, int]:
    """Signed (mantissa, exponent) pairs as integers at their smallest
    nonzero exponent: (mantissas, exponent).  With ``depth``, the exponent
    is at most ``depth`` bits below the largest |value|, and the bits below
    it are floored."""
    exp = min((e for m, e in pairs if m), default=0)
    if depth is not None:
        exp = max(exp, max((e + m.bit_length() for m, e in pairs if m), default=exp) - depth)
    return tuple(m << e - exp if e >= exp else m >> exp - e for m, e in pairs), exp
