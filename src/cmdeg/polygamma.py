"""Digamma, polygamma and log-gamma evaluation to policy-controlled accuracy.

The algorithm is the classical shift-and-series scheme:

1. shift the argument upward by the recurrence
       psi^(k)(w) = psi^(k)(w+1) + (-1)^k k! / w^(k+1)
   (and ln Gamma(w) = ln Gamma(w+1) - ln w) until it is large enough,
2. evaluate the Bernoulli asymptotic series at the shifted point,
   truncated at its smallest term,
3. undo the shift.

``polygamma_block`` evaluates every order 0..k_max at one point: the shift
is shared, and one pass over the Bernoulli index serves the series of all
orders (each B_2i / w^(2i) is formed once and scaled per order by an
integer and a power of 1/w).  ``polygamma(k)`` is order k of a block.

Both run through one shift loop, ``_shift_and_sum``; each supplies its
own series and its own way of undoing the shift.

Blocks and ln Gamma values are memoised per process on exactly what the
computation reads: (k_max, t, working_bits) and (t, working_bits).  A
smaller k_max is never served from a prefix of a larger block: the internal
precision and the shift both depend on k_max, so the low orders of a larger
block can differ in the last bits from a block computed for them.

The shift target max(10, working_bits/3) makes the smallest series term
comfortably smaller than the absolute error target, so the smallest-term
truncation rule meets the accuracy contract; the loop still verifies the
achieved bound and shifts further when a high derivative order requires it.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import mpmath as mp

from .bernoulli import bernoulli
from .errors import InvalidIndex, NonPositiveArgument, PrecisionUnreachable
from .precision import PrecisionPolicy, as_mpf, mag_bits

__all__ = ["polygamma", "log_gamma", "polygamma_block"]

#: Hard budget on extra recurrence shifts beyond the baseline target.
MAX_EXTRA_SHIFTS = 10**6


def _shift_target(working_bits: int) -> int:
    return max(10, -(-working_bits // 3))


def _magnitude_compensation(k: int, t: mp.mpf) -> int:
    """log2 bound on the largest intermediate term (recurrence term k!/t^(k+1))."""
    neg_log_t = max(0, -mag_bits(t))
    fact_bits = factorial(k).bit_length() if k > 1 else 1
    return fact_bits + (k + 1) * neg_log_t + 4


def _psi_series(k_max: int, w: mp.mpf, target: mp.mpf) -> list[mp.mpf] | None:
    """Asymptotic series for psi^(0)(w) .. psi^(k_max)(w) at large w.

    One pass over the Bernoulli index i serves every order: B_2i / w^(2i)
    is formed once per i, and order k's term is that value times the
    integer (2i+k-1)!/(2i)! and w^(-k) (times 1/(2i) for k = 0).  Each
    order is truncated at its own smallest term.  Returns None as soon as
    any order's terms grow before reaching ``target`` (caller must shift
    further).
    """
    u = 1 / w
    u2 = u * u
    upow = [mp.mpf(1)]  # w^(-k) for k = 0 .. k_max+1
    for _ in range(k_max + 1):
        upow.append(upow[-1] * u)
    # k = 0:  ln w - 1/(2w) - sum_i B_2i / (2i w^(2i))
    # k >= 1: (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
    #                      + sum_i B_2i (2i+k-1)!/((2i)! w^(2i+k)) ]
    totals = [mp.log(w) - u / 2]
    coeffs = [None]  # (2i+k-1)!/(2i)! at the current i
    for k in range(1, k_max + 1):
        totals.append(factorial(k - 1) * upow[k] + factorial(k) * upow[k + 1] / 2)
        coeffs.append(factorial(k + 1) // 2)
    prev = [mp.inf] * (k_max + 1)
    open_orders = list(range(k_max + 1))
    u2i = u2  # w^(-2i)
    i = 1
    while open_orders:
        b = bernoulli(2 * i)
        shared = mp.mpf(b.numerator) / b.denominator * u2i
        still_open = []
        for k in open_orders:
            if k == 0:
                term = shared / (2 * i)
                totals[0] -= term
            else:
                term = shared * coeffs[k] * upow[k]
                totals[k] += term
                coeffs[k] = coeffs[k] * (2 * i + k + 1) * (2 * i + k) // (
                    (2 * i + 2) * (2 * i + 1)
                )
            size = abs(term)
            if size > prev[k]:
                return None  # terms growing before target met
            if size > target:
                prev[k] = size
                still_open.append(k)
        open_orders = still_open
        u2i *= u2
        i += 1
    return [x if k % 2 or k == 0 else -x for k, x in enumerate(totals)]


def _round_out(x: mp.mpf, working_bits: int) -> mp.mpf:
    """Canonical output rounding: keep the absolute-error contract even for
    values much larger than 1 by retaining magnitude bits."""
    with mp.workprec(working_bits + max(0, mag_bits(x)) + 8):
        return +x


def _stirling_series(w: mp.mpf, target: mp.mpf) -> mp.mpf | None:
    """Stirling series for ln Gamma(w) at large w, truncated at its smallest
    term.  Returns None as soon as the terms grow before reaching ``target``
    (caller must shift further)."""
    total = (w - mp.mpf(1) / 2) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
    w2 = w * w
    wpow = +w
    prev = mp.inf
    i = 1
    while True:
        b = bernoulli(2 * i)
        term = mp.mpf(b.numerator) / (b.denominator * 2 * i * (2 * i - 1)) / wpow
        if abs(term) > prev:
            return None
        total += term
        if abs(term) <= target:
            return total
        prev = abs(term)
        wpow *= w2
        i += 1


def _shift_and_sum(t: mp.mpf, working_bits: int, comp: int, series, unshift, what: str):
    """The shift-and-series scheme at the internal precision for
    ``working_bits`` plus ``comp`` compensation bits.

    Shifts t upward by 1 until ``series(w, target)`` converges at the
    shifted point w, raising the shift target each time it does not, and
    returns ``unshift(tail, shifted)`` where ``shifted`` lists t, t+1, ...,
    w-1.  Both callables run at the internal precision.  Raises
    PrecisionUnreachable once the extra shifts exceed ``MAX_EXTRA_SHIFTS``.
    """
    prec = PrecisionPolicy(working_bits).internal_bits(comp)
    with mp.workprec(prec):
        target = mp.mpf(2) ** (8 - prec)
        base = _shift_target(working_bits)
        extra = 0
        while True:
            shifted: list[mp.mpf] = []
            w = +t
            while w < base + extra:
                shifted.append(w)
                w += 1
            tail = series(w, target)
            if tail is not None:
                return unshift(tail, shifted)
            extra += max(base, (base + extra) // 2)
            if extra > MAX_EXTRA_SHIFTS:
                raise PrecisionUnreachable(f"{what}: shift budget exhausted")


def polygamma(k: int, t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """psi^(k)(t) for t > 0; k = 0 is the digamma function.

    Absolute error stays below ``2**(-working_bits + GUARD_BITS)``; values of
    large magnitude keep correspondingly many mantissa bits so the bound holds
    absolutely, not just relatively.  Evaluated as the last order of
    ``polygamma_block(k, t, policy)``.
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidIndex(f"derivative order must be a nonnegative integer, got {k!r}")
    return polygamma_block(k, t, policy)[k]


def polygamma_block(k_max: int, t, policy: PrecisionPolicy | None = None) -> list[mp.mpf]:
    """psi^(0)(t) .. psi^(k_max)(t) sharing one argument shift and one
    series pass, under the accuracy contract of :func:`polygamma`."""
    if not isinstance(k_max, int) or k_max < 0:
        raise InvalidIndex(f"k_max must be a nonnegative integer, got {k_max!r}")
    policy = policy or PrecisionPolicy()
    tv = as_mpf(t, policy.internal_bits())
    if not tv > 0:
        raise NonPositiveArgument(f"polygamma requires t > 0, got {t!r}")
    return list(_block(k_max, tv, policy.working_bits))


@lru_cache(maxsize=4096)
def _block(k_max: int, tv: mp.mpf, working_bits: int) -> tuple[mp.mpf, ...]:
    def unshift(tails: list[mp.mpf], shifted: list[mp.mpf]) -> list[mp.mpf]:
        # inverse powers of every shifted-through point, shared across orders
        points = [1 / w for w in shifted]
        powers = [mp.mpf(1)] * len(points)
        results = []
        for k in range(k_max + 1):
            shift_sum = mp.mpf(0)
            for idx, u in enumerate(points):
                powers[idx] *= u
                shift_sum += powers[idx]
            if k == 0:
                results.append(tails[0] - shift_sum)
            elif k % 2:
                results.append(tails[k] + mp.mpf(factorial(k)) * shift_sum)
            else:
                results.append(tails[k] - mp.mpf(factorial(k)) * shift_sum)
        return results

    results = _shift_and_sum(
        tv,
        working_bits,
        _magnitude_compensation(k_max, tv),
        lambda w, target: _psi_series(k_max, w, target),
        unshift,
        f"polygamma block up to order {k_max}",
    )
    return tuple(_round_out(x, working_bits) for x in results)


def _unshift_log_gamma(tail: mp.mpf, shifted: list[mp.mpf]) -> mp.mpf:
    # ln Gamma(t) = ln Gamma(w) - ln t - ln(t+1) - ... - ln(w-1)
    log_sum = mp.mpf(0)
    for w in shifted:
        log_sum += mp.log(w)
    return tail - log_sum


@lru_cache(maxsize=4096)
def _log_gamma_raw(t: mp.mpf, working_bits: int) -> mp.mpf:
    comp = 6 + max(0, -mag_bits(t))  # |ln t| grows only logarithmically
    result = _shift_and_sum(
        t, working_bits, comp, _stirling_series, _unshift_log_gamma, "log_gamma"
    )
    return _round_out(result, working_bits)


def log_gamma(t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """ln Gamma(t) for t > 0 under the same accuracy contract as polygamma."""
    policy = policy or PrecisionPolicy()
    tv = as_mpf(t, policy.internal_bits())
    if not tv > 0:
        raise NonPositiveArgument(f"log_gamma requires t > 0, got {t!r}")
    return _log_gamma_raw(tv, policy.working_bits)
