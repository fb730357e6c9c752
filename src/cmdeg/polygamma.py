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
integer and a power of 1/w).  ``polygamma(k)`` is order k of a block.  A
block from a low order k_lo (``polygamma_block(..., k_lo=)``) leaves the
orders below it out of the series and out of the unshift's sums; its
unshift still forms every power of 1/(t+j) up to k_max+1.  Every other
step is the full block's, so each order it returns has the full block's
bits as long as no skipped order alone would have forced a further shift.
The low orders' terms shrink fastest, so they do not force one: a seeded
sample of (k_lo, k_max, t, working_bits) finds no case.

Both run through one shift loop, ``_shift_and_sum``; each supplies its
own series and its own way of undoing the shift.

Fixed-point arithmetic.  The shift loop, both series and both unshifts run
on plain Python integers; mpmath only supplies the logarithms and the final
rounding.  The representation and the reasons for each part:

* t is held exactly as num / 2^sh, read from its mantissa and exponent, so
  the shifts t, t+1, ..., w-1 are exact integers num + j 2^sh and each
  1/(t+j) costs one integer division.
* Every other quantity is an integer X standing for X / 2^scale.  The
  internal precision P0 = working_bits + PAD_BITS + compensation sets the
  absolute truncation target 2^(8-P0).  For a block the compensation is
  bitlen(k_max!) + 4, the size of the recurrence term k!/t^(k+1) at t = 1.
  The scale is wider:
  scale = P0 + widen + (k_max+1) * bitlen(floor t) for a block, and
  P0 + widen + bitlen(floor w) for ln Gamma.  At large t a value is tiny
  (psi^(k)(t) ~ (k-1)!/t^k), and an absolute 2^(-P0) would keep only
  P0 - k log2 t of its bits; the bitlen(floor t) term keeps P0 bits
  relative to psi^(k)(t).  It is bitlen(floor t), not bitlen(floor w),
  because each order is wanted relative to psi^(k) at the unshifted t:
  the series target below is set that way, and w^-k needs no more than
  that absolute accuracy.  ln Gamma keeps bitlen(floor w): ln Gamma(2) =
  0, so its noise bits there depend on the scale.  At t < 1 the
  recurrence terms grow by (k_max+1) |log2 t| bits, and ``widen`` adds
  those bits to the scale for the unshift.  They do not tighten the
  target: the series runs at w >= 10, where no term is that large, and a
  target tightened by them only forces more shifts (five or six at t =
  1e-300).  ln Gamma has widen = 0; its compensation is 6 + |log2 t| for
  t < 1.
* w^(-2i) underflows at any fixed scale while |B_2i| grows past 2^400 (512
  working bits, w ~ 171), so B_2i w^(-2i) at 2^scale alone would be only
  2^(-scale) * |B_2i| accurate.  It is therefore held as v / 2^e with
  scale + _FIXED_GUARD_BITS significant bits in v: a guard scale
  2^(e - scale) that grows with i, divided out together with B_2i's
  denominator.
* Order k >= 1 stops at its first term below 2^(8-P0) * min(1, (k-1)!
  t^-k), the absolute target scaled down to the smallest value
  |psi^(k)(t)| can take, so every order is accurate relative to its value;
  order 0 and ln Gamma keep the absolute target.
* ln Gamma undoes its shift with one log of the product t(t+1)...(w-1),
  carried to scale + _FIXED_GUARD_BITS significant bits: one log per
  value, not one per shift.

Blocks are memoised per process on exactly what the computation reads:
(k_lo, k_max, t, working_bits).  A smaller k_max is never served from a
prefix of a larger block: the internal precision and the shift both depend
on k_max, so the low orders of a larger block can differ in the last bits
from a block computed for them.  ln Gamma values are not memoised: a derivative
scope asks for one per (t, policy), so a memo of them would only miss.

The shift target max(10, working_bits/3) makes the smallest series term
comfortably smaller than the absolute error target, so the smallest-term
truncation rule meets the accuracy contract; the loop still verifies the
achieved bound and shifts further when a high derivative order requires it.

Series tails.  At t past the shift target, ``_series_tail`` sums only the
Bernoulli terms i >= first of the series of ln Gamma and psi^(k) at t,
without their leading terms: the remainders that ``cmdeg.remainders``
needs.  It runs the same two series loops with a first index.  Order k is
held at scale P0 + (2 first + k) bitlen(floor t), with P0 = working_bits +
PAD_BITS: its first term, of size t^-(2 first + k), keeps P0 bits.  The
powers of 1/t carry the k bitlen(floor t) part, as (2^bitlen(floor t) /
t)^k.  Each order stops at its first term below 2^(8-P0) times its first
term, so every tail is accurate relative to its value.  The scale and the
stopping rule of an order depend only on (first, k, t, working_bits), so
the other orders of a call do not change its bits.  A tail returns None
when a term grows before its target: the caller then uses a shifted block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import factorial, inf

import mpmath as mp
from mpmath import libmp

from .bernoulli import bernoulli
from .errors import PrecisionUnreachable
from .precision import PrecisionPolicy, as_index, as_point, mag_bits

__all__ = ["polygamma", "log_gamma", "polygamma_block"]

#: Hard budget on extra recurrence shifts beyond the baseline target.
MAX_EXTRA_SHIFTS = 10**6

#: Significant bits beyond the scale kept in w^(-2i) and in the ln Gamma
#: shift product, absorbing their relative rounding over a few hundred steps.
_FIXED_GUARD_BITS = 32


def _shift_target(working_bits: int) -> int:
    return max(10, -(-working_bits // 3))


def _magnitude_compensation(k: int, t: mp.mpf) -> tuple[int, int]:
    """(bits of the recurrence term k!/t^(k+1) at t = 1, bits by which
    |log2 t| widens the scale): (k+1) |log2 t| for t < 1, where the
    recurrence terms grow, and (k+1) bitlen(floor t) for t >= 1, where the
    values shrink like t^-k."""
    log_t = max(0, -mag_bits(t)) + int(t).bit_length()
    fact_bits = factorial(k).bit_length() if k > 1 else 1
    return fact_bits + 4, (k + 1) * log_t


def _exact(t: mp.mpf) -> tuple[int, int]:
    """(num, sh) with t = num / 2^sh exactly."""
    return (t.man << t.exp, 0) if t.exp >= 0 else (t.man, -t.exp)


def _fixed_log(man: int, exp: int, scale: int) -> int:
    """ln(man * 2^exp) for man > 0, as an integer at 2^scale."""
    mag = abs(man.bit_length() + exp).bit_length()  # bits of |ln x| / ln 2
    return libmp.to_fixed(libmp.mpf_log(libmp.from_man_exp(man, exp), scale + mag + 8), scale)


def _inverse_even_powers(w: int, sh: int, scale: int):
    """Yield (v, e) with v / 2^e = (w / 2^sh)^(-2i) for i = 1, 2, ..., v
    keeping scale + _FIXED_GUARD_BITS significant bits (e > scale always)."""
    keep = scale + _FIXED_GUARD_BITS
    bits = 2 * w.bit_length()
    m2 = (1 << (keep + bits)) // (w * w)
    e2 = keep + bits - 2 * sh
    v, e = m2, e2
    while True:
        yield v, e
        v *= m2
        excess = v.bit_length() - keep
        v >>= excess
        e += e2 - excess


def _psi_series(
    k_max: int,
    t: int,
    w: int,
    sh: int,
    scale: int,
    target: int,
    k_lo: int = 0,
    first: int = 0,
    lift: int = 0,
) -> list[int] | None:
    """Asymptotic series for psi^(k_lo)(w) .. psi^(k_max)(w) at large w =
    w / 2^sh, as integers at 2^scale; t / 2^sh is the unshifted argument.

    One pass over the Bernoulli index i serves every order: B_2i / w^(2i)
    is formed once per i, and order k's term is that value times the
    integer (2i+k-1)!/(2i)! and w^(-k) (times 1/(2i) for k = 0).  Each
    order is truncated at its own smallest term, below ``target`` (for
    k >= 1 scaled by min(1, (k-1)! t^-k)).  Returns None as soon as any
    order's terms grow before reaching its target (caller must shift
    further).

    With ``first`` >= 1 only the series' tail is summed: the terms
    i >= first, without the leading terms.  Order k is then an integer at
    2^(scale + k lift), its powers of w carrying 2^(k lift), and it stops
    at its first term below target / 2^scale times the first of its terms.
    """
    u = (1 << (scale + sh + lift)) // w
    upow = [1 << scale]  # (2^lift / w)^k for k = 0 .. k_max+1
    for _ in range(k_max + 1):
        upow.append(upow[-1] * u >> scale)
    orders = range(k_lo, k_max + 1)
    i = max(first, 1)
    # (2i+k-1)!/(2i)! at the current i; order 0 divides by 2i instead
    coeffs = [factorial(2 * i + k - 1) // factorial(2 * i) if k else 1 for k in range(k_max + 1)]
    totals = [0] * (k_max + 1)
    targets = [target] * (k_max + 1)
    if not first:
        # k = 0:  ln w - 1/(2w) - sum_i B_2i / (2i w^(2i))
        # k >= 1: (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
        #                      + sum_i B_2i (2i+k-1)!/((2i)! w^(2i+k)) ]
        for k in orders:
            if k == 0:
                totals[0] = _fixed_log(w, -sh, scale) - (u >> 1)
                continue
            totals[k] = factorial(k - 1) * upow[k] + (factorial(k) * upow[k + 1] >> 1)
            lead, t_k = factorial(k - 1) << (k * sh), t**k  # (k-1)! t^-k = lead / t_k
            if lead < t_k:
                targets[k] = target * lead // t_k
    prev = [inf] * (k_max + 1)
    open_orders = list(orders)
    powers = islice(_inverse_even_powers(w, sh, scale), i - 1, None)
    while open_orders:
        b = bernoulli(2 * i)
        v, e = next(powers)
        shared = b.numerator * v // b.denominator  # B_2i w^(-2i) at 2^e
        still_open = []
        for k in open_orders:
            term = shared * coeffs[k] * upow[k] >> e
            if k == 0:
                term //= 2 * i
                totals[0] -= term
            else:
                totals[k] += term
                coeffs[k] = coeffs[k] * (2 * i + k + 1) * (2 * i + k) // (
                    (2 * i + 2) * (2 * i + 1)
                )
            size = abs(term)
            if size > prev[k]:
                return None  # terms growing before target met
            if i == first:
                targets[k] = size * target >> scale
            if size > targets[k]:
                prev[k] = size
                still_open.append(k)
        open_orders = still_open
        i += 1
    return [totals[k] if k % 2 or k == 0 else -totals[k] for k in orders]


def _from_fixed(x: int, scale: int, working_bits: int) -> mp.mpf:
    """The integer x at 2^scale as an mpf, rounded to nearest once at
    working_bits + 8 bits plus its magnitude above 1: the absolute-error
    contract holds even for values much larger than 1."""
    prec = working_bits + max(0, abs(x).bit_length() - scale) + 8
    return mp.make_mpf(libmp.from_man_exp(x, -scale, prec, libmp.round_nearest))


def _stirling_series(w: int, sh: int, scale: int, target: int, first: int = 0) -> int | None:
    """Stirling series for ln Gamma(w) at large w = w / 2^sh, as an integer
    at 2^scale, truncated at its smallest term.  Returns None as soon as
    the terms grow before reaching ``target`` (caller must shift further).
    With ``first`` >= 1 only its tail, as in ``_psi_series``: the terms
    i >= first, down to target / 2^scale times the first of them."""
    total = 0
    if not first:
        half_log_2pi = libmp.to_fixed(
            libmp.mpf_log(libmp.mpf_shift(libmp.mpf_pi(scale + 8), 1), scale + 8), scale - 1
        )
        # (w - 1/2) ln w - w + ln(2 pi)/2
        log_w = _fixed_log(w, -sh, scale)
        total = ((2 * w - (1 << sh)) * log_w >> (sh + 1)) - (w << scale >> sh) + half_log_2pi
    prev = inf
    i = max(first, 1)
    for v, e in islice(_inverse_even_powers(w, sh, scale), i - 1, None):
        # B_2i / (2i (2i-1) w^(2i-1)) = B_2i w w^(-2i) / (2i (2i-1))
        b = bernoulli(2 * i)
        term = (b.numerator * v * w >> (e + sh - scale)) // (
            b.denominator * 2 * i * (2 * i - 1)
        )
        if abs(term) > prev:
            return None
        total += term
        if i == first:
            target = abs(term) * target >> scale
        if abs(term) <= target:
            return total
        prev = abs(term)
        i += 1


def _series_tail(first: int, k_lo: int, k_max: int, t: mp.mpf, working_bits: int) -> list | None:
    """The terms i >= first of the asymptotic series of ln Gamma (order
    k = -1) and of psi^(k) at t itself, for k = k_lo..k_max, without their
    leading terms: each series' remainder after first - 1 Bernoulli terms.

    No shift, so t must be large (at least ``_shift_target``).  Order k is
    held at scale p0 + (2 first + k) bitlen(floor t), where its first term
    ~ t^-(2 first + k) still has p0 = working_bits + PAD_BITS bits, and is
    returned exactly as a raw mpf tuple, accurate relative to its value.
    None when some order's terms grow before its target.
    """
    p0 = PrecisionPolicy(working_bits).internal_bits()
    num, sh = _exact(t)
    lift = (num >> sh).bit_length()
    scale = p0 + 2 * first * lift
    sums = []
    if k_lo < 0:
        sums.append(_stirling_series(num, sh, scale - lift, 1 << (scale - lift - p0 + 8), first))
    if k_max >= 0:
        target = 1 << (scale - p0 + 8)
        sums += _psi_series(k_max, num, num, sh, scale, target, max(k_lo, 0), first, lift) or [None]
    if None in sums:
        return None
    return [libmp.from_man_exp(x, -scale - k * lift) for k, x in zip(range(k_lo, k_max + 1), sums)]


def _shift_and_sum(
    t: mp.mpf,
    working_bits: int,
    comp: int,
    widen: int,
    orders: int,
    series,
    unshift,
    what: str,
):
    """The shift-and-series scheme at internal precision P0 = the policy's
    internal bits for ``working_bits`` plus ``comp`` compensation bits.

    Shifts t = num / 2^sh upward by 1 until ``series(w, sh, scale, target)``
    converges at the shifted point w / 2^sh, raising the shift target each
    time it does not, and returns ``(unshift(tail, num, sh, steps, scale),
    scale)`` where ``steps`` = w - t and every value is an integer at
    2^scale, scale = P0 + widen + orders * bitlen(floor w), target =
    2^(8-P0).  A block passes orders = 0 and a widen from |log2 t|; ln
    Gamma passes orders = 1.  ``widen`` bits do not tighten the series
    target.  Raises PrecisionUnreachable once the extra shifts exceed
    ``MAX_EXTRA_SHIFTS``.
    """
    p0 = PrecisionPolicy(working_bits).internal_bits(comp)
    num, sh = _exact(t)
    base = _shift_target(working_bits)
    extra = 0
    while True:
        # fewest steps with t + steps >= base + extra
        steps = max(0, -((num - ((base + extra) << sh)) >> sh))
        w = num + (steps << sh)
        scale = p0 + widen + orders * (w >> sh).bit_length()
        tail = series(w, sh, scale, 1 << (scale - p0 + 8))
        if tail is not None:
            return unshift(tail, num, sh, steps, scale), scale
        extra += max(base, (base + extra) // 2)
        if extra > MAX_EXTRA_SHIFTS:
            raise PrecisionUnreachable(f"{what}: shift budget exhausted")


def polygamma(k: int, t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """psi^(k)(t) for t > 0; k = 0 is the digamma function.

    Absolute error stays below ``2**(-working_bits + GUARD_BITS)``; values of
    large magnitude keep correspondingly many mantissa bits so the bound holds
    absolutely, not just relatively, and for k >= 1 the error is also below
    that bound relative to the value.  Evaluated as the last order of
    ``polygamma_block(k, t, policy)``.
    """
    return polygamma_block(as_index(k, "derivative order"), t, policy)[k]


def polygamma_block(
    k_max: int, t, policy: PrecisionPolicy | None = None, *, k_lo: int = 0
) -> list[mp.mpf]:
    """psi^(0)(t) .. psi^(k_max)(t) sharing one argument shift and one
    series pass, under the accuracy contract of :func:`polygamma`.  The
    orders below ``k_lo`` are not evaluated: their entries are None."""
    as_index(k_max, "k_max")
    as_index(k_lo, "k_lo", 0, k_max)
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "polygamma")
    return [None] * k_lo + list(_block(k_lo, k_max, tv, policy.working_bits))


@lru_cache(maxsize=4096)
def _block(k_lo: int, k_max: int, tv: mp.mpf, working_bits: int) -> tuple[mp.mpf, ...]:
    """psi^(k_lo)(t) .. psi^(k_max)(t)."""

    def unshift(tails: list[int], num: int, sh: int, steps: int, scale: int) -> list[int]:
        # sums over the shifted-through points of (t+j)^-(k+1), per order k
        shift_sums = [0] * (k_max + 1)
        for j in range(steps):
            u = (1 << (scale + sh)) // (num + (j << sh))
            power = u
            for k in range(k_max + 1):
                if k:
                    power = power * u >> scale
                if k >= k_lo:
                    shift_sums[k] += power
        results = []
        for k, tail in zip(range(k_lo, k_max + 1), tails):
            jump = factorial(k) * shift_sums[k]
            results.append(tail + jump if k % 2 else tail - jump)
        return results

    num = _exact(tv)[0]
    results, scale = _shift_and_sum(
        tv,
        working_bits,
        *_magnitude_compensation(k_max, tv),
        0,
        lambda w, sh, scale, target: _psi_series(k_max, num, w, sh, scale, target, k_lo),
        unshift,
        f"polygamma block up to order {k_max}",
    )
    return tuple(_from_fixed(x, scale, working_bits) for x in results)


def _unshift_log_gamma(tail: int, num: int, sh: int, steps: int, scale: int) -> int:
    # ln Gamma(t) = ln Gamma(w) - ln(t (t+1) ... (w-1)), the product kept to
    # scale + _FIXED_GUARD_BITS significant bits times 2^dropped
    product, dropped = 1, 0
    for j in range(steps):
        product *= num + (j << sh)
        excess = max(0, product.bit_length() - scale - _FIXED_GUARD_BITS)
        product >>= excess
        dropped += excess
    return tail - _fixed_log(product, dropped - steps * sh, scale)


def log_gamma(t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """ln Gamma(t) for t > 0 under the same accuracy contract as polygamma."""
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "log_gamma")
    comp = 6 + max(0, -mag_bits(tv))  # |ln t| grows only logarithmically
    result, scale = _shift_and_sum(
        tv, policy.working_bits, comp, 0, 1, _stirling_series, _unshift_log_gamma, "log_gamma"
    )
    return _from_fixed(result, scale, policy.working_bits)
