"""Digamma, polygamma and log-gamma evaluation to policy-controlled accuracy.

One shift-and-series evaluator, ``_series_tail``, computes everything, and
one series loop, ``_psi_series``, sums every order.  ln Gamma is order -1,
psi^(-1) (Adamchik, J. Comput. Appl. Math. 100, 1998): its Stirling series
(DLMF 5.11.1) and the series of psi^(k), k >= 0 (DLMF 5.15.8), share the
term (-1)^(k+1) B_2i (2i+k-1)!/(2i)! x^-(2i+k).  The evaluator sums that
series of psi^(k), k = k_lo..k_max, from Bernoulli term ``first`` on, R_k:

1. shift the argument upward, t -> w = t + N, until w is large enough,
2. sum R_k(w), truncated at its smallest term,
3. undo the shift by a correction made of the recurrence
       psi^(k)(t) = psi^(k)(t+1) + (-1)^(k+1) k! / t^(k+1)
   (ln Gamma(t) = ln Gamma(t+1) - ln t for k = -1) and the series' head,
   its terms before ``first``, at w and at t (DLMF 5.5.2, 5.11.1).

``first`` = 0 is the whole function: the tail from term 1 plus its head,
(-1)^(k+1) [(k-1)! x^-k + k!/2 x^-(k+1)], plus ln x for k = 0, and
(x - 1/2) ln x - x + ln(2 pi)/2 for ln Gamma.  The head is taken once, at
x = w; at t only the recurrence terms k!/t^(k+1) remain.
``polygamma_block`` returns the whole functions, ln Gamma as order -1 when
k_lo = -1, or with ``first`` >= 1 the tails from which ``cmdeg.remainders``
evaluates every member; ``polygamma(k)`` and ``log_gamma`` are its blocks
of order k and -1 alone.

Fixed-point arithmetic.  The shift, the series and the correction run on
plain Python integers, and each value is rounded once; mpmath only
supplies the logarithms and the rounding.  The representation and the
reasons for each part:

* t is held exactly as num / 2^sh, read from its mantissa and exponent, so
  the shifts t, t+1, ..., w-1 are exact integers num + j 2^sh and each
  1/(t+j) costs one integer division.
* Every other quantity is an integer X standing for X / 2^scale.  Order k
  is held at scale P0 + (2 max(first, 1) + k) bitlen(floor w), so the
  first term of its tail keeps P0 = working_bits + PAD_BITS + compensation
  bits.  A whole function's compensation is the size of its largest
  recurrence term k!/t^(k+1), k <= k_max, plus 4: bitlen(k_max!) + 4 -
  (k_max+1) (mag_bits(t) - 1), at least 4.  The correction multiplies each
  power sum by k!, and these bits keep the product absolutely accurate; at
  t >= 2 the terms shrink like t^-(k+1), so an order-200 block at t ~ 31
  needs 800 bits fewer than bitlen(200!).  A tail's compensation is 0, so
  a large tail at high k near t = 1 can miss the absolute bound; its
  relative accuracy holds.
* The head's terms and k!/t^(k+1) are each one exact rational, floored
  once, so at t < 1 the recurrence term, (k+1) |log2 t| bits larger than
  at t = 1, costs no series precision: the series and the power sums run
  at w >= 10, where no term is that large.
* w^(-2i) underflows at any fixed scale while |B_2i| grows past 2^400 (512
  working bits, w ~ 171), so B_2i w^(-2i) at 2^scale alone would be only
  2^(-scale) * |B_2i| accurate.  It is therefore held as v / 2^e with
  scale + _FIXED_GUARD_BITS significant bits in v: a guard scale
  2^(e - scale) that grows with i, divided out together with B_2i's
  denominator.  Order k's product cuts it to 8 bits below the product's
  last place, bitlen((2i+k-1)!/(2i)! (2^lift / w)^k 2^scale) + 8 bits: the
  cut costs under 2^-8 of a unit, and its width depends on order k alone.
  Late terms, far below the target, thus multiply a few bits, not a few
  hundred.
* ln Gamma undoes its shift with one log of the product t(t+1)...(w-1),
  carried to scale + _FIXED_GUARD_BITS significant bits: one log per
  value, not one per shift.

Only the correction's power sums and logs are memoised, per (t, shift,
scale): the tails of every ``first`` at one t share them.  Values are not
memoised: a derivative scope asks for one per (t, policy), so a memo of
them would only miss.

The shift target max(10, working_bits/3) makes the smallest series term
comfortably smaller than the absolute error target, so the smallest-term
truncation rule meets the accuracy contract; the loop still verifies the
achieved bound and shifts further when a high derivative order requires it.
From the shift target on, N = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import factorial, inf, lcm

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


def _magnitude_compensation(k: int, t: mp.mpf) -> int:
    """Bits of the largest recurrence term j!/t^(j+1), j <= k, plus 4 and at
    least 4.  bitlen(k!) - (k+1) (mag_bits(t) - 1) bounds the bits of
    k!/t^(k+1) from above, as mag_bits(t) - 1 <= log2 t; the bound is convex
    in k, so over j <= k it is largest at j = k or at j = 0, where the floor
    covers it."""
    fact_bits = factorial(k).bit_length() if k > 1 else 1
    drop = (k + 1) * max(0, mag_bits(t) - 1)
    return max(4, fact_bits + 4 - drop)


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
    w: int,
    sh: int,
    scale: int,
    target: int,
    k_lo: int,
    first: int,
    floor,
) -> list[int] | None:
    """The terms i >= first >= 1 of the asymptotic series of psi^(k_lo)(w)
    .. psi^(k_max)(w) at large w = w / 2^sh, k_lo >= -1 with psi^(-1) =
    ln Gamma.  Order k is an integer at 2^(scale + k lift), lift =
    bitlen(floor w), its powers of w carrying 2^(k lift).

    B_2i / w^(2i) is formed once per i and shared by every order: order k's
    term is that value times the integer (2i+k-1)!/(2i)! and w^(-k), or
    times w / (2i (2i-1)) for ln Gamma (and divided by 2i for order 0).
    Each order runs its own loop over i, from k_max down, and stops at its
    first term below target / 2^scale times the larger of its first term and
    ``floor(k)``.  Returns None as soon as an order's terms grow before
    reaching its target: the caller shifts further.
    """
    lift = (w >> sh).bit_length()
    u = (1 << (scale + sh + lift)) // w
    upow = [1 << scale]  # (2^lift / w)^k for k = 0 .. k_max
    for _ in range(k_max):
        upow.append(upow[-1] * u >> scale)
    powers = islice(_inverse_even_powers(w, sh, scale), first - 1, None)
    shared = []  # B_2i w^(-2i) at 2^e, as (value, e), for i = first, first+1, ...
    sums = [0] * (k_max + 1 - k_lo)
    for k in range(k_max, k_lo - 1, -1):  # the highest order's terms grow first
        total, prev = 0, inf
        if k > 0:  # (2i+k-1)!/(2i)! times w^-k
            factor = upow[k] * (factorial(2 * first + k - 1) // factorial(2 * first))
        for n, i in enumerate(count(first)):
            if n == len(shared):
                b = bernoulli(2 * i)
                v, e = next(powers)
                shared.append((b.numerator * v // b.denominator, e))
            value, e = shared[n]
            if k > 0:  # the value cut 8 bits below the product's last place: < 2^-8 of a unit
                cut = e - factor.bit_length() - 8
                term = (value >> cut) * factor >> (e - cut) if cut > 0 else value * factor >> e
                factor = factor * ((2 * i + k + 1) * (2 * i + k)) // ((2 * i + 2) * (2 * i + 1))
            elif k == 0:  # the factor is 2^scale
                term = (value >> (e - scale)) // (2 * i)
            else:  # ln Gamma, at 2^(scale - lift): times w, exact, floored once
                term = (value * w >> (e + sh + lift - scale)) // (2 * i * (2 * i - 1))
            total += term
            size = abs(term)
            if size > prev:
                return None  # terms growing before target met
            if i == first:
                goal = max(size, floor(k)) * target >> scale
            if size <= goal:
                break
            prev = size
        sums[k - k_lo] = total if k % 2 else -total
    return sums


def polygamma(k: int, t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """psi^(k)(t) for t > 0; k = 0 is the digamma function.

    Absolute error stays below ``2**(-working_bits + GUARD_BITS)``; values of
    large magnitude keep correspondingly many mantissa bits so the bound holds
    absolutely, not just relatively, and for k >= 1 the error is also below
    that bound relative to the value.  Evaluated as the block of order k
    alone, ``polygamma_block(k, t, policy, k_lo=k)``.
    """
    return polygamma_block(as_index(k, "derivative order"), t, policy, k_lo=k)[k]


def polygamma_block(
    k_max: int, t, policy: PrecisionPolicy | None = None, *, k_lo: int = 0, first: int = 0
) -> list[mp.mpf]:
    """psi^(k_lo)(t) .. psi^(k_max)(t) sharing one argument shift and one
    series pass, under the accuracy contract of :func:`polygamma`; orders
    below k_lo >= 0 read None, and k_lo = -1 appends psi^(-1) = ln Gamma, so
    ``block[k]`` is psi^(k) for every k in -1..k_max (k_max >= -1).  Each
    order is its series' tail from term 1 plus its head, in one fixed-point
    sum rounded once.  With ``first`` in 1..TAIL_FIRST_MAX, each psi^(k)(t)
    minus its series' leading terms and first - 1 Bernoulli terms instead,
    accurate relative to its value."""
    as_index(k_max, "k_max", -1)
    as_index(k_lo, "k_lo", -1, k_max)
    as_index(first, "first", 0, TAIL_FIRST_MAX)
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "polygamma")
    values = [mp.make_mpf(v) for v in _series_tail(first, k_lo, k_max, tv, policy.working_bits)]
    return [None] * k_lo + values if k_lo >= 0 else values[1:] + values[:1]


def log_gamma(t, policy: PrecisionPolicy | None = None, *, first: int = 0) -> mp.mpf:
    """ln Gamma(t) = psi^(-1)(t) for t > 0 under the accuracy contract of
    polygamma, ``polygamma_block(-1, t, policy, k_lo=-1, first=first)[-1]``:
    its Stirling series' tail from term 1 plus (w - 1/2) ln w - w +
    ln(2 pi)/2 at w, less ln(t (t+1) ... (w-1)).  With ``first`` in
    1..TAIL_FIRST_MAX, minus its Stirling series' leading terms and
    first - 1 Bernoulli terms instead, relative to its value."""
    return polygamma_block(-1, t, policy, k_lo=-1, first=first)[-1]


def _power_sums(num: int, sh: int, steps: int, k_max: int, scale: int, lift: int) -> list[int]:
    """sum_{j=1}^{steps-1} (t+j)^-(k+1) for k = 0..k_max, t = num / 2^sh,
    order k at 2^(scale + k lift): powers of 2^lift / (t+j), each (t+j) >= 1."""
    base = scale - lift
    sums = [0] * (k_max + 1)
    for j in range(1, steps):
        u = (1 << (scale + sh)) // (num + (j << sh))
        power = u
        sums[0] += u
        for k in range(1, k_max + 1):
            power = power * u >> base
            sums[k] += power
    return sums


@lru_cache(maxsize=None)
def _head(first: int, k: int) -> tuple:
    """The head of the series of order k (k = -1: ln Gamma) before term
    ``first``, without its logarithms and with (-1)^(k+1) factored out:
    terms c x^-p, namely (k-1)! x^-k (k >= 1), k!/2 x^-(k+1) (k >= 0) and
    B_2i (2i+k-1)!/(2i)! x^-(2i+k), 1 <= i < first.  As (D, at_w, at_t) over
    a common denominator D, each ((p, c D), ...) with p ascending: at_w the
    terms, at_t their negatives (none for the whole function, first = 0)
    plus the recurrence term k!/t^(k+1)."""
    terms = {k + 1: Fraction(factorial(k), 2)} if k >= 0 else {}
    if k >= 1:
        terms[k] = Fraction(factorial(k - 1))
    for i in range(1, first):
        terms[2 * i + k] = bernoulli(2 * i) * Fraction(factorial(2 * i + k - 1), factorial(2 * i))
    den = lcm(*(c.denominator for c in terms.values()))
    at_w = {p: int(c * den) for p, c in terms.items()}
    at_t = {p: -c for p, c in at_w.items()} if first else {}
    if k >= 0:
        at_t[k + 1] = at_t.get(k + 1, 0) + factorial(k) * den
    return den, tuple(sorted(at_w.items())), tuple(sorted(at_t.items()))


def _inverse_polynomial(den: int, terms, powers: list[int], sh: int, scale: int) -> int:
    """sum_p (c_p / den) (x / 2^sh)^-p at 2^scale for ``terms`` ((p, c_p),
    ...), p ascending, and ``powers`` [1, x, x^2, ...]: one exact rational
    over den x^top, floored once."""
    top = terms[-1][0] if terms else 0
    acc = sum((c * powers[top - p]) << (p * sh) for p, c in terms)
    return (acc << scale) // (den * powers[top])


#: Series tails start at a term first <= TAIL_FIRST_MAX.  Each reads its
#: recurrence part from one memoised pass at the scale of this term's tail,
#: which the tails of every first term at one t share.
TAIL_FIRST_MAX = 9


@lru_cache(maxsize=64)
def _recurrence(
    num: int, sh: int, steps: int, k_lo: int, k_max: int, scale: int, lift: int, whole: bool
) -> tuple:
    """The part of each order's correction, k = k_lo..k_max, that no head
    term carries, for t = num / 2^sh shifted by ``steps`` to w, order k at
    2^(scale + k lift): k! sum_{l=1}^{N-1} (t+l)^-(k+1), plus ln(t/w) for
    k = 0, and for ln Gamma (k = -1) -ln(t (t+1) ... (w-1)) - [(t - 1/2) ln t
    - (w - 1/2) ln w + N].  For the ``whole`` function the logs are the
    head's at w alone: -ln w for k = 0, and (w - 1/2) ln w - w + ln(2 pi)/2
    in place of the bracket.  Each order's value depends only on its own k."""
    w = num + (steps << sh)
    sums = _power_sums(num, sh, steps, k_max, scale, lift) if k_max >= 0 else []
    out = [factorial(k) * sums[k] for k in range(max(k_lo, 0), k_max + 1)]
    if k_lo <= 0:  # 2 bits finer than order 0, 2 + lift finer than order -1
        log_t = 0 if whole else _fixed_log(num, -sh, scale + 2)
        log_w = _fixed_log(w, -sh, scale + 2)
    if k_lo <= 0 <= k_max:
        out[0] += (log_t - log_w) >> 2
    if k_lo < 0:
        logs = (2 * num - (1 << sh)) * log_t - (2 * w - (1 << sh)) * log_w >> (sh + 3 + lift)
        s = scale - lift
        # the product t (t+1) ... (w-1), kept to s + _FIXED_GUARD_BITS
        # significant bits times 2^dropped
        product, dropped = 1, 0
        for j in range(steps):
            product *= num + (j << sh)
            excess = max(0, product.bit_length() - s - _FIXED_GUARD_BITS)
            product >>= excess
            dropped += excess
        if whole:  # w - ln(2 pi)/2
            two_pi = libmp.mpf_shift(libmp.mpf_pi(s + 8), 1)
            rest = (w << s >> sh) - libmp.to_fixed(libmp.mpf_log(two_pi, s + 8), s - 1)
        else:  # N
            rest = steps << s
        out.insert(0, -_fixed_log(product, dropped - steps * sh, s) - logs - rest)
    return tuple(out)


def _series_tail(first: int, k_lo: int, k_max: int, t: mp.mpf, working_bits: int) -> list:
    """R_k(t), the terms i >= first of the asymptotic series of psi^(k),
    k = k_lo..k_max, with psi^(-1) = ln Gamma (k_lo = -1), as raw
    mpf tuples accurate relative to their values; first = 0 is the whole
    function, its head included.  ``_psi_series`` sums every order from
    term max(first, 1) at w = t + N, and the shift is undone by

        R_k(t) = R_k(w) + (-1)^(k+1) [k! sum_{l<N} (t+l)^-(k+1)
                                      - sum_p c_p (t^-p - w^-p) - logs],

    with c_p from ``_head`` and the logs of ``_recurrence`` (DLMF 5.5.2,
    5.11.1); the whole function keeps only the terms at w.  This correction
    comes first: the remainders are completely monotonic, so |R_k(t)| is
    at least |R_k(w)| and the correction, and order k's series stops at its
    first term below 2^(8-P0) times the larger of its first term and the
    correction capped at 1 (for a whole function the correction is nearly
    its value).  Each value is rounded once, to the bits of its tail or
    those above 2^-P0, whichever are more, plus 8 less the compensation:
    every bit above 2^(-8-working_bits-PAD_BITS), for the absolute
    contract.  The power sums are held at the whole function's own scale,
    or for the tails of every ``first`` at the scale of term
    TAIL_FIRST_MAX, which they share: about P0 + 18 bitlen(floor w) bits
    relative to their value.  The whole function's compensation covers
    this; it bounds the absolute accuracy of a large tail at high k near
    t = 1.  Raises PrecisionUnreachable once the extra shifts exceed
    ``MAX_EXTRA_SHIFTS``.
    """
    num, sh = _exact(t)
    start = max(first, 1)
    comp = 0 if first else _magnitude_compensation(k_max, t)
    p0 = PrecisionPolicy(working_bits).internal_bits(comp)
    base, extra = _shift_target(working_bits), 0
    while True:
        # fewest steps with t + steps >= base + extra
        steps = max(0, -((num - ((base + extra) << sh)) >> sh))
        w = num + (steps << sh)
        lift = (w >> sh).bit_length()
        scale, jumps = p0 + 2 * start * lift, {}
        if steps or not first:
            shared = p0 + 2 * TAIL_FIRST_MAX * lift if first else scale
            rest = _recurrence(num, sh, steps, k_lo, k_max, shared, lift, not first)
            w_powers, t_powers = [1], [1]
            for _ in range(2 * start + k_max):
                w_powers.append(w_powers[-1] * w)
                t_powers.append(t_powers[-1] * num)

        def floor(k: int) -> int:
            # order k's correction, formed when its series first asks for
            # it (a failed attempt stops at the highest order), capped at 1
            jump = 0
            if steps or not first:
                s, (den, at_w, at_t) = scale + k * lift, _head(first, k)
                jump = rest[k - k_lo] >> (shared - scale)
                jump += _inverse_polynomial(den, at_w, w_powers, sh, s)
                if steps:
                    jump += _inverse_polynomial(den, at_t, t_powers, sh, s)
            jumps[k] = jump
            return min(abs(jump), 1 << (scale + k * lift))

        tails = _psi_series(k_max, w, sh, scale, 1 << (scale - p0 + 8), k_lo, start, floor)
        if tails is not None:
            break
        extra += max(base, (base + extra) // 2)
        if extra > MAX_EXTRA_SHIFTS:
            raise PrecisionUnreachable(f"series tail from term {first}: shift budget exhausted")
    values = []
    for k, tail in enumerate(tails, k_lo):
        x, s = tail + jumps[k] if k % 2 else tail - jumps[k], scale + k * lift
        prec = max(tail.bit_length(), x.bit_length() - s + p0) - comp + 8
        values.append(libmp.from_man_exp(x, -s, prec, libmp.round_nearest))
    return values
