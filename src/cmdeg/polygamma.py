"""Digamma, polygamma and log-gamma evaluation to policy-controlled accuracy.

The algorithm is the classical shift-and-series scheme:

1. shift the argument upward by the recurrence
       psi^(k)(w) = psi^(k)(w+1) + (-1)^k k! / w^(k+1)
   (and ln Gamma(w) = ln Gamma(w+1) - ln w) until it is large enough,
2. evaluate the Bernoulli asymptotic series at the shifted point,
   truncated at its smallest term,
3. undo the shift.

``polygamma_block`` evaluates every order 0..k_max at one point: the shift
is shared, and each B_2i / w^(2i) is formed once and serves the series of
all orders, scaled per order by an integer and a power of 1/w.
``polygamma(k)`` is order k of a block.  A block from a low order k_lo
leaves the orders below it out of the series and the unshift's sums; the
orders it returns keep the full block's bits unless a skipped order alone
would force a further shift, and the low orders' terms shrink fastest (a
seeded sample of (k_lo, k_max, t, working_bits) finds no case).  With
``first`` >= 1, ``polygamma_block`` and ``log_gamma`` return the series
tails below instead, from which ``cmdeg.remainders`` evaluates every
member.  All run through one shift loop, ``_shift_and_sum``; each supplies
its own series and its own way of undoing the shift.

Fixed-point arithmetic.  The shift loop, both series and both unshifts run
on plain Python integers; mpmath only supplies the logarithms and the final
rounding.  Each integer is only as wide as its own value needs.  The
representation and the reasons for each part:

* t is held exactly as num / 2^sh, read from its mantissa and exponent, so
  the shifts t, t+1, ..., w-1 are exact integers num + j 2^sh and each
  1/(t+j) costs one integer division.
* Every other quantity is an integer X standing for X / 2^scale.  The
  internal precision P0 = working_bits + PAD_BITS + compensation sets the
  absolute truncation target 2^(8-P0).  A block's compensation is the size
  of the largest recurrence term k!/t^(k+1), k <= k_max, at the actual t,
  plus 4: bitlen(k_max!) + 4 - (k_max+1) (mag_bits(t) - 1), at least 4.
  The unshift multiplies each power sum by k!, and these bits keep the
  product absolutely accurate; at t >= 2 the terms shrink like t^-(k+1),
  so an order-200 block at t ~ 31 needs 800 bits fewer than bitlen(200!).
  ln Gamma's compensation is 6.
* Order k of a block is held at its own scale P0 + (k+1) lift, lift =
  bitlen(floor t) (0 for t < 1), and its powers of 1/w carry 2^(k lift) as
  (2^lift / w)^k.  At large t a value is tiny (psi^(k)(t) ~ (k-1)!/t^k),
  and an absolute 2^(-P0) would keep only P0 - k log2 t of its bits; the
  (k+1) lift keeps P0 bits relative to psi^(k)(t), and a low order does
  not carry the lift of the block's highest order.  It is bitlen(floor t),
  not bitlen(floor w), because each order is wanted relative to psi^(k)
  at the unshifted t: the series target below is set that way, and w^-k
  needs no more than that absolute accuracy.  ln Gamma has one scale,
  P0 + widen + bitlen(floor w): ln Gamma(2) = 0, so its noise bits there
  depend on the scale.
* At t < 1 the recurrence term k!/t^(k+1) at j = 0 is (k+1) |log2 t| bits
  larger than at t = 1.  The block adds it exactly, k! 2^(scale + (k+1)
  sh) / num^(k+1) floored once, so the series and the steps j >= 1 (where
  t + j >= 1) run at P0.  ln Gamma's ``widen`` adds |log2 t| bits to its
  scale for t < 1; they do not tighten its target: the series runs at
  w >= 10, where no term is that large, and a target tightened by them
  only forces more shifts (three Stirling passes at t = 1e-300, 128 bits).
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
* Order k >= 1 stops at its first term below 2^(8-P0) * min(1, (k-1)!
  t^-k), the absolute target scaled down to the smallest value
  |psi^(k)(t)| can take, so every order is accurate relative to its value;
  order 0 and ln Gamma keep the absolute target.  Each order runs its own
  loop over i, the highest first: its terms grow first, so a series that
  must shift further stops early.
* ln Gamma undoes its shift with one log of the product t(t+1)...(w-1),
  carried to scale + _FIXED_GUARD_BITS significant bits: one log per
  value, not one per shift.

Blocks are memoised per process on exactly what the computation reads:
(k_lo, k_max, t, working_bits).  A smaller k_max is never served from a
prefix of a larger block: the internal precision and the shift both depend
on k_max, so the low orders of a larger block can differ in the last bits
from a block computed for them.  ln Gamma values and series tails are not
memoised: a derivative scope asks for one per (t, policy), so a memo of
them would only miss.

The shift target max(10, working_bits/3) makes the smallest series term
comfortably smaller than the absolute error target, so the smallest-term
truncation rule meets the accuracy contract; the loop still verifies the
achieved bound and shifts further when a high derivative order requires it.

Series tails.  ``_series_tail`` shifts a remainder R_k itself, the series
of ln Gamma or psi^(k) from Bernoulli term ``first`` on: the series loops
sum R_k(w) at w = t + N, and the recurrence and the head's explicit terms
at t and at w undo the shift.  Order k is held at scale P0 + (2 first + k)
bitlen(floor w), so the first term of its tail keeps P0 = working_bits +
PAD_BITS bits.  From the shift target on, N = 0.
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
    t: int,
    w: int,
    sh: int,
    scale: int,
    target: int,
    k_lo: int = 0,
    first: int = 0,
    floors: list[int] | None = None,
) -> list[int] | None:
    """Asymptotic series for psi^(k_lo)(w) .. psi^(k_max)(w) at large w =
    w / 2^sh; t / 2^sh is the unshifted argument.  Order k is an integer at
    2^(scale + k lift), lift = bitlen(floor t), its powers of w carrying
    2^(k lift).

    B_2i / w^(2i) is formed once per i and shared by every order: order
    k's term is that value times the integer (2i+k-1)!/(2i)! and w^(-k)
    (times 1/(2i) for k = 0).  Each order runs its own loop over i, from
    k_max down, and is truncated at its own smallest term, below
    ``target`` / 2^scale (for k >= 1 scaled by min(1, (k-1)! t^-k)).
    Returns None as soon as an order's terms grow before reaching its
    target (caller must shift further).

    With ``first`` >= 1 only the series' tail is summed: the terms
    i >= first, without the leading terms.  Order k then stops at its first
    term below target / 2^scale times the first of its terms, or times
    ``floors[k - k_lo]`` if that is larger.
    """
    lift = (t >> sh).bit_length()
    u = (1 << (scale + sh + lift)) // w
    upow = [1 << scale]  # (2^lift / w)^k for k = 0 .. k_max+1
    for _ in range(k_max + 1):
        upow.append(upow[-1] * u >> scale)
    start = max(first, 1)
    powers = islice(_inverse_even_powers(w, sh, scale), start - 1, None)
    shared = []  # B_2i w^(-2i) at 2^e, as (value, e), for i = start, start+1, ...
    sums = [0] * (k_max + 1 - k_lo)
    for k in range(k_max, k_lo - 1, -1):  # the highest order's terms grow first
        if first:  # a tail: no leading terms, and its goal comes from its first term
            total = goal = 0
        elif k:
            # (-1)^(k-1) [ (k-1)!/w^k + k!/(2 w^(k+1))
            #              + sum_i B_2i (2i+k-1)!/((2i)! w^(2i+k)) ]
            total = factorial(k - 1) * upow[k] + (factorial(k) * upow[k + 1] >> (lift + 1))
            # (k-1)! t^-k = lead / t_k at 2^(k lift)
            lead, t_k = factorial(k - 1) << (k * (sh + lift)), t**k
            goal = target * min(lead, t_k << k * lift) // t_k
        else:
            # ln w - 1/(2w) - sum_i B_2i / (2i w^(2i))
            total = _fixed_log(w, -sh, scale) - ((1 << (scale + sh - 1)) // w)
            goal = target
        # (2i+k-1)!/(2i)! times w^-k; order 0 divides by 2i instead
        factor = upow[k] * (factorial(2 * start + k - 1) // factorial(2 * start) if k else 1)
        prev = inf
        for n, i in enumerate(count(start)):
            if n == len(shared):
                b = bernoulli(2 * i)
                v, e = next(powers)
                shared.append((b.numerator * v // b.denominator, e))
            value, e = shared[n]
            # the value cut to 8 bits below the product's last place costs
            # under 2^-8 of a unit, and the width is order k's own
            cut = e - factor.bit_length() - 8
            term = (value >> cut) * factor >> (e - cut) if cut > 0 else value * factor >> e
            if k:
                total += term
                factor = factor * ((2 * i + k + 1) * (2 * i + k)) // ((2 * i + 2) * (2 * i + 1))
            else:
                term //= 2 * i
                total -= term
            size = abs(term)
            if size > prev:
                return None  # terms growing before target met
            if i == first:
                goal = max(size, floors[k - k_lo] if floors else 0) * target >> scale
            if size <= goal:
                break
            prev = size
        sums[k - k_lo] = -total if k and not k % 2 else total
    return sums


def _from_fixed(x: int, scale: int, working_bits: int) -> mp.mpf:
    """The integer x at 2^scale as an mpf, rounded to nearest once at
    working_bits + 8 bits plus its magnitude above 1: the absolute-error
    contract holds even for values much larger than 1."""
    prec = working_bits + max(0, abs(x).bit_length() - scale) + 8
    return mp.make_mpf(libmp.from_man_exp(x, -scale, prec, libmp.round_nearest))


def _stirling_series(
    w: int, sh: int, scale: int, target: int, first: int = 0, floor: int = 0
) -> int | None:
    """Stirling series for ln Gamma(w) at large w = w / 2^sh, as an integer
    at 2^scale, truncated at its smallest term.  Returns None as soon as
    the terms grow before reaching ``target`` (caller must shift further).
    With ``first`` >= 1 only its tail, as in ``_psi_series``: the terms
    i >= first, down to target / 2^scale times the first of them or
    ``floor``, whichever is larger."""
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
            target = max(abs(term), floor) * target >> scale
        if abs(term) <= target:
            return total
        prev = abs(term)
        i += 1


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
    scale)`` where ``steps`` = w - t, scale = P0 + widen + orders *
    bitlen(floor w) and target = 2^(8-P0) at 2^scale.  A block passes
    orders = 0 and widen = bitlen(floor t), and holds order k at 2^(scale +
    k widen); ln Gamma passes orders = 1 and widen = |log2 t| for t < 1; a
    series tail passes orders = 2 first and widen = 0.  ``widen`` bits do
    not tighten the series target.  Raises PrecisionUnreachable once the
    extra shifts exceed ``MAX_EXTRA_SHIFTS``.
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
    k_max: int, t, policy: PrecisionPolicy | None = None, *, k_lo: int = 0, first: int = 0
) -> list[mp.mpf]:
    """psi^(0)(t) .. psi^(k_max)(t) sharing one argument shift and one
    series pass, under the accuracy contract of :func:`polygamma`; the
    orders below ``k_lo`` are not evaluated and read None.  With ``first``
    in 1..TAIL_FIRST_MAX, each psi^(k)(t) minus its series' leading terms
    and first - 1 Bernoulli terms instead, accurate relative to its value."""
    as_index(k_max, "k_max")
    as_index(k_lo, "k_lo", 0, k_max)
    as_index(first, "first", 0, TAIL_FIRST_MAX)
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "polygamma")
    if first:
        tails = _series_tail(first, k_lo, k_max, tv, policy.working_bits)
        return [None] * k_lo + [mp.make_mpf(v) for v in tails]
    return [None] * k_lo + list(_block(k_lo, k_max, tv, policy.working_bits))


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


@lru_cache(maxsize=4096)
def _block(k_lo: int, k_max: int, tv: mp.mpf, working_bits: int) -> tuple[mp.mpf, ...]:
    """psi^(k_lo)(t) .. psi^(k_max)(t)."""
    num, orders, lift = _exact(tv)[0], range(k_lo, k_max + 1), int(tv).bit_length()

    def unshift(tails: list[int], num: int, sh: int, steps: int, scale: int) -> list[int]:
        # the shifted-through points t+1 .. w-1, and k!/t^(k+1) exactly, floored once
        sums = _power_sums(num, sh, steps, k_max, scale, lift)
        results, den = [], num**k_lo
        for k, tail in zip(orders, tails):
            den *= num
            jump = factorial(k) * sums[k]
            if steps:
                jump += (factorial(k) << (scale + k * lift + (k + 1) * sh)) // den
            results.append(tail + jump if k % 2 else tail - jump)
        return results

    results, scale = _shift_and_sum(
        tv,
        working_bits,
        _magnitude_compensation(k_max, tv),
        lift,
        0,
        lambda w, sh, scale, target: _psi_series(k_max, num, w, sh, scale, target, k_lo),
        unshift,
        f"polygamma block up to order {k_max}",
    )
    return tuple(_from_fixed(x, scale + k * lift, working_bits) for k, x in zip(orders, results))


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


def log_gamma(t, policy: PrecisionPolicy | None = None, *, first: int = 0) -> mp.mpf:
    """ln Gamma(t) for t > 0 under the same accuracy contract as polygamma.
    With ``first`` in 1..TAIL_FIRST_MAX, minus its Stirling series' leading
    terms and first - 1 Bernoulli terms instead, relative to its value."""
    as_index(first, "first", 0, TAIL_FIRST_MAX)
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "log_gamma")
    if first:
        return mp.make_mpf(_series_tail(first, -1, -1, tv, policy.working_bits)[0])
    widen = max(0, -mag_bits(tv))  # the scale only: the series runs at w >= 10
    result, scale = _shift_and_sum(
        tv, policy.working_bits, 6, widen, 1, _stirling_series, _unshift_log_gamma, "log_gamma"
    )
    return _from_fixed(result, scale, policy.working_bits)


@lru_cache(maxsize=None)
def _head(first: int, k: int) -> tuple:
    """The head of the series of order k (k = -1: ln Gamma) before term
    ``first``, without its logarithms and with (-1)^(k+1) factored out:
    terms c x^-p, namely (k-1)! x^-k (k >= 1), k!/2 x^-(k+1) (k >= 0) and
    B_2i (2i+k-1)!/(2i)! x^-(2i+k), 1 <= i < first.  As (D, at_w, at_t) over
    a common denominator D, each ((p, c D), ...) with p ascending: at_w the
    terms, at_t their negatives plus the recurrence term k!/t^(k+1)."""
    terms = {k + 1: Fraction(factorial(k), 2)} if k >= 0 else {}
    if k >= 1:
        terms[k] = Fraction(factorial(k - 1))
    for i in range(1, first):
        terms[2 * i + k] = bernoulli(2 * i) * Fraction(factorial(2 * i + k - 1), factorial(2 * i))
    den = lcm(*(c.denominator for c in terms.values()))
    at_w = {p: int(c * den) for p, c in terms.items()}
    at_t = {p: -c for p, c in at_w.items()}
    if k >= 0:
        at_t[k + 1] += factorial(k) * den
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
    num: int, sh: int, steps: int, k_lo: int, k_max: int, scale: int, lift: int
) -> tuple:
    """The part of each order's correction that no head term carries, for
    t = num / 2^sh shifted by ``steps`` to w, order k at 2^(scale + k lift):
    k! sum_{l=1}^{N-1} (t+l)^-(k+1), plus ln(t/w) for k = 0; for k_max = -1,
    ln Gamma's -ln(t (t+1) ... (w-1)) - [(t - 1/2) ln t - (w - 1/2) ln w +
    N].  Each order's value depends only on its own k."""
    w = num + (steps << sh)
    if k_lo <= 0:  # 2 bits finer than order 0, 2 + lift finer than order -1
        log_t, log_w = _fixed_log(num, -sh, scale + 2), _fixed_log(w, -sh, scale + 2)
    if k_max < 0:
        logs = (2 * num - (1 << sh)) * log_t - (2 * w - (1 << sh)) * log_w >> (sh + 3 + lift)
        s = scale - lift
        return (_unshift_log_gamma(0, num, sh, steps, s) - logs - (steps << s),)
    sums = _power_sums(num, sh, steps, k_max, scale, lift)
    out = [factorial(k) * sums[k] for k in range(k_lo, k_max + 1)]
    if k_lo == 0:
        out[0] += (log_t - log_w) >> 2
    return tuple(out)


def _series_tail(first: int, k_lo: int, k_max: int, t: mp.mpf, working_bits: int) -> list:
    """R_k(t), the terms i >= first of the asymptotic series of psi^(k),
    k = k_lo..k_max, or of ln Gamma alone (k_lo = k_max = -1), as raw mpf
    tuples accurate relative to their values.  The tails are summed at
    w = t + N and the shift is undone by

        R_k(t) = R_k(w) + (-1)^(k+1) [k! sum_{l<N} (t+l)^-(k+1)
                                      - sum_p c_p (t^-p - w^-p) - logs],

    with c_p from ``_head`` and the logs of ``_recurrence`` (DLMF 5.5.2,
    5.11.1).  This correction comes first: the remainders are completely
    monotonic, so |R_k(t)| is at least |R_k(w)| and the correction, and
    order k's series stops at its first term below 2^(8-P0) times the
    larger of its first term and the correction capped at 1.  Each value is
    rounded once, keeping the bits of its tail plus 8 and every bit above
    2^(-8-P0), for the absolute contract; the power sums hold about P0 +
    18 bitlen(floor w) bits relative to their value, which bounds the
    absolute accuracy of a large value at high k near t = 1.
    """
    num, orders = _exact(t)[0], range(k_lo, k_max + 1)

    def series(w: int, sh: int, scale: int, target: int) -> list | None:
        lift, steps, jumps = (w >> sh).bit_length(), (w - num) >> sh, [0] * len(orders)
        if steps:
            shared = scale + 2 * (TAIL_FIRST_MAX - first) * lift
            rest = _recurrence(num, sh, steps, k_lo, k_max, shared, lift)
            w_powers, t_powers = [1], [1]
            for _ in range(2 * first + k_max):
                w_powers.append(w_powers[-1] * w)
                t_powers.append(t_powers[-1] * num)
            for i, (k, r) in enumerate(zip(orders, rest)):
                s, (den, at_w, at_t) = scale + k * lift, _head(first, k)
                jumps[i] = r >> (shared - scale)
                jumps[i] += _inverse_polynomial(den, at_w, w_powers, sh, s)
                jumps[i] += _inverse_polynomial(den, at_t, t_powers, sh, s)
        floors = [min(abs(j), 1 << (scale + k * lift)) for k, j in zip(orders, jumps)]
        if k_max < 0:
            tails = [_stirling_series(w, sh, scale - lift, target >> lift, first, floors[0])]
        else:
            tails = _psi_series(k_max, w, w, sh, scale, target, k_lo, first, floors) or [None]
        return None if None in tails else list(zip(tails, jumps))

    def unshift(pairs: list, num: int, sh: int, steps: int, scale: int) -> list:
        lift = ((num >> sh) + steps).bit_length()
        values = []
        for k, (tail, jump) in zip(orders, pairs):
            x, s = tail + jump if k % 2 else tail - jump, scale + k * lift
            p0_bits = x.bit_length() - s + scale - 2 * first * lift  # the bits above 2^-P0
            prec = max(tail.bit_length(), p0_bits) + 8
            values.append(libmp.from_man_exp(x, -s, prec, libmp.round_nearest))
        return values

    what = f"series tail from term {first}"
    return _shift_and_sum(t, working_bits, 0, 0, 2 * first, series, unshift, what)[0]
