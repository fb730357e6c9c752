"""The Laplace kernel of the trigamma remainder and its derivatives.

Q(t) has the Laplace representation

    Q(t) = integral_0^inf h(s) exp(-t s) ds,
    h(s) = s/(1 - exp(-s)) - 1 - s/2 - s^2/12 + s^4/720,

and h has the everywhere-convergent-for-|s|<2pi Maclaurin series

    h(s) = sum_{k>=3} B_2k s^(2k) / (2k)!.

For s >= 1/4, y = 1/(e^s - 1) has s y = sum_n B_n s^n/n! and y' = -(y + y^2), so

    h^(j)(s) = s Y_j(y) + j Y_{j-1}(y) - P_j(s),  P_j(s) = sum_{n=j}^{4} B_n s^(n-j)/(n-j)!,

with the integer polynomials Y_0 = y, Y_{i+1} = -(y + y^2) Y_i'(y).  Below the
crossover the Maclaurin series avoids the cancellation of this form near 0.

The fourth derivative expands as

    h^(4)(s) = 1/(30 (e^s - 1)^5) * sum_{k>=7} c_k s^k

with exactly known rational c_k; their positivity is the heart of the
lower-bound argument for the monotonic degree of Q.  Every c_k (k >= 7) is
positive: from k = 17 on each term of the numerator of
``h4_series_coefficient`` is positive, and k = 7..16 are checked exactly by
``h4_positivity_scan``.

``laplace_reconstruct`` integrates h(s) e^(-ts) by tanh-sinh over whole
panels [4k, 4k + 4] whose refinement levels are nested: every abscissa of one
level is an abscissa of the next.  h does not depend on t, so its values (not
the abscissas) are memoised per (panel, level, precision) and shared by every
t: each abscissa is evaluated once per process.  e^(-t (c +- d x_j)) is
e^(-t c) e^(-+t d x_j), so a call forms e^(-t d x_j) once per node for all
its panels and e^(-t c) once per panel.  The h values and the weights
w_j e^(-+t d x_j) are integers at one exponent, so each level's sum is an
exact dot product, rounded once.  The closed form runs on raw libmp tuples,
rounded exactly as mpf arithmetic rounds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import factorial

import mpmath as mp
from mpmath import libmp

from .bernoulli import bernoulli
from .errors import InvalidSpec, NonPositiveArgument, QuadratureNotConverged
from .precision import PrecisionPolicy, aligned, as_index, as_mpf, as_point, man_exp

__all__ = [
    "KERNEL_SERIES_CROSSOVER",
    "PositivityScanReport",
    "kernel_h",
    "h4_series_coefficient",
    "h4_positivity_scan",
    "laplace_reconstruct",
]

#: Below this |s| the Maclaurin series is used instead of the closed forms.
KERNEL_SERIES_CROSSOVER = Fraction(1, 4)
_CROSSOVER = mp.mpf(float(KERNEL_SERIES_CROSSOVER))

#: Guard bits absorbing closed-form cancellation near the crossover plus
#: quadrature summation rounding.  At s = 1/4 the largest term of
#: s Y_j(y) + j Y_{j-1}(y) - P_j(s) is at most 1.24e8 (about 2^27, at j = 0)
#: times |h^(j)(s)| for j <= 4.
_KERNEL_GUARD_BITS = 64

#: ``_ts_panel`` sums exactly down to this many times prec bits below the
#: largest weight or partial sum, so t = 1e300 makes no 1e300-bit integer.
#: From t = 90 at 224 bits that floors bits, moving a panel sum by less than
#: 2^(24 - 6 prec) relative (every term is positive; h(s) >= s^6/30241).
_SUM_DEPTH = 12

#: tanh-sinh refinement ceiling per panel (nodes roughly double per level).
QUAD_MAX_LEVEL = 12
#: Most panels one ``laplace_reconstruct`` call integrates.  The integral
#: runs to A >= 40/t, so small t needs about 10/t panels; above the cap a
#: call raises QuadratureNotConverged at once instead of running without end.
QUAD_MAX_PANELS = 2**13
#: Finite-part panel length, well inside the integrand's analyticity strip.
QUAD_PANEL_WIDTH = 4


@lru_cache(maxsize=1024)
def _h_coefficient(n: int, j: int, prec: int) -> mp.mpf:
    """B_n/(n-j)! rounded at prec bits."""
    with mp.workprec(prec):
        b = bernoulli(n)
        return mp.mpf(b.numerator) / b.denominator / factorial(n - j)


def _h_series(j: int, s: mp.mpf, prec: int) -> mp.mpf:
    """sum_{k>=3} B_2k s^(2k-j)/(2k-j)!  -- converges fast for |s| <= 1/4."""
    with mp.workprec(prec):
        target = mp.mpf(2) ** (8 - prec)
        total = mp.mpf(0)
        s2 = s * s
        spow = s ** (6 - j)
        k = 3
        while True:
            term = _h_coefficient(2 * k, j, prec) * spow
            total += term
            # ratio of consecutive terms is below (s/2pi)^2 < 1/600 here,
            # so the tail is dominated by the last added term
            if abs(term) <= target and k > 3:
                return total
            spow *= s2
            k += 1


@lru_cache(maxsize=64)
def _closed_coefficients(j: int, prec: int) -> tuple[tuple, tuple, tuple]:
    """Raw leading-first coefficients of Y_j(y)/y, j Y_{j-1}(y)/y and P_j(s)."""
    ys = [[1]]  # ys[i][m] is the coefficient of y^(m+1) in Y_i
    for _ in range(j):
        a = [0] + ys[-1] + [0]
        ys.append([-(m + 1) * a[m + 1] - m * a[m] for m in range(len(a) - 1)])
    rnd = libmp.round_nearest
    y_j = tuple(libmp.from_int(c, prec, rnd) for c in reversed(ys[j]))
    y_prev = tuple(libmp.from_int(j * c, prec, rnd) for c in reversed(ys[j - 1])) if j else ()
    p_j = tuple(_h_coefficient(n, j, prec)._mpf_ for n in range(4, j - 1, -1))
    return y_j, y_prev, p_j


def _horner(coefficients: tuple, x: tuple, prec: int) -> tuple:
    """The polynomial with these raw leading-first coefficients, at raw x."""
    total = coefficients[0]
    for c in coefficients[1:]:
        total = libmp.mpf_mul(total, x, prec, libmp.round_nearest)
        total = libmp.mpf_add(total, c, prec, libmp.round_nearest)  # c = 0 leaves total as is
    return total


def _h_closed(j: int, s: mp.mpf, prec: int) -> mp.mpf:
    """h^(j)(s) = s Y_j(y) + j Y_{j-1}(y) - P_j(s) with y = 1/(e^s - 1), on
    raw tuples rounded at prec exactly as mpf arithmetic under workprec."""
    y_j, y_prev, p_j = _closed_coefficients(j, prec)
    mul, sub, rnd, s = libmp.mpf_mul, libmp.mpf_sub, libmp.round_nearest, s._mpf_
    y = libmp.mpf_rdiv_int(1, sub(libmp.mpf_exp(s, prec, rnd), libmp.fone, prec, rnd), prec, rnd)
    inner = mul(s, _horner(y_j, y, prec), prec, rnd)
    if j:
        inner = libmp.mpf_add(inner, _horner(y_prev, y, prec), prec, rnd)
    return mp.make_mpf(sub(mul(y, inner, prec, rnd), _horner(p_j, s, prec), prec, rnd))


def kernel_h(j: int, s, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """h^(j)(s) for 0 <= j <= 4 and s >= 0."""
    as_index(j, "kernel derivative order", high=4)
    policy = policy or PrecisionPolicy()
    prec = policy.internal_bits(_KERNEL_GUARD_BITS)
    sv = as_mpf(s, prec)
    if sv >= _CROSSOVER:
        return _h_closed(j, sv, prec)
    if sv < 0:
        raise NonPositiveArgument(f"kernel argument must be s >= 0, got {s!r}")
    return _h_series(j, sv, prec) if sv else mp.mpf(0)


def h4_series_coefficient(k: int) -> Fraction:
    """Exact c_k in 30 (e^s - 1)^5 h^(4)(s) = sum_{k>=7} c_k s^k:
    c_k = [5^k + (110k-350) 3^k + 5(3k-50) 2^(2k-1) + (165k+350) 2^k + 30k + 125] / k!.
    """
    as_index(k, "kernel coefficient index", low=7)
    num = (
        5**k
        + (110 * k - 350) * 3**k
        + 5 * (3 * k - 50) * 2 ** (2 * k - 1)
        + (165 * k + 350) * 2**k
        + 30 * k
        + 125
    )
    return Fraction(num, factorial(k))


@dataclass(frozen=True)
class PositivityScanReport:
    """Outcome of checking c_k > 0 for k = 7..k_max in exact arithmetic."""

    k_min: int
    k_max: int
    checked: int
    all_positive: bool
    failures: tuple[int, ...] = ()


def h4_positivity_scan(k_max: int) -> PositivityScanReport:
    """Exact positivity check of the expansion coefficients up to k_max."""
    as_index(k_max, "k_max", low=7)
    failures = [k for k in range(7, k_max + 1) if h4_series_coefficient(k) <= 0]
    return PositivityScanReport(
        k_min=7,
        k_max=k_max,
        checked=k_max - 6,
        all_positive=not failures,
        failures=tuple(failures),
    )


@lru_cache(maxsize=64)
def _ts_nodes(level: int, prec: int) -> tuple[tuple[mp.mpf, mp.mpf], ...]:
    """tanh-sinh abscissas/weights for j >= 0 at step 2^-level, up to the
    first node whose abscissa rounds to 1.  The last nodes kept have x < 1,
    but c + d x can still round to the panel end: at the default 224 bits
    the last level-12 node has 1 - x = 3.7e-68 and 2 + 2x == 4.  That is
    harmless here, since h is finite there and the node's weight is
    2.9e-66.  Above level 3, node 2i is node i of the level below (u is
    exact), so only odd j are evaluated."""
    below = _ts_nodes(level - 1, prec) if level > 3 else ()
    with mp.workprec(prec):
        h = mp.mpf(2) ** (-level)
        nodes = []
        for j in count():
            if below and j % 2 == 0:
                if j // 2 == len(below):
                    break
                nodes.append(below[j // 2])
                continue
            u = j * h
            sh = mp.sinh(u)
            x = mp.tanh((mp.pi / 2) * sh)
            if x == 1:
                break
            w = (mp.pi / 2) * mp.cosh(u) / mp.cosh((mp.pi / 2) * sh) ** 2
            nodes.append((x, w))
    return tuple(nodes)


@lru_cache(maxsize=1024)
def _panel_kernel(k: int, level: int, prec: int, policy: PrecisionPolicy) -> tuple[tuple, int]:
    """h at the abscissas new at ``level`` on panel k as exact integers
    at one exponent, (values, exponent), in ``_ts_panel``'s order: h(c),
    then h(c + d x_j), h(c - d x_j) for each j > 0 at level 3 and each odd
    j above it.  h does not depend on t, so every call of
    ``laplace_reconstruct`` at this precision shares them.  One call reads
    each key once, so the memo serves later calls: a bound of 1024 keeps
    every key of a smaller call (38 for twelve t in [1, 20]); only a larger
    call, near the panel cap, loses its reuse rather than keep every key."""
    rnd = libmp.round_nearest
    c = libmp.from_rational(QUAD_PANEL_WIDTH * (2 * k + 1), 2, prec, rnd)  # 4k + d
    d = libmp.from_rational(QUAD_PANEL_WIDTH, 2, prec, rnd)
    abscissas = [c] if level == 3 else []
    for x, _ in _ts_nodes(level, prec)[1 :: 1 if level == 3 else 2]:
        dx = libmp.mpf_mul(d, x._mpf_, prec, rnd)
        abscissas += [libmp.mpf_add(c, dx, prec, rnd), libmp.mpf_sub(c, dx, prec, rnd)]
    return aligned([man_exp(kernel_h(0, mp.make_mpf(s), policy)._mpf_) for s in abscissas])


@lru_cache(maxsize=QUAD_MAX_LEVEL - 2)
def _node_exponentials(level: int, t: tuple, prec: int) -> tuple[tuple, int]:
    """The weights of ``_panel_kernel(k, level)``'s h values as integers
    at one exponent, (weights, exponent): w_0 at level 3, then the exact
    products w_j E_j and w_j (1/E_j), E_j = e^(-t d x_j) rounded at prec.
    e^(-t (c +- d x_j)) = e^(-t c) E_j^(+-1), so every panel of a call at
    raw t shares them.  maxsize is the QUAD_MAX_LEVEL - 2 levels of one
    call, which never evicts its own."""
    rnd = libmp.round_nearest
    neg_td = libmp.mpf_mul(libmp.mpf_neg(t), libmp.from_int(QUAD_PANEL_WIDTH // 2), prec, rnd)
    nodes = _ts_nodes(level, prec)
    weights = [man_exp(nodes[0][1]._mpf_)] if level == 3 else []
    for x, w in nodes[1 :: 1 if level == 3 else 2]:
        e = libmp.mpf_exp(libmp.mpf_mul(neg_td, x._mpf_, prec, rnd), prec, rnd)
        for factor in (e, libmp.mpf_rdiv_int(1, e, prec, rnd)):
            weights.append(man_exp(libmp.mpf_mul(w._mpf_, factor)))  # exact: no prec
    return aligned(weights, _SUM_DEPTH * prec)


def _ts_panel(
    tv: mp.mpf, k: int, tol: mp.mpf, max_level: int, prec: int, policy: PrecisionPolicy
) -> mp.mpf:
    """Integrate h(s) e^(-tv s) over panel k, [4k, 4k + 4], by tanh-sinh
    with level doubling.

    The levels are nested: node 2i of level L+1 is node i of level L, so
    S_L = sum_j w_j (h(c + d x_j) E_j + h(c - d x_j)/E_j) is S_(L-1) plus
    the dot product of ``_node_exponentials`` and ``_panel_kernel`` over
    the odd j, and no node is weighted or summed twice.  Every term is
    positive, so nothing cancels.  S_L is an integer, exact down to
    ``_SUM_DEPTH``, rounded once at prec and scaled by e^(-tv c) d 2^-L.
    """
    mul, sub, rnd = libmp.mpf_mul, libmp.mpf_sub, libmp.round_nearest
    c = libmp.from_rational(QUAD_PANEL_WIDTH * (2 * k + 1), 2, prec, rnd)  # 4k + d
    d = libmp.from_rational(QUAD_PANEL_WIDTH, 2, prec, rnd)
    scale = mul(libmp.mpf_exp(mul(libmp.mpf_neg(tv._mpf_), c, prec, rnd), prec, rnd), d, prec, rnd)
    total, low, previous = 0, 0, None
    for level in range(3, max_level + 1):
        weights, w_exp = _node_exponentials(level, tv._mpf_, prec)
        values, h_exp = _panel_kernel(k, level, prec, policy)
        dot = sum(map(operator.mul, weights, values))
        (total, dot), low = aligned([(total, low), (dot, w_exp + h_exp)], _SUM_DEPTH * prec)
        total += dot
        value = mul(libmp.from_man_exp(total, low, prec, rnd), scale, prec, rnd)
        value = libmp.mpf_shift(value, -level)
        if previous and libmp.mpf_le(libmp.mpf_abs(sub(value, previous, prec, rnd)), tol._mpf_):
            return mp.make_mpf(value)
        previous = value
    raise QuadratureNotConverged(
        f"tanh-sinh failed to reach tolerance {mp.nstr(tol, 3)} on [{QUAD_PANEL_WIDTH * k}, "
        f"{QUAD_PANEL_WIDTH * (k + 1)}] within level {max_level}"
    )


def _tail_bound(A: mp.mpf, t: mp.mpf) -> mp.mpf:
    """Bound on integral_A^inf h(s) e^(-ts) ds using 0 <= h(s) <= 2 s^4 (s >= 1)."""
    return (
        2
        * mp.exp(-t * A)
        * (A**4 / t + 4 * A**3 / t**2 + 12 * A**2 / t**3 + 24 * A / t**4 + 24 / t**5)
    )


def laplace_reconstruct(
    t, policy: PrecisionPolicy | None = None, tolerance: float = 1e-22
) -> mp.mpf:
    """Reconstruct Q(t) as integral_0^inf h(s) exp(-t s) ds to within the
    absolute ``tolerance`` (tail included).

    The integral is split at a point A where the proven envelope
    h(s) <= 2 s^4 (s >= 1) makes the discarded tail smaller than half the
    tolerance, then rounded up to whole panels (the bound decreases in A);
    more than ``QUAD_MAX_PANELS`` panels raise QuadratureNotConverged.
    Each panel is integrated by tanh-sinh quadrature with level doubling,
    reading h from a memo per (panel, level) shared by every t.
    """
    if not as_mpf(tolerance, 53) > 0:  # as_mpf rejects nan and +-inf
        raise InvalidSpec(f"tolerance must be positive, got {tolerance!r}")
    policy = policy or PrecisionPolicy()
    prec = max(
        policy.internal_bits(_KERNEL_GUARD_BITS),
        int(-mp.log(mp.mpf(tolerance), 2)) + 80,
    )
    tv = as_point(t, prec, "laplace_reconstruct")
    with mp.workprec(prec):
        tol = mp.mpf(tolerance)
        A = max(mp.mpf(1), 40 / tv)
        while _tail_bound(A, tv) > tol / 2:
            A *= mp.mpf(5) / 4
        panels = int(mp.ceil(A / QUAD_PANEL_WIDTH))
        if panels > QUAD_MAX_PANELS:
            raise QuadratureNotConverged(
                f"laplace_reconstruct at t = {t!r} needs {mp.nstr(A / QUAD_PANEL_WIDTH, 3)} "
                f"panels, more than QUAD_MAX_PANELS = {QUAD_MAX_PANELS}"
            )
        panel_tol = (tol / 2) / (panels + 1)
        total = mp.mpf(0)
        for k in range(panels):
            total += _ts_panel(tv, k, panel_tol, QUAD_MAX_LEVEL, prec, policy)
    return total
