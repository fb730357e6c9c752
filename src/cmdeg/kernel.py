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
level is an abscissa of the next.  h does not depend on t, so its values are
memoised per (panel, level, precision) and shared by every t: each abscissa
is evaluated once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp

from .bernoulli import bernoulli
from .errors import (
    InvalidIndex,
    InvalidSpec,
    NonPositiveArgument,
    QuadratureNotConverged,
)
from .precision import PrecisionPolicy, as_mpf

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
_CROSSOVER = float(KERNEL_SERIES_CROSSOVER)

#: Guard bits absorbing closed-form cancellation near the crossover plus
#: quadrature summation rounding.  At s = 1/4 the largest term of
#: s Y_j(y) + j Y_{j-1}(y) - P_j(s) is at most 1.24e8 (about 2^27, at j = 0)
#: times |h^(j)(s)| for j <= 4.
_KERNEL_GUARD_BITS = 64

#: tanh-sinh refinement ceiling per panel (nodes roughly double per level).
QUAD_MAX_LEVEL = 12
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
    """Leading-first coefficients of Y_j(y)/y, j Y_{j-1}(y)/y and P_j(s)."""
    ys = [[1]]  # ys[i][m] is the coefficient of y^(m+1) in Y_i
    for _ in range(j):
        a = [0] + ys[-1] + [0]
        ys.append([-(m + 1) * a[m + 1] - m * a[m] for m in range(len(a) - 1)])
    with mp.workprec(prec):
        y_j = tuple(mp.mpf(c) for c in reversed(ys[j]))
        y_prev = tuple(mp.mpf(j * c) for c in reversed(ys[j - 1])) if j else ()
    p_j = tuple(_h_coefficient(n, j, prec) for n in range(4, j - 1, -1))
    return y_j, y_prev, p_j


def _horner(coefficients: tuple, x: mp.mpf) -> mp.mpf:
    """The polynomial with these leading-first coefficients, at x."""
    total = coefficients[0]
    for c in coefficients[1:]:
        total *= x
        if c:
            total += c
    return total


def _h_closed(j: int, s: mp.mpf, prec: int) -> mp.mpf:
    """h^(j)(s) = s Y_j(y) + j Y_{j-1}(y) - P_j(s) with y = 1/(e^s - 1)."""
    y_j, y_prev, p_j = _closed_coefficients(j, prec)
    with mp.workprec(prec):
        y = 1 / (mp.exp(s) - 1)
        inner = s * _horner(y_j, y)
        if j:
            inner += _horner(y_prev, y)
        return y * inner - _horner(p_j, s)


def kernel_h(j: int, s, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """h^(j)(s) for 0 <= j <= 4 and s >= 0."""
    if not isinstance(j, int) or not 0 <= j <= 4:
        raise InvalidIndex(f"kernel derivative order must be 0..4, got {j!r}")
    policy = policy or PrecisionPolicy()
    prec = policy.internal_bits(_KERNEL_GUARD_BITS)
    sv = as_mpf(s, prec)
    if sv < 0:
        raise NonPositiveArgument(f"kernel argument must be s >= 0, got {s!r}")
    if sv == 0:
        return mp.mpf(0)
    if sv < _CROSSOVER:
        return _h_series(j, sv, prec)
    return _h_closed(j, sv, prec)


def h4_series_coefficient(k: int) -> Fraction:
    """Exact c_k in 30 (e^s - 1)^5 h^(4)(s) = sum_{k>=7} c_k s^k:
    c_k = [5^k + (110k-350) 3^k + 5(3k-50) 2^(2k-1) + (165k+350) 2^k + 30k + 125] / k!.
    """
    if not isinstance(k, int) or k < 7:
        raise InvalidIndex(f"kernel coefficients start at k = 7, got {k!r}")
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
    if not isinstance(k_max, int) or k_max < 7:
        raise InvalidIndex(f"k_max must be at least 7, got {k_max!r}")
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
    first node whose abscissa rounds to 1 (it would land on a panel end)."""
    with mp.workprec(prec):
        h = mp.mpf(2) ** (-level)
        nodes = []
        j = 0
        while True:
            u = j * h
            sh = mp.sinh(u)
            x = mp.tanh((mp.pi / 2) * sh)
            if x == 1:
                break
            w = (mp.pi / 2) * mp.cosh(u) / mp.cosh((mp.pi / 2) * sh) ** 2
            nodes.append((x, w))
            j += 1
    return tuple(nodes)


@lru_cache(maxsize=None)
def _panel_kernel(k: int, level: int, prec: int, policy: PrecisionPolicy) -> tuple:
    """Raw h values at the abscissas new at ``level`` on panel k, in
    ``_ts_panel``'s order: h(c), then h(c + d x_j), h(c - d x_j) for each
    j > 0 at level 3 and each odd j above it.  h does not depend on t, so
    every call of ``laplace_reconstruct`` at this precision shares them.
    The memo is unbounded: a call walks its keys in the same order every
    time, so an LRU smaller than one call's keys would evict each entry
    before its reuse."""
    with mp.workprec(prec):
        d = mp.mpf(QUAD_PANEL_WIDTH) / 2
        c = QUAD_PANEL_WIDTH * k + d
        abscissas = [c] if level == 3 else []
        for x, _ in _ts_nodes(level, prec)[1 :: 1 if level == 3 else 2]:
            abscissas += [c + d * x, c - d * x]
        return tuple(kernel_h(0, s, policy)._mpf_ for s in abscissas)


def _ts_panel(
    tv: mp.mpf, k: int, tol: mp.mpf, max_level: int, prec: int, policy: PrecisionPolicy
) -> mp.mpf:
    """Integrate h(s) e^(-tv s) over panel k, [4k, 4k + 4], by tanh-sinh
    with level doubling.

    The levels are nested: node 2i of level L+1 has the abscissa of node i
    of level L, because u = 2i 2^-(L+1) = i 2^-L is exact in binary.  Each
    level keeps its per-node values f(c) and f(c + d x_j) + f(c - d x_j),
    f(s) = h(s) e^(-tv s).  The nodes stop where x rounds to 1 and x grows
    with u, so level L+1 has 2N - 1 or 2N nodes for level L's N, and each
    even j > 0 reuses value j/2; h of the odd j comes from ``_panel_kernel``.
    """
    with mp.workprec(prec):
        d = mp.mpf(QUAD_PANEL_WIDTH) / 2
        c = QUAD_PANEL_WIDTH * k + d
        pairs: list[mp.mpf] = []
        previous = None
        for level in range(3, max_level + 1):
            h = mp.mpf(2) ** (-level)
            reused, pairs = pairs, []
            fresh = map(mp.make_mpf, _panel_kernel(k, level, prec, policy))
            total = mp.mpf(0)
            for j, (x, w) in enumerate(_ts_nodes(level, prec)):
                if reused and j % 2 == 0:
                    pair = reused[j // 2]
                elif j:
                    pair = next(fresh) * mp.exp(-tv * (c + d * x))
                    pair += next(fresh) * mp.exp(-tv * (c - d * x))
                else:
                    pair = next(fresh) * mp.exp(-tv * c)
                pairs.append(pair)
                total += w * pair
            value = total * h * d
            if previous is not None and abs(value - previous) <= tol:
                return value
            previous = value
        raise QuadratureNotConverged(
            f"tanh-sinh failed to reach tolerance {mp.nstr(tol, 3)} on "
            f"[{mp.nstr(c - d, 6)}, {mp.nstr(c + d, 6)}] within level {max_level}"
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
    tolerance, then rounded up to whole panels (the bound decreases in A).
    Each panel is integrated by tanh-sinh quadrature with level doubling,
    reading h from a memo per (panel, level) shared by every t.
    """
    if not tolerance > 0:
        raise InvalidSpec(f"tolerance must be positive, got {tolerance!r}")
    if not mp.isfinite(tolerance):
        raise InvalidSpec(f"tolerance must be finite, got {tolerance!r}")
    policy = policy or PrecisionPolicy()
    prec = max(
        policy.internal_bits(_KERNEL_GUARD_BITS),
        int(-mp.log(mp.mpf(tolerance), 2)) + 80,
    )
    tv = as_mpf(t, prec)
    if not tv > 0:
        raise NonPositiveArgument(f"laplace_reconstruct requires t > 0, got {t!r}")
    with mp.workprec(prec):
        tol = mp.mpf(tolerance)
        A = max(mp.mpf(1), 40 / tv)
        while _tail_bound(A, tv) > tol / 2:
            A *= mp.mpf(5) / 4
        panels = int(mp.ceil(A / QUAD_PANEL_WIDTH))
        panel_tol = (tol / 2) / (panels + 1)
        total = mp.mpf(0)
        for k in range(panels):
            total += _ts_panel(tv, k, panel_tol, QUAD_MAX_LEVEL, prec, policy)
    return total
