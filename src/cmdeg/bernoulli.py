"""Bernoulli numbers as exact rationals.

The even-index values come from the tangent numbers T_n (the Taylor
coefficients of tan x = sum T_n x^(2n-1)/(2n-1)!), computed on Python
integers by the Brent-Harvey recurrence and converted with

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)),

with B_0 = 1, the B_1 = -1/2 convention and B_n = 0 at odd n >= 3.  Values
are cached for the life of the process; the cache only ever grows, by at
least doubling, and extension is serialized, so concurrent reads are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .precision import as_index

__all__ = ["bernoulli", "bernoulli_table"]

_lock = threading.Lock()
_table: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_ZERO = Fraction(0)  # shared by every odd index >= 3


def _tangent_numbers(n: int) -> list[int]:
    """T_1 .. T_n, in O(n^2) integer operations (Brent and Harvey)."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _extend(n: int) -> None:
    with _lock:
        if len(_table) > n:
            return
        size = max(n + 1, 2 * len(_table))
        tangent = _tangent_numbers((size - 1) // 2)
        for m in range(len(_table), size):
            if m % 2:
                _table.append(_ZERO)
                continue
            i = m // 2
            four = 4**i
            b = Fraction(2 * i * tangent[i - 1], four * (four - 1))
            _table.append(b if i % 2 else -b)


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n (B_1 = -1/2 convention) as a Fraction."""
    if as_index(n, "Bernoulli index") >= len(_table):
        _extend(n)
    return _table[n]


def bernoulli_table(n_max: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{n_max} as an immutable tuple."""
    bernoulli(n_max)
    return tuple(_table[: n_max + 1])
