"""Exact Bernoulli numbers: table values, recurrence, and structure."""

import importlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdeg import InvalidIndex, bernoulli, bernoulli_table

bernoulli_module = importlib.import_module("cmdeg.bernoulli")

# [TRIVIAL] classical opening values, B_1 = -1/2 convention
KNOWN_PREFIX = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


@pytest.mark.parametrize("n, expected", list(enumerate(KNOWN_PREFIX)))
def test_known_values(n, expected):
    assert bernoulli(n) == expected


def test_values_are_exact_fractions():
    assert all(isinstance(b, Fraction) for b in bernoulli_table(20))


def test_table_matches_pointwise():
    table = bernoulli_table(30)
    assert isinstance(table, tuple)
    assert len(table) == 31
    assert all(table[i] == bernoulli(i) for i in range(31))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 17, 40, 60])
def test_recurrence_identity(m):
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 exactly for every m >= 1
    total = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
    assert total == 0


@given(st.integers(min_value=1, max_value=150))
@settings(max_examples=25, deadline=None)
def test_recurrence_identity_property(m):
    total = sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
    assert total == 0


def test_odd_indices_vanish():
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 50))


def test_even_signs_alternate():
    # sign(B_{2k}) = (-1)^(k+1) for k >= 1
    for k in range(1, 51):
        b = bernoulli(2 * k)
        assert b != 0
        assert (b > 0) == (k % 2 == 1)


def test_magnitude_eventually_grows():
    # |B_{2k}| ~ 2 (2k)! / (2 pi)^(2k) increases from index 6 on
    values = [abs(bernoulli(2 * k)) for k in range(3, 41)]
    assert all(a < b for a, b in zip(values, values[1:]))


def _primes_up_to(n):
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    return [p for p, flag in enumerate(sieve) if flag]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 21, 30])
def test_von_staudt_clausen_denominator(k):
    # denominator of B_{2k} is the product of primes p with (p-1) | 2k
    n = 2 * k
    denom = 1
    for p in _primes_up_to(n + 1):
        if n % (p - 1) == 0:
            denom *= p
    assert bernoulli(n).denominator == denom


@pytest.mark.parametrize("bad", [-1, 2.5, "3", None, True, 1.5])
def test_invalid_index_rejected(bad):
    message = f"Bernoulli index must be a nonnegative integer, got {bad!r}"
    with pytest.raises(InvalidIndex, match=message):
        bernoulli(bad)
    with pytest.raises(InvalidIndex):
        bernoulli_table(bad)


def _recurrence_table(n_max):
    """B_0 .. B_{n_max} from sum_{j<=m} C(m+1, j) B_j = 0 over all terms --
    an independent reference for the tangent-number table."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m) if table[j])
        table.append(-acc / (m + 1))
    return table


def test_table_matches_all_terms_recurrence_through_300():
    assert list(bernoulli_table(300)) == _recurrence_table(300)


def test_table_grown_in_steps_equals_one_cold_build(monkeypatch):
    monkeypatch.setattr(bernoulli_module, "_table", [Fraction(1), Fraction(-1, 2)])
    cold = bernoulli_table(300)

    monkeypatch.setattr(bernoulli_module, "_table", [Fraction(1), Fraction(-1, 2)])
    for n in (10, 11, 40, 300):
        before = len(bernoulli_module._table)
        bernoulli(n)
        after = len(bernoulli_module._table)
        assert after > n
        assert after >= 2 * before
    assert bernoulli_table(300) == cold
