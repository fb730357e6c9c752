"""End-to-end acceptance checks: one test per shipped claim.

Each test asserts the documented tolerance and finishes inside its runtime
budget, so ``pytest -v`` prints one pass/fail line per criterion.  Oracle
tags: [TRIVIAL] facts checked directly, [DERIVED] values frozen after
independent recomputation, [PAPER] published exact statements about these
objects.
"""

import importlib
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from cmdeg import (
    Grid,
    PrecisionPolicy,
    RemainderSpec,
    as_mpf,
    bernoulli,
    cm_check,
    conjecture_scan,
    default_grid,
    degree_bracket,
    h4_positivity_scan,
    h4_series_coefficient,
    kernel_h,
    laplace_reconstruct,
    phi_derivatives,
    pole_order,
    polygamma,
    q_value,
)

degree_module = importlib.import_module("cmdeg.degree")

POLICY = PrecisionPolicy(working_bits=128)
Q = RemainderSpec(special="Q")
PSIGAP = RemainderSpec(special="PsiGap")
TRIGAP = RemainderSpec(special="TrigammaGap3")
PHI22 = RemainderSpec(n=2, m=2)

TOL_2_120 = mp.mpf(2) ** -120


def test_criterion_01_exact_expansion_coefficients():
    """[PAPER] 2*c_k for k = 7..11 equals 5/7, 25/14, 193/84, 85/42, 5065/3696."""
    start = time.perf_counter()
    doubled = [2 * h4_series_coefficient(k) for k in range(7, 12)]
    assert doubled == [
        Fraction(5, 7),
        Fraction(25, 14),
        Fraction(193, 84),
        Fraction(85, 42),
        Fraction(5065, 3696),
    ]
    assert time.perf_counter() - start < 1.0


def test_criterion_02_coefficient_positivity_through_200():
    """[DERIVED] every exact series coefficient c_k is positive for 7 <= k <= 200."""
    start = time.perf_counter()
    report = h4_positivity_scan(200)
    assert report.k_min == 7
    assert report.k_max == 200
    assert report.checked == 194
    assert report.all_positive is True
    assert report.failures == ()
    assert all(h4_series_coefficient(k) > 0 for k in range(7, 201))
    assert time.perf_counter() - start < 5.0


def test_criterion_03_q_passes_full_monotonicity_scan_at_exponent_4():
    """[PAPER] t^4 Q(t) shows no sign violation through order 12 on the default grid."""
    start = time.perf_counter()
    report = cm_check(Q, 4, max_order=12, grid=default_grid(), policy=POLICY)
    assert report.verdict == "pass"
    assert report.violations == ()
    assert report.inconclusive == ()
    assert len(report.values) == 200 * 13
    assert time.perf_counter() - start < 300.0


def test_criterion_04_small_t_limit_and_first_order_violation_above_5():
    """[DERIVED] the small-t limit of -4 - t Q'/Q is exactly pole_order(Q) - 4
    = 1, reached within 1e-20 at t = 1e-30, and exponent 5.05 already fails
    at derivative order 1."""
    start = time.perf_counter()
    assert pole_order(Q) - 4 == 1
    t = as_mpf("1e-30", POLICY.internal_bits())
    q0, q1 = phi_derivatives(Q, t, 1, POLICY)
    with mp.workprec(256):
        assert abs(-4 - t * q1 / q0 - 1) < mp.mpf("1e-20")
    grid = Grid(Fraction(1, 100), Fraction(100), 30)
    report = cm_check(Q, "5.05", max_order=8, grid=grid, policy=POLICY)
    assert report.verdict == "violation"
    assert min(k for _, k, _ in report.violations) == 1
    assert time.perf_counter() - start < 30.0


def test_criterion_05_family_member_2_2_reproduces_q():
    """[DERIVED] phi(2,2) and the direct Q evaluator agree to 2^-120 across the grid."""
    worst = mp.mpf(0)
    with mp.workprec(220):
        for t in default_grid().values(128):
            diff = abs(phi_derivatives(PHI22, t, 0, POLICY)[0] - q_value(t, POLICY))
            if diff > worst:
                worst = diff
    assert worst < TOL_2_120


def test_criterion_06_polygamma_leading_behaviour_at_tiny_argument():
    """[TRIVIAL] t^2 psi'(t) -> 1 and t psi(t) -> -1 as t -> 0+."""
    with mp.workprec(192):
        t = mp.mpf("1e-6")
        assert abs(t * t * polygamma(1, t, POLICY) - 1) < mp.mpf("1e-5")
        assert abs(t * polygamma(0, t, POLICY) + 1) < mp.mpf("1e-5")


def test_criterion_07_laplace_reconstruction_matches_direct_evaluation():
    """[PAPER] integral of h(s) e^{-ts} ds reproduces Q(t) to 1e-20 at t = 1, 5, 10."""
    start = time.perf_counter()
    with mp.workprec(220):
        for t in (1, 5, 10):
            diff = abs(laplace_reconstruct(t, policy=POLICY) - q_value(t, POLICY))
            assert diff < mp.mpf("1e-20")
    assert time.perf_counter() - start < 60.0


def test_criterion_08_kernel_flat_start_and_positivity():
    """[DERIVED] h and its first three derivatives vanish to 1e-8 at s = 1e-4,
    and h^(j) > 0 for j = 0..4 across a log grid in [1e-2, 50]."""
    with mp.workprec(192):
        s0 = mp.mpf("1e-4")
        for j in range(4):
            assert abs(kernel_h(j, s0, POLICY)) < mp.mpf("1e-8")
        ratio = mp.mpf(5000) ** (mp.mpf(1) / 24)
        points = [mp.mpf("1e-2") * ratio**i for i in range(25)]
        for s in points:
            for j in range(5):
                assert kernel_h(j, s, POLICY) > 0


def test_criterion_09_degree_brackets_and_conjecture_table():
    """[PAPER] brackets land on the published degrees: PsiGap at 1 and
    TrigammaGap3 at 3 within 0.05, Q inside [4, 5] within lattice step 1, and
    the 4x4 scan keeps every proven cell's value inside its bracket."""
    start = time.perf_counter()

    psi = degree_bracket(PSIGAP, Fraction(1, 20), max_order=12, policy=POLICY)
    assert psi.lower == 1
    assert 0 <= float(psi.upper) - 1 < 0.05

    tri = degree_bracket(TRIGAP, Fraction(1, 20), max_order=12, policy=POLICY)
    assert tri.lower == 3
    assert 0 <= float(tri.upper) - 3 < 0.05

    q = degree_bracket(Q, Fraction(1), max_order=12, policy=POLICY)
    assert q.lower == 4
    assert abs(float(q.upper) - 5) <= 1
    assert q.contains(4)

    scan = conjecture_scan(3, 3, max_order=12, policy=POLICY)
    assert len(scan.cells) == 16
    for cell in scan.cells:
        assert cell.error is None, f"cell ({cell.n},{cell.m}): {cell.error}"
        if cell.established is not None:
            assert cell.established == cell.conjectured
            assert cell.contains_conjectured is True, (cell.n, cell.m)
    proven = [c for c in scan.cells if c.established is not None]
    assert len(proven) == 8
    noted = next(c for c in scan.cells if (c.n, c.m) == (2, 2))
    assert "4" in noted.note and "5" in noted.note

    assert time.perf_counter() - start < 900.0


def test_criterion_10_property_families(monkeypatch):
    """[DERIVED] the four structural property families hold: Bernoulli
    recurrence, remainder telescoping, scan invariance under positive scaling
    plus downward closure of passing exponents, and two-precision agreement."""
    # Bernoulli recurrence: sum_{j=0}^{n} C(n+1, j) B_j = 0 exactly.
    for n in range(1, 41):
        total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
        assert total == 0

    # Telescoping: R_n(t) + R_{n+1}(t) = (-1)^n B_{2n+2} / ((2n+2)(2n+1) t^(2n+1)).
    with mp.workprec(300):
        for n in range(5):
            for t in (Fraction(1, 2), 2, 10):
                lhs = (
                    phi_derivatives(RemainderSpec(n=n, m=0), t, 0, POLICY)[0]
                    + phi_derivatives(RemainderSpec(n=n + 1, m=0), t, 0, POLICY)[0]
                )
                exact = (
                    (-1) ** n
                    * bernoulli(2 * n + 2)
                    / ((2 * n + 2) * (2 * n + 1) * Fraction(t) ** (2 * n + 1))
                )
                rhs = mp.mpf(exact.numerator) / exact.denominator
                assert abs(lhs - rhs) < 8 * TOL_2_120

    # Scan verdicts are invariant under positive rescaling of the member.
    grid = Grid(Fraction(1, 100), Fraction(100), 30)
    real = degree_module._phi_ders_cached
    for c in (Fraction(7, 3), Fraction(10) ** 6):

        def provider(spec, t, i_max, pol, _c=c):
            ders = real(spec, t, i_max, pol)
            with mp.workprec(pol.internal_bits(64)):
                cv = as_mpf(_c, pol.internal_bits(64))
                return [cv * d for d in ders]

        for r in (4, "5.05"):
            base = cm_check(Q, r, max_order=4, grid=grid, policy=POLICY)
            with monkeypatch.context() as patch:
                patch.setattr(degree_module, "_phi_ders_cached", provider)
                scaled = cm_check(Q, r, max_order=4, grid=grid, policy=POLICY)
            assert scaled.verdict == base.verdict
            assert [(t, k) for t, k, _ in scaled.violations] == [
                (t, k) for t, k, _ in base.violations
            ]

    # Passing exponents are downward closed on the lattice.
    for r in range(5):
        assert cm_check(Q, r, max_order=4, grid=grid, policy=POLICY).verdict == "pass"
    for r in (5, 6):
        assert (
            cm_check(Q, r, max_order=4, grid=grid, policy=POLICY).verdict == "violation"
        )

    # Two working precisions agree far below the coarser one's guard.
    fine = PrecisionPolicy(working_bits=192)
    with mp.workprec(260):
        for t in (Fraction(1, 2), 1, 5, 50):
            assert abs(q_value(t, POLICY) - q_value(t, fine)) < TOL_2_120
            assert abs(polygamma(1, t, POLICY) - polygamma(1, t, fine)) < TOL_2_120
        for s in (Fraction(1, 2), 5):
            assert abs(kernel_h(0, s, POLICY) - kernel_h(0, s, fine)) < TOL_2_120
