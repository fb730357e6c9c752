"""Asymptotic remainders phi_{n,m}: oracle values, identities, decay, signs."""

import dataclasses
import hashlib
import importlib
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdeg import (
    ElementaryForm,
    InvalidIndex,
    InvalidSpec,
    PHI_M_MAX,
    PHI_N_MAX,
    SPECIAL_NAMES,
    NonPositiveArgument,
    PrecisionPolicy,
    RemainderSpec,
    bernoulli,
    differentiate,
    form_for,
    log_gamma,
    phi_derivatives,
    pole_order,
    q_value,
)

remainders_module = importlib.import_module("cmdeg.remainders")

POLICY = PrecisionPolicy(working_bits=128)
TOL = POLICY.abs_error_target

# Apery's constant zeta(3), frozen to 50 digits (standard reference value)
ZETA3_50 = "1.2020569031595942853997381615114499907649862923405"

Q = RemainderSpec(special="Q")


def mpf_frac(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def phi(spec, t):
    return phi_derivatives(spec, t, 0, POLICY)[0]


def stirling_partial_sum(n, t):
    """S_n(t) = (t - 1/2) ln t - t + ln(2 pi)/2 + sum_{k=1}^{n} B_2k / (2k(2k-1) t^(2k-1)),
    from the Bernoulli numbers and mpmath at the working precision in force."""
    tv = mpf_frac(t)
    s_n = (tv - mp.mpf(1) / 2) * mp.log(tv) - tv + mp.log(2 * mp.pi) / 2
    for k in range(1, n + 1):
        s_n += mpf_frac(bernoulli(2 * k) / (2 * k * (2 * k - 1))) * tv ** (1 - 2 * k)
    return s_n


def test_q_at_one_equals_pi_squared_over_six_minus_49_30():
    with mp.workprec(200):
        expected = mp.pi**2 / 6 - mpf_frac(Fraction(49, 30))
        assert abs(q_value(1, POLICY) - expected) < TOL
    # frozen decimal prefix
    assert mp.nstr(q_value(1, POLICY), 30) == "0.0116007335148931031390818333127"


def test_q_derivative_at_one_uses_apery_constant():
    # Q'(1) = psi''(1) + 7/3 = -2 zeta(3) + 7/3
    with mp.workprec(200):
        expected = -2 * mp.mpf(ZETA3_50) + mpf_frac(Fraction(7, 3))
        assert abs(phi_derivatives(Q, 1, 1, POLICY)[1] - expected) < TOL


@pytest.mark.parametrize("t", ["0.25", 1, 7])
def test_q_derivative_order_zero_matches_q_value(t):
    with mp.workprec(200):
        assert abs(phi(Q, t) - q_value(t, POLICY)) < 2 * TOL


@pytest.mark.parametrize("t", ["0.001", "0.5", 1, 10, 10000])
def test_phi_2_2_is_q(t):
    # the (n, m) = (2, 2) member coincides with Q
    with mp.workprec(300):
        family = phi(RemainderSpec(n=2, m=2), t)
        direct = q_value(t, POLICY)
        assert abs(family - direct) < mp.mpf(2) ** (-120)


@pytest.mark.parametrize("t", ["1e-3", "0.5", 3, "1e4"])
@pytest.mark.parametrize("name", SPECIAL_NAMES)
def test_special_is_its_family_member(name, t):
    # a special is only a label: same form, same bits at every order
    n, m = RemainderSpec(special=name).family_indices
    a = phi_derivatives(RemainderSpec(special=name), t, 6, POLICY)
    b = phi_derivatives(RemainderSpec(n=n, m=m), t, 6, POLICY)
    assert [(x.man, x.exp) for x in a] == [(y.man, y.exp) for y in b]


def reference_phi_form(n, m):
    # R_n built term by term, then differentiated m times
    sign = Fraction((-1) ** n)
    form = ElementaryForm(
        loggamma=sign,
        tlog=-sign,
        log=sign / 2,
        powers={1: sign},
        log2pi=-sign / 2,
        cancel_gap=2 * n + 4,
    )
    for k in range(1, n + 1):
        p = 1 - 2 * k
        form.powers[p] = form.powers.get(p, 0) - sign * bernoulli(2 * k) / (2 * k * (2 * k - 1))
    for _ in range(m):
        form = differentiate(form)
    form = form.scaled(Fraction((-1) ** m))
    form.cancel_gap = 2 * n + m + 4
    return form


@pytest.mark.parametrize("n", range(PHI_N_MAX + 1))
def test_phi_form_matches_differentiated_remainder(n):
    for m in range(PHI_M_MAX + 1):
        assert form_for(RemainderSpec(n=n, m=m)) == reference_phi_form(n, m), (n, m)


def _without_gap(form):
    return dataclasses.replace(form, cancel_gap=0)


@pytest.mark.parametrize("n", range(PHI_N_MAX + 1))
def test_family_is_closed_under_differentiation(n):
    # d^i phi_{n,m} = (-1)^i phi_{n,m+i}: the derivatives phi_derivatives
    # reads off the family are those of the independently built remainder
    for m in range(PHI_M_MAX + 1):
        form = reference_phi_form(n, m)
        for i in range(13):
            member = remainders_module._phi_form(n, m + i)
            assert member.cancel_gap == 2 * n + m + i + 4
            assert _without_gap(form) == _without_gap(member.scaled(Fraction((-1) ** i))), (n, m, i)
            form = differentiate(form)


def test_deep_members_build_without_recursion_error():
    # each cold member is built from the one below it, one level at a time
    remainders_module._phi_form.cache_clear()
    try:
        form = remainders_module._phi_form(0, 1200)
        assert form.psi == {1199: Fraction(1)} and form.loggamma == 0
        assert form.powers[-1200]
    finally:
        remainders_module._phi_form.cache_clear()


def test_warm_phi_derivatives_do_no_symbolic_work(monkeypatch):
    spec = RemainderSpec(n=3, m=4)
    phi_derivatives(spec, "0.7", 12, POLICY)
    calls = []

    def counted(form):
        calls.append(form)
        return differentiate(form)

    monkeypatch.setattr(remainders_module, "differentiate", counted)
    phi_derivatives(spec, "5.25", 12, POLICY)
    phi_derivatives(spec, "0.7", 5, POLICY)
    phi_derivatives(spec, "0.7", 12, PrecisionPolicy(working_bits=256))
    assert calls == []


def test_phi_derivatives_golden_bits():
    # pins the (man, exp) of every value at 128, 256 and 512 bits: any
    # moved bit changes the digest
    ts = (Fraction(1, 1000), "0.37", 2, "37.5", 9000)
    cases = [(n, m, t, 128) for n in range(PHI_N_MAX + 1) for m in range(PHI_M_MAX + 1) for t in ts]
    cases += [
        (n, m, t, bits)
        for n, m in ((0, 0), (2, 2), (8, 6))
        for t in ("0.37", 9000)
        for bits in (256, 512)
    ]
    digest = hashlib.sha256()
    for n, m, t, bits in cases:
        for v in phi_derivatives(RemainderSpec(n=n, m=m), t, 12, PrecisionPolicy(bits)):
            digest.update(f"{v.man}p{v.exp};".encode())
    assert digest.hexdigest() == (
        "705e82c2dc7fe821d7b6457c755b4d993a417e654fa941b5988bc4a8742adb2e"
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("t", [Fraction(1, 2), 2, 30])
def test_remainder_against_direct_stirling_difference(n, t):
    # R_n = (-1)^n [ln Gamma(t) - S_n(t)] assembled here from scratch
    with mp.workprec(300):
        expected = (-1) ** n * (mp.loggamma(mpf_frac(t)) - stirling_partial_sum(n, t))
        value = phi(RemainderSpec(n=n, m=0), t)
        assert abs(value - expected) < 16 * TOL


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", [Fraction(1, 2), 1, 3, 10])
def test_telescoping_identity(n, t):
    # R_n(t) + R_{n+1}(t) = (-1)^n B_{2n+2} / ((2n+2)(2n+1) t^(2n+1))
    with mp.workprec(300):
        lhs = phi(RemainderSpec(n=n, m=0), t) + phi(RemainderSpec(n=n + 1, m=0), t)
        rhs = (-1) ** n * bernoulli(2 * n + 2) / (
            (2 * n + 2) * (2 * n + 1) * Fraction(t) ** (2 * n + 1)
        )
        assert abs(lhs - mpf_frac(rhs)) < 8 * TOL


def test_telescoping_specific_value():
    # n = 1, t = 2: R_1(2) + R_2(2) = 1/2880
    with mp.workprec(200):
        total = phi(RemainderSpec(n=1, m=0), 2) + phi(RemainderSpec(n=2, m=0), 2)
        assert abs(total - mpf_frac(Fraction(1, 2880))) < 8 * TOL


def test_r0_at_50_below_classical_bound():
    # 0 < R_0(t) < 1/(12 t)
    value = phi(RemainderSpec(n=0, m=0), 50)
    assert 0 < value < mpf_frac(Fraction(1, 600))


def test_q_large_t_decay_rate():
    # Q(t) ~ 1/(42 t^7): first omitted Stirling term differentiated twice
    with mp.workprec(200):
        t = mp.mpf(100)
        scaled = 42 * t**7 * q_value(100, POLICY)
        assert abs(scaled - 1) < mp.mpf("0.01")


@pytest.mark.parametrize("n, m", [(0, 0), (1, 1), (2, 2), (3, 2)])
def test_scaled_decay_stays_bounded(n, m):
    # |phi_{n,m}(t)| * t^(2n+m+1) stays below twice its limiting constant
    spec = RemainderSpec(n=n, m=m)
    limit = abs(bernoulli(2 * n + 2)) / ((2 * n + 2) * (2 * n + 1))
    for i in range(m):
        limit *= 2 * n + 1 + i
    with mp.workprec(300):
        for t in (10, 100, 10000):
            scaled = abs(phi(spec, t)) * mp.mpf(t) ** (2 * n + m + 1)
            assert 0 < scaled < 2 * mpf_frac(limit)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("t", ["0.01", 1, 100])
def test_members_positive_on_samples(n, m, t):
    assert phi(RemainderSpec(n=n, m=m), t) > 0


@pytest.mark.parametrize("name", ["Q", "PsiGap", "TrigammaGap3"])
@pytest.mark.parametrize("t", ["0.01", 1, 100])
def test_specials_positive_on_samples(name, t):
    assert phi(RemainderSpec(special=name), t) > 0


def test_partial_sum_values():
    # exact partial-sum values, seen through phi_{n,m} = (-1)^(n+m) d^m (ln Gamma - S_n)
    with mp.workprec(200):
        # S_0(1) = -1 + ln(2 pi)/2 and ln Gamma(1) = 0
        r0 = phi(RemainderSpec(n=0, m=0), 1)
        assert abs(r0 - (1 - mp.log(2 * mp.pi) / 2)) < TOL
        # S_2''(1) = 1 + 1/2 + 1/6 - 1/30 = 49/30 and psi'(1) = pi^2/6
        q1 = phi(RemainderSpec(n=2, m=2), 1)
        assert abs(q1 - (mp.pi**2 / 6 - mpf_frac(Fraction(49, 30)))) < TOL
        # S_1'(2) = ln 2 - 13/48 and psi(2) = 1 - euler
        p11 = phi(RemainderSpec(n=1, m=1), 2)
        assert abs(p11 - (1 - mp.euler - mp.log(2) + mpf_frac(Fraction(13, 48)))) < TOL


def test_partial_sum_plus_remainder_reconstructs_log_gamma():
    with mp.workprec(300):
        for n in (0, 2, 5):
            for t in (Fraction(1, 4), 2, 40):
                total = stirling_partial_sum(n, t) + (-1) ** n * phi(RemainderSpec(n=n, m=0), t)
                assert abs(total - log_gamma(t, POLICY)) < 16 * TOL


@given(
    n=st.integers(min_value=0, max_value=6),
    t=st.fractions(
        min_value=Fraction(1, 20), max_value=Fraction(50), max_denominator=64
    ),
)
@settings(max_examples=20, deadline=None)
def test_partial_sum_plus_remainder_property(n, t):
    with mp.workprec(300):
        total = stirling_partial_sum(n, t) + (-1) ** n * phi(RemainderSpec(n=n, m=0), t)
        assert abs(total - log_gamma(t, POLICY)) < 16 * TOL


def test_phi_derivatives_match_q_derivatives():
    # Q^(j) = psi^(j+1) - d^j [t^-1 + t^-2/2 + t^-3/6 - t^-5/30], from mpmath
    powers = {-1: Fraction(1), -2: Fraction(1, 2), -3: Fraction(1, 6), -5: Fraction(-1, 30)}
    ders = phi_derivatives(RemainderSpec(n=2, m=2), "1.5", 6, POLICY)
    with mp.workprec(256):
        t = mp.mpf("1.5")
        for j, value in enumerate(ders):
            expected = mp.psi(j + 1, t) - sum(
                mpf_frac(c) * mp.ff(p, j) * t ** (p - j) for p, c in powers.items()
            )
            assert abs(value - expected) < TOL * max(1, abs(expected))


def test_pole_orders():
    assert pole_order(RemainderSpec(n=0, m=0)) == 0
    assert pole_order(RemainderSpec(n=0, m=3)) == 3
    assert pole_order(RemainderSpec(n=1, m=2)) == 3
    assert pole_order(RemainderSpec(n=2, m=2)) == 5
    assert pole_order(RemainderSpec(n=3, m=1)) == 6
    assert pole_order(RemainderSpec(special="Q")) == 5
    assert pole_order(RemainderSpec(special="PsiGap")) == 1
    assert pole_order(RemainderSpec(special="TrigammaGap3")) == 3


def test_spec_labels_and_indices():
    assert RemainderSpec(n=1, m=2).label == "phi(1,2)"
    assert RemainderSpec(special="Q").label == "Q"
    assert RemainderSpec(special="Q").family_indices == (2, 2)
    assert RemainderSpec(special="PsiGap").family_indices == (0, 1)
    assert RemainderSpec(special="TrigammaGap3").family_indices == (1, 2)
    assert RemainderSpec(n=4, m=0).family_indices == (4, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 9, "m": 0},
        {"n": 0, "m": 7},
        {"n": -1, "m": 0},
        {"n": 1.5, "m": 0},
        {"n": 2},
        {"m": 2},
        {},
        {"special": "Quux"},
        {"n": 2, "m": 2, "special": "Q"},
        {"special": "Q-alias"},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        RemainderSpec(**kwargs)


@pytest.mark.parametrize("t", [0, -1, "-2.5"])
def test_nonpositive_argument_rejected(t):
    with pytest.raises(NonPositiveArgument):
        phi_derivatives(Q, t, 0, POLICY)
    with pytest.raises(NonPositiveArgument):
        q_value(t, POLICY)


def test_invalid_derivative_indices_rejected():
    for i_max in (-1, 1.5, "2", None):
        with pytest.raises(InvalidIndex):
            phi_derivatives(Q, 1, i_max, POLICY)


def test_differentiate_power_and_log_rules():
    form = ElementaryForm(powers={2: Fraction(3)}, log=Fraction(1), tlog=Fraction(2))
    d = differentiate(form)
    # d/dt [3 t^2 + ln t + 2 t ln t] = 6 t + 1/t + 2 ln t + 2
    assert d.powers == {1: Fraction(6), -1: Fraction(1)}
    assert d.log == Fraction(2)
    assert d.const == Fraction(2)
    assert d.tlog == 0


def test_differentiate_gamma_tower():
    form = ElementaryForm(loggamma=Fraction(1))
    d1 = differentiate(form)
    assert d1.psi == {0: Fraction(1)} and d1.loggamma == 0
    d2 = differentiate(d1)
    assert d2.psi == {1: Fraction(1)}
