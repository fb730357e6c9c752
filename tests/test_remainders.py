"""Asymptotic remainders phi_{n,m}: oracle values, identities, decay, signs."""

import dataclasses
import hashlib
import importlib
import random
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
    as_mpf,
    bernoulli,
    differentiate,
    form_for,
    log_gamma,
    phi_derivatives,
    pole_order,
    q_value,
)

degree_module = importlib.import_module("cmdeg.degree")
polygamma_module = importlib.import_module("cmdeg.polygamma")
precision_module = importlib.import_module("cmdeg.precision")
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


def test_form_for_hands_out_a_copy():
    spec = RemainderSpec(n=1, m=1)
    before = [v._mpf_ for v in phi_derivatives(spec, 2, 0, POLICY)]
    form = form_for(spec)
    form.psi.clear()
    form.powers.clear()
    form.loggamma = Fraction(7)
    assert [v._mpf_ for v in phi_derivatives(spec, 2, 0, POLICY)] == before
    assert form_for(spec) == reference_phi_form(1, 1)


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


def _golden_digest(cases):
    """sha256 of the (sign, man, exp) of every phi^(0..12) value of the
    cases (n, m, t, bits); mpf.man is unsigned, so the sign is read from
    _mpf_ and a flipped sign changes the digest."""
    digest = hashlib.sha256()
    for n, m, t, bits in cases:
        for v in phi_derivatives(RemainderSpec(n=n, m=m), t, 12, PrecisionPolicy(bits)):
            sign, man, exp = v._mpf_[:3]
            digest.update(f"{sign}:{man}p{exp};".encode())
    return digest.hexdigest()


def test_phi_derivatives_golden_bits_assembly():
    # pins every value below the shift target, at 128, 256 and 512 bits,
    # where each phi_{n,j} is its Bernoulli tail shifted past the target
    # and back
    ts = (Fraction(1, 1000), "0.37", 2, "37.5")
    cases = [(n, m, t, 128) for n in range(PHI_N_MAX + 1) for m in range(PHI_M_MAX + 1) for t in ts]
    cases += [(n, m, "0.37", bits) for n, m in ((0, 0), (2, 2), (8, 6)) for bits in (256, 512)]
    assert all(as_mpf(t, 53) < polygamma_module._shift_target(bits) for _, _, t, bits in cases)
    assert _golden_digest(cases) == (
        "dba3b1892f737951705c84578d22710501649464887b10edc5ae4c57374e9446"
    )


def test_phi_derivatives_golden_bits_tail():
    # pins every value at t = 9000, past the shift target at 128, 256 and
    # 512 bits, where each phi_{n,j} is its own Bernoulli tail
    cases = [(n, m, 9000, 128) for n in range(PHI_N_MAX + 1) for m in range(PHI_M_MAX + 1)]
    cases += [(n, m, 9000, bits) for n, m in ((0, 0), (2, 2), (8, 6)) for bits in (256, 512)]
    assert _golden_digest(cases) == (
        "ebb197ba85221f3b30d3f831f943b7ab065048626aa2516435b1e248849d25ee"
    )


def _oracle_value(form, tv, lg, psi, lt, l2pi):
    """An ElementaryForm at tv from mpmath's lnGamma(tv), psi^(k)(tv), ln tv
    and ln(2 pi), at the working precision in force."""
    total = form.const + form.loggamma * lg + form.log2pi * l2pi + (form.log + form.tlog * tv) * lt
    total += sum(mpf_frac(c) * psi[i] for i, c in form.psi.items())
    return total + sum(mpf_frac(c) * tv**p for p, c in form.powers.items())


def test_family_relative_accuracy_against_mpmath():
    # the precision contract, read as a relative bound, for every sampled
    # member and order at extreme t: on the one-cell path and in a table
    # scope, which evaluates all cells at the largest elevation among them
    policy = PrecisionPolicy(working_bits=128)
    bound = mp.mpf(2) ** (precision_module.GUARD_BITS - policy.working_bits)
    cells = {(n, m): 12 for n in (0, 2, 4, 6, 8) for m in (0, 3, 6)}
    for t in ("1e-12", "1e-3", "0.37", "2", "37.5", "1e4", "1e8"):
        tv = as_mpf(t, policy.internal_bits())  # the t both paths see
        table = degree_module._scope(cells)
        with mp.workprec(4 * policy.working_bits + 40 * abs(int(mp.mag(tv))) + 400):
            pieces = mp.loggamma(tv), [mp.psi(k, tv) for k in range(18)], mp.log(tv)
            pieces += (mp.log(2 * mp.pi),)
            for n, m in cells:
                spec = RemainderSpec(n=n, m=m)
                one_cell = phi_derivatives(spec, tv, 12, policy)
                # the scope keeps each row aligned: rebuild its values exactly
                mantissas, exp = table(spec, tv, policy)
                in_table = [mp.make_mpf(mp.libmp.from_man_exp(x, exp)) for x in mantissas]
                form = form_for(spec)
                for i in range(13):
                    want = _oracle_value(form, tv, *pieces)
                    for got in (one_cell[i], in_table[i]):
                        assert abs(got - want) <= bound * abs(want), (t, n, m, i)
                    form = differentiate(form)


# ---------------------------------------------------------------------------
# the Bernoulli tail past the shift target


@pytest.mark.parametrize("bits", [64, 128, 512])
@pytest.mark.parametrize("n", [0, 8])
def test_tail_agrees_with_assembly_at_the_threshold(n, bits):
    # phi_{n,0..18} by the shifted tail just below and just above the
    # threshold, against the member's elementary form assembled by mpmath
    # (lnGamma, psi and logs at working_bits + 200 bits beyond the form's
    # cancellation); at 64 bits and t0 +- 1/3 the n = 8 tail at w = 22 grows
    # before order 18's target and shifts on to w = 44
    policy = PrecisionPolicy(bits)
    bound = mp.mpf(2) ** (precision_module.GUARD_BITS - bits)
    for delta in (Fraction(-1, 3), Fraction(-1, 1000), Fraction(1, 3)):
        tv = as_mpf(polygamma_module._shift_target(bits) + delta, policy.internal_bits())
        row = phi_derivatives(RemainderSpec(n=n, m=0), tv, 18, policy)
        form = form_for(RemainderSpec(n=n, m=0))
        with mp.workprec(bits + 200 + (2 * n + 22) * int(mp.mag(tv))):
            pieces = mp.loggamma(tv), [mp.psi(k, tv) for k in range(18)], mp.log(tv)
            pieces += (mp.log(2 * mp.pi),)
            for i, got in enumerate(row):
                want = _oracle_value(form, tv, *pieces)
                assert abs(got - want) <= bound * abs(want), (delta, i)
                form = differentiate(form)


def test_tail_relative_accuracy_against_mpmath():
    # a seeded sample past the threshold, against mpmath's lnGamma and psi
    # at working_bits + 200 bits beyond the form's cancellation
    rng = random.Random("tail-accuracy")
    checked = 0
    for _ in range(40):
        n, m, i = rng.randint(0, PHI_N_MAX), rng.randint(0, PHI_M_MAX), rng.randint(0, 12)
        bits = rng.choice((64, 128, 256, 512))
        t = Fraction(rng.randint(6 * 2**10, 16000 * 2**10), 2**10)
        policy = PrecisionPolicy(bits)
        tv = as_mpf(t, policy.internal_bits())
        if tv < polygamma_module._shift_target(bits):
            continue
        checked += 1
        got = phi_derivatives(RemainderSpec(n=n, m=m), tv, i, policy)[i]
        form = remainders_module._phi_form(n, m + i)
        with mp.workprec(bits + 200 + form.cancel_gap * int(mp.mag(tv))):
            lg, l2pi = mp.loggamma(tv), mp.log(2 * mp.pi)
            psi = {k: mp.psi(k, tv) for k in form.psi}
            want = (-1) ** i * _oracle_value(form, tv, lg, psi, mp.log(tv), l2pi)
            bound = mp.mpf(2) ** (precision_module.GUARD_BITS - bits)
            assert abs(got - want) <= bound * abs(want), (n, m, i, bits, t)
    assert checked >= 30


def _shifted_oracle(n, j, tv, bits):
    """phi_{n,j}(tv) from its elementary form and mpmath's lnGamma and psi
    at tv + 1 with the recurrence terms ln tv and (-1)^k k!/tv^(k+1), at
    working_bits + 200 bits beyond the form's cancellation: quick down to
    tv = 1e-300, where no piece cancels the pole that dominates."""
    form = remainders_module._phi_form(n, j)
    with mp.workprec(bits + 200 + form.cancel_gap * max(0, int(mp.mag(tv)))):
        lg, l2pi = mp.loggamma(tv + 1) - mp.log(tv), mp.log(2 * mp.pi)
        psi = {k: mp.psi(k, tv + 1) - (-1) ** k * mp.factorial(k) / tv ** (k + 1) for k in form.psi}
        return _oracle_value(form, tv, lg, psi, mp.log(tv), l2pi)


def test_shifted_tail_relative_accuracy_against_mpmath():
    # a seeded sample below the threshold, t = 10^u with u in [-300, 0] or
    # [-3, log10 t0], where each tail is summed at t + N and shifted back,
    # and the corner where a 64-bit n = 8 tail near t0 shifts further
    rng = random.Random("shifted-tail-accuracy")
    cases = []
    for _ in range(40):
        bits = rng.choice((53, 64, 128, 256, 512))
        top = mp.log10(polygamma_module._shift_target(bits))
        u = rng.uniform(-300, 0) if rng.random() < 0.25 else rng.uniform(-3, float(top))
        t = f"{10 ** (u % 1):.15f}e{int(u // 1)}"
        cases.append((rng.randint(0, PHI_N_MAX), rng.randint(0, PHI_M_MAX), rng.randint(0, 12), bits, t))
    target = polygamma_module._shift_target(64)
    cases += [(8, 0, i, 64, target + d) for d in (Fraction(-1, 3), Fraction(1, 3)) for i in (12, 18)]
    for n, m, i, bits, t in cases:
        policy = PrecisionPolicy(bits)
        tv = as_mpf(t, policy.internal_bits())
        assert tv < polygamma_module._shift_target(bits) + 1
        got = phi_derivatives(RemainderSpec(n=n, m=m), tv, i, policy)[i]
        want = _shifted_oracle(n, m + i, tv, bits)
        with mp.workprec(4 * bits):
            if i % 2:
                want = -want
            bound = mp.mpf(2) ** (precision_module.GUARD_BITS - bits)
            assert abs(got - want) <= bound * abs(want), (n, m, i, bits, t)


def test_absolute_contract_to_order_18_at_every_t():
    # the absolute bound, not only the relative one, for every derivative
    # order up to 18, from t = 1e-12 to past the threshold: a large value
    # near t = 0 keeps every bit above 2^-(working_bits + 40).  Near t = 1
    # and above order ~35 the shift's power sums miss it (ROADMAP item 3).
    rng = random.Random("absolute-contract")
    cases = [(1, 0, 18, 53, "0.8693188531042777")]
    cases += [(8, 6, 18, 53, t) for t in ("0.5", "1", "2.5")]
    for _ in range(30):
        bits = rng.choice((53, 64, 128, 256))
        top = mp.log10(polygamma_module._shift_target(bits) + 1)
        u = rng.uniform(-12, float(top))
        t = f"{10 ** (u % 1):.15f}e{int(u // 1)}"
        cases.append((rng.randint(0, PHI_N_MAX), rng.randint(0, PHI_M_MAX), rng.randint(0, 18), bits, t))
    for n, m, i, bits, t in cases:
        policy = PrecisionPolicy(bits)
        tv = as_mpf(t, policy.internal_bits())
        got = phi_derivatives(RemainderSpec(n=n, m=m), tv, i, policy)[i]
        size = max(0, int(mp.mag(got)))
        want = _shifted_oracle(n, m + i, tv, bits + size)
        with mp.workprec(2 * bits + 200 + size):
            if i % 2:
                want = -want
            bound = mp.mpf(2) ** (precision_module.GUARD_BITS - bits)
            assert abs(got - want) <= bound, (n, m, i, bits, t)


@pytest.mark.parametrize("bits", [128, 256])
def test_table_row_equals_standalone_row_past_the_threshold(bits):
    # a cell's bits do not depend on the other cells, past the threshold
    # and below it
    policy = PrecisionPolicy(bits)
    cells = {(n, m): 12 for n in range(4) for m in range(4)}
    threshold = polygamma_module._shift_target(bits)
    below = (Fraction(1, 1000), "0.37", threshold - Fraction(1, 2))
    for t in below + (threshold + Fraction(1, 2), "9000", "1e8"):
        tv = as_mpf(t, policy.internal_bits())
        table = degree_module._scope(cells)
        for n, m in cells:
            spec = RemainderSpec(n=n, m=m)
            alone = degree_module._aligned_row(phi_derivatives(spec, tv, 12, policy))
            assert table(spec, tv, policy) == alone, (t, n, m)


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


def test_bool_indices_rejected():
    # bool is an int subclass: RemainderSpec(n=True, m=1) would equal (1, 1)
    for kwargs in ({"n": True, "m": 1}, {"n": 1, "m": False}):
        with pytest.raises(InvalidSpec, match="must be integers"):
            RemainderSpec(**kwargs)


@pytest.mark.parametrize("t", [0, -1, "-2.5", -0.0, Fraction(-1, 3)])
def test_nonpositive_argument_rejected(t):
    with pytest.raises(NonPositiveArgument):
        phi_derivatives(Q, t, 0, POLICY)
    with pytest.raises(NonPositiveArgument):
        q_value(t, POLICY)


def test_invalid_derivative_indices_rejected():
    for i_max in (-1, 1.5, "2", None, True):
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
