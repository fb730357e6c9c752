"""Digamma/polygamma/log-gamma: known constants, cross-library oracle,
recurrence, limits, precision contracts."""

import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib

polygamma_module = importlib.import_module("cmdeg.polygamma")

from cmdeg import (
    InvalidIndex,
    InvalidSpec,
    NonPositiveArgument,
    PrecisionPolicy,
    PrecisionUnreachable,
    RemainderSpec,
    as_mpf,
    log_gamma,
    phi_derivatives,
    polygamma,
    polygamma_block,
)
from cmdeg.cli import main
from cmdeg.precision import GUARD_BITS

POLICY = PrecisionPolicy(working_bits=128)

# Euler-Mascheroni constant, frozen to 50 digits (standard reference value)
EULER_GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


def as_tol(policy=POLICY):
    return policy.abs_error_target


def test_digamma_at_one_is_minus_euler_gamma():
    with mp.workprec(200):
        expected = -mp.mpf(EULER_GAMMA_50)
        assert abs(polygamma(0, 1, POLICY) - expected) < as_tol()


def test_trigamma_at_one_is_pi_squared_over_six():
    with mp.workprec(200):
        expected = mp.pi**2 / 6
        assert abs(polygamma(1, 1, POLICY) - expected) < as_tol()


def test_trigamma_at_two():
    with mp.workprec(200):
        expected = mp.pi**2 / 6 - 1
        assert abs(polygamma(1, 2, POLICY) - expected) < as_tol()


def test_trigamma_reflection_at_one_quarter():
    # psi'(1/4) + psi'(3/4) = pi^2 / sin^2(pi/4) = 2 pi^2
    with mp.workprec(200):
        total = polygamma(1, Fraction(1, 4), POLICY) + polygamma(1, Fraction(3, 4), POLICY)
        assert abs(total - 2 * mp.pi**2) < 4 * as_tol()


def test_trigamma_at_one_inside_exact_basel_bounds():
    # sum_{k<=N} 1/k^2 + 1/(N+1) < psi'(1) < sum_{k<=N} 1/k^2 + 1/N
    N = 500
    partial = sum(Fraction(1, k * k) for k in range(1, N + 1))
    low = partial + Fraction(1, N + 1)
    high = partial + Fraction(1, N)
    value = polygamma(1, 1, POLICY)
    with mp.workprec(200):
        assert mp.mpf(low.numerator) / low.denominator < value
        assert value < mp.mpf(high.numerator) / high.denominator


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", ["0.001", "0.1", 1, "2.5", 10, 10000])
def test_against_mpmath_psi(k, t):
    # cross-library oracle: mpmath's own psi implementation
    with mp.workprec(250):
        expected = mp.psi(k, mp.mpf(t))
        diff = abs(polygamma(k, t, POLICY) - expected)
        assert diff < as_tol() * (1 + abs(expected))


@pytest.mark.parametrize("t", ["1e-4", "0.001", "0.5", 1, 2, "7.25", 100, 10000, "1e6"])
def test_log_gamma_against_mpmath(t):
    # the accuracy contract at every width, against mpmath at four times the bits
    for bits in (64, 128, 256, 512):
        policy = PrecisionPolicy(working_bits=bits)
        with mp.workprec(4 * bits):
            expected = mp.loggamma(mp.mpf(t))
            diff = abs(log_gamma(t, policy) - expected)
            assert diff < as_tol(policy) * (1 + abs(expected)), bits


def test_log_gamma_known_values():
    with mp.workprec(200):
        assert abs(log_gamma(1, POLICY)) < as_tol()
        assert abs(log_gamma(2, POLICY)) < as_tol()
        assert abs(log_gamma(Fraction(1, 2), POLICY) - mp.log(mp.pi) / 2) < as_tol()
        assert abs(log_gamma(5, POLICY) - mp.log(24)) < as_tol()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", [Fraction(1, 10), Fraction(1, 2), 1, Fraction(7, 2), 50])
def test_shift_recurrence_residual(k, t):
    # psi^(k)(t+1) = psi^(k)(t) + (-1)^k k! / t^(k+1)
    with mp.workprec(250):
        jump = Fraction((-1) ** k * factorial(k), 1) / Fraction(t) ** (k + 1)
        jump_value = mp.mpf(jump.numerator) / jump.denominator
        residual = polygamma(k, t + 1, POLICY) - polygamma(k, t, POLICY) - jump_value
        assert abs(residual) < 4 * as_tol()


@given(
    t=st.fractions(
        min_value=Fraction(1, 10), max_value=Fraction(50), max_denominator=97
    ),
    k=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_shift_recurrence_residual_property(t, k):
    with mp.workprec(250):
        jump = Fraction((-1) ** k * factorial(k), 1) / t ** (k + 1)
        jump_value = mp.mpf(jump.numerator) / jump.denominator
        residual = polygamma(k, t + 1, POLICY) - polygamma(k, t, POLICY) - jump_value
        assert abs(residual) < 4 * as_tol()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_small_t_limit(k):
    # t^k psi^(k-1)(t) -> (-1)^k (k-1)! as t -> 0+
    t = mp.mpf("1e-6")
    with mp.workprec(200):
        value = mp.mpf(t) ** k * polygamma(k - 1, "1e-6", POLICY)
        expected = (-1) ** k * factorial(k - 1)
        assert abs(value - expected) < mp.mpf("1e-5") * factorial(k - 1)


def test_large_t_stirling_window():
    # |psi(t) - ln t + 1/(2t) + 1/(12 t^2)| <= |B_4|/(4 t^4) = 1/(120 t^4)
    with mp.workprec(200):
        t = mp.mpf(10**6)
        value = polygamma(0, 10**6, POLICY)
        approx = mp.log(t) - 1 / (2 * t) - 1 / (12 * t * t)
        assert abs(value - approx) < 1 / (120 * t**4)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("t", ["0.001", "0.1", 1, 10, 10000])
def test_two_precision_agreement(k, t):
    lo = polygamma(k, t, PrecisionPolicy(working_bits=128))
    hi = polygamma(k, t, PrecisionPolicy(working_bits=256))
    with mp.workprec(300):
        assert abs(lo - hi) < mp.mpf(2) ** (-112) * (1 + abs(hi))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("t", [Fraction(3, 2), 5])
def test_finite_difference_matches_next_order(k, t):
    # central difference at step 2^(-working_bits/3), relative tol 2^(-wb/4)
    wb = POLICY.working_bits
    h = Fraction(1, 2 ** (wb // 3))
    fine = PrecisionPolicy(working_bits=2 * wb)
    with mp.workprec(3 * wb):
        plus = polygamma(k, Fraction(t) + h, fine)
        minus = polygamma(k, Fraction(t) - h, fine)
        fd = (plus - minus) / (2 * mp.mpf(h.numerator) / h.denominator)
        exact = polygamma(k + 1, t, POLICY)
        assert abs(fd - exact) < mp.mpf(2) ** (-(wb // 4)) * (1 + abs(exact))


def test_block_matches_pointwise():
    # every order of the block against mpmath's psi at four times the bits;
    # k_max = 0 is the block with no derivative orders at all
    for bits in (128, 512):
        policy = PrecisionPolicy(working_bits=bits)
        for k_max in (0, 6, 15):
            for t in ("1e-3", "0.3", "1.7", "50", "9000"):
                block = polygamma_block(k_max, t, policy)
                assert len(block) == k_max + 1
                with mp.workprec(4 * bits):
                    for k, value in enumerate(block):
                        expected = mp.psi(k, mp.mpf(t))
                        tol = policy.abs_error_target * max(1, abs(expected))
                        assert abs(value - expected) <= tol, (bits, k_max, t, k)


@pytest.mark.parametrize("bits", [64, 128, 512, 1024])
@pytest.mark.parametrize("t", ["1e-4", "0.3387", "3.5", "9000", "1e6"])
def test_block_and_log_gamma_relative_accuracy(t, bits):
    # orders k >= 1 within 2^(GUARD_BITS - working_bits) of mpmath at four
    # times the bits *relative to the value*, which at large t is far below
    # the absolute target; order 0 and ln Gamma to the same bound times
    # max(1, |value|)
    policy = PrecisionPolicy(working_bits=bits)
    with mp.workprec(4 * bits):
        bound = mp.mpf(2) ** (GUARD_BITS - bits)
        psi = [mp.psi(k, mp.mpf(t)) for k in range(19)]
        scales = [max(1, abs(psi[0]))] + [abs(x) for x in psi[1:]]
        for k_max in (0, 3, 12, 18):
            block = polygamma_block(k_max, t, policy)
            for k, value in enumerate(block):
                assert abs(value - psi[k]) <= bound * scales[k], (k_max, k)
        expected = mp.loggamma(mp.mpf(t))
        assert abs(log_gamma(t, policy) - expected) <= bound * max(1, abs(expected))


def _series_head(k, first, t):
    """The terms of the asymptotic series of psi^(k) (of ln Gamma for
    k = -1) before Bernoulli term ``first``, in mpmath at the precision in
    force."""
    if k < 0:
        head = (t - mp.mpf(1) / 2) * mp.log(t) - t + mp.log(2 * mp.pi) / 2
        return head + sum(
            mp.bernoulli(2 * i) / (2 * i * (2 * i - 1) * t ** (2 * i - 1)) for i in range(1, first)
        )
    sign = (-1) ** (k + 1)
    head = mp.log(t) if k == 0 else sign * mp.factorial(k - 1) / t**k
    head += sign * mp.factorial(k) / (2 * t ** (k + 1))
    for i in range(1, first):
        coeff = mp.bernoulli(2 * i) * mp.factorial(2 * i + k - 1) / mp.factorial(2 * i)
        head += sign * coeff / t ** (2 * i + k)
    return head


@pytest.mark.parametrize("t", ["1e-4", "0.37", "2.5", "37.5", "9000"])
def test_block_and_log_gamma_tails_against_mpmath(t):
    # with first >= 1 a block holds psi^(k) minus its series' head, and
    # log_gamma ln Gamma minus its Stirling head, each relative to its value
    policy = PrecisionPolicy(working_bits=128)
    bound = mp.mpf(2) ** (GUARD_BITS - policy.working_bits)
    for first in (1, 4, polygamma_module.TAIL_FIRST_MAX):
        tails = polygamma_block(8, t, policy, k_lo=2, first=first)
        assert tails[:2] == [None, None]
        tail = log_gamma(t, policy, first=first)
        with mp.workprec(600 + 40 * first):
            tv = mp.mpf(t)
            for k in range(2, 9):
                want = mp.psi(k, tv) - _series_head(k, first, tv)
                assert abs(tails[k] - want) <= bound * abs(want), (first, k)
            want = mp.loggamma(tv) - _series_head(-1, first, tv)
            assert abs(tail - want) <= bound * abs(want), first


@pytest.mark.parametrize("first", [-1, polygamma_module.TAIL_FIRST_MAX + 1, 1.0, True])
def test_tail_first_term_out_of_range_rejected(first):
    with pytest.raises(InvalidIndex):
        polygamma_block(3, 1, POLICY, first=first)
    with pytest.raises(InvalidIndex):
        log_gamma(1, POLICY, first=first)


def test_determinism():
    a = polygamma(2, "3.25", POLICY)
    b = polygamma(2, "3.25", POLICY)
    assert a == b
    assert log_gamma("3.25", POLICY) == log_gamma("3.25", POLICY)


@pytest.mark.parametrize("t", [0, -1, "-0.5", Fraction(-3, 2), -0.0, "-1e-300"])
def test_nonpositive_argument_rejected(t):
    with pytest.raises(NonPositiveArgument):
        polygamma(0, t, POLICY)
    with pytest.raises(NonPositiveArgument):
        log_gamma(t, POLICY)


@pytest.mark.parametrize("k", [-1, 1.5, "2", None, True])
def test_invalid_order_rejected(k):
    with pytest.raises(InvalidIndex):
        polygamma(k, 1, POLICY)
    with pytest.raises(InvalidIndex):
        polygamma_block(k, 1, POLICY)


def test_policy_validation():
    for bits in (16, 128.5, "128", None):
        with pytest.raises(InvalidSpec):
            PrecisionPolicy(working_bits=bits)


@pytest.mark.parametrize("text", ["abc", "", "1/0"])
def test_as_mpf_rejects_unreadable_strings(text):
    with pytest.raises(InvalidSpec):
        as_mpf(text, 64)


@pytest.mark.parametrize("x", ["nan", "inf", "-inf", float("nan"), float("-inf"), mp.inf, mp.nan])
def test_as_mpf_rejects_non_finite_values(x):
    with pytest.raises(InvalidSpec):
        as_mpf(x, 64)


@pytest.mark.parametrize("prec", [24, 64, 160, 300])
def test_as_mpf_rounds_as_workprec_does(prec):
    # as_mpf converts without entering workprec; the bits must be those of
    # +mp.mpf(x) under workprec(prec), for every input type it reads
    with mp.workprec(400):
        wide = mp.mpf(1) / 3
    for x in (7, -(2**400 + 1), 0.1, "0.1", "-2.5e-300", wide, -wide, mp.mpf(0)):
        with mp.workprec(prec):
            expected = +mp.mpf(x)
        assert as_mpf(x, prec)._mpf_ == expected._mpf_, (x, prec)


def test_shift_budget_exhaustion_raises(monkeypatch):
    # both users of the shared shift loop; a memoised value would bypass
    # the patched series
    polygamma_module._block.cache_clear()
    # force each asymptotic series to keep reporting non-convergence
    monkeypatch.setattr(polygamma_module, "_psi_series", lambda k_max, *args: None)
    monkeypatch.setattr(polygamma_module, "_stirling_series", lambda w, sh, scale, target: None)
    monkeypatch.setattr(polygamma_module, "MAX_EXTRA_SHIFTS", 50)
    policy = PrecisionPolicy(working_bits=64)
    with pytest.raises(PrecisionUnreachable, match="polygamma block up to order 1"):
        polygamma(1, 1, policy)
    with pytest.raises(PrecisionUnreachable, match="log_gamma"):
        log_gamma(1, policy)


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_tiny_t_block_needs_one_series_pass(k_max, monkeypatch):
    # at t < 1 the block adds the j = 0 recurrence term exactly and keeps
    # the series target at 2^(8-P0); a target tightened by the (k+1)|log2 t|
    # bits of that term would make t = 1e-300 shift 5-6 times
    polygamma_module._block.cache_clear()
    calls = []
    series = polygamma_module._psi_series

    def counting(*args):
        calls.append(args[0])
        return series(*args)

    monkeypatch.setattr(polygamma_module, "_psi_series", counting)
    polygamma_block(k_max, "1e-300", POLICY)
    assert calls == [k_max]


# ---------------------------------------------------------------------------
# per-process memo of blocks


def clear_memos():
    polygamma_module._block.cache_clear()


def bits_of(values):
    return [(x.man, x.exp) for x in values]


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("t", ["1e-3", "0.5", "9000"])
@pytest.mark.parametrize("k_max", [0, 11, 14])
def test_memo_hit_equals_fresh_value(k_max, t, bits):
    policy = PrecisionPolicy(working_bits=bits)
    polygamma_block(k_max, t, policy)
    log_gamma(t, policy)
    hits = polygamma_block(k_max, t, policy), log_gamma(t, policy)
    clear_memos()
    fresh = polygamma_block(k_max, t, policy), log_gamma(t, policy)
    assert bits_of(hits[0]) == bits_of(fresh[0])
    assert bits_of([hits[1]]) == bits_of([fresh[1]])


def test_memo_ignores_ambient_precision():
    def evaluate():
        return bits_of(polygamma_block(11, "0.37", POLICY) + [log_gamma("0.37", POLICY)])

    values = []
    for prec in (53, 1000, 53):
        clear_memos()
        with mp.workprec(prec):
            values.append(evaluate())
    # and a hit on a value computed under another ambient precision
    with mp.workprec(1000):
        values.append(evaluate())
    assert values[1] == values[0] == values[2] == values[3]


def test_memo_never_serves_a_prefix_of_a_larger_block(monkeypatch):
    clear_memos()
    calls = []
    series = polygamma_module._psi_series

    def counting(k_max, t, w, sh, scale, target, k_lo):
        calls.append(k_max)
        return series(k_max, t, w, sh, scale, target, k_lo)

    monkeypatch.setattr(polygamma_module, "_psi_series", counting)
    polygamma_block(14, "0.8", POLICY)
    assert set(calls) == {14}
    calls.clear()
    polygamma_block(11, "0.8", POLICY)
    assert set(calls) == {11}
    calls.clear()
    polygamma_block(14, "0.8", POLICY)
    assert calls == []


def test_low_order_block_has_the_full_block_bits():
    # a seeded sample of (k_lo, k_max, t, bits): every order a block from
    # k_lo returns has the bits of the same order in the full block
    rng = random.Random("low-order-block")
    for _ in range(40):
        k_max = rng.randint(0, 18)
        k_lo = rng.randint(0, k_max)
        t = rng.choice(("1e-300", "1e-3", "0.37", "1", "2.5", "37.5", "171", "9000", "1e6"))
        policy = PrecisionPolicy(working_bits=rng.choice((64, 128, 256, 512)))
        low = polygamma_block(k_max, t, policy, k_lo=k_lo)
        full = polygamma_block(k_max, t, policy)
        assert low[:k_lo] == [None] * k_lo
        assert bits_of(low[k_lo:]) == bits_of(full[k_lo:]), (k_lo, k_max, t, policy)


def test_low_order_block_series_skips_lower_orders(monkeypatch):
    # the series is asked for k_lo..k_max only, by a block and by
    # phi_derivatives, whose tails read psi^(2..7) for phi_{1,3..8}
    clear_memos()
    calls = []
    series = polygamma_module._psi_series

    def counting(k_max, t, w, sh, scale, target, k_lo, *tail):
        calls.append((k_lo, k_max))
        return series(k_max, t, w, sh, scale, target, k_lo, *tail)

    monkeypatch.setattr(polygamma_module, "_psi_series", counting)
    polygamma_block(9, "0.8", POLICY, k_lo=4)
    assert set(calls) == {(4, 9)}
    calls.clear()
    phi_derivatives(RemainderSpec(n=1, m=3), "0.7", 5, POLICY)
    assert set(calls) == {(2, 7)}
    with pytest.raises(InvalidIndex):
        polygamma_block(3, 1, POLICY, k_lo=4)


def test_memo_hands_out_no_shared_list():
    expected = polygamma_block(3, "2.5", POLICY)
    first = polygamma_block(3, "2.5", POLICY)
    first[0] = mp.mpf(99)
    first.append(mp.mpf(1))
    assert polygamma_block(3, "2.5", POLICY) == expected
    assert len(expected) == 4


def test_conjecture_table_warm_equals_cold(capsys):
    argv = ["conjectures", "--n-max", "1", "--m-max", "1", "--grid", "log:1e-3:1e4:4"]
    outputs = []
    for clear in (False, False, True):
        if clear:
            clear_memos()
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]


def test_log_gamma_tiny_t_needs_one_series_pass(monkeypatch):
    # |log2 t| widens ln Gamma's scale only; were it to tighten the
    # Stirling target too, t = 1e-300 would take three series passes
    calls = []
    series = polygamma_module._stirling_series

    def counting(*args):
        calls.append(args[0])
        return series(*args)

    monkeypatch.setattr(polygamma_module, "_stirling_series", counting)
    log_gamma("1e-300", POLICY)
    assert len(calls) == 1


def test_block_accuracy_down_to_tiny_t():
    # a seeded sample of t = 10^u, u in [-300, 2.3], against mpmath: order k
    # is psi^(k)(t+1) at 3 bits + 400 bits plus the recurrence term
    # -(-1)^k k!/t^(k+1), exact at the value's magnitude on top of that, so
    # the reference is absolute even where psi^(k)(t) has thousands of bits
    # above 1.  The contract: absolute error below 2^(GUARD_BITS - bits),
    # and for k >= 1 also relative to the value.
    rng = random.Random("tiny-t-block")
    for _ in range(30):
        bits = rng.choice((53, 64, 128, 512, 1024))
        k_max = rng.randint(0, 24)
        k_lo = rng.randint(0, k_max)
        u = rng.uniform(-300, 2.3)
        tv = as_mpf(f"{10 ** (u % 1):.15f}e{int(u // 1)}", bits + 32)
        block = polygamma_block(k_max, tv, PrecisionPolicy(working_bits=bits), k_lo=k_lo)
        bound = mp.mpf(2) ** (GUARD_BITS - bits)
        for k in range(k_lo, k_max + 1):
            with mp.workprec(3 * bits + 400):
                shifted = mp.psi(k, tv + 1)
            term_bits = max(0, int(mp.mag(mp.factorial(k) / tv ** (k + 1))))
            with mp.workprec(3 * bits + 400 + term_bits):
                expected = shifted - (-1) ** k * mp.factorial(k) / tv ** (k + 1)
                err = abs(block[k] - expected)
                assert err <= bound, (bits, k_lo, k_max, tv, k)
                assert k == 0 or err <= bound * abs(expected), (bits, k_lo, k_max, tv, k)


def test_order_200_block_against_mpmath(monkeypatch):
    # the high-order block of deg[Q]'s upper end (cm_check of Q at r =
    # 4.745, max_order 200, at t ~ 30.98): the orders against mpmath at 3000
    # bits, and a series scale that no longer carries bitlen(200!) ~ 1250
    # bits of compensation, which the recurrence terms k!/t^(k+1) at t ~ 31
    # do not need
    clear_memos()
    scales = []
    series = polygamma_module._psi_series

    def spying(*args):
        scales.append(args[4])
        return series(*args)

    monkeypatch.setattr(polygamma_module, "_psi_series", spying)
    tv = as_mpf("30.98", POLICY.internal_bits())
    block = polygamma_block(200, tv, POLICY)
    assert scales and max(scales) < factorial(200).bit_length()
    bound = POLICY.abs_error_target
    with mp.workprec(3000):
        for k in (0, 1, 12, 100, 200):
            expected = mp.psi(k, tv)
            err = abs(block[k] - expected)
            assert err <= bound and (k == 0 or err <= bound * abs(expected)), k
