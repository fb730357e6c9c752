"""Laplace kernel h and its derivatives: exact coefficients, series/closed
consistency, boundary limits, positivity, and the integral reconstruction."""

import importlib
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

kernel_module = importlib.import_module("cmdeg.kernel")

from cmdeg import (
    InvalidIndex,
    InvalidSpec,
    NonPositiveArgument,
    PrecisionPolicy,
    QuadratureNotConverged,
    bernoulli,
    h4_positivity_scan,
    h4_series_coefficient,
    kernel_h,
    laplace_reconstruct,
    q_value,
)

POLICY = PrecisionPolicy(working_bits=128)

# [PAPER] doubled coefficients 2 c_k for k = 7..11
DOUBLED_COEFFS = {
    7: Fraction(5, 7),
    8: Fraction(25, 14),
    9: Fraction(193, 84),
    10: Fraction(85, 42),
    11: Fraction(5065, 3696),
}


@pytest.mark.parametrize("k, doubled", sorted(DOUBLED_COEFFS.items()))
def test_known_coefficients_exact(k, doubled):
    assert 2 * h4_series_coefficient(k) == doubled


@pytest.mark.parametrize("k", [6, 0, -3, 2.5, "7"])
def test_coefficient_index_validation(k):
    with pytest.raises(InvalidIndex):
        h4_series_coefficient(k)


def _convolution_coefficients(order):
    """Maclaurin coefficients of 30 (e^s - 1)^5 h''''(s), assembled from
    scratch by exact series multiplication -- an independent oracle for c_k."""
    # (e^s - 1)^5 = sum_i a_i s^i with a_i = sum_r C(5,r) (-1)^(5-r) r^i / i!
    a = [
        Fraction(
            sum(comb(5, r) * (-1) ** (5 - r) * r**i for r in range(6)), factorial(i)
        )
        for i in range(order + 1)
    ]
    # h''''(s) = sum_{k>=3} B_2k s^(2k-4) / (2k-4)!
    b = [Fraction(0)] * (order + 1)
    for k in range(3, order // 2 + 3):
        if 2 * k - 4 <= order:
            b[2 * k - 4] = bernoulli(2 * k) / factorial(2 * k - 4)
    out = []
    for i in range(order + 1):
        out.append(30 * sum(a[j] * b[i - j] for j in range(i + 1)))
    return out


def test_coefficients_match_independent_convolution():
    conv = _convolution_coefficients(20)
    assert all(conv[i] == 0 for i in range(7))
    for k in range(7, 21):
        assert h4_series_coefficient(k) == conv[k]


def test_coefficient_bracket_bound():
    # the closed numerator is bounded by 2 * 5^k, so c_k <= 2 * 5^k / k!
    for k in range(7, 1001):
        assert 0 < h4_series_coefficient(k) * factorial(k) <= 2 * 5**k


def test_positivity_scan_report():
    rep = h4_positivity_scan(200)
    assert rep.k_min == 7
    assert rep.k_max == 200
    assert rep.checked == 194
    assert rep.all_positive
    assert rep.failures == ()


def test_positivity_scan_validation():
    with pytest.raises(InvalidIndex):
        h4_positivity_scan(6)


def test_positivity_scan_reports_nonpositive_coefficients(monkeypatch):
    # the scan compares each coefficient with 0; a zero counts as a failure
    exact = kernel_module.h4_series_coefficient
    bad = {9: Fraction(-1, 3), 12: Fraction(0)}
    monkeypatch.setattr(
        kernel_module, "h4_series_coefficient", lambda k: bad.get(k, exact(k))
    )
    rep = h4_positivity_scan(20)
    assert rep.checked == 14
    assert not rep.all_positive
    assert rep.failures == (9, 12)


def test_kernel_value_at_one_frozen():
    assert mp.nstr(kernel_h(0, 1, POLICY), 25) == "0.00003226242488197994055756066"


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("s", ["0.125", "0.25", "0.5", 1, 2, 4])
def test_series_and_closed_forms_agree(j, s):
    # the Maclaurin series converges for |s| < 2 pi, so it overlaps the
    # closed-form branch well past the crossover
    prec = 240
    sv = mp.mpf(s)
    series = kernel_module._h_series(j, sv, prec)
    closed = kernel_module._h_closed(j, sv, prec)
    assert abs(series - closed) < mp.mpf(2) ** (-150) * (1 + abs(closed))


# h^(j)(s) minus its polynomial limit from the defining formula is about
# s e^-s, far below 2^-100 relative at s = 200
LARGE_S_LIMITS = {
    0: lambda s: s**4 / 720 - s**2 / 12 + s / 2 - 1,
    1: lambda s: s**3 / 180 - s / 6 + mp.mpf(1) / 2,
    2: lambda s: s**2 / 60 - mp.mpf(1) / 6,
    3: lambda s: s / 30,
    4: lambda s: mp.mpf(1) / 30,
}


@pytest.mark.parametrize("j", sorted(LARGE_S_LIMITS))
def test_large_s_matches_polynomial_limit(j):
    with mp.workprec(300):
        limit = LARGE_S_LIMITS[j](mp.mpf(200))
        value = kernel_h(j, 200, POLICY)
        assert abs(value - limit) <= mp.mpf(2) ** (-100) * abs(limit)


@pytest.mark.parametrize("s", ["0.5", 1, 2, 5])
def test_h4_closed_form_matches_coefficient_series_with_exact_tail(s):
    # 30 (e^s - 1)^5 h''''(s) = sum_{k=7}^{60} c_k s^k + tail,
    # 0 < tail <= 2 sum_{k>=61} (5s)^k / k! <= 2 (5s)^61/61! / (1 - 5s/62)
    K = 60
    with mp.workprec(300):
        sv = mp.mpf(s)
        lhs = 30 * (mp.exp(sv) - 1) ** 5 * kernel_h(4, s, POLICY)
        partial = mp.mpf(0)
        for k in range(7, K + 1):
            c = h4_series_coefficient(k)
            partial += mp.mpf(c.numerator) / c.denominator * sv**k
        x = 5 * sv
        tail_bound = 2 * x ** (K + 1) / factorial(K + 1) / (1 - x / (K + 2))
        assert 0 < lhs - partial < tail_bound


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_boundary_limits_vanish(j):
    assert abs(kernel_h(j, "1e-4", POLICY)) < mp.mpf("1e-8")


def test_fourth_derivative_small_s_leading_term():
    # h''''(s) ~ B_6 s^2 / 2 = s^2/84 as s -> 0
    with mp.workprec(200):
        value = kernel_h(4, "1e-4", POLICY)
        lead = mp.mpf("1e-8") / 84
        assert abs(value - lead) < mp.mpf("1e-14")


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_positive_on_log_grid(j):
    with mp.workprec(200):
        points = [mp.mpf("0.01") * (5000 ** (i / 19)) for i in range(20)]
        for s in points:
            assert kernel_h(j, s, POLICY) > 0


@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("s", ["0.15", "0.7", 3])
def test_derivative_chain_finite_difference(j, s):
    wb = POLICY.working_bits
    h = Fraction(1, 2 ** (wb // 3))
    fine = PrecisionPolicy(working_bits=2 * wb)
    with mp.workprec(3 * wb):
        hv = mp.mpf(h.numerator) / h.denominator
        plus = kernel_h(j, mp.mpf(s) + hv, fine)
        minus = kernel_h(j, mp.mpf(s) - hv, fine)
        fd = (plus - minus) / (2 * hv)
        exact = kernel_h(j + 1, s, POLICY)
        assert abs(fd - exact) < mp.mpf(2) ** (-(wb // 4)) * (1 + abs(exact))


def test_kernel_argument_validation():
    with pytest.raises(InvalidIndex):
        kernel_h(5, 1, POLICY)
    with pytest.raises(InvalidIndex):
        kernel_h(-1, 1, POLICY)
    with pytest.raises(NonPositiveArgument):
        kernel_h(0, -1, POLICY)
    assert kernel_h(0, 0, POLICY) == 0


@pytest.mark.parametrize("bits", [128, 256])
def test_tail_envelope_holds_on_log_grid(bits):
    # _tail_bound cuts the Laplace integral at A using 0 <= h(s) <= 2 s^4
    # for s >= 1; h(s) approaches s^4/720 from below as s grows
    policy = PrecisionPolicy(working_bits=bits)
    with mp.workprec(2 * bits):
        for i in range(41):
            s = mp.mpf(10) ** (mp.mpf(i) / 10)
            value = kernel_h(0, s, policy)
            assert 0 <= value <= 2 * s**4


def test_laplace_reconstruction_matches_q():
    with mp.workprec(200):
        diff = abs(laplace_reconstruct(1, POLICY) - q_value(1, POLICY))
        assert diff < mp.mpf("1e-20")


def test_laplace_decreases_with_t():
    assert laplace_reconstruct(10, POLICY) > laplace_reconstruct(20, POLICY) > 0


def test_laplace_rejects_nonpositive_t():
    with pytest.raises(NonPositiveArgument):
        laplace_reconstruct(0, POLICY)


def test_quadrature_stall_raises(monkeypatch):
    monkeypatch.setattr(kernel_module, "QUAD_MAX_LEVEL", 3)
    with pytest.raises(QuadratureNotConverged):
        laplace_reconstruct(1, POLICY, tolerance=1e-60)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": 0.0},
        {"tolerance": -1e-10},
        pytest.param({"tolerance": float("inf")}, id="inf"),
    ],
)
def test_quadrature_params_validation(kwargs):
    with pytest.raises(InvalidSpec):
        laplace_reconstruct(1, POLICY, **kwargs)


def test_determinism():
    a = laplace_reconstruct(5, POLICY)
    b = laplace_reconstruct(5, POLICY)
    assert a == b
    assert kernel_h(2, "0.3", POLICY) == kernel_h(2, "0.3", POLICY)


def test_node_memo_is_clearable_and_exact():
    # the tanh-sinh nodes are an lru_cache: a hit is the tuple a cold call
    # builds, and laplace_reconstruct gives the same bits warm and cold
    warm_value = laplace_reconstruct(5, POLICY)
    warm_nodes = kernel_module._ts_nodes(5, 200)
    kernel_module._ts_nodes.cache_clear()
    assert kernel_module._ts_nodes.cache_info().currsize == 0
    cold_nodes = kernel_module._ts_nodes(5, 200)
    assert isinstance(cold_nodes, tuple)
    assert cold_nodes == warm_nodes
    kernel_module._ts_nodes.cache_clear()
    assert laplace_reconstruct(5, POLICY) == warm_value


@pytest.mark.parametrize("level", [3, 6, 12])
@pytest.mark.parametrize("prec", [64, 208, 400])
def test_no_node_lands_on_a_panel_end(level, prec):
    # a node whose abscissa rounds to 1 would evaluate f at a or b
    nodes = kernel_module._ts_nodes(level, prec)
    assert all(x < 1 for x, _ in nodes)
    assert nodes[0][0] == 0


@pytest.mark.parametrize("prec", [144, 224, 400])
def test_each_level_doubles_the_previous_nodes(prec):
    # _ts_panel's reuse rule: level L+1 has 2N - 1 or 2N nodes for level
    # L's N, so every even node has a value one level down
    for level in range(4, 13):
        n = len(kernel_module._ts_nodes(level - 1, prec))
        assert len(kernel_module._ts_nodes(level, prec)) in (2 * n - 1, 2 * n), level


def _reference_panel(f, a, b, tol, max_level, prec):
    """tanh-sinh over [a, b] re-evaluating every node at every level --
    the reference for the nested-level reuse in ``_ts_panel``.  Returns
    the value and the level it converged at."""
    with mp.workprec(prec):
        c = (a + b) / 2
        d = (b - a) / 2
        previous = None
        for level in range(3, max_level + 1):
            total = mp.mpf(0)
            for j, (x, w) in enumerate(kernel_module._ts_nodes(level, prec)):
                if j == 0:
                    total += w * f(c)
                else:
                    total += w * (f(c + d * x) + f(c - d * x))
            value = total * mp.mpf(2) ** (-level) * d
            if previous is not None and abs(value - previous) <= tol:
                return value, level
            previous = value
    raise AssertionError("reference quadrature did not converge")


@pytest.mark.parametrize(
    "a, b, t, bits, tol",
    [
        (0, 4, "0.3", 128, "1e-24"),
        (4, 8, "2", 64, "1e-24"),
        (36, 40, "1.5", 256, "1e-40"),
        (0, 4, "40", 128, "1e-62"),
    ],
)
def test_panel_reuses_each_abscissa_exactly(monkeypatch, a, b, t, bits, tol):
    # [a, b] is panel k = a/4; on a cold memo h runs once per abscissa of
    # the converged level, and the value is the re-evaluating reference's
    k = a // kernel_module.QUAD_PANEL_WIDTH
    assert (k + 1) * kernel_module.QUAD_PANEL_WIDTH == b
    policy = PrecisionPolicy(working_bits=bits)
    prec = policy.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    with mp.workprec(prec):
        tv = mp.mpf(t)
        tolv = mp.mpf(tol)

    def f(s):
        return kernel_h(0, s, policy) * mp.exp(-tv * s)

    abscissas = []

    def counted(j, s, p=None):
        abscissas.append(s)
        return kernel_h(j, s, p)

    kernel_module._panel_kernel.cache_clear()
    monkeypatch.setattr(kernel_module, "kernel_h", counted)
    value = kernel_module._ts_panel(tv, k, tolv, 12, prec, policy)
    monkeypatch.undo()
    a, b = mp.mpf(a), mp.mpf(b)
    expected, level = _reference_panel(f, a, b, tolv, 12, prec)
    assert (value.man, value.exp) == (expected.man, expected.exp)
    assert len(abscissas) == 2 * len(kernel_module._ts_nodes(level, prec)) - 1
    # c + d x may round to b when x is within an ulp of 1; h is finite there
    assert all(a < s <= b for s in abscissas)


def _cold_memos():
    kernel_module._panel_kernel.cache_clear()
    kernel_module._ts_nodes.cache_clear()


@pytest.mark.parametrize("order", [(1, 5, "17.6"), ("17.6", 5, 1)])
def test_shared_kernel_memo_gives_cold_bits(order):
    # the h memo is shared across t: a value read after other t filled it
    # is the value a cold process computes
    cold = {}
    for t in order:
        _cold_memos()
        value = laplace_reconstruct(t, POLICY)
        cold[t] = (value.man, value.exp)
    _cold_memos()
    for t in order:
        value = laplace_reconstruct(t, POLICY)
        assert (value.man, value.exp) == cold[t], t


def test_kernel_runs_once_per_abscissa_across_t(monkeypatch):
    # twelve t, one per twelfth of log t over [1, 20] (the shape of the
    # laplace benchmark job): every abscissa's h is computed exactly once
    seen = []

    def counted(j, s, p=None):
        seen.append((s.man, s.exp))
        return kernel_h(j, s, p)

    _cold_memos()
    monkeypatch.setattr(kernel_module, "kernel_h", counted)
    for i in range(12):
        laplace_reconstruct(mp.mpf(20) ** ((i + mp.mpf(1) / 2) / 12), POLICY)
    assert len(seen) == len(set(seen)) > 2000
    info = kernel_module._panel_kernel.cache_info()
    assert info.currsize == info.misses  # nothing was evicted


def test_warm_call_below_t_0_3_misses_nothing():
    # at t = 0.3 one call needs more than 128 (panel, level) entries, walked
    # in the same order every call: a warm call must still hit every one
    _cold_memos()
    cold = laplace_reconstruct("0.3", POLICY)
    filled = kernel_module._panel_kernel.cache_info()
    assert filled.currsize == filled.misses > 128
    warm = laplace_reconstruct("0.3", POLICY)
    info = kernel_module._panel_kernel.cache_info()
    assert info.misses == filled.misses
    assert info.hits - filled.hits == filled.currsize
    assert (warm.man, warm.exp) == (cold.man, cold.exp)


@pytest.mark.parametrize("t", ["0.5", 1, "1.13", 5, "17.6", 40])
def test_panels_are_whole_and_the_tail_still_fits(monkeypatch, t):
    # A is rounded up to whole panels: panels k = 0 .. n-1 with one shared
    # per-panel tolerance, and the tail beyond 4n stays below tol/2
    tolerance = 1e-22
    calls = []
    real = kernel_module._ts_panel

    def spy(tv, k, tol, max_level, prec, policy):
        calls.append((k, tol))
        return real(tv, k, tol, max_level, prec, policy)

    monkeypatch.setattr(kernel_module, "_ts_panel", spy)
    laplace_reconstruct(t, POLICY, tolerance)
    n = len(calls)
    assert [k for k, _ in calls] == list(range(n))
    with mp.workprec(200):
        tol = mp.mpf(tolerance)
        assert len({panel_tol for _, panel_tol in calls}) == 1
        assert abs(calls[0][1] - (tol / 2) / (n + 1)) <= tol * mp.mpf(2) ** -150
        assert kernel_module._tail_bound(mp.mpf(4 * n), mp.mpf(t)) <= tol / 2
