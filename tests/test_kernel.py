"""Laplace kernel h and its derivatives: exact coefficients, series/closed
consistency, boundary limits, positivity, and the integral reconstruction."""

import hashlib
import importlib
import time
from fractions import Fraction
from functools import lru_cache
from itertools import count
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


@pytest.mark.parametrize("k", [6, 0, -3, 2.5, "7", True])
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
    for k_max in (6, True, 7.5):
        with pytest.raises(InvalidIndex):
            h4_positivity_scan(k_max)


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
    for j in (5, -1, True, 1.5, "2"):
        with pytest.raises(InvalidIndex):
            kernel_h(j, 1, POLICY)
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
    for t in (0, -1, "-1e-300"):
        with pytest.raises(NonPositiveArgument):
            laplace_reconstruct(t, POLICY)


def test_laplace_refuses_more_panels_than_the_cap_at_once():
    start = time.perf_counter()
    with pytest.raises(QuadratureNotConverged, match="QUAD_MAX_PANELS"):
        laplace_reconstruct(1e-300, POLICY)
    assert time.perf_counter() - start < 1


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
    # the tanh-sinh nodes and their exponentials are lru_caches: a hit is
    # the tuple a cold call builds, and laplace_reconstruct gives the same
    # bits warm and cold
    warm_value = laplace_reconstruct(5, POLICY)
    warm_nodes = kernel_module._ts_nodes(5, 200)
    t5 = mp.mpf(5)._mpf_
    warm_exponentials = kernel_module._node_exponentials(5, t5, 200)
    kernel_module._ts_nodes.cache_clear()
    kernel_module._node_exponentials.cache_clear()
    assert kernel_module._ts_nodes.cache_info().currsize == 0
    assert kernel_module._node_exponentials.cache_info().currsize == 0
    cold_nodes = kernel_module._ts_nodes(5, 200)
    assert isinstance(cold_nodes, tuple)
    assert cold_nodes == warm_nodes
    assert kernel_module._node_exponentials(5, t5, 200) == warm_exponentials
    kernel_module._ts_nodes.cache_clear()
    kernel_module._node_exponentials.cache_clear()
    assert laplace_reconstruct(5, POLICY) == warm_value


@pytest.mark.parametrize("level", [3, 6, 12])
@pytest.mark.parametrize("prec", [64, 208, 400])
def test_every_abscissa_is_below_one(level, prec):
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


def _direct_nodes(level, prec):
    """Every tanh-sinh node of ``level`` evaluated directly, as
    ``_ts_nodes`` did before it reused the level below."""
    with mp.workprec(prec):
        nodes = []
        for j in count():
            u = j * mp.mpf(2) ** (-level)
            sh = mp.sinh(u)
            x = mp.tanh((mp.pi / 2) * sh)
            if x == 1:
                return tuple(nodes)
            nodes.append((x, (mp.pi / 2) * mp.cosh(u) / mp.cosh((mp.pi / 2) * sh) ** 2))


@pytest.mark.parametrize("prec", [144, 224, 400])
def test_even_nodes_are_the_level_below(prec):
    # node 2i of level L is node i of level L - 1, u = 2i 2^-L = i 2^-(L-1)
    # exactly, and the built levels are the directly evaluated ones
    for level in range(4, 13):
        nodes = kernel_module._ts_nodes(level, prec)
        assert nodes[::2] == kernel_module._ts_nodes(level - 1, prec), level
    for level in (3, 4, 7):
        assert kernel_module._ts_nodes(level, prec) == _direct_nodes(level, prec), level


def test_cold_level_builds_only_its_odd_nodes(monkeypatch):
    # a cold level-5 build evaluates level 3 and the odd nodes of levels 4
    # and 5, each up to the first abscissa that rounds to 1: 148 sinh calls
    # at 208 bits, where building the three levels whole takes 258
    calls = []
    sinh = kernel_module.mp.sinh

    def counted(u):
        calls.append(u)
        return sinh(u)

    kernel_module._ts_nodes.cache_clear()
    monkeypatch.setattr(kernel_module.mp, "sinh", counted)
    kernel_module._ts_nodes(5, 208)
    monkeypatch.undo()
    whole = sum(len(kernel_module._ts_nodes(level, 208)) + 1 for level in (3, 4, 5))
    assert (len(calls), whole) == (148, 258)
    kernel_module._ts_nodes.cache_clear()


def _fraction(x):
    """An mpf as an exact Fraction."""
    man, exp = x.man_exp
    return man * Fraction(2) ** exp


def _dot(pairs):
    """sum of a b over pairs of Fractions, exactly: every denominator here
    is a power of two, so each divides the largest, and the sum is reduced
    once."""
    den = max(a.denominator * b.denominator for a, b in pairs)
    num = sum(a.numerator * b.numerator * (den // (a.denominator * b.denominator)) for a, b in pairs)
    return Fraction(num, den)


def _rounded(total, prec):
    """A Fraction rounded once to nearest at prec bits."""
    rnd = mp.libmp.round_nearest
    return mp.make_mpf(mp.libmp.from_rational(total.numerator, total.denominator, prec, rnd))


@lru_cache(maxsize=None)
def _exact_weights(tv, x, w, prec):
    """w E and w/E as exact Fractions, with E = e^(-tv d x) and 1/E
    rounded at prec as ``_node_exponentials`` rounds them."""
    with mp.workprec(prec):
        e = mp.exp(-tv * (mp.mpf(kernel_module.QUAD_PANEL_WIDTH) / 2) * x)
        return _fraction(w) * _fraction(e), _fraction(w) * _fraction(1 / e)


def _reference_panel(h, tv, a, b, tol, max_level, prec):
    """tanh-sinh of h(s) e^(-tv s) over [a, b] in ``_ts_panel``'s factored
    form, h(c + d x) E + h(c - d x)/E with E = e^(-tv d x) and each level's
    sum scaled by e^(-tv c) d, but evaluating h at every node of every
    level and summing each level's rounded w, E, 1/E and h exactly as
    Fractions, rounded once -- the reference for the nested-level reuse,
    the shared exponentials and the integer sums.  Returns the value and
    the level it converged at."""
    with mp.workprec(prec):
        c = (a + b) / 2
        d = (b - a) / 2
        scale = mp.exp(-tv * c) * d
        previous = None
        for level in range(3, max_level + 1):
            (_, w0), *nodes = kernel_module._ts_nodes(level, prec)
            terms = [(_fraction(w0), _fraction(h(c)))]
            for x, w in nodes:
                we, wb = _exact_weights(tv, x, w, prec)
                terms += [(we, _fraction(h(c + d * x))), (wb, _fraction(h(c - d * x)))]
            value = _rounded(_dot(terms), prec) * scale * mp.mpf(2) ** (-level)
            if previous is not None and abs(value - previous) <= tol:
                return value, level
            previous = value
    raise AssertionError("reference quadrature did not converge")


def _direct_panel(f, a, b, tol, max_level, prec):
    """tanh-sinh of f over [a, b] with f(s) = h(s) e^(-t s) formed at each
    node, re-evaluating every node at every level -- the unfactored
    reference for ``_ts_panel``'s shared exponentials.  Returns the value
    and the level it converged at."""
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
    raise AssertionError("direct quadrature did not converge")


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

    abscissas = []

    def counted(j, s, p=None):
        abscissas.append(s)
        return kernel_h(j, s, p)

    kernel_module._panel_kernel.cache_clear()
    kernel_module._node_exponentials.cache_clear()
    monkeypatch.setattr(kernel_module, "kernel_h", counted)
    value = kernel_module._ts_panel(tv, k, tolv, 12, prec, policy)
    monkeypatch.undo()
    a, b = mp.mpf(a), mp.mpf(b)
    expected, level = _reference_panel(lambda s: kernel_h(0, s, policy), tv, a, b, tolv, 12, prec)
    assert (value.man, value.exp) == (expected.man, expected.exp)
    assert len(abscissas) == 2 * len(kernel_module._ts_nodes(level, prec)) - 1
    # c + d x may round to b when x is within an ulp of 1; h is finite there
    assert all(a < s <= b for s in abscissas)


def test_panel_sum_spans_the_maclaurin_tail_exactly():
    # panel 0 at t = 0.3: the outermost h values come from the Maclaurin
    # branch near 1e-400, the widest alignment of any panel, and the exact
    # sum still rounds to the bits of the Fraction reference
    prec = POLICY.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    with mp.workprec(prec):
        tv, tol = mp.mpf("0.3"), mp.mpf("1e-40")
    value = kernel_module._ts_panel(tv, 0, tol, 12, prec, POLICY)
    h = lru_cache(maxsize=None)(lambda s: kernel_h(0, s, POLICY))
    expected, level = _reference_panel(h, tv, mp.mpf(0), mp.mpf(4), tol, 12, prec)
    assert value._mpf_ == expected._mpf_
    hs, exp = kernel_module._panel_kernel(0, level, prec, POLICY)
    assert mp.mpf(min(hs)) * mp.mpf(2) ** exp < mp.mpf("1e-400")


def test_sums_are_exact_up_to_t_80(monkeypatch):
    # _SUM_DEPTH only bounds the integers at large t: at 224 bits no weight
    # and no level sum of a call up to t = 80 loses a bit to its floor
    floored = []

    def spy(pairs, depth=None):
        out = aligned(pairs, depth)
        floored.append(out[1] > min(e for m, e in pairs if m))
        return out

    aligned = kernel_module.aligned
    kernel_module._node_exponentials.cache_clear()
    monkeypatch.setattr(kernel_module, "aligned", spy)
    for t in ("0.05", 1, 40, 80):
        laplace_reconstruct(t, POLICY)
    assert len(floored) > 1000 and not any(floored)


@pytest.mark.parametrize("t", [100, 1000])
def test_floored_sums_keep_the_exact_bits(t):
    # at 224 bits _SUM_DEPTH floors the level sums from t = 90 and the
    # weights from t = 400; the floored bits lie far below the rounding, so
    # the panel still has the bits of the unfloored Fraction sum
    prec = POLICY.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    with mp.workprec(prec):
        tv, tol = mp.mpf(t), mp.mpf("1e-60")
    value = kernel_module._ts_panel(tv, 0, tol, 12, prec, POLICY)
    h = lru_cache(maxsize=None)(lambda s: kernel_h(0, s, POLICY))
    expected, _ = _reference_panel(h, tv, mp.mpf(0), mp.mpf(4), tol, 12, prec)
    assert value._mpf_ == expected._mpf_


def test_weights_stay_bounded_at_huge_t():
    # exact weights at t = 1e300 would span about 3e300 bits; floored, each
    # fits in _SUM_DEPTH prec bits and a call takes its usual time
    prec = POLICY.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    value = laplace_reconstruct("1e300", POLICY)
    assert 0 < value < mp.mpf("1e-22")
    with mp.workprec(prec):
        tv = mp.mpf("1e300")
    for level in (3, 4, 5):
        weights, _ = kernel_module._node_exponentials(level, tv._mpf_, prec)
        assert max(w.bit_length() for w in weights) <= kernel_module._SUM_DEPTH * prec


def _cold_memos():
    kernel_module._panel_kernel.cache_clear()
    kernel_module._node_exponentials.cache_clear()
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


def test_kernel_memo_is_bounded(monkeypatch):
    # a call that needs more (panel, level) entries than the memo's bound
    # leaves at most the bound behind; h is a constant here, so the call
    # is cheap, and the memos are cleared of its values afterwards
    bound = kernel_module._panel_kernel.cache_info().maxsize
    monkeypatch.setattr(kernel_module, "kernel_h", lambda j, s, p=None: mp.mpf(1))
    _cold_memos()
    try:
        laplace_reconstruct("0.03", POLICY)
        info = kernel_module._panel_kernel.cache_info()
    finally:
        _cold_memos()
    assert info.misses > bound
    assert info.currsize <= bound


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


# ---------------------------------------------------------------------------
# the raw-tuple closed form against its mpf arithmetic, and the integer
# level sums against exact Fraction sums


def _mpf_horner(coefficients, x):
    """Reference for ``_horner``: mpf arithmetic under the caller's workprec."""
    total = coefficients[0]
    for c in coefficients[1:]:
        total *= x
        if c:
            total += c
    return total


def _mpf_h_closed(j, s, prec):
    """Reference for ``_h_closed``: the same steps in mpf arithmetic."""
    raw = kernel_module._closed_coefficients(j, prec)
    y_j, y_prev, p_j = (tuple(mp.make_mpf(c) for c in cs) for cs in raw)
    with mp.workprec(prec):
        y = 1 / (mp.exp(s) - 1)
        inner = s * _mpf_horner(y_j, y)
        if j:
            inner += _mpf_horner(y_prev, y)
        return y * inner - _mpf_horner(p_j, s)


def _mpf_kernel_h(j, s, policy):
    prec = policy.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    with mp.workprec(prec):
        sv = +mp.mpf(s)
    if sv == 0:
        return mp.mpf(0)
    if sv < mp.mpf(1) / 4:
        return kernel_module._h_series(j, sv, prec)
    return _mpf_h_closed(j, sv, prec)


def _mpf_ts_panel(tv, k, tol, max_level, prec, policy):
    """Reference for ``_ts_panel``: h from the same ``_panel_kernel`` memo,
    but every node of every level weighted with its own exponentials and
    summed exactly as Fractions, each level rounded once."""
    hs = {}  # abscissa x -> exact h values from the memo
    with mp.workprec(prec):
        d = mp.mpf(kernel_module.QUAD_PANEL_WIDTH) / 2
        c = kernel_module.QUAD_PANEL_WIDTH * k + d
        scale = mp.exp(-tv * c) * d
        previous = None
        for level in range(3, max_level + 1):
            nodes = kernel_module._ts_nodes(level, prec)
            values, exp = kernel_module._panel_kernel(k, level, prec, policy)
            fresh = iter([v * Fraction(2) ** exp for v in values])
            if level == 3:
                hs[nodes[0][0]] = next(fresh)
            for x, _ in nodes[1 :: 1 if level == 3 else 2]:
                hs[x] = (next(fresh), next(fresh))
            terms = [(_fraction(nodes[0][1]), hs[nodes[0][0]])]
            for x, w in nodes[1:]:
                (plus, minus), (we, wb) = hs[x], _exact_weights(tv, x, w, prec)
                terms += [(we, plus), (wb, minus)]
            value = _rounded(_dot(terms), prec) * scale * mp.mpf(2) ** (-level)
            if previous is not None and abs(value - previous) <= tol:
                return value
            previous = value
    raise AssertionError("reference quadrature did not converge")


def _mpf_panel_kernel(k, level, prec, policy):
    """Reference for ``_panel_kernel``: mpf abscissas, mpf closed form."""
    with mp.workprec(prec):
        d = mp.mpf(kernel_module.QUAD_PANEL_WIDTH) / 2
        c = kernel_module.QUAD_PANEL_WIDTH * k + d
        abscissas = [c] if level == 3 else []
        for x, _ in kernel_module._ts_nodes(level, prec)[1 :: 1 if level == 3 else 2]:
            abscissas += [c + d * x, c - d * x]
    return tuple(_mpf_kernel_h(0, s, policy)._mpf_ for s in abscissas)


RAW_KERNEL_S = ("0.0625", "0.2", "0.25", "0.3", 1, "7.5", 40)
RAW_KERNEL_BITS = (64, 128, 256, 512)
# the twelve t of the laplace benchmark's shape, then small, mid and large t
RAW_LAPLACE_T = [mp.mpf(20) ** ((i + mp.mpf(1) / 2) / 12) for i in range(12)]
RAW_LAPLACE_T += ["0.05", "0.3", 40]
RAW_LAPLACE_CASES = ((128, 1e-22), (256, 1e-30))


def _kernel_cases():
    for bits in RAW_KERNEL_BITS:
        for j in range(5):
            for s in RAW_KERNEL_S:
                yield j, s, PrecisionPolicy(bits)


def _laplace_cases():
    for bits, tolerance in RAW_LAPLACE_CASES:
        for t in RAW_LAPLACE_T:
            yield t, PrecisionPolicy(bits), tolerance


@lru_cache(maxsize=1)
def _raw_laplace_values():
    """The laplace values of ``_laplace_cases``, shared by the two tests
    below: each costs seconds at t = 0.05."""
    return tuple(laplace_reconstruct(t, p, tol)._mpf_ for t, p, tol in _laplace_cases())


def test_raw_kernel_h_matches_mpf_reference():
    # every step of the raw closed form is the libmp call mpf arithmetic
    # makes, so each value has the reference's sign, mantissa and exponent
    for j, s, policy in _kernel_cases():
        assert kernel_h(j, s, policy)._mpf_ == _mpf_kernel_h(j, s, policy)._mpf_, (j, s, policy)


def test_raw_laplace_matches_mpf_reference(monkeypatch):
    # the integer level sums against exact Fraction sums, and the h memo's first levels
    # on the first panels against mpf abscissas and the mpf closed form,
    # with no tolerance
    values = _raw_laplace_values()
    for bits, _ in RAW_LAPLACE_CASES:
        policy = PrecisionPolicy(bits)
        prec = policy.internal_bits(kernel_module._KERNEL_GUARD_BITS)
        for key in [(k, level, prec, policy) for k in (0, 1) for level in (3, 4, 5)]:
            hs, exp = kernel_module._panel_kernel(*key)
            raw = tuple(mp.libmp.from_man_exp(h, exp) for h in hs)
            assert raw == _mpf_panel_kernel(*key), key
    monkeypatch.setattr(kernel_module, "_ts_panel", _mpf_ts_panel)
    for value, (t, policy, tol) in zip(values, _laplace_cases()):
        assert value == laplace_reconstruct(t, policy, tol)._mpf_, (t, policy, tol)


def _bits_digest(values):
    """sha256 of the (sign, man, exp) of raw values, in order."""
    digest = hashlib.sha256()
    for sign, man, exp, _ in values:
        digest.update(f"{sign}:{man}p{exp};".encode())
    return digest.hexdigest()


def test_kernel_h_golden_bits():
    # pins the (sign, man, exp) of every kernel_h value of the raw
    # closed-form test above: the bits of the mpf closed form, which the
    # raw closed form and the shared node exponentials leave unchanged
    values = [kernel_h(j, s, p)._mpf_ for j, s, p in _kernel_cases()]
    assert _bits_digest(values) == (
        "1fad3e8038e9f9ff0a7a36055c40889f6aeac4c36438580603dd7041599a6090"
    )


def test_laplace_golden_bits():
    # pins every laplace_reconstruct value of the raw node-loop test above;
    # recorded with each level summed exactly as integers and rounded once
    assert _bits_digest(_raw_laplace_values()) == (
        "32f86a6e0c823223e6d9425ca81e83160411a59b9e4c49dd83bb1265bf0daf9a"
    )


@pytest.mark.parametrize("bits, tolerance", RAW_LAPLACE_CASES)
@pytest.mark.parametrize("t", ["0.05", 1, 40])
@pytest.mark.parametrize("k", [0, 1, 9])
def test_factored_panel_matches_direct_exponentials(k, t, bits, tolerance):
    # e^(-t c) E_j^(+-1) against e^(-t s) formed at each node: every term is
    # positive, so each panel agrees within a relative 2^(16 - prec)
    policy = PrecisionPolicy(bits)
    prec = max(
        policy.internal_bits(kernel_module._KERNEL_GUARD_BITS),
        int(-mp.log(mp.mpf(tolerance), 2)) + 80,
    )
    with mp.workprec(prec):
        tv = mp.mpf(t)
        tol = mp.mpf(tolerance) / 64
    width = kernel_module.QUAD_PANEL_WIDTH
    value = kernel_module._ts_panel(tv, k, tol, 12, prec, policy)

    def f(s):
        return kernel_h(0, s, policy) * mp.exp(-tv * s)

    direct, _ = _direct_panel(f, mp.mpf(width * k), mp.mpf(width * (k + 1)), tol, 12, prec)
    with mp.workprec(2 * prec):
        assert value > 0
        assert abs(value - direct) <= value * mp.mpf(2) ** (16 - prec), (k, t, bits)


def _counted_call(monkeypatch, t):
    """laplace_reconstruct(t) with its mpf_exp calls counted; returns the
    value, the count, and (nodes new up to the deepest level) + panels."""
    levels = {}
    calls = []
    panel_kernel, exp = kernel_module._panel_kernel, kernel_module.libmp.mpf_exp

    def spy(k, level, prec, policy):
        levels[k] = max(level, levels.get(k, 0))
        return panel_kernel(k, level, prec, policy)

    def counted(*args):
        calls.append(args)
        return exp(*args)

    monkeypatch.setattr(kernel_module, "_panel_kernel", spy)
    monkeypatch.setattr(kernel_module.libmp, "mpf_exp", counted)
    value = laplace_reconstruct(t, POLICY)
    monkeypatch.undo()
    prec = POLICY.internal_bits(kernel_module._KERNEL_GUARD_BITS)
    nodes = len(kernel_module._ts_nodes(max(levels.values()), prec))
    return value, len(calls), nodes + len(levels)


def test_one_exponential_per_node_and_per_panel(monkeypatch):
    # with h warm, a call at t = 0.3 (the most panels of the fast cases)
    # forms e^(-t d x_j) once per node and e^(-t c) once per panel, where
    # the loop before formed two per node on every panel; a call at a new t
    # builds its own table and gives the bits of a cold process
    for t in ("0.3", "0.7"):
        laplace_reconstruct(t, POLICY)
    kernel_module._node_exponentials.cache_clear()
    _, count, bound = _counted_call(monkeypatch, "0.3")
    assert 0 < count <= bound
    misses = kernel_module._node_exponentials.cache_info().misses
    warm, count, bound = _counted_call(monkeypatch, "0.7")
    assert kernel_module._node_exponentials.cache_info().misses > misses
    assert 0 < count <= bound
    _cold_memos()
    assert laplace_reconstruct("0.7", POLICY)._mpf_ == warm._mpf_
