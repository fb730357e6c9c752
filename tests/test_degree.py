"""Sign scans over grids, bracket assembly below the pole order, and the
family-wide conjecture scan.

Oracle notes: signed derivatives are cross-checked against mpmath's numeric
differentiation of t^r * q_value(t), which shares no code with the
phi_derivatives path.  The pole order that caps every bracket is checked
against -t phi'/phi at t = 2^-200; the refutation test for phi(0,3) rests
on the series t^3 phi(0,3) = 1 - t + 2 zeta(3) t^3 - 6 zeta(4) t^4 + ...
near t = 0, whose order-3 signed derivative tends to -12 zeta(3) < 0.
"""

import dataclasses
import importlib
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

degree_module = importlib.import_module("cmdeg.degree")
polygamma_module = importlib.import_module("cmdeg.polygamma")

from cmdeg import (
    PHI_M_MAX,
    PHI_N_MAX,
    CmdegError,
    Grid,
    InvalidIndex,
    InvalidSpec,
    PrecisionPolicy,
    RemainderSpec,
    as_mpf,
    classify_sign,
    cm_check,
    conjecture_scan,
    conjectured_degree,
    default_grid,
    degree_bracket,
    established_degree,
    phi_derivatives,
    pole_order,
    q_value,
    signed_derivative,
)

POLICY = PrecisionPolicy(working_bits=128)

Q = RemainderSpec(special="Q")
PSIGAP = RemainderSpec(special="PsiGap")
TRIGAP = RemainderSpec(special="TrigammaGap3")
PHI00 = RemainderSpec(n=0, m=0)
PHI03 = RemainderSpec(n=0, m=3)

GRID60 = Grid(Fraction(1, 1000), Fraction(10000), 60)
SMALL_GRID = Grid(Fraction(1, 100), Fraction(100), 30)
TINY_GRID = Grid(Fraction(1, 10), Fraction(100), 12)


def _assert_report_integrity(rep):
    assert rep.verdict in ("pass", "violation", "inconclusive")
    assert (rep.verdict == "violation") == bool(rep.violations)
    if not rep.violations:
        assert (rep.verdict == "inconclusive") == bool(rep.inconclusive)
    keys = [(float(t), k) for t, k, _ in rep.values]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# grids


def test_grid_parse_round_trip():
    g = Grid.parse("log:1e-3:1e4:200")
    assert g == default_grid()
    assert g == Grid(Fraction(1, 1000), Fraction(10000), 200)


def test_log_values_are_geometric():
    g = Grid(Fraction(1, 100), Fraction(100), 9)
    vals = g.values(128)
    assert len(vals) == 9
    with mp.workprec(160):
        target = mp.power(10, mp.mpf(1) / 2)
        for a, b in zip(vals, vals[1:]):
            assert abs(b / a / target - 1) < mp.mpf(2) ** -100
        assert abs(vals[0] / mp.mpf("0.01") - 1) < mp.mpf(2) ** -120
        assert abs(vals[-1] / 100 - 1) < mp.mpf(2) ** -120


def test_linear_values_are_exact():
    g = Grid(Fraction(1), Fraction(2), 5, "linear")
    assert g.values(64) == [mp.mpf(x) for x in ("1", "1.25", "1.5", "1.75", "2")]


def test_single_point_grid():
    g = Grid(Fraction(3, 7), Fraction(5), 1)
    vals = g.values(96)
    assert len(vals) == 1
    with mp.workprec(160):
        assert abs(vals[0] - mp.mpf(3) / 7) < mp.mpf(2) ** -90


def test_grid_values_deterministic_across_instances():
    a = Grid(Fraction(1, 1000), Fraction(10000), 40).values(128)
    b = Grid(Fraction(1, 1000), Fraction(10000), 40).values(128)
    assert a == b


@given(
    num=st.integers(min_value=1, max_value=1000),
    span=st.integers(min_value=2, max_value=100000),
    pts=st.integers(min_value=2, max_value=40),
    spacing=st.sampled_from(["log", "linear"]),
)
@settings(deadline=None, max_examples=40)
def test_grid_values_strictly_increasing(num, span, pts, spacing):
    lo = Fraction(num, 997)
    g = Grid(lo, lo * (1 + Fraction(span, 7)), pts, spacing)
    vals = g.values(96)
    assert len(vals) == pts
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "kwargs, exc",
    [
        (dict(t_min=Fraction(0), t_max=Fraction(1), points=5), InvalidSpec),
        (dict(t_min=Fraction(-1), t_max=Fraction(1), points=5), InvalidSpec),
        (dict(t_min=Fraction(2), t_max=Fraction(1), points=5), InvalidSpec),
        (dict(t_min=Fraction(1), t_max=Fraction(2), points=0), InvalidIndex),
        (dict(t_min=Fraction(1), t_max=Fraction(2), points=5, spacing="geometric"), InvalidSpec),
    ],
)
def test_grid_validation(kwargs, exc):
    with pytest.raises(exc):
        Grid(**kwargs)


@pytest.mark.parametrize(
    "text", ["log:1e-3:1e4", "log:a:1e4:5", "log:1:2:many", "cubic:1:2:3", "log:1:0:5", ""]
)
def test_grid_parse_rejects_malformed_text(text):
    with pytest.raises(InvalidSpec):
        Grid.parse(text)


# ---------------------------------------------------------------------------
# signed derivatives and sign classification


@pytest.mark.parametrize("r", ["0", "4", "9/2"])
def test_order_zero_is_the_scaled_member(r):
    rv = Fraction(r)
    with mp.workprec(300):
        t = mp.mpf(1) / 3
        phi = phi_derivatives(Q, t, 0, POLICY)[0]
        expected = t ** (mp.mpf(rv.numerator) / rv.denominator) * phi
        got = signed_derivative(Q, rv, 0, t, POLICY)
        assert abs(got - expected) < mp.mpf(2) ** -100 * (1 + abs(expected))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_unit_exponent_reduces_to_plain_signed_derivatives(k):
    t = mp.mpf("2.5")
    ders = phi_derivatives(Q, t, k, POLICY)
    got = signed_derivative(Q, 0, k, t, POLICY)
    with mp.workprec(220):  # ambient-precision arithmetic would round the operands
        expected = (-1) ** k * ders[k]
        assert abs(got - expected) <= mp.mpf(2) ** -110 * (1 + abs(expected))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_signed_derivative_matches_numeric_differentiation(k):
    fine = PrecisionPolicy(working_bits=256)
    with mp.workdps(60):
        t0 = mp.mpf(2)

        def scaled(u):
            # mp.diff raises the ambient precision while sampling, so the
            # evaluation policy must follow it for the quotients to converge
            pol = PrecisionPolicy(working_bits=mp.mp.prec + 80)
            return u**3 * q_value(u, pol)

        oracle = (-1) ** k * mp.diff(scaled, t0, n=k)
        ours = signed_derivative(Q, 3, k, t0, fine)
        assert abs(ours - oracle) < mp.mpf("1e-50") * (1 + abs(oracle))


def test_sign_examples():
    assert signed_derivative(Q, "5.5", 1, "0.001", POLICY) < 0
    assert signed_derivative(Q, 4, 1, 1, POLICY) > 0
    assert signed_derivative(Q, 4, 0, "0.001", POLICY) > 0


def test_exponent_accepts_equivalent_forms():
    a = signed_derivative(Q, Fraction(9, 2), 2, 1, POLICY)
    b = signed_derivative(Q, "9/2", 2, 1, POLICY)
    c = signed_derivative(Q, 4.5, 2, 1, POLICY)
    d = signed_derivative(Q, mp.mpf("4.5"), 2, 1, POLICY)
    assert a == b == c == d


def test_exponents_are_read_exactly():
    grid = Grid(Fraction(1), Fraction(2), 2)
    assert cm_check(Q, mp.mpf(4), 1, grid, POLICY) == cm_check(Q, 4, 1, grid, POLICY)
    with mp.workprec(200):
        x = mp.mpf(-1) / 3
        q = degree_module._as_rational(x)
        assert q != Fraction(-1, 3) and abs(q + Fraction(1, 3)) < Fraction(1, 2**200)
        assert mp.mpf(q.numerator) / q.denominator == x
    assert degree_module._as_rational(5 - 2.0**-45) == 5 - Fraction(1, 2**45)
    assert degree_module._as_rational(0.1) == Fraction(3602879701896397, 2**55)
    for bad in (mp.inf, mp.nan, float("inf"), float("nan")):
        with pytest.raises(InvalidSpec):
            degree_module._as_rational(bad)


def _per_term_row(r, max_order, t, ders, bits):
    """Reference for the product-rule row: every (k, j) term built on its
    own, with an exact falling factorial and exp((r - j) ln t)."""
    out = []
    with mp.workprec(bits):
        lnt = mp.log(t)
        for k in range(max_order + 1):
            total = mp.mpf(0)
            scale = mp.mpf(0)
            for j in range(k + 1):
                ff = Fraction(1)
                for i in range(j):
                    ff *= r - i
                if ff == 0:
                    continue
                power = mp.exp((mp.mpf(r.numerator) / r.denominator - j) * lnt)
                term = comb(k, j) * (mp.mpf(ff.numerator) / ff.denominator) * power * ders[k - j]
                total += term
                scale = max(scale, abs(term))
            out.append((-total if k % 2 else total, scale))
    return out


@pytest.mark.parametrize("r", [Fraction(2), Fraction(21, 20), Fraction(61, 20), Fraction(9, 2)])
@pytest.mark.parametrize("t", ["1e-3", 1, 10000])
def test_product_rule_row_matches_per_term_sum(r, t):
    # r = 2 has zero falling factorials from j = 3 on
    tv = as_mpf(t, POLICY.internal_bits())
    ders = phi_derivatives(Q, tv, 12, POLICY)
    row = degree_module._signed_row(r, 12, tv, ders, POLICY)
    ref = _per_term_row(r, 12, tv, ders, 2 * POLICY.working_bits)
    assert len(row) == 13
    with mp.workprec(2 * POLICY.working_bits):
        for (value, scale), (ref_value, ref_scale) in zip(row, ref):
            tol = mp.mpf(2) ** -POLICY.working_bits * ref_scale
            assert abs(value - ref_value) <= tol
            assert abs(scale - ref_scale) <= tol


@pytest.mark.parametrize("k", [-1, 1.5, "2", None])
def test_derivative_order_validation(k):
    with pytest.raises(InvalidIndex):
        signed_derivative(Q, 4, k, 1, POLICY)


def test_classification_bands():
    one = mp.mpf(1)
    assert classify_sign(one, one, POLICY) == "pass"
    assert classify_sign(-one, one, POLICY) == "violation"
    assert classify_sign(mp.mpf(2) ** -80, one, POLICY) == "borderline"
    assert classify_sign(-(mp.mpf(2) ** -80), one, POLICY) == "borderline"
    assert classify_sign(mp.mpf(2) ** -64, one, POLICY) == "borderline"
    assert classify_sign(mp.mpf(2) ** -60, one, POLICY) == "pass"
    assert classify_sign(mp.mpf(0), mp.mpf(0), POLICY) == "borderline"


@given(
    v=st.floats(min_value=-100, max_value=100).filter(lambda x: abs(x) > 1e-6),
    sexp=st.integers(min_value=-10, max_value=10),
    cexp=st.integers(min_value=-40, max_value=40),
)
@settings(deadline=None, max_examples=80)
def test_classification_invariant_under_exact_positive_scaling(v, sexp, cexp):
    value = mp.mpf(v)
    scale = mp.mpf(2) ** sexp
    c = mp.mpf(2) ** cexp  # powers of two scale mpf values exactly
    assert classify_sign(c * value, c * scale, POLICY) == classify_sign(value, scale, POLICY)


# ---------------------------------------------------------------------------
# cm_check scans


def test_q_passes_at_the_conjectured_exponent():
    rep = cm_check(Q, 4, max_order=8, grid=GRID60, policy=POLICY)
    assert rep.verdict == "pass"
    assert rep.violations == () and rep.inconclusive == ()
    assert len(rep.values) == 60 * 9
    assert all(v > 0 for _, _, v in rep.values)
    assert rep.r == Fraction(4)
    assert rep.working_bits == 128
    _assert_report_integrity(rep)


def test_q_violates_just_above_the_upper_degree():
    rep = cm_check(Q, "5.05", max_order=4, grid=SMALL_GRID, policy=POLICY)
    assert rep.verdict == "violation"
    assert rep.r == Fraction(101, 20)
    ks = {k for _, k, _ in rep.violations}
    assert min(ks) == 1
    assert all(v < 0 for _, _, v in rep.violations)
    assert set(rep.violations) <= set(rep.values)
    _assert_report_integrity(rep)


def test_all_borderline_scan_is_inconclusive(monkeypatch):
    precisions = []

    def zeros(spec, t, i_max, pol):
        precisions.append(pol.working_bits)
        return [mp.mpf(0)] * (i_max + 1)

    monkeypatch.setattr(degree_module, "_phi_ders_cached", zeros)
    rep = cm_check(Q, 4, max_order=3, grid=TINY_GRID, policy=POLICY)
    # one doubled-precision rerun per grid point, shared by its four orders
    assert precisions.count(2 * POLICY.working_bits) == 12
    assert rep.verdict == "inconclusive"
    assert rep.violations == ()
    assert len(rep.inconclusive) == 12 * 4
    assert len(rep.values) == 12 * 4
    _assert_report_integrity(rep)


def clear_memos():
    degree_module._phi_ders_cached.cache_clear()
    polygamma_module._block.cache_clear()
    polygamma_module._log_gamma_raw.cache_clear()


def test_scan_reports_are_deterministic():
    clear_memos()
    a = cm_check(Q, 4, max_order=4, grid=SMALL_GRID, policy=POLICY)
    clear_memos()
    b = cm_check(Q, 4, max_order=4, grid=SMALL_GRID, policy=POLICY)
    assert a == b


@pytest.mark.parametrize("c", [Fraction(1), Fraction(7, 3), Fraction(10) ** 6])
def test_verdicts_invariant_under_positive_scaling(c, monkeypatch):
    real = degree_module._phi_ders_cached

    def provider(spec, t, i_max, pol):
        ders = real(spec, t, i_max, pol)
        with mp.workprec(pol.internal_bits(64)):
            cv = as_mpf(c, pol.internal_bits(64))
            return [cv * d for d in ders]

    for r in (4, "5.05"):
        base = cm_check(Q, r, max_order=4, grid=SMALL_GRID, policy=POLICY)
        with monkeypatch.context() as patch:
            patch.setattr(degree_module, "_phi_ders_cached", provider)
            scaled = cm_check(Q, r, max_order=4, grid=SMALL_GRID, policy=POLICY)
        assert scaled.verdict == base.verdict
        assert [(t, k) for t, k, _ in scaled.violations] == [
            (t, k) for t, k, _ in base.violations
        ]
        assert scaled.inconclusive == base.inconclusive


def test_pass_set_is_downward_closed_on_the_lattice():
    for r in range(5):
        assert cm_check(Q, r, max_order=8, grid=GRID60, policy=POLICY).verdict == "pass"
    for r in (5, Fraction(11, 2), 6):
        assert cm_check(Q, r, max_order=8, grid=GRID60, policy=POLICY).verdict == "violation"


@pytest.mark.parametrize("bad", [-1, 2.5, "6", None])
def test_max_order_validation(bad):
    with pytest.raises(InvalidIndex):
        cm_check(Q, 4, max_order=bad, grid=TINY_GRID, policy=POLICY)


# ---------------------------------------------------------------------------
# degree brackets


def test_q_bracket_on_the_integer_lattice():
    br = degree_bracket(Q, 1, max_order=8, grid=GRID60, policy=POLICY)
    assert br.lower == 4
    assert br.scan_violation_r == 5
    assert br.upper_method == "scan_violation"
    assert br.upper == 5 and isinstance(br.upper, mp.mpf)
    assert br.contains(4) and br.contains("9/2") and br.contains(5 - 2.0**-45)
    assert br.contains(mp.mpf(4))
    assert not br.contains(3) and not br.contains(5) and not br.contains(6)
    assert br.lower_evidence.verdict == "pass" and br.lower_evidence.r == 4
    assert br.violation_evidence.verdict == "violation" and br.violation_evidence.r == 5


def test_specials_bracket_their_established_degrees():
    psi = degree_bracket(PSIGAP, Fraction(1, 20), max_order=8, grid=GRID60, policy=POLICY)
    assert psi.lower == 1
    assert psi.upper == 1
    assert psi.upper_method == "small_t_criterion"
    assert psi.scan_violation_r is None and psi.violation_evidence is None
    assert psi.contains(1) and psi.contains(1.0) and psi.contains(mp.mpf(1))
    assert not psi.contains(1 + 1e-13) and not psi.contains(Fraction(19, 20))
    tri = degree_bracket(TRIGAP, Fraction(1, 20), max_order=8, grid=GRID60, policy=POLICY)
    assert tri.lower == 3
    assert tri.upper == 3
    assert tri.upper_method == "small_t_criterion"
    assert tri.scan_violation_r is None and tri.violation_evidence is None
    assert tri.contains(3)
    assert not tri.contains(Fraction(61, 20)) and not tri.contains(Fraction(59, 20))


def test_phi00_brackets_degree_zero():
    br = degree_bracket(PHI00, 1, max_order=8, grid=GRID60, policy=POLICY)
    assert br.lower == 0
    assert br.upper == 0
    assert br.upper_method == "small_t_criterion"
    assert br.scan_violation_r is None
    assert br.contains(0)
    assert not br.contains(Fraction(1, 10**9))


def test_refining_the_lattice_tightens_the_q_bracket():
    br = degree_bracket(Q, Fraction(1, 20), max_order=8, grid=GRID60, policy=POLICY)
    assert br.step == Fraction(1, 20)
    # the bisection passes at 24/5, which is no evidence (t^(19/4) Q is not
    # CM), so the lower end moves down to the integer 4 and its own scan
    assert br.lower == 4
    assert br.lower_evidence.verdict == "pass" and br.lower_evidence.r == 4
    assert br.upper_method == "scan_violation"
    assert br.scan_violation_r == Fraction(97, 20)
    assert br.upper == as_mpf(Fraction(97, 20), POLICY.working_bits)
    assert br.contains(4) and br.contains(Fraction(24, 5))
    assert not br.contains(Fraction(97, 20))
    coarse = degree_bracket(Q, 1, max_order=8, grid=GRID60, policy=POLICY)
    assert coarse.lower == br.lower
    assert br.scan_violation_r < coarse.scan_violation_r


def _synthetic_scans(monkeypatch, passes):
    """Replace cm_check by a member whose scan at r passes when passes(r);
    returns the list of scanned exponents."""
    calls = []

    def fake(spec, r, max_order=12, grid=None, policy=None):
        r = degree_module._as_rational(r)
        calls.append(r)
        return SimpleNamespace(r=r, verdict="pass" if passes(r) else "violation")

    monkeypatch.setattr(degree_module, "cm_check", fake)
    return calls


_QUARTERS = [Fraction(x) for x in ("0", "5", "5/2", "15/4", "17/4", "9/2", "19/4")]


@pytest.mark.parametrize(
    "step, passes, calls, lower",
    [
        (Fraction(1, 4), lambda r: r <= Fraction(19, 4), _QUARTERS + [4], 4),
        (
            Fraction(1, 4),
            lambda r: r <= Fraction(19, 4) and r not in (3, 4),
            _QUARTERS + [4, 3, 2],
            2,
        ),
        (
            Fraction(1, 4),
            lambda r: r == 0 or r <= Fraction(19, 4) and r.denominator > 1,
            _QUARTERS + [4, 3, 2, 1],  # r = 0 is not scanned twice
            0,
        ),
        (1, lambda r: r <= Fraction(17, 4), [0, 5, 2, 3, 4], 4),
    ],
    ids=["floor", "lower-integer", "zero", "integer-lattice-no-extra-scan"],
)
def test_lower_end_is_a_passing_integer(monkeypatch, step, passes, calls, lower):
    scanned = _synthetic_scans(monkeypatch, passes)
    br = degree_bracket(Q, step, max_order=2, grid=TINY_GRID, policy=POLICY)
    assert scanned == calls
    assert br.lower == lower and br.lower.denominator == 1
    assert br.lower_evidence.r == lower and br.lower_evidence.verdict == "pass"
    assert br.scan_violation_r == 5


@pytest.mark.parametrize("n", range(PHI_N_MAX + 1))
@pytest.mark.parametrize("m", range(PHI_M_MAX + 1))
def test_pole_order_is_the_small_t_exponent(n, m):
    """Premise of the upper end: phi > 0 near 0+ and -t phi'/phi tends to
    pole_order, or to 0 through positive values for the log singularity."""
    spec = RemainderSpec(n=n, m=m)
    p = pole_order(spec)
    t = mp.mpf(2) ** -200
    phi0, phi1 = phi_derivatives(spec, t, 1, PrecisionPolicy(working_bits=256))
    assert phi0 > 0
    with mp.workprec(512):
        ratio = -t * phi1 / phi0
        if p > 0:
            assert abs(ratio - p) < mp.mpf(2) ** -60
        else:
            assert 0 < ratio < mp.mpf("0.01")


@pytest.mark.parametrize("step", [0, Fraction(0), 2, Fraction(3, 2), -1, "1.5"])
def test_lattice_step_validation(step):
    with pytest.raises(InvalidSpec):
        degree_bracket(Q, step, max_order=2, grid=TINY_GRID, policy=POLICY)


def test_non_monotone_member_is_an_error(monkeypatch):
    real = degree_module.cm_check

    def fake(spec, r, max_order=12, grid=None, policy=None):
        rep = real(spec, r, max_order, grid, policy)
        if degree_module._as_rational(r) == 0:
            return dataclasses.replace(rep, verdict="violation")
        return rep

    monkeypatch.setattr(degree_module, "cm_check", fake)
    with pytest.raises(CmdegError, match="completely monotonic"):
        degree_bracket(Q, 1, max_order=2, grid=TINY_GRID, policy=POLICY)


# ---------------------------------------------------------------------------
# degree tables and the conjecture scan


@pytest.mark.parametrize(
    "n, m, expected",
    [
        (0, 0, 0),
        (0, 1, 1),
        (0, 2, 2),
        (0, 3, 3),
        (1, 0, 1),
        (1, 1, 2),
        (1, 2, 3),
        (1, 4, 5),
        (2, 0, 2),
        (2, 1, 3),
        (2, 2, 4),
        (2, 3, 5),
        (3, 1, 5),
        (3, 3, 7),
        (4, 2, 8),
        (5, 0, 8),
    ],
)
def test_conjectured_degree_rule(n, m, expected):
    assert conjectured_degree(n, m) == expected


def test_established_degrees_match_the_conjecture_where_proven():
    proven = {
        (0, 0): 0,
        (1, 0): 1,
        (0, 1): 1,
        (1, 1): 2,
        (2, 1): 3,
        (3, 1): 5,
        (0, 2): 2,
        (1, 2): 3,
    }
    for (n, m), value in proven.items():
        assert established_degree(n, m) == value == conjectured_degree(n, m)
    for n, m in [(2, 0), (3, 0), (2, 2), (3, 2), (0, 3), (1, 3), (2, 3), (3, 3), (4, 1)]:
        assert established_degree(n, m) is None


def test_small_scan_contains_all_proven_values():
    rep = conjecture_scan(1, 1, max_order=8, grid=GRID60, policy=POLICY)
    assert (rep.n_max, rep.m_max, rep.max_order) == (1, 1, 8)
    assert rep.step == Fraction(1)
    assert rep.working_bits == 128
    assert [(c.n, c.m) for c in rep.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for cell in rep.cells:
        assert cell.error is None
        assert cell.bracket is not None
        assert cell.contains_conjectured is True
        assert cell.established == cell.conjectured
        assert cell.note == ""


def test_scans_refute_the_cubic_exponent_for_phi_0_3():
    grid = Grid(Fraction(1, 1000), Fraction(1, 10), 15)
    rep = cm_check(PHI03, 3, max_order=6, grid=grid, policy=POLICY)
    assert rep.verdict == "violation"
    assert 3 in {k for _, k, _ in rep.violations}
    t0 = grid.values(POLICY.internal_bits())[0]
    v = next(v for t, k, v in rep.violations if k == 3 and t == t0)
    with mp.workdps(30):
        assert abs(v + 12 * mp.zeta(3)) < mp.mpf("0.2")


def test_scan_reports_refutations_honestly():
    rep = conjecture_scan(0, 3, max_order=8, grid=GRID60, policy=POLICY)
    by = {(c.n, c.m): c for c in rep.cells}
    assert by[(0, 3)].contains_conjectured is False
    assert by[(0, 3)].established is None
    assert by[(0, 3)].bracket.lower == 2
    assert by[(0, 3)].bracket.upper == 3
    assert by[(0, 3)].bracket.upper_method == "scan_violation"
    assert by[(0, 3)].bracket.scan_violation_r == 3
    assert not by[(0, 3)].bracket.contains(3)
    for nm in [(0, 0), (0, 1), (0, 2)]:
        assert by[nm].contains_conjectured is True


def test_per_cell_errors_are_recorded(monkeypatch):
    real = degree_module.degree_bracket

    def flaky(spec, step=Fraction(1), max_order=12, grid=None, policy=None):
        if (spec.n, spec.m) == (0, 1):
            raise CmdegError("synthetic cell failure")
        return real(spec, step, max_order, grid, policy)

    monkeypatch.setattr(degree_module, "degree_bracket", flaky)
    rep = conjecture_scan(0, 1, max_order=4, grid=TINY_GRID, policy=POLICY)
    by = {(c.n, c.m): c for c in rep.cells}
    assert by[(0, 1)].error == "CmdegError: synthetic cell failure"
    assert by[(0, 1)].bracket is None
    assert by[(0, 1)].contains_conjectured is None
    assert by[(0, 0)].error is None
    assert by[(0, 0)].bracket is not None


def test_t_to_the_19_over_4_times_q_is_not_cm():
    # a high-order witness the default scan never reaches: order 100 at
    # t = 16 weights the Laplace kernel near s = 6, where the kernel of
    # t^(19/4) Q dips below zero.  The value is the same to 9 digits at
    # 768 and 1536 bits, so the sign is not a rounding artefact.
    values = [
        signed_derivative(Q, Fraction(19, 4), 100, 16, PrecisionPolicy(working_bits=bits))
        for bits in (768, 1536)
    ]
    assert all(v < 0 for v in values)
    assert [mp.nstr(v, 9) for v in values] == ["-1.37244007e+31"] * 2
