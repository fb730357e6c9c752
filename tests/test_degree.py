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
from itertools import product
from math import comb, factorial
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

cli_module = importlib.import_module("cmdeg.cli")
degree_module = importlib.import_module("cmdeg.degree")
polygamma_module = importlib.import_module("cmdeg.polygamma")
precision_module = importlib.import_module("cmdeg.precision")

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


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_grid_points_are_rounded_to_the_requested_precision(spacing):
    # the points are computed 16 bits higher and rounded back
    values = Grid(Fraction(1, 1000), Fraction(10000), 40, spacing).values(160)
    assert all(v._mpf_[3] <= 160 and as_mpf(v, 160)._mpf_ == v._mpf_ for v in values)


def test_cm_check_gives_phi_and_the_signed_sums_one_t(monkeypatch):
    # phi rounds t to internal_bits; the Taylor row t^i phi^(i) / i! and the
    # reported factors t^(r-k) q^(-k) must see that t
    seen = []
    real_ratios, real_factors = degree_module._ratios, degree_module._factors

    def ratios(tv, length, bits):
        seen.append(tv)
        return real_ratios(tv, length, bits)

    def factors(tv, r, max_order, bits):
        seen.append(tv)
        return real_factors(tv, r, max_order, bits)

    monkeypatch.setattr(degree_module, "_ratios", ratios)
    monkeypatch.setattr(degree_module, "_factors", factors)
    rep = cm_check(Q, Fraction(9, 2), 4, Grid.parse("log:1e-3:1e4:12"), POLICY)
    assert len(seen) >= 12
    assert len(rep.values) == 12 * 5
    assert len(seen) >= 12 + 12 * 5
    assert all(as_mpf(t, POLICY.internal_bits())._mpf_ == t._mpf_ for t in seen)


def test_grid_values_deterministic_across_instances():
    a = Grid(Fraction(1, 1000), Fraction(10000), 40).values(128)
    b = Grid(Fraction(1, 1000), Fraction(10000), 40).values(128)
    assert a == b


@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_grid_points_are_computed_once_per_grid_and_precision(spacing, monkeypatch):
    conversions = []
    real = degree_module.as_mpf

    def counted(x, prec):
        conversions.append(prec)
        return real(x, prec)

    monkeypatch.setattr(degree_module, "as_mpf", counted)
    Grid._points.cache_clear()
    first = Grid(Fraction(1, 7), Fraction(7), 9, spacing).values(96)
    per_grid = len(conversions)  # the two ends at 112 bits, then the 9 points
    assert per_grid == 2 + 9
    assert Grid(Fraction(1, 7), Fraction(7), 9, spacing).values(96) == first
    assert len(conversions) == per_grid
    Grid(Fraction(1, 7), Fraction(7), 9, spacing).values(112)
    assert len(conversions) == 2 * per_grid


def test_mutating_grid_values_leaves_the_next_call_unchanged():
    grid = Grid(Fraction(1, 7), Fraction(7), 9)
    first = grid.values(96)
    expected = list(first)
    first[0] = mp.mpf(-1)
    first.reverse()
    first.append(mp.mpf(0))
    assert grid.values(96) == expected


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
        (dict(t_min=Fraction(1), t_max=Fraction(2), points=2.5), InvalidIndex),
        (dict(t_min=Fraction(1), t_max=Fraction(2), points=True), InvalidIndex),
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


PHI33 = RemainderSpec(n=3, m=3)
DOUBLED = PrecisionPolicy(working_bits=2 * POLICY.working_bits)
ROW_TS = ["1e-3", 1, 10000]
# the twelve Q cases keep the ids "<t>-r<index>"
ROW_CASES = [
    pytest.param(Q, r, t, POLICY, id=f"{t}-r{i}")
    for t in ROW_TS
    for i, r in enumerate([Fraction(2), Fraction(21, 20), Fraction(61, 20), Fraction(9, 2)])
] + [
    pytest.param(spec, r, t, policy, id=f"{name}-{t}")
    for name, spec, r, policy in [
        ("PsiGap-r1.05", PSIGAP, Fraction(21, 20), POLICY),
        ("TrigammaGap3-r3.05", TRIGAP, Fraction(61, 20), POLICY),
        ("phi33-r7", PHI33, Fraction(7), POLICY),
        ("Q-r0", Q, Fraction(0), POLICY),
        ("Q-r3.05-doubled", Q, Fraction(61, 20), DOUBLED),
    ]
    for t in ROW_TS
]


@pytest.mark.parametrize("spec, r, t, policy", ROW_CASES)
def test_product_rule_row_matches_per_term_sum(spec, r, t, policy):
    # r = 2 has zero falling factorials from j = 3 on; r = 0 keeps only j = 0.
    # A row entry times t^(r-k) q^(-k) is the signed derivative of order k.
    tv = as_mpf(t, policy.internal_bits())
    ders = phi_derivatives(spec, tv, 12, policy)
    chain = degree_module._ratios(tv, 13, policy.working_bits)
    exp, row = degree_module._signed_row(r, 12, degree_module._taylor_row(ders, chain, policy))
    ref = _per_term_row(r, 12, tv, ders, 2 * policy.working_bits)
    assert len(row) == 13
    with mp.workprec(2 * policy.working_bits):
        power = mp.exp(mp.mpf(r.numerator) / r.denominator * mp.log(tv))
        for k, ((value, scale), (ref_value, ref_scale)) in enumerate(zip(row, ref)):
            factor = mp.ldexp(power / (r.denominator * tv) ** k, exp)
            value, scale = mp.mpf(value) * factor, mp.mpf(scale) * factor
            tol = mp.mpf(2) ** -policy.working_bits * ref_scale
            assert abs(value - ref_value) <= tol
            assert abs(scale - ref_scale) <= tol


def _per_cell_taylor_row(ders, t, policy):
    """A Taylor row as each cell formed it before the chain t^i / i! was
    shared: from the aligned phi row, rebuilding the chain step by step."""
    libmp, prec = mp.libmp, policy.working_bits + 64
    mantissas, exp = ders
    ratio, row = libmp.fone, []
    for i, m in enumerate(mantissas):
        row.append(libmp.mpf_mul(ratio, libmp.from_man_exp(m, exp), prec, libmp.round_nearest))
        ratio = libmp.mpf_mul(ratio, t._mpf_, prec + 64, libmp.round_nearest)
        ratio = libmp.mpf_div(ratio, libmp.from_int(i + 1), prec + 64, libmp.round_nearest)
    return precision_module.aligned([precision_module.man_exp(v) for v in row])


def test_shared_chain_gives_the_per_cell_taylor_rows_bit_for_bit():
    cases = {(p.values[0], p.values[2], p.values[3]) for p in ROW_CASES}
    cases = [(spec, as_mpf(t, policy.internal_bits()), policy, 12) for spec, t, policy in cases]
    t_q = Grid.parse("log:24:40:3").values(POLICY.internal_bits())[1]  # t ~ 30.98
    assert 30.9 < t_q < 31
    for spec, tv, policy, order in cases + [(Q, t_q, POLICY, 200)]:
        ders = phi_derivatives(spec, tv, order, policy)
        aligned = precision_module.aligned([precision_module.man_exp(d._mpf_) for d in ders])
        want = _per_cell_taylor_row(aligned, tv, policy)
        chain = degree_module._ratios(tv, order + 1, policy.working_bits)
        assert degree_module._taylor_row(ders, chain, policy) == want, (spec, tv, policy)


def test_a_scope_builds_one_chain_per_point_and_policy(monkeypatch):
    chains = []
    real_ratios = degree_module._ratios

    def ratios(tv, length, bits):
        chains.append((tv, bits))
        return real_ratios(tv, length, bits)

    monkeypatch.setattr(degree_module, "_ratios", ratios)
    cells = {(n, m): 12 for n in range(4) for m in range(4)}
    points = RERUN_GRID.values(POLICY.internal_bits())
    scope = degree_module._scope(cells)
    for tv, policy in product(points, (POLICY, DOUBLED)):
        for n, m in cells:
            scope.taylor(RemainderSpec(n=n, m=m), tv, policy)
    pairs = product(points, (POLICY, DOUBLED))
    assert chains == [(tv, policy.working_bits) for tv, policy in pairs]
    # a table scan as well, on more points than the memo of chains holds
    # (1,024): one chain per (t, policy) it evaluates, not one per cell
    evaluations, _ = _count_rows_and_taylor_rows(monkeypatch)
    chains.clear()
    conjecture_scan(1, 1, max_order=4, grid=Grid.parse("log:1e-2:1e2:1100"), policy=POLICY)
    assert len(evaluations) >= 1100
    assert chains == [(tv, policy.working_bits) for tv, policy in evaluations]


def test_a_table_scan_rounds_nothing_until_its_violations_are_read(monkeypatch):
    rounded = []
    real_value, real_factors = degree_module._report_value, degree_module._factors

    def value(*args):
        rounded.append(args)
        return real_value(*args)

    def factors(*args):
        rounded.append(args)
        return real_factors(*args)

    monkeypatch.setattr(degree_module, "_report_value", value)
    monkeypatch.setattr(degree_module, "_factors", factors)
    rep = conjecture_scan(2, 2, max_order=12, grid=RERUN_GRID, policy=POLICY)
    assert rounded == []
    for cell in rep.cells:
        cli_module._bracket_record(cell.bracket, POLICY.working_bits)  # counts its violations
        assert "violations" not in vars(cell.bracket.lower_evidence)
    assert rounded == []
    evidence = next(c.bracket.violation_evidence for c in rep.cells if c.bracket.violation_evidence)
    assert len(evidence.violation_rows) > 0 and "violations" not in vars(evidence)
    assert len(evidence.violations) == len(evidence.violation_rows)
    assert rounded
    for (t, k, value), (*_, bits) in zip(evidence.violations, evidence.violation_rows):
        want = signed_derivative(evidence.spec, evidence.r, k, t, PrecisionPolicy(bits))
        assert value._mpf_ == want._mpf_, (t, k)


def _falling(r, j):
    out = Fraction(1)
    for i in range(j):
        out *= r - i
    return out


@pytest.mark.parametrize("r", [Fraction(0), Fraction(2), Fraction(61, 20), Fraction(949, 200)])
@pytest.mark.parametrize("t", [Fraction(3, 7), Fraction(37, 4)])
def test_sum_table_identity_is_exact(r, t):
    # t^(r-k) q^(-k) sum_j a_{k,j} t^(k-j) x_{k-j} / (k-j)!
    #     = sum_j C(k,j) r(r-1)...(r-j+1) t^(r-j) x_{k-j}
    # for any x_i, in exact rationals: the common factor t^r is divided out.
    # r = 2 stops each row of the table at the zero falling factorial.
    p, q = r.numerator, r.denominator
    xs = [Fraction((-1) ** i * (2 * i + 1), i * i + 3) for i in range(13)]
    table = degree_module._table(p, q, 12)
    assert len(table) == 13
    for k, coeffs in enumerate(table):
        assert len(coeffs) == (k + 1 if q > 1 else min(k + 1, p + 1))
        taylor = sum(a * t ** (k - j) * xs[k - j] / factorial(k - j) for j, a in enumerate(coeffs))
        left = taylor / (t**k * q**k)
        right = sum(comb(k, j) * _falling(r, j) / t**j * xs[k - j] for j in range(k + 1))
        assert left == right, (r, t, k)


@pytest.mark.parametrize("r", [Fraction(61, 20), Fraction(3)])
def test_signed_derivative_is_the_report_value_bit_for_bit(r):
    grid = Grid.parse("log:1e-3:1e4:9")
    rep = cm_check(TRIGAP, r, 8, grid, POLICY)
    bits = [row[-1] for row in rep.rows]
    first = [entry for entry, b in zip(rep.values, bits) if b == POLICY.working_bits]
    assert len(first) > len(rep.values) // 2
    for t, k, value in first:
        assert signed_derivative(TRIGAP, r, k, t, POLICY)._mpf_ == value._mpf_, (t, k)


@pytest.mark.parametrize("k", [-1, 1.5, "2", None, True])
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
    # integer pairs at one exponent: borderline while |value| * 2^64 <= scale
    scale = 3 << (POLICY.working_bits // 2)
    assert classify_sign(3, scale, POLICY) == "borderline"  # exactly at the guard
    assert classify_sign(-3, scale, POLICY) == "borderline"
    assert classify_sign(4, scale, POLICY) == "pass"  # one unit above
    assert classify_sign(-4, scale, POLICY) == "violation"
    assert classify_sign(4, 4 * scale // 3 - 1, POLICY) == "pass"
    assert classify_sign(4, 4 * scale // 3, POLICY) == "borderline"
    assert classify_sign(0, 0, POLICY) == "borderline"


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

    def zeros(cells, t, pol):
        precisions.append(pol.working_bits)
        return {nm: [mp.mpf(0)] * (i_max + 1) for nm, i_max in cells.items()}

    monkeypatch.setattr(degree_module, "_phi_rows", zeros)
    rep = cm_check(Q, 4, max_order=3, grid=TINY_GRID, policy=POLICY)
    # one doubled-precision rerun per grid point, shared by its four orders
    assert precisions.count(2 * POLICY.working_bits) == 12
    assert rep.verdict == "inconclusive"
    assert rep.violations == ()
    assert len(rep.inconclusive) == 12 * 4
    assert len(rep.values) == 12 * 4
    _assert_report_integrity(rep)


def test_classify_sign_runs_once_per_point_and_order_plus_reruns(monkeypatch):
    # the tracer's degree.classify counts rest on this call pattern
    calls = []
    classify = degree_module.classify_sign
    real = degree_module._phi_rows

    def counting(value, scale, policy):
        result = classify(value, scale, policy)
        calls.append((policy.working_bits, result))
        return result

    def provider(cells, t, pol):
        # zero even orders at the first pass below t = 1: with r = 0 those
        # rows are 0, borderline, and pass when re-run at doubled precision
        rows = real(cells, t, pol)
        if pol == POLICY and t < 1:
            zero = mp.mpf(0)
            rows = {
                nm: [zero if i % 2 == 0 else d for i, d in enumerate(ders)]
                for nm, ders in rows.items()
            }
        return rows

    monkeypatch.setattr(degree_module, "classify_sign", counting)
    monkeypatch.setattr(degree_module, "_phi_rows", provider)
    rep = cm_check(Q, 0, max_order=3, grid=TINY_GRID, policy=POLICY)
    low_points = sum(1 for t in TINY_GRID.values(POLICY.internal_bits()) if t < 1)
    assert low_points == 4
    first = [result for bits, result in calls if bits == POLICY.working_bits]
    reruns = [result for bits, result in calls if bits == DOUBLED.working_bits]
    assert len(first) == TINY_GRID.points * (3 + 1)
    assert first.count("borderline") == low_points * 2  # orders 0 and 2
    assert reruns == ["pass"] * (low_points * 2)
    assert len(calls) == len(first) + len(reruns)
    assert rep.verdict == "pass"


def clear_memos():
    degree_module._table.cache_clear()
    degree_module._ratios.cache_clear()
    degree_module._factors.cache_clear()
    Grid._points.cache_clear()
    polygamma_module._recurrence.cache_clear()


def test_report_values_are_rounded_from_the_exact_rows_when_read():
    # a violating scan whose grid reaches t = 1e-3, where three points rerun
    rep = cm_check(PHI03, 3, max_order=8, grid=RERUN_GRID, policy=POLICY)
    assert rep.violations
    assert {bits for *_, bits in rep.rows} == {POLICY.working_bits, DOUBLED.working_bits}
    assert "values" not in vars(rep)  # nothing has read them yet
    factors = degree_module._factors
    eager = tuple(
        (t, k, degree_module._report_value(value, exp, bits, factors(t, rep.r, 8, bits)[k]))
        for t, k, value, _, exp, bits in rep.rows
    )
    assert [(t, k, v._mpf_) for t, k, v in rep.values] == [(t, k, v._mpf_) for t, k, v in eager]
    by_point = {(t, k): v for t, k, v in rep.values}
    assert all(by_point[t, k]._mpf_ == v._mpf_ for t, k, v in rep.violations)
    classes = {
        (t, k): classify_sign(value, scale, PrecisionPolicy(bits))
        for t, k, value, scale, _, bits in rep.rows
    }
    assert [tk for tk, cls in classes.items() if cls == "violation"] == [
        (t, k) for t, k, _ in rep.violations
    ]
    assert [tk for tk, cls in classes.items() if cls == "borderline"] == list(rep.inconclusive)
    assert rep.verdict == "violation"
    _assert_report_integrity(rep)


def test_scan_reports_are_deterministic():
    clear_memos()
    a = cm_check(Q, 4, max_order=4, grid=SMALL_GRID, policy=POLICY)
    clear_memos()
    b = cm_check(Q, 4, max_order=4, grid=SMALL_GRID, policy=POLICY)
    assert a == b


@pytest.mark.parametrize("c", [Fraction(1), Fraction(7, 3), Fraction(10) ** 6])
def test_verdicts_invariant_under_positive_scaling(c, monkeypatch):
    real = degree_module._phi_rows

    def provider(cells, t, pol):
        rows = real(cells, t, pol)
        with mp.workprec(pol.internal_bits(64)):
            cv = as_mpf(c, pol.internal_bits(64))
            return {nm: [cv * d for d in ders] for nm, ders in rows.items()}

    for r in (4, "5.05"):
        base = cm_check(Q, r, max_order=4, grid=SMALL_GRID, policy=POLICY)
        with monkeypatch.context() as patch:
            patch.setattr(degree_module, "_phi_rows", provider)
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


@pytest.mark.parametrize("bad", [-1, 2.5, "6", None, True, 1.5])
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
    """Replace _cm_check by a member whose scan at r passes when passes(r);
    returns the list of scanned exponents."""
    calls = []

    def fake(spec, r, max_order, grid, policy, scope):
        r = degree_module._as_rational(r)
        calls.append(r)
        return SimpleNamespace(r=r, verdict="pass" if passes(r) else "violation")

    monkeypatch.setattr(degree_module, "_cm_check", fake)
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


def test_inconclusive_midpoint_falls_back_to_a_linear_sweep(monkeypatch):
    # the bisection of Q's quarter lattice meets an inconclusive scan at
    # 15/4; the sweep of (5/2, 5) then takes the smallest violation (17/4)
    # and the largest pass below it (7/2), a fractional end that walks down
    # past the inconclusive 3 to the passing integer 2
    verdicts = {Fraction(x): v for x, v in [
        ("0", "pass"), ("5", "violation"), ("5/2", "pass"), ("15/4", "inconclusive"),
        ("11/4", "pass"), ("3", "inconclusive"), ("13/4", "pass"), ("7/2", "pass"),
        ("4", "inconclusive"), ("17/4", "violation"), ("9/2", "violation"),
        ("19/4", "violation"), ("2", "pass"),
    ]}  # fmt: skip
    calls = []

    def fake(spec, r, max_order, grid, policy, scope):
        r = degree_module._as_rational(r)
        calls.append(r)
        return SimpleNamespace(r=r, verdict=verdicts[r])

    monkeypatch.setattr(degree_module, "_cm_check", fake)
    br = degree_bracket(Q, Fraction(1, 4), max_order=2, grid=TINY_GRID, policy=POLICY)
    assert calls == list(verdicts)  # each exponent scanned once, in this order
    assert br.lower == 2 and br.lower_evidence.r == 2
    assert br.scan_violation_r == Fraction(17, 4) and br.violation_evidence.r == Fraction(17, 4)
    assert br.upper_method == "scan_violation"
    assert br.upper == mp.mpf(17) / 4


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
    real = degree_module._cm_check

    def fake(spec, r, max_order, grid, policy, scope):
        rep = real(spec, r, max_order, grid, policy, scope)
        if degree_module._as_rational(r) == 0:
            return dataclasses.replace(rep, verdict="violation")
        return rep

    monkeypatch.setattr(degree_module, "_cm_check", fake)
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
    real = degree_module._degree_bracket

    def flaky(spec, *args, **kwargs):
        if (spec.n, spec.m) == (0, 1):
            raise CmdegError("synthetic cell failure")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(degree_module, "_degree_bracket", flaky)
    rep = conjecture_scan(0, 1, max_order=4, grid=TINY_GRID, policy=POLICY)
    by = {(c.n, c.m): c for c in rep.cells}
    assert by[(0, 1)].error == "CmdegError: synthetic cell failure"
    assert by[(0, 1)].bracket is None
    assert by[(0, 1)].contains_conjectured is None
    assert by[(0, 0)].error is None
    assert by[(0, 0)].bracket is not None


# reaches t = 1e-3, where some points of the 3x3 table rerun at doubled bits
RERUN_GRID = Grid(Fraction(1, 1000), Fraction(100), 12)


@pytest.mark.parametrize("step", [1, Fraction(1, 2)], ids=["step-1", "step-1/2"])
def test_table_cells_match_standalone_brackets(step):
    # the table scope evaluates every cell at the largest elevation among
    # them; each cell's bracket is still the one its own scans give
    rep = conjecture_scan(2, 2, max_order=8, grid=RERUN_GRID, policy=POLICY, lattice_step=step)
    assert len(rep.cells) == 9
    for cell in rep.cells:
        alone = degree_bracket(RemainderSpec(n=cell.n, m=cell.m), step, 8, RERUN_GRID, POLICY)
        assert cell.error is None
        assert (cell.bracket.lower, cell.bracket.upper, cell.bracket.upper_method) == (
            alone.lower,
            alone.upper,
            alone.upper_method,
        ), (cell.n, cell.m)


def _count_rows_and_taylor_rows(monkeypatch):
    """Spy on the scope: every (t, policy) it evaluates, and every Taylor row
    it forms, as (the phi row it came from, t, policy)."""
    evaluations, builds, chain_ts = [], [], {}
    real_rows, real_ratios, real_taylor = (
        degree_module._phi_rows,
        degree_module._ratios,
        degree_module._taylor_row,
    )

    def counted(cells, t, policy):
        evaluations.append((t, policy))
        return real_rows(cells, t, policy)

    def ratios(t, length, bits):
        chain = real_ratios(t, length, bits)
        chain_ts[id(chain)] = t  # the scope keeps every chain alive
        return chain

    def taylor(ders, chain, policy):
        builds.append((id(ders), chain_ts[id(chain)], policy))  # and every phi row
        return real_taylor(ders, chain, policy)

    monkeypatch.setattr(degree_module, "_phi_rows", counted)
    monkeypatch.setattr(degree_module, "_ratios", ratios)
    monkeypatch.setattr(degree_module, "_taylor_row", taylor)
    return evaluations, builds


def test_table_is_evaluated_once_per_grid_point_and_policy(monkeypatch):
    evaluations, builds = _count_rows_and_taylor_rows(monkeypatch)

    def one_cell(*args):
        raise AssertionError("a table scan evaluated a member on its own")

    monkeypatch.setattr(degree_module, "phi_derivatives", one_cell)
    rep = conjecture_scan(2, 2, max_order=12, grid=RERUN_GRID, policy=POLICY)
    base = [t for t, policy in evaluations if policy == POLICY]
    assert base == RERUN_GRID.values(POLICY.internal_bits())
    reruns = [t for t, policy in evaluations if policy == DOUBLED]
    assert reruns and len(set(reruns)) == len(reruns)
    assert len(base) + len(reruns) == len(evaluations)
    # each cell's Taylor row at most once per (t, policy), and every cell
    # reads every point of the grid
    assert len(set(builds)) == len(builds) <= len(rep.cells) * len(evaluations)
    assert sum(policy == POLICY for *_, policy in builds) == len(rep.cells) * len(base)


def test_bracket_evaluates_each_point_and_forms_each_taylor_row_once(monkeypatch):
    # a fractional lattice with doubled-precision reruns and an integer
    # fallback: every scan of the bracket reads one scope
    scanned = []
    real_check = degree_module._cm_check

    def check(spec, r, *args):
        scanned.append(degree_module._as_rational(r))
        return real_check(spec, r, *args)

    evaluations, builds = _count_rows_and_taylor_rows(monkeypatch)
    monkeypatch.setattr(degree_module, "_cm_check", check)
    br = degree_bracket(PHI03, Fraction(1, 2), 8, RERUN_GRID, POLICY)
    assert (br.lower, br.scan_violation_r) == (2, 3)
    assert scanned == [0, 3, Fraction(3, 2), 2, Fraction(5, 2)]  # the fallback reuses r = 2
    assert len(set(evaluations)) == len(evaluations)
    assert [t for t, policy in evaluations if policy == POLICY] == RERUN_GRID.values(
        POLICY.internal_bits()
    )
    assert any(policy == DOUBLED for _, policy in evaluations)
    assert [(t, policy) for _, t, policy in builds] == evaluations


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"n_max": -1}, InvalidIndex),
        ({"m_max": -1}, InvalidIndex),
        ({"n_max": 1.5}, InvalidIndex),
        ({"max_order": -1}, InvalidIndex),
        ({"lattice_step": 2}, InvalidSpec),
        ({"n_max": True}, InvalidIndex),
        ({"m_max": 1.5}, InvalidIndex),
        ({"max_order": True}, InvalidIndex),
        ({"max_order": 1.5}, InvalidIndex),
    ],
)
def test_conjecture_scan_argument_errors_raise_before_any_cell(kwargs, error, monkeypatch):
    def no_cell(*args):
        raise AssertionError("a cell was scanned")

    monkeypatch.setattr(degree_module, "_degree_bracket", no_cell)
    with pytest.raises(error):
        conjecture_scan(**{"n_max": 1, "m_max": 1, "grid": TINY_GRID, "policy": POLICY, **kwargs})


def test_members_beyond_the_family_stay_per_cell_errors(monkeypatch):
    def bracket(spec, *args, **kwargs):
        return SimpleNamespace(contains=lambda x: True)

    monkeypatch.setattr(degree_module, "_degree_bracket", bracket)
    rep = conjecture_scan(PHI_N_MAX + 1, PHI_M_MAX + 1, max_order=2, grid=TINY_GRID, policy=POLICY)
    cells = product(range(PHI_N_MAX + 2), range(PHI_M_MAX + 2))
    beyond = {(n, m) for n, m in cells if n > PHI_N_MAX or m > PHI_M_MAX}
    assert {(c.n, c.m) for c in rep.cells if c.error} == beyond
    assert all(c.error.startswith("InvalidSpec") for c in rep.cells if c.error)


def test_one_sum_table_per_exponent_and_one_taylor_row_per_cell_point_and_precision(monkeypatch):
    # a half-integer lattice: two denominators q, doubled-precision reruns,
    # and exponents shared by the cells
    exponents, requests, builds = [], [], []
    real_row, real_taylor, real_request = (
        degree_module._signed_row,
        degree_module._taylor_row,
        degree_module._scope.taylor,
    )

    def row(r, max_order, taylor):
        exponents.append((r.numerator, r.denominator, max_order))
        return real_row(r, max_order, taylor)

    def request(scope, spec, tv, policy):
        requests.append((spec.family_indices, tv, policy))
        return real_request(scope, spec, tv, policy)

    def taylor(ders, tv, policy):
        builds.append((tv, policy))
        return real_taylor(ders, tv, policy)

    monkeypatch.setattr(degree_module, "_signed_row", row)
    monkeypatch.setattr(degree_module._scope, "taylor", request)
    monkeypatch.setattr(degree_module, "_taylor_row", taylor)
    degree_module._table.cache_clear()
    conjecture_scan(2, 2, max_order=12, grid=RERUN_GRID, policy=POLICY, lattice_step=Fraction(1, 2))
    assert {q for _, q, _ in exponents} == {1, 2}
    assert DOUBLED in {policy for _, policy in builds}
    assert len(exponents) > len(set(exponents))  # the cells share exponents and points
    assert degree_module._table.cache_info().misses == len(set(exponents))
    assert len(requests) > len(set(requests))  # the exponents, both q among them, share rows
    assert len(builds) == len(set(requests))


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


@pytest.mark.parametrize("t", ["0.05", 1, 30])
@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(3)])
def test_passing_exponents_are_closed_downward_at_each_point(t, a):
    # (-1)^k (t^(r-a) phi)^(k) = sum_j C(k,j) a(a+1)...(a+j-1) t^(-a-j)
    #                            (-1)^(k-j) (t^r phi)^(k-j),
    # the product rule for t^-a (t^r phi): the orders for r - a are
    # nonnegative combinations of those for r, so if orders 0..K pass at t
    # for r they pass for r - a, as degree_bracket's bisection assumes.
    # Q passes at r = 4; phi(0,3) does not, and still obeys the identity
    r, top = 4, 8
    tv = as_mpf(t, POLICY.internal_bits())
    for spec in (Q, PHI03):
        at_r = [signed_derivative(spec, r, k, tv, POLICY) for k in range(top + 1)]
        below = [signed_derivative(spec, r - a, k, tv, POLICY) for k in range(top + 1)]
        with mp.workprec(4 * POLICY.working_bits):
            av = mp.mpf(a.numerator) / a.denominator
            for k in range(top + 1):
                combined = sum(
                    comb(k, j) * mp.rf(av, j) * tv ** (-av - j) * at_r[k - j] for j in range(k + 1)
                )
                assert abs(combined - below[k]) <= 2**-100 * max(1, abs(below[k])), (spec, k)
        if spec == Q:
            assert all(v > 0 for v in at_r) and all(v > 0 for v in below)


def test_q_order_200_scan_pins_its_degree_below_4_745():
    # ROADMAP item 4(a): at order 200 on log:24:40:3 every t lies below the
    # shift target at 128 bits, and t^(949/200) Q is not CM (orders 192..200
    # fail at t ~ 30.98), while r = 237/50 = 4.74 passes every order
    grid = Grid.parse("log:24:40:3")
    rep = cm_check(Q, Fraction(949, 200), 200, grid, POLICY)
    assert rep.verdict == "violation"
    assert [k for _, k, _ in rep.violations] == list(range(192, 201))
    assert len({t for t, _, _ in rep.violations}) == 1
    assert 30 < rep.violations[0][0] < 31 and not rep.inconclusive
    assert cm_check(Q, Fraction(237, 50), 200, grid, POLICY).verdict == "pass"
