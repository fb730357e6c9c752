"""Numerical evidence for completely monotonic degrees.

A function phi is completely monotonic (CM) when (-1)^k phi^(k) >= 0 for
every k; its CM degree is the largest r such that t^r phi(t) is still CM.
This module scans the sign pattern of

    (-1)^k d^k/dt^k [ t^r phi(t) ]
        = (-1)^k sum_j C(k,j) r(r-1)...(r-j+1) t^(r-j) phi^(k-j)(t)

over finite grids and derivative orders, one row of sums per grid point
covering every order.  With r = p/q and the Taylor coefficients
v_i = t^i phi^(i)(t) / i! of x -> phi(t + t x), the sum of order k is

    t^(r-k) q^(-k) (-1)^k sum_j a_{k,j} v_{k-j},
    a_{k,j} = k!/j! q^(k-j) p(p-q)...(p-(j-1)q).

The a_{k,j} are exact integers, one table per (p, q, max_order), and t
enters through the v_i alone, whose row stays narrow at high orders (for
phi = t^(-s), v_i grows like i^(s-1) where t^i phi^(i) grows like i!).
Each v_i is rounded once, at working_bits + 64 bits, from the raw phi^(i)
and one chain t^i / i! per (t, precision), so every term is an exact
integer product at one exponent and every sum is exact.  A row holds the
integer pairs (signed value, largest |term|) without the positive factor
t^(r-k) q^(-k), which ``classify_sign`` does not need; a report multiplies
by it, rounding to mpf at working_bits + 64 bits, only when its ``values``
or its ``violations`` are read.  A scan that only counts its violations
rounds nothing.

Every scan of one public call reads phi^(0..max_order)(t) from one scope,
which evaluates its cells once per (t, policy) and forms each cell's
Taylor row once, when a scan first asks for it.  Each phi_{n,j} is its own
shifted Bernoulli tail, so a cell's row has the bits of ``phi_derivatives``
in every scope (``cm_check`` and ``degree_bracket`` scope their member,
``conjecture_scan`` its table) unless a higher order of its n there forces
a further shift (64 bits, t near 22).

The passing exponents at a point are closed downward.  For a > 0 the
product rule gives

    (-1)^k (t^(r-a) phi)^(k) = sum_j C(k,j) a(a+1)...(a+j-1) t^(-a-j)
                               (-1)^(k-j) (t^r phi)^(k-j),

a sum of nonnegative multiples of the orders 0..k for r.  So if orders
0..K pass at t for r, they pass there for every r - a: at each t the
passing exponents form an interval (-inf, d_t], and a scan's grid degree
is the smallest d_t.  The lattice bisection of ``degree_bracket`` rests on
this: a passing scan at r is taken to vouch for every lattice point below
r, and a violation at r for every point above it.

A grid-and-finite-order scan can only furnish evidence, never proof: a
clean sign violation certifies that t^r phi is *not* CM (so the degree
lies below r), while an all-pass scan is supporting evidence that the
degree reaches r.

The upper end needs no scan.  Every member is positive near 0+ with a
pole of exact order p = pole_order(spec), or a log singularity when
p = 0, so t^u phi -> 0 as t -> 0+ for every u > p.  A CM function is
positive and nonincreasing and cannot tend to 0 there, so the degree is
at most p.  Lattice exponents above p are therefore never scanned.

Verdict bookkeeping is deliberately conservative: any signed value within
the guard band of zero is re-evaluated at doubled precision and reported
as inconclusive when still indistinguishable from zero.  A point with any
such value gets one doubled-precision row, shared by its borderline orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from operator import mul

import mpmath as mp
from mpmath import libmp

from .errors import CmdegError, InvalidSpec
from .precision import PrecisionPolicy, aligned, as_index, as_mpf, as_point, man_exp
from .remainders import PHI_M_MAX, PHI_N_MAX, RemainderSpec, _phi_rows, phi_derivatives, pole_order

__all__ = [
    "Grid",
    "default_grid",
    "signed_derivative",
    "classify_sign",
    "CmCheckReport",
    "cm_check",
    "DegreeBracket",
    "degree_bracket",
    "conjectured_degree",
    "established_degree",
    "ConjectureCell",
    "ConjectureScanReport",
    "conjecture_scan",
]

_SUM_GUARD_BITS = 64  # extra bits for the product-rule sums


@dataclass(frozen=True)
class Grid:
    """Deterministic evaluation grid on (0, infinity).

    Endpoints are exact rationals; points are computed 16 bits above a
    requested binary precision and rounded to it, identically on every run.
    """

    t_min: Fraction
    t_max: Fraction
    points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        as_index(self.points, "grid points", low=1)
        if not 0 < self.t_min <= self.t_max:
            raise InvalidSpec("grid endpoints must satisfy 0 < t_min <= t_max")
        if self.spacing not in ("log", "linear"):
            raise InvalidSpec(f"unknown grid spacing {self.spacing!r}")

    @classmethod
    def parse(cls, text: str) -> "Grid":
        """Parse 'log:<t_min>:<t_max>:<points>' (or 'linear:...')."""
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidSpec(f"grid must look like 'log:1e-3:1e4:200', got {text!r}")
        spacing, lo, hi, pts = parts
        try:
            return cls(Fraction(lo), Fraction(hi), int(pts), spacing)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"bad grid {text!r}: {exc}") from None

    def values(self, prec: int) -> list[mp.mpf]:
        """The points at ``prec`` bits, computed once per (grid, prec), in a new list."""
        return list(self._points(prec))

    @lru_cache(maxsize=64)
    def _points(self, prec: int) -> tuple:
        with mp.workprec(prec + 16):
            lo = as_mpf(self.t_min, prec + 16)
            hi = as_mpf(self.t_max, prec + 16)
            if self.points == 1:
                return (as_mpf(lo, prec),)
            if self.spacing == "linear":
                step = (hi - lo) / (self.points - 1)
                return tuple(as_mpf(lo + i * step, prec) for i in range(self.points))
            la, lb = mp.log(lo), mp.log(hi)
            step = (lb - la) / (self.points - 1)
            return tuple(as_mpf(mp.exp(la + i * step), prec) for i in range(self.points))


def default_grid() -> Grid:
    return Grid(Fraction(1, 1000), Fraction(10000), 200)


def _as_rational(x) -> Fraction:
    try:
        if isinstance(x, (Fraction, int, str, float)):
            return Fraction(x)
        if isinstance(x, mp.mpf) and mp.isfinite(x):
            value = x.man * Fraction(2) ** x.exp  # man is unsigned
            return -value if x < 0 else value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise InvalidSpec(f"cannot interpret {x!r} as a rational exponent")


# ---------------------------------------------------------------------------
# derivative scopes: where a scan reads phi^(0..max_order)(t).  One scope
# lives for one public call and serves all its lattice exponents and reruns.

def _aligned_row(ders: list[mp.mpf]) -> tuple[tuple, int]:
    """phi^(0..i_max) as exact integers at one exponent: (mantissas, exponent)."""
    return aligned([man_exp(d._mpf_) for d in ders])


class _scope:
    """Where the scans of one public call read phi^(0..max_order)(t): each
    cell (n, m): max_order is evaluated once per (t, policy), and its Taylor
    row is formed once, when a scan first asks for it."""

    def __init__(self, cells: dict):
        self.cells, self.rows, self.taylor_rows = cells, {}, {}

    def _row(self, spec: RemainderSpec, t: mp.mpf, policy: PrecisionPolicy) -> list[mp.mpf]:
        if (t, policy) not in self.rows:
            self.rows[t, policy] = _phi_rows(self.cells, t, policy)
        return self.rows[t, policy][spec.family_indices]

    def __call__(self, spec: RemainderSpec, t: mp.mpf, policy: PrecisionPolicy) -> tuple[tuple, int]:
        """The aligned phi row of ``spec`` at (t, policy): (mantissas, exponent)."""
        return _aligned_row(self._row(spec, t, policy))

    def taylor(self, spec: RemainderSpec, t: mp.mpf, policy: PrecisionPolicy) -> tuple[tuple, int]:
        """The ``_taylor_row`` of ``spec`` at (t, policy)."""
        key = spec.family_indices, t, policy
        if key not in self.taylor_rows:
            self.taylor_rows[key] = _taylor_row(self._row(spec, t, policy), t, policy)
        return self.taylor_rows[key]


@lru_cache(maxsize=1024)
def _ratios(t: mp.mpf, length: int, working_bits: int) -> tuple:
    """t^i / i! for i < length as raw mpf, each step rounded _SUM_GUARD_BITS
    above a Taylor row's precision.  The cells of a scope share one chain
    per (t, policy); each cell asks for it once per point in turn, so the
    bound must exceed a scope's points (276 for the 8 x 6 table by default)."""
    prec = working_bits + 2 * _SUM_GUARD_BITS
    ratios = [libmp.fone]
    for i in range(1, length):
        ratio = libmp.mpf_mul(ratios[-1], t._mpf_, prec, libmp.round_nearest)
        ratios.append(libmp.mpf_div(ratio, libmp.from_int(i), prec, libmp.round_nearest))
    return tuple(ratios)


def _taylor_row(ders: list[mp.mpf], t: mp.mpf, policy: PrecisionPolicy) -> tuple[tuple, int]:
    """v_i = t^i phi^(i)(t) / i! from phi^(0..i_max)(t) ``ders``, aligned:
    each product of the exact phi^(i) with t^i / i! of ``_ratios`` is
    rounded once at working_bits + _SUM_GUARD_BITS."""
    prec = policy.working_bits + _SUM_GUARD_BITS
    ratios = _ratios(t, len(ders), policy.working_bits)
    return aligned([man_exp(libmp.mpf_mul(a, d._mpf_, prec, libmp.round_nearest))
                    for a, d in zip(ratios, ders)])


@lru_cache(maxsize=32)
def _table(p: int, q: int, max_order: int) -> tuple[tuple, ...]:
    """The integers a_{k,j} for k = 0..max_order, row k up to j = k or to the
    first zero falling factorial: row k - 1 times k q, then p(p-q)...(p-(k-1)q)."""
    table, row, falling = [], [], 1
    for k in range(max_order + 1):
        row = [k * q * a for a in row] + ([falling] if falling else [])
        falling *= p - k * q
        table.append(tuple(row))
    return tuple(table)


def _signed_row(r: Fraction, max_order: int, taylor: tuple[tuple, int]) -> tuple[int, list]:
    """(exp, [(value, scale) for k = 0..max_order]), exact integers: the sum
    of order k is value * 2^exp and its largest |term| is scale * 2^exp, both
    without the factor t^(r-k) q^(-k)."""
    taylor, exp = taylor
    row = []
    for k, coeffs in enumerate(_table(r.numerator, r.denominator, max_order)):
        terms = list(map(mul, coeffs, taylor[k::-1]))
        total = sum(terms)
        row.append((-total if k % 2 else total, max(map(abs, terms))))
    return exp, row


@lru_cache(maxsize=256)
def _factors(t: mp.mpf, r: Fraction, max_order: int, working_bits: int) -> tuple:
    """t^(r-k) q^(-k) for k = 0..max_order as raw mpf, 16 bits above a row's
    precision: one exp(r ln t), then repeated division by q t."""
    prec = working_bits + _SUM_GUARD_BITS + 16
    with mp.workprec(prec):
        factors = [mp.exp(mp.mpf(r.numerator) / r.denominator * mp.log(t))._mpf_]
    qt = libmp.mpf_mul(t._mpf_, libmp.from_int(r.denominator))
    for _ in range(max_order):
        factors.append(libmp.mpf_div(factors[-1], qt, prec, libmp.round_nearest))
    return tuple(factors)


def _report_value(value: int, exp: int, working_bits: int, factor: tuple) -> mp.mpf:
    """value * 2^exp times a factor of ``_factors``, rounded once to the row's
    working_bits + _SUM_GUARD_BITS."""
    prec = working_bits + _SUM_GUARD_BITS
    return mp.make_mpf(libmp.mpf_mul(libmp.from_man_exp(value, exp), factor, prec, libmp.round_nearest))


def signed_derivative(
    spec: RemainderSpec, r, k: int, t, policy: PrecisionPolicy | None = None
) -> mp.mpf:
    """(-1)^k d^k/dt^k [t^r phi(t)] for the selected family member.

    Nonnegative values support complete monotonicity of t^r phi at this
    point and order; a definitely negative value refutes it.
    """
    as_index(k, "derivative order")
    policy = policy or PrecisionPolicy()
    rv = _as_rational(r)
    tv = as_point(t, policy.internal_bits(), "evaluation")
    exp, row = _signed_row(rv, k, _taylor_row(phi_derivatives(spec, tv, k, policy), tv, policy))
    factor = _factors(tv, rv, k, policy.working_bits)[k]
    return _report_value(row[k][0], exp, policy.working_bits, factor)


def classify_sign(value, scale, policy: PrecisionPolicy) -> str:
    """'pass' / 'violation' / 'borderline' relative to the guard band.

    value and scale are either two integers at one common exponent (as in a
    row of ``_signed_row``) or two mpf values; either way the comparison is
    exact.  The value is borderline when |value| * 2^(working_bits/2) is at
    most the local term scale, so the classification is invariant under
    scaling phi by a positive constant.
    """
    if isinstance(value, mp.mpf):
        (value, scale), _ = aligned([man_exp(value._mpf_), man_exp(scale._mpf_)])
    if abs(value) << (policy.working_bits // 2) <= scale:
        return "borderline"
    return "pass" if value > 0 else "violation"


@dataclass(frozen=True)
class CmCheckReport:
    """Outcome of a sign scan of (-1)^k [t^r phi]^(k) over a grid: exact
    rows, whose ``values`` and ``violations`` are rounded when first read."""

    spec: RemainderSpec
    r: Fraction
    max_order: int
    grid: Grid
    working_bits: int
    verdict: str  # "pass" | "violation" | "inconclusive"
    violation_rows: tuple  # each violation's exact (t, k, value, exp, bits), by (t, k)
    inconclusive: tuple  # (t, k)
    # every exact (t, k, value, scale, exp, bits), ordered by (t, k): a row
    # of ``_signed_row`` at ``bits`` working bits, as classify_sign read it,
    # without its factor t^(r-k) q^(-k)
    rows: tuple

    def _rounded(self, t, k, value, exp, bits) -> tuple:
        return t, k, _report_value(value, exp, bits, _factors(t, self.r, self.max_order, bits)[k])

    @cached_property
    def values(self) -> tuple:
        """Every (t, k, value), ordered by (t, k), rounded when first read."""
        return tuple(self._rounded(t, k, v, exp, bits) for t, k, v, _, exp, bits in self.rows)

    @cached_property
    def violations(self) -> tuple:
        """Each violating (t, k, value); ``violation_rows`` counts them unrounded."""
        return tuple(self._rounded(*entry) for entry in self.violation_rows)


def cm_check(
    spec: RemainderSpec,
    r,
    max_order: int = 12,
    grid: Grid | None = None,
    policy: PrecisionPolicy | None = None,
) -> CmCheckReport:
    """Scan the CM sign pattern of t^r phi(t) at orders 0..max_order.

    Values inside the guard band are re-evaluated once at doubled working
    precision; if still indistinguishable from zero they are reported as
    inconclusive rather than silently counted as passes or violations.
    """
    return _cm_check(spec, r, max_order, grid, policy, _scope({spec.family_indices: max_order}))


def _cm_check(spec, r, max_order, grid, policy, scope) -> CmCheckReport:
    """cm_check reading its phi rows from ``scope``."""
    as_index(max_order, "max_order")
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()
    rv = _as_rational(r)
    doubled = PrecisionPolicy(2 * policy.working_bits)
    violations = []
    inconclusive = []
    rows = []
    for tv in grid.values(policy.internal_bits()):
        exp, row = _signed_row(rv, max_order, scope.taylor(spec, tv, policy))
        classes = [classify_sign(value, scale, policy) for value, scale in row]
        if "borderline" in classes:
            exp2, row2 = _signed_row(rv, max_order, scope.taylor(spec, tv, doubled))
        for k, ((value, scale), cls) in enumerate(zip(row, classes)):
            entry_exp, bits = exp, policy.working_bits
            if cls == "borderline":
                value, scale = row2[k]
                entry_exp, bits = exp2, doubled.working_bits
                cls = classify_sign(value, scale, doubled)
            rows.append((tv, k, value, scale, entry_exp, bits))
            if cls == "borderline":
                inconclusive.append((tv, k))
            elif cls == "violation":
                violations.append((tv, k, value, entry_exp, bits))
    if violations:
        verdict = "violation"
    elif inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return CmCheckReport(
        spec=spec,
        r=rv,
        max_order=max_order,
        grid=grid,
        working_bits=policy.working_bits,
        verdict=verdict,
        violation_rows=tuple(violations),
        inconclusive=tuple(inconclusive),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class DegreeBracket:
    """Evidence interval for a CM degree.

    lower: the largest integer exponent, at or below the largest passing
        lattice exponent, whose own scan passed.  A passing scan at a
        fractional exponent is no evidence: t^(19/4) Q passes the default
        scan, yet (-1)^100 [t^(19/4) Q]^(100)(16) < 0.
    upper: the pole order p (inclusive), or the smallest lattice exponent
        r_v <= p with a scan violation (exclusive: the degree lies below r_v).
    """

    spec: RemainderSpec
    step: Fraction
    lower: Fraction
    upper: mp.mpf
    lower_evidence: CmCheckReport
    upper_method: str  # "small_t_criterion" | "scan_violation"
    scan_violation_r: Fraction | None
    violation_evidence: CmCheckReport | None

    def contains(self, x) -> bool:
        xv = _as_rational(x)
        if self.scan_violation_r is not None:
            return self.lower <= xv < self.scan_violation_r
        return self.lower <= xv <= pole_order(self.spec)


def degree_bracket(
    spec: RemainderSpec,
    r_lattice_step=Fraction(1),
    max_order: int = 12,
    grid: Grid | None = None,
    policy: PrecisionPolicy | None = None,
) -> DegreeBracket:
    """Bracket the CM degree by lattice bisection below the pole order.

    Inconclusive lattice points are excluded from both endpoints, widening
    the bracket conservatively.  A fractional passing end is moved down to
    the largest integer exponent whose scan passes.
    """
    scope = _scope({spec.family_indices: max_order})
    return _degree_bracket(spec, _lattice_step(r_lattice_step), max_order, grid, policy, scope)


def _lattice_step(r_lattice_step) -> Fraction:
    step = _as_rational(r_lattice_step)
    if not 0 < step <= 1:
        raise InvalidSpec(f"lattice step must lie in (0, 1], got {step}")
    return step


def _degree_bracket(spec, step, max_order, grid, policy, scope) -> DegreeBracket:
    """degree_bracket at a checked lattice step, scanning with ``_cm_check`` on ``scope``."""
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()

    reports = {}  # one per exponent: the sweep and the fallback reuse the bisection's

    def scan(r) -> CmCheckReport:
        if r not in reports:  # 2 and Fraction(2) are one key
            reports[r] = _cm_check(spec, r, max_order, grid, policy, scope)
        return reports[r]

    rep0 = scan(0)
    if rep0.verdict != "pass":
        raise CmdegError(
            f"scan at r = 0 did not pass for {spec.label}; "
            "the member does not look completely monotonic on this grid"
        )
    pole = pole_order(spec)
    lo, lo_rep = 0, rep0
    top = int(pole / step)
    top_rep = scan(step * top) if top > 0 else rep0
    if top_rep.verdict == "pass":
        lo, lo_rep = top, top_rep
    while top - lo > 1:
        mid = (lo + top) // 2
        rep = scan(step * mid)
        if rep.verdict == "pass":
            lo, lo_rep = mid, rep
        elif rep.verdict == "violation":
            top, top_rep = mid, rep
        else:
            # inconclusive midpoint: fall back to a linear sweep and
            # keep the widest consistent bracket
            sweep = {idx: scan(step * idx) for idx in range(lo + 1, top)}
            viols = [i for i, rp in sweep.items() if rp.verdict == "violation"]
            if viols:
                top, top_rep = min(viols), sweep[min(viols)]
            passes = [i for i, rp in sweep.items() if rp.verdict == "pass" and i < top]
            if passes:
                lo, lo_rep = max(passes), sweep[max(passes)]
            break

    lower = step * lo
    if lower.denominator != 1:
        for r in range(int(lower), 0, -1):
            rep = scan(r)
            if rep.verdict == "pass":
                lower, lo_rep = Fraction(r), rep
                break
        else:
            lower, lo_rep = Fraction(0), rep0

    if top_rep.verdict == "violation":
        upper = as_mpf(step * top, policy.working_bits)
        method, violation_r, violation_rep = "scan_violation", step * top, top_rep
    else:
        upper = mp.mpf(pole)
        method, violation_r, violation_rep = "small_t_criterion", None, None
    return DegreeBracket(
        spec=spec,
        step=step,
        lower=lower,
        upper=upper,
        lower_evidence=lo_rep,
        upper_method=method,
        scan_violation_r=violation_r,
        violation_evidence=violation_rep,
    )


def conjectured_degree(n: int, m: int) -> int:
    """Conjectured CM degree of phi_{n,m}: m, m+1, or m + 2(n-1)."""
    if n == 0:
        return m
    if n == 1:
        return m + 1
    return m + 2 * (n - 1)


_ESTABLISHED_DEGREES = {
    (0, 0): 0,
    (1, 0): 1,
    (0, 1): 1,
    (1, 1): 2,
    (2, 1): 3,
    (3, 1): 5,
    (0, 2): 2,
    (1, 2): 3,
}


def established_degree(n: int, m: int) -> int | None:
    """Degree value with a published proof, or None when open."""
    return _ESTABLISHED_DEGREES.get((n, m))


@dataclass(frozen=True)
class ConjectureCell:
    n: int
    m: int
    conjectured: int
    established: int | None
    bracket: DegreeBracket | None
    contains_conjectured: bool | None
    note: str = ""
    error: str | None = None


@dataclass(frozen=True)
class ConjectureScanReport:
    n_max: int
    m_max: int
    max_order: int
    step: Fraction
    working_bits: int
    cells: tuple


def conjecture_scan(
    n_max: int = 3,
    m_max: int = 3,
    max_order: int = 12,
    grid: Grid | None = None,
    policy: PrecisionPolicy | None = None,
    lattice_step=Fraction(1),
) -> ConjectureScanReport:
    """Bracket every phi_{n,m} for n <= n_max, m <= m_max and report whether
    the conjectured degree falls inside its bracket.  Invalid arguments
    raise before any cell is scanned; per-cell failures, such as indices
    beyond the family's range, are recorded and the scan continues."""
    as_index(n_max, "n_max")
    as_index(m_max, "m_max")
    as_index(max_order, "max_order")
    step = _lattice_step(lattice_step)
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()
    members = range(min(n_max, PHI_N_MAX) + 1), range(min(m_max, PHI_M_MAX) + 1)
    scope = _scope({nm: max_order for nm in product(*members)})
    cells = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            conj = conjectured_degree(n, m)
            est = established_degree(n, m)
            note = ""
            if (n, m) == (2, 2):
                note = "published proof brackets the degree in [4, 5]; conjectured value 4"
            bracket = None
            contains = None
            error = None
            try:
                bracket = _degree_bracket(RemainderSpec(n=n, m=m), step, max_order, grid, policy, scope)
                contains = bracket.contains(conj)
            except CmdegError as exc:
                error = f"{type(exc).__name__}: {exc}"
            cells.append(
                ConjectureCell(
                    n=n,
                    m=m,
                    conjectured=conj,
                    established=est,
                    bracket=bracket,
                    contains_conjectured=contains,
                    note=note,
                    error=error,
                )
            )
    return ConjectureScanReport(
        n_max=n_max,
        m_max=m_max,
        max_order=max_order,
        step=step,
        working_bits=policy.working_bits,
        cells=tuple(cells),
    )
