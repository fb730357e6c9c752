"""Numerical evidence for completely monotonic degrees.

A function phi is completely monotonic (CM) when (-1)^k phi^(k) >= 0 for
every k; its CM degree is the largest r such that t^r phi(t) is still CM.
This module scans the sign pattern of

    (-1)^k d^k/dt^k [ t^r phi(t) ]
        = (-1)^k sum_j C(k,j) r(r-1)...(r-j+1) t^(r-j) phi^(k-j)(t)

over finite grids and derivative orders.  Each grid point gets one row of
these sums covering every order at once: the coefficients r(r-1)...(r-j+1)
t^(r-j) are formed once per point and shared by all k.

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
from functools import lru_cache
from math import comb

import mpmath as mp

from .errors import CmdegError, InvalidIndex, InvalidSpec
from .precision import PrecisionPolicy, as_mpf
from .remainders import RemainderSpec, phi_derivatives, pole_order

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

    Endpoints are exact rationals; points are generated at a requested
    binary precision, identically on every run.
    """

    t_min: Fraction
    t_max: Fraction
    points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        if self.points < 1:
            raise InvalidIndex(f"grid needs at least one point, got {self.points}")
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
        with mp.workprec(prec + 16):
            lo = as_mpf(self.t_min, prec + 16)
            hi = as_mpf(self.t_max, prec + 16)
            if self.points == 1:
                return [lo]
            if self.spacing == "linear":
                step = (hi - lo) / (self.points - 1)
                return [lo + i * step for i in range(self.points)]
            la, lb = mp.log(lo), mp.log(hi)
            step = (lb - la) / (self.points - 1)
            return [mp.exp(la + i * step) for i in range(self.points)]


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
# derivative cache shared by scans (same spec/t/policy across lattice points)

@lru_cache(maxsize=200_000)
def _phi_ders_cached(spec: RemainderSpec, t: mp.mpf, i_max: int, policy: PrecisionPolicy):
    return phi_derivatives(spec, t, i_max, policy)


def _signed_row(
    r: Fraction,
    max_order: int,
    t: mp.mpf,
    ders: list[mp.mpf],
    policy: PrecisionPolicy,
) -> list[tuple[mp.mpf, mp.mpf]]:
    """(value, scale) for k = 0..max_order: the signed derivative
    (-1)^k [t^r phi]^(k)(t) and the largest |term| of its product-rule sum.

    The coefficients r(r-1)...(r-j+1) t^(r-j) are shared by every order:
    the falling factorials are built exactly, once, and the powers come
    from one exp(r ln t) and repeated multiplication by 1/t.
    """
    with mp.workprec(policy.working_bits + _SUM_GUARD_BITS):
        power = mp.exp(mp.mpf(r.numerator) / r.denominator * mp.log(t))
        inv_t = 1 / t
        coeffs = []  # r^(j) t^(r-j), up to the first zero falling factorial
        falling = Fraction(1)
        for j in range(max_order + 1):
            if falling == 0:
                break
            coeffs.append(mp.mpf(falling.numerator) / falling.denominator * power)
            falling *= r - j
            power *= inv_t
        row = []
        for k in range(max_order + 1):
            total = mp.mpf(0)
            scale = mp.mpf(0)
            for j in range(min(k + 1, len(coeffs))):
                term = comb(k, j) * coeffs[j] * ders[k - j]
                total += term
                scale = max(scale, abs(term))
            row.append((-total if k % 2 else total, scale))
    return row


def signed_derivative(
    spec: RemainderSpec, r, k: int, t, policy: PrecisionPolicy | None = None
) -> mp.mpf:
    """(-1)^k d^k/dt^k [t^r phi(t)] for the selected family member.

    Nonnegative values support complete monotonicity of t^r phi at this
    point and order; a definitely negative value refutes it.
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidIndex(f"derivative order must be a nonnegative integer, got {k!r}")
    policy = policy or PrecisionPolicy()
    rv = _as_rational(r)
    tv = as_mpf(t, policy.internal_bits())
    ders = _phi_ders_cached(spec, tv, k, policy)
    value, _ = _signed_row(rv, k, tv, ders, policy)[k]
    return value


def classify_sign(value, scale, policy: PrecisionPolicy) -> str:
    """'pass' / 'violation' / 'borderline' relative to the guard band.

    The guard band is 2^(-working_bits/2) of the local term scale, so the
    classification is invariant under scaling phi by a positive constant.
    """
    guard = mp.mpf(2) ** (-(policy.working_bits // 2)) * scale
    if abs(value) <= guard:
        return "borderline"
    return "pass" if value > 0 else "violation"


@dataclass(frozen=True)
class CmCheckReport:
    """Outcome of a sign scan of (-1)^k [t^r phi]^(k) over a grid."""

    spec: RemainderSpec
    r: Fraction
    max_order: int
    grid: Grid
    working_bits: int
    verdict: str  # "pass" | "violation" | "inconclusive"
    violations: tuple  # (t, k, value), ordered by (t, k)
    inconclusive: tuple  # (t, k)
    values: tuple  # every (t, k, value), ordered by (t, k)


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
    if not isinstance(max_order, int) or max_order < 0:
        raise InvalidIndex(f"max_order must be a nonnegative integer, got {max_order!r}")
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()
    rv = _as_rational(r)
    doubled = PrecisionPolicy(2 * policy.working_bits)
    violations = []
    inconclusive = []
    all_values = []
    for tv in grid.values(policy.internal_bits()):
        ders = _phi_ders_cached(spec, tv, max_order, policy)
        row = _signed_row(rv, max_order, tv, ders, policy)
        classes = [classify_sign(value, scale, policy) for value, scale in row]
        if "borderline" in classes:
            ders = _phi_ders_cached(spec, tv, max_order, doubled)
            row2 = _signed_row(rv, max_order, tv, ders, doubled)
        for k, ((value, scale), cls) in enumerate(zip(row, classes)):
            if cls == "borderline":
                value, scale = row2[k]
                cls = classify_sign(value, scale, doubled)
                if cls == "borderline":
                    inconclusive.append((tv, k))
                    all_values.append((tv, k, value))
                    continue
            all_values.append((tv, k, value))
            if cls == "violation":
                violations.append((tv, k, value))
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
        violations=tuple(violations),
        inconclusive=tuple(inconclusive),
        values=tuple(all_values),
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
    step = _as_rational(r_lattice_step)
    if not 0 < step <= 1:
        raise InvalidSpec(f"lattice step must lie in (0, 1], got {step}")
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()

    def check(idx: int) -> CmCheckReport:
        return cm_check(spec, step * idx, max_order, grid, policy)

    rep0 = check(0)
    if rep0.verdict != "pass":
        raise CmdegError(
            f"scan at r = 0 did not pass for {spec.label}; "
            "the member does not look completely monotonic on this grid"
        )
    pole = pole_order(spec)
    lo, lo_rep = 0, rep0
    top = int(pole / step)
    top_rep = check(top) if top > 0 else rep0
    if top_rep.verdict == "pass":
        lo, lo_rep = top, top_rep
    while top - lo > 1:
        mid = (lo + top) // 2
        rep = check(mid)
        if rep.verdict == "pass":
            lo, lo_rep = mid, rep
        elif rep.verdict == "violation":
            top, top_rep = mid, rep
        else:
            # inconclusive midpoint: fall back to a linear sweep and
            # keep the widest consistent bracket
            sweep = {idx: check(idx) for idx in range(lo + 1, top)}
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
            rep = cm_check(spec, r, max_order, grid, policy)
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
    the conjectured degree falls inside its bracket.  Per-cell failures are
    recorded and the scan continues."""
    policy = policy or PrecisionPolicy()
    grid = grid or default_grid()
    step = _as_rational(lattice_step)
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
                bracket = degree_bracket(
                    RemainderSpec(n=n, m=m), step, max_order, grid, policy
                )
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
