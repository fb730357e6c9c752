"""Gamma-function asymptotic remainders and their derivatives.

The central family is

    phi_{n,m}(t) = (-1)^m * d^m/dt^m R_n(t),

where R_n is the signed remainder of the Stirling series after n
Bernoulli terms:

    R_n(t) = (-1)^n [ ln Gamma(t) - (t - 1/2) ln t + t - ln(2 pi)/2
                      - sum_{k=1}^{n} B_2k / (2k(2k-1) t^(2k-1)) ].

A member is evaluated in one of two regimes, split at the polygamma
block's shift target t0 = max(10, working_bits/3):

* Below t0, by assembly.  Every member is an exact rational combination of
  ln Gamma, polygamma functions, integer powers of t, ln t, t ln t and
  the constant ln(2 pi).  That combination is represented symbolically by
  :class:`ElementaryForm` with Fraction coefficients, differentiated
  exactly, and only evaluated numerically at the end -- no numerical
  differentiation anywhere.  The pieces cancel down to the remainder, so
  they are evaluated at a precision elevated by the member's cancellation
  (``_elevated``).  The pieces are raw ``libmp`` tuples with the bits of
  mpf arithmetic under ``workprec``; the member is one exact integer sum of
  them over its common denominator, rounded to nearest once (``_assemble``).
* From t0 on, by the remainder's own series.  Differentiating R_n term by
  term gives

      phi_{n,j}(t) = (-1)^n sum_{i>n} B_2i (2i+j-2)!/(2i)! t^-(2i+j-1),

  which for real t > 0 envelops its remainder (DLMF 5.11(ii)).  It is
  summed, relative to its own size, by the polygamma series loops from
  index n+1 (``polygamma._series_tail``).  This needs no elevation, no
  ln Gamma, no pieces and no assembly.  When a term grows before its
  target (low working_bits, high n and j, t near t0), the evaluation falls
  back to the assembly.

Named specials are labels for family members:

    Q            = phi_{2,2} = psi'(t) - 1/t - 1/(2t^2) - 1/(6t^3) + 1/(30t^5)
    PsiGap       = phi_{0,1} = ln t - 1/(2t) - psi(t)
    TrigammaGap3 = phi_{1,2} = 1/t + 1/(2t^2) + 1/(6t^3) - psi'(t)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

import mpmath as mp
from mpmath import libmp

from .bernoulli import bernoulli
from .errors import InvalidSpec
from .polygamma import _series_tail, _shift_target, log_gamma, polygamma, polygamma_block
from .precision import PrecisionPolicy, aligned, as_index, as_point, mag_bits, man_exp

__all__ = [
    "PHI_N_MAX",
    "PHI_M_MAX",
    "SPECIAL_NAMES",
    "RemainderSpec",
    "ElementaryForm",
    "differentiate",
    "form_for",
    "phi_derivatives",
    "q_value",
    "pole_order",
]

PHI_N_MAX = 8
PHI_M_MAX = 6
#: Each named special and the (n, m) of the family member it labels.
_SPECIALS = {"Q": (2, 2), "PsiGap": (0, 1), "TrigammaGap3": (1, 2)}
SPECIAL_NAMES = tuple(_SPECIALS)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class RemainderSpec:
    """Selects a member of the remainder-derivative family.

    Either ``special`` names one of :data:`SPECIAL_NAMES`, or ``n`` and
    ``m`` select phi_{n,m} with 0 <= n <= 8 and 0 <= m <= 6.
    """

    n: int | None = None
    m: int | None = None
    special: str | None = None

    def __post_init__(self) -> None:
        if self.special is not None:
            if self.special not in SPECIAL_NAMES:
                raise InvalidSpec(
                    f"unknown special {self.special!r}; expected one of {SPECIAL_NAMES}"
                )
            if self.n is not None or self.m is not None:
                raise InvalidSpec("give either (n, m) or special, not both")
            return
        if self.n is None or self.m is None:
            raise InvalidSpec("RemainderSpec needs n and m, or a special name")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (self.n, self.m)):
            raise InvalidSpec(f"n and m must be integers, got {self.n!r}, {self.m!r}")
        if not 0 <= self.n <= PHI_N_MAX:
            raise InvalidSpec(f"n={self.n} outside supported range 0..{PHI_N_MAX}")
        if not 0 <= self.m <= PHI_M_MAX:
            raise InvalidSpec(f"m={self.m} outside supported range 0..{PHI_M_MAX}")

    @property
    def family_indices(self) -> tuple[int, int]:
        """(n, m) of the family member this spec selects or names."""
        if self.special is None:
            return (self.n, self.m)
        return _SPECIALS[self.special]

    @property
    def label(self) -> str:
        if self.special is not None:
            return self.special
        return f"phi({self.n},{self.m})"


@dataclass
class ElementaryForm:
    """Exact rational combination of the elementary closed-form pieces.

    value(t) = loggamma * lnGamma(t) + sum_i psi[i] * psi^(i)(t)
             + sum_p powers[p] * t^p + log * ln t + tlog * t ln t
             + log2pi * ln(2 pi) + const
    """

    loggamma: Fraction = _ZERO
    psi: dict[int, Fraction] = field(default_factory=dict)
    powers: dict[int, Fraction] = field(default_factory=dict)
    log: Fraction = _ZERO
    tlog: Fraction = _ZERO
    log2pi: Fraction = _ZERO
    const: Fraction = _ZERO
    cancel_gap: int = 4  # log2-per-octave bound on large-t cancellation

    def scaled(self, c: Fraction) -> "ElementaryForm":
        return ElementaryForm(
            self.loggamma * c,
            {i: v * c for i, v in self.psi.items()},
            {p: v * c for p, v in self.powers.items()},
            self.log * c,
            self.tlog * c,
            self.log2pi * c,
            self.const * c,
            self.cancel_gap,
        )

def differentiate(form: ElementaryForm) -> ElementaryForm:
    """Exact derivative of an ElementaryForm."""
    out = ElementaryForm(cancel_gap=form.cancel_gap)
    if form.loggamma:
        out.psi[0] = out.psi.get(0, _ZERO) + form.loggamma
    for i, c in form.psi.items():
        out.psi[i + 1] = out.psi.get(i + 1, _ZERO) + c
    for p, c in form.powers.items():
        if p:
            out.powers[p - 1] = out.powers.get(p - 1, _ZERO) + p * c
    if form.log:
        out.powers[-1] = out.powers.get(-1, _ZERO) + form.log
    if form.tlog:  # d/dt (t ln t) = ln t + 1
        out.log += form.tlog
        out.const += form.tlog
    out.psi = {i: c for i, c in out.psi.items() if c}
    out.powers = {p: c for p, c in out.powers.items() if c}
    return out


@lru_cache(maxsize=None)
def _phi_form(n: int, m: int) -> ElementaryForm:
    """phi_{n,0} = R_n = (-1)^n (ln Gamma - S_n), and phi_{n,m} = -d/dt
    phi_{n,m-1} for m >= 1, so phi_{n,m}^(i) = (-1)^i phi_{n,m+i}."""
    if m == 0:
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
            form.powers[1 - 2 * k] = -sign * bernoulli(2 * k) / (2 * k * (2 * k - 1))
        return form
    for k in range(m):  # bottom-up, so each call recurses one level at most
        previous = _phi_form(n, k)
    form = differentiate(previous).scaled(Fraction(-1))
    form.cancel_gap += 1
    return form


def form_for(spec: RemainderSpec) -> ElementaryForm:
    """A copy of the member's memoised form, free to mutate."""
    return _phi_form(*spec.family_indices).scaled(Fraction(1))


def _elevated(policy: PrecisionPolicy, cancel_gap: int, t_bits: int) -> PrecisionPolicy:
    """Policy with enough extra working bits to survive large-t cancellation."""
    if t_bits <= 0:
        return policy
    return PrecisionPolicy(policy.working_bits + cancel_gap * t_bits + 16)


def _assemble(terms: tuple, pieces: dict, base_bits: int) -> tuple:
    """Sum c * piece over ``terms`` = (D, ((c * D, piece key), ...)) as a
    raw mpf tuple: the pieces as integers at one exponent, dotted exactly
    with the integers c * D, and the dot divided by D and rounded to
    nearest once at base_bits + 32 plus the bits of the largest term,
    |c * piece| < 2^(bits(c * D * piece) - bits(D) + 1)."""
    den, coefficients = terms
    mantissas, exp = aligned([man_exp(pieces[key]) for _, key in coefficients])
    products = [c * x for (c, _), x in zip(coefficients, mantissas)]
    top = max(map(abs, products)).bit_length() + exp - den.bit_length() + 1
    prec = base_bits + 32 + max(0, top)
    total = libmp.from_man_exp(sum(products), exp)
    return libmp.mpf_div(total, libmp.from_int(den), prec, libmp.round_nearest)


@lru_cache(maxsize=None)
def _phi_terms(n: int, m: int) -> tuple:
    """phi_{n,m}'s terms over their common denominator D, in order:
    (D, ((c * D, piece key), ...))."""
    terms = list(_iter_terms(_phi_form(n, m)))
    den = lcm(*(c.denominator for c, _ in terms))
    return den, tuple((int(c * den), key) for c, key in terms)


def _iter_terms(form: ElementaryForm):
    if form.loggamma:
        yield form.loggamma, "loggamma"
    for i in sorted(form.psi):
        yield form.psi[i], ("psi", i)
    for p in sorted(form.powers):
        yield form.powers[p], ("pow", p)
    if form.log:
        yield form.log, "log"
    if form.tlog:
        yield form.tlog, "tlog"
    if form.log2pi:
        yield form.log2pi, "log2pi"
    if form.const:
        yield form.const, "const"


def _pieces_for(
    forms: list[ElementaryForm], tv: mp.mpf, policy: PrecisionPolicy
) -> dict:
    """Evaluate every elementary piece needed by ``forms`` once, as raw mpf
    tuples; powers and logs are rounded at one internal precision."""
    need_loggamma = any(f.loggamma for f in forms)
    psi_orders = sorted({i for f in forms for i in f.psi})
    power_exps = sorted({p for f in forms for p in f.powers})
    need_log = any(f.log for f in forms) or any(f.tlog for f in forms)
    need_log2pi = any(f.log2pi for f in forms)

    pieces: dict = {"const": libmp.fone}
    if psi_orders:
        block = polygamma_block(psi_orders[-1], tv, policy, k_lo=psi_orders[0])
        for i in psi_orders:
            pieces[("psi", i)] = block[i]._mpf_
    if need_loggamma:
        pieces["loggamma"] = log_gamma(tv, policy)._mpf_
    prec, rnd = policy.internal_bits(abs(mag_bits(tv)) + 8), libmp.round_nearest
    t = tv._mpf_
    for p in power_exps:
        pieces[("pow", p)] = libmp.mpf_pow_int(t, p, prec, rnd)
    if need_log:
        pieces["log"] = lt = libmp.mpf_log(t, prec, rnd)
        pieces["tlog"] = libmp.mpf_mul(t, lt, prec, rnd)
    if need_log2pi:
        two_pi = libmp.mpf_shift(libmp.mpf_pi(prec, rnd), 1)
        pieces["log2pi"] = libmp.mpf_log(two_pi, prec, rnd)
    return pieces


def _members(cells: dict) -> list[tuple[int, int]]:
    """Every phi_{n,j} that the rows of ``cells`` read."""
    return sorted({(n, m + i) for (n, m), i_max in cells.items() for i in range(i_max + 1)})


def _assembled(cells: dict, tv: mp.mpf, policy: PrecisionPolicy) -> dict:
    """phi_{n,j} as raw tuples, assembled from the elementary pieces: one
    set of pieces at the largest elevation among the cells, and one
    assembly per distinct phi_{n,j}."""
    members = _members(cells)
    pol = _elevated(policy, max(_phi_form(*nm).cancel_gap for nm in cells), mag_bits(tv))
    pieces = _pieces_for([_phi_form(*nj) for nj in members], tv, pol)
    return {nj: _assemble(_phi_terms(*nj), pieces, pol.working_bits) for nj in members}


def _tails(cells: dict, tv: mp.mpf, policy: PrecisionPolicy) -> dict | None:
    """phi_{n,j} as raw tuples from the Bernoulli tail

        phi_{n,j}(t) = (-1)^n sum_{i>n} B_2i (2i+j-2)!/(2i)! t^-(2i+j-1),

    that is (-1)^(n+j) times the tail i > n of the series of psi^(j-1)
    (of ln Gamma for j = 0).  One series call per distinct n serves all
    its orders, and each order's bits depend only on (n, j, t, policy).
    None when a series' terms grow before its target, as a high n's do
    first: so the n are tried from the highest down."""
    orders: dict = {}
    for n, j in _members(cells):  # sorted: each n's first j is its lowest
        orders[n] = (orders.get(n, (j, j))[0], j)
    values = {}
    for n, (lo, hi) in sorted(orders.items(), reverse=True):
        tail = _series_tail(n + 1, lo - 1, hi - 1, tv, policy.working_bits)
        if tail is None:
            return None
        for j, v in zip(range(lo, hi + 1), tail):
            values[n, j] = libmp.mpf_neg(v) if (n + j) % 2 else v
    return values


def _phi_rows(cells: dict, t, policy: PrecisionPolicy) -> dict:
    """phi_{n,m}^(0..i_max) at t for each ``cells`` entry (n, m): i_max, as
    phi_{n,m}^(i) = (-1)^i phi_{n,m+i}.

    Two regimes.  At t >= ``_shift_target(working_bits)``, where the block
    would not shift, each phi_{n,j} is its own Bernoulli tail (``_tails``),
    which envelops its remainder for real t > 0 (DLMF 5.11(ii)): no
    elevation, no ln Gamma, no pieces and no cancellation, and a cell's bits
    do not depend on the other cells.  Below that t, or when a tail's terms
    grow before their target (the fallback, for all cells at once), the
    pieces are assembled at the elevated precision (``_assembled``)."""
    tv = as_point(t, policy.internal_bits(), "evaluation")
    values = None
    if tv >= _shift_target(policy.working_bits):
        values = _tails(cells, tv, policy)
    if values is None:
        values = _assembled(cells, tv, policy)
    rows = {}
    for (n, m), i_max in cells.items():
        row = [values[n, m + i] for i in range(i_max + 1)]
        rows[n, m] = [mp.make_mpf(libmp.mpf_neg(v) if i % 2 else v) for i, v in enumerate(row)]
    return rows


def phi_derivatives(
    spec: RemainderSpec, t, i_max: int, policy: PrecisionPolicy | None = None
) -> list[mp.mpf]:
    """Derivatives phi^(0..i_max) of the selected member at t > 0: the
    one-cell case of ``_phi_rows``, so the large-t elevation is phi's own."""
    nm = spec.family_indices
    return _phi_rows({nm: as_index(i_max, "i_max")}, t, policy or PrecisionPolicy())[nm]


def q_value(t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """Q(t) = psi'(t) - 1/t - 1/(2t^2) - 1/(6t^3) + 1/(30t^5) by the explicit
    formula, assembled independently of the ElementaryForm machinery."""
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "q_value")
    t_bits = mag_bits(tv)
    pol = _elevated(policy, 7, t_bits)
    psi1 = polygamma(1, tv, pol)
    # largest rational term governs the assembly precision
    rat_bits = max(0, 5 * max(0, -t_bits) + 4)
    prec = pol.working_bits + 32 + max(rat_bits, max(0, mag_bits(psi1)))
    with mp.workprec(prec):
        inv = 1 / tv
        inv2 = inv * inv
        inv3 = inv2 * inv
        inv5 = inv3 * inv2
        return psi1 - inv - inv2 / 2 - inv3 / 6 + inv5 / 30


def pole_order(spec: RemainderSpec) -> int:
    """Order of the t -> 0+ pole of the member (0 for the log-only case)."""
    n, m = spec.family_indices
    if n == 0:
        return m
    return 2 * n + m - 1
