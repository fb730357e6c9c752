"""Gamma-function asymptotic remainders and their derivatives.

The central family is

    phi_{n,m}(t) = (-1)^m * d^m/dt^m R_n(t),

where R_n is the signed remainder of the Stirling series after n
Bernoulli terms:

    R_n(t) = (-1)^n [ ln Gamma(t) - (t - 1/2) ln t + t - ln(2 pi)/2
                      - sum_{k=1}^{n} B_2k / (2k(2k-1) t^(2k-1)) ].

Differentiating R_n term by term gives the Bernoulli tail

    phi_{n,j}(t) = (-1)^n sum_{i>n} B_2i (2i+j-2)!/(2i)! t^-(2i+j-1),

which for real t > 0 envelops its remainder (DLMF 5.11(ii)).  Every
member is evaluated as this tail, at every t > 0, by one shift-and-series
evaluator: ``polygamma_block(..., first=n+1)`` and ``log_gamma(...,
first=n+1)`` return the tails of the series of psi^(k) and of ln Gamma
(``polygamma._series_tail``).  The remainder itself is shifted to w = t + N
past the polygamma shift target t0 = max(10, working_bits/3), summed there
relative to its own size, and the shift is undone by a fixed-point
correction made of the recurrence of ln Gamma and psi and the explicit
Bernoulli coefficients of the Stirling partial sum (DLMF 5.5.2, 5.11.1).
From t0 on, N = 0.  No member needs psi or ln Gamma themselves, an
elevated precision or a cancelling sum of pieces.

:class:`ElementaryForm`, :func:`differentiate` and :func:`form_for` write
each member as an exact rational combination of ln Gamma, polygamma
functions, powers of t, ln t, t ln t and ln(2 pi).  They are kept as the
symbolic reference that tests and the benchmark's oracle evaluate with
mpmath; the evaluator does not use them.

Named specials are labels for family members:

    Q            = phi_{2,2} = psi'(t) - 1/t - 1/(2t^2) - 1/(6t^3) + 1/(30t^5)
    PsiGap       = phi_{0,1} = ln t - 1/(2t) - psi(t)
    TrigammaGap3 = phi_{1,2} = 1/t + 1/(2t^2) + 1/(6t^3) - psi'(t)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath import libmp

from .bernoulli import bernoulli
from .errors import InvalidSpec
from .polygamma import TAIL_FIRST_MAX, log_gamma, polygamma, polygamma_block
from .precision import PrecisionPolicy, as_index, as_point, mag_bits

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

PHI_N_MAX = TAIL_FIRST_MAX - 1  # phi_{n,j} is the series tail from term n + 1
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
    """Exact rational combination of the elementary closed-form pieces: the
    symbolic reference for a member, not used to evaluate it.

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
    cancel_gap: int = 4  # log2-per-octave bound on the pieces' large-t cancellation

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


def _phi_rows(cells: dict, t, policy: PrecisionPolicy) -> dict:
    """phi_{n,m}^(0..i_max) at t for each ``cells`` entry (n, m): i_max.
    phi_{n,m}^(i) = (-1)^i phi_{n,m+i} = (-1)^(n+m) R_{m+i-1}, with R_k the
    tail i > n of the series of psi^(k) (of ln Gamma for k = -1): one block
    of tails per distinct n, from the lowest order a cell reads."""
    tv = as_point(t, policy.internal_bits(), "evaluation")
    orders: dict = {}
    for (n, m), i_max in cells.items():
        lo, hi = orders.get(n, (m, m + i_max))
        orders[n] = (min(lo, m), max(hi, m + i_max))
    tails = {}
    for n, (lo, hi) in orders.items():
        tails[n] = [log_gamma(tv, policy, first=n + 1) if lo == 0 else None]
        if hi:
            tails[n] += polygamma_block(hi - 1, tv, policy, k_lo=max(lo - 1, 0), first=n + 1)
    rows = {}
    for (n, m), i_max in cells.items():
        row = tails[n][m : m + i_max + 1]
        rows[n, m] = [mp.make_mpf(libmp.mpf_neg(v._mpf_)) if (n + m) % 2 else v for v in row]
    return rows


def phi_derivatives(
    spec: RemainderSpec, t, i_max: int, policy: PrecisionPolicy | None = None
) -> list[mp.mpf]:
    """Derivatives phi^(0..i_max) of the selected member at t > 0: the
    one-cell case of ``_phi_rows``, with the bits of every other scope."""
    nm = spec.family_indices
    return _phi_rows({nm: as_index(i_max, "i_max")}, t, policy or PrecisionPolicy())[nm]


def q_value(t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """Q(t) = psi'(t) - 1/t - 1/(2t^2) - 1/(6t^3) + 1/(30t^5) by the explicit
    formula, independently of the remainder tails: psi'(t) at working bits
    raised by 7 bits per octave of t above 1, the terms' cancellation."""
    policy = policy or PrecisionPolicy()
    tv = as_point(t, policy.internal_bits(), "q_value")
    t_bits = mag_bits(tv)
    pol = PrecisionPolicy(policy.working_bits + 7 * t_bits + 16) if t_bits > 0 else policy
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
