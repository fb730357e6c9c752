"""Gamma-function asymptotic remainders and their derivatives.

The central family is

    phi_{n,m}(t) = (-1)^m * d^m/dt^m R_n(t),

where R_n is the signed remainder of the Stirling series after n
Bernoulli terms:

    R_n(t) = (-1)^n [ ln Gamma(t) - (t - 1/2) ln t + t - ln(2 pi)/2
                      - sum_{k=1}^{n} B_2k / (2k(2k-1) t^(2k-1)) ].

Every member is an exact rational combination of ln Gamma, polygamma
functions, integer powers of t, ln t, t ln t and the constant ln(2 pi).
That combination is represented symbolically by :class:`ElementaryForm`
with Fraction coefficients, differentiated exactly, and only evaluated
numerically at the end -- no numerical differentiation anywhere.

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

from .bernoulli import bernoulli
from .errors import InvalidIndex, InvalidSpec, NonPositiveArgument
from .polygamma import log_gamma, polygamma, polygamma_block
from .precision import PrecisionPolicy, as_mpf, mag_bits

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
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise InvalidSpec("n and m must be integers")
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
    return _phi_form(*spec.family_indices)


def _coeff_bits(c: Fraction) -> int:
    return c.numerator.bit_length() - c.denominator.bit_length() + 1


def _frac_mpf(c: Fraction) -> mp.mpf:
    return mp.mpf(c.numerator) / c.denominator


def _elevated(policy: PrecisionPolicy, cancel_gap: int, t_bits: int) -> PrecisionPolicy:
    """Policy with enough extra working bits to survive large-t cancellation."""
    if t_bits <= 0:
        return policy
    return PrecisionPolicy(policy.working_bits + cancel_gap * t_bits + 16)


def _assemble(form: ElementaryForm, pieces: dict, base_bits: int) -> mp.mpf:
    """Combine precomputed elementary pieces; precision follows the largest term."""
    max_bits = 0
    for c, key in _iter_terms(form):
        piece = pieces[key]
        if piece:
            max_bits = max(max_bits, _coeff_bits(c) + mag_bits(piece))
    prec = base_bits + 32 + max(0, max_bits)
    with mp.workprec(prec):
        total = mp.mpf(0)
        for c, key in _iter_terms(form):
            total += _frac_mpf(c) * pieces[key]
    return total


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
    """Evaluate every elementary piece needed by ``forms`` once."""
    need_loggamma = any(f.loggamma for f in forms)
    psi_orders = sorted({i for f in forms for i in f.psi})
    power_exps = sorted({p for f in forms for p in f.powers})
    need_log = any(f.log for f in forms) or any(f.tlog for f in forms)
    need_log2pi = any(f.log2pi for f in forms)

    pieces: dict = {"const": mp.mpf(1)}
    if psi_orders:
        block = polygamma_block(psi_orders[-1], tv, policy)
        for i in psi_orders:
            pieces[("psi", i)] = block[i]
    if need_loggamma:
        pieces["loggamma"] = log_gamma(tv, policy)
    with mp.workprec(policy.internal_bits(abs(mag_bits(tv)) + 8)):
        for p in power_exps:
            pieces[("pow", p)] = tv**p
        if need_log:
            lt = mp.log(tv)
            pieces["log"] = lt
            pieces["tlog"] = tv * lt
        if need_log2pi:
            pieces["log2pi"] = mp.log(2 * mp.pi)
    return pieces


def phi_derivatives(
    spec: RemainderSpec, t, i_max: int, policy: PrecisionPolicy | None = None
) -> list[mp.mpf]:
    """Derivatives phi^(0..i_max) of the selected member at t > 0, read off
    the family as phi_{n,m}^(i) = (-1)^i phi_{n,m+i}.  Every member shares
    one set of elementary pieces; the large-t elevation is phi's own."""
    if not isinstance(i_max, int) or i_max < 0:
        raise InvalidIndex(f"i_max must be a nonnegative integer, got {i_max!r}")
    policy = policy or PrecisionPolicy()
    tv = as_mpf(t, policy.internal_bits())
    if not tv > 0:
        raise NonPositiveArgument(f"evaluation requires t > 0, got {t!r}")
    n, m = spec.family_indices
    forms = [_phi_form(n, m + i) for i in range(i_max + 1)]
    pol = _elevated(policy, forms[0].cancel_gap, mag_bits(tv))
    pieces = _pieces_for(forms, tv, pol)
    values = [_assemble(f, pieces, pol.working_bits) for f in forms]
    return [mp.fneg(v, exact=True) if i % 2 else v for i, v in enumerate(values)]


def q_value(t, policy: PrecisionPolicy | None = None) -> mp.mpf:
    """Q(t) = psi'(t) - 1/t - 1/(2t^2) - 1/(6t^3) + 1/(30t^5) by the explicit
    formula, assembled independently of the ElementaryForm machinery."""
    policy = policy or PrecisionPolicy()
    tv = as_mpf(t, policy.internal_bits())
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
