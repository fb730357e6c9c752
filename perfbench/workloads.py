"""Seeded inputs, jobs and oracles of the benchmark workloads.

Every workload is a list of top-level public calls into ``cmdeg``.  The
inputs depend only on (workload, seed).  A job times each call, keeps its
result for the oracle, and reduces it to an exact digest so that results
can be compared across processes (untraced against traced, and one
process against the next).

Why these four (see README.md for the full table):

table    16 members on one shared grid through the CLI: polygamma and the
         product-rule signed sums split the time about evenly.
bracket  the three degree brackets of acceptance criterion 09: many lattice
         exponents per member share one derivative cache, so the signed
         sums dominate.
points   independent ``phi_derivatives`` calls that share nothing:
         polygamma dominates, and a cross-call cache only costs.
laplace  the only workload that runs ``cmdeg.kernel``; the control for
         polygamma and degree changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from cmdeg import (
    Grid,
    PrecisionPolicy,
    RemainderSpec,
    cli,
    degree,
    differentiate,
    form_for,
    kernel,
    q_value,
    remainders,
)

WORKLOADS = ("table", "bracket", "points", "laplace")

BITS = 128
MAX_ORDER = 12

TABLE_GRID_POINTS = 8
BRACKET_GRID_POINTS = 16
POINTS_CALLS = 126
LAPLACE_CALLS = 12

# Criterion 09: (member, lattice step, lower end, [lo, hi) of the upper end).
BRACKETS = (
    ("PsiGap", Fraction(1, 20), 1, (1, 1.05)),
    ("TrigammaGap3", Fraction(1, 20), 3, (3, 3.05)),
    ("Q", Fraction(1), 4, (4, 6)),  # |upper - 5| <= 1 and 4 inside
)
POINTS_BITS = (128, 256, 512)
POINTS_I_MAX = 12

# Lower ends of the 4x4 table at lattice step 1 on the benchmark grid,
# recorded at the commit that introduced the benchmark.  Cells (0,3) and
# (1,3) have real scan violations below their conjectured degrees.
TABLE_LOWER_REFERENCE = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 2,
    (1, 0): 1, (1, 1): 2, (1, 2): 3, (1, 3): 3,
    (2, 0): 2, (2, 1): 3, (2, 2): 4, (2, 3): 5,
    (3, 0): 4, (3, 1): 5, (3, 2): 6, (3, 3): 7,
}  # fmt: skip

LAPLACE_TOLERANCE = mp.mpf("1e-20")


def _log_grid(rng: random.Random, points: int) -> str:
    """A log grid whose endpoints are drawn inside the binary octave of 1e-3
    and of 1e4.  Every seed gives new t values but the same precision
    elevation per point, so the work does not depend on the seed."""
    t_min = rng.randint(977, 1000)  # (2^-10, 1e-3], in units of 1e-6
    t_max = rng.randint(8193, 10000)  # (2^13, 1e4]
    return f"log:{t_min}e-6:{t_max}:{points}"


def _log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[str]:
    """One point of [lo, hi] in each of ``count`` equal strata of log t,
    ascending.  Each is drawn from the middle tenth of its stratum: every
    seed gives new t values, but the cost of the k-th call hardly changes,
    and the slowest call is always the first (smallest t, and it builds the
    tanh-sinh node cache)."""
    span = hi / lo
    return [
        f"{lo * span ** ((i + 0.45 + 0.1 * rng.random()) / count):.12g}" for i in range(count)
    ]


def _points_design() -> list[tuple]:
    """(n, m, i_max, bits, stratum) of every ``points`` call.  Each member,
    order and precision occurs about equally often, and the pairing is
    fixed, so the work hardly depends on the seed."""
    design = random.Random("points-design")
    members = [(n, m) for n in range(remainders.PHI_N_MAX + 1) for m in range(remainders.PHI_M_MAX + 1)]
    columns = []
    for values in (members, range(POINTS_I_MAX + 1), POINTS_BITS, range(POINTS_CALLS)):
        column = [v for _ in range(POINTS_CALLS) for v in values][:POINTS_CALLS]
        design.shuffle(column)
        columns.append(column)
    return [(n, m, i_max, bits, k) for (n, m), i_max, bits, k in zip(*columns)]


def make_inputs(workload: str, seed: int) -> list[tuple]:
    """The top-level calls of one job, as plain tuples."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        return [("conjectures", _log_grid(rng, TABLE_GRID_POINTS))]
    if workload == "bracket":
        grid = _log_grid(rng, BRACKET_GRID_POINTS)
        return [(name, str(step), grid) for name, step, *_ in BRACKETS]
    if workload == "points":
        # t in the middle tenth of stratum k of log t over [1e-3, 1e4]; a
        # float, so that cmdeg and the oracle see the same exact value
        t = [float(x) for x in _log_strata(rng, POINTS_CALLS, 1e-3, 1e4)]
        return [(n, m, t[k], i_max, bits) for n, m, i_max, bits, k in _points_design()]
    if workload == "laplace":
        return [(t,) for t in _log_strata(rng, LAPLACE_CALLS, 1.0, 20.0)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# exact digests of results


def _mpf_key(x) -> str:
    x = mp.mpf(x)
    return f"{x.man}p{x.exp}"


def _key(result) -> str:
    if isinstance(result, str):
        return result
    if isinstance(result, list):
        return ",".join(_mpf_key(x) for x in result)
    if isinstance(result, degree.DegreeBracket):
        return f"{result.lower}|{_mpf_key(result.upper)}|{result.upper_method}"
    return _mpf_key(result)


def digest(result) -> str:
    """Short exact fingerprint of one call's result."""
    return hashlib.sha256(_key(result).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# jobs


def prepare(workload: str, seed: int, out_dir: Path) -> list:
    """The calls of one job, as zero-argument callables.  Module attributes
    are looked up at call time, so a tracer installed afterwards sees every
    call."""
    inputs = make_inputs(workload, seed)
    policy = PrecisionPolicy(working_bits=BITS)
    if workload == "table":
        ((_, grid),) = inputs
        out = out_dir / "table.json"
        argv = ["conjectures", "--n-max", "3", "--m-max", "3", "--prec", str(BITS),
                "--max-order", str(MAX_ORDER), "--grid", grid, "--out", str(out)]  # fmt: skip

        def table_call():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cmdeg conjectures exited with {code}")
            return out.read_text(encoding="utf-8")

        return [table_call]
    if workload == "bracket":
        return [
            lambda name=name, step=step, grid=grid: degree.degree_bracket(
                RemainderSpec(special=name), Fraction(step), MAX_ORDER, Grid.parse(grid), policy
            )
            for name, step, grid in inputs
        ]
    if workload == "points":
        return [
            lambda n=n, m=m, t=t, i_max=i_max, bits=bits: remainders.phi_derivatives(
                RemainderSpec(n=n, m=m), t, i_max, PrecisionPolicy(working_bits=bits)
            )
            for n, m, t, i_max, bits in inputs
        ]
    if workload == "laplace":
        return [lambda t=t: kernel.laplace_reconstruct(t, policy) for (t,) in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def run_job(calls: list, clock=time.perf_counter):
    """Make every call once.  Returns (times, results, errors): ``times``
    holds the (start, end) of each call on ``clock``; a call that raised
    has result None and its error text in ``errors``."""
    times, results, errors = [], [], []
    for call in calls:
        start = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed call is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append((start, clock()))
        results.append(result)
        errors.append(error)
    return times, results, errors


# ---------------------------------------------------------------------------
# oracles: each returns None when the result is right, else the reason


def check_laplace(value, q) -> str | None:
    """Criterion 07: the quadrature matches the direct Q(t) to 1e-20."""
    with mp.workprec(256):
        err = abs(mp.mpf(value) - q)
        if not err < LAPLACE_TOLERANCE:
            return f"|laplace - Q| = {mp.nstr(err, 3)} >= 1e-20"
    return None


def check_table(text: str) -> str | None:
    """Semantics of the conjecture table: no cell error, every established
    cell contains its degree, lower ends as recorded.  Upper ends are only
    required to lie above the lower ends."""
    record = json.loads(text)
    cells = {(c["n"], c["m"]): c for c in record["cells"]}
    if set(cells) != set(TABLE_LOWER_REFERENCE):
        return f"table has cells {sorted(cells)}"
    for key, cell in sorted(cells.items()):
        if "error" in cell:
            return f"cell {key}: {cell['error']}"
        lower = Fraction(cell["lower"]["decimal"])
        if lower != TABLE_LOWER_REFERENCE[key]:
            return f"cell {key}: lower {lower} != {TABLE_LOWER_REFERENCE[key]}"
        if Fraction(cell["upper"]["decimal"]) < lower:
            return f"cell {key}: upper below lower"
        if cell["established"] is not None and cell["contains_conjectured"] is not True:
            return f"cell {key}: established degree {cell['established']} outside bracket"
    return None


def check_bracket(name: str, bracket) -> str | None:
    """Criterion 09: the lower end on the degree, the upper end close above."""
    _, _, lower, (lo, hi) = next(b for b in BRACKETS if b[0] == name)
    if bracket.lower != lower:
        return f"{name}: lower {bracket.lower} != {lower}"
    if not lo <= float(bracket.upper) < hi:
        return f"{name}: upper {float(bracket.upper)} not in [{lo}, {hi})"
    return None


def _piece_sum(form, t) -> mp.mpf:
    """Value of an ElementaryForm at t from mpmath's own functions, at the
    working precision in force."""
    total = form.const + form.loggamma * mp.loggamma(t) + form.log2pi * mp.log(2 * mp.pi)
    total += sum(c * mp.psi(i, t) for i, c in form.psi.items())
    total += sum(c * t**p for p, c in form.powers.items())
    return total + (form.log + form.tlog * t) * mp.log(t)


def points_oracle(n: int, m: int, t: float, i_max: int, bits: int) -> list:
    """phi_{n,m}^(0..i_max)(t) from the exact coefficients of ``form_for``
    and ``differentiate`` and mpmath's ``psi``/``loggamma``/``log``, with
    the precision raised past the form's large-t cancellation."""
    form = form_for(RemainderSpec(n=n, m=m))
    t_bits = max(0, math.ceil(math.log2(t)))
    values = []
    with mp.workprec(bits + form.cancel_gap * t_bits + 64):
        tv = mp.mpf(t)
        for _ in range(i_max + 1):
            values.append(_piece_sum(form, tv))
            form = differentiate(form)
    return values


def check_points(call: tuple, ders: list) -> str | None:
    """Each derivative within ``abs_error_target * max(1, |oracle|)``, the
    rule of ``polygamma.agreement_check``."""
    n, m, t, i_max, bits = call
    target = PrecisionPolicy(working_bits=bits).abs_error_target
    oracle = points_oracle(*call)
    if len(ders) != len(oracle):
        return f"phi({n},{m}) at t={t}: {len(ders)} derivatives, expected {len(oracle)}"
    with mp.workprec(4 * bits):
        for j, (got, want) in enumerate(zip(ders, oracle)):
            err = abs(mp.mpf(got) - want)
            if not err <= target * max(1, abs(want)):
                return f"phi({n},{m})^({j}) at t={t}, {bits} bits: error {mp.nstr(err, 3)}"
    return None


def check(workload: str, call: tuple, result) -> str | None:
    """Oracle verdict for one call of ``workload``."""
    if workload == "table":
        return check_table(result)
    if workload == "bracket":
        return check_bracket(call[0], result)
    if workload == "points":
        return check_points(call, result)
    if workload == "laplace":
        return check_laplace(result, q_value(call[0], PrecisionPolicy(working_bits=BITS)))
    raise ValueError(f"unknown workload {workload!r}")
