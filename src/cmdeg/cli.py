"""Command-line interface.

Subcommands
-----------
eval         evaluate a remainder-family member (or one of its derivatives)
bernoulli    exact Bernoulli numbers
kernel       Laplace-kernel values (--order/--s) and the sub-operations
             `coeffs` (exact expansion coefficients), `laplace` (integral
             reconstruction of Q) and `scan` (coefficient positivity)
cmcheck      sign scan of (-1)^k [t^r phi]^(k) over a grid
degree       evidence bracket for a CM degree
conjectures  bracket the whole phi_{n,m} table and test conjectured values

Output formats: json (default), csv, text.  Output is deterministic:
identical invocations produce byte-identical bytes.  Numbers are emitted
as decimal strings with explicit digit counts; exact rationals as
"numerator/denominator" strings.

Exit codes: 0 success, 1 computation error (a structured error record is
printed), 2 usage error (argparse synopsis on standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath as mp

from .bernoulli import bernoulli_table
from .degree import (
    CmCheckReport,
    ConjectureScanReport,
    DegreeBracket,
    Grid,
    _lattice_step,
    cm_check,
    conjecture_scan,
    default_grid,
    degree_bracket,
)
from .errors import CmdegError
from .kernel import h4_positivity_scan, h4_series_coefficient, kernel_h, laplace_reconstruct
from .precision import PrecisionPolicy, as_index, as_mpf
from .remainders import SPECIAL_NAMES, RemainderSpec, phi_derivatives

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 2


def _arg(convert):
    """argparse ``type=`` for ``convert``: a value it rejects is a usage error."""

    def parse(text: str):
        try:
            return convert(text)
        except (CmdegError, ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _digits(bits: int) -> int:
    return max(17, int(bits * 0.30103) + 2)


def _real(x, bits: int) -> dict:
    d = _digits(bits)
    if not isinstance(x, mp.mpf):
        x = as_mpf(x, bits + 16)  # never re-round an already-computed value
    # a value may carry tens of thousands of mantissa bits (a large phi^(i)
    # keeps every bit above 2^-working_bits), more than Python converts to
    # a decimal string; 4 d + 64 bits hold the d printed digits
    with mp.workprec(4 * d + 64):
        x = +x
    return {"decimal": mp.nstr(x, d), "digits": d}


def _spec_from_args(args) -> RemainderSpec:
    if args.special is not None:
        return RemainderSpec(special=args.special)
    if args.spec is None:
        raise CmdegError("one of --spec n,m or --special NAME is required")
    try:
        n_str, m_str = args.spec.split(",")
        return RemainderSpec(n=int(n_str), m=int(m_str))
    except ValueError as exc:
        raise CmdegError(f"--spec must look like 'n,m', got {args.spec!r}") from exc


# ---------------------------------------------------------------------------
# per-command record builders; each returns (json_record, csv_rows)


def _run_eval(args) -> tuple[dict, list[list[str]]]:
    spec = _spec_from_args(args)
    bits = args.policy.working_bits
    ders = phi_derivatives(spec, args.t, args.derivative, args.policy)
    record = {
        "spec": spec.label,
        "t": args.t,
        "derivative": args.derivative,
        "precision_bits": bits,
        "value": _real(ders[args.derivative], bits),
    }
    rows = [["t", "derivative", "value"]] + [
        [args.t, str(i), _real(v, bits)["decimal"]] for i, v in enumerate(ders)
    ]
    return record, rows


def _run_bernoulli(args) -> tuple[dict, list[list[str]]]:
    table = bernoulli_table(args.n_max)
    record = {
        "n_max": args.n_max,
        "values": [{"n": i, "value": str(b)} for i, b in enumerate(table)],
    }
    rows = [["n", "numerator", "denominator"]] + [
        [str(i), str(b.numerator), str(b.denominator)] for i, b in enumerate(table)
    ]
    return record, rows


def _run_kernel(args) -> tuple[dict, list[list[str]]]:
    bits = args.policy.working_bits
    if args.kernel_cmd == "coeffs":
        coeffs = {k: h4_series_coefficient(k) for k in range(args.from_k, args.to_k + 1)}
        record = {
            "from": args.from_k,
            "to": args.to_k,
            "coefficients": [
                {"k": k, "value": str(c), "doubled": str(2 * c)} for k, c in coeffs.items()
            ],
        }
        rows = [["k", "numerator", "denominator"]] + [
            [str(k), str(c.numerator), str(c.denominator)] for k, c in coeffs.items()
        ]
        return record, rows
    if args.kernel_cmd == "scan":
        rep = h4_positivity_scan(args.k_max)
        record = {
            "k_min": rep.k_min,
            "k_max": rep.k_max,
            "checked": rep.checked,
            "all_positive": rep.all_positive,
            "failures": list(rep.failures),
        }
        rows = [
            ["k_min", "k_max", "checked", "all_positive"],
            [str(rep.k_min), str(rep.k_max), str(rep.checked), str(rep.all_positive)],
        ]
        return record, rows
    if args.kernel_cmd == "laplace":
        value = laplace_reconstruct(args.t, args.policy, args.tol)
        record = {
            "t": args.t,
            "tolerance": repr(args.tol),
            "precision_bits": bits,
            "value": _real(value, bits),
        }
        rows = [["t", "value"], [args.t, record["value"]["decimal"]]]
        return record, rows
    if args.s is None:
        raise CmdegError("kernel requires --s (or a sub-operation: coeffs, laplace, scan)")
    value = kernel_h(args.order, args.s, args.policy)
    record = {
        "order": args.order,
        "s": args.s,
        "precision_bits": bits,
        "value": _real(value, bits),
    }
    rows = [["order", "s", "value"], [str(args.order), args.s, record["value"]["decimal"]]]
    return record, rows


def _report_record(report: CmCheckReport) -> dict:
    bits = report.working_bits
    return {
        "spec": report.spec.label,
        "r": str(report.r),
        "max_order": report.max_order,
        "grid": {
            "spacing": report.grid.spacing,
            "t_min": str(report.grid.t_min),
            "t_max": str(report.grid.t_max),
            "points": report.grid.points,
        },
        "precision_bits": bits,
        "verdict": report.verdict,
        "violation_count": len(report.violation_rows),
        "inconclusive_count": len(report.inconclusive),
        "violations": [
            {"t": _real(t, bits), "k": k, "value": _real(v, bits)}
            for t, k, v in report.violations
        ],
        "inconclusive": [{"t": _real(t, bits), "k": k} for t, k in report.inconclusive],
    }


def _report_rows(report: CmCheckReport) -> list[list[str]]:
    bits = report.working_bits
    rows = [["t", "k", "value"]]
    for t, k, v in report.values:
        rows.append([_real(t, bits)["decimal"], str(k), _real(v, bits)["decimal"]])
    return rows


def _run_cmcheck(args) -> tuple[dict, list[list[str]]]:
    spec = _spec_from_args(args)
    report = cm_check(spec, args.r, args.max_order, args.grid, args.policy)
    # only CSV prints every value: JSON and text leave them unrounded
    return _report_record(report), _report_rows(report) if args.format == "csv" else []


def _upper(bracket: DegreeBracket, bits: int) -> dict:
    """The upper end, from the exact violation exponent if any (49/10 in binary prints noise)."""
    exact = bracket.scan_violation_r
    return _real(bracket.upper if exact is None else exact, bits)


def _bracket_record(bracket: DegreeBracket, bits: int) -> dict:
    return {
        "spec": bracket.spec.label,
        "step": str(bracket.step),
        "precision_bits": bits,
        "lower": {"lattice": str(bracket.lower), **_real(bracket.lower, bits)},
        "upper": _upper(bracket, bits),
        "upper_method": bracket.upper_method,
        "scan_violation_r": (
            str(bracket.scan_violation_r)
            if bracket.scan_violation_r is not None
            else None
        ),
        "lower_evidence": {
            "verdict": bracket.lower_evidence.verdict,
            "r": str(bracket.lower_evidence.r),
            "violation_count": len(bracket.lower_evidence.violation_rows),
            "inconclusive_count": len(bracket.lower_evidence.inconclusive),
        },
    }


def _run_degree(args) -> tuple[dict, list[list[str]]]:
    spec = _spec_from_args(args)
    bracket = degree_bracket(spec, args.step, args.max_order, args.grid, args.policy)
    bits = args.policy.working_bits
    record = _bracket_record(bracket, bits)
    rows = [
        ["spec", "lower", "upper"],
        [
            bracket.spec.label,
            _real(bracket.lower, bits)["decimal"],
            _upper(bracket, bits)["decimal"],
        ],
    ]
    return record, rows


def _scan_rows(scan: ConjectureScanReport) -> list[list[str]]:
    bits = scan.working_bits
    rows = [["n", "m", "lower", "upper", "conjectured"]]
    for cell in scan.cells:
        if cell.bracket is None:
            rows.append([str(cell.n), str(cell.m), "", "", str(cell.conjectured)])
        else:
            rows.append(
                [
                    str(cell.n),
                    str(cell.m),
                    _real(cell.bracket.lower, bits)["decimal"],
                    _upper(cell.bracket, bits)["decimal"],
                    str(cell.conjectured),
                ]
            )
    return rows


def _run_conjectures(args) -> tuple[dict, list[list[str]]]:
    scan = conjecture_scan(
        args.n_max, args.m_max, args.max_order, args.grid, args.policy, args.step
    )
    bits = scan.working_bits
    cells = []
    for cell in scan.cells:
        entry = {
            "n": cell.n,
            "m": cell.m,
            "conjectured": cell.conjectured,
            "established": cell.established,
            "contains_conjectured": cell.contains_conjectured,
        }
        if cell.bracket is not None:
            entry["lower"] = _real(cell.bracket.lower, bits)
            entry["upper"] = _upper(cell.bracket, bits)
            entry["upper_method"] = cell.bracket.upper_method
        if cell.note:
            entry["note"] = cell.note
        if cell.error:
            entry["error"] = cell.error
        cells.append(entry)
    record = {
        "n_max": scan.n_max,
        "m_max": scan.m_max,
        "max_order": scan.max_order,
        "step": str(scan.step),
        "precision_bits": bits,
        "cells": cells,
    }
    return record, _scan_rows(scan)


# ---------------------------------------------------------------------------
# formatting and entry point


def _as_text(record: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in record.items():
        if isinstance(value, dict):
            if set(value) == {"decimal", "digits"}:
                lines.append(f"{pad}{key}: {value['decimal']}")
            else:
                lines.append(f"{pad}{key}:")
                lines.append(_as_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{len(value)} entries]")
            for item in value[:20]:
                if isinstance(item, dict):
                    lines.append(_as_text(item, indent + 1))
                else:
                    lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(args, record: dict, rows: list[list[str]]) -> None:
    record = {"schema": SCHEMA_VERSION, "command": args.command, **record}
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = "\n".join(",".join(row) for row in rows) + "\n"
    else:
        text = _as_text(record) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_RUNNERS = {
    "eval": _run_eval,
    "bernoulli": _run_bernoulli,
    "kernel": _run_kernel,
    "cmcheck": _run_cmcheck,
    "degree": _run_degree,
    "conjectures": _run_conjectures,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmdeg",
        description="Completely monotonic degree evidence for gamma-function "
        "asymptotic remainders.",
    )
    # The common options are accepted both before and after a `kernel`
    # sub-operation.  Their defaults live on the top-level parser only: a
    # sub-parser's own default would overwrite a value parsed before it.
    parser.set_defaults(policy=PrecisionPolicy(), format="json", out=None)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument(
        "--prec",
        dest="policy",
        type=_arg(lambda text: PrecisionPolicy(int(text))),
        metavar="PREC",
        help="working precision in bits (default 128)",
    )
    common.add_argument("--format", choices=("json", "csv", "text"), help="output format")
    common.add_argument("--out", help="write output to this file")

    member = argparse.ArgumentParser(add_help=False)
    group = member.add_mutually_exclusive_group()
    group.add_argument("--spec", default=None, help="family member as 'n,m'")
    group.add_argument(
        "--special",
        default=None,
        choices=SPECIAL_NAMES,
        help="named special member",
    )

    scan_opts = argparse.ArgumentParser(add_help=False)
    scan_opts.add_argument(
        "--max-order",
        type=_arg(lambda text: as_index(int(text), "max order")),
        default=12,
        help="largest derivative order (default 12)",
    )
    scan_opts.add_argument(
        "--grid",
        type=_arg(Grid.parse),
        default=default_grid(),
        help="grid as 'log:1e-3:1e4:200' (the default)",
    )

    step_opt = argparse.ArgumentParser(add_help=False)
    step_opt.add_argument(
        "--step",
        type=_arg(_lattice_step),
        default=Fraction(1),
        help="exponent lattice step (default 1)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common, member], help="evaluate a member")
    p.add_argument("--t", required=True, help="evaluation point (decimal string)")
    p.add_argument(
        "--derivative", type=int, default=0, help="derivative order to report (default 0)"
    )

    p = sub.add_parser("bernoulli", parents=[common], help="exact Bernoulli numbers")
    p.add_argument("--n-max", type=int, default=12, help="largest index (default 12)")

    p = sub.add_parser(
        "kernel",
        parents=[common],
        help="Laplace kernel: value mode (--order/--s) or coeffs/laplace/scan",
    )
    p.add_argument("--order", type=int, default=0, help="kernel derivative order 0..4")
    p.add_argument("--s", default=None, help="kernel argument (decimal string)")
    ksub = p.add_subparsers(dest="kernel_cmd")
    kp = ksub.add_parser("coeffs", parents=[common], help="exact expansion coefficients")
    kp.add_argument("--from", dest="from_k", type=int, required=True, help="first index")
    kp.add_argument("--to", dest="to_k", type=int, required=True, help="last index")
    kp = ksub.add_parser("laplace", parents=[common], help="reconstruct Q(t) by quadrature")
    kp.add_argument("--t", required=True, help="Laplace argument (decimal string)")
    kp.add_argument(
        "--tol", type=float, default=1e-22, help="absolute tolerance (default 1e-22)"
    )
    kp = ksub.add_parser("scan", parents=[common], help="coefficient positivity scan")
    kp.add_argument("--k-max", type=int, required=True, help="largest index checked")

    p = sub.add_parser("cmcheck", parents=[common, member, scan_opts], help="CM sign scan")
    p.add_argument("--r", required=True, help="exponent r (decimal or fraction string)")

    sub.add_parser(
        "degree", parents=[common, member, scan_opts, step_opt], help="CM degree bracket"
    )

    p = sub.add_parser(
        "conjectures",
        parents=[common, scan_opts, step_opt],
        help="bracket the phi_{n,m} conjecture table",
    )
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--m-max", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, rows = _RUNNERS[args.command](args)
    except CmdegError as exc:
        error_record = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(json.dumps(error_record, indent=2) + "\n")
        return 1
    _emit(args, record, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
