"""Command-line interface: record schemas, formats, determinism and exit
codes.

Oracle notes: decimal prefixes are frozen from the exact identities behind
the members -- Q(1) = pi^2/6 - 149/120 and Q'(1) = -2 zeta(3) + 7/3 (checked
elsewhere against 50-digit constants), h(1) against its closed form, and the
expansion coefficients against their published exact values.
"""

import hashlib
import importlib
import json
from math import factorial

import mpmath as mp
import pytest

from cmdeg import PrecisionPolicy, q_value
from cmdeg.cli import main

cli_module = importlib.import_module("cmdeg.cli")
degree_module = importlib.import_module("cmdeg.degree")

# frozen decimal prefixes (see module docstring)
Q1_PREFIX = "0.011600733514893103"
QPRIME1_PREFIX = "-0.070780472985855237466"
H1_PREFIX = "0.0000322624248819799405"

DOUBLED = ["5/7", "25/14", "193/84", "85/42", "5065/3696"]
HALVED = ["5/14", "25/28", "193/168", "85/84", "5065/7392"]

# `cmdeg kernel --order j --s s` value.decimal at 128 bits, frozen from the
# hand-derived exponential-polynomial closed forms that the Bernoulli-derived
# form replaced (s = 0.1 takes the Maclaurin branch)
KERNEL_GOLDEN = {
    0: {
        "0.1": "0.00000000003306051796016328658029125224684097657734",
        "0.25": "0.000000008060838504947609701649409619599628658245",
        "0.3": "0.00000002405302478069172097350805446721006350734",
        "1": "0.00003226242488197994055756066456711410242486",
        "3.7": "0.06326282178589447032489087402436964493591",
        "40": "3441.222222222222222392156392433885782757",
    },
    1: {
        "0.1": "0.000000001983465817169786792754405023100127743147",
        "0.25": "0.0000001933595240013765023684046030453244496954",
        "0.3": "0.0000004807005265403582255834707227108630153417",
        "1": "0.0001920015504229943284773712814008445541026",
        "3.7": "0.09391539254224103186172245667163344967489",
        "40": "349.3888888888888887232030729325169166452",
    },
    2: {
        "0.1": "0.00000009916007169216150295951960756861839443532",
        "0.25": "0.000003863973812647698927200874761497110589476",
        "0.3": "0.000008002087150292623383315779854525755802328",
        "1": "0.0009475787094027550351895675691181820680933",
        "3.7": "0.1105640118588911401882880581207654752805",
        "40": "26.50000000000000016143746170108038463808",
    },
    3: {
        "0.1": "0.00000396547769290547266513344827896398689207",
        "0.25": "0.00006173361567461708950927790955851504079625",
        "0.3": "0.0001064711308029637533638143482123622389716",
        "1": "0.003704838071535363838085869439707146521846",
        "3.7": "0.09409284251757546352804407823542504524647",
        "40": "1.333333333333333176144225887544534947209",
    },
    4: {
        "0.1": "0.0001189088353148413341437110248805934909699",
        "0.25": "0.0007386478645393527071102557845746916927096",
        "0.3": "0.001060254865990115524795822231036710779485",
        "1": "0.01061512155534501236935631118181205282458",
        "3.7": "0.04571532099907998803152347404365007756006",
        "40": "0.03333333333333348627408652383054813868222",
    },
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 2
    return record


# ---------------------------------------------------------------------------
# eval


def test_eval_special_q(capsys):
    record = run_json(["eval", "--special", "Q", "--t", "1"], capsys)
    assert record["command"] == "eval"
    assert record["spec"] == "Q"
    assert record["t"] == "1"
    assert record["derivative"] == 0
    assert record["precision_bits"] == 128
    assert record["value"]["decimal"].startswith(Q1_PREFIX)
    assert record["value"]["digits"] == 40


def test_eval_family_member_agrees_with_special(capsys):
    special = run_json(["eval", "--special", "Q", "--t", "1"], capsys)
    family = run_json(["eval", "--spec", "2,2", "--t", "1"], capsys)
    assert family["spec"] == "phi(2,2)"
    assert family["value"]["decimal"][:20] == special["value"]["decimal"][:20]


def test_eval_derivative(capsys):
    record = run_json(["eval", "--special", "Q", "--t", "1", "--derivative", "1"], capsys)
    assert record["derivative"] == 1
    assert record["value"]["decimal"].startswith(QPRIME1_PREFIX)


def test_eval_large_t_high_derivative_golden(capsys):
    # a tiny value after heavy cancellation: every printed digit agrees with
    # mpmath at 1200 bits, so the polygamma block must be accurate relative
    # to its own size at t = 1e6, not only to the absolute target
    record = run_json(
        ["eval", "--special", "Q", "--t", "1e6", "--derivative", "7", "--prec", "64"], capsys
    )
    assert record["value"] == {"decimal": "-2.0591999999891892e-79", "digits": 21}


def test_eval_prints_a_value_too_long_for_str(capsys):
    # phi_{3,5}^(20) = phi_{3,25} at t = 1e-300 keeps every bit above
    # 2^-1064 of a value near 10^9026, some 31,000 mantissa bits: more than
    # Python's 4,300-digit int-to-str limit, so the CLI rounds it to the
    # printed digits first.  The value is the B_6 term of the Stirling sum
    # differentiated 25 times, 29!/30240 t^-30; every other term is 10^-300
    # times smaller
    argv = ["eval", "--spec", "3,5", "--t", "1e-300", "--derivative", "20", "--prec", "1024"]
    record = run_json(argv, capsys)
    assert factorial(29) // 30240 == 292386309316789085798400000
    assert record["value"] == {"decimal": "2.923863093167890857984e+9026", "digits": 310}


def test_eval_csv_lists_all_derivative_orders(capsys):
    code, out = run_cli(
        ["eval", "--special", "Q", "--t", "1", "--derivative", "1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,derivative,value"
    assert len(lines) == 3
    assert lines[1].startswith("1,0," + Q1_PREFIX)
    assert lines[2].startswith("1,1," + QPRIME1_PREFIX)


def test_eval_text_format(capsys):
    code, out = run_cli(["eval", "--special", "Q", "--t", "1", "--format", "text"], capsys)
    assert code == 0
    assert "schema: 2" in out
    assert "command: eval" in out
    assert "value: " + Q1_PREFIX in out


# ---------------------------------------------------------------------------
# bernoulli


def test_bernoulli_json(capsys):
    record = run_json(["bernoulli", "--n-max", "12"], capsys)
    values = {entry["n"]: entry["value"] for entry in record["values"]}
    assert len(values) == 13
    assert values[0] == "1"
    assert values[1] == "-1/2"
    assert values[3] == "0"
    assert values[12] == "-691/2730"


def test_bernoulli_csv(capsys):
    code, out = run_cli(["bernoulli", "--n-max", "4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,numerator,denominator"
    assert lines[1:] == ["0,1,1", "1,-1,2", "2,1,6", "3,0,1", "4,-1,30"]


# ---------------------------------------------------------------------------
# kernel


def test_kernel_coeffs(capsys):
    record = run_json(["kernel", "coeffs", "--from", "7", "--to", "11"], capsys)
    assert record["command"] == "kernel"
    assert (record["from"], record["to"]) == (7, 11)
    assert [c["doubled"] for c in record["coefficients"]] == DOUBLED
    assert [c["value"] for c in record["coefficients"]] == HALVED
    assert [c["k"] for c in record["coefficients"]] == [7, 8, 9, 10, 11]


def test_kernel_coeffs_csv(capsys):
    code, out = run_cli(
        ["kernel", "coeffs", "--from", "7", "--to", "11", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,numerator,denominator"
    assert lines[1] == "7,5,14"
    assert len(lines) == 6


def test_kernel_value_mode(capsys):
    record = run_json(["kernel", "--order", "0", "--s", "1"], capsys)
    assert record["order"] == 0
    assert record["s"] == "1"
    assert record["value"]["decimal"].startswith(H1_PREFIX)


@pytest.mark.parametrize("order", sorted(KERNEL_GOLDEN))
def test_kernel_value_mode_golden(order, capsys):
    for s, decimal in KERNEL_GOLDEN[order].items():
        record = run_json(["kernel", "--order", str(order), "--s", s], capsys)
        assert record["value"]["decimal"] == decimal, s


def test_kernel_laplace_matches_direct_evaluation(capsys):
    record = run_json(["kernel", "laplace", "--t", "5"], capsys)
    with mp.workprec(200):
        got = mp.mpf(record["value"]["decimal"])
        want = q_value(mp.mpf(5), PrecisionPolicy(working_bits=128))
        assert abs(got - want) < mp.mpf("1e-20")


def test_kernel_scan(capsys):
    record = run_json(["kernel", "scan", "--k-max", "60"], capsys)
    assert record["k_min"] == 7
    assert record["k_max"] == 60
    assert record["checked"] == 54
    assert record["all_positive"] is True
    assert record["failures"] == []


def test_kernel_options_before_the_sub_operation_are_honoured(capsys):
    record = run_json(["kernel", "--prec", "256", "laplace", "--t", "2"], capsys)
    assert record["precision_bits"] == 256
    code, out = run_cli(["kernel", "--format", "csv", "coeffs", "--from", "7", "--to", "7"], capsys)
    assert code == 0
    assert out == "k,numerator,denominator\n7,5,14\n"


def test_kernel_without_argument_is_a_computation_error(capsys):
    code, out = run_cli(["kernel"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "CmdegError"
    assert "--s" in record["error"]["message"]


# ---------------------------------------------------------------------------
# cmcheck


def test_cmcheck_pass(capsys):
    record = run_json(
        [
            "cmcheck",
            "--special",
            "Q",
            "--r",
            "4",
            "--grid",
            "log:1e-2:1e2:10",
            "--max-order",
            "4",
        ],
        capsys,
    )
    assert record["verdict"] == "pass"
    assert record["violation_count"] == 0
    assert record["inconclusive_count"] == 0
    assert record["violations"] == []
    assert record["r"] == "4"
    assert record["grid"] == {
        "spacing": "log",
        "t_min": "1/100",
        "t_max": "100",
        "points": 10,
    }


def test_cmcheck_violation(capsys):
    record = run_json(
        [
            "cmcheck",
            "--special",
            "Q",
            "--r",
            "5.05",
            "--grid",
            "log:1e-2:1e2:10",
            "--max-order",
            "4",
        ],
        capsys,
    )
    assert record["verdict"] == "violation"
    assert record["violation_count"] > 0
    assert record["r"] == "101/20"
    first = record["violations"][0]
    assert first["k"] >= 1
    assert first["value"]["decimal"].startswith("-")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cmcheck_rounds_only_the_violations_it_prints(fmt, monkeypatch, capsys):
    # JSON and text print the violations, never the CSV rows of every value
    def no_rows(report):
        raise AssertionError("built the CSV rows")

    rounded = []
    real_value = degree_module._report_value

    def value(*args):
        rounded.append(args)
        return real_value(*args)

    monkeypatch.setattr(cli_module, "_report_rows", no_rows)
    monkeypatch.setattr(degree_module, "_report_value", value)
    argv = ["cmcheck", "--special", "Q", "--r", "5.05", "--grid", "log:1e-2:1e2:10",
            "--max-order", "4", "--format", fmt]  # fmt: skip
    code, out = run_cli(argv, capsys)
    assert code == 0 and rounded
    if fmt == "json":
        assert len(rounded) == json.loads(out)["violation_count"]


def test_cmcheck_csv_has_one_row_per_grid_point_and_order(capsys):
    code, out = run_cli(
        [
            "cmcheck",
            "--special",
            "Q",
            "--r",
            "4",
            "--grid",
            "log:1e-2:1e2:10",
            "--max-order",
            "4",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,k,value"
    assert len(lines) == 1 + 10 * 5


# sha256 of a `cmcheck` CSV that prints every (t, k) value row: values
# rounded only when read print the bytes of values rounded when built.
# Re-recorded when each phi_{n,j} became its shifted Bernoulli tail: 30
# rows at t < 0.8 moved in their last digits, each toward its 512-bit value.
# Re-recorded when the sums became an integer table dotted with the Taylor
# row t^i phi^(i) / i!: 3 rows at t < 0.03, where the terms cancel by about
# 2^60, moved in their last digits
CMCHECK_CSV_ARGV = ["cmcheck", "--spec", "0,3", "--r", "3", "--max-order", "12",
                    "--grid", "log:1e-3:1e4:30", "--format", "csv"]  # fmt: skip
CMCHECK_CSV_DIGEST = "579c175209704bae1144d6826e0a58e4bb3c66b4b41444fa23b4d22df5ac188b"


def test_cmcheck_csv_golden_bytes(capsys):
    code, out = run_cli(CMCHECK_CSV_ARGV, capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 30 * 13
    assert hashlib.sha256(out.encode()).hexdigest() == CMCHECK_CSV_DIGEST


# ---------------------------------------------------------------------------
# degree and conjectures


def test_degree_bracket_record(capsys):
    record = run_json(
        [
            "degree",
            "--special",
            "Q",
            "--grid",
            "log:1e-3:1e4:60",
            "--max-order",
            "8",
        ],
        capsys,
    )
    assert record["spec"] == "Q"
    assert record["step"] == "1"
    assert record["lower"]["lattice"] == "4"
    assert record["lower"]["decimal"] == "4.0"
    assert record["upper"]["decimal"] == "5.0"
    assert record["upper_method"] == "scan_violation"
    assert record["scan_violation_r"] == "5"
    assert "small_t_limit" not in record and "small_t_error" not in record
    assert record["lower_evidence"]["verdict"] == "pass"
    assert record["lower_evidence"]["r"] == "4"


def test_degree_fine_step(capsys):
    record = run_json(
        [
            "degree",
            "--special",
            "PsiGap",
            "--step",
            "0.05",
            "--grid",
            "log:1e-3:1e4:60",
            "--max-order",
            "8",
        ],
        capsys,
    )
    assert record["step"] == "1/20"
    assert record["lower"]["lattice"] == "1"
    assert record["upper"]["decimal"] == "1.0"
    assert record["upper_method"] == "small_t_criterion"
    assert record["scan_violation_r"] is None


def test_conjectures_record(capsys):
    record = run_json(
        [
            "conjectures",
            "--n-max",
            "0",
            "--m-max",
            "1",
            "--grid",
            "log:1e-3:1e4:30",
            "--max-order",
            "6",
        ],
        capsys,
    )
    assert (record["n_max"], record["m_max"]) == (0, 1)
    assert record["step"] == "1"
    cells = record["cells"]
    assert [(c["n"], c["m"]) for c in cells] == [(0, 0), (0, 1)]
    for cell, established in zip(cells, (0, 1)):
        assert cell["established"] == established
        assert cell["conjectured"] == established
        assert cell["contains_conjectured"] is True
        assert "lower" in cell and "upper" in cell and "upper_method" in cell
        assert "error" not in cell


def test_conjectures_csv(capsys):
    code, out = run_cli(
        [
            "conjectures",
            "--n-max",
            "0",
            "--m-max",
            "1",
            "--grid",
            "log:1e-3:1e4:30",
            "--max-order",
            "6",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,lower,upper,conjectured"
    assert len(lines) == 3
    assert lines[1].startswith("0,0,0.0,")
    assert lines[2].startswith("0,1,1.0,")


# sha256 of the `conjectures` JSON for the 4x4 table at order 12 on an
# 8-point grid, recorded before the cells shared one evaluation per grid
# point: every bracket, upper_method and contains_conjectured stays as it was
TABLE_ARGV = ["conjectures", "--n-max", "3", "--m-max", "3", "--max-order", "12",
              "--grid", "log:1e-3:1e4:8"]  # fmt: skip


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "ee59afa526bf73d73866d2d784cb1455a32c496a4300b22c5c31cbff5f2ab003"),
        (["--step", "1/2"], "f972630e10d812c2392ceff9b34caf3efbc45612b880a16cb6f2912ddbe38390"),
    ],
    ids=["step-1", "step-1/2"],
)
def test_conjectures_table_golden_bytes(extra, digest, capsys):
    code, out = run_cli(TABLE_ARGV + extra, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# config, output plumbing, determinism


def test_out_writes_file_and_keeps_stdout_empty(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(
        ["eval", "--special", "Q", "--t", "1", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text(encoding="utf-8"))
    assert record["value"]["decimal"].startswith(Q1_PREFIX)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--special", "Q", "--t", "1"],
        ["kernel", "coeffs", "--from", "7", "--to", "11", "--format", "csv"],
        ["cmcheck", "--special", "Q", "--r", "4", "--grid", "log:1e-2:1e2:8", "--max-order", "3", "--format", "csv"],
    ],
)
def test_output_is_byte_deterministic(argv, capsys):
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_prec_flag_changes_reported_digits(capsys):
    record = run_json(["eval", "--special", "Q", "--t", "1", "--prec", "256"], capsys)
    assert record["precision_bits"] == 256
    assert record["value"]["digits"] == 79
    assert record["value"]["decimal"].startswith(Q1_PREFIX)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["eval", "--special", "Q"],  # missing --t
        ["eval", "--special", "Nope", "--t", "1"],
        ["eval", "--special", "Q", "--spec", "2,2", "--t", "1"],  # mutually exclusive
        ["eval", "--special", "Q", "--t", "1", "--prec", "8"],  # below minimum bits
        ["cmcheck", "--special", "Q", "--r", "4", "--grid", "log:1:2"],
        ["cmcheck", "--special", "Q", "--r", "4", "--grid", "log:1:0:5"],
        ["degree", "--special", "Q", "--step", "0"],
        ["degree", "--special", "Q", "--step", "1.5"],
        ["kernel", "coeffs", "--to", "11"],  # missing --from
        ["eval", "--special", "Q", "--t", "1", "--format", "yaml"],
        ["cmcheck", "--special", "Q", "--r", "4", "--max-order", "-1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_nonpositive_argument_is_a_structured_error(capsys):
    code, out = run_cli(["eval", "--special", "Q", "--t", "-3"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["schema"] == 2
    assert record["command"] == "eval"
    assert record["error"]["type"] == "NonPositiveArgument"
    assert "value" not in record


def test_unknown_family_indices_are_a_structured_error(capsys):
    code, out = run_cli(["cmcheck", "--spec", "9,0", "--r", "1"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "InvalidSpec"


@pytest.mark.parametrize(
    "argv, error_type",
    [
        (["eval", "--special", "Q", "--t", "1", "--derivative", "-1"], "InvalidIndex"),
        (["eval", "--special", "Q", "--t", "abc"], "InvalidSpec"),
        (["kernel", "--s", "abc"], "InvalidSpec"),
        (["kernel", "laplace", "--t", "abc"], "InvalidSpec"),
        (["cmcheck", "--special", "Q", "--r", "abc"], "InvalidSpec"),
        (["cmcheck", "--special", "Q", "--r", "1/0"], "InvalidSpec"),
        (["kernel", "laplace", "--t", "1", "--tol", "inf"], "InvalidSpec"),
        (["eval", "--special", "Q", "--t", "inf"], "InvalidSpec"),
        (["eval", "--special", "Q", "--t", "nan"], "InvalidSpec"),
        (["kernel", "--order", "0", "--s", "nan"], "InvalidSpec"),
        (["kernel", "--order", "0", "--s", "inf"], "InvalidSpec"),
        (["kernel", "laplace", "--t", "nan"], "InvalidSpec"),
        (["kernel", "laplace", "--t", "inf"], "InvalidSpec"),
    ],
)
def test_malformed_numbers_are_structured_errors(argv, error_type, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 1
    record = json.loads(out)
    assert record["command"] == argv[0]
    assert record["error"]["type"] == error_type


@pytest.mark.parametrize("flag", ["--n-max", "--m-max"])
def test_negative_table_size_is_one_structured_error(flag, capsys):
    code, out = run_cli(["conjectures", flag, "-1"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["command"] == "conjectures"
    assert record["error"]["type"] == "InvalidIndex"
    assert "cells" not in record


def test_missing_member_selection_is_a_structured_error(capsys):
    code, out = run_cli(["cmcheck", "--r", "4", "--grid", "log:1:10:3", "--max-order", "2"], capsys)
    assert code == 1
    record = json.loads(out)
    assert record["error"]["type"] == "CmdegError"
