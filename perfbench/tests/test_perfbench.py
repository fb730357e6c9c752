"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer  # noqa: E402

from cmdeg import (  # noqa: E402
    PrecisionPolicy,
    RemainderSpec,
    phi_derivatives,
    q_value,
)


# ---------------------------------------------------------------------------
# wrappers


def test_span_passes_arguments_results_and_errors_through():
    tracer = Tracer()
    sentinel = object()

    def fn(a, b=None, *rest, **kw):
        if a == "boom":
            raise KeyError(b)
        return (a, b, rest, kw, sentinel)

    wrapped = tracer.span("x.fn", fn)
    assert wrapped(1, 2, 3, k=4) == (1, 2, (3,), {"k": 4}, sentinel)
    assert wrapped(1, 2, 3, k=4)[-1] is sentinel
    with pytest.raises(KeyError):
        wrapped("boom", "why")
    assert wrapped.__name__ == "fn"
    assert [s[0] for s in tracer.spans] == ["x.fn"] * 3
    assert all(s[1] <= s[2] and s[3] == -1 for s in tracer.spans)


def test_count_passes_through_and_counts_borderline():
    tracer = Tracer()
    wrapped = tracer.count("degree.classify", lambda v: v)
    assert [wrapped(v) for v in ("pass", "borderline", "violation")] == [
        "pass",
        "borderline",
        "violation",
    ]
    assert tracer.counters["degree.classify.calls"] == 3
    assert tracer.counters["degree.classify.borderline"] == 1


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.span("b.inner", lambda: None)
    outer = tracer.span("a.outer", lambda: (inner(), inner()))
    outer()
    calls, busy = tracer.self_times()
    assert calls == {"a.outer": 1, "b.inner": 2}
    # outer spans ticks 0..5, each inner one tick
    assert busy == {"a.outer": 3, "b.inner": 2}


def test_installed_wrappers_leave_cmdeg_results_unchanged():
    spec = RemainderSpec(n=1, m=2)
    policy = PrecisionPolicy(working_bits=128)
    bindings = [(importlib.import_module(name), attr) for name, attr, _ in SPANNED + COUNTED]
    before = [getattr(module, attr) for module, attr in bindings]
    plain = phi_derivatives(spec, "0.37", 4, policy)
    tracer = Tracer()
    tracer.install()
    try:
        remainders = importlib.import_module("cmdeg.remainders")
        traced = remainders.phi_derivatives(spec, "0.37", 4, policy)
    finally:
        tracer.uninstall()
    assert [(v.man, v.exp) for v in traced] == [(v.man, v.exp) for v in plain]
    calls, _ = tracer.self_times()
    assert calls["remainders.phi_derivatives"] == 1
    assert calls["polygamma.block"] == 1
    assert tracer.counters["polygamma.block.orders"] == 6  # psi^(0..5)
    assert [getattr(module, attr) for module, attr in bindings] == before


# ---------------------------------------------------------------------------
# oracles


def test_laplace_oracle_flags_twice_its_tolerance():
    policy = PrecisionPolicy(working_bits=128)
    q = q_value("5", policy)
    assert workloads.check("laplace", ("5",), q) is None
    assert workloads.check_laplace(q + 2 * workloads.LAPLACE_TOLERANCE, q) is not None
    assert workloads.check_laplace(q - 2 * workloads.LAPLACE_TOLERANCE, q) is not None


def test_points_oracle_flags_twice_its_tolerance():
    call = (3, 2, 2.0**12 + 0.375, 4, 256)  # large t: the form cancels
    n, m, t, i_max, bits = call
    ders = phi_derivatives(RemainderSpec(n=n, m=m), t, i_max, PrecisionPolicy(working_bits=bits))
    assert workloads.check_points(call, ders) is None
    target = PrecisionPolicy(working_bits=bits).abs_error_target
    with mp.workprec(4 * bits):
        for j in (0, i_max):
            step = 2 * target * max(1, abs(ders[j]))
            for sign in (1, -1):
                bad = list(ders)
                bad[j] = ders[j] + sign * step
                assert workloads.check_points(call, bad) is not None
    assert workloads.check_points(call, ders[:-1]) is not None


def test_bracket_oracle_flags_twice_its_tolerance():
    from types import SimpleNamespace
    from fractions import Fraction

    def bracket(lower, upper):
        return SimpleNamespace(lower=Fraction(lower), upper=mp.mpf(upper))

    assert workloads.check_bracket("PsiGap", bracket(1, "1.0000001")) is None
    assert workloads.check_bracket("PsiGap", bracket(1, "1.1")) is not None
    assert workloads.check_bracket("PsiGap", bracket(1, "0.9999")) is not None
    assert workloads.check_bracket("PsiGap", bracket(Fraction(19, 20), "1.01")) is not None
    assert workloads.check_bracket("TrigammaGap3", bracket(3, "3.04")) is None
    assert workloads.check_bracket("TrigammaGap3", bracket(3, "3.1")) is not None
    assert workloads.check_bracket("Q", bracket(4, "4.99999")) is None
    assert workloads.check_bracket("Q", bracket(4, "7")) is not None
    assert workloads.check_bracket("Q", bracket(3, "4.99999")) is not None


def _table(**changes) -> str:
    from cmdeg import conjectured_degree, established_degree

    cells = []
    for (n, m), lower in workloads.TABLE_LOWER_REFERENCE.items():
        cell = {
            "n": n,
            "m": m,
            "conjectured": conjectured_degree(n, m),
            "established": established_degree(n, m),
            "contains_conjectured": (n, m) not in ((0, 3), (1, 3)),
            "lower": {"decimal": f"{lower}.0", "digits": 40},
            "upper": {"decimal": f"{lower + 0.99999999}", "digits": 40},
        }
        cell.update(changes.get(f"c{n}{m}", {}))
        cells.append(cell)
    return json.dumps({"cells": cells})


def test_table_oracle_checks_semantics():
    assert workloads.check_table(_table()) is None
    # ROADMAP item 3 (exact upper ends) must not count as a failure
    assert workloads.check_table(_table(c22={"upper": {"decimal": "5", "digits": 1}})) is None
    # a lower end one lattice step off, twice the zero tolerance and more
    assert workloads.check_table(_table(c22={"lower": {"decimal": "3.0", "digits": 1}})) is not None
    assert workloads.check_table(_table(c03={"lower": {"decimal": "3.0", "digits": 1}})) is not None
    assert workloads.check_table(_table(c12={"contains_conjectured": False})) is not None
    assert workloads.check_table(_table(c31={"error": "CmdegError: contradictory"})) is not None


# ---------------------------------------------------------------------------
# inputs and reporting


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 11) == workloads.make_inputs(workload, 11)
    assert workloads.make_inputs(workload, 11) != workloads.make_inputs(workload, 12)


def test_calibration_uses_the_samples_around_each_call():
    track = speed.Track()
    track.samples = [(float(i), float(i)) for i in range(40)]
    n = speed.MIN_SAMPLES
    # a long call: the samples taken during it
    assert track.loop_s(10.0, 10.0 + n) == 10.0 + n / 2
    # a short call: the MIN_SAMPLES samples nearest to it
    assert track.loop_s(20.2, 20.3) == 20.5 - 0.5 * (n % 2)
    assert track.loop_s(-5.0, -4.0) == (n - 1) / 2
    assert speed.scaled(2.0, 2 * speed.REFERENCE_S) == 1.0


def test_calibration_ticks_during_the_job_and_is_excluded_from_it():
    track = speed.Track()
    track.start()
    wall, start = time.perf_counter(), track.clock()
    while time.perf_counter() - wall < 10 * speed.INTERVAL_S:
        pass
    during = [at for at, _ in track.samples if at >= start]
    elapsed = track.clock() - start
    track.stop()
    assert len(during) >= 3
    assert elapsed < time.perf_counter() - wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _fake_result(latencies, traced=False):
    return {
        "setup_s": 0.2,
        "job_s": sum(latencies),
        "wall_job_s": sum(latencies),
        "latencies_s": latencies,
        "rss_mib": 30.0,
        "traced": traced,
        "digests": ["d"] * len(latencies),
        "errors": [None] * len(latencies),
        "oracle": [None] * len(latencies),
        "span_calls": {"kernel.laplace": 2, "kernel.h": 10},
        "span_self_s": {"kernel.laplace": 0.1, "kernel.h": 0.2},
        "counters": {},
    }


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, "p90")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")


def test_emitted_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    untraced = [_fake_result([0.1] * 30), _fake_result([0.2] * 30)]
    values, _ = run.end_to_end(untraced)
    assert set(values) == set(run.END_TO_END)
    layer_values, _ = run.per_layer([_fake_result([0.3] * 30, traced=True)], untraced)
    assert set(layer_values) == set(run.PER_LAYER)
    assert layer_values["kernel.h_per_integral"] == 5


def test_traced_run_reports_every_metric_and_agrees_with_untraced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "laplace", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    *_, report_line, summary_line = proc.stdout.splitlines()
    report, summary = json.loads(report_line), json.loads(summary_line)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == run.PER_LAYER
    assert set(report["end_to_end"]) == set(run.END_TO_END)
    assert report["processes"] == {"untraced": 1, "traced": 1}
    assert summary["metrics"]["kernel.laplace.calls"]["value"] == workloads.LAPLACE_CALLS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
