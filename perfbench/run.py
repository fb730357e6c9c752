"""Benchmark of cmdeg: cold processes, seeded inputs, oracle-checked results.

    python3 perfbench/run.py --workload laplace --seed 7 --seconds 30 --trace 0

Starts fresh single-threaded worker processes one after another, each
importing ``cmdeg`` cold and making every call of the seeded job, until
``--seconds`` have passed.  All processes of a run get the same inputs.
The first one checks every result against its oracle; every other process
must reproduce its results exactly.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` untraced and traced processes alternate; the run reports the
per-layer metrics of the traced ones and fails any result that tracing
changed.

Every time is scaled to reference speed (``speed.py``): the host's speed
drifts by up to 1.8x within minutes, and a calibration loop timed during
and around each call takes that drift out.  The report gives the wall
times too.

The second-to-last line of standard output is a full report (environment,
sample counts, failure fraction, self time per layer); the last line is the
summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("table", "bracket", "points", "laplace")
RUN_LIMIT_S = 170  # a run must end within 180 s, however long it measures
TAIL_MIN_CALLS = 20

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "rss_peak_mib": "MiB",
}

PER_LAYER = {
    "polygamma.block.calls": "count",
    "polygamma.block.orders": "count",
    "polygamma.block.self_s": "s",
    "polygamma.log_gamma.calls": "count",
    "polygamma.log_gamma.self_s": "s",
    "bernoulli.calls": "count",
    "bernoulli.self_s": "s",
    "remainders.phi_derivatives.calls": "count",
    "remainders.phi_derivatives.self_s": "s",
    "degree.cm_check.calls": "count",
    "degree.cm_check.self_s": "s",
    "degree.degree_bracket.calls": "count",
    "degree.cm_checks_per_bracket": "ratio",
    "degree.points_scanned": "count",
    "degree.ders_per_point": "ratio",
    "degree.classify.calls": "count",
    "degree.classify.borderline": "count",
    "kernel.laplace.calls": "count",
    "kernel.laplace.self_s": "s",
    "kernel.h.calls": "count",
    "kernel.h.self_s": "s",
    "kernel.h_per_integral": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

LAYERS = ("cli", "degree", "remainders", "polygamma", "bernoulli", "kernel")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(workload: str, seed: int, trace: bool, oracle: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--oracle", str(int(oracle))]  # fmt: skip
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - started)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_setup_s"] = result["setup_end"] - started
    result["setup_s"] = speed.scaled(result["wall_setup_s"], result["setup_loop_s"])
    result["traced"] = trace
    return result


def tail(latencies: list[float]) -> tuple[float, str]:
    """(value, percentile label) of one process's call latencies: the
    highest percentile with at least ten calls beyond it, or the slowest
    call when the process makes fewer than 20 calls (below that, such a
    percentile would not lie above the median)."""
    ordered = sorted(latencies)
    if len(ordered) < TAIL_MIN_CALLS:
        return ordered[-1], "max"
    rank = len(ordered) - 10  # 1-based nearest rank
    return ordered[rank - 1], f"p{100 * rank / len(ordered):.4g}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(untraced: list[dict]) -> tuple[dict, dict]:
    """Metric values, each the median over processes of a per-process
    statistic, and what each was computed from."""

    def med(get):
        return statistics.median(get(r) for r in untraced)

    values = {
        "setup_s": med(lambda r: r["setup_s"]),
        "job_s": med(lambda r: r["job_s"]),
        "call_p50_ms": 1000 * med(lambda r: statistics.median(r["latencies_s"])),
        "call_tail_ms": 1000 * med(lambda r: tail(r["latencies_s"])[0]),
        "rss_peak_mib": med(lambda r: r["rss_mib"]),
    }
    calls = len(untraced[0]["latencies_s"])
    label = tail(untraced[0]["latencies_s"])[1]
    samples = {name: {"processes": len(untraced)} for name in values}
    samples["call_p50_ms"]["calls_per_process"] = calls
    samples["call_tail_ms"].update(calls_per_process=calls, percentile=label)
    return values, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metric values (medians over traced processes) and the
    total self time of each layer."""

    def med(get):
        return statistics.median(get(r) for r in traced)

    def calls(name):
        return med(lambda r: r["span_calls"].get(name, 0))

    def self_s(name):
        return med(lambda r: r["span_self_s"].get(name, 0.0))

    def counter(name):
        return med(lambda r: r["counters"].get(name, 0))

    traced_job = med(lambda r: r["job_s"])
    values = {
        "polygamma.block.calls": calls("polygamma.block"),
        "polygamma.block.orders": counter("polygamma.block.orders"),
        "polygamma.block.self_s": self_s("polygamma.block"),
        "polygamma.log_gamma.calls": calls("polygamma.log_gamma"),
        "polygamma.log_gamma.self_s": self_s("polygamma.log_gamma"),
        "bernoulli.calls": calls("bernoulli"),
        "bernoulli.self_s": self_s("bernoulli"),
        "remainders.phi_derivatives.calls": calls("remainders.phi_derivatives"),
        "remainders.phi_derivatives.self_s": self_s("remainders.phi_derivatives"),
        "degree.cm_check.calls": calls("degree.cm_check"),
        "degree.cm_check.self_s": self_s("degree.cm_check"),
        "degree.degree_bracket.calls": calls("degree.degree_bracket"),
        "degree.cm_checks_per_bracket": _ratio(
            calls("degree.cm_check"), calls("degree.degree_bracket")
        ),
        "degree.points_scanned": counter("degree.points_scanned"),
        "degree.ders_per_point": _ratio(
            calls("remainders.phi_derivatives"), counter("degree.grid_points")
        ),
        "degree.classify.calls": counter("degree.classify.calls"),
        "degree.classify.borderline": counter("degree.classify.borderline"),
        "kernel.laplace.calls": calls("kernel.laplace"),
        "kernel.laplace.self_s": self_s("kernel.laplace"),
        "kernel.h.calls": calls("kernel.h"),
        "kernel.h.self_s": self_s("kernel.h"),
        "kernel.h_per_integral": _ratio(calls("kernel.h"), calls("kernel.laplace")),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": traced_job - statistics.median(r["job_s"] for r in untraced),
        "trace.unattributed_s": med(
            lambda r: r["wall_job_s"] - sum(r["span_self_s"].values())
        ),
    }
    layers = {
        layer: med(
            lambda r, layer=layer: sum(
                s for name, s in r["span_self_s"].items() if name.split(".")[0] == layer
            )
        )
        for layer in LAYERS
    }
    layers["unattributed"] = values["trace.unattributed_s"]
    return values, layers


def count_failures(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  The first process's results are
    oracle-checked; every other process must match its digests exactly."""
    reference = results[0]
    attempted = 0
    reasons = []
    for proc_idx, r in enumerate(results):
        for i, (dig, err) in enumerate(zip(r["digests"], r["errors"])):
            attempted += 1
            reason = None
            if err is not None:
                reason = err
            elif proc_idx == 0:
                reason = r["oracle"][i]
            elif dig != reference["digests"][i]:
                kind = "traced" if r["traced"] else "untraced"
                reason = f"{kind} process {proc_idx} changed the result"
            if reason is not None:
                reasons.append(f"process {proc_idx} call {i}: {reason}")
    return attempted, len(reasons), reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cmdeg" / "__init__.py").is_file():
        sys.stderr.write(f"no cmdeg sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    results = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        began = time.monotonic()
        results.append(spawn(args.workload, args.seed, traced, not results, start + RUN_LIMIT_S))
        # stop when one more process would end nearer past the window than before it
        now = time.monotonic()
        done = now + (now - began) / 2 >= start + args.seconds
        if done and (not args.trace or len(results) >= 2):
            break

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted, failed, reasons = count_failures(results)
    e2e, samples = end_to_end(untraced)
    report = {
        "workload": args.workload,
        "environment": {
            **results[0]["environment"],
            "cpu_count": os.cpu_count(),
            "state": "cold: fresh process per run",
            "seed": args.seed,
            "git_commit": git_commit(ROOT),
        },
        "processes": {"untraced": len(untraced), "traced": len(traced)},
        "wall": {
            "setup_s": statistics.median(r["wall_setup_s"] for r in untraced),
            "job_s": statistics.median(r["wall_job_s"] for r in untraced),
            "calibration_loop_s": statistics.median(s for r in untraced for s in r["loop_s"]),
            "reference_loop_s": speed.REFERENCE_S,
        },
        "end_to_end": {
            name: {"value": e2e[name], "unit": unit, **samples[name]}
            for name, unit in END_TO_END.items()
        },
        "failed_frac": {"value": _ratio(failed, attempted), "unit": "ratio",
                        "failed": failed, "attempted": attempted},  # fmt: skip
        "failures": reasons[:20],
    }
    if args.trace:
        layer_values, layers = per_layer(traced, untraced)
        report["per_layer"] = layer_values
        report["layer_self_s"] = layers
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}  # fmt: skip
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps(report))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}  # fmt: skip
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
