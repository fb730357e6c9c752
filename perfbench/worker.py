"""One cold benchmark process: import cmdeg, build the seeded job, time it.

    python3 perfbench/worker.py --workload laplace --seed 1 --trace 0 --oracle 1

Prints one JSON line with the timings, one digest per call, the peak
resident set and, with ``--trace 1``, the per-span counts and self times.
Times are given both as measured (``wall_*``) and scaled to reference
speed by the calibration loop of ``speed.py``, which runs before the
first call, after the last one and, from a timer signal, during the job;
its own time is taken out of every measured interval.
With ``--oracle 1`` every result is also checked against its oracle, after
the timed region and after the peak resident set has been read.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import mpmath

    import speed
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    calls = workloads.prepare(args.workload, args.seed, OUT_DIR)
    setup_end = time.monotonic()
    track = speed.Track()
    setup_loop_s = track.start()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=track.clock)
        tracer.install()
    times, results, errors = workloads.run_job(calls, track.clock)
    if tracer is not None:
        tracer.uninstall()
    track.stop()
    scaled = [speed.scaled(end - start, track.loop_s(start, end)) for start, end in times]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "setup_end": setup_end,
        "setup_loop_s": setup_loop_s,
        "loop_s": [s for _, s in track.samples],
        "job_s": sum(scaled),
        "latencies_s": scaled,
        "wall_job_s": sum(end - start for start, end in times),
        "digests": [None if r is None else workloads.digest(r) for r in results],
        "errors": errors,
        "rss_mib": rss_kib / 1024,
        "environment": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if tracer is not None:
        span_calls, busy = tracer.self_times()
        out["span_calls"] = dict(span_calls)
        out["span_self_s"] = busy
        out["counters"] = dict(tracer.counters)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
    if args.oracle:
        inputs = workloads.make_inputs(args.workload, args.seed)
        out["oracle"] = [
            error if result is None else workloads.check(args.workload, call, result)
            for call, result, error in zip(inputs, results, errors)
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
