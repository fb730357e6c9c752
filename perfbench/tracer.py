"""Spans around the public entry points of each ``cmdeg`` module.

The wrappers are installed from outside the package, for the traced run
only.  ``from .x import y`` binds ``y`` in the calling module, so each
wrapper replaces the name that the caller looks up at call time.  The
``cmdeg.polygamma`` attribute of the package is the function, not the
submodule, so modules are reached through ``importlib``.

Each span is (name, start, end, parent index); spans stay in memory and are
written out once the job has ended.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  One span name may cover several bindings
# of the same function.
SPANNED = (
    ("cmdeg.cli", "main", "cli.main"),
    ("cmdeg.cli", "conjecture_scan", "degree.conjecture_scan"),
    ("cmdeg.degree", "degree_bracket", "degree.degree_bracket"),
    ("cmdeg.degree", "cm_check", "degree.cm_check"),
    ("cmdeg.degree", "phi_derivatives", "remainders.phi_derivatives"),
    ("cmdeg.remainders", "phi_derivatives", "remainders.phi_derivatives"),
    ("cmdeg.remainders", "polygamma_block", "polygamma.block"),
    ("cmdeg.remainders", "log_gamma", "polygamma.log_gamma"),
    ("cmdeg.polygamma", "bernoulli", "bernoulli"),
    ("cmdeg.remainders", "bernoulli", "bernoulli"),
    ("cmdeg.kernel", "bernoulli", "bernoulli"),
    ("cmdeg.kernel", "laplace_reconstruct", "kernel.laplace"),
    ("cmdeg.kernel", "kernel_h", "kernel.h"),
)

# classify_sign runs once per (grid point, order); it is counted, not timed,
# so its time stays in cm_check's self time with the signed sums.
COUNTED = (("cmdeg.degree", "classify_sign", "degree.classify"),)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name: str, fn, note=None):
        """``fn`` wrapped so that each call records a span named ``name``.
        ``note(args, kwargs, result)`` may add to the counters."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        """``fn`` wrapped so that each call bumps ``<name>.calls`` and, when
        it returns 'borderline', ``<name>.borderline``."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name + ".calls"] += 1
            if result == "borderline":
                counters[name + ".borderline"] += 1
            return result

        return wrapper

    def _note_block(self, args, kwargs, result):
        self.counters["polygamma.block.orders"] += len(result)

    def _note_cm_check(self, args, kwargs, report):
        self.counters["degree.grid_points"] += report.grid.points
        self.counters["degree.points_scanned"] += report.grid.points * (report.max_order + 1)

    def install(self) -> None:
        notes = {"polygamma.block": self._note_block, "degree.cm_check": self._note_cm_check}
        wrapped = {}
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if id(original) not in wrapped:
                wrapped[id(original)] = self.span(name, original, notes.get(name))
            setattr(module, attr, wrapped[id(original)])
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.count(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[Counter, dict]:
        """(span count per name, total self time per name)."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy = Counter(), defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start - child[idx]
        return calls, dict(busy)

    def write(self, path) -> None:
        """Spans as CSV: index, name, start, end, parent (times relative to
        the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
