"""Spans around genuslift's layer functions, recorded from outside the library.

Each layer function is wrapped at the name its calling module binds (for
example ``genuslift.genus.canonical_frame``, which ``genus_potential`` calls),
so a wrapper fires exactly where the pipeline crosses into the layer.  Every
span records its name, start, end, parent span and operation id; spans stay
in memory and are reduced to per-layer self time and call counts when the
run ends.  Self time is a span's duration minus the time its child spans
cover, so the self times of one operation add up to its root span.

The ``hodge`` and ``wk`` paths are oracles outside the F^g pipeline and are
not wrapped.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List

ROOT = "cli"


def _series_terms(rows) -> int:
    return sum(len(series.terms()) for series in rows)


def _frame_terms(frame) -> int:
    total = _series_terms(frame.u) + _series_terms(frame.delta) + _series_terms(frame.sqrt_delta)
    for table in (frame.du, frame.psi, frame.idempotents):
        total += sum(_series_terms(row) for row in table)
    return total


def _r_terms(r) -> int:
    return sum(_series_terms(row) for mat in r.mats for row in mat)


# (span name, [(module, attribute), ...], counter name, counter of the result)
LAYERS = (
    ("frobenius.model",
     [("cli", "point_model"), ("cli", "two_primary_model"), ("cli", "threefold_cusp_model")],
     None, None),
    ("frame.canonical_frame",
     [("genus", "canonical_frame"), ("descendent", "canonical_frame")],
     "frame.jet_terms", _frame_terms),
    ("rmatrix.compute_R",
     [("genus", "compute_R"), ("descendent", "compute_R")],
     "rmatrix.R_terms", _r_terms),
    ("rmatrix.edge_tail_data", [("genus", "edge_tail_data")], None, None),
    ("graphs.enumerate_graphs",
     [("genus", "enumerate_graphs"), ("descendent", "enumerate_graphs")],
     "graphs.count", len),
    ("genus.genus_potential", [("cli", "genus_potential")], None, None),
    ("genus.wick_oracle", [("cli", "wick_oracle")], None, None),
    ("intersection.vertex_correlator", [("genus", "vertex_correlator")], None, None),
    ("descendent.compute_calibration", [("cli", "compute_calibration")], None, None),
    ("descendent.critical_point", [("descendent", "critical_point")], None, None),
    ("descendent.bold_quantities", [("descendent", "bold_quantities")], None, None),
    ("descendent.descendent_potential", [("cli", "descendent_potential")], None, None),
    ("descendent.point_descendent_reference",
     [("cli", "point_descendent_reference")], None, None),
    ("io.render_report", [("cli", "render_report")], None, None),
)

SPAN_NAMES = tuple(name for name, _, _, _ in LAYERS)
COUNTER_NAMES = tuple(counter for _, _, counter, _ in LAYERS if counter)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self, package) -> None:
        self._package = package
        # [name, start, end, parent index, op id]
        self.spans: List[list] = []
        # op id -> counter name -> total
        self.counters: Dict[int, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._op = None

    def _wrap(self, name, fn, counter, count):
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                per_op = self.counters.setdefault(self._op, dict.fromkeys(COUNTER_NAMES, 0))
                per_op[counter] += count(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer binding for the duration of the block."""
        saved = []
        try:
            for name, sites, counter, count in LAYERS:
                for module_name, attr in sites:
                    # a binding the library no longer has reports 0 calls
                    module = getattr(self._package, module_name, None)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, counter, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span."""
        self._op = op_id
        try:
            return self._wrap(ROOT, fn, None, None)(*args)
        finally:
            self._op = None

    def summary(self, factors: Dict[int, float], count_ops) -> dict:
        """Per-layer self seconds over every traced op, with each op's span
        times multiplied by ``factors[op id]``, and the summed root-span
        time; calls per layer and the counters over the ops in ``count_ops``
        only, so that they depend on nothing but the ops."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys((ROOT,) + SPAN_NAMES, 0.0)
        calls = dict.fromkeys((ROOT,) + SPAN_NAMES, 0)
        op_s = 0.0
        for (name, start, end, _, op), covered in zip(self.spans, child_time):
            self_s[name] += (end - start - covered) * factors[op]
            if name == ROOT:
                op_s += (end - start) * factors[op]
            if op in count_ops:
                calls[name] += 1
        counters = dict.fromkeys(COUNTER_NAMES, 0)
        for op in count_ops:
            for counter, value in self.counters.get(op, {}).items():
                counters[counter] += value
        return {"self_s": self_s, "calls": calls, "counters": counters, "op_s": op_s}
