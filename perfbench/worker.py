"""One benchmark process.

    python3 perfbench/worker.py --workload W --seed S --index I --role first|main
        --t0 T [--seconds N --trace 0|1]

The process sets up (imports genuslift and builds the workload's models),
reports the set-up time, and runs first op I of the workload, cold.  ``--t0``
is the parent's ``time.monotonic()`` just before it started this process,
so set-up time includes interpreter start-up.  ``main`` goes on with whole
batches of ops, back to back on one thread, until another batch would not
fit in N seconds (at least one batch runs).  With ``--trace 1`` every batch
runs twice, once with layer spans and once without, in alternating order,
so the difference is the tracing overhead.

Times are reported in reference seconds.  On a VM that shares its cores
with other tenants (the 2-vCPU VM of the baseline, for one), their load
slows every process down by 1.3 to 1.9 times for seconds to minutes at a
stretch, which moves the raw wall times of a run by up to a third.  So the
process times a fixed pure-Python kernel right after set-up and after every
op, and scales each wall time by ``REFERENCE_KERNEL_S / kernel time``,
taking the mean of the kernel samples on either side of an op.  The
slowdown hits the kernel and the ops alike, so the scaled times are what
the ops take on a core running at the speed where the kernel takes
``REFERENCE_KERNEL_S``.  The kernel uses neither genuslift nor mpmath, so
no change to either can speed it up or warm a cache for the first op.

Every operation's report is checked as it completes.  The process prints
one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import mpmath

from workloads import batch, first_op, models

_TOLERANCE = Fraction(1, 10 ** 30)

# the kernel's time on a quiet core of the 2-vCPU x86-64 VM (CPython 3.11)
# the baseline was measured on
REFERENCE_KERNEL_S = 0.0070
_MODULUS = (1 << 256) - 189


def _kernel_s() -> float:
    """Wall time of a fixed pure-Python workload: 256-bit integer
    arithmetic, tuple keys and dict updates, as in mpmath-backed code."""
    t = time.perf_counter()
    x = (1 << 255) + 0x9E3779B97F4A7C15
    acc = 1
    table = {}
    for i in range(8000):
        acc = (acc * x + i) % _MODULUS
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) ^ (acc >> 224)
    return time.perf_counter() - t


def _scale(wall_s: float, *kernel_s: float) -> float:
    return wall_s * REFERENCE_KERNEL_S / statistics.fmean(kernel_s)


def _build_model(genuslift, spec: str):
    if spec == "point":
        return genuslift.point_model()
    if spec == "threefold-cusp":
        return genuslift.threefold_cusp_model()
    return genuslift.two_primary_model(Fraction(spec.split("d=", 1)[1]))


class Checker:
    """Checks each operation's report and keeps the tallies.

    An operation fails when it exits nonzero or its report does not parse.
    A report that parses is wrong when F_g is not finite or a residual the
    command gates on exceeds the tolerance: for ``genus`` the Wick gap,
    recomputed from F_g and the oracle; for ``descendent`` the criticality,
    unitarity, cross-direction, divisibility and V-symmetry residuals.  The
    one-dimensional descendent oracle gap is recorded, not gated: the
    command's 12-insertion reference sum truncates, and the command does not
    check it either.
    """

    def __init__(self, genuslift) -> None:
        self._io = genuslift.io
        self._ctx = genuslift.FloatContext(256)
        self._tol = self._ctx.num(_TOLERANCE)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.residual_max = 0.0
        self.oracle_gap_max = 0.0
        self.errors: list = []

    def _num(self, text: str):
        return self._ctx.num(self._io.parse_value(text, self._ctx))

    def check(self, op: dict, code: int, text: str) -> None:
        self.attempted += 1
        if code != 0:
            self._reject(op, f"exit {code}: {text.strip()[:300]}")
            return
        try:
            doc = json.loads(text)
            with self._ctx.guard():
                value = self._num(doc["F_g"])
                if op["command"] == "genus":
                    residual = abs(value - self._num(doc["oracle"]))
                    gates = [self._num(doc["residual"]), residual]
                    self.residual_max = max(self.residual_max, float(residual))
                else:
                    gates = [self._num(doc["criticality_residual"])]
                    gates += [self._num(v) for v in doc["residuals"].values()]
                    if "oracle" in doc:
                        gap = abs(value - self._num(doc["oracle"]))
                        self.oracle_gap_max = max(self.oracle_gap_max, float(gap))
                good = mpmath.isfinite(value) and all(g <= self._tol for g in gates)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            self._reject(op, f"unparsable report: {exc!r}")
            return
        if not good:
            self.wrong += 1
            self.errors.append(f"{' '.join(op['argv'])}: residual above tolerance")

    def _reject(self, op: dict, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{' '.join(op['argv'])}: {why}")

    def tallies(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "residual_max": self.residual_max,
            "oracle_gap_max": self.oracle_gap_max,
            "errors": self.errors[:5],
        }


class _Timer:
    """Runs ops with a kernel sample after each and scales their times."""

    def __init__(self, run_command, checker) -> None:
        self.run_command = run_command
        self.checker = checker
        _kernel_s()  # the first run in a fresh process is slower
        self.last_kernel_s = _kernel_s()
        self.kernel_samples = [self.last_kernel_s]

    def run(self, op: dict, call=None) -> tuple:
        """(scaled time, scale factor) of one op."""
        t = time.perf_counter()
        code, text = (call or self.run_command)(op["argv"])
        wall = time.perf_counter() - t
        before, self.last_kernel_s = self.last_kernel_s, _kernel_s()
        self.kernel_samples.append(self.last_kernel_s)
        self.checker.check(op, code, text)
        scaled = _scale(wall, before, self.last_kernel_s)
        return scaled, scaled / wall


def _timed_loop(args, timer: _Timer, tracer) -> dict:
    """Whole batches until another would not fit in the time; with a
    tracer, every batch runs untraced and traced, in alternating order."""
    untraced, traced, factors = [], [], {}
    start = time.perf_counter()
    batches = 0
    while True:
        ops = batch(args.workload, args.seed, batches)
        modes = [False] if tracer is None else [batches % 2 == 1, batches % 2 == 0]
        for with_trace in modes:
            for op in ops:
                if with_trace:
                    op_id = len(traced)
                    with tracer.installed():
                        scaled, factors[op_id] = timer.run(op, lambda argv: tracer.run_op(
                            op_id, timer.run_command, argv))
                    traced.append(scaled)
                else:
                    untraced.append(timer.run(op)[0])
        batches += 1
        elapsed = time.perf_counter() - start
        if elapsed * (batches + 1) / batches > args.seconds:
            break
    out = {"op_s": untraced, "batches": batches, "elapsed_s": elapsed,
           "kernel_s": statistics.median(timer.kernel_samples)}
    if tracer is not None:
        out["traced_op_s"] = traced
        # op ids 0 .. size - 1 are the first batch, the same in every traced
        # run of a seed
        counted = len(batch(args.workload, args.seed, 0))
        out["counted_ops"] = counted
        out["trace"] = tracer.summary(factors, count_ops=range(counted))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--role", choices=("first", "main"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # set-up: everything a fresh process does before it can issue an op
    import genuslift
    import genuslift.cli

    for spec in models(args.workload):
        _build_model(genuslift, spec)
    setup_wall_s = time.monotonic() - args.t0

    checker = Checker(genuslift)
    timer = _Timer(genuslift.cli.run_command, checker)
    result = {
        "setup_s": _scale(setup_wall_s, timer.last_kernel_s),
        "first_op_s": timer.run(first_op(args.workload, args.seed, args.index))[0],
    }
    if args.role == "main":
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(genuslift)
        result.update(_timed_loop(args, timer, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(checker.tallies())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
