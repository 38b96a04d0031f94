"""genuslift benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload genus3-two-primary --seed 1 --seconds 25 --trace 0

Operations run in-process through ``genuslift.cli.run_command`` (the
``genuslift`` command without interpreter start-up), back to back in a
closed loop: one client, one process, one thread.  The library is imported
from ``src/`` of the checkout this file sits in; nothing is built.

With ``--trace 0`` the result carries the end-to-end metrics.  ``FRESH``
fresh processes set up and run the workload's first op cold; one more, the
main process, does the same and then runs whole batches of ops for the
given seconds (see ``worker.py``).
``setup_s`` and ``first_op_s`` are medians over the processes,
``latency_s.p50`` is the median over the main process's ops after its
first, and ``throughput_ops_s`` is those ops over their summed time.  All
times are in reference seconds (see ``worker.py``).  With ``--trace 1`` only
the main process runs, with layer spans, and the result carries the
per-layer metrics.

The last line of standard output is the JSON result.  The exit code is 0
when every process ran; it is 2, with no result, when the library is not
there or a process crashed or ran out of time.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNTER_NAMES, ROOT as ROOT_SPAN, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FRESH = 8  # fresh processes that set up and run the first op, besides the main one
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _self_metric(name: str) -> str:
    # building a model is set-up work, so its time reads as the set-up layer's
    return "frobenius.model_s" if name == "frobenius.model" else f"{name}.self_s"


def end_to_end_units() -> dict:
    return {
        "setup_s": "s",
        "first_op_s": "s",
        "latency_s.p50": "s",
        "throughput_ops_s": "1/s",
        "peak_rss_mb": "MB",
    }


def per_layer_units() -> dict:
    units = {_self_metric(name): "s" for name in SPAN_NAMES}
    units.update({f"{name}.calls": "count" for name in SPAN_NAMES})
    units.update({name: "count" for name in COUNTER_NAMES})
    units.update({
        "cli.self_s": "s",
        "trace.op_s": "s",
        "trace.overhead_s": "s",
        "machine.kernel_s": "s",
        "genus.residual.max": "1",
        "descendent.oracle_gap.max": "1",
        "failed_share": "1",
    })
    return units


def _library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _worker(args, index: int, deadline: float) -> dict:
    role = "main" if index == FRESH else "first"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--index", str(index), "--role", role,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=_library_env(), capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{role} process printed no result: {proc.stdout[-500:]}") from None


def _end_to_end(samples: list, main: dict) -> dict:
    ops = main["op_s"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "first_op_s": statistics.median(s["first_op_s"] for s in samples),
        "latency_s.p50": statistics.median(ops),
        "throughput_ops_s": len(ops) / sum(ops),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _per_layer(main: dict) -> dict:
    trace = main["trace"]
    n = len(main["traced_op_s"])
    values = {_self_metric(name): trace["self_s"][name] / n for name in SPAN_NAMES}
    counted = main["counted_ops"]
    values.update({f"{name}.calls": trace["calls"][name] / counted for name in SPAN_NAMES})
    values.update({name: trace["counters"][name] / counted for name in COUNTER_NAMES})
    values.update({
        "cli.self_s": trace["self_s"][ROOT_SPAN] / n,
        "trace.op_s": trace["op_s"] / n,
        # both lists hold every batch's ops in the same order
        "trace.overhead_s": statistics.median(
            t - u for t, u in zip(main["traced_op_s"], main["op_s"])),
        "machine.kernel_s": main["kernel_s"],
        "genus.residual.max": main["residual_max"],
        "descendent.oracle_gap.max": main["oracle_gap_max"],
        "failed_share": main["failed"] / main["attempted"],
    })
    return values


def run(args) -> dict:
    if not (ROOT / "src" / "genuslift" / "__init__.py").is_file():
        raise BenchError(f"no genuslift sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    # compile the package's bytecode once, as an installed package has it,
    # so that no set-up sample pays for compilation
    subprocess.run([sys.executable, "-c", "import genuslift.cli"], cwd=ROOT,
                   env=_library_env(), check=True, timeout=60, capture_output=True)

    # a traced run needs only the main process
    first = FRESH if args.trace else 0
    samples = [_worker(args, index, deadline) for index in range(first, FRESH + 1)]
    main = samples[-1]
    tally = {key: sum(s[key] for s in samples) for key in ("attempted", "failed", "wrong")}
    for sample in samples:
        for error in sample["errors"]:
            print(error, file=sys.stderr)
    values = _per_layer(main) if args.trace else _end_to_end(samples, main)
    units = per_layer_units() if args.trace else end_to_end_units()
    return {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
