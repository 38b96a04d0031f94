"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/summary.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
        [--seconds N] [--out perfbench/baseline.json]

For each workload and seed this runs ``perfbench/run.py`` once, in turn, and
prints every metric of the chosen kind by name and unit with the median
over seeds, the quartiles, and the spread (q3 - q1) / median.  A run that
fails or reports an incorrect output stops the summary with exit code 1.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; for
end-to-end metrics a spread above a third of the metric's bound is flagged.
``--out`` writes the table as JSON, which is how ``baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}\n{proc.stderr}")
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            try:
                runs.append(_run(workload, seed, args.seconds, args.trace))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
        table[workload] = {}
        for name, metric in runs[0]["metrics"].items():
            row = summarise([r["metrics"][name]["value"] for r in runs])
            row["unit"] = metric["unit"]
            table[workload][name] = row
            bound = bounds.get(name)
            flag = " (spread above bound/3)" if bound and row["spread"] > bound / 3 else ""
            print(f"{workload:20s} {name:45s} {row['median']:.6g} {row['unit']}"
                  f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, spread {row['spread']:.3f}]{flag}",
                  flush=True)
    if args.out:
        doc = {
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"{platform.python_implementation()} {platform.python_version()}",
            "workloads": table,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
