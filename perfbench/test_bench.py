"""Checks on the benchmark itself: deterministic op lists, counts that repeat,
self times that add up, the metric names BENCHMARK.json declares, and a
clean failure where the library is missing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, batch, first_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "frame.jet_terms",
    "rmatrix.R_terms",
    "graphs.count",
    "intersection.vertex_correlator.calls",
)


def _op_list(workload: str, seed: int) -> str:
    firsts = [first_op(workload, seed, p) for p in range(3)]
    return json.dumps([firsts] + [batch(workload, seed, b) for b in range(3)])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_depends_only_on_the_seed(workload):
    assert _op_list(workload, 7) == _op_list(workload, 7)
    assert _op_list(workload, 7) != _op_list(workload, 8)


def _class(op):
    return op["model"], op["g"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_batch_holds_every_class_once(workload):
    classes = sorted(_class(op) for op in batch(workload, 3, 0))
    assert len(set(classes)) == len(classes)
    for b in range(1, 6):
        assert sorted(_class(op) for op in batch(workload, 3, b)) == classes
    # first ops are all of one class, whatever the seed, at distinct points
    firsts = [first_op(workload, s, p) for s in range(3) for p in range(3)]
    assert len({_class(op) for op in firsts}) == 1
    assert len({tuple(op["argv"]) for op in firsts}) == len(firsts)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_point_values_never_start_a_separate_argument(workload):
    for op in [first_op(workload, 1, 0)] + batch(workload, 1, 0):
        assert all(not arg.startswith("-") or arg.startswith("--") for arg in op["argv"])


def test_declared_metrics_match_the_reported_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end_units())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _traced(seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "descendent-mix",
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_traced_counts_repeat_and_self_times_add_up():
    first, second = _traced(5), _traced(5)
    for name in EXACT_COUNTS:
        assert first[name] == second[name] > 0, name
    self_times = [v for name, v in first.items() if name.endswith(".self_s")]
    self_times.append(first["frobenius.model_s"])
    assert sum(self_times) == pytest.approx(first["trace.op_s"], rel=1e-9)
    # genus-only layers never fire on descendent ops and still report 0
    assert first["genus.wick_oracle.calls"] == 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genus2-cusp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
