"""Tests of the benchmark itself: seeded inputs, its declared metrics, exact
trace counts, and refusal to run without sources.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def _key(op):
    return json.dumps(op[1:] if op[0] in ("shallow", "deep", "chain_short", "chain_long") else op)


def test_inputs_repeat_per_seed_and_never_within_a_process():
    doc = json.loads((ROOT / workloads.ATLAS_FILE).read_text(encoding="utf-8"))
    flags = workloads.primary_flags(doc)
    assert len(flags) == 376
    files = [(f"flip-{i}", flag) for i, flag in enumerate(workloads.file_flips(7, flags))]
    lists = [
        workloads.levi_ops(7, 0),
        workloads.levi_ops(7, 1),
        workloads.source_ops(7, 0, run.SOURCE_BLOCKS),
        workloads.atlas_ops(7, 0, flags, files),
    ]
    assert len(lists[0]) == 384 and lists[0] != lists[1]
    for ops in lists:
        assert len({_key(op) for op in ops}) == len(ops)
    assert workloads.source_ops(7, 2, 3) == workloads.source_ops(7, 2, 3)
    assert workloads.source_ops(7, 2, 3) != workloads.source_ops(8, 2, 3)
    assert workloads.atlas_ops(7, 3, flags, files) == workloads.atlas_ops(7, 3, flags, files)


def test_source_stream_shapes():
    ops = workloads.source_ops(3, 0, 10)
    shapes = [op[0] for op in ops]
    assert shapes.count("deep") / len(ops) > 0.1
    for shape, kind, parts in ops:
        assert workloads.special(parts, kind)
        if shape == "chain_long":
            assert sum(parts) >= 2000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = runs
    assert first["attempted"] == second["attempted"] and first["failed"] == second["failed"]
    counted = [n for n, unit in run.PER_LAYER_UNITS.items() if unit in ("count", "ratio")]
    assert set(run.PER_LAYER_UNITS) == set(first["metrics"])
    assert {n: first["metrics"][n] for n in counted} == {n: second["metrics"][n] for n in counted}
    assert any(first["metrics"][n]["value"] for n in counted)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "levi_sweep", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
