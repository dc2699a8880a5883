"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.splitlines()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.GATES)


def test_inputs_enumerate_what_soslab_scans():
    from soslab import RingContext, scan_totally_positive

    for d in (2, 5, 7, 13):
        ctx = RingContext(d)
        assert inputs.totally_positive(d, 1, 30) == [(a.u, a.v) for a in scan_totally_positive(ctx, 30)]
    assert inputs.claims_element_count() == sum(
        1 for d in inputs.claims_ds() for _ in scan_totally_positive(RingContext(d), inputs.CLAIMS_TRACE)
    )


def test_gate_arithmetic_agrees_with_soslab():
    from soslab import RingContext

    rng = random.Random(5)
    for d in inputs.QUERY_DS:
        ctx = RingContext(d)
        for _ in range(20):
            x, y = ctx.element(rng.randint(-9, 9), rng.randint(-9, 9)), ctx.element(rng.randint(-9, 9), rng.randint(-9, 9))
            assert gate.multiply(d, (x.u, x.v), (y.u, y.v)) == ((x * y).u, (x * y).v)
            assert gate.parse_element(d, str(x)) == (x.u, x.v)


def test_query_stream_uses_each_element_once():
    stream = inputs.query_stream(3)
    elements = [(d, u, v) for _, d, u, v in stream]
    assert len(set(elements)) == len(elements)
    assert sorted(stream) == sorted(inputs.query_stream(4))


def test_tracer_self_time_and_counts():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    leaf_w = tracer.wrap("leaf", leaf)

    def parent(n):
        return sum(leaf_w(i) for i in range(n))

    parent_w = tracer.wrap("parent", parent)
    assert parent_w(3) == 6
    assert len(tracer.spans) == sum(tracer.calls.values()) == 4
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0]


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.GATES))
def test_smoke_run(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert code == 0, lines
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _, _ in (PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        counts = {line.split()[0]: float(line.split()[1]) for line in lines if line.startswith("  ")}
        assert counts["spans"] == counts["wrapped_calls"] > 0


@pytest.mark.parametrize("workload", sorted(run.GATES))
def test_gate_catches_a_flipped_verdict(workload):
    code, lines = bench("--workload", workload, "--seconds", "1", "--inject-flip")
    assert code != 0
    result = result_of(lines)
    assert not result["correct"] and result["failed"] >= 1
    assert any("MISMATCH" in line for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "queries", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
