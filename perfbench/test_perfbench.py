"""The benchmark's own tests, on the tiny (smoke) instances.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: bool, seed: int = 7, tag: str = "", corrupt: bool = False):
    out = run.OUT / f"test-{workload}-{seed}-{int(trace)}{tag}"
    return run.run_benchmark(workload, seed, 0, trace, "tiny", out, corrupt=corrupt) + (out,)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    line, report, _ = _run(workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == wanted
    assert line["correct"] and line["attempted"] >= 1
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_workloads_in_spec_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.LAYER_UNITS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.E2E_UNITS)


def test_gate_trips_on_a_corrupted_reference():
    line, report, _ = _run("lhf", False, tag="-corrupt", corrupt=True)
    assert not line["correct"]
    assert report["problems"]


def test_same_seed_gives_identical_counts_and_witnesses():
    first, second = (_run("prism", True, tag=f"-again{i}")[1] for i in range(2))

    def answers(report):
        return [(op["slot"], op["rc"], op.get("weight"), op.get("vertices")) for op in report["ops"]]

    def instances(report):
        return [{k: v for k, v in rec.items() if k != "file"} for rec in report["manifest"]]

    assert first["detail"]["instances_sha256"] == second["detail"]["instances_sha256"]
    assert instances(first) == instances(second)
    assert answers(first) == answers(second)
    counted = {name for name, unit in run.LAYER_UNITS.items() if unit == "count"}
    for name in counted:
        assert first["result"]["metrics"][name] == second["result"]["metrics"][name]
    other = _run("prism", True, seed=8)[1]
    assert other["detail"]["instances_sha256"] != first["detail"]["instances_sha256"]


def test_written_spans_give_the_same_self_times():
    _, report, out = _run("fallback", True, tag="-spans")
    spans = tracer.read_spans(out)
    recomputed = tracer.self_times(spans)
    ops = json.loads((out / "ops.json").read_text())["traced"]
    assert len(recomputed) == len(ops)
    for op_id, op in enumerate(ops):
        assert recomputed[op_id].keys() == op["self_s"].keys()
        for name, own in op["self_s"].items():
            assert recomputed[op_id][name] == pytest.approx(own, abs=1e-9)
    assert report["detail"]["span_sum_mismatch_s"] < 1e-6


def test_fallback_records_cap_trips_and_branches():
    line, _, _ = _run("fallback", True, tag="-trips")
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert metrics["separators.cap_trips"] >= 1
    assert metrics["solvers.fallbacks"] >= 1
    assert metrics["solvers.branches"] >= 1
    assert metrics["solvers.wasted_s"] > 0


def test_tail_is_the_highest_rung_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 41)]) == (75, 30.0, 10)
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0, 1)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lhf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_op_past_the_deadline_fails_with_its_code(monkeypatch):
    import signal
    import time
    from types import SimpleNamespace

    import worker

    monkeypatch.setattr(worker, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        rc, wall, _, err = worker._run_op(SimpleNamespace(main=lambda argv: time.sleep(5)), [])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rc == worker.EXIT_DEADLINE
    assert wall < 1
    assert "deadline" in err
