"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _bench(
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = "\n".join(lines[:-1])
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"  {metric['name']}  " in table
    if not trace:
        assert "  fail_rate  0  " in table
    if workload == "accel-dse" and not trace:
        assert "  paper_claims_failed  0  " in table


def test_fresh_seed_runs_without_pins():
    _, result = _bench(
        "--workload", "columnar", "--seed", "12345", "--seconds", "0",
        "--size", "tiny",
    )
    assert result["correct"]


def _tiny_round(name: str, tmp_path, recorder=None):
    workload = workloads.make(name, run.DEFAULT_SEED, "tiny", tmp_path)
    return workload, workload.run_round(workloads.Ruler(), recorder)


def test_tampered_pin_fails_the_gate(tmp_path):
    workload, result = _tiny_round("columnar", tmp_path)
    pins = run.load_pins("tiny", "columnar")
    assert run.gate([result], workload.finish(), pins) == (3, 0)

    _, result = _tiny_round("columnar", tmp_path)
    tampered = dict(pins, rr="0" * 64)
    attempted, failed = run.gate([result], {}, tampered)
    assert failed / attempted > 0


def test_round_that_differs_from_round_one_fails(tmp_path):
    _, first = _tiny_round("governed", tmp_path)
    _, second = _tiny_round("governed", tmp_path)
    second.outcomes[0].digest = "x"
    assert run.gate([first, second], {}, None) == (4, 1)


def test_spans_nest_and_children_fit_inside(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        recorder.op = "r0"
        _tiny_round("governed", tmp_path, recorder)
    finally:
        recorder.uninstall()
    closed = recorder.closed()
    assert not recorder.missing
    assert {s.layer for s in closed} >= {
        "op", "engine", "control.tenancy", "control.prepare", "arena",
    }
    assert spans.nesting_errors(closed) == []
    children = spans.child_seconds(closed)
    by_id = {s.id: s for s in closed}
    for sid, seconds in children.items():
        assert seconds <= by_id[sid].seconds
    assert all(v >= 0 for v in spans.self_seconds(closed).values())


def test_uninstall_restores_the_library():
    import repro.control.simulator as control_sim
    import repro.serve.engine as engine

    before = (engine.build_requests, control_sim.build_requests, engine.Engine.run)
    recorder = spans.SpanRecorder()
    recorder.install()
    assert engine.build_requests is not before[0]
    assert control_sim.build_requests is engine.build_requests
    recorder.uninstall()
    assert (
        engine.build_requests, control_sim.build_requests, engine.Engine.run
    ) == before


def test_missing_target_is_reported_not_raised():
    recorder = spans.SpanRecorder()
    recorder.install(
        {
            "engine": ("repro.serve.engine:no_such_function",),
            "gone": ("repro.no_such_module:f",),
        }
    )
    recorder.uninstall()
    assert set(recorder.missing) == {
        "repro.serve.engine:no_such_function",
        "repro.no_such_module:f",
    }


def test_tail_has_ten_samples_beyond_it():
    pct, value = run.tail(range(200))
    assert pct == 95.0 and value == 190
    assert run.tail(range(5)) == (0.0, 0.0)


def test_readme_prediction_table_names_every_layer_metric():
    readme = (HERE / "README.md").read_text()
    for metric in SPEC["per_layer"]:
        assert f"`{metric['name']}`" in readme
