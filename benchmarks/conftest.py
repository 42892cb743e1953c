"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's
evaluation.  The measured experiments (Figs. 11/12) run on the full-width
(1.0) MobileNetV1 workload, prepared once per session: brief training on
synthetic data, int8 quantization, and one verified accelerator run.

Every benchmark's ``extra_info`` additionally records the process's
peak RSS, so memory claims (like the engine's flat-arena scaling) are
machine-checkable from the emitted benchmark JSON alongside wall-clock.

A measured session can also append one record per benchmark —
wall-clock, events/sec where the benchmark reports one, and the full
``extra_info`` — to a JSON perf-trajectory file, but only on explicit
opt-in: set ``REPRO_BENCH_LOG`` to the file's path (e.g.
``REPRO_BENCH_LOG=benchmarks/BENCH_engine.json`` extends the tracked
trajectory next to this file).  Without it a run, tier-1 included,
writes nothing to the tree; ``--benchmark-disable`` sessions never
record.
"""

import json
import os
import resource
import time
from pathlib import Path

import pytest

from repro.eval.workloads import prepare_workload

#: Opt-in switch: the perf-trajectory file (one JSON array of session
#: records) this session appends to; unset or empty = record nothing.
BENCH_LOG_ENV = "REPRO_BENCH_LOG"

_session_records = []


@pytest.fixture(scope="session")
def full_workload():
    """Full-width MobileNetV1 workload (the paper's network)."""
    return prepare_workload(
        width_multiplier=1.0, num_samples=48, train_epochs=1, batch_size=12
    )


def _trajectory_record(node_name, benchmark):
    """One perf-trajectory entry, or None without measured stats
    (``--benchmark-disable``, or the benchmark body failed)."""
    metadata = getattr(benchmark, "stats", None)
    stats = getattr(metadata, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return None
    extra = dict(benchmark.extra_info)
    record = {
        "test": node_name,
        "group": getattr(benchmark, "group", None),
        "wall_clock_s": round(float(stats.min), 6),
        "mean_s": round(float(stats.mean), 6),
        "rounds": len(stats.data),
        "extra_info": extra,
    }
    # Surface a headline events/sec when the benchmark reports one
    # (the fast-path side when several rates are recorded).
    rates = [
        v
        for k, v in extra.items()
        if k.endswith("events_per_sec") and isinstance(v, (int, float))
    ]
    if rates:
        record["events_per_sec"] = max(rates)
    return record


@pytest.fixture(autouse=True)
def _record_benchmark_telemetry(request):
    """Record peak RSS into every benchmark's ``extra_info``, then
    queue the benchmark's perf-trajectory entry for the session log.

    ``ru_maxrss`` is a process-lifetime high-water mark (KiB on
    Linux), so the value is an upper bound per test — but regressions
    that leak memory proportional to workload size still surface in
    the emitted JSON.
    """
    # Resolve the fixture at setup: by teardown time the benchmark
    # fixture is already finalized and getfixturevalue refuses, but
    # the fixture object itself (stats, extra_info) outlives it.
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if benchmark is None:
        return
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    benchmark.extra_info["peak_rss_mib"] = round(rss_kib / 1024, 1)
    record = _trajectory_record(request.node.name, benchmark)
    if record is not None:
        _session_records.append(record)


def pytest_sessionfinish(session, exitstatus):
    """Append this session's measured benchmarks to the trajectory
    file named by ``REPRO_BENCH_LOG`` (no-op when it is unset)."""
    log_path = os.environ.get(BENCH_LOG_ENV)
    if not _session_records or not log_path:
        _session_records.clear()
        return
    log = Path(log_path)
    history = []
    if log.exists():
        try:
            history = json.loads(log.read_text())
        except (OSError, ValueError):
            history = []
    if not isinstance(history, list):
        history = []
    history.append(
        {
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "benchmarks": _session_records,
        }
    )
    log.write_text(json.dumps(history, indent=2) + "\n")
    _session_records.clear()
