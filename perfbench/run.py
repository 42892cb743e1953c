#!/usr/bin/env python3
"""Benchmark of the EDEA reproduction: one workload per process.

    python3 perfbench/run.py --workload columnar --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
span tracing off; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics, the tracing overhead and the
self-time table.  Either way every operation passes the correctness
gate, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  See ``perfbench/README.md`` for the workloads, the prediction
table and how to read the traced run.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("columnar", "traced", "governed", "accel-dse")
DEFAULT_SEED = 0
#: Fresh processes timed for ``setup_s``, besides the measuring one.
SETUP_CHILDREN = 6
#: Percentiles tried for a tail figure, highest first; the first with
#: at least ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Units of what the table prints besides the metrics in BENCHMARK.json.
EXTRA_UNITS = {
    "fail_rate": "ratio",
    "paper_claims_failed": "count",
    "requests_per_s.unscaled": "1/s",
    "calibration_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measured time; at least one round always runs",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every scenario (self-tests only)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up seconds and exit",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="run one round at the default seed and store its result "
        "digests in pins.json",
    )
    return parser.parse_args(argv)


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            rank = min(n - 1, int(pct / 100 * n))
            return pct, ordered[rank]
    return 0.0, 0.0


# -- provenance --------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, load_start) -> dict:
    """Where and on what a record was measured."""
    import numpy

    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel", "HEAD")
    if top is not None:
        toplevel, head = top.split()
        if Path(toplevel).resolve() == ROOT:
            sha = head
            status = _git("status", "--porcelain", "--untracked-files=no")
            dirty = None if status is None else bool(status.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "host": platform.node(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
    }


# -- correctness gate --------------------------------------------------------


def gate(rounds, finish_errors: dict, pins: dict | None) -> tuple[int, int]:
    """Attach every failed check to its operation; ``(attempted, failed)``.

    Every round must reproduce the first round's digests.  With
    ``pins`` (the default seed) the first round must match them too.
    """
    first = {outcome.op: outcome for outcome in rounds[0].outcomes}
    for op, errors in finish_errors.items():
        first[op].errors.extend(errors)
    if pins is not None:
        for op, outcome in first.items():
            pinned = pins.get(op)
            if pinned is None:
                outcome.errors.append("no pinned digest")
            elif outcome.digest != pinned:
                outcome.errors.append("digest differs from the pinned one")
    for result in rounds[1:]:
        for outcome in result.outcomes:
            reference = first.get(outcome.op)
            if reference is None or outcome.digest != reference.digest:
                outcome.errors.append("result differs from round 1")
    outcomes = [o for result in rounds for o in result.outcomes]
    return len(outcomes), sum(1 for o in outcomes if o.errors)


def load_pins(size: str, workload: str) -> dict:
    try:
        return json.loads(PINS.read_text()).get(size, {}).get(workload, {})
    except FileNotFoundError:
        return {}


def write_pins(size: str, workload: str, result) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(size, {})[workload] = {
        o.op: o.digest for o in result.outcomes
    }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


# -- measurement -------------------------------------------------------------


def setup_samples(args, own: float) -> list[float]:
    """``own`` plus the set-up seconds of fresh processes, each timed
    from its first line."""
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--size", args.size, "--setup-only",
            ],
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_rounds(workload, ruler, seconds: float, recorder=None):
    """Rounds until ``seconds`` have passed (at least one).  With a
    recorder, rounds alternate untraced and traced, starting untraced;
    returns ``(untraced, traced)``."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if recorder is None or len(untraced) <= len(traced):
            untraced.append(workload.run_round(ruler))
        else:
            recorder.op = f"r{len(traced)}"
            recorder.install()
            try:
                traced.append(workload.run_round(ruler, recorder))
            finally:
                recorder.uninstall()
        done = time.perf_counter() - start >= seconds
        if done and (recorder is None or traced):
            return untraced, traced


def throughput(rounds, attr: str, scaled: bool = True) -> float:
    """Median over rounds of simulated work per host second, at the
    reference calibration speed unless ``scaled`` is false."""
    return median(
        getattr(r, attr) / (r.scaled if scaled else r.seconds)
        for r in rounds
        if r.seconds > 0
    )


def end_to_end(rounds, setup: list[float], ruler) -> dict:
    return {
        "setup_s": median(setup),
        "requests_per_s": throughput(rounds, "requests"),
        "cycles_per_s": throughput(rounds, "cycles"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "requests_per_s.unscaled": throughput(rounds, "requests", False),
        "calibration_s": median(ruler.samples),
    }


def per_layer(spans_mod, recorder, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds; ``(values, notes)``
    where notes name metrics whose layer is missing or was not
    exercised on this workload."""
    spans = recorder.closed()
    layer_s = spans_mod.layer_seconds(spans)
    ops = [f"r{k}" for k in range(len(traced))]

    def seconds(layer: str) -> float:
        return layer_s.get(("setup", layer), 0.0) + median(
            layer_s.get((op, layer), 0.0) for op in ops
        )

    def per_round(fn) -> float:
        return median(fn(r.outcomes) for r in traced)

    def total(key):
        return lambda outcomes: sum(o.counts.get(key, 0) for o in outcomes)

    def point_total(key):
        return lambda outcomes: sum(
            o.counts[key] for o in outcomes if "macs" in o.counts
        )

    def ratio(num, den):
        def fn(outcomes):
            d = sum(o.counts.get(den, 0) for o in outcomes)
            return sum(o.counts.get(num, 0) for o in outcomes) / d if d else 0.0
        return fn

    selfs = spans_mod.self_seconds(spans)
    tenancy_self = median(
        sum(
            selfs[s.id] for s in spans
            if s.op == op and s.layer == "control.tenancy"
        )
        for op in ops
    )
    layer_samples = [
        s.seconds for s in spans if s.layer == "accel.layer" and s.op in ops
    ]
    tail_pct, tail_s = tail(layer_samples)
    runs = [run for r in traced for o in r.outcomes for run in o.runs]
    general = sum(1 for dispatch, _ in runs if dispatch == "general")
    events_per_s = median(
        total("engine_events")(r.outcomes) / layer_s[(op, "engine")]
        for op, r in zip(ops, traced)
        if layer_s.get((op, "engine"))
    )
    warm = [
        o.counts["hit_frac"] for r in traced for o in r.outcomes
        if "hit_frac" in o.counts
    ]
    untraced_s = median(r.scaled for r in untraced)
    values = {
        "profile.s": seconds("profile"),
        "arrival.s": seconds("arrival"),
        "arena.s": seconds("arena"),
        "engine.s": seconds("engine"),
        "engine.events": per_round(total("engine_events")),
        "engine.events_per_s": events_per_s,
        "engine.peak_heap": per_round(
            lambda outcomes: max(
                (o.counts.get("engine_peak_heap", 0) for o in outcomes),
                default=0,
            )
        ),
        "engine.general_frac": general / len(runs) if runs else 0.0,
        "summary.s": seconds("summary"),
        "control.prepare.s": seconds("control.prepare"),
        "control.finalize.s": seconds("control.finalize"),
        "control.tenancy.self_s": tenancy_self,
        "control.shed_frac": per_round(ratio("shed", "offered")),
        "control.spill_frac": per_round(ratio("spilled", "offered")),
        "control.tick_actions": per_round(total("tick_actions")),
        "obs.write.s": seconds("obs.write"),
        "obs.spans": per_round(total("obs_spans")),
        "obs.trace_bytes": per_round(total("trace_bytes")),
        "render.s": seconds("render"),
        "quant.s": seconds("quant"),
        "accel.s": seconds("accel"),
        "accel.cycles": per_round(point_total("cycles")),
        "accel.macs": per_round(point_total("macs")),
        "accel.layer_s.p50": median(layer_samples),
        "accel.layer_s.tail": tail_s,
        "accel.layer_s.tail_pct": tail_pct,
        "accel.layer_s.n": len(layer_samples),
        "cache.get.s": seconds("cache.get"),
        "cache.put.s": seconds("cache.put"),
        "cache.hit_frac": min(warm) if warm else 0.0,
        "trace.overhead": (
            median(r.scaled for r in traced) / untraced_s
            if untraced_s else 0.0
        ),
        "trace.missing": len(recorder.missing),
    }
    # A metric belongs to every layer sharing its first name component.
    notes = {}
    seen = {layer.split(".")[0] for _, layer in layer_s}
    for name in values:
        family = name.split(".")[0]
        targets = [
            t
            for layer, ts in spans_mod.LAYERS.items()
            if layer.split(".")[0] == family
            for t in ts
        ]
        if targets and all(t in recorder.missing for t in targets):
            notes[name] = "missing: " + "; ".join(
                sorted({recorder.missing[t] for t in targets})
            )
        elif targets and family not in seen:
            notes[name] = "not exercised by this workload"
    dispatch = Counter(" / ".join(filter(None, run)) for run in runs)
    notes["engine runs per round, by dispatch / fallback"] = {
        k: v / len(traced) for k, v in dispatch.items()
    }
    return values, notes


def check_traced_identity(untraced, traced) -> None:
    """Traced rounds must produce the untraced rounds' results and take
    the same execution paths."""
    reference = {o.op: o for o in untraced[0].outcomes}
    for result in traced:
        for outcome in result.outcomes:
            ref = reference.get(outcome.op)
            if ref is None or (ref.digest, ref.runs) != (
                outcome.digest,
                outcome.runs,
            ):
                outcome.errors.append(
                    "traced result or dispatch differs from untraced"
                )


# -- output ------------------------------------------------------------------


def print_table(title: str, rows) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    load_start = os.getloadavg()
    import spans as spans_mod
    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spans_mod, workloads, workdir, load_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spans_mod, workloads, workdir, load_start) -> int:
    recorder = spans_mod.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    try:
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
    finally:
        if recorder is not None:
            recorder.uninstall()
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.pin:
        if args.seed != DEFAULT_SEED:
            print("error: --pin needs the default seed", file=sys.stderr)
            return 2
        write_pins(
            args.size, args.workload, workload.run_round(workloads.Ruler())
        )
        print(f"pinned {args.workload} ({args.size}) in {PINS}")
        return 0

    ruler = workloads.Ruler()
    untraced, traced = run_rounds(workload, ruler, args.seconds, recorder)
    rounds = untraced + traced
    pins = (
        load_pins(args.size, args.workload)
        if args.seed == DEFAULT_SEED
        else None
    )
    if traced:
        check_traced_identity(untraced, traced)
    attempted, failed = gate(rounds, workload.finish(), pins)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if recorder is None:
        values = end_to_end(rounds, setup_samples(args, own_setup), ruler)
        values["fail_rate"] = failed / attempted
        wanted = spec["end_to_end"]
        notes = {}
        if args.workload == "accel-dse":
            claims_failed, claims = workloads.paper_claims_failed()
            values["paper_claims_failed"] = claims_failed
            notes["paper_claims_failed"] = f"of {claims} analytic claims"
    else:
        values, notes = per_layer(spans_mod, recorder, traced, untraced)
        wanted = spec["per_layer"]
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.dump(dump)
        print_table(
            f"self time per round ({len(traced)} traced rounds; "
            f"spans in {dump.relative_to(ROOT)}):",
            [("span", "calls", "total_s", "self_s")]
            + [
                (name, f"{calls:g}", f"{total:.4f}", f"{own:.4f}")
                for name, calls, total, own in spans_mod.self_time_table(
                    [s for s in recorder.closed() if s.op != "setup"],
                    len(traced),
                )
            ],
        )
        if recorder.missing:
            print_table("missing span targets:", recorder.missing.items())

    errors = [
        (f"round {k + 1}", o.op, "; ".join(o.errors))
        for k, r in enumerate(rounds)
        for o in r.outcomes
        if o.errors
    ]
    if errors:
        print_table("failed operations:", errors[:20])
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in wanted}}
    print_table(
        f"{args.workload} seed={args.seed} rounds={len(untraced)}"
        f"+{len(traced)} traced",
        [
            (name, f"{value:.6g}", units.get(name, ""), notes.get(name, ""))
            for name, value in values.items()
        ]
        + [(name, note) for name, note in notes.items() if name not in values],
    )
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "rounds": [len(untraced), len(traced)],
        "round_seconds": [[r.seconds, r.scaled] for r in rounds],
        "round_requests": [r.requests for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "notes": notes,
        "provenance": provenance(args.seed, load_start),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print("record: " + json.dumps(record["provenance"]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
