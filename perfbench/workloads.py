"""The benchmark's workloads: scenarios built from a seed, one round of
operations, and the correctness gate on every operation.

An *operation* is one scenario run (with its report rendered, as a user
of ``repro serve``/``repro control`` would see it) or one design point.
A *round* runs each of a workload's operations once; the harness in
``run.py`` repeats rounds for the measured time.  Rounds are identical,
so every round must reproduce the first round's results bit for bit.

Library calls go through module attributes (``serve_sim.simulate``,
not a name imported here) so the span wrappers in ``spans.py`` see
them.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.control.simulator as control_sim
import repro.control.tenancy as tenancy
import repro.eval.control as control_eval
import repro.eval.serving as serving_eval
import repro.eval.summary as summary_eval
import repro.obs as obs_mod
import repro.parallel.cache as cache_mod
import repro.parallel.tasks as tasks
import repro.serve.profile as profile_mod
import repro.serve.simulator as serve_sim
import numpy as np
from repro.arch.params import EDEA_CONFIG, ArchConfig

#: Fleet size of every serving scenario.
INSTANCES = 4
#: Calibration-kernel seconds that host times are scaled to (its
#: median on a quiet 2-vCPU Xeon host).
CALIBRATION_REFERENCE_S = 0.030


@dataclass
class Outcome:
    """What one operation produced, and every check it failed."""

    op: str
    digest: str = ""
    #: ``(dispatch, fallback)`` of each engine run inside the operation.
    runs: tuple = ()
    #: Work counters read off the operation's results.
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Round:
    """One round: host seconds of the measured work, the simulated work
    it covered, and each operation's outcome."""

    seconds: float = 0.0
    #: ``seconds`` at the reference calibration speed (see :class:`Ruler`).
    scaled: float = 0.0
    requests: int = 0
    cycles: float = 0.0
    outcomes: list = field(default_factory=list)


def digest(value) -> str:
    """Content digest of a result.  Reports hash through the cache's
    canonical form, which leaves out the engine's execution counters
    (dispatch, events), so the digest pins the physics and not which
    execution path produced it."""
    return cache_mod.make_key("perfbench", value=value)


def calibrate() -> float:
    """Host seconds of a fixed interpreter-plus-NumPy kernel."""
    data = np.random.default_rng(0).random(300_000)
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    np.sort(data)
    return perf_counter() - start


class Ruler:
    """Times operations, each between two runs of :func:`calibrate`.

    The shared CPU this benchmark runs on changes speed for seconds at
    a time (by up to 1.5x, as other tenants come and go), which moves
    the calibration kernel and the operation alike.  Each operation's
    host seconds are therefore also reported *scaled* to the speed at
    which the kernel takes :data:`CALIBRATION_REFERENCE_S`, using the
    kernel's mean time just before and just after the operation.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]

    def time(self, recorder, name: str, fn):
        """``(fn(), seconds, scaled seconds)``; a span around ``fn``
        when tracing."""
        start = perf_counter()
        if recorder is None:
            value = fn()
        else:
            with recorder.span(f"op:{name}"):
                value = fn()
        seconds = perf_counter() - start
        self.samples.append(calibrate())
        speed = (self.samples[-2] + self.samples[-1]) / 2
        return value, seconds, seconds * CALIBRATION_REFERENCE_S / speed


def _busy_cycles(report) -> float:
    """Simulated accelerator busy time of a serving report, in cycles
    at the nominal clock."""
    busy_s = sum(u * report.makespan_s for u in report.utilization)
    return busy_s * EDEA_CONFIG.clock_hz


def _report_errors(report) -> list[str]:
    """Conservation checks on one engine run's report."""
    errors = []
    if report.requests + report.shed_requests != report.offered_requests:
        errors.append("completed + shed != offered")
    if sum(report.served_per_instance) != report.requests:
        errors.append("instances served != completed")
    if sum(count for _, count in report.per_model_counts) != report.requests:
        errors.append("per-model counts != completed")
    if report.class_stats:
        if sum(cs.offered for cs in report.class_stats) != (
            report.offered_requests
        ):
            errors.append("per-class offered != offered")
        if sum(cs.completed for cs in report.class_stats) != report.requests:
            errors.append("per-class completed != completed")
    return errors


def serving_outcome(name: str, report) -> Outcome:
    """Outcome of one serving or multi-fleet operation, with its
    conservation checks (per fleet and, with spillover, across
    fleets)."""
    multi = hasattr(report, "fleets")
    fleets = report.fleets if multi else (report,)
    errors = [e for fleet in fleets for e in _report_errors(fleet)]
    if multi:
        offered = report.offered_requests
        shed = report.shed_requests
        spilled = report.spilled_requests
        if not report.conserved:
            errors.append("multi-fleet completed + shed != offered")
        if sum(f.offered_requests for f in fleets) != offered + spilled:
            errors.append("fleet offered != offered + spilled")
        if sum(f.requests for f in fleets) != report.completed_requests:
            errors.append("fleet completed != multi-fleet completed")
    else:
        offered = report.offered_requests
        shed = report.shed_requests
        spilled = 0
    return Outcome(
        op=name,
        digest=digest(report),
        runs=tuple((f.engine_dispatch, f.engine_fallback) for f in fleets),
        counts={
            "offered": offered,
            "shed": shed,
            "spilled": spilled,
            "engine_events": sum(f.engine_events for f in fleets),
            "engine_peak_heap": max(f.engine_peak_heap for f in fleets),
            "tick_actions": sum(f.autoscale_events for f in fleets),
            "cycles": sum(_busy_cycles(f) for f in fleets),
        },
        errors=errors,
    )


class Workload:
    """Scenarios for one seed and size; :meth:`run_round` plays them."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def run_round(self, ruler: Ruler, recorder=None) -> Round:
        raise NotImplementedError

    def finish(self) -> dict:
        """Once-per-run checks after the rounds: op name -> errors."""
        return {}


class _Serving(Workload):
    """Serving workloads: a list of ``(name, run)`` operations, where
    ``run()`` simulates and renders one scenario."""

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        mix = profile_mod.build_mix("mixed")
        self.capacity = INSTANCES / mix.mean_service_seconds()
        self.ops = self.build_ops()

    def build_ops(self) -> list:
        raise NotImplementedError

    def run_round(self, ruler: Ruler, recorder=None) -> Round:
        result = Round()
        for name, run in self.ops:
            try:
                report, seconds, scaled = ruler.time(recorder, name, run)
            except Exception as exc:  # a raising operation is a failure
                result.outcomes.append(
                    Outcome(op=name, errors=[f"raised {exc!r}"])
                )
                continue
            outcome = serving_outcome(name, report)
            result.seconds += seconds
            result.scaled += scaled
            result.requests += outcome.counts["offered"]
            result.cycles += outcome.counts["cycles"]
            result.outcomes.append(outcome)
        return result


def _serve(scenario):
    report = serve_sim.simulate(scenario)
    serving_eval.render_serving_report(report)
    return report


def _control(scenario):
    report = control_sim.simulate_controlled(scenario)
    control_eval.render_control_report(report)
    control_eval.report_to_dict(report)
    return report


def _multi_fleet(scenario):
    report = tenancy.simulate_multi_fleet(scenario)
    control_eval.render_multi_fleet_report(report)
    control_eval.multi_fleet_to_dict(report)
    return report


class Columnar(_Serving):
    """Hook-free round-robin and least-loaded serving at 70% of fleet
    capacity, plus deadline-shedding round-robin at 1.5x overload."""

    name = "columnar"

    def build_ops(self):
        n = 200_000 if self.size == "full" else 2_000
        base = dict(
            mix="mixed", requests=n, instances=INSTANCES, seed=self.seed
        )
        rr = serve_sim.ServingScenario(policy="round-robin", **base)
        ll = serve_sim.ServingScenario(policy="least-loaded", **base)
        rr_ctl = control_sim.ControlScenario(
            policy="round-robin",
            shedding="deadline",
            qps=1.5 * self.capacity,
            **base,
        )
        return [
            ("rr", lambda: _serve(rr)),
            ("ll", lambda: _serve(ll)),
            ("rr-ctl", lambda: _control(rr_ctl)),
        ]


class Traced(_Serving):
    """The columnar round-robin traffic with telemetry on: span trace
    plus metrics timeline, trace written to a file."""

    name = "traced"

    def build_ops(self):
        n = 40_000 if self.size == "full" else 1_000
        self.scenario = serve_sim.ServingScenario(
            mix="mixed",
            policy="round-robin",
            requests=n,
            instances=INSTANCES,
            seed=self.seed,
        )
        self.first_trace = self.workdir / "trace-first.json"
        self.first_digest = ""
        self.first_spans = 0
        self._spans = 0
        return [("rr-traced", self._run)]

    def _run(self):
        obs = obs_mod.Observability(trace=True, metrics_every_s=0.1)
        report = serve_sim.simulate(self.scenario, obs=obs)
        serving_eval.render_serving_report(report)
        obs.write_trace(self.workdir / "trace.json")
        obs.metrics_payload()
        self._spans = obs.counts()["completed"]
        return report

    def run_round(self, ruler: Ruler, recorder=None) -> Round:
        """Keeps the first trace; every later one must be
        byte-identical to it."""
        result = super().run_round(ruler, recorder)
        latest = self.workdir / "trace.json"
        for outcome in result.outcomes:
            if not outcome.digest:
                continue
            outcome.counts["trace_bytes"] = latest.stat().st_size
            outcome.counts["obs_spans"] = self._spans
            if not self.first_digest:
                self.first_digest = outcome.digest
                self.first_spans = self._spans
                latest.replace(self.first_trace)
            elif latest.read_bytes() != self.first_trace.read_bytes():
                outcome.errors.append("trace differs from the first round's")
        return result

    def finish(self) -> dict:
        """The first trace passes ``tools/check_trace.py`` with one
        request span per completed request, and the traced report
        equals the untraced one."""
        if not self.first_digest:
            return {}
        errors: list[str] = []
        checker = Path(__file__).resolve().parent.parent / "tools" / (
            "check_trace.py"
        )
        proc = subprocess.run(
            [sys.executable, str(checker), str(self.first_trace)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            errors.append(
                f"check_trace: {(proc.stderr or proc.stdout).strip()}"
            )
        untraced = serve_sim.simulate(self.scenario)
        if f" {untraced.requests} request spans " not in proc.stdout:
            errors.append("trace request spans != completed requests")
        if self.first_spans != untraced.requests:
            errors.append("recorded spans != completed requests")
        if digest(untraced) != self.first_digest:
            errors.append("traced report differs from the untraced report")
        return {"rr-traced": errors} if errors else {}


class Governed(_Serving):
    """The general loop under control hooks: least-loaded routing with
    the utilization governor over the default priority SLO classes on a
    diurnal day peaking above capacity (the backlog builds in the
    priority queues), and two correlated fleets with deadline shedding,
    governors and deadline spillover."""

    name = "governed"

    def build_ops(self):
        n = 6_000 if self.size == "full" else 600
        m = 5_000 if self.size == "full" else 500
        cap = self.capacity
        governed = control_sim.ControlScenario(
            mix="mixed",
            arrival="diurnal",
            qps=cap,
            diurnal_period_s=n / cap,
            diurnal_amplitude=0.6,
            policy="least-loaded",
            autoscale="utilization",
            instances=INSTANCES,
            requests=n,
            seed=self.seed,
        )
        member = dict(
            mix="mixed",
            requests=m,
            instances=INSTANCES,
            policy="least-loaded",
            shedding="deadline",
            autoscale="utilization",
        )
        multi = tenancy.MultiFleetScenario(
            fleets=(
                control_sim.ControlScenario(qps=1.3 * cap, **member),
                control_sim.ControlScenario(qps=0.5 * cap, **member),
            ),
            modulator="diurnal",
            period_s=m / cap,
            amplitude=0.5,
            spillover="deadline",
            seed=self.seed,
        )
        return [
            ("governed-ll", lambda: _control(governed)),
            ("multi-fleet", lambda: _multi_fleet(multi)),
        ]


class AccelDSE(Workload):
    """The paper's design-space exploration on the event-driven
    cycle-level model: a Td x Tk grid of architecture candidates on
    MobileNetV1 at CIFAR 32x32, cold into a fresh result cache, then
    again warm from the same cache directory."""

    name = "accel-dse"
    width = 0.25
    resolution = 32

    def __init__(self, seed, size, workdir) -> None:
        super().__init__(seed, size, workdir)
        pairs = (
            [(td, tk) for td in (4, 8) for tk in (8, 16)]
            if size == "full"
            else [(8, 16)]
        )
        self.grid = [ArchConfig(td=td, tk=tk) for td, tk in pairs]
        self.names = [f"td{td}-tk{tk}" for td, tk in pairs]
        # Builds and quantizes the driving model (memoized per process).
        tasks.simulate_design_point(
            self.grid[0], self.width, self.resolution, seed, fast=True
        )
        self.first: dict | None = None
        self.rounds = 0

    def _sweep(self, grid, cache):
        return tasks.design_point_sweep(
            grid,
            self.width,
            self.resolution,
            self.seed,
            fast=False,
            jobs=1,
            cache=cache,
        )

    def run_round(self, ruler: Ruler, recorder=None) -> Round:
        """The cold pass sweeps one grid point per call, so each point
        is timed between calibrations; the warm pass sweeps the whole
        grid through a new cache object on the same directory."""
        result = Round()
        cache_dir = self.workdir / f"cache-{self.rounds}"
        self.rounds += 1
        cold = {}
        try:
            cache = cache_mod.ResultCache(cache_dir)
            for name, config in zip(self.names, self.grid):
                op = f"{name}-cold"
                try:
                    points, seconds, scaled = ruler.time(
                        recorder, op, lambda: self._sweep([config], cache)
                    )
                except Exception as exc:  # a raising point is a failure
                    result.outcomes.append(
                        Outcome(op=op, errors=[f"raised {exc!r}"])
                    )
                    continue
                if len(points) != 1:
                    result.outcomes.append(
                        Outcome(op=op, errors=["infeasible grid point"])
                    )
                    continue
                point = cold[name] = points[0]
                result.seconds += seconds
                result.scaled += scaled
                result.requests += 1
                result.cycles += point.total_cycles
                result.outcomes.append(
                    Outcome(
                        op=op,
                        digest=digest(point),
                        counts={
                            "cycles": point.total_cycles,
                            "macs": point.total_macs,
                        },
                    )
                )
            warm_cache = cache_mod.ResultCache(cache_dir)
            try:
                warm, _, _ = ruler.time(
                    recorder, "warm", lambda: self._sweep(self.grid, warm_cache)
                )
                warm_error = ""
            except Exception as exc:  # fails every warm point
                warm, warm_error = [None] * len(self.grid), f"raised {exc!r}"
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        lookups = warm_cache.hits + warm_cache.misses
        hit_frac = warm_cache.hits / lookups if lookups else 0.0
        for name, hot in zip(self.names, warm):
            errors = [warm_error] if warm_error else []
            if hot is None or name not in cold or digest(hot) != digest(
                cold[name]
            ):
                errors.append("warm result differs from cold")
            if hit_frac != 1.0:
                errors.append(f"warm cache hit fraction {hit_frac}")
            result.outcomes.append(
                Outcome(
                    op=f"{name}-warm",
                    digest=digest(hot) if hot is not None else "",
                    counts={"hit_frac": hit_frac},
                    errors=errors,
                )
            )
        if self.first is None:
            self.first = cold
        return result

    def finish(self) -> dict:
        """Event-model cycles and MACs equal the analytic model's."""
        errors = {}
        for name, config in zip(self.names, self.grid):
            result = (self.first or {}).get(name)
            if result is None:
                continue
            fast = tasks.simulate_design_point(
                config, self.width, self.resolution, self.seed, fast=True
            )
            if (fast.total_cycles, fast.total_macs) != (
                result.total_cycles,
                result.total_macs,
            ):
                errors[f"{name}-cold"] = ["cycles/MACs differ from fast=True"]
        return errors


def paper_claims_failed() -> tuple[int, int]:
    """Analytic paper claims outside tolerance, and claims checked."""
    checks = summary_eval.reproduction_report()
    return sum(not check.passed for check in checks), len(checks)


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Set up workload ``name``: everything before its first result."""
    classes = {cls.name: cls for cls in (Columnar, Traced, Governed, AccelDSE)}
    return classes[name](seed, size, workdir)
