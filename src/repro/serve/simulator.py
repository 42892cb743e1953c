"""Request-level serving simulation over a fleet of accelerators.

One :func:`simulate` call plays a whole serving story: requests arrive
under a configured traffic process, a scheduling policy routes each one
to an instance, per-instance batching queues amortize model switches,
and every service time is the deterministic fastpath latency of the
request's network.  The event machinery itself lives in
:mod:`repro.serve.engine` — ``simulate`` is a thin configuration of the
shared kernel with all hooks at their no-op defaults, the same kernel
the SLO/energy control plane (:func:`repro.control.simulate_controlled`)
drives through its admission/governor hooks.

Everything is deterministic for a given :class:`ServingScenario`
(a frozen dataclass of primitives), which makes scenarios cacheable
content keys and reports reproducible across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..arch.params import EDEA_CONFIG, ArchConfig
from ..errors import ConfigError
from ..parallel.cache import extension_field, restore_extended
from .arena import RequestArena
from .arrival import capture_rng_state, make_arrivals
from .engine import (
    Engine,
    EngineHooks,
    EngineRun,
    RequestSummary,
    build_requests,
    rr_wait_fallback,
    run_streaming_round_robin,
    summarize_requests,
)
from .fleet import Fleet
from .policies import make_policy
from .profile import DEFAULT_WEIGHT_BANDWIDTH, build_mix

__all__ = [
    "ServingScenario",
    "ServingReport",
    "RequestStream",
    "ServingExecution",
    "offered_qps",
    "build_stream",
    "build_serving_fleet",
    "prepare_serving",
    "finalize_serving",
    "assemble_report",
    "simulate",
]

_INF = float("inf")

#: Default offered load as a fraction of fleet capacity when no QPS is
#: requested (both planes): high enough to queue, low enough to be
#: stable.
_DEFAULT_LOAD = 0.7

#: The float fields :class:`ServingScenario` (and the control plane's
#: scenario, which mirrors them) require to be finite.  Range checks
#: alone let NaN through (``nan <= 0`` is False), and a NaN rate or fill
#: window never advances the event clock.
FINITE_FIELDS = (
    "qps",
    "burst_factor",
    "max_wait_ms",
    "weight_bandwidth",
    "diurnal_period_s",
    "diurnal_amplitude",
)


def check_finite(scenario, names) -> None:
    """Reject a non-finite value in any of the float fields ``names``
    (``None`` means "unset" and passes).

    Raises:
        ConfigError: Naming the first NaN or infinite field.
    """
    for name in names:
        value = getattr(scenario, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite ({value})")


#: Periodic events (governor ticks, metrics windows) a run may schedule
#: per request.  Each costs the general loop a heap event or a sampling
#: step, so a positive but tiny cadence makes run time scale with
#: horizon / interval rather than with requests: ``tick_ms=1e-9`` on a
#: 200-request run would schedule ~3e10 governor ticks.
MAX_TICKS_PER_REQUEST = 1000


def check_tick_budget(knob: str, interval_s: float, times) -> None:
    """Reject a periodic cadence whose tick count would dwarf the run.

    The estimate is the arrival horizon — the last arrival time, which
    is ``requests / qps`` in expectation and the trace span on replay —
    over ``interval_s``.

    Raises:
        ConfigError: Naming ``knob`` when the estimate exceeds
            :data:`MAX_TICKS_PER_REQUEST` ticks per request.
    """
    horizon = float(times[-1])
    ticks = horizon / interval_s
    if ticks > MAX_TICKS_PER_REQUEST * len(times):
        raise ConfigError(
            f"{knob} is too fine for this run: ~{ticks:.3g} ticks over "
            f"its {horizon:.3g} s arrival horizon, more than "
            f"{MAX_TICKS_PER_REQUEST} per request ({len(times)} requests)"
        )


@dataclass(frozen=True)
class ServingScenario:
    """Complete, hashable description of one serving simulation.

    Attributes:
        mix: Scenario mix name (see
            :data:`repro.serve.profile.SCENARIO_MIXES`).
        arrival: Traffic shape: ``"poisson"``, ``"bursty"``,
            ``"diurnal"``, ``"trace"``.
        qps: Offered rate; ``None`` picks 70% of fleet capacity.
        burst_factor: Burst multiplier for bursty traffic.
        trace: Arrival timestamps for trace replay.
        requests: Number of requests to play (traces clamp to length).
        instances: Fleet size.
        policy: Scheduling policy name.
        max_batch: Largest same-model batch an instance launches.
        max_wait_ms: Longest a queue head waits for its batch to fill.
        seed: RNG seed (arrival draws and mix sampling).
        config: Architecture parameters for the service-time model.
        weight_bandwidth: External bandwidth for model switches.
        diurnal_period_s: One day/night cycle for diurnal traffic.
        diurnal_amplitude: Peak-to-mean swing of the diurnal rate.
        stats: ``"exact"`` retains every latency and reports exact
            percentiles (the PR-4 behaviour, bit-for-bit); ``"sketch"``
            streams latencies through a t-digest
            (:mod:`repro.serve.sketch`) so memory stays flat in
            ``requests`` — and, for hook-free round-robin scenarios,
            generates arrivals chunk-at-a-time too (the
            million-request mode).  Streaming interleaves arrival and
            model draws per chunk, so its RNG stream (and therefore
            its request content) differs from exact mode at the same
            seed; sketch-mode scenarios hash to distinct cache keys,
            so cached exact reports are never shadowed.
    """

    mix: str = "mixed"
    arrival: str = "poisson"
    qps: float | None = None
    burst_factor: float = 4.0
    trace: tuple[float, ...] | None = None
    requests: int = 10_000
    instances: int = 4
    policy: str = "least-loaded"
    max_batch: int = 8
    max_wait_ms: float = 2.0
    seed: int = 0
    config: ArchConfig = EDEA_CONFIG
    weight_bandwidth: float = DEFAULT_WEIGHT_BANDWIDTH
    diurnal_period_s: float = extension_field(60.0)
    diurnal_amplitude: float = extension_field(0.8)
    stats: str = extension_field("exact")

    def __post_init__(self) -> None:
        check_finite(self, FINITE_FIELDS)
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1 ({self.requests})")
        if self.instances < 1:
            raise ConfigError(f"instances must be >= 1 ({self.instances})")
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1 ({self.max_batch})")
        if self.max_wait_ms < 0:
            raise ConfigError(
                f"max_wait_ms must be >= 0 ({self.max_wait_ms})"
            )
        if self.qps is not None and self.qps <= 0:
            raise ConfigError(f"qps must be positive ({self.qps})")
        if self.stats not in ("exact", "sketch"):
            raise ConfigError(
                f"unknown stats mode {self.stats!r} "
                "(known: exact, sketch)"
            )
        # The diurnal knobs are validated by DiurnalArrivals when the
        # arrival process is built, like burst_factor by BurstyArrivals.


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving simulation.

    Latencies are arrival-to-completion, in seconds.  ``utilization``
    is each instance's busy fraction of the makespan;
    ``per_model_counts`` is sorted ``(model, completed)`` pairs.

    The makespan includes the drain after the last arrival, which
    understates steady-state utilization, so ``utilization_busy`` also
    reports each instance's busy fraction of the *busy window* — the
    offered-traffic span ``[0, last arrival]`` (``busy_window_s``), with
    busy time truncated to it.

    Control-plane runs (:func:`repro.control.simulate_controlled`) fill
    the remaining fields: ``requests`` is then the *completed* count,
    ``offered_requests``/``shed_requests`` split the offered traffic,
    ``class_stats`` holds per-SLO-class
    :class:`~repro.control.slo.ClassStats`, and the energy fields
    integrate per-instance power over the run (None outside the control
    plane).
    """

    mix: str
    arrival: str
    policy: str
    instances: int
    requests: int
    offered_qps: float
    capacity_qps: float
    makespan_s: float
    sustained_qps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    mean_wait_s: float
    mean_batch_size: float
    setups: int
    utilization: tuple[float, ...]
    served_per_instance: tuple[int, ...]
    per_model_counts: tuple[tuple[str, int], ...]
    busy_window_s: float = 0.0
    utilization_busy: tuple[float, ...] = ()
    offered_requests: int = 0
    shed_requests: int = 0
    energy_joules: float | None = None
    joules_per_request: float | None = None
    class_stats: tuple = ()
    autoscale_events: int = 0
    mean_active_instances: float | None = None
    #: Per-model (tenant) aggregates, filled only when the scenario
    #: binds SLO classes to models (kept empty otherwise so the JSON
    #: form of pre-existing reports is byte-stable).
    model_stats: tuple = ()
    #: Engine execution counters — diagnostics about *how* the run
    #: executed, not *what* it computed.  ``compare=False`` keeps
    #: report equality (parity goldens, cache round-trips, the
    #: multi-fleet-vs-monolith check) about the physics, and
    #: ``report_to_dict`` drops them so the JSON report payloads stay
    #: byte-stable; the CLI surfaces them in a separate section.
    engine_events: int = field(default=0, compare=False)
    engine_peak_heap: int = field(default=0, compare=False)
    engine_dispatch: str = field(default="", compare=False)
    #: First failing fast-path precondition when the general loop ran
    #: (empty when a fast path served the run) — makes a fallback to
    #: the general loop diagnosable from ``--json``.
    engine_fallback: str = field(default="", compare=False)

    def __setstate__(self, state: dict) -> None:
        # Reports unpickled from caches written before a field existed
        # backfill its default (see restore_extended).
        restore_extended(self, state)

    @property
    def offered_load(self) -> float:
        """Offered rate as a fraction of fleet capacity (rho)."""
        if self.capacity_qps <= 0:
            return 0.0
        return self.offered_qps / self.capacity_qps

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(self.utilization))

    @property
    def mean_utilization_busy(self) -> float:
        """Mean busy-window utilization (steady-state view)."""
        if not self.utilization_busy:
            return self.mean_utilization
        return float(np.mean(self.utilization_busy))

    @property
    def slo_attainment(self) -> float | None:
        """Offered-weighted fraction of requests meeting their deadline
        (shed requests count as misses); None without SLO classes."""
        if not self.class_stats:
            return None
        offered = sum(cs.offered for cs in self.class_stats)
        if offered == 0:
            return None
        return sum(cs.met for cs in self.class_stats) / offered


class RequestStream(NamedTuple):
    """One run's offered traffic, materialized.

    The input every execution builder takes: fresh runs get it from
    :func:`build_stream`; checkpoint resumes and multi-fleet members
    wrap an arena that already exists (``rng_state=None``, since no
    generator produced it here — a resume's snapshot carries its own).
    """

    qps: float
    times: np.ndarray
    requests: RequestArena
    #: Bit-generator state right after stream construction — all
    #: randomness is consumed pre-run, so this is the position a
    #: checkpoint must round-trip exactly.
    rng_state: dict | None


def offered_qps(scenario, capacity: float) -> float:
    """The scenario's offered rate: its ``qps``, else the default
    load fraction of the fleet ``capacity``."""
    if scenario.qps is not None:
        return scenario.qps
    return _DEFAULT_LOAD * capacity


def _traffic(scenario, capacity: float):
    """``(qps, arrivals, n, rng)`` of a serve or control scenario: the
    arrival process, the request count (traces clamp it) and the
    seeded generator every draw of the run comes from."""
    qps = offered_qps(scenario, capacity)
    arrivals = make_arrivals(
        scenario.arrival,
        qps,
        burst_factor=scenario.burst_factor,
        trace=scenario.trace,
        diurnal_period_s=scenario.diurnal_period_s,
        diurnal_amplitude=scenario.diurnal_amplitude,
    )
    n = scenario.requests
    if scenario.arrival == "trace":
        n = min(n, len(scenario.trace))
    return qps, arrivals, n, np.random.default_rng(scenario.seed)


def build_stream(scenario, mix, capacity: float) -> RequestStream:
    """Materialize a serve or control scenario's request stream.

    The one owner of the run's RNG draw order: arrival times first,
    then the arena's model (and, for control scenarios, SLO-class)
    draws, on one generator seeded from ``scenario.seed``.
    """
    qps, arrivals, n, rng = _traffic(scenario, capacity)
    times = arrivals.times(n, rng)
    requests = build_requests(
        mix, times, rng, getattr(scenario, "slo_classes", None)
    )
    return RequestStream(qps, times, requests, capture_rng_state(rng))


def build_serving_fleet(scenario: ServingScenario):
    """``(fleet, mix, capacity)`` of a serve scenario: identical
    instances at the scenario's mix."""
    mix = build_mix(
        scenario.mix, scenario.config, scenario.weight_bandwidth
    )
    capacity = scenario.instances / mix.mean_service_seconds()
    return Fleet(scenario.instances), mix, capacity


def simulate(
    scenario: ServingScenario,
    hooks: EngineHooks | None = None,
    *,
    obs=None,
) -> ServingReport:
    """Run one serving scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.

    Args:
        scenario: The frozen scenario description.
        hooks: Optional custom :class:`~repro.serve.engine.EngineHooks`
            (e.g. an admission controller); the default runs the plain
            data plane.  A shedding hook makes the report's completed
            count diverge from the offered one — all throughput and
            batch statistics are computed from requests that actually
            *entered* a batch, never from shed traffic.
        obs: Optional :class:`~repro.obs.Observability` session; an
            active one wraps the hooks in telemetry observers (which
            routes the run down the general loop) without changing the
            reported physics.
    """
    fleet, mix, capacity = build_serving_fleet(scenario)
    max_wait_s = scenario.max_wait_ms * 1e-3
    if (
        scenario.stats == "sketch"
        and hooks is None
        and (obs is None or not obs.active)
        and scenario.policy == "round-robin"
        and not rr_wait_fallback(max_wait_s, None)
    ):
        # The flat-memory mode: arrivals chunk-at-a-time through the
        # exact round-robin kernel, latencies folded into a t-digest.
        qps, arrivals, n, rng = _traffic(scenario, capacity)
        summary, run = run_streaming_round_robin(
            fleet, mix, arrivals, n, rng, scenario.max_batch, max_wait_s
        )
        return assemble_report(
            scenario,
            fleet,
            summary,
            qps=qps,
            capacity=capacity,
            n=n,
            window_end=fleet.instances[0].window_end,
            makespan=summary.max_finish if summary.completed else 0.0,
            run=run,
        )
    stream = build_stream(scenario, mix, capacity)
    execution = prepare_serving(
        scenario, fleet, mix, capacity, stream, hooks, obs=obs
    )
    execution.engine.run_until(_INF)
    return finalize_serving(execution)


@dataclass
class ServingExecution:
    """One armed run, ready to execute.

    Every run has one lifecycle: build the stream, build the execution
    (:func:`prepare_serving` or
    :func:`~repro.control.simulator.prepare_controlled`, which calls
    ``engine.begin``), advance the engine with
    :meth:`~repro.serve.engine.Engine.run_until` — one ``run_until(inf)``
    lets the engine dispatch a columnar fast path, bounded slices step
    the general loop for checkpointed runs — and
    turn the drained execution into its report
    (:func:`finalize_serving`).
    """

    scenario: object
    fleet: Fleet
    mix: object
    capacity: float
    qps: float
    times: np.ndarray
    requests: RequestArena
    engine: Engine
    #: The stream's post-construction RNG position (``None`` for a
    #: loaded stream; see :class:`RequestStream`).
    rng_state: dict | None


def arm_execution(
    cls, scenario, fleet, mix, capacity, stream: RequestStream, engine
):
    """The builders' shared tail: set the busy window, ``begin`` the
    engine over the stream (carrying its RNG position in the engine
    state, which snapshots persist) and wrap it all as ``cls``."""
    window_end = float(stream.times[-1])
    for instance in fleet:
        instance.window_end = window_end
    engine.begin(stream.requests)
    if stream.rng_state is not None:
        engine.state.rng_states = {"main": stream.rng_state}
    return cls(
        scenario=scenario,
        fleet=fleet,
        mix=mix,
        capacity=capacity,
        qps=stream.qps,
        times=stream.times,
        requests=stream.requests,
        engine=engine,
        rng_state=stream.rng_state,
    )


def prepare_serving(
    scenario: ServingScenario,
    fleet: Fleet,
    mix,
    capacity: float,
    stream: RequestStream,
    hooks: EngineHooks | None = None,
    *,
    obs=None,
) -> ServingExecution:
    """Build and arm the serve execution over ``stream``.

    Fresh runs pass :func:`build_stream`'s output; a checkpoint resume
    passes the arena it loaded (which must never be regenerated) and
    then restores the engine snapshot over the armed state.
    """
    policy = make_policy(scenario.policy)
    policy.reset()
    if obs is not None and obs.metrics_every_s is not None:
        check_tick_budget("metrics_every_s", obs.metrics_every_s, stream.times)
    tick_s = None
    if obs is not None and obs.active:
        hooks = obs.wrap(hooks, pid=0)
        obs.register_fleet(0, f"fleet ({scenario.mix})", fleet)
        tick_s = obs.engine_tick_s(None)
    engine = Engine(
        fleet,
        policy,
        max_batch=scenario.max_batch,
        max_wait_s=scenario.max_wait_ms * 1e-3,
        hooks=hooks,
        tick_s=tick_s,
    )
    return arm_execution(
        ServingExecution, scenario, fleet, mix, capacity, stream, engine
    )


def finalize_serving(execution: ServingExecution) -> ServingReport:
    """Aggregate a drained :class:`ServingExecution` into its report;
    identical whether the engine drained in one ``run_until(inf)``, in
    checkpointed slices, or after a restore in a fresh process."""
    summary = summarize_requests(
        execution.requests, stats=execution.scenario.stats
    )
    # An all-shed run (a shedding hook under heavy overload) completes
    # nothing: report an explicit zero makespan, not a -inf max_finish.
    return assemble_report(
        execution.scenario,
        execution.fleet,
        summary,
        qps=execution.qps,
        capacity=execution.capacity,
        n=len(execution.requests),
        window_end=float(execution.times[-1]),
        makespan=summary.max_finish if summary.completed else 0.0,
        run=execution.engine.last_run,
    )


def assemble_report(
    scenario,
    fleet: Fleet,
    summary: RequestSummary,
    qps: float,
    capacity: float,
    n: int,
    window_end: float,
    makespan: float,
    run: EngineRun,
    **control_fields,
) -> ServingReport:
    """The one :class:`ServingReport` assembly behind every report
    builder (serve, streaming and control): rates, latencies, batch
    and fleet statistics from a drained run's ``summary`` and
    ``fleet`` counters over ``makespan``; ``control_fields`` fill the
    control plane's extra fields.

    Trace replays report the offered rate of the prefix actually
    played, everything else the configured ``qps``.  An all-shed run
    completes nothing and reports explicit zeros instead of feeding
    empty arrays to mean/percentile (NaN + RuntimeWarning).
    """
    completed = summary.completed
    if scenario.arrival == "trace":
        offered = n / window_end if window_end > 0 else float(n)
    else:
        offered = float(qps)
    total_batches = sum(i.batches for i in fleet)
    return ServingReport(
        mix=scenario.mix,
        arrival=scenario.arrival,
        policy=scenario.policy,
        instances=len(fleet),
        requests=completed,
        offered_qps=offered,
        capacity_qps=float(capacity),
        makespan_s=makespan,
        sustained_qps=completed / makespan if makespan > 0 else 0.0,
        latency_mean_s=summary.latency_mean() if completed else 0.0,
        latency_p50_s=(
            summary.latency_percentile(50) if completed else 0.0
        ),
        latency_p95_s=(
            summary.latency_percentile(95) if completed else 0.0
        ),
        latency_p99_s=(
            summary.latency_percentile(99) if completed else 0.0
        ),
        latency_max_s=summary.latency_max() if completed else 0.0,
        mean_wait_s=summary.wait_mean() if completed else 0.0,
        # Shed requests never enter a batch: the mean batch size is
        # completed (served) work per launch, not offered work.
        mean_batch_size=(
            completed / total_batches if total_batches else 0.0
        ),
        setups=sum(i.setups for i in fleet),
        utilization=tuple(
            i.busy_seconds / makespan if makespan > 0 else 0.0
            for i in fleet
        ),
        served_per_instance=tuple(i.served for i in fleet),
        per_model_counts=summary.model_counts,
        busy_window_s=window_end,
        utilization_busy=tuple(
            i.busy_seconds_window / window_end if window_end > 0 else 0.0
            for i in fleet
        ),
        offered_requests=n,
        shed_requests=n - completed,
        engine_events=run.events,
        engine_peak_heap=run.peak_heap,
        engine_dispatch=run.dispatch,
        engine_fallback=run.fallback,
        **control_fields,
    )
