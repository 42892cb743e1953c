"""Multi-tenant, multi-fleet serving: correlated traffic + spillover.

One :class:`MultiFleetScenario` co-simulates N member fleets (each a
full :class:`~repro.control.simulator.ControlScenario`: its own
instances, SLO classes — including per-model bindings — shedding and
governor) whose arrival processes are *correlated*: a single latent
modulating factor (:class:`repro.serve.arrival.SharedModulator`, a
day/night sinusoid or a sampled MMPP burst state) multiplies every
fleet's offered rate at the same simulated instant, while each fleet's
arrival jitter comes from an independent substream of the scenario's
master seed.  That is the regional-spike story a production control
plane cannot avoid: when the modulator peaks, *every* fleet peaks
together, so one fleet's headroom is only real if the spike leaves any.

Cross-fleet **spillover** exploits exactly that headroom: a fleet whose
offered load exceeds its capacity (``rho > 1``) forwards the requests
its admission controller shed — when their deadlines survive a
forwarding hop plus the sibling's service time — to the sibling with
the most headroom.  Donor fleets run first and receivers after, so a
forwarded request arrives in the receiver's event order at
``arrival + hop`` and takes its chances against the receiver's own
admission control; spillover can never loop back into a fleet that
already ran.

Every member fleet is its own :class:`~repro.serve.engine.Engine`,
advanced through :meth:`~repro.serve.engine.Engine.run_until`-bounded
*epochs* with the spillover exchange at the phase barrier (donors
drain, shed rows are forwarded as ``(donor arena, row)`` references,
and each receiver's home arena is merged with its spill-ins into one
new :class:`~repro.serve.arena.RequestArena` before it drains — no
request is ever copied into an object of its own).  Epoch
length and process sharding (``epoch_s``/``jobs``, keyword-only) are
execution details — any positive epoch and any job count reproduce
the identical report — and everything — the latent path, per-fleet
thinning, engine order — is a pure function of the frozen scenario,
so multi-fleet reports are cacheable content keys exactly like
single-fleet ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..parallel.executor import ParallelExecutor
from ..power.dvfs import DVFSModel
from ..serve.arena import RequestArena
from ..serve.arrival import SharedModulator
from ..serve.engine import build_requests
from ..serve.simulator import (
    RequestStream,
    ServingReport,
    check_finite,
    offered_qps,
)
from .simulator import (
    ControlScenario,
    build_control_fleet,
    finalize_controlled,
    prepare_controlled,
)
from .slo import SLOClass

__all__ = [
    "MultiFleetScenario",
    "MultiFleetReport",
    "simulate_multi_fleet",
]


@dataclass(frozen=True)
class MultiFleetScenario:
    """Complete, hashable description of one correlated multi-fleet run.

    Attributes:
        fleets: Member fleets.  Each member's data- and control-plane
            knobs apply unchanged, except its ``arrival``/``trace``/
            ``seed`` fields: arrivals come from the shared modulator
            on substreams of the master ``seed`` below.
        modulator: Latent factor kind — ``"diurnal"`` (deterministic
            day/night sinusoid) or ``"burst"`` (one sampled MMPP-2
            state path all fleets share).
        period_s / amplitude: Diurnal cycle and swing (amplitude in
            [0, 1), as in :class:`~repro.serve.arrival.DiurnalArrivals`).
        burst_factor / burst_share / mean_dwell_s: MMPP-2 parameters
            for ``modulator="burst"``.
        spillover: ``"none"`` or ``"deadline"`` — fleets at rho > 1
            forward shed, deadline-feasible requests to the sibling
            with the most headroom.
        spillover_hop_ms: Forwarding latency a spilled request pays
            before it reaches the sibling.
        seed: Master seed; substream 0 drives the latent burst path
            and substream k+1 fleet k's thinning and request draws.
    """

    fleets: tuple[ControlScenario, ...]
    modulator: str = "diurnal"
    period_s: float = 60.0
    amplitude: float = 0.8
    burst_factor: float = 4.0
    burst_share: float = 0.2
    mean_dwell_s: float = 0.05
    spillover: str = "none"
    spillover_hop_ms: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fleets:
            raise ConfigError(
                "multi-fleet scenario needs at least one fleet"
            )
        if self.spillover not in ("none", "deadline"):
            raise ConfigError(
                f"unknown spillover policy {self.spillover!r} "
                "(known: none, deadline)"
            )
        check_finite(
            self,
            (
                "period_s",
                "amplitude",
                "burst_factor",
                "burst_share",
                "mean_dwell_s",
                "spillover_hop_ms",
            ),
        )
        if self.spillover_hop_ms < 0:
            raise ConfigError(
                "spillover_hop_ms must be >= 0 "
                f"({self.spillover_hop_ms})"
            )
        for scenario in self.fleets:
            if scenario.arrival == "trace":
                raise ConfigError(
                    "member fleets cannot replay traces: multi-fleet "
                    "arrivals come from the shared modulator"
                )
        if self.spillover != "none" and all(
            scenario.shedding == "none" for scenario in self.fleets
        ):
            # Only *shed* requests are eligible to spill; without any
            # admission control the flag would silently forward nothing.
            raise ConfigError(
                "spillover forwards shed requests, but every member "
                "fleet runs shedding='none' — give at least the "
                "overloaded fleets a shedding policy (e.g. 'deadline')"
            )
        # Validates the modulator parameters (incl. amplitude < 1).
        self.shared_modulator()

    def shared_modulator(self) -> SharedModulator:
        return SharedModulator(
            kind=self.modulator,
            period_s=self.period_s,
            amplitude=self.amplitude,
            burst_factor=self.burst_factor,
            burst_share=self.burst_share,
            mean_dwell_s=self.mean_dwell_s,
        )


@dataclass(frozen=True)
class MultiFleetReport:
    """Aggregate outcome of one multi-fleet run.

    ``fleets`` holds each member's :class:`ServingReport` over the
    traffic *its engine processed* (home arrivals plus received
    spill-ins), so per-fleet conservation reads directly off it.  The
    aggregate fields account end-to-end per *original* request: a
    request that was shed at home, forwarded, and completed at a
    sibling counts as completed (and met, when its original deadline
    held), and only terminally dropped requests count as shed.

    Attributes:
        offered_requests: Requests generated across all fleets.
        completed_requests: Completed anywhere (home or sibling).
        shed_requests: Terminally dropped (never completed anywhere).
        spilled_requests: Forwarded to a sibling.
        spill_completed: Forwarded and completed there.
        spill_met: Forwarded and completed within the original
            deadline (the hop included) — the spillover's actual SLO
            contribution, not just its throughput one.
        met_requests: Completed within the original deadline.
        attainment: ``met / offered`` (shed requests are misses).
        latency_p99_s: p99 of original-arrival-to-final-completion
            (spilled requests include the forwarding hop).
        energy_joules: Total across fleets.
        offered_load: Per-fleet rho (offered QPS over capacity).
    """

    fleets: tuple[ServingReport, ...]
    modulator: str
    spillover: str
    offered_requests: int
    completed_requests: int
    shed_requests: int
    spilled_requests: int
    spill_completed: int
    spill_met: int
    met_requests: int
    attainment: float
    latency_p99_s: float
    energy_joules: float
    offered_load: tuple[float, ...]

    @property
    def conserved(self) -> bool:
        """offered == completed + terminally shed, end to end."""
        return (
            self.offered_requests
            == self.completed_requests + self.shed_requests
        )


def _forward_target(
    request,
    receivers: list[int],
    mixes: dict,
    hop_s: float,
) -> int | None:
    """The sibling a shed request spills to: the first receiver (most
    headroom first) that serves the model and can still make the
    deadline to first order — hop plus one nominal service time."""
    for k in receivers:
        for profile in mixes[k].profiles:
            if profile.name == request.model:
                if (
                    request.arrival + hop_s + profile.per_image_seconds
                    <= request.deadline
                ):
                    return k
                break
    return None


def _merge_spill_ins(
    home: RequestArena,
    spill_ins: list[tuple[RequestArena, int]],
    hop_s: float,
) -> tuple[RequestArena, np.ndarray]:
    """A receiver's request stream: ``home`` plus its spill-ins, as one
    new arena in arrival order.

    ``spill_ins`` are ``(donor arena, row)`` references in forwarding
    order.  Each arrives at its donor arrival + ``hop_s`` and keeps its
    deadline, priority, model and SLO class; models and classes are
    re-interned against the receiver's side tables, donor classes the
    receiver lacks appended to ``slo_names`` in first-seen order.  The
    merge is a stable sort over home rows then spill-ins, so on an
    arrival tie home rows stay first, and ``index`` is the merged row.

    Returns the merged arena and, per spill-in, its merged row.
    """
    model_pos = {name: i for i, name in enumerate(home.model_names)}
    slo_names = list(home.slo_names)
    class_pos = {name: i for i, name in enumerate(slo_names)}
    m = len(spill_ins)
    arrival = np.empty(m, dtype=np.float64)
    deadline = np.empty(m, dtype=np.float64)
    priority = np.empty(m, dtype=np.int64)
    model_idx = np.empty(m, dtype=np.int64)
    class_idx = np.full(m, -1, dtype=np.int64)
    for j, (donor, row) in enumerate(spill_ins):
        arrival[j] = donor.arrival[row]
        deadline[j] = donor.deadline[row]
        priority[j] = donor.priority[row]
        model_idx[j] = model_pos[donor.model_names[donor.model_idx[row]]]
        ci = donor.class_idx[row]
        if ci >= 0:
            name = donor.slo_names[ci]
            if name not in class_pos:
                class_pos[name] = len(slo_names)
                slo_names.append(name)
            class_idx[j] = class_pos[name]
    arrival += hop_s

    n = len(home) + m
    order = np.argsort(
        np.concatenate([home.arrival, arrival]), kind="stable"
    )
    merged = RequestArena(
        n, home.model_names, home.profiles, tuple(slo_names)
    )
    for column, spilled in (
        ("arrival", arrival),
        ("deadline", deadline),
        ("priority", priority),
        ("model_idx", model_idx),
        ("class_idx", class_idx),
    ):
        getattr(merged, column)[:] = np.concatenate(
            [getattr(home, column), spilled]
        )[order]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    return merged, position[len(home):]


def _drain_epochs(engine, arena: RequestArena, epoch_s: float) -> list[int]:
    """Advance one member engine over ``arena`` to drain in
    ``epoch_s``-bounded ``run_until`` slices.

    Returns the arena rows the member's admission control shed, in
    stream order, collected per consumed arrival-cursor window — the
    rows eligible for spillover at the next exchange barrier.  (Sheds
    happen only at admission, so the concatenated windows cover every
    shed request exactly once.)

    The slicing is bit-for-bit the one-shot run: ``run_until`` is the
    same loop with a horizon check.
    """
    shed_rows: list[int] = []
    prev = engine.state.cursor
    t = epoch_s
    while not engine.finished:
        engine.run_until(t)
        cursor = engine.state.cursor
        if cursor > prev:
            shed_rows.extend(arena.shed_indices(prev, cursor))
        prev = cursor
        t += epoch_s
    return shed_rows


def _member_point(payload: dict):
    """Worker half of the spillover barrier: run one member fleet.

    ``payload`` is checkpoint-shaped — the member's frozen scenario
    plus its materialized request arena (for receivers, the home
    traffic already merged with the spill-ins at the barrier).  The
    worker rebuilds the fleet deterministically, epoch-steps the
    engine to drain, and ships back the report together with the
    arena's outcome columns, which the parent writes back into its
    own copy (subprocess arena mutations never propagate by
    themselves).
    """
    member = payload["scenario"]
    arena = payload["requests"]
    dvfs_model = DVFSModel()
    fleet, mix, capacity = build_control_fleet(member, dvfs_model)
    stream = RequestStream(
        offered_qps(member, capacity), arena.arrival, arena, None
    )
    execution = prepare_controlled(
        member, fleet, mix, capacity, stream, dvfs_model=dvfs_model
    )
    _drain_epochs(execution.engine, arena, payload["epoch_s"])
    report = finalize_controlled(execution)
    return report, arena.shed, arena.start, arena.finish


def simulate_multi_fleet(
    scenario: MultiFleetScenario,
    *,
    epoch_s: float | None = None,
    jobs: int = 1,
    obs=None,
) -> MultiFleetReport:
    """Run one correlated multi-fleet scenario to completion.

    Deterministic for a given scenario; safe to cache and to fan out
    across worker processes.  Both knobs below are keyword-only
    execution details — they never perturb the result or the cache
    content key.

    Args:
        scenario: The frozen scenario description.
        epoch_s: Spillover epoch length in simulated seconds (default:
            the scenario's modulator ``period_s``).  Each member fleet
            advances through its run in ``run_until(epoch)`` slices,
            collecting newly shed requests per consumed arrival-cursor
            window; the donor -> receiver exchange happens at the
            barrier between the donor and receiver phases.  Any
            positive value yields the identical report — the slicing
            is bit-for-bit the one-shot run.
        jobs: Worker processes for the member fleets (``1`` = serial).
            Donors shard across processes first, receivers after the
            exchange barrier; each worker gets a checkpoint-shaped
            payload (scenario + materialized stream) and returns its
            report plus the mutated outcome columns, overlaid by
            stream position.
        obs: Optional :class:`~repro.obs.Observability` session; an
            active one records every member fleet into one shared
            trace (fleet k is trace process k) plus a spillover
            instant per forwarded request.  Telemetry needs the live
            recorder in-process, so an active session runs the members
            serially regardless of ``jobs`` — same report, shared
            observers.
    """
    modulator = scenario.shared_modulator()
    path = modulator.build_path(
        np.random.default_rng([scenario.seed, 0])
    )
    dvfs_model = DVFSModel()
    if epoch_s is None:
        epoch_s = scenario.period_s
    if not 0 < epoch_s < float("inf"):
        raise ConfigError(
            f"epoch_s must be positive and finite ({epoch_s})"
        )

    n_fleets = len(scenario.fleets)
    setups = []  # (fleet, mix, capacity) per member
    rates = []
    for member in scenario.fleets:
        fleet, mix, capacity = build_control_fleet(member, dvfs_model)
        setups.append((fleet, mix, capacity))
        rates.append(offered_qps(member, capacity))

    rhos = [
        rates[k] / setups[k][2] if setups[k][2] > 0 else 0.0
        for k in range(n_fleets)
    ]

    # Correlated arrivals: every fleet thins against the one shared
    # path on its own substream, then draws its request content
    # (models, classes) from the same substream — exactly the
    # single-fleet draw order, per fleet.
    home_requests = []
    for k, member in enumerate(scenario.fleets):
        rng = np.random.default_rng([scenario.seed, k + 1])
        fleet_times = modulator.fleet_times(
            member.requests, rates[k], path, rng
        )
        home_requests.append(
            build_requests(
                setups[k][1],
                fleet_times,
                rng,
                slo_classes=member.slo_classes,
            )
        )

    spill = scenario.spillover != "none"
    donors = [k for k in range(n_fleets) if spill and rhos[k] > 1.0]
    receivers = sorted(
        (k for k in range(n_fleets) if k not in donors),
        key=lambda k: (rhos[k], k),
    )
    hop_s = scenario.spillover_hop_ms * 1e-3
    mixes = {k: setups[k][1] for k in receivers}

    arrival_label = f"shared-{scenario.modulator}"
    reports: list[ServingReport | None] = [None] * n_fleets
    # Each member's request stream: its home arena, replaced for a
    # receiver by the merge with its spill-ins at the barrier.
    streams: list[RequestArena] = list(home_requests)
    # Per receiver: the forwarded (donor arena, row) references, and
    # after the merge their rows in the receiver's stream.
    spill_ins: list[list[tuple[RequestArena, int]]] = [
        [] for _ in range(n_fleets)
    ]
    spill_rows: list[np.ndarray | None] = [None] * n_fleets
    # Donor class specs by name (first definition wins), so a receiver
    # can report spill-ins whose class it does not define itself.
    class_specs: dict[str, SLOClass] = {}
    for member in scenario.fleets:
        for cls in member.slo_classes:
            class_specs.setdefault(cls.name, cls)

    def member_scenario(k: int):
        member = replace(
            scenario.fleets[k], arrival=arrival_label
        )
        foreign = streams[k].slo_names[len(home_requests[k].slo_names):]
        if foreign:
            # Spill-ins keep their donor class: grow the receiver's
            # reporting classes so its per-class table and attainment
            # cover every request its engine processed.
            member = replace(
                member,
                slo_classes=member.slo_classes
                + tuple(class_specs[name] for name in foreign),
            )
        return member

    def run_member(k: int) -> list[int]:
        """In-process member run: epoch-stepped on the parent's own
        fleet and stream; returns the shed rows (stream order)."""
        fleet, mix, capacity = setups[k]
        arena = streams[k]
        execution = prepare_controlled(
            member_scenario(k), fleet, mix, capacity,
            RequestStream(rates[k], arena.arrival, arena, None),
            dvfs_model=dvfs_model, obs=obs, obs_pid=k,
        )
        shed_rows = _drain_epochs(execution.engine, arena, epoch_s)
        reports[k] = finalize_controlled(execution)
        return shed_rows

    def forward(k: int, shed_rows: list[int]) -> None:
        """Donor k's barrier exchange: spill its shed rows to the
        sibling with the most headroom that can still make the
        deadline."""
        if not receivers:
            return
        arena = home_requests[k]
        for row in shed_rows:
            request = arena.view(row)
            target = _forward_target(request, receivers, mixes, hop_s)
            if target is None:
                continue
            spill_ins[target].append((arena, row))
            if obs is not None:
                obs.spill(
                    k, target, request, scenario.spillover_hop_ms
                )

    def payload(k: int) -> dict:
        return {
            "kind": "control",
            "scenario": member_scenario(k),
            "requests": streams[k],
            "epoch_s": epoch_s,
        }

    def overlay(k: int, result) -> list[int]:
        report, shed_col, start_col, finish_col = result
        reports[k] = report
        arena = streams[k]
        arena.shed[:] = shed_col
        arena.start[:] = start_col
        arena.finish[:] = finish_col
        return arena.shed_indices()

    # Subprocess workers cannot feed the in-process recorder/timelines,
    # so an active telemetry session pins the members to the serial
    # path (identical report either way — sharding is an execution
    # detail).
    observed = obs is not None and obs.active
    executor = (
        ParallelExecutor(jobs=jobs)
        if jobs != 1 and n_fleets > 1 and not observed
        else None
    )

    def run_phases() -> None:
        # Donor phase: donors epoch-step to drain (donors never
        # receive, so they shard freely); their sheds cross the
        # exchange barrier as references into the donor arenas.
        if executor is not None and len(donors) > 1:
            for k, result in zip(
                donors,
                executor.map(
                    _member_point, [(payload(k),) for k in donors]
                ),
            ):
                forward(k, overlay(k, result))
        else:
            for k in donors:
                forward(k, run_member(k))

        # The barrier merge: each receiver's home traffic and its
        # spill-ins become one arena in arrival order, then the
        # receivers epoch-step to drain.
        for k in receivers:
            if spill_ins[k]:
                streams[k], spill_rows[k] = _merge_spill_ins(
                    home_requests[k], spill_ins[k], hop_s
                )
        if executor is not None and len(receivers) > 1:
            for k, result in zip(
                receivers,
                executor.map(
                    _member_point, [(payload(k),) for k in receivers]
                ),
            ):
                overlay(k, result)
        else:
            for k in receivers:
                run_member(k)

    if executor is not None:
        # One pool spans both phases: the barrier exchanges payloads,
        # not workers.
        with executor.session():
            run_phases()
    else:
        run_phases()

    # End-to-end accounting per original request, read off each
    # member's stream.  Every shed row is terminal except a donor's
    # forwarded ones, and a spill-in's latency runs from its donor
    # arrival (the hop included).
    completed = met = shed = spill_completed = spill_met = 0
    latencies = []
    for k, arena in enumerate(streams):
        done = ~arena.shed
        hit = done & (arena.finish <= arena.deadline)
        origin = arena.arrival
        rows = spill_rows[k]
        if rows is not None:
            origin = origin.copy()
            origin[rows] = [
                donor.arrival[row] for donor, row in spill_ins[k]
            ]
            spill_completed += int(np.count_nonzero(done[rows]))
            spill_met += int(np.count_nonzero(hit[rows]))
        n_done = int(np.count_nonzero(done))
        completed += n_done
        shed += len(arena) - n_done
        met += int(np.count_nonzero(hit))
        latencies.append(arena.finish[done] - origin[done])
    spilled = sum(len(pairs) for pairs in spill_ins)
    final_latencies = np.concatenate(latencies)

    offered = sum(member.requests for member in scenario.fleets)
    energy = sum(
        report.energy_joules or 0.0 for report in reports
    )
    return MultiFleetReport(
        fleets=tuple(reports),
        modulator=scenario.modulator,
        spillover=scenario.spillover,
        offered_requests=offered,
        completed_requests=completed,
        shed_requests=shed - spilled,
        spilled_requests=spilled,
        spill_completed=spill_completed,
        spill_met=spill_met,
        met_requests=met,
        attainment=met / offered if offered else 0.0,
        latency_p99_s=(
            float(np.percentile(final_latencies, 99))
            if final_latencies.size
            else 0.0
        ),
        energy_joules=float(energy),
        offered_load=tuple(rhos),
    )
