"""The pre-epoch (PR-5) monolithic multi-fleet co-simulation.

Frozen copy of ``simulate_multi_fleet`` as it stood before the
epoch-stepped rebuild: every member fleet runs one-shot through
``execute_controlled``, donors first, receivers after one spillover
exchange.  Kept verbatim so the engine benchmark can hold the
epoch-stepped production path to its throughput (the rebuild must stay
within 1.1x of this loop on the two-fleet benchmark scenario) while
the equivalence tests pin its *reports* bit-for-bit.  Its clone +
sorted merge of receiver streams is an independent oracle of the
production receiver-arena merge; the one adaptation is that the
engine only runs arenas, so a merged view list is packed into one
before ``execute_controlled`` and its outcomes copied back to the
views afterwards, and ``execute_controlled`` takes its arena and
offered rate as one ``RequestStream``.

Not part of the package: benchmark support only.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.control.simulator import build_control_fleet, execute_controlled
from repro.control.slo import SLOClass
from repro.control.tenancy import MultiFleetReport, MultiFleetScenario
from repro.power.dvfs import DVFSModel
from repro.serve.arena import RequestArena
from repro.serve.engine import build_requests
from repro.serve.fleet import Request
from repro.serve.simulator import RequestStream, ServingReport, offered_qps

__all__ = ["simulate_multi_fleet_monolithic"]


def _forward_target(
    request: Request,
    receivers: list[int],
    mixes: dict,
    hop_s: float,
):
    """The sibling a shed request spills to: the first receiver (most
    headroom first) that serves the model and can still make the
    deadline to first order — hop plus one nominal service time."""
    for k in receivers:
        mix = mixes[k]
        profile = None
        for p in mix.profiles:
            if p.name == request.model:
                profile = p
                break
        if profile is None:
            continue
        if (
            request.arrival + hop_s + profile.per_image_seconds
            <= request.deadline
        ):
            return k, profile
    return None, None


def _pack(views: list[Request]) -> RequestArena:
    """One arena holding ``views``' rows in list order (the engine runs
    arenas only); side tables are interned in first-seen order."""
    profiles: dict[str, object] = {}
    classes: dict[str, int] = {}
    for view in views:
        profiles.setdefault(view.model, view.profile)
        if view.slo:
            classes.setdefault(view.slo, len(classes))
    models = {name: i for i, name in enumerate(profiles)}
    arena = RequestArena(
        len(views),
        tuple(profiles),
        tuple(profiles.values()),
        tuple(classes),
    )
    arena.arrival[:] = [view.arrival for view in views]
    arena.deadline[:] = [view.deadline for view in views]
    arena.priority[:] = [view.priority for view in views]
    arena.model_idx[:] = [models[view.model] for view in views]
    arena.class_idx[:] = [classes.get(view.slo, -1) for view in views]
    return arena


def simulate_multi_fleet_monolithic(
    scenario: MultiFleetScenario,
) -> MultiFleetReport:
    """Run one correlated multi-fleet scenario in the PR-5 shape."""
    modulator = scenario.shared_modulator()
    path = modulator.build_path(
        np.random.default_rng([scenario.seed, 0])
    )
    dvfs_model = DVFSModel()

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
    spilled: list[tuple[Request, Request]] = []
    forwarded: set[tuple[int, int]] = set()
    spill_ins: list[list[Request]] = [[] for _ in range(n_fleets)]
    class_specs: dict[str, SLOClass] = {}
    for member in scenario.fleets:
        for cls in member.slo_classes:
            class_specs.setdefault(cls.name, cls)

    def run_member(k: int, requests) -> None:
        fleet, mix, capacity = setups[k]
        member = replace(
            scenario.fleets[k], arrival=arrival_label
        )
        own = {cls.name for cls in member.slo_classes}
        foreign = []
        for request in spill_ins[k]:
            if request.slo not in own:
                own.add(request.slo)
                foreign.append(class_specs[request.slo])
        if foreign:
            member = replace(
                member,
                slo_classes=member.slo_classes + tuple(foreign),
            )
        stream_times = np.array(
            [request.arrival for request in requests]
        )
        arena = (
            requests
            if isinstance(requests, RequestArena)
            else _pack(requests)
        )
        reports[k] = execute_controlled(
            member, fleet, mix, capacity,
            RequestStream(rates[k], stream_times, arena, None),
            dvfs_model=dvfs_model,
        )
        if arena is not requests:
            for i, request in enumerate(requests):
                request.shed = arena.shed[i]
                request.start = arena.start[i]
                request.finish = arena.finish[i]

    for k in donors:
        run_member(k, home_requests[k])
        if not receivers:
            continue
        for request in home_requests[k]:
            if not request.shed:
                continue
            target, profile = _forward_target(
                request, receivers, mixes, hop_s
            )
            if target is None:
                continue
            clone = Request(
                index=0,
                model=request.model,
                profile=profile,
                arrival=request.arrival + hop_s,
                slo=request.slo,
                priority=request.priority,
                deadline=request.deadline,
            )
            spilled.append((clone, request))
            forwarded.add((k, request.index))
            spill_ins[target].append(clone)

    for k in receivers:
        merged = sorted(
            [*home_requests[k], *spill_ins[k]],
            key=lambda request: request.arrival,
        )
        for i, request in enumerate(merged):
            request.index = i
        run_member(k, merged)

    completed = met = terminally_shed = 0
    spill_completed = spill_met = 0
    final_latencies: list[float] = []
    for k in range(n_fleets):
        for request in home_requests[k]:
            if not request.shed:
                completed += 1
                met += request.finish <= request.deadline
                final_latencies.append(
                    request.finish - request.arrival
                )
            elif (k, request.index) not in forwarded:
                terminally_shed += 1
    for clone, original in spilled:
        if clone.shed:
            terminally_shed += 1
            continue
        completed += 1
        spill_completed += 1
        hit = clone.finish <= clone.deadline
        met += hit
        spill_met += hit
        final_latencies.append(clone.finish - original.arrival)

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
        shed_requests=terminally_shed,
        spilled_requests=len(spilled),
        spill_completed=spill_completed,
        spill_met=int(spill_met),
        met_requests=int(met),
        attainment=met / offered if offered else 0.0,
        latency_p99_s=(
            float(np.percentile(final_latencies, 99))
            if final_latencies
            else 0.0
        ),
        energy_joules=float(energy),
        offered_load=tuple(rhos),
    )
