"""Governor sweeps: SLO attainment vs energy through the executor.

A controlled scenario is a frozen dataclass of primitives, so grids of
governors, fleet sizes, and operating voltages fan out through
:class:`repro.parallel.ParallelExecutor` and land in the persistent
result cache exactly like plain serving sweeps.  The payoff question is
the Pareto one — which (fleet, operating point, governor) settings are
not dominated on (energy, SLO attainment)? — answered by
:func:`pareto_frontier` over the resulting reports.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from ..errors import ConfigError
from ..parallel.cache import ResultCache
from ..parallel.executor import ParallelExecutor
from ..serve.simulator import ServingReport
from .hetero import InstanceSpec
from .simulator import ControlScenario, simulate_controlled
from .tenancy import MultiFleetReport, MultiFleetScenario, simulate_multi_fleet

__all__ = [
    "control_sweep",
    "governor_sweep",
    "multi_fleet_sweep",
    "static_frontier_sweep",
    "pareto_frontier",
]


def multi_fleet_sweep(
    scenarios: Sequence[MultiFleetScenario],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[MultiFleetReport]:
    """Simulate many multi-fleet scenarios, fanned out and cached.

    A :class:`MultiFleetScenario` is a frozen dataclass of primitives
    (with nested member scenarios), so the persistent cache keys it
    exactly like single-fleet control points — the CLI's warm reruns
    are served from disk.

    With a single scenario the worker fan-out has nothing to spread
    over, so ``jobs`` is routed *into* the co-simulation instead:
    member fleets shard across processes at the spillover phase
    barrier.  Reports are bit-identical either way, so both routes
    share one cache key.
    """
    if not scenarios:
        raise ConfigError("multi_fleet_sweep needs at least one scenario")
    executor = ParallelExecutor(jobs=jobs, cache=cache)
    fn = simulate_multi_fleet
    if len(scenarios) == 1 and executor.jobs > 1:
        fn = functools.partial(simulate_multi_fleet, jobs=executor.jobs)
    return executor.map_cached(
        "multi_fleet_point",
        fn,
        [(s,) for s in scenarios],
    )


def control_sweep(
    scenarios: Sequence[ControlScenario],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[ServingReport]:
    """Simulate many controlled scenarios, fanned out and cached."""
    if not scenarios:
        raise ConfigError("control_sweep needs at least one scenario")
    executor = ParallelExecutor(jobs=jobs, cache=cache)
    return executor.map_cached(
        "control_point", simulate_controlled, [(s,) for s in scenarios]
    )


def governor_sweep(
    base: ControlScenario,
    governors: Sequence[str],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[ServingReport]:
    """Cross the base scenario with autoscaling governors (in order)."""
    if not governors:
        raise ConfigError("governor sweep needs at least one governor")
    grid = [
        dataclasses.replace(base, autoscale=name) for name in governors
    ]
    return control_sweep(grid, jobs=jobs, cache=cache)


def static_frontier_sweep(
    base: ControlScenario,
    voltages: Sequence[float],
    fleet_sizes: Sequence[int],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[ServingReport]:
    """Sample the static energy/SLO design space (row-major order).

    Each grid point is a homogeneous fleet of ``n`` instances all at
    voltage ``v`` (running at that voltage's f_max), with no governor —
    the static baselines an autoscaler must beat.
    """
    if not voltages or not fleet_sizes:
        raise ConfigError("frontier sweep needs voltages and fleet sizes")
    grid = [
        dataclasses.replace(
            base,
            autoscale="none",
            fleet=tuple(
                InstanceSpec(voltage_v=float(v)) for _ in range(n)
            ),
        )
        for v in voltages
        for n in fleet_sizes
    ]
    return control_sweep(grid, jobs=jobs, cache=cache)


def pareto_frontier(reports: Sequence[ServingReport]) -> list[int]:
    """Indices of the reports not dominated on (energy, attainment).

    A report dominates another when it uses no more energy *and*
    attains no less of its SLOs, with at least one strict inequality.
    Reports without energy or attainment data are never on the
    frontier.  Indices come back sorted by energy (ascending).
    """
    if not reports:
        raise ConfigError("pareto_frontier needs at least one report")
    candidates = [
        (i, r.energy_joules, r.slo_attainment)
        for i, r in enumerate(reports)
        if r.energy_joules is not None and r.slo_attainment is not None
    ]
    frontier = []
    for i, energy, attainment in candidates:
        dominated = any(
            (oe <= energy and oa >= attainment)
            and (oe < energy or oa > attainment)
            for j, oe, oa in candidates
            if j != i
        )
        if not dominated:
            frontier.append((energy, i))
    return [i for _, i in sorted(frontier)]
