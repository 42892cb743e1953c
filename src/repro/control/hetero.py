"""DVFS-heterogeneous fleets: per-instance architecture + operating point.

Each serving instance can run its own ``(ArchConfig, OperatingPoint)``
pair: a different architecture changes a model's cycle count (so the
instance carries its own service profiles), and a different operating
point stretches the clock period and moves the power draw.  Latency
scales as 1/f via :func:`repro.power.dvfs.frequency_scaled_latency`'s
relation; power scales with the DVFS model's dynamic (``V^2 f``) and
leakage (``V^3``) factors, anchored at a nominal busy power derived
from the paper's calibrated layer-power endpoints.

Energy is integrated per instance: busy energy accrues batch by batch
at the operating point in force at launch; idle (leakage) energy is the
powered-but-idle time at the instance's idle power.  That makes a
serving report an energy-vs-SLO data point, which is what the governor
sweeps in :mod:`repro.control.sweep` trade off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.params import ArchConfig
from ..errors import ConfigError
from ..power.dvfs import (
    NOMINAL_FREQUENCY_HZ,
    NOMINAL_VOLTAGE_V,
    DVFSModel,
    OperatingPoint,
)
from ..serve.fleet import Instance
from ..serve.profile import ScenarioMix
from ..serve.simulator import check_finite

__all__ = [
    "NOMINAL_BUSY_POWER_W",
    "InstanceSpec",
    "parse_fleet_spec",
    "busy_power_w",
    "idle_power_w",
    "apply_operating_point",
    "configure_instance",
]

#: Busy power of one instance at the published 0.8 V / 1 GHz point: the
#: mean of the paper's two calibrated layer-power endpoints (117.7 mW
#: and 67.7 mW) — a representative mid-network draw, used for *relative*
#: energy comparisons across operating points and fleet sizes.
NOMINAL_BUSY_POWER_W = 0.5 * (0.1177 + 0.0677)


@dataclass(frozen=True)
class InstanceSpec:
    """One instance's architecture and DVFS operating point.

    Attributes:
        voltage_v: Supply voltage (sets f_max and the power factors).
        frequency_hz: Clock; None runs at the voltage's f_max.
        config: Per-instance architecture; None inherits the scenario's
            (heterogeneous configs give the instance its own service
            profiles, since cycle counts depend on the architecture).
    """

    voltage_v: float = NOMINAL_VOLTAGE_V
    frequency_hz: float | None = None
    config: ArchConfig | None = None

    def __post_init__(self) -> None:
        # A NaN operating point never advances the event clock.
        check_finite(self, ("voltage_v", "frequency_hz"))

    def operating_point(self, model: DVFSModel) -> OperatingPoint:
        return model.operating_point(self.voltage_v, self.frequency_hz)


def parse_fleet_spec(text: str) -> tuple[InstanceSpec, ...]:
    """Parse a CLI fleet spec: comma-separated ``voltage[xCOUNT]``
    entries, e.g. ``"0.8x2,0.6x2"`` = two nominal + two slow instances."""
    specs: list[InstanceSpec] = []
    for entry in (e for e in text.split(",") if e.strip()):
        part = entry.strip()
        count = 1
        if "x" in part:
            part, _, count_text = part.partition("x")
            try:
                count = int(count_text)
            except ValueError:
                raise ConfigError(
                    f"cannot parse fleet entry {entry!r} "
                    "(expected VOLTAGE[xCOUNT])"
                ) from None
        try:
            voltage = float(part)
        except ValueError:
            raise ConfigError(
                f"cannot parse fleet entry {entry!r} "
                "(expected VOLTAGE[xCOUNT])"
            ) from None
        if count < 1:
            raise ConfigError(
                f"fleet entry {entry!r} needs a positive count"
            )
        specs.extend(InstanceSpec(voltage_v=voltage) for _ in range(count))
    if not specs:
        raise ConfigError("fleet spec is empty")
    return tuple(specs)


def busy_power_w(
    point: OperatingPoint,
    model: DVFSModel,
    base_w: float = NOMINAL_BUSY_POWER_W,
) -> float:
    """Instance power while serving at ``point`` (dynamic + leakage)."""
    lf = model.leakage_fraction
    return base_w * (
        (1.0 - lf) * point.dynamic_power_factor
        + lf * point.leakage_power_factor
    )


def idle_power_w(
    point: OperatingPoint,
    model: DVFSModel,
    base_w: float = NOMINAL_BUSY_POWER_W,
) -> float:
    """Powered-but-idle draw: the clock-gated instance only leaks."""
    return base_w * model.leakage_fraction * point.leakage_power_factor


def apply_operating_point(
    instance: Instance,
    point: OperatingPoint,
    model: DVFSModel,
    profile_clock_hz: float,
) -> None:
    """Re-point one instance's DVFS state (latency scale + power).

    ``profile_clock_hz`` is the clock the service profiles were built
    at, so the scale is exact even for non-nominal architectures.
    """
    scale = point.latency_scale  # vs the nominal 1 GHz clock
    if profile_clock_hz != NOMINAL_FREQUENCY_HZ:
        scale *= profile_clock_hz / NOMINAL_FREQUENCY_HZ
    instance.latency_scale = scale
    instance.busy_power_w = busy_power_w(point, model)
    instance.idle_power_w = idle_power_w(point, model)


def configure_instance(
    instance: Instance,
    spec: InstanceSpec,
    model: DVFSModel,
    mix: ScenarioMix,
    own_mix: ScenarioMix | None = None,
) -> OperatingPoint:
    """Wire one fleet instance to its spec.

    Args:
        instance: The mutable simulation instance.
        spec: Architecture + operating point.
        model: DVFS relations (shared across the fleet).
        mix: The scenario's baseline mix (profiles at the scenario
            architecture).
        own_mix: The mix rebuilt under ``spec.config``, when it differs —
            becomes the instance's private profile table.

    Returns:
        The evaluated operating point (for reporting).
    """
    point = spec.operating_point(model)
    profiles = mix.profiles
    if own_mix is not None:
        instance.profiles = {p.name: p for p in own_mix.profiles}
        profiles = own_mix.profiles
    clock_hz = profiles[0].clock_hz
    apply_operating_point(instance, point, model, clock_hz)
    return point
