"""On-chip buffer models with capacity checking and access accounting.

Buffers do not model banking conflicts or latency (the pipeline model in
:mod:`repro.sim.pipeline` owns timing); they give the simulator capacity
enforcement and the read/write counters that the traffic analyses and the
power model consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BufferError_

__all__ = ["Buffer", "BufferSet"]


@dataclass
class Buffer:
    """A single on-chip SRAM buffer.

    Attributes:
        name: Human-readable identifier (e.g. ``"dwc_ifmap"``).
        capacity_entries: Size in elements (int8 entries unless noted).
        reads: Total elements read so far.
        writes: Total elements written so far.
    """

    name: str
    capacity_entries: int
    reads: int = 0
    writes: int = 0
    _resident: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_entries < 1:
            raise BufferError_(
                f"buffer {self.name!r} needs positive capacity "
                f"(got {self.capacity_entries})"
            )

    def fill(self, entries: int, times: int = 1) -> None:
        """Load ``entries`` elements, replacing the current contents.

        ``times`` repeats the load back to back (each replaces the last),
        so ``entries * times`` writes are counted.
        """
        if entries < 0 or times < 0:
            raise BufferError_(f"cannot fill {entries} entries {times} times")
        if entries > self.capacity_entries:
            raise BufferError_(
                f"buffer {self.name!r} overflow: filling {entries} entries "
                f"into capacity {self.capacity_entries}"
            )
        self._resident = entries
        self.writes += entries * times

    def read(self, entries: int, times: int = 1) -> None:
        """Record ``times`` reads of ``entries`` resident elements each."""
        if entries < 0 or times < 0:
            raise BufferError_(f"cannot read {entries} entries {times} times")
        if entries > self._resident:
            raise BufferError_(
                f"buffer {self.name!r} underflow: reading {entries} of "
                f"{self._resident} resident entries"
            )
        self.reads += entries * times

    def write(self, entries: int) -> None:
        """Record ``entries`` element writes (streaming, no replace)."""
        if entries < 0:
            raise BufferError_(f"cannot write {entries} entries")
        if self._resident + entries > self.capacity_entries:
            raise BufferError_(
                f"buffer {self.name!r} overflow: writing {entries} on top "
                f"of {self._resident} resident entries "
                f"(capacity {self.capacity_entries})"
            )
        self._resident += entries
        self.writes += entries

    def drain(self) -> None:
        """Mark the buffer empty (contents consumed downstream)."""
        self._resident = 0

    @property
    def resident(self) -> int:
        """Currently resident element count."""
        return self._resident

    @property
    def total_accesses(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes

    def reset_counters(self) -> None:
        """Zero the access counters (resident data untouched)."""
        self.reads = 0
        self.writes = 0


class BufferSet:
    """The accelerator's five on-chip buffers (paper Fig. 4)."""

    def __init__(
        self,
        dwc_ifmap_entries: int,
        dwc_weight_entries: int,
        offline_entries: int,
        intermediate_entries: int,
        pwc_weight_entries: int,
    ) -> None:
        self.dwc_ifmap = Buffer("dwc_ifmap", dwc_ifmap_entries)
        self.dwc_weight = Buffer("dwc_weight", dwc_weight_entries)
        self.offline = Buffer("offline", offline_entries)
        self.intermediate = Buffer("intermediate", intermediate_entries)
        self.pwc_weight = Buffer("pwc_weight", pwc_weight_entries)

    def all(self) -> list[Buffer]:
        """All buffers, DWC side first."""
        return [
            self.dwc_ifmap,
            self.dwc_weight,
            self.offline,
            self.intermediate,
            self.pwc_weight,
        ]

    def reset_counters(self) -> None:
        """Zero every buffer's counters."""
        for buffer in self.all():
            buffer.reset_counters()

    def access_summary(self) -> dict[str, int]:
        """Total accesses per buffer name."""
        return {buffer.name: buffer.total_accesses for buffer in self.all()}
