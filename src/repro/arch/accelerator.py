"""Top-level dual-engine DSC accelerator (paper Fig. 4).

The accelerator executes one quantized DSC layer at a time with the La
dataflow the DSE selected.  The loop hierarchy, outermost first:

1. **channel group** (``ceil(D/Td)`` iterations, Eq. 2),
2. **ifmap tile** — the DWC ifmap buffer holds input for at most an
   ``8 x 8`` output patch per channel group, so larger maps are split
   (Eq. 2's "number of tiled ifmaps"),
3. **tile position** — the ``Tn x Tm`` output element the DWC engine
   produces each cycle (Loop3),
4. **kernel group** — ``ceil(K/Tk)`` PWC cycles consuming the buffered
   DWC output through the intermediate buffer (Loop5 innermost at the
   cycle level; PWC weights for the whole ``K`` of the current channel
   group are resident in the PWC weight buffer).

The model evaluates levels 3 and 4 as one batch: a tile's positions run
through the DWC engine, the Non-Conv bank and the PWC engine in one call
each, the PWC call covering every kernel group.  The cycle accounting
still follows the loop nest.  Per (channel group, tile): ``init_cycles``
of pipeline fill plus ``positions x ceil(K/Tk)`` streaming cycles, which
reproduces the paper's Eqs. 1-2 exactly (validated against
:mod:`repro.sim.pipeline`).  Engine, buffer and external-memory counters
advance by the per-tile totals of the same schedule, and every buffer
capacity and residency check runs on the per-cycle access sizes.

The functional result is bit-exact against the int8 reference model
(:class:`repro.quant.QuantizedMobileNet`), which the integration tests
assert for every MobileNetV1 layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeError, SimulationError
from ..quant.qmodel import QuantizedDSCLayer
from .buffers import BufferSet
from .dwc_engine import DWCEngine
from .memory import ExternalMemory
from .nonconv import NonConvUnitBank
from .params import EDEA_CONFIG, ArchConfig
from .pwc_engine import PWCEngine

__all__ = ["LayerRunStats", "DSCAccelerator"]


@dataclass
class LayerRunStats:
    """Measurements from running one DSC layer on the accelerator.

    Attributes:
        layer_index: The layer's index in the network (0..12).
        cycles: Total clock cycles (Eq. 2's latency in cycles).
        init_cycle_total: Cycles spent in pipeline initiation.
        dwc_busy_cycles: Cycles with the DWC engine computing.
        pwc_busy_cycles: Cycles with the PWC engine computing.
        dwc_macs: Useful MACs executed by the DWC engine.
        pwc_macs: Useful MACs executed by the PWC engine.
        dwc_input_zeros / dwc_input_elements: Zero statistics of the int8
            values streamed into the DWC engine (halo re-reads included).
        pwc_input_zeros / pwc_input_elements: Same for the PWC engine.
        spatial_tiles: Ifmap tiles the layer was split into.
        channel_groups: ``ceil(D/Td)``.
        kernel_groups: ``ceil(K/Tk)``.
        buffer_accesses: Per-buffer on-chip access totals.
        external: Counter snapshot of external memory traffic.
    """

    layer_index: int
    cycles: int = 0
    init_cycle_total: int = 0
    dwc_busy_cycles: int = 0
    pwc_busy_cycles: int = 0
    dwc_macs: int = 0
    pwc_macs: int = 0
    dwc_input_zeros: int = 0
    dwc_input_elements: int = 0
    pwc_input_zeros: int = 0
    pwc_input_elements: int = 0
    spatial_tiles: int = 0
    channel_groups: int = 0
    kernel_groups: int = 0
    buffer_accesses: dict = field(default_factory=dict)
    external: dict = field(default_factory=dict)

    @property
    def total_macs(self) -> int:
        """DWC + PWC MACs (the layer's useful work)."""
        return self.dwc_macs + self.pwc_macs

    @property
    def total_ops(self) -> int:
        """Operations at 2 per MAC (the paper's GOPS convention)."""
        return 2 * self.total_macs

    @property
    def dwc_utilization(self) -> float:
        """Temporal occupancy of the DWC engine."""
        return self.dwc_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def pwc_utilization(self) -> float:
        """Temporal occupancy of the PWC engine."""
        return self.pwc_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def dwc_zero_fraction(self) -> float:
        """Zero fraction of DWC engine input activations (Fig. 11)."""
        if not self.dwc_input_elements:
            return 0.0
        return self.dwc_input_zeros / self.dwc_input_elements

    @property
    def pwc_zero_fraction(self) -> float:
        """Zero fraction of PWC engine input activations (Fig. 11)."""
        if not self.pwc_input_elements:
            return 0.0
        return self.pwc_input_zeros / self.pwc_input_elements

    def latency_seconds(self, clock_hz: float) -> float:
        """Wall-clock latency at a given clock."""
        return self.cycles / clock_hz

    def throughput_ops_per_second(self, clock_hz: float) -> float:
        """Achieved throughput (total ops / latency), Fig. 13's metric."""
        if self.cycles == 0:
            return 0.0
        return self.total_ops * clock_hz / self.cycles


class DSCAccelerator:
    """Functional + cycle-level model of the EDEA accelerator."""

    def __init__(
        self,
        config: ArchConfig = EDEA_CONFIG,
        direct_transfer: bool = True,
    ) -> None:
        """Create an accelerator instance.

        Args:
            config: Architecture parameters.
            direct_transfer: When True (the paper's design), DWC output
                flows to the PWC through the on-chip intermediate buffer;
                when False, the intermediate tensor is spilled to and
                re-fetched from external memory (the Fig. 3 baseline).
        """
        self.config = config
        self.direct_transfer = direct_transfer
        self.dwc_engine = DWCEngine(config)
        self.pwc_engine = PWCEngine(config)
        self.nonconv = NonConvUnitBank(config)
        self.memory = ExternalMemory()

    def _make_buffers(self, out_channels: int) -> BufferSet:
        cfg = self.config
        # The PWC weight buffer holds the whole K x Td slice of the current
        # channel group so kernel groups iterate without external refetch.
        return BufferSet(
            dwc_ifmap_entries=cfg.dwc_ifmap_buffer_entries,
            dwc_weight_entries=cfg.dwc_weight_buffer_entries,
            offline_entries=cfg.offline_buffer_entries,
            intermediate_entries=cfg.intermediate_buffer_entries,
            pwc_weight_entries=max(out_channels * cfg.td, cfg.td * cfg.tk),
        )

    def run_layer(
        self, layer: QuantizedDSCLayer, x_q: np.ndarray
    ) -> tuple[np.ndarray, LayerRunStats]:
        """Execute one DSC layer.

        Args:
            layer: Quantized layer (weights + folded Non-Conv constants).
            x_q: int8 input feature map, shape ``(D, H, W)``.

        Returns:
            ``(out_q, stats)`` where ``out_q`` is the int8 ``(K, N, N)``
            output and ``stats`` the cycle/traffic measurements.
        """
        cfg = self.config
        spec = layer.spec
        d, k_total = spec.in_channels, spec.out_channels
        if x_q.dtype != np.int8:
            raise ShapeError(f"input must be int8, got {x_q.dtype}")
        if x_q.shape != (d, spec.in_size, spec.in_size):
            raise ShapeError(
                f"input shape {x_q.shape} != "
                f"{(d, spec.in_size, spec.in_size)}"
            )
        if d % cfg.td:
            raise SimulationError(
                f"channel count {d} not a multiple of Td={cfg.td}"
            )
        if k_total % cfg.tk:
            raise SimulationError(
                f"kernel count {k_total} not a multiple of Tk={cfg.tk}"
            )

        stride = spec.stride
        out_size = spec.out_size
        n_channel_groups = d // cfg.td
        n_kernel_groups = k_total // cfg.tk
        buffers = self._make_buffers(k_total)
        stats = LayerRunStats(
            layer_index=spec.index,
            channel_groups=n_channel_groups,
            kernel_groups=n_kernel_groups,
        )

        self.memory.store("ifmap", x_q)
        # Snapshot the external counters so stats.external reports this
        # layer's traffic even when one accelerator runs a whole network.
        ext_before = (
            self.memory.activation_reads,
            self.memory.activation_writes,
            self.memory.weight_reads,
            self.memory.offline_reads,
        )
        padded = np.pad(
            x_q, ((0, 0), (1, 1), (1, 1)), mode="constant"
        )

        # Output psums accumulate across channel groups (int64, saturation
        # is impossible for int8 operands at MobileNet sizes — see tests).
        psum = np.zeros((k_total, out_size, out_size), dtype=np.int64)

        # Spatial tiling: the ifmap buffer covers up to max_output_tile
        # square outputs per load.
        tile_edge = cfg.max_output_tile
        tile_starts = list(range(0, out_size, tile_edge))
        stats.spatial_tiles = len(tile_starts) ** 2

        mid_spill: np.ndarray | None = None
        if not self.direct_transfer:
            mid_spill = np.zeros((d, out_size, out_size), dtype=np.int8)

        for group in range(n_channel_groups):
            ch0 = group * cfg.td
            dwc_w = layer.dwc_weight[ch0 : ch0 + cfg.td]
            pwc_w_slice = layer.pwc_weight[:, ch0 : ch0 + cfg.td]

            # Per-group loads: DWC weights, Non-Conv constants, and the
            # full K x Td PWC weight slice (resident across tiles).
            buffers.dwc_weight.fill(dwc_w.size)
            self.memory.read_weights(dwc_w.size)
            buffers.offline.fill(2 * cfg.td)
            self.memory.read_offline(2 * cfg.td)
            buffers.pwc_weight.fill(pwc_w_slice.size)
            self.memory.read_weights(pwc_w_slice.size)

            for ty in tile_starts:
                for tx in tile_starts:
                    tile_h = min(tile_edge, out_size - ty)
                    tile_w = min(tile_edge, out_size - tx)
                    self._run_tile(
                        layer,
                        padded,
                        psum,
                        mid_spill,
                        buffers,
                        stats,
                        group,
                        (ty, tx),
                        (tile_h, tile_w),
                        stride,
                    )

        # Reduction over D complete: requantize PWC output and write back.
        out_q = np.empty((k_total, out_size, out_size), dtype=np.int8)
        for kg in range(n_kernel_groups):
            k0 = kg * cfg.tk
            out_q[k0 : k0 + cfg.tk] = self.nonconv.process(
                psum[k0 : k0 + cfg.tk], layer.pwc_nonconv, k0
            )
        self.memory.write_activations(out_q.size)
        self.memory.store("ofmap", out_q)

        stats.buffer_accesses = buffers.access_summary()
        stats.external = {
            "activation_reads": self.memory.activation_reads - ext_before[0],
            "activation_writes": self.memory.activation_writes - ext_before[1],
            "weight_reads": self.memory.weight_reads - ext_before[2],
            "offline_reads": self.memory.offline_reads - ext_before[3],
        }
        return out_q, stats

    def _run_tile(
        self,
        layer: QuantizedDSCLayer,
        padded: np.ndarray,
        psum: np.ndarray,
        mid_spill: np.ndarray | None,
        buffers: BufferSet,
        stats: LayerRunStats,
        group: int,
        tile_origin: tuple[int, int],
        tile_shape: tuple[int, int],
        stride: int,
    ) -> None:
        """Process one (channel group, ifmap tile) pair as one batch.

        The tile's ``R x C`` output positions run through the DWC engine,
        the Non-Conv bank and the PWC engine in one call each (the PWC
        call covers every kernel group).  Cycle, buffer and memory
        counters advance by the totals of the position-by-position,
        kernel-group-by-kernel-group schedule, and every buffer capacity
        and residency check still runs.
        """
        cfg = self.config
        ty, tx = tile_origin
        tile_h, tile_w = tile_shape
        ch0 = group * cfg.td
        k = cfg.kernel_size
        pos_rows = math.ceil(tile_h / cfg.tn)
        pos_cols = math.ceil(tile_w / cfg.tm)
        positions = pos_rows * pos_cols
        pwc_cycles = positions * stats.kernel_groups

        # Load the tile's input (with halo) into the ifmap buffer.
        ext_h = (tile_h - 1) * stride + k
        ext_w = (tile_w - 1) * stride + k
        tile_in = padded[
            ch0 : ch0 + cfg.td,
            ty * stride : ty * stride + ext_h,
            tx * stride : tx * stride + ext_w,
        ]
        buffers.dwc_ifmap.fill(tile_in.size)
        self.memory.read_activations(tile_in.size)

        stats.cycles += cfg.init_cycles + pwc_cycles
        stats.init_cycle_total += cfg.init_cycles

        # One DWC window per position, every (Tn, Tm) outputs.  Windows of
        # the last position row/column of odd-sized maps overhang the
        # buffered extent: they are clipped there and zero-filled to the
        # engine's fixed geometry (outputs beyond the map are discarded
        # below).  Only the resident elements are buffer reads; the zero
        # fill is wired, not fetched.
        span_y = (cfg.tn - 1) * stride + k
        span_x = (cfg.tm - 1) * stride + k
        for h, n_h in _window_spans(pos_rows, cfg.tn * stride, span_y, ext_h):
            for w, n_w in _window_spans(
                pos_cols, cfg.tm * stride, span_x, ext_w
            ):
                buffers.dwc_ifmap.read(cfg.td * h * w, times=n_h * n_w)
        region_h = (pos_rows * cfg.tn - 1) * stride + k
        region_w = (pos_cols * cfg.tm - 1) * stride + k
        region = tile_in
        if (region_h, region_w) != (ext_h, ext_w):
            region = np.zeros((cfg.td, region_h, region_w), dtype=np.int8)
            region[:, :ext_h, :ext_w] = tile_in
        dwc_w = layer.dwc_weight[ch0 : ch0 + cfg.td]
        buffers.dwc_weight.read(dwc_w.size, times=positions)
        result = self.dwc_engine.compute_tile(region, dwc_w, stride)
        stats.dwc_busy_cycles += result.cycles
        stats.dwc_macs += result.macs
        stats.dwc_input_elements += result.input_elements
        stats.dwc_input_zeros += result.input_zeros

        # Non-Conv: DWC accumulators -> int8 PWC input tiles.
        buffers.offline.read(2 * cfg.td, times=positions)
        mid = self.nonconv.process(
            result.acc, layer.dwc_nonconv, ch0, cycles=positions
        )

        if self.direct_transfer:
            # Each position's Td x Tn x Tm tile is written once and read by
            # every kernel group before the next position replaces it.
            mid_tile_entries = cfg.td * cfg.tn * cfg.tm
            buffers.intermediate.fill(mid_tile_entries, times=positions)
            buffers.intermediate.read(mid_tile_entries, times=pwc_cycles)
            buffers.intermediate.drain()
        else:
            # Baseline: intermediate spilled to external memory and
            # fetched back for the PWC.
            assert mid_spill is not None
            self.memory.write_activations(tile_h * tile_w * cfg.td)
            mid_spill[
                ch0 : ch0 + cfg.td, ty : ty + tile_h, tx : tx + tile_w
            ] = mid[:, :tile_h, :tile_w]
            self.memory.read_activations(tile_h * tile_w * cfg.td)

        pwc_w = layer.pwc_weight[:, ch0 : ch0 + cfg.td]
        buffers.pwc_weight.read(cfg.tk * cfg.td, times=pwc_cycles)
        pwc_res = self.pwc_engine.compute_group(mid, pwc_w)
        stats.pwc_busy_cycles += pwc_res.cycles
        stats.pwc_macs += pwc_res.macs
        stats.pwc_input_elements += pwc_res.input_elements
        stats.pwc_input_zeros += pwc_res.input_zeros
        psum[:, ty : ty + tile_h, tx : tx + tile_w] += pwc_res.psum[
            :, :tile_h, :tile_w
        ]


def _window_spans(
    count: int, step: int, span: int, extent: int
) -> list[tuple[int, int]]:
    """``(resident span, windows)`` pairs along one tile axis.

    ``count`` windows of ``span`` inputs start every ``step`` inputs; only
    the last can overhang the buffered ``extent`` and be clipped.
    """
    last = min(span, extent - (count - 1) * step)
    return [(span, count - 1), (last, 1)] if count > 1 else [(last, 1)]
