"""Analytic fast-latency mode: layer statistics without event simulation.

Sweeps and design-space explorations mostly consume *aggregate* latency,
throughput, and energy — not per-tile event traces.  For those callers
the event-driven :class:`~repro.arch.accelerator.DSCAccelerator` is
overkill: its per-tile engine calls (one DWC, Non-Conv and PWC pass per
channel group and ifmap tile) dominate wall-clock time while its cycle
totals equal the closed-form Eqs. 1-2 by construction (the test suite
asserts this).  This module rebuilds a :class:`LayerRunStats` from the
closed-form model plus vectorized tensor statistics, roughly 3-5x faster
per network than the event-driven run (MobileNetV1 x0.25 at 32x32 over
the Td x Tk DSE grid).

Exact by construction (bit-for-bit equal to the event model on every
geometry, divisible or not): cycles, initiation cycles, busy cycles, MAC
counts, element counts, tile/group counts, buffer access totals, external
traffic, and the zero counts themselves — the engine windows form a
ceil-grid over the (zero-extended) padded input, recovered with one
vectorized sliding-window pass, and the edge intermediate tiles the
Non-Conv stage produces beyond the output map are recomputed with the
same integer arithmetic the engines use.  The test suite asserts parity
against the event-driven model for every zoo geometry, including the
stride/pad edge layers whose zero statistics a whole-tensor fraction
would inflate with the unread padding ring.
"""

from __future__ import annotations

import math

import numpy as np

from ..arch.accelerator import LayerRunStats
from ..arch.params import EDEA_CONFIG, ArchConfig
from ..errors import SimulationError
from ..nn import functional as F
from ..quant.qmodel import QuantizedDSCLayer
from .pipeline import layer_latency

__all__ = ["analytic_layer_stats"]


def analytic_layer_stats(
    layer: QuantizedDSCLayer,
    x_q: np.ndarray,
    mid_q: np.ndarray,
    config: ArchConfig = EDEA_CONFIG,
    direct_transfer: bool = True,
) -> LayerRunStats:
    """Closed-form :class:`LayerRunStats` for one DSC layer run.

    Args:
        layer: The quantized layer (geometry and weights).
        x_q: int8 layer input, shape ``(D, H, W)`` — drives the DWC zero
            statistics.
        mid_q: int8 intermediate (DWC output after Non-Conv), shape
            ``(D, N, N)`` — drives the PWC zero statistics.
        config: Architecture parameters.
        direct_transfer: Matches the accelerator's intermediate-buffer
            vs external-spill accounting.
    """
    cfg = config
    spec = layer.spec
    d, k_total = spec.in_channels, spec.out_channels
    if d % cfg.td:
        raise SimulationError(
            f"channel count {d} not a multiple of Td={cfg.td}"
        )
    if k_total % cfg.tk:
        raise SimulationError(
            f"kernel count {k_total} not a multiple of Tk={cfg.tk}"
        )
    n_channel_groups = d // cfg.td
    n_kernel_groups = k_total // cfg.tk
    out_size = spec.out_size
    stride = spec.stride
    k = cfg.kernel_size

    breakdown = layer_latency(spec, cfg)

    # Per-channel-group position/tile geometry (mirrors the accelerator's
    # tile loops, but in closed form).
    edge = cfg.max_output_tile
    positions = 0
    ifmap_fill_entries = 0
    for ty in range(0, out_size, edge):
        for tx in range(0, out_size, edge):
            tile_h = min(edge, out_size - ty)
            tile_w = min(edge, out_size - tx)
            positions += math.ceil(tile_h / cfg.tn) * math.ceil(
                tile_w / cfg.tm
            )
            ext_h = (tile_h - 1) * stride + k
            ext_w = (tile_w - 1) * stride + k
            ifmap_fill_entries += cfg.td * ext_h * ext_w

    dwc_invocations = positions * n_channel_groups
    pwc_invocations = dwc_invocations * n_kernel_groups
    span_y = (cfg.tn - 1) * stride + k
    span_x = (cfg.tm - 1) * stride + k
    window_entries = cfg.td * span_y * span_x
    mid_tile_entries = cfg.td * cfg.tn * cfg.tm

    # Resident window extents: edge windows of non-divisible maps are
    # clipped at their tile's buffered extent and zero-filled to the
    # engine geometry — only the resident elements are ifmap-buffer
    # reads (the fill is wired, not fetched).
    def resident_spans(tile_out: int, span: int) -> int:
        total = 0
        for i in range(math.ceil(out_size / tile_out)):
            o = i * tile_out
            t0 = (o // edge) * edge
            tile_len = min(edge, out_size - t0)
            tile_end = t0 * stride + (tile_len - 1) * stride + k
            total += min(span, tile_end - o * stride)
        return total

    resident_h = resident_spans(cfg.tn, span_y)
    resident_w = resident_spans(cfg.tm, span_x)

    dwc_elements = dwc_invocations * window_entries
    pwc_elements = pwc_invocations * mid_tile_entries

    # Zero statistics — exact for every geometry, matching the event model
    # window for window.  The engine windows form a ceil-grid over the
    # padded input: one window per (Tn, Tm) output position, starting at
    # multiples of (Tn*stride, Tm*stride) with extent (span_y, span_x).
    # Edge windows of non-divisible maps are clipped at the consumed
    # region and zero-filled to the fixed engine geometry; bottom/right
    # padding the engine never consumes (stride-2 layers read only
    # (N-1)*stride + k rows of the padded map) is excluded because the
    # grid stops at the last real output position.  Zero-extending the
    # padded map therefore reproduces every streamed window's content:
    # whole-tensor fractions would instead inflate the zero statistic
    # with the unread padding ring.
    pad = (k - 1) // 2
    padded = np.pad(x_q, ((0, 0), (pad, pad), (pad, pad)), mode="constant")
    pos_rows = math.ceil(out_size / cfg.tn)
    pos_cols = math.ceil(out_size / cfg.tm)
    need_h = (pos_rows * cfg.tn - 1) * stride + k
    need_w = (pos_cols * cfg.tm - 1) * stride + k
    grow_h = max(0, need_h - padded.shape[1])
    grow_w = max(0, need_w - padded.shape[2])
    if grow_h or grow_w:
        padded = np.pad(
            padded, ((0, 0), (0, grow_h), (0, grow_w)), mode="constant"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (span_y, span_x), axis=(1, 2)
    )
    grid = windows[:, :: cfg.tn * stride, :: cfg.tm * stride][
        :, :pos_rows, :pos_cols
    ]
    # The grid spans all D channels, so every channel group's windows
    # are already included exactly once.
    dwc_zeros = int(np.count_nonzero(grid == 0))

    # PWC input tiles are always the full Td x Tn x Tm intermediate the
    # Non-Conv stage produced — including, at edge positions, the values
    # it computes for output rows/cols beyond the map.  Recover those by
    # rerunning the integer DWC + Non-Conv over the zero-extended input
    # (bit-identical to what the engines stream); divisible maps skip
    # the extra convolution since mid_q already covers every position.
    full_h = pos_rows * cfg.tn
    full_w = pos_cols * cfg.tm
    if (full_h, full_w) == (out_size, out_size):
        mid_zeros = int(np.count_nonzero(mid_q == 0))
    else:
        acc = F.depthwise_conv2d(
            padded[np.newaxis].astype(np.int64),
            layer.dwc_weight.astype(np.int64),
            None,
            stride=stride,
            padding=0,
        )[0, :, :full_h, :full_w]
        mid_ext = layer.dwc_nonconv.apply(acc, channel_axis=0)
        mid_zeros = int(np.count_nonzero(mid_ext == 0))
    pwc_zeros = n_kernel_groups * mid_zeros

    # Buffer access totals, mirroring the event model invocation for
    # invocation (fills count as writes, drains are free).
    dwc_weight_entries = cfg.td * k * k
    offline_entries = 2 * cfg.td
    pwc_slice_entries = k_total * cfg.td
    pwc_group_entries = cfg.tk * cfg.td
    buffer_accesses = {
        "dwc_ifmap": n_channel_groups * ifmap_fill_entries
        + n_channel_groups * cfg.td * resident_h * resident_w,
        "dwc_weight": n_channel_groups * dwc_weight_entries
        + dwc_invocations * dwc_weight_entries,
        "offline": n_channel_groups * offline_entries
        + dwc_invocations * offline_entries,
        "intermediate": (
            dwc_invocations * mid_tile_entries
            + pwc_invocations * mid_tile_entries
            if direct_transfer
            else 0
        ),
        "pwc_weight": n_channel_groups * pwc_slice_entries
        + pwc_invocations * pwc_group_entries,
    }

    spill_entries = 0 if direct_transfer else n_channel_groups * (
        out_size * out_size * cfg.td
    )
    external = {
        "activation_reads": n_channel_groups * ifmap_fill_entries
        + spill_entries,
        "activation_writes": k_total * out_size * out_size + spill_entries,
        "weight_reads": n_channel_groups
        * (dwc_weight_entries + pwc_slice_entries),
        "offline_reads": n_channel_groups * offline_entries,
    }

    return LayerRunStats(
        layer_index=spec.index,
        cycles=breakdown.total_cycles,
        init_cycle_total=breakdown.init_cycles,
        dwc_busy_cycles=dwc_invocations,
        pwc_busy_cycles=pwc_invocations,
        dwc_macs=dwc_invocations * cfg.dwc_macs_per_cycle,
        pwc_macs=pwc_invocations * cfg.pwc_macs_per_cycle,
        dwc_input_zeros=dwc_zeros,
        dwc_input_elements=dwc_elements,
        pwc_input_zeros=pwc_zeros,
        pwc_input_elements=pwc_elements,
        spatial_tiles=breakdown.spatial_tiles,
        channel_groups=n_channel_groups,
        kernel_groups=n_kernel_groups,
        buffer_accesses=buffer_accesses,
        external=external,
    )
