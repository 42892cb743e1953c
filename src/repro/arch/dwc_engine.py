"""The depthwise-convolution engine (paper Fig. 5a).

The DWC engine holds ``Td = 8`` PE columns, one per channel of the current
channel group.  Each column computes a full 3x3 window per output element
through nine multipliers and an adder tree, and the engine produces one
``Tn x Tm x Td`` output tile per cycle — 288 MACs in flight.

The functional model computes exactly that arithmetic, vectorized over a
whole grid of ``R x C`` output positions (one engine cycle each), and
reports per-call statistics used by the utilization and power analyses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from .params import ArchConfig

__all__ = ["DWCTileResult", "DWCEngine"]


@dataclass(frozen=True)
class DWCTileResult:
    """Output of one DWC engine call covering ``cycles`` output positions.

    Attributes:
        acc: int64 accumulators, shape ``(td, R*tn, C*tm)``.
        cycles: Engine cycles the call covers, one per ``Tn x Tm`` output
            position (``R * C``).
        macs: MAC operations performed (always the full array each cycle —
            the engine is fully utilized for every MobileNet layer).
        input_zeros: Zero int8 inputs consumed, counted per window: halo
            elements shared by neighbouring windows count once per window
            that reads them.
        input_elements: int8 inputs consumed (``cycles`` windows).
    """

    acc: np.ndarray
    cycles: int
    macs: int
    input_zeros: int
    input_elements: int

    @property
    def nonzero_input_fraction(self) -> float:
        """Fraction of non-zero int8 inputs consumed (drives the
        activity-dependent power model)."""
        return (self.input_elements - self.input_zeros) / self.input_elements


def _grid_positions(extent: int, tile: int, stride: int, k: int) -> int:
    """Number of engine windows along one axis of a buffered region.

    A region of ``R`` windows spans ``(R*tile - 1)*stride + k`` inputs;
    any other extent does not cover a whole number of positions and
    raises :class:`~repro.errors.ShapeError`.
    """
    span = (tile - 1) * stride + k
    step = tile * stride
    if extent < span or (extent - span) % step:
        raise ShapeError(
            f"DWC engine input extent {extent} is not (R*{tile} - 1)*"
            f"{stride} + {k} for a whole number R >= 1 of positions"
        )
    return (extent - span) // step + 1


@functools.lru_cache(maxsize=256)
def _window_multiplicity(count: int, step: int, span: int) -> np.ndarray:
    """How many of ``count`` windows (``span`` wide, one every ``step``
    inputs) read each input along one axis."""
    starts = np.arange(count) * step
    index = np.arange((count - 1) * step + span)[:, np.newaxis]
    weights = ((index >= starts) & (index < starts + span)).sum(axis=1)
    weights.flags.writeable = False
    return weights


class DWCEngine:
    """Functional model of the depthwise engine."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.invocations = 0
        self.total_macs = 0

    @property
    def macs_per_cycle(self) -> int:
        """Parallel MAC count (288 for the paper's configuration)."""
        return self.config.dwc_macs_per_cycle

    def compute_tile(
        self, ifmap_tile: np.ndarray, weights: np.ndarray, stride: int
    ) -> DWCTileResult:
        """Convolve a buffered input region with the channel group kernels.

        Args:
            ifmap_tile: int8 inputs of an ``R x C`` grid of output
                positions, shape ``(td, (R*tn - 1)*stride + k,
                (C*tm - 1)*stride + k)``.  One position (``R = C = 1``) is
                4x4 at stride 1 and 5x5 at stride 2 with Tn=Tm=2.
            weights: int8 kernels, shape ``(td, k, k)``.
            stride: Convolution stride (1 or 2).

        Returns:
            :class:`DWCTileResult` with ``(td, R*tn, C*tm)`` accumulators;
            the engine counters advance by ``R * C`` cycles.
        """
        cfg = self.config
        k = cfg.kernel_size
        if ifmap_tile.ndim != 3 or ifmap_tile.shape[0] != cfg.td:
            raise ShapeError(
                f"DWC engine expects a ({cfg.td}, rows, cols) ifmap region "
                f"for stride {stride}, got {ifmap_tile.shape}"
            )
        rows = _grid_positions(ifmap_tile.shape[1], cfg.tn, stride, k)
        cols = _grid_positions(ifmap_tile.shape[2], cfg.tm, stride, k)
        if weights.shape != (cfg.td, k, k):
            raise ShapeError(
                f"DWC engine expects weights {(cfg.td, k, k)}, "
                f"got {weights.shape}"
            )
        out_h, out_w = rows * cfg.tn, cols * cfg.tm
        x = ifmap_tile.astype(np.int64)
        w = weights.astype(np.int64)
        # Each output element is one PE column pass: 9 multipliers into an
        # adder tree.  Vectorized over channels and every output element,
        # one kernel tap at a time.
        acc = np.zeros((cfg.td, out_h, out_w), dtype=np.int64)
        for ky in range(k):
            for kx in range(k):
                acc += w[:, ky, kx, None, None] * x[
                    :,
                    ky : ky + (out_h - 1) * stride + 1 : stride,
                    kx : kx + (out_w - 1) * stride + 1 : stride,
                ]
        span_y = (cfg.tn - 1) * stride + k
        span_x = (cfg.tm - 1) * stride + k
        # Windows overlap in their halo: weight each input's zero by the
        # number of windows that read it.
        input_zeros = (
            _window_multiplicity(rows, cfg.tn * stride, span_y)
            @ (ifmap_tile == 0).sum(axis=0)
            @ _window_multiplicity(cols, cfg.tm * stride, span_x)
        )
        cycles = rows * cols
        macs = cycles * cfg.dwc_macs_per_cycle
        self.invocations += cycles
        self.total_macs += macs
        return DWCTileResult(
            acc=acc,
            cycles=cycles,
            macs=macs,
            input_zeros=int(input_zeros),
            input_elements=cycles * cfg.td * span_y * span_x,
        )
