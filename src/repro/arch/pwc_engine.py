"""The pointwise-convolution engine (paper Fig. 5b).

The PWC engine holds ``Tk x Tn x Tm = 64`` PEs of four multipliers each —
512 MACs per cycle.  One cycle consumes a ``Tn x Tm x Td`` input tile
(the DWC output delivered through the intermediate buffer) and a
``Tk x Td`` weight tile, producing partial sums for ``Tk`` output channels
over the ``Tn x Tm`` positions; partial sums accumulate across channel
groups in the psum registers until the reduction over ``D`` completes.

The functional model evaluates every cycle of a channel group's ifmap tile
in one call: all ``R x C`` output positions against all ``K / Tk`` kernel
groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from .params import ArchConfig

__all__ = ["PWCTileResult", "PWCEngine"]


@dataclass(frozen=True)
class PWCTileResult:
    """Output of one PWC engine call covering ``cycles`` engine cycles.

    Attributes:
        psum: int64 partial sums for this channel group,
            ``(K, R*tn, C*tm)``.
        cycles: Engine cycles the call covers: ``R * C`` positions times
            ``K / Tk`` kernel groups.
        macs: MAC operations performed.
        input_zeros: Zero int8 inputs consumed; every kernel-group cycle
            re-reads its position's input tile.
        input_elements: int8 inputs consumed.
    """

    psum: np.ndarray
    cycles: int
    macs: int
    input_zeros: int
    input_elements: int

    @property
    def nonzero_input_fraction(self) -> float:
        """Fraction of non-zero int8 inputs consumed."""
        return (self.input_elements - self.input_zeros) / self.input_elements


class PWCEngine:
    """Functional model of the pointwise engine."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.invocations = 0
        self.total_macs = 0

    @property
    def macs_per_cycle(self) -> int:
        """Parallel MAC count (512 for the paper's configuration)."""
        return self.config.pwc_macs_per_cycle

    def compute_group(
        self, ifmap_tile: np.ndarray, weights: np.ndarray
    ) -> PWCTileResult:
        """Multiply intermediate tiles with a channel group's kernels.

        Args:
            ifmap_tile: int8 PWC inputs of an ``R x C`` grid of output
                positions, shape ``(td, R*tn, C*tm)``.
            weights: int8 kernel slice, shape ``(K, td)`` with ``K`` a
                multiple of ``tk`` (one kernel group is ``K = tk``).

        Returns:
            :class:`PWCTileResult` with ``(K, R*tn, C*tm)`` partial sums;
            the engine counters advance by ``R * C * K / tk`` cycles.
        """
        cfg = self.config
        if (
            ifmap_tile.ndim != 3
            or ifmap_tile.shape[0] != cfg.td
            or not ifmap_tile.shape[1]
            or not ifmap_tile.shape[2]
            or ifmap_tile.shape[1] % cfg.tn
            or ifmap_tile.shape[2] % cfg.tm
        ):
            raise ShapeError(
                f"PWC engine expects an ifmap tile (td, R*tn, C*tm) = "
                f"({cfg.td}, R*{cfg.tn}, C*{cfg.tm}), got {ifmap_tile.shape}"
            )
        if (
            weights.ndim != 2
            or weights.shape[1] != cfg.td
            or not weights.shape[0]
            or weights.shape[0] % cfg.tk
        ):
            raise ShapeError(
                f"PWC engine expects weights (K, td) with K a multiple of "
                f"{cfg.tk} and td = {cfg.td}, got {weights.shape}"
            )
        td, height, width = ifmap_tile.shape
        psum = np.matmul(
            weights.astype(np.int64),
            ifmap_tile.astype(np.int64).reshape(td, height * width),
        ).reshape(-1, height, width)
        kernel_groups = weights.shape[0] // cfg.tk
        positions = (height // cfg.tn) * (width // cfg.tm)
        cycles = positions * kernel_groups
        macs = cycles * cfg.pwc_macs_per_cycle
        self.invocations += cycles
        self.total_macs += macs
        return PWCTileResult(
            psum=psum,
            cycles=cycles,
            macs=macs,
            input_zeros=kernel_groups * int(np.count_nonzero(ifmap_tile == 0)),
            input_elements=kernel_groups * ifmap_tile.size,
        )
