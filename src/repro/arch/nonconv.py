"""The Non-Conv units (paper Section III-C, Fig. 6).

Eight Non-Conv units sit between the DWC and PWC engines; each converts one
channel of DWC accumulators into the PWC's int8 input domain with a single
fixed-point multiply-add (constants in Q8.16) followed by rounding, ReLU
clipping and int8 saturation.  A second bank of the same unit requantizes
the PWC output before write-back (the paper shows the unit generically; we
reuse the same datapath for both stages).

The folding mathematics lives in :mod:`repro.quant.fold`; this module wraps
it in a hardware-facing unit with operation accounting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..quant.fold import NonConvParams
from .params import ArchConfig

__all__ = ["NonConvUnitBank"]


class NonConvUnitBank:
    """A bank of ``td`` Non-Conv units processing one channel group."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.invocations = 0
        self.total_ops = 0  # one multiply + one add per element

    def process(
        self,
        acc_tile: np.ndarray,
        params: NonConvParams,
        channel_offset: int,
        cycles: int = 1,
    ) -> np.ndarray:
        """Convert an accumulator tile into int8 activations.

        Args:
            acc_tile: Integer accumulators, shape ``(channels, rows, cols)``
                where ``channels`` is at most the configured bank width for
                the DWC→PWC stage (``td``) or the PWC output stage (``tk``).
            params: Folded constants of the whole layer stage.
            channel_offset: Index of the tile's first channel within
                ``params``.
            cycles: Bank passes the call covers — one per DWC output
                position when ``acc_tile`` is a grid of ``Tn x Tm``
                positions; ``invocations`` advances by it.

        Returns:
            int8 activations of the same shape.
        """
        channels = acc_tile.shape[0]
        bank_width = max(self.config.td, self.config.tk)
        if channels > bank_width:
            raise ShapeError(
                f"Non-Conv bank processes at most {bank_width} channels "
                f"per invocation (got {channels})"
            )
        if channel_offset + channels > params.channels:
            raise ShapeError(
                f"channel slice [{channel_offset}, "
                f"{channel_offset + channels}) exceeds the layer's "
                f"{params.channels} channels"
            )
        k_raw = np.asarray(params.k_raw)[
            channel_offset : channel_offset + channels
        ]
        b_raw = np.asarray(params.b_raw)[
            channel_offset : channel_offset + channels
        ]
        sliced = NonConvParams(
            k_raw=k_raw, b_raw=b_raw, relu=params.relu, fmt=params.fmt
        )
        out = sliced.apply(acc_tile, channel_axis=0)
        self.invocations += cycles
        self.total_ops += 2 * acc_tile.size
        return out
