"""Run quantized networks on the accelerator model, with verification.

The runner connects the three layers of the reproduction: the quantized
reference model (bit-exact int8 semantics), the accelerator model (same
semantics + tiling/scheduling + cycle counts), and the evaluation harness
(which consumes the stats).  With ``verify=True`` every layer's output is
compared element-for-element against the reference; a mismatch raises
:class:`~repro.errors.SimulationError` naming the offending layer and the
first mismatching element, so experiments can't silently run on wrong
functional behaviour.

With ``fast=True`` the runner skips the event-driven tile simulation and
instead computes outputs with the vectorized int8 reference while
deriving the run statistics from the closed-form timing model
(:mod:`repro.sim.fastpath`) — cycle totals identical, ~3-5x faster — for
callers that only need aggregate latency/energy.
"""

from __future__ import annotations

import numpy as np

from ..arch.accelerator import DSCAccelerator, LayerRunStats
from ..arch.params import EDEA_CONFIG, ArchConfig
from ..errors import ShapeError, SimulationError
from ..quant.qmodel import QuantizedMobileNet
from .fastpath import analytic_layer_stats
from .stats import NetworkRunStats

__all__ = ["AcceleratorRunner"]


class AcceleratorRunner:
    """Executes a :class:`QuantizedMobileNet`'s DSC stack on the accelerator."""

    def __init__(
        self,
        qmodel: QuantizedMobileNet,
        config: ArchConfig = EDEA_CONFIG,
        direct_transfer: bool = True,
        verify: bool = True,
        fast: bool = False,
    ) -> None:
        """Create a runner.

        Args:
            qmodel: The quantized network to execute.
            config: Architecture parameters.
            direct_transfer: Route the DWC-to-PWC intermediate through the
                on-chip buffer (the paper's design) instead of spilling.
            verify: Compare every accelerator layer output against the
                int8 reference (ignored in fast mode, whose outputs *are*
                the reference).
            fast: Use the analytic fast-latency mode instead of the
                event-driven simulation.
        """
        self.qmodel = qmodel
        self.config = config
        self.verify = verify
        self.fast = fast
        self.direct_transfer = direct_transfer
        self.accelerator = DSCAccelerator(
            config=config, direct_transfer=direct_transfer
        )

    def run_layer(
        self, layer_index: int, x_q: np.ndarray
    ) -> tuple[np.ndarray, LayerRunStats]:
        """Run one DSC layer on the accelerator (optionally verified)."""
        if not 0 <= layer_index < len(self.qmodel.layers):
            raise ShapeError(f"no DSC layer {layer_index}")
        layer = self.qmodel.layers[layer_index]
        if self.fast:
            mid_ref, out_ref = layer.forward(x_q[np.newaxis])
            stats = analytic_layer_stats(
                layer,
                x_q,
                mid_ref[0],
                config=self.config,
                direct_transfer=self.direct_transfer,
            )
            return out_ref[0], stats
        out_q, stats = self.accelerator.run_layer(layer, x_q)
        if self.verify:
            _, ref = layer.forward(x_q[np.newaxis])
            if not np.array_equal(out_q, ref[0]):
                mismatches = np.argwhere(out_q != ref[0])
                channel, row, col = (int(v) for v in mismatches[0])
                plural = "element" if len(mismatches) == 1 else "elements"
                raise SimulationError(
                    f"accelerator output of layer {layer_index} differs "
                    f"from the int8 reference in {len(mismatches)} "
                    f"{plural}; first mismatch at channel {channel}, "
                    f"row {row}, col {col}: accelerator produced "
                    f"{int(out_q[channel, row, col])}, reference expects "
                    f"{int(ref[0][channel, row, col])}"
                )
        return out_q, stats

    def run_network(self, image: np.ndarray) -> NetworkRunStats:
        """Run all 13 DSC layers for one input image.

        Args:
            image: Float image, shape ``(3, H, W)`` or ``(1, 3, H, W)``.

        Returns:
            :class:`NetworkRunStats` with per-layer measurements.
        """
        if image.ndim == 3:
            image = image[np.newaxis]
        if image.ndim != 4 or image.shape[0] != 1:
            raise ShapeError(
                f"run_network expects a single image, got {image.shape}"
            )
        x_q = self.qmodel.stem_forward(image)[0]
        per_layer = []
        for index in range(len(self.qmodel.layers)):
            x_q, stats = self.run_layer(index, x_q)
            per_layer.append(stats)
        return NetworkRunStats(layers=per_layer, clock_hz=self.config.clock_hz)
