"""Fastpath vs event-driven parity across every zoo geometry.

The analytic fast-latency model claims bit-for-bit ``LayerRunStats``
parity with the event-driven accelerator on *any* DSC geometry —
including stride-2 and non-divisible (7x7-style) maps whose edge windows
the engines zero-fill.  These tests sweep the unique spatial geometries
of every :mod:`repro.nn.zoo` factory (MobileNetV1-224, the MobileNetV2
DSC view, and a custom odd-sized stack) through both models with
synthetic quantized layers (channel counts clamped to one Td/Tk group so
the event model stays fast; zero statistics are spatial, not
channel-count, effects).  A Hypothesis test then draws architecture
configs too — Td/Tk, non-square Tn x Tm output tiles, ifmap tile
bounds, several channel and kernel groups — against the batched event
model, whose per-tile closed forms those shapes stress.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import DSCAccelerator
from repro.arch.params import ArchConfig
from repro.fixedpoint import Q8_16
from repro.nn.mobilenet import DSCLayerSpec
from repro.nn.zoo import (
    custom_dsc_specs,
    mobilenet_v1_imagenet_specs,
    mobilenet_v2_dsc_specs,
)
from repro.quant.fold import NonConvParams
from repro.quant.qmodel import QuantizedDSCLayer
from repro.quant.scheme import QuantParams
from repro.sim import analytic_layer_stats


def _geometries(specs):
    return sorted({(s.in_size, s.stride) for s in specs})


#: A deliberately odd-sized custom stack: 30 -> 30 -> 15 -> 8 -> 8.
CUSTOM_PLAN = [(1, 8, 16), (2, 16, 16), (2, 16, 16), (1, 16, 16)]

ZOO_GEOMETRIES = sorted(
    set(_geometries(mobilenet_v1_imagenet_specs()))
    | set(_geometries(mobilenet_v2_dsc_specs()))
    | set(_geometries(custom_dsc_specs(30, CUSTOM_PLAN)))
)


def make_synthetic_layer(spec: DSCLayerSpec, rng) -> QuantizedDSCLayer:
    """A quantized DSC layer with random weights and Non-Conv constants.

    No training or calibration: the parity claim is about integer
    arithmetic and scheduling, so any in-range constants exercise it.
    The ReLU in both Non-Conv stages guarantees a healthy zero mix in
    the intermediate tensor (the statistic under test).
    """
    d, k = spec.in_channels, spec.out_channels
    params = QuantParams(0.05, signed=False)
    return QuantizedDSCLayer(
        spec=spec,
        dwc_weight=rng.integers(-4, 5, size=(d, 3, 3)).astype(np.int8),
        pwc_weight=rng.integers(-4, 5, size=(k, d)).astype(np.int8),
        dwc_nonconv=NonConvParams(
            k_raw=np.asarray(
                Q8_16.to_fixed(rng.uniform(0.002, 0.02, d)), dtype=np.int64
            ),
            b_raw=np.asarray(
                Q8_16.to_fixed(rng.uniform(-1.5, 1.5, d)), dtype=np.int64
            ),
            relu=True,
        ),
        pwc_nonconv=NonConvParams(
            k_raw=np.asarray(
                Q8_16.to_fixed(rng.uniform(0.002, 0.02, k)), dtype=np.int64
            ),
            b_raw=np.asarray(
                Q8_16.to_fixed(rng.uniform(-1.5, 1.5, k)), dtype=np.int64
            ),
            relu=True,
        ),
        input_params=params,
        mid_params=params,
        output_params=params,
    )


def make_input(spec: DSCLayerSpec, rng) -> np.ndarray:
    """Post-ReLU int8 input with ~25% zeros (drives the zero gating)."""
    shape = (spec.in_channels, spec.in_size, spec.in_size)
    values = rng.integers(1, 60, size=shape)
    return (values * (rng.random(shape) > 0.25)).astype(np.int8)


def _run_both(spec: DSCLayerSpec):
    rng = np.random.default_rng(1000 * spec.in_size + spec.stride)
    layer = make_synthetic_layer(spec, rng)
    x_q = make_input(spec, rng)
    out_event, stats_event = DSCAccelerator().run_layer(layer, x_q)
    mid_ref, out_ref = layer.forward(x_q[np.newaxis])
    assert np.array_equal(out_event, out_ref[0])
    stats_fast = analytic_layer_stats(layer, x_q, mid_ref[0])
    return stats_event, stats_fast


@pytest.mark.parametrize("in_size,stride", ZOO_GEOMETRIES)
def test_zoo_geometry_stats_bit_for_bit(in_size, stride):
    """Every LayerRunStats field matches the event model exactly."""
    spec = DSCLayerSpec(0, in_size, stride, 8, 16)
    stats_event, stats_fast = _run_both(spec)
    assert dataclasses.asdict(stats_event) == dataclasses.asdict(stats_fast)


def test_stride2_pad_edge_zero_parity_regression():
    """Regression: on a stride-2 14->7 layer the engines never read the
    bottom/right padding row, and the 7x7 map's edge windows are
    zero-filled per tile.  A whole-tensor zero fraction over the padded
    input inflated ``dwc_input_zeros`` relative to the event model."""
    spec = DSCLayerSpec(0, 14, 2, 8, 16)
    stats_event, stats_fast = _run_both(spec)
    assert stats_fast.dwc_input_zeros == stats_event.dwc_input_zeros
    assert stats_fast.pwc_input_zeros == stats_event.pwc_input_zeros
    assert stats_fast.dwc_input_elements == stats_event.dwc_input_elements
    assert stats_fast.pwc_input_elements == stats_event.pwc_input_elements


def test_odd_map_zero_parity_regression():
    """Regression: non-divisible 7x7 stride-1 maps (MobileNetV1-224's
    last stage) also fell back to the inflated whole-tensor fraction."""
    spec = DSCLayerSpec(0, 7, 1, 8, 16)
    stats_event, stats_fast = _run_both(spec)
    assert stats_fast.dwc_input_zeros == stats_event.dwc_input_zeros
    assert stats_fast.pwc_input_zeros == stats_event.pwc_input_zeros


@st.composite
def arch_configs(draw):
    """Architecture configs with any Tn x Tm output tile (non-square
    included) and an ifmap tile bound that is a multiple of both."""
    tn = draw(st.integers(1, 4))
    tm = draw(st.integers(1, 4))
    return ArchConfig(
        td=draw(st.sampled_from([1, 2, 4, 8])),
        tk=draw(st.sampled_from([1, 2, 4, 8, 16])),
        tn=tn,
        tm=tm,
        max_output_tile=math.lcm(tn, tm) * draw(st.integers(1, 3)),
    )


@settings(max_examples=40, deadline=None)
@given(
    config=arch_configs(),
    in_size=st.integers(2, 17),
    stride=st.sampled_from([1, 2]),
    channel_groups=st.integers(1, 3),
    kernel_groups=st.integers(1, 3),
    direct_transfer=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_drawn_config_event_model_matches_analytic(
    config, in_size, stride, channel_groups, kernel_groups,
    direct_transfer, seed,
):
    """The batched event model equals the closed-form model field for
    field, its output equals the int8 reference, and its engine counters
    advance one step per engine cycle."""
    spec = DSCLayerSpec(
        0, in_size, stride,
        config.td * channel_groups, config.tk * kernel_groups,
    )
    rng = np.random.default_rng(seed)
    layer = make_synthetic_layer(spec, rng)
    x_q = make_input(spec, rng)
    accel = DSCAccelerator(config, direct_transfer=direct_transfer)
    out, stats = accel.run_layer(layer, x_q)
    mid_ref, out_ref = layer.forward(x_q[np.newaxis])
    np.testing.assert_array_equal(out, out_ref[0])
    stats_fast = analytic_layer_stats(
        layer, x_q, mid_ref[0], config, direct_transfer
    )
    assert dataclasses.asdict(stats) == dataclasses.asdict(stats_fast)
    assert accel.dwc_engine.invocations == stats.dwc_busy_cycles
    assert accel.pwc_engine.invocations == stats.pwc_busy_cycles
    assert accel.dwc_engine.total_macs == stats.dwc_macs
    assert accel.pwc_engine.total_macs == stats.pwc_macs
    # Non-Conv: one Td x Tn x Tm pass per DWC cycle, then one
    # requantization of every output psum.
    n = spec.out_size
    assert accel.nonconv.total_ops == 2 * (
        stats.dwc_busy_cycles * config.td * config.tn * config.tm
        + spec.out_channels * n * n
    )
