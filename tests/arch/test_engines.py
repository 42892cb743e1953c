"""PE primitives and the DWC/PWC engine functional models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arch import (
    DWCEngine,
    EDEA_CONFIG,
    MACUnit,
    NonConvUnitBank,
    PWCEngine,
    adder_tree_sum,
    mac_multiply,
)
from repro.arch.params import ArchConfig
from repro.errors import ShapeError
from repro.fixedpoint import Q8_16
from repro.nn import functional as F
from repro.quant import NonConvParams


def int8(rng, shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)


class TestPEPrimitives:
    def test_mac_multiply(self):
        assert mac_multiply(3, -4) == -12
        assert mac_multiply(-128, -128) == 16384

    def test_mac_multiply_range_check(self):
        with pytest.raises(ShapeError):
            mac_multiply(200, 1)

    def test_adder_tree_matches_sum(self, rng):
        values = rng.integers(-1000, 1000, size=9).tolist()
        assert adder_tree_sum(values) == sum(values)

    def test_adder_tree_single_input(self):
        assert adder_tree_sum([7]) == 7

    def test_adder_tree_empty_raises(self):
        with pytest.raises(ShapeError):
            adder_tree_sum([])

    def test_mac_unit_accumulates(self):
        unit = MACUnit()
        unit.mac(2, 3)
        unit.mac(-1, 4)
        assert unit.accumulator == 2
        unit.clear()
        assert unit.accumulator == 0

    @given(st.lists(
        st.tuples(st.integers(-128, 127), st.integers(-128, 127)),
        min_size=1, max_size=64,
    ))
    def test_mac_unit_equals_dot_product(self, pairs):
        unit = MACUnit()
        for a, w in pairs:
            unit.mac(a, w)
        assert unit.accumulator == sum(a * w for a, w in pairs)


class TestDWCEngine:
    def test_matches_reference_depthwise_conv_stride1(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        x = int8(rng, (8, 4, 4))
        w = int8(rng, (8, 3, 3))
        result = engine.compute_tile(x, w, stride=1)
        ref = F.depthwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None, 1, 0
        )[0]
        np.testing.assert_array_equal(result.acc, ref)

    def test_matches_reference_stride2(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        x = int8(rng, (8, 5, 5))
        w = int8(rng, (8, 3, 3))
        result = engine.compute_tile(x, w, stride=2)
        ref = F.depthwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None, 2, 0
        )[0]
        np.testing.assert_array_equal(result.acc, ref)

    def test_matches_scalar_mac_units(self, rng):
        """The vectorized engine equals an explicit PE-by-PE evaluation."""
        engine = DWCEngine(EDEA_CONFIG)
        x = int8(rng, (8, 4, 4))
        w = int8(rng, (8, 3, 3))
        result = engine.compute_tile(x, w, stride=1)
        for ch in range(8):
            for oy in range(2):
                for ox in range(2):
                    unit = MACUnit()
                    for ky in range(3):
                        for kx in range(3):
                            unit.mac(int(x[ch, oy + ky, ox + kx]),
                                     int(w[ch, ky, kx]))
                    assert unit.accumulator == result.acc[ch, oy, ox]

    def test_mac_count_is_288(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        result = engine.compute_tile(
            int8(rng, (8, 4, 4)), int8(rng, (8, 3, 3)), stride=1
        )
        assert result.macs == 288

    def test_counters_accumulate(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        for _ in range(3):
            engine.compute_tile(int8(rng, (8, 4, 4)), int8(rng, (8, 3, 3)), 1)
        assert engine.invocations == 3
        assert engine.total_macs == 3 * 288

    def test_zero_fraction_reported(self):
        engine = DWCEngine(EDEA_CONFIG)
        x = np.zeros((8, 4, 4), dtype=np.int8)
        w = np.ones((8, 3, 3), dtype=np.int8)
        result = engine.compute_tile(x, w, 1)
        assert result.nonzero_input_fraction == 0.0

    def test_wrong_tile_shape_raises(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        with pytest.raises(ShapeError):
            engine.compute_tile(int8(rng, (8, 4, 4)), int8(rng, (8, 3, 3)), 2)
        with pytest.raises(ShapeError):
            engine.compute_tile(int8(rng, (4, 4, 4)), int8(rng, (8, 3, 3)), 1)

    def test_scaled_engine(self, rng):
        cfg = ArchConfig(td=16)
        engine = DWCEngine(cfg)
        result = engine.compute_tile(
            int8(rng, (16, 4, 4)), int8(rng, (16, 3, 3)), 1
        )
        assert result.macs == 576


    @pytest.mark.parametrize("stride", [1, 2])
    def test_position_grid_matches_reference_and_single_positions(
        self, rng, stride
    ):
        """A 3 x 2 grid of positions in one call equals the reference
        convolution and six single-position calls, zero counts (halo
        re-reads included) and counters too."""
        cfg = ArchConfig(tn=2, tm=2)
        rows, cols, k = 3, 2, 3
        x = int8(rng, (8, (rows * 2 - 1) * stride + k,
                       (cols * 2 - 1) * stride + k))
        x[rng.random(x.shape) < 0.3] = 0
        w = int8(rng, (8, 3, 3))
        grid = DWCEngine(cfg)
        result = grid.compute_tile(x, w, stride)
        ref = F.depthwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None,
            stride, 0,
        )[0]
        np.testing.assert_array_equal(result.acc, ref)

        single = DWCEngine(cfg)
        span = stride + k
        zeros = elements = 0
        for py in range(rows):
            for px in range(cols):
                y, xo = 2 * stride * py, 2 * stride * px
                one = single.compute_tile(
                    x[:, y : y + span, xo : xo + span], w, stride
                )
                np.testing.assert_array_equal(
                    one.acc, result.acc[:, 2 * py : 2 * py + 2,
                                        2 * px : 2 * px + 2]
                )
                assert one.cycles == 1
                zeros += one.input_zeros
                elements += one.input_elements
        assert result.cycles == rows * cols
        assert (result.input_zeros, result.input_elements) == (
            zeros, elements
        )
        assert (grid.invocations, grid.total_macs) == (
            single.invocations, single.total_macs
        )

    def test_partial_position_region_raises(self, rng):
        engine = DWCEngine(EDEA_CONFIG)
        w = int8(rng, (8, 3, 3))
        # Stride 1 grids span 2R + 2 inputs; 5 and 7 cover no whole R.
        with pytest.raises(ShapeError):
            engine.compute_tile(int8(rng, (8, 5, 4)), w, 1)
        with pytest.raises(ShapeError):
            engine.compute_tile(int8(rng, (8, 6, 7)), w, 1)
        # Stride 2 grids span 4R + 1 inputs.
        with pytest.raises(ShapeError):
            engine.compute_tile(int8(rng, (8, 9, 7)), w, 2)
        assert engine.invocations == 0


class TestPWCEngine:
    def test_matches_reference_pointwise_conv(self, rng):
        engine = PWCEngine(EDEA_CONFIG)
        x = int8(rng, (8, 2, 2))
        w = int8(rng, (16, 8))
        result = engine.compute_group(x, w)
        ref = F.pointwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None
        )[0]
        np.testing.assert_array_equal(result.psum, ref)

    def test_mac_count_is_512(self, rng):
        engine = PWCEngine(EDEA_CONFIG)
        result = engine.compute_group(int8(rng, (8, 2, 2)), int8(rng, (16, 8)))
        assert result.macs == 512

    def test_accumulation_across_groups(self, rng):
        """Summing per-group psums equals the full-depth pointwise conv."""
        engine = PWCEngine(EDEA_CONFIG)
        d = 32
        x = int8(rng, (d, 2, 2))
        w = int8(rng, (16, d))
        acc = np.zeros((16, 2, 2), dtype=np.int64)
        for g in range(d // 8):
            acc += engine.compute_group(
                x[8 * g : 8 * g + 8], w[:, 8 * g : 8 * g + 8]
            ).psum
        ref = F.pointwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None
        )[0]
        np.testing.assert_array_equal(acc, ref)

    def test_shape_checks(self, rng):
        engine = PWCEngine(EDEA_CONFIG)
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 2, 3)), int8(rng, (16, 8)))
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 2, 2)), int8(rng, (8, 8)))

    def test_all_kernel_groups_of_a_grid_match_reference(self, rng):
        """K = 3 Tk kernels over a 2 x 3 position grid in one call."""
        engine = PWCEngine(EDEA_CONFIG)
        x = int8(rng, (8, 4, 6))
        x[rng.random(x.shape) < 0.4] = 0
        w = int8(rng, (48, 8))
        result = engine.compute_group(x, w)
        ref = F.pointwise_conv2d(
            x[np.newaxis].astype(np.int64), w.astype(np.int64), None
        )[0]
        np.testing.assert_array_equal(result.psum, ref)
        cycles = 2 * 3 * 3
        assert result.cycles == engine.invocations == cycles
        assert result.macs == engine.total_macs == cycles * 512
        # Every kernel-group cycle re-reads its position's input tile.
        assert result.input_elements == 3 * x.size
        assert result.input_zeros == 3 * int(np.count_nonzero(x == 0))

    def test_partial_position_or_kernel_group_raises(self, rng):
        engine = PWCEngine(EDEA_CONFIG)
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 3, 4)), int8(rng, (16, 8)))
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 4, 0)), int8(rng, (16, 8)))
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 2, 2)), int8(rng, (40, 8)))
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 2, 2)), int8(rng, (0, 8)))
        with pytest.raises(ShapeError):
            engine.compute_group(int8(rng, (8, 2, 2)), int8(rng, (32, 4)))
        assert engine.invocations == 0

    def test_worst_case_no_overflow(self):
        """Extreme int8 operands accumulated over MobileNet's deepest
        reduction stay far inside the int64 psum range."""
        engine = PWCEngine(EDEA_CONFIG)
        x = np.full((8, 2, 2), -128, dtype=np.int8)
        w = np.full((16, 8), -128, dtype=np.int8)
        total = np.zeros((16, 2, 2), dtype=np.int64)
        for _ in range(1024 // 8):  # D = 1024 worst case
            total += engine.compute_group(x, w).psum
        assert total.max() == 128 * 128 * 1024  # = 2^24, fits int32 too


class TestNonConvUnitBank:
    def make_params(self, channels):
        return NonConvParams(
            k_raw=np.full(channels, Q8_16.to_fixed(0.01)),
            b_raw=np.full(channels, Q8_16.to_fixed(1.0)),
            relu=True,
        )

    def test_process_slices_channels(self, rng):
        bank = NonConvUnitBank(EDEA_CONFIG)
        params = self.make_params(32)
        acc = rng.integers(-1000, 1000, size=(8, 2, 2))
        out = bank.process(acc, params, channel_offset=8)
        expected = NonConvParams(
            k_raw=np.asarray(params.k_raw)[8:16],
            b_raw=np.asarray(params.b_raw)[8:16],
            relu=True,
        ).apply(acc)
        np.testing.assert_array_equal(out, expected)

    def test_ops_counted(self, rng):
        bank = NonConvUnitBank(EDEA_CONFIG)
        acc = rng.integers(-10, 10, size=(8, 2, 2))
        bank.process(acc, self.make_params(8), 0)
        assert bank.total_ops == 2 * acc.size
        assert bank.invocations == 1

    def test_too_many_channels_rejected(self, rng):
        bank = NonConvUnitBank(EDEA_CONFIG)
        acc = rng.integers(-10, 10, size=(32, 2, 2))
        with pytest.raises(ShapeError):
            bank.process(acc, self.make_params(32), 0)

    def test_offset_out_of_range_rejected(self, rng):
        bank = NonConvUnitBank(EDEA_CONFIG)
        acc = rng.integers(-10, 10, size=(8, 2, 2))
        with pytest.raises(ShapeError):
            bank.process(acc, self.make_params(8), 4)
