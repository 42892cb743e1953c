"""ArchConfig, on-chip buffers, external memory."""

import numpy as np
import pytest

from repro.arch import ArchConfig, Buffer, BufferSet, EDEA_CONFIG, ExternalMemory
from repro.errors import BufferError_, ConfigError, SimulationError


class TestArchConfig:
    def test_paper_engine_sizes(self):
        assert EDEA_CONFIG.dwc_macs_per_cycle == 288
        assert EDEA_CONFIG.pwc_macs_per_cycle == 512
        assert EDEA_CONFIG.total_macs_per_cycle == 800

    def test_clock_is_1ghz(self):
        assert EDEA_CONFIG.clock_hz == 1e9
        assert EDEA_CONFIG.cycle_time_s == 1e-9

    def test_init_cycles_is_9(self):
        assert EDEA_CONFIG.init_cycles == 9

    def test_input_tile_extents(self):
        # 8x8 output tile: 10x10 input at stride 1, 17x17 at stride 2
        assert EDEA_CONFIG.dwc_input_tile_stride1 == 10
        assert EDEA_CONFIG.dwc_input_tile_stride2 == 17

    def test_ifmap_buffer_covers_worst_case(self):
        assert EDEA_CONFIG.dwc_ifmap_buffer_entries == 17 * 17 * 8

    def test_intermediate_buffer_is_one_pwc_tile(self):
        # Fig. 5: DWC ofmap 2x2x8 == PWC ifmap
        assert EDEA_CONFIG.intermediate_buffer_entries == 2 * 2 * 8

    def test_peak_ops(self):
        assert EDEA_CONFIG.peak_ops_per_second == pytest.approx(1.6e12)

    def test_spatial_tiles(self):
        assert EDEA_CONFIG.spatial_tiles(32) == 16
        assert EDEA_CONFIG.spatial_tiles(16) == 4
        assert EDEA_CONFIG.spatial_tiles(8) == 1
        assert EDEA_CONFIG.spatial_tiles(2) == 1

    def test_scaled_config(self):
        cfg = ArchConfig(td=16, tk=32)
        assert cfg.dwc_macs_per_cycle == 576
        assert cfg.pwc_macs_per_cycle == 2048

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArchConfig(td=0)
        with pytest.raises(ConfigError):
            ArchConfig(clock_hz=0)
        with pytest.raises(ConfigError):
            ArchConfig(init_cycles=-1)
        with pytest.raises(ConfigError):
            ArchConfig(max_output_tile=1)  # smaller than Tn
        with pytest.raises(ConfigError):
            ArchConfig(max_output_tile=7)  # not a multiple of Tn

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EDEA_CONFIG.td = 4


class TestBuffer:
    def test_fill_and_read(self):
        buf = Buffer("x", 100)
        buf.fill(60)
        buf.read(60)
        assert buf.reads == 60 and buf.writes == 60
        assert buf.total_accesses == 120

    def test_fill_replaces(self):
        buf = Buffer("x", 100)
        buf.fill(60)
        buf.fill(50)
        assert buf.resident == 50

    def test_overflow_on_fill(self):
        buf = Buffer("x", 10)
        with pytest.raises(BufferError_):
            buf.fill(11)

    def test_underflow_on_read(self):
        buf = Buffer("x", 10)
        buf.fill(5)
        with pytest.raises(BufferError_):
            buf.read(6)

    def test_streaming_write_overflow(self):
        buf = Buffer("x", 10)
        buf.write(6)
        with pytest.raises(BufferError_):
            buf.write(5)

    def test_drain(self):
        buf = Buffer("x", 10)
        buf.fill(8)
        buf.drain()
        assert buf.resident == 0
        buf.write(10)  # full capacity available again

    def test_negative_amounts_rejected(self):
        buf = Buffer("x", 10)
        with pytest.raises(BufferError_):
            buf.fill(-1)
        with pytest.raises(BufferError_):
            buf.read(-1)
        with pytest.raises(BufferError_):
            buf.write(-1)

    def test_repeated_accesses_check_each_and_count_all(self):
        """``times`` repeats one access: capacity and residency are
        checked per access, the counters take the product."""
        buf = Buffer("x", 10)
        buf.fill(8, times=5)
        assert buf.resident == 8 and buf.writes == 40
        buf.read(8, times=3)
        assert buf.reads == 24
        with pytest.raises(BufferError_):
            buf.read(9, times=1)
        with pytest.raises(BufferError_):
            buf.fill(11, times=1)
        with pytest.raises(BufferError_):
            buf.read(1, times=-1)
        assert (buf.reads, buf.writes) == (24, 40)

    def test_zero_capacity_rejected(self):
        with pytest.raises(BufferError_):
            Buffer("x", 0)

    def test_reset_counters_keeps_contents(self):
        buf = Buffer("x", 10)
        buf.fill(4)
        buf.reset_counters()
        assert buf.writes == 0 and buf.resident == 4


class TestBufferSet:
    def make(self):
        return BufferSet(100, 72, 16, 32, 128)

    def test_five_buffers_as_in_fig4(self):
        names = [b.name for b in self.make().all()]
        assert names == [
            "dwc_ifmap", "dwc_weight", "offline", "intermediate", "pwc_weight"
        ]

    def test_access_summary(self):
        buffers = self.make()
        buffers.dwc_ifmap.fill(10)
        summary = buffers.access_summary()
        assert summary["dwc_ifmap"] == 10
        assert summary["pwc_weight"] == 0

    def test_reset(self):
        buffers = self.make()
        buffers.offline.fill(4)
        buffers.reset_counters()
        assert all(v == 0 for v in buffers.access_summary().values())


class TestExternalMemory:
    def test_store_load(self):
        mem = ExternalMemory()
        arr = np.arange(4)
        mem.store("t", arr)
        assert mem.load("t") is arr

    def test_missing_tensor_raises(self):
        with pytest.raises(SimulationError):
            ExternalMemory().load("nope")

    def test_counters(self):
        mem = ExternalMemory()
        mem.read_activations(10)
        mem.write_activations(5)
        mem.read_weights(7)
        mem.read_offline(2)
        assert mem.total_activation_accesses == 15
        assert mem.total_accesses == 24

    def test_negative_counts_rejected(self):
        mem = ExternalMemory()
        with pytest.raises(SimulationError):
            mem.read_activations(-1)

    def test_reset_counters(self):
        mem = ExternalMemory()
        mem.read_weights(3)
        mem.reset_counters()
        assert mem.total_accesses == 0
