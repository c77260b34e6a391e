"""Cost model: operator profiles and the latency function."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch import ComputingMode, isaac_baseline, jia2021
from repro.errors import ScheduleError
from repro.graph import GraphBuilder
from repro.models import conv_relu_example, resnet18, vit_tiny
from repro.sched import CostModel, chip_fits, reconfiguration_cycles


@pytest.fixture(scope="module")
def baseline_profiles():
    arch = isaac_baseline()
    graph = resnet18()
    return CostModel(arch).profiles(graph), graph


class TestProfileQuantities:
    def test_conv1_mvm_decomposition(self, baseline_profiles):
        profiles, _ = baseline_profiles
        p = profiles["conv1"]
        assert p.is_cim
        assert p.num_mvms == 112 * 112          # output positions
        # 8-bit activations through a 1-bit DAC: 8 passes.
        assert p.input_passes == 8
        # conv1 weight rows = 3*7*7 = 147 -> 2 vertical tiles, full tile
        # of 128 rows at 8 parallel rows -> 16 waves.
        assert p.row_waves == 16
        assert p.mvm_cycles_base == 128

    def test_digital_op_profile(self, baseline_profiles):
        profiles, _ = baseline_profiles
        p = profiles["relu1"]
        assert not p.is_cim
        assert p.cores_per_replica == 0
        # Per-core ALUs (1024 ops/cycle each) work data-parallel in WLM.
        assert p.alu_cycles == 64 * 112 * 112 / (1024 * 768)

    def test_elementwise_has_no_movement(self, baseline_profiles):
        profiles, _ = baseline_profiles
        assert profiles["relu1"].mov_cycles == 0.0
        assert profiles["bn1"].mov_cycles == 0.0
        assert profiles["conv1"].mov_cycles > 0.0

    def test_weight_bits(self, baseline_profiles):
        profiles, _ = baseline_profiles
        assert profiles["conv1"].weight_bits == 147 * 64 * 8

    def test_latency_validation(self, baseline_profiles):
        profiles, _ = baseline_profiles
        with pytest.raises(ScheduleError):
            profiles["conv1"].latency(dup=0)
        with pytest.raises(ScheduleError):
            profiles["conv1"].latency(wave_reduction=0)


class TestLatencyFunction:
    @given(dup=st.integers(1, 64), wave=st.integers(1, 16))
    def test_latency_positive(self, dup, wave):
        profiles = CostModel(isaac_baseline()).profiles(conv_relu_example())
        p = profiles["conv"]
        assert p.latency(dup, wave) > 0

    def test_latency_monotone_in_duplication(self):
        p = CostModel(isaac_baseline()).profiles(
            conv_relu_example())["conv"]
        lats = [p.latency(d) for d in range(1, 40)]
        assert all(a >= b for a, b in zip(lats, lats[1:]))

    def test_latency_monotone_in_wave_reduction(self):
        p = CostModel(isaac_baseline()).profiles(
            conv_relu_example())["conv"]
        lats = [p.latency(1, w) for w in range(1, 17)]
        assert all(a >= b for a, b in zip(lats, lats[1:]))

    def test_duplication_saturates_at_windows(self):
        p = CostModel(isaac_baseline()).profiles(
            conv_relu_example())["conv"]
        assert p.latency(p.num_mvms) == p.latency(p.num_mvms * 10)

    def test_movement_floor(self):
        """At extreme duplication, movement bounds the operator."""
        p = CostModel(isaac_baseline()).profiles(resnet18())["conv1"]
        assert p.latency(p.max_useful_dup) >= p.mov_cycles


class TestSeqPasses:
    def test_oversized_op_time_multiplexes(self):
        # A VGG16 conv on Jia's 16-core chip cannot be resident at once.
        from repro.models import vgg16

        profiles = CostModel(jia2021()).profiles(vgg16())
        big = profiles["conv8"]
        assert big.seq_passes > 1
        assert big.cores_per_replica == 16
        assert big.max_useful_dup == 1
        assert big.reload_cycles > 0
        # Resident crossbars never exceed the chip.
        assert big.n_xb <= 16 * 1

    def test_small_op_single_pass(self, baseline_profiles):
        profiles, _ = baseline_profiles
        assert profiles["conv1"].seq_passes == 1
        assert profiles["conv1"].reload_cycles == 0.0


class TestHelpers:
    def test_chip_fits(self, baseline_profiles):
        profiles, _ = baseline_profiles
        assert chip_fits(profiles, isaac_baseline())
        assert not chip_fits(profiles, isaac_baseline().with_cores(4))

    def test_reconfiguration_scales_with_write_ratio(self):
        arch_reram = isaac_baseline()
        profiles = CostModel(arch_reram).profiles(conv_relu_example())
        reram = reconfiguration_cycles(profiles, arch_reram)
        assert reram > 0
        # SRAM rewrites 20x cheaper than ReRAM in the model.
        from dataclasses import replace

        from repro.arch import CellType

        arch_sram = replace(arch_reram,
                            xb=replace(arch_reram.xb,
                                       cell_type=CellType.SRAM))
        sram = reconfiguration_cycles(
            CostModel(arch_sram).profiles(conv_relu_example()), arch_sram)
        assert reram == pytest.approx(20 * sram)

    def test_vit_matmuls_cost_alu(self):
        profiles = CostModel(isaac_baseline()).profiles(vit_tiny())
        scores = profiles["block0_attn_scores"]
        assert not scores.is_cim
        assert scores.alu_cycles > 0


class TestFillFraction:
    """Only a missing output shape falls back to a full-latency fill;
    every other error surfaces."""

    def test_missing_output_shape_waits_for_everything(self):
        graph = conv_relu_example()
        node = graph.nodes[0]
        del graph.tensors[node.outputs[0]]
        assert CostModel(isaac_baseline())._fill_fraction(graph, node) \
            == 1.0

    def test_non_shape_error_propagates(self, monkeypatch):
        graph = conv_relu_example()
        node = graph.nodes[0]

        def broken(node, index=0):
            raise RuntimeError("corrupt tensor table")

        monkeypatch.setattr(graph, "output_spec", broken)
        with pytest.raises(RuntimeError, match="corrupt tensor table"):
            CostModel(isaac_baseline())._fill_fraction(graph, node)
