"""Unit tests for repro.core.parameters and repro.core.configs."""

import pytest

from repro.core import ThroughputModel, estimate_resources
from repro.core.configs import (
    high_speed_architecture,
    low_cost_architecture,
    scaled_architecture,
)
from repro.core.memory import MessageStorage
from repro.core.parameters import ArchitectureParameters


def block_array_architecture(row_blocks, col_blocks, circulant_size=64, processing_blocks=1):
    """The generic architecture for another array of weight-1 circulants.

    As for C2: one bit-node unit per block column, one check-node unit per
    block row and one processing block per frame decoded at once.
    """
    return ArchitectureParameters(
        name=f"{row_blocks}x{col_blocks}",
        circulant_size=circulant_size,
        row_blocks=row_blocks,
        col_blocks=col_blocks,
        block_weight=1,
        info_bits_per_frame=(col_blocks - row_blocks) * circulant_size,
        bn_units_per_block=col_blocks,
        cn_units_per_block=row_blocks,
        processing_blocks=processing_blocks,
        message_storage=MessageStorage.COMPRESSED_CHECK,
        separate_input_staging=processing_blocks == 1,
    )


class TestArchitectureParameters:
    def test_ccsds_defaults(self):
        params = ArchitectureParameters()
        assert params.block_length == 8176
        assert params.num_checks == 1022
        assert params.num_edges == 32704
        assert params.check_degree == 32
        assert params.bit_degree == 4
        assert params.info_bits_per_frame == 7136

    def test_totals_scale_with_blocks(self):
        params = ArchitectureParameters(processing_blocks=8)
        assert params.total_bn_units == 16 * 8
        assert params.total_cn_units == 2 * 8
        assert params.concurrent_frames == 8

    def test_with_updates_returns_new_object(self):
        params = ArchitectureParameters()
        updated = params.with_updates(processing_blocks=4)
        assert updated.processing_blocks == 4
        assert params.processing_blocks == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("circulant_size", 0),
            ("processing_blocks", 0),
            ("message_bits", 0),
            ("clock_frequency_hz", 0),
            ("alpha", 0.5),
            ("pipeline_overhead_cycles", -1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ArchitectureParameters(**{field: value})

    def test_too_many_units_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureParameters(circulant_size=3, bn_units_per_block=100)


class TestConfigs:
    def test_low_cost_matches_paper_section_3(self):
        params = low_cost_architecture()
        assert params.bn_units_per_block == 16
        assert params.cn_units_per_block == 2
        assert params.processing_blocks == 1
        assert params.message_storage is MessageStorage.FULL_EDGE
        assert params.clock_frequency_hz == pytest.approx(200e6)

    def test_high_speed_is_eight_blocks(self):
        params = high_speed_architecture()
        assert params.processing_blocks == 8
        assert params.message_storage is MessageStorage.COMPRESSED_CHECK
        assert not params.separate_input_staging

    def test_overrides(self):
        params = low_cost_architecture(message_bits=5, clock_frequency_hz=100e6)
        assert params.message_bits == 5
        assert params.clock_frequency_hz == pytest.approx(100e6)

    def test_scaled_architecture(self):
        params = scaled_architecture(31)
        assert params.circulant_size == 31
        assert params.block_length == 31 * 16
        # Info bits scale with the circulant size.
        assert params.info_bits_per_frame == round(7136 * 31 / 511)

    def test_scaled_architecture_from_high_speed_base(self):
        params = scaled_architecture(63, base=high_speed_architecture())
        assert params.processing_blocks == 8
        assert params.circulant_size == 63


class TestOtherBlockArrays:
    """The architecture is generic in its block array, not tied to C2's 2 x 16."""

    def test_parameters_follow_the_block_array(self):
        params = block_array_architecture(3, 5)
        assert params.block_length == 5 * 64
        assert params.num_checks == 3 * 64
        assert (params.check_degree, params.bit_degree) == (5, 3)
        assert params.num_edges == 15 * 64
        assert params.info_bits_per_frame == 2 * 64

    def test_throughput_and_resources_grow_with_the_rate(self):
        low_rate = block_array_architecture(3, 5)
        high_rate = block_array_architecture(3, 11)
        # A higher-rate array carries more information bits per frame time.
        assert (
            ThroughputModel(high_rate).point(18).throughput_bps
            > ThroughputModel(low_rate).point(18).throughput_bps
        )
        assert estimate_resources(high_rate).aluts > estimate_resources(low_rate).aluts

    def test_throughput_is_linear_in_processing_blocks(self):
        single = block_array_architecture(3, 7, processing_blocks=1)
        multi = block_array_architecture(3, 7, processing_blocks=4)
        ratio = (
            ThroughputModel(multi).point(18).throughput_bps
            / ThroughputModel(single).point(18).throughput_bps
        )
        assert ratio == pytest.approx(4.0)
