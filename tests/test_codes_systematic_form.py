"""One row reduction of H per process: rank, dimension and the encoder share it.

:meth:`ParityCheckMatrix.systematic_form` is the only caller of the row
reduction.  With a warm on-disk cache no process reduces H, serial or
pooled; with a cold one a process reduces each H once.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro.codes.systematic_form as systematic_form
import repro.gf2.dense as dense
from repro.codes import build_scaled_ccsds_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.encode.systematic import SystematicEncoder
from repro.gf2.dense import gf2_rank
from repro.sim.campaign.scheduler import CampaignScheduler
from repro.sim.campaign.spec import CampaignSpec, CodeSpec, DecoderSpec, ExperimentSpec
from repro.sim.campaign.store import ResultStore
from repro.sim.montecarlo import SimulationConfig


@pytest.fixture
def warm_cache(monkeypatch, forbid_row_reduction):
    """The session's encoder cache holds the scaled code; reduction raises."""
    build_scaled_ccsds_code(31).dimension
    forbid_row_reduction(monkeypatch)


def mixed_spec() -> CampaignSpec:
    """A random-data and an all-zero experiment on the scaled code."""
    code = CodeSpec(family="scaled", circulant=31)
    config = SimulationConfig(max_frames=30, target_frame_errors=5, batch_frames=10)
    return CampaignSpec(
        name="single-reduction",
        seed=11,
        ebn0=(2.0, 4.0),
        config=config,
        experiments=[
            ExperimentSpec(label="random", code=code, decoder=DecoderSpec("nms", 8)),
            ExperimentSpec(
                label="all-zero",
                code=code,
                decoder=DecoderSpec("nms", 8),
                config=SimulationConfig(
                    max_frames=30, target_frame_errors=5, batch_frames=10,
                    all_zero_codeword=True,
                ),
            ),
        ],
    )


class TestWarmCacheNeverReduces:
    def test_fresh_code_dimension(self, warm_cache, scaled_code):
        assert build_scaled_ccsds_code(31).dimension == scaled_code.dimension

    def test_encoder(self, warm_cache, scaled_encoder):
        encoder = SystematicEncoder(build_scaled_ccsds_code(31))
        assert np.array_equal(
            encoder.information_positions, scaled_encoder.information_positions
        )

    def test_pooled_campaign_matches_serial(self, warm_cache, tmp_path):
        spec = mixed_spec()
        curves = {
            workers: CampaignScheduler(
                spec, ResultStore.create(tmp_path / str(workers), spec), workers=workers
            ).run()
            for workers in (None, 2)
        }
        assert set(curves[2]) == {"random", "all-zero"}
        for label, curve in curves[None].items():
            assert curves[2][label].points == curve.points


class TestColdCacheReducesOnce:
    def test_encoder_and_dimension_share_one_reduction(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        calls = []
        reduce = dense.gf2_row_reduce

        def counting(matrix, **kwargs):
            calls.append(matrix.shape)
            return reduce(matrix, **kwargs)

        for module in (dense, systematic_form):
            monkeypatch.setattr(module, "gf2_row_reduce", counting)
        code = build_scaled_ccsds_code(31)
        encoder = SystematicEncoder(code)
        assert code.dimension == encoder.dimension
        assert code.parity_check_matrix().rank == code.block_length - encoder.dimension
        assert calls == [(code.num_checks, code.block_length)]


class TestRankFromTheForm:
    @seed(20261019)
    @settings(max_examples=40, deadline=5000)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 24),
        data=st.data(),
    )
    def test_rank_equals_gf2_rank_cold_and_warm(self, rows, cols, data, forbid_row_reduction):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        matrix = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        expected = gf2_rank(matrix)
        with tempfile.TemporaryDirectory() as cache, pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_ENCODER_CACHE", cache)
            cold = ParityCheckMatrix(matrix)
            assert cold.rank == expected
            assert cold.dimension == cols - expected
            forbid_row_reduction(patch)
            assert ParityCheckMatrix(matrix).rank == expected
