"""Shared fixtures for the test suite.

Fixtures build the *scaled twin* of the CCSDS code (identical 2 x 16
weight-2 block structure, smaller circulants) so that the whole suite runs in
seconds; the handful of tests that exercise the full 8176-bit code are marked
``slow`` and enabled with ``-m slow`` or the ``REPRO_FULL_SCALE`` environment
variable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import build_scaled_ccsds_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.encode import SystematicEncoder


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: tests that exercise the full-size CCSDS code")


@pytest.fixture(scope="session", autouse=True)
def isolated_encoder_cache(tmp_path_factory):
    """Point the encoder's row-reduction cache at a per-session directory.

    Hypothesis draws fresh random matrices on every run, so the default
    ``~/.cache/repro/encoders`` would gain dozens of files per run.  Tests
    that exercise the variable itself override it with ``monkeypatch``;
    subprocesses and pool workers inherit it from the environment.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ENCODER_CACHE", str(tmp_path_factory.mktemp("encoders")))
        yield


@pytest.fixture(scope="session")
def scaled_code():
    """Scaled CCSDS-like QC code (2 x 16 array of 31 x 31 weight-2 circulants)."""
    return build_scaled_ccsds_code(31)


@pytest.fixture(scope="session")
def scaled_code_63():
    """Larger scaled code (63-circulants) for tests that need a cleaner graph."""
    return build_scaled_ccsds_code(63)


@pytest.fixture(scope="session")
def scaled_encoder(scaled_code):
    """Systematic encoder of the scaled code (expensive to build, so shared)."""
    return SystematicEncoder(scaled_code)


@pytest.fixture(scope="session")
def hamming_pcm():
    """The (7, 4) Hamming code parity-check matrix — small, exactly analyzable."""
    h = np.array(
        [
            [1, 1, 0, 1, 1, 0, 0],
            [1, 0, 1, 1, 0, 1, 0],
            [0, 1, 1, 1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    return ParityCheckMatrix(h)


@pytest.fixture
def rng():
    """Deterministic random generator for individual tests."""
    return np.random.default_rng(1234)
