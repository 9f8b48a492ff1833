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


def _forbid_row_reduction(patch):
    """Make every GF(2) row reduction raise, through ``patch`` (a MonkeyPatch).

    Patches the reduction where the systematic form calls it and where
    ``gf2_rank`` and the other dense routines do; forked pool workers
    inherit the patch.
    """
    import repro.codes.systematic_form as systematic_form
    import repro.gf2.dense as dense

    def boom(*args, **kwargs):
        raise AssertionError("a parity-check matrix was row-reduced")

    for module in (dense, systematic_form):
        patch.setattr(module, "gf2_row_reduce", boom)


@pytest.fixture(scope="session")
def forbid_row_reduction():
    """The function that makes every row reduction raise (see above)."""
    return _forbid_row_reduction


@pytest.fixture(scope="session")
def native_backend():
    """The native min-sum kernels; skips the test where they cannot be built."""
    from repro.decode import native

    kernels = native.kernels()
    if kernels is None:
        pytest.skip("the native min-sum kernels are not available here")
    return kernels


@pytest.fixture(scope="class")
def numpy_backend():
    """Put the process on the decoding loop alone, no native decode, for one test class."""
    from repro.decode import native

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
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
