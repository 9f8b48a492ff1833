"""Monte-Carlo simulation of the coded link.

One simulator instance owns a code, an encoder, a decoder and a *channel
pipeline* (modulator + channel model, BPSK over soft AWGN by default —
see :mod:`repro.channel.pipeline`); ``run_point`` simulates frames in
*shards* (independent batches, each with its own child RNG stream spawned
from the simulator's seed sequence) at one Eb/N0 value until either a
target number of frame errors has been observed (good statistical
practice: the relative accuracy is set by the error count, not the frame
count) or a frame budget is exhausted.

The shard decomposition is deterministic given the configuration (see
:mod:`repro.sim.sharding`), which is what lets the shard driver in
:mod:`repro.sim.parallel` distribute the same shards over any executor and
reproduce this reference loop's counts exactly.

The simulator understands both plain codes (``QCLDPCCode`` /
``ParityCheckMatrix``) and :class:`~repro.codes.shortening.ShortenedCode`
wrappers; for the latter it transmits only the non-shortened bits and feeds
the decoder saturated LLRs for the virtual fill, exactly like the hardware
front-end does.  Error statistics count *transmitted* code bits only — the
virtual-fill bits are known to the receiver and must not inflate the BER
denominator — and an information-bit BER is tracked alongside whenever the
full encode path runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import ebn0_to_sigma
from repro.channel.pipeline import ChannelPipeline, default_pipeline
from repro.codes.shortening import ShortenedCode
from repro.decode.base import decode_frames
from repro.encode.systematic import SystematicEncoder
from repro.obs import clock
from repro.obs.probe import Probe
from repro.sim.results import SimulationPoint
from repro.sim.sharding import consume_shard, iter_shard_sizes
from repro.sim.statistics import ErrorCounter
from repro.utils.rng import as_seed_sequence, ensure_rng

__all__ = ["SimulationConfig", "BatchResult", "MonteCarloSimulator"]


@dataclass(frozen=True)
class SimulationConfig:
    """Stopping rules and batching of a Monte-Carlo run.

    Attributes
    ----------
    max_frames:
        Hard budget of simulated frames per Eb/N0 point.
    target_frame_errors:
        Stop a point early once this many frame errors have been counted.
    batch_frames:
        Frames simulated per decoder call (vectorized batch); with
        ``adaptive_batch`` this is the *initial* batch size.
    all_zero_codeword:
        When ``True`` the all-zero codeword is transmitted instead of random
        information bits.  For a linear code over a symmetric channel the
        error statistics are identical, and encoding time is saved; the
        default is ``False`` to exercise the full encode path.
    adaptive_batch:
        Grow the batch size geometrically from ``batch_frames`` up to
        ``max_batch_frames`` while the stopping rule has not triggered.  At
        high SNR, where frame errors are rare and a point typically burns its
        whole frame budget, this amortizes the per-batch overhead over much
        larger vectorized batches.
    batch_growth:
        Geometric growth factor of the adaptive batch size (> 1).
    max_batch_frames:
        Cap of the adaptive batch size; ``None`` defaults to 64x
        ``batch_frames``.
    """

    max_frames: int = 1000
    target_frame_errors: int = 50
    batch_frames: int = 32
    all_zero_codeword: bool = False
    adaptive_batch: bool = False
    batch_growth: float = 2.0
    max_batch_frames: int | None = None

    def __post_init__(self):
        if self.max_frames < 1 or self.batch_frames < 1:
            raise ValueError("max_frames and batch_frames must be positive")
        if self.target_frame_errors < 1:
            raise ValueError("target_frame_errors must be positive")
        if self.batch_growth <= 1.0:
            raise ValueError("batch_growth must be > 1")
        if self.max_batch_frames is not None and self.max_batch_frames < self.batch_frames:
            raise ValueError("max_batch_frames must be >= batch_frames")

    def effective_max_batch_frames(self) -> int:
        """Adaptive batch-size cap (``batch_frames`` when not adaptive)."""
        if not self.adaptive_batch:
            return self.batch_frames
        if self.max_batch_frames is not None:
            return self.max_batch_frames
        return self.batch_frames * 64


@dataclass(frozen=True)
class BatchResult:
    """Error counts of one simulated shard (picklable, for the worker pool)."""

    frames: int
    bits: int
    bit_errors: int
    frame_errors: int
    undetected_frame_errors: int
    iterations: int
    info_bits: int
    info_bit_errors: int


class MonteCarloSimulator:
    """End-to-end BER/PER simulator for one code + decoder pair.

    Parameters
    ----------
    code:
        ``QCLDPCCode``, ``ParityCheckMatrix`` or ``ShortenedCode``.
    decoder:
        Any object with a ``decode(llrs) -> DecodeResult`` method operating
        on base-codeword LLRs.  Decoders additionally exposing a
        ``decode_batch`` method (every built-in decoder) receive each shard
        as one ``(batch, n)`` call through
        :func:`~repro.decode.base.decode_frames`; others fall back to a
        per-frame loop with identical counts for frame-independent
        decoders.
    config:
        Batching and stopping rules.
    rng:
        Seed or generator for information bits and noise.  Each shard of a
        ``run_point`` call draws from its own child stream spawned from this
        seed's :class:`numpy.random.SeedSequence`.
    pipeline:
        The modulator + channel model pair
        (:class:`~repro.channel.pipeline.ChannelPipeline`) between the
        encoder and the decoder.  ``None`` uses the historical default —
        unit-amplitude BPSK over soft-output AWGN — which reproduces
        pre-pipeline seeds byte for byte.
    probe:
        Optional :class:`~repro.obs.probe.Probe` receiving per-batch stage
        timings (encode / channel / decode / count).  ``None`` — the
        default — keeps the hot path untimed; the only residual cost is
        one attribute check per batch.  The probe observes timings only;
        counts are bit-identical with or without it.
    """

    def __init__(
        self,
        code,
        decoder,
        *,
        config: SimulationConfig | None = None,
        rng=None,
        pipeline: ChannelPipeline | None = None,
        probe: Probe | None = None,
    ):
        self._shortened = code if isinstance(code, ShortenedCode) else None
        self._base_code = code.base_code if self._shortened is not None else code
        self._decoder = decoder
        self.config = config or SimulationConfig()
        self._rng = ensure_rng(rng)
        self.pipeline = pipeline if pipeline is not None else default_pipeline()
        self.probe = probe
        self._encoder: SystematicEncoder | None = None
        self._forced_zero_info: np.ndarray | None = None
        if not self.config.all_zero_codeword:
            self._encoder = SystematicEncoder(self._base_code)
            if self._shortened is not None:
                # The virtual-fill positions must be information positions so
                # that they can be forced to zero before encoding.
                info_positions = self._encoder.information_positions
                shortened = self._shortened.shortened_positions()
                is_info = np.isin(shortened, info_positions)
                if not bool(np.all(is_info)):
                    raise ValueError(
                        "the shortened positions of this ShortenedCode are not "
                        "information positions of the systematic encoder; build "
                        "the shortened code with ShortenedCode.from_encoder(...) "
                        "or simulate with all_zero_codeword=True"
                    )
                self._forced_zero_info = np.nonzero(np.isin(info_positions, shortened))[0]
        # Base-codeword positions whose errors are counted: every position of
        # a plain code, the transmitted positions of a shortened one (the
        # virtual fill is known to the receiver, so it is excluded from both
        # the BER numerator and denominator).
        if self._shortened is not None:
            self._counted_positions: np.ndarray | None = (
                self._shortened.transmitted_positions()
            )
            self._bits_per_frame = int(self._shortened.transmitted_code_bits)
        else:
            self._counted_positions = None
            self._bits_per_frame = int(self._base_code.block_length)
        # Information positions for the info-bit BER (only known when the
        # systematic encoder was built).
        self._info_positions: np.ndarray | None = None
        if self._encoder is not None:
            info_positions = np.asarray(self._encoder.information_positions, dtype=np.int64)
            if self._shortened is not None:
                transmitted = self._shortened.transmitted_positions()
                info_positions = info_positions[np.isin(info_positions, transmitted)]
            self._info_positions = info_positions

    # ------------------------------------------------------------------ #
    @property
    def code_rate(self) -> float:
        """Rate used for the Eb/N0 to noise conversion.

        For a shortened code the *transmitted* rate (info bits per frame bit)
        is the physically meaningful one.
        """
        if self._shortened is not None:
            return self._shortened.rate
        return self._base_code.dimension / self._base_code.block_length

    @property
    def block_length(self) -> int:
        """Base codeword length handled by the decoder."""
        return self._base_code.block_length

    @property
    def counted_bits_per_frame(self) -> int:
        """Transmitted code bits per frame — the per-frame BER denominator."""
        return self._bits_per_frame

    def sigma_for(self, ebn0_db: float) -> float:
        """Noise standard deviation at this Eb/N0 for this simulator's link.

        Accounts for the pipeline's symbol amplitude (``Es = A^2`` per BPSK
        symbol): a non-unit amplitude raises the symbol energy, so the same
        Eb/N0 needs proportionally stronger noise — otherwise an amplitude
        sweep would mislabel the Eb/N0 axis and show free coding gain.
        """
        return ebn0_to_sigma(
            ebn0_db, self.code_rate, symbol_energy=self.pipeline.amplitude**2
        )

    # ------------------------------------------------------------------ #
    def _generate_codewords(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Sample transmitted base codewords for one batch."""
        if self.config.all_zero_codeword or self._encoder is None:
            return np.zeros((batch, self.block_length), dtype=np.uint8)
        info = rng.integers(0, 2, size=(batch, self._encoder.dimension), dtype=np.uint8)
        if self._forced_zero_info is not None:
            info[:, self._forced_zero_info] = 0
        return self._encoder.encode(info)

    def _transmit(
        self, codewords: np.ndarray, sigma: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Run one batch through the channel pipeline; base-codeword LLRs out."""
        if self._shortened is None:
            return self.pipeline.llrs(codewords, sigma, rng)
        transmitted = self._shortened.extract_transmitted(codewords)
        frame = self._shortened.build_frame(transmitted)
        frame_llrs = self.pipeline.llrs(frame, sigma, rng)
        return self._shortened.base_llrs_from_frame_llrs(frame_llrs)

    # ------------------------------------------------------------------ #
    def run_batch(
        self, batch: int, sigma: float, rng: np.random.Generator | None = None
    ) -> BatchResult:
        """Simulate one shard of ``batch`` frames and return its counts.

        This is the unit of work every shard executor runs: it is stateless
        apart from the decoder object, so the same ``(batch, sigma, rng)``
        triple produces the same counts in any process.
        """
        if batch < 1:
            raise ValueError("batch must be positive")
        rng = self._rng if rng is None else rng
        if self.probe is not None:
            return self._run_batch_probed(batch, sigma, rng)
        codewords = self._generate_codewords(batch, rng)
        llrs = self._transmit(codewords, sigma, rng)
        result = decode_frames(self._decoder, llrs)
        return self._count_batch(batch, codewords, result)

    def _run_batch_probed(
        self, batch: int, sigma: float, rng: np.random.Generator
    ) -> BatchResult:
        """``run_batch`` with per-stage timing reported to ``self.probe``.

        Identical computation to the unprobed path — the clock reads sit
        *between* the stages and never influence them, so counts stay
        bit-identical with profiling on or off.
        """
        t0 = clock.monotonic()
        codewords = self._generate_codewords(batch, rng)
        t1 = clock.monotonic()
        llrs = self._transmit(codewords, sigma, rng)
        t2 = clock.monotonic()
        result = decode_frames(self._decoder, llrs)
        t3 = clock.monotonic()
        counts = self._count_batch(batch, codewords, result)
        t4 = clock.monotonic()
        self.probe.record_batch(
            batch,
            {
                "encode": t1 - t0,
                "channel": t2 - t1,
                "decode": t3 - t2,
                "count": t4 - t3,
            },
        )
        return counts

    def _count_batch(self, batch: int, codewords, result) -> BatchResult:
        """Count errors of one decoded batch into a :class:`BatchResult`.

        The reduction runs through
        :meth:`~repro.sim.statistics.ErrorCounter.update_batch`, the single
        vectorized accumulation point, so the hot path and any direct
        counter consumer use exactly the same integer arithmetic.
        """
        decoded = np.atleast_2d(result.bits)
        errors = decoded != codewords
        if self._counted_positions is not None:
            counted = errors[:, self._counted_positions]
        else:
            counted = errors
        if self._info_positions is not None:
            info_bit_errors = int(errors[:, self._info_positions].sum())
            info_bits = batch * int(self._info_positions.size)
        else:
            info_bit_errors = 0
            info_bits = 0
        counter = ErrorCounter()
        counter.update_batch(
            counted.sum(axis=1),
            np.atleast_1d(result.converged),
            np.atleast_1d(result.iterations),
            bits_per_frame=self._bits_per_frame,
            info_bit_errors=info_bit_errors,
            info_bits=info_bits,
        )
        return BatchResult(
            frames=counter.frames,
            bits=counter.bits,
            bit_errors=counter.bit_errors,
            frame_errors=counter.frame_errors,
            undetected_frame_errors=counter.undetected_frame_errors,
            iterations=counter.total_iterations,
            info_bits=counter.info_bits,
            info_bit_errors=counter.info_bit_errors,
        )

    def run_point(self, ebn0_db: float, *, rng=None) -> SimulationPoint:
        """Simulate one Eb/N0 point until the stopping rule triggers.

        Shards are executed in order, each with a child stream spawned from
        the simulator's seed sequence; repeated calls continue spawning fresh
        children, so each point of a sweep gets independent noise.

        ``rng`` overrides the simulator's seed for this point only, so one
        simulator instance can serve many independently seeded points.

        This is the reference loop: the shard driver of
        :mod:`repro.sim.parallel` never calls it, and the executor
        conformance test pins every executor to its counts.
        """
        sigma = self.sigma_for(ebn0_db)
        counter = ErrorCounter()
        seed_seq = as_seed_sequence(self._rng if rng is None else rng)
        for size in iter_shard_sizes(self.config):
            (child,) = seed_seq.spawn(1)
            shard = self.run_batch(size, sigma, rng=np.random.default_rng(child))
            if not consume_shard(counter, shard, self.config):
                break
        return point_from_counter(ebn0_db, counter)


def point_from_counter(ebn0_db: float, counter: ErrorCounter) -> SimulationPoint:
    """Package an :class:`ErrorCounter` as a :class:`SimulationPoint`."""
    return SimulationPoint(
        ebn0_db=float(ebn0_db),
        ber=counter.ber,
        fer=counter.fer,
        bit_errors=counter.bit_errors,
        frame_errors=counter.frame_errors,
        bits=counter.bits,
        frames=counter.frames,
        average_iterations=counter.average_iterations,
        info_ber=counter.info_ber,
        info_bit_errors=counter.info_bit_errors,
        info_bits=counter.info_bits,
    )
