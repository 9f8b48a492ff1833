"""The benchmark's three workloads on the CCSDS C2 code.

Each workload turns ``--seed`` into a plain spec dict (:func:`make_spec`); the
program only ever sees that spec.  A *round* is the workload's fixed amount
of work for its spec: every round of one spec replays the same inputs, so it
must produce the same counts, which the golden-count gate checks.

Why these three (see ``NOTES.md`` for the measured profile):

* ``c2-nms-serial`` — the ROADMAP headline, C2 frames/s per core:
  ``nms-batched`` with random data, so encode and decode each take about
  half the time.  A fixed frame budget with no early stop keeps the work per
  seed constant.
* ``c2-quantized-allzero`` — the paper's 6-bit decoder on the all-zero
  codeword: encode is bypassed (an encoder change must not move it) and batch
  256 runs the wide check-node kernels on ~67 MB message arrays.  It is run
  by hand and by the self-test, not listed in ``BENCHMARK.json``: its
  18-second rounds leave no room for steady runs of the other two in the
  benchmark's time budget.
* ``c2-fig4-campaign`` — the only workload through the campaign scheduler,
  the shared worker pool, speculative shards and the result store; batch 16
  keeps every check-node call on the narrow kernels.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Full-size workload parameters.  ``frames_per_point`` with no early stop
#: makes a serial round constant work; the campaign's low frame-error target
#: stops the 3.6 dB point early, as a Figure 4 run does.
WORKLOADS: dict[str, dict] = {
    "c2-nms-serial": {
        "runner": "serial",
        "decoder": "nms-batched",
        "all_zero": False,
        "batch": 64,
        "frames_per_point": 128,
        "ebn0": [3.7, 4.0],
    },
    "c2-quantized-allzero": {
        "runner": "serial",
        "decoder": "quantized",
        "all_zero": True,
        "batch": 256,
        "frames_per_point": 256,
        "ebn0": [3.8, 4.0],
    },
    "c2-fig4-campaign": {
        "runner": "campaign",
        "decoder": "nms-batched",
        "all_zero": False,
        "batch": 16,
        "frames_per_point": 192,
        "target_frame_errors": 8,
        "workers": 2,
        "ebn0": [3.6, 3.8, 4.0],
    },
}

#: Shared by every workload: the paper's decoder settings.
COMMON = {"circulant": 511, "alpha": 1.25, "iterations": 18}

#: Smoke mode: the scaled C2 twin and a few frames per point.
SMOKE = {"circulant": 63, "frames_per_point": 64, "batch_cap": 64}


def make_spec(name: str, seed: int, *, smoke: bool = False) -> dict:
    """The generated input of one run: workload parameters plus its RNG seed."""
    spec = dict(COMMON, **WORKLOADS[name])
    spec["name"] = name
    if smoke:
        spec["circulant"] = SMOKE["circulant"]
        spec["frames_per_point"] = SMOKE["frames_per_point"]
        spec["batch"] = min(spec["batch"], SMOKE["batch_cap"])
    # The program's seed is derived from the workload name too, so two
    # workloads never replay each other's noise for the same --seed.
    spec["rng_seed"] = zlib.crc32(f"{name}:{int(seed)}".encode())
    return spec


def shards_per_point(spec: dict, frames: int) -> int:
    """Shards folded into a point of ``frames`` counted frames."""
    return max(1, math.ceil(frames / int(spec["batch"])))


def build_code(spec: dict):
    """``build_ccsds_c2_code`` plus its parity-check matrix (the codes layer)."""
    from repro.codes.ccsds_c2 import build_ccsds_c2_code

    code = build_ccsds_c2_code(circulant_size=int(spec["circulant"]))
    code.parity_check_matrix()
    return code


def decoder_spec(spec: dict):
    from repro.sim.campaign.spec import DecoderSpec

    return DecoderSpec(spec["decoder"], int(spec["iterations"]), {"alpha": spec["alpha"]})


def point_counts(point) -> dict:
    """The counts the golden gate compares for one Eb/N0 point."""
    return {
        "ebn0_db": float(point.ebn0_db),
        "frames": int(point.frames),
        "frame_errors": int(point.frame_errors),
        "bit_errors": int(point.bit_errors),
        "info_bit_errors": int(point.info_bit_errors),
        # average_iterations is total / frames in float64; rounding restores
        # the integer total exactly at these magnitudes.
        "iterations": int(round(point.average_iterations * point.frames)),
    }


#: Rows of the warm-up batch at most: enough to take the padded check-node
#: kernel (32 rows and up), small enough to keep batch 256 out of set-up.
WARM_UP_ROWS = 64


def warm_up(simulator, spec: dict) -> None:
    """One untimed batch at the highest Eb/N0 point, on noise no round uses.

    The first batch of a process runs far slower than later ones (lazily
    built kernel layouts, first-touch allocations); this keeps it out of
    the timing.
    """
    import numpy as np

    seed = np.random.SeedSequence(spec["rng_seed"], spawn_key=(1 << 20,))
    simulator.run_batch(
        min(int(spec["batch"]), WARM_UP_ROWS),
        simulator.sigma_for(spec["ebn0"][-1]),
        rng=np.random.default_rng(seed),
    )


@dataclass
class RoundResult:
    """Counts of one round, plus the campaign's ``shard_completed`` events when traced."""

    points: list[dict]
    events: list[dict] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return sum(p["frames"] for p in self.points)


class SerialWorkload:
    """``MonteCarloSimulator.run_point`` in-process over the spec's Eb/N0 grid."""

    def __init__(self, spec: dict) -> None:
        from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig

        self.spec = spec
        code = build_code(spec)
        self.num_edges = int(code.num_edges)
        frames = int(spec["frames_per_point"])
        config = SimulationConfig(
            max_frames=frames,
            # Above the budget: the stopping rule never ends a point early.
            target_frame_errors=frames + 1,
            batch_frames=int(spec["batch"]),
            all_zero_codeword=bool(spec["all_zero"]),
        )
        self.simulator = MonteCarloSimulator(
            code, decoder_spec(spec).build(code), config=config, rng=spec["rng_seed"]
        )

    def warm_up(self) -> None:
        warm_up(self.simulator, self.spec)

    def run_round(self, *, traced: bool = False) -> RoundResult:
        import numpy as np

        points = []
        for index, ebn0 in enumerate(self.spec["ebn0"]):
            # A fresh child sequence per point and round: replaying a round
            # replays its noise exactly.
            seed = np.random.SeedSequence(self.spec["rng_seed"], spawn_key=(index,))
            points.append(point_counts(self.simulator.run_point(ebn0, rng=seed)))
        return RoundResult(points)


class CampaignWorkload:
    """``CampaignScheduler`` over a 2-worker ``SharedWorkerPool``, fresh store per round."""

    LABEL = "nms"

    def __init__(self, spec: dict, scratch: Path) -> None:
        from repro.sim.campaign.spec import CampaignSpec, CodeSpec, ExperimentSpec
        from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig

        self.spec = spec
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        config = SimulationConfig(
            max_frames=int(spec["frames_per_point"]),
            target_frame_errors=int(spec["target_frame_errors"]),
            batch_frames=int(spec["batch"]),
        )
        experiment = ExperimentSpec(
            label=self.LABEL,
            code=CodeSpec("ccsds-c2", circulant=int(spec["circulant"])),
            decoder=decoder_spec(spec),
            config=config,
        )
        self.campaign = CampaignSpec(
            name="perfbench-fig4",
            experiments=[experiment],
            ebn0=tuple(spec["ebn0"]),
            config=config,
            seed=int(spec["rng_seed"]),
        )
        # The same code, encoder and decoder every pool worker builds: set-up
        # covers them as on the serial workloads, and the warm-up shard runs
        # on this simulator.
        code = experiment.code.build()
        self.num_edges = int(code.num_edges)
        self.simulator = MonteCarloSimulator(
            code, experiment.decoder.build(code), config=config, rng=0
        )

    def warm_up(self) -> None:
        warm_up(self.simulator, self.spec)

    def run_round(self, *, traced: bool = False) -> RoundResult:
        """One campaign in a fresh store; ``traced`` switches telemetry on."""
        from repro.obs.events import events_of_type, read_events
        from repro.sim.campaign.scheduler import CampaignScheduler
        from repro.sim.campaign.store import ResultStore

        directory = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        try:
            store = ResultStore.create(directory, self.campaign)
            scheduler = CampaignScheduler(
                self.campaign, store, workers=int(self.spec["workers"]), telemetry=traced
            )
            curves = scheduler.run()
            points = [point_counts(p) for p in curves[self.LABEL].points]
            events = []
            if traced:
                log = read_events(directory / "telemetry" / "events.jsonl")
                events = [dict(e) for e in events_of_type(log, "shard_completed")]
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return RoundResult(points, events=events)


def setup(spec: dict, scratch: Path):
    """Build the workload's in-process state (everything before the first frame)."""
    if spec["runner"] == "campaign":
        return CampaignWorkload(spec, scratch)
    return SerialWorkload(spec)
