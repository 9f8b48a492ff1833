"""Persistent, incrementally updated campaign result store.

A campaign directory holds one manifest (``campaign.json``: the full
:class:`~repro.sim.campaign.spec.CampaignSpec`) plus one
``<label>.curve.json`` per experiment — a plain
:class:`~repro.sim.results.SimulationCurve` file, loadable with the ordinary
curve tooling.  Every completed :class:`~repro.sim.results.SimulationPoint`
is written back *immediately* (atomic write-then-rename), so a killed
campaign loses at most the points still in flight; resuming loads the store
and skips everything already measured.

Each curve's metadata carries the addressing keys that tie it back to its
experiment: campaign name, experiment label and index, master seed, and the
full code/decoder/channel/config description — enough to re-associate a
curve file with its spec entry even outside the campaign directory.  That metadata is
what lets the analysis layer (:mod:`repro.analysis.campaign`) rebuild the
paper's groupings — all curves of one Figure 4 plot share a code, one
quantization-ablation column shares a ``message_format`` — straight from
the directory, and what lets :meth:`ResultStore.status` name a corrupt or
foreign curve file instead of silently adopting its points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.sim.campaign.spec import (
    DEFAULT_CHANNEL_DICT,
    CampaignSpec,
    ExperimentSpec,
    config_to_dict,
    slugify,
)
from repro.sim.results import SimulationCurve, SimulationPoint
from repro.utils.files import atomic_write_text

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

__all__ = ["ResultStore", "StoreMismatchError"]

_MANIFEST_NAME = "campaign.json"
_MANIFEST_FORMAT = "repro-campaign-v1"


class StoreMismatchError(RuntimeError):
    """The directory's manifest disagrees with the spec being run."""


class ResultStore:
    """Directory-backed store of one campaign's results.

    Use :meth:`create` to start (or re-open) a store for a spec and
    :meth:`open` to load an existing one (e.g. for ``campaign status`` /
    ``resume``, which recover the spec from the manifest).
    """

    def __init__(self, directory: str | Path, spec: CampaignSpec) -> None:
        self.directory = Path(directory)
        self.spec = spec
        self._curves: dict[str, SimulationCurve] = {}
        # Optional repro.obs.Telemetry the scheduler attaches for the run;
        # record_point reports through it.  Strictly write-only: nothing it
        # does can alter what gets persisted.
        self.telemetry: Telemetry | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, directory: str | Path, spec: CampaignSpec, *, fresh: bool = False
    ) -> "ResultStore":
        """Create (or re-open) the store for ``spec`` at ``directory``.

        An existing manifest must describe the *same* campaign (equal spec
        dicts) unless ``fresh`` is set, in which case the manifest and every
        curve file are discarded first — resuming with a silently different
        grid or seed would corrupt the determinism guarantee.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest = root / _MANIFEST_NAME
        if fresh:
            # Discard *all* prior results, manifest or not: stray curve files
            # in a manifest-less directory would otherwise be adopted as
            # completed points of the new campaign.
            for stale in root.glob("*.curve.json"):
                stale.unlink()
            manifest.unlink(missing_ok=True)
            # Telemetry of the discarded campaign describes runs whose
            # results no longer exist; a fresh store starts a fresh log.
            # metrics.json is the run snapshot that older versions wrote
            # beside the log.
            for stale in (root / "telemetry" / "events.jsonl", root / "telemetry" / "metrics.json"):
                stale.unlink(missing_ok=True)
        elif manifest.exists():
            existing = cls._read_manifest(root)
            if existing.as_dict() != spec.as_dict():
                raise StoreMismatchError(
                    f"{root} already holds campaign "
                    f"{existing.name!r} with a different spec; rerun with "
                    "fresh=True (CLI: --fresh) to discard it"
                )
        store = cls(root, spec)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "ResultStore":
        """Open an existing store, recovering the spec from its manifest."""
        return cls(Path(directory), cls._read_manifest(Path(directory)))

    @staticmethod
    def _read_manifest(directory: Path) -> CampaignSpec:
        manifest = directory / _MANIFEST_NAME
        if not manifest.exists():
            raise FileNotFoundError(f"{directory} has no campaign manifest")
        data = json.loads(manifest.read_text())
        if data.get("format") != _MANIFEST_FORMAT:
            raise StoreMismatchError(
                f"{manifest} has unknown format {data.get('format')!r}"
            )
        return CampaignSpec.from_dict(data["spec"])

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {"format": _MANIFEST_FORMAT, "name": self.spec.name, "spec": self.spec.as_dict()},
            indent=2,
        )
        atomic_write_text(self.directory / _MANIFEST_NAME, payload)

    # ------------------------------------------------------------------ #
    def curve_path(self, label: str) -> Path:
        """File holding the curve of experiment ``label``."""
        return self.directory / f"{slugify(label)}.curve.json"

    def _experiment(self, label: str) -> tuple[int, ExperimentSpec]:
        for index, experiment in enumerate(self.spec.experiments):
            if experiment.label == label:
                return index, experiment
        raise KeyError(f"campaign {self.spec.name!r} has no experiment {label!r}")

    def _metadata(self, index: int, experiment: ExperimentSpec) -> dict[str, Any]:
        config = experiment.resolve_config(self.spec.config)
        return {
            "campaign": self.spec.name,
            "experiment": experiment.label,
            "experiment_index": index,
            "seed": self.spec.seed,
            "code": experiment.code.as_dict(),
            "decoder": experiment.decoder.as_dict(),
            "channel": experiment.channel.as_dict(),
            "config": config_to_dict(config),
            "ebn0_grid": list(experiment.resolve_ebn0(self.spec.ebn0)),
        }

    def curve(self, label: str) -> SimulationCurve:
        """The (possibly partial) curve of an experiment.

        Loaded from disk on first access, then kept in memory and extended by
        :meth:`record_point`.  A curve that was never started is returned
        empty, already carrying its addressing metadata.

        Raises :class:`StoreMismatchError` when the on-disk file was measured
        under a different spec and ``ValueError``/``KeyError``/``TypeError``
        when it is not a readable curve file; :meth:`curve_problem` probes
        for those conditions without raising.
        """
        cached = self._curves.get(label)
        if cached is not None:
            return cached
        index, experiment = self._experiment(label)
        path = self.curve_path(label)
        expected = self._metadata(index, experiment)
        if path.exists():
            curve = SimulationCurve.load(path)
            # The addressing metadata is the curve's identity: a file whose
            # metadata disagrees with the spec (stray leftover from another
            # campaign, different seed/config/grid) must not be adopted —
            # its points would be silently skipped as "done".  Curves written
            # before the channel axis existed carry no "channel" field; they
            # measured the then-hardcoded BPSK/AWGN link, so they are the
            # same measurement as today's default channel and stay adoptable.
            if curve.metadata and curve.metadata != expected:
                legacy = dict(curve.metadata)
                legacy.setdefault("channel", dict(DEFAULT_CHANNEL_DICT))
                if legacy != expected:
                    raise StoreMismatchError(
                        f"{path} was measured under a different campaign spec; "
                        "remove it or rerun with fresh=True (CLI: --fresh)"
                    )
        else:
            curve = SimulationCurve(label=label)
        curve.metadata = expected
        self._curves[label] = curve
        return curve

    def curve_problem(self, label: str) -> str | None:
        """Why ``label``'s on-disk curve cannot be adopted, or ``None``.

        ``campaign status`` and the analysis layer use this to *report* a
        corrupt experiment (mismatched addressing metadata, unreadable JSON)
        instead of aborting on the first bad file.
        """
        try:
            self.curve(label)
        except StoreMismatchError as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return f"{self.curve_path(label)} is not a readable curve file: {exc}"
        return None

    def completed_ebn0(self, label: str) -> set[float]:
        """Eb/N0 values of ``label`` already persisted (skipped on resume)."""
        return self.curve(label).completed_ebn0()

    def record_point(self, label: str, point: SimulationPoint) -> bool:
        """Add one completed point and persist the curve immediately.

        Returns whether the point was newly recorded (``False`` for a
        duplicate Eb/N0, which is ignored).  When a
        :class:`~repro.obs.telemetry.Telemetry` is attached, every newly
        recorded point is reported — after the curve is already saved, so
        telemetry failures or slowness cannot affect persistence.
        """
        curve = self.curve(label)
        if float(point.ebn0_db) in curve.completed_ebn0():
            return False
        curve.add(point)
        curve.save(self.curve_path(label))
        if self.telemetry is not None:
            self.telemetry.record_point(experiment=label, point=point)
        return True

    # ------------------------------------------------------------------ #
    def curves(self) -> dict[str, SimulationCurve]:
        """Every experiment's current curve, keyed by label."""
        return {e.label: self.curve(e.label) for e in self.spec.experiments}

    def status(self) -> list[dict[str, Any]]:
        """Per-experiment progress summary (for ``campaign status``).

        A corrupt curve file (mismatched addressing metadata or unreadable
        JSON) does not raise: its row carries the problem description under
        ``"error"`` and counts as incomplete, so ``campaign status`` can name
        the broken experiment instead of dying on it.
        """
        rows: list[dict[str, Any]] = []
        for experiment in self.spec.experiments:
            grid = experiment.resolve_ebn0(self.spec.ebn0)
            error = self.curve_problem(experiment.label)
            if error is not None:
                rows.append(
                    {
                        "label": experiment.label,
                        "points_done": 0,
                        "points_total": len(grid),
                        "frames": 0,
                        "frame_errors": 0,
                        "complete": False,
                        "error": error,
                    }
                )
                continue
            curve = self.curve(experiment.label)
            done = curve.completed_ebn0() & {float(x) for x in grid}
            rows.append(
                {
                    "label": experiment.label,
                    "points_done": len(done),
                    "points_total": len(grid),
                    "frames": sum(p.frames for p in curve.points),
                    "frame_errors": sum(p.frame_errors for p in curve.points),
                    "complete": len(done) == len(grid),
                    "error": None,
                }
            )
        return rows

    def is_complete(self) -> bool:
        """Whether every experiment has every grid point persisted."""
        return all(row["complete"] for row in self.status())
