"""Paper-style reports from a campaign result store.

The deliverables of the source paper are tables and curves: BER/FER
waterfalls (Figure 4), quantization / correction-factor ablations
(Section 5), throughput and resource tables (Tables 1-3).  After a
campaign has run, its :class:`~repro.sim.campaign.store.ResultStore`
directory holds all the measurements; :class:`CampaignReport` turns them
back into those artifacts:

* a per-experiment summary (points measured, frames spent, best BER);
* threshold crossings — the Eb/N0 at which each curve reaches a target
  BER/FER, interpolated in the log domain (:mod:`.crossing`);
* coding gain vs. uncoded BPSK and gap to the rate-dependent Shannon
  limit at the target BER (:mod:`repro.sim.reference`);
* cross-experiment comparison tables grouped by code, ranking decoder
  configurations by crossing and reporting each one's distance to the
  best of its group — the form of the paper's "within 0.05 dB of
  sum-product" claim;
* the raw waterfall points, exporter-friendly;
* when the campaign ran with telemetry (``REPRO_TELEMETRY=1`` or
  ``--telemetry``), an "Execution telemetry" section folded from the
  recorded ``telemetry/events.jsonl`` log by
  :func:`repro.obs.trace.run_summary` — wall time, throughput, pool
  utilization, stage split and early-stop savings of the last run that
  finished cleanly.  The section is built purely from the recorded log,
  never from live clocks, so report output for a given store stays
  byte-identical across renders.

Exporters share one section model: ``to_text()`` renders the same ASCII
tables as :mod:`repro.core.report`, ``to_markdown()`` GitHub tables,
``to_csv()`` one CSV stream with ``#``-titled sections, and ``as_dict()`` /
``to_json()`` a machine-readable form.  All output is deterministic for a
given store: experiments are ordered by label, groups by code key, and
every number is formatted with a fixed precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.crossing import (
    Crossing,
    coding_gain_db,
    curve_crossing,
    shannon_gap_db,
)
from repro.analysis.campaign.curveset import CurveRecord, CurveSet
from repro.obs import clock
from repro.obs.events import read_events, validate_event_log
from repro.obs.trace import run_summary
from repro.sim.campaign.spec import CodeSpec
from repro.sim.campaign.store import ResultStore
from repro.sim.reference import uncoded_bpsk_ebn0_db
from repro.utils.formatting import format_csv, format_markdown_table, format_table

__all__ = ["ExperimentReport", "CampaignReport"]

_NA = "n/a"


def _fmt_crossing(crossing: Crossing | None) -> str:
    return _NA if crossing is None else format(crossing, ".3f")


def _fmt_db(value: float | None, *, signed: bool = False) -> str:
    if value is None:
        return _NA
    return f"{value:+.3f}" if signed else f"{value:.3f}"


def _fmt_rate(value) -> str:
    return _NA if value is None else f"{value:.3e}"


@dataclass(frozen=True)
class ExperimentReport:
    """Analysis results of one experiment curve."""

    label: str
    code_key: str | None
    decoder_key: str | None
    channel_key: str | None
    points: int
    frames: int
    frame_errors: int
    min_ber: float | None
    min_ber_ebn0: float | None
    ber_crossing: Crossing | None
    fer_crossing: Crossing | None
    coding_gain_db: float | None
    rate: float | None
    shannon_gap_db: float | None
    record: CurveRecord = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        """Machine-readable form (no curve points; see the waterfall section)."""
        crossing = None
        if self.ber_crossing is not None:
            crossing = {"ebn0_db": self.ber_crossing.ebn0_db, "exact": self.ber_crossing.exact}
        fer_crossing = None
        if self.fer_crossing is not None:
            fer_crossing = {"ebn0_db": self.fer_crossing.ebn0_db, "exact": self.fer_crossing.exact}
        return {
            "label": self.label,
            "code": self.record.code,
            "decoder": self.record.decoder,
            "channel": self.record.channel,
            "code_key": self.code_key,
            "decoder_key": self.decoder_key,
            "channel_key": self.channel_key,
            "points": self.points,
            "frames": self.frames,
            "frame_errors": self.frame_errors,
            "min_ber": self.min_ber,
            "min_ber_ebn0": self.min_ber_ebn0,
            "ber_crossing": crossing,
            "fer_crossing": fer_crossing,
            "coding_gain_db": self.coding_gain_db,
            "rate": self.rate,
            "shannon_gap_db": self.shannon_gap_db,
        }


class _RateCache:
    """Build each distinct code once to ask its true rate ``k/n``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._rates: dict[CodeSpec, float | None] = {}

    def rate(self, record: CurveRecord) -> float | None:
        if not self.enabled or record.code is None:
            return None
        try:
            spec = CodeSpec.from_dict(record.code)
        except (ValueError, TypeError):
            return None
        if spec not in self._rates:
            self._rates[spec] = float(spec.build().rate)
        return self._rates[spec]


class CampaignReport:
    """Analysis report over a campaign's curves.

    Parameters
    ----------
    curves:
        The campaign's curves (a :class:`CurveSet`; see :meth:`from_store`).
    name:
        Campaign name used in titles.
    seed:
        Campaign master seed (informational).
    target_ber / target_fer:
        Error-rate targets of the crossing analysis; ``target_fer=None``
        omits the FER column.
    include_rates:
        Build each distinct code to compute its true rate and the gap to
        the Shannon limit.  Building the full 8176-bit code takes a few
        seconds; pass ``False`` to skip the rate/gap columns.
    telemetry:
        The ``{"counters": ..., "gauges": ...}`` summary of a recorded run
        (:func:`repro.obs.trace.run_summary`), or ``None``.
        :meth:`from_store` folds it from the campaign directory's event
        log when there is one.
    """

    def __init__(
        self,
        curves: CurveSet,
        *,
        name: str = "campaign",
        seed: int | None = None,
        target_ber: float = 1e-4,
        target_fer: float | None = None,
        include_rates: bool = True,
        telemetry: dict | None = None,
    ):
        if target_ber <= 0:
            raise ValueError("target_ber must be positive")
        if target_fer is not None and target_fer <= 0:
            raise ValueError("target_fer must be positive")
        self.name = name
        self.seed = seed
        self.target_ber = float(target_ber)
        self.target_fer = None if target_fer is None else float(target_fer)
        self.uncoded_ebn0_db = uncoded_bpsk_ebn0_db(self.target_ber)
        self.problems = dict(curves.problems)
        self.telemetry = telemetry
        rates = _RateCache(include_rates)
        self.experiments: list[ExperimentReport] = [
            self._analyze(record, rates) for record in curves.sorted_by("label")
        ]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        store: "ResultStore | str | Path",
        *,
        target_ber: float = 1e-4,
        target_fer: float | None = None,
        include_rates: bool = True,
    ) -> "CampaignReport":
        """Build the report straight from a campaign directory.

        When the directory holds a telemetry event log (campaigns run with
        telemetry enabled) with a cleanly finished run, the report grows an
        "Execution telemetry" section; an absent, invalid or never
        completed log simply omits the section.
        """
        if not isinstance(store, ResultStore):
            store = ResultStore.open(store)
        telemetry = None
        log_path = Path(store.directory) / "telemetry" / "events.jsonl"
        if log_path.exists():
            try:
                validate_event_log(log_path)
                telemetry = run_summary(read_events(log_path))
            except (ValueError, OSError):
                telemetry = None
        return cls(
            CurveSet.from_store(store),
            name=store.spec.name,
            seed=store.spec.seed,
            target_ber=target_ber,
            target_fer=target_fer,
            include_rates=include_rates,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------ #
    def _analyze(self, record: CurveRecord, rates: _RateCache) -> ExperimentReport:
        curve = record.curve
        ber_crossing = curve_crossing(curve, self.target_ber)
        fer_crossing = (
            curve_crossing(curve, self.target_fer, metric="fer")
            if self.target_fer is not None
            else None
        )
        min_ber = min_ber_ebn0 = None
        if curve.points:
            best = min(curve.points, key=lambda p: (p.ber, p.ebn0_db))
            min_ber, min_ber_ebn0 = float(best.ber), float(best.ebn0_db)
        rate = rates.rate(record)
        return ExperimentReport(
            label=record.label,
            code_key=record.code_key,
            decoder_key=record.decoder_key,
            channel_key=record.channel_key,
            points=len(curve.points),
            frames=sum(p.frames for p in curve.points),
            frame_errors=sum(p.frame_errors for p in curve.points),
            min_ber=min_ber,
            min_ber_ebn0=min_ber_ebn0,
            ber_crossing=ber_crossing,
            fer_crossing=fer_crossing,
            coding_gain_db=coding_gain_db(ber_crossing, self.target_ber),
            rate=rate,
            shannon_gap_db=None if rate is None else shannon_gap_db(ber_crossing, rate),
            record=record,
        )

    # ------------------------------------------------------------------ #
    # Section model shared by the text/markdown/CSV exporters
    # ------------------------------------------------------------------ #
    def _summary_section(self) -> tuple[str, list[str], list[list[str]]]:
        headers = ["Experiment", "Code", "Decoder", "Channel", "Points", "Frames",
                   "Frame errors", "Min BER", "at Eb/N0 (dB)"]
        rows = []
        for exp in self.experiments:
            rows.append([
                exp.label,
                exp.code_key or _NA,
                exp.decoder_key or _NA,
                exp.channel_key or _NA,
                str(exp.points),
                f"{exp.frames:,}",
                f"{exp.frame_errors:,}",
                _fmt_rate(exp.min_ber),
                _NA if exp.min_ber_ebn0 is None else f"{exp.min_ber_ebn0:.2f}",
            ])
        return "Experiment summary", headers, rows

    def _crossing_section(self) -> tuple[str, list[str], list[list[str]]]:
        headers = ["Experiment", f"Eb/N0 @ BER {self.target_ber:.1e} (dB)"]
        if self.target_fer is not None:
            headers.append(f"Eb/N0 @ FER {self.target_fer:.1e} (dB)")
        headers.extend(["Coding gain vs uncoded (dB)", "Rate", "Gap to Shannon (dB)"])
        rows = []
        for exp in self.experiments:
            row = [exp.label, _fmt_crossing(exp.ber_crossing)]
            if self.target_fer is not None:
                row.append(_fmt_crossing(exp.fer_crossing))
            row.extend([
                _fmt_db(exp.coding_gain_db, signed=True),
                _NA if exp.rate is None else f"{exp.rate:.4f}",
                _fmt_db(exp.shannon_gap_db, signed=True),
            ])
            rows.append(row)
        title = (
            f"Threshold crossings (uncoded BPSK needs "
            f"{self.uncoded_ebn0_db:.3f} dB for BER {self.target_ber:.1e})"
        )
        return title, headers, rows

    def _comparison_sections(self) -> list[tuple[str, list[str], list[list[str]]]]:
        """One ranking table per (code, channel): the cross-experiment comparison.

        Decoder configurations are only comparable over the same channel —
        ranking a soft-AWGN curve against a hard-decision BSC one would
        "measure" the channel, not the decoder — so a campaign gridded over
        channels gets one table per (code, channel) pair.  Single-channel
        campaigns keep the historical per-code titles.
        """
        multi_channel = len({e.channel_key for e in self.experiments}) > 1
        by_group: dict[tuple[str, str | None], list[ExperimentReport]] = {}
        for exp in self.experiments:
            key = (exp.code_key or _NA, exp.channel_key if multi_channel else None)
            by_group.setdefault(key, []).append(exp)
        sections = []
        for code_key, channel_key in sorted(
            by_group, key=lambda k: (k[0], k[1] or "")
        ):
            group = by_group[(code_key, channel_key)]
            crossed = [e for e in group if e.ber_crossing is not None]
            crossed.sort(key=lambda e: (e.ber_crossing.ebn0_db, e.label))
            uncrossed = sorted(
                (e for e in group if e.ber_crossing is None), key=lambda e: e.label
            )
            best = crossed[0].ber_crossing.ebn0_db if crossed else None
            rows = []
            for exp in crossed + uncrossed:
                if exp.ber_crossing is None or best is None:
                    delta = _NA
                else:
                    delta = f"{exp.ber_crossing.ebn0_db - best:+.3f}"
                rows.append([
                    exp.label,
                    exp.decoder_key or _NA,
                    _fmt_crossing(exp.ber_crossing),
                    delta,
                ])
            title = f"Comparison @ BER {self.target_ber:.1e} — code {code_key}"
            if channel_key is not None:
                title += f", channel {channel_key}"
            title += " (best first)"
            sections.append((
                title,
                ["Experiment", "Decoder", "Eb/N0 (dB)", "vs best (dB)"],
                rows,
            ))
        return sections

    def _waterfall_section(self) -> tuple[str, list[str], list[list[str]]]:
        headers = ["Experiment", "Eb/N0 (dB)", "BER", "FER", "Frames", "Avg iterations"]
        rows = []
        for exp in self.experiments:
            for point in exp.record.curve.points:
                rows.append([
                    exp.label,
                    f"{point.ebn0_db:.2f}",
                    f"{point.ber:.3e}",
                    f"{point.fer:.3e}",
                    str(point.frames),
                    f"{point.average_iterations:.2f}",
                ])
        return "Measured waterfall points", headers, rows

    def _telemetry_section(self) -> tuple[str, list[str], list[list[str]]] | None:
        """Execution telemetry of the recorded run, or ``None`` without one.

        Every value comes from the recorded event log (see
        :func:`repro.obs.trace.run_summary`) — recorded wall timestamps
        are formatted with :func:`repro.obs.clock.wall_iso`, never read
        live — so the section (and with it the whole report) stays
        deterministic for a store.
        """
        if not self.telemetry:
            return None
        counters = self.telemetry.get("counters", {})
        gauges = self.telemetry.get("gauges", {})
        rows: list[list[str]] = []

        def row(label: str, value: str) -> None:
            rows.append([label, value])

        for name, label in (("run_started_wall", "Run started (UTC)"),
                            ("run_ended_wall", "Run ended (UTC)")):
            if name in gauges:
                row(label, clock.wall_iso(gauges[name]))
        if "run_seconds" in gauges:
            row("Run wall time (s)", f"{gauges['run_seconds']:.2f}")
        if "workers" in gauges:
            workers = int(gauges["workers"])
            row("Workers", "serial" if workers == 0 else str(workers))
        if "pool_utilization" in gauges:
            row("Pool utilization", f"{100.0 * gauges['pool_utilization']:.1f}%")
        frames = counters.get("frames_total")
        if frames is not None:
            row("Frames simulated", f"{int(frames):,}")
        if "frames_per_second" in gauges:
            row("Frames per second", f"{gauges['frames_per_second']:.1f}")
        for name, label in (
            ("points_recorded_total", "Points recorded"),
            ("shards_total", "Shards completed"),
        ):
            if name in counters:
                row(label, str(int(counters[name])))
        if "shard_compute_seconds_total" in counters:
            row("Shard compute time (s)",
                f"{counters['shard_compute_seconds_total']:.2f}")
        if "shard_queue_seconds_total" in counters:
            row("Shard queue wait (s)",
                f"{counters['shard_queue_seconds_total']:.2f}")
        stages = {
            name: value
            for name, value in counters.items()
            if name.startswith("stage_seconds.")
        }
        stage_total = sum(stages.values())
        if stage_total > 0:
            for name in sorted(stages):
                share = 100.0 * stages[name] / stage_total
                row(f"Stage {name.removeprefix('stage_seconds.')} (s)",
                    f"{stages[name]:.2f} ({share:.1f}%)")
        if counters.get("points_early_stopped_total"):
            row("Points early-stopped",
                str(int(counters["points_early_stopped_total"])))
            row("Frames saved by early stop",
                f"{int(counters.get('frames_saved_by_early_stop_total', 0)):,}")
        if counters.get("points_resume_skipped_total"):
            row("Points skipped on resume",
                str(int(counters["points_resume_skipped_total"])))
        if not rows:
            return None
        return "Execution telemetry (recorded)", ["Metric", "Value"], rows

    def _problem_section(self) -> tuple[str, list[str], list[list[str]]] | None:
        if not self.problems:
            return None
        rows = [[label, self.problems[label]] for label in sorted(self.problems)]
        return "Experiments with unreadable results", ["Experiment", "Problem"], rows

    def sections(self) -> list[tuple[str, list[str], list[list[str]]]]:
        """Every report section as ``(title, headers, rows)`` of strings.

        The shared model behind all exporters (text, markdown, CSV, HTML) —
        deterministic order: summary, crossings, per-code comparisons,
        waterfall points, then — when present — recorded execution
        telemetry and unreadable-experiment problems.
        """
        sections = [self._summary_section(), self._crossing_section()]
        sections.extend(self._comparison_sections())
        sections.append(self._waterfall_section())
        telemetry = self._telemetry_section()
        if telemetry is not None:
            sections.append(telemetry)
        problem = self._problem_section()
        if problem is not None:
            sections.append(problem)
        return sections

    def header_lines(self) -> list[str]:
        """``[title, subtitle]`` shared by every exporter (text/markdown/HTML)."""
        seed = "?" if self.seed is None else str(self.seed)
        return [
            f"Campaign report: {self.name}",
            f"seed {seed} | {len(self.experiments)} experiments | "
            f"target BER {self.target_ber:.1e}"
            + ("" if self.target_fer is None else f" | target FER {self.target_fer:.1e}"),
        ]

    # ------------------------------------------------------------------ #
    # Exporters
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """ASCII report in the style of :mod:`repro.core.report`."""
        blocks = ["\n".join(self.header_lines())]
        blocks.extend(
            format_table(headers, rows, title=title)
            for title, headers, rows in self.sections()
        )
        return "\n\n".join(blocks) + "\n"

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown report."""
        title, subtitle = self.header_lines()
        blocks = [f"# {title}", subtitle]
        blocks.extend(
            format_markdown_table(headers, rows, title=section_title)
            for section_title, headers, rows in self.sections()
        )
        return "\n\n".join(blocks) + "\n"

    def to_csv(self) -> str:
        """All sections as one CSV stream; section titles become ``#`` lines."""
        blocks = []
        for title, headers, rows in self.sections():
            blocks.append(f"# {title}\n" + format_csv(headers, rows))
        return "\n\n".join(blocks) + "\n"

    def as_dict(self) -> dict:
        """Machine-readable report (see also :meth:`to_json`)."""
        waterfall = {
            exp.label: [p.as_dict() for p in exp.record.curve.points]
            for exp in self.experiments
        }
        return {
            "campaign": self.name,
            "seed": self.seed,
            "target_ber": self.target_ber,
            "target_fer": self.target_fer,
            "uncoded_bpsk_ebn0_db": self.uncoded_ebn0_db,
            "experiments": [exp.as_dict() for exp in self.experiments],
            "waterfall": waterfall,
            "problems": dict(sorted(self.problems.items())),
            "telemetry": self.telemetry,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The :meth:`as_dict` report as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent) + "\n"

    def to_html(self, *, figures="auto") -> str:
        """One self-contained HTML document (tables + embedded figures).

        Figures are embedded as base64 SVG data URIs when matplotlib is
        available and degrade to a note otherwise; see
        :func:`repro.analysis.campaign.html.render_html` for the ``figures``
        contract.  Output is deterministic — two renders of the same store
        are byte-identical.
        """
        from repro.analysis.campaign.html import render_html

        return render_html(self, figures=figures)

    def render(self, fmt: str) -> str:
        """Render as ``text``, ``markdown``, ``csv``, ``json`` or ``html``."""
        renderers = {
            "text": self.to_text,
            "markdown": self.to_markdown,
            "csv": self.to_csv,
            "json": self.to_json,
            "html": self.to_html,
        }
        if fmt not in renderers:
            raise ValueError(f"unknown report format {fmt!r}; choose from {sorted(renderers)}")
        return renderers[fmt]()
