"""Paper-recorded reference crossings and the drift checker behind them.

The reproduction's honesty mechanism: the paper's recorded operating points
(the Figure 4 waterfall crossings and the Tables 2-3 operating points they
justify) live here as *structured data*, and
:func:`compare_to_reference` measures a campaign report against them.  CI
runs the comparison on every push (``python -m repro campaign verify``), so
a regression that silently shifts a waterfall outside the recorded
tolerance fails the build instead of surviving until someone eyeballs a
figure.

Reference values were read off the paper's Figure 4 at the stated targets;
reading a log-log waterfall plot is good to about ±0.05 dB, which is why
the default comparison tolerance is wider (0.1 dB) and why every entry
carries its source.  A reference matches an experiment by addressing
metadata — experiment label, code key and/or decoder kind — the same keys
every stored curve carries, so the checker works on any campaign directory
without configuration.  Custom reference sets (for scaled codes, CI
fixtures, or updated measurements) round-trip through JSON via
:func:`load_references` / :func:`save_references`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.sim.crossing import curve_crossing
from repro.utils.files import atomic_write_text
from repro.utils.formatting import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.campaign.report import CampaignReport, ExperimentReport

__all__ = [
    "ReferenceCrossing",
    "ReferenceComparison",
    "ReferenceCheck",
    "PAPER_REFERENCE_CROSSINGS",
    "compare_to_reference",
    "load_references",
    "save_references",
]

_METRICS = ("ber", "fer")
_REFERENCE_FORMAT = "repro-reference-crossings-v1"

#: Slack added to the tolerance comparison so a delta that *equals* the
#: tolerance is a pass regardless of floating-point representation.
_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class ReferenceCrossing:
    """One recorded operating point: "this curve reaches ``target`` at ``ebn0_db``".

    Matching is by addressing metadata, most-specific first: an explicit
    experiment ``label`` pins one experiment; otherwise ``code_key`` (the
    :attr:`~repro.sim.campaign.spec.CodeSpec.key` every stored curve
    carries) and ``decoder_kind`` (``"nms"``, ``"sum-product"``, …) select
    all experiments of that family.  ``None`` fields match anything —
    except the channel: a reference without a ``channel_key`` applies only
    to experiments on the default soft-AWGN link, because that is the
    channel every recorded operating point (the paper's included) was
    measured on.  In a campaign gridded over channels a BSC variant of
    the same code/decoder sits dB away from the AWGN value by
    physics, not by drift, and must not fail the verify gate against an
    AWGN reference; record a reference with an explicit ``channel_key``
    (the :attr:`~repro.sim.campaign.spec.ChannelSpec.key`) to target a
    non-AWGN link.
    """

    target: float
    ebn0_db: float
    metric: str = "ber"
    code_key: str | None = None
    decoder_kind: str | None = None
    channel_key: str | None = None
    label: str | None = None
    source: str = ""
    note: str = ""

    def __post_init__(self):
        if self.target <= 0:
            raise ValueError("reference target error rate must be positive")
        if self.metric not in _METRICS:
            raise ValueError(
                f"unknown reference metric {self.metric!r}; choose from {_METRICS}"
            )

    def matches(self, experiment: "ExperimentReport") -> bool:
        """Whether this reference applies to one report experiment.

        An explicit ``label`` pin overrides the channel default — the user
        named exactly one experiment, whatever its link.
        """
        if self.label is not None:
            return experiment.label == self.label
        if self.code_key is not None and experiment.code_key != self.code_key:
            return False
        if self.decoder_kind is not None:
            decoder = experiment.record.decoder or {}
            if decoder.get("kind") != self.decoder_kind:
                return False
        experiment_channel = experiment.channel_key or "awgn"
        return experiment_channel == (self.channel_key or "awgn")

    def describe(self) -> str:
        """Short human-readable identity for tables and error messages."""
        parts = [
            p for p in (self.label, self.code_key, self.decoder_kind,
                        self.channel_key) if p
        ]
        selector = "/".join(parts) if parts else "any"
        return f"{selector} @ {self.metric.upper()} {self.target:.1e}"

    def as_dict(self) -> dict:
        data: dict = {"target": self.target, "ebn0_db": self.ebn0_db,
                      "metric": self.metric}
        for name in ("code_key", "decoder_kind", "channel_key", "label",
                     "source", "note"):
            value = getattr(self, name)
            if value:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReferenceCrossing":
        known = {
            "target", "ebn0_db", "metric", "code_key", "decoder_kind",
            "channel_key", "label", "source", "note",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ReferenceCrossing keys: {sorted(unknown)}")
        return cls(**dict(data))


#: The paper's recorded operating points (DATE 2009, CCSDS C2 8176-bit code).
#: Figure 4 compares the floating-point sum-product and normalized-min-sum
#: waterfalls ("within 0.05 dB") and the fixed-point 6-bit datapath whose
#: ~0.1 dB implementation loss justifies the Tables 2-3 operating point.
#: Values read off Figure 4 at the stated targets (±0.05 dB reading
#: precision — hence the 0.1 dB default tolerance).
PAPER_REFERENCE_CROSSINGS: tuple[ReferenceCrossing, ...] = (
    ReferenceCrossing(
        target=1e-4, ebn0_db=3.65, code_key="ccsds-c2", decoder_kind="sum-product",
        source="Figure 4",
        note="floating-point sum-product reference curve",
    ),
    ReferenceCrossing(
        target=1e-6, ebn0_db=4.00, code_key="ccsds-c2", decoder_kind="sum-product",
        source="Figure 4",
        note="floating-point sum-product reference curve",
    ),
    ReferenceCrossing(
        target=1e-4, ebn0_db=3.70, code_key="ccsds-c2", decoder_kind="nms",
        source="Figure 4",
        note="normalized min-sum, within 0.05 dB of sum-product",
    ),
    ReferenceCrossing(
        target=1e-6, ebn0_db=4.05, code_key="ccsds-c2", decoder_kind="nms",
        source="Figure 4",
        note="normalized min-sum, within 0.05 dB of sum-product",
    ),
    ReferenceCrossing(
        target=1e-6, ebn0_db=4.15, code_key="ccsds-c2", decoder_kind="quantized",
        source="Figure 4 / Tables 2-3",
        note="6-bit fixed-point datapath of the implemented decoder "
             "(~0.1 dB implementation loss at the Tables 2-3 operating point)",
    ),
)


@dataclass(frozen=True)
class ReferenceComparison:
    """One reference checked against one experiment (or left unmatched).

    ``status`` is ``"ok"`` (within tolerance), ``"drift"`` (crossing moved
    beyond tolerance), ``"no-crossing"`` (the matched curve never reaches
    the reference target inside its measured range), or ``"unmatched"`` (no
    experiment in the report matches the reference — informational, not a
    failure: a campaign may legitimately cover a subset of the paper).
    """

    reference: ReferenceCrossing
    label: str | None
    measured_db: float | None
    exact: bool | None
    delta_db: float | None
    status: str

    @property
    def failed(self) -> bool:
        return self.status in ("drift", "no-crossing")

    def as_dict(self) -> dict:
        return {
            "reference": self.reference.as_dict(),
            "label": self.label,
            "measured_db": self.measured_db,
            "exact": self.exact,
            "delta_db": self.delta_db,
            "status": self.status,
        }


@dataclass
class ReferenceCheck:
    """Outcome of :func:`compare_to_reference` over a whole report."""

    tolerance_db: float
    comparisons: list[ReferenceComparison] = field(default_factory=list)

    @property
    def matched(self) -> list[ReferenceComparison]:
        return [c for c in self.comparisons if c.status != "unmatched"]

    @property
    def failures(self) -> list[ReferenceComparison]:
        return [c for c in self.comparisons if c.failed]

    @property
    def passed(self) -> bool:
        """All matched references within tolerance — and at least one matched.

        A check that matched *nothing* is a configuration error, not a pass:
        verifying a campaign against references that name none of its
        experiments must not report success vacuously.
        """
        return bool(self.matched) and not self.failures

    def to_table(self) -> str:
        """ASCII summary table (the ``campaign verify`` output)."""
        rows = []
        for comparison in self.comparisons:
            ref = comparison.reference
            measured = (
                "n/a" if comparison.measured_db is None
                else f"{'' if comparison.exact else '<='}{comparison.measured_db:.3f}"
            )
            delta = (
                "n/a" if comparison.delta_db is None
                else f"{comparison.delta_db:+.3f}"
            )
            rows.append([
                ref.describe(),
                comparison.label or "n/a",
                f"{ref.ebn0_db:.3f}",
                measured,
                delta,
                ref.source or "n/a",
                comparison.status,
            ])
        return format_table(
            ["Reference", "Experiment", "Recorded (dB)", "Measured (dB)",
             "Delta (dB)", "Source", "Status"],
            rows,
            title=(
                f"Reference crossings (tolerance ±{self.tolerance_db:.3f} dB): "
                f"{len(self.matched)} matched, {len(self.failures)} failing"
            ),
        )

    def as_dict(self) -> dict:
        return {
            "tolerance_db": self.tolerance_db,
            "passed": self.passed,
            "matched": len(self.matched),
            "failures": len(self.failures),
            "comparisons": [c.as_dict() for c in self.comparisons],
        }


def compare_to_reference(
    report: "CampaignReport",
    tolerance_db: float = 0.1,
    *,
    references: Sequence[ReferenceCrossing] | None = None,
) -> ReferenceCheck:
    """Check a report's measured crossings against recorded references.

    Every reference is compared to *every* experiment it matches (a
    decoder-kind reference checks each iteration/parameter variant of that
    kind).  The crossing is recomputed from the stored curve at the
    reference's own target and metric — the report's table target plays no
    role, so one report can be verified against references at several
    targets.  A crossing that is only an upper bound (zero-error floor
    bracket, ``exact=False``) still compares by position; its ``exact``
    flag is carried through for the caller.

    ``|measured - recorded| <= tolerance_db`` passes — the boundary is
    inclusive.  Returns a :class:`ReferenceCheck`; see
    :attr:`ReferenceCheck.passed` for the gate semantics.
    """
    if tolerance_db <= 0:
        raise ValueError("tolerance_db must be positive")
    if references is None:
        references = PAPER_REFERENCE_CROSSINGS
    check = ReferenceCheck(tolerance_db=float(tolerance_db))
    for reference in references:
        matched = [e for e in report.experiments if reference.matches(e)]
        if not matched:
            check.comparisons.append(ReferenceComparison(
                reference=reference, label=None, measured_db=None,
                exact=None, delta_db=None, status="unmatched",
            ))
            continue
        for experiment in matched:
            crossing = curve_crossing(
                experiment.record.curve, reference.target, metric=reference.metric
            )
            if crossing is None:
                check.comparisons.append(ReferenceComparison(
                    reference=reference, label=experiment.label,
                    measured_db=None, exact=None, delta_db=None,
                    status="no-crossing",
                ))
                continue
            delta = float(crossing.ebn0_db - reference.ebn0_db)
            within = abs(delta) <= tolerance_db + _BOUNDARY_EPS
            check.comparisons.append(ReferenceComparison(
                reference=reference, label=experiment.label,
                measured_db=float(crossing.ebn0_db), exact=crossing.exact,
                delta_db=delta, status="ok" if within else "drift",
            ))
    return check


def load_references(path) -> tuple[ReferenceCrossing, ...]:
    """Load a reference set from JSON (see :func:`save_references`)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{path} is not a reference file: expected a JSON object with a "
            f"{_REFERENCE_FORMAT!r} format key, got {type(data).__name__}"
        )
    if data.get("format") != _REFERENCE_FORMAT:
        raise ValueError(
            f"{path} has unknown reference format {data.get('format')!r} "
            f"(expected {_REFERENCE_FORMAT!r})"
        )
    return tuple(ReferenceCrossing.from_dict(e) for e in data.get("references", []))


def save_references(references: Iterable[ReferenceCrossing], path) -> None:
    """Write a reference set as JSON (atomic; loadable by :func:`load_references`)."""
    payload = json.dumps(
        {
            "format": _REFERENCE_FORMAT,
            "references": [r.as_dict() for r in references],
        },
        indent=2,
    )
    atomic_write_text(path, payload)
