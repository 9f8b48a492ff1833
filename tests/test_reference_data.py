"""Tests for paper-recorded reference crossings and `campaign verify`."""

import json

import pytest

from repro.analysis.campaign import CampaignReport
from repro.analysis.reference_data import (
    PAPER_REFERENCE_CROSSINGS,
    ReferenceCrossing,
    compare_to_reference,
    load_references,
    save_references,
)
from repro.cli import main
from repro.sim import SimulationConfig
from repro.sim.campaign import (
    CampaignSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
)
from repro.sim.results import SimulationPoint


def make_point(ebn0, ber, frames=100):
    fer = min(1.0, ber * 10)
    return SimulationPoint(
        ebn0_db=float(ebn0), ber=float(ber), fer=fer,
        bit_errors=int(ber * 1e6), frame_errors=min(frames, int(fer * frames)),
        bits=10**6, frames=frames,
    )


def fabricated_store(tmp_path, name="ref"):
    """Analytic waterfalls: nms crosses BER 1e-3 at exactly 4 1/3 dB."""
    code = CodeSpec(family="scaled", circulant=31)
    spec = CampaignSpec(
        name=name,
        seed=11,
        ebn0=(3.0, 4.0, 5.0),
        config=SimulationConfig(max_frames=100, target_frame_errors=50,
                                batch_frames=10, all_zero_codeword=True),
        experiments=[
            ExperimentSpec("nms", code, DecoderSpec("nms", 18, params={"alpha": 1.25})),
            ExperimentSpec("min-sum", code, DecoderSpec("min-sum", 18)),
        ],
    )
    store = ResultStore.create(tmp_path / name, spec)
    for label, shift in {"nms": 0.0, "min-sum": 0.4}.items():
        for ebn0 in spec.ebn0:
            ber = min(0.5, 10 ** (-1.0 - 1.5 * (ebn0 - shift - 3.0)))
            store.record_point(label, make_point(ebn0, ber))
    return store


def report_for(store):
    return CampaignReport.from_store(store, target_ber=1e-3, include_rates=False)


class TestReferenceCrossing:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ReferenceCrossing(target=0.0, ebn0_db=4.0)
        with pytest.raises(ValueError, match="metric"):
            ReferenceCrossing(target=1e-4, ebn0_db=4.0, metric="per")
        with pytest.raises(ValueError, match="unknown ReferenceCrossing keys"):
            ReferenceCrossing.from_dict({"target": 1e-4, "ebn0_db": 4.0, "nope": 1})

    def test_matching_by_label_code_and_kind(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        nms = next(e for e in report.experiments if e.label == "nms")
        assert ReferenceCrossing(target=1e-3, ebn0_db=4.0, label="nms").matches(nms)
        assert not ReferenceCrossing(target=1e-3, ebn0_db=4.0, label="other").matches(nms)
        assert ReferenceCrossing(target=1e-3, ebn0_db=4.0, code_key="scaled31").matches(nms)
        assert not ReferenceCrossing(target=1e-3, ebn0_db=4.0, code_key="ccsds-c2").matches(nms)
        assert ReferenceCrossing(target=1e-3, ebn0_db=4.0, decoder_kind="nms").matches(nms)
        assert not ReferenceCrossing(target=1e-3, ebn0_db=4.0, decoder_kind="quantized").matches(nms)
        # No selectors: matches anything.
        assert ReferenceCrossing(target=1e-3, ebn0_db=4.0).matches(nms)

    def test_paper_set_shape(self):
        assert PAPER_REFERENCE_CROSSINGS
        for reference in PAPER_REFERENCE_CROSSINGS:
            assert reference.code_key == "ccsds-c2"
            assert reference.source
            assert 3.0 < reference.ebn0_db < 5.0

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "refs.json"
        save_references(PAPER_REFERENCE_CROSSINGS, path)
        assert load_references(path) == PAPER_REFERENCE_CROSSINGS

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope", "references": []}))
        with pytest.raises(ValueError, match="unknown reference format"):
            load_references(path)

    def test_load_rejects_non_object_top_level(self, tmp_path):
        # Regression: a JSON array used to escape as AttributeError, which
        # the CLI's usage-error handling does not catch.
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a reference file"):
            load_references(path)


class TestCompareToReference:
    def test_pass_within_tolerance(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        measured = next(e for e in report.experiments if e.label == "nms").ber_crossing
        references = [ReferenceCrossing(target=1e-3, ebn0_db=measured.ebn0_db + 0.05,
                                        label="nms")]
        check = compare_to_reference(report, 0.1, references=references)
        assert check.passed
        [comparison] = check.comparisons
        assert comparison.status == "ok"
        assert comparison.delta_db == pytest.approx(-0.05)
        assert comparison.exact is True

    def test_fail_beyond_tolerance(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        measured = next(e for e in report.experiments if e.label == "nms").ber_crossing
        references = [ReferenceCrossing(target=1e-3, ebn0_db=measured.ebn0_db - 0.5,
                                        label="nms")]
        check = compare_to_reference(report, 0.1, references=references)
        assert not check.passed
        assert check.failures[0].status == "drift"
        assert check.failures[0].delta_db == pytest.approx(0.5)

    def test_tolerance_boundary_is_inclusive(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        measured = next(e for e in report.experiments if e.label == "nms").ber_crossing
        at_boundary = [ReferenceCrossing(target=1e-3,
                                         ebn0_db=measured.ebn0_db - 0.1, label="nms")]
        assert compare_to_reference(report, 0.1, references=at_boundary).passed
        past_boundary = [ReferenceCrossing(target=1e-3,
                                           ebn0_db=measured.ebn0_db - 0.10001,
                                           label="nms")]
        assert not compare_to_reference(report, 0.1, references=past_boundary).passed

    def test_reference_target_overrides_report_target(self, tmp_path):
        # The report was built at target 1e-3; the reference asks for 1e-2
        # and must be compared at *its* crossing, not the report's.
        store = fabricated_store(tmp_path)
        report = report_for(store)
        curve = next(e for e in report.experiments if e.label == "nms").record.curve
        expected = curve.ebn0_at_ber(1e-2)
        references = [ReferenceCrossing(target=1e-2, ebn0_db=expected, label="nms")]
        check = compare_to_reference(report, 0.01, references=references)
        assert check.passed
        assert check.comparisons[0].measured_db == pytest.approx(expected)

    def test_no_crossing_is_a_failure(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        references = [ReferenceCrossing(target=1e-12, ebn0_db=4.0, label="nms")]
        check = compare_to_reference(report, 0.1, references=references)
        assert not check.passed
        assert check.comparisons[0].status == "no-crossing"

    def test_unmatched_alone_does_not_pass(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        check = compare_to_reference(report, 0.1)  # paper set: ccsds-c2 only
        assert all(c.status == "unmatched" for c in check.comparisons)
        assert not check.matched
        assert not check.passed

    def test_kind_reference_checks_every_variant(self, tmp_path):
        code = CodeSpec(family="scaled", circulant=31)
        spec = CampaignSpec(
            name="variants", seed=1, ebn0=(3.0, 4.0, 5.0),
            config=SimulationConfig(max_frames=10, target_frame_errors=5,
                                    batch_frames=5, all_zero_codeword=True),
            experiments=[
                ExperimentSpec("nms-a", code, DecoderSpec("nms", 10)),
                ExperimentSpec("nms-b", code, DecoderSpec("nms", 20)),
            ],
        )
        store = ResultStore.create(tmp_path / "variants", spec)
        for label in ("nms-a", "nms-b"):
            for ebn0 in spec.ebn0:
                store.record_point(label, make_point(ebn0, 10 ** (-ebn0 + 1.5)))
        report = report_for(store)
        references = [ReferenceCrossing(target=1e-3, ebn0_db=4.5, decoder_kind="nms")]
        check = compare_to_reference(report, 0.2, references=references)
        assert len(check.matched) == 2
        assert {c.label for c in check.matched} == {"nms-a", "nms-b"}

    def test_invalid_tolerance_rejected(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        with pytest.raises(ValueError, match="tolerance"):
            compare_to_reference(report, 0.0)

    def test_table_and_dict_outputs(self, tmp_path):
        report = report_for(fabricated_store(tmp_path))
        measured = next(e for e in report.experiments if e.label == "nms").ber_crossing
        references = [ReferenceCrossing(target=1e-3, ebn0_db=measured.ebn0_db,
                                        label="nms", source="fixture")]
        check = compare_to_reference(report, 0.1, references=references)
        table = check.to_table()
        assert "Reference crossings" in table and "fixture" in table
        data = check.as_dict()
        assert data["passed"] is True
        assert data["comparisons"][0]["status"] == "ok"


class TestVerifyCLI:
    def _write_references(self, tmp_path, store, *, shift=0.0):
        report = report_for(store)
        measured = next(e for e in report.experiments if e.label == "nms").ber_crossing
        path = tmp_path / f"refs-{shift}.json"
        save_references(
            [ReferenceCrossing(target=1e-3, ebn0_db=measured.ebn0_db + shift,
                               label="nms", source="fixture")],
            path,
        )
        return path

    def test_verify_passes_within_tolerance(self, tmp_path, capsys):
        store = fabricated_store(tmp_path)
        refs = self._write_references(tmp_path, store)
        assert main([
            "campaign", "verify", str(store.directory), "--reference", str(refs),
        ]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out and "Reference crossings" in out

    def test_verify_fails_on_drift(self, tmp_path, capsys):
        store = fabricated_store(tmp_path)
        refs = self._write_references(tmp_path, store, shift=1.0)
        assert main([
            "campaign", "verify", str(store.directory), "--reference", str(refs),
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "drift" in captured.out

    def test_verify_custom_tolerance_allows_drift(self, tmp_path):
        store = fabricated_store(tmp_path)
        refs = self._write_references(tmp_path, store, shift=1.0)
        assert main([
            "campaign", "verify", str(store.directory),
            "--reference", str(refs), "--tolerance-db", "1.5",
        ]) == 0

    def test_verify_fails_when_nothing_matches(self, tmp_path, capsys):
        store = fabricated_store(tmp_path)
        assert main(["campaign", "verify", str(store.directory)]) == 1
        assert "no reference matched" in capsys.readouterr().err

    def test_verify_bad_reference_file_exits_2(self, tmp_path, capsys):
        store = fabricated_store(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([
            "campaign", "verify", str(store.directory), "--reference", str(bad),
        ]) == 2
        assert "cannot load reference file" in capsys.readouterr().err

    def test_verify_list_reference_file_exits_2(self, tmp_path, capsys):
        store = fabricated_store(tmp_path)
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert main([
            "campaign", "verify", str(store.directory), "--reference", str(bad),
        ]) == 2
        assert "cannot load reference file" in capsys.readouterr().err

    def test_verify_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "verify", str(tmp_path / "nope")]) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_verify_fails_on_unreadable_experiment(self, tmp_path, capsys):
        # A corrupt curve file must fail the gate even when every *readable*
        # experiment passes — its references would otherwise silently become
        # "unmatched" and the corruption would ride a green build.
        store = fabricated_store(tmp_path)
        refs = self._write_references(tmp_path, store)
        store.curve_path("min-sum").write_text("{broken json")
        assert main([
            "campaign", "verify", str(store.directory), "--reference", str(refs),
        ]) == 1
        err = capsys.readouterr().err
        assert "unreadable" in err and "min-sum" in err


class TestChannelAwareMatching:
    """References are channel-scoped: AWGN-recorded values must not gate
    hard-decision variants of the same code/decoder."""

    def two_channel_store(self, tmp_path):
        code = CodeSpec(family="scaled", circulant=31)
        from repro.sim.campaign import ChannelSpec

        spec = CampaignSpec(
            name="channels",
            seed=4,
            ebn0=(3.0, 4.0, 5.0),
            config=SimulationConfig(max_frames=100, target_frame_errors=50,
                                    batch_frames=10, all_zero_codeword=True),
            experiments=[
                ExperimentSpec("nms-awgn", code, DecoderSpec("nms", 18)),
                ExperimentSpec("nms-bsc", code, DecoderSpec("nms", 18),
                               channel=ChannelSpec(kind="bsc")),
            ],
        )
        store = ResultStore.create(tmp_path / "channels", spec)
        # The BSC curve sits 0.5 dB to the right (5x the verify
        # tolerance) — physics, not drift.
        for label, shift in {"nms-awgn": 0.0, "nms-bsc": 0.5}.items():
            for ebn0 in spec.ebn0:
                ber = min(0.5, 10 ** (-1.0 - 1.5 * (ebn0 - shift - 3.0)))
                store.record_point(label, make_point(ebn0, ber))
        return store

    def test_channel_less_reference_matches_only_awgn(self, tmp_path):
        report = report_for(self.two_channel_store(tmp_path))
        awgn_crossing = next(
            e for e in report.experiments if e.label == "nms-awgn"
        ).ber_crossing.ebn0_db
        reference = ReferenceCrossing(
            target=1e-3, ebn0_db=awgn_crossing,
            code_key="scaled31", decoder_kind="nms",
        )
        by_label = {e.label: e for e in report.experiments}
        assert reference.matches(by_label["nms-awgn"])
        assert not reference.matches(by_label["nms-bsc"])
        # The verify gate therefore passes: the BSC curve is out of scope.
        check = compare_to_reference(report, 0.1, references=[reference])
        assert check.passed
        assert [c.label for c in check.matched] == ["nms-awgn"]

    def test_channel_key_selector_targets_a_non_awgn_link(self, tmp_path):
        report = report_for(self.two_channel_store(tmp_path))
        bsc_crossing = next(
            e for e in report.experiments if e.label == "nms-bsc"
        ).ber_crossing.ebn0_db
        reference = ReferenceCrossing(
            target=1e-3, ebn0_db=bsc_crossing,
            code_key="scaled31", decoder_kind="nms", channel_key="bsc",
        )
        check = compare_to_reference(report, 0.1, references=[reference])
        assert check.passed
        assert [c.label for c in check.matched] == ["nms-bsc"]
        assert "bsc" in reference.describe()

    def test_label_pin_overrides_the_channel_default(self, tmp_path):
        report = report_for(self.two_channel_store(tmp_path))
        by_label = {e.label: e for e in report.experiments}
        pinned = ReferenceCrossing(target=1e-3, ebn0_db=5.0, label="nms-bsc")
        assert pinned.matches(by_label["nms-bsc"])
        assert not pinned.matches(by_label["nms-awgn"])

    def test_channel_key_survives_json_round_trip(self, tmp_path):
        path = tmp_path / "refs.json"
        save_references(
            [ReferenceCrossing(target=1e-3, ebn0_db=4.0, channel_key="bsc")],
            path,
        )
        (loaded,) = load_references(path)
        assert loaded.channel_key == "bsc"
        assert loaded.as_dict()["channel_key"] == "bsc"
