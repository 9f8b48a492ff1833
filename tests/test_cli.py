"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.io.alist import read_alist
from repro.io.circulant_table import load_circulant_spec


class TestInfo:
    def test_scaled_code_summary(self, capsys):
        assert main(["info", "--circulant", "31"]) == 0
        out = capsys.readouterr().out
        assert "(496," in out            # scaled code length 16 * 31
        assert "Table 1" in out


class TestBuildCode:
    def test_writes_alist_and_spec(self, tmp_path, capsys):
        alist_path = tmp_path / "code.alist"
        spec_path = tmp_path / "code.json"
        code_result = main([
            "build-code", "--circulant", "31",
            "--alist", str(alist_path), "--spec", str(spec_path),
        ])
        assert code_result == 0
        pcm = read_alist(alist_path)
        assert pcm.block_length == 16 * 31
        spec = load_circulant_spec(spec_path)
        assert spec.circulant_size == 31
        assert json.loads(spec_path.read_text())["circulant_size"] == 31

    def test_requires_an_output(self, capsys):
        assert main(["build-code", "--circulant", "31"]) == 2


class TestDeletedComponents:
    """The options and choices of deleted components are usage errors."""

    @pytest.mark.parametrize("command", ["info", "build-code", "simulate"])
    def test_deepspace_option_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--circulant", "31", "--deepspace", "1/2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --deepspace 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, name",
        [("--decoder", "gallager-b"), ("--decoder", "wbf"), ("--channel", "rayleigh")],
    )
    def test_simulate_refuses_a_deleted_kind(self, capsys, option, name):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--circulant", "31", option, name])
        assert excinfo.value.code == 2
        assert f"argument {option}: invalid choice: '{name}'" in capsys.readouterr().err


class TestThroughput:
    def test_default_table(self, capsys):
        assert main(["throughput"]) == 0
        out = capsys.readouterr().out
        assert "130 Mbps" in out
        assert "1038 Mbps" in out

    def test_custom_iterations_and_clock(self, capsys):
        assert main(["throughput", "--iterations", "20", "--clock", "100"]) == 0
        out = capsys.readouterr().out
        assert "100 MHz" in out


class TestResources:
    def test_low_cost_default_device(self, capsys):
        assert main(["resources", "--config", "low-cost"]) == 0
        out = capsys.readouterr().out
        assert "Cyclone II" in out
        assert "Memory breakdown" in out

    def test_high_speed_named_device(self, capsys):
        assert main(["resources", "--config", "high-speed", "--device", "EP2S180"]) == 0
        assert "Stratix II" in capsys.readouterr().out

    def test_unknown_device(self, capsys):
        assert main(["resources", "--device", "no-such-fpga"]) == 2


class TestSimulate:
    def test_quick_sweep(self, tmp_path, capsys):
        save_path = tmp_path / "curve.json"
        result = main([
            "simulate", "--circulant", "31", "--ebn0", "4.0",
            "--frames", "30", "--errors", "30", "--batch", "30",
            "--iterations", "8", "--save", str(save_path),
        ])
        assert result == 0
        out = capsys.readouterr().out
        assert "BER / PER vs Eb/N0" in out
        data = json.loads(save_path.read_text())
        assert data["label"] == "nms"
        assert len(data["points"]) == 1

    def test_decoder_choices(self, capsys):
        result = main([
            "simulate", "--circulant", "31", "--decoder", "min-sum",
            "--ebn0", "5.0", "--frames", "20", "--errors", "20", "--batch", "20",
            "--iterations", "5",
        ])
        assert result == 0

    def test_random_data_path(self, capsys):
        result = main([
            "simulate", "--circulant", "31", "--random-data",
            "--ebn0", "6.0", "--frames", "10", "--errors", "10", "--batch", "10",
            "--iterations", "5",
        ])
        assert result == 0

    def test_resume_skips_completed_points_and_updates_file(self, tmp_path, capsys):
        """--resume: kill-and-rerun completes to the uninterrupted counts."""
        curve_path = tmp_path / "curve.json"
        base = [
            "simulate", "--circulant", "31", "--frames", "30", "--errors", "30",
            "--batch", "10", "--iterations", "5", "--seed", "9",
        ]
        # Uninterrupted reference over the full grid.
        full_path = tmp_path / "full.json"
        assert main(base + ["--ebn0", "3.0", "5.0", "--save", str(full_path)]) == 0
        # "Interrupted" run measured only the first grid point...
        assert main(base + ["--ebn0", "3.0", "--save", str(curve_path)]) == 0
        capsys.readouterr()
        # ...resuming the full grid skips it and writes back in place.
        assert main(base + ["--ebn0", "3.0", "5.0", "--resume", str(curve_path)]) == 0
        out = capsys.readouterr().out
        assert "skipping 1 completed point(s)" in out
        resumed = json.loads(curve_path.read_text())
        assert resumed["points"] == json.loads(full_path.read_text())["points"]

    def test_resume_refuses_a_different_channel_or_decoder(self, tmp_path, capsys):
        """A curve must not silently mix measurements from different links."""
        curve_path = tmp_path / "curve.json"
        base = [
            "simulate", "--circulant", "31", "--frames", "20", "--errors", "20",
            "--batch", "10", "--iterations", "5", "--seed", "9",
        ]
        assert main(base + ["--ebn0", "4.0", "--save", str(curve_path)]) == 0
        # The saved curve carries its identity metadata.
        metadata = json.loads(curve_path.read_text())["metadata"]
        assert metadata == {"code": "ccsds-c2-c31", "decoder": "nms",
                            "iterations": 5, "channel": "awgn", "seed": 9}
        capsys.readouterr()
        assert main(base + ["--ebn0", "5.0", "--channel", "bsc",
                            "--resume", str(curve_path)]) == 2
        err = capsys.readouterr().err
        assert "different configuration" in err and "bsc" in err
        assert main(base + ["--ebn0", "5.0", "--decoder", "min-sum",
                            "--resume", str(curve_path)]) == 2
        assert "min-sum" in capsys.readouterr().err
        # A different code, iteration budget or seed is refused too.
        mismatches = (
            ["--circulant", "63"], ["--iterations", "8"], ["--seed", "10"],
        )
        for override in mismatches:
            args = base.copy()
            for flag, value in zip(override[::2], override[1::2]):
                args[args.index(flag) + 1] = value
            assert main(args + ["--ebn0", "5.0", "--resume", str(curve_path)]) == 2
            assert "different configuration" in capsys.readouterr().err
        # Matching identity (and legacy curves without metadata) still resume.
        assert main(base + ["--ebn0", "4.0", "5.0",
                            "--resume", str(curve_path)]) == 0
        legacy = json.loads(curve_path.read_text())
        legacy["metadata"] = {}
        curve_path.write_text(json.dumps(legacy))
        capsys.readouterr()
        assert main(base + ["--ebn0", "5.0", "--channel", "bsc",
                            "--resume", str(curve_path)]) == 0

    def test_channel_option_changes_the_link(self, capsys):
        """--channel is a registered axis; hard decisions cannot beat soft."""

        def ber(channel):
            assert main([
                "simulate", "--circulant", "31", "--channel", channel,
                "--ebn0", "4.0", "--frames", "30", "--errors", "30",
                "--batch", "10", "--iterations", "8", "--seed", "11",
            ]) == 0
            out = capsys.readouterr().out
            row = [l for l in out.splitlines() if l.startswith("4.00")][-1]
            return float(row.split("|")[1])

        assert ber("bsc") >= ber("awgn")

    def test_resume_with_missing_file_starts_fresh(self, tmp_path, capsys):
        curve_path = tmp_path / "new.json"
        result = main([
            "simulate", "--circulant", "31", "--ebn0", "4.0",
            "--frames", "20", "--errors", "20", "--batch", "10",
            "--iterations", "5", "--resume", str(curve_path),
        ])
        assert result == 0
        assert len(json.loads(curve_path.read_text())["points"]) == 1

    def test_workers_and_adaptive_batch(self, capsys):
        """--workers shards the sweep over a pool; same seed, same counts."""
        args = [
            "simulate", "--circulant", "31", "--ebn0", "4.0",
            "--frames", "20", "--errors", "20", "--batch", "5",
            "--iterations", "5", "--adaptive-batch", "--seed", "3",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        serial_rows = [l for l in serial_out.splitlines() if l.startswith("Eb/N0")]
        parallel_rows = [l for l in parallel_out.splitlines() if l.startswith("Eb/N0")]
        assert serial_rows == parallel_rows
