"""The ``scan`` subcommand: exit codes, gating, baselines, byte-identity.

Runs use the smoke scale with the correlation-only selection (lab
environment): the cheapest real campaign, and a fixed-seed run of the
table VII driver, so every exit code asserted here is deterministic.
"""

import json

import pytest

from repro.baseline import write_baseline
from repro.cli import main
from repro.operators import get_profile
from repro.scan import DETECTOR_ORDER, ScanConfig, run_scan
from repro.scan.report import validate_document

FAST_ARGS = ["scan", "--detectors", "identity-correlation",
             "--environments", "Lab", "--scale", "smoke"]


class TestScanCLI:
    def test_list_detectors(self, capsys):
        assert main(["scan", "--list-detectors"]) == 0
        out = capsys.readouterr().out
        for detector_id in DETECTOR_ORDER:
            assert detector_id in out
        assert "requires" in out      # victim-profile lists dependencies

    def test_unknown_detector_exits_2(self):
        assert main(["scan", "--detectors", "bogus"]) == 2

    def test_unknown_environment_exits_2(self):
        assert main(["scan", "--environments", "Atlantis"]) == 2

    def test_severity_gate_trips(self, capsys):
        # The lab correlation sweep flags pairs at high severity, so the
        # default --fail-on high gate trips ...
        assert main(FAST_ARGS) == 1
        capsys.readouterr()
        # ... while critical-only and never pass the same findings.
        assert main(FAST_ARGS + ["--fail-on", "critical"]) == 0
        capsys.readouterr()
        assert main(FAST_ARGS + ["--fail-on", "never"]) == 0

    def test_json_output_validates(self, capsys):
        assert main(FAST_ARGS + ["--format", "json",
                                 "--fail-on", "never"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_document(document) is document
        assert document["detectors"] == ["identity-correlation"]
        assert document["counts"]["identity-correlation"] > 0

    def test_text_output_summarises(self, capsys):
        assert main(FAST_ARGS + ["--fail-on", "never"]) == 0
        out = capsys.readouterr().out
        assert "identity-correlation" in out
        assert "max severity high" in out

    def test_out_file_and_byte_identity_across_workers(self, tmp_path,
                                                       capsys):
        # The CI scan job's contract: JSON reports are byte-identical
        # across worker counts (serial vs process ParallelMap backends).
        first = tmp_path / "scan1.json"
        second = tmp_path / "scan2.json"
        assert main(FAST_ARGS + ["--format", "json", "--fail-on", "never",
                                 "--workers", "1",
                                 "--out", str(first)]) == 0
        capsys.readouterr()
        assert main(FAST_ARGS + ["--format", "json", "--fail-on", "never",
                                 "--workers", "2",
                                 "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        validate_document(json.loads(first.read_text()))


class TestScanBaselineCLI:
    @pytest.fixture()
    def baseline(self, tmp_path):
        # The FAST_ARGS scan's own findings as a baseline.  Written
        # through the library: `--update-baseline` refuses a
        # `--detectors` run, and a full scan costs seconds.
        path = tmp_path / "baseline.json"
        result = run_scan(["identity-correlation"], ScanConfig(
            scale="smoke", environments=(get_profile("Lab"),)))
        write_baseline(path, result.findings, "scan")
        return path

    def test_baseline_suppresses_and_ungates(self, baseline, capsys):
        # Same scan against its own baseline: everything suppressed,
        # severity gate no longer trips, report says so.
        assert main(FAST_ARGS + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "clean:" in out
        assert "baselined" in out

    def test_baselined_json_counts(self, baseline, capsys):
        assert main(FAST_ARGS + ["--format", "json",
                                 "--baseline", str(baseline)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_document(document) is document
        assert document["findings"] == []
        assert document["baselined"] > 0
        assert document["max_severity"] is None

    def test_partial_update_baseline_exits_2(self, tmp_path, capsys):
        # A --detectors run cannot rewrite the baseline (it would drop
        # the other detectors' entries); refused before any campaign.
        path = tmp_path / "baseline.json"
        assert main(FAST_ARGS + ["--update-baseline",
                                 "--baseline", str(path)]) == 2
        assert "--detectors" in capsys.readouterr().err
        assert not path.exists()

    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        assert main(FAST_ARGS + ["--baseline", str(path)]) == 2


#: Malformed baseline entries lists: each must be rejected as bad input.
MALFORMED_ENTRIES = {
    "no-fingerprint": [{"count": 1}],
    "fingerprint-not-string": [{"fingerprint": 5, "count": 1}],
    "negative-count": [{"fingerprint": "0123456789abcdef", "count": -1}],
    "entry-not-object": [1],
    "entries-not-list": {"0123456789abcdef": 1},
}


@pytest.mark.parametrize("command", ["scan", "lint"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES) + ["missing"])
def test_malformed_baseline_exits_2(tmp_path, capsys, command, case):
    # Both CLIs share one baseline loader; a bad baseline is bad input
    # (exit 2), never a traceback, and the scan rejects it before
    # running any campaign.
    path = tmp_path / "baseline.json"
    if case != "missing":
        version = 1 if command == "scan" else 3
        path.write_text(json.dumps({"version": version,
                                    "entries": MALFORMED_ENTRIES[case]}))
    if command == "scan":
        args = FAST_ARGS
    else:
        source = tmp_path / "clean"
        source.mkdir()
        (source / "module.py").write_text("VALUE = 1\n")
        args = ["lint", str(source)]
    assert main(args + ["--baseline", str(path)]) == 2
    assert "baseline" in capsys.readouterr().err
