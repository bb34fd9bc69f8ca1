"""Detector findings vs the table driver results they are built from.

Each attack detector runs its table driver (III, V, VII) once per scan
and shares the result as a scan artifact.  These tests pin that result
to golden tables rendered from the drivers, check that every finding
says what the driver result says — per-victim verdicts matching the
``classify_trace`` API, timeline rows, flagged pairs, identity
bindings — and repeat the whole scan on the process backend to assert
the rendered JSON is byte-identical.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import runtime
from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.fingerprint import HierarchicalFingerprinter
from repro.operators import LAB
from repro.scan import run_scan
from repro.scan.findings import evidence_confidence
from repro.scan.identity import EXPOSURE_HALF_LIFE, LINKABILITY_HALF_LIFE
from repro.scan.report import render_json

from tests.scan.conftest import MICRO, MICRO_CONFIG

pytestmark = pytest.mark.tier1

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("artifact, golden", [
    ("fingerprint", "table3_micro.txt"),
    ("history", "table5_micro.txt"),
    ("correlation", "table7_micro.txt"),
])
def test_driver_tables_match_golden(micro_scan, artifact, golden):
    # Rendered by run_fingerprinting(LAB, MICRO, seed=11),
    # table5_history.run(MICRO) and
    # table7_correlation.run(MICRO, environments=(LAB,)).
    expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    assert micro_scan.artifacts[artifact].table() + "\n" == expected


class TestFingerprintDifferential:
    """``app-fingerprint`` findings vs ``classify_trace`` verdicts."""

    @pytest.fixture(scope="class")
    def held_out(self, micro_scan):
        """The test traces and a refit primary-view (Down+UP) model."""
        apps = micro_scan.artifacts["fingerprint"].apps
        train = collect_traces(apps, operator=LAB,
                               traces_per_app=MICRO.traces_per_app,
                               duration_s=MICRO.trace_duration_s,
                               seed=11, day=0)
        test = collect_traces(apps, operator=LAB,
                              traces_per_app=max(
                                  1, MICRO.traces_per_app // 2),
                              duration_s=MICRO.trace_duration_s,
                              seed=11 + 5000, day=0)
        model = HierarchicalFingerprinter(n_trees=MICRO.n_trees, seed=12)
        model.fit(windows_from_traces(train))
        return test, model

    def test_per_victim_verdicts_match_classify_trace(self, micro_scan,
                                                      held_out):
        # The detector's bincount/argmax per-trace grouping of the
        # driver's window predictions must agree with the per-trace
        # verdict API on every held-out capture.
        result = micro_scan.artifacts["fingerprint"]
        test, model = held_out
        assert len(result.test_meta) == len(test)
        for index, trace in enumerate(test):
            votes = result.predictions[result.trace_ids == index]
            verdict = model.classify_trace(trace)
            if verdict is None:
                assert not len(votes)
                continue
            app_id = int(np.argmax(np.bincount(
                votes, minlength=len(result.app_classes))))
            assert result.app_classes[app_id] == verdict.app

    def test_findings_carry_verdict_confidences(self, micro_scan,
                                                held_out):
        test, model = held_out
        findings = [f for f in micro_scan.findings
                    if f.detector == "app-fingerprint"
                    and f.victim != "campaign"]
        by_index = {int(f.victim.rsplit("#", 1)[1]): f for f in findings}
        for index, trace in enumerate(test):
            verdict = model.classify_trace(trace)
            if verdict is None:
                assert index not in by_index
                continue
            finding = by_index[index]
            assert finding.confidence == verdict.confidence
            assert verdict.app in finding.summary


class TestHistoryDifferential:
    """``app-history`` findings vs the table V timeline."""

    def test_findings_mirror_timeline(self, micro_scan):
        result = micro_scan.artifacts["history"]
        findings = [f for f in micro_scan.findings
                    if f.detector == "app-history"
                    and f.victim != "campaign"]
        assert len(findings) == len(result.findings)
        expected = sorted(
            (row.start_s, row.end_s, row.zone, float(row.confidence))
            for row in result.findings)
        actual = sorted(
            (f.evidence[0].start_s, f.evidence[0].end_s,
             f.evidence[0].cell, f.confidence) for f in findings)
        for (start, end, zone, confidence), got in zip(expected, actual):
            assert got == (start, end, zone, min(1.0, max(0.0,
                                                          confidence)))


class TestCorrelationDifferential:
    """``identity-correlation`` findings vs the table VII predictions."""

    def test_flagged_findings_match_predictions(self, micro_scan):
        result = micro_scan.artifacts["correlation"]
        flagged = sum(int(np.sum(result.y_pred[key]))
                      for key in result.y_pred)
        findings = [f for f in micro_scan.findings
                    if f.detector == "identity-correlation"
                    and f.victim != "campaign"]
        assert len(findings) == flagged
        for finding in findings:
            metrics = dict(finding.metrics)
            env, app, pair = finding.victim.split(":")
            index = int(pair.replace("pair", ""))
            assert result.y_pred[(env, app)][index] == 1
            decision = result.attacks[(env, app)].decision_scores(
                result.pairs[(env, app)])
            assert metrics["decision_score"] == float(decision[index])


class TestIdentityDifferential:
    """Identity-layer detectors vs the mappers they read."""

    def test_tmsi_exposure_recomputation(self, micro_scan):
        attack = micro_scan.artifacts["history"].attack
        tmsi = attack.victim_tmsi
        findings = {f.summary.split(":")[0].replace("TMSI exposed in ", "")
                    : f for f in micro_scan.findings
                    if f.detector == "tmsi-exposure"}
        expected_zones = [zone for zone in sorted(attack.sniffers)
                          if attack.sniffers[zone].mapper
                          .bindings_for_tmsi(tmsi)]
        assert sorted(findings) == expected_zones
        for zone in expected_zones:
            sniffer = attack.sniffers[zone]
            bindings = sniffer.mapper.bindings_for_tmsi(tmsi)
            records = len(sniffer.trace_for_tmsi(tmsi))
            finding = findings[zone]
            metrics = dict(finding.metrics)
            assert metrics["bindings"] == float(len(bindings))
            assert metrics["records"] == float(records)
            assert finding.confidence == evidence_confidence(
                records, EXPOSURE_HALF_LIFE)
            assert len(finding.evidence) == len(bindings)

    def test_paging_linkability_recomputation(self, micro_scan):
        attack = micro_scan.artifacts["history"].attack
        tmsi = attack.victim_tmsi
        bindings = []
        zones = 0
        for zone in sorted(attack.sniffers):
            zone_bindings = attack.sniffers[zone].mapper \
                .bindings_for_tmsi(tmsi)
            if zone_bindings:
                zones += 1
                bindings.extend(zone_bindings)
        findings = [f for f in micro_scan.findings
                    if f.detector == "paging-linkability"]
        if len(bindings) < 2:
            assert findings == []
            return
        assert len(findings) == 1
        metrics = dict(findings[0].metrics)
        assert metrics["bindings"] == float(len(bindings))
        assert metrics["links"] == float(len(bindings) - 1)
        assert metrics["zones"] == float(zones)
        assert findings[0].confidence == evidence_confidence(
            len(bindings) - 1, LINKABILITY_HALF_LIFE)


class TestBackendEquivalence:
    """The whole scan, serial vs process backend, byte for byte."""

    def test_process_backend_bit_identical(self, micro_scan):
        with runtime.overrides(workers=2):
            parallel = run_scan(config=MICRO_CONFIG)
        assert ([f.as_dict() for f in parallel.findings]
                == [f.as_dict() for f in micro_scan.findings])
        assert render_json(parallel) == render_json(micro_scan)
