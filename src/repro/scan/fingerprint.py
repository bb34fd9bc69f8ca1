"""``app-fingerprint``: attack I (table III) as a scanner detector.

Runs the table III campaign (``table3_lab.run_fingerprinting`` in the
lab, seed 11 unless the scan overrides it), then re-expresses each
held-out test trace as a per-victim
:class:`~repro.scan.findings.Finding` whose confidence is the
majority-vote share (the same ratio ``TraceVerdict.confidence``
carries) and whose metrics record the vote margin.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..experiments.table3_lab import run_fingerprinting
from ..operators.profiles import LAB
from .base import Detector, ScanContext, register
from .findings import (EvidenceWindow, Finding, clip01, make_finding,
                       severity_from_confidence, vote_confidence)


@register
class AppFingerprintDetector(Detector):
    """Fingerprint held-out captures and report one finding per victim."""

    detector_id = "app-fingerprint"
    title = "mobile-app fingerprinting of captured traces (table III)"

    def run(self, ctx: ScanContext) -> List[Finding]:
        result = ctx.artifact("fingerprint", lambda: run_fingerprinting(
            LAB, ctx.scale, seed=ctx.seed(11)))
        findings: List[Finding] = []
        n_apps = len(result.app_classes)
        for index, meta in enumerate(result.test_meta):
            votes = result.predictions[result.trace_ids == index]
            if not len(votes):
                continue
            counts = np.bincount(votes, minlength=n_apps)
            app_id = int(np.argmax(counts))
            app = result.app_classes[app_id]
            category = result.category_classes[
                int(result.app_of_category[app_id])]
            top = int(counts[app_id])
            second = int(np.partition(counts, -2)[-2]) if n_apps > 1 else 0
            confidence = vote_confidence(top, len(votes))
            margin = clip01((top - second) / len(votes))
            victim = f"{meta['user']}@{meta['cell']}#{index:03d}"
            findings.append(make_finding(
                detector=self.detector_id, victim=victim,
                summary=f"app fingerprint: {app} [{category}]",
                severity=severity_from_confidence(confidence),
                confidence=confidence,
                evidence=[EvidenceWindow(
                    cell=meta["cell"], start_s=meta["start_s"],
                    end_s=meta["end_s"], kind="capture",
                    detail=f"{meta['windows']} windows")],
                metrics={"windows": float(len(votes)),
                         "vote_margin": margin,
                         "top_votes": float(top)}))
        primary = next(iter(result.scores))
        mean_f = float(np.mean([result.scores[primary][app][0]
                                for app in result.apps]))
        findings.append(make_finding(
            detector=self.detector_id, victim="campaign",
            summary=(f"fingerprint campaign over {len(result.apps)} "
                     f"apps ({result.operator})"),
            severity="info", confidence=clip01(mean_f),
            metrics={"mean_f": mean_f,
                     "test_traces": float(len(result.test_meta)),
                     "views": float(len(result.scores))}))
        return findings
