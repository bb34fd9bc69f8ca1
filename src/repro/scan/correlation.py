"""``identity-correlation``: attack III (table VII) as a detector.

Runs the table VII sweep (``table7_correlation.run``, seed 53 unless
the scan overrides it, over the scan's environments) and reports every
held-out pair the sweep's verdict flagged: ``predict_pairs`` drives the
flagged/not-flagged decision, while ``decision_scores`` (the logistic
model's P(communicating), a pure function of the already-fitted
weights) calibrates each flagged pair's confidence.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..experiments import table7_correlation
from .base import Detector, ScanContext, register
from .findings import (EvidenceWindow, Finding, clip01, make_finding,
                       severity_from_confidence)


@register
class IdentityCorrelationDetector(Detector):
    """Flag candidate user pairs whose radio rhythms correlate."""

    detector_id = "identity-correlation"
    title = "DTW + logistic communicating-pair verdict (table VII)"

    def run(self, ctx: ScanContext) -> List[Finding]:
        result = ctx.artifact("correlation", lambda: table7_correlation.run(
            ctx.scale, seed=ctx.seed(53),
            environments=ctx.config.environments))
        environments = list(result.scores)
        findings: List[Finding] = []
        for env_name in environments:
            for app in result.apps:
                key = (env_name, app)
                y_pred = result.y_pred[key]
                pairs = result.pairs[key]
                decision = result.attacks[key].decision_scores(pairs)
                for pair_index in np.flatnonzero(y_pred == 1):
                    pair_index = int(pair_index)
                    trace_a, trace_b = pairs[pair_index]
                    confidence = clip01(float(decision[pair_index]))
                    evidence = []
                    for leg, trace in (("a", trace_a), ("b", trace_b)):
                        if not len(trace):
                            continue
                        evidence.append(EvidenceWindow(
                            cell=trace.cell or "cell",
                            start_s=float(trace.start_s),
                            end_s=float(trace.end_s), kind="capture",
                            detail=f"leg {leg}: "
                                   f"{trace.user or 'unknown user'}"))
                    findings.append(make_finding(
                        detector=self.detector_id,
                        victim=f"{env_name}:{app}:pair{pair_index:02d}",
                        summary=(f"communicating pair flagged: {app} "
                                 f"({env_name})"),
                        severity=severity_from_confidence(confidence),
                        confidence=confidence, evidence=evidence,
                        metrics={"decision_score": float(
                                     decision[pair_index]),
                                 "pair_index": float(pair_index)}))
        precision_metrics = {}
        flagged = 0
        for env_name in environments:
            for app in result.apps:
                p, r = result.scores[env_name][app]
                precision_metrics[f"precision.{env_name}.{app}"] = float(p)
                precision_metrics[f"recall.{env_name}.{app}"] = float(r)
                flagged += int(np.sum(result.y_pred[(env_name, app)]))
        mean_precision = float(np.mean(
            [result.scores[env][app][0] for env in environments
             for app in result.apps]))
        precision_metrics["flagged_pairs"] = float(flagged)
        findings.append(make_finding(
            detector=self.detector_id, victim="campaign",
            summary=(f"correlation sweep: {flagged} pair(s) flagged "
                     f"across {len(environments)} "
                     f"environment(s)"),
            severity="info", confidence=clip01(mean_precision),
            metrics=precision_metrics))
        return findings
