"""``app-history``: attack II (table V) as a scanner detector.

Runs the table V campaign (``table5_history.run`` on T-Mobile, seed 31
unless the scan overrides it), then emits one finding per
reconstructed timeline row.  The victim handle is the attacker-side
identity (the TMSI learned by the zone sniffers), not the simulator's
ground-truth UE name: findings describe what the attacker can actually
claim.

The campaign result (including the attack's per-zone sniffers and
victim TMSI) is shared through :func:`history_campaign` so the
identity-layer detectors (``tmsi-exposure``, ``paging-linkability``)
read the same mappers instead of re-simulating the scenario.
"""

from __future__ import annotations

from typing import List

from ..experiments import table5_history
from .base import Detector, ScanContext, register
from .findings import (EvidenceWindow, Finding, clip01, make_finding,
                       severity_from_confidence)


def history_campaign(ctx: ScanContext
                     ) -> table5_history.HistoryResult:
    """The table V campaign, run once per scan and shared."""
    return ctx.artifact("history", lambda: table5_history.run(
        ctx.scale, seed=ctx.seed(31)))


def victim_handle(tmsi: int) -> str:
    """The attacker-side victim handle used by the identity detectors."""
    return f"tmsi:{tmsi:08x}"


@register
class AppHistoryDetector(Detector):
    """Reconstruct the victim's zone/app timeline from sniffer captures."""

    detector_id = "app-history"
    title = "history-of-applications timeline reconstruction (table V)"

    def run(self, ctx: ScanContext) -> List[Finding]:
        result = history_campaign(ctx)
        attack = result.attack
        victim = victim_handle(attack.victim_tmsi)
        findings: List[Finding] = []
        for row in result.findings:
            confidence = clip01(row.confidence)
            findings.append(make_finding(
                detector=self.detector_id, victim=victim,
                summary=(f"history: {row.predicted_app} "
                         f"[{row.predicted_category}] in {row.zone}"),
                severity=severity_from_confidence(confidence),
                confidence=confidence,
                evidence=[EvidenceWindow(
                    cell=row.zone, start_s=row.start_s, end_s=row.end_s,
                    kind="episode",
                    detail=f"{row.duration_s:.1f}s activity episode")],
                metrics={"duration_s": float(row.duration_s)}))
        findings.append(make_finding(
            detector=self.detector_id, victim="campaign",
            summary=(f"history campaign: {len(result.findings)} "
                     f"episode(s) across "
                     f"{len(attack.sniffers)} zones "
                     f"({attack.operator.name})"),
            severity="info",
            confidence=clip01(result.summary["success_rate"]),
            metrics={"visits": float(result.summary["visits"]),
                     "detected": float(result.summary["detected"]),
                     "correct": float(result.summary["correct"]),
                     "success_rate": float(
                         result.summary["success_rate"]),
                     "category_accuracy": float(
                         result.summary["category_accuracy"])}))
        return findings
