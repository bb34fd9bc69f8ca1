"""Identity-layer detectors: TMSI exposure and paging linkability.

Both read the per-zone :class:`~repro.sniffer.identity.IdentityMapper`
state that the table V capture campaign populated (shared via
:func:`~repro.scan.history.history_campaign`, so a combined scan pays
for one simulation):

* ``tmsi-exposure`` — one finding per zone where the victim's TMSI was
  bound to C-RNTIs via the cleartext Msg3/Msg4 pairing; confidence
  saturates with the number of DCI records captured under those
  bindings, and the severity escalates to ``critical`` when the active
  IMSI catcher resolved the TMSI to a permanent identity.
* ``paging-linkability`` — one finding per victim whose successive
  RNTI bindings can be chained across reconnects and zones (LTrack's
  linkability primitive); confidence saturates with the number of
  binding-to-binding links.

Both confidences come from
:func:`~repro.scan.findings.evidence_confidence`, which is monotone in
the evidence count — so capture-loss fault plans, which can only drop
records (and therefore bindings/links), can only lower them.  The
Hypothesis invariant suite pins that property.
"""

from __future__ import annotations

from typing import List

from .base import Detector, ScanContext, register
from .findings import (EvidenceWindow, Finding, evidence_confidence,
                       make_finding)
from .history import history_campaign, victim_handle

#: DCI records at which TMSI-exposure confidence reaches 0.5.
EXPOSURE_HALF_LIFE = 50.0
#: Binding links at which paging-linkability confidence reaches 0.5.
LINKABILITY_HALF_LIFE = 3.0


def _binding_windows(bindings, horizon_s: float, kind: str
                     ) -> List[EvidenceWindow]:
    """Bindings as evidence windows; live ones end at the horizon."""
    windows = []
    for binding in bindings:
        end_s = binding.end_s if binding.end_s is not None else horizon_s
        windows.append(EvidenceWindow(
            cell=binding.cell or "cell", start_s=binding.start_s,
            end_s=max(binding.start_s, end_s), kind=kind,
            detail=f"rnti=0x{binding.rnti:04x}"))
    return windows


@register
class TmsiExposureDetector(Detector):
    """Where (and how much) the victim's TMSI leaked to zone sniffers."""

    detector_id = "tmsi-exposure"
    title = "RNTI-TMSI identity exposure per sniffed zone"

    def run(self, ctx: ScanContext) -> List[Finding]:
        attack = history_campaign(ctx).attack
        tmsi = attack.victim_tmsi
        victim = victim_handle(tmsi)
        imsi = None
        catcher = getattr(attack, "catcher", None)
        if catcher is not None:
            imsi = catcher.resolve_tmsi(tmsi)
        findings: List[Finding] = []
        for zone in sorted(attack.sniffers):
            sniffer = attack.sniffers[zone]
            bindings = sniffer.mapper.bindings_for_tmsi(tmsi)
            if not bindings:
                continue
            records = len(sniffer.trace_for_tmsi(tmsi))
            confidence = evidence_confidence(records, EXPOSURE_HALF_LIFE)
            severity = "critical" if imsi is not None else "high"
            resolved = (f", resolved to IMSI {imsi}"
                        if imsi is not None else "")
            findings.append(make_finding(
                detector=self.detector_id, victim=victim,
                summary=(f"TMSI exposed in {zone}: {len(bindings)} "
                         f"binding(s), {records} DCI records{resolved}"),
                severity=severity, confidence=confidence,
                evidence=_binding_windows(bindings, attack.horizon_s,
                                          "binding"),
                metrics={"bindings": float(len(bindings)),
                         "records": float(records),
                         "rebindings": float(sniffer.mapper.rebindings),
                         "imsi_resolved": 1.0 if imsi is not None
                         else 0.0}))
        return findings


@register
class PagingLinkabilityDetector(Detector):
    """Can the victim's successive RNTIs be chained into one track?"""

    detector_id = "paging-linkability"
    title = "cross-reconnect / cross-zone RNTI linkability"

    def run(self, ctx: ScanContext) -> List[Finding]:
        attack = history_campaign(ctx).attack
        tmsi = attack.victim_tmsi
        bindings = []
        zones_observed = []
        for zone in sorted(attack.sniffers):
            zone_bindings = attack.sniffers[zone].mapper \
                .bindings_for_tmsi(tmsi)
            if zone_bindings:
                zones_observed.append(zone)
                bindings.extend(zone_bindings)
        if len(bindings) < 2:
            return []
        bindings.sort(key=lambda b: (b.start_s, b.cell or "", b.rnti))
        links = len(bindings) - 1
        rntis = len({(b.cell, b.rnti) for b in bindings})
        confidence = evidence_confidence(links, LINKABILITY_HALF_LIFE)
        severity = "high" if len(zones_observed) >= 2 else "medium"
        return [make_finding(
            detector=self.detector_id, victim=victim_handle(tmsi),
            summary=(f"victim linkable across {len(zones_observed)} "
                     f"zone(s) via {len(bindings)} RNTI binding(s)"),
            severity=severity, confidence=confidence,
            evidence=_binding_windows(bindings, attack.horizon_s,
                                      "linkage"),
            metrics={"bindings": float(len(bindings)),
                     "links": float(links),
                     "zones": float(len(zones_observed)),
                     "distinct_rntis": float(rntis)})]
