"""The scan driver: resolve a selection, run detectors, sort findings.

One deterministic pipeline: detectors run in the fixed composition
order (:data:`~repro.scan.base.DETECTOR_ORDER`), each detector's
findings are sorted by ``(victim, first evidence start, fingerprint)``
before being appended to the shared context, and the final result is a
pure function of ``(config, selection, code)`` — byte-identical report
output across runs, worker counts, and ParallelMap backends, which CI
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from .base import (Detector, ScanConfig, ScanContext, all_detectors,
                   resolve_selection)
from .findings import Finding


@dataclass
class ScanResult:
    """Everything one scan run produced."""

    findings: Tuple[Finding, ...]
    detectors: Tuple[str, ...]          # ids actually run, in order
    baselined: int = 0
    baselined_findings: Tuple[Finding, ...] = ()
    #: The table driver results the detectors shared, by artifact name
    #: ("fingerprint", "history", "correlation").
    artifacts: Dict[str, object] = field(default_factory=dict)


def _finding_sort_key(finding: Finding):
    start = finding.evidence[0].start_s if finding.evidence else 0.0
    return (finding.victim, start, finding.fingerprint())


def run_scan(detectors: Optional[Sequence[str]] = None,
             config: Optional[ScanConfig] = None) -> ScanResult:
    """Run the selected detectors (default: all) over one shared context."""
    order = resolve_selection(detectors)
    registry = all_detectors()
    ctx = ScanContext(config)
    findings_counter = obs.counter("scan.findings")
    with obs.span("scan.run"):
        for detector_id in order:
            detector: Detector = registry[detector_id]()
            with obs.span(f"scan.{detector_id}"):
                emitted = detector.run(ctx)
            emitted = sorted(emitted, key=_finding_sort_key)
            findings_counter.inc(len(emitted))
            ctx.findings.extend(emitted)
    return ScanResult(findings=tuple(ctx.findings),
                      detectors=order,
                      artifacts=dict(ctx._artifacts))
