"""Attack-as-scanner framework: detectors, findings, reports.

The paper's three attacks (and the identity-mapping layer underneath
them) re-expressed as registered :class:`~repro.scan.base.Detector`
stages over one shared :class:`~repro.scan.base.ScanContext`, each
emitting structured, confidence-scored
:class:`~repro.scan.findings.Finding` objects into a deterministic
report pipeline (text/JSON reporters, count-bounded suppression
baselines, a ``repro.cli scan`` subcommand).

Each attack detector runs its table driver in
:mod:`repro.experiments` (III, V, VII) and turns the result into
findings, so every campaign has one implementation; the streaming
service routes its fused verdicts through the same schema via
:mod:`repro.scan.adapters`.
"""

from .base import (DETECTOR_ORDER, Detector, ScanConfig, ScanContext,
                   all_detectors, register, resolve_selection)
from .engine import ScanResult, run_scan
from .findings import (SCHEMA_VERSION, SEVERITIES, EvidenceWindow, Finding,
                       clip01, evidence_confidence, make_finding,
                       max_severity, severity_from_confidence,
                       severity_rank, validate_finding, vote_confidence)

__all__ = [
    "DETECTOR_ORDER", "Detector", "ScanConfig", "ScanContext",
    "ScanResult", "all_detectors", "register", "resolve_selection",
    "run_scan", "SCHEMA_VERSION", "SEVERITIES", "EvidenceWindow",
    "Finding", "clip01", "evidence_confidence", "make_finding",
    "max_severity", "severity_from_confidence", "severity_rank",
    "validate_finding", "vote_confidence",
]
