"""Attack II: the history attack (paper §III-C, §VII-B).

The victim moves between cell zones (home / workplace / grocery store)
using different apps; the attacker has a sniffer pre-installed in every
zone and, with identity mapping plus an IMSI-catcher to survive
handovers, reconstructs *where the victim was, when, and which app they
used there* — the paper's Table V timeline.

The attack side never sees ground truth: each zone sniffer's merged
per-user trace is segmented into activity episodes (silence gaps split
episodes), each episode is fingerprinted, and only the *evaluation*
step matches findings against the scenario script to count the paper's
TRUE/FALSE column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps import category_of, make_app
from ..lte.network import LTENetwork
from ..lte.rrc import HandoverEvent
from ..lte.sim import seconds
from ..operators.profiles import LAB, OperatorProfile
from ..sniffer.capture import CellSniffer
from ..sniffer.identity import IMSICatcher
from ..sniffer.trace import Trace
from .fingerprint import HierarchicalFingerprinter


@dataclass(frozen=True)
class ZoneVisit:
    """One scripted episode: the victim is in ``zone`` running ``app``."""

    zone: str
    app: str
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0: {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class HistoryFinding:
    """One row of the attacker's reconstructed timeline (cf. Table V)."""

    zone: str
    start_s: float
    end_s: float
    predicted_category: str
    predicted_app: str
    confidence: float
    #: Filled by the evaluator; None while unmatched.
    true_app: Optional[str] = None
    correct: Optional[bool] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def segment_episodes(trace: Trace, min_gap_s: float = 15.0,
                     min_duration_s: float = 2.0,
                     min_records: int = 10) -> List[Trace]:
    """Split a per-user trace into activity episodes.

    Consecutive records separated by more than ``min_gap_s`` of silence
    start a new episode; episodes shorter than ``min_duration_s`` or
    thinner than ``min_records`` are dropped as noise.
    """
    if min_gap_s <= 0:
        raise ValueError(f"min_gap_s must be positive: {min_gap_s}")
    times = trace.times_s
    if not len(times):
        return []
    # Episode boundaries are exactly the gaps wider than min_gap_s.
    breaks = np.flatnonzero(np.diff(times) > min_gap_s) + 1
    bounds = np.concatenate([[0], breaks, [len(times)]])
    out: List[Trace] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        duration = times[hi - 1] - times[lo]
        if duration < min_duration_s or hi - lo < min_records:
            continue
        out.append(Trace.from_arrays(
            times[lo:hi], trace.rntis[lo:hi], trace.directions[lo:hi],
            trace.tbs_bytes[lo:hi], validate=False, cell=trace.cell,
            user=trace.user, operator=trace.operator, day=trace.day))
    return out


class HistoryAttack:
    """Executes a multi-zone capture campaign and reconstructs a timeline."""

    def __init__(self, fingerprinter: HierarchicalFingerprinter,
                 operator: OperatorProfile = LAB,
                 use_imsi_catcher: bool = True,
                 episode_gap_s: float = 15.0) -> None:
        if not fingerprinter.is_fitted:
            raise ValueError("fingerprinter must be fitted first")
        self.fingerprinter = fingerprinter
        self.operator = operator
        self.use_imsi_catcher = use_imsi_catcher
        self.episode_gap_s = episode_gap_s
        # Campaign state retained by run() so identity-layer consumers
        # (the tmsi-exposure / paging-linkability scan detectors) can
        # read the per-zone mappers without re-running the simulation.
        self.sniffers: Dict[str, CellSniffer] = {}
        self.victim_tmsi: Optional[int] = None
        self.horizon_s: float = 0.0

    def run(self, visits: Sequence[ZoneVisit], seed: int = 0,
            day: int = 0) -> List[HistoryFinding]:
        """Simulate the scenario and return the attacker's findings."""
        if not visits:
            raise ValueError("at least one visit is required")
        zones = sorted({visit.zone for visit in visits})
        network = LTENetwork(seed=seed, **self.operator.network_kwargs())
        for zone in zones:
            network.add_cell(zone, **self.operator.cell_kwargs())
        first_zone = min(visits, key=lambda v: v.start_s).zone
        victim = network.add_ue(name="victim", cell_id=first_zone)
        sniffers: Dict[str, CellSniffer] = {}
        for index, zone in enumerate(zones):
            sniffers[zone] = CellSniffer(
                zone, capture_profile=self.operator.capture_channel,
                seed=seed + 11 * index).attach(network)
        if self.use_imsi_catcher:
            self._wire_catcher(network, sniffers)
        self._schedule(network, victim, visits, seed, day)
        horizon = max(visit.end_s for visit in visits) + 5.0
        network.run_for(horizon)
        self.sniffers = sniffers
        self.victim_tmsi = victim.tmsi
        self.horizon_s = horizon
        return self._findings(sniffers, victim.tmsi)

    # -- internals -----------------------------------------------------------------

    def _wire_catcher(self, network: LTENetwork,
                      sniffers: Dict[str, CellSniffer]) -> None:
        catcher = IMSICatcher(network.epc)
        mappers = {zone: sniffer.mapper
                   for zone, sniffer in sniffers.items()}

        def on_control(message) -> None:
            if isinstance(message, HandoverEvent):
                catcher.link_handover(message, mappers)

        # Observe every zone; link once per event via the target cell.
        for zone in sniffers:
            network.observe(zone, control=lambda m, z=zone: (
                on_control(m) if isinstance(m, HandoverEvent)
                and m.target_cell == z else None))
        self.catcher = catcher

    def _schedule(self, network: LTENetwork, victim, visits, seed: int,
                  day: int) -> None:
        ordered = sorted(visits, key=lambda v: v.start_s)
        for index, visit in enumerate(ordered):
            if visit.zone != victim.serving_cell or index > 0:
                move_at = max(0.0, visit.start_s - 1.0)
                network.clock.schedule(
                    seconds(move_at),
                    lambda z=visit.zone: network.move_ue(victim, z))
            model = make_app(visit.app, day=day)
            network.start_app_session(victim, model, start_s=visit.start_s,
                                      duration_s=visit.duration_s,
                                      session_seed=seed + 101 * index)

    def _findings(self, sniffers: Dict[str, CellSniffer],
                  tmsi: int) -> List[HistoryFinding]:
        findings: List[HistoryFinding] = []
        for zone, sniffer in sniffers.items():
            user_trace = sniffer.trace_for_tmsi(tmsi)
            for episode in segment_episodes(user_trace,
                                            min_gap_s=self.episode_gap_s):
                verdict = self.fingerprinter.classify_trace(episode)
                if verdict is None:
                    continue
                findings.append(HistoryFinding(
                    zone=zone, start_s=episode.start_s,
                    end_s=episode.end_s,
                    predicted_category=verdict.category,
                    predicted_app=verdict.app,
                    confidence=verdict.confidence))
        findings.sort(key=lambda f: f.start_s)
        return findings


def evaluate_findings(findings: List[HistoryFinding],
                      visits: Sequence[ZoneVisit]) -> dict:
    """Match findings to the scenario script and score the attack.

    A visit is *detected* if some finding in the same zone overlaps it
    in time; it is *correct* if the best-overlapping finding predicted
    the right app.  Returns the Table V-style summary.
    """
    matched = 0
    correct = 0
    for visit in visits:
        best: Optional[HistoryFinding] = None
        best_overlap = 0.0
        for finding in findings:
            if finding.zone != visit.zone:
                continue
            overlap = (min(finding.end_s, visit.end_s)
                       - max(finding.start_s, visit.start_s))
            if overlap > best_overlap:
                best_overlap = overlap
                best = finding
        if best is None:
            continue
        matched += 1
        best.true_app = visit.app
        best.correct = best.predicted_app == visit.app
        if best.correct:
            correct += 1
    total = len(visits)
    return {
        "visits": total,
        "detected": matched,
        "correct": correct,
        "success_rate": correct / total if total else 0.0,
        "category_accuracy": _category_accuracy(findings, visits),
    }


def _category_accuracy(findings: List[HistoryFinding],
                       visits: Sequence[ZoneVisit]) -> float:
    scored = [f for f in findings if f.true_app is not None]
    if not scored:
        return 0.0
    hits = sum(1 for f in scored
               if f.predicted_category == category_of(f.true_app).value)
    return hits / len(scored)
