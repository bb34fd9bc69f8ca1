"""§VIII-A "Handover case": does the fingerprint survive a cell change?

The paper asserts that handover does not break the attack given the
identity-mapping machinery; this experiment quantifies it.  A victim
streams one app while handing over mid-session between two cells, each
covered by a sniffer.  We classify three views of the captured traffic:

* the source-cell fragment (pre-handover),
* the target-cell fragment (post-handover),
* the attacker's stitched cross-cell trace (IMSI-catcher linking).

Shape expected: each fragment alone classifies nearly as well as an
uninterrupted capture, and stitching recovers full-session accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import obs
from ..apps import app_names, category_of, make_app
from ..core.dataset import collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..lte.network import LTENetwork
from ..lte.rrc import HandoverEvent
from ..lte.sim import seconds
from ..operators.profiles import LAB, OperatorProfile
from ..sniffer.capture import CellSniffer
from ..sniffer.identity import IMSICatcher
from ..sniffer.trace import Trace
from .common import format_table, get_scale


@dataclass
class HandoverResult:
    """Per-view trace-level accuracy under mid-session handover."""

    accuracy: Dict[str, float]    # view -> fraction of traces correct
    attempts: int

    def table(self) -> str:
        rows = [[view, acc] for view, acc in self.accuracy.items()]
        table = format_table(["Captured view", "Trace accuracy"], rows,
                             title="§VIII-A — handover case")
        return f"{table}\n({self.attempts} handover sessions per view)"


def _handover_capture(app: str, operator: OperatorProfile,
                      duration_s: float, seed: int):
    """One session with a handover at the midpoint; returns 3 traces."""
    network = LTENetwork(seed=seed, **operator.network_kwargs())
    network.add_cell("src", **operator.cell_kwargs())
    network.add_cell("dst", **operator.cell_kwargs())
    victim = network.add_ue(name="victim", cell_id="src")
    sniffers = {cell: CellSniffer(cell,
                                  capture_profile=operator.capture_channel,
                                  seed=seed + i).attach(network)
                for i, cell in enumerate(("src", "dst"))}
    catcher = IMSICatcher(network.epc)
    mappers = {cell: sniffer.mapper for cell, sniffer in sniffers.items()}
    network.observe("dst", control=lambda m: (
        catcher.link_handover(m, mappers)
        if isinstance(m, HandoverEvent) else None))
    network.start_app_session(victim, make_app(app), start_s=0.2,
                              duration_s=duration_s, session_seed=seed + 7)
    network.clock.schedule(seconds(duration_s / 2),
                           lambda: network.move_ue(victim, "dst"))
    network.run_for(duration_s + 2.0)
    source = sniffers["src"].trace_for_tmsi(victim.tmsi).rebased()
    target = sniffers["dst"].trace_for_tmsi(victim.tmsi).rebased()
    stitched = Trace.merged(
        [sniffers["src"].trace_for_tmsi(victim.tmsi),
         sniffers["dst"].trace_for_tmsi(victim.tmsi)]).rebased()
    for trace in (source, target, stitched):
        trace.label = app
        trace.category = category_of(app).value
    return {"source fragment": source, "target fragment": target,
            "stitched (cross-cell)": stitched}


@obs.timed("experiment.handover")
def run(scale="fast", seed: int = 171,
        operator: OperatorProfile = LAB) -> HandoverResult:
    """Train a normal model, evaluate on handover-interrupted sessions."""
    resolved = get_scale(scale)
    apps = list(app_names())
    train = collect_traces(apps, operator=operator,
                           traces_per_app=resolved.traces_per_app,
                           duration_s=resolved.trace_duration_s, seed=seed)
    model = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                      seed=seed + 1)
    model.fit(windows_from_traces(train))

    views: Dict[str, List[bool]] = {}
    attempts = 0
    for app_index, app in enumerate(apps):
        captured = _handover_capture(
            app, operator, resolved.trace_duration_s,
            seed + 53 * (app_index + 1))
        attempts += 1
        for view, trace in captured.items():
            verdict = model.classify_trace(trace)
            views.setdefault(view, []).append(
                verdict is not None and verdict.app == app)
    accuracy = {view: sum(hits) / len(hits)
                for view, hits in views.items()}
    return HandoverResult(accuracy=accuracy, attempts=attempts)
