"""Countermeasure evaluation (paper §VIII-B).

The paper proposes defences but does not evaluate them; this experiment
goes one step further and measures each one on the same fingerprinting
pipeline: RNTI refresh (disrupts identity tracking), grant padding
(morphs the size distribution), chaff grants (blurs timing), and their
combination — against the two costs the paper warns about: residual
attack accuracy and radio-resource overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs
from ..apps import app_names, category_of, make_app
from ..core.dataset import windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..lte.network import LTENetwork
from ..lte.obfuscation import NO_OBFUSCATION, ObfuscationConfig
from ..ml.metrics import macro_f_score
from ..operators.profiles import LAB, OperatorProfile
from ..sniffer.capture import CellSniffer
from ..sniffer.trace import Trace, TraceSet
from .common import format_table, get_scale

#: The defence configurations under evaluation.
DEFENCES: Tuple[Tuple[str, ObfuscationConfig], ...] = (
    ("none", NO_OBFUSCATION),
    ("rnti-refresh 5s", ObfuscationConfig(rnti_refresh_s=5.0)),
    ("padding 1500B", ObfuscationConfig(padding_quantum=1_500)),
    ("chaff 10%", ObfuscationConfig(chaff_probability=0.10)),
    ("combined", ObfuscationConfig(rnti_refresh_s=5.0,
                                   padding_quantum=1_500,
                                   chaff_probability=0.10)),
)


@dataclass
class DefenceOutcome:
    """Attack performance and defence cost under one configuration."""

    name: str
    f_score: float               # residual fingerprinting macro F
    trace_coverage: float        # fraction of grants the attacker keeps
    overhead: float              # wasted airtime fraction


@dataclass
class CountermeasureResult:
    outcomes: List[DefenceOutcome]

    def table(self) -> str:
        rows = [[o.name, o.f_score, o.trace_coverage, o.overhead]
                for o in self.outcomes]
        return format_table(
            ["Defence", "Attack F", "Trace coverage", "Overhead"], rows,
            title="Countermeasure evaluation (§VIII-B)")

    def outcome(self, name: str) -> DefenceOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _collect_defended(app_name: str, operator: OperatorProfile,
                      obfuscation: ObfuscationConfig, duration_s: float,
                      seed: int) -> Tuple[Trace, float, float]:
    """One capture under a defended cell.

    Returns (per-user trace as the attacker reconstructs it, attacker's
    grant coverage, airtime overhead).
    """
    network = LTENetwork(seed=seed, **operator.network_kwargs())
    kwargs = operator.cell_kwargs()
    network.add_cell("cell-0", obfuscation=obfuscation, **kwargs)
    victim = network.add_ue(name="victim")
    sniffer = CellSniffer("cell-0", capture_profile=operator.capture_channel,
                          seed=seed + 1).attach(network)
    network.start_app_session(victim, make_app(app_name), start_s=0.2,
                              duration_s=duration_s, session_seed=seed + 2)
    network.run_for(duration_s + 2.0)
    trace = sniffer.trace_for_tmsi(victim.tmsi).rebased()
    trace.label = app_name
    trace.category = category_of(app_name).value
    total = sniffer.total_records
    coverage = len(trace) / total if total else 0.0
    overhead = network.cells["cell-0"].enb.obfuscation_stats.overhead_fraction
    return trace, coverage, overhead


@obs.timed("experiment.countermeasures")
def run(scale="fast", seed: int = 131,
        operator: OperatorProfile = LAB,
        defences: Optional[Tuple] = None) -> CountermeasureResult:
    """Evaluate each defence against a clean-trained fingerprinter.

    The attacker trains on *undefended* captures (they cannot make the
    network defend their own training runs any more than the victims
    can) and is then evaluated on captures from a defended cell.
    """
    resolved = get_scale(scale)
    apps = list(app_names())
    defences = defences or DEFENCES

    from ..core.dataset import collect_traces

    train = collect_traces(apps, operator=operator,
                           traces_per_app=resolved.traces_per_app,
                           duration_s=resolved.trace_duration_s, seed=seed)
    windows = windows_from_traces(train)
    model = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                      seed=seed + 1)
    model.fit(windows)

    outcomes: List[DefenceOutcome] = []
    for index, (name, obfuscation) in enumerate(defences):
        traces = TraceSet()
        coverages: List[float] = []
        overheads: List[float] = []
        for app_index, app in enumerate(apps):
            for repeat in range(max(1, resolved.traces_per_app // 2)):
                trace, coverage, overhead = _collect_defended(
                    app, operator, obfuscation,
                    resolved.trace_duration_s,
                    seed + 10_000 * (index + 1) + 131 * app_index + repeat)
                if len(trace):
                    traces.add(trace)
                coverages.append(coverage)
                overheads.append(overhead)
        test_windows = windows_from_traces(
            traces, app_encoder=windows.app_encoder,
            category_encoder=windows.category_encoder)
        predictions = model.predict_apps(test_windows.X)
        outcomes.append(DefenceOutcome(
            name=name,
            f_score=macro_f_score(test_windows.app_labels, predictions,
                                  n_classes=windows.app_encoder.n_classes),
            trace_coverage=sum(coverages) / len(coverages),
            overhead=sum(overheads) / len(overheads)))
    return CountermeasureResult(outcomes=outcomes)


__all__ = ["DEFENCES", "CountermeasureResult", "DefenceOutcome", "run"]
