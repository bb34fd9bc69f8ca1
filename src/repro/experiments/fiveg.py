"""§VIII-C: does the attack transfer to 5G NR?

The paper predicts (a) app fingerprinting transfers, because "the
high-level behaviour of the application is not influenced" by the new
radio, and (b) the identity-mapping step needs rework because SUPI/SUCI
concealment removes the reusable cleartext identity.  This experiment
measures both on simulated NR cells:

* fingerprinting: train/test an NR-specific model (new numerology, new
  TBS cadence) and compare against the LTE lab;
* identity tracking: count how many distinct "identities" the passive
  sniffer observes per UE — in LTE every reconnect re-leaks the same
  TMSI; in NR every reconnect shows a *fresh* SUCI, so the victim's
  sessions cannot be linked passively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .. import obs
from ..apps import app_names, category_of, make_app
from ..core.dataset import windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..fiveg.gnb import NRRegistrationRequest, add_nr_cell
from ..lte.network import LTENetwork
from ..ml.metrics import macro_f_score
from ..operators.profiles import LAB, OperatorProfile
from ..sniffer.capture import CellSniffer
from ..sniffer.trace import Trace, TraceSet
from .common import format_table, get_scale


@dataclass
class FiveGResult:
    """Fingerprinting transfer + identity-protection measurements."""

    nr_f_score: float             # macro F on the NR cell
    lte_f_score: float            # macro F on the LTE lab cell
    lte_linkable_sessions: float  # avg sessions linkable per LTE victim
    nr_distinct_sucis: float      # avg distinct SUCIs per NR victim
    nr_repeated_sucis: int        # SUCI values ever seen twice (must be 0)

    def table(self) -> str:
        rows = [
            ["app fingerprinting macro F", f"{self.lte_f_score:.3f}",
             f"{self.nr_f_score:.3f}"],
            ["linkable identities per victim",
             f"{self.lte_linkable_sessions:.1f} (same TMSI)",
             f"{self.nr_distinct_sucis:.1f} distinct SUCIs"],
            ["identity values repeated", "all",
             str(self.nr_repeated_sucis)],
        ]
        return format_table(["Metric", "LTE (4G)", "NR (5G)"], rows,
                            title="§VIII-C — extension to 5G")


def _campaign(network_factory, apps, traces_per_app, duration_s, seed):
    """Run one per-app capture campaign against an arbitrary cell."""
    traces = TraceSet()
    registrations: List[NRRegistrationRequest] = []
    tmsi_leaks = 0
    sessions = 0
    for app_index, app in enumerate(apps):
        for repeat in range(traces_per_app):
            run_seed = seed + 977 * app_index + repeat
            network, is_nr = network_factory(run_seed)
            victim = network.add_ue(name="victim")
            sniffer = CellSniffer(
                next(iter(network.cells)),
                capture_profile=LAB.capture_channel,
                seed=run_seed + 1).attach(network)
            suci_log: List[NRRegistrationRequest] = []
            network.observe(next(iter(network.cells)),
                            control=lambda m, log=suci_log: (
                                log.append(m)
                                if isinstance(m, NRRegistrationRequest)
                                else None))
            network.start_app_session(victim, make_app(app), start_s=0.2,
                                      duration_s=duration_s,
                                      session_seed=run_seed + 2)
            network.run_for(duration_s + 2.0)
            sessions += 1
            if is_nr:
                registrations.extend(suci_log)
                # Passive attackers cannot group by identity on NR;
                # fall back to per-RNTI traces and merge them by the
                # simulator's ground truth for the *labelled dataset*
                # (the training side owns its own UE, as in the paper).
                merged = Trace.merged(
                    [sniffer.trace_for_rnti(rnti)
                     for rnti in sniffer.observed_rntis()],
                    cell=sniffer.cell_id)
                trace = merged.rebased()
            else:
                tmsi_leaks += len(
                    sniffer.mapper.all_rntis_for_tmsi(victim.tmsi))
                trace = sniffer.trace_for_tmsi(victim.tmsi).rebased()
            trace.label = app
            trace.category = category_of(app).value
            traces.add(trace)
    return traces, registrations, tmsi_leaks, sessions


def _fscore(train: TraceSet, test: TraceSet, n_trees: int,
            seed: int) -> float:
    windows = windows_from_traces(train)
    test_windows = windows_from_traces(
        test, app_encoder=windows.app_encoder,
        category_encoder=windows.category_encoder)
    model = HierarchicalFingerprinter(n_trees=n_trees, seed=seed)
    model.fit(windows)
    return macro_f_score(test_windows.app_labels,
                         model.predict_apps(test_windows.X),
                         n_classes=windows.app_encoder.n_classes)


@obs.timed("experiment.fiveg")
def run(scale="fast", seed: int = 151,
        operator: OperatorProfile = LAB) -> FiveGResult:
    """Measure attack transfer from LTE to NR."""
    resolved = get_scale(scale)
    apps = list(app_names())

    def lte_factory(run_seed):
        network = LTENetwork(seed=run_seed, **operator.network_kwargs())
        network.add_cell("lte-0", **operator.cell_kwargs())
        return network, False

    def nr_factory(run_seed):
        network = LTENetwork(seed=run_seed, **operator.network_kwargs())
        add_nr_cell(network, "nr-0",
                    channel_profile=operator.serving_channel,
                    cross_traffic=operator.cross_traffic)
        return network, True

    lte_train, _, lte_links, lte_sessions = _campaign(
        lte_factory, apps, resolved.traces_per_app,
        resolved.trace_duration_s, seed)
    lte_test, _, _, _ = _campaign(
        lte_factory, apps, max(1, resolved.traces_per_app // 2),
        resolved.trace_duration_s, seed + 40_000)
    nr_train, nr_regs, _, nr_sessions = _campaign(
        nr_factory, apps, resolved.traces_per_app,
        resolved.trace_duration_s, seed + 80_000)
    nr_test, more_regs, _, _ = _campaign(
        nr_factory, apps, max(1, resolved.traces_per_app // 2),
        resolved.trace_duration_s, seed + 120_000)
    nr_regs = nr_regs + more_regs

    suci_values = [r.suci.ciphertext for r in nr_regs]
    repeated = len(suci_values) - len(set(suci_values))
    return FiveGResult(
        nr_f_score=_fscore(nr_train, nr_test, resolved.n_trees, seed + 1),
        lte_f_score=_fscore(lte_train, lte_test, resolved.n_trees,
                            seed + 2),
        lte_linkable_sessions=lte_links / max(1, lte_sessions),
        nr_distinct_sucis=len(set(suci_values)) / max(1, nr_sessions),
        nr_repeated_sucis=repeated)
