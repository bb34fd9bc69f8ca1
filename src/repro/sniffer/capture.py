"""Cell-level capture: decoder + tracker + identity mapping + recording.

:class:`CellSniffer` is the deployable unit of the paper's threat model
("the attacker's sniffer is pre-installed within the target range of an
LTE cell").  It wires together the DCI decoder, the OWL RNTI tracker
and the identity mapper over one cell's radio feeds, and records every
decoded DCI into per-RNTI **columnar builders** — the decoder emits
primitives, so the hot capture loop allocates no per-DCI objects.
Higher layers then ask for a specific *user's* traffic — merging the
per-RNTI fragments across RNTI refreshes via the learned TMSI bindings,
which is precisely the paper's "trace grouping" step (§V).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..lte.channel import ChannelProfile
from ..lte.network import LTENetwork
from ..lte.rrc import ControlMessage
from .dci_decoder import DCIDecoder
from .identity import IdentityMapper
from .owl import OWLTracker
from .trace import Trace, TraceBuilder


class CellSniffer:
    """A passive sniffer deployed in one cell."""

    def __init__(self, cell_id: str,
                 capture_profile: Optional[ChannelProfile] = None,
                 seed: int = 0,
                 confirm_threshold: int = 1) -> None:
        self.cell_id = cell_id
        self.decoder = DCIDecoder(capture_profile=capture_profile,
                                  rng=random.Random(seed))
        self.tracker = OWLTracker(confirm_threshold=confirm_threshold)
        self.mapper = IdentityMapper(cell=cell_id)
        self._builders: Dict[int, TraceBuilder] = {}
        self.decoder.add_raw_sink(self._on_dci, batch=self._on_dci_batch)
        self._control_log: List[ControlMessage] = []

    # -- wiring -------------------------------------------------------------------

    def attach(self, network: LTENetwork) -> "CellSniffer":
        """Hook this sniffer onto its cell's radio feeds.

        The decoder ingests the cell's columnar grant feed, one
        :class:`~repro.lte.engine.GrantBatch` per direction per TTI.
        """
        network.observe(self.cell_id, control=self.on_control,
                        pdcch_batch=self.decoder.on_pdcch_batch)
        return self

    def on_control(self, message: ControlMessage) -> None:
        self._control_log.append(message)
        self.tracker.on_control(message)
        self.mapper.on_control(message)

    def _on_dci(self, time_s: float, rnti: int, direction: int,
                tbs_bytes: int) -> None:
        """Raw-sink callback: append primitives into per-RNTI buffers."""
        self.tracker.on_dci(time_s, rnti)
        builder = self._builders.get(rnti)
        if builder is None:
            builder = self._builders[rnti] = TraceBuilder()
        builder.append(time_s, rnti, direction, tbs_bytes)

    def _on_dci_batch(self, time_s: float, rntis: np.ndarray,
                      directions: np.ndarray,
                      tbs_bytes: np.ndarray) -> None:
        """Columnar sink: flush one grant batch into per-RNTI buffers.

        The batch shares a timestamp, so splitting it by RNTI with one
        stable argsort preserves each RNTI's record order exactly as the
        per-record path would have appended it.
        """
        self.tracker.on_dci_batch(time_s, rntis)
        if len(rntis) == 1:
            # HARQ retransmissions arrive as single-record batches.
            rnti = int(rntis[0])
            builder = self._builders.get(rnti)
            if builder is None:
                builder = self._builders[rnti] = TraceBuilder()
            builder.append(time_s, rnti, int(directions[0]),
                           int(tbs_bytes[0]))
            return
        order = np.argsort(rntis, kind="stable")
        ordered = rntis[order]
        boundaries = np.nonzero(np.diff(ordered))[0] + 1
        times = np.full(len(rntis), time_s, dtype=np.float64)
        for start, stop in zip(
                np.concatenate(([0], boundaries)),
                np.concatenate((boundaries, [len(ordered)]))):
            rnti = int(ordered[start])
            picks = order[start:stop]
            builder = self._builders.get(rnti)
            if builder is None:
                builder = self._builders[rnti] = TraceBuilder()
            builder.extend(times[:stop - start], rntis[picks],
                           directions[picks], tbs_bytes[picks])

    # -- extraction ---------------------------------------------------------------------

    def observed_rntis(self) -> List[int]:
        """All RNTIs with at least one decoded record."""
        return sorted(self._builders)

    def trace_for_rnti(self, rnti: int) -> Trace:
        """The raw trace of one RNTI (no identity merging)."""
        builder = self._builders.get(rnti)
        if builder is None:
            return Trace(cell=self.cell_id)
        return builder.build(cell=self.cell_id)

    def trace_for_tmsi(self, tmsi: int) -> Trace:
        """The merged trace of one *user* across all their RNTIs.

        Uses the identity mapper's binding intervals so that records of
        a recycled RNTI belonging to someone else are not swept in.
        Each binding interval becomes a ``searchsorted`` slice of that
        RNTI's columnar buffer; the fragments are merged with one
        stable sort.
        """
        with obs.span("sniffer.group"):
            fragments: List[Trace] = []
            for binding in self.mapper.bindings_for_tmsi(tmsi):
                builder = self._builders.get(binding.rnti)
                if builder is None or not len(builder):
                    continue
                times = builder.times_s
                lo = int(np.searchsorted(times, binding.start_s,
                                         side="left"))
                hi = (len(times) if binding.end_s is None
                      else int(np.searchsorted(times, binding.end_s,
                                               side="left")))
                if hi > lo:
                    fragments.append(Trace.from_arrays(
                        times[lo:hi], builder.rntis[lo:hi],
                        builder.directions[lo:hi], builder.tbs_bytes[lo:hi],
                        validate=False))
            return Trace.merged(fragments, cell=self.cell_id)

    def control_log(self) -> List[ControlMessage]:
        """Every control message seen (for the attack-cost accounting)."""
        return list(self._control_log)

    @property
    def total_records(self) -> int:
        return sum(len(v) for v in self._builders.values())
