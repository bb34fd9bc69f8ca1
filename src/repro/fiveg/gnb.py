"""The gNodeB: an NR cell built on the LTE substrate.

What changes relative to :class:`repro.lte.enb.ENodeB`:

* **numerology** — 30 kHz subcarrier spacing gives 0.5 ms slots, so
  grants arrive at twice the cadence for the same traffic;
* **bandwidth** — a 100 MHz FR1 carrier carries far more PRBs;
* **registration** — the connection handshake exposes a fresh
  :class:`~repro.fiveg.identifiers.SUCI` instead of a reusable TMSI
  (emitted as :class:`NRRegistrationRequest`), defeating the passive
  identity-mapping trick of the LTE attack.

Everything else — DCI-with-masked-CRC on the PDCCH, the demand-driven
slot loop with its scalar and array lanes, HARQ, padding/chaff,
inactivity release — is inherited from the one eNodeB: NR kept those
mechanisms, which is precisely why the paper expects the
*fingerprinting* half of the attack to transfer (§VIII-C).  The golden
suite pins NR cells' grant streams alongside the LTE ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..lte.channel import ChannelProfile
from ..lte.enb import ENodeB
from ..lte.identifiers import RA_RNTI_MAX, RA_RNTI_MIN
from ..lte.network import LTENetwork
from ..lte.obfuscation import ObfuscationConfig
from ..lte.cell import Cell
from ..lte.rrc import RACHPreamble, RandomAccessResponse
from ..lte.scheduler import CrossTraffic
from ..lte.ue import UE
from .identifiers import SUCI, SUCIGenerator

#: NR slot duration at 30 kHz subcarrier spacing.
NR_SLOT_US = 500


@dataclass(frozen=True)
class NRRegistrationRequest:
    """Msg3 equivalent: carries a one-time SUCI, not a reusable TMSI."""

    time_us: int
    temp_crnti: int
    suci: SUCI


class GNodeB(ENodeB):
    """An NR base station with SUCI-concealed registration."""

    def __init__(self, cell_id: str, clock, rng: random.Random,
                 channel_profile: Optional[ChannelProfile] = None,
                 scheduler_name: str = "proportional-fair",
                 total_prb: int = 273,
                 inactivity_timeout_s: float = 10.0,
                 cross_traffic: Optional[CrossTraffic] = None,
                 obfuscation: Optional[ObfuscationConfig] = None,
                 suci_generator: Optional[SUCIGenerator] = None) -> None:
        super().__init__(cell_id=cell_id, clock=clock, rng=rng,
                         channel_profile=channel_profile,
                         scheduler_name=scheduler_name,
                         total_prb=min(total_prb, 110),
                         inactivity_timeout_s=inactivity_timeout_s,
                         cross_traffic=cross_traffic,
                         obfuscation=obfuscation, tti_us=NR_SLOT_US)
        self._suci_generator = suci_generator or SUCIGenerator(
            seed=rng.getrandbits(32))

    def connect(self, ue: UE) -> int:
        """NR registration: RACH + RAR as in LTE, then a SUCI Msg3.

        No Msg4 contention-resolution identity echoes anything linkable:
        the SUCI is fresh per registration, so a passive sniffer cannot
        build RNTI↔subscriber bindings the way it can in LTE.
        """
        if ue in self._context_by_ue:
            raise RuntimeError(f"{ue.name} already connected to {self.cell_id}")
        if ue.tmsi is None:
            raise RuntimeError(f"{ue.name} has no 5G-GUTI (not attached)")
        now = self._clock.now_us
        rnti = self._rnti_pool.allocate()
        ra_rnti = self._rng.randint(RA_RNTI_MIN, RA_RNTI_MAX)
        self._emit_control(RACHPreamble(now, ra_rnti,
                                        self._rng.randrange(64)))
        self._emit_control(RandomAccessResponse(now, ra_rnti, rnti))
        # The UE conceals its permanent identity freshly every time.
        from .identifiers import make_supi

        supi = getattr(ue, "_supi", None)
        if supi is None:
            supi = make_supi(random.Random(str(ue.imsi)))
            ue._supi = supi
        suci = self._suci_generator.conceal(supi)
        self._emit_control(NRRegistrationRequest(now, rnti, suci))
        self._register(ue, rnti)
        return rnti

    @property
    def suci_generator(self) -> SUCIGenerator:
        return self._suci_generator


def add_nr_cell(network: LTENetwork, cell_id: str,
                channel_profile: Optional[ChannelProfile] = None,
                scheduler_name: str = "proportional-fair",
                total_prb: int = 100,
                inactivity_timeout_s: float = 10.0,
                cross_traffic: Optional[CrossTraffic] = None,
                obfuscation: Optional[ObfuscationConfig] = None) -> Cell:
    """Attach an NR cell (gNodeB) to an existing network facade.

    The rest of the facade — app sessions, paging, mobility, sniffers —
    works unchanged on the NR cell, because NR kept the DCI/PDCCH
    mechanics the attack consumes.
    """
    if cell_id in network.cells:
        raise ValueError(f"cell {cell_id!r} already exists")
    gnb = GNodeB(cell_id=cell_id, clock=network.clock,
                 rng=network._spawn_rng(), channel_profile=channel_profile,
                 scheduler_name=scheduler_name, total_prb=total_prb,
                 inactivity_timeout_s=inactivity_timeout_s,
                 cross_traffic=cross_traffic, obfuscation=obfuscation)
    cell = Cell(cell_id=cell_id, enb=gnb,
                description="5G NR cell (30 kHz numerology)")
    network.cells[cell_id] = cell
    return cell
