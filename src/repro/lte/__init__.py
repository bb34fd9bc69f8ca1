"""LTE radio-layer substrate: the simulated air interface the attack sniffs.

This subpackage replaces the paper's SDR/commercial-network measurement
substrate (USRP B210 + srsLTE) with a discrete-event simulator that
reproduces every radio-layer mechanism the attack depends on: DCI grants
with RNTI-masked CRCs on the PDCCH, 3GPP TBS sizing, RRC connection
lifecycles with inactivity-driven RNTI churn, paging, and multi-cell
handover.
"""

from .channel import CaptureChannel, ChannelProfile
from .cell import Cell, MobilityStep
from .crc import crc16, crc24a, mask_crc_with_rnti, unmask_rnti
from .dci import (DCIFormat, DCIMessage, DecodeError, Direction, EncodedDCI,
                  PDCCHTransmission)
from .enb import ENodeB, UEContext
from .epc import EPC
from .identifiers import (CRNTI_MAX, CRNTI_MIN, IMSI, P_RNTI, SI_RNTI,
                          RNTIAllocator, SubscriberIdentity, TMSIAllocator,
                          is_crnti, make_imsi)
from .network import AppSessionHandle, LTENetwork, TrafficEvent
from .obfuscation import (NO_OBFUSCATION, ObfuscationConfig,
                          ObfuscationStats)
from .rrc import (ControlMessage, HandoverEvent, PagingMessage, RACHPreamble,
                  RandomAccessResponse, RRCConnectionRelease,
                  RRCConnectionRequest, RRCConnectionSetup)
from .scheduler import CrossTraffic
from .sim import SECOND_US, TTI_US, EventHandle, SimClock, seconds, to_seconds
from .tbs import (MAX_MCS, MAX_PRB, N_ITBS, cqi_to_mcs, grant_for_bytes,
                  mcs_to_itbs, transport_block_bytes, transport_block_size)
from .ue import UE, RRCState
from .vecsched import scheduler_names

__all__ = [
    "AppSessionHandle", "CaptureChannel", "Cell",
    "ChannelProfile", "ControlMessage", "CrossTraffic", "CRNTI_MAX",
    "CRNTI_MIN", "DCIFormat", "DCIMessage", "DecodeError",
    "Direction", "ENodeB", "EPC", "EncodedDCI", "EventHandle",
    "HandoverEvent", "IMSI", "LTENetwork", "MAX_MCS",
    "MAX_PRB", "MobilityStep", "N_ITBS", "NO_OBFUSCATION", "ObfuscationConfig",
    "ObfuscationStats", "P_RNTI", "PagingMessage",
    "PDCCHTransmission", "RACHPreamble", "RandomAccessResponse",
    "RNTIAllocator", "RRCConnectionRelease", "RRCConnectionRequest",
    "RRCConnectionSetup", "RRCState", "SECOND_US", "SI_RNTI", "SimClock",
    "SubscriberIdentity", "TMSIAllocator", "TrafficEvent", "TTI_US", "UE",
    "UEContext", "cqi_to_mcs", "crc16", "crc24a", "grant_for_bytes",
    "is_crnti", "make_imsi", "mask_crc_with_rnti",
    "mcs_to_itbs", "scheduler_names", "seconds", "to_seconds",
    "transport_block_bytes", "transport_block_size", "unmask_rnti",
]
