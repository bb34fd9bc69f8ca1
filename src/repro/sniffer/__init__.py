"""The attacker's passive capture stack.

``DCIDecoder`` blind-decodes the PDCCH, ``OWLTracker`` maintains the
set of live RNTIs, ``IdentityMapper`` learns RNTI↔TMSI bindings from
the cleartext RRC handshake, and ``CellSniffer`` composes them into the
deployable per-cell unit that records per-user traces.
"""

from .capture import CellSniffer
from .dci_decoder import DCIDecoder
from .identity import Binding, IdentityMapper, IMSICatcher
from .owl import OWLTracker, RNTIActivity
from .trace import Trace, TraceBuilder, TraceSet

__all__ = [
    "Binding", "CellSniffer", "DCIDecoder", "IMSICatcher", "IdentityMapper",
    "OWLTracker", "RNTIActivity", "Trace", "TraceBuilder", "TraceSet",
]
