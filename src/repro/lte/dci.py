"""DCI (Downlink Control Information) messages and the PDCCH.

DCI messages are the *only* data the paper's attack consumes.  They are
broadcast unencrypted on the PDCCH; each one tells a specific RNTI how
many resource blocks, at which MCS, it has been granted in this TTI —
uplink (DCI format 0) or downlink (DCI format 1A).  The destination is
not carried in the payload: it is conveyed by XOR-masking the CRC with
the RNTI (see :mod:`repro.lte.crc`), which is what lets a passive
sniffer enumerate active users.

This module gives DCIs a concrete bit-level encoding so that the sniffer
genuinely *decodes* rather than being handed structured objects: the eNB
serialises grants to bytes + masked CRC, the channel may corrupt them,
and the decoder recovers RNTI/MCS/PRB by the same arithmetic a real
PDCCH receiver performs.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .crc import crc16, mask_crc_with_rnti
from .tbs import MAX_MCS, MAX_PRB, mcs_to_itbs, transport_block_bytes


class Direction(enum.IntEnum):
    """Link direction of a grant, as inferable from the DCI format."""

    UPLINK = 0
    DOWNLINK = 1


class DCIFormat(enum.IntEnum):
    """Subset of TS 36.212 DCI formats the simulator emits."""

    FORMAT_0 = 0       # uplink grant on PUSCH
    FORMAT_1A = 1      # compact downlink assignment on PDSCH

    @property
    def direction(self) -> Direction:
        return Direction.UPLINK if self is DCIFormat.FORMAT_0 else Direction.DOWNLINK


_PAYLOAD_STRUCT = struct.Struct(">BBBH")  # format, mcs, n_prb, prb_start

#: Length of every encoded DCI payload, in bytes.
DCI_PAYLOAD_BYTES = _PAYLOAD_STRUCT.size


@dataclass(frozen=True)
class DCIMessage:
    """A decoded scheduling grant.

    ``tbs_bytes`` is derived, not signalled: receivers (and sniffers)
    compute it from (MCS, N_PRB) through the TBS table, exactly as the
    paper's customised ``pdsch_ue`` does.
    """

    fmt: DCIFormat
    rnti: int
    mcs: int
    n_prb: int
    prb_start: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mcs <= MAX_MCS:
            raise ValueError(f"MCS out of range: {self.mcs}")
        if not 1 <= self.n_prb <= MAX_PRB:
            raise ValueError(f"N_PRB out of range: {self.n_prb}")
        if not 0 <= self.rnti <= 0xFFFF:
            raise ValueError(f"RNTI out of range: {self.rnti}")

    @property
    def direction(self) -> Direction:
        return self.fmt.direction

    @property
    def tbs_bytes(self) -> int:
        """Transport block size in bytes implied by this grant."""
        return transport_block_bytes(mcs_to_itbs(self.mcs), self.n_prb)

    # -- wire form ----------------------------------------------------------

    def encode_payload(self) -> bytes:
        """Serialise the DCI payload (without CRC)."""
        return _PAYLOAD_STRUCT.pack(int(self.fmt), self.mcs, self.n_prb, self.prb_start)

    def encode(self) -> "EncodedDCI":
        """Serialise payload and attach the RNTI-masked CRC."""
        payload = self.encode_payload()
        masked = mask_crc_with_rnti(crc16(payload), self.rnti)
        return EncodedDCI(payload=payload, masked_crc=masked)


@dataclass(frozen=True)
class EncodedDCI:
    """A DCI as it appears on the air: opaque payload + masked CRC."""

    payload: bytes
    masked_crc: int

    def decode_for_rnti(self, rnti: int) -> "DCIMessage":
        """Decode assuming the DCI addresses ``rnti``.

        Raises :class:`DecodeError` if the CRC does not verify under the
        given RNTI mask — which is how receivers reject DCIs that are not
        theirs (or that were corrupted in flight).
        """
        if (crc16(self.payload) ^ rnti) & 0xFFFF != self.masked_crc:
            raise DecodeError(f"CRC mismatch under RNTI {rnti:#06x}")
        return self._decode_payload(rnti)

    def blind_rnti(self) -> int:
        """Recover the candidate RNTI this DCI addresses (sniffer path)."""
        return (crc16(self.payload) ^ self.masked_crc) & 0xFFFF

    def blind_decode(self) -> "DCIMessage":
        """Sniffer-style decode: recover RNTI from the CRC mask, then parse.

        A corrupted payload typically yields a garbage RNTI and/or an
        unparseable field, surfacing as :class:`DecodeError` — matching
        the false-candidate behaviour real PDCCH sniffers must filter.
        """
        return self._decode_payload(self.blind_rnti())

    def _decode_payload(self, rnti: int) -> "DCIMessage":
        if len(self.payload) != _PAYLOAD_STRUCT.size:
            raise DecodeError(f"bad DCI payload length {len(self.payload)}")
        fmt_raw, mcs, n_prb, prb_start = _PAYLOAD_STRUCT.unpack(self.payload)
        try:
            fmt = DCIFormat(fmt_raw)
        except ValueError as exc:
            raise DecodeError(f"unknown DCI format {fmt_raw}") from exc
        try:
            return DCIMessage(fmt=fmt, rnti=rnti, mcs=mcs, n_prb=n_prb,
                              prb_start=prb_start)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc


class DecodeError(Exception):
    """Raised when a DCI cannot be decoded (wrong RNTI mask or corruption)."""


@dataclass(frozen=True)
class PDCCHTransmission:
    """One DCI airing on the PDCCH at a specific TTI."""

    time_us: int
    encoded: EncodedDCI
