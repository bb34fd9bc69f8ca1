"""Passive PDCCH decoder: the attacker's ear on the air interface.

Mirrors the paper's customised srsLTE ``pdsch_ue`` (§VII "Data
collection"): every PDCCH transmission that survives the capture
channel is blind-decoded — the RNTI recovered from the CRC mask, the
grant parsed, and the transport block size computed — yielding the raw
``(timestamp, RNTI, direction, TBS)`` stream.  Corrupted captures
surface as garbage RNTIs or parse failures, which downstream RNTI
tracking (:mod:`repro.sniffer.owl`) must filter, exactly as a real
sniffer must.

An attached sniffer ingests the eNodeB's columnar grant feed through
:meth:`DCIDecoder.on_pdcch_batch`.  :meth:`DCIDecoder.on_pdcch` decodes
one encoded transmission at a time (any ``pdcch_observers`` hook); it
is the per-record reference the batch lanes must match.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..lte.channel import CaptureChannel, ChannelProfile
from ..lte.dci import (DCI_PAYLOAD_BYTES, DCIFormat, DCIMessage,
                       DecodeError, Direction, EncodedDCI,
                       PDCCHTransmission)
from ..lte.identifiers import CRNTI_MAX, CRNTI_MIN, is_crnti
from ..lte.sim import to_seconds
from .trace import TraceRecord

RecordSink = Callable[[TraceRecord], None]
#: Primitive sink: ``(time_s, rnti, direction, tbs_bytes)`` — the hot
#: path used by the sniffer's columnar builders (no per-DCI objects).
RawSink = Callable[[float, int, int, int], None]
#: Columnar sink: ``(time_s, rntis, directions, tbs_bytes)`` — one call
#: per grant batch, arrays in emission order.
RawBatchSink = Callable[[float, np.ndarray, np.ndarray, np.ndarray], None]


class DCIDecoder:
    """Decodes PDCCH transmissions into trace records.

    Attach :meth:`on_pdcch` to a cell via ``LTENetwork.observe``.
    Decoded DCIs flow to registered sinks; statistics are kept for the
    attack-cost accounting and for tests.  Two sink flavours exist:
    primitive *raw* sinks (the columnar emit path — no ``TraceRecord``
    allocation per DCI) and record sinks (compatibility; a record is
    built only if at least one is registered).
    """

    def __init__(self, capture_profile: Optional[ChannelProfile] = None,
                 rng: Optional[random.Random] = None,
                 drop_non_crnti: bool = True, seed: int = 0) -> None:
        self._capture = CaptureChannel(capture_profile or ChannelProfile(),
                                       rng if rng is not None
                                       else random.Random(seed))
        self._drop_non_crnti = drop_non_crnti
        self._sinks: List[RecordSink] = []
        self._raw_sinks: List[Tuple[RawSink, Optional[RawBatchSink]]] = []
        # Registry-backed counters behind the historical public
        # attributes (``decoded`` / ``rejected`` stay readable whether
        # or not observability is collecting).
        self._decoded = obs.attr_counter("sniffer.decoder.decoded")
        self._rejected = obs.attr_counter("sniffer.decoder.rejected")
        self._captured_obs = obs.counter("sniffer.capture.captured")
        self._lost_obs = obs.counter("sniffer.capture.lost")
        self._corrupted_obs = obs.counter("sniffer.capture.corrupted")

    @property
    def decoded(self) -> int:
        """DCIs successfully blind-decoded (and kept)."""
        return self._decoded.value

    @property
    def rejected(self) -> int:
        """DCIs dropped: CRC/parse failure or non-C-RNTI."""
        return self._rejected.value

    def add_sink(self, sink: RecordSink) -> None:
        """Register a consumer of decoded :class:`TraceRecord` objects."""
        self._sinks.append(sink)

    def add_raw_sink(self, sink: RawSink,
                     batch: Optional[RawBatchSink] = None) -> None:
        """Register a primitive consumer ``(time_s, rnti, dir, tbs)``.

        ``batch`` optionally pairs a columnar counterpart: when the
        decoder ingests a whole :class:`~repro.lte.engine.GrantBatch`
        (:meth:`on_pdcch_batch`), the batch sink receives the surviving
        records as arrays in one call *instead of* per-record calls to
        ``sink`` — never both, so no record is delivered twice.
        """
        self._raw_sinks.append((sink, batch))

    def on_pdcch(self, transmission: PDCCHTransmission) -> None:
        """Observer callback: capture, blind-decode, fan out."""
        if not self._capture.deliver():
            self._lost_obs.inc()
            return
        self._captured_obs.inc()
        payload = self._capture.corrupt(transmission.encoded.payload)
        if payload is transmission.encoded.payload:
            encoded = transmission.encoded
        else:
            self._corrupted_obs.inc()
            encoded = EncodedDCI(payload=payload,
                                 masked_crc=transmission.encoded.masked_crc)
        try:
            dci = encoded.blind_decode()
        except DecodeError:
            self._rejected.inc()
            return
        self._emit(to_seconds(transmission.time_us), dci.rnti,
                   int(dci.direction), dci.tbs_bytes)

    def _emit(self, time_s: float, rnti: int, direction: int,
              tbs_bytes: int) -> None:
        """Fan one decoded DCI out to the sinks (non-C-RNTIs rejected)."""
        if self._drop_non_crnti and not is_crnti(rnti):
            self._rejected.inc()
            return
        self._decoded.inc()
        for raw_sink, _ in self._raw_sinks:
            raw_sink(time_s, rnti, direction, tbs_bytes)
        if self._sinks:
            record = TraceRecord(time_s=time_s, rnti=rnti,
                                 direction=Direction(direction),
                                 tbs_bytes=tbs_bytes)
            for sink in self._sinks:
                sink(record)

    def on_pdcch_batch(self, batch) -> None:
        """Columnar observer: ingest one grant batch without per-DCI objects.

        Two lanes, both record-for-record equivalent to feeding each
        grant through :meth:`on_pdcch`:

        * **clean channel** (no loss, no corruption): every grant is
          captured and decodes back to exactly the columns the eNodeB
          emitted, so the whole batch is accepted with array ops.  The
          per-record capture draws are skipped — they are outcome-free
          at zero loss/corruption, and the capture rng is private to
          this decoder, so no other component sees the stream move.
        * **lossy channel**: the loss and corruption draws run per grant
          in :meth:`on_pdcch`'s order.  The payload length is fixed, so
          the draws need no payload: only a corrupted grant is encoded,
          bit-flipped and blind-decoded, while an intact one goes to the
          per-record sinks straight from the eNodeB's columns.
        """
        count = len(batch.rntis)
        if count == 0:
            return
        profile = self._capture._profile
        if profile.capture_loss > 0.0 or profile.corruption_prob > 0.0:
            self._lossy_batch(batch)
            return
        self._capture.captured += count
        self._captured_obs.inc(count)
        rntis = batch.rntis
        tbs = batch.tbs_bytes
        if self._drop_non_crnti:
            keep = (rntis >= CRNTI_MIN) & (rntis <= CRNTI_MAX)
            if not keep.all():
                dropped = count - int(keep.sum())
                self._rejected.inc(dropped)
                rntis = rntis[keep]
                tbs = tbs[keep]
        kept = len(rntis)
        if kept == 0:
            return
        self._decoded.inc(kept)
        time_s = to_seconds(batch.time_us)
        directions = np.full(kept, int(batch.direction), dtype=np.int64)
        for raw_sink, batch_sink in self._raw_sinks:
            if batch_sink is not None:
                batch_sink(time_s, rntis, directions, tbs)
            else:
                direction_int = int(batch.direction)
                for index in range(kept):
                    raw_sink(time_s, int(rntis[index]), direction_int,
                             int(tbs[index]))
        if self._sinks:
            for index in range(kept):
                record = TraceRecord(time_s=time_s, rnti=int(rntis[index]),
                                     direction=batch.direction,
                                     tbs_bytes=int(tbs[index]))
                for sink in self._sinks:
                    sink(record)

    def _lossy_batch(self, batch) -> None:
        """Capture draws per grant; blind-decode only the corrupted ones."""
        deliver = self._capture.deliver
        draw_flip = self._capture.draw_flip
        fmt = (DCIFormat.FORMAT_1A if batch.direction is Direction.DOWNLINK
               else DCIFormat.FORMAT_0)
        direction = int(batch.direction)
        time_s = to_seconds(batch.time_us)
        rntis = batch.rntis.tolist()
        tbs = batch.tbs_bytes.tolist()
        lost = corrupted = 0
        for index, rnti in enumerate(rntis):
            if not deliver():
                lost += 1
                continue
            flip = draw_flip(DCI_PAYLOAD_BYTES)
            if flip is None:
                self._emit(time_s, rnti, direction, tbs[index])
                continue
            corrupted += 1
            encoded = DCIMessage(fmt=fmt, rnti=rnti,
                                 mcs=int(batch.mcs[index]),
                                 n_prb=int(batch.n_prb[index])).encode()
            payload = bytearray(encoded.payload)
            payload[flip[0]] ^= flip[1]
            try:
                dci = EncodedDCI(payload=bytes(payload),
                                 masked_crc=encoded.masked_crc).blind_decode()
            except DecodeError:
                self._rejected.inc()
                continue
            self._emit(time_s, dci.rnti, int(dci.direction), dci.tbs_bytes)
        self._lost_obs.inc(lost)
        self._captured_obs.inc(len(rntis) - lost)
        self._corrupted_obs.inc(corrupted)

    @property
    def capture_stats(self) -> dict:
        """Capture-channel counters (captured / lost / corrupted)."""
        return {"captured": self._capture.captured,
                "lost": self._capture.lost,
                "corrupted": self._capture.corrupted,
                "decoded": self.decoded,
                "rejected": self.rejected}
