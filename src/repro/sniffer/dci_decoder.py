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
:meth:`DCIDecoder.on_pdcch_batch`, one batch per observation point
of the cell (see :mod:`repro.lte.engine`).
:meth:`DCIDecoder.on_pdcch` decodes one encoded transmission at a
time; it is the per-record reference the batch path must match.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

import numpy as np

from .. import obs
from ..lte.channel import CaptureChannel, ChannelProfile
from ..lte.dci import (DCI_PAYLOAD_BYTES, DCIFormat, DCIMessage,
                       DecodeError, Direction, EncodedDCI,
                       PDCCHTransmission)
from ..lte.identifiers import CRNTI_MAX, CRNTI_MIN
from ..lte.sim import SECOND_US

#: Columnar sink: ``(times_s, rntis, directions, tbs_bytes)`` — one call
#: per grant batch, per-record arrays in emission order (the hot path:
#: no per-DCI objects).
BatchSink = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                     None]


class DCIDecoder:
    """Decodes PDCCH transmissions into trace record columns.

    Attach :meth:`on_pdcch_batch` to a cell via ``LTENetwork.observe``.
    Decoded DCIs flow to the registered batch sinks as columns;
    statistics are kept for the attack-cost accounting and for tests.
    """

    def __init__(self, capture_profile: Optional[ChannelProfile] = None,
                 rng: Optional[random.Random] = None,
                 drop_non_crnti: bool = True, seed: int = 0) -> None:
        self._capture = CaptureChannel(capture_profile or ChannelProfile(),
                                       rng if rng is not None
                                       else random.Random(seed))
        self._drop_non_crnti = drop_non_crnti
        self._batch_sinks: List[BatchSink] = []
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

    def add_batch_sink(self, sink: BatchSink) -> None:
        """Register a columnar consumer of every decoded batch."""
        self._batch_sinks.append(sink)

    def on_pdcch(self, transmission: PDCCHTransmission) -> None:
        """Capture and blind-decode one transmission, then deliver it."""
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
        self._deliver(np.array([transmission.time_us], dtype=np.int64),
                      np.array([dci.rnti], dtype=np.int64),
                      np.array([int(dci.direction)], dtype=np.int64),
                      np.array([dci.tbs_bytes], dtype=np.int64), None)

    def on_pdcch_batch(self, batch) -> None:
        """Columnar observer: decode one grant batch in one call.

        Record-for-record equivalent to feeding each grant through
        :meth:`on_pdcch`, however the grants are split into batches:

        * **clean channel** (no loss, no corruption): every grant is
          captured and decodes back to exactly the columns the eNodeB
          emitted, so the whole batch is accepted with array ops.  The
          per-record capture draws are skipped — they are outcome-free
          at zero loss/corruption, and the capture rng is private to
          this decoder, so no other component sees the stream move.
        * **lossy channel**: the loss and corruption draws run per grant
          in :meth:`on_pdcch`'s order, into a keep mask.  The payload
          length is fixed, so the draws need no payload: only the
          corrupted rows are encoded, bit-flipped and blind-decoded, and
          their decoded values overwrite those rows.

        Either way the surviving records leave as one set of columns.
        """
        count = len(batch)
        if count == 0:
            return
        rntis = batch.rntis
        directions = batch.direction
        tbs = batch.tbs_bytes
        profile = self._capture._profile
        if profile.capture_loss > 0.0 or profile.corruption_prob > 0.0:
            keep, flips = self._capture.draw_batch(count, DCI_PAYLOAD_BYTES)
            captured = int(keep.sum())
            self._lost_obs.inc(count - captured)
            self._corrupted_obs.inc(len(flips))
            if flips:
                rntis, directions, tbs = (rntis.copy(), directions.copy(),
                                          tbs.copy())
            for row, index, bit in flips:
                dci = self._decode_corrupted(batch, row, index, bit)
                if dci is None:
                    self._rejected.inc()
                    keep[row] = False
                    continue
                rntis[row] = dci.rnti
                directions[row] = int(dci.direction)
                tbs[row] = dci.tbs_bytes
        else:
            keep = None
            captured = count
            self._capture.captured += count
        self._captured_obs.inc(captured)
        self._deliver(batch.time_us, rntis, directions, tbs, keep)

    @staticmethod
    def _decode_corrupted(batch, row: int, index: int,
                          bit: int) -> Optional[DCIMessage]:
        """Re-encode one grant, flip one payload bit, blind-decode it."""
        fmt = (DCIFormat.FORMAT_1A
               if batch.direction[row] == Direction.DOWNLINK
               else DCIFormat.FORMAT_0)
        encoded = DCIMessage(fmt=fmt, rnti=int(batch.rntis[row]),
                             mcs=int(batch.mcs[row]),
                             n_prb=int(batch.n_prb[row])).encode()
        payload = bytearray(encoded.payload)
        payload[index] ^= bit
        try:
            return EncodedDCI(payload=bytes(payload),
                              masked_crc=encoded.masked_crc).blind_decode()
        except DecodeError:
            return None

    def _deliver(self, times_us: np.ndarray, rntis: np.ndarray,
                 directions: np.ndarray, tbs: np.ndarray,
                 keep: Optional[np.ndarray]) -> None:
        """Drop non-C-RNTIs and hand the kept records to the sinks."""
        kept = len(rntis) if keep is None else int(keep.sum())
        if self._drop_non_crnti:
            crnti = (rntis >= CRNTI_MIN) & (rntis <= CRNTI_MAX)
            keep = crnti if keep is None else keep & crnti
            survivors = int(keep.sum())
            self._rejected.inc(kept - survivors)
            kept = survivors
        if keep is not None and kept < len(rntis):
            times_us, rntis = times_us[keep], rntis[keep]
            directions, tbs = directions[keep], tbs[keep]
        if kept == 0:
            return
        self._decoded.inc(kept)
        times_s = times_us / SECOND_US
        for batch_sink in self._batch_sinks:
            batch_sink(times_s, rntis, directions, tbs)

    @property
    def capture_stats(self) -> dict:
        """Capture-channel counters (captured / lost / corrupted)."""
        return {"captured": self._capture.captured,
                "lost": self._capture.lost,
                "corrupted": self._capture.corrupted,
                "decoded": self.decoded,
                "rejected": self.rejected}
