"""Differential: the batch decoder's lossy lane equals per-record decoding.

``DCIDecoder.on_pdcch_batch`` draws loss and corruption per grant and
encodes, bit-flips and blind-decodes only the corrupted ones.  Fed the
same grants, it must leave exactly the state ``on_pdcch`` leaves when
each grant arrives as an encoded transmission: the same records, the
same counters and the same capture rng position.
"""

import math
import random

import numpy as np
import pytest

from repro.lte.channel import ChannelProfile
from repro.lte.dci import DCIFormat, DCIMessage, Direction, PDCCHTransmission
from repro.lte.engine import GrantBatch
from repro.lte.tbs import MAX_MCS, mcs_to_itbs, transport_block_bytes
from repro.sniffer.dci_decoder import DCIDecoder

#: (capture_loss, corruption_prob).  ChannelProfile rejects a loss of
#: exactly 1.0; the largest float below it loses every record unless
#: ``random()`` returns its own maximum.
CHANNELS = [(0.08, 0.014), (0.5, 0.5), (math.nextafter(1.0, 0.0), 0.0)]


def _batches(seed, count=300):
    rng = random.Random(seed)
    batches = []
    for tti in range(count):
        size = rng.choice((1, 1, 2, 3, 7))
        rntis = [rng.randint(0x003D, 0xFFF3) for _ in range(size)]
        mcs = [rng.randint(0, MAX_MCS) for _ in range(size)]
        n_prb = [rng.randint(1, 50) for _ in range(size)]
        tbs = [transport_block_bytes(mcs_to_itbs(m), p)
               for m, p in zip(mcs, n_prb)]
        direction = rng.choice((Direction.DOWNLINK, Direction.UPLINK))
        batches.append(GrantBatch(
            time_us=tti * 1_000, direction=direction,
            rntis=np.array(rntis, dtype=np.int64),
            mcs=np.array(mcs, dtype=np.int64),
            n_prb=np.array(n_prb, dtype=np.int64),
            tbs_bytes=np.array(tbs, dtype=np.int64)))
    return batches


def _decoder(loss, corruption):
    decoder = DCIDecoder(
        capture_profile=ChannelProfile(capture_loss=loss,
                                       corruption_prob=corruption),
        rng=random.Random(99))
    records, raw = [], []
    decoder.add_sink(records.append)
    decoder.add_raw_sink(lambda *fields: raw.append(fields))
    return decoder, records, raw


@pytest.mark.parametrize("loss,corruption", CHANNELS)
def test_lossy_batch_lane_equals_per_record_decoding(loss, corruption):
    batches = _batches(seed=int(loss * 1000) + 7)
    scalar, scalar_records, scalar_raw = _decoder(loss, corruption)
    batched, batched_records, batched_raw = _decoder(loss, corruption)
    for batch in batches:
        fmt = (DCIFormat.FORMAT_1A if batch.direction is Direction.DOWNLINK
               else DCIFormat.FORMAT_0)
        for rnti, mcs, n_prb in zip(batch.rntis.tolist(), batch.mcs.tolist(),
                                    batch.n_prb.tolist()):
            scalar.on_pdcch(PDCCHTransmission(
                time_us=batch.time_us,
                encoded=DCIMessage(fmt=fmt, rnti=rnti, mcs=mcs,
                                   n_prb=n_prb).encode()))
        batched.on_pdcch_batch(batch)
    assert batched_records == scalar_records
    assert batched_raw == scalar_raw
    assert batched.capture_stats == scalar.capture_stats
    assert (batched._capture._rng.getstate()
            == scalar._capture._rng.getstate())
    stats = scalar.capture_stats
    total = sum(len(batch) for batch in batches)
    assert stats["captured"] + stats["lost"] == total
    if corruption:
        assert stats["corrupted"] > 0
    if loss < 0.9:
        assert stats["decoded"] > 0
