"""Transport Block Size (TBS) computation, after 3GPP TS 36.213.

The *frame size* feature that the paper's classifier relies on is the
Transport Block Size signalled by each DCI: the number of MAC-layer bits
granted to a UE in one TTI, determined by the TBS index ``I_TBS``
(derived from the MCS) and the number of physical resource blocks
``N_PRB`` allocated (Table 7.1.7.2.1-1 of TS 36.213).

Shipping the verbatim 27x110 standard table is impractical here, so the
table is *reconstructed* from the standard's own design rule: each
``I_TBS`` row corresponds to a target spectral efficiency (modulation
order x code rate), and entries are the per-PRB information bits scaled
by ``N_PRB`` and quantised to byte-aligned sizes.  The reconstruction is
anchored to the true corner values of the standard (16 bits at
``I_TBS=0, N_PRB=1``; 75 376 bits at ``I_TBS=26, N_PRB=110``) and is
exactly monotone in both indices, which is the property the
fingerprinting pipeline depends on: larger grants => larger observed
frame sizes, spanning the same 0-4 kB range the paper reports for
streaming traffic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

#: Number of TBS index rows (I_TBS 0..26).
N_ITBS = 27

#: Maximum number of physical resource blocks in a 20 MHz carrier.
MAX_PRB = 110

#: Per-PRB information bits for I_TBS = 0 at N_PRB = 1 (true standard value).
_TBS_MIN_BITS = 16

#: TBS for I_TBS = 26 at N_PRB = 110 (true standard value).
_TBS_MAX_BITS = 75376

# Approximate spectral efficiency (information bits per resource element)
# per I_TBS row, following the modulation-and-coding ladder of
# TS 36.213 Table 7.1.7.1-1: QPSK rows 0-9, 16QAM rows 10-15, 64QAM 16-26.
_EFFICIENCY = (
    0.1523, 0.1943, 0.2344, 0.3066, 0.3770, 0.4385, 0.5879, 0.7402,
    0.8770, 1.0273, 1.1758, 1.3262, 1.4766, 1.6953, 1.9141, 2.1602,
    2.4063, 2.5703, 2.7305, 3.0293, 3.3223, 3.6094, 3.9023, 4.2129,
    4.5234, 4.8164, 5.1152,
)

#: Data-bearing resource elements per PRB pair in one TTI (12 subcarriers
#: x 14 symbols, minus typical control/reference-signal overhead).
_RE_PER_PRB = 120


def _raw_bits(i_tbs: int, n_prb: int) -> float:
    """Unquantised information bits for a grant of ``n_prb`` PRBs."""
    return _EFFICIENCY[i_tbs] * _RE_PER_PRB * n_prb


# Scale factor aligning the reconstruction to the standard's corner values.
_SCALE = _TBS_MAX_BITS / _raw_bits(26, 110)


@lru_cache(maxsize=None)
def _tbs_table() -> Tuple[Tuple[int, ...], ...]:
    """Build the full monotone 27 x 110 TBS table (bits)."""
    rows = []
    for i_tbs in range(N_ITBS):
        row = []
        previous = 0
        for n_prb in range(1, MAX_PRB + 1):
            bits = int(_raw_bits(i_tbs, n_prb) * _SCALE)
            # Byte-align, enforce the standard's floor, keep row monotone.
            bits = max(_TBS_MIN_BITS, (bits // 8) * 8, previous)
            row.append(bits)
            previous = bits
        rows.append(tuple(row))
    # Enforce monotonicity across I_TBS as well (column-wise).
    for i_tbs in range(1, N_ITBS):
        fixed = []
        for col in range(MAX_PRB):
            fixed.append(max(rows[i_tbs][col], rows[i_tbs - 1][col]))
        rows[i_tbs] = tuple(fixed)
    return tuple(rows)


def transport_block_size(i_tbs: int, n_prb: int) -> int:
    """TBS in **bits** for TBS index ``i_tbs`` and ``n_prb`` resource blocks.

    Raises :class:`ValueError` for out-of-range indices, mirroring the
    fact that no such grant can be signalled on a real PDCCH.
    """
    if not 0 <= i_tbs < N_ITBS:
        raise ValueError(f"I_TBS out of range [0, {N_ITBS - 1}]: {i_tbs}")
    if not 1 <= n_prb <= MAX_PRB:
        raise ValueError(f"N_PRB out of range [1, {MAX_PRB}]: {n_prb}")
    return _tbs_table()[i_tbs][n_prb - 1]


def transport_block_bytes(i_tbs: int, n_prb: int) -> int:
    """TBS in **bytes** (the unit the sniffer records as frame size)."""
    return transport_block_size(i_tbs, n_prb) // 8


# --- MCS ladder ------------------------------------------------------------

#: MCS index -> (modulation order, I_TBS), TS 36.213 Table 7.1.7.1-1.
MCS_TABLE: Tuple[Tuple[int, int], ...] = tuple(
    [(2, i) for i in range(10)]            # MCS 0-9: QPSK, I_TBS 0-9
    + [(4, i) for i in range(9, 16)]       # MCS 10-16: 16QAM, I_TBS 9-15
    + [(6, i) for i in range(15, 27)]      # MCS 17-28: 64QAM, I_TBS 15-26
)

MAX_MCS = len(MCS_TABLE) - 1


def mcs_to_itbs(mcs: int) -> int:
    """Map an MCS index (0-28) to its TBS index."""
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS out of range [0, {MAX_MCS}]: {mcs}")
    return MCS_TABLE[mcs][1]


def mcs_modulation_order(mcs: int) -> int:
    """Bits per modulation symbol for an MCS index (2/4/6)."""
    if not 0 <= mcs <= MAX_MCS:
        raise ValueError(f"MCS out of range [0, {MAX_MCS}]: {mcs}")
    return MCS_TABLE[mcs][0]


#: CQI (1-15) -> highest MCS the eNB scheduler will select, a standard
#: link-adaptation ladder (conservative inner-loop mapping).
CQI_TO_MCS: Tuple[int, ...] = (0, 0, 2, 4, 6, 8, 10, 12, 14, 17, 19, 21, 23, 25, 27, 28)


def cqi_to_mcs(cqi: int) -> int:
    """Map a CQI report (0-15) to the scheduler's MCS choice."""
    if not 0 <= cqi <= 15:
        raise ValueError(f"CQI out of range [0, 15]: {cqi}")
    return CQI_TO_MCS[cqi]


# --- vectorised lookup views (the array-backed engine's tables) -------------
#
# The batched TTI loop (:mod:`repro.lte.vecsched`, :mod:`repro.lte.engine`)
# reuses the exact tables above as numpy lookup arrays, so scalar and
# vector paths can never disagree on a single TBS value.  All arrays are
# built once per process and marked read-only.


@lru_cache(maxsize=None)
def tbs_bytes_array() -> np.ndarray:
    """The 27x110 TBS table in **bytes** as a read-only int64 array.

    ``tbs_bytes_array()[i_tbs, n_prb - 1] == transport_block_bytes(i_tbs,
    n_prb)`` for every valid index; rows are non-decreasing, which is what
    the batched ``searchsorted`` grant kernel relies on.
    """
    table = np.array(_tbs_table(), dtype=np.int64) // 8
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def itbs_of_mcs_array() -> np.ndarray:
    """MCS index -> I_TBS as a read-only int64 lookup array."""
    arr = np.array([itbs for _, itbs in MCS_TABLE], dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def mcs_of_cqi_array() -> np.ndarray:
    """CQI (0-15) -> MCS as a read-only int64 lookup array."""
    arr = np.array(CQI_TO_MCS, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def pf_instantaneous_bytes_array() -> np.ndarray:
    """I_TBS -> reference TBS bytes at N_PRB=25 (PF priority numerator).

    Float64 so the vector PF priority divides exactly like the scalar
    ``transport_block_bytes(i_tbs, 25) / max(avg, 1e-9)`` expression.
    """
    arr = tbs_bytes_array()[:, 24].astype(np.float64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def neg_pf_instantaneous_bytes_array() -> np.ndarray:
    """Negated :func:`pf_instantaneous_bytes_array` (descending argsort).

    ``(-x) / y`` is IEEE-identical to ``-(x / y)``, so sorting the
    negated priority ascending reproduces the scalar PF's descending
    rank exactly while saving a per-TTI negation pass.
    """
    arr = -pf_instantaneous_bytes_array()
    arr.setflags(write=False)
    return arr


# --- scalar-lane lookup views ------------------------------------------------
#
# The engine's scalar lane (few-UE cells) runs one TTI on Python ints;
# tuples of Python numbers index several times faster than numpy scalars
# there.  They are copies of the arrays above, so the lanes share every
# value bit for bit.


@lru_cache(maxsize=None)
def tbs_bytes_rows() -> Tuple[Tuple[int, ...], ...]:
    """:func:`tbs_bytes_array` as nested tuples of Python ints."""
    return tuple(tuple(row) for row in tbs_bytes_array().tolist())


@lru_cache(maxsize=None)
def itbs_of_mcs_tuple() -> Tuple[int, ...]:
    """:func:`itbs_of_mcs_array` as a tuple of Python ints."""
    return tuple(itbs_of_mcs_array().tolist())


@lru_cache(maxsize=None)
def neg_pf_instantaneous_bytes_tuple() -> Tuple[float, ...]:
    """:func:`neg_pf_instantaneous_bytes_array` as Python floats."""
    return tuple(neg_pf_instantaneous_bytes_array().tolist())


def grant_for_bytes(pending_bytes: int, mcs: int, max_prb: int) -> Tuple[int, int]:
    """Pick the smallest PRB allocation carrying ``pending_bytes``.

    Returns ``(n_prb, tbs_bytes)``.  If even ``max_prb`` PRBs cannot carry
    the backlog, the grant saturates at ``max_prb`` and the remainder
    stays queued for the next TTI - exactly how an eNB segments a large
    IP burst into consecutive per-TTI transport blocks.
    """
    if pending_bytes <= 0:
        raise ValueError(f"pending_bytes must be positive: {pending_bytes}")
    if not 1 <= max_prb <= MAX_PRB:
        raise ValueError(f"max_prb out of range [1, {MAX_PRB}]: {max_prb}")
    i_tbs = mcs_to_itbs(mcs)
    row = _tbs_table()[i_tbs]
    # Binary search the monotone row for the first PRB count that fits.
    low, high = 1, max_prb
    if row[max_prb - 1] // 8 <= pending_bytes:
        return max_prb, row[max_prb - 1] // 8
    while low < high:
        mid = (low + high) // 2
        if row[mid - 1] // 8 >= pending_bytes:
            high = mid
        else:
            low = mid + 1
    return low, row[low - 1] // 8
