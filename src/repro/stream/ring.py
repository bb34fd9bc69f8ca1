"""Bounded columnar record buffer for the streaming data plane.

:class:`ColumnRing` holds the suffix of a DCI record stream that open
windows can still reference, as four parallel numpy columns plus the
running byte-prefix column.  Records are addressed by their *absolute*
stream index, which never changes as old records are pruned — so every
``searchsorted`` the windowizer performs against the ring translates
directly into the index the batch path would have computed against the
whole trace.

Two properties matter for bit-identity with the batch path:

* the byte prefix is a strictly sequential fold (an in-place
  ``np.cumsum`` over ``[carry, sizes...]``), so ``prefix_at(j)`` equals
  the batch's ``size_prefix[j]`` bitwise for every j still addressable;
* pruning only ever removes records *strictly below* every query the
  windowizer will still issue, so ``base + searchsorted(view, q)``
  equals a searchsorted against the full history.

The prefix column holds ``len + 1`` values: slot 0 is the byte total of
every pruned record and slot ``i + 1`` the total through live record
``i``, so ``prefix_at`` is one gather at ``j - base`` and never
concatenates.

The buffer is compacting rather than circular: pruning shifts the live
suffix to the front and appends grow a power-of-two capacity, keeping
columns contiguous for the vectorised gathers.  ``high_water`` records
the maximum live occupancy, which is what the bounded-memory assertion
in ``tests/stream`` checks.
"""

from __future__ import annotations

import numpy as np

from ..sniffer.trace import DIR_DTYPE, RNTI_DTYPE, TBS_DTYPE, TIME_DTYPE

_MIN_CAPACITY = 1024


class ColumnRing:
    """Compacting columnar buffer with absolute stream indexing."""

    __slots__ = ("_times", "_rntis", "_dirs", "_tbs", "_prefix",
                 "_base", "_len", "high_water")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self._times = np.empty(capacity, dtype=TIME_DTYPE)
        self._rntis = np.empty(capacity, dtype=RNTI_DTYPE)
        self._dirs = np.empty(capacity, dtype=DIR_DTYPE)
        self._tbs = np.empty(capacity, dtype=TBS_DTYPE)
        # _prefix[i] = bytes of records [0, base + i), for i <= len.
        self._prefix = np.zeros(capacity + 1, dtype=np.float64)
        self._base = 0          # absolute index of slot 0
        self._len = 0           # live records
        self.high_water = 0

    # -- geometry -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    @property
    def base(self) -> int:
        """Absolute index of the oldest retained record."""
        return self._base

    @property
    def end(self) -> int:
        """Absolute index one past the newest record (= records seen)."""
        return self._base + self._len

    @property
    def nbytes(self) -> int:
        """Allocated column bytes (capacity, not occupancy)."""
        return (self._times.nbytes + self._rntis.nbytes + self._dirs.nbytes
                + self._tbs.nbytes + self._prefix.nbytes)

    # -- views (live suffix, zero-copy) ------------------------------------------

    @property
    def times(self) -> np.ndarray:
        return self._times[:self._len]

    @property
    def rntis(self) -> np.ndarray:
        return self._rntis[:self._len]

    @property
    def directions(self) -> np.ndarray:
        return self._dirs[:self._len]

    @property
    def tbs_bytes(self) -> np.ndarray:
        return self._tbs[:self._len]

    # -- mutation -----------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = len(self._times)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        for name in ("_times", "_rntis", "_dirs", "_tbs"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:self._len] = old[:self._len]
            setattr(self, name, grown)
        prefix = np.empty(capacity + 1, dtype=np.float64)
        prefix[:self._len + 1] = self._prefix[:self._len + 1]
        self._prefix = prefix

    def append(self, times: np.ndarray, rntis: np.ndarray,
               directions: np.ndarray, tbs_bytes: np.ndarray) -> None:
        """Append one chunk (already sorted and direction-filtered)."""
        k = len(times)
        if k == 0:
            return
        self._reserve(k)
        n = self._len
        self._times[n:n + k] = times
        self._rntis[n:n + k] = rntis
        self._dirs[n:n + k] = directions
        self._tbs[n:n + k] = tbs_bytes
        # Sequential fold over [carry, sizes...] in place: slot n holds
        # the carried total, so this is bitwise-identical to the
        # corresponding slice of np.cumsum over the whole history
        # (np.add.accumulate is a strict left fold).
        fold = self._prefix[n:n + k + 1]
        fold[1:] = tbs_bytes
        np.cumsum(fold, out=fold)
        self._len = n + k
        if self._len > self.high_water:
            self.high_water = self._len

    def prune_below(self, abs_index: int) -> int:
        """Drop records with absolute index < ``abs_index``; returns count."""
        drop = min(max(abs_index - self._base, 0), self._len)
        if drop == 0:
            return 0
        keep = self._len - drop
        for name in ("_times", "_rntis", "_dirs", "_tbs"):
            column = getattr(self, name)
            column[:keep] = column[drop:self._len]
        self._prefix[:keep + 1] = self._prefix[drop:self._len + 1]
        self._base += drop
        self._len = keep
        return drop

    # -- prefix sums --------------------------------------------------------------

    @property
    def total_prefix(self) -> float:
        """Byte prefix at ``end`` — total bytes of every record seen."""
        return float(self._prefix[self._len])

    @property
    def prefix(self) -> np.ndarray:
        """Byte prefix of the live suffix, zero-copy: slot ``i`` holds
        the bytes of records ``[0, base + i)``, for ``i <= len``."""
        return self._prefix[:self._len + 1]

    def prefix_at(self, abs_indices: np.ndarray) -> np.ndarray:
        """``size_prefix[j]`` (bytes of records [0, j)) per absolute index.

        Valid for ``base <= j <= end``; bitwise equal to the batch
        path's ``np.concatenate([[0.0], np.cumsum(sizes)])[j]``.
        """
        return self.prefix[np.asarray(abs_indices) - self._base]
