"""Trace containers: what the sniffer records and the pipeline consumes.

A *trace* is the paper's unit of data: the time-ordered sequence of
decoded DCI metadata for one user — ``(timestamp, RNTI, direction,
frame size)`` — as extracted by their customised srsLTE ``pdsch_ue``
(§V, Table II).  Traces carry metadata (app label, operator, cell, day)
used for training-set construction.  A trace persists to CSV/JSONL
(row interchange) and a :class:`TraceSet` to one NPZ archive (fast
batch storage), so datasets survive across runs, mirroring the paper's
released dataset.

Storage is **columnar**: a trace holds four parallel numpy arrays
(``times_s``/``rntis``/``directions``/``tbs_bytes``) rather than a list
of per-DCI objects, so filters, feature extraction and persistence are
bulk array operations.  A trace's columns never change after it is
built; the sniffer's emit path grows per-RNTI :class:`TraceBuilder`
buffers one decoded batch at a time and finalises them once per
capture.
"""

from __future__ import annotations

import csv
import json
import re
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..lte.dci import Direction

#: Column dtypes of the columnar storage.
TIME_DTYPE = np.float64
RNTI_DTYPE = np.uint32
DIR_DTYPE = np.uint8
TBS_DTYPE = np.int64

_MIN_CAPACITY = 64

#: The record values of a direction: ``int(Direction)``.
_DIRECTIONS = (int(Direction.UPLINK), int(Direction.DOWNLINK))


def check_record_values(times: np.ndarray, tbs: np.ndarray) -> None:
    """Reject non-finite record times and negative transport-block sizes.

    Shared by :meth:`Trace.from_arrays` and the streaming ingest paths,
    which call it before changing any state: one ``NaN`` clock would
    otherwise disable every later time-order check.
    """
    if not np.isfinite(times).all():
        raise ValueError("time_s must be finite")
    if len(tbs) and tbs.min() < 0:
        raise ValueError("tbs_bytes must be >= 0")


def check_record_fields(rntis, directions) -> None:
    """Reject RNTIs that no 16-bit C-RNTI holds and non-:class:`Direction`
    directions, before a dtype cast wraps or overflows them.

    The trace readers apply it to what they parse.  Traces built in
    memory keep the full u4/u1 column ranges, on which the feature,
    stream and correlation code is tested with edge values, so
    :meth:`Trace.from_arrays` does not.
    """
    rntis = np.asarray(rntis)
    if rntis.size and not 0 <= rntis.min() <= rntis.max() <= 0xFFFF:
        raise ValueError("rnti must be a 16-bit RNTI in [0, 0xFFFF]")
    # Two comparisons, not ``np.isin``: a sort-based membership test
    # costs ~20x more on the set reader's hot path.
    directions = np.asarray(directions)
    uplink, downlink = _DIRECTIONS
    if not ((directions == uplink) | (directions == downlink)).all():
        raise ValueError("dir must be 0 (uplink) or 1 (downlink)")


def int64_column(values, field: str) -> np.ndarray:
    """A parsed record column as int64, neither truncated nor overflowed.

    The CSV and JSONL readers parse RNTI, direction and TBS through it:
    a non-integral number such as ``1.5`` and a value outside int64
    raise ``ValueError`` naming ``field``, where a plain cast would
    truncate the first and raise ``OverflowError`` on the second.
    """
    column = np.asarray(values)
    if column.dtype.kind == "f" and not (
            (column == np.trunc(column)) & (column >= -2.0 ** 63)
            & (column < 2.0 ** 63)).all():
        raise ValueError(f"{field} must be an int64 integer")
    if column.dtype.kind == "u" and column.size \
            and column.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{field} must be an int64 integer")
    try:
        return np.array(column, dtype=np.int64)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{field} must be an int64 integer: "
                         f"{exc}") from None


class TraceBuilder:
    """Amortised-growth columnar buffers for the sniffer's emit path.

    The decoder's batches are appended as columns (no per-DCI object
    allocation); the buffers double on overflow and are finalised into
    a :class:`Trace` once per capture via :meth:`build`.
    """

    __slots__ = ("_times", "_rntis", "_dirs", "_tbs", "_n")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(1, capacity)
        self._times = np.empty(capacity, dtype=TIME_DTYPE)
        self._rntis = np.empty(capacity, dtype=RNTI_DTYPE)
        self._dirs = np.empty(capacity, dtype=DIR_DTYPE)
        self._tbs = np.empty(capacity, dtype=TBS_DTYPE)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * len(self._times))
        for name in ("_times", "_rntis", "_dirs", "_tbs"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self._n] = old[:self._n]
            setattr(self, name, new)

    # Views over the filled prefix (no copy).
    @property
    def times_s(self) -> np.ndarray:
        return self._times[:self._n]

    @property
    def rntis(self) -> np.ndarray:
        return self._rntis[:self._n]

    @property
    def directions(self) -> np.ndarray:
        return self._dirs[:self._n]

    @property
    def tbs_bytes(self) -> np.ndarray:
        return self._tbs[:self._n]

    def extend(self, times_s, rntis, directions, tbs_bytes) -> None:
        """Append parallel columns (one decoded batch) in one call.

        The batch must be in time order and must not start before the
        last buffered record.
        """
        count = len(times_s)
        if count == 0:
            return
        n = self._n
        if n and times_s[0] < self._times[n - 1]:
            raise ValueError("records must be appended in time order")
        if count > 1 and np.any(np.diff(times_s) < 0):
            raise ValueError("records must be appended in time order")
        while n + count > len(self._times):
            self._grow()
        self._times[n:n + count] = times_s
        self._rntis[n:n + count] = rntis
        self._dirs[n:n + count] = directions
        self._tbs[n:n + count] = tbs_bytes
        self._n = n + count

    def build(self, **metadata) -> "Trace":
        """Finalise into a :class:`Trace` (shares the buffers, no copy)."""
        return Trace.from_arrays(self.times_s, self.rntis, self.directions,
                                 self.tbs_bytes, validate=False, **metadata)


#: Expected dtype of every array of a set archive (the record columns
#: use the columnar storage dtypes).
_NPZ_DTYPES = {"times_s": TIME_DTYPE, "rntis": RNTI_DTYPE,
               "directions": DIR_DTYPE, "tbs_bytes": TBS_DTYPE,
               "offsets": np.int64}

_NPZ_COLUMNS = ("times_s", "rntis", "directions", "tbs_bytes")


#: What a truncated, torn or foreign file raises on its way through
#: ``zipfile``/``np.load`` once it is open: a bad ``.npy`` header or
#: short member data is a ``ValueError``; a member flagged encrypted, an
#: unknown compression method or ZIP version a ``RuntimeError`` (or its
#: subclass ``NotImplementedError``); bzip2 over foreign bytes an
#: ``OSError``.
_NPZ_READ_ERRORS = (zipfile.BadZipFile, EOFError, zlib.error, ValueError,
                    RuntimeError, OSError)


def _read_npz(handle):
    """The arrays present in an open set archive, and its metadata list.

    The metadata is ``None`` when the archive has no ``meta`` member.
    Nothing is validated here.
    """
    data = np.load(handle)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("a bare .npy array, not an NPZ archive")
    with data:
        metas = json.loads(str(data["meta"])) if "meta" in data else None
        arrays = {name: data[name] for name in _NPZ_DTYPES if name in data}
    return arrays, metas


def _checked_npz_columns(arrays: Dict, metas, path: Path) -> Dict:
    """Validate an NPZ archive's arrays before trusting their lengths.

    A truncated download or a partially written archive must fail here
    with a message naming the file and the defect, not as an index error
    (or silent short read) deep inside feature extraction.  Checks:
    every array and the metadata list are present, the metadata is a
    list of objects, each array has the canonical dtype and is
    one-dimensional, and the four record columns are equally long.
    """
    missing = [name for name in _NPZ_DTYPES if name not in arrays]
    if metas is None:
        missing.append("meta")
    if missing:
        raise ValueError(f"{path}: NPZ archive is missing arrays {missing} "
                         f"(truncated or foreign file?)")
    if not (isinstance(metas, list)
            and all(isinstance(meta, dict) for meta in metas)):
        raise ValueError(f"{path}: 'meta' must be a list of per-trace "
                         f"metadata objects (not a TraceSet archive?)")
    for name, column in arrays.items():
        expected = np.dtype(_NPZ_DTYPES[name])
        if column.dtype != expected:
            raise ValueError(f"{path}: column '{name}' has dtype "
                             f"{column.dtype}, expected {expected}")
        if column.ndim != 1:
            raise ValueError(f"{path}: column '{name}' must be "
                             f"one-dimensional, got shape {column.shape}")
    lengths = {name: len(arrays[name]) for name in _NPZ_COLUMNS}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"{path}: record columns have mismatched lengths "
                         f"{lengths} (truncated archive?)")
    return arrays


#: Metadata fields that hold text (or null).
_TEXT_METADATA = ("label", "category", "operator", "cell", "user")


class Trace:
    """A time-ordered sequence of records for one user plus metadata.

    Backed by four parallel, exactly sized arrays that are never
    written after the trace is built.
    """

    __slots__ = ("_times", "_rntis", "_dirs", "_tbs",
                 "label", "category", "operator", "cell", "day", "user")

    def __init__(self, *, label: Optional[str] = None,
                 category: Optional[str] = None,
                 operator: Optional[str] = None, cell: Optional[str] = None,
                 day: int = 0, user: Optional[str] = None) -> None:
        """An empty trace; :meth:`from_arrays` builds one with records."""
        self.label = label
        self.category = category
        self.operator = operator
        self.cell = cell
        self.day = day
        self.user = user
        self._times = np.empty(0, TIME_DTYPE)
        self._rntis = np.empty(0, RNTI_DTYPE)
        self._dirs = np.empty(0, DIR_DTYPE)
        self._tbs = np.empty(0, TBS_DTYPE)

    @classmethod
    def from_arrays(cls, times_s, rntis, directions, tbs_bytes,
                    validate: bool = True, **metadata) -> "Trace":
        """Build a trace directly from parallel columns.

        Arrays are adopted as-is when they already have the canonical
        dtypes (zero-copy); ``validate`` checks time order and value
        ranges for externally supplied data.
        """
        times = np.asarray(times_s, dtype=TIME_DTYPE)
        rntis = np.asarray(rntis, dtype=RNTI_DTYPE)
        dirs = np.asarray(directions, dtype=DIR_DTYPE)
        tbs = np.asarray(tbs_bytes, dtype=TBS_DTYPE)
        if not (len(times) == len(rntis) == len(dirs) == len(tbs)):
            raise ValueError("columns must have equal length")
        if validate and len(times):
            check_record_values(times, tbs)
            if np.any(np.diff(times) < 0):
                raise ValueError("records must be in time order")
            if times[0] < 0:
                raise ValueError(f"time_s must be >= 0: {times[0]}")
        trace = cls(**metadata)
        trace._times, trace._rntis, trace._dirs, trace._tbs = (
            times, rntis, dirs, tbs)
        return trace

    @classmethod
    def merged(cls, traces: Sequence["Trace"], **metadata) -> "Trace":
        """Stable time-ordered merge of several traces' columns.

        Ties keep the input-trace order (matching a stable sort of the
        concatenated records), which is what cross-cell stitching and
        per-RNTI grouping need.
        """
        parts = [t for t in traces if len(t)]
        if not parts:
            return cls(**metadata)
        times = np.concatenate([t.times_s for t in parts])
        order = np.argsort(times, kind="stable")
        return cls.from_arrays(
            times[order],
            np.concatenate([t.rntis for t in parts])[order],
            np.concatenate([t.directions for t in parts])[order],
            np.concatenate([t.tbs_bytes for t in parts])[order],
            validate=False, **metadata)

    # -- columns ----------------------------------------------------------------------

    @property
    def times_s(self) -> np.ndarray:
        """Timestamps (f8 seconds), non-decreasing."""
        return self._times

    @property
    def rntis(self) -> np.ndarray:
        """Per-record RNTI (u4)."""
        return self._rntis

    @property
    def directions(self) -> np.ndarray:
        """Per-record link direction as ``int(Direction)`` (u1)."""
        return self._dirs

    @property
    def tbs_bytes(self) -> np.ndarray:
        """Per-record transport-block size in bytes (i8)."""
        return self._tbs

    def __len__(self) -> int:
        return len(self._times)

    # -- aggregates -----------------------------------------------------------------

    @property
    def start_s(self) -> float:
        return float(self._times[0]) if len(self) else 0.0

    @property
    def end_s(self) -> float:
        return float(self._times[-1]) if len(self) else 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def total_bytes(self) -> int:
        return int(self.tbs_bytes.sum())

    def interarrival_times(self) -> np.ndarray:
        """Gaps between consecutive records (the Table II time vector)."""
        return np.diff(self.times_s)

    # -- filters (masks and searchsorted slices) -------------------------------------

    def direction_filtered(self, direction: Direction) -> "Trace":
        """A copy containing only one link direction (Table III columns)."""
        mask = self.directions == int(direction)
        return self._with_mask(mask)

    def time_sliced(self, start_s: float, end_s: float) -> "Trace":
        """Records with ``start_s <= t < end_s`` (zero-copy slice views)."""
        times = self.times_s
        lo = int(np.searchsorted(times, start_s, side="left"))
        hi = int(np.searchsorted(times, end_s, side="left"))
        return self.index_sliced(lo, hi)

    def index_sliced(self, lo: int, hi: int) -> "Trace":
        """Records in position range ``[lo, hi)`` as zero-copy views."""
        return Trace.from_arrays(self.times_s[lo:hi], self.rntis[lo:hi],
                                 self.directions[lo:hi],
                                 self.tbs_bytes[lo:hi], validate=False,
                                 **self.metadata())

    def iter_chunks(self, chunk_records: int):
        """Yield ``(times_s, rntis, directions, tbs_bytes)`` column chunks.

        Zero-copy slice views of at most ``chunk_records`` records each,
        in stream order — the feed shape the streaming data plane
        (:mod:`repro.stream`) ingests.  Concatenating the chunks
        reproduces the trace's columns exactly.
        """
        if chunk_records <= 0:
            raise ValueError(
                f"chunk_records must be positive: {chunk_records}")
        count = len(self)
        for lo in range(0, count, chunk_records):
            hi = min(lo + chunk_records, count)
            yield (self.times_s[lo:hi], self.rntis[lo:hi],
                   self.directions[lo:hi], self.tbs_bytes[lo:hi])

    def rnti_filtered(self, rntis: Iterable[int]) -> "Trace":
        """A copy containing only records for the given RNTIs.

        This is the IRB-mandated filtering step of the paper's ethics
        section: keep only traffic belonging to the experimenters' UEs.
        """
        wanted = np.asarray(list(rntis) if not isinstance(rntis, np.ndarray)
                            else rntis, dtype=np.int64)
        mask = np.isin(self.rntis.astype(np.int64), wanted)
        return self._with_mask(mask)

    def rebased(self) -> "Trace":
        """A copy with time shifted so the first record is at t=0."""
        if not len(self):
            return self.index_sliced(0, 0)
        times = self.times_s
        return Trace.from_arrays(times - times[0], self.rntis,
                                 self.directions, self.tbs_bytes,
                                 validate=False, **self.metadata())

    def _with_mask(self, mask: np.ndarray) -> "Trace":
        return Trace.from_arrays(self.times_s[mask], self.rntis[mask],
                                 self.directions[mask],
                                 self.tbs_bytes[mask], validate=False,
                                 **self.metadata())

    # -- persistence --------------------------------------------------------------

    _CSV_FIELDS = ("time_s", "rnti", "direction", "tbs_bytes")

    def to_csv(self, path: Path) -> None:
        """Write records as CSV with a JSON metadata header comment."""
        path = Path(path)
        times, rntis = self.times_s, self.rntis
        dirs, tbs = self.directions, self.tbs_bytes
        with path.open("w", newline="") as handle:
            handle.write(f"# {json.dumps(self.metadata())}\n")
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            writer.writerows(
                (f"{times[i]:.6f}", int(rntis[i]), int(dirs[i]), int(tbs[i]))
                for i in range(len(self)))

    @classmethod
    def from_csv(cls, path: Path) -> "Trace":
        """Read a trace previously written by :meth:`to_csv`."""
        path = Path(path)
        with path.open() as handle:
            first = handle.readline()
            metadata = json.loads(first[1:]) if first.startswith("#") else {}
            if not first.startswith("#"):
                handle.seek(0)
            reader = csv.reader(handle)
            next(reader, None)                      # header row
            columns = list(zip(*reader))
        if columns:
            if len(columns) < 4:
                raise ValueError(
                    f"{path}: expected 4 record columns "
                    f"(time_s,rnti,direction,tbs_bytes), got {len(columns)}")
            # Parsed wide, so the range check sees the values as written.
            try:
                rntis = int64_column(columns[1], "rnti")
                directions = int64_column(columns[2], "dir")
                check_record_fields(rntis, directions)
                trace = cls.from_arrays(
                    np.array(columns[0], dtype=TIME_DTYPE), rntis,
                    directions, int64_column(columns[3], "tbs"))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        else:
            trace = cls()
        trace.apply_metadata(metadata, path)
        return trace

    def to_jsonl(self, path: Path) -> None:
        """Write metadata line + one JSON object per record."""
        path = Path(path)
        with path.open("w") as handle:
            handle.write(json.dumps({"meta": self.metadata()}) + "\n")
            for time_s, rnti, direction, size in zip(
                    self.times_s.tolist(), self.rntis.tolist(),
                    self.directions.tolist(), self.tbs_bytes.tolist()):
                handle.write(json.dumps({
                    "t": round(time_s, 6), "rnti": rnti,
                    "dir": direction, "tbs": size,
                }) + "\n")

    @classmethod
    def from_jsonl(cls, path: Path) -> "Trace":
        """Read a trace previously written by :meth:`to_jsonl`.

        Record values are checked like :meth:`from_csv`'s: a malformed
        line, a non-integral or int64-overflowing RNTI, direction or
        size, an RNTI outside 16 bits, a direction that is no
        :class:`Direction`, a non-finite or negative time, a negative
        size or records out of time order raise ``ValueError``.
        """
        path = Path(path)
        columns = ([], [], [], [])
        metadata: Dict = {}
        with path.open() as handle:
            for lineno, line in enumerate(handle, start=1):
                obj = json.loads(line)
                if isinstance(obj, dict) and "meta" in obj:
                    metadata = obj["meta"]
                    continue
                # Malformed records surface as ValueError so callers
                # (the serve CLI) can report bad input, not crash.
                try:
                    row = (obj["t"], obj["rnti"], obj["dir"], obj["tbs"])
                except (KeyError, TypeError, IndexError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not a trace record "
                        f"(need t/rnti/dir/tbs): {exc}") from exc
                for column, value in zip(columns, row):
                    column.append(value)
        try:
            rntis = int64_column(columns[1], "rnti")
            directions = int64_column(columns[2], "dir")
            check_record_fields(rntis, directions)
            trace = cls.from_arrays(columns[0], rntis, directions,
                                    int64_column(columns[3], "tbs"))
        except TypeError as exc:
            raise ValueError(f"{path}: not a trace record column: "
                             f"{exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        trace.apply_metadata(metadata, path)
        return trace

    def metadata(self) -> Dict:
        return {"label": self.label, "category": self.category,
                "operator": self.operator, "cell": self.cell,
                "day": self.day, "user": self.user}

    def apply_metadata(self, metadata: Dict, source: object) -> None:
        """Set the metadata fields from a reader's JSON object.

        ``label``, ``category``, ``operator``, ``cell`` and ``user``
        must be strings or null; ``day`` an integer (an integral float
        counts, a bool does not) or null, which reads as day 0.  Any
        other value raises ``ValueError`` naming ``source``.
        """
        if not isinstance(metadata, dict):
            raise ValueError(f"{source}: trace metadata must be a JSON "
                             f"object, got {type(metadata).__name__}")
        for key in _TEXT_METADATA:
            value = metadata.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{source}: metadata {key!r} must be a "
                                 f"string or null, got {value!r}")
        day = metadata.get("day")
        if day is None:
            day = 0
        elif (isinstance(day, bool) or not isinstance(day, (int, float))
              or (isinstance(day, float) and not day.is_integer())):
            raise ValueError(f"{source}: metadata 'day' must be an "
                             f"integer, got {day!r}")
        self.label = metadata.get("label")
        self.category = metadata.get("category")
        self.operator = metadata.get("operator")
        self.cell = metadata.get("cell")
        self.day = int(day)
        self.user = metadata.get("user")


_TRACE_FILE_RE = re.compile(r"trace_(\d+)\.csv$")


class TraceSet:
    """A collection of traces (a dataset) with directory persistence."""

    def __init__(self, traces: Optional[List[Trace]] = None) -> None:
        self.traces: List[Trace] = traces or []

    def add(self, trace: Trace) -> None:
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def labels(self) -> List[str]:
        return sorted({t.label for t in self.traces if t.label is not None})

    def by_label(self, label: str) -> List[Trace]:
        return [t for t in self.traces if t.label == label]

    def save(self, directory: Path) -> None:
        """Persist every trace as ``trace_NNNNNN.csv`` in ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for index, trace in enumerate(self.traces):
            trace.to_csv(directory / f"trace_{index:06d}.csv")

    @classmethod
    def load(cls, directory: Path) -> "TraceSet":
        """Load every ``trace_*.csv`` from ``directory``.

        Files are ordered by their numeric index (not lexicographically),
        so datasets beyond 9 999 traces — and mixtures of the old 4-digit
        and current 6-digit filenames — round-trip in capture order.

        An ``.npz`` file path (or a directory containing ``traces.npz``)
        is detected automatically and loaded with :meth:`from_npz`.
        """
        directory = Path(directory)
        if directory.is_file() and directory.suffix == ".npz":
            return cls.from_npz(directory)
        if (directory / "traces.npz").is_file():
            return cls.from_npz(directory / "traces.npz")
        indexed = []
        for path in directory.glob("trace_*.csv"):
            match = _TRACE_FILE_RE.search(path.name)
            if match:
                indexed.append((int(match.group(1)), path))
        traces = [Trace.from_csv(path) for _, path in sorted(indexed)]
        return cls(traces)

    def to_npz(self, path, compressed: bool = True) -> None:
        """Batch-persist the whole set as one NPZ (columns + offsets).

        Orders of magnitude faster than the per-row CSV format for
        dataset round-trips; CSV/JSONL remain for interchange.
        ``compressed=False`` stores members raw: a larger file, but
        faster to write and to read back, which is why the trace cache
        uses it; archives that are kept suit the compressed default.
        """
        counts = np.array([len(t) for t in self.traces], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        if self.traces:
            times = np.concatenate([t.times_s for t in self.traces])
            rntis = np.concatenate([t.rntis for t in self.traces])
            dirs = np.concatenate([t.directions for t in self.traces])
            tbs = np.concatenate([t.tbs_bytes for t in self.traces])
        else:
            times = np.empty(0, TIME_DTYPE)
            rntis = np.empty(0, RNTI_DTYPE)
            dirs = np.empty(0, DIR_DTYPE)
            tbs = np.empty(0, TBS_DTYPE)
        meta = json.dumps([t.metadata() for t in self.traces])
        saver = np.savez_compressed if compressed else np.savez
        target = path if hasattr(path, "write") else Path(path)
        saver(target, offsets=offsets, times_s=times,
              rntis=rntis, directions=dirs, tbs_bytes=tbs,
              meta=np.array(meta))

    @classmethod
    def from_npz(cls, path: Path) -> "TraceSet":
        """Load a set previously written by :meth:`to_npz`.

        Validates the archive before slicing: columns present with the
        canonical dtypes and equal lengths, and the offsets array
        consistent with both the metadata list and the record count.
        Every record gets the checks :meth:`Trace.from_csv` applies: a
        16-bit RNTI, a :class:`Direction`, a finite non-negative time,
        a non-negative size, and time order within each trace.  A
        truncated, torn or foreign file or a bad record raises
        ``ValueError`` naming the file instead of silently yielding
        short or corrupt traces; a missing file raises
        ``FileNotFoundError``.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            try:
                arrays, metas = _read_npz(handle)
            except _NPZ_READ_ERRORS as exc:
                raise ValueError(f"{path}: unreadable NPZ archive (truncated "
                                 f"or foreign file?): {exc}") from None
        columns = _checked_npz_columns(arrays, metas, path)
        return cls._from_columns(columns, metas, path)

    @classmethod
    def _from_columns(cls, columns: Dict, metas: List[Dict],
                      path: Path) -> "TraceSet":
        """Check validated NPZ columns' records and slice them into traces."""
        offsets = columns["offsets"]
        times, rntis = columns["times_s"], columns["rntis"]
        dirs, tbs = columns["directions"], columns["tbs_bytes"]
        if len(offsets) != len(metas) + 1:
            raise ValueError(
                f"{path}: offsets length {len(offsets)} does not match "
                f"{len(metas)} metadata entries (expected "
                f"{len(metas) + 1})")
        if int(offsets[0]) != 0:
            raise ValueError(f"{path}: offsets must start at 0, got "
                             f"{int(offsets[0])}")
        if np.any(np.diff(offsets) < 0):
            raise ValueError(f"{path}: offsets must be non-decreasing")
        if int(offsets[-1]) != len(times):
            raise ValueError(
                f"{path}: offsets end at {int(offsets[-1])} but the "
                f"archive holds {len(times)} records "
                f"(truncated archive?)")
        try:
            _check_set_records(times, rntis, dirs, tbs, offsets)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        traces: List[Trace] = []
        for index, metadata in enumerate(metas):
            lo, hi = int(offsets[index]), int(offsets[index + 1])
            trace = Trace.from_arrays(times[lo:hi], rntis[lo:hi],
                                      dirs[lo:hi], tbs[lo:hi],
                                      validate=False)
            trace.apply_metadata(metadata, f"{path}: trace {index}")
            traces.append(trace)
        return cls(traces)


def _check_set_records(times, rntis, dirs, tbs, offsets) -> None:
    """``from_arrays(validate=True)`` and the reader field checks, applied
    to every trace of a set in a few passes over its concatenated columns.

    A time may only fall back where a trace starts, so the steps into
    each trace's first record are blanked before the order check.
    """
    check_record_fields(rntis, dirs)
    if not len(times):
        return
    check_record_values(times, tbs)
    steps = np.diff(times)
    starts = offsets[1:-1]
    steps[starts[(starts > 0) & (starts < len(times))] - 1] = 0.0
    backwards = np.flatnonzero(steps < 0)
    if len(backwards):
        index = int(np.searchsorted(offsets, backwards[0] + 1,
                                    side="right")) - 1
        raise ValueError(f"trace {index}: records must be in time order")
    if times.min() < 0:
        raise ValueError(f"time_s must be >= 0: {times.min()}")
