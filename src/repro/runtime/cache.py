"""Content-addressed on-disk cache for simulated captures.

Every experiment regenerates identical seeded traces from scratch; at
``full`` scale that is minutes of pure waste per table.  This cache
stores what the simulator produces — the *clean* capture, before any
fault plan degrades it — keyed on everything that determines it:

* the capture parameters (app, operator, duration, seed, day,
  background count, settle time);
* a **code fingerprint** — a digest of every ``*.py`` file under
  ``src/repro`` plus the numpy version — so any source edit yields a
  disjoint key space without manual versioning.  That invalidates more
  than strictly needed, but no edit can leave a stale key.

Every entry is one *uncompressed* :class:`~repro.sniffer.trace.TraceSet`
NPZ (``<sha256>.npz``; a capture is a one-member set, a conversation a
two-member set), stored raw because that writes and reads back faster
than deflated members.  A hit is one plain
:meth:`~repro.sniffer.trace.TraceSet.from_npz` read, which checks every
record as any archive read does, and nothing read from the directory
is ever unpickled.
Writes go via write-to-temp + ``os.replace``, so concurrent writers
(parallel pytest runs, multi-process fan-outs) can never leave a torn
entry; the worst case is writing the same bytes twice.  A byte-size
LRU bound keeps the directory from growing without limit: recency is
``st_mtime`` (hits touch their entry via ``os.utime``, which bumps
atime *and* mtime), and eviction walks entries oldest-mtime first with
a deterministic filename tie-break.  Legacy ``*.pkl`` entries are
still listed, so the LRU bound and ``cache --clear`` remove them;
nothing reads them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .. import obs

#: Environment knobs (documented in README / CLI help).
CACHE_ENV = "REPRO_TRACE_CACHE"          # "0"/"off"/"false" disables
CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"  # overrides the directory
CACHE_MB_ENV = "REPRO_TRACE_CACHE_MB"    # LRU bound in megabytes

DEFAULT_MAX_BYTES = 1 << 30              # 1 GiB

_FINGERPRINT: Optional[str] = None


def fingerprinted_files() -> List[Path]:
    """The source files :func:`code_fingerprint` digests, in order."""
    return sorted(Path(__file__).resolve().parent.parent.rglob("*.py"))


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file and numpy (cached per process).

    Any source edit yields a new fingerprint, and therefore a disjoint
    key space: stale entries are never *returned*, only eventually
    evicted by the LRU bound.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(f"numpy {np.__version__}\0".encode())
        for path in fingerprinted_files():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def default_cache_dir() -> Path:
    """``$REPRO_TRACE_CACHE_DIR`` or the XDG cache home."""
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-lte" / "traces"


def cache_enabled_from_env(default: bool = True) -> bool:
    raw = os.environ.get(CACHE_ENV, "").strip().lower()
    if not raw:
        return default
    return raw not in ("0", "off", "false", "no")


def max_bytes_from_env(default: int = DEFAULT_MAX_BYTES) -> int:
    raw = os.environ.get(CACHE_MB_ENV, "").strip()
    if not raw:
        return default
    try:
        return max(1, int(float(raw) * (1 << 20)))
    except ValueError:
        raise ValueError(
            f"{CACHE_MB_ENV} must be a number of megabytes: {raw!r}"
        ) from None


@dataclass
class CacheStats:
    """Counters the acceptance checks and the CLI report read."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "evictions": self.evictions}


class TraceCache:
    """Content-addressed store of ``TraceSet`` NPZ entries, LRU-bounded.

    Args:
        directory: where entries live (created on demand).
        max_bytes: LRU size bound; oldest-accessed entries go first.
        fingerprint: code-version component of every key; defaults to
            :func:`code_fingerprint`.  Tests inject synthetic values to
            exercise invalidation.
    """

    def __init__(self, directory: Path,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 fingerprint: Optional[str] = None) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1: {max_bytes}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())
        self.stats = CacheStats()
        # Registry mirrors of the CacheStats counters (``stats`` stays
        # the public per-instance record; tests replace it wholesale).
        self._hits_obs = obs.counter("runtime.cache.hits")
        self._misses_obs = obs.counter("runtime.cache.misses")
        self._stores_obs = obs.counter("runtime.cache.stores")
        self._evictions_obs = obs.counter("runtime.cache.evictions")

    # -- keys ---------------------------------------------------------------------

    def key(self, **fields) -> str:
        """Content address for one simulation: params + code version."""
        payload = {"code": self.fingerprint}
        payload.update(fields)
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    # -- read / write -------------------------------------------------------------

    def get(self, key: str):
        """The cached ``TraceSet``, or ``None`` on miss (or torn entry)."""
        with obs.span("cache.get"):
            return self._get(key)

    def _get(self, key: str):
        from ..sniffer.trace import TraceSet
        path = self._path(key)
        try:
            value = TraceSet.from_npz(path)
        except FileNotFoundError:
            value = None
        except Exception:
            # Torn or incompatible entry: drop it and treat as a miss.
            value = None
            try:
                path.unlink()
            except OSError:
                pass
        if value is None:
            self.stats.misses += 1
            self._misses_obs.inc()
            return None
        self.stats.hits += 1
        self._hits_obs.inc()
        try:
            os.utime(path)           # bump LRU recency (atime and mtime)
        except OSError:
            pass
        return value

    def put(self, key: str, value) -> None:
        """Atomically store a ``TraceSet``; concurrent writers never collide."""
        with obs.span("cache.put"):
            self._put(key, value)

    def _put(self, key: str, value) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                value.to_npz(handle, compressed=False)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self._stores_obs.inc()
        self._evict_over_bound()

    # -- maintenance --------------------------------------------------------------

    def entries(self):
        """(path, size, mtime) for every entry currently on disk.

        ``st_mtime`` — not atime — is the LRU recency key: :meth:`get`
        bumps a hit entry with ``os.utime``, which updates *both*
        atime and mtime, so mtime tracks last use even on
        noatime/relatime mounts where atime is unreliable.  Entries
        come back sorted by ``(mtime, filename)``, least recently used
        first, so eviction order is deterministic even when several
        entries share one timestamp (coarse filesystem clocks, batch
        writes).  Legacy ``*.pkl`` entries are listed too, so the bound
        and :meth:`clear` still remove them.
        """
        out = []
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return out
        for name in names:
            if not (name.endswith(".pkl") or name.endswith(".npz")):
                continue
            path = self.directory / name
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        out.sort(key=lambda entry: (entry[2], entry[0].name))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def _evict_over_bound(self) -> None:
        # entries() is already LRU-ordered with a deterministic
        # (mtime, filename) tie-break, so two processes evicting over
        # the same directory agree on the order.
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for path, size, _ in entries:
            try:
                path.unlink()
            except OSError:
                continue
            self.stats.evictions += 1
            self._evictions_obs.inc()
            total -= size
            if total <= self.max_bytes:
                break

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path, _, _ in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
