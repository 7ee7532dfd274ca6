"""On-disk result cache for experiment cells.

Every cell the engine runs is identified by a *content hash* of the
inputs that fully determine its result: application, configuration
name, thread count, seed, the complete :class:`~repro.config.MachineConfig`,
any thrifty-policy overrides, and the package version (the simulator is
bit-deterministic, so a new package version is the only way an identical
input can legitimately produce a different output). Re-running a
figure, sweep, chaos campaign or benchmark therefore skips every
already-simulated cell, which is also how a killed campaign resumes:
run the same command again on the same cache.

Cache entries are individual pickle files **sharded** into 2-hex
content-hash prefix directories (``<dir>/ab/<key>.pkl``), so
concurrent workers fan their writes out over 256 directories instead
of contending on one.

Writes are atomic (temp file + ``os.replace``), and any entry that
fails to load — truncated, corrupted, or written by an incompatible
pickle — is treated as a miss and removed, never an error. Writes
route through the storage fault seams of :mod:`repro.faults.storage`
and *degrade* on a failing disk (ENOSPC, EIO): a store that cannot
land is counted in :attr:`ResultCache.write_errors` and dropped — the
cell simply re-runs next time — instead of killing the campaign.
"""

import hashlib
import json
import os
import pickle
import warnings
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from repro import __version__
from repro.errors import ConfigError
from repro.faults import storage as _storage

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ENTRY_SUFFIX = ".pkl"

#: Glob matching exactly the 2-hex shard directories.
_SHARD_GLOB = "[0-9a-f][0-9a-f]"


def default_cache_dir():
    """The on-disk cache location: ``$REPRO_CACHE_DIR`` if set, else
    ``~/.cache/repro-thrifty``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-thrifty"


def _canonical(value):
    """Reduce ``value`` to JSON-serializable primitives, recursively.

    Dataclasses carry their qualified class name so two config types
    with coincidentally equal fields hash differently; enums hash by
    value; tuples/lists/sets collapse to lists (sets sorted by repr).
    """
    if is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
        }
        body["__dataclass__"] = "{}.{}".format(
            type(value).__module__, type(value).__qualname__
        )
        return body
    if isinstance(value, Enum):
        return {"__enum__": str(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigError(
        "cannot build a stable cache key from {!r} (type {})".format(
            value, type(value).__name__
        )
    )


def content_key(
    app, config, threads, seed, machine_config, overrides=None,
    telemetry=False, chaos=None,
):
    """Stable hex digest identifying one experiment cell.

    Any perturbation of any field — including nested fields of the
    machine config, the ``telemetry`` flag (a traced result carries the
    event stream a plain one does not), and a bump of the package
    version — yields a new key. ``chaos`` (a dict of the fault plan and
    liveness deadline) keys an audited chaos report instead of an
    experiment result; its presence alone keeps the two kinds of entry
    apart.
    """
    payload = {
        "version": __version__,
        "app": app,
        "config": config,
        "threads": threads,
        "seed": seed,
        "machine": _canonical(machine_config),
        "overrides": _canonical(dict(overrides or {})),
        "telemetry": bool(telemetry),
    }
    if chaos is not None:
        payload["chaos"] = _canonical(chaos)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-per-entry result store with hit/miss accounting.

    Corruption-tolerant: a load failure of any kind counts as a miss
    and evicts the bad entry. Counters (:attr:`hits`, :attr:`misses`,
    :attr:`stores`, :attr:`errors`) let callers verify "zero
    re-simulations" on a warm re-run.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        #: Stores lost to a failing disk (degraded, not raised).
        self.write_errors = 0
        self.last_write_error = None
        self._warned_write = False

    @classmethod
    def coerce(cls, cache):
        """Normalize the ``cache=`` argument accepted by entry points.

        ``None`` → no caching; an existing :class:`ResultCache` is
        passed through; ``True`` → the default directory; a string or
        path → a cache rooted there.
        """
        if cache is None:
            return None
        if isinstance(cache, cls):
            return cache
        if cache is True:
            return cls()
        if isinstance(cache, (str, os.PathLike)):
            return cls(cache)
        raise ConfigError(
            "cache must be None, True, a path, or a ResultCache; got "
            "{!r}".format(cache)
        )

    def _entry_path(self, key):
        """The canonical (sharded) location of a key's entry."""
        return self.cache_dir / key[:2] / (key + _ENTRY_SUFFIX)

    @staticmethod
    def _load(path):
        """``(value, status)`` with status 'hit'/'missing'/'corrupt'."""
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle), "hit"
        except FileNotFoundError:
            return None, "missing"
        except Exception:
            return None, "corrupt"

    @staticmethod
    def _evict(path):
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, key, default=None):
        """Load a cached result, or ``default`` on miss/corruption."""
        path = self._entry_path(key)
        value, status = self._load(path)
        if status == "hit":
            self.hits += 1
            return value
        if status == "corrupt":
            # Truncated/corrupted/incompatible entry: a miss, not a crash.
            self.errors += 1
            self._evict(path)
        self.misses += 1
        return default

    def put(self, key, value):
        """Store a result atomically and durably (temp file, fsync,
        rename): a crash mid-``put`` leaves at worst a stale ``.tmp``
        file — never a truncated entry under the real name.

        Returns True when the entry landed. A failing disk (ENOSPC,
        EIO — injected or real) degrades to False: the store is
        counted in :attr:`write_errors` and the cell re-runs as a miss
        next time, because a cache that kills its campaign over a full
        disk would be worse than no cache. Unpicklable values still
        raise — that is a caller bug, not a disk fault.
        """
        path = self._entry_path(key)
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            _storage.atomic_write_bytes(path, data)
        except OSError as exc:
            self.write_errors += 1
            self.last_write_error = "{}: {}".format(type(exc).__name__, exc)
            if not self._warned_write:
                self._warned_write = True
                warnings.warn(
                    "result cache at {}: store failed ({}); degrading — "
                    "the entry is dropped and its cell will re-run as a "
                    "miss".format(self.cache_dir, exc),
                    RuntimeWarning, stacklevel=2,
                )
            return False
        self.stores += 1
        return True

    def __contains__(self, key):
        return self._entry_path(key).exists()

    def entries(self):
        """All entry paths currently on disk.

        Only the 2-hex shard directories are scanned, so foreign
        subdirectories (e.g. an fsck ``quarantine/``) are never counted
        or touched by :meth:`clear`/:meth:`prune`.
        """
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob(_SHARD_GLOB + "/*" + _ENTRY_SUFFIX))

    def __len__(self):
        return len(self.entries())

    def clear(self):
        """Remove every entry, plus any ``.tmp`` files a killed writer
        left behind (the directory itself is kept). Returns the number
        of entries removed (tmp leftovers are not counted)."""
        stale = []
        if self.cache_dir.is_dir():
            stale = sorted(self.cache_dir.glob(_SHARD_GLOB + "/*.tmp"))
        entries = list(self.entries())
        removed = 0
        for path in entries + stale:
            try:
                path.unlink()
            except OSError:
                continue
            if path not in stale:
                removed += 1
        return removed

    def prune(self, max_entries):
        """Evict oldest entries (by mtime) down to ``max_entries``."""
        if max_entries < 0:
            raise ConfigError("max_entries must be non-negative")
        paths = self.entries()
        if len(paths) <= max_entries:
            return 0
        paths.sort(key=lambda p: p.stat().st_mtime, reverse=True)
        evicted = 0
        for path in paths[max_entries:]:
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass
        return evicted

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "write_errors": self.write_errors,
        }

    def size_bytes(self):
        """Total bytes of all entries currently on disk."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def __repr__(self):
        return "ResultCache({!r}, hits={}, misses={})".format(
            str(self.cache_dir), self.hits, self.misses
        )
