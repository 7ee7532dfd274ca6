"""Seeded filesystem fault injection and the durable-I/O shim.

The result cache is the one place campaign results persist, and its
crash safety rests on two storage idioms: tmp-file + ``os.replace``
atomic writes and corruption-tolerant reads. A healthy filesystem
never tests them; the failures that visit production disks do:
``ENOSPC``, ``EIO``, short/torn writes, and a process dying
mid-``fsync``.

This module makes those failures reproducible with two layers:

* a **shim** — :func:`shim_write`, :func:`shim_fsync`,
  :func:`shim_replace` and the durable primitive
  :func:`atomic_write_bytes` built on them. The result cache and the
  CLI's exports route every durability-critical syscall through these
  seams. With no injector installed each seam is a single ``is None``
  test in front of the real ``os`` call, so the disabled path costs
  nothing measurable (``benchmarks/bench_storage_overhead.py`` holds
  ``shim_write`` + ``shim_fsync`` to <2% of ``os.write`` +
  ``os.fsync``);
* a **seeded injector** — :class:`StorageFaultPlan` (pure data, like
  :class:`~repro.faults.plan.FaultPlan`) plus
  :class:`StorageFaultInjector`, which executes the plan against the
  shim deterministically: the same ``(seed, plan)`` against the same
  operation sequence injects the same faults at the same points. That
  determinism is what lets CI kill a campaign with a seeded
  ENOSPC/torn-write/crash plan, repair its cache with ``repro fsck``,
  re-run it, and byte-compare against a fault-free run.

Faults modeled
--------------

``enospc``
    ``os.write`` raises ``OSError(ENOSPC)``. With
    ``fill_after_bytes`` set, the injector behaves like a disk with
    that many free bytes: writes succeed until the horizon, then the
    final write lands a *prefix* (the classic disk-full tear) and
    every later write fails.
``torn-write``
    Only a seeded prefix of the data reaches the file before the
    write raises — the on-disk state a power cut or full disk leaves
    behind mid-append.
``eio``
    A write, fsync, or rename raises ``OSError(EIO)`` — the
    going-bad-disk case the corrupt-read counters exist for.
``crash-fsync``
    The Nth fsync raises :class:`SimulatedCrash` **instead of**
    syncing. It derives from ``BaseException`` so no graceful
    ``except OSError`` degrade path can absorb it: it unwinds the
    process like a kill, leaving whatever the previous faults left on
    disk for ``repro fsck`` to find.

Activation is explicit (:func:`install_storage_faults` /
:class:`storage_faults`) or via the ``REPRO_STORAGE_FAULTS``
environment variable holding the plan as JSON
(:func:`install_from_env`) — the hook the CLI uses so a *subprocess*
campaign can run under a fault plan in CI.
"""

import errno
import json
import os
import random
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ConfigError

#: Environment variable holding a JSON-encoded :class:`StorageFaultPlan`.
STORAGE_FAULTS_ENV = "REPRO_STORAGE_FAULTS"

#: Injectable storage fault kinds, for reference and validation.
STORAGE_FAULT_KINDS = ("enospc", "torn-write", "eio", "crash-fsync")

_PROBABILITY_FIELDS = (
    "enospc_probability",
    "torn_write_probability",
    "eio_probability",
)


class SimulatedCrash(BaseException):
    """The process "died" at an injected crash point.

    Deliberately a ``BaseException``: the graceful-degradation paths
    catch ``OSError`` (a full disk must not kill a campaign), and a
    simulated crash must not be degradable — it has to unwind the
    whole process the way SIGKILL would, leaving the on-disk state
    exactly as the preceding faults tore it.
    """


@dataclass(frozen=True)
class StorageFaultPlan:
    """One seeded recipe of storage faults (see the module docstring).

    Probabilities are per *operation* (per shim write / fsync /
    rename); ``crash_at_fsync`` counts fsyncs (0 disables);
    ``fill_after_bytes`` is the simulated free-space horizon in bytes
    (0 = unlimited). The all-zero default plan is a no-op.
    """

    name: str = "storage-chaos"
    seed: int = 0
    enospc_probability: float = 0.0
    torn_write_probability: float = 0.0
    eio_probability: float = 0.0
    crash_at_fsync: int = 0
    fill_after_bytes: int = 0

    def __post_init__(self):
        for field_name in _PROBABILITY_FIELDS:
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    "{} must be in [0, 1], got {}".format(field_name, value)
                )
        if self.crash_at_fsync < 0:
            raise ConfigError(
                "crash_at_fsync must be non-negative (0 disables), got "
                "{}".format(self.crash_at_fsync)
            )
        if self.fill_after_bytes < 0:
            raise ConfigError(
                "fill_after_bytes must be non-negative (0 = unlimited), "
                "got {}".format(self.fill_after_bytes)
            )

    @property
    def is_noop(self):
        """True when no fault can ever fire (the all-zero plan)."""
        return (
            all(getattr(self, f) == 0.0 for f in _PROBABILITY_FIELDS)
            and self.crash_at_fsync == 0
            and self.fill_after_bytes == 0
        )

    def describe(self):
        """Compact one-line summary of the active fault sources."""
        active = [
            "{}={:g}".format(f.replace("_probability", ""), value)
            for f in _PROBABILITY_FIELDS
            if (value := getattr(self, f)) > 0
        ]
        if self.crash_at_fsync:
            active.append("crash_at_fsync={}".format(self.crash_at_fsync))
        if self.fill_after_bytes:
            active.append("fill_after_bytes={}".format(self.fill_after_bytes))
        return "{}(seed={}, {})".format(
            self.name, self.seed, ", ".join(active) or "noop"
        )

    def as_dict(self):
        """Field dict (JSON/env-var friendly)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, document):
        """Build a plan from a (possibly partial) field dict."""
        if not isinstance(document, dict):
            raise ConfigError(
                "storage fault plan must be a JSON object, got "
                "{!r}".format(document)
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigError(
                "unknown storage fault plan field(s) {}; allowed: "
                "{}".format(", ".join(unknown), ", ".join(sorted(known)))
            )
        return cls(**document)


class StorageFaultInjector:
    """Executes a :class:`StorageFaultPlan` at the shim seams.

    Deterministic: one RNG draw per operation (plus one for a tear
    position when a tear fires), seeded from the plan alone, so a
    fixed plan against a fixed operation sequence always injects the
    same faults. Counters record what actually happened
    (:attr:`injected` maps fault kind to count).
    """

    def __init__(self, plan):
        if not isinstance(plan, StorageFaultPlan):
            plan = StorageFaultPlan.from_dict(plan)
        self.plan = plan
        self._rng = random.Random("storage-faults:{}".format(plan.seed))
        self.writes = 0
        self.fsyncs = 0
        self.replaces = 0
        self.bytes_written = 0
        self.injected = {kind: 0 for kind in STORAGE_FAULT_KINDS}

    def _inject(self, kind, code, message):
        self.injected[kind] += 1
        raise OSError(code, "injected {}: {}".format(kind, message))

    # -- the three seams ----------------------------------------------

    def write(self, fd, data):
        """``os.write`` with seeded ENOSPC / torn-write / EIO faults."""
        self.writes += 1
        plan = self.plan
        if plan.fill_after_bytes:
            room = plan.fill_after_bytes - self.bytes_written
            if room < len(data):
                # The disk "fills" mid-write: a prefix lands, the rest
                # does not — the canonical torn append.
                if room > 0:
                    self.bytes_written += _write_all(fd, data[:room])
                self._inject(
                    "enospc", errno.ENOSPC,
                    "disk full after {} bytes".format(plan.fill_after_bytes),
                )
        roll = self._rng.random()
        threshold = plan.torn_write_probability
        if roll < threshold:
            cut = self._rng.randrange(0, max(1, len(data)))
            if cut:
                self.bytes_written += _write_all(fd, data[:cut])
            self._inject(
                "torn-write", errno.ENOSPC,
                "{} of {} bytes written".format(cut, len(data)),
            )
        threshold += plan.enospc_probability
        if roll < threshold:
            self._inject("enospc", errno.ENOSPC, "no space left on device")
        threshold += plan.eio_probability
        if roll < threshold:
            self._inject("eio", errno.EIO, "write error")
        written = _write_all(fd, data)
        self.bytes_written += written
        return written

    def fsync(self, fd):
        """``os.fsync`` with the crash point and seeded EIO."""
        self.fsyncs += 1
        plan = self.plan
        if plan.crash_at_fsync and self.fsyncs >= plan.crash_at_fsync:
            self.injected["crash-fsync"] += 1
            raise SimulatedCrash(
                "injected crash at fsync #{}".format(self.fsyncs)
            )
        if self._rng.random() < plan.eio_probability:
            self._inject("eio", errno.EIO, "fsync error")
        os.fsync(fd)

    def replace(self, src, dst):
        """``os.replace`` with seeded EIO (a failing rename)."""
        self.replaces += 1
        if self._rng.random() < self.plan.eio_probability:
            self._inject("eio", errno.EIO, "rename error")
        os.replace(src, dst)

    def stats(self):
        return {
            "writes": self.writes,
            "fsyncs": self.fsyncs,
            "replaces": self.replaces,
            "bytes_written": self.bytes_written,
            "injected": dict(self.injected),
        }

    def __repr__(self):
        return "StorageFaultInjector({})".format(self.plan.describe())


# ---------------------------------------------------------------------
# the shim

#: The active injector, or None (the fast path).
_INJECTOR = None


def _write_all(fd, data):
    """``os.write`` the whole buffer (it may write short)."""
    view = memoryview(data)
    total = 0
    while view:
        written = os.write(fd, view)
        total += written
        view = view[written:]
    return total


def install_storage_faults(plan):
    """Install a plan (or prebuilt injector) at the shim; returns the
    injector so callers can read its counters afterwards."""
    global _INJECTOR
    if isinstance(plan, StorageFaultInjector):
        _INJECTOR = plan
    else:
        _INJECTOR = StorageFaultInjector(plan)
    return _INJECTOR


def uninstall_storage_faults():
    """Remove the active injector (restores the pass-through path)."""
    global _INJECTOR
    _INJECTOR = None


def active_storage_injector():
    """The installed :class:`StorageFaultInjector`, or None."""
    return _INJECTOR


class storage_faults:
    """Context manager scoping a fault plan to a ``with`` block::

        with storage_faults(StorageFaultPlan(seed=7, eio_probability=1.0)):
            cache.put(key, value)   # degrades, counted
    """

    def __init__(self, plan):
        self.injector = (
            plan if isinstance(plan, StorageFaultInjector)
            else StorageFaultInjector(plan)
        )

    def __enter__(self):
        install_storage_faults(self.injector)
        return self.injector

    def __exit__(self, *exc_info):
        uninstall_storage_faults()
        return False


def install_from_env(environ=None):
    """Install the plan named by ``$REPRO_STORAGE_FAULTS``, if any.

    The variable holds the plan as a JSON object (the format
    :meth:`StorageFaultPlan.as_dict` produces). Returns the installed
    injector, or None when the variable is unset/empty. A malformed
    value is a :class:`~repro.errors.ConfigError` — silently running
    *without* the faults a CI job asked for would make the job pass
    vacuously.
    """
    raw = (environ or os.environ).get(STORAGE_FAULTS_ENV, "").strip()
    if not raw:
        return None
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise ConfigError(
            "${} is not valid JSON: {}".format(STORAGE_FAULTS_ENV, exc)
        )
    return install_storage_faults(StorageFaultPlan.from_dict(document))


def shim_write(fd, data):
    """``os.write`` (whole buffer), through the active injector."""
    injector = _INJECTOR
    if injector is None:
        return _write_all(fd, data)
    return injector.write(fd, data)


def shim_fsync(fd):
    """``os.fsync``, through the active injector."""
    injector = _INJECTOR
    if injector is None:
        os.fsync(fd)
    else:
        injector.fsync(fd)


def shim_replace(src, dst):
    """``os.replace``, through the active injector."""
    injector = _INJECTOR
    if injector is None:
        os.replace(src, dst)
    else:
        injector.replace(src, dst)


# ---------------------------------------------------------------------
# the durable primitive built on the seams

def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a partial file: they see either the old
    content or the new content. With ``fsync`` (the default) the data
    is forced to disk before the rename, so even a crash straddling
    the replace leaves a complete file behind. Every syscall goes
    through the fault seams, so an injected ENOSPC/EIO surfaces as an
    ``OSError`` with the tmp file already cleaned up.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        try:
            shim_write(fd, data)
            if fsync:
                shim_fsync(fd)
        finally:
            os.close(fd)
        shim_replace(tmp_name, path)
    except SimulatedCrash:
        # A real crash runs no cleanup: leave the tmp file as the
        # debris ``repro fsck`` exists to sweep up.
        raise
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path, text, fsync=True):
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)
