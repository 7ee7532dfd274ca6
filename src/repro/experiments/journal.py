"""Durable append-only run journal for crash-safe campaigns.

A long sweep or chaos campaign dies to preemption, OOM kills, and hung
workers in production; everything not yet on disk is lost. The journal
makes every campaign restartable:

* a **run directory** (``<root>/<run_id>/``) holds an atomically
  written ``spec.json`` (the campaign's full parameter set plus its
  canonical hash), an append-only ``journal.jsonl`` of per-cell
  lifecycle records, an atomically replaced ``checkpoint.json``
  progress snapshot, and a ``results/`` payload store for campaigns
  whose outputs are not content-addressed elsewhere (chaos reports);
* every journal line is flushed and fsynced before the append returns,
  so a record survives an immediate SIGKILL of the writer;
* replay tolerates a torn tail: a truncated final line (the crash
  happened mid-append) is ignored, never an error;
* ``spec.json``, ``checkpoint.json``, and every payload are written
  with the tmp-file + ``os.replace`` idiom (:func:`atomic_write_bytes`),
  so readers only ever observe complete files.

Every durability-critical syscall routes through the storage fault
seams of :mod:`repro.faults.storage`, so the claims above are testable
against injected ENOSPC, EIO, torn writes, and crash-at-fsync points.
Writes *degrade gracefully*: a full or failing disk costs the record
(counted in :attr:`RunJournal.write_errors`, surfaced as a
``storage.fault`` telemetry event and a one-line warning), never the
campaign — on resume an unrecorded cell simply re-runs. Reads that
find corruption (:meth:`RunJournal.read_checkpoint`,
:meth:`RunJournal.load_payload`) are counted in
:attr:`RunJournal.corrupt_reads` and warned about once, because a
climbing corrupt-read count is how an operator learns a disk is going
bad; ``repro fsck`` audits and repairs the same tree offline.

Resume (``repro <artifact> --resume <run_id>``, ``repro chaos
--resume``) opens the journal, verifies the new invocation's spec hash
against the recorded one (a resumed run must be the *same* campaign),
and reconstructs which cells already completed; the engine then skips
them via the result cache / payload store, byte-identically to an
uninterrupted run.
"""

import hashlib
import json
import os
import pickle
import re
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.experiments.cache import default_cache_dir
from repro.faults.storage import (
    append_line_durable,
    atomic_write_bytes,
    atomic_write_text,
)

__all__ = [
    "JOURNAL_DIR_ENV",
    "JournalState",
    "RECORD_KINDS",
    "RunJournal",
    "atomic_write_bytes",
    "atomic_write_text",
    "default_journal_root",
    "list_run_ids",
    "run_id_for",
    "spec_hash",
]

#: Environment variable overriding the default journal root.
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

_SPEC_FILE = "spec.json"
_JOURNAL_FILE = "journal.jsonl"
_CHECKPOINT_FILE = "checkpoint.json"
_RESULTS_DIR = "results"

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Journal record kinds, for reference and validation in tests.
RECORD_KINDS = (
    "dispatched",
    "completed",
    "failed",
    "failed-permanent",
    "worker-stalled",
    "checkpoint",
    "interrupted",
    "resumed",
    "finished",
)


def default_journal_root():
    """``$REPRO_JOURNAL_DIR`` if set, else ``<cache dir>/runs``."""
    env = os.environ.get(JOURNAL_DIR_ENV)
    if env:
        return Path(env)
    return default_cache_dir() / "runs"


def list_run_ids(root=None):
    """Run ids of every journal under ``root``, sorted.

    A directory counts as a journal when it holds a ``spec.json``;
    ``repro fsck`` audits every run this returns.
    """
    root = Path(root) if root else default_journal_root()
    if not root.is_dir():
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if (entry / _SPEC_FILE).is_file() and _RUN_ID_RE.match(entry.name)
    )


def spec_hash(spec):
    """Canonical hash of a campaign spec (a JSON-serializable dict).

    Two invocations describe the same campaign exactly when their spec
    hashes match; resume refuses to continue a journal under a
    different spec.
    """
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_id_for(spec):
    """Deterministic default run id: ``run-<spec-hash prefix>``."""
    return "run-" + spec_hash(spec)[:12]


@dataclass
class JournalState:
    """The reconstructed state of a run after :meth:`RunJournal.replay`.

    ``completed`` maps cell id to its last ``completed`` record,
    ``failed_permanent`` to its ``failed-permanent`` record (cleared if
    a later attempt — e.g. after a resume with more retries —
    completed). Counters summarize the record stream.
    """

    spec: dict = field(default_factory=dict)
    spec_hash: str = ""
    completed: dict = field(default_factory=dict)
    failed_permanent: dict = field(default_factory=dict)
    dispatches: int = 0
    stalls: int = 0
    interruptions: int = 0
    resumes: int = 0
    checkpoints: int = 0
    finished: bool = False
    torn_tail: bool = False

    @property
    def completed_ids(self):
        return set(self.completed)


class RunJournal:
    """One campaign's durable on-disk record.

    Use :meth:`create` for a fresh run and :meth:`open` to resume an
    existing one; the constructor itself only binds paths.
    """

    def __init__(self, run_id, root=None):
        if not _RUN_ID_RE.match(run_id):
            raise ConfigError(
                "run id must be 1-64 chars of letters, digits, '.', '_', "
                "or '-' (got {!r})".format(run_id)
            )
        self.run_id = run_id
        self.root = Path(root) if root else default_journal_root()
        self.run_dir = self.root / run_id
        self._seq = 0
        #: Optional tracer receiving ``storage.fault`` events.
        self.tracer = None
        #: Durable appends/snapshots lost to a failing disk (degraded,
        #: not raised: losing a record costs a re-run, never the run).
        self.write_errors = 0
        #: Reads that found corruption where a record should have been.
        self.corrupt_reads = 0
        self._warned_write = False
        self._warned_read = False

    # ------------------------------------------------------------------
    # storage-fault accounting

    def _emit_storage_fault(self, op, path, exc):
        if self.tracer is not None and self.tracer.enabled:
            from repro.telemetry.events import StorageFault

            self.tracer.emit(StorageFault(
                ts=0, op=op, path=str(path),
                error="{}: {}".format(type(exc).__name__, exc),
            ))

    def _note_write_error(self, op, path, exc):
        """A durable write failed: degrade (count + warn), don't raise."""
        self.write_errors += 1
        self._emit_storage_fault(op, path, exc)
        if not self._warned_write:
            self._warned_write = True
            warnings.warn(
                "journal {!r}: {} failed ({}); degrading — the record "
                "is lost and its cell will re-run on resume".format(
                    self.run_id, op, exc
                ),
                RuntimeWarning, stacklevel=3,
            )

    def _note_corrupt_read(self, what, path, exc):
        """A read found corruption: count it and warn the operator."""
        self.corrupt_reads += 1
        self._emit_storage_fault("corrupt-read", path, exc)
        if not self._warned_read:
            self._warned_read = True
            warnings.warn(
                "journal {!r}: corrupt {} at {} ({}); treating as "
                "missing — a climbing corrupt-read count usually means "
                "a disk is going bad (run `repro fsck`)".format(
                    self.run_id, what, path, exc
                ),
                RuntimeWarning, stacklevel=3,
            )

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def create(cls, spec, run_id=None, root=None):
        """Start a fresh journaled run; refuses to clobber an existing
        journal (resume that instead)."""
        journal = cls(run_id or run_id_for(spec), root=root)
        if journal.exists():
            raise ConfigError(
                "journal for run {!r} already exists under {}; resume it "
                "or choose another --run-id".format(
                    journal.run_id, journal.root
                )
            )
        journal.run_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            journal.run_dir / _SPEC_FILE,
            json.dumps(
                {"spec": spec, "spec_hash": spec_hash(spec)},
                sort_keys=True, indent=2,
            ) + "\n",
        )
        return journal

    @classmethod
    def open(cls, run_id, root=None):
        """Bind to an existing journal; raises if there is none."""
        journal = cls(run_id, root=root)
        if not journal.exists():
            raise ConfigError(
                "no journal for run {!r} under {}".format(
                    run_id, journal.root
                )
            )
        return journal

    def exists(self):
        return (self.run_dir / _SPEC_FILE).is_file()

    def spec(self):
        """The recorded spec document ``{"spec": ..., "spec_hash": ...}``."""
        with open(self.run_dir / _SPEC_FILE, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def verify_spec(self, spec):
        """Refuse to resume under a different campaign spec."""
        recorded = self.spec()
        if spec_hash(spec) != recorded["spec_hash"]:
            raise ConfigError(
                "run {!r} was journaled with a different campaign spec "
                "(recorded hash {}, invocation hash {}); resume must use "
                "identical apps/configs/threads/seed".format(
                    self.run_id,
                    recorded["spec_hash"][:12],
                    spec_hash(spec)[:12],
                )
            )
        return recorded["spec"]

    # ------------------------------------------------------------------
    # append-only record stream

    def append(self, record, **fields):
        """Durably append one record line (write + fsync before return).

        Returns True when the record reached the disk. A failing write
        (ENOSPC, EIO — injected or real) is *degraded*: counted in
        :attr:`write_errors`, warned about once, and False returned,
        because losing one journal record costs at worst a re-run of
        its cell on resume, while raising would kill the campaign the
        journal exists to protect.
        """
        if record not in RECORD_KINDS:
            raise ConfigError(
                "unknown journal record kind {!r}; choose from {}".format(
                    record, ", ".join(RECORD_KINDS)
                )
            )
        self._seq += 1
        body = {"record": record, "seq": self._seq,
                "t": round(time.time(), 3)}
        body.update(fields)
        line = json.dumps(body, sort_keys=True, separators=(",", ":"))
        path = self.run_dir / _JOURNAL_FILE
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            append_line_durable(path, (line + "\n").encode("utf-8"))
        except OSError as exc:
            self._note_write_error("journal-append", path, exc)
            return False
        return True

    # Per-cell lifecycle -------------------------------------------------

    def record_dispatched(self, cell_id, index=None, attempt=1, key=None):
        self.append(
            "dispatched", cell=cell_id, index=index, attempt=attempt,
            key=key,
        )

    def record_completed(self, cell_id, index=None, key=None, cached=False):
        self.append(
            "completed", cell=cell_id, index=index, key=key, cached=cached,
        )

    def record_failed(self, cell_id, index=None, kind="error", message="",
                      attempt=1):
        self.append(
            "failed", cell=cell_id, index=index, kind=kind,
            message=message, attempt=attempt,
        )

    def record_failed_permanent(self, cell_id, index=None, kind="error",
                                message="", attempts=1, retry_delays=()):
        """A cell exhausted every retry; its full backoff history rides
        along so post-mortems can see the schedule it was given."""
        self.append(
            "failed-permanent", cell=cell_id, index=index, kind=kind,
            message=message, attempts=attempts,
            retry_delays=list(retry_delays),
        )

    def record_worker_stalled(self, worker, cells, stale_s):
        self.append(
            "worker-stalled", worker=worker, cells=list(cells),
            stale_s=round(stale_s, 3),
        )

    def record_interrupted(self, reason, completed, total):
        self.append(
            "interrupted", reason=reason, completed=completed, total=total,
        )

    def record_resumed(self, completed, remaining):
        self.append("resumed", completed=completed, remaining=remaining)

    def record_finished(self, completed, failed):
        self.append("finished", completed=completed, failed=failed)

    # ------------------------------------------------------------------
    # checkpoint snapshot

    def checkpoint(self, completed, total, tracer=None):
        """Atomically replace ``checkpoint.json`` and journal the event.

        With a ``tracer`` (enabled), a
        :class:`~repro.telemetry.events.CheckpointWritten` event is
        emitted so campaign observability rides the same stream as
        everything else.

        A failing disk degrades like :meth:`append`: the snapshot is
        derived data (replay reconstructs it from the record stream),
        so losing it costs nothing but a slower resume.
        """
        path = self.run_dir / _CHECKPOINT_FILE
        try:
            atomic_write_text(
                path,
                json.dumps(
                    {"run_id": self.run_id, "completed": completed,
                     "total": total},
                    sort_keys=True, indent=2,
                ) + "\n",
            )
        except OSError as exc:
            self._note_write_error("checkpoint", path, exc)
        self.append("checkpoint", completed=completed, total=total)
        if tracer is not None and tracer.enabled:
            from repro.telemetry.events import CheckpointWritten

            tracer.emit(CheckpointWritten(
                ts=0, run_id=self.run_id, completed=completed, total=total,
            ))

    def read_checkpoint(self):
        """The last checkpoint snapshot, or ``None`` if never written.

        A checkpoint that exists but cannot be parsed is *corruption*,
        not absence — it is counted in :attr:`corrupt_reads` and warned
        about, instead of being silently swallowed.
        """
        path = self.run_dir / _CHECKPOINT_FILE
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._note_corrupt_read("checkpoint", path, exc)
            return None

    # ------------------------------------------------------------------
    # payload store (campaigns without a content-addressed cache)

    def _payload_path(self, cell_id):
        digest = hashlib.sha256(cell_id.encode("utf-8")).hexdigest()
        return self.run_dir / _RESULTS_DIR / (digest + ".pkl")

    def store_payload(self, cell_id, payload):
        """Atomically persist one cell's output under the run.

        Returns True on success. A failing disk degrades: the payload
        is simply absent, so resume re-runs the cell (the atomic-write
        idiom guarantees no partial file is ever visible).
        """
        path = self._payload_path(cell_id)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write_bytes(path, data)
        except OSError as exc:
            self._note_write_error("payload-store", path, exc)
            return False
        return True

    def load_payload(self, cell_id, default=None):
        """Load a persisted cell output; corruption is a miss, like the
        result cache, so a torn write can only cost a re-run."""
        path = self._payload_path(cell_id)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return default
        except Exception as exc:
            self._note_corrupt_read("payload", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return default

    # ------------------------------------------------------------------
    # replay

    def replay(self):
        """Reconstruct a :class:`JournalState` from the record stream.

        Crash-consistent: a truncated final line is skipped and flagged
        (``torn_tail``); the writer fsyncs every append, so anything
        before the tail is complete.
        """
        state = JournalState()
        try:
            document = self.spec()
            state.spec = document.get("spec", {})
            state.spec_hash = document.get("spec_hash", "")
        except (OSError, ValueError):
            pass
        path = self.run_dir / _JOURNAL_FILE
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except OSError:
            return state
        for line in lines:
            if not line:
                continue
            # Bytes, decoded per line: a torn tail may hold arbitrary
            # binary garbage, which must flag the tail, not blow up the
            # whole-file decode.
            try:
                body = json.loads(line.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("record line is not a JSON object")
            except (ValueError, UnicodeDecodeError):
                # Only the final (torn) line may be malformed; anything
                # earlier was fsynced whole before the next append began.
                state.torn_tail = True
                break
            kind = body.get("record")
            cell = body.get("cell")
            if kind == "dispatched":
                state.dispatches += 1
            elif kind == "completed" and cell is not None:
                state.completed[cell] = body
                state.failed_permanent.pop(cell, None)
            elif kind == "failed-permanent" and cell is not None:
                state.failed_permanent[cell] = body
            elif kind == "worker-stalled":
                state.stalls += 1
            elif kind == "interrupted":
                state.interruptions += 1
            elif kind == "resumed":
                state.resumes += 1
            elif kind == "checkpoint":
                state.checkpoints += 1
            elif kind == "finished":
                state.finished = True
            self._seq = max(self._seq, body.get("seq", 0))
        return state

    def __repr__(self):
        return "RunJournal({!r} at {})".format(self.run_id, self.run_dir)
