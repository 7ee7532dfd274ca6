"""Offline audit and repair of journal/cache trees: ``repro fsck``.

The journal and result cache are built to *tolerate* torn writes and
corruption at read time (a torn journal tail is skipped, a corrupt
cache entry is a miss). That keeps campaigns alive, but it also means
damage accumulates silently on a failing disk. ``fsck`` is the
offline counterpart: walk the tree, classify every file, repair what
is safely repairable, and report what is not.

Classification (:data:`FSCK_STATUSES`):

``intact``
    The file parses completely.
``torn-tail``
    ``journal.jsonl`` ends in a malformed final line — the classic
    crash-mid-append state. Repairable: truncate to the last good
    line (exactly what replay would have ignored anyway).
``corrupt``
    A malformed record *before* the tail (the fsync-per-line contract
    says this never happens on a healthy disk, so it means real
    corruption), an unreadable checkpoint/payload/cache entry, or an
    unparseable ``spec.json``. Journals are repaired by truncating
    from the first bad line — the prefix is still consistent, and any
    dropped ``completed`` record only costs a re-run. Checkpoints are
    deleted (derived data; replay rebuilds them). Payloads and cache
    entries are quarantined so they re-run as misses. A corrupt
    ``spec.json`` is **unrepairable**: without the spec the run cannot
    be verified or resumed.
``orphaned``
    A file in ``results/`` that is not a payload (wrong name shape).
    Quarantined under ``--repair``.
``stale-tmp``
    A ``*.tmp`` file a killed atomic write left behind. Deleted under
    ``--repair``.

Repair never deletes campaign *data*: quarantined files move to a
``quarantine/`` directory beside their tree, so an operator can always
inspect (or restore) what fsck pulled out.
"""

import json
import os
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.experiments.journal import default_journal_root, list_run_ids

__all__ = [
    "FSCK_STATUSES",
    "Finding",
    "FsckReport",
    "fsck_cache",
    "fsck_run",
    "render_fsck_report",
]

#: Every status a finding may carry.
FSCK_STATUSES = ("intact", "torn-tail", "corrupt", "orphaned", "stale-tmp")

_QUARANTINE_DIR = "quarantine"
_PAYLOAD_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
_CACHE_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")


@dataclass
class Finding:
    """One file's verdict: what it is, what is wrong, what was done.

    ``repair`` describes the applicable repair action (empty for
    intact files and unrepairable loss); ``repaired`` records whether
    it was actually applied this run.
    """

    path: str
    kind: str       # journal | checkpoint | payload | spec | cache-entry | stray
    status: str     # one of FSCK_STATUSES
    detail: str = ""
    repair: str = ""
    repaired: bool = False
    unrepairable: bool = False


@dataclass
class FsckReport:
    """The verdicts of one fsck pass, plus summary accounting."""

    root: str = ""
    findings: list = field(default_factory=list)
    scanned: int = 0

    def add(self, finding):
        self.findings.append(finding)
        return finding

    @property
    def issues(self):
        return [f for f in self.findings if f.status != "intact"]

    @property
    def unrepaired(self):
        return [
            f for f in self.issues if not f.repaired and not f.unrepairable
        ]

    @property
    def unrepairable_loss(self):
        return [f for f in self.findings if f.unrepairable]

    @property
    def repaired(self):
        return [f for f in self.findings if f.repaired]

    @property
    def ok(self):
        """True when the tree is clean *now*: no unrepairable loss and
        every issue found was repaired (or none existed)."""
        return not self.unrepaired and not self.unrepairable_loss

    def counts(self):
        by_status = {status: 0 for status in FSCK_STATUSES}
        for finding in self.findings:
            by_status[finding.status] += 1
        return by_status

    def merge(self, other):
        self.findings.extend(other.findings)
        self.scanned += other.scanned
        return self


def _quarantine(path, quarantine_root):
    """Move ``path`` into the quarantine directory, never clobbering."""
    quarantine_root.mkdir(parents=True, exist_ok=True)
    target = quarantine_root / path.name
    serial = 0
    while target.exists():
        serial += 1
        target = quarantine_root / "{}.{}".format(path.name, serial)
    os.replace(path, target)
    return target


def _check_journal_file(path):
    """``(status, detail, keep_bytes)`` for one ``journal.jsonl``.

    ``keep_bytes`` is the length of the longest consistent prefix —
    the truncation point a repair applies. Raw bytes, not text: the
    truncation offset must be exact even if the tear bisected a UTF-8
    sequence.
    """
    data = path.read_bytes()
    offset = 0
    last_good_end = 0
    records = 0
    for segment in data.split(b"\n"):
        end = offset + len(segment)
        terminated = end < len(data)  # a "\n" followed this segment
        if segment:
            try:
                body = json.loads(segment.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("not a JSON object")
            except (ValueError, UnicodeDecodeError):
                if terminated and end + 1 < len(data):
                    return (
                        "corrupt",
                        "malformed record #{} before the tail "
                        "(byte {})".format(records + 1, offset),
                        last_good_end,
                    )
                return (
                    "torn-tail",
                    "malformed final line ({} bytes)".format(len(segment)),
                    last_good_end,
                )
            records += 1
        if terminated:
            last_good_end = end + 1
            offset = end + 1
        else:
            # An unterminated tail that *parses* was a complete record
            # whose newline never landed; replay accepts it, so fsck
            # does too.
            last_good_end = len(data)
    return "intact", "{} records".format(records), len(data)


def _check_pickle(path):
    try:
        with open(path, "rb") as fh:
            pickle.load(fh)
    except Exception as exc:
        return "corrupt", "{}: {}".format(type(exc).__name__, exc)
    return "intact", ""


def _scan_tmp_files(report, directory, repair):
    for tmp in sorted(directory.glob("*.tmp")):
        finding = report.add(Finding(
            path=str(tmp), kind="stray", status="stale-tmp",
            detail="leftover of a killed atomic write",
            repair="delete",
        ))
        report.scanned += 1
        if repair:
            try:
                tmp.unlink()
                finding.repaired = True
            except OSError as exc:
                finding.detail += " (delete failed: {})".format(exc)


def fsck_run(run_dir, repair=False):
    """Audit (and optionally repair) one run directory."""
    run_dir = Path(run_dir)
    report = FsckReport(root=str(run_dir))
    if not run_dir.is_dir():
        raise ConfigError("no run directory at {}".format(run_dir))

    # spec.json — the identity of the run; without it nothing else can
    # be verified or resumed, so corruption here is unrepairable loss.
    spec_path = run_dir / "spec.json"
    report.scanned += 1
    if not spec_path.is_file():
        report.add(Finding(
            path=str(spec_path), kind="spec", status="corrupt",
            detail="missing spec.json — not a resumable journal",
            unrepairable=True,
        ))
    else:
        try:
            with open(spec_path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
            if "spec_hash" not in document:
                raise ValueError("no spec_hash field")
        except (OSError, ValueError) as exc:
            report.add(Finding(
                path=str(spec_path), kind="spec", status="corrupt",
                detail="{}: {}".format(type(exc).__name__, exc),
                unrepairable=True,
            ))
        else:
            report.add(Finding(
                path=str(spec_path), kind="spec", status="intact",
            ))

    # journal.jsonl — torn tails truncate to the last good line;
    # mid-file corruption truncates the whole suffix (prefix-consistent).
    journal_path = run_dir / "journal.jsonl"
    if journal_path.is_file():
        report.scanned += 1
        status, detail, keep = _check_journal_file(journal_path)
        finding = report.add(Finding(
            path=str(journal_path), kind="journal", status=status,
            detail=detail,
            repair="" if status == "intact"
            else "truncate to {} bytes".format(keep),
        ))
        if repair and status != "intact":
            try:
                with open(journal_path, "r+b") as fh:
                    fh.truncate(keep)
                finding.repaired = True
            except OSError as exc:
                finding.detail += " (truncate failed: {})".format(exc)

    # checkpoint.json — derived data: corrupt means delete, replay
    # rebuilds the snapshot from the record stream.
    checkpoint_path = run_dir / "checkpoint.json"
    if checkpoint_path.is_file():
        report.scanned += 1
        try:
            with open(checkpoint_path, "r", encoding="utf-8") as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            finding = report.add(Finding(
                path=str(checkpoint_path), kind="checkpoint",
                status="corrupt",
                detail="{}: {}".format(type(exc).__name__, exc),
                repair="delete (derived; replay rebuilds it)",
            ))
            if repair:
                try:
                    checkpoint_path.unlink()
                    finding.repaired = True
                except OSError as exc:
                    finding.detail += " (delete failed: {})".format(exc)
        else:
            report.add(Finding(
                path=str(checkpoint_path), kind="checkpoint",
                status="intact",
            ))

    # results/ payload store — corrupt payloads are quarantined (they
    # re-run as misses); files that are not payloads at all are
    # orphans. A payload without a journal record is *fine*: chaos
    # campaigns store reference payloads that never get records.
    results_dir = run_dir / "results"
    quarantine_root = run_dir / _QUARANTINE_DIR
    if results_dir.is_dir():
        for payload in sorted(results_dir.iterdir()):
            if payload.name.endswith(".tmp") or not payload.is_file():
                continue
            report.scanned += 1
            if not _PAYLOAD_RE.match(payload.name):
                finding = report.add(Finding(
                    path=str(payload), kind="stray", status="orphaned",
                    detail="not a payload file", repair="quarantine",
                ))
                if repair:
                    _quarantine(payload, quarantine_root)
                    finding.repaired = True
                continue
            status, detail = _check_pickle(payload)
            finding = report.add(Finding(
                path=str(payload), kind="payload", status=status,
                detail=detail,
                repair="" if status == "intact" else "quarantine",
            ))
            if repair and status != "intact":
                _quarantine(payload, quarantine_root)
                finding.repaired = True
        _scan_tmp_files(report, results_dir, repair)
    _scan_tmp_files(report, run_dir, repair)
    return report


def fsck_cache(cache_dir, repair=False):
    """Audit (and optionally repair) a result-cache tree.

    Every entry must unpickle; corrupt entries are quarantined — the
    cache would have treated them as misses anyway, but leaving them
    means every warm run pays the load-and-evict cost and the operator
    never hears about it.
    """
    cache_dir = Path(cache_dir)
    report = FsckReport(root=str(cache_dir))
    if not cache_dir.is_dir():
        return report  # an absent cache is vacuously clean
    quarantine_root = cache_dir / _QUARANTINE_DIR
    shard_dirs = sorted(
        entry for entry in cache_dir.iterdir()
        if entry.is_dir() and _SHARD_RE.match(entry.name)
    )
    for directory in shard_dirs:
        for entry in sorted(directory.glob("*.pkl")):
            if not _CACHE_ENTRY_RE.match(entry.name):
                continue
            report.scanned += 1
            status, detail = _check_pickle(entry)
            finding = report.add(Finding(
                path=str(entry), kind="cache-entry", status=status,
                detail=detail,
                repair="" if status == "intact" else "quarantine",
            ))
            if repair and status != "intact":
                _quarantine(entry, quarantine_root)
                finding.repaired = True
        _scan_tmp_files(report, directory, repair)
    return report


def fsck_tree(journal_root=None, run_id=None, cache_dir=None, repair=False):
    """The full audit the CLI runs: journals (one or all) plus cache.

    ``cache_dir=None`` skips the cache; ``run_id=None`` audits every
    journal under the root.
    """
    root = Path(journal_root) if journal_root else default_journal_root()
    report = FsckReport(root=str(root))
    if run_id is not None:
        report.merge(fsck_run(root / run_id, repair=repair))
    else:
        for name in list_run_ids(root):
            report.merge(fsck_run(root / name, repair=repair))
    if cache_dir is not None:
        report.merge(fsck_cache(cache_dir, repair=repair))
    return report


def render_fsck_report(report):
    """Human-readable verdict, issues first."""
    lines = ["fsck {}".format(report.root)]
    for finding in report.issues:
        mark = "repaired" if finding.repaired else (
            "UNREPAIRABLE" if finding.unrepairable else "found"
        )
        line = "  [{}] {} {}: {}".format(
            mark, finding.status, finding.path, finding.detail or "-"
        )
        if finding.repair and not finding.repaired:
            line += " (repair: {})".format(finding.repair)
        lines.append(line)
    counts = report.counts()
    summary = ", ".join(
        "{} {}".format(counts[status], status)
        for status in FSCK_STATUSES if counts[status]
    ) or "nothing scanned"
    lines.append("  {} file(s) scanned: {}".format(report.scanned, summary))
    if report.unrepairable_loss:
        lines.append("  UNREPAIRABLE LOSS: {} file(s) cannot be "
                     "recovered".format(len(report.unrepairable_loss)))
    elif report.unrepaired:
        lines.append("  {} issue(s) left unrepaired (re-run with "
                     "--repair)".format(len(report.unrepaired)))
    elif report.repaired:
        lines.append("  {} issue(s) repaired; tree is consistent".format(
            len(report.repaired)
        ))
    else:
        lines.append("  clean")
    return "\n".join(lines)
