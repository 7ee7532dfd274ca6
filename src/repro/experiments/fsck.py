"""Offline audit and repair of the result cache: ``repro fsck``.

The result cache is built to *tolerate* corruption at read time (a
corrupt entry is a miss and is evicted). That keeps campaigns alive,
but it also means damage accumulates silently on a failing disk.
``fsck`` is the offline counterpart: walk the cache, classify every
file, repair what is safely repairable, and report it.

Classification (:data:`FSCK_STATUSES`):

``intact``
    The entry unpickles completely.
``corrupt``
    The entry cannot be loaded. Quarantined under ``--repair``, so its
    cell re-runs as a miss.
``stale-tmp``
    A ``*.tmp`` file a killed atomic write left behind. Deleted under
    ``--repair``.

Repair never deletes campaign *data*: quarantined entries move to a
``quarantine/`` directory beside the shards, so an operator can always
inspect (or restore) what fsck pulled out.
"""

import os
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FSCK_STATUSES",
    "Finding",
    "FsckReport",
    "fsck_cache",
    "render_fsck_report",
]

#: Every status a finding may carry.
FSCK_STATUSES = ("intact", "corrupt", "stale-tmp")

_QUARANTINE_DIR = "quarantine"
_CACHE_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.pkl$")
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")


@dataclass
class Finding:
    """One file's verdict: what it is, what is wrong, what was done.

    ``repair`` describes the applicable repair action (empty for intact
    files); ``repaired`` records whether it was applied this run.
    """

    path: str
    kind: str       # cache-entry | stray
    status: str     # one of FSCK_STATUSES
    detail: str = ""
    repair: str = ""
    repaired: bool = False


@dataclass
class FsckReport:
    """The verdicts of one fsck pass, plus summary accounting."""

    root: str = ""
    findings: list = field(default_factory=list)
    scanned: int = 0

    def add(self, finding):
        self.findings.append(finding)
        self.scanned += 1
        return finding

    @property
    def issues(self):
        return [f for f in self.findings if f.status != "intact"]

    @property
    def unrepaired(self):
        return [f for f in self.issues if not f.repaired]

    @property
    def repaired(self):
        return [f for f in self.findings if f.repaired]

    @property
    def ok(self):
        """True when the cache is clean *now*: every issue found was
        repaired (or none existed)."""
        return not self.unrepaired

    def counts(self):
        by_status = {status: 0 for status in FSCK_STATUSES}
        for finding in self.findings:
            by_status[finding.status] += 1
        return by_status


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
        if repair:
            try:
                tmp.unlink()
                finding.repaired = True
            except OSError as exc:
                finding.detail += " (delete failed: {})".format(exc)


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


def render_fsck_report(report):
    """Human-readable verdict, issues first."""
    lines = ["fsck {}".format(report.root)]
    for finding in report.issues:
        line = "  [{}] {} {}: {}".format(
            "repaired" if finding.repaired else "found",
            finding.status, finding.path, finding.detail or "-",
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
    if report.unrepaired:
        lines.append("  {} issue(s) left unrepaired (re-run with "
                     "--repair)".format(len(report.unrepaired)))
    elif report.repaired:
        lines.append("  {} issue(s) repaired; tree is consistent".format(
            len(report.repaired)
        ))
    else:
        lines.append("  clean")
    return "\n".join(lines)
