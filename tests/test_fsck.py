"""``repro fsck``: offline audit and repair of journal/cache trees.

Covers each classification (torn-tail, corrupt, orphaned, stale-tmp,
unrepairable spec loss), the safe-repair actions (truncate, delete,
quarantine — never destroy campaign data), the CLI exit codes, and —
as an adversarial property — that a journal whose final line is
truncated or garbled *any* way still replays its prefix without an
exception, and that fsck's repair agrees with replay about that
prefix.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.fsck import (
    FsckReport,
    fsck_cache,
    fsck_run,
    fsck_tree,
    render_fsck_report,
)
from repro.experiments.journal import RECORD_KINDS, RunJournal


def _digest(text):
    """A cache key in the canonical 64-hex digest shape."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _make_run(root, run_id="r", cells=("a", "b", "c")):
    """A healthy journaled run: records, a checkpoint, one payload."""
    journal = RunJournal.create({"cells": list(cells)}, run_id=run_id,
                               root=root)
    for index, cell in enumerate(cells):
        journal.record_dispatched(cell, index=index)
        journal.record_completed(cell, index=index)
    journal.checkpoint(completed=len(cells), total=len(cells))
    journal.store_payload(cells[0], {"cell": cells[0], "value": 42})
    return journal


class TestFsckRunClassification:
    def test_clean_run_is_ok(self, tmp_path):
        _make_run(tmp_path)
        report = fsck_run(tmp_path / "r")
        assert report.ok
        assert report.issues == []
        assert report.scanned >= 4  # spec, journal, checkpoint, payload
        assert "clean" in render_fsck_report(report)

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="no run directory"):
            fsck_run(tmp_path / "nope")

    def test_torn_tail_is_found_and_truncated(self, tmp_path):
        journal = _make_run(tmp_path)
        path = journal.run_dir / "journal.jsonl"
        good = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b'{"record": "completed", "cel')  # torn mid-append

        report = fsck_run(journal.run_dir)
        (finding,) = [f for f in report.issues]
        assert finding.status == "torn-tail"
        assert not finding.repaired
        assert not report.ok  # found but not repaired

        report = fsck_run(journal.run_dir, repair=True)
        (finding,) = [f for f in report.issues]
        assert finding.repaired
        assert report.ok
        assert path.read_bytes() == good  # truncated to the last good line

    def test_midfile_corruption_truncates_the_suffix(self, tmp_path):
        journal = _make_run(tmp_path)
        path = journal.run_dir / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # Garble a record in the middle; everything after it is suspect.
        lines[2] = b"\x00\xff not json \x00\n"
        path.write_bytes(b"".join(lines))

        report = fsck_run(journal.run_dir, repair=True)
        (finding,) = report.issues
        assert finding.status == "corrupt"
        assert finding.repaired
        assert path.read_bytes() == b"".join(lines[:2])
        # The truncated journal replays cleanly (prefix-consistent).
        state = RunJournal.open("r", root=tmp_path).replay()
        assert not state.torn_tail

    def test_corrupt_checkpoint_is_deleted(self, tmp_path):
        journal = _make_run(tmp_path)
        checkpoint = journal.run_dir / "checkpoint.json"
        checkpoint.write_text('{"completed": ')
        report = fsck_run(journal.run_dir, repair=True)
        (finding,) = report.issues
        assert (finding.kind, finding.status) == ("checkpoint", "corrupt")
        assert finding.repaired
        assert not checkpoint.exists()
        assert report.ok

    def test_corrupt_payload_is_quarantined_not_deleted(self, tmp_path):
        journal = _make_run(tmp_path)
        payload = journal._payload_path("a")
        payload.write_bytes(b"\x80\x04 definitely not a pickle")
        report = fsck_run(journal.run_dir, repair=True)
        (finding,) = report.issues
        assert (finding.kind, finding.status) == ("payload", "corrupt")
        assert finding.repaired
        assert not payload.exists()
        quarantined = list((journal.run_dir / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [payload.name]

    def test_orphan_in_results_is_quarantined(self, tmp_path):
        journal = _make_run(tmp_path)
        stray = journal.run_dir / "results" / "notes.txt"
        stray.write_text("not a payload")
        report = fsck_run(journal.run_dir, repair=True)
        (finding,) = report.issues
        assert finding.status == "orphaned"
        assert finding.repaired
        assert not stray.exists()
        assert (journal.run_dir / "quarantine" / "notes.txt").is_file()

    def test_payload_without_journal_record_is_fine(self, tmp_path):
        # Chaos campaigns store reference payloads that never get
        # ``completed`` records; fsck must not flag them.
        journal = _make_run(tmp_path)
        journal.store_payload("never-recorded", {"v": 1})
        report = fsck_run(journal.run_dir)
        assert report.ok

    def test_stale_tmp_files_are_deleted(self, tmp_path):
        journal = _make_run(tmp_path)
        debris = journal.run_dir / "results" / "tmpabc123.tmp"
        debris.write_bytes(b"half a payload")
        more = journal.run_dir / "tmpdef456.tmp"
        more.write_bytes(b"half a checkpoint")
        report = fsck_run(journal.run_dir, repair=True)
        assert {f.status for f in report.issues} == {"stale-tmp"}
        assert all(f.repaired for f in report.issues)
        assert not debris.exists() and not more.exists()

    def test_corrupt_spec_is_unrepairable_loss(self, tmp_path):
        journal = _make_run(tmp_path)
        (journal.run_dir / "spec.json").write_text("{broken")
        report = fsck_run(journal.run_dir, repair=True)
        assert not report.ok
        assert len(report.unrepairable_loss) == 1
        assert "UNREPAIRABLE" in render_fsck_report(report)

    def test_missing_spec_is_unrepairable_loss(self, tmp_path):
        journal = _make_run(tmp_path)
        (journal.run_dir / "spec.json").unlink()
        report = fsck_run(journal.run_dir, repair=True)
        assert not report.ok
        assert report.unrepairable_loss[0].kind == "spec"


class TestFsckCache:
    def test_absent_cache_is_vacuously_clean(self, tmp_path):
        report = fsck_cache(tmp_path / "never-created")
        assert report.ok
        assert report.scanned == 0

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good, bad = _digest("good"), _digest("bad")
        cache.put(good, {"v": 1})
        cache.put(bad, {"v": 2})
        bad_path = cache._entry_path(bad)
        blob = bad_path.read_bytes()
        bad_path.write_bytes(blob[: len(blob) // 2])

        report = fsck_cache(tmp_path / "cache", repair=True)
        assert report.scanned == 2
        (finding,) = report.issues
        assert (finding.kind, finding.status) == ("cache-entry", "corrupt")
        assert finding.repaired
        assert not bad_path.exists()
        assert cache.get(good) == {"v": 1}
        # A second pass no longer sees the quarantined entry.
        second = fsck_cache(tmp_path / "cache", repair=True)
        assert second.ok
        assert second.scanned == 1

    def test_quarantine_never_clobbers(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for round_number in (1, 2):
            cache.put(_digest("key"), {"round": round_number})
            path = cache._entry_path(_digest("key"))
            path.write_bytes(b"garbage")
            report = fsck_cache(tmp_path / "cache", repair=True)
            assert report.ok
        quarantine = tmp_path / "cache" / "quarantine"
        assert len(list(quarantine.iterdir())) == 2


class TestFsckTree:
    def test_audits_every_run_and_the_cache(self, tmp_path):
        _make_run(tmp_path / "runs", run_id="one")
        journal = _make_run(tmp_path / "runs", run_id="two")
        (journal.run_dir / "journal.jsonl").write_bytes(b'{"torn')
        cache = ResultCache(tmp_path / "cache")
        cache.put(_digest("k"), 1)

        report = fsck_tree(
            journal_root=tmp_path / "runs", cache_dir=tmp_path / "cache",
        )
        assert len(report.issues) == 1
        assert not report.ok
        repaired = fsck_tree(
            journal_root=tmp_path / "runs", cache_dir=tmp_path / "cache",
            repair=True,
        )
        assert repaired.ok

    def test_single_run_selection(self, tmp_path):
        _make_run(tmp_path / "runs", run_id="target")
        broken = _make_run(tmp_path / "runs", run_id="other")
        (broken.run_dir / "spec.json").write_text("{nope")
        report = fsck_tree(journal_root=tmp_path / "runs", run_id="target")
        assert report.ok  # the damage lives in the *other* run


class TestRepairIdempotency:
    """Repair converges in one pass: a second ``--repair`` of the same
    tree finds nothing and rewrites nothing — byte-for-byte."""

    @staticmethod
    def _snapshot(root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    def _damage_everything(self, tmp_path):
        """One tree with every repairable damage class at once."""
        journal = _make_run(tmp_path / "runs")
        with open(journal.run_dir / "journal.jsonl", "ab") as fh:
            fh.write(b'{"record": "completed", "cel')  # torn tail
        (journal.run_dir / "checkpoint.json").write_text('{"completed": ')
        journal._payload_path("a").write_bytes(b"\x80\x04 not a pickle")
        (journal.run_dir / "results" / "tmpabc.tmp").write_bytes(b"half")
        (journal.run_dir / "results" / "notes.txt").write_text("stray")
        return journal

    def test_second_repair_is_a_byte_level_noop(self, tmp_path):
        self._damage_everything(tmp_path)

        first = fsck_tree(journal_root=tmp_path / "runs", repair=True)
        assert first.ok
        assert first.issues and all(f.repaired for f in first.issues)
        frozen = self._snapshot(tmp_path / "runs")

        second = fsck_tree(journal_root=tmp_path / "runs", repair=True)
        assert second.ok
        assert second.issues == []
        assert self._snapshot(tmp_path / "runs") == frozen

    def test_second_cli_repair_is_a_byte_level_noop(self, tmp_path):
        self._damage_everything(tmp_path)
        argv = ["fsck", "--repair", "--journal-dir",
                str(tmp_path / "runs"), "--no-cache"]
        assert main(argv) == 0
        frozen = self._snapshot(tmp_path / "runs")
        assert main(argv) == 0
        assert self._snapshot(tmp_path / "runs") == frozen


class TestFsckCli:
    def _damaged_tree(self, tmp_path):
        journal = _make_run(tmp_path / "runs")
        with open(journal.run_dir / "journal.jsonl", "ab") as fh:
            fh.write(b'{"record": "comple')
        return journal

    def test_exit_1_without_repair_then_0_with(self, tmp_path, capsys):
        self._damaged_tree(tmp_path)
        argv = ["fsck", "--journal-dir", str(tmp_path / "runs"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "torn-tail" in out
        assert "--repair" in out

        assert main(argv + ["--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out

        assert main(argv) == 0  # tree is clean now
        assert "clean" in capsys.readouterr().out

    def test_exit_1_on_unrepairable_loss(self, tmp_path, capsys):
        journal = self._damaged_tree(tmp_path)
        (journal.run_dir / "spec.json").write_text("{gone")
        assert main([
            "fsck", "--repair", "--journal-dir", str(tmp_path / "runs"),
            "--no-cache",
        ]) == 1
        assert "UNREPAIRABLE" in capsys.readouterr().out

    def test_fsck_of_one_run_id(self, tmp_path, capsys):
        self._damaged_tree(tmp_path)
        _make_run(tmp_path / "runs", run_id="healthy")
        assert main([
            "fsck", "healthy", "--journal-dir", str(tmp_path / "runs"),
            "--no-cache",
        ]) == 0


def _records_strategy():
    """Journal record kinds plus minimal plausible fields for each."""
    return st.lists(
        st.sampled_from(RECORD_KINDS), min_size=1, max_size=8,
    )


def _append_record(journal, kind, index):
    cell = "cell-{}".format(index)
    if kind == "dispatched":
        journal.record_dispatched(cell, index=index)
    elif kind == "completed":
        journal.record_completed(cell, index=index)
    elif kind == "failed":
        journal.record_failed(cell, index=index, message="boom")
    elif kind == "failed-permanent":
        journal.record_failed_permanent(
            cell, index=index, message="boom", attempts=2,
            retry_delays=(0.1, 0.2),
        )
    elif kind == "worker-stalled":
        journal.record_worker_stalled(0, [cell], stale_s=1.5)
    elif kind == "checkpoint":
        journal.append("checkpoint", completed=index, total=8)
    elif kind == "interrupted":
        journal.record_interrupted("SIGTERM", completed=index, total=8)
    elif kind == "resumed":
        journal.record_resumed(completed=index, remaining=8 - index)
    elif kind == "finished":
        journal.record_finished(completed=index, failed=0)
    else:  # pragma: no cover - RECORD_KINDS changed without a branch
        raise AssertionError(kind)


def _state_key(state):
    """The replay facts the prefix must preserve."""
    return (
        sorted(state.completed),
        sorted(state.failed_permanent),
        state.dispatches,
        state.stalls,
        state.interruptions,
        state.resumes,
        state.checkpoints,
        state.finished,
    )


class TestAdversarialJournalTails:
    """Satellite: truncate/garble the last line of every record kind;
    replay must stay prefix-consistent and never raise."""

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=_records_strategy(),
        cut=st.integers(min_value=1, max_value=200),
        garbage=st.one_of(
            st.none(),
            st.binary(min_size=1, max_size=32).map(
                lambda blob: blob.replace(b"\n", b"\x00"),
            ),
        ),
    )
    def test_replay_survives_any_tail_damage(
        self, kinds, cut, garbage, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("tails")
        journal = RunJournal.create({"k": kinds}, run_id="t", root=root)
        for index, kind in enumerate(kinds):
            _append_record(journal, kind, index)
        path = journal.run_dir / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        prefix = b"".join(lines[:-1])

        last = lines[-1]
        if garbage is None:
            # Tear the tail: drop the last ``cut`` bytes (clamped so at
            # least the newline is gone).
            damaged = last[: max(0, len(last) - max(1, cut % len(last)))]
        else:
            # Garble the tail: overwrite it with newline-free junk.
            damaged = garbage
        path.write_bytes(prefix + damaged)

        # The tail only counts when it still parses as a record object
        # (e.g. the tear removed exactly the newline); any other damage
        # must leave exactly the prefix behind.
        try:
            tail_is_record = isinstance(
                json.loads(damaged.decode("utf-8")), dict,
            )
        except (ValueError, UnicodeDecodeError):
            tail_is_record = False
        expected = _replay_of(
            root, prefix + damaged if tail_is_record else prefix,
        )

        replayed = RunJournal.open("t", root=root).replay()
        assert _state_key(replayed) == expected

        # fsck agrees with replay: after repair the journal replays to
        # the same state, with the tear gone.
        report = fsck_run(journal.run_dir, repair=True)
        assert not report.unrepairable_loss
        assert report.ok
        after = RunJournal.open("t", root=root).replay()
        assert _state_key(after) == expected
        assert not after.torn_tail


def _replay_of(root, data):
    """State key of replaying exactly ``data`` (known-good bytes)."""
    scratch = RunJournal.create(
        {"scratch": len(data)}, run_id="s-{}".format(len(data)), root=root,
    )
    (scratch.run_dir / "journal.jsonl").write_bytes(data)
    return _state_key(scratch.replay())


class TestCrashedCampaignRepairResume:
    """The PR's acceptance cycle, end to end through real processes:

    a campaign under a seeded torn-write + crash-at-fsync plan dies
    mid-run leaving a corrupt journal and crash debris; ``repro fsck``
    finds it (exit 1), ``--repair`` fixes it (exit 0), and a fault-free
    resume produces exports byte-identical to a never-faulted run.
    """

    # Chosen so real damage lands before the crash: a torn journal
    # append followed by further appends (mid-file corruption fsck must
    # truncate) plus a cache tmp file orphaned by the crash.
    _PLAN = ('{"name": "ci-smoke", "seed": 3, '
             '"torn_write_probability": 0.35, "crash_at_fsync": 10}')
    _ARGS = ["figure5", "--apps", "fmm", "--threads", "16",
             "--workers", "1"]

    def _env(self, tmp_path, cache_name, faults=None):
        import os as _os
        import sys as _sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(_os.environ)
        env["PYTHONPATH"] = _os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(
                _os.pathsep) if p]
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / cache_name)
        env["REPRO_JOURNAL_DIR"] = str(tmp_path / "runs")
        env.pop("REPRO_STORAGE_FAULTS", None)
        if faults is not None:
            env["REPRO_STORAGE_FAULTS"] = faults
        return env

    def _run(self, args, env):
        import subprocess
        import sys

        return subprocess.run(
            [sys.executable, "-m", "repro"] + args,
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_kill_fsck_repair_resume_byte_identical(self, tmp_path):
        reference = self._run(
            self._ARGS + ["--json", str(tmp_path / "ref.json")],
            self._env(tmp_path, "ref-cache"),
        )
        assert reference.returncode == 0, reference.stderr

        env = self._env(tmp_path, "cache", faults=self._PLAN)
        killed = self._run(
            self._ARGS + [
                "--run-id", "chaos", "--json", str(tmp_path / "out.json"),
            ],
            env,
        )
        assert killed.returncode != 0
        assert "SimulatedCrash" in killed.stderr
        assert not (tmp_path / "out.json").exists()

        fsck_args = [
            "fsck", "chaos", "--journal-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        clean_env = self._env(tmp_path, "cache")
        audit = self._run(fsck_args, clean_env)
        assert audit.returncode == 1, audit.stdout
        assert "corrupt" in audit.stdout

        repaired = self._run(fsck_args + ["--repair"], clean_env)
        assert repaired.returncode == 0, repaired.stdout
        assert "repaired; tree is consistent" in repaired.stdout

        # And the repaired tree audits clean.
        assert self._run(fsck_args, clean_env).returncode == 0

        resumed = self._run(
            self._ARGS + [
                "--resume", "chaos", "--json", str(tmp_path / "out.json"),
            ],
            clean_env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "out.json").read_bytes() == \
            (tmp_path / "ref.json").read_bytes()
