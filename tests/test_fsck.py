"""``repro fsck``: offline audit and repair of the result cache.

Covers each classification (intact, corrupt, stale-tmp), the safe
repair actions (quarantine, never destroy; delete crash debris), the
CLI exit codes, repair idempotency, an adversarial property — fsck and
the cache agree about *any* damaged entry — and the end-to-end crash
cycle: a campaign killed at an injected fsync crash is audited,
repaired, and re-run to a byte-identical export.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.experiments.cache import ResultCache
from repro.experiments.fsck import fsck_cache, render_fsck_report


def _digest(text):
    """A cache key in the canonical 64-hex digest shape."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _make_cache(root, keys=("a", "b", "c")):
    """A healthy cache holding one entry per key."""
    cache = ResultCache(root)
    for key in keys:
        cache.put(_digest(key), {"cell": key, "value": 42})
    return cache


class TestFsckCache:
    def test_clean_cache_is_ok(self, tmp_path):
        _make_cache(tmp_path / "cache")
        report = fsck_cache(tmp_path / "cache")
        assert report.ok
        assert report.issues == []
        assert report.scanned == 3
        assert "clean" in render_fsck_report(report)

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

    def test_stale_tmp_files_are_deleted(self, tmp_path):
        cache = _make_cache(tmp_path / "cache")
        debris = cache._entry_path(_digest("a")).parent / "tmpabc.tmp"
        debris.write_bytes(b"half a pickle")
        report = fsck_cache(tmp_path / "cache")
        assert not report.ok
        (finding,) = report.issues
        assert (finding.kind, finding.status) == ("stray", "stale-tmp")
        assert debris.exists()  # an audit alone changes nothing

        assert fsck_cache(tmp_path / "cache", repair=True).ok
        assert not debris.exists()
        assert len(cache) == 3  # the entries beside it are untouched


class TestRepairIdempotency:
    """Repair converges in one pass: a second ``--repair`` of the same
    cache finds nothing and rewrites nothing — byte-for-byte."""

    @staticmethod
    def _snapshot(root):
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    def _damage_everything(self, tmp_path):
        """One cache with every repairable damage class at once."""
        cache = _make_cache(tmp_path / "cache")
        cache._entry_path(_digest("a")).write_bytes(b"\x80\x04 not a pickle")
        (cache._entry_path(_digest("b")).parent / "tmpabc.tmp").write_bytes(
            b"half"
        )
        return cache

    def test_second_repair_is_a_byte_level_noop(self, tmp_path):
        self._damage_everything(tmp_path)

        first = fsck_cache(tmp_path / "cache", repair=True)
        assert first.ok
        assert len(first.issues) == 2
        assert all(f.repaired for f in first.issues)
        frozen = self._snapshot(tmp_path / "cache")

        second = fsck_cache(tmp_path / "cache", repair=True)
        assert second.ok
        assert second.issues == []
        assert self._snapshot(tmp_path / "cache") == frozen

    def test_second_cli_repair_is_a_byte_level_noop(self, tmp_path):
        self._damage_everything(tmp_path)
        argv = ["fsck", "--repair", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        frozen = self._snapshot(tmp_path / "cache")
        assert main(argv) == 0
        assert self._snapshot(tmp_path / "cache") == frozen


class TestFsckCli:
    def _damaged_cache(self, root):
        cache = _make_cache(root)
        path = cache._entry_path(_digest("a"))
        path.write_bytes(path.read_bytes()[:5])
        return cache

    def test_exit_1_without_repair_then_0_with(self, tmp_path, capsys):
        self._damaged_cache(tmp_path / "cache")
        argv = ["fsck", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "--repair" in out

        assert main(argv + ["--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out

        assert main(argv) == 0  # the cache is clean now
        assert "clean" in capsys.readouterr().out

    def test_default_cache_is_audited(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        self._damaged_cache(tmp_path / "default")
        assert main(["fsck"]) == 1
        assert str(tmp_path / "default") in capsys.readouterr().out

    def test_run_id_argument_is_a_usage_error(self, capsys):
        assert main(["fsck", "nightly"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_no_cache_is_a_usage_error(self, capsys):
        assert main(["fsck", "--no-cache"]) == 2
        assert "drop --no-cache" in capsys.readouterr().err


_MISS = object()


class TestAdversarialCacheEntries:
    """Truncate or garble a cache entry any way: the cache never
    raises, and fsck agrees with it about the damage."""

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4),
            max_leaves=12,
        ),
        cut=st.integers(min_value=0, max_value=400),
        garbage=st.binary(max_size=16),
    )
    def test_fsck_and_the_cache_agree_on_any_entry_damage(
        self, value, cut, garbage, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("entries")
        key = _digest("cell")
        ResultCache(root).put(key, value)
        path = ResultCache(root)._entry_path(key)
        data = path.read_bytes()
        path.write_bytes(data[: cut % (len(data) + 1)] + garbage)

        verdict = fsck_cache(root).findings[0].status
        served = ResultCache(root).get(key, default=_MISS)
        # fsck calls an entry intact exactly when the cache serves it;
        # a torn write (a strict prefix of the pickle) never loads.
        assert (verdict == "intact") == (served is not _MISS)
        if not garbage and cut % (len(data) + 1) < len(data):
            assert served is _MISS
        if served is _MISS:
            # The cache evicted what it could not load; fsck finds
            # nothing left to repair.
            assert not path.exists()
            assert fsck_cache(root, repair=True).ok


class TestCrashedCampaignRepairResume:
    """The crash-safety acceptance cycle, end to end through real
    processes: a campaign under a seeded torn-write + crash-at-fsync
    plan dies mid-run leaving crash debris in the cache; ``repro fsck``
    finds it (exit 1), ``--repair`` fixes it (exit 0), and re-running
    the same command fault-free serves the cells that landed and
    produces an export byte-identical to a never-faulted run.
    """

    # Seed 3 with the crash at the third fsync: two cells land, and the
    # write the crash kills leaves its tmp file behind.
    _PLAN = ('{"name": "ci-smoke", "seed": 3, '
             '"torn_write_probability": 0.35, "crash_at_fsync": 3}')
    _ARGS = ["figure5", "--apps", "fmm", "--threads", "16",
             "--workers", "1"]

    def _env(self, tmp_path, cache_name, faults=None):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p]
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / cache_name)
        env.pop("REPRO_STORAGE_FAULTS", None)
        if faults is not None:
            env["REPRO_STORAGE_FAULTS"] = faults
        return env

    def _run(self, args, env):
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
            self._ARGS + ["--json", str(tmp_path / "out.json")], env,
        )
        assert killed.returncode != 0
        assert "SimulatedCrash" in killed.stderr
        assert not (tmp_path / "out.json").exists()

        fsck_args = ["fsck", "--cache-dir", str(tmp_path / "cache")]
        clean_env = self._env(tmp_path, "cache")
        audit = self._run(fsck_args, clean_env)
        assert audit.returncode == 1, audit.stdout
        assert "stale-tmp" in audit.stdout

        repaired = self._run(fsck_args + ["--repair"], clean_env)
        assert repaired.returncode == 0, repaired.stdout
        assert "repaired; tree is consistent" in repaired.stdout

        # And the repaired cache audits clean.
        assert self._run(fsck_args, clean_env).returncode == 0

        resumed = self._run(
            self._ARGS + ["--json", str(tmp_path / "out.json")], clean_env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "engine.cache_hits   2" in resumed.stdout
        assert "engine.executed     3" in resumed.stdout
        assert (tmp_path / "out.json").read_bytes() == \
            (tmp_path / "ref.json").read_bytes()
