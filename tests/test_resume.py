"""Kill-and-resume acceptance tests for crash-safe campaigns.

The result cache is the one persistence path: every finished cell is
stored as it completes, so resuming an interrupted campaign means
re-running it on the same cache. The property under test: a sweep
interrupted at an arbitrary point and re-run produces exports
**byte-identical** to an uninterrupted run, with completed cells never
re-executed — verified through the engine/cache counters. Exercised
three ways:

* deterministically, via a stub preemption object, for several seeds
  and cut points (serial engine path);
* on the parallel engine path (immediate preemption, drain, re-run);
* end-to-end through the CLI, both with a stubbed guard (in-process)
  and with a real SIGTERM delivered to a ``python -m repro``
  subprocess.
"""

import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import CampaignInterrupted
from repro.experiments.cache import ResultCache
from repro.experiments.export import matrix_to_json
from repro.experiments.parallel import ExperimentEngine

APPS = ("fmm",)
CONFIGS = ("baseline", "thrifty", "oracle-halt")
THREADS = 4


class TriggerAfter:
    """Preemption stub: ``requested`` flips true after ``n`` checks.

    The engine consults ``requested`` once per cell (serial path) /
    once per supervision round (parallel path), so this interrupts a
    campaign at a deterministic point with no real signals involved.
    """

    reason = "SIGTERM"
    drain_deadline_s = 5.0

    def __init__(self, n):
        self._fuse = n

    @property
    def requested(self):
        if self._fuse <= 0:
            return True
        self._fuse -= 1
        return False

    # The CLI installs its guard as a context manager.
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def _reference_json(tmp_path, seed, **engine_kwargs):
    engine = ExperimentEngine(
        cache=tmp_path / "ref-cache-{}".format(seed), **engine_kwargs
    )
    matrix = engine.run_matrix(
        APPS, configs=CONFIGS, threads=THREADS, seed=seed,
    )
    return matrix_to_json(matrix)


class TestKillAndResumeProperty:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_interrupted_then_resumed_is_byte_identical(
        self, seed, tmp_path
    ):
        reference = _reference_json(tmp_path, seed)
        total = len(APPS) * len(CONFIGS)
        # Seeded-random cut point: each seed interrupts elsewhere.
        cut = random.Random(seed).randrange(1, total)
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cache=cache, preemption=TriggerAfter(cut))
        with pytest.raises(CampaignInterrupted) as excinfo:
            engine.run_matrix(
                APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        interrupt = excinfo.value
        assert (interrupt.completed, interrupt.total) == (cut, total)
        # Partial results ride the exception, never discarded.
        assert sum(r is not None for r in interrupt.results) == cut
        # Exactly the finished cells were kept.
        assert len(cache) == cut

        second = ExperimentEngine(cache=tmp_path / "cache")
        matrix = second.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        # Completed cells were restored from the cache, not re-run.
        assert second.stats.cache_hits == cut
        assert second.stats.executed == total - cut
        assert matrix_to_json(matrix) == reference

    def test_exported_files_are_byte_identical(self, tmp_path):
        seed = 1
        reference = _reference_json(tmp_path, seed)
        ref_path = tmp_path / "ref.json"
        out_path = tmp_path / "resumed.json"
        ref_path.write_text(reference + "\n")

        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(
            cache=cache_dir, preemption=TriggerAfter(1),
        )
        with pytest.raises(CampaignInterrupted):
            engine.run_matrix(
                APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        second = ExperimentEngine(cache=cache_dir)
        matrix = second.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        matrix_to_json(matrix, path=out_path)
        assert out_path.read_bytes() == ref_path.read_bytes()

    def test_parallel_preemption_drains_then_resumes(self, tmp_path):
        seed = 1
        reference = _reference_json(tmp_path, seed)
        total = len(APPS) * len(CONFIGS)
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(
            workers=2, cache=cache, preemption=TriggerAfter(0),
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            engine.run_matrix(
                APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        # In-flight workers drained gracefully: their completions are
        # cached; only never-dispatched work remains.
        done = excinfo.value.completed
        assert 0 <= done < total
        assert len(cache) == done

        second = ExperimentEngine(workers=2, cache=tmp_path / "cache")
        matrix = second.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        assert second.stats.cache_hits == done
        assert matrix_to_json(matrix) == reference


def _counter(out, name):
    """One counter's value from a CLI run summary."""
    (value,) = re.findall(r"^{}\s+(\d+)".format(re.escape(name)), out, re.M)
    return int(value)


def _figure_text(out):
    """The figure table of a ``repro figure5`` stdout, without the
    run summary (whose counters differ between cold and warm runs)."""
    return out.split("Run summary")[0]


class TestCliKillAndResume:
    def test_cli_interrupt_exits_3_then_resume_matches_reference(
        self, tmp_path, capsys
    ):
        common = ["figure5", "--apps", "fmm", "--threads", "4"]
        ref_json = tmp_path / "ref.json"
        assert main(common + [
            "--cache-dir", str(tmp_path / "ref-cache"),
            "--json", str(ref_json),
        ]) == 0
        capsys.readouterr()

        cache = str(tmp_path / "cache")
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                "repro.cli.PreemptionGuard", lambda: TriggerAfter(2),
            )
            code = main(common + [
                "--cache-dir", cache,
                "--json", str(tmp_path / "never-written.json"),
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "preempted (2 of 5 cells finished)" in err
        assert "re-run the same command to resume" in err
        # An interrupted run never writes a (partial) export.
        assert not (tmp_path / "never-written.json").exists()

        out_json = tmp_path / "resumed.json"
        assert main(common + [
            "--cache-dir", cache, "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine.cache_hits" in out
        assert out_json.read_bytes() == ref_json.read_bytes()

    def test_cli_interrupt_under_no_cache_says_nothing_was_kept(
        self, tmp_path, capsys
    ):
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                "repro.cli.PreemptionGuard", lambda: TriggerAfter(2),
            )
            code = main([
                "figure5", "--apps", "fmm", "--threads", "4", "--no-cache",
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "preempted (2 of 5 cells finished)" in err
        assert "nothing was kept (--no-cache)" in err
        assert "starts over" in err
        assert "result cache" not in err

    def test_cli_subset_campaign_on_a_shared_cache_is_byte_identical(
        self, tmp_path, capsys
    ):
        # Content addressing serves a cell only to the campaign that
        # asks for exactly that cell, so a different campaign on the
        # same cache needs no refusal: it gets a cold run's bytes.
        cold_json = tmp_path / "cold.json"
        assert main([
            "figure5", "--apps", "fmm", "--threads", "4",
            "--cache-dir", str(tmp_path / "cold-cache"),
            "--json", str(cold_json),
        ]) == 0
        cold = _figure_text(capsys.readouterr().out)

        shared = str(tmp_path / "shared-cache")
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                "repro.cli.PreemptionGuard", lambda: TriggerAfter(7),
            )
            assert main([
                "figure5", "--apps", "fmm", "ocean", "--threads", "4",
                "--cache-dir", shared,
            ]) == 3
        capsys.readouterr()

        subset_json = tmp_path / "subset.json"
        assert main([
            "figure5", "--apps", "fmm", "--threads", "4",
            "--cache-dir", shared, "--json", str(subset_json),
        ]) == 0
        out = capsys.readouterr().out
        assert _figure_text(out) == cold
        assert subset_json.read_bytes() == cold_json.read_bytes()
        # Every fmm cell came from the interrupted campaign's cache.
        assert _counter(out, "engine.cache_hits") == 5
        assert _counter(out, "engine.executed") == 0


class TestSigtermSubprocess:
    def _env(self, tmp_path, cache_name):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p]
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / cache_name)
        return env

    def _run(self, args, env):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + args,
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_real_sigterm_is_resumable_byte_identically(self, tmp_path):
        # Enough cells (4 apps x 5 configs at 16 threads) that the first
        # cache entry appears long before the sweep finishes.
        args = [
            "figure5", "--apps", "fmm", "ocean", "radix", "fft",
            "--threads", "16",
        ]
        reference = self._run(
            args + ["--json", str(tmp_path / "ref.json")],
            self._env(tmp_path, "ref-cache"),
        )
        assert reference.returncode == 0, reference.stderr

        env = self._env(tmp_path, "cache")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"] + args + [
                "--json", str(tmp_path / "killed.json"),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        cache = ResultCache(tmp_path / "cache")
        deadline = time.monotonic() + 60.0
        while not len(cache) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(cache), "sweep never stored a cell"
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 3, stderr
        assert "re-run the same command to resume" in stderr
        assert not (tmp_path / "killed.json").exists()
        kept = len(cache)
        assert 0 < kept < 20

        resumed = self._run(
            args + ["--json", str(tmp_path / "out.json")], env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "engine.cache_hits" in resumed.stdout
        ref_bytes = (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "out.json").read_bytes() == ref_bytes
        # Every cell completed exactly once overall: the re-run stored
        # only the cells the interrupted run had not.
        assert len(cache) == 20
