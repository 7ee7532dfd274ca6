"""One Baseline simulation per (app, threads, seed, machine) family.

``baseline``, ``oracle-halt`` and ``ideal`` all come from the same
Baseline run (the derived two are exact replays of it), so the engine
runs the cache-missing cells of such a family as one unit. These tests
count live simulations (``WorkloadRunner.run`` calls, across forked
workers too) and pin that sharing changes nothing observable: results,
per-cell failures, and preempt-then-rerun byte identity.
"""

import os

import pytest

from repro.errors import CampaignInterrupted
from repro.experiments.cache import ResultCache
from repro.experiments.configs import CONFIG_NAMES
from repro.experiments.export import matrix_to_json
from repro.experiments.parallel import (
    CellFailure,
    ExperimentCell,
    ExperimentEngine,
)
from repro.experiments.runner import run_experiment, run_matrix
from repro.faults.chaos import (
    ChaosCampaignReport,
    ChaosCellReport,
    _overrides_for,
    chaos_key,
    chaos_report_as_dict,
    run_chaos_campaign,
    run_chaos_cell,
    sample_plans,
)
from repro.workloads.generator import WorkloadRunner

APPS = ("fmm", "radix")
THREADS = 8


@pytest.fixture
def live_runs(tmp_path, monkeypatch):
    """Count ``WorkloadRunner.run`` calls, forked workers included.

    Each call appends one byte to a file, so runs made in child
    processes (which inherit the patched class) are counted too.
    """
    path = tmp_path / "live-runs"
    path.write_bytes(b"")
    original = WorkloadRunner.run

    def counted(self, *args, **kwargs):
        fd = os.open(str(path), os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b".")
        finally:
            os.close(fd)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WorkloadRunner, "run", counted)

    def count():
        runs = path.stat().st_size
        path.write_bytes(b"")
        return runs

    return count


def _matrix(cache, configs=CONFIG_NAMES, workers=1, **kwargs):
    return run_matrix(
        apps=APPS, configs=configs, threads=THREADS, seed=1,
        workers=workers, cache=cache, **kwargs
    )


class TestLiveRunCounts:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_cold_cache_runs_three_per_app(
        self, tmp_path, live_runs, workers
    ):
        _matrix(ResultCache(tmp_path / "cache"), workers=workers)
        assert live_runs() == 3 * len(APPS)

    def test_cold_uncached_runs_three_per_app(self, live_runs):
        _matrix(None)
        assert live_runs() == 3 * len(APPS)

    @pytest.mark.parametrize("missing, runs_per_app", (
        (("oracle-halt", "ideal"), 1),
        (("thrifty",), 1),
        (("baseline",), 1),
        ((), 0),
    ))
    def test_only_cache_misses_run(
        self, tmp_path, live_runs, missing, runs_per_app
    ):
        cache = ResultCache(tmp_path / "cache")
        present = [c for c in CONFIG_NAMES if c not in missing]
        _matrix(cache, configs=present)
        live_runs()
        matrix = _matrix(cache)
        assert live_runs() == runs_per_app * len(APPS)
        assert all(
            not isinstance(result, CellFailure)
            for row in matrix.values() for result in row.values()
        )

    def test_baseline_with_overrides_runs_alone(self, live_runs):
        cells = [
            ExperimentCell.make("fmm", "baseline", threads=THREADS),
            ExperimentCell.make(
                "fmm", "baseline", threads=THREADS,
                overprediction_threshold=0.5,
            ),
            ExperimentCell.make("fmm", "ideal", threads=THREADS),
        ]
        out = ExperimentEngine(strict=True).run_cells(cells)
        assert live_runs() == 2
        assert out[0].identical(out[1])

    def test_cells_of_different_seeds_do_not_share(self, live_runs):
        cells = [
            ExperimentCell.make("fmm", "ideal", threads=THREADS, seed=1),
            ExperimentCell.make("fmm", "ideal", threads=THREADS, seed=2),
        ]
        first, second = ExperimentEngine(strict=True).run_cells(cells)
        assert live_runs() == 2
        assert not first.identical(second)


class TestIdentity:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("telemetry", (False, True))
    def test_equals_per_cell_run_experiment(self, workers, telemetry):
        cells = [
            ExperimentCell.make(
                app, config, threads=THREADS, telemetry=telemetry,
            )
            for app in APPS for config in CONFIG_NAMES
        ]
        engine = ExperimentEngine(workers=workers, strict=True)
        shared = engine.run_cells(cells)
        for cell, result in zip(cells, shared):
            alone = run_experiment(
                cell.app, cell.config, threads=THREADS,
                telemetry=telemetry,
            )
            assert result.identical(alone), (cell.app, cell.config)
            assert (result.telemetry is not None) == telemetry

    def test_each_cell_gets_its_own_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _matrix(cache)
        assert len(cache) == len(APPS) * len(CONFIG_NAMES)
        for app in APPS:
            for config in CONFIG_NAMES:
                key = ExperimentCell.make(app, config, threads=THREADS).key()
                assert cache.get(key).identical(
                    run_experiment(app, config, threads=THREADS)
                )


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_raising_family_fails_each_of_its_cells(self, workers):
        configs = ("baseline", "thrifty", "oracle-halt", "ideal")
        engine = ExperimentEngine(workers=workers, strict=False)
        matrix = engine.run_matrix(
            ("no-such-app", "fmm"), configs=configs, threads=THREADS,
        )
        failures = list(matrix["no-such-app"].values())
        assert all(isinstance(f, CellFailure) for f in failures)
        assert [f.cell.config for f in failures] == list(configs)
        assert len({id(f) for f in failures}) == len(configs)
        assert {f.error_type for f in failures} == {"WorkloadError"}
        for config, result in matrix["fmm"].items():
            assert result.identical(
                run_experiment("fmm", config, threads=THREADS)
            )
        assert engine.stats.failures == len(configs)
        assert engine.stats.executed == len(configs)


class _FlipAfter:
    """Preemption stub: ``requested`` turns true after ``n`` checks.

    The serial engine lane checks once per cell, so ``n`` is the number
    of cells that finish before the interrupt.
    """

    reason = "SIGTERM"
    drain_deadline_s = 5.0

    def __init__(self, n):
        self._fuse = n

    @property
    def requested(self):
        self._fuse -= 1
        return self._fuse < 0


class TestPreemption:
    # 5 lands between fmm's cells and radix's family; 1 lands inside
    # fmm's family, after its Baseline cell but before the derived two.
    @pytest.mark.parametrize("cut", (5, 1))
    def test_rerun_after_interrupt_is_byte_identical(self, tmp_path, cut):
        reference = matrix_to_json(_matrix(ResultCache(tmp_path / "ref")))
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(CampaignInterrupted) as excinfo:
            _matrix(cache, preemption=_FlipAfter(cut))
        assert excinfo.value.completed == cut
        assert len(cache) == cut
        rerun = ExperimentEngine(cache=cache, strict=True)
        matrix = rerun.run_matrix(APPS, threads=THREADS, seed=1)
        assert rerun.stats.cache_hits == cut
        assert matrix_to_json(matrix) == reference

    def test_parallel_interrupt_drains_in_flight_units(self, tmp_path):
        reference = matrix_to_json(_matrix(ResultCache(tmp_path / "ref")))
        cache = ResultCache(tmp_path / "cache")
        # The first check admits one dispatch round (two units on two
        # workers); the second stops dispatch and drains them.
        engine = ExperimentEngine(
            workers=2, chunksize=1, cache=cache, preemption=_FlipAfter(1),
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            engine.run_matrix(APPS, threads=THREADS, seed=1)
        done = excinfo.value.completed
        total = len(APPS) * len(CONFIG_NAMES)
        assert 0 < done < total
        assert len(cache) == done
        rerun = ExperimentEngine(workers=2, cache=cache, strict=True)
        matrix = rerun.run_matrix(APPS, threads=THREADS, seed=1)
        assert rerun.stats.cache_hits == done
        assert matrix_to_json(matrix) == reference


class TestChaosSharing:
    """Chaos campaigns share simulations the same way: one perturbed
    Baseline per (app, plan) and one clean Baseline per app serve
    ``baseline``, ``oracle-halt`` and ``ideal``."""

    @pytest.mark.parametrize("plans, runs", ((1, 6), (3, 12)))
    def test_live_runs_per_campaign(self, live_runs, plans, runs):
        run_chaos_campaign(
            sample_plans(plans, seed=7), apps=("fmm",), threads=THREADS,
        )
        assert live_runs() == runs

    def test_campaign_equals_unshared_cells(self):
        plans = sample_plans(2, seed=7)
        campaign = run_chaos_campaign(plans, apps=APPS, threads=THREADS)
        alone = ChaosCampaignReport(planned=campaign.planned)
        for app in APPS:
            for config in CONFIG_NAMES:
                clean = run_experiment(
                    app, config, threads=THREADS, **_overrides_for(config)
                )
                for plan in plans:
                    alone.cells.append(run_chaos_cell(
                        app, config, plan, threads=THREADS, clean=clean,
                    ))
        assert chaos_report_as_dict(campaign) == chaos_report_as_dict(alone)


class TestChaosCache:
    """Chaos reports persist in the result cache under their own keys,
    so re-running an interrupted campaign is its resume."""

    def test_chaos_and_matrix_keys_never_collide(self):
        plan = sample_plans(1, seed=7)[0]
        for config in CONFIG_NAMES:
            cell = ExperimentCell.make(
                "fmm", config, threads=THREADS, **_overrides_for(config)
            )
            assert chaos_key("fmm", config, plan, threads=THREADS) \
                != cell.key()

    def test_every_input_changes_the_chaos_key(self):
        first, second = sample_plans(2, seed=7)
        base = dict(threads=THREADS, seed=1, deadline_ns=10_000_000)
        key = chaos_key("fmm", "thrifty", first, **base)
        assert key == chaos_key("fmm", "thrifty", first, **base)
        for changed in (
            chaos_key("fmm", "thrifty", second, **base),
            chaos_key("fmm", "thrifty", first, **dict(base, threads=16)),
            chaos_key("fmm", "thrifty", first, **dict(base, seed=2)),
            chaos_key(
                "fmm", "thrifty", first, **dict(base, deadline_ns=1_000_000)
            ),
            chaos_key("radix", "thrifty", first, **base),
            chaos_key("fmm", "thrifty-halt", first, **base),
        ):
            assert changed != key

    def test_chaos_entries_are_never_served_to_matrix_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_chaos_campaign(
            sample_plans(1, seed=7), apps=("fmm",), threads=THREADS,
            cache=cache,
        )
        engine = ExperimentEngine(cache=cache, strict=True)
        matrix = engine.run_matrix(("fmm",), threads=THREADS, seed=1)
        assert not any(
            isinstance(result, ChaosCellReport)
            for result in matrix["fmm"].values()
        )
        cold = ExperimentEngine(strict=True).run_matrix(
            ("fmm",), threads=THREADS, seed=1,
        )
        assert matrix_to_json(matrix) == matrix_to_json(cold)

    def test_matrix_entries_are_never_served_as_chaos_reports(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        run_matrix(apps=("fmm",), threads=THREADS, seed=1, cache=cache)
        plans = sample_plans(1, seed=7)
        campaign = run_chaos_campaign(
            plans, apps=("fmm",), threads=THREADS, seed=1, cache=cache,
        )
        assert campaign.resumed_cells == 0
        alone = run_chaos_campaign(
            plans, apps=("fmm",), threads=THREADS, seed=1,
        )
        assert chaos_report_as_dict(campaign) == chaos_report_as_dict(alone)

    @pytest.mark.parametrize("cut", (1, 3, 8))
    def test_rerun_after_interrupt_resimulates_no_finished_cell(
        self, live_runs, tmp_path, cut
    ):
        plans = sample_plans(2, seed=7)
        kwargs = dict(apps=("fmm",), threads=THREADS)
        reference = run_chaos_campaign(plans, **kwargs)
        uninterrupted_runs = live_runs()

        cache = ResultCache(tmp_path / "cache")
        interrupted = run_chaos_campaign(
            plans, cache=cache, preemption=_FlipAfter(cut), **kwargs
        )
        assert interrupted.interrupted
        assert len(interrupted.cells) == cut
        rerun = run_chaos_campaign(plans, cache=cache, **kwargs)
        # Between them the two runs simulate exactly what one
        # uninterrupted campaign does: nothing finished ran twice.
        assert live_runs() == uninterrupted_runs
        assert rerun.resumed_cells >= cut
        assert not rerun.interrupted
        assert chaos_report_as_dict(rerun)["cells"] == \
            chaos_report_as_dict(reference)["cells"]
