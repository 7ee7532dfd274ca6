"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure7"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        # --threads defaults per command (64 for experiments, 8 for
        # check); the parser leaves it None and main() resolves it.
        assert args.threads is None
        assert args.apps is None
        assert not args.chart

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.schedules == 64
        assert args.depth == 24
        assert args.strategy == "dfs"
        assert args.mutant is None
        assert args.replay is None
        assert args.counterexample == "counterexample.json"
        assert not args.fail_fast

    def test_cell_command_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "fmm"
        assert args.config == "thrifty"
        assert args.trace is None
        assert args.metrics_csv is None


class TestMain:
    def test_table3_prints(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "97.8%" in out

    def test_table1_prints_probes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "L1 round trip" in out

    def test_table2_single_app(self, capsys):
        assert main(["table2", "--apps", "radiosity", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "radiosity" in out
        assert "volrend" not in out

    def test_figure5_with_exports(self, capsys, tmp_path):
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        assert main([
            "figure5", "--apps", "radiosity", "--threads", "16",
            "--chart", "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "|" in out  # the chart
        records = json.loads(json_path.read_text())
        assert len(records) == 5
        assert csv_path.exists()

    def test_headline(self, capsys):
        assert main([
            "headline", "--apps", "radiosity", "--threads", "16",
        ]) == 0
        assert "headline" in capsys.readouterr().out

    def test_matrix_prints_engine_and_cache_counters(self, capsys):
        # The default cache is live (conftest points REPRO_CACHE_DIR at a
        # per-session temp dir), which routes through the engine and
        # surfaces its counters in the run summary.
        assert main([
            "figure5", "--apps", "radiosity", "--threads", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine & cache counters" in out
        assert "engine.submitted" in out
        assert "cache.misses" in out


class TestCellCommands:
    def test_run_prints_summary_and_metrics(self, capsys):
        assert main([
            "run", "--app", "fmm", "--config", "thrifty",
            "--threads", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cell summary" in out
        assert "events traced" in out
        assert "barrier.check_ins" in out
        assert "wake.total" in out

    def test_trace_prints_digest(self, capsys):
        assert main(["trace", "--app", "fmm", "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "Trace digest" in out
        assert "barrier.check_in" in out
        assert "Mean BIT (ns)" in out

    def test_metrics_prints_tables(self, capsys):
        assert main([
            "metrics", "--app", "fmm", "--config", "thrifty-halt",
            "--threads", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Telemetry metrics" in out
        assert "sleep.entries" in out
        assert "Histogram" in out

    def test_trace_export_is_loadable_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        csv_path = tmp_path / "metrics.csv"
        assert main([
            "run", "--app", "fmm", "--threads", "8",
            "--trace", str(trace_path), "--metrics-csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        phases = {row["ph"] for row in document["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        assert csv_path.read_text().startswith("type,name,field,value")

    def test_unknown_config_fails_cleanly(self, capsys):
        assert main(["run", "--config", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration" in err
        assert "thrifty" in err  # lists the valid choices


class TestChaosCommand:
    def test_campaign_reports_and_exits_zero(self, capsys):
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8",
            "--plans", "1", "--configs", "thrifty",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chaos campaign" in out
        assert "OK:" in out
        assert "0 invariant violation(s)" in out


class TestExitCodes:
    """Every documented exit status, from repro.cli's docstring.

    0 = clean, 1 = campaign finished with violations, 2 = bad
    invocation, 3 = gracefully preempted (resumable).
    """

    def test_constants(self):
        from repro.cli import (
            EXIT_OK,
            EXIT_RESUMABLE,
            EXIT_USAGE,
            EXIT_VIOLATION,
        )

        assert (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_RESUMABLE) == (
            0, 1, 2, 3,
        )

    def test_usage_error_exits_2(self, capsys):
        assert main(["run", "--config", "nonsense"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_chaos_violations_exit_1(self, capsys, monkeypatch):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport, ChaosCellReport
        from repro.faults.plan import FaultPlan

        class StubViolation:
            def describe(self):
                return "stub: a thread overslept"

        cell = ChaosCellReport(
            app="fmm", config="thrifty", plan=FaultPlan.sample(0),
            threads=8, violations=(StubViolation(),), injected={},
            late_wakes=0, releases=1, execution_time_ns=1,
            energy_joules=1.0,
        )
        report = ChaosCampaignReport(cells=[cell], planned=1)

        def fake_campaign(*args, **kwargs):
            return report

        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign", fake_campaign,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "stub: a thread overslept" in out

    def test_chaos_interrupt_exits_3_with_resume_hint(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport

        report = ChaosCampaignReport(cells=[], planned=5, interrupted=True)
        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign",
            lambda *args, **kwargs: report,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
            "--cache-dir", str(tmp_path),
        ]) == 3
        out = capsys.readouterr().out
        assert "INTERRUPTED (resumable)" in out
        assert "re-run the same command to resume" in out

    def test_chaos_interrupt_under_no_cache_says_nothing_was_kept(
        self, capsys, monkeypatch
    ):
        import repro.faults.chaos as chaos_module
        from repro.faults.chaos import ChaosCampaignReport

        report = ChaosCampaignReport(cells=[], planned=5, interrupted=True)
        monkeypatch.setattr(
            chaos_module, "run_chaos_campaign",
            lambda *args, **kwargs: report,
        )
        assert main([
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
            "--no-cache",
        ]) == 3
        out = capsys.readouterr().out
        assert "nothing was kept (--no-cache)" in out
        assert "starts over" in out
        assert "result cache" not in out


class TestChaosResume:
    @staticmethod
    def _table(text):
        return [
            line for line in text.splitlines()
            if line.startswith(("fmm", "OK:"))
        ]

    def test_cached_campaign_resumes_without_rerunning(
        self, capsys, tmp_path
    ):
        common = [
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "2",
            "--configs", "thrifty", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert "served from the result cache" not in first

        assert main(common) == 0
        second = capsys.readouterr().out
        assert "2 cell(s) served from the result cache" in second
        # Identical campaign summary either way (the served cells are
        # the cached reports of the first run).
        assert self._table(first) == self._table(second)

    def test_no_cache_campaign_keeps_nothing(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        common = [
            "chaos", "--apps", "fmm", "--threads", "8", "--plans", "1",
            "--configs", "thrifty", "--no-cache",
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert main(common) == 0
        second = capsys.readouterr().out
        assert "served from the result cache" not in second
        assert self._table(first) == self._table(second)
        assert not (tmp_path / "default").exists()


class TestCacheCommand:
    def test_action_positional(self):
        args = build_parser().parse_args(["cache", "prune",
                                          "--max-entries", "10"])
        assert args.artifact == "cache"
        assert args.action == "prune"
        assert args.max_entries == 10

    def test_stats_default_action(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["cache_dir"] == str(tmp_path)

    def test_prune_and_clear(self, capsys, tmp_path):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        for n in range(5):
            cache.put("{:x}abc".format(n), {"n": n})
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "3"]) == 0
        captured = capsys.readouterr()
        assert "evicted 2 entries" in captured.err
        assert json.loads(captured.out)["entries"] == 3
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "removed 3 entries" in captured.err
        assert json.loads(captured.out)["entries"] == 0

    def test_prune_needs_budget(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_unknown_action_is_usage_error(self, capsys, tmp_path):
        assert main(["cache", "vacuum", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown cache action" in capsys.readouterr().err

    def test_no_cache_flag_conflicts(self, capsys):
        assert main(["cache", "--no-cache"]) == 2
