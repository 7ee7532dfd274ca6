"""Command-line interface: regenerate any table or figure, or trace a run.

Examples
--------
::

    thrifty-barrier table2 --apps fmm ocean
    thrifty-barrier figure5 --threads 64
    thrifty-barrier headline
    python -m repro figure3

Telemetry surface::

    repro run --app fmm --config thrifty --threads 16 --trace out.json
    repro trace --app fmm --threads 16
    repro metrics --app ocean --config thrifty-halt --threads 16

``run`` executes one (application, configuration) cell with tracing on
and prints its summary; ``--trace`` writes a Perfetto-loadable Chrome
trace, ``--metrics-csv`` a CSV metric dump. ``trace`` prints the
human-readable timeline digest; ``metrics`` the full metrics tables.

Model checking::

    repro check --schedules 64 --depth 24     # all five configs
    repro check --mutant racy-check-in        # must be caught
    repro check --replay counterexample.json  # reproduce a finding

``check`` drives the simulator through bounded alternative orderings
of same-timestamp events and audits every schedule with the protocol
oracles; a violation is shrunk to a minimal decision string and
exported as a replayable artifact plus a Perfetto witness trace.

Crash safety::

    repro figure5 --cache-dir runs/nightly    # killed part-way...
    repro figure5 --cache-dir runs/nightly    # ...the same command resumes
    repro fsck --cache-dir runs/nightly --repair

The content-addressed result cache is the one persistence path. Every
finished cell (a matrix result, or an audited ``chaos`` report) is
stored as it completes, so after a SIGTERM/SIGINT, OOM kill, or crash,
re-running the same command on the same cache serves every finished
cell and produces output byte-identical to an uninterrupted run.
``fsck`` audits that cache offline and repairs what a crash left.

Exit codes
----------

* ``0`` (:data:`EXIT_OK`) — clean completion (chaos: no invariant
  violations; check: every explored schedule clean, or a replay
  reproduced its artifact exactly);
* ``1`` (:data:`EXIT_VIOLATION`) — the campaign finished but found
  violations / failures (check: a counterexample was found, or a
  replay did not reproduce);
* ``2`` (:data:`EXIT_USAGE`) — bad invocation (unknown configuration,
  argparse errors);
* ``3`` (:data:`EXIT_RESUMABLE`) — gracefully preempted; everything
  finished so far is in the result cache and re-running the same
  command continues it. Under ``--no-cache`` nothing was kept and a
  re-run starts over.
"""

import argparse
import sys

from repro.errors import CampaignInterrupted
from repro.experiments import figures, tables
from repro.experiments import report
from repro.experiments.preemption import EXIT_RESUMABLE, PreemptionGuard
from repro.experiments.runner import DEFAULT_SEED, run_matrix
from repro.workloads.splash2 import SPLASH2_NAMES

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
# EXIT_RESUMABLE (3) is defined in repro.experiments.preemption and
# re-exported here so every exit status reads from one module.

_ARTIFACTS = (
    "table1", "table2", "table3", "figure3", "figure5", "figure6",
    "headline", "all",
)

#: Telemetry commands operating on a single (app, config) cell.
_CELL_COMMANDS = ("run", "trace", "metrics")

#: Robustness commands.
_CHAOS_COMMANDS = ("chaos",)

#: Model-checking commands: bounded schedule exploration and replay.
_CHECK_COMMANDS = ("check",)

#: Result-cache maintenance.
_CACHE_COMMANDS = ("cache",)

#: Offline storage audit/repair.
_FSCK_COMMANDS = ("fsck",)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thrifty-barrier",
        description=(
            "Reproduce tables and figures of 'The Thrifty Barrier' "
            "(HPCA 2004)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=(_ARTIFACTS + _CELL_COMMANDS + _CHAOS_COMMANDS
                 + _CHECK_COMMANDS + _CACHE_COMMANDS + _FSCK_COMMANDS),
        help="which artifact to regenerate, a telemetry command "
             "(run / trace / metrics) on one experiment cell, "
             "'chaos' to run a seeded fault-injection campaign, "
             "'check' to model-check barrier/sleep protocols over "
             "alternative event orderings, 'cache' maintenance, or "
             "'fsck' to audit/repair the result cache",
    )
    parser.add_argument(
        "action", nargs="?", default=None, metavar="ARG",
        help="the cache action (stats / prune / clear)",
    )
    parser.add_argument(
        "--app", default="fmm", metavar="APP",
        help="application for run/trace/metrics (default fmm)",
    )
    parser.add_argument(
        "--config", default="thrifty", metavar="CFG",
        help="configuration for run/trace/metrics (default thrifty)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Perfetto-loadable Chrome trace of the cell "
             "(run/trace/metrics only)",
    )
    parser.add_argument(
        "--metrics-csv", metavar="PATH", default=None,
        help="write the cell's metrics as CSV (run/trace/metrics only)",
    )
    parser.add_argument(
        "--apps", nargs="*", default=None, metavar="APP",
        help="applications to include (default: all ten; {})".format(
            ", ".join(SPLASH2_NAMES)
        ),
    )
    parser.add_argument(
        "--threads", type=int, default=None,
        help="thread/processor count (default 64, as in the paper; "
             "check defaults to 8 — exploration budgets scale with "
             "the choice-point count)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="workload random seed (default {})".format(DEFAULT_SEED),
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the run matrix as JSON (figure5/figure6/"
             "headline/all), or the chaos campaign report with "
             "violation event windows (chaos)",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the run matrix as CSV",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="append ASCII bar charts to figure5/figure6 output",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the run matrix (default 1 = serial; "
             "0 = one per CPU); results are bit-identical either way",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-thrifty)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--plans", type=int, default=5, metavar="N",
        help="number of sampled fault plans for the chaos campaign "
             "(default 5)",
    )
    parser.add_argument(
        "--intensity", type=float, default=1.0,
        help="fault-probability scale for sampled chaos plans "
             "(default 1.0)",
    )
    parser.add_argument(
        "--configs", nargs="*", default=None, metavar="CFG",
        help="configurations for the chaos campaign or check sweep "
             "(default: all five)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="chaos: stop the campaign at the first violating cell "
             "instead of sweeping every planned cell",
    )
    parser.add_argument(
        "--schedules", type=int, default=64, metavar="N",
        help="check: schedule budget per explored cell (default 64)",
    )
    parser.add_argument(
        "--depth", type=int, default=24, metavar="N",
        help="check: deepest choice point the dfs strategy deviates at "
             "(default 24; random walks are unbounded)",
    )
    parser.add_argument(
        "--strategy", choices=("dfs", "random"), default="dfs",
        help="check: exploration strategy — 'dfs' for CHESS-style "
             "bounded systematic search, 'random' for seeded random "
             "walks (default dfs)",
    )
    parser.add_argument(
        "--mutant", metavar="NAME", default=None,
        help="check: explore a deliberately broken barrier variant "
             "from repro.sync.mutants instead of the correct one "
             "(its registered cell supplies the defaults)",
    )
    parser.add_argument(
        "--plan-seed", type=int, default=None, metavar="N",
        help="check: compose a sampled FaultPlan (seeded with N, "
             "scaled by --intensity) with the exploration",
    )
    parser.add_argument(
        "--counterexample", metavar="PATH", default="counterexample.json",
        help="check: where to write the minimized replayable "
             "counterexample when a violation is found "
             "(default counterexample.json; a Perfetto witness trace "
             "is written beside it)",
    )
    parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="check: replay a counterexample artifact and exit 0 iff "
             "the recorded violations reproduce exactly",
    )
    parser.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="entry budget for 'cache prune'",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="fsck: apply the safe repairs (quarantine corrupt cache "
             "entries, sweep stale tmp files) instead of only reporting",
    )
    return parser


def _emit(text):
    print(text)
    print()


def _cache_argument(args):
    """Map the cache flags to run_matrix's ``cache`` argument."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return True


def _interrupt_hint(args):
    """What a preempted campaign kept, and how to continue it."""
    if args.no_cache:
        return ("nothing was kept (--no-cache); re-running the same "
                "command starts over")
    return ("everything completed is in the result cache; re-run the "
            "same command to resume")


def _run_cell_command(args):
    """The run / trace / metrics telemetry commands: one traced cell."""
    from repro.experiments.configs import CONFIG_NAMES
    from repro.experiments.runner import run_experiment
    from repro.telemetry.export import metrics_to_csv, write_chrome_trace

    if args.config not in CONFIG_NAMES:
        print(
            "unknown configuration {!r}; choose from {}".format(
                args.config, ", ".join(CONFIG_NAMES)
            ),
            file=sys.stderr,
        )
        return EXIT_USAGE
    result = run_experiment(
        args.app, args.config, threads=args.threads, seed=args.seed,
        telemetry=True,
    )
    snapshot = result.telemetry
    if args.artifact == "run":
        _emit(report.render_table(
            ("Field", "Value"),
            [
                ("app", result.app),
                ("config", result.config),
                ("threads", result.n_threads),
                ("execution time", "{:,} ns".format(
                    result.execution_time_ns
                )),
                ("energy", "{:.3f} J".format(result.energy_joules)),
                ("barrier imbalance", "{:.4f}".format(
                    result.barrier_imbalance
                )),
                ("events traced", "{:,}".format(len(snapshot.events))),
            ],
            title="Cell summary",
        ))
        _emit(report.render_metrics(
            snapshot.metrics, title="Cell metrics",
            prefixes=("barrier.", "sleep.", "wake.", "predictor."),
        ))
    elif args.artifact == "trace":
        _emit(report.render_trace_summary(snapshot.events))
    else:  # metrics
        _emit(report.render_metrics(snapshot.metrics))
    if args.trace:
        write_chrome_trace(
            snapshot.events, args.trace,
            process_name="{} {}".format(result.app, result.config),
        )
        print("chrome trace written to {} ({:,} events; open in "
              "https://ui.perfetto.dev)".format(
                  args.trace, len(snapshot.events)))
    if args.metrics_csv:
        metrics_to_csv(snapshot.metrics, args.metrics_csv)
        print("metrics CSV written to {}".format(args.metrics_csv))
    return EXIT_OK


def _run_chaos_command(args):
    """The ``chaos`` command: a seeded fault campaign with auditing.

    Cached like the matrix commands (``--cache-dir``/``--no-cache``)
    and preemption-aware: a SIGTERM/SIGINT reports the partial campaign
    instead of discarding it and exits :data:`EXIT_RESUMABLE`.
    """
    import json

    from repro.faults.chaos import (
        chaos_report_as_dict,
        render_chaos_report,
        run_chaos_campaign,
        sample_plans,
    )

    from repro.experiments.configs import CONFIG_NAMES

    apps = tuple(args.apps or ("fmm",))
    configs = tuple(args.configs or CONFIG_NAMES)
    plans = sample_plans(args.plans, seed=args.seed, intensity=args.intensity)
    with PreemptionGuard() as guard:
        campaign = run_chaos_campaign(
            plans, apps=apps, configs=configs,
            threads=args.threads, seed=args.seed,
            cache=_cache_argument(args), preemption=guard,
            fail_fast=args.fail_fast,
        )
    _emit(render_chaos_report(campaign))
    if args.json:
        from repro.faults.storage import atomic_write_text

        atomic_write_text(
            args.json,
            json.dumps(chaos_report_as_dict(campaign), indent=2,
                       sort_keys=True) + "\n",
        )
        print("chaos report written to {}".format(args.json))
    if campaign.interrupted:
        print(_interrupt_hint(args))
        return EXIT_RESUMABLE
    return EXIT_OK if campaign.ok else EXIT_VIOLATION


def _usage(message):
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _run_check_command(args):
    """``repro check``: model-check the protocol over tie-break orders.

    Explores bounded alternative same-timestamp event orderings of
    each requested configuration (default: all five paper configs) and
    audits every schedule with the full oracle set. The first
    violation is shrunk to a minimal decision string and exported as a
    replayable artifact (``--counterexample``) plus a Perfetto witness
    trace; ``--replay FILE`` re-runs an artifact and exits 0 iff the
    recorded violations reproduce exactly. ``--mutant NAME`` swaps in
    a deliberately broken barrier — the detector's self-test.
    Everything is deterministic given ``--seed``.
    """
    from repro.check import (
        explore,
        replay_counterexample,
        run_schedule,
        shrink_decisions,
        witness_path,
        write_counterexample,
    )
    from repro.errors import ConfigError
    from repro.experiments.configs import CONFIG_NAMES

    if args.replay:
        try:
            reproduced, result, expected = replay_counterexample(args.replay)
        except (ConfigError, OSError, ValueError) as exc:
            return _usage("cannot replay {}: {}".format(args.replay, exc))
        print("replay {}: {} recorded violation(s), {} observed".format(
            args.replay, len(expected), len(result.violations)
        ))
        for violation in result.violations:
            print("  " + violation.describe())
        print("REPRODUCED" if reproduced else
              "NOT REPRODUCED (violations differ from the artifact)")
        return EXIT_OK if reproduced else EXIT_VIOLATION

    fault_plan = None
    if args.plan_seed is not None:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.sample(
            args.plan_seed, intensity=args.intensity
        )

    if args.mutant:
        from repro.sync.mutants import mutant_spec

        try:
            spec = mutant_spec(args.mutant)
        except ConfigError as exc:
            return _usage(str(exc))
        app, configs = spec.app, (spec.base_config,)
    else:
        app = args.app
        configs = tuple(args.configs or CONFIG_NAMES)
        unknown = [c for c in configs if c not in CONFIG_NAMES]
        if unknown:
            return _usage(
                "unknown configuration(s) {}; choose from {}".format(
                    ", ".join(map(repr, unknown)), ", ".join(CONFIG_NAMES)
                )
            )

    for config in configs:
        try:
            exploration = explore(
                app, config, threads=args.threads, seed=args.seed,
                max_schedules=args.schedules, max_depth=args.depth,
                strategy=args.strategy, fault_plan=fault_plan,
                mutant=args.mutant,
            )
        except ConfigError as exc:
            return _usage(str(exc))
        print("check {}/{}/{}t seed {} [{}]: {} schedule(s), "
              "{} unique{}{}".format(
                  app, config, args.threads, args.seed, args.strategy,
                  exploration.schedules_run, exploration.unique_schedules,
                  " (budget exhausted)" if exploration.exhausted_budget
                  else "",
                  " — clean" if exploration.ok else "",
              ))
        if exploration.ok:
            continue

        # A schedule violated an oracle: shrink its decision string to
        # the deviations that matter, re-run the minimal schedule, and
        # export it as a replayable artifact.
        failure = exploration.first_failure
        for violation in failure.violations:
            print("  " + violation.describe())

        def still_fails(candidate):
            return not run_schedule(
                app, config, threads=args.threads, seed=args.seed,
                decisions=candidate, fault_plan=fault_plan,
                mutant=args.mutant,
            ).ok

        minimized, trials = shrink_decisions(
            failure.decisions, still_fails
        )
        minimal = run_schedule(
            app, config, threads=args.threads, seed=args.seed,
            decisions=minimized, fault_plan=fault_plan,
            mutant=args.mutant,
        )
        write_counterexample(
            args.counterexample, minimal, decisions=minimized,
            mutant=args.mutant, fault_plan=fault_plan,
            shrink_trials=trials,
        )
        print("shrunk {} -> {} decision(s) in {} trial(s)".format(
            len(failure.decisions), len(minimized), trials
        ))
        print("counterexample written to {} (witness trace: {})".format(
            args.counterexample, witness_path(args.counterexample)
        ))
        print("replay with: repro check --replay {}".format(
            args.counterexample
        ))
        return EXIT_VIOLATION
    return EXIT_OK


def _run_fsck_command(args):
    """``repro fsck [--cache-dir PATH] [--repair]``: audit the cache.

    Audits the result cache named by ``--cache-dir`` (default: the
    default cache). Exit status: 0 when the cache is clean (or every
    issue was repaired), 1 when damage remains unrepaired.
    """
    from repro.experiments.cache import default_cache_dir
    from repro.experiments.fsck import fsck_cache, render_fsck_report

    if args.no_cache:
        return _usage("repro fsck audits a cache; drop --no-cache")
    if args.action is not None:
        return _usage(
            "repro fsck takes no argument; name the cache with "
            "--cache-dir"
        )
    report = fsck_cache(
        args.cache_dir or default_cache_dir(), repair=args.repair,
    )
    _emit(render_fsck_report(report))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _run_cache_command(args):
    """``repro cache stats | prune | clear``: result-cache upkeep."""
    import json

    from repro.experiments.cache import ResultCache

    if args.no_cache:
        return _usage("repro cache needs a cache; drop --no-cache")
    cache = ResultCache(args.cache_dir)
    action = args.action or "stats"
    if action == "prune":
        if args.max_entries is None or args.max_entries < 0:
            return _usage(
                "repro cache prune needs --max-entries N (the entry "
                "budget to keep)"
            )
        evicted = cache.prune(args.max_entries)
        print("evicted {} entr{}".format(
            evicted, "y" if evicted == 1 else "ies"
        ), file=sys.stderr)
    elif action == "clear":
        removed = cache.clear()
        print("removed {} entr{}".format(
            removed, "y" if removed == 1 else "ies"
        ), file=sys.stderr)
    elif action != "stats":
        return _usage(
            "unknown cache action {!r}; choose from stats, prune, "
            "clear".format(action)
        )
    stats = dict(cache.stats())
    stats["entries"] = len(cache)
    stats["size_bytes"] = cache.size_bytes()
    stats["cache_dir"] = str(cache.cache_dir)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is None:
        # check explores interleavings — budgets scale with the number
        # of choice points, so its default cell is small.
        args.threads = 8 if args.artifact in _CHECK_COMMANDS else 64
    # A seeded storage fault plan in $REPRO_STORAGE_FAULTS applies to
    # any command — this is how CI runs a *subprocess* campaign under
    # injected ENOSPC/torn-write faults.
    from repro.faults.storage import install_from_env

    install_from_env()
    if args.artifact in _FSCK_COMMANDS:
        return _run_fsck_command(args)
    if args.artifact in _CACHE_COMMANDS:
        return _run_cache_command(args)
    if args.artifact in _CELL_COMMANDS:
        return _run_cell_command(args)
    if args.artifact in _CHAOS_COMMANDS:
        return _run_chaos_command(args)
    if args.artifact in _CHECK_COMMANDS:
        return _run_check_command(args)
    from repro.telemetry.metrics import MetricsRegistry

    needs_matrix = args.artifact in ("figure5", "figure6", "headline", "all")
    matrix = None
    engine_metrics = MetricsRegistry()
    if needs_matrix:
        try:
            with PreemptionGuard() as guard:
                matrix = run_matrix(
                    apps=tuple(args.apps or SPLASH2_NAMES),
                    threads=args.threads, seed=args.seed,
                    workers=args.workers or None,
                    cache=_cache_argument(args),
                    metrics=engine_metrics,
                    preemption=guard,
                )
        except CampaignInterrupted as exc:
            print(
                "preempted ({} of {} cells finished); {}".format(
                    exc.completed, exc.total, _interrupt_hint(args),
                ),
                file=sys.stderr,
            )
            if len(engine_metrics):
                _emit(report.render_metrics(
                    engine_metrics,
                    title="Run summary — engine & cache counters",
                    prefixes=("engine.", "cache.", "storage."),
                ))
            return EXIT_RESUMABLE
    if args.artifact in ("table1", "all"):
        rows, validation = tables.table1_rows()
        _emit(report.render_table1(rows, validation))
    if args.artifact in ("table2", "all"):
        rows = tables.table2_rows(
            threads=args.threads, seed=args.seed, apps=args.apps
        )
        _emit(report.render_table2(rows))
    if args.artifact in ("table3", "all"):
        rows, tdp = tables.table3_rows()
        _emit(report.render_table3(rows, tdp))
    if args.artifact in ("figure3", "all"):
        rows = figures.figure3_rows(threads=args.threads, seed=args.seed)
        _emit(report.render_figure3(rows))
    if args.artifact in ("figure5", "all"):
        rows = figures.figure5_rows(matrix)
        _emit(report.render_figure5(rows))
        if args.chart:
            _emit(report.render_bar_chart(rows))
    if args.artifact in ("figure6", "all"):
        rows = figures.figure6_rows(matrix)
        _emit(report.render_figure6(rows))
        if args.chart:
            _emit(report.render_bar_chart(rows, value_key="wall"))
    if args.artifact in ("headline", "all"):
        _emit(report.render_headline(matrix))
    if matrix is not None and (args.json or args.csv):
        from repro.experiments.export import (
            matrix_to_json,
            matrix_to_records,
            records_to_csv,
        )

        if args.json:
            matrix_to_json(matrix, path=args.json)
        if args.csv:
            records_to_csv(matrix_to_records(matrix), args.csv)
    if matrix is not None and len(engine_metrics):
        _emit(report.render_metrics(
            engine_metrics, title="Run summary — engine & cache counters",
            prefixes=("engine.", "cache.", "storage."),
        ))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
