"""Run (application x configuration) experiment cells.

:func:`run_experiment` runs one cell. :func:`run_family` runs one
Baseline simulation and derives any of ``baseline``, ``oracle-halt``
and ``ideal`` from it, so those three cost one live run together.
:func:`run_matrix` sweeps applications through the
:class:`~repro.experiments.parallel.ExperimentEngine`, which shares the
Baseline that way, so all five configurations of an app cost three live
runs; :func:`run_app` is its one-app case. That is everything Figures 5
and 6 need.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.config import MachineConfig
from repro.energy.accounting import EnergyAccount
from repro.errors import ConfigError
from repro.experiments.configs import (
    CONFIG_NAMES,
    DERIVED_CONFIGS,
    LIVE_CONFIGS,
    ORACLE_STATES,
    barrier_factory_for,
)
from repro.machine import System
from repro.sync import ThriftyBarrier, oracle_rerun
from repro.telemetry.tracer import (
    TelemetrySnapshot,
    Tracer,
    collect_run_metrics,
)
from repro.workloads import WorkloadRunner, get_model

DEFAULT_SEED = 1


@dataclass
class ExperimentResult:
    """One (application, configuration) measurement.

    ``telemetry`` is populated only when the cell was run with tracing
    requested: the full typed event stream and the metrics snapshot of
    the simulation that produced this result (for the derived oracle
    configurations, of the Baseline simulation they replay).
    """

    app: str
    config: str
    n_threads: int
    execution_time_ns: int
    total: EnergyAccount
    barrier_imbalance: float
    thrifty_stats: dict = field(default_factory=dict)
    oracle_meta: Optional[dict] = None
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def energy_joules(self):
        return self.total.energy_joules()

    def energy_breakdown(self):
        return self.total.energy_breakdown()

    def time_breakdown(self):
        return self.total.time_breakdown()

    def identical(self, other):
        """Field-for-field equality, including energy/time breakdowns,
        thrifty stats, and oracle metadata (the determinism contract
        between serial, parallel, and cached execution)."""
        return (
            isinstance(other, ExperimentResult)
            and self.app == other.app
            and self.config == other.config
            and self.n_threads == other.n_threads
            and self.execution_time_ns == other.execution_time_ns
            and self.barrier_imbalance == other.barrier_imbalance
            and self.energy_breakdown() == other.energy_breakdown()
            and self.time_breakdown() == other.time_breakdown()
            and self.thrifty_stats == other.thrifty_stats
            and self.oracle_meta == other.oracle_meta
            and self.telemetry == other.telemetry
        )


def _summarize_thrifty(barriers):
    totals = {}
    for barrier in barriers.values():
        if not isinstance(barrier, ThriftyBarrier):
            continue
        stats = barrier.stats
        for key in (
            "sleeps", "spin_fallbacks", "cold_spins", "disabled_spins",
            "aborted_sleeps", "timer_wakes", "invalidation_wakes",
            "cutoff_disables", "filtered_updates",
        ):
            totals[key] = totals.get(key, 0) + getattr(stats, key)
        # Degradation/fault counters appear only when they fired, so a
        # clean run's stats dict stays bit-identical to the pre-fault
        # era (the same data-dependent idiom as ``sleeps[state]``).
        for key in (
            "spurious_wakes", "fallback_sleeps", "probation_reenables",
        ):
            value = getattr(stats, key)
            if value:
                totals[key] = totals.get(key, 0) + value
        for state, count in stats.sleeps_by_state.items():
            key = "sleeps[{}]".format(state)
            totals[key] = totals.get(key, 0) + count
    return totals


def _live_result(app, config_name, run):
    return ExperimentResult(
        app=app,
        config=config_name,
        n_threads=run.n_threads,
        execution_time_ns=run.execution_time_ns,
        total=run.total,
        barrier_imbalance=run.barrier_imbalance(),
        thrifty_stats=_summarize_thrifty(run.barriers),
    )


def _derived_result(app, config_name, baseline_run):
    states = ORACLE_STATES[config_name]
    replay = oracle_rerun(
        baseline_run.trace,
        baseline_run.accounts,
        baseline_run.power,
        states,
    )
    total = EnergyAccount()
    for account in replay.accounts:
        total.merge(account)
    return ExperimentResult(
        app=app,
        config=config_name,
        n_threads=baseline_run.n_threads,
        execution_time_ns=baseline_run.execution_time_ns,
        total=total,
        barrier_imbalance=baseline_run.barrier_imbalance(),
        oracle_meta={
            "sleeps_by_state": dict(replay.sleeps_by_state),
            "spin_stalls": replay.spin_stalls,
            "slept_stalls": replay.slept_stalls,
        },
    )


def _run_live(
    app, config_name, threads, seed, machine_config, overrides,
    telemetry=None, fault_plan=None,
):
    model = get_model(app)
    system = System(machine_config or MachineConfig(), telemetry=telemetry)
    perturb = None
    if fault_plan is not None and not fault_plan.is_noop:
        from repro.faults.injector import install_fault_plan

        injector = install_fault_plan(system, fault_plan, telemetry=telemetry)
        perturb = injector.perturb_hook()
    runner = WorkloadRunner(
        model,
        system=system,
        n_threads=threads,
        seed=seed,
        barrier_factory=barrier_factory_for(config_name, **overrides),
        perturb=perturb,
    )
    run = runner.run()
    if telemetry is not None and telemetry.enabled:
        collect_run_metrics(telemetry, system, run)
    return run


def _coerce_tracer(telemetry):
    """Normalize ``run_experiment``'s ``telemetry`` argument.

    ``False``/``None`` → no tracing; ``True`` → a fresh enabled
    :class:`~repro.telemetry.tracer.Tracer`; an existing tracer is used
    as-is.
    """
    if not telemetry:
        return None
    if telemetry is True:
        return Tracer()
    return telemetry


def run_family(
    app, configs, threads=64, seed=DEFAULT_SEED, machine_config=None,
    telemetry=False, fault_plan=None,
):
    """Results for ``configs`` from one shared Baseline simulation.

    ``configs`` may name ``baseline`` and the derived oracles
    (``oracle-halt``, ``ideal``), repeats allowed; the list returned is
    aligned with it. The derived results are exact replays of the
    Baseline run, so each equals what :func:`run_experiment` returns
    for its cell alone. With ``telemetry`` truthy every result carries
    the snapshot of the one traced Baseline simulation.
    """
    configs = tuple(configs)
    for config in configs:
        if config != "baseline" and config not in DERIVED_CONFIGS:
            raise ConfigError(
                "{!r} is not derived from the Baseline run".format(config)
            )
    tracer = _coerce_tracer(telemetry)
    baseline_run = _run_live(
        app, "baseline", threads, seed, machine_config, {},
        telemetry=tracer, fault_plan=fault_plan,
    )
    snapshot = tracer.snapshot() if tracer is not None else None
    results = []
    for config in configs:
        if config == "baseline":
            result = _live_result(app, config, baseline_run)
        else:
            result = _derived_result(app, config, baseline_run)
        result.telemetry = snapshot
        results.append(result)
    return results


def run_experiment(
    app, config, threads=64, seed=DEFAULT_SEED,
    machine_config=None, telemetry=False, fault_plan=None,
    **thrifty_overrides,
):
    """Run one cell; derived configurations run their Baseline first.

    With ``telemetry`` truthy (``True`` or a
    :class:`~repro.telemetry.tracer.Tracer`), the simulation is traced
    and the result carries a
    :class:`~repro.telemetry.tracer.TelemetrySnapshot`; for derived
    (oracle) configurations this is the snapshot of the Baseline
    simulation they replay. ``fault_plan`` optionally installs a
    :class:`~repro.faults.plan.FaultPlan` into the live simulation
    (derived configurations replay their perturbed Baseline); ``None``
    or a no-op plan leaves the machine untouched. The Baseline ignores
    the thrifty overrides. Returns an :class:`ExperimentResult`.
    """
    if config == "baseline" or config in DERIVED_CONFIGS:
        return run_family(
            app, (config,), threads=threads, seed=seed,
            machine_config=machine_config, telemetry=telemetry,
            fault_plan=fault_plan,
        )[0]
    if config not in LIVE_CONFIGS:
        raise ConfigError(
            "unknown configuration {!r}; choose from {}".format(
                config, ", ".join(CONFIG_NAMES)
            )
        )
    tracer = _coerce_tracer(telemetry)
    run = _run_live(
        app, config, threads, seed, machine_config, thrifty_overrides,
        telemetry=tracer, fault_plan=fault_plan,
    )
    result = _live_result(app, config, run)
    if tracer is not None:
        result.telemetry = tracer.snapshot()
    return result


def run_app(
    app, threads=64, seed=DEFAULT_SEED, machine_config=None, configs=None,
):
    """All requested configurations for one application:
    ``{config: ExperimentResult}``.

    A one-app :func:`run_matrix`, so a full five-way comparison costs
    three live runs. A failing cell raises
    :class:`~repro.errors.ExperimentError`.
    """
    return run_matrix(
        (app,), threads=threads, seed=seed,
        machine_config=machine_config, configs=configs,
    )[app]


def run_matrix(
    apps=None, threads=64, seed=DEFAULT_SEED,
    machine_config=None, configs=None,
    workers=1, cache=None, timeout=None, retries=1, strict=True,
    metrics=None, preemption=None, watchdog=None,
):
    """The full evaluation sweep: {app: {config: ExperimentResult}}.

    Every setting routes through the
    :class:`~repro.experiments.parallel.ExperimentEngine`: ``workers=1``
    runs in-process, more fan cells out over processes, and ``cache``
    skips cells already on disk. Either way each app's Baseline
    simulation is run once and feeds ``baseline``, ``oracle-halt`` and
    ``ideal``, and results are field-identical for the same seed.

    ``cache`` is ``None`` (off), ``True`` (default directory), a path,
    or a :class:`~repro.experiments.cache.ResultCache`. With
    ``strict=False`` a failing cell is returned in-place as a
    :class:`~repro.experiments.parallel.CellFailure` instead of
    raising.

    ``metrics`` is an optional
    :class:`~repro.telemetry.metrics.MetricsRegistry`; when given, the
    engine and result-cache counters (submitted / executed / cache
    hits, misses, errors) are recorded into it, which is how the CLI
    surfaces them in its run summary.

    Crash safety rides the cache plus two optional arguments forwarded
    to the engine: ``preemption`` (a
    :class:`~repro.experiments.preemption.PreemptionGuard`-like object
    turning SIGTERM/SIGINT into a graceful
    :class:`~repro.errors.CampaignInterrupted`) and ``watchdog`` (a
    hung-worker heartbeat policy). Every finished cell is cached as it
    completes, so re-running an interrupted call resumes it.
    """
    from repro.experiments.parallel import (
        ExperimentEngine,
        record_engine_metrics,
    )
    from repro.workloads.splash2 import SPLASH2_NAMES

    engine = ExperimentEngine(
        workers=workers, cache=cache, timeout=timeout,
        retries=retries, strict=strict,
        preemption=preemption, watchdog=watchdog,
    )
    try:
        return engine.run_matrix(
            tuple(apps or SPLASH2_NAMES), configs=configs,
            threads=threads, seed=seed, machine_config=machine_config,
        )
    finally:
        # Recorded even on CampaignInterrupted: a preempted run's
        # partial counters are exactly what the operator needs to see.
        if metrics is not None:
            record_engine_metrics(metrics, engine)
