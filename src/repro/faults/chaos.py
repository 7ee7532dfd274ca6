"""Seeded chaos campaigns across the paper's five configurations.

A campaign is a matrix of (application, configuration, fault plan)
cells. Each live simulation runs with the plan installed, its full
telemetry stream is audited once with the
:class:`~repro.faults.invariants.InvariantChecker`, and every cell it
serves reports what chaos cost: injected-fault counts, late wake-ups,
and the energy and execution-time deltas against the same cell run
clean. ``baseline`` and the derived oracle configurations share one
Baseline simulation per (application, plan), and one clean Baseline
per application, as the experiment engine shares them. The thrifty
configurations run with graceful degradation enabled
(:data:`DEGRADED_THRIFTY`) so disabled predictors fall back to
spin-then-sleep and re-enable after probation.

Everything is seeded: the same ``(plans, apps, configs, threads,
seed)`` produce byte-identical reports, which is what lets the chaos
CI smoke job diff against a clean baseline. It is also what lets a
campaign persist through the result cache alone: each audited report
is stored under a content key (:func:`chaos_key`), so re-running a
killed campaign serves every finished cell instead of re-simulating it.
"""

from dataclasses import dataclass, field

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache, content_key
from repro.experiments.configs import CONFIG_NAMES, DERIVED_CONFIGS
from repro.experiments.parallel import ExperimentCell, ExperimentEngine
from repro.experiments.runner import (
    DEFAULT_SEED,
    _derived_result,
    _live_result,
    _run_live,
)
from repro.faults.injector import FAULT_KINDS
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.telemetry.tracer import Tracer

#: Liveness deadline for campaign cells: a departure more than 10 ms of
#: simulated time after its release is a violation. Generous against
#: the worst recoverable injection (a dropped invalidation redelivered
#: at ≤200 µs plus a Sleep3 wake) yet far below any real hang.
DEFAULT_DEADLINE_NS = 10_000_000

#: Thrifty-policy overrides active during chaos: a cut-off (thread, PC)
#: falls back to spin-then-sleep and is re-enabled after eight
#: consecutive safe episodes. Clean (delta-reference) runs use the same
#: overrides so deltas isolate the injected faults.
DEGRADED_THRIFTY = {
    "probation_episodes": 8,
    "fallback_spin_then_sleep": True,
}

#: Apps exercised when the caller does not choose (small but distinct
#: imbalance profiles).
DEFAULT_APPS = ("fmm",)

#: Placeholder for a report neither shared in memory nor cached.
_MISSING = object()


def sample_plans(count, seed=0, intensity=1.0):
    """``count`` deterministic plans fanned out from one campaign seed."""
    if count < 1:
        raise ConfigError("a campaign needs at least one plan")
    return [
        FaultPlan.sample(seed + 7919 * index, intensity=intensity)
        for index in range(count)
    ]


def _overrides_for(config):
    return dict(DEGRADED_THRIFTY) if config in (
        "thrifty", "thrifty-halt"
    ) else {}


@dataclass
class ChaosCellReport:
    """One (app, config, plan) chaos run, audited."""

    app: str
    config: str
    plan: FaultPlan
    threads: int
    violations: tuple
    injected: dict
    late_wakes: int
    releases: int
    execution_time_ns: int
    energy_joules: float
    #: Deltas vs. the clean run of the same cell (None without one).
    energy_delta: object = None
    time_delta_ns: object = None

    @property
    def ok(self):
        return not self.violations

    @property
    def total_injected(self):
        return sum(self.injected.values())


@dataclass
class ChaosCampaignReport:
    """A full campaign: every cell plus roll-up properties.

    ``interrupted`` marks a campaign stopped by preemption before every
    planned cell ran — :attr:`cells` then holds the partial results
    (never discarded) and ``planned`` what a full run would contain.
    ``resumed_cells`` counts cells served from the result cache instead
    of re-simulated. ``stopped_early`` marks a ``fail_fast`` campaign
    that stopped at its first violating cell.
    """

    cells: list = field(default_factory=list)
    deadline_ns: int = DEFAULT_DEADLINE_NS
    planned: int = 0
    interrupted: bool = False
    resumed_cells: int = 0
    stopped_early: bool = False

    @property
    def violations(self):
        return tuple(
            violation for cell in self.cells for violation in cell.violations
        )

    @property
    def ok(self):
        return not self.violations

    @property
    def total_injected(self):
        return sum(cell.total_injected for cell in self.cells)

    @property
    def total_late_wakes(self):
        return sum(cell.late_wakes for cell in self.cells)


def _simulation_of(config):
    """The live configuration whose simulation yields ``config``."""
    return "baseline" if config in DERIVED_CONFIGS else config


def _family_of(config, configs):
    """The members of ``configs`` served by ``config``'s simulation."""
    live = _simulation_of(config)
    return tuple(dict.fromkeys(
        member for member in configs if _simulation_of(member) == live
    ))


def _run_chaos_family(
    app, configs, plan, threads=16, seed=DEFAULT_SEED,
    machine_config=None, deadline_ns=DEFAULT_DEADLINE_NS, cleans=None,
):
    """Run and audit the chaos cells ``configs`` of one (app, plan).

    Returns :class:`ChaosCellReport` objects aligned with ``configs``.
    Each live simulation runs and is audited once: ``baseline`` and the
    derived oracles replay one perturbed Baseline run, so they share
    its violations and fault counts. ``cleans`` is an optional sequence
    (aligned with ``configs``) of unperturbed
    :class:`~repro.experiments.runner.ExperimentResult` references for
    the energy/time deltas.
    """
    for config in configs:
        if config not in CONFIG_NAMES:
            raise ConfigError(
                "unknown configuration {!r}; choose from {}".format(
                    config, ", ".join(CONFIG_NAMES)
                )
            )
    audited = {}
    reports = []
    for config, clean in zip(configs, cleans or (None,) * len(configs)):
        live = _simulation_of(config)
        if live not in audited:
            tracer = Tracer()
            run = _run_live(
                app, live, threads, seed, machine_config,
                _overrides_for(live), telemetry=tracer, fault_plan=plan,
            )
            violations = InvariantChecker(deadline_ns=deadline_ns).audit(
                tracer.events, accounts=run.accounts, tracer=tracer,
            )
            counters = tracer.metrics.snapshot().get("counters", {})
            audited[live] = (run, tuple(violations), counters)
        run, violations, counters = audited[live]
        if config in DERIVED_CONFIGS:
            result = _derived_result(app, config, run)
        else:
            result = _live_result(app, config, run)
        report = ChaosCellReport(
            app=app,
            config=config,
            plan=plan,
            threads=threads,
            violations=violations,
            injected={
                kind: counters["fault.kind[{}]".format(kind)]
                for kind in FAULT_KINDS
                if "fault.kind[{}]".format(kind) in counters
            },
            late_wakes=counters.get("wake.late", 0),
            releases=counters.get("barrier.releases", 0),
            execution_time_ns=result.execution_time_ns,
            energy_joules=result.energy_joules,
        )
        if clean is not None:
            report.energy_delta = result.energy_joules - clean.energy_joules
            report.time_delta_ns = (
                result.execution_time_ns - clean.execution_time_ns
            )
        reports.append(report)
    return reports


def run_chaos_cell(
    app, config, plan, threads=16, seed=DEFAULT_SEED,
    machine_config=None, deadline_ns=DEFAULT_DEADLINE_NS, clean=None,
):
    """Run and audit one chaos cell; returns a :class:`ChaosCellReport`.

    The one-config case of :func:`_run_chaos_family`; ``clean`` is its
    optional unperturbed reference result.
    """
    return _run_chaos_family(
        app, (config,), plan, threads=threads, seed=seed,
        machine_config=machine_config, deadline_ns=deadline_ns,
        cleans=(clean,),
    )[0]


def chaos_key(
    app, config, plan, threads=16, seed=DEFAULT_SEED, machine_config=None,
    deadline_ns=DEFAULT_DEADLINE_NS,
):
    """Result-cache key of one audited :class:`ChaosCellReport`.

    The ordinary cell key of ``(app, config, threads, seed, machine)``
    with chaos's degradation overrides, extended by the fault plan and
    the liveness deadline, so a chaos report and an experiment result
    never share an entry, and changing any input changes the key.
    """
    return content_key(
        app, config, threads, seed, machine_config or MachineConfig(),
        _overrides_for(config),
        chaos={"plan": plan, "deadline_ns": deadline_ns},
    )


def run_chaos_campaign(
    plans, apps=DEFAULT_APPS, configs=CONFIG_NAMES, threads=16,
    seed=DEFAULT_SEED, machine_config=None,
    deadline_ns=DEFAULT_DEADLINE_NS, cache=None, preemption=None,
    fail_fast=False,
):
    """Sweep plans × apps × configs; returns a
    :class:`ChaosCampaignReport` in app → config → plan order. Each
    (app, plan) simulation serves every cell of its family (see
    :func:`_run_chaos_family`), and each clean reference run serves its
    family for every plan.

    Crash safety: with a ``cache`` (anything
    :meth:`~repro.experiments.cache.ResultCache.coerce` accepts), every
    audited report is stored under its :func:`chaos_key` as soon as its
    family finishes, and the clean references under their ordinary
    experiment-cell keys, so re-running an interrupted campaign serves
    them instead of re-simulating; results are byte-identical either
    way (the cells are seeded). With ``preemption`` (anything exposing
    ``requested``), a SIGTERM/SIGINT between cells — or a raw
    ``KeyboardInterrupt`` mid-cell — ends the campaign gracefully: the
    partial report is *returned*, never discarded, flagged
    ``interrupted`` so the CLI can exit with the resumable status.

    ``fail_fast`` stops the sweep at the first violating cell (cached
    or freshly run) and flags the report ``stopped_early`` — the
    violating cell is the last in :attr:`~ChaosCampaignReport.cells`.
    """
    configs = tuple(configs)
    unknown = [c for c in configs if c not in CONFIG_NAMES]
    if unknown:
        raise ConfigError(
            "unknown configuration(s) {}; choose from {}".format(
                ", ".join(map(repr, unknown)), ", ".join(CONFIG_NAMES)
            )
        )
    apps = tuple(apps)
    cache = ResultCache.coerce(cache)
    report = ChaosCampaignReport(
        deadline_ns=deadline_ns,
        planned=len(apps) * len(configs) * len(plans),
    )
    cleans = {}
    shared = {}

    def key_of(app, config, plan):
        return chaos_key(
            app, config, plan, threads=threads, seed=seed,
            machine_config=machine_config, deadline_ns=deadline_ns,
        )

    def clean_for(app, members):
        # Unperturbed references with the same degradation overrides,
        # through the engine: it reads and feeds the cache, and one
        # Baseline run serves ``baseline`` and the oracles.
        missing = [m for m in members if (app, m) not in cleans]
        if missing:
            results = ExperimentEngine(cache=cache, strict=True).run_cells(
                ExperimentCell.make(
                    app, member, threads=threads, seed=seed,
                    machine_config=machine_config, **_overrides_for(member)
                )
                for member in missing
            )
            cleans.update(
                ((app, member), clean)
                for member, clean in zip(missing, results)
            )
        return [cleans[(app, member)] for member in members]

    def run_family_of(app, config, plan_index, plan):
        # Every report of the family is cached as soon as it exists, so
        # an interrupt after this cell re-simulates none of them.
        members = _family_of(config, configs)
        reports = _run_chaos_family(
            app, members, plan, threads=threads, seed=seed,
            machine_config=machine_config, deadline_ns=deadline_ns,
            cleans=clean_for(app, members),
        )
        for member, cell in zip(members, reports):
            shared[(app, member, plan_index)] = cell
            if cache is not None:
                cache.put(key_of(app, member, plan), cell)

    try:
        for app in apps:
            for config in configs:
                for plan_index, plan in enumerate(plans):
                    if preemption is not None and preemption.requested:
                        report.interrupted = True
                        return report
                    cell = shared.pop((app, config, plan_index), _MISSING)
                    if cell is _MISSING and cache is not None:
                        cell = cache.get(key_of(app, config, plan), _MISSING)
                        report.resumed_cells += cell is not _MISSING
                    if cell is _MISSING:
                        run_family_of(app, config, plan_index, plan)
                        cell = shared.pop((app, config, plan_index))
                    report.cells.append(cell)
                    if fail_fast and cell.violations:
                        report.stopped_early = True
                        return report
    except KeyboardInterrupt:
        # A raw Ctrl-C mid-simulation (no guard installed, or the
        # operator pressed it twice): still report what finished.
        report.interrupted = True
    return report


def chaos_report_as_dict(report):
    """JSON-friendly form of a campaign report (``repro chaos --json``).

    Every violation is embedded via
    :meth:`~repro.faults.invariants.InvariantViolation.as_dict`, so the
    report carries the offending event window — first/last stream index
    plus timestamps — pointing straight into the cell's trace export.
    """
    return {
        "kind": "chaos-campaign",
        "deadline_ns": report.deadline_ns,
        "planned": report.planned,
        "interrupted": report.interrupted,
        "stopped_early": report.stopped_early,
        "resumed_cells": report.resumed_cells,
        "ok": report.ok,
        "total_injected": report.total_injected,
        "total_late_wakes": report.total_late_wakes,
        "cells": [
            {
                "app": cell.app,
                "config": cell.config,
                "plan": cell.plan.as_dict(),
                "threads": cell.threads,
                "injected": dict(cell.injected),
                "late_wakes": cell.late_wakes,
                "releases": cell.releases,
                "execution_time_ns": cell.execution_time_ns,
                "energy_joules": cell.energy_joules,
                "energy_delta": cell.energy_delta,
                "time_delta_ns": cell.time_delta_ns,
                "violations": [
                    violation.as_dict() for violation in cell.violations
                ],
            }
            for cell in report.cells
        ],
    }


def render_chaos_report(report):
    """Human-readable campaign summary (the ``repro chaos`` output)."""
    from repro.experiments.report import render_table

    rows = []
    for cell in report.cells:
        energy_delta = (
            "{:+.2%}".format(
                cell.energy_delta
                / (cell.energy_joules - cell.energy_delta)
            )
            if cell.energy_delta is not None
            and cell.energy_joules != cell.energy_delta
            else "-"
        )
        time_delta = (
            "{:+,} ns".format(cell.time_delta_ns)
            if cell.time_delta_ns is not None else "-"
        )
        rows.append((
            cell.app,
            cell.config,
            cell.plan.name,
            cell.total_injected,
            cell.releases,
            cell.late_wakes,
            len(cell.violations),
            energy_delta,
            time_delta,
        ))
    lines = [render_table(
        (
            "App", "Config", "Plan", "Faults", "Releases", "Late",
            "Violations", "dE", "dT",
        ),
        rows,
        title="Chaos campaign ({} cells, deadline {:,} ns)".format(
            len(report.cells), report.deadline_ns
        ),
    )]
    for violation in report.violations:
        lines.append("VIOLATION " + violation.describe())
    if report.resumed_cells:
        lines.append(
            "{} cell(s) served from the result cache (not re-run)".format(
                report.resumed_cells
            )
        )
    if report.stopped_early:
        lines.append(
            "STOPPED EARLY (--fail-fast): {} of {} planned cell(s) ran "
            "before the first violation".format(
                len(report.cells), report.planned
            )
        )
    if report.interrupted:
        lines.append(
            "INTERRUPTED (resumable): {} of {} planned cell(s) finished "
            "before preemption; partial results above".format(
                len(report.cells), report.planned
            )
        )
    lines.append(
        "{}: {} fault(s) injected, {} late wake-up(s), "
        "{} invariant violation(s)".format(
            "OK" if report.ok else "FAILED",
            report.total_injected,
            report.total_late_wakes,
            len(report.violations),
        )
    )
    return "\n".join(lines)
