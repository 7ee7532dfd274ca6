"""The evaluation harness: every table and figure of the paper.

* :mod:`repro.experiments.configs` — the five configurations of
  Section 5.1 (Baseline, Thrifty-Halt, Oracle-Halt, Thrifty, Ideal);
* :mod:`repro.experiments.runner` — runs (application x configuration)
  cells; oracle configurations are derived exactly from the Baseline
  run (see :mod:`repro.sync.oracle`);
* :mod:`repro.experiments.metrics` — normalization and the headline
  aggregates of Section 5.1;
* :mod:`repro.experiments.tables` — Tables 1, 2, 3;
* :mod:`repro.experiments.figures` — Figures 3, 5, 6;
* :mod:`repro.experiments.report` — plain-text rendering;
* :mod:`repro.experiments.parallel` — the process-pool engine fanning
  cells over workers with deterministic ordering and fault isolation;
* :mod:`repro.experiments.cache` — the content-addressed on-disk
  result cache that makes warm re-runs free and resumes a killed
  campaign: re-running the same command serves every finished cell;
* :mod:`repro.experiments.watchdog` — the hung-worker heartbeat
  watchdog (kill and requeue on stale beats);
* :mod:`repro.experiments.preemption` — SIGTERM/SIGINT handling that
  turns preemption into a graceful, resumable stop.
"""

from repro.experiments.cache import ResultCache, content_key
from repro.experiments.configs import (
    CONFIG_NAMES,
    CONFIG_SHORT,
    DERIVED_CONFIGS,
    LIVE_CONFIGS,
)
from repro.experiments.parallel import (
    CellFailure,
    ExperimentCell,
    ExperimentEngine,
)
from repro.experiments.preemption import EXIT_RESUMABLE, PreemptionGuard
from repro.experiments.runner import (
    ExperimentResult,
    run_experiment,
    run_matrix,
)
from repro.experiments.watchdog import HeartbeatMonitor, WatchdogPolicy

__all__ = [
    "CONFIG_NAMES",
    "CONFIG_SHORT",
    "CellFailure",
    "DERIVED_CONFIGS",
    "EXIT_RESUMABLE",
    "ExperimentCell",
    "ExperimentEngine",
    "ExperimentResult",
    "HeartbeatMonitor",
    "LIVE_CONFIGS",
    "PreemptionGuard",
    "ResultCache",
    "WatchdogPolicy",
    "content_key",
    "run_experiment",
    "run_matrix",
]
