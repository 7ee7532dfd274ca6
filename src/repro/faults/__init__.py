"""Deterministic fault injection and invariant checking.

Four layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the seeded declarative
  recipe of timing faults;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan against one simulator through the narrow seams in the
  coherence controller and CPU sleep path (no-ops when absent);
* :mod:`repro.faults.invariants` — :class:`InvariantChecker`, the
  post-run watchdog holding any run (faulted or not) to barrier
  safety/liveness, monotonic time, and energy conservation;
* :mod:`repro.faults.storage` — :class:`StorageFaultInjector`, the
  same idea aimed at the repo's own durability layer: seeded ENOSPC /
  EIO / torn-write / crash-at-fsync injection behind the I/O shim the
  result cache and the exports write through.

:mod:`repro.faults.chaos` (imported lazily — it pulls in the
experiment harness) sweeps sampled plans across the paper's five
configurations; the CLI surfaces it as ``repro chaos``.
"""

from repro.faults.injector import FAULT_KINDS, FaultInjector, install_fault_plan
from repro.faults.storage import (
    STORAGE_FAULT_KINDS,
    SimulatedCrash,
    StorageFaultInjector,
    StorageFaultPlan,
    install_storage_faults,
    storage_faults,
    uninstall_storage_faults,
)
from repro.faults.invariants import (
    BARRIER_LIVENESS,
    BARRIER_SAFETY,
    ENERGY_CONSERVATION,
    INVARIANTS,
    MONOTONIC_TIME,
    InvariantChecker,
    InvariantError,
    InvariantViolation,
)
from repro.faults.plan import FaultPlan

__all__ = [
    "BARRIER_LIVENESS",
    "BARRIER_SAFETY",
    "ENERGY_CONSERVATION",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "INVARIANTS",
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "MONOTONIC_TIME",
    "STORAGE_FAULT_KINDS",
    "SimulatedCrash",
    "StorageFaultInjector",
    "StorageFaultPlan",
    "install_fault_plan",
    "install_storage_faults",
    "storage_faults",
    "uninstall_storage_faults",
]
