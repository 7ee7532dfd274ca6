"""Synchronization constructs.

* :mod:`repro.sync.lock` — a queued test-and-set spinlock (the ``lock(c)``
  of the paper's Figure 2);
* :mod:`repro.sync.barrier` — the conventional sense-reversal barrier
  (Figure 2) and the shared machinery (check-in, flag spin, tracing);
* :mod:`repro.sync.thrifty` — the thrifty barrier (Section 3): BIT
  prediction, conditional multi-state sleep, hybrid wake-up, thresholds;
* :mod:`repro.sync.spin_then_sleep` — the conventional spin-then-halt
  wait policy the paper cites as bounded by Oracle-Halt;
* :mod:`repro.sync.oracle` — exact post-hoc accounting for the
  Oracle-Halt and Ideal configurations;
* :mod:`repro.sync.thrifty_lock` — the future-work extension: a
  thrifty (sleep-while-contended) lock;
* :mod:`repro.sync.trace` — per-instance instrumentation feeding the
  metrics and the oracle accounting.
"""

from repro.sync.barrier import BarrierBase, ConventionalBarrier
from repro.sync.lock import SpinLock
from repro.sync.oracle import oracle_rerun
from repro.sync.spin_then_sleep import SpinThenSleepBarrier
from repro.sync.thrifty import ThriftyBarrier
from repro.sync.thrifty_lock import ThriftyLock
from repro.sync.trace import BarrierTrace, InstanceRecord
from repro.sync.yielding import YieldingBarrier
from repro.telemetry.events import SleepRecord

__all__ = [
    "BarrierBase",
    "BarrierTrace",
    "ConventionalBarrier",
    "InstanceRecord",
    "SleepRecord",
    "SpinLock",
    "SpinThenSleepBarrier",
    "ThriftyBarrier",
    "ThriftyLock",
    "YieldingBarrier",
    "oracle_rerun",
]
