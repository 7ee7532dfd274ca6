"""Barrier instrumentation.

The trace is *meta*-level: it records what happened (arrivals, release
times, stalls, sleep outcomes) for the metrics layer and for the oracle
post-hoc accounting. The simulated algorithm never reads it.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.telemetry.events import SleepRecord

__all__ = ["BarrierTrace", "InstanceRecord"]


@dataclass
class InstanceRecord:
    """One dynamic barrier instance."""

    pc: str
    sequence: int
    arrivals: Dict[int, int] = field(default_factory=dict)
    departures: Dict[int, int] = field(default_factory=dict)
    sleeps: Dict[int, SleepRecord] = field(default_factory=dict)
    release_ts: Optional[int] = None
    measured_bit: Optional[int] = None
    last_thread: Optional[int] = None

    def stall_ns(self, thread_id):
        """Arrival-to-release stall of one thread (None before release)."""
        if self.release_ts is None or thread_id not in self.arrivals:
            return None
        return max(0, self.release_ts - self.arrivals[thread_id])

    def stalls(self):
        """Stall per arrived thread, in ns."""
        return {
            thread: self.stall_ns(thread)
            for thread in self.arrivals
        }

    @property
    def imbalance_window_ns(self):
        """Spread between first and last arrival."""
        if not self.arrivals:
            return 0
        return max(self.arrivals.values()) - min(self.arrivals.values())


class BarrierTrace:
    """Accumulates instance records across all barriers of a domain."""

    def __init__(self):
        self.instances = []
        self._open = {}
        self._sequence = 0

    def open_instance(self, pc):
        """Record for the next dynamic instance of barrier ``pc``."""
        record = InstanceRecord(pc=pc, sequence=self._sequence)
        self._sequence += 1
        self._open[pc] = record
        self.instances.append(record)
        return record

    def current(self, pc):
        return self._open.get(pc)

    def close_instance(self, pc):
        self._open.pop(pc, None)

    def by_pc(self, pc):
        """All instances of one static barrier, in dynamic order."""
        return [record for record in self.instances if record.pc == pc]

    def total_stall_ns(self):
        """Sum of every thread's stall over every released instance."""
        total = 0
        for record in self.instances:
            if record.release_ts is None:
                continue
            for stall in record.stalls().values():
                total += stall
        return total

    def released_instances(self):
        return [r for r in self.instances if r.release_ts is not None]
