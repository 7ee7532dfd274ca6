"""Typed telemetry event records.

Each event is a frozen dataclass carrying the simulated timestamp
(``ts``, in ns) at which it was emitted, plus a class-level ``kind``
string used by the exporters. Events know how to fold themselves into a
:class:`~repro.telemetry.metrics.MetricsRegistry` (:meth:`record`), so
the tracer derives every metric from the same stream the timeline
export consumes — there is one source of truth.

The module is also the home of :class:`SleepRecord`, promoted here from
``repro.sync.trace`` (which keeps a backward-compatible alias): it is
the per-(thread, barrier-instance) sleep summary the oracle accounting
and the metrics layer consume.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.telemetry.metrics import (
    ERROR_NS_BOUNDS,
    LATENESS_NS_BOUNDS,
    STALL_NS_BOUNDS,
)


@dataclass
class SleepRecord:
    """One thread's sleep at one barrier instance.

    Promoted from ``repro.sync.trace`` into the telemetry event model;
    ``repro.sync.trace.SleepRecord`` remains as a thin alias.
    """

    state_name: str
    resident_ns: int
    flushed_lines: int
    woke_by: str  # "timer" | "invalidation" | "aborted"
    penalty_ns: int = 0


@dataclass(frozen=True)
class BarrierCheckIn:
    """A thread arrived at a barrier (S1 of Figure 2)."""

    kind: ClassVar[str] = "barrier.check_in"

    ts: int
    thread: int
    pc: str
    sequence: int
    is_last: bool

    def record(self, metrics):
        metrics.counter("barrier.check_ins").inc()
        if self.is_last:
            metrics.counter("barrier.last_arrivals").inc()


@dataclass(frozen=True)
class BarrierRelease:
    """The last thread flipped the flag, releasing one instance."""

    kind: ClassVar[str] = "barrier.release"

    ts: int
    thread: int
    pc: str
    sequence: int
    bit_ns: Optional[int]

    def record(self, metrics):
        metrics.counter("barrier.releases").inc()
        if self.bit_ns is not None:
            metrics.histogram(
                "barrier.bit_ns", bounds=STALL_NS_BOUNDS
            ).observe(self.bit_ns)


@dataclass(frozen=True)
class BarrierDepart:
    """A thread left the barrier; closes its per-thread wait span."""

    kind: ClassVar[str] = "barrier.depart"

    ts: int
    thread: int
    pc: str
    sequence: int
    arrived_ts: int
    stall_ns: int

    def record(self, metrics):
        metrics.counter("barrier.departs").inc()
        metrics.histogram(
            "barrier.stall_ns", bounds=STALL_NS_BOUNDS
        ).observe(self.stall_ns)


@dataclass(frozen=True)
class SleepEnter:
    """The CPU began the sleep sequence (flush, ramp, residency)."""

    kind: ClassVar[str] = "sleep.enter"

    ts: int
    thread: int
    state: str
    flush_lines: int

    def record(self, metrics):
        metrics.counter("sleep.entries").inc()
        metrics.counter("sleep.entries[{}]".format(self.state)).inc()


@dataclass(frozen=True)
class SleepExit:
    """The CPU finished the sleep sequence and is running again."""

    kind: ClassVar[str] = "sleep.exit"

    ts: int
    thread: int
    state: str
    entered_ts: int
    resident_ns: int
    flush_ns: int
    flushed_lines: int

    def record(self, metrics):
        metrics.counter("sleep.residency_ns").inc(self.resident_ns)
        metrics.counter(
            "sleep.residency_ns[{}]".format(self.state)
        ).inc(self.resident_ns)
        if self.flushed_lines:
            metrics.counter("sleep.flushed_lines").inc(self.flushed_lines)


@dataclass(frozen=True)
class WakeUp:
    """A sleeping thread woke; ``source`` is the winning wake signal.

    ``source`` is ``"timer"`` (internal countdown) or ``"invalidation"``
    (external coherence wake-up) — the hybrid wake-up mix of
    Section 3.3.2.
    """

    kind: ClassVar[str] = "sleep.wake"

    ts: int
    thread: int
    pc: str
    source: str
    state: str

    def record(self, metrics):
        metrics.counter("wake.total").inc()
        metrics.counter("wake.source[{}]".format(self.source)).inc()


@dataclass(frozen=True)
class LateWake:
    """A slept thread's wake-up completed after the actual release.

    ``penalty_ns`` is the lateness charged against execution time
    (Section 3.3.3); zero means the wake was on time or early.
    """

    kind: ClassVar[str] = "sleep.late_wake"

    ts: int
    thread: int
    pc: str
    penalty_ns: int

    def record(self, metrics):
        metrics.histogram(
            "wake.lateness_ns", bounds=LATENESS_NS_BOUNDS
        ).observe(self.penalty_ns)
        if self.penalty_ns > 0:
            metrics.counter("wake.late").inc()


@dataclass(frozen=True)
class PredictorHit:
    """A warm prediction was served to an early arriver."""

    kind: ClassVar[str] = "predictor.hit"

    ts: int
    thread: int
    pc: str
    predicted_ns: int
    est_stall_ns: int

    def record(self, metrics):
        metrics.counter("predictor.hits").inc()


@dataclass(frozen=True)
class PredictorTrain:
    """The last arriver trained the predictor with a measured BIT."""

    kind: ClassVar[str] = "predictor.train"

    ts: int
    thread: int
    pc: str
    bit_ns: int
    predicted_ns: Optional[int]

    def record(self, metrics):
        metrics.counter("predictor.updates").inc()
        if self.predicted_ns is not None:
            metrics.histogram(
                "predictor.error_ns", bounds=ERROR_NS_BOUNDS
            ).observe(abs(self.bit_ns - self.predicted_ns))


@dataclass(frozen=True)
class PredictorFiltered:
    """An update was discarded by the underprediction filter (3.4.2)."""

    kind: ClassVar[str] = "predictor.filtered"

    ts: int
    thread: int
    pc: str
    bit_ns: int

    def record(self, metrics):
        metrics.counter("predictor.filtered_updates").inc()


@dataclass(frozen=True)
class PredictorDisable:
    """The overprediction cut-off disabled prediction for a thread."""

    kind: ClassVar[str] = "predictor.disable"

    ts: int
    thread: int
    pc: str

    def record(self, metrics):
        metrics.counter("predictor.disables").inc()


@dataclass(frozen=True)
class PredictorReenable:
    """Probation ended: a disabled (thread, PC) predictor was restored
    after enough consecutive safe episodes (graceful degradation)."""

    kind: ClassVar[str] = "predictor.reenable"

    ts: int
    thread: int
    pc: str

    def record(self, metrics):
        metrics.counter("predictor.reenables").inc()


@dataclass(frozen=True)
class FaultInjected:
    """The fault-injection layer perturbed the machine.

    ``fault`` is the seam kind (``timer_drift``, ``timer_loss``,
    ``invalidation_delay``, ``invalidation_drop``,
    ``transition_jitter``, ``spurious_wake``, ``stall``), ``target``
    the affected node/thread, ``magnitude_ns`` the injected skew (may
    be negative for early timer drift).
    """

    kind: ClassVar[str] = "fault.injected"

    ts: int
    fault: str
    target: int
    magnitude_ns: int

    def record(self, metrics):
        metrics.counter("fault.injected").inc()
        metrics.counter("fault.kind[{}]".format(self.fault)).inc()


@dataclass(frozen=True)
class InvariantCheck:
    """One invariant audit over a finished run's event stream.

    Emitted by :class:`~repro.faults.invariants.InvariantChecker.audit`
    (one event per invariant name), so a chaos run's verdicts ride in
    the same stream its behaviour does.
    """

    kind: ClassVar[str] = "invariant.check"

    ts: int
    invariant: str
    passed: bool
    violations: int

    def record(self, metrics):
        metrics.counter("invariant.checks").inc()
        if self.passed:
            metrics.counter("invariant.passed").inc()
        else:
            metrics.counter(
                "invariant.violations[{}]".format(self.invariant)
            ).inc(self.violations)


@dataclass(frozen=True)
class WorkerStalled:
    """The watchdog declared a worker dead: its heartbeats went stale
    for ``stale_s`` seconds and it was killed, its ``cells`` unfinished
    cells requeued through the retry machinery.

    An engine-level (wall-clock) event, not a simulated one: ``ts`` is
    always 0 and ordering is by stream position.
    """

    kind: ClassVar[str] = "engine.worker_stalled"

    ts: int
    worker: int
    cells: int
    stale_s: float

    def record(self, metrics):
        metrics.counter("engine.worker_stalls").inc()


@dataclass(frozen=True)
class StorageFault:
    """A durable-storage operation failed and was degraded, not raised.

    ``op`` names the failing seam (``cache-store``), ``path`` the cache
    key involved, ``error`` the exception text. A wall-clock
    (engine-level) event like :class:`WorkerStalled`:
    ``ts`` is 0 and ordering is stream position. A climbing
    ``storage.faults`` counter is an operator's first sign a disk is
    full or failing.
    """

    kind: ClassVar[str] = "storage.fault"

    ts: int
    op: str
    path: str
    error: str

    def record(self, metrics):
        metrics.counter("storage.faults").inc()
        metrics.counter("storage.fault[{}]".format(self.op)).inc()


#: Every event type, in a stable order (used by exporters and tests).
EVENT_TYPES = (
    BarrierCheckIn,
    BarrierRelease,
    BarrierDepart,
    SleepEnter,
    SleepExit,
    WakeUp,
    LateWake,
    PredictorHit,
    PredictorTrain,
    PredictorFiltered,
    PredictorDisable,
    PredictorReenable,
    FaultInjected,
    InvariantCheck,
    WorkerStalled,
    StorageFault,
)
