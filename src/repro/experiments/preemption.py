"""Graceful preemption: turn SIGTERM/SIGINT into a resumable stop.

Production schedulers preempt with SIGTERM and humans with Ctrl-C;
either way a campaign should stop *cleanly*: no new dispatch, in-flight
workers drained (or killed once the drain deadline passes), every
finished cell in the result cache, and a distinct "resumable" exit
status so the caller knows re-running the same command picks up
exactly where it stopped.

:class:`PreemptionGuard` is the cooperative half: installed as a
context manager, the **first** signal merely sets :attr:`requested` —
the campaign notices at its next check point (between cells serially,
between poll rounds in parallel) and shuts down gracefully. A
**second** signal means "now": the original handlers are restored and
:class:`KeyboardInterrupt` is raised immediately.

Anything with a truthy/falsy ``requested`` attribute satisfies the
engine's preemption protocol, so tests drive deterministic interrupts
with a plain stub instead of real signals.
"""

import signal
from dataclasses import dataclass, field

#: Process exit status for a gracefully preempted, resumable campaign
#: (0 = clean, 1 = violation/failure, 2 = usage error).
EXIT_RESUMABLE = 3

#: Seconds the engine keeps draining in-flight workers after a
#: preemption request before killing the survivors.
DEFAULT_DRAIN_DEADLINE_S = 5.0


@dataclass
class PreemptionGuard:
    """Latches the first SIGTERM/SIGINT; escalates on the second.

    ``signals`` accumulates the names of delivered signals (the first
    is the interruption reason). Use as::

        with PreemptionGuard() as guard:
            engine = ExperimentEngine(..., preemption=guard)
            ...

    Without :meth:`install` (or outside the ``with`` block) the guard
    is a plain flag object — handlers are only ever swapped while
    installed, and always restored.
    """

    drain_deadline_s: float = DEFAULT_DRAIN_DEADLINE_S
    requested: bool = False
    signals: list = field(default_factory=list)
    _previous: dict = field(default_factory=dict, repr=False)

    def _handle(self, signum, frame):
        name = signal.Signals(signum).name
        self.signals.append(name)
        if self.requested:
            # Second signal: the operator means it. Put the default
            # disposition back and die the classic way.
            self.uninstall()
            raise KeyboardInterrupt(name)
        self.requested = True

    @property
    def reason(self):
        """What asked us to stop ('SIGTERM', 'SIGINT', or 'request')."""
        return self.signals[0] if self.signals else "request"

    def install(self, signums=(signal.SIGTERM, signal.SIGINT)):
        """Install latching handlers; no-op for already-held signals."""
        for signum in signums:
            if signum in self._previous:
                continue
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                # Not the main thread (or an unsupported signal):
                # cooperative checks still work, signals just won't
                # reach us. Degrade silently.
                pass
        return self

    def uninstall(self):
        """Restore every handler this guard displaced."""
        while self._previous:
            signum, previous = self._previous.popitem()
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False
