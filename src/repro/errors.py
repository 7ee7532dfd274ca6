"""Exception hierarchy for the thrifty-barrier reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type when embedding the simulator.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class SchedulingError(SimulationError):
    """An event was scheduled, cancelled, or triggered incorrectly."""


class ProcessError(SimulationError):
    """A simulation process yielded something that is not awaitable."""


class ProtocolError(SimulationError):
    """The cache-coherence protocol reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload model is malformed or produced an invalid trace."""


class ExperimentError(ReproError):
    """An experiment cell failed (raised, timed out, or its worker died).

    Raised by the parallel engine in strict mode; carries the structured
    failure records in :attr:`failures`.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class CampaignInterrupted(ReproError):
    """A campaign was preempted (SIGTERM/SIGINT) and stopped gracefully.

    With a result cache the run is *resumable*: everything finished
    before the signal is in the cache, and re-running the same command
    serves those cells as hits and runs only the rest. ``results``
    carries whatever partial output the campaign had produced (``None``
    slots for cells that never completed).
    """

    def __init__(self, message, completed=0, total=0, results=None):
        super().__init__(message)
        self.completed = completed
        self.total = total
        self.results = results
