"""Process-pool experiment engine with deterministic results.

A cell is one (application, configuration) pair. The unit of work is
a *Baseline family*: the cache-missing ``baseline``, ``oracle-halt`` and
``ideal`` cells that one Baseline simulation can serve run as one
:func:`repro.experiments.runner.run_family` call, and every other cell
runs alone through :func:`run_cell`. A cold ``repro all`` thus makes
three live simulations per app, not five. Each cell still computes the
exact :class:`~repro.experiments.runner.ExperimentResult` that
:func:`~repro.experiments.runner.run_experiment` gives it, in-process
or in a worker, and keeps its own result slot, cache entry and
:class:`CellFailure`. The engine adds, around that unit:

* fan-out over ``multiprocessing`` fork workers with chunked dispatch
  (a family is never split) and result ordering that matches
  submission order regardless of completion order;
* an on-disk :class:`~repro.experiments.cache.ResultCache` so warm
  re-runs perform zero re-simulations. It is also the only persistence
  path: a killed campaign resumes by re-running the same command,
  which serves every finished cell as a hit;
* robustness: a per-cell timeout with bounded retry, worker-crash
  isolation (a dead worker costs only its unfinished cells, which are
  retried and then recorded as structured :class:`CellFailure` records
  while the rest of the matrix completes), and a strict mode that
  raises :class:`~repro.errors.ExperimentError` instead;
* crash safety: every finished cell is stored in the cache as it
  completes, a heartbeat :mod:`~repro.experiments.watchdog` kills and
  requeues workers whose beats go stale, and a cooperative
  ``preemption`` guard turns SIGTERM/SIGINT into a graceful, resumable
  stop (:class:`~repro.errors.CampaignInterrupted`);
* graceful degradation to a plain serial loop when ``workers=1``, when
  there is at most one cell to run, or when the platform cannot fork.

Determinism contract: the simulator is bit-exact, so for any worker
count the engine returns field-identical results in identical order
(``tests/test_parallel.py`` enforces this).
"""

import multiprocessing
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.config import MachineConfig
from repro.errors import CampaignInterrupted, ConfigError, ExperimentError
from repro.experiments.cache import ResultCache, content_key
from repro.experiments.configs import DERIVED_CONFIGS
from repro.experiments.preemption import DEFAULT_DRAIN_DEADLINE_S
from repro.experiments.runner import DEFAULT_SEED, run_experiment, run_family
from repro.experiments.watchdog import (
    BEAT,
    BEAT_INDEX,
    HeartbeatMonitor,
    WatchdogPolicy,
    start_beat_thread,
)

#: Placeholder for a cell whose result has not been produced yet.
_PENDING = object()

#: Worker→supervisor message status tags, alongside the watchdog's
#: heartbeat messages on the same result queue.
OK = "ok"
ERR = "error"

#: How long (seconds) to keep draining a finished/terminated worker's
#: queue for results that were in flight when it stopped.
_DRAIN_BUDGET_S = 0.25

_POLL_S = 0.01


@dataclass(frozen=True)
class ExperimentCell:
    """One (application, configuration) unit of work.

    ``overrides`` is a sorted tuple of ``(name, value)`` pairs (the
    thrifty-policy keyword overrides of ``run_experiment``) so the cell
    is hashable and canonically ordered. ``telemetry`` asks the cell to
    trace its simulation; it participates in the content key because a
    traced result carries the event stream a plain result does not.
    """

    app: str
    config: str
    threads: int = 64
    seed: int = DEFAULT_SEED
    machine_config: Optional[MachineConfig] = None
    overrides: tuple = ()
    telemetry: bool = False

    @classmethod
    def make(cls, app, config, threads=64, seed=DEFAULT_SEED,
             machine_config=None, telemetry=False, **overrides):
        return cls(
            app=app, config=config, threads=threads, seed=seed,
            machine_config=machine_config,
            overrides=tuple(sorted(overrides.items())),
            telemetry=telemetry,
        )

    def key(self):
        """Content hash identifying this cell's result on disk."""
        return content_key(
            self.app, self.config, self.threads, self.seed,
            self.machine_config or MachineConfig(),
            dict(self.overrides),
            telemetry=self.telemetry,
        )


@dataclass
class CellFailure:
    """Structured record of a cell that could not produce a result.

    ``kind`` is ``"error"`` (the cell raised), ``"timeout"`` (exceeded
    the per-cell budget), ``"crashed"`` (its worker died), or
    ``"stalled"`` (the watchdog declared its worker hung).
    """

    cell: Any
    kind: str
    error_type: str = ""
    message: str = ""
    attempts: int = 1

    def describe(self):
        label = getattr(self.cell, "app", None)
        if label is not None:
            label = "{}/{}".format(self.cell.app, self.cell.config)
        else:
            label = repr(self.cell)
        detail = self.error_type or self.kind
        if self.message:
            detail += ": " + self.message
        return "{} [{}, attempt {}] {}".format(
            label, self.kind, self.attempts, detail
        )


@dataclass
class EngineStats:
    """Counters for one engine lifetime (across ``run_*`` calls)."""

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    retries: int = 0
    stalled: int = 0

    def as_dict(self):
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failures": self.failures,
            "retries": self.retries,
            "stalled": self.stalled,
        }


class RetryBackoff:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``delay_for(attempt)`` (attempt numbering starts at 1 for the first
    *retry*) returns ``min(cap, base * 2**(attempt-1))`` scaled by a
    jitter factor drawn uniformly from [0.5, 1.0) — decorrelating the
    retry times of cells that failed together (e.g. all chunks of one
    dead worker) without sacrificing reproducibility: the jitter RNG is
    seeded from ``seed`` alone, so a fixed seed yields the same retry
    schedule on every run.
    """

    def __init__(self, base_s=0.05, cap_s=2.0, seed=0):
        if base_s < 0 or cap_s < 0:
            raise ConfigError("backoff delays must be non-negative")
        if cap_s < base_s:
            raise ConfigError("backoff cap must be >= base")
        self.base_s = base_s
        self.cap_s = cap_s
        self.seed = seed
        # String seeding hashes via SHA-512 — stable across processes
        # and runs, unlike hash() of arbitrary objects.
        self._rng = random.Random("retry-backoff:{}".format(seed))

    def delay_for(self, attempt):
        """Delay in seconds before retry number ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ConfigError("attempt numbering starts at 1")
        raw = min(self.cap_s, self.base_s * (2 ** (attempt - 1)))
        return raw * (0.5 + 0.5 * self._rng.random())


def run_cell(cell):
    """Default task: one ``run_experiment`` call (the bit-exact unit)."""
    return run_experiment(
        cell.app, cell.config, threads=cell.threads, seed=cell.seed,
        machine_config=cell.machine_config, telemetry=cell.telemetry,
        **dict(cell.overrides)
    )


def _units(cells, pending, share_baseline):
    """Dispatch units over the pending indices, by first member.

    A unit is a tuple of ``(index, cell)`` pairs that one task call
    serves. With ``share_baseline`` the pending cells one Baseline
    simulation can serve (same app, threads, seed, machine and
    telemetry flag) form one unit: derived cells replay the Baseline
    and ignore their overrides, and a ``baseline`` cell joins only
    without overrides, so its simulation is exactly the shared one.
    Every other cell is a unit of its own.
    """
    units = []
    families = {}
    for index in pending:
        cell = cells[index]
        if share_baseline and (
            cell.config in DERIVED_CONFIGS
            or (cell.config == "baseline" and not cell.overrides)
        ):
            key = (
                cell.app, cell.threads, cell.seed,
                cell.machine_config or MachineConfig(), cell.telemetry,
            )
            if key in families:
                families[key].append((index, cell))
                continue
            families[key] = [(index, cell)]
            units.append(families[key])
        else:
            units.append([(index, cell)])
    return [tuple(unit) for unit in units]


def _run_unit(unit, task, catch=Exception):
    """Run one dispatch unit: ``[(index, status, payload)]`` per cell.

    A lone cell runs ``task``; a Baseline family runs one
    :func:`~repro.experiments.runner.run_family` call. When the call
    raises, every cell of the unit gets the error.
    """
    try:
        if len(unit) == 1:
            values = [task(unit[0][1])]
        else:
            head = unit[0][1]
            values = run_family(
                head.app, [cell.config for _, cell in unit],
                threads=head.threads, seed=head.seed,
                machine_config=head.machine_config,
                telemetry=head.telemetry,
            )
    except catch as exc:
        error = (type(exc).__name__, str(exc))
        return [(index, ERR, error) for index, _ in unit]
    return [(index, OK, value) for (index, _), value in zip(unit, values)]


def record_engine_metrics(metrics, engine):
    """Fold an engine's (and its cache's) counters into a registry.

    This is the bridge the CLI run summary uses: ``engine.*`` counters
    mirror :class:`EngineStats` and ``cache.*`` counters mirror
    :meth:`~repro.experiments.cache.ResultCache.stats`, whose
    ``write_errors`` make a sick disk show up in every run summary
    instead of only in warnings.
    """
    for name, value in engine.stats.as_dict().items():
        metrics.counter("engine.{}".format(name)).inc(value)
    if engine.cache is not None:
        for name, value in engine.cache.stats().items():
            metrics.counter("cache.{}".format(name)).inc(value)


def _chunk_worker(chunk, out_queue, task_fn, beat_interval_s=None):
    """Worker body: run a chunk of units, posting each result as its
    unit completes so a later crash/timeout only loses unfinished cells.

    ``out_queue`` is a SimpleQueue: ``put`` writes synchronously (no
    feeder thread), so once a cell's put returns, its result survives
    even an immediate SIGKILL of this worker. With ``beat_interval_s``
    set, a daemon thread posts heartbeat messages onto the same queue
    so the supervisor's watchdog can tell a wedged worker from a slow
    one.
    """
    stop_beats = None
    if beat_interval_s is not None:
        stop_beats = start_beat_thread(out_queue, beat_interval_s)
    try:
        for unit in chunk:
            for message in _run_unit(unit, task_fn, catch=BaseException):
                out_queue.put(message)
    finally:
        if stop_beats is not None:
            stop_beats.set()


def _fork_context():
    """The fork multiprocessing context, or None when unsupported.

    Fork is required (not just preferred): it inherits the parent's
    loaded modules and lets tests/task functions pass closures without
    pickling. Platforms without it degrade to the serial path.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except Exception:
        pass
    return None


@dataclass
class _WorkerState:
    process: Any
    out_queue: Any
    units: list  # the dispatched chunk
    remaining: dict  # index -> cell, in dispatch order
    deadline: float

    def remaining_units(self):
        """The chunk's units cut down to their unfinished cells."""
        units = (
            tuple(pair for pair in unit if pair[0] in self.remaining)
            for unit in self.units
        )
        return [unit for unit in units if unit]


class ExperimentEngine:
    """Fan experiment cells out over worker processes, cached.

    Parameters
    ----------
    workers:
        Process count. ``None`` means ``os.cpu_count()``; ``1`` (the
        default) selects the serial in-process path.
    cache:
        ``None`` (no caching), ``True`` (default directory), a path, or
        a :class:`ResultCache`.
    timeout:
        Per-cell wall-clock budget in seconds (parallel path only — a
        serial in-process cell cannot be preempted). ``None`` disables.
    retries:
        Extra attempts granted to a cell whose worker timed out or
        crashed. Cells that *raise* are deterministic and never retried.
    strict:
        When True, ``run_cells``/``run_matrix`` raise
        :class:`~repro.errors.ExperimentError` if any cell ends in
        failure; when False, failures are returned in-place as
        :class:`CellFailure` records and the rest of the matrix
        completes.
    chunksize:
        Units (a lone cell or a Baseline family) dispatched to a
        worker at a time. ``None`` auto-sizes to about four chunks per
        worker.
    backoff_base_s / backoff_cap_s / backoff_seed:
        Retried cells wait ``min(cap, base * 2**(retry-1))`` seconds
        (with deterministic seeded jitter, see :class:`RetryBackoff`)
        before redispatch, so a transiently-overloaded host is not
        hammered with immediate retries. ``backoff_base_s=0`` restores
        the old immediate-requeue behaviour.
    watchdog:
        ``None`` (off), ``True`` (default policy), a beat interval in
        seconds, or a :class:`~repro.experiments.watchdog.
        WatchdogPolicy`. Parallel path only: workers emit heartbeats
        and a worker whose beats go stale is killed, the cell it was on
        requeued through the retry/backoff machinery (kind
        ``"stalled"`` once it strikes out).
    preemption:
        Any object with a boolean ``requested`` attribute — typically
        a :class:`~repro.experiments.preemption.PreemptionGuard`. Once
        truthy, the engine stops dispatching, drains in-flight workers
        until the guard's ``drain_deadline_s`` passes (then kills
        them), and raises :class:`~repro.errors.CampaignInterrupted`.
        Every cell finished by then is already in the cache.
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer` receiving the
        engine-level events (``WorkerStalled``, ``StorageFault``).
    """

    def __init__(self, workers=1, cache=None, timeout=None, retries=1,
                 strict=False, chunksize=None, backoff_base_s=0.05,
                 backoff_cap_s=2.0, backoff_seed=0, watchdog=None,
                 preemption=None, tracer=None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigError("workers must be >= 1, got {}".format(workers))
        if timeout is not None and timeout <= 0:
            raise ConfigError("timeout must be positive or None")
        if retries < 0:
            raise ConfigError("retries must be non-negative")
        if chunksize is not None and chunksize < 1:
            raise ConfigError("chunksize must be >= 1")
        self.workers = workers
        self.cache = ResultCache.coerce(cache)
        self.timeout = timeout
        self.retries = retries
        self.strict = strict
        self.chunksize = chunksize
        RetryBackoff(backoff_base_s, backoff_cap_s, backoff_seed)  # validate
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_seed = backoff_seed
        self.watchdog = WatchdogPolicy.coerce(watchdog)
        self.preemption = preemption
        self.tracer = tracer
        self.stats = EngineStats()
        #: Backoff delays applied to retries, in the order they were
        #: scheduled (accumulates across runs, like ``stats``).
        self.retry_delays = []

    # ------------------------------------------------------------------
    # public API

    def run_cells(self, cells, task_fn=None):
        """Run cells, returning results in submission order.

        Each slot of the returned list is the task's result or a
        :class:`CellFailure`. With the default task (``task_fn=None``)
        the cache is consulted first and fed on success, and the
        cache misses of one Baseline family share one simulation; a
        custom ``task_fn`` runs once per cell and bypasses the cache
        (its inputs are not content-addressed).
        """
        cells = list(cells)
        self.stats.submitted += len(cells)
        results = [_PENDING] * len(cells)
        use_cache = self.cache is not None and task_fn is None
        pending = []
        for index, cell in enumerate(cells):
            if use_cache:
                hit = self.cache.get(cell.key(), _PENDING)
                if hit is not _PENDING:
                    results[index] = hit
                    self.stats.cache_hits += 1
                    continue
            pending.append(index)
        units = _units(cells, pending, share_baseline=task_fn is None)
        task = task_fn or run_cell
        if units:
            context = _fork_context()
            if self.workers > 1 and len(units) > 1 and context is not None:
                self._run_parallel(
                    context, cells, units, results, task, use_cache
                )
            else:
                self._run_serial(cells, units, results, task, use_cache)
        if self.strict:
            failures = [r for r in results if isinstance(r, CellFailure)]
            if failures:
                raise ExperimentError(
                    "{} of {} cells failed: {}".format(
                        len(failures), len(cells),
                        "; ".join(f.describe() for f in failures[:5]),
                    ),
                    failures=failures,
                )
        return results

    def run_matrix(self, apps, configs=None, threads=64, seed=DEFAULT_SEED,
                   machine_config=None):
        """The full sweep as ``{app: {config: result-or-failure}}``."""
        from repro.experiments.configs import CONFIG_NAMES

        configs = tuple(configs or CONFIG_NAMES)
        unknown = [c for c in configs if c not in CONFIG_NAMES]
        if unknown:
            raise ConfigError(
                "unknown configuration(s) {}; choose from {}".format(
                    ", ".join(map(repr, unknown)), ", ".join(CONFIG_NAMES)
                )
            )
        apps = tuple(apps)
        cells = [
            ExperimentCell.make(
                app, config, threads=threads, seed=seed,
                machine_config=machine_config,
            )
            for app in apps
            for config in configs
        ]
        flat = self.run_cells(cells)
        matrix = {}
        position = 0
        for app in apps:
            row = {}
            for config in configs:
                row[config] = flat[position]
                position += 1
            matrix[app] = row
        return matrix

    # ------------------------------------------------------------------
    # crash-safety plumbing shared by both paths

    def _preempted(self):
        return self.preemption is not None and bool(
            getattr(self.preemption, "requested", False)
        )

    def _drain_deadline_s(self):
        return getattr(
            self.preemption, "drain_deadline_s", DEFAULT_DRAIN_DEADLINE_S
        )

    def _raise_interrupted(self, results):
        """Raise the resumable interrupt with the partial results."""
        done = sum(1 for r in results if r is not _PENDING)
        reason = getattr(self.preemption, "reason", "request")
        raise CampaignInterrupted(
            "campaign preempted ({}) after {} of {} cells; "
            "resumable".format(reason, done, len(results)),
            completed=done, total=len(results),
            results=tuple(
                None if r is _PENDING else r for r in results
            ),
        )

    def _cache_store(self, key, value):
        """Feed the cache, surfacing a degraded (lost) store as a
        ``storage.fault`` telemetry event — the cache itself only
        counts and warns."""
        if self.cache.put(key, value):
            return
        if self.tracer is not None and self.tracer.enabled:
            from repro.telemetry.events import StorageFault

            self.tracer.emit(StorageFault(
                ts=0, op="cache-store", path=key,
                error=self.cache.last_write_error or "",
            ))

    def _record(self, cells, index, status, payload, results, use_cache,
                attempts=1):
        """File one cell's outcome: result slot, cache, stats."""
        cell = cells[index]
        if status == OK:
            results[index] = payload
            self.stats.executed += 1
            if use_cache:
                self._cache_store(cell.key(), payload)
            return
        error_type, message = payload
        results[index] = CellFailure(
            cell=cell, kind="error", error_type=error_type,
            message=message, attempts=attempts,
        )
        self.stats.failures += 1

    # ------------------------------------------------------------------
    # serial path

    def _run_serial(self, cells, units, results, task, use_cache):
        # A unit runs when its first cell comes up. Its other cells'
        # outcomes wait for their own turns, so preemption checks and
        # cache stores still go one cell at a time in submission order,
        # and no simulation outlives its unit.
        unit_of = {index: unit for unit in units for index, _ in unit}
        ready = {}
        for index in sorted(unit_of):
            if self._preempted():
                self._raise_interrupted(results)
            if index not in ready:
                for done, status, payload in _run_unit(unit_of[index], task):
                    ready[done] = (status, payload)
            status, payload = ready.pop(index)
            self._record(cells, index, status, payload, results, use_cache)

    # ------------------------------------------------------------------
    # parallel path

    def _chunks(self, units):
        """Initial work queue: ``(eligible_at, chunk)`` pairs.

        A chunk is a list of units. ``eligible_at`` is a
        ``time.monotonic()`` instant before which the chunk must not be
        dispatched; fresh work is eligible immediately (0.0) and only
        backoff-delayed retries carry a future instant.
        """
        size = self.chunksize
        if size is None:
            size = max(1, -(-len(units) // (self.workers * 4)))
        return deque(
            (0.0, units[start:start + size])
            for start in range(0, len(units), size)
        )

    def _run_parallel(self, context, cells, units, results, task,
                      use_cache):
        work = self._chunks(units)
        attempts = {index: 1 for unit in units for index, _ in unit}
        active = []
        timeout = self.timeout if self.timeout is not None else float("inf")
        watchdog = self.watchdog
        monitor = HeartbeatMonitor(watchdog) if watchdog is not None else None
        # Fresh backoff per parallel run so the retry schedule depends
        # only on the seed and the retry sequence, not engine history.
        backoff = RetryBackoff(
            self.backoff_base_s, self.backoff_cap_s, self.backoff_seed
        )

        def record(index, status, payload):
            if results[index] is not _PENDING:
                return  # late duplicate from a terminated worker
            self._record(
                cells, index, status, payload, results, use_cache,
                attempts[index],
            )

        def consume(state, message):
            index, status, payload = message
            state.remaining.pop(index, None)
            state.deadline = time.monotonic() + timeout
            record(index, status, payload)

        def poll(state):
            # Heartbeats ride the result queue; they feed the monitor
            # and are never surfaced as messages.
            try:
                while not state.out_queue.empty():
                    message = state.out_queue.get()
                    if message[0] == BEAT_INDEX and message[1] == BEAT:
                        if monitor is not None:
                            monitor.beat(state.process.pid)
                        continue
                    return message
            except (EOFError, OSError):
                pass
            return None

        def drain(state, budget):
            stop_at = time.monotonic() + budget
            while True:
                message = poll(state)
                if message is not None:
                    consume(state, message)
                elif time.monotonic() >= stop_at:
                    return
                else:
                    time.sleep(_POLL_S)

        def retire(members, kind, message=""):
            # The unfinished cells of one unit share an attempt count.
            # With attempts left they go back as one unit after one
            # backoff delay; otherwise each fails for good.
            attempt = attempts[members[0][0]]
            retry = attempt <= self.retries
            if retry:
                delay = backoff.delay_for(attempt)
                work.append((time.monotonic() + delay, [tuple(members)]))
            for index, cell in members:
                if retry:
                    self.stats.retries += 1
                    self.retry_delays.append(delay)
                    attempts[index] += 1
                    continue
                results[index] = CellFailure(
                    cell=cell, kind=kind, message=message, attempts=attempt,
                )
                self.stats.failures += 1

        def launch():
            # One bounded pass: each queued chunk is examined at most
            # once, and chunks still inside their backoff window keep
            # their relative order at the back of the queue. Nothing is
            # dispatched once preemption is requested, as in the serial
            # lane.
            if self._preempted():
                return
            now = time.monotonic()
            beat_interval = (
                watchdog.beat_interval_s if watchdog is not None else None
            )
            for _ in range(len(work)):
                if len(active) >= self.workers:
                    return
                eligible_at, chunk = work.popleft()
                if eligible_at > now:
                    work.append((eligible_at, chunk))
                    continue
                out_queue = context.SimpleQueue()
                process = context.Process(
                    target=_chunk_worker,
                    args=(chunk, out_queue, task, beat_interval),
                    daemon=True,
                )
                process.start()
                if monitor is not None:
                    monitor.register(process.pid)
                active.append(_WorkerState(
                    process=process,
                    out_queue=out_queue,
                    units=chunk,
                    remaining={
                        index: cell for unit in chunk for index, cell in unit
                    },
                    deadline=time.monotonic() + timeout,
                ))

        def stop(state):
            process = state.process
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                # SIGKILL also reaps workers SIGTERM cannot reach (a
                # SIGSTOPped process leaves TERM pending forever).
                process.kill()
                process.join(timeout=1.0)
            if monitor is not None:
                monitor.forget(process.pid)

        def strike(state, kind, message, stuck=None):
            # Kill the worker and charge an attempt to ``stuck`` (by
            # default its first unfinished unit after the drain: the
            # chunk runs in order). Units behind it never started; they
            # are requeued without an attempt charged.
            stop(state)
            drain(state, _DRAIN_BUDGET_S)
            if stuck is None:
                stuck = next(iter(state.remaining_units()), ())
            members = [(i, c) for i, c in stuck if i in state.remaining]
            for index, _ in members:
                del state.remaining[index]
            if members:
                retire(members, kind, message)
            innocent = state.remaining_units()
            if innocent:
                work.append((0.0, innocent))
            active.remove(state)

        def preempt_shutdown():
            # Stop dispatch, give in-flight workers the drain deadline
            # to finish their current cells, then kill the rest. Every
            # completion recorded during the drain reaches the cache as
            # usual, so nothing finished is lost.
            work.clear()
            stop_at = time.monotonic() + self._drain_deadline_s()
            while active and time.monotonic() < stop_at:
                for state in list(active):
                    while True:
                        message = poll(state)
                        if message is None:
                            break
                        consume(state, message)
                    if not state.remaining or not state.process.is_alive():
                        state.process.join(timeout=1.0)
                        active.remove(state)
                if active:
                    time.sleep(_POLL_S)
            for state in list(active):
                stop(state)
                drain(state, _DRAIN_BUDGET_S)
                active.remove(state)
            self._raise_interrupted(results)

        try:
            launch()
            while active or work:
                if self._preempted():
                    preempt_shutdown()
                progressed = False
                for state in list(active):
                    while True:
                        message = poll(state)
                        if message is None:
                            break
                        consume(state, message)
                        progressed = True
                    if not state.remaining:
                        state.process.join(timeout=5.0)
                        if monitor is not None:
                            monitor.forget(state.process.pid)
                        active.remove(state)
                        progressed = True
                    elif not state.process.is_alive():
                        # Crashed mid-chunk: salvage queued results, then
                        # retry (or fail) the cells that never finished.
                        drain(state, _DRAIN_BUDGET_S)
                        for members in state.remaining_units():
                            retire(
                                members, "crashed",
                                "worker exited with code {}".format(
                                    state.process.exitcode
                                ),
                            )
                        state.process.join(timeout=1.0)
                        if monitor is not None:
                            monitor.forget(state.process.pid)
                        active.remove(state)
                        progressed = True
                    elif time.monotonic() >= state.deadline:
                        # The first unfinished unit is over budget.
                        strike(
                            state, "timeout",
                            "exceeded {:.3g}s".format(timeout),
                            stuck=state.remaining_units()[0],
                        )
                        progressed = True
                    elif (
                        monitor is not None
                        and monitor.is_stale(state.process.pid)
                    ):
                        # Wedged worker: beats stopped (the process is
                        # frozen, not slow — a busy cell is the timeout
                        # branch's job). Kill it, strike the cell it
                        # was on, requeue the rest.
                        stale_s = monitor.staleness(state.process.pid)
                        pid = state.process.pid
                        monitor.declare_stall(pid)
                        self.stats.stalled += 1
                        if self.tracer is not None and self.tracer.enabled:
                            from repro.telemetry.events import WorkerStalled

                            self.tracer.emit(WorkerStalled(
                                ts=0, worker=pid,
                                cells=len(state.remaining),
                                stale_s=round(stale_s, 3),
                            ))
                        strike(
                            state, "stalled",
                            "no heartbeat for {:.2f}s".format(stale_s),
                        )
                        progressed = True
                launch()
                if not progressed:
                    time.sleep(_POLL_S)
        finally:
            for state in active:
                stop(state)
