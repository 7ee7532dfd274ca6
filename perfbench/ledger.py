"""The per-layer ledger: profiler self time, call counts, spans and
exact counters, all measured from outside the ``repro`` package.

Layers are the packages under ``src/repro``. :func:`layer_of` maps a
profiler entry to one; :class:`Probe` wraps a handful of public entry
points for the length of one pass to time them (spans) and to read the
layers' public stats objects after every live simulation (counters).
"""

import contextlib
import functools
import hashlib
import json
import os
import pstats
import statistics
import sysconfig
import time
from collections import Counter
from pathlib import Path

#: Layers reported by name: the model and harness packages, plus C
#: functions (``builtins``), the standard library and everything else.
LAYERS = (
    "sim", "coherence", "interconnect", "sync", "machine", "energy",
    "predict", "workloads", "telemetry", "faults", "check", "experiments",
    "builtins", "stdlib", "other",
)

#: Every counter :class:`Probe` and the workloads report, pinned so
#: every traced run prints the same names (0 where a workload has none).
COUNTERS = (
    "sim.callbacks", "sim.cancelled_skips",
    "coherence.loads", "coherence.rmws", "coherence.misses",
    "coherence.invalidations", "coherence.writebacks",
    "coherence.owner_fetches", "coherence.flushed_lines",
    "coherence.monitor_fires",
    "interconnect.messages", "interconnect.hops", "interconnect.bytes",
    "sync.sleeps", "sync.timer_wakes", "sync.invalidation_wakes",
    "sync.spin_fallbacks", "sync.cold_spins", "sync.cutoff_disables",
    "predict.predictions", "predict.cold_misses", "predict.disables",
    "telemetry.events",
    "check.schedules", "check.unique_schedules", "check.violations",
    "experiments.live_runs",
)

SPANS = (
    "span.system_s", "span.generate_s", "span.run_s",
    "span.oracle_rerun_s", "span.cache_put_s", "span.cache_get_s",
)

_SYNC_STATS = (
    "sleeps", "timer_wakes", "invalidation_wakes", "spin_fallbacks",
    "cold_spins", "cutoff_disables",
)


def layer_of(filename, repro_root, stdlib_root=None):
    """The layer a profiler entry's ``filename`` belongs to.

    cProfile files C functions under ``"~"``; frozen import machinery
    and files under ``stdlib_root`` (outside ``site-packages``) are the
    standard library; a file in a package directly under ``repro_root``
    is that package's layer when it is one of :data:`LAYERS`.
    """
    if filename == "~":
        return "builtins"
    if filename.startswith("<frozen "):
        return "stdlib"
    path = os.path.normpath(filename)
    root = os.path.normpath(repro_root) + os.sep
    if path.startswith(root):
        parts = path[len(root):].split(os.sep)
        if len(parts) > 1 and parts[0] in LAYERS:
            return parts[0]
        return "other"
    stdlib_root = stdlib_root or sysconfig.get_paths()["stdlib"]
    stdlib = os.path.normpath(stdlib_root) + os.sep
    if path.startswith(stdlib) and "site-packages" not in path.split(os.sep):
        return "stdlib"
    return "other"


def layer_totals(profile, repro_root, stdlib_root=None):
    """``{layer: (self seconds, calls)}`` of a finished profile."""
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        _, calls, self_s, _, _ = row
        entry = totals[layer_of(filename, repro_root, stdlib_root)]
        entry[0] += self_s
        entry[1] += calls
    return {layer: tuple(entry) for layer, entry in totals.items()}


def layer_metrics(totals):
    """``<layer>.self_s``, ``.share`` and ``.calls`` for every layer."""
    grand = sum(self_s for self_s, _ in totals.values()) or 1.0
    metrics = {}
    for layer in LAYERS:
        self_s, calls = totals[layer]
        metrics[layer + ".self_s"] = (self_s, "s")
        metrics[layer + ".share"] = (self_s / grand, "ratio")
        metrics[layer + ".calls"] = (calls, "count")
    return metrics


def useful_run_ratio(needed, live_runs):
    """Share of the live simulations a pass made that it needed."""
    if live_runs <= 0:
        raise ValueError("no live runs to rate")
    return needed / live_runs


class Probe:
    """Wraps public entry points for one pass, then puts them back.

    Spans add up the host seconds spent inside each wrapped call;
    counters add up the layers' stats objects after every
    ``WorkloadRunner.run``. The wrappers cost a few calls per live
    simulation, not per event.
    """

    def __init__(self):
        self.spans = Counter({name: 0.0 for name in SPANS})
        self.counters = Counter({name: 0 for name in COUNTERS})
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] += time.perf_counter() - start

    def _wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args[0], result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __enter__(self):
        import repro.experiments.runner as runner_module
        from repro.experiments.cache import ResultCache
        from repro.machine import System
        from repro.workloads.base import WorkloadModel
        from repro.workloads.generator import WorkloadRunner

        self._wrap(System, "__init__", "span.system_s")
        self._wrap(WorkloadModel, "generate", "span.generate_s")
        self._wrap(WorkloadRunner, "run", "span.run_s", self._harvest)
        self._wrap(runner_module, "oracle_rerun", "span.oracle_rerun_s")
        self._wrap(ResultCache, "put", "span.cache_put_s")
        self._wrap(ResultCache, "get", "span.cache_get_s")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _harvest(self, runner, run):
        """Fold one finished simulation's stats into the counters."""
        counters = self.counters
        system = runner.system
        counters["experiments.live_runs"] += 1
        counters["sim.callbacks"] += system.sim.executed
        counters["sim.cancelled_skips"] += system.sim.skipped_cancelled
        memory = system.memsys.stats
        for name in (
            "loads", "rmws", "misses", "invalidations", "writebacks",
            "owner_fetches",
        ):
            counters["coherence." + name] += getattr(memory, name)
        for node in system.nodes:
            counters["coherence.flushed_lines"] += (
                node.controller.stats_flushed_lines
            )
            counters["coherence.monitor_fires"] += (
                node.controller.stats_monitor_fires
            )
        network = system.memsys.network.stats
        counters["interconnect.messages"] += network.messages
        counters["interconnect.hops"] += network.total_hops
        counters["interconnect.bytes"] += network.total_bytes
        for barrier in run.barriers.values():
            stats = getattr(barrier, "stats", None)
            for name in _SYNC_STATS:
                counters["sync." + name] += getattr(stats, name, 0)
        predictor = run.predictor.stats
        for name in ("predictions", "cold_misses", "disables"):
            counters["predict." + name] += getattr(predictor, name)
        if system.telemetry.enabled:
            counters["telemetry.events"] += len(system.telemetry.events)


def spread(values):
    """Interquartile range over median: the stability figure."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def code_digest(*roots):
    """A short digest of every ``.py`` file under ``roots``, so saved
    figures are only compared between runs of the same code."""
    sha = hashlib.sha256()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            sha.update(str(path.relative_to(root)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def append_history(path, entry):
    """Append one run's end-to-end figures; return all runs so far."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare_counts(counts, reference):
    """Names in ``reference`` whose count differs in ``counts``."""
    return sorted(
        name for name, value in reference.items()
        if counts.get(name) != value
    )
