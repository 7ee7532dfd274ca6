"""Parameter sweeps beyond the paper's fixed 64-processor point.

The paper evaluates a single machine size; a natural question for a
user adopting the thrifty barrier is how its benefit scales with the
processor count (imbalance — and hence savings — grows with P for
straggler-dominated codes) and with the sleep-state transition
latencies (future processors may enter deep states faster).
"""

from dataclasses import dataclass, replace
from typing import List

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.experiments.metrics import energy_savings, slowdown
from repro.experiments.runner import DEFAULT_SEED


@dataclass
class ScalingPoint:
    """Measurements of one (app, thread-count) cell."""

    app: str
    threads: int
    imbalance: float
    thrifty_energy_savings: float
    thrifty_slowdown: float
    ideal_energy_savings: float


_SCALING_CONFIGS = ("baseline", "thrifty", "ideal")


def _scaling_point(app, threads, results):
    baseline = results["baseline"]
    return ScalingPoint(
        app=app,
        threads=threads,
        imbalance=baseline.barrier_imbalance,
        thrifty_energy_savings=energy_savings(
            results["thrifty"], baseline
        ),
        thrifty_slowdown=slowdown(results["thrifty"], baseline),
        ideal_energy_savings=energy_savings(
            results["ideal"], baseline
        ),
    )


def thread_scaling(
    app, thread_counts=(8, 16, 32, 64), seed=DEFAULT_SEED,
    workers=1, cache=None,
) -> List[ScalingPoint]:
    """Run one application across machine sizes.

    Each point uses a machine with exactly ``threads`` nodes (the
    paper's dedicated mode). The (size x configuration) cells run
    through the :class:`~repro.experiments.parallel.ExperimentEngine`
    (``workers``/``cache`` as there), where each size's ``baseline``
    and ``ideal`` share one Baseline simulation.
    """
    thread_counts = tuple(thread_counts)
    for threads in thread_counts:
        if threads < 2 or threads & (threads - 1):
            raise ConfigError(
                "thread counts must be powers of two >= 2 (hypercube)"
            )
    from repro.experiments.parallel import ExperimentCell, ExperimentEngine

    engine = ExperimentEngine(workers=workers, cache=cache, strict=True)
    cells = [
        ExperimentCell.make(
            app, config, threads=threads, seed=seed,
            machine_config=MachineConfig(n_nodes=threads),
        )
        for threads in thread_counts
        for config in _SCALING_CONFIGS
    ]
    flat = engine.run_cells(cells)
    points = []
    for position, threads in enumerate(thread_counts):
        chunk = flat[
            position * len(_SCALING_CONFIGS):
            (position + 1) * len(_SCALING_CONFIGS)
        ]
        points.append(
            _scaling_point(app, threads, dict(zip(_SCALING_CONFIGS, chunk)))
        )
    return points


def scaled_states(states, latency_factor):
    """A sleep-state table with transition latencies scaled by
    ``latency_factor`` (e.g. 0.5 = a future CPU entering states twice
    as fast)."""
    if latency_factor <= 0:
        raise ConfigError("latency factor must be positive")
    return tuple(
        replace(
            state,
            transition_latency_ns=max(
                1, int(state.transition_latency_ns * latency_factor)
            ),
        )
        for state in states
    )


def latency_scaling(
    app, factors=(0.25, 0.5, 1.0, 2.0), threads=64, seed=DEFAULT_SEED,
    workers=1, cache=None,
):
    """Thrifty savings as a function of transition-latency scaling.

    Returns ``[(factor, energy_savings, slowdown)]``. As with
    :func:`thread_scaling`, ``workers``/``cache`` route the cells
    through the parallel engine.
    """
    from repro.config import DEFAULT_SLEEP_STATES
    from repro.experiments.parallel import ExperimentCell, ExperimentEngine

    factors = tuple(factors)
    engine = ExperimentEngine(workers=workers, cache=cache, strict=True)
    cells = [ExperimentCell.make(app, "baseline", threads=threads, seed=seed)]
    cells.extend(
        ExperimentCell.make(
            app, "thrifty", threads=threads, seed=seed,
            sleep_states=scaled_states(DEFAULT_SLEEP_STATES, factor),
        )
        for factor in factors
    )
    flat = engine.run_cells(cells)
    baseline = flat[0]
    return [
        (
            factor,
            energy_savings(result, baseline),
            slowdown(result, baseline),
        )
        for factor, result in zip(factors, flat[1:])
    ]
