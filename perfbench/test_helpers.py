"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import ledger  # noqa: E402
import speed  # noqa: E402
from repro.experiments import (  # noqa: E402
    DERIVED_CONFIGS,
    LIVE_CONFIGS,
    ResultCache,
    run_experiment,
    run_matrix,
)
from repro.workloads import WorkloadRunner  # noqa: E402

REPRO = str(SRC / "repro")
STDLIB = "/usr/lib/python3.11"


@pytest.mark.parametrize("filename, layer", [
    (REPRO + "/sim/core.py", "sim"),
    (REPRO + "/coherence/protocol.py", "coherence"),
    (REPRO + "/interconnect/network.py", "interconnect"),
    (REPRO + "/experiments/cache.py", "experiments"),
    (REPRO + "/check/harness.py", "check"),
    (REPRO + "/sync/../sync/thrifty.py", "sync"),
    (REPRO + "/config.py", "other"),
    (REPRO + "/serve/server.py", "other"),
    ("~", "builtins"),
    ("<frozen importlib._bootstrap>", "stdlib"),
    (STDLIB + "/json/encoder.py", "stdlib"),
    (STDLIB + "/site-packages/numpy/core/numeric.py", "other"),
    ("/elsewhere/perfbench/harness.py", "other"),
])
def test_layer_of(filename, layer):
    assert ledger.layer_of(filename, REPRO, STDLIB) == layer


def test_layer_of_defaults_to_running_stdlib():
    assert ledger.layer_of(os.__file__, REPRO) == "stdlib"


def test_layer_metrics_shares_sum_to_one():
    totals = {layer: (0.0, 0) for layer in ledger.LAYERS}
    totals["sim"] = (3.0, 30)
    totals["builtins"] = (1.0, 7)
    metrics = ledger.layer_metrics(totals)
    assert metrics["sim.share"] == (0.75, "ratio")
    assert metrics["builtins.calls"] == (7, "count")
    assert sum(
        metrics[layer + ".share"][0] for layer in ledger.LAYERS
    ) == pytest.approx(1.0)


def _fmm_cell_digest():
    result = run_experiment("fmm", "thrifty", threads=8, seed=3)
    return harness.digest(harness.cell_record(
        result.execution_time_ns, result.total,
        result.thrifty_stats, result.oracle_meta,
    ))


def test_digest_is_byte_stable_across_runs():
    assert _fmm_cell_digest() == _fmm_cell_digest()


def test_digest_ignores_key_order_and_keeps_float_bits():
    assert harness.digest({"a": 1, "b": 0.1}) == harness.digest(
        {"b": 0.1, "a": 1}
    )
    assert harness.digest({"x": 0.1}) != harness.digest(
        {"x": 0.1 + 2 ** -55}
    )


def test_needed_live_runs_and_useful_ratio():
    configs = harness.CONFIGS
    needed = harness.needed_live_runs(
        10, configs, LIVE_CONFIGS, DERIVED_CONFIGS
    )
    assert needed == 30
    assert ledger.useful_run_ratio(needed, 50) == 0.6
    # A derived config alone still needs its Baseline simulated.
    assert harness.needed_live_runs(
        2, ("ideal",), LIVE_CONFIGS, DERIVED_CONFIGS
    ) == 2
    assert harness.needed_live_runs(
        2, ("thrifty",), LIVE_CONFIGS, DERIVED_CONFIGS
    ) == 2
    with pytest.raises(ValueError):
        ledger.useful_run_ratio(3, 0)


def test_probe_counts_the_cached_route_live_runs(tmp_path):
    original = WorkloadRunner.run
    with ledger.Probe() as probe:
        run_matrix(
            apps=("fmm", "radix"), threads=8, seed=1, workers=1,
            cache=ResultCache(tmp_path),
        )
    assert WorkloadRunner.run is original
    # Five cells per app, each derived one re-simulating Baseline.
    assert probe.counters["experiments.live_runs"] == 10
    assert probe.counters["sim.callbacks"] > 0
    assert probe.spans["span.cache_put_s"] > 0
    assert probe.spans["span.oracle_rerun_s"] > 0


def test_failed_ops_weighs_mismatches_and_missing_ops():
    workload = harness.WORKLOADS["check8"]
    clean = {"schedules": 64, "unique_schedules": 64, "violations": []}
    output = harness.PassOutput(records={
        "baseline": (64, clean), "thrifty": (64, dict(clean)),
    })
    good = harness.digest(clean)
    assert harness.failed_ops(
        workload, output, {"baseline": good, "thrifty": good}
    ) == (0, [])
    assert harness.failed_ops(
        workload, output, {"baseline": good, "thrifty": "0" * 64}
    ) == (64, ["thrifty"])
    assert harness.failed_ops(
        workload, output, {"baseline": good, "thrifty": good, "ideal": good}
    ) == (1, ["ideal"])
    output.records["thrifty"][1]["violations"] = ["[lost-wakeup] x"]
    assert harness.failed_ops(workload, output, None) == (64, ["thrifty"])


def test_spread_is_iqr_over_median():
    assert ledger.spread([1.0]) is None
    assert ledger.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert ledger.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )


def test_compare_counts_names_every_difference():
    assert ledger.compare_counts({"a": 1, "b": 2}, {"a": 1, "b": 3}) == ["b"]
    assert ledger.compare_counts({"a": 1}, {"a": 1, "c": 0}) == ["c"]


def test_slowness_is_trimmed_mean_over_reference():
    reference = speed.REFERENCE_PROBE_S
    samples = [reference] * 8 + [100 * reference, 0.0]
    assert speed.slowness(samples) == pytest.approx(1.0)
    assert speed.slowness([2 * reference]) == pytest.approx(2.0)


def test_sampler_interleaves_probes_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speed.SAMPLE_INTERVAL_S:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert len(sampler.samples) >= 2
    assert 0 < sampler.overhead_s < wall
    assert sampler.reference_seconds(wall) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
