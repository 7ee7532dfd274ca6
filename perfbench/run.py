"""Host-time benchmark of the thrifty-barrier reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper64 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no package code wrapped or
profiled, in seconds at a reference machine speed (see speed.py);
``--trace 1`` gives the per-layer ledger in plain host seconds (see
README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything the benchmark
writes stays under ``.perfbench/`` in the repository root.
"""

import argparse
import contextlib
import cProfile
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import harness
import ledger
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"

#: Fresh processes timed per run for ``setup_s``, half before the
#: measured passes and half after, so the median spans the run rather
#: than one moment of a machine whose speed drifts over seconds.
SETUP_PROBES = 6
#: Speed probes each set-up child runs right after its inputs are built.
SETUP_SPEED_SAMPLES = 20
#: Seconds a child process (set-up probe, span pass) may take.
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(harness.WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: what a child process of this benchmark does, and which
    # of the workload's parts a profiling child runs.
    parser.add_argument(
        "--role", choices=("main", "setup", "spans", "profile"),
        default="main", help=argparse.SUPPRESS,
    )
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: no src/repro under {}; run from a full "
            "checkout".format(ROOT)
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            "perfbench: imported repro from {}, not {}".format(
                repro.__file__, SRC
            )
        )


_scratch_ids = itertools.count()


@contextlib.contextmanager
def scratch_dir():
    """A private empty directory under ``.perfbench``, removed after."""
    path = STATE / "scratch" / "{}-{}".format(os.getpid(), next(_scratch_ids))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def expected_digests(workload, seed):
    """The committed ``{op: digest}`` map for this seed, if any."""
    return harness.load_digests(DIGESTS).get(workload.name, {}).get(str(seed))


def child_command(args, role, part=0):
    return [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--role", role, "--part", str(part),
    ]


def setup_probe(args):
    """Seconds from launching a fresh process to its built inputs, raw
    and at the reference speed (from probes the child runs next)."""
    start = time.perf_counter()
    with subprocess.Popen(
        child_command(args, "setup"), cwd=ROOT, stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = child.stdout.read()
        child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError("set-up probe failed (exit {})".format(
            child.returncode
        ))
    return elapsed, elapsed / speed.slowness(json.loads(rest))


def one_pass(workload, seed, part=None, probe=None, around=None):
    """Build inputs, run one timed pass; ``(wall seconds, output)``.

    ``around`` is a context manager held for exactly the timed run: a
    :class:`speed.Sampler` or a ``cProfile.Profile``.
    """
    with scratch_dir() as scratch:
        inputs = workload.build(seed, scratch, part)
        with around or contextlib.nullcontext():
            start = time.perf_counter()
            output = workload.run(inputs, probe)
            wall = time.perf_counter() - start
        return wall, output


def judge(workload, output, expected, part=None):
    """The failed weight of a pass over ``part``, printing what failed."""
    failed, bad = harness.failed_ops(workload, output, expected, part)
    for key in bad:
        print("FAILED {}: digest or sanity check".format(key))
    return failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, args):
    """``--trace 0``: the end-to-end metrics. No package code is wrapped
    or profiled; the speed probe interleaves with each pass."""
    setups = [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
    expected = expected_digests(workload, args.seed)
    walls, works = [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Whole passes until the next one would overrun --seconds; at
    # least one, and one pass of paper64 is longer than any budget.
    while True:
        sampler = speed.Sampler()
        try:
            wall, output = one_pass(workload, args.seed, around=sampler)
        except Exception:
            traceback.print_exc(file=sys.stdout)
            print("FAILED {}: the pass raised".format(workload.name))
            wall = time.perf_counter() - start
            walls.append(wall)
            works.append(sampler.reference_seconds(wall))
            attempted += workload.ops
            failed += workload.ops
            break
        walls.append(wall)
        works.append(sampler.reference_seconds(wall))
        attempted += output.attempted
        failed += judge(workload, output, expected)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    setups += [setup_probe(args) for _ in range(SETUP_PROBES - len(setups))]
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "work_s": statistics.median(works),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "raw_setup_s": statistics.median(host for host, _ in setups),
        "raw_wall_s": statistics.median(walls),
    }
    print("{} seed {}: {} pass(es); host seconds {}; at reference "
          "speed {}".format(
              workload.name, args.seed, len(walls),
              " ".join("{:.3f}".format(w) for w in walls),
              " ".join("{:.3f}".format(w) for w in works),
          ))
    print("set-up probes: host seconds {}; at reference speed {}".format(
        " ".join("{:.3f}".format(host) for host, _ in setups),
        " ".join("{:.3f}".format(ref) for _, ref in setups),
    ))
    print("digests: {}".format(
        "committed for this seed" if expected is not None
        else "none for this seed; sanity rules only"
    ))
    report_stability(workload, args, dict(metrics, **raw))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": metrics["setup_s"], "unit": "s"},
            "work_s": {"value": metrics["work_s"], "unit": "s"},
            "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        },
    }


def report_stability(workload, args, figures):
    """Print the run-to-run spread of every figure over the untraced
    runs of this code in this checkout."""
    code = ledger.code_digest(SRC, BENCH_DIR)
    runs = ledger.append_history(
        STATE / "history" / "{}-{}.jsonl".format(workload.name, code),
        dict(figures, seed=args.seed),
    )
    parts = []
    for name in figures:
        value = ledger.spread([run[name] for run in runs])
        parts.append("{} {}".format(
            name, "n/a" if value is None else "{:.4f}".format(value)
        ))
    print("stability over {} run(s) of this code (IQR/median): {}".format(
        len(runs), ", ".join(parts)
    ))


def span_pass(workload, args):
    """Child of ``--trace 1``: one untraced pass with spans and counters."""
    with ledger.Probe() as probe:
        wall, output = one_pass(workload, args.seed, probe=probe)
    counters = dict(probe.counters)
    counters.update(output.reported)
    return {
        "wall_s": wall,
        "spans": dict(probe.spans),
        "counters": counters,
        "needed_runs": workload.needed_runs(output),
        "attempted": output.attempted,
        "failed": judge(
            workload, output, expected_digests(workload, args.seed)
        ),
    }


def profile_pass(workload, args):
    """Child of ``--trace 1``: one part of the pass under cProfile."""
    part = workload.parts[args.part]
    profile = cProfile.Profile()
    with ledger.Probe() as probe:
        wall, output = one_pass(
            workload, args.seed, part, probe=probe, around=profile,
        )
    counters = dict(probe.counters)
    counters.update(output.reported)
    return {
        "wall_s": wall,
        "layers": ledger.layer_totals(profile, SRC / "repro"),
        "counters": counters,
        "attempted": output.attempted,
        "failed": judge(
            workload, output, expected_digests(workload, args.seed), part
        ),
    }


def run_children(commands):
    """Run child processes side by side; their last output lines, parsed.

    Children get a fixed hash seed: with randomized string hashing the
    number of calls to generated ``__eq__`` methods changes from process
    to process, and call counts must repeat exactly.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    children = [
        subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
        )
        for command in commands
    ]
    results = []
    try:
        for child in children:
            lines = child.stdout.read().splitlines()
            child.wait(timeout=CHILD_TIMEOUT_S)
            if child.returncode != 0 or not lines:
                raise RuntimeError("{} failed (exit {})".format(
                    " ".join(child.args[-4:]), child.returncode
                ))
            for line in lines[:-1]:
                print(line)
            results.append(json.loads(lines[-1]))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    return results


def trace(workload, args):
    """``--trace 1``: the per-layer ledger.

    An untraced span pass and the profiled parts of the same pass run
    side by side in child processes, so the traced run takes about as
    long as its longest profiled part. The counters must agree exactly
    between the untraced and the profiled passes, and every ``.calls``
    and counter value with the first traced run of the same code and
    seed in this checkout.
    """
    untraced, *parts = run_children(
        [child_command(args, "spans")] + [
            child_command(args, "profile", index)
            for index in range(len(workload.parts))
        ]
    )
    totals = {
        layer: tuple(
            sum(part["layers"][layer][field] for part in parts)
            for field in (0, 1)
        )
        for layer in ledger.LAYERS
    }
    counters = {
        name: sum(part["counters"][name] for part in parts)
        for name in ledger.COUNTERS
    }
    # The parts' own report figures are partial; the untraced pass
    # carries the whole workload's.
    for name in untraced["counters"]:
        counters.setdefault(name, untraced["counters"][name])
    traced_wall = sum(part["wall_s"] for part in parts)

    metrics = ledger.layer_metrics(totals)
    for name in ledger.COUNTERS:
        metrics[name] = (counters[name], "count")
    metrics["experiments.useful_run_ratio"] = (ledger.useful_run_ratio(
        untraced["needed_runs"], untraced["counters"]["experiments.live_runs"]
    ), "ratio")
    for name in ledger.SPANS:
        metrics[name] = (untraced["spans"][name], "s")
    for config in harness.CONFIGS:
        name = "span.explore_s." + config
        metrics[name] = (untraced["spans"].get(name, 0.0), "s")
    metrics["trace_overhead"] = (traced_wall / untraced["wall_s"], "ratio")
    for name in ("energy.thrifty_savings_pct", "energy.thrifty_slowdown_pct"):
        metrics[name] = (counters.get(name, 0.0), "%")

    counts = {name: counters[name] for name in ledger.COUNTERS}
    counts.update(
        (layer + ".calls", totals[layer][1]) for layer in ledger.LAYERS
    )
    not_exact = ledger.compare_counts(counters, untraced["counters"])
    compared = len(untraced["counters"])
    reference_path = STATE / "ledger" / "{}-seed{}-{}.json".format(
        workload.name, args.seed, ledger.code_digest(SRC, BENCH_DIR),
    )
    if reference_path.is_file():
        reference = json.loads(reference_path.read_text())
        not_exact += ledger.compare_counts(counts, reference)
        compared += len(reference)
        print("counts compared with the first traced run of this code "
              "and seed: {}".format(reference_path.name))
    else:
        reference_path.parent.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(json.dumps(counts, sort_keys=True))
        print("first traced run of this code and seed: counts saved to "
              "{}".format(reference_path.name))
    print("not exact: {}".format(", ".join(sorted(set(not_exact))) or "none"))
    metrics["trace.counts_compared"] = (compared, "count")
    metrics["trace.counts_not_exact"] = (len(set(not_exact)), "count")
    print("{} seed {}: profiled parts {} s, untraced pass {:.3f} s".format(
        workload.name, args.seed,
        " + ".join("{:.3f}".format(part["wall_s"]) for part in parts),
        untraced["wall_s"],
    ))
    failed = untraced["failed"] + sum(part["failed"] for part in parts)
    return {
        "correct": failed == 0,
        "attempted": untraced["attempted"] + sum(
            part["attempted"] for part in parts
        ),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    args = parse_args(argv)
    import_repro()
    # Keep any temporary file the package makes inside the checkout.
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")
    workload = harness.WORKLOADS[args.workload]
    for module in workload.modules:
        importlib.import_module(module)
    if args.role == "setup":
        with scratch_dir() as scratch:
            workload.build(args.seed, scratch)
            print("ready", flush=True)
        print(json.dumps(
            [speed.timed_probe() for _ in range(SETUP_SPEED_SAMPLES)]
        ))
        return 0
    if args.role == "spans":
        print(json.dumps(span_pass(workload, args)))
        return 0
    if args.role == "profile":
        print(json.dumps(profile_pass(workload, args)))
        return 0
    result = trace(workload, args) if args.trace else measure(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
