"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from a seed (:meth:`Workload.build`),
runs one pass of work through the package's public API
(:meth:`Workload.run`) and returns a :class:`PassOutput`: one record
per operation, the weight of each operation in ``attempted``, and the
figures the workload's own reports carry. The records are what the
committed digests pin (see ``digests.json``).
"""

import contextlib
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: The paper's five configurations, in the order the matrix reports them.
CONFIGS = ("baseline", "thrifty-halt", "oracle-halt", "thrifty", "ideal")

#: ``repro check`` defaults: the explored application, thread count,
#: schedule budget, deepest deviating choice point and strategy.
CHECK_APP = "fmm"
CHECK_THREADS = 8
CHECK_SCHEDULES = 64
CHECK_DEPTH = 24
CHECK_STRATEGY = "dfs"

SCALE_APP = "fmm"
SCALE_CONFIG = "thrifty"
SCALE_NODES = 1024


def digest(record):
    """Hex SHA-256 of a record's canonical JSON form.

    Keys are sorted and floats are written by ``repr``, so the same
    values give the same bytes in every process.
    """
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_record(execution_time_ns, total, thrifty_stats, oracle_meta):
    """The fields of one simulated cell that the digests pin."""
    return {
        "execution_time_ns": execution_time_ns,
        "energy_breakdown": total.energy_breakdown(),
        "time_breakdown": total.time_breakdown(),
        "thrifty_stats": thrifty_stats,
        "oracle_meta": oracle_meta,
    }


def thrifty_by_barrier(barriers):
    """Per-barrier :class:`~repro.sync.thrifty.ThriftyStats`, in PC order.

    Empty for barriers without thrifty stats (the conventional ones).
    """
    return {
        pc: asdict(barrier.stats)
        for pc, barrier in sorted(barriers.items())
        if hasattr(barrier, "stats")
    }


def needed_live_runs(apps, configs, live_configs, derived_configs):
    """Live simulations ``run_app`` needs for an app x config matrix.

    Every live configuration runs once per app; the derived ones replay
    one shared Baseline, which costs a run only when Baseline itself
    was not asked for.
    """
    per_app = sum(1 for config in configs if config in live_configs)
    if "baseline" not in configs and any(
        config in derived_configs for config in configs
    ):
        per_app += 1
    return apps * per_app


@dataclass
class PassOutput:
    """One pass of a workload: per-operation records and report figures."""

    #: operation key -> (weight in ``attempted``, record).
    records: dict = field(default_factory=dict)
    #: Figures read from the workload's own reports: the exploration
    #: counts of ``check8``, the headline energy figures of ``paper64``.
    reported: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return sum(weight for weight, _ in self.records.values())


class Workload:
    """One benchmark workload; subclasses fill in build/run/sanity."""

    name = ""
    #: Operations one pass attempts (all fail when the pass raises).
    ops = 0
    #: Imported by the set-up probe and before timing, so the measured
    #: pass never pays for a first import.
    modules = ()
    #: How the traced run splits the pass over profiled processes: one
    #: selector per process, ``None`` for the whole pass.
    parts = (None,)

    def build(self, seed, scratch, part=None):
        """The pass's inputs; ``scratch`` is a private empty directory,
        ``part`` one of :attr:`parts`."""
        raise NotImplementedError

    def in_part(self, key, part):
        """Whether operation ``key`` belongs to ``part``."""
        return part is None

    def run(self, inputs, probe=None):
        """One pass; ``probe`` (a :class:`ledger.Probe`) times the
        benchmark's own calls when given."""
        raise NotImplementedError

    def sanity(self, output):
        """Operation keys whose records break a seed-independent rule."""
        return []

    def needed_runs(self, output):
        """Live simulations the pass's results need: one per cell."""
        return len(output.records)


class Paper64(Workload):
    """All ten SPLASH-2 apps x five configs at 64 threads, cold cache.

    One ``run_matrix(workers=1, cache=<empty dir>)`` call: what a first
    ``repro all`` does.
    """

    name = "paper64"
    ops = 50
    modules = ("repro.experiments", "repro.experiments.metrics")
    # Ocean is about 60% of the matrix: profiled alone, it sets the
    # traced run's length.
    parts = (("ocean",), (
        "volrend", "radix", "fmm", "barnes", "water-nsq", "water-sp",
        "fft", "cholesky", "radiosity",
    ))

    def build(self, seed, scratch, part=None):
        from repro.experiments import ResultCache

        return seed, part, ResultCache(scratch)

    def in_part(self, key, part):
        return part is None or key.split("/")[0] in part

    def run(self, inputs, probe=None):
        from repro.experiments import run_matrix
        from repro.experiments.metrics import headline_summary

        seed, apps, cache = inputs
        matrix = run_matrix(
            apps=apps, threads=64, seed=seed, workers=1, cache=cache,
        )
        output = PassOutput()
        for app, row in matrix.items():
            for config, result in row.items():
                output.records["{}/{}".format(app, config)] = (1, cell_record(
                    result.execution_time_ns, result.total,
                    result.thrifty_stats, result.oracle_meta,
                ))
        if apps is None:
            thrifty = headline_summary(matrix)["thrifty"]
            output.reported["energy.thrifty_savings_pct"] = (
                100.0 * thrifty["target_energy_savings"]
            )
            output.reported["energy.thrifty_slowdown_pct"] = (
                100.0 * thrifty["target_slowdown"]
            )
        return output

    def sanity(self, output):
        """Oracle cells replay Baseline: same time, no more energy.

        Ideal may sleep in any state, Oracle-Halt only in Halt, so
        Ideal <= Oracle-Halt <= Baseline in energy.
        """
        bad = []
        records = output.records
        apps = sorted({key.split("/")[0] for key in records})
        for app in apps:
            cells = {c: records["{}/{}".format(app, c)][1] for c in CONFIGS}
            energy = {
                c: sum(cells[c]["energy_breakdown"].values()) for c in CONFIGS
            }
            base_ns = cells["baseline"]["execution_time_ns"]
            for config in CONFIGS:
                cell = cells[config]
                ok = cell["execution_time_ns"] > 0 and energy[config] > 0
                if config in ("oracle-halt", "ideal"):
                    ok = ok and cell["execution_time_ns"] == base_ns
                if not ok:
                    bad.append("{}/{}".format(app, config))
            if not energy["ideal"] <= energy["oracle-halt"] <= (
                energy["baseline"]
            ):
                bad.append("{}/ideal".format(app))
        return bad

    def needed_runs(self, output):
        """What ``run_app`` needs: the live configs, derived ones free."""
        from repro.experiments import DERIVED_CONFIGS, LIVE_CONFIGS

        apps = {key.split("/")[0] for key in output.records}
        return needed_live_runs(
            len(apps), CONFIGS, LIVE_CONFIGS, DERIVED_CONFIGS
        )


class Scale1024(Workload):
    """One FMM/thrifty cell on a 1024-node machine, driven directly
    through ``System`` + ``WorkloadRunner``."""

    name = "scale1024"
    ops = 1
    modules = (
        "repro.config", "repro.machine", "repro.workloads",
        "repro.experiments.configs",
    )

    def build(self, seed, scratch, part=None):
        from repro.config import MachineConfig
        from repro.experiments.configs import barrier_factory_for
        from repro.machine import System
        from repro.workloads import WorkloadRunner, get_model

        system = System(MachineConfig(n_nodes=SCALE_NODES))
        return WorkloadRunner(
            get_model(SCALE_APP), system=system, n_threads=SCALE_NODES,
            seed=seed, barrier_factory=barrier_factory_for(SCALE_CONFIG),
        )

    def run(self, runner, probe=None):
        run = runner.run()
        key = "{}/{}/{}".format(SCALE_APP, SCALE_CONFIG, SCALE_NODES)
        return PassOutput(records={key: (1, cell_record(
            run.execution_time_ns, run.total,
            thrifty_by_barrier(run.barriers), None,
        ))})

    def sanity(self, output):
        return [
            key for key, (_, record) in output.records.items()
            if record["execution_time_ns"] <= 0
            or sum(record["energy_breakdown"].values()) <= 0
        ]


class Check8(Workload):
    """``explore()`` over all five configs at the ``repro check``
    defaults: 5 x 64 schedules of FMM at 8 threads."""

    name = "check8"
    ops = len(CONFIGS) * CHECK_SCHEDULES
    modules = ("repro.check",)
    parts = (("baseline", "thrifty"), ("thrifty-halt", "oracle-halt", "ideal"))

    def build(self, seed, scratch, part=None):
        return seed, part or CONFIGS

    def in_part(self, key, part):
        return part is None or key in part

    def run(self, inputs, probe=None):
        from repro.check import explore

        seed, configs = inputs
        output = PassOutput()
        totals = {"schedules": 0, "unique_schedules": 0, "violations": 0}
        for config in configs:
            span = probe.span("span.explore_s." + config) if probe else (
                contextlib.nullcontext()
            )
            with span:
                report = explore(
                    CHECK_APP, config, threads=CHECK_THREADS, seed=seed,
                    max_schedules=CHECK_SCHEDULES, max_depth=CHECK_DEPTH,
                    strategy=CHECK_STRATEGY,
                )
            violations = [
                violation.describe()
                for failure in report.failures
                for violation in failure.violations
            ]
            output.records[config] = (report.schedules_run, {
                "schedules": report.schedules_run,
                "unique_schedules": report.unique_schedules,
                "violations": violations,
            })
            totals["schedules"] += report.schedules_run
            totals["unique_schedules"] += report.unique_schedules
            totals["violations"] += len(violations)
        output.reported.update(
            ("check." + name, value) for name, value in totals.items()
        )
        return output

    def needed_runs(self, output):
        """Every explored schedule is one live simulation."""
        return output.attempted

    def sanity(self, output):
        """The correct protocol is clean under every explored order."""
        return [
            key for key, (weight, record) in output.records.items()
            if record["violations"] or weight != CHECK_SCHEDULES
        ]


WORKLOADS = {w.name: w for w in (Paper64(), Scale1024(), Check8())}


def load_digests(path):
    """Committed digests: ``{workload: {seed: {op: hex}}}``."""
    return json.loads(Path(path).read_text())


def failed_ops(workload, output, expected, part=None):
    """``(failed weight, failing keys)`` of one pass over ``part``.

    ``expected`` is the committed ``{op: digest}`` map for this seed,
    or ``None`` for a seed without one, which is then held to the
    workload's seed-independent rules alone. An operation missing from
    the output, or one with a wrong digest, fails.
    """
    bad = set(workload.sanity(output))
    if expected is not None:
        expected = {
            key: value for key, value in expected.items()
            if workload.in_part(key, part)
        }
        bad.update(
            key for key in expected
            if key not in output.records
            or digest(output.records[key][1]) != expected[key]
        )
        bad.update(key for key in output.records if key not in expected)
    weight = sum(
        output.records[key][0] if key in output.records else 1
        for key in bad
    )
    return weight, sorted(bad)
