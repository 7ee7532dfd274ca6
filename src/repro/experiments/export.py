"""Machine-readable export of experiment results (JSON / CSV).

The text report is for eyeballs; downstream analysis (plotting the
figures, regression-tracking the reproduction) wants structured data.
Both writers are atomic (temp file + rename), so a preempted or
crashed export never leaves a truncated file where a previous good
export used to be.
"""

import csv
import io
import json

from repro.errors import ConfigError
from repro.faults.storage import atomic_write_text
from repro.experiments.metrics import SEGMENTS, normalized_breakdown


def matrix_to_records(matrix):
    """Flatten a run matrix to one dict per (app, config) cell."""
    records = []
    for app, by_config in matrix.items():
        baseline = by_config.get("baseline")
        if baseline is None:
            raise ConfigError("matrix for {!r} lacks a baseline".format(app))
        for config, result in by_config.items():
            record = {
                "app": app,
                "config": config,
                "threads": result.n_threads,
                "execution_time_ns": result.execution_time_ns,
                "energy_joules": result.energy_joules,
                "barrier_imbalance": result.barrier_imbalance,
                "normalized_time_pct": (
                    100.0
                    * result.execution_time_ns
                    / baseline.execution_time_ns
                ),
            }
            energy = normalized_breakdown(result, baseline, kind="energy")
            record["normalized_energy_pct"] = sum(energy.values())
            for segment in SEGMENTS:
                record["energy_{}_pct".format(segment)] = energy[segment]
            if result.thrifty_stats:
                record["thrifty_stats"] = dict(result.thrifty_stats)
            records.append(record)
    return records


def matrix_to_json(matrix, path=None, indent=2):
    """Serialize a run matrix; writes ``path`` if given, returns the
    JSON text either way."""
    text = json.dumps(matrix_to_records(matrix), indent=indent, sort_keys=True)
    if path is not None:
        atomic_write_text(path, text + "\n")
    return text


def records_to_csv(records, path):
    """Write flattened records as CSV (scalar columns only)."""
    if not records:
        raise ConfigError("nothing to write")
    columns = sorted(
        {
            key
            for record in records
            for key, value in record.items()
            if not isinstance(value, dict)
        }
    )
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for record in records:
        writer.writerow(
            {k: v for k, v in record.items() if not isinstance(v, dict)}
        )
    atomic_write_text(path, buffer.getvalue())
    return columns
