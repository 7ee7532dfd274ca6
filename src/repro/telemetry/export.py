"""Exporters: Chrome trace-event JSON and CSV metric dumps.

The Chrome trace export produces the JSON object format
(``{"traceEvents": [...]}``) that Perfetto and ``chrome://tracing``
load directly: one row per simulated thread, complete ("X") events for
barrier-wait and sleep-state spans, instant ("i") events for wake-ups,
releases, and predictor actions. Timestamps are emitted in
microseconds (the trace-event unit) from the simulator's nanosecond
clock.

Serialization is canonical — sorted keys, compact separators — so two
runs that emit identical event streams produce *byte-identical* files;
``tests/test_telemetry_determinism.py`` holds the engine to that across
worker counts and cache round-trips.
"""

import csv
import io
import json

from repro.telemetry.events import (
    BarrierDepart,
    BarrierRelease,
    FaultInjected,
    InvariantCheck,
    LateWake,
    PredictorDisable,
    PredictorFiltered,
    PredictorHit,
    PredictorReenable,
    PredictorTrain,
    SleepExit,
    StorageFault,
    WakeUp,
    WorkerStalled,
)

_PID = 0


def _us(ts_ns):
    """Nanoseconds to the trace-event microsecond unit."""
    return ts_ns / 1000.0


def _complete(name, cat, tid, start_ns, end_ns, args):
    return {
        "ph": "X",
        "name": name,
        "cat": cat,
        "pid": _PID,
        "tid": tid,
        "ts": _us(start_ns),
        "dur": _us(max(0, end_ns - start_ns)),
        "args": args,
    }


def _instant(name, cat, tid, ts_ns, args):
    return {
        "ph": "i",
        "s": "t",
        "name": name,
        "cat": cat,
        "pid": _PID,
        "tid": tid,
        "ts": _us(ts_ns),
        "args": args,
    }


def chrome_trace_events(events, process_name="repro"):
    """Map a telemetry event stream to trace-event dicts.

    Span start times ride on the *closing* event (``BarrierDepart``
    carries its ``arrived_ts``, ``SleepExit`` its ``entered_ts``), so no
    pairing stack is needed and an interrupted run simply drops its
    open spans.
    """
    rows = []
    threads = sorted({
        event.thread for event in events if hasattr(event, "thread")
    })
    rows.append({
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
        "args": {"name": process_name},
    })
    for tid in threads:
        rows.append({
            "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": "cpu {}".format(tid)},
        })
    for event in events:
        if isinstance(event, BarrierDepart):
            rows.append(_complete(
                "barrier {}".format(event.pc), "barrier", event.thread,
                event.arrived_ts, event.ts,
                {"sequence": event.sequence, "stall_ns": event.stall_ns},
            ))
        elif isinstance(event, SleepExit):
            rows.append(_complete(
                "sleep {}".format(event.state), "sleep", event.thread,
                event.entered_ts, event.ts,
                {
                    "resident_ns": event.resident_ns,
                    "flush_ns": event.flush_ns,
                    "flushed_lines": event.flushed_lines,
                },
            ))
        elif isinstance(event, WakeUp):
            rows.append(_instant(
                "wake:{}".format(event.source), "sleep", event.thread,
                event.ts, {"pc": event.pc, "state": event.state},
            ))
        elif isinstance(event, BarrierRelease):
            rows.append(_instant(
                "release {}".format(event.pc), "barrier", event.thread,
                event.ts,
                {"sequence": event.sequence, "bit_ns": event.bit_ns},
            ))
        elif isinstance(event, LateWake):
            if event.penalty_ns > 0:
                rows.append(_instant(
                    "late wake", "sleep", event.thread, event.ts,
                    {"pc": event.pc, "penalty_ns": event.penalty_ns},
                ))
        elif isinstance(event, PredictorTrain):
            rows.append(_instant(
                "train {}".format(event.pc), "predictor", event.thread,
                event.ts,
                {"bit_ns": event.bit_ns, "predicted_ns": event.predicted_ns},
            ))
        elif isinstance(event, PredictorDisable):
            rows.append(_instant(
                "disable {}".format(event.pc), "predictor", event.thread,
                event.ts, {"pc": event.pc},
            ))
        elif isinstance(event, PredictorFiltered):
            rows.append(_instant(
                "filtered update {}".format(event.pc), "predictor",
                event.thread, event.ts, {"bit_ns": event.bit_ns},
            ))
        elif isinstance(event, PredictorReenable):
            rows.append(_instant(
                "reenable {}".format(event.pc), "predictor",
                event.thread, event.ts, {"pc": event.pc},
            ))
        elif isinstance(event, FaultInjected):
            rows.append(_instant(
                "fault:{}".format(event.fault), "fault", event.target,
                event.ts, {"magnitude_ns": event.magnitude_ns},
            ))
        elif isinstance(event, InvariantCheck):
            rows.append(_instant(
                "invariant:{}".format(event.invariant), "invariant", 0,
                event.ts,
                {"passed": event.passed, "violations": event.violations},
            ))
        elif isinstance(event, WorkerStalled):
            rows.append(_instant(
                "worker stalled", "engine", 0, event.ts,
                {
                    "worker": event.worker,
                    "cells": event.cells,
                    "stale_s": event.stale_s,
                },
            ))
        elif isinstance(event, StorageFault):
            rows.append(_instant(
                "storage fault:{}".format(event.op), "storage", 0,
                event.ts, {"path": event.path, "error": event.error},
            ))
        elif isinstance(event, PredictorHit):
            # Hits are dense and low-information on a timeline; they are
            # counted in the metrics instead of drawn.
            continue
    return rows


def chrome_trace_json(events, process_name="repro"):
    """The canonical (byte-stable) Chrome trace JSON document."""
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(
            events, process_name=process_name
        ),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(events, path, process_name="repro"):
    """Write the trace JSON; returns the number of trace events."""
    text = chrome_trace_json(events, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count('"ph"')


def metrics_to_rows(snapshot):
    """Flatten a metrics snapshot into ``(type, name, field, value)``
    rows, deterministically ordered."""
    rows = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append(("counter", name, "value", value))
    for name, value in snapshot.get("gauges", {}).items():
        rows.append(("gauge", name, "value", value))
    for name, body in snapshot.get("histograms", {}).items():
        rows.append(("histogram", name, "count", body["count"]))
        rows.append(("histogram", name, "sum", body["sum"]))
        rows.append(("histogram", name, "min", body["min"]))
        rows.append(("histogram", name, "max", body["max"]))
        for bound, bucket in zip(body["bounds"], body["counts"]):
            rows.append(("histogram", name, "le_{}".format(bound), bucket))
        rows.append(("histogram", name, "le_inf", body["counts"][-1]))
    return rows


def metrics_to_csv(snapshot, path=None):
    """Dump a metrics snapshot as CSV; returns the CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("type", "name", "field", "value"))
    for row in metrics_to_rows(snapshot):
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
