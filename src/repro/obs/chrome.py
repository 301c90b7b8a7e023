"""Chrome trace-event export for cycle-domain span tracers.

Produces the ``{"traceEvents": [...]}`` JSON object format consumed by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  One cycle
is written as one microsecond of trace time — the viewers only care
about relative durations.

The execution track is *gap-filled*: stall spans are laid down where the
tracer recorded them and ``execute`` spans are synthesised to cover
every remaining cycle from 0 to ``total_cycles``, so the cycle-sum of
the execution track's spans equals the run's total cycles exactly (the
cookbook recipe asserts this).  Background decompression/compression
jobs render on their own tracks, and the tracer's typed instants
(faults, patches, fills, releases, cancels, decodes) appear as instant
events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .tracer import SpanTracer, TraceSink

#: Track (``tid``) layout within one run's process group.
EXECUTION_TRACK = 0
DECOMPRESS_TRACK = 1
COMPRESS_TRACK = 2

_TRACK_NAMES = {
    EXECUTION_TRACK: "execution",
    DECOMPRESS_TRACK: "decompression worker",
    COMPRESS_TRACK: "compression worker",
}

_WORKER_TRACKS = {
    "decompression": DECOMPRESS_TRACK,
    "compression": COMPRESS_TRACK,
}


def _thread_metadata(pid: int) -> List[Dict[str, Any]]:
    return [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }
        for tid, name in _TRACK_NAMES.items()
    ]


def execution_track_events(
    tracer: SpanTracer, pid: int = 0
) -> List[Dict[str, Any]]:
    """The gap-filled execution track: stalls where recorded, execute
    spans everywhere else, covering ``[0, total_cycles)`` exactly."""
    total = tracer.total_cycles or 0
    events: List[Dict[str, Any]] = []

    def emit(name: str, cat: str, start: int, dur: int) -> None:
        events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start,
            "dur": dur,
            "pid": pid,
            "tid": EXECUTION_TRACK,
        })

    cursor = 0
    # Stalls never overlap: each one advances the clock past itself.
    for start, dur, kind in sorted(tracer.stall_spans):
        if start > cursor:
            emit("execute", "execute", cursor, start - cursor)
        emit(f"stall:{kind}", "stall", start, dur)
        cursor = max(cursor, start + dur)
    if cursor < total:
        emit("execute", "execute", cursor, total - cursor)
    return events


def chrome_trace(
    tracer: SpanTracer,
    label: Optional[str] = None,
    pid: int = 0,
) -> Dict[str, Any]:
    """One run's tracer as a Chrome trace-event JSON object."""
    events = _thread_metadata(pid)
    events.append({
        "ph": "M",
        "name": "process_name",
        "pid": pid,
        "tid": 0,
        "args": {"name": label or tracer.program or f"run-{pid}"},
    })
    events.extend(execution_track_events(tracer, pid))
    for worker, unit_id, started, completes in tracer.worker_spans:
        events.append({
            "name": f"{worker} u{unit_id}",
            "cat": "background",
            "ph": "X",
            "ts": started,
            "dur": completes - started,
            "pid": pid,
            "tid": _WORKER_TRACKS.get(worker, DECOMPRESS_TRACK),
        })
    for at, kind, subject, detail in tracer.instants:
        events.append({
            "name": kind,
            "cat": "event",
            "ph": "i",
            "s": "t",
            "ts": max(at, 0),
            "pid": pid,
            "tid": EXECUTION_TRACK,
            "args": {"subject": subject, "detail": detail},
        })
    return {
        "traceEvents": events,
        "metadata": {
            "program": tracer.program,
            "phases": tracer.phases(),
            "counts": dict(tracer.counts),
            "dropped_spans": tracer.dropped_spans,
            "unit": "1 cycle = 1us of trace time",
        },
    }


def sink_chrome_trace(sink: TraceSink) -> Dict[str, Any]:
    """A whole sweep's sink as one trace: one process group per run."""
    events: List[Dict[str, Any]] = []
    for pid, tracer in enumerate(sink.tracers):
        events.extend(chrome_trace(tracer, pid=pid)["traceEvents"])
    return {
        "traceEvents": events,
        "metadata": {
            "runs": len(sink.tracers),
            "phases": sink.phases(),
            "unit": "1 cycle = 1us of trace time",
        },
    }


def chrome_trace_json(
    tracer: SpanTracer, label: Optional[str] = None
) -> str:
    """:func:`chrome_trace` rendered to a JSON string."""
    return json.dumps(chrome_trace(tracer, label=label), indent=1)
