"""Performance microbenchmarks: ``python -m repro.cli bench``.

Times the two hot paths this project optimises and verifies, while doing
so, that the fast paths are *exact*:

* **codec round-trips** — compress+decompress over a corpus of real
  block bytes and synthetic buffers, per codec.  The Huffman round-trip
  is additionally timed against the frozen seed implementation
  (:mod:`repro.compress.reference`) and the payloads are checked
  byte-for-byte.
* **E1 k-edge sweep** — the same (workload x k) grid run through the
  interpreting engine and the trace-replay engine
  (:func:`repro.analysis.sweep.sweep` with ``engine="trace"``), with
  every cell's metrics compared.

Results are written as ``BENCH_core.json`` (at the invoking directory's
root by default) so the performance trajectory is tracked PR-over-PR.
Any payload or metric mismatch marks the run failed — the ``verify``
make target treats that as a hard error.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..cfg import build_cfg
from ..compress.codec import get_codec
from ..compress.reference import (
    reference_huffman_compress,
    reference_huffman_decompress,
)
from ..compress.stats import block_bytes
from ..core.config import SimulationConfig
from ..workloads import generate_sized_program, get_workload
from .sweep import sweep

#: Codecs timed by the round-trip benchmark (self-contained formats).
BENCH_CODECS = ("huffman", "lzw", "lz77", "rle", "dictionary",
                "shared-dict", "shared-huffman")

#: Workloads whose encoded blocks form the benchmark corpus.
_CORPUS_WORKLOADS = ("composite", "dijkstra", "crc32")

#: Size of the synthetic whole-application buffer in the corpus (the
#: decompressor-sized input where the per-byte loops dominate).
_LARGE_BUFFER_BYTES = 16_000
_SMOKE_BUFFER_BYTES = 4_000

#: E1-style sweep grid used for the wall-clock comparison (a
#: representative slice of the E1 experiment suite).
_SWEEP_WORKLOADS = ("composite", "cold_paths", "dijkstra", "adpcm")
_SWEEP_K_VALUES = (1, 2, 4, 8, 16, 32, None)

#: Metrics every (machine, trace) cell pair must agree on exactly.
_COMPARED_METRICS = (
    "total_cycles", "execution_cycles", "average_footprint",
    "peak_footprint", "compressed_size", "uncompressed_size",
)
_COMPARED_COUNTERS = (
    "faults", "stalls", "stall_cycles", "decompressions",
    "recompressions", "patches", "evictions", "blocks_executed",
)


def _corpus(smoke: bool) -> List[bytes]:
    """Benchmark inputs: real block bytes plus whole-program buffers."""
    corpus: List[bytes] = []
    programs: List[bytes] = []
    for name in _CORPUS_WORKLOADS[: 1 if smoke else None]:
        cfg = build_cfg(get_workload(name).program)
        blocks = [block_bytes(block) for block in cfg.blocks]
        corpus.extend(blocks)
        programs.append(b"".join(blocks))
    # Whole-program buffers exercise the batch paths; block-sized
    # entries exercise per-call overhead.
    corpus.extend(programs)
    # One application-sized buffer of real ISA-encoded instructions —
    # the input size where per-byte loop cost dominates fixed cost.
    target = _SMOKE_BUFFER_BYTES if smoke else _LARGE_BUFFER_BYTES
    big = generate_sized_program(seed=7, target_bytes=target)
    corpus.append(b"".join(
        block_bytes(block) for block in build_cfg(big).blocks
    ))
    return corpus


def _time(action: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``action``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def bench_huffman_roundtrip(smoke: bool = False) -> Dict[str, object]:
    """Huffman round-trip: batched/table-driven vs. the seed code.

    Also asserts the compressed payloads are byte-identical; a mismatch
    is reported in the result and fails the benchmark run.
    """
    corpus = _corpus(smoke)
    codec = get_codec("huffman")
    payloads_equal = all(
        codec.compress(data) == reference_huffman_compress(data)
        and codec.decompress(codec.compress(data)) == data
        for data in corpus
    )
    repeats = 2 if smoke else 5

    def fast() -> None:
        for data in corpus:
            codec.decompress(codec.compress(data))

    def reference() -> None:
        for data in corpus:
            reference_huffman_decompress(reference_huffman_compress(data))

    fast_s = _time(fast, repeats)
    reference_s = _time(reference, repeats)
    return {
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s if fast_s else float("inf"),
        "payloads_byte_identical": payloads_equal,
        "corpus_buffers": len(corpus),
        "corpus_bytes": sum(len(d) for d in corpus),
    }


def bench_codec_roundtrips(smoke: bool = False) -> Dict[str, Dict[str, float]]:
    """Round-trip throughput for every benchmarked codec."""
    corpus = _corpus(smoke)
    total_bytes = sum(len(d) for d in corpus)
    repeats = 1 if smoke else 3
    out: Dict[str, Dict[str, float]] = {}
    for name in BENCH_CODECS:
        codec = get_codec(name)

        def roundtrip() -> None:
            for data in corpus:
                codec.decompress(codec.compress(data))

        seconds = _time(roundtrip, repeats)
        out[name] = {
            "seconds": seconds,
            "mb_per_s": (total_bytes / 1e6) / seconds if seconds else 0.0,
        }
    return out


def bench_manager_loop(smoke: bool = False) -> Dict[str, object]:
    """Manager-loop cost: one default-config interpreted simulation.

    Times the orchestrator core (timing + residency subsystems plus the
    interpreting machine) on a fixed workload, reporting blocks and
    cycles simulated per wall-clock second — the number that makes a
    manager-loop regression visible PR-over-PR in BENCH_core.json.
    ``pre-single``/``pre-all`` time the same workload and k under the
    pre-decompression strategies (recorded numbers, no gate).
    """
    from ..core.manager import CodeCompressionManager

    cfg = build_cfg(get_workload("composite").program)
    repeats = 2 if smoke else 5

    def measure(decompression: str) -> Dict[str, object]:
        config = SimulationConfig(
            codec="shared-dict", decompression=decompression,
            k_compress=4, record_trace=False,
        )
        # Warm the shared compression artifacts so the loop, not codec
        # training, is what gets timed.
        result = CodeCompressionManager(cfg, config).run()
        seconds = _time(
            lambda: CodeCompressionManager(cfg, config).run(), repeats
        )
        blocks = result.counters.blocks_executed
        return {
            "blocks_executed": blocks,
            "total_cycles": result.total_cycles,
            "seconds": seconds,
            "blocks_per_s": blocks / seconds if seconds else float("inf"),
        }

    return {
        "workload": "composite", **measure("ondemand"),
        **{name: measure(name) for name in ("pre-single", "pre-all")},
    }


def _sweep_configs() -> List[SimulationConfig]:
    return [
        SimulationConfig(codec="shared-dict", decompression="ondemand",
                         k_compress=k)
        for k in _SWEEP_K_VALUES
    ]


def _metrics_equal(left, right) -> bool:
    """Exact equality of the compared metrics of two results."""
    return all(
        getattr(left, metric) == getattr(right, metric)
        for metric in _COMPARED_METRICS
    ) and all(
        getattr(left.counters, counter) == getattr(
            right.counters, counter
        )
        for counter in _COMPARED_COUNTERS
    )


def _results_equal(machine_runs, trace_runs) -> bool:
    """Cell-by-cell metric equality between the two sweep engines."""
    if len(machine_runs) != len(trace_runs):
        return False
    return all(
        _metrics_equal(left.result, right.result)
        for left, right in zip(machine_runs, trace_runs)
    )


def bench_e1_sweep(smoke: bool = False) -> Dict[str, object]:
    """E1 k-edge sweep: interpreting engine vs. trace-replay engine."""
    workloads = [
        get_workload(name)
        for name in _SWEEP_WORKLOADS[: 1 if smoke else None]
    ]
    configs = _sweep_configs()
    if smoke:
        configs = configs[:3]
    repeats = 1 if smoke else 2

    machine_result = sweep(workloads, configs, engine="machine")
    trace_result = sweep(workloads, configs, engine="trace")
    metrics_equal = _results_equal(machine_result.runs, trace_result.runs)

    machine_s = _time(
        lambda: sweep(workloads, configs, engine="machine"), repeats
    )
    trace_s = _time(
        lambda: sweep(workloads, configs, engine="trace"), repeats
    )
    return {
        "workloads": [w.name for w in workloads],
        "cells": len(configs) * len(workloads),
        "machine_s": machine_s,
        "trace_s": trace_s,
        "speedup": machine_s / trace_s if trace_s else float("inf"),
        "metrics_equal": metrics_equal,
    }


def bench_chaos_overhead(smoke: bool = False) -> Dict[str, object]:
    """Fault-free cost of the fault-tolerance layer: must be < 2%.

    Times the same partition sweep with no retry policy (the seed
    path) and with an armed ``RetryPolicy`` (per-cell deadlines and
    the injection hooks active, but no plan installed, so nothing
    fires).  The guard keeps the robustness layer honest: chaos
    machinery must cost nothing when chaos is off.  Interleaved
    best-of-``repeats`` timing cancels drift between the two paths.
    """
    from ..api.executor import run_partition
    from ..faults.plan import FAULTS_ENV
    from ..faults.retry import RetryPolicy

    workload = get_workload("composite")
    configs = _sweep_configs()[:3]
    policy = RetryPolicy(attempts=3, timeout=60.0)
    repeats = 3 if smoke else 5
    # An inherited $REPRO_FAULTS would make the "fault-free" claim a
    # lie; measure with chaos genuinely off.
    previous = os.environ.pop(FAULTS_ENV, None)
    try:
        plain = armed = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            run_partition(workload, configs, "machine", None)
            plain = min(plain, time.perf_counter() - started)
            started = time.perf_counter()
            run_partition(workload, configs, "machine", None,
                          policy)
            armed = min(armed, time.perf_counter() - started)
    finally:
        if previous is not None:
            os.environ[FAULTS_ENV] = previous
    overhead = (armed - plain) / plain if plain else 0.0
    return {
        "cells": len(configs),
        "plain_s": plain,
        "armed_s": armed,
        "overhead": overhead,
        "within_budget": overhead < 0.02,
    }


def bench_trace_overhead(smoke: bool = False) -> Dict[str, object]:
    """Cost of the span-tracing hooks: < 2% dormant, bounded armed.

    Three interleaved timings of the same partition sweep: **bare**
    (the :class:`~repro.core.timing.TimingModel` hook-bearing methods
    temporarily replaced with hook-free copies — what the code would
    cost if the tracing hooks did not exist), **off** (the shipped
    code, hooks dormant on ``NULL_TRACER`` — the default every user
    runs), and **armed** (a live :class:`~repro.obs.SpanTracer` via
    :func:`~repro.obs.tracing_scope`).  The dormant overhead is the
    headline guard — observability must be free when off; the armed
    overhead is loosely bounded so a pathological tracer regression
    still fails the run.
    """
    from ..api.executor import run_partition
    from ..core.timing import TimingModel
    from ..obs.tracer import TraceSink, tracing_scope

    workload = get_workload("composite")
    configs = _sweep_configs()[:3]
    repeats = 3 if smoke else 5

    def bare_stall(self, cycles, *, count_stall=True,
                   kind="decompress"):
        self.now += cycles
        self.counters.stall_cycles += cycles
        if count_stall:
            self.counters.stalls += 1

    def bare_schedule_decompression(self, unit_id, latency):
        job = self.decompress_worker.schedule(
            self.now, unit_id, latency
        )
        self.counters.background_decompress_cycles += job.latency
        return job

    def bare_cancel_decompression(self, unit_id):
        self.decompress_worker.cancel(unit_id, self.now)

    def bare_schedule_patches(self, unit_id, cycles):
        self.compress_worker.schedule(self.now, unit_id, cycles)
        self.compress_worker.retire_completed(self.now)

    bare_methods = {
        "stall": bare_stall,
        "schedule_decompression": bare_schedule_decompression,
        "cancel_decompression": bare_cancel_decompression,
        "schedule_patches": bare_schedule_patches,
    }
    originals = {
        name: getattr(TimingModel, name) for name in bare_methods
    }
    bare_s = off_s = armed_s = float("inf")
    sink = TraceSink(keep_spans=False)
    for _ in range(repeats):
        try:
            for name, method in bare_methods.items():
                setattr(TimingModel, name, method)
            started = time.perf_counter()
            run_partition(workload, configs, "machine", None)
            bare_s = min(bare_s, time.perf_counter() - started)
        finally:
            for name, method in originals.items():
                setattr(TimingModel, name, method)
        started = time.perf_counter()
        run_partition(workload, configs, "machine", None)
        off_s = min(off_s, time.perf_counter() - started)
        started = time.perf_counter()
        with tracing_scope(sink):
            run_partition(workload, configs, "machine", None)
        armed_s = min(armed_s, time.perf_counter() - started)
    disabled = (off_s - bare_s) / bare_s if bare_s else 0.0
    armed = (armed_s - bare_s) / bare_s if bare_s else 0.0
    return {
        "cells": len(configs),
        "bare_s": bare_s,
        "off_s": off_s,
        "armed_s": armed_s,
        "disabled_overhead": disabled,
        "armed_overhead": armed,
        "within_budget": disabled < 0.02 and armed < 0.5,
    }


def bench_trace_replay_batched(smoke: bool = False) -> Dict[str, object]:
    """Batched trace-replay kernel vs. interpreting the same cell.

    Records one block trace of the ``composite`` workload, then times
    replaying it through :func:`~repro.runtime.trace_sim.simulate_trace`
    (which runs inside the batched kernel's envelope —
    :mod:`repro.core.replay`) against interpreting the identical
    configuration from scratch.  The replayed metrics must match the
    interpreted ones exactly, and the speedup carries an explicit
    regression floor (``within_budget``) so a kernel slowdown — or a
    silent fall-off from the batched envelope back to the per-block
    path — fails the run.
    """
    from ..core.manager import CodeCompressionManager
    from ..runtime.trace_sim import PreparedTrace, simulate_trace

    graph = build_cfg(get_workload("composite").program)
    recording = SimulationConfig(decompression="none", record_trace=True)
    recorded = CodeCompressionManager(graph, recording).run()
    prepared = PreparedTrace(graph, recorded.block_trace)
    config = SimulationConfig(
        codec="shared-dict", decompression="ondemand", k_compress=4,
        record_trace=False,
    )
    # One warm pass each: codec training and compression artifacts are
    # shared, so the timed loops measure the engines, not the caches.
    interpreted = CodeCompressionManager(graph, config).run()
    replayed = simulate_trace(graph, prepared, config)
    metrics_equal = _metrics_equal(interpreted, replayed)

    repeats = 2 if smoke else 5
    replay_s = _time(
        lambda: simulate_trace(graph, prepared, config), repeats
    )
    machine_s = _time(
        lambda: CodeCompressionManager(graph, config).run(), repeats
    )
    blocks = replayed.counters.blocks_executed
    speedup = machine_s / replay_s if replay_s else float("inf")
    return {
        "workload": "composite",
        "blocks_replayed": blocks,
        "replay_s": replay_s,
        "machine_s": machine_s,
        "blocks_per_s": blocks / replay_s if replay_s else float("inf"),
        "speedup": speedup,
        "metrics_equal": metrics_equal,
        "within_budget": speedup >= 5.0,
    }


def bench_bitio_bulk(smoke: bool = False) -> Dict[str, object]:
    """Bulk ``write_run``/``read_run`` vs. scalar per-field bit I/O.

    Streams a fixed corpus of 11-bit fields (an LZW-like width) through
    the word-at-a-time bulk paths and through per-field
    ``write_bits``/``read_bits`` loops.  The bit streams and decoded
    values must be identical, and the bulk paths carry an explicit
    speedup floor (``within_budget``) as the regression guard.
    """
    import random

    from ..compress.bitio import BitReader, BitWriter

    width = 11
    count = 5_000 if smoke else 50_000
    rng = random.Random(11)
    values = [rng.getrandbits(width) for _ in range(count)]

    writer = BitWriter()
    writer.write_run(values, width)
    payload = writer.getvalue()
    scalar_writer = BitWriter()
    for value in values:
        scalar_writer.write_bits(value, width)
    identical = (
        scalar_writer.getvalue() == payload
        and BitReader(payload).read_run(width, count) == values
    )

    def bulk() -> None:
        out = BitWriter()
        out.write_run(values, width)
        BitReader(out.getvalue()).read_run(width, count)

    def scalar() -> None:
        out = BitWriter()
        write_bits = out.write_bits
        for value in values:
            write_bits(value, width)
        reader = BitReader(out.getvalue())
        read_bits = reader.read_bits
        for _ in range(count):
            read_bits(width)

    repeats = 3 if smoke else 5
    bulk_s = _time(bulk, repeats)
    scalar_s = _time(scalar, repeats)
    speedup = scalar_s / bulk_s if bulk_s else float("inf")
    return {
        "fields": count,
        "width": width,
        "bulk_s": bulk_s,
        "scalar_s": scalar_s,
        "speedup": speedup,
        "identical": identical,
        "within_budget": speedup >= 2.0,
    }


def bench_pipeline(smoke: bool = False) -> Dict[str, object]:
    """Layered-pipeline overhead vs. its flat entropy stage.

    Round-trips the benchmark corpus through ``delta|huffman`` and
    through flat ``huffman``: the transform layer must be lossless on
    every input, and the composed encode+decode wall clock must stay
    within 2.5x of the flat codec (``within_budget``) — the layering
    machinery (transport header, transform passes) is bookkeeping, not
    a second compressor, and this floor keeps it that way.
    """
    corpus = _corpus(smoke)
    flat = get_codec("huffman")
    pipe = get_codec("delta|huffman")
    identical = all(
        pipe.decompress(pipe.compress(data)) == data for data in corpus
    )

    def roundtrip(codec) -> None:
        for data in corpus:
            codec.decompress(codec.compress(data))

    repeats = 3 if smoke else 5
    flat_s = _time(lambda: roundtrip(flat), repeats)
    pipe_s = _time(lambda: roundtrip(pipe), repeats)
    overhead = pipe_s / flat_s if flat_s else float("inf")
    return {
        "pipeline": pipe.name,
        "entropy": "huffman",
        "inputs": len(corpus),
        "flat_s": flat_s,
        "pipeline_s": pipe_s,
        "overhead_x": overhead,
        "lossless": identical,
        "within_budget": overhead <= 2.5,
    }


def bench_service_cached_rps(smoke: bool = False) -> Dict[str, object]:
    """Cached-submit throughput of the sweep service: must be ≥ 1000/s.

    Boots a real :class:`~repro.service.app.ServerThread` on a
    throwaway store, computes one small sweep, then hammers the same
    spec over a single keep-alive connection.  Every request after the
    first is a dedup hit (``job_key`` match → the finished job), so
    this times the full HTTP + spec-validation + dedup fast path —
    the budget keeps the service viable as a shared cache front-end.
    """
    import shutil
    import tempfile

    from ..service import ServerThread, ServiceClient

    spec = {
        "name": "bench-service",
        "workloads": ["fib"],
        "base": {"codec": "shared-dict", "decompression": "ondemand"},
        "axes": {"grid": {"k_compress": [1, "inf"]}},
        "engine": "trace",
    }
    requests = 300 if smoke else 2000
    root = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        with ServerThread(store=root) as server:
            client = ServiceClient(server.host, server.port)
            reply = client.submit(spec)
            client.wait(reply["job"], timeout=300.0)
            client.submit(spec)  # warm the dedup + keep-alive path
            started = time.perf_counter()
            for _ in range(requests):
                client.submit(spec)
            elapsed = time.perf_counter() - started
            client.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    rps = requests / elapsed if elapsed else float("inf")
    return {
        "requests": requests,
        "seconds": elapsed,
        "cached_rps": rps,
        "within_budget": rps >= 1000.0,
    }


#: Named benchmark registry (``--only NAME`` accepts these).  The key is
#: both the CLI name and the report section the result lands under.
BENCHMARKS: Dict[str, Callable[[bool], Dict[str, object]]] = {
    "huffman_roundtrip": bench_huffman_roundtrip,
    "codec_roundtrips": bench_codec_roundtrips,
    "e1_sweep": bench_e1_sweep,
    "manager_loop": bench_manager_loop,
    "chaos_overhead": bench_chaos_overhead,
    "trace_overhead": bench_trace_overhead,
    "trace_replay_batched": bench_trace_replay_batched,
    "bitio_bulk": bench_bitio_bulk,
    "bench_pipeline": bench_pipeline,
    "bench_service_cached_rps": bench_service_cached_rps,
}

#: Per-benchmark exactness/budget gates folded into ``report["ok"]``.
#: A gate sees its (merged) section dict; absent sections (``--only``
#: runs) simply contribute no gate.
_GATES: Dict[str, Callable[[Dict[str, object]], bool]] = {
    "huffman_roundtrip": lambda r: bool(r["payloads_byte_identical"]),
    "e1_sweep": lambda r: bool(r["metrics_equal"]),
    "chaos_overhead": lambda r: bool(r["within_budget"]),
    "trace_overhead": lambda r: bool(r["within_budget"]),
    "trace_replay_batched": lambda r: (
        bool(r["metrics_equal"]) and bool(r["within_budget"])
    ),
    "bitio_bulk": lambda r: (
        bool(r["identical"]) and bool(r["within_budget"])
    ),
    "bench_pipeline": lambda r: (
        bool(r["lossless"]) and bool(r["within_budget"])
    ),
    "bench_service_cached_rps": lambda r: bool(r["within_budget"]),
}


def _merge_repeats(samples: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold ``--repeat N`` samples of one benchmark into one section.

    Numeric fields take the median across runs (the reported timing is
    the median-of-N), booleans AND together (every run must pass its
    exactness check), nested dicts merge recursively, and anything else
    keeps the first run's value.
    """
    first = samples[0]
    if len(samples) == 1:
        return dict(first)
    merged: Dict[str, object] = {}
    for key, value in first.items():
        values = [sample[key] for sample in samples]
        if isinstance(value, bool):
            merged[key] = all(values)
        elif isinstance(value, (int, float)):
            merged[key] = statistics.median(values)
        elif isinstance(value, dict):
            merged[key] = _merge_repeats(values)
        else:
            merged[key] = value
    return merged


def run_benchmarks(
    smoke: bool = False,
    only: Optional[str] = None,
    repeat: int = 1,
) -> Dict[str, object]:
    """Run the benchmark suite and return the report dict.

    ``only`` restricts the run to one :data:`BENCHMARKS` entry (for
    iterating on a single benchmark during perf work); ``repeat`` runs
    each selected benchmark N times and reports the median-of-N (see
    :func:`_merge_repeats`).  ``report["ok"]`` is False when any gate of
    a *selected* benchmark failed — payload mismatch, engine metric
    divergence, a blown overhead budget, or a speedup under its
    regression floor.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if only is not None and only not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark '{only}'; available: "
            f"{', '.join(BENCHMARKS)}"
        )
    names = [only] if only is not None else list(BENCHMARKS)
    report: Dict[str, object] = {
        "schema": "bench_core/v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "smoke": smoke,
        "repeat": repeat,
    }
    ok = True
    for name in names:
        section = _merge_repeats(
            [BENCHMARKS[name](smoke) for _ in range(repeat)]
        )
        report[name] = section
        gate = _GATES.get(name)
        if gate is not None:
            ok = ok and bool(gate(section))
    report["ok"] = ok
    return report


def write_report(
    report: Dict[str, object], output: Optional[Path] = None
) -> Path:
    """Write ``report`` as JSON (default: ``BENCH_core.json`` in cwd)."""
    path = Path(output) if output is not None else Path("BENCH_core.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def render_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a (possibly ``--only``-filtered)
    benchmark report."""
    lines: List[str] = []
    huffman = report.get("huffman_roundtrip")
    codecs = report.get("codec_roundtrips")
    if codecs and huffman:
        lines.append(
            "codec round-trips"
            f" ({huffman['corpus_buffers']} buffers,"
            f" {huffman['corpus_bytes']} bytes):"
        )
    elif codecs:
        lines.append("codec round-trips:")
    for name, stats in (codecs or {}).items():
        lines.append(
            f"  {name:14s} {stats['seconds'] * 1000:8.1f} ms"
            f"  ({stats['mb_per_s']:6.2f} MB/s)"
        )
    if huffman:
        lines.append(
            f"huffman vs seed: {huffman['fast_s'] * 1000:.1f} ms vs "
            f"{huffman['reference_s'] * 1000:.1f} ms "
            f"-> {huffman['speedup']:.2f}x "
            f"(payloads identical: {huffman['payloads_byte_identical']})"
        )
    e1 = report.get("e1_sweep")
    if e1:
        lines.append(
            f"E1 sweep ({', '.join(e1['workloads'])}; "
            f"{e1['cells']} cells): "
            f"machine {e1['machine_s'] * 1000:.0f} ms vs trace "
            f"{e1['trace_s'] * 1000:.0f} ms -> {e1['speedup']:.2f}x "
            f"(metrics equal: {e1['metrics_equal']})"
        )
    replay = report.get("trace_replay_batched")
    if replay:
        lines.append(
            f"batched replay ({replay['workload']}; "
            f"{replay['blocks_replayed']} blocks): "
            f"{replay['replay_s'] * 1000:.1f} ms vs machine "
            f"{replay['machine_s'] * 1000:.1f} ms -> "
            f"{replay['speedup']:.1f}x "
            f"({replay['blocks_per_s']:,.0f} blocks/s; "
            f"metrics equal: {replay['metrics_equal']}; "
            f"floor >= 5x: {replay['within_budget']})"
        )
    bitio = report.get("bitio_bulk")
    if bitio:
        lines.append(
            f"bitio bulk ({bitio['fields']} x {bitio['width']}-bit "
            f"fields): {bitio['bulk_s'] * 1000:.2f} ms vs scalar "
            f"{bitio['scalar_s'] * 1000:.2f} ms -> "
            f"{bitio['speedup']:.1f}x "
            f"(streams identical: {bitio['identical']}; "
            f"floor >= 2x: {bitio['within_budget']})"
        )
    loop = report.get("manager_loop")
    if loop:
        lines.append(
            f"manager loop ({loop['workload']}; "
            f"{loop['blocks_executed']} blocks): "
            f"{loop['seconds'] * 1000:.1f} ms "
            f"({loop['blocks_per_s']:,.0f} blocks/s)"
        )
        for name in ("pre-single", "pre-all"):
            if name in loop:
                lines.append(
                    f"  {name}: {loop[name]['blocks_per_s']:,.0f} blocks/s"
                )
    chaos = report.get("chaos_overhead")
    if chaos:
        lines.append(
            f"chaos off-path overhead ({chaos['cells']} cells): "
            f"{chaos['plain_s'] * 1000:.1f} ms plain vs "
            f"{chaos['armed_s'] * 1000:.1f} ms armed -> "
            f"{chaos['overhead'] * 100:+.2f}% "
            f"(budget < 2%: {chaos['within_budget']})"
        )
    tracing = report.get("trace_overhead")
    if tracing:
        lines.append(
            f"trace hook overhead ({tracing['cells']} cells): "
            f"{tracing['bare_s'] * 1000:.1f} ms bare vs "
            f"{tracing['off_s'] * 1000:.1f} ms dormant "
            f"({tracing['disabled_overhead'] * 100:+.2f}%) vs "
            f"{tracing['armed_s'] * 1000:.1f} ms armed "
            f"({tracing['armed_overhead'] * 100:+.2f}%) "
            f"(budget < 2% dormant: {tracing['within_budget']})"
        )
    pipeline = report.get("bench_pipeline")
    if pipeline:
        lines.append(
            f"pipeline {pipeline['pipeline']} "
            f"({pipeline['inputs']} inputs): "
            f"{pipeline['pipeline_s'] * 1000:.1f} ms vs flat "
            f"{pipeline['entropy']} {pipeline['flat_s'] * 1000:.1f} ms "
            f"-> {pipeline['overhead_x']:.2f}x "
            f"(lossless: {pipeline['lossless']}; "
            f"budget <= 2.5x: {pipeline['within_budget']})"
        )
    service = report.get("bench_service_cached_rps")
    if service:
        lines.append(
            f"service cached submits ({service['requests']} requests): "
            f"{service['seconds'] * 1000:.0f} ms -> "
            f"{service['cached_rps']:,.0f} req/s "
            f"(budget >= 1000/s: {service['within_budget']})"
        )
    lines.append(f"ok: {report['ok']}")
    return "\n".join(lines)
