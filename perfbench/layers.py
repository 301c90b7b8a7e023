"""Per-layer host-time tracing for the traced benchmark run.

Every layer boundary is a public function or method of the simulator,
wrapped from the outside at the name its caller looks up (a function
imported by name into another module is patched in *that* module).
The wrappers keep a stack of open spans, so a layer's **self time** is
its span's duration minus the part covered by nested (child) spans.
Nothing is written per call: self time and counts are aggregated in
memory and read out once per pass.

Wrappers are installed before the process pool of ``store_mixed``
forks, so pool workers inherit them.  A worker resets its clock when a
partition starts and spools that partition's totals to a JSON file in
the run's spool directory when it ends; the parent merges the files
after each pass.  Self times from the two pool workers are therefore
summed across processes, and the parent's executor self time includes
the wall-clock it spends waiting for the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Attribute set on every installed wrapper; the untraced run asserts
#: that no target carries it.
MARK = "__perfbench_layer__"


class LayerClock:
    """In-memory span stack plus per-layer self time and counts."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spool_dir: Optional[str] = None
        self._spooled = 0
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.partitions: List[float] = []
        self._stack: List[float] = []
        self._opaque = 0

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "partitions": list(self.partitions),
        }

    def merge(self, snap: dict) -> None:
        for layer, value in snap["self_s"].items():
            self.self_s[layer] += value
        for name, value in snap["counts"].items():
            self.counts[name] += value
        self.partitions.extend(snap["partitions"])

    def merge_spool(self) -> None:
        """Fold in (and delete) what pool workers spooled."""
        if not self.spool_dir or not os.path.isdir(self.spool_dir):
            return
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as handle:
                self.merge(json.load(handle))
            os.unlink(path)

    def _spool(self) -> None:
        self._spooled += 1
        path = os.path.join(
            self.spool_dir, f"{os.getpid()}-{self._spooled}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)

    def span(
        self,
        fn: Callable,
        layer: str,
        count: Optional[str] = None,
        hook: Optional[Callable] = None,
        opaque: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer``.

        ``count`` names a counter bumped per call; ``hook(clock, args,
        result)`` derives further counts from the call; an ``opaque``
        span charges everything inside it to its own layer.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if clock._opaque:
                return fn(*args, **kwargs)
            stack = clock._stack
            stack.append(0.0)
            if opaque:
                clock._opaque += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if opaque:
                    clock._opaque -= 1
                clock.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                clock.counts[count] += 1
            if hook is not None:
                hook(clock, args, result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def partition_span(self, fn: Callable) -> Callable:
        """The executor's partition entry point: a normal span in this
        process, a reset-run-spool cycle in a forked pool worker."""
        clock = self
        inner = self.span(fn, "executor.run")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = os.getpid() != clock.pid
            if in_worker:
                clock.reset()
            started = time.perf_counter()
            result = inner(*args, **kwargs)
            clock.partitions.append(time.perf_counter() - started)
            if in_worker:
                clock._spool()
            return result

        setattr(wrapper, MARK, "executor.run")
        return wrapper


def _count_true(name: str) -> Callable:
    def hook(clock, args, result):
        if result:
            clock.counts[name] += 1
    return hook


def _count_not_none(name: str) -> Callable:
    def hook(clock, args, result):
        if result is not None:
            clock.counts[name] += 1
    return hook


def _count_bytes(clock, args, result):
    clock.counts["store.bytes_written"] += len(args[1])


def targets(clock: LayerClock):
    """``(owner, attribute, wrapper factory)`` for every boundary.

    Imports happen here, after the caller has put the program on the
    import path.
    """
    from repro import api
    sweep = importlib.import_module("repro.analysis.sweep")
    from repro.api import executor, results
    from repro.cfg import builder
    from repro.core import manager, residency, timing
    from repro.memory import allocator, image
    from repro.runtime import machine, threads, trace_sim
    from repro.selection import assignment
    from repro.store import cas
    from repro.store import executor as store_executor
    from repro.strategies import predictor
    from repro.workloads import generators, suite

    def span(layer, **kw):
        return lambda fn: clock.span(fn, layer, **kw)

    def methods(cls, names, layer, **kw):
        return [(cls, name, span(layer, **kw)) for name in names]

    out = [
        # workloads / cfg / image / selection: what set-up pays for
        (generators, "generate_sized_program", span("workloads.generate")),
        (suite, "get_workload", span("workloads.generate")),
        (executor, "get_workload", span("workloads.generate")),
        (store_executor, "get_workload", span("workloads.generate")),
        (builder, "build_cfg", span("cfg.build")),
        (residency, "compression_artifacts", span("image.compress")),
        (residency, "assignment_artifacts", span("image.compress")),
        (assignment, "compression_artifacts", span("image.compress")),
        (image.ArtifactCache, "get", span(
            "image.compress", count="image.artifact_lookups",
            hook=_count_not_none("image.artifact_hits"))),
        (residency, "build_assignment", span("selection.assign")),
        # A trace recording interprets the program once; it is charged
        # whole to trace preparation, so machine time means
        # interpretation inside grid cells.
        (sweep, "_recorded_trace", span("trace_sim.prepare",
                                        opaque=True)),
        *methods(trace_sim.PreparedTrace, ("__init__", "plan"),
                 "trace_sim.prepare"),
        (sweep, "simulate_trace", span("trace_sim.replay")),
        *methods(trace_sim.TraceMachine, ("__init__", "run_block"),
                 "trace_sim.replay"),
        # the simulation core
        (manager, "try_batched_replay", span(
            "replay.batched", count="replay.batched_calls",
            hook=_count_true("replay.batched_accepted"))),
        *methods(manager.CodeCompressionManager, ("__init__", "run"),
                 "manager.run"),
        (manager, "make_predictor", span("predictor")),
        (residency.ResidencySubsystem, "materialise_unit", span(
            "residency", count="residency.materialise_calls")),
        (residency.ResidencySubsystem, "release_unit", span(
            "residency", count="residency.release_calls")),
        *methods(residency.ResidencySubsystem, (
            "__init__", "enforce_budget", "schedule_predecompression",
            "sample_footprint", "mark_used", "charge_uncompressed_entry",
            "replay_geometry",
        ), "residency"),
        *methods(timing.TimingModel, (
            "__init__", "advance_execution", "stall", "wait_until",
            "schedule_decompression", "cancel_decompression",
            "retire_decompressions", "schedule_patches",
            "decompression_backlog", "absorb_replay", "finalize",
        ), "timing", count="timing.calls"),
        (threads.BackgroundWorker, "schedule", span(
            "threads", count="threads.scheduled")),
        (threads.BackgroundWorker, "cancel", span(
            "threads", hook=_count_not_none("threads.cancelled"))),
        *methods(threads.BackgroundWorker, (
            "absorb_jobs", "completion_time", "is_pending",
            "retire_completed", "pending_jobs", "backlog",
            "contention_cycles",
        ), "threads"),
        (machine.Machine, "run_block", span("machine")),
        *methods(allocator.FreeListAllocator, (
            "allocate", "free", "compact",
        ), "allocator", count="allocator.calls"),
        # store / executor / result set
        (store_executor, "plan_cells", span("store.plan")),
        *methods(cas.ExperimentStore, ("get_artifact_bundle",),
                 "store.read"),
        (cas.ExperimentStore, "get_cell", span(
            "store.read", count="store.lookups",
            hook=_count_not_none("store.hits"))),
        (store_executor, "record_to_run", span("store.read")),
        *methods(cas.ExperimentStore, (
            "put_cell", "put_artifact_bundle", "add_usage",
        ), "store.write"),
        (store_executor, "run_to_record", span("store.write")),
        (cas, "_atomic_write", span("store.write", hook=_count_bytes)),
        (api, "make_executor", span("executor.run")),
        *methods(store_executor.CachingExecutor, ("run",),
                 "executor.run"),
        *methods(executor.SerialExecutor, ("run",), "executor.run"),
        *methods(executor.ParallelExecutor, ("run",), "executor.run"),
        (executor, "run_partition", clock.partition_span),
        *methods(results.ResultSet, (
            "__init__", "to_dict", "canonical_json",
        ), "results.build"),
    ]
    for cls in vars(predictor).values():
        if (isinstance(cls, type) and issubclass(cls, predictor.Predictor)
                and cls.__module__ == predictor.__name__):
            for name in ("bind", "predict", "update", "predict_path"):
                if name in vars(cls):
                    out.append((cls, name, span(
                        "predictor", count="predictor.calls")))
    return out


class Tracing:
    """Installs the wrappers on entry and restores the originals on
    exit; the same object can be entered repeatedly."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: List[tuple] = []

    def __enter__(self) -> LayerClock:
        for owner, name, factory in targets(self.clock):
            original = vars(owner)[name]
            if hasattr(original, MARK):
                raise RuntimeError(f"{owner!r}.{name} is already traced")
            if not inspect.isfunction(original):
                # A property or staticmethod would change meaning once
                # replaced by a plain function.
                raise TypeError(f"{owner!r}.{name} is not a function")
            self._saved.append((owner, name, original))
            setattr(owner, name, factory(original))
        return self.clock

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def installed() -> List[str]:
    """``owner.attribute`` of every boundary that carries a wrapper
    right now (empty whenever tracing is off)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _ in targets(LayerClock())
        if hasattr(vars(owner)[name], MARK)
    ]
