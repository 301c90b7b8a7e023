#!/usr/bin/env python3
"""Suite-grid benchmark for the code-compression simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_ondemand --seed 1 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` reports the end-to-end metrics: set-up time, median warm
pass time over the workload's grid, peak host memory and the simulated
cost and saving.  ``--trace 1`` reports host self time and counts per
simulator layer from a separate run with the layer wrappers of
``layers.py`` installed.  Every pass is checked: each cell's oracle,
and the digest of the pass's simulated statistics against
``expected.json``.  Any failure makes the command exit nonzero.  The
last line of standard output is one JSON object with the result.
See README.md in this directory for how to read the numbers.
"""

from __future__ import annotations

import time

#: ``setup_s`` counts from here, the earliest point the script controls.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Variables that would make a run depend on the caller's environment:
#: a user store, store salt, fault injection, sharded replay, or an
#: artifact store inherited from a parent sweep.
HERMETIC_ENV = ("REPRO_STORE_DIR", "REPRO_STORE_SALT", "REPRO_FAULTS",
                "REPRO_REPLAY_SHARDS", "REPRO_STORE_ARTIFACTS")

#: Set-ups per run (one in this process, the rest in fresh processes);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Share of ``--seconds`` spent on untraced passes in a traced run.
UNTRACED_SHARE = 1 / 3

#: Per-layer self time per pass: metric -> layer.
PASS_LAYERS = {
    "replay.batched_s": "replay.batched",
    "manager.run_s": "manager.run",
    "trace_sim.replay_s": "trace_sim.replay",
    "residency.s": "residency",
    "timing.s": "timing",
    "threads.s": "threads",
    "predictor.s": "predictor",
    "machine.s": "machine",
    "allocator.s": "allocator",
    "selection.assign_s": "selection.assign",
    "store.plan_s": "store.plan",
    "store.read_s": "store.read",
    "store.write_s": "store.write",
    "executor.run_s": "executor.run",
    "results.build_s": "results.build",
}

#: Per-layer self time of one set-up plus one pass: metric -> layer.
SETUP_LAYERS = {
    "workloads.generate_s": "workloads.generate",
    "cfg.build_s": "cfg.build",
    "image.compress_s": "image.compress",
    "trace_sim.prepare_s": "trace_sim.prepare",
}

#: Wrapper counts per pass.
PASS_COUNTS = (
    "replay.batched_calls", "residency.materialise_calls",
    "residency.release_calls", "timing.calls", "threads.scheduled",
    "threads.cancelled", "predictor.calls", "allocator.calls",
    "store.bytes_written",
)

#: Simulated counters summed over a pass's cells: metric -> field.
SIM_COUNTERS = {
    "sim.blocks": "blocks_executed",
    "sim.faults": "faults",
    "sim.stall_cycles": "stall_cycles",
    "sim.decompressions": "decompressions",
    "sim.recompressions": "recompressions",
    "sim.evictions": "evictions",
    "sim.wasted_decompressions": "wasted_decompressions",
    "sim.dropped_prefetches": "dropped_prefetches",
    "sim.target_memory_bytes": "target_memory_bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in this fresh process, print the "
                             "set-up time and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate and the wrappers, then exit")
    args = parser.parse_args(argv)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    return args


def hermetic_env() -> None:
    for var in HERMETIC_ENV:
        os.environ.pop(var, None)


def import_program() -> None:
    """Put this checkout's simulator on the path, and refuse any other."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no simulator sources under {SRC}; run this from a "
            f"full checkout of the repository"
        )
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SystemExit(f"error: imported repro from {where}, not {SRC}")


def jobs_cap() -> int:
    """Pool size for the parallel workload: 2, or fewer cores."""
    return max(1, min(2, os.cpu_count() or 1))


def run_passes(workload, seconds, want, tally) -> None:
    """Timed warm passes, at least one, until ``seconds`` have gone by;
    each is timed into ``tally`` and gated."""
    prepare = getattr(workload, "prepare_pass", None)
    started = time.perf_counter()
    first = True
    while first or time.perf_counter() - started < seconds:
        first = False
        if prepare is not None:
            prepare()
        t0 = time.perf_counter()
        runs = workload.run_pass()
        tally.times.append(time.perf_counter() - t0)
        tally.add_pass(runs, workload.check, want)


def setup_in_fresh_processes(args, count):
    """Set-up times of ``count`` fresh processes (run one at a time)."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up process failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-2000:]}"
            )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])
                   ["setup_s"])
    return out


def peak_rss_mib() -> float:
    """Host memory high-water mark of this process plus its largest
    reaped child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def simulated_means(results):
    n = len(results)
    return {
        "cycle_overhead": sum(r.cycle_overhead for r in results) / n,
        "avg_saving": sum(r.average_saving for r in results) / n,
        "peak_saving": sum(r.peak_saving for r in results) / n,
    }


def layer_metrics(setup_snap, pass_snaps, results):
    """Per-layer metrics from the traced set-up and traced passes."""
    n = len(pass_snaps)

    def per_pass(kind, key):
        return sum(s[kind].get(key, 0) for s in pass_snaps) / n

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, layer in PASS_LAYERS.items():
        out[metric] = per_pass("self_s", layer)
    for metric, layer in SETUP_LAYERS.items():
        out[metric] = (setup_snap["self_s"].get(layer, 0.0)
                       + per_pass("self_s", layer))
    for metric in PASS_COUNTS:
        out[metric] = per_pass("counts", metric)
    out["replay.batched_ratio"] = ratio(
        per_pass("counts", "replay.batched_accepted"),
        per_pass("counts", "replay.batched_calls"))
    out["store.hit_ratio"] = ratio(per_pass("counts", "store.hits"),
                                   per_pass("counts", "store.lookups"))
    out["image.artifact_hit_ratio"] = ratio(
        setup_snap["counts"].get("image.artifact_hits", 0)
        + per_pass("counts", "image.artifact_hits"),
        setup_snap["counts"].get("image.artifact_lookups", 0)
        + per_pass("counts", "image.artifact_lookups"))
    skews = [max(s["partitions"]) / statistics.mean(s["partitions"])
             for s in pass_snaps if s["partitions"]]
    out["executor.partition_skew"] = statistics.mean(skews or [0.0])
    for metric, field in SIM_COUNTERS.items():
        out[metric] = sum(getattr(r.counters, field) for r in results)
    out["sim.prediction_accuracy"] = ratio(
        sum(r.counters.correct_predictions for r in results),
        sum(r.counters.predictions for r in results))
    return out


def declared_units(trace: int) -> dict:
    """Metric -> unit, as ``BENCHMARK.json`` declares this run's set."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    hermetic_env()
    import_program()
    import gate
    import grid
    import layers

    if args.self_test:
        import selftest

        return selftest.main()

    expected = gate.load_expected()
    if args.seed is None:
        args.seed = expected["default_seed"]
    scratch = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        return measure(args, expected, scratch, gate, grid, layers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it


def measure(args, expected, scratch, gate, grid, layers) -> int:
    jobs = jobs_cap()
    workload = grid.make(args.workload, args.seed, scratch, jobs)
    want = gate.expected_digest(expected, args.workload, args.seed)
    clock = layers.LayerClock()
    clock.spool_dir = os.path.join(scratch, "spool")
    os.makedirs(clock.spool_dir)
    tracing = layers.Tracing(clock)

    if args.trace:
        with tracing:
            workload.setup()
        clock.merge_spool()
        setup_snap = clock.snapshot()
    else:
        workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = gate.Tally()
    leftover = layers.installed()
    if leftover:
        tally.problems.append(f"untraced run has wrappers on {leftover[:3]}")
    measure_started = time.perf_counter()
    run_passes(workload, args.seconds * (UNTRACED_SHARE if args.trace
                                         else 1.0), want, tally)

    if args.trace:
        traced = gate.Tally()
        pass_snaps = []
        while not traced.times or (
                time.perf_counter() - measure_started < args.seconds):
            clock.reset()
            with tracing:
                run_passes(workload, 0, want, traced)
            clock.merge_spool()
            pass_snaps.append(clock.snapshot())
        if set(traced.digests) != set(tally.digests):
            traced.problems.append(
                f"traced digests {sorted(set(traced.digests))} differ "
                f"from untraced {sorted(set(tally.digests))}")
            traced.failed = traced.cells
        metrics = layer_metrics(setup_snap, pass_snaps, traced.results)
        metrics["tracing.overhead_s"] = (
            statistics.median(traced.times)
            - statistics.median(tally.times))
        tally.cells += traced.cells
        tally.failed += traced.failed
        tally.problems += traced.problems
    else:
        rss = peak_rss_mib()
        setups = [setup_s] + setup_in_fresh_processes(
            args, SETUP_REPEATS - 1)
        metrics = {
            "setup_s": statistics.median(setups),
            "sweep_s": statistics.median(tally.times),
            "peak_rss_mb": rss,
            "cells_ok_ratio": (tally.cells - tally.failed) / tally.cells,
            **simulated_means(tally.results),
        }
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are not the "
            f"set BENCHMARK.json declares")

    correct = not tally.problems
    for problem in tally.problems[:20]:
        print(f"FAIL {problem}")
    print("env " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "pass_s": [round(t, 4) for t in tally.times],
        "digest": tally.digests[0],
        "frozen_digest": want,
    }, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.cells,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
