"""Trace-driven sweep metrics must equal machine-driven metrics.

The shared-artifact sweep engine (``sweep(..., engine="trace")``)
replays one recorded block trace per workload instead of interpreting
every grid cell.  Because compression policy is transparent to program
semantics, every metric the experiments consume — cycles, counters,
footprint timeline, image sizes — must come out *exactly* equal.
These tests pin that contract on the kernel suite, including the E12
policy-injection path.
"""

import pytest

from repro.analysis import sweep
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core import manager as manager_module
from repro.core.manager import CodeCompressionManager
from repro.runtime import PreparedTrace, simulate_trace
from repro.strategies import RecencyWindowCompression
from repro.workloads import full_suite, get_workload

_FAST = dict(trace_events=False, record_trace=False)

#: Kernel suite slice used for the grid comparison (kept small enough
#: for test time; the bench compares a larger grid on every run).
_WORKLOADS = ("composite", "cold_paths", "fsm", "gcd")

_CONFIGS = [
    SimulationConfig(decompression="ondemand", k_compress=1),
    SimulationConfig(decompression="ondemand", k_compress=2),
    SimulationConfig(decompression="ondemand", k_compress=4),
    SimulationConfig(decompression="ondemand", k_compress=8),
    SimulationConfig(decompression="ondemand", k_compress=None),
    SimulationConfig(decompression="pre-all", k_compress=8,
                     k_decompress=2),
    SimulationConfig(decompression="pre-single", k_compress=8,
                     k_decompress=2),
    SimulationConfig(decompression="none"),
]

_METRICS = (
    "total_cycles", "execution_cycles", "average_footprint",
    "peak_footprint", "average_saving", "peak_saving",
    "cycle_overhead", "compressed_size", "uncompressed_size",
)


def _assert_results_equal(left, right, context):
    for metric in _METRICS:
        assert getattr(left, metric) == getattr(right, metric), \
            f"{context}: {metric}"
    assert left.counters == right.counters, f"{context}: counters"
    assert left.footprint.samples == right.footprint.samples, \
        f"{context}: footprint timeline"


class TestSweepEngineEquivalence:
    @pytest.mark.parametrize("name", _WORKLOADS)
    def test_grid_metrics_identical(self, name):
        workload = get_workload(name)
        machine = sweep([workload], _CONFIGS, engine="machine")
        trace = sweep([workload], _CONFIGS, engine="trace")
        assert len(machine.runs) == len(trace.runs)
        for m_run, t_run in zip(machine.runs, trace.runs):
            assert m_run.config.strategy_name == \
                t_run.config.strategy_name
            _assert_results_equal(
                m_run.result, t_run.result,
                f"{name}/{m_run.config.strategy_name}",
            )
            assert t_run.ok == m_run.ok

    def test_trace_engine_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown sweep engine"):
            sweep([get_workload("gcd")], _CONFIGS[:1], engine="warp")

    def test_policy_injection_replay_matches_machine(self):
        # The E12 path: a non-config compression policy injected into a
        # trace replay must match the interpreted run with the same
        # policy.
        workload = get_workload("cold_paths")
        cfg = build_cfg(workload.program)
        recorder = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        )
        recorder.run()
        prepared = PreparedTrace(cfg, recorder.block_trace)
        for window in (2, 4, 8):
            config = SimulationConfig(
                decompression="ondemand", k_compress=1, **_FAST
            )
            interpreted = CodeCompressionManager(
                cfg, config,
                compression_policy=RecencyWindowCompression(window),
            ).run()
            replayed = simulate_trace(
                cfg, prepared, config,
                compression_policy=RecencyWindowCompression(window),
            )
            _assert_results_equal(
                interpreted, replayed, f"window={window}"
            )


#: The paper's k grid (the benchmark's too).
_K_VALUES = (1, 2, 4, 8, None)


def _batched_decisions(monkeypatch, workloads, policies):
    """Sweep ``workloads`` x ``policies`` x k on the trace engine and
    return ``(decompression, k, accepted)`` per replayed cell, as the
    manager's call to the batched kernel answered it."""
    decisions = []
    original = manager_module.try_batched_replay

    def spy(manager):
        accepted = original(manager)
        if manager.machine.engine_name == "trace":
            config = manager.config
            decisions.append(
                (config.decompression, config.k_compress, accepted)
            )
        return accepted

    monkeypatch.setattr(manager_module, "try_batched_replay", spy)
    configs = [
        SimulationConfig(decompression=policy, k_compress=k, **_FAST)
        for policy in policies for k in _K_VALUES
    ]
    result = sweep(workloads, configs, engine="trace")
    assert all(run.ok for run in result.runs)
    assert len(decisions) == len(result.runs)
    return decisions


class TestBatchedKernelEnvelope:
    def test_every_ondemand_suite_cell_is_batched(self, monkeypatch):
        decisions = _batched_decisions(
            monkeypatch, full_suite(), ("ondemand",)
        )
        assert len(decisions) == 75
        assert [d for d in decisions if not d[2]] == []

    def test_other_policies_run_the_per_block_path(self, monkeypatch):
        # The cheaper kernels: pre-decompression cells are the slow
        # per-block path this test is about.
        workloads = [get_workload(name)
                     for name in ("cold_paths", "fsm", "gcd")]
        decisions = _batched_decisions(
            monkeypatch, workloads, ("none", "pre-single", "pre-all")
        )
        assert len(decisions) == len(workloads) * 3 * len(_K_VALUES)
        assert [d for d in decisions if d[2]] == []
