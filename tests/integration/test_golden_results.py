"""Golden-result pin for the default memory hierarchy.

The manager decomposition (timing/residency subsystems + the explicit
memory-hierarchy layer) must not change a single byte of what the
simulator computes under the default ``flat`` preset.  This test runs an
E1-style k-edge grid and compares :meth:`ResultSet.canonical_json`
against a committed golden file, so any future drift in metrics,
counters, or serialisation shape fails loudly.

Regenerate (only after deliberately changing simulation semantics or
the result schema) by calling :func:`_run_grid` and writing its
``canonical_json()`` to :data:`GOLDEN`.
"""

import json
import pathlib

from repro import api
from repro.core import SimulationConfig

GOLDEN = (
    pathlib.Path(__file__).parent.parent
    / "golden" / "e1_kedge_default.json"
)

_WORKLOADS = ("composite", "cold_paths", "fib")
_K_VALUES = (1, 2, 4, 8, None)


def _run_grid() -> api.ResultSet:
    configs = [
        SimulationConfig(
            codec="shared-dict", decompression="ondemand",
            k_compress=k, trace_events=False, record_trace=False,
        )
        for k in _K_VALUES
    ]
    return api.run_grid(
        list(_WORKLOADS), configs, engine="trace", store=False
    )


#: The per-block layered path (pre-decompression cells never take the
#: batched replay kernel), including two budgeted pre-single cells so
#: budget eviction and its protected set are pinned too.
GOLDEN_PREDECOMP = GOLDEN.parent / "predecomp_default.json"
_BUDGET_SLACK = 512


def _predecomp_config(strategy, k, memory_budget=None):
    return SimulationConfig(
        codec="shared-dict", decompression=strategy, k_compress=k,
        memory_budget=memory_budget, trace_events=False,
        record_trace=False,
    )


def _run_predecomp_grid() -> api.ResultSet:
    configs = [
        _predecomp_config(strategy, k)
        for strategy in ("pre-single", "pre-all")
        for k in _K_VALUES
    ]
    result = api.run_grid(
        list(_WORKLOADS), configs, engine="trace", store=False
    )
    # Budget = that cell's compressed image + a little slack, a
    # property of the workload's image, not a tuned number.
    for workload in _WORKLOADS:
        for k in (2, None):
            unbudgeted = next(
                run for run in result.runs
                if run.workload == workload
                and run.config == _predecomp_config("pre-single", k)
            )
            budget = unbudgeted.result.compressed_size + _BUDGET_SLACK
            result = result.merge(api.run_grid(
                [workload],
                [_predecomp_config("pre-single", k, budget)],
                engine="trace", store=False,
            ))
    return result


def _assert_matches(result: api.ResultSet, golden: pathlib.Path) -> None:
    assert not result.failures()
    got = result.canonical_json()
    want = golden.read_text().strip()
    if got != want:
        # Pinpoint the first divergence for a readable failure.
        got_data = json.loads(got)
        want_data = json.loads(want)
        assert got_data == want_data, (
            "canonical result drifted from the golden file; if the "
            "change is deliberate, regenerate tests/golden/"
        )
        raise AssertionError(
            "canonical JSON text differs (same data, different "
            "serialisation) — the canonical form must be stable"
        )


class TestGoldenPredecompression:
    def test_predecompression_grid_matches_golden(self):
        _assert_matches(_run_predecomp_grid(), GOLDEN_PREDECOMP)

    def test_golden_covers_budget_eviction(self):
        data = json.loads(GOLDEN_PREDECOMP.read_text())
        budgeted = [
            cell for cell in data["cells"]
            if cell["config"]["memory_budget"] is not None
        ]
        assert len(budgeted) == 2 * len(_WORKLOADS)
        assert any(cell["metrics"]["evictions"] > 0 for cell in budgeted)


class TestGoldenResults:
    def test_default_hierarchy_grid_matches_golden(self):
        _assert_matches(_run_grid(), GOLDEN)

    def test_golden_cells_are_default_hierarchy(self):
        data = json.loads(GOLDEN.read_text())
        assert data["cells"], "golden file has no cells"
        for cell in data["cells"]:
            assert cell["config"]["hierarchy"] == "flat"

    def test_golden_config_keys_match_live_schema(self):
        # A new SimulationConfig field changes every cell's config
        # signature: the golden file must then be deliberately
        # regenerated, never silently left stale.  (Pipeline codecs
        # deliberately added no field — a pipeline spec is a value of
        # the existing ``codec`` axis.)
        import dataclasses

        from repro.core import SimulationConfig as Config

        live = {f.name for f in dataclasses.fields(Config)}
        live |= {"strategy_name", "label"}
        data = json.loads(GOLDEN.read_text())
        for cell in data["cells"]:
            assert set(cell["config"]) == live
