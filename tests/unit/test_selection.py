"""Unit tests for repro.selection: specs, policies, mixed artifacts."""

import pytest

from repro.cfg import build_cfg, profile_from_trace
from repro.cfg.graph import Edge
from repro.core import ConfigError, SimulationConfig
from repro.memory.image import artifact_cache, compression_artifacts
from repro.selection import (
    ASSIGNMENTS,
    UNCOMPRESSED,
    AssignmentContext,
    AssignmentError,
    AssignmentPolicy,
    CodecAssignment,
    KnapsackAssignment,
    assignment_artifacts,
    available_assignments,
    build_assignment,
    make_policy,
    parse_assignment,
    unit_map,
    validate_assignment,
)
from repro import api
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def composite_cfg():
    return build_cfg(get_workload("composite").program)


@pytest.fixture(scope="module")
def composite_profile():
    return api.profile_workload("composite")


class TestSpecParsing:
    def test_plain_names(self):
        for name in ("uniform", "hotness-threshold", "knapsack"):
            assert parse_assignment(name) == (name, ())

    def test_numeric_and_string_params(self):
        assert parse_assignment("knapsack:0.9") == ("knapsack", (0.9,))
        name, params = parse_assignment("hotness-threshold:0.25:rle")
        assert name == "hotness-threshold"
        assert params == (0.25, "rle")

    def test_unknown_policy_rejected(self):
        with pytest.raises(AssignmentError, match="unknown assignment"):
            parse_assignment("nope")

    def test_empty_spec_rejected(self):
        with pytest.raises(AssignmentError):
            parse_assignment("")

    def test_bad_params_rejected(self):
        with pytest.raises(AssignmentError, match="invalid parameters"):
            validate_assignment("knapsack:0")
        with pytest.raises(AssignmentError, match="invalid parameters"):
            validate_assignment("hotness-threshold:2.0")
        with pytest.raises(AssignmentError, match="invalid parameters"):
            validate_assignment("uniform:1:2:3")

    def test_nonfinite_budget_rejected_at_validation(self):
        # float("inf")/"nan" parse as numbers; they must fail cleanly
        # here, not as an OverflowError mid-run.
        for bad in ("knapsack:inf", "knapsack:nan"):
            with pytest.raises(AssignmentError,
                               match="invalid parameters"):
                validate_assignment(bad)

    def test_unknown_hot_codec_rejected_at_validation(self):
        # A typo'd codec must fail at spec validation, before the CLI
        # pays for a profiling run.
        with pytest.raises(AssignmentError, match="invalid parameters"):
            validate_assignment("hotness-threshold:0.25:bogus")

    def test_make_policy_records_spec(self):
        policy = make_policy("knapsack:0.5")
        assert policy.spec == "knapsack:0.5"
        assert policy.budget_fraction == 0.5

    def test_registry_in_catalog(self):
        assert "assignments" in api.list_components()
        assert set(available_assignments()) >= {
            "uniform", "hotness-threshold", "knapsack"
        }


class TestConfigIntegration:
    def test_default_is_uniform(self):
        assert SimulationConfig().assignment == "uniform"

    def test_unknown_assignment_rejected(self):
        with pytest.raises(ConfigError, match="unknown assignment"):
            SimulationConfig(assignment="bogus")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(assignment="knapsack:-1")

    def test_strategy_name_suffix(self):
        assert "knapsack" in SimulationConfig(
            assignment="knapsack"
        ).strategy_name
        assert "uniform" not in SimulationConfig().strategy_name

    def test_strategy_name_marks_profileless_assignments(self):
        from repro.cfg.profile import EdgeProfile

        static = SimulationConfig(assignment="knapsack")
        assert static.strategy_name.endswith("knapsack[static]")
        profiled = SimulationConfig(
            assignment="knapsack", profile=EdgeProfile()
        )
        assert "[static]" not in profiled.strategy_name


class TestContext:
    def test_units_cover_cfg(self, composite_cfg):
        context = AssignmentContext(composite_cfg, "shared-dict")
        blocks = sorted(
            b for unit in context.units for b in unit.blocks
        )
        assert blocks == sorted(
            block.block_id for block in composite_cfg.blocks
        )

    def test_function_granularity_groups_blocks(self, composite_cfg):
        context = AssignmentContext(
            composite_cfg, "shared-dict", granularity="function"
        )
        assert any(len(unit.blocks) > 1 for unit in context.units)
        unit_of, unit_blocks = unit_map(composite_cfg, "function")
        assert {u.unit_id for u in context.units} == set(unit_blocks)
        assert all(
            unit_of[b] == u.unit_id
            for u in context.units for b in u.blocks
        )

    def test_profiled_hotness(self, composite_cfg, composite_profile):
        context = AssignmentContext(
            composite_cfg, "shared-dict", profile=composite_profile
        )
        assert context.profiled
        hot = {u.unit_id: u.hotness for u in context.units}
        for block_id, count in composite_profile.block_counts.items():
            assert hot[block_id] == count

    def test_static_fallback_marks_loops_hot(self, composite_cfg):
        context = AssignmentContext(composite_cfg, "shared-dict")
        assert not context.profiled
        assert any(u.hotness > 0 for u in context.units)

    def test_payload_sizes_match_artifacts(self, composite_cfg):
        context = AssignmentContext(composite_cfg, "shared-dict")
        artifacts = compression_artifacts(composite_cfg, "shared-dict")
        for unit in context.units:
            expected = sum(
                len(artifacts.payloads[b]) for b in unit.blocks
            )
            assert context.unit_payload_size(
                unit.unit_id, "shared-dict"
            ) == expected

    def test_uniform_image_size_counts_model_overhead(
        self, composite_cfg
    ):
        context = AssignmentContext(composite_cfg, "shared-dict")
        artifacts = compression_artifacts(composite_cfg, "shared-dict")
        expected = sum(len(p) for p in artifacts.payloads) + int(
            artifacts.codec.model_overhead_bytes
        )
        assert context.uniform_image_size == expected


class TestPolicies:
    def test_uniform_assigns_base_everywhere(self, composite_cfg):
        config = SimulationConfig(codec="shared-dict")
        assignment = build_assignment(composite_cfg, config)
        assert set(assignment.unit_codecs.values()) == {"shared-dict"}
        assert assignment.summary() == {
            "shared-dict": len(assignment.unit_codecs)
        }

    def test_hotness_marks_hottest_units(
        self, composite_cfg, composite_profile
    ):
        config = SimulationConfig(
            codec="shared-dict", assignment="hotness-threshold:0.1",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        hottest = max(
            composite_profile.block_counts,
            key=lambda b: composite_profile.block_counts[b],
        )
        assert assignment.unit_codecs[hottest] == UNCOMPRESSED

    def test_hotness_hot_codec_parameter(
        self, composite_cfg, composite_profile
    ):
        config = SimulationConfig(
            codec="shared-dict",
            assignment="hotness-threshold:0.1:rle",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        hottest = max(
            composite_profile.block_counts,
            key=lambda b: composite_profile.block_counts[b],
        )
        assert assignment.unit_codecs[hottest] == "rle"

    def test_cold_units_never_store_inflating_payloads(
        self, composite_cfg, composite_profile
    ):
        context = AssignmentContext(
            composite_cfg, "shared-dict", profile=composite_profile
        )
        config = SimulationConfig(
            codec="shared-dict", assignment="hotness-threshold",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        for unit in context.units:
            chosen = assignment.unit_codecs[unit.unit_id]
            if chosen != "shared-dict":
                continue
            assert context.unit_payload_size(
                unit.unit_id, "shared-dict"
            ) < unit.size_bytes

    def test_knapsack_respects_budget(
        self, composite_cfg, composite_profile
    ):
        context = AssignmentContext(
            composite_cfg, "shared-dict", profile=composite_profile
        )
        # The floor (per-unit min of base vs uncompressed) is the
        # smallest reachable image; budgets below it bottom out there.
        floor = context.image_size({
            u.unit_id: (
                UNCOMPRESSED
                if u.size_bytes <= context.unit_payload_size(
                    u.unit_id, "shared-dict"
                )
                else "shared-dict"
            )
            for u in context.units
        })
        for fraction in ("0.5", "1.0", "1.2"):
            config = SimulationConfig(
                codec="shared-dict",
                assignment=f"knapsack:{fraction}",
                profile=composite_profile,
            )
            assignment = build_assignment(composite_cfg, config)
            budget = round(
                float(fraction) * context.uniform_image_size
            )
            assert context.image_size(
                dict(assignment.unit_codecs)
            ) <= max(budget, floor)

    def test_knapsack_upgrades_hot_units(
        self, composite_cfg, composite_profile
    ):
        config = SimulationConfig(
            codec="shared-dict", assignment="knapsack",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        assert UNCOMPRESSED in set(assignment.unit_codecs.values())

    def test_dp_refinement_beats_greedy_when_density_misleads(self):
        # Greedy by density takes the weight-3 item (density 10) and
        # can fit nothing else; DP finds the optimal {4, 4} split.
        candidates = [(30, 3, 0), (28, 4, 1), (28, 4, 2)]
        greedy = KnapsackAssignment._greedy(candidates, 8)
        refined = KnapsackAssignment._dp_refine(candidates, 8)
        assert sum(v for v, _, _ in greedy) == 58
        assert sum(v for v, _, _ in refined) == 58 or \
            sum(v for v, _, _ in refined) >= sum(
                v for v, _, _ in greedy
            )

    def test_dp_exact_on_small_instance(self):
        candidates = [(60, 10, 0), (100, 20, 1), (120, 30, 2)]
        refined = KnapsackAssignment._dp_refine(candidates, 50)
        assert sum(v for v, _, _ in refined) == 220

    def test_dp_skips_oversized_capacity(self):
        assert KnapsackAssignment._dp_refine([(1, 1, 0)], 10**6) is None


class TestBuildValidation:
    def test_incomplete_policy_rejected(self, composite_cfg):
        class Incomplete(AssignmentPolicy):
            def assign(self, context):
                return {}

        ASSIGNMENTS.add("test-incomplete", Incomplete)
        try:
            config = SimulationConfig(assignment="test-incomplete")
            with pytest.raises(AssignmentError, match="unassigned"):
                build_assignment(composite_cfg, config)
        finally:
            ASSIGNMENTS.remove("test-incomplete")

    def test_unknown_codec_rejected(self, composite_cfg):
        class BadCodec(AssignmentPolicy):
            def assign(self, context):
                return {
                    u.unit_id: "no-such-codec" for u in context.units
                }

        ASSIGNMENTS.add("test-bad-codec", BadCodec)
        try:
            config = SimulationConfig(assignment="test-bad-codec")
            with pytest.raises(AssignmentError, match="unknown codec"):
                build_assignment(composite_cfg, config)
        finally:
            ASSIGNMENTS.remove("test-bad-codec")


class TestMixedArtifacts:
    def test_payloads_dispatch_per_block(
        self, composite_cfg, composite_profile
    ):
        config = SimulationConfig(
            codec="shared-dict", assignment="hotness-threshold",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        artifacts = assignment_artifacts(composite_cfg, assignment)
        per_codec = {
            name: compression_artifacts(composite_cfg, name)
            for name in assignment.codec_names()
        }
        for block in composite_cfg.blocks:
            chosen = assignment.block_codecs[block.block_id]
            assert artifacts.payloads[block.block_id] == \
                per_codec[chosen].payloads[block.block_id]
            assert artifacts.codec_map[block.block_id] is \
                per_codec[chosen].codec

    def test_memoized_per_assignment_digest(
        self, composite_cfg, composite_profile
    ):
        config = SimulationConfig(
            codec="shared-dict", assignment="knapsack",
            profile=composite_profile,
        )
        assignment = build_assignment(composite_cfg, config)
        first = assignment_artifacts(composite_cfg, assignment)
        again = assignment_artifacts(composite_cfg, assignment)
        assert first is again

    def test_digest_distinguishes_assignments(
        self, composite_cfg, composite_profile
    ):
        base = SimulationConfig(
            codec="shared-dict", assignment="knapsack",
            profile=composite_profile,
        )
        hot = base.replace(assignment="hotness-threshold")
        a = build_assignment(composite_cfg, base)
        b = build_assignment(composite_cfg, hot)
        assert a.digest != b.digest or a.block_codecs == b.block_codecs


class TestFrozenAssignment:
    # Recorded before assignments were cached and shared: the mixed
    # artifact memo keys on these exact strings.
    KNAPSACK_DIGEST = (
        "be20955820def36521e8592d20f1ff7d7ce6f6fd6cf21c8e1a163fa42f6e48c6"
    )
    STATIC_DIGEST = (
        "2cf9184bfc87fbe3ac80c778e95bea79af231053016ed3e6646b7373d70f9954"
    )

    def test_mappings_are_read_only(self, composite_cfg):
        assignment = build_assignment(
            composite_cfg, SimulationConfig(assignment="knapsack")
        )
        with pytest.raises(TypeError):
            assignment.unit_codecs[0] = UNCOMPRESSED
        with pytest.raises(TypeError):
            assignment.block_codecs[0] = UNCOMPRESSED

    def test_mappings_are_copies(self):
        unit_codecs = {u: "rle" for u in range(3)}
        assignment = CodecAssignment(
            policy="uniform", base_codec="rle",
            unit_codecs=unit_codecs, block_codecs=dict(unit_codecs),
        )
        unit_codecs[0] = UNCOMPRESSED
        assert assignment.unit_codecs[0] == "rle"

    def test_digest_unchanged(self, composite_cfg, composite_profile):
        profiled = SimulationConfig(
            codec="shared-dict", assignment="knapsack",
            profile=composite_profile,
        )
        assert build_assignment(composite_cfg, profiled).digest == \
            self.KNAPSACK_DIGEST
        static = profiled.replace(assignment="pipeline-search",
                                  profile=None)
        assert build_assignment(composite_cfg, static).digest == \
            self.STATIC_DIGEST


class TestAssignmentCache:
    @pytest.mark.parametrize("profiled", [False, True])
    @pytest.mark.parametrize("granularity", ["block", "function"])
    @pytest.mark.parametrize("policy", available_assignments())
    def test_cached_equals_fresh(self, composite_cfg, composite_profile,
                                 policy, granularity, profiled):
        config = SimulationConfig(
            codec="shared-dict", assignment=policy,
            granularity=granularity,
            profile=composite_profile if profiled else None,
        )
        cached = build_assignment(composite_cfg, config)
        assert build_assignment(composite_cfg, config) is cached
        artifact_cache().clear()
        fresh = build_assignment(composite_cfg, config)
        assert fresh is not cached
        assert fresh == cached
        assert fresh.digest == cached.digest

    def test_profiles_with_different_counts_differ(self, composite_cfg):
        config = SimulationConfig(codec="shared-dict",
                                  assignment="hotness-threshold:0.1")
        first = build_assignment(composite_cfg, config.replace(
            profile=profile_from_trace([0, 1, 2, 5, 6] * 50)))
        second = build_assignment(composite_cfg, config.replace(
            profile=profile_from_trace([0, 11, 12, 13, 14] * 50)))
        assert first.unit_codecs[1] == UNCOMPRESSED
        assert second.unit_codecs[1] != UNCOMPRESSED

    def test_profile_mutated_in_place_not_served_stale(
        self, composite_cfg
    ):
        profile = profile_from_trace([0, 1, 2, 5, 6] * 50)
        config = SimulationConfig(codec="shared-dict",
                                  assignment="hotness-threshold:0.1",
                                  profile=profile)
        before = build_assignment(composite_cfg, config)
        assert before.unit_codecs[11] != UNCOMPRESSED
        profile.record_trace([11] * 1000)
        after = build_assignment(composite_cfg, config)
        assert after.unit_codecs[11] == UNCOMPRESSED
        artifact_cache().clear()
        assert build_assignment(composite_cfg, config) == after

    def test_new_loop_not_served_stale(self):
        cfg = build_cfg(get_workload("composite").program)
        config = SimulationConfig(codec="shared-dict",
                                  assignment="hotness-threshold:1")
        before = build_assignment(cfg, config)
        assert before.unit_codecs[1] != UNCOMPRESSED
        cfg.add_edge(Edge(1, 1))  # block 1 now heads a loop
        after = build_assignment(cfg, config)
        assert after.unit_codecs[1] == UNCOMPRESSED
        artifact_cache().clear()
        assert build_assignment(cfg, config) == after
