"""Unit tests for edge profiles."""

import pytest

from repro.cfg import EdgeProfile, profile_from_trace


class TestRecording:
    def test_record_edge_updates_both_tables(self):
        profile = EdgeProfile()
        profile.record_edge(0, 1)
        profile.record_edge(0, 1)
        assert profile.edge_count(0, 1) == 2
        assert profile.block_count(1) == 2

    def test_record_trace(self):
        profile = profile_from_trace([0, 1, 0, 1, 3])
        assert profile.edge_count(0, 1) == 2
        assert profile.edge_count(1, 0) == 1
        assert profile.edge_count(1, 3) == 1
        assert profile.block_count(0) == 2  # entry + one transition

    def test_empty_trace(self):
        profile = profile_from_trace([])
        assert profile.total_transitions == 0

    def test_total_transitions(self):
        profile = profile_from_trace([0, 1, 2, 0])
        assert profile.total_transitions == 3


class TestQueries:
    def test_most_likely_successor(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        # the self edge is taken 9 times, the exit once
        for _ in range(9):
            profile.record_edge(loop_id, loop_id)
        exits = [
            s for s in loop_cfg.successors(loop_id) if s != loop_id
        ]
        profile.record_edge(loop_id, exits[0])
        assert profile.most_likely_successor(loop_cfg, loop_id) == loop_id

    def test_unprofiled_block_uses_uniform_smoothing(self, loop_cfg):
        profile = EdgeProfile()
        probs = profile.successor_probabilities(
            loop_cfg, loop_cfg.entry_id
        )
        assert probs
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_probabilities_reflect_counts(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        for _ in range(8):
            profile.record_edge(loop_id, loop_id)
        probs = profile.successor_probabilities(loop_cfg, loop_id)
        assert probs[loop_id] > 0.5

    def test_most_likely_path_follows_greedy_chain(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        profile.record_edge(loop_cfg.entry_id, loop_id)
        profile.record_edge(loop_id, loop_id)
        path = profile.most_likely_path(loop_cfg, loop_cfg.entry_id, 3)
        assert path[0] == loop_id

    def test_path_stops_at_exit(self, loop_cfg):
        profile = EdgeProfile()
        exit_id = loop_cfg.exit_ids[0]
        assert profile.most_likely_path(loop_cfg, exit_id, 5) == []

    def test_merge_sums_counts(self):
        a = profile_from_trace([0, 1, 2])
        b = profile_from_trace([0, 1])
        merged = a.merge(b)
        assert merged.edge_count(0, 1) == 2
        assert merged.edge_count(1, 2) == 1
        # originals untouched
        assert a.edge_count(0, 1) == 1


class TestDigest:
    # Recorded before the digest moved from the store fingerprint onto
    # the profile: store fingerprints and golden config keys depend on
    # these exact strings.
    TRACE_DIGEST = (
        "1967235619d1262edc85584ace3f71a74394dc1eec72d4cabc9d523d4ee48277"
    )
    COMPOSITE_DIGEST = (
        "d85e8bcb83dcd4cef2cdee85499a1aa8740c459284c453f8ac0b54ccd2159910"
    )

    def test_digest_unchanged_for_recorded_profiles(self):
        from repro import api

        assert profile_from_trace([0, 1, 2, 1, 2, 3]).digest() == \
            self.TRACE_DIGEST
        assert api.profile_workload("composite").digest() == \
            self.COMPOSITE_DIGEST

    def test_fingerprint_uses_the_profile_digest(self):
        from repro.core import SimulationConfig
        from repro.store.fingerprint import config_signature

        profile = profile_from_trace([0, 1, 2, 1, 2, 3])
        signature = config_signature(SimulationConfig(profile=profile))
        assert signature["profile"] == self.TRACE_DIGEST
        assert config_signature(SimulationConfig())["profile"] is None

    def test_digest_follows_in_place_mutation(self):
        profile = profile_from_trace([0, 1, 2])
        before = profile.digest()
        profile.record_edge(2, 0)
        assert profile.digest() != before

    def test_digest_ignores_recording_order(self):
        a, b = EdgeProfile(), EdgeProfile()
        a.record_edge(0, 1)
        a.record_edge(1, 2)
        b.record_edge(1, 2)
        b.record_edge(0, 1)
        assert a.digest() == b.digest()
