"""Edge and block execution profiles.

The pre-decompress-single strategy needs to "predict the block (among
these...) that is to be the most likely one to be reached" (Section 4).
Likelihood comes from an *edge profile*: counts of traversals per CFG edge,
gathered either offline (a profiling run — see
:func:`repro.api.profile_workload`) or online (updated while the
program runs).  This module provides the profile container and helpers to
derive branch probabilities from it.

Two consumers drive the design: the "static-profile" *predictor*
(:mod:`repro.strategies.predictor`) reads successor probabilities, and
the profile-guided *codec-assignment* policies (:mod:`repro.selection`)
rank compression units by their block entry counts.  Profiles enter
store fingerprints (:func:`repro.store.fingerprint.config_signature`)
and the codec-assignment cache by content (:meth:`EdgeProfile.digest`),
so a profiled configuration caches as stably as an unprofiled one.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .graph import ControlFlowGraph


@dataclass
class EdgeProfile:
    """Traversal counts per (src, dst) edge plus per-block entry counts.

    ``block_counts`` is maintained *by* the recording methods, not
    independently: :meth:`record_edge` counts the destination block's
    entry and :meth:`record_entry` counts a sourceless entry (program
    start), so a block's count is always the number of times execution
    entered it.  Consumers that only need hotness (the codec-assignment
    policies) read ``block_counts``; consumers that need branch
    likelihood (the predictors) read the edge counts.
    """

    edge_counts: Dict[Tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    block_counts: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_edge(self, src: int, dst: int, count: int = 1) -> None:
        """Record ``count`` traversals of edge ``src -> dst``."""
        self.edge_counts[(src, dst)] += count
        self.block_counts[dst] += count

    def record_entry(self, block_id: int, count: int = 1) -> None:
        """Record ``count`` entries into ``block_id`` with no known source
        (program entry)."""
        self.block_counts[block_id] += count

    def record_trace(self, trace: Sequence[int]) -> None:
        """Record a whole block-id trace (consecutive pairs are edges)."""
        if not trace:
            return
        self.record_entry(trace[0])
        for src, dst in zip(trace, trace[1:]):
            self.record_edge(src, dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def edge_count(self, src: int, dst: int) -> int:
        """Traversal count of edge ``src -> dst``."""
        return self.edge_counts.get((src, dst), 0)

    def block_count(self, block_id: int) -> int:
        """Entry count of ``block_id``."""
        return self.block_counts.get(block_id, 0)

    def digest(self) -> str:
        """SHA-256 of the counts, independent of recording order.

        Computed afresh on every call, so a profile mutated in place
        never keeps its old digest.
        """
        payload = {
            "edges": sorted(
                f"{src}->{dst}:{count}"
                for (src, dst), count in self.edge_counts.items()
            ),
            "blocks": sorted(
                f"{block}:{count}"
                for block, count in self.block_counts.items()
            ),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def total_transitions(self) -> int:
        """Total number of recorded edge traversals."""
        return sum(self.edge_counts.values())

    def successor_probabilities(
        self, cfg: ControlFlowGraph, block_id: int
    ) -> Dict[int, float]:
        """Probability of each successor of ``block_id`` being taken next.

        Every successor's count gets Laplace smoothing of +1 before
        normalising, so no successor ever has probability 0 — an
        unprofiled successor of a profiled block keeps a small residual
        probability, and when the block was never observed leaving at
        all, the mass is shared uniformly (each of n successors gets
        1/n).
        """
        successors = cfg.successors(block_id)
        if not successors:
            return {}
        counts = {
            succ: self.edge_count(block_id, succ) + 1 for succ in successors
        }
        total = sum(counts.values())
        return {succ: counts[succ] / total for succ in successors}

    def most_likely_successor(
        self, cfg: ControlFlowGraph, block_id: int
    ) -> Optional[int]:
        """The successor with the highest traversal count (ties: lowest id)."""
        successors = cfg.sorted_successors(block_id)
        counts = self.edge_counts
        best = best_count = None
        for succ in successors:  # ascending, so ties keep the lowest id
            count = counts.get((block_id, succ), 0)
            if best is None or count > best_count:
                best, best_count = succ, count
        return best

    def most_likely_path(
        self, cfg: ControlFlowGraph, block_id: int, length: int
    ) -> List[int]:
        """Greedy most-likely forward path of up to ``length`` edges."""
        path: List[int] = []
        current = block_id
        for _ in range(length):
            nxt = self.most_likely_successor(cfg, current)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path

    def merge(self, other: "EdgeProfile") -> "EdgeProfile":
        """Return a new profile with counts of ``self`` and ``other``
        summed."""
        merged = EdgeProfile()
        for (src, dst), count in self.edge_counts.items():
            merged.edge_counts[(src, dst)] += count
        for (src, dst), count in other.edge_counts.items():
            merged.edge_counts[(src, dst)] += count
        for block, count in self.block_counts.items():
            merged.block_counts[block] += count
        for block, count in other.block_counts.items():
            merged.block_counts[block] += count
        return merged


def profile_from_trace(trace: Sequence[int]) -> EdgeProfile:
    """Build an :class:`EdgeProfile` from a recorded block trace."""
    profile = EdgeProfile()
    profile.record_trace(trace)
    return profile
