"""Pre-decompression strategies — Section 4, second option.

Both strategies use the decompression-side k-edge rule: "a basic block is
decompressed (if it is not already in the uncompressed form) when there are
at most k edges that need to be traversed before it could be reached."

* :class:`PreDecompressAll` decompresses **all** blocks at most k edges
  from the exit of the current block ("favors performance over memory
  space consumption").
* :class:`PreDecompressSingle` selects **one** block among them, the one
  predicted most likely to be reached ("favors memory space consumption
  over performance").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .base import STRATEGIES, DecompressionPolicy
from .predictor import Predictor


@STRATEGIES.register("pre-all")
class PreDecompressAll(DecompressionPolicy):
    """Decompress every block within k forward edges of the current exit."""

    uses_thread = True

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"pre-all({k})"

    def on_program_start(self, entry_block: int) -> List[int]:
        # Warm the pipeline: the entry itself plus its k-neighbourhood
        # (the entry is needed unconditionally to begin execution).
        hood = self.view.cfg.forward_neighbourhood(entry_block, self.k)
        return sorted({entry_block} | hood)

    def on_block_exit(self, block_id: int) -> Sequence[int]:
        return self.view.cfg.sorted_forward_neighbourhood(block_id, self.k)


@STRATEGIES.register("pre-single")
class PreDecompressSingle(DecompressionPolicy):
    """Decompress the single most-likely-needed block within k edges.

    The prediction follows the predictor's greedy most-likely path from
    the current block and picks the first block on it that is still
    compressed — the nearest future decompression on the expected path.
    """

    uses_thread = True

    def __init__(self, k: int, predictor: Predictor) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.predictor = predictor
        self.name = f"pre-single({k},{predictor.name})"
        #: Most recent choice, for the simulator's accuracy accounting.
        self.last_choice: Optional[int] = None

    def bind(self, view) -> None:  # type: ignore[override]
        super().bind(view)
        self.predictor.bind(view.cfg)

    def on_program_start(self, entry_block: int) -> List[int]:
        return [entry_block]

    def on_block_exit(self, block_id: int) -> List[int]:
        self.last_choice = None
        path = self.predictor.predict_path(block_id, self.k)
        for candidate in path:
            unit = self.view.unit_of(candidate)
            if not self.view.is_unit_resident(unit):
                self.last_choice = candidate
                return [candidate]
        return []

    def on_edge(self, src_block: int, dst_block: int) -> None:
        self.predictor.update(src_block, dst_block)
