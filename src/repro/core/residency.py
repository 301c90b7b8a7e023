"""The residency subsystem: what is decompressed, where, and for whom.

:class:`ResidencySubsystem` owns everything about decompressed copies
that the manager god-object used to keep inline:

* the code **image** (separate-area or in-place) plus the shared
  compression artifacts;
* **unit geometry** — the block→unit map and the memoized per-unit
  sizes, decompression latencies, and fill costs;
* the **ready clock** (``unit -> completion cycle``) that says when an
  in-flight pre-decompression becomes usable;
* the **remember sets** and the per-block branch-site cache that drive
  Section 5's patching;
* the optional **memory budget** and its eviction mechanics;
* the **footprint timeline** (the paper's memory-space metric).

Materialisation traffic and fill latency are charged through the
configured :class:`~repro.memory.hierarchy.MemoryHierarchy`: each block
read streams its burst-rounded compressed payload out of the target
memory, and non-flat targets add bus-transfer cycles on top of the
codec's decompression latency.  Under the default ``flat`` preset both
charges reduce to the seed model exactly.

Under a non-uniform codec assignment (``config.assignment``, see
:mod:`repro.selection`) the image holds mixed-codec payloads and every
unit is charged *its own* codec's decompression latency
(:meth:`ResidencySubsystem.unit_codec`); units assigned ``"null"``
live uncompressed and fill for free.  The ``uniform`` default
short-circuits onto the single-codec artifact path, byte-identical to
the pre-selection behaviour.

Policies never see this class directly — the manager re-exports the
geometry queries through the existing
:class:`~repro.strategies.base.ManagerView` protocol.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Optional, Set, Tuple

from ..cfg.builder import ProgramCFG
from ..compress.codec import get_codec
from ..memory.hierarchy import MemoryHierarchy, get_hierarchy
from ..memory.image import (
    CodeImage,
    InPlaceImage,
    SeparateAreaImage,
    compression_artifacts,
)
from ..memory.remember_set import BranchSite, RememberSets
from ..selection.assignment import (
    assignment_artifacts,
    build_assignment,
    unit_map,
)
from ..runtime.metrics import Counters, FootprintTimeline
from ..strategies.budget import MemoryBudget
from .config import SimulationConfig
from .timing import TimingModel


class ResidencySubsystem:
    """Owns residency state and mechanics for one simulation run.

    ``on_unit_decompressed`` / ``on_unit_released`` are notification
    hooks the manager points at the compression policy, so the policy
    layer stays decoupled from the mechanics layer.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        config: SimulationConfig,
        timing: TimingModel,
        counters: Counters,
    ) -> None:
        self.cfg = cfg
        self.config = config
        self.timing = timing
        self.counters = counters
        self.hierarchy: MemoryHierarchy = get_hierarchy(config.hierarchy)
        self.footprint = FootprintTimeline()

        # Policy notification hooks (set by the orchestrator).
        self.on_unit_decompressed: Optional[Callable[[int], None]] = None
        self.on_unit_released: Optional[Callable[[int], None]] = None

        # ---- compression units -------------------------------------
        unit_of, unit_blocks = unit_map(cfg, config.granularity)
        self._unit_of: Dict[int, int] = unit_of
        # Blocks are always visited in ascending order; sort them once.
        self._unit_blocks: Dict[int, Tuple[int, ...]] = {
            unit: tuple(sorted(blocks))
            for unit, blocks in unit_blocks.items()
        }

        # ---- image and shared artifacts ----------------------------
        # Compression products (trained codec, payloads, plaintexts) are
        # pure functions of (cfg, codec name) — or, under a non-uniform
        # codec assignment, of (cfg, assignment digest) — and shared
        # across managers, so sweep grid cells never recompress
        # identical block bytes.
        self.uncompressed_mode = config.decompression == "none"
        self.assignment = None
        if self.uncompressed_mode:
            self.codec = get_codec(config.codec)
            self.image: Optional[CodeImage] = None
            self.artifacts = None
        else:
            if config.assignment != "uniform":
                self.assignment = build_assignment(cfg, config)
                artifacts = assignment_artifacts(cfg, self.assignment)
            else:
                artifacts = compression_artifacts(cfg, config.codec)
            self.artifacts = artifacts
            self.codec = artifacts.codec
            if config.image_scheme == "inplace":
                self.image = InPlaceImage(
                    cfg, self.codec, artifacts=artifacts
                )
            else:
                self.image = SeparateAreaImage(
                    cfg, self.codec, artifacts=artifacts
                )
            # Observability: let the image report actual codec decode
            # dispatches (plaintext-memo misses) to an armed tracer.
            if timing.tracer.enabled:
                self.image.tracer = timing.tracer

        self.budget: Optional[MemoryBudget] = None
        if config.memory_budget is not None:
            self.budget = MemoryBudget(
                config.memory_budget, config.eviction
            )

        # ---- residency bookkeeping ---------------------------------
        self.remember = RememberSets()
        # Unit geometry is immutable; sizes memoize on first use.  A
        # block's terminator branch site never changes either.
        self._unit_size_cache: Dict[int, int] = {}
        self._site_cache: Dict[int, BranchSite] = {}
        self._ready_at: Dict[int, int] = {}  # unit -> completion cycle
        self._used_since_decompress: Dict[int, bool] = {}
        # The per-block loop's hottest queries are plain dict lookups:
        # unit_of(block_id) and is_unit_resident(unit_id).
        self.unit_of = self._unit_of.__getitem__
        self.is_unit_resident = self._ready_at.__contains__
        # Materialisation charges whole units from this shared table.
        self._geometry: Dict[int, tuple] = (
            {} if self.image is None else self.replay_geometry()
        )

    # ==================================================================
    # Geometry (the ManagerView surface)
    # ==================================================================

    def unit_blocks(self, unit_id: int) -> Set[int]:
        """Blocks belonging to ``unit_id``."""
        return set(self._unit_blocks[unit_id])

    def resident_units(self) -> AbstractSet[int]:
        """Units currently holding (or receiving) a decompressed copy.

        A live read-only view, not a copy: it changes with every
        materialise and release, so copy it to keep a snapshot.
        """
        return self._ready_at.keys()

    def unit_uncompressed_size(self, unit_id: int) -> int:
        """Uncompressed bytes of all blocks in ``unit_id``."""
        size = self._unit_size_cache.get(unit_id)
        if size is None:
            size = sum(
                self.cfg.block(block_id).size_bytes
                for block_id in self._unit_blocks[unit_id]
            )
            self._unit_size_cache[unit_id] = size
        return size

    def unit_codec(self, unit_id: int):
        """The codec that owns ``unit_id``'s payloads.

        Uniform runs return the one configured codec; mixed-codec runs
        (``config.assignment`` != "uniform") dispatch to the unit's
        assigned codec — every block of a unit shares one codec by
        construction.
        """
        if self.assignment is None or self.image is None:
            return self.codec
        return self.image.codec_for(next(iter(self._unit_blocks[unit_id])))

    def unit_decompress_latency(self, unit_id: int) -> int:
        """Modelled codec cycles to decompress all of ``unit_id``
        (charged with the unit's own codec under a mixed assignment)."""
        return self.unit_codec(unit_id).costs.decompress_latency(
            self.unit_uncompressed_size(unit_id)
        )

    def unit_fill_cycles(self, unit_id: int) -> int:
        """Cycles to fill ``unit_id`` from the target memory.

        Codec decompression latency plus the hierarchy's bus-transfer
        cost for streaming each block's compressed payload out of the
        target level (zero under the ``flat`` preset).
        """
        if self.image is None:
            return self.unit_decompress_latency(unit_id)
        return self._geometry[unit_id][1]

    def replay_geometry(self) -> Dict[int, tuple]:
        """Per-unit geometry/timing table, shared by the per-block path
        and the batched replay kernel.

        ``unit -> (alloc_bytes, fill_cycles, read_bytes, block_count,
        blocks_sorted)`` where ``alloc_bytes`` is the allocator-aligned
        decompressed footprint of the unit, ``fill_cycles`` matches
        :meth:`unit_fill_cycles` (the unit's own codec under a mixed
        assignment), and ``read_bytes`` is the burst-rounded target
        traffic one materialisation charges.  The table is memoized on
        the shared :class:`~repro.memory.image.CompressionArtifacts`
        keyed on (granularity, hierarchy), so every grid cell replaying
        the same program/codec pair reuses it.
        """
        assert self.image is not None
        artifacts = self.artifacts
        key = (self.config.granularity, self.config.hierarchy)
        table = artifacts.unit_timing.get(key)
        if table is None:
            align = self.image.allocator._align
            table = {}
            for unit_id, blocks_sorted in self._unit_blocks.items():
                alloc = read_bytes = read_cycles = 0
                for block_id in blocks_sorted:
                    image_block = self.image.block(block_id)
                    alloc += align(max(image_block.uncompressed_size, 1))
                    size = image_block.compressed_size
                    read_bytes += self.hierarchy.target_read_bytes(size)
                    read_cycles += self.hierarchy.target_read_cycles(size)
                table[unit_id] = (
                    alloc,
                    self.unit_decompress_latency(unit_id) + read_cycles,
                    read_bytes,
                    len(blocks_sorted),
                    blocks_sorted,
                )
            artifacts.unit_timing[key] = table
        return table

    def site_for(self, block_id: int) -> BranchSite:
        """The (memoized) terminator branch site of ``block_id``."""
        site = self._site_cache.get(block_id)
        if site is None:
            terminator_index = len(self.cfg.block(block_id)) - 1
            site = BranchSite(block_id, terminator_index)
            self._site_cache[block_id] = site
        return site

    def ready_at(self, unit_id: int) -> int:
        """Completion cycle of ``unit_id``'s (pre-)decompression."""
        return self._ready_at.get(unit_id, 0)

    def mark_ready(self, unit_id: int, cycle: int) -> None:
        """Record that ``unit_id`` is usable from ``cycle`` on."""
        self._ready_at[unit_id] = cycle

    def mark_used(self, unit_id: int) -> None:
        """A block of ``unit_id`` executed (for wasted-work accounting
        and budget recency)."""
        self._used_since_decompress[unit_id] = True
        if self.budget is not None:
            self.budget.on_unit_enter(unit_id)

    # ==================================================================
    # Footprint
    # ==================================================================

    def footprint_bytes(self) -> int:
        """Bytes of memory currently holding code."""
        if self.image is None:
            return self.cfg.total_size_bytes()
        return self.image.footprint_bytes

    def sample_footprint(self) -> None:
        """Record the current footprint on the timeline."""
        self.footprint.record(self.timing.now, self.footprint_bytes())

    # ==================================================================
    # Traffic accounting
    # ==================================================================

    def charge_uncompressed_entry(self, block_id: int) -> None:
        """Uncompressed system: every entry streams the block's full
        bytes from the target memory (Section 2 traffic model).

        Non-flat targets also charge their transfer latency here, so
        the uncompressed baseline pays for its target reads the same
        way materialisation does (zero under ``flat``).
        """
        nbytes = self.cfg.block(block_id).size_bytes
        self.counters.target_memory_bytes += (
            self.hierarchy.target_read_bytes(nbytes)
        )
        self.counters.target_memory_accesses += 1
        cycles = self.hierarchy.target_read_cycles(nbytes)
        if cycles:
            self.timing.stall(cycles, count_stall=False, kind="mem")

    # ==================================================================
    # Materialisation / release mechanics
    # ==================================================================

    def materialise_unit(self, unit_id: int) -> None:
        """Allocate and mark every block of ``unit_id`` decompressed."""
        image = self.image
        assert image is not None
        _, fill_cycles, read_bytes, block_count, blocks = (
            self._geometry[unit_id]
        )
        for block_id in blocks:
            image.decompress(block_id)
            # Materialise the actual bytes (discarding them): an
            # undecodable payload must fail on the executed path, not
            # only under verify_block.  The shared memo bounds the cost
            # to one decode per block per (cfg, codec) — repeated
            # faults, and other sweep cells, never re-run the codec.
            image.block_data(block_id)
        # Section 2 traffic model: materialisation streams each block's
        # compressed payload out of the target memory, in that level's
        # burst-rounded transactions (one access per block).
        self.counters.target_memory_bytes += read_bytes
        self.counters.target_memory_accesses += block_count
        self.counters.decompressions += 1
        self._used_since_decompress[unit_id] = False
        if self.timing.tracer.enabled:
            self.timing.tracer.fill(self.timing.now, unit_id, fill_cycles)
        if self.on_unit_decompressed is not None:
            self.on_unit_decompressed(unit_id)
        if self.budget is not None:
            self.budget.on_unit_decompressed(unit_id)

    def release_unit(self, unit_id: int, reason: str) -> None:
        """Delete ``unit_id``'s decompressed copy (Section 5: cheap —
        drop the copy, patch the remembered branches).

        ``reason`` is ``"recompress"`` (the k-edge policy expired the
        unit) or ``"evict"`` (the memory budget chose it as a victim).

        An in-flight pre-decompression job for the unit is cancelled
        with its unperformed work refunded, and the wasted-work counter
        is settled exactly once (the used-flag is popped, so a unit can
        never be counted wasted twice).
        """
        image = self.image
        assert image is not None
        timing = self.timing
        self._ready_at.pop(unit_id, None)
        timing.cancel_decompression(unit_id)
        patches = 0
        for block_id in self._unit_blocks[unit_id]:
            if image.is_resident(block_id):
                image.release(block_id)
            patches += len(self.remember.drop_target(block_id))
            self.remember.drop_sites_in_block(block_id)
        self.counters.patches += patches
        self.counters.recompressions += 1
        if not self._used_since_decompress.pop(unit_id, True):
            self.counters.wasted_decompressions += 1
        # Patching runs on the background compression thread.
        timing.schedule_patches(unit_id, self.config.patch_cycles * patches)
        if timing.tracer.enabled:
            timing.tracer.release(timing.now, unit_id, reason, patches)
        if self.on_unit_released is not None:
            self.on_unit_released(unit_id)
        if self.budget is not None:
            self.budget.on_unit_released(unit_id)
        self.sample_footprint()

    def enforce_budget(self, unit_id: int, protected: Set[int]) -> None:
        """Evict units (LRU or configured policy) so ``unit_id`` fits."""
        if self.budget is None or self.image is None:
            return
        victims = self.budget.select_victims(
            needed_bytes=self.unit_uncompressed_size(unit_id),
            current_footprint=self.image.footprint_bytes,
            resident=self.resident_units(),
            protected=protected | {unit_id},
            size_of=self.unit_uncompressed_size,
        )
        for victim in victims:
            self.release_unit(victim, "evict")
            self.counters.evictions += 1

    def schedule_predecompression(
        self, block_id: int, protected: Set[int]
    ) -> None:
        """Queue ``block_id``'s unit on the decompression thread.

        Requests are shed when the thread's backlog is full — the block
        simply stays compressed and, if actually reached, faults on
        demand.
        """
        unit_id = self.unit_of(block_id)
        if self.is_unit_resident(unit_id):
            return
        if (
            self.timing.decompression_backlog()
            >= self.config.max_prefetch_backlog
        ):
            self.counters.dropped_prefetches += 1
            return
        if self.budget is not None:
            self.enforce_budget(unit_id, protected=protected)
        self.materialise_unit(unit_id)
        job = self.timing.schedule_decompression(
            unit_id, self.unit_fill_cycles(unit_id)
        )
        self._ready_at[unit_id] = job.completes_at
        self.sample_footprint()
