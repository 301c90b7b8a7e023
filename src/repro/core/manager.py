"""The code-compression manager: the paper's three-thread runtime.

:class:`CodeCompressionManager` ties everything together the way Figure 4
of the paper draws it:

* the **execution thread** (the :class:`~repro.runtime.machine.Machine`)
  runs basic blocks;
* the **decompression thread** (a
  :class:`~repro.runtime.threads.BackgroundWorker`) materialises
  decompressed copies ahead of the execution thread according to the
  configured pre-decompression policy;
* the **compression thread** (another worker) trails behind, deleting
  decompressed copies the k-edge policy expires and patching the branches
  recorded in the remember sets.

The manager itself is a thin orchestrator over three composable
subsystems:

* :class:`~repro.core.timing.TimingModel` — the cycle clock, the two
  background workers, and the single charging site for every stall;
* :class:`~repro.core.residency.ResidencySubsystem` — the code image,
  unit geometry, ready clock, remember sets, budget eviction, and the
  footprint timeline;
* the configured :class:`~repro.memory.hierarchy.MemoryHierarchy` —
  per-level traffic and latency charged inside the residency layer.

Faults follow Section 5's scheme exactly: fetching a block with no
decompressed copy raises the memory-protection exception; the handler
decompresses into the separate area and patches the branch that jumped
there.  Re-entering a resident block whose incoming branch still aims at
the compressed area costs a *patch fault* (handler entry + patch, no
decompression) — that is Figure 5's steps (5)-(6).
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Deque, List, Optional, Set, Tuple

from ..cfg.builder import ProgramCFG
from ..cfg.profile import EdgeProfile
from ..obs.tracer import Tracer, current_tracer
from ..runtime.machine import Machine
from ..runtime.metrics import Counters, SimulationResult
from ..strategies.base import (
    STRATEGIES,
    CompressionPolicy,
    DecompressionPolicy,
)
from ..strategies.kedge import KEdgeCompression, NeverRecompress
from ..strategies.ondemand import OnDemandDecompression
from ..strategies.predecompress import PreDecompressAll, PreDecompressSingle
from ..strategies.predictor import make_predictor
from .config import SimulationConfig
from .replay import try_batched_replay
from .residency import ResidencySubsystem
from .timing import TimingModel

#: Cap on the stored block trace (the full trace of a long run can be
#: millions of entries; metrics never need more than this).  Runs that
#: hit the cap are flagged via ``SimulationResult.trace_truncated``.
_TRACE_CAP = 2_000_000

#: The protected set of unbudgeted runs, where nothing reads it.
_UNPROTECTED: AbstractSet[int] = frozenset()


class CodeCompressionManager:
    """Simulates one program under one configuration.

    Typical use::

        cfg = build_cfg(assemble(source, "app"))
        result = CodeCompressionManager(cfg, SimulationConfig(
            codec="lzw", decompression="pre-single",
            k_compress=4, k_decompress=2,
        )).run()
        print(result.render())
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        config: Optional[SimulationConfig] = None,
        compression_policy: Optional[CompressionPolicy] = None,
        decompression_policy: Optional[DecompressionPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cfg = cfg
        self.config = config or SimulationConfig()
        self._compression_override = compression_policy
        self._decompression_override = decompression_policy
        self.machine = Machine(
            cfg,
            data_words=self.config.data_words,
            max_steps=self.config.max_steps,
        )
        self.counters = Counters()
        self.profile = EdgeProfile()  # online access pattern, always kept

        # ---- observability -----------------------------------------
        # Tracing is armed out-of-band (explicit argument or the
        # ambient tracing_scope), never via SimulationConfig: configs
        # feed store fingerprints, and tracing must leave results and
        # cache keys byte-identical.  The default is the inert
        # NULL_TRACER.
        self.tracer = (
            tracer if tracer is not None else current_tracer(cfg.name)
        )

        # ---- the composable core -----------------------------------
        self.timing = TimingModel(
            self.config, self.counters, self.tracer
        )
        self.residency = ResidencySubsystem(
            cfg, self.config, self.timing, self.counters
        )
        # The ManagerView queries of the per-block loop are residency's
        # own, bound here so that no delegating call sits in between.
        self.unit_of = self.residency.unit_of
        self.resident_units = self.residency.resident_units
        self.is_unit_resident = self.residency.is_unit_resident

        # ---- policies ----------------------------------------------
        # Policy instances may be injected for ablations (E12); the
        # config-driven defaults implement the paper's algorithms.
        if self._compression_override is not None:
            self.compression: CompressionPolicy = (
                self._compression_override
            )
        elif self.config.k_compress is None:
            self.compression = NeverRecompress()
        else:
            self.compression = KEdgeCompression(self.config.k_compress)
        self.compression.bind(self)

        if self._decompression_override is not None:
            self.decompression: DecompressionPolicy = (
                self._decompression_override
            )
        elif self.config.decompression == "pre-all":
            self.decompression = PreDecompressAll(
                self.config.k_decompress
            )
        elif self.config.decompression == "pre-single":
            self.decompression = PreDecompressSingle(
                self.config.k_decompress,
                make_predictor(self.config.predictor, self.config.profile),
            )
        elif self.config.decompression in ("ondemand", "none"):
            # "none" skips the image entirely; the policy is inert.
            self.decompression = OnDemandDecompression()
        else:
            # An externally registered strategy: the factory is called
            # with no arguments and may read the config through the
            # ManagerView after bind() (self.config / self.cfg).
            self.decompression = STRATEGIES.create(
                self.config.decompression
            )
        self.decompression.bind(self)

        # Residency notifies the compression policy when copies appear
        # and disappear, without knowing the policy layer exists.
        self.residency.on_unit_decompressed = (
            self.compression.on_unit_decompressed
        )
        self.residency.on_unit_released = (
            self.compression.on_unit_released
        )

        # ---- run-loop state ----------------------------------------
        self._pending_predictions: Deque[Tuple[int, int]] = deque()
        self._blocks_entered = 0
        self.block_trace: List[int] = []
        self.trace_truncated = False
        self._current_block: Optional[int] = None

    @property
    def image(self):
        """The code image (owned by the residency subsystem)."""
        return self.residency.image

    # ==================================================================
    # Artifact export
    # ==================================================================

    def export_artifacts(self, store) -> Optional[str]:
        """Persist this run's compressed-image artifacts into ``store``.

        ``store`` is any object with the
        :meth:`repro.store.cas.ExperimentStore.put_artifact_bundle`
        interface (duck-typed so this layer never imports the store).
        Returns the content-addressed artifact key, or None in
        uncompressed mode (there is nothing to export).  The automatic
        path — the provider installed by the caching executor — makes
        this implicit for sweeps; the explicit hook serves one-off
        instrumented runs (:func:`repro.api.run_instrumented`).

        Mixed-codec runs (a non-uniform codec assignment) also return
        None: their payload list interleaves codecs, and storing it
        under the base codec's key would poison the bundle a later
        uniform run loads.  The per-codec bundles those payloads were
        assembled from are exported by the automatic provider path
        anyway.
        """
        artifacts = self.residency.artifacts
        if artifacts is None or artifacts.codec_map is not None:
            return None
        return store.put_artifact_bundle(
            self.config.codec,
            artifacts.block_data,
            artifacts.payloads,
        )

    # ==================================================================
    # ManagerView protocol (what policies can see; unit_of,
    # resident_units and is_unit_resident are bound in __init__)
    # ==================================================================

    def unit_blocks(self, unit_id: int) -> Set[int]:
        """Blocks belonging to ``unit_id``."""
        return self.residency.unit_blocks(unit_id)

    # ==================================================================
    # Fault handling (the Section 5 exception handler)
    # ==================================================================

    def _protected_units(self) -> AbstractSet[int]:
        """Units budget eviction must spare (never mutated)."""
        if self.residency.budget is None or self._current_block is None:
            return _UNPROTECTED
        return {self.unit_of(self._current_block)}

    def _ensure_executable(
        self, block_id: int, came_from: Optional[int]
    ) -> None:
        """Make ``block_id`` runnable, charging faults/stalls as needed.

        Implements the Section 5 exception handler plus the
        pre-decompression wait:

        * not resident  -> full fault: handler + synchronous decompression;
        * resident but decompression still in flight -> stall for the
          remainder;
        * resident and ready but the incoming branch still targets the
          compressed area -> patch fault (handler + patch only).
        """
        residency = self.residency
        timing = self.timing
        tracer = self.tracer
        if residency.image is None:
            return
        unit_id = residency.unit_of(block_id)
        # A branch site can only be patched if the block holding the branch
        # still has a decompressed copy; otherwise the transfer goes via
        # the compressed-area address and faults (re-patched next time).
        site = None
        if came_from is not None and residency.is_unit_resident(
            residency.unit_of(came_from)
        ):
            site = residency.site_for(came_from)

        if not residency.is_unit_resident(unit_id):
            # Full memory-protection fault (Figure 5 steps 2, 4, 9).
            self.counters.faults += 1
            if tracer.enabled:
                tracer.fault(timing.now, block_id)
            if residency.budget is not None:
                residency.enforce_budget(
                    unit_id,
                    protected=self._protected_units()
                    | ({residency.unit_of(came_from)}
                       if came_from is not None else set()),
                )
            residency.materialise_unit(unit_id)
            residency.sample_footprint()
            stall = (
                self.config.fault_cycles
                + residency.unit_fill_cycles(unit_id)
            )
            timing.stall(stall)
            residency.mark_ready(unit_id, timing.now)
            if site is not None:
                residency.remember.add_reference(block_id, site)
                self.counters.patches += 1
                if tracer.enabled:
                    tracer.patch(timing.now, block_id)
            return

        # Waiting out an in-flight pre-decompression is charged (and
        # traced) as a ``decompress`` stall inside the timing model.
        timing.wait_until(residency.ready_at(unit_id))
        timing.retire_decompressions()

        arrived_unpatched = came_from is not None and (
            site is None
            or not residency.remember.points_to(site, block_id)
        )
        if arrived_unpatched:
            # Patch fault: the copy exists but the branch that got us here
            # still aims at the compressed area (Figure 5 steps 5-6).
            self.counters.faults += 1
            timing.stall(
                self.config.fault_cycles, count_stall=False,
                kind="patch",
            )
            if site is not None:
                residency.remember.add_reference(block_id, site)
                self.counters.patches += 1
            if tracer.enabled:
                tracer.patch(timing.now, block_id)

    # ==================================================================
    # Main loop
    # ==================================================================

    def run(self, max_blocks: Optional[int] = None) -> SimulationResult:
        """Execute the program to completion (or ``max_blocks``).

        Returns the :class:`~repro.runtime.metrics.SimulationResult` with
        all cycle and memory metrics filled in.
        """
        entry = self.cfg.entry
        residency = self.residency
        timing = self.timing
        residency.sample_footprint()

        # Pre-decompression may warm blocks before execution starts.
        if residency.image is not None and self.decompression.uses_thread:
            protected = self._protected_units()
            for block_id in self.decompression.on_program_start(
                entry.block_id
            ):
                residency.schedule_predecompression(block_id, protected)

        self._ensure_executable(entry.block_id, came_from=None)
        current = entry
        self.profile.record_entry(entry.block_id)

        # Trace replays inside the batched kernel's envelope skip the
        # per-block loop entirely; everything else runs it unchanged.
        if max_blocks is None and try_batched_replay(self):
            return self._finish_run()

        while True:
            self._on_block_enter(current.block_id)
            outcome = self.machine.run_block(current)
            timing.advance_execution(outcome.cycles)
            timing.retire_decompressions()

            if outcome.next_block_id is None:
                break
            if max_blocks is not None and self._blocks_entered >= max_blocks:
                break

            next_id = outcome.next_block_id
            self._on_edge(current.block_id, next_id)
            self._ensure_executable(next_id, came_from=current.block_id)
            current = self.cfg.block(next_id)

        return self._finish_run()

    def _finish_run(self) -> SimulationResult:
        """Settle end-of-run accounting and assemble the result."""
        residency = self.residency
        timing = self.timing
        # Account contention: background busy cycles partially steal the
        # execution thread when configured.
        timing.finalize()
        residency.sample_footprint()

        registers = self.machine.registers
        result = SimulationResult(
            program=self.cfg.name,
            strategy=self.config.strategy_name,
            codec=self.config.codec,
            k_compress=self.config.k_compress,
            k_decompress=(
                self.config.k_decompress
                if self.config.decompression in ("pre-all", "pre-single")
                else None
            ),
            total_cycles=timing.now,
            execution_cycles=timing.execution_cycles,
            counters=self.counters,
            footprint=residency.footprint,
            uncompressed_size=self.cfg.total_size_bytes(),
            compressed_size=(
                residency.image.compressed_image_size
                if residency.image is not None
                else self.cfg.total_size_bytes()
            ),
            registers=list(registers) if registers is not None else None,
            block_trace=self.block_trace,
            trace_truncated=self.trace_truncated,
            engine=getattr(self.machine, "engine_name", "machine"),
        )
        if self.tracer.enabled:
            self.tracer.close(
                timing.execution_cycles, timing.now
            )
            # The phase breakdown rides on the live result only; it is
            # excluded from summary()/serialisation so traced and
            # untraced runs stay byte-identical.
            result.phases = self.tracer.phases()
        # The policies' views point back at this manager; dropping them
        # leaves the finished cell free of cycles, so it is reclaimed by
        # reference counting rather than by the cycle collector.
        self.compression.view = self.decompression.view = None
        return result

    # ------------------------------------------------------------------
    # Loop steps
    # ------------------------------------------------------------------

    def _on_block_enter(self, block_id: int) -> None:
        residency = self.residency
        unit_id = residency.unit_of(block_id)
        self.counters.blocks_executed += 1
        self._blocks_entered += 1
        if self.config.record_trace:
            if len(self.block_trace) < _TRACE_CAP:
                self.block_trace.append(block_id)
            else:
                self.trace_truncated = True

        residency.mark_used(unit_id)
        self.compression.on_unit_enter(unit_id)
        if residency.image is None:
            residency.charge_uncompressed_entry(block_id)

        # Prediction accuracy: did a pending pre-decompress-single guess
        # come true within its window?
        if self._pending_predictions:
            matched = None
            for index, (predicted, expires) in enumerate(
                self._pending_predictions
            ):
                if predicted == block_id:
                    matched = index
                    break
            if matched is not None:
                self.counters.correct_predictions += 1
                del self._pending_predictions[matched]
            while (
                self._pending_predictions
                and self._pending_predictions[0][1] <= self._blocks_entered
            ):
                self._pending_predictions.popleft()

    def _on_edge(self, src_block: int, dst_block: int) -> None:
        residency = self.residency
        self._current_block = src_block
        self.profile.record_edge(src_block, dst_block)
        self.decompression.on_edge(src_block, dst_block)

        if residency.image is None:
            return

        src_unit = residency.unit_of(src_block)
        dst_unit = residency.unit_of(dst_block)

        # Compression side: tick the k-edge counters, expire units.
        for expired in self.compression.on_edge(src_unit, dst_unit):
            assert expired != dst_unit, (
                "compression policy tried to release the destination unit"
            )
            if residency.is_unit_resident(expired):
                residency.release_unit(expired, "recompress")

        # Decompression side: let the policy request pre-decompressions.
        if self.decompression.uses_thread:
            targets = self.decompression.on_block_exit(src_block)
            choice = getattr(self.decompression, "last_choice", None)
            if choice is not None:
                self.counters.predictions += 1
                self._pending_predictions.append(
                    (choice,
                     self._blocks_entered + self.config.k_decompress + 1)
                )
            protected = self._protected_units()
            for block_id in targets:
                residency.schedule_predecompression(block_id, protected)
