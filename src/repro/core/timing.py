"""The simulation's timing subsystem: one clock, one charging site.

:class:`TimingModel` owns the global cycle clock (``now``), the
execution-cycle tally, the two background workers of Figure 4, and every
mutation of the stall counters.  Before this subsystem existed the
manager charged fault and stall costs in three separate places; now
every penalty flows through :meth:`TimingModel.stall`, so the accounting
rules (when ``stall_cycles`` grows, when ``stalls`` increments) live in
exactly one method.

The model stays purely arithmetic — no real threads, no wall clock — so
simulations reproduce exactly on any machine.
"""

from __future__ import annotations

from ..obs.tracer import NULL_TRACER, Tracer
from ..runtime.metrics import Counters
from ..runtime.threads import BackgroundWorker, Job
from .config import SimulationConfig


class TimingModel:
    """Cycle clock + background-worker timelines + stall accounting.

    The execution thread advances the clock through
    :meth:`advance_execution`; every synchronous penalty (fault handler
    entry, synchronous decompression, waiting out an in-flight
    pre-decompression) goes through :meth:`stall`.  The decompression
    and compression workers share this clock, and
    :meth:`finalize` settles the optional contention charge at the end
    of a run.
    """

    def __init__(
        self,
        config: SimulationConfig,
        counters: Counters,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.config = config
        self.counters = counters
        self.tracer = tracer
        self.now = 0
        self.execution_cycles = 0
        self.decompress_worker = BackgroundWorker(
            "decompression", contention=config.contention
        )
        self.compress_worker = BackgroundWorker(
            "compression", contention=config.contention
        )

    # ------------------------------------------------------------------
    # Execution-thread time
    # ------------------------------------------------------------------

    def advance_execution(self, cycles: int) -> None:
        """The execution thread ran ``cycles`` of real work."""
        self.now += cycles
        self.execution_cycles += cycles

    def stall(
        self,
        cycles: int,
        *,
        count_stall: bool = True,
        kind: str = "decompress",
    ) -> None:
        """Charge the execution thread ``cycles`` of synchronous penalty.

        This is the single place ``now`` and ``stall_cycles`` grow for
        any fault/wait; ``count_stall=False`` charges the cycles without
        counting a discrete stall event (patch-only faults).  ``kind``
        attributes the cycles for tracing (one of
        :data:`repro.obs.tracer.STALL_KINDS`); callers that are not the
        decompression path must say which phase they are charging.
        """
        if self.tracer.enabled:
            self.tracer.stall(self.now, cycles, kind, count_stall)
        self.now += cycles
        self.counters.stall_cycles += cycles
        if count_stall:
            self.counters.stalls += 1

    def wait_until(self, ready_at: int) -> int:
        """Stall until ``ready_at`` if it is in the future.

        Returns the cycles waited (0 when already ready; nothing is
        charged in that case).
        """
        if ready_at <= self.now:
            return 0
        remainder = ready_at - self.now
        self.stall(remainder)
        return remainder

    # ------------------------------------------------------------------
    # Background workers
    # ------------------------------------------------------------------

    def schedule_decompression(self, unit_id: int, latency: int) -> Job:
        """Queue a background decompression; returns the worker job."""
        job = self.decompress_worker.schedule(self.now, unit_id, latency)
        self.counters.background_decompress_cycles += job.latency
        if self.tracer.enabled:
            self.tracer.worker_job(
                "decompression", unit_id, job.scheduled_at,
                job.started_at, job.completes_at,
            )
        return job

    def cancel_decompression(self, unit_id: int) -> None:
        """Cancel a pending decompression, refunding unperformed work."""
        job = self.decompress_worker.cancel(unit_id, self.now)
        if job is not None and self.tracer.enabled:
            self.tracer.worker_cancel(
                self.now, "decompression", unit_id
            )

    def retire_decompressions(self) -> None:
        """Retire decompression jobs completed by ``now``."""
        self.decompress_worker.retire_completed(self.now)

    def schedule_patches(self, unit_id: int, cycles: int) -> None:
        """Queue branch patching on the background compression thread."""
        job = self.compress_worker.schedule(self.now, unit_id, cycles)
        if self.tracer.enabled:
            self.tracer.worker_job(
                "compression", unit_id, job.scheduled_at,
                job.started_at, job.completes_at,
            )
        self.compress_worker.retire_completed(self.now)

    def decompression_backlog(self) -> int:
        """Outstanding jobs on the decompression worker."""
        return self.decompress_worker.backlog()

    # ------------------------------------------------------------------
    # Bulk settlement (batched trace replay)
    # ------------------------------------------------------------------

    def absorb_replay(
        self,
        now: int,
        execution_delta: int,
        stall_cycles_delta: int,
        stalls_delta: int,
    ) -> None:
        """Absorb a batched replay's aggregate time accounting.

        The batched kernel (:mod:`repro.core.replay`) accumulates
        execution and stall cycles in local integers; this applies the
        whole run's totals in one call, landing on exactly the state a
        per-block sequence of :meth:`advance_execution`/:meth:`stall`
        calls would have produced.  Only ungated (tracer-off) replays
        use it, so no per-stall tracer hooks are skipped.
        """
        self.now = now
        self.execution_cycles += execution_delta
        self.counters.stall_cycles += stall_cycles_delta
        self.counters.stalls += stalls_delta

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Settle contention and the background-compression tally.

        Contention models a shared single-issue core: a configured
        fraction of every busy background cycle is charged to the
        execution thread, as one final stall-cycle block.
        """
        contention = (
            self.decompress_worker.contention_cycles()
            + self.compress_worker.contention_cycles()
        )
        if contention:
            self.stall(
                contention, count_stall=False, kind="contention"
            )
        self.counters.background_compress_cycles = (
            self.compress_worker.busy_cycles
        )
