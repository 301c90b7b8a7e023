"""Deterministic background-thread timelines (Figure 4 of the paper).

The paper employs three threads: execution, decompression, compression.
We model the two background threads as single-server FIFO work queues on
the same cycle clock as the execution thread:

* a job scheduled at cycle ``t`` starts when the worker is free and
  completes ``latency`` cycles later;
* the execution thread stalls only when it *reaches* a block whose
  decompression has not completed (it waits for the remainder);
* cancelling a job (e.g. the k-edge policy recompresses a block whose
  pre-decompression never started) refunds the un-performed work and
  re-chains the queue — the worker only "spends" cycles it actually
  worked;
* "the compression thread utilizes the idle cycles of the execution
  thread" (Section 3) — by default background work is free for the
  execution thread (separate core / DMA engine); an optional
  ``contention`` factor charges the execution thread a fraction of every
  busy background cycle to model a shared single-issue core.

Determinism: no real threads, just arithmetic on completion times, so all
experiments reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional


@dataclass
class Job:
    """A background job for one block/unit."""

    block_id: int
    latency: int
    scheduled_at: int
    started_at: int
    completes_at: int
    seq: int

    @property
    def queue_delay(self) -> int:
        """Cycles the job waited before service."""
        return self.started_at - self.scheduled_at


class BackgroundWorker:
    """Single-server FIFO work queue on the global cycle clock.

    ``contention`` in [0, 1] is the fraction of each busy background cycle
    that the execution thread must additionally pay (0 = perfectly
    parallel, 1 = fully serialised on the main core).
    """

    def __init__(self, name: str, contention: float = 0.0) -> None:
        if not 0.0 <= contention <= 1.0:
            raise ValueError(
                f"contention must be in [0, 1], got {contention}"
            )
        self.name = name
        self.contention = contention
        self.free_at = 0
        self.busy_cycles = 0  # work actually performed (refunds applied)
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._pending: Dict[int, Job] = {}
        self._seq = 0
        # Earliest pending completion (a lower bound after cancel(id)).
        self._next_due = inf

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, now: int, block_id: int, latency: int) -> Job:
        """Enqueue a job for ``block_id``; returns the Job with its
        completion time.  At most one outstanding job per block."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        existing = self._pending.get(block_id)
        if existing is not None:
            return existing
        started = max(now, self.free_at)
        job = Job(block_id, latency, now, started, started + latency,
                  self._seq)
        self._seq += 1
        self.free_at = job.completes_at
        self.busy_cycles += latency
        self._pending[block_id] = job
        if job.completes_at < self._next_due:
            self._next_due = job.completes_at
        return job

    def cancel(self, block_id: int, now: Optional[int] = None) -> Optional[Job]:
        """Drop the pending job for ``block_id``.

        With ``now`` given, un-performed work is refunded: a job that has
        not started yet costs nothing; a job in flight keeps only its
        elapsed service time.  Queued jobs behind it are re-chained to
        start earlier.
        """
        job = self._pending.pop(block_id, None)
        if job is None:
            return None
        self.jobs_cancelled += 1
        if now is None:
            return job
        if job.started_at >= now:
            refund = job.latency
        else:
            refund = max(0, job.completes_at - now)
        self.busy_cycles -= refund
        self._rechain(now)
        return job

    def _rechain(self, now: int) -> None:
        """Recompute start/completion times after a cancellation.

        Jobs already finished or in flight keep their times; jobs not yet
        started are re-packed FIFO behind them.
        """
        jobs = sorted(self._pending.values(), key=lambda job: job.seq)
        cursor = now
        for job in jobs:
            if job.started_at < now:
                # Finished or in flight: immovable.
                cursor = max(cursor, job.completes_at)
        for job in jobs:
            if job.started_at >= now:
                job.started_at = max(cursor, job.scheduled_at)
                job.completes_at = job.started_at + job.latency
                cursor = job.completes_at
        self.free_at = cursor
        self._update_next_due()

    def _update_next_due(self) -> None:
        self._next_due = min(
            (job.completes_at for job in self._pending.values()),
            default=inf,
        )

    def absorb_jobs(
        self,
        free_at: int,
        busy_delta: int,
        scheduled: int,
        completed: int,
        pending,
    ) -> None:
        """Absorb a batch of externally simulated jobs.

        The batched trace-replay kernel simulates this worker's FIFO
        arithmetic in local variables (same schedule/retire rules) and
        settles the result here: the clock (``free_at``), the performed
        work, the completed-job tally, and any still-outstanding jobs as
        ``(block_id, latency, scheduled_at, started_at, completes_at)``
        tuples in schedule order.
        """
        self.free_at = free_at
        self.busy_cycles += busy_delta
        self.jobs_completed += completed
        added = 0
        for block_id, latency, scheduled_at, started, completes in pending:
            self._pending[block_id] = Job(
                block_id, latency, scheduled_at, started, completes,
                self._seq,
            )
            self._seq += 1
            added += 1
        self._seq += scheduled - added
        self._update_next_due()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def completion_time(self, block_id: int) -> Optional[int]:
        """Completion cycle of the pending job for ``block_id``, if any."""
        job = self._pending.get(block_id)
        return None if job is None else job.completes_at

    def is_pending(self, block_id: int, now: int) -> bool:
        """True if ``block_id`` has a job that completes after ``now``."""
        job = self._pending.get(block_id)
        return job is not None and job.completes_at > now

    def retire_completed(self, now: int) -> List[Job]:
        """Remove and return jobs completed by ``now``."""
        if now < self._next_due:
            return []
        done = []
        self._next_due = inf
        for job in self._pending.values():
            if job.completes_at <= now:
                done.append(job)
            elif job.completes_at < self._next_due:
                self._next_due = job.completes_at
        for job in done:
            del self._pending[job.block_id]
        self.jobs_completed += len(done)
        if len(done) > 1:
            done.sort(key=lambda job: (job.completes_at, job.seq))
        return done

    def pending_jobs(self) -> List[Job]:
        """Snapshot of outstanding jobs in FIFO order."""
        return sorted(self._pending.values(), key=lambda job: job.seq)

    def backlog(self) -> int:
        """Number of outstanding jobs."""
        return len(self._pending)

    def contention_cycles(self) -> int:
        """Execution-thread cycles charged for sharing the core."""
        return int(round(self.busy_cycles * self.contention))
