"""Property tests for the per-block loop's bookkeeping structures.

:class:`~repro.runtime.threads.BackgroundWorker` keeps an earliest-due
cycle so that retiring returns at once while nothing is due, and the
:class:`~repro.memory.allocator.FreeListAllocator` keeps its free list
as parallel integer lists.  Both are driven here against the plain
scanning implementations they replaced, frozen below as oracles: every
return value and every observable field must agree after every step.
:class:`~repro.memory.remember_set.RememberSets` indexes its sites by
the block holding them; random operation sequences must leave that
index consistent (``validate()`` checks it).
"""

from typing import Dict, List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.memory import AllocationError, BranchSite, FreeListAllocator
from repro.memory.remember_set import RememberSets
from repro.runtime.threads import BackgroundWorker


# ----------------------------------------------------------------------
# Frozen oracle: the scanning BackgroundWorker
# ----------------------------------------------------------------------


class _OracleJob:
    def __init__(self, block_id, latency, scheduled_at, started_at,
                 completes_at, seq):
        self.block_id = block_id
        self.latency = latency
        self.scheduled_at = scheduled_at
        self.started_at = started_at
        self.completes_at = completes_at
        self.seq = seq


class _OracleWorker:
    def __init__(self) -> None:
        self.free_at = 0
        self.busy_cycles = 0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._pending: Dict[int, _OracleJob] = {}
        self._seq = 0

    def schedule(self, now, block_id, latency):
        existing = self._pending.get(block_id)
        if existing is not None:
            return existing
        started = max(now, self.free_at)
        job = _OracleJob(block_id, latency, now, started,
                         started + latency, self._seq)
        self._seq += 1
        self.free_at = job.completes_at
        self.busy_cycles += latency
        self._pending[block_id] = job
        return job

    def cancel(self, block_id, now=None):
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

    def _rechain(self, now):
        jobs = sorted(self._pending.values(), key=lambda job: job.seq)
        cursor = now
        for job in jobs:
            if job.started_at < now:
                cursor = max(cursor, job.completes_at)
        for job in jobs:
            if job.started_at >= now:
                job.started_at = max(cursor, job.scheduled_at)
                job.completes_at = job.started_at + job.latency
                cursor = job.completes_at
        self.free_at = cursor

    def retire_completed(self, now):
        if not self._pending:
            return []
        done = [
            job for job in self._pending.values() if job.completes_at <= now
        ]
        for job in done:
            del self._pending[job.block_id]
            self.jobs_completed += 1
        return sorted(done, key=lambda job: (job.completes_at, job.seq))

    def pending_jobs(self):
        return sorted(self._pending.values(), key=lambda job: job.seq)


def _fields(job) -> Optional[tuple]:
    if job is None:
        return None
    return (job.block_id, job.latency, job.scheduled_at, job.started_at,
            job.completes_at, job.seq)


def _state(worker) -> tuple:
    return (
        worker.free_at, worker.busy_cycles, worker.jobs_completed,
        worker.jobs_cancelled,
        [_fields(job) for job in worker.pending_jobs()],
    )


#: (op, time advance, block id, latency); time only moves forward, as
#: the simulation clock does.
_WORKER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "cancel", "cancel-no-now",
                         "retire"]),
        st.sampled_from([0, 0, 0, 1, 2, 5, 10, 25]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=80,
)


class TestWorkerMatchesScanningOracle:
    @given(ops=_WORKER_OPS)
    # Cancelling the head job re-chains a later one to complete before
    # the cancelled one would have: the earliest-due cycle must follow.
    @example(ops=[("schedule", 0, 1, 10), ("schedule", 0, 2, 2),
                  ("cancel", 0, 1, 0), ("retire", 2, 0, 0)])
    @settings(max_examples=300, deadline=None)
    def test_schedule_cancel_retire_sequences(self, ops):
        worker = BackgroundWorker("w")
        oracle = _OracleWorker()
        now = 0
        for op, advance, block_id, latency in ops:
            now += advance
            if op == "schedule":
                got = worker.schedule(now, block_id, latency)
                want = oracle.schedule(now, block_id, latency)
                assert _fields(got) == _fields(want)
            elif op == "cancel":
                assert _fields(worker.cancel(block_id, now)) == _fields(
                    oracle.cancel(block_id, now)
                )
            elif op == "cancel-no-now":
                assert _fields(worker.cancel(block_id)) == _fields(
                    oracle.cancel(block_id)
                )
            else:
                got = [_fields(j) for j in worker.retire_completed(now)]
                want = [_fields(j) for j in oracle.retire_completed(now)]
                assert got == want
            assert _state(worker) == _state(oracle)
            assert worker.backlog() == len(oracle.pending_jobs())
            for job in oracle.pending_jobs():
                assert worker.completion_time(job.block_id) == (
                    job.completes_at
                )


    def test_absorbed_jobs_retire_when_due(self):
        worker = BackgroundWorker("w")
        worker.absorb_jobs(30, 30, 2, 0, [(7, 20, 0, 0, 20),
                                           (8, 10, 0, 20, 30)])
        assert worker.retire_completed(19) == []
        assert [job.block_id for job in worker.retire_completed(25)] == [7]
        assert [job.block_id for job in worker.retire_completed(30)] == [8]


# ----------------------------------------------------------------------
# Frozen oracle: the FreeHole-list allocator
# ----------------------------------------------------------------------


class _OracleAllocator:
    def __init__(self, capacity=None, alignment=4):
        self.capacity = capacity
        self.alignment = alignment
        self.allocations: Dict[int, int] = {}
        self.holes: List[list] = [[0, capacity]] if capacity else []
        self.extent = 0
        self.used_bytes = 0
        self.peak_used_bytes = 0

    def allocate(self, size):
        size += -size % self.alignment
        for index, (start, hole_size) in enumerate(self.holes):
            if hole_size >= size:
                if hole_size - size:
                    self.holes[index] = [start + size, hole_size - size]
                else:
                    self.holes.pop(index)
                return self._commit(start, size)
        if self.capacity is None:
            return self._commit(self.extent, size)
        raise AllocationError("full")

    def _commit(self, start, size):
        self.allocations[start] = size
        self.extent = max(self.extent, start + size)
        self.used_bytes += size
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes)
        return start

    def free(self, start):
        size = self.allocations.pop(start)
        self.used_bytes -= size
        holes = self.holes
        index = 0
        while index < len(holes) and holes[index][0] < start:
            index += 1
        holes.insert(index, [start, size])
        if index + 1 < len(holes) and (
            holes[index][0] + holes[index][1] == holes[index + 1][0]
        ):
            holes[index][1] += holes.pop(index + 1)[1]
        if index > 0 and holes[index - 1][0] + holes[index - 1][1] == start:
            holes[index - 1][1] += holes.pop(index)[1]
        return size


_ALLOC_OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "free"]),
              st.integers(min_value=1, max_value=200)),
    min_size=1,
    max_size=120,
)


class TestAllocatorMatchesHoleListOracle:
    @given(ops=_ALLOC_OPS, capacity=st.sampled_from([None, 1024, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_allocate_free_sequences(self, ops, capacity):
        alloc = FreeListAllocator(capacity=capacity)
        oracle = _OracleAllocator(capacity=capacity)
        live: List[int] = []
        for op, value in ops:
            if op == "alloc":
                try:
                    want = oracle.allocate(value)
                except AllocationError:
                    want = None
                if want is None:
                    try:
                        alloc.allocate(value)
                    except AllocationError:
                        continue
                    raise AssertionError("allocator accepted a request "
                                         "the oracle refused")
                assert alloc.allocate(value) == want
                live.append(want)
            elif live:
                start = live.pop(value % len(live))
                assert alloc.free(start) == oracle.free(start)
            assert [(h.start, h.size) for h in alloc.holes()] == [
                tuple(h) for h in oracle.holes
            ]
            assert alloc.allocations() == oracle.allocations
            assert alloc.used_bytes == oracle.used_bytes
            assert alloc.peak_used_bytes == oracle.peak_used_bytes
            assert alloc.extent_bytes == oracle.extent


# ----------------------------------------------------------------------
# Remember sets: the by-block site index stays consistent
# ----------------------------------------------------------------------

_REMEMBER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "drop_target", "drop_block"]),
        st.integers(min_value=0, max_value=5),  # target / block
        st.integers(min_value=0, max_value=5),  # site block
        st.integers(min_value=0, max_value=2),  # site instr index
    ),
    min_size=1,
    max_size=100,
)


class TestRememberSetIndex:
    @given(ops=_REMEMBER_OPS)
    @settings(max_examples=200, deadline=None)
    def test_random_sequences_validate_clean(self, ops):
        rs = RememberSets()
        for op, target, block, index in ops:
            if op == "add":
                rs.add_reference(target, BranchSite(block, index))
            elif op == "drop_target":
                rs.drop_target(target)
            else:
                rs.drop_sites_in_block(block)
                assert not any(
                    site.block_id == block
                    for t in range(6) for site in rs.references_to(t)
                )
            assert rs.validate() == []

    def test_validate_reports_a_stale_index_entry(self):
        rs = RememberSets()
        rs.add_reference(1, BranchSite(0, 2))
        rs._by_block.setdefault(3, set()).add(BranchSite(0, 2))
        assert rs.validate()
