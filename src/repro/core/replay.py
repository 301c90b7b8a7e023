"""The batched trace-replay kernel.

Replaying a recorded block trace through the layered
manager/timing/residency stack costs ~80 Python calls per block even
though the per-step work is a handful of integer/dict operations.  For
sweep replays — thousands of blocks times dozens of grid cells — that
call overhead dominates the whole experiment pipeline.

This module runs the same per-branch state machine as one flat loop
over the trace, with all hot state in locals.  Each step enters a
block (resetting its unit's k-edge counter), ticks the counters of
every other resident unit and recompresses the units that expire
(releasing their patches on the background compression thread), then
makes the next block executable: a full fault decompresses its unit,
a patch fault re-aims a branch that still targets the compressed area.

Exactness is the contract: the loop replicates the per-block path's
operation order bit for bit (fault charging, footprint sample points,
remember-set mutations, compress-worker FIFO arithmetic) and settles
shared subsystem state on exit via the ``absorb_*`` hooks on the
timing model, the background worker, and the code image.  The
trace/machine equivalence suite pins this.

The envelope is on-demand decompression, k-edge or never-recompress
compression, no memory budget, an unbounded separate-area image, and
the tracer off.  Anything else (pre-decompression policies, the
uncompressed baseline, budgets, bounded or in-place images, armed
tracers, injected policy objects) declines to engage and runs on the
layered per-block path unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.tracer import NULL_TRACER
from ..runtime.trace_sim import TraceMachine
from ..strategies.kedge import KEdgeCompression, NeverRecompress
from ..strategies.ondemand import OnDemandDecompression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manager import CodeCompressionManager


def try_batched_replay(manager: "CodeCompressionManager") -> bool:
    """Replay the manager's entire trace on the batched path.

    Returns True when the whole trace was consumed (the machine is
    halted and every subsystem holds exactly the state the per-block
    loop would have produced); False when the configuration is outside
    the kernel's envelope — the caller then runs the layered loop.

    Must be called from :meth:`CodeCompressionManager.run` right after
    the entry block was ensured executable and before the first
    ``_on_block_enter``.
    """
    machine = manager.machine
    if type(machine) is not TraceMachine or machine.position != 0:
        return False
    prepared = getattr(machine, "prepared", None)
    if prepared is None or machine.halted:
        return False
    if manager.config.record_trace:
        return False
    if manager.tracer is not NULL_TRACER and manager.tracer.enabled:
        return False
    if manager._pending_predictions:
        return False
    if type(manager.decompression) is not OnDemandDecompression:
        return False
    compression = manager.compression
    if type(compression) is KEdgeCompression:
        k = compression.k
    elif type(compression) is NeverRecompress:
        k = None
    else:
        return False
    residency = manager.residency
    timing = manager.timing
    if residency.budget is not None:
        return False
    if timing.decompress_worker.backlog():
        return False
    if timing.compress_worker.backlog():
        return False
    # Only the paper's separate-area scheme with an unbounded
    # decompressed area (allocation can never fail, and the
    # footprint is a pure sum of aligned block sizes).  The
    # uncompressed baseline has no image and declines here too.
    from ..memory.image import SeparateAreaImage

    image = residency.image
    if type(image) is not SeparateAreaImage:
        return False
    if image.allocator.capacity is not None:
        return False
    _replay_compressed(manager, prepared, k)
    return True


def _replay_compressed(manager, prepared, k) -> None:
    """On-demand decompression over a separate-area image: the full
    fault/release/patch state machine, flattened."""
    residency = manager.residency
    timing = manager.timing
    config = manager.config
    image = residency.image
    plan = prepared.plan(config.granularity, residency._unit_of)
    trace = prepared.trace
    usteps = plan.unit_steps
    cycles = prepared.cycles
    sites = plan.sites
    n = len(trace)
    geometry = residency.replay_geometry()

    kcount = manager.compression._counters if k is not None else None
    ready = residency._ready_at
    used_since = residency._used_since_decompress
    remember = residency.remember
    site_target = remember._site_target
    by_target = remember._by_target
    fp = residency.footprint._samples
    plain = image._plaintext
    base_size = image.compressed_image_size
    used = image.allocator.used_bytes
    fault_cycles = config.fault_cycles
    patch_cycles = config.patch_cycles

    # Which units already have every block's plaintext memoized (the
    # executed path must still fail on undecodable payloads).
    decoded = {
        unit_id: all(b in plain for b in geo[4])
        for unit_id, geo in geometry.items()
    }

    # Compress-worker FIFO arithmetic, simulated locally (exact same
    # schedule/dedup/retire rules as BackgroundWorker.schedule).
    worker = timing.compress_worker
    w_free = worker.free_at
    w_busy = 0
    w_sched = 0
    w_done = 0
    w_pending = {}

    now = timing.now
    stall_cycles = 0
    stalls = 0
    faults = 0
    decompressions = 0
    recompressions = 0
    patches = 0
    wasted = 0
    tmem_bytes = 0
    tmem_accesses = 0
    img_dec = 0
    img_rel = 0
    ec = {}

    pos = 0
    while True:
        # ---- one per-block step ---------------------------------
        b = trace[pos]
        u = usteps[pos]
        used_since[u] = True
        if kcount is not None:
            kcount[u] = 0
        now += cycles[pos]
        pos += 1
        if pos == n:
            break
        nb = trace[pos]
        nu = usteps[pos]
        edge = (b, nb)
        ec[edge] = ec.get(edge, 0) + 1

        # k-edge tick: every resident unit except the destination.
        if kcount is not None:
            expired = None
            for ru in ready:
                if ru == nu:
                    continue
                count = kcount[ru] + 1
                kcount[ru] = count
                if count >= k:
                    if expired is None:
                        expired = [ru]
                    else:
                        expired.append(ru)
            if expired is not None:
                if len(expired) > 1:
                    expired.sort()
                for ru in expired:
                    # Inline release_unit (recompression).
                    del ready[ru]
                    geo = geometry[ru]
                    released_patches = 0
                    for rb in geo[4]:
                        tset = by_target.pop(rb, None)
                        if tset:
                            for s in tset:
                                del site_target[s]
                            released_patches += len(tset)
                        rb_site = sites[rb]
                        tt = site_target.pop(rb_site, None)
                        if tt is not None:
                            by_target[tt].discard(rb_site)
                    remember.total_patches += released_patches
                    patches += released_patches
                    recompressions += 1
                    if not used_since.pop(ru, True):
                        wasted += 1
                    # schedule_patches: FIFO schedule + retire, local.
                    if ru not in w_pending:
                        latency = patch_cycles * released_patches
                        started = w_free if w_free > now else now
                        completes = started + latency
                        w_free = completes
                        w_busy += latency
                        w_sched += 1
                        w_pending[ru] = (latency, now, started, completes)
                    if w_pending:
                        done = [
                            uu for uu, job in w_pending.items()
                            if job[3] <= now
                        ]
                        for uu in done:
                            del w_pending[uu]
                            w_done += 1
                    kcount.pop(ru, None)
                    used -= geo[0]
                    value = base_size + used
                    if fp and fp[-1][0] == now:
                        fp[-1] = (now, value)
                    else:
                        fp.append((now, value))
                    img_rel += geo[3]

        # ---- ensure the next block is executable ----------------
        if nu not in ready:
            # Full fault: handler + synchronous decompression.
            faults += 1
            geo = geometry[nu]
            if not decoded[nu]:
                for rb in geo[4]:
                    image.block_data(rb)
                decoded[nu] = True
            tmem_bytes += geo[2]
            tmem_accesses += geo[3]
            decompressions += 1
            img_dec += geo[3]
            used_since[nu] = False
            if kcount is not None:
                kcount[nu] = 0
            used += geo[0]
            value = base_size + used
            if fp and fp[-1][0] == now:
                fp[-1] = (now, value)
            else:
                fp.append((now, value))
            stall = fault_cycles + geo[1]
            now += stall
            stall_cycles += stall
            stalls += 1
            ready[nu] = now
            if u in ready:
                # The faulting branch site gets patched.
                site = sites[b]
                previous = site_target.get(site)
                if previous != nb:
                    if previous is not None:
                        by_target[previous].discard(site)
                    targets = by_target.get(nb)
                    if targets is None:
                        by_target[nb] = {site}
                    else:
                        targets.add(site)
                    site_target[site] = nb
                    remember.total_patches += 1
                patches += 1
        elif u not in ready or site_target.get(sites[b]) != nb:
            # Patch fault: copy exists, branch still aims at the
            # compressed area.
            faults += 1
            now += fault_cycles
            stall_cycles += fault_cycles
            if u in ready:
                site = sites[b]
                previous = site_target.get(site)
                if previous != nb:
                    if previous is not None:
                        by_target[previous].discard(site)
                    targets = by_target.get(nb)
                    if targets is None:
                        by_target[nb] = {site}
                    else:
                        targets.add(site)
                    site_target[site] = nb
                    remember.total_patches += 1
                patches += 1

    # ---- settle shared state ------------------------------------
    counters = manager.counters
    counters.blocks_executed += n
    counters.faults += faults
    counters.decompressions += decompressions
    counters.recompressions += recompressions
    counters.patches += patches
    counters.wasted_decompressions += wasted
    counters.target_memory_bytes += tmem_bytes
    counters.target_memory_accesses += tmem_accesses
    timing.absorb_replay(now, plan.total_cycles, stall_cycles, stalls)
    worker.absorb_jobs(
        w_free, w_busy, w_sched, w_done,
        [
            (uu, job[0], job[1], job[2], job[3])
            for uu, job in w_pending.items()
        ],
    )
    resident_blocks = []
    for unit_id in ready:
        resident_blocks.extend(geometry[unit_id][4])
    image.absorb_replay(sorted(resident_blocks), img_dec, img_rel)
    profile = manager.profile
    for (src, dst), count in ec.items():
        profile.record_edge(src, dst, count)
    machine = manager.machine
    machine.steps += plan.total_instructions
    machine.position = n
    machine.halted = True
    manager._blocks_entered += n
    if n >= 2:
        manager._current_block = trace[n - 2]
