"""Trace-driven simulation: replay a recorded block trace.

Interpreting every instruction is the gold standard (results are
self-validating) but costs most of the simulation time.  For large
parameter sweeps the compression machinery only needs the *block
sequence* and per-block cycle costs — exactly what a recorded trace
provides.  :class:`TraceMachine` replays a trace through the standard
:class:`~repro.core.manager.CodeCompressionManager`, producing identical
compression behaviour (faults, stalls, footprint) at a fraction of the
cost.

Typical use::

    base = simulate(program, SimulationConfig(decompression="none"))
    for config in many_configs:
        result = simulate_trace(cfg, base.block_trace, config)

The integration tests assert that trace-driven metrics match
machine-driven metrics exactly for the same program and configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..cfg.builder import ProgramCFG
from ..memory.remember_set import BranchSite
from .machine import BlockOutcome, MachineError


class ReplayPlan:
    """Per-step unit ids and trace-wide totals for one
    (trace, unit granularity) pair.

    Built once per :class:`PreparedTrace` per granularity and shared by
    every grid cell that replays the trace — the batched kernel
    (:mod:`repro.core.replay`) walks these flat lists, next to the
    trace's own ``trace``/``cycles`` arrays, instead of calling through
    the layered manager/timing/residency stack per block.
    """

    __slots__ = (
        "unit_steps", "sites", "total_cycles", "total_instructions",
    )

    def __init__(
        self, prepared: "PreparedTrace", unit_of: Dict[int, int]
    ) -> None:
        self.unit_steps = [unit_of[b] for b in prepared.trace]
        # Terminator branch sites by block id (value-equal to the ones
        # the residency layer memoizes, so remember-set lookups match).
        self.sites = [
            BranchSite(block.block_id, len(block) - 1)
            for block in prepared.cfg.blocks
        ]
        # Trace-wide totals: the kernel charges execution cycles and
        # instruction steps in one operation each.
        self.total_cycles = sum(prepared.cycles)
        self.total_instructions = sum(
            outcome.instructions for outcome in prepared.outcomes
        )


class PreparedTrace:
    """A validated trace with its per-step outcomes precomputed.

    Sweeps replay the same trace through many configurations; validating
    edges and building :class:`~repro.runtime.machine.BlockOutcome`
    objects once — instead of once per grid cell — removes the dominant
    per-cell replay setup cost.  Outcomes are frozen dataclasses, so
    sharing them across :class:`TraceMachine` instances is safe.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        trace: Sequence[int],
        truncated: bool = False,
    ) -> None:
        if truncated:
            raise ValueError(
                "refusing to prepare a truncated trace: the recording "
                "hit the block-trace cap, so replaying it would "
                "silently simulate a shorter run; re-record with a "
                "higher cap or use the interpreting engine"
            )
        if not trace:
            raise ValueError("trace must contain at least one block")
        if trace[0] != cfg.entry_id:
            raise ValueError(
                f"trace must start at the entry block "
                f"B{cfg.entry_id}, got B{trace[0]}"
            )
        for src, dst in zip(trace, trace[1:]):
            if not cfg.has_edge(src, dst):
                raise ValueError(
                    f"trace contains impossible transition "
                    f"B{src} -> B{dst}"
                )
        self.cfg = cfg
        self.trace = list(trace)
        last = len(trace) - 1
        self.outcomes: List[BlockOutcome] = []
        for position, block_id in enumerate(self.trace):
            block = cfg.block(block_id)
            self.outcomes.append(
                BlockOutcome(
                    block_id,
                    self.trace[position + 1] if position < last else None,
                    block.cycle_cost,
                    len(block.instructions),
                )
            )
        # Flat per-step cycle costs for the batched replay kernel.
        self.cycles: List[int] = [o.cycles for o in self.outcomes]
        #: granularity -> ReplayPlan (unit maps are pure functions of
        #: (cfg, granularity), so one plan serves every grid cell).
        self._plans: Dict[str, ReplayPlan] = {}

    def plan(
        self, granularity: str, unit_of: Dict[int, int]
    ) -> ReplayPlan:
        """The (cached) :class:`ReplayPlan` for ``granularity``.

        ``unit_of`` must be the block->unit map for that granularity —
        the caller (the residency subsystem) already has it computed.
        """
        plan = self._plans.get(granularity)
        if plan is None:
            plan = ReplayPlan(self, unit_of)
            self._plans[granularity] = plan
        return plan

    @classmethod
    def from_result(cls, cfg: ProgramCFG, result) -> "PreparedTrace":
        """Prepare the trace a :class:`SimulationResult` recorded.

        Refuses (with a clear error) results whose trace was truncated
        by the recording cap — a truncated trace would replay a shorter
        run than the one that produced the metrics.
        """
        return cls(
            cfg,
            result.block_trace,
            truncated=getattr(result, "trace_truncated", False),
        )


class TraceMachine:
    """Drop-in replacement for :class:`~repro.runtime.machine.Machine`
    that replays a prerecorded block trace.

    Register/memory state is not modelled: ``registers`` is ``None``, so
    a replayed run's :class:`SimulationResult.registers` is explicitly
    absent instead of presenting zeroed garbage as real machine state.
    Cycle costs come from each block's static instruction costs, which is
    exactly what the interpreting machine charges.  Accepts either a raw
    block-id sequence or a :class:`PreparedTrace` (which skips the
    per-instance validation).
    """

    #: Engine tag carried into :class:`SimulationResult.engine`.
    engine_name = "trace"

    def __init__(
        self,
        cfg: ProgramCFG,
        trace: Union[PreparedTrace, Sequence[int]],
    ) -> None:
        if not isinstance(trace, PreparedTrace):
            trace = PreparedTrace(cfg, trace)
        elif trace.cfg is not cfg:
            raise ValueError("prepared trace belongs to a different CFG")
        self.cfg = cfg
        #: The validated trace product, exposed so the batched replay
        #: kernel can reuse its precomputed per-step arrays.
        self.prepared = trace
        self.trace = trace.trace
        self._outcomes = trace.outcomes
        self.position = 0
        self.registers: Optional[List[int]] = None
        self.halted = False
        self.steps = 0

    def run_block(self, block) -> BlockOutcome:
        """Replay one step of the trace."""
        if self.halted:
            raise MachineError("trace machine is halted")
        position = self.position
        outcome = self._outcomes[position]
        if block.block_id != outcome.block_id:
            raise MachineError(
                f"trace divergence: asked to run B{block.block_id}, "
                f"trace position {position} expects B{outcome.block_id}"
            )
        self.steps += outcome.instructions
        self.position = position + 1
        if outcome.next_block_id is None:
            self.halted = True
        return outcome


def simulate_trace(
    cfg: ProgramCFG,
    trace: Union[PreparedTrace, Sequence[int]],
    config=None,
    max_blocks: Optional[int] = None,
    compression_policy=None,
    decompression_policy=None,
    tracer=None,
):
    """Run the compression machinery over a recorded block trace.

    Returns the same :class:`~repro.runtime.metrics.SimulationResult` a
    full simulation would, except ``registers`` is ``None`` (replay does
    not model register state) and ``engine`` is tagged ``"trace"``.
    ``compression_policy``/``decompression_policy`` are optional policy
    instances forwarded to the manager (for ablations such as E12 that
    inject non-config policies into a trace replay).  Pass a
    :class:`PreparedTrace` when replaying the same trace many times.
    ``tracer`` optionally arms cycle-domain span tracing for the replay
    (an ambient :func:`repro.obs.tracing_scope` covers replays too, as
    they build the same manager).
    """
    from ..core.manager import CodeCompressionManager

    manager = CodeCompressionManager(
        cfg,
        config,
        compression_policy=compression_policy,
        decompression_policy=decompression_policy,
        tracer=tracer,
    )
    manager.machine = TraceMachine(cfg, trace)
    return manager.run(max_blocks=max_blocks)
