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

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg.builder import ProgramCFG
from ..memory.remember_set import BranchSite
from .machine import BlockOutcome, MachineError

#: Steps covered by one fast-forward window of a :class:`ReplayPlan`.
#: Must be a power of two (the batched kernel tests window alignment
#: with a bitmask).
WINDOW_SIZE = 32


def _build_window(
    trace: Sequence[int],
    unit_steps: Sequence[int],
    cycles: Sequence[int],
    instructions: Sequence[int],
    start: int,
    width: int,
) -> Tuple:
    """Aggregate one fast-forward window over steps [start, start+width).

    Each step enters ``trace[i]`` (resetting its unit's k-edge counter),
    then traverses the edge to ``trace[i+1]`` (incrementing every other
    resident unit's counter).  The window tuple carries everything the
    batched kernel needs to (a) decide the unit set cannot change across
    the window and (b) apply the whole window's bookkeeping in bulk:

    ``(cycle_sum, instr_sum, window_units, entered_units, edge_items,
    dst_counts, heads, maxgaps, tails)``

    * ``window_units`` — units of ``trace[start .. start+width]``
      (including the final ensure target); all must be resident.
    * ``edge_items`` — distinct ``(src, dst)`` block edges with counts,
      in first-traversal order.
    * ``dst_counts`` — per unit, how many window edges have it as the
      (exempt) destination unit.
    * ``heads``/``maxgaps``/``tails`` — per entered unit, k-edge counter
      increments before its first reset, the largest run between resets
      (tail included), and the increments after its last reset (= its
      counter value after the window).
    """
    end = start + width
    cyc = 0
    ins = 0
    edge_items: Dict[Tuple[int, int], int] = {}
    dst_counts: Dict[int, int] = {}
    entered: Dict[int, None] = {}
    units: Dict[int, None] = {}
    for i in range(start, end):
        cyc += cycles[i]
        ins += instructions[i]
        units[unit_steps[i]] = None
        entered[unit_steps[i]] = None
        edge = (trace[i], trace[i + 1])
        edge_items[edge] = edge_items.get(edge, 0) + 1
        dst = unit_steps[i + 1]
        dst_counts[dst] = dst_counts.get(dst, 0) + 1
    units[unit_steps[end]] = None
    heads: Dict[int, int] = {}
    maxgaps: Dict[int, int] = {}
    tails: Dict[int, int] = {}
    for unit in entered:
        head = 0
        maxgap = 0
        current: Optional[int] = None
        for i in range(start, end):
            if unit_steps[i] == unit:
                current = 0
            if unit_steps[i + 1] != unit:
                if current is None:
                    head += 1
                else:
                    current += 1
                    if current > maxgap:
                        maxgap = current
        heads[unit] = head
        maxgaps[unit] = maxgap
        tails[unit] = current or 0
    return (
        cyc,
        ins,
        tuple(units),
        tuple(entered),
        tuple(edge_items.items()),
        dst_counts,
        heads,
        maxgaps,
        tails,
    )


class ReplayPlan:
    """Precomputed per-step arrays + window aggregates for one
    (trace, unit granularity) pair.

    Built once per :class:`PreparedTrace` per granularity and shared by
    every grid cell that replays the trace — the batched kernel
    (:mod:`repro.core.replay`) walks these flat lists instead of calling
    through the layered manager/timing/residency stack per block.
    """

    __slots__ = (
        "trace", "cycles", "instructions", "unit_steps", "sites",
        "window_size", "windows", "total_cycles", "total_instructions",
        "edge_items", "block_visits", "entered_units",
    )

    def __init__(
        self,
        cfg: ProgramCFG,
        trace: Sequence[int],
        cycles: Sequence[int],
        instructions: Sequence[int],
        unit_of: Dict[int, int],
    ) -> None:
        self.trace = list(trace)
        self.cycles = list(cycles)
        self.instructions = list(instructions)
        self.unit_steps = [unit_of[block_id] for block_id in self.trace]
        # Terminator branch sites by block id (value-equal to the ones
        # the residency layer memoizes, so remember-set lookups match).
        self.sites = [
            BranchSite(block.block_id, len(block) - 1)
            for block in cfg.blocks
        ]
        self.window_size = width = WINDOW_SIZE
        # Each window also reads the step after it (its final edge).
        self.windows = [
            _build_window(self.trace, self.unit_steps, self.cycles,
                          self.instructions, start, width)
            for start in range(0, len(self.trace) - width, width)
        ]
        # Trace-wide aggregates (the batched kernel charges these in one
        # operation each instead of summing per step).
        self.total_cycles = sum(self.cycles)
        self.total_instructions = sum(self.instructions)
        edge_items: Dict[Tuple[int, int], int] = {}
        for src, dst in zip(self.trace, self.trace[1:]):
            edge = (src, dst)
            edge_items[edge] = edge_items.get(edge, 0) + 1
        #: Distinct (src, dst) edges with traversal counts, in
        #: first-traversal order.
        self.edge_items = tuple(edge_items.items())
        visits: Dict[int, int] = {}
        for block_id in self.trace:
            visits[block_id] = visits.get(block_id, 0) + 1
        #: block id -> number of times the trace enters it.
        self.block_visits = visits
        entered: Dict[int, None] = {}
        for unit in self.unit_steps:
            entered[unit] = None
        #: Distinct units the trace enters, in first-entry order.
        self.entered_units = tuple(entered)


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
        # Flat per-step cost arrays for the batched replay kernel.
        self.cycles: List[int] = [o.cycles for o in self.outcomes]
        self.instructions: List[int] = [
            o.instructions for o in self.outcomes
        ]
        #: granularity -> ReplayPlan (unit maps are pure functions of
        #: (cfg, granularity), so one plan serves every grid cell).
        self._plans: Dict[str, ReplayPlan] = {}
        #: hierarchy name -> per-block (read_bytes, read_cycles) for the
        #: uncompressed-mode entry charge.
        self._entry_charges: Dict[str, Tuple[List[int], List[int]]] = {}

    def plan(
        self, granularity: str, unit_of: Dict[int, int]
    ) -> ReplayPlan:
        """The (cached) :class:`ReplayPlan` for ``granularity``.

        ``unit_of`` must be the block->unit map for that granularity —
        the caller (the residency subsystem) already has it computed.
        """
        plan = self._plans.get(granularity)
        if plan is None:
            plan = ReplayPlan(self.cfg, self.trace, self.cycles,
                              self.instructions, unit_of)
            self._plans[granularity] = plan
        return plan

    def entry_charges(
        self, hierarchy_name: str, hierarchy
    ) -> Tuple[List[int], List[int]]:
        """Per-block (target read bytes, read cycles) lists for the
        uncompressed entry charge, cached per hierarchy preset."""
        charges = self._entry_charges.get(hierarchy_name)
        if charges is None:
            nbytes = [block.size_bytes for block in self.cfg.blocks]
            charges = (
                [hierarchy.target_read_bytes(b) for b in nbytes],
                [hierarchy.target_read_cycles(b) for b in nbytes],
            )
            self._entry_charges[hierarchy_name] = charges
        return charges

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
        #: kernel can reuse its precomputed per-step arrays and windows.
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
