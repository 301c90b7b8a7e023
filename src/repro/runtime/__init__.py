"""Runtime substrate: machine, trace replay, metrics, background threads."""

from .machine import BlockOutcome, Machine, MachineError
from .metrics import Counters, FootprintTimeline, SimulationResult
from .threads import BackgroundWorker, Job
from .trace_sim import PreparedTrace, TraceMachine, simulate_trace

__all__ = [
    "BackgroundWorker",
    "BlockOutcome",
    "Counters",
    "FootprintTimeline",
    "Job",
    "Machine",
    "MachineError",
    "PreparedTrace",
    "SimulationResult",
    "TraceMachine",
    "simulate_trace",
]
