"""The benchmark's correctness gate.

A pass is correct when every cell completed, its oracle accepted it,
and the digest of the pass's per-cell simulated statistics equals the
digest frozen in ``expected.json`` for this workload (and, for
``synthetic_budget``, this seed).  Seeds without a frozen digest are
checked by the oracle alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def expected_digest(expected: dict, workload: str,
                    seed: int) -> Optional[str]:
    """The frozen digest for this workload and seed, or None."""
    digest = expected["digests"].get(workload)
    if isinstance(digest, dict):
        return digest.get(str(seed))
    return digest


def cell_record(run) -> Dict[str, object]:
    """Everything a cell simulated, engine- and host-independent."""
    result = run.result
    return {
        "workload": run.workload,
        "strategy": run.config.strategy_name,
        "total_cycles": result.total_cycles,
        "execution_cycles": result.execution_cycles,
        "counters": result.counters.to_dict(),
        "peak_footprint": result.peak_footprint,
        "average_footprint": repr(result.average_footprint),
        "compressed_size": result.compressed_size,
        "uncompressed_size": result.uncompressed_size,
    }


def digest(records: Sequence[Dict[str, object]]) -> str:
    """Order-independent digest of a pass's cell records."""
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cell_problems(run, registers: Optional[List[int]] = None) -> List[str]:
    """Why a cell fails its oracle (empty when it passes).

    ``registers`` is the uncompressed baseline's final register file;
    when given, the cell must end in exactly that state (the
    differential oracle for generated programs).
    """
    name = f"{run.workload}:{run.config.strategy_name}"
    if run.error is not None:
        return [f"{name}: raised {run.error}"]
    problems = [f"{name}: {v}" for v in run.validation]
    if registers is not None and run.result.registers != registers:
        problems.append(f"{name}: final registers differ from baseline")
    return problems


class Tally:
    """What a run's passes attempted, and what went wrong."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.digests: List[str] = []
        self.cells = 0
        self.failed = 0
        self.problems: List[str] = []
        self.results: list = []

    def add_pass(self, runs, check, want: Optional[str]) -> None:
        """Gate one pass: each cell's oracle, then the pass digest
        against the frozen one (``want``; None checks the oracle only).
        A digest mismatch fails every cell of the pass."""
        failed = 0
        for run in runs:
            problems = check(run)
            failed += bool(problems)
            self.problems += problems
        got = digest([cell_record(run) for run in runs])
        if want is not None and got != want:
            self.problems.append(f"digest mismatch: got {got}, "
                                 f"frozen {want}")
            failed = len(runs)
        self.digests.append(got)
        self.cells += len(runs)
        self.failed += failed
        self.results = [run.result for run in runs]
