"""The four benchmark workloads, each a slice of the strategy grid.

The grid is the paper's: the 15 suite kernels x {ondemand, pre-single,
pre-all} x k_compress in {1, 2, 4, 8, inf}.  Each workload has a
``setup()`` (everything before the first timed pass: inputs, CFGs,
trace recordings, compressed images and assignments, store pre-fill)
a ``run_pass()`` that performs one warm pass over its cells and returns
them as the program reported them, and a ``check(run)`` oracle that
lists why a cell is wrong (empty when it is right).
"""

from __future__ import annotations

import importlib
import os
import shutil
from typing import List, Optional

from repro import api
from repro.cfg.builder import build_cfg_cached
from repro.core.config import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.workloads import generators, suite

import gate

# The package re-exports the function ``sweep`` under the module's name.
sweep_mod = importlib.import_module("repro.analysis.sweep")

K_VALUES = (1, 2, 4, 8, None)
PREDECOMP = ("pre-single", "pre-all")


def suite_configs(policies) -> List[SimulationConfig]:
    return [
        SimulationConfig(decompression=policy, k_compress=k,
                         trace_events=False, record_trace=False)
        for policy in policies for k in K_VALUES
    ]


def _raise_problems(stage, runs, check) -> None:
    problems = [p for run in runs for p in check(run)]
    if problems:
        raise RuntimeError(f"{stage} failed: {problems[:3]}")


class SuiteGrid:
    """Suite kernels x ``policies`` x k on the trace engine, serial,
    no store: the sweep layer is called directly, as a researcher's
    script would."""

    def __init__(self, policies) -> None:
        self.configs = suite_configs(policies)
        self.workloads: list = []

    def setup(self) -> None:
        self.workloads = suite.full_suite()
        # Warm-up: one cell per kernel records its trace, builds its
        # CFG and compresses its image, so timed passes are warm.
        _raise_problems("warm-up", self._sweep(self.configs[:1]),
                        self.check)

    def _sweep(self, configs):
        return sweep_mod.sweep(self.workloads, configs,
                               engine="trace").runs

    def run_pass(self):
        return self._sweep(self.configs)

    def check(self, run) -> List[str]:
        return gate.cell_problems(run)


class StoreMixed:
    """The full 225-cell grid through ``api.run_experiment`` with a
    store that already holds the 150 pre-* cells: each pass reads 150
    cells and computes and writes the 75 ondemand cells in the pool."""

    def __init__(self, scratch: str, jobs: int) -> None:
        self.jobs = jobs
        self.template = os.path.join(scratch, "store-template")
        self.live = os.path.join(scratch, "store-live")
        self.spec: Optional[api.ExperimentSpec] = None

    @staticmethod
    def _spec(policies) -> "api.ExperimentSpec":
        return api.ExperimentSpec(
            workloads=suite.available_workloads(),
            base={"codec": "shared-dict", "trace_events": False,
                  "record_trace": False},
            axes=api.grid(decompression=list(policies),
                          k_compress=[1, 2, 4, 8, "inf"]),
            engine="trace",
        )

    def setup(self) -> None:
        self.spec = self._spec(("ondemand",) + PREDECOMP)
        prefill = api.run_experiment(self._spec(PREDECOMP),
                                     jobs=self.jobs, store=self.template)
        _raise_problems("store pre-fill", prefill.runs, self.check)

    def prepare_pass(self) -> None:
        """Untimed: a fresh copy of the pre-filled store."""
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.template, self.live)

    def run_pass(self):
        result_set = api.run_experiment(self.spec, jobs=self.jobs,
                                        store=self.live)
        result_set.canonical_json()
        return result_set.runs

    def check(self, run) -> List[str]:
        return gate.cell_problems(run)


class SyntheticBudget:
    """Generated ~16 KB programs on the machine engine with the
    pipeline-search assignment, the spm-front hierarchy and a memory
    budget 2 KiB above each program's own compressed image.

    The seed yields one program per cell of {ondemand, pre-single} x
    k in {1, inf}: how costly a generated program is to assign and
    simulate varies widely from program to program, and four of them
    per run keep the figure steady across seeds at the cost of one.
    Every cell runs the first ``MAX_BLOCKS`` blocks, so the simulated
    work does not depend on the programs' loop trip counts.  The oracle
    is differential: each cell must end with the register file of its
    program's uncompressed baseline run for the same block count.
    """

    TARGET_BYTES = 16 * 1024
    LOOP_ITERS = (8, 24)
    MAX_BLOCKS = 16_000
    BUDGET_SLACK = 2048
    CELLS = (("ondemand", 1), ("ondemand", None),
             ("pre-single", 1), ("pre-single", None))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cells: list = []
        self.baselines: dict = {}

    @staticmethod
    def _config(**kw) -> SimulationConfig:
        return SimulationConfig(
            assignment="pipeline-search", hierarchy="spm-front",
            trace_events=False, record_trace=False, **kw,
        )

    def setup(self) -> None:
        for index, (policy, k) in enumerate(self.CELLS):
            program_seed = self.seed * len(self.CELLS) + index
            program = generators.generate_sized_program(
                program_seed, self.TARGET_BYTES,
                loop_iters=self.LOOP_ITERS,
            )
            workload = suite.Workload(
                name=f"synthetic-{program_seed}",
                description=f"generated program, seed {program_seed}",
                program=program,
                check=lambda machine: [],
            )
            baseline = sweep_mod.run_one(
                workload,
                SimulationConfig(decompression="none", codec="null",
                                 trace_events=False, record_trace=False),
                max_blocks=self.MAX_BLOCKS,
            )
            _raise_problems("baseline run", [baseline],
                            gate.cell_problems)
            self.baselines[workload.name] = baseline.result.registers
            # The unbudgeted priming cell: building it compresses the
            # image under the assignment; its size sets the budget.
            priming = CodeCompressionManager(
                build_cfg_cached(program),
                self._config(decompression=policy, k_compress=k),
            )
            budget = (priming.image.compressed_image_size
                      + self.BUDGET_SLACK)
            self.cells.append((workload, self._config(
                decompression=policy, k_compress=k,
                memory_budget=budget)))

    def run_pass(self):
        return [
            run
            for workload, config in self.cells
            for run in sweep_mod.sweep([workload], [config],
                                       engine="machine",
                                       max_blocks=self.MAX_BLOCKS).runs
        ]

    def check(self, run) -> List[str]:
        return gate.cell_problems(
            run, registers=self.baselines[run.workload])


WORKLOADS = ("suite_ondemand", "suite_predecomp", "store_mixed",
             "synthetic_budget")


def make(name: str, seed: int, scratch: str, jobs: int):
    if name == "suite_ondemand":
        return SuiteGrid(("ondemand",))
    if name == "suite_predecomp":
        return SuiteGrid(PREDECOMP)
    if name == "store_mixed":
        return StoreMixed(scratch, jobs)
    if name == "synthetic_budget":
        return SyntheticBudget(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

