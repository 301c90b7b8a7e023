"""Self-test of the benchmark's own machinery (``run.py --self-test``).

Checks, on the ``suite_ondemand`` workload:

* the untraced run carries no layer wrapper, the traced one wraps
  every boundary, and leaving the traced block restores the originals;
* a traced pass simulates exactly what an untraced pass does (equal
  digests, equal to the frozen one);
* the gate trips on a perturbed cell record (digest), on a cell the
  oracle rejects, and on a cell that raised.
"""

from __future__ import annotations

import dataclasses

import gate
import grid
import layers


def _tally(runs, check, want):
    tally = gate.Tally()
    tally.add_pass(runs, check, want)
    return tally


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    want = gate.expected_digest(gate.load_expected(), "suite_ondemand", 0)
    workload = grid.make("suite_ondemand", 0, "", 1)
    workload.setup()

    expect(not layers.installed(), "untraced run has no wrappers")
    runs = workload.run_pass()
    clean = _tally(runs, workload.check, want)
    expect(not clean.problems and clean.failed == 0,
           "an unmodified pass passes the gate")

    clock = layers.LayerClock()
    tracing = layers.Tracing(clock)
    with tracing:
        wrapped = layers.installed()
        traced = _tally(workload.run_pass(), workload.check, want)
    expect(len(wrapped) == len(layers.targets(clock)),
           f"traced run wraps every boundary ({len(wrapped)})")
    expect(not layers.installed(), "leaving the traced run unwraps all")
    expect(traced.digests == clean.digests and not traced.problems,
           "traced and untraced passes have identical digests")
    expect(clock.counts["replay.batched_calls"] == len(runs),
           "wrappers counted the pass's cells")

    first = runs[0]
    perturbed = dataclasses.replace(first, result=dataclasses.replace(
        first.result, total_cycles=first.result.total_cycles + 1))
    tally = _tally([perturbed] + runs[1:], workload.check, want)
    expect(tally.failed == len(runs) and tally.problems,
           "a perturbed cell record fails the digest")

    rejected = dataclasses.replace(first, validation=["wrong result"])
    tally = _tally([rejected] + runs[1:], workload.check, None)
    expect(tally.failed == 1, "a cell the oracle rejects fails")

    raised = dataclasses.replace(first, error="RuntimeError: boom")
    tally = _tally([raised] + runs[1:], workload.check, None)
    expect(tally.failed == 1, "a cell that raised fails")

    print("self-test " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0
