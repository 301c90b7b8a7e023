"""Serve smoke: the sweep service's core contracts, end to end.

The ``make serve-smoke`` gate, run against a *separate* server
process (the in-process ``ServerThread`` path is covered by the test
suite):

1. the server boots and ``/healthz`` goes green;
2. a submitted spec completes and its ``/result`` body is
   byte-identical to a local ``run_experiment`` on the same store;
3. resubmitting dedups onto the finished job;
4. SIGTERM drains gracefully (exit 0) and leaves a resumable
   journal; a second boot on the same store still dedups the spec.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from _server import SPEC, Server, check, run

from repro import api


def serve_smoke(root: str) -> None:
    """Boot a real server subprocess, round-trip a spec, drain it."""
    with Server(root) as server:
        print(f"serve smoke @ {root} (port {server.port})")
        client = server.client
        reply = client.submit(SPEC)
        snapshot = client.wait(reply["job"], timeout=120)
        check(snapshot["state"] == "done" and not snapshot["error_rows"],
              f"smoke job ended {snapshot['state']} "
              f"({snapshot['error_rows'] or snapshot['error']})")
        served = client.result(reply["job"])
        print(f"  job {reply['job']}: {snapshot['progress']['done']}"
              f"/{snapshot['progress']['total']} cells done")

        local = api.run_experiment(
            api.ExperimentSpec.from_dict(SPEC), store=root
        ).canonical_json()
        check(served == local, "served result differs from local "
              "run_experiment on the same store")
        print("  result byte-identical to local run_experiment: yes")

        check(client.submit(SPEC)["deduped"],
              "resubmitted spec was not deduplicated")
        print("  resubmit deduplicated onto the finished job: yes")
        code = server.drain()
    check(code == 0,
          f"server exited {code} on SIGTERM (graceful drain failed)")
    journal_dir = os.path.join(root, "service", "jobs")
    entries = sorted(glob.glob(os.path.join(journal_dir, "*.json")))
    check(entries, f"no resumable journal left under {journal_dir}")
    with open(entries[0], encoding="utf-8") as handle:
        entry = json.load(handle)
    print(f"  graceful shutdown: exit 0, journal {len(entries)} "
          f"entry(ies), state={entry['state']}")

    # Second boot on the same store: the journal + store must still
    # dedup the spec without recomputing anything.
    with Server(root) as server:
        again = server.client.submit(SPEC)
        check(again["deduped"],
              "spec recomputed after restart (journal resume failed)")
        check(server.client.result(again["job"]) == local,
              "post-restart result differs")
        print("  post-restart resubmit deduplicated from the "
              "journal/store: yes")
        code = server.drain()
    check(code == 0, f"second server exited {code} on SIGTERM")


if __name__ == "__main__":
    sys.exit(run("serve", serve_smoke))
