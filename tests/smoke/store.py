"""Store smoke: run the smoke spec twice against one store.

The ``make store-smoke`` gate.  The second run must be served >= 90%
from cache with a byte-identical result set, which proves fingerprint
stability, the CAS round-trip and cache-hit-equals-recompute end to
end through the public facade.
"""

from __future__ import annotations

import sys

from _server import SPEC, check, run

from repro import api


def store_smoke(root: str) -> None:
    """Run a tiny sweep twice; assert the second run comes from cache."""
    spec = api.ExperimentSpec.from_dict({**SPEC, "name": "store-smoke"})
    first = api.run_experiment(spec, store=root)
    second = api.run_experiment(spec, store=root)
    cells = len(second)
    hits = second.meta["cache"]["hits"]
    identical = first.canonical_json() == second.canonical_json()
    print(f"store smoke @ {root}")
    print(f"  first run : {first.meta['cache']['hits']} hits / "
          f"{first.meta['cache']['misses']} misses")
    print(f"  second run: {hits} hits / "
          f"{second.meta['cache']['misses']} misses ({cells} cells)")
    print(f"  result sets byte-identical: {'yes' if identical else 'NO'}")
    check(not second.failures(), "smoke sweep cells failed validation")
    check(identical, "cached result set differs from the recomputed one")
    check(cells and hits >= 0.9 * cells,
          f"second run served {hits}/{cells} cells from cache "
          f"(need >= 90%)")


if __name__ == "__main__":
    sys.exit(run("store", store_smoke))
