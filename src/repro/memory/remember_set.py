"""Remember sets for branch-target patching.

Section 5: "for each decompressed block, we also maintain a 'remember set'
that records the addresses of the branch instructions that jump to this
block" — when a decompressed copy is discarded, exactly those branches must
be re-pointed at the compressed entry (so the next execution faults and
re-decompresses).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Set, Tuple


class BranchSite(NamedTuple):
    """A branch instruction location: (block id, instruction index within
    that block's decompressed copy); a tuple, so hashing stays in C."""

    block_id: int
    instr_index: int


class RememberSets:
    """Tracks, per target block, the branch sites currently patched to its
    decompressed copy.

    The runtime calls :meth:`add_reference` whenever the exception handler
    "updates the target address of the branch instruction" (Figure 5 steps
    4 and 6), and :meth:`drop_target` when a decompressed copy is deleted
    (step 9), which returns the sites that must be patched back.

    Invariant kept for the property tests: a branch site appears in at most
    one target's remember set — a branch instruction holds one address.
    """

    def __init__(self) -> None:
        self._by_target: Dict[int, Set[BranchSite]] = {}
        self._site_target: Dict[BranchSite, int] = {}
        # Sites by the block holding them: a released copy drops its own.
        self._by_block: Dict[int, Set[BranchSite]] = {}
        self.total_patches = 0

    def add_reference(self, target_block: int, site: BranchSite) -> None:
        """Record that ``site`` now jumps to ``target_block``'s copy."""
        previous = self._site_target.get(site)
        if previous == target_block:
            return
        if previous is not None:
            self._by_target[previous].discard(site)
        else:
            self._by_block.setdefault(site.block_id, set()).add(site)
        self._by_target.setdefault(target_block, set()).add(site)
        self._site_target[site] = target_block
        self.total_patches += 1

    def drop_target(self, target_block: int) -> List[BranchSite]:
        """Remove ``target_block``'s set; returns the sites needing
        patch-back (each patch-back is counted in :attr:`total_patches`)."""
        sites = sorted(self._by_target.pop(target_block, ()))
        for site in sites:
            del self._site_target[site]
            self._by_block[site.block_id].discard(site)
        self.total_patches += len(sites)
        return sites

    def drop_sites_in_block(self, block_id: int) -> int:
        """Forget all sites *located in* ``block_id`` (its decompressed copy
        is going away, so the branches it contained no longer exist).

        Returns the number of sites removed; these need no patching — the
        memory holding them is freed.
        """
        sites = self._by_block.pop(block_id, ())
        for site in sites:
            target = self._site_target.pop(site)
            self._by_target[target].discard(site)
        return len(sites)

    def references_to(self, target_block: int) -> Set[BranchSite]:
        """Sites currently pointing at ``target_block``'s copy."""
        return set(self._by_target.get(target_block, set()))

    def target_of(self, site: BranchSite) -> int:
        """Block the given site currently points to (KeyError if unknown)."""
        return self._site_target[site]

    def points_to(self, site: BranchSite, target_block: int) -> bool:
        """True if ``site`` is currently patched to ``target_block``."""
        return self._site_target.get(site) == target_block

    @property
    def tracked_sites(self) -> int:
        """Total number of tracked branch sites."""
        return len(self._site_target)

    def validate(self) -> List[str]:
        """Return invariant violations (empty when consistent)."""
        problems: List[str] = []
        for target, sites in self._by_target.items():
            for site in sites:
                if self._site_target.get(site) != target:
                    problems.append(
                        f"site {site} in set of B{target} but maps to "
                        f"{self._site_target.get(site)}"
                    )
        for site, target in self._site_target.items():
            if site not in self._by_target.get(target, set()):
                problems.append(
                    f"site {site} maps to B{target} but missing from its set"
                )
            if site not in self._by_block.get(site.block_id, ()):
                problems.append(f"site {site} missing from its block index")
        for block_id, sites in self._by_block.items():
            for site in sites:
                if site.block_id != block_id or site not in self._site_target:
                    problems.append(f"site {site} misindexed under B{block_id}")
        return problems
