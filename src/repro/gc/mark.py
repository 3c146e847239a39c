"""The GC mark stage (paper §2.4, §5.5).

One traversal over all recipes produces the three structures the sweep (and
GCCDF) need:

* **VC table** — every storage key referenced by a live backup;
* **GS list** — containers holding chunks referenced by logically deleted
  backups; these *may* contain invalid chunks and are the sweep's work list;
* **RRT** — for each GS-list container, the live backups that reference it.
  §5.5 observes RRT can be built during the same traversal at negligible
  cost, which is exactly what this implementation does.

Mark I/O is charged as metadata reads: one read per recipe, sized at
``RECIPE_ENTRY_BYTES`` per entry (a fingerprint plus size/offset fields, the
on-disk recipe record of container-based systems).

Each recipe's id column collapses to a set of dense interned ids and the
whole traversal becomes C-level set algebra — candidacy, liveness, the
unresolved-probe frontier and the per-recipe RRT contribution are set
unions, differences and intersections, with no Python-level work per chunk
occurrence.  It probes the index once per unique key, as a per-entry
traversal with a placement memo would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.config import SystemConfig
from repro.gc.vc_table import VCTable, make_vc_table
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel

#: On-disk size of one recipe record: 24-byte storage key + 8 bytes of
#: size/flags, matching the paper's ~800 B per 100-recipe RRT entry estimate.
RECIPE_ENTRY_BYTES = 32


@dataclass(frozen=True)
class MarkResult:
    """Everything the mark stage hands to the sweep."""

    vc_table: VCTable
    #: Ascending ids of containers referenced by deleted backups.
    gs_list: tuple[int, ...]
    #: container id → ascending tuple of live backup ids referencing it
    #: (only for GS-list containers, as in the paper).
    rrt: dict[int, tuple[int, ...]]
    #: Keys referenced by deleted backups (candidates for invalidation).
    candidate_keys: int
    #: Simulated seconds spent reading recipes.
    mark_seconds: float
    #: Interned ids of the live key set.  Always a *subset* of the VC
    #: table's members at any later time — the table may grow via the
    #: incremental live-reference barrier — so sweep kernels may treat
    #: ``id in live_ids`` as a proven VC hit and fall back to probing the
    #: table itself for the rest (Bloom false positives and barrier
    #: additions included).
    live_ids: frozenset[int]

    def rrt_bytes_estimate(self) -> int:
        """Approximate RRT memory footprint (paper §5.5's sizing argument:
        8 bytes per recipe id per entry plus a small per-entry header)."""
        per_entry_header = 16
        return sum(
            per_entry_header + 8 * len(backups) for backups in self.rrt.values()
        )


def resolve_placements(
    index: FingerprintIndex,
    keys: list[bytes],
    fresh: Iterable[int],
    gs_members: dict[int, set[int]],
    create: bool,
) -> None:
    """Probe the index once for a frontier of unresolved ids and bucket the
    placed ones into their GS containers' member sets.

    ``gs_members`` maps GS container id → resolved ids placed in it; its
    keys are the GS container set.  The deleted-recipe pass (``create``)
    adds containers on demand; the live pass only feeds containers already
    there — live chunks elsewhere are irrelevant to the sweep.  A recipe
    references a GS container iff its id set intersects the container's
    member set, which ``isdisjoint`` answers at C speed with early exit —
    so RRT incidence costs per *container*, not per chunk occurrence.
    """
    fresh_ids = list(fresh)
    placements = index.lookup_many(list(map(keys.__getitem__, fresh_ids)))
    for chunk_id, placement in zip(fresh_ids, placements):
        if placement is not None:
            members = gs_members.get(placement.container_id)
            if members is None:
                if not create:
                    continue
                members = gs_members[placement.container_id] = set()
            members.add(chunk_id)


class MarkStage:
    """Builds :class:`MarkResult` from the recipe store."""

    def __init__(
        self,
        config: SystemConfig,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        extra_gs: frozenset[int] | set[int] = frozenset(),
    ):
        self.config = config
        self.index = index
        self.recipes = recipes
        self.disk = disk
        #: Containers force-fed onto the GS list regardless of deletions —
        #: the hybrid rededup pass queues containers whose coalesced
        #: duplicate bytes only the sweep can reclaim.  Seeded before
        #: pass 1 so pass 2 builds their RRT rows exactly as it would for
        #: deletion-selected containers.
        self.extra_gs = frozenset(extra_gs)

    def run(self) -> MarkResult:
        keys = self.recipes.interner.keys()
        # Dense-id bookkeeping, manipulated almost entirely through C-level
        # set operations: per recipe the id column collapses to a set once
        # (``set(array)`` iterates in C); candidacy, liveness, the
        # unresolved frontier, and the RRT contribution are set algebra over
        # whole *populations*, not per recipe.  Each pass unions its
        # recipes' id sets, subtracts what is already resolved, and probes
        # the index once for the whole frontier — the same once-per-unique-
        # key probe count (and counter accounting) as a per-entry memo, just
        # in dense-id order instead of first-occurrence order.  Batching is
        # unobservable: the index is read-only during mark, and the RRT is
        # order-independent (a recipe references a GS container iff any of
        # its chunks is *placed* there, a pure function of the frozen index
        # state).
        gs_members: dict[int, set[int]] = {cid: set() for cid in self.extra_gs}

        with self.disk.phase("gc.mark") as ph:
            # Pass 1 — deleted recipes: find containers that may hold garbage.
            deleted_sets = []
            for recipe in self.recipes.deleted_recipes():
                self.disk.read(recipe.num_chunks * RECIPE_ENTRY_BYTES)
                deleted_sets.append(recipe.unique_ids())
            candidate_ids: set[int] = set().union(*deleted_sets) if deleted_sets else set()
            resolve_placements(self.index, keys, candidate_ids, gs_members, create=True)
            gs_set: set[int] = set(gs_members)

            # Mark is read-only, so a crash here needs no repair — recovery
            # simply aborts the round and the next GC re-marks from scratch.
            self.disk.crash_point("gc.mark", gs_containers=len(gs_set))

            # Pass 2 — live recipes: liveness sets and RRT in one traversal.
            live_recipes = list(self.recipes.live_recipes())
            live_sets = []
            for recipe in live_recipes:
                self.disk.read(recipe.num_chunks * RECIPE_ENTRY_BYTES)
                live_sets.append(recipe.unique_ids())
            live_ids: set[int] = set().union(*live_sets) if live_sets else set()
            fresh = live_ids - candidate_ids
            if fresh:
                resolve_placements(self.index, keys, fresh, gs_members, create=False)
            rrt_sets: dict[int, set[int]] = {container_id: set() for container_id in gs_set}
            gs_items = list(gs_members.items())
            for recipe, ids_set in zip(live_recipes, live_sets):
                backup_id = recipe.backup_id
                isdisjoint = ids_set.isdisjoint
                for container_id, members in gs_items:
                    if not isdisjoint(members):
                        rrt_sets[container_id].add(backup_id)

            # Populate the VC table from the liveness set: once per unique
            # live key.  Both VC implementations (exact set, Bloom) are
            # idempotent under add, so this equals a per-occurrence fill.
            vc_table = make_vc_table(self.config.vc_table, expected_keys=len(self.index))
            vc_table.update(map(keys.__getitem__, live_ids))

            ph.annotate(
                candidate_keys=len(candidate_ids),
                gs_containers=len(gs_set),
            )

        return MarkResult(
            vc_table=vc_table,
            gs_list=tuple(sorted(gs_set)),
            rrt={cid: tuple(sorted(backups)) for cid, backups in rrt_sets.items()},
            candidate_keys=len(candidate_ids),
            mark_seconds=ph.delta.read_seconds,
            live_ids=frozenset(live_ids),
        )
