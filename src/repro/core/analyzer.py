"""The GCCDF Analyzer (paper §5.3): locality-promoting chunk clustering.

The Analyzer classifies a segment's valid chunks by *ownership* using a
binary tree: every round checks one backup and splits each leaf into the
chunks that backup references and those it does not.  After all involved
backups are checked, each leaf holds chunks with identical ownership — a
:class:`~repro.core.clusters.Cluster`.

All four of the paper's optimizations are implemented:

① **Bloom-filter reference checks** — per-recipe filters keyed by storage
   key replace recipe scans; see :class:`ReferenceChecker` (each filter is
   built once per recipe and reused by every later segment and GC run;
   its build is still charged once per run in simulated time).
② **Reverse (most-recent-first) backup order** — the first split is on the
   newest involved backup, so adjacent leaves agree on the most recent
   backups (the Planner's packing property, §5.4).
③ **Split denial** — leaves at or below the configured chunk-count
   threshold stop splitting, bounding cluster fragmentation.
④ **Doubly-linked leaves holding chunk references** — leaves form a linked
   list for the Planner's left-to-right traversal and store refs, not data.

Tree orientation: *referenced* chunks go to the **left** child.  The
leftmost leaf is therefore the cluster owned by every recent backup (the
"largest ownership" the §4.2 packing strategy starts from), and left-to-right
traversal yields the similarity-sorted order of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import Callable

from repro.config import GCCDFConfig
from repro.core.clusters import Cluster
from repro.index.recipe import RecipeStore
from repro.model import ChunkRef


class ReferenceChecker:
    """Answers "does backup *b* reference storage key *k*?" (optimization ①).

    One membership filter per backup recipe, looked up lazily on first use
    and held for the whole GC run.  The Bloom filter itself is cached on
    the immutable recipe (:meth:`ColumnarRecipe.reference_filter`), so
    later runs reuse its bits; ``filters_built``/``build_ops`` still count
    one build per backup per run, keeping the analyze cost model (and
    therefore ``analyze_ops`` and simulated time) per-run.

    With Bloom filters a false positive can misplace a chunk into a
    slightly-too-large ownership cluster — harmless for correctness
    (clustering only affects layout), bounded by the configured
    false-positive rate.
    """

    def __init__(self, recipes: RecipeStore, config: GCCDFConfig):
        self.recipes = recipes
        self.config = config
        self._filters: dict[int, Callable[[bytes], bool]] = {}
        #: Filters built (for reporting memory/CPU effort).
        self.filters_built = 0
        #: Total filter-construction operations (one per recipe entry).
        self.build_ops = 0

    def _build(self, backup_id: int) -> Callable[[bytes], bool]:
        recipe = self.recipes.get(backup_id)
        # Charged on the first use in every run, cached or not: the
        # simulated analyze cost stays the paper's per-run model.
        self.filters_built += 1
        self.build_ops += recipe.num_chunks
        if self.config.exact_reference_check:
            return recipe.unique_fingerprints().__contains__
        return recipe.reference_filter(self.config.bloom_fp_rate).__contains__

    def membership(self, backup_id: int) -> Callable[[bytes], bool]:
        """The membership predicate for one backup's recipe."""
        predicate = self._filters.get(backup_id)
        if predicate is None:
            predicate = self._build(backup_id)
            self._filters[backup_id] = predicate
        return predicate

    def exact_ids(self, backup_id: int) -> frozenset[int]:
        """The recipe's exact interned-id member set.

        This is the Analyzer's id-level fast path: an id in this set is a
        *proven* recipe member, so the Bloom predicate — which has no false
        negatives — would answer True for its key without being asked.  Ids
        outside it still probe the real filter, reproducing the filter's
        false positives bit-for-bit (clustering, and therefore layout, must
        not depend on which kernel ran).  The set is the recipe's cached
        ``unique_ids()`` — already materialised by the mark — so consulting
        it costs no build work and is deliberately not counted in
        ``build_ops``.
        """
        return self.recipes.get(backup_id).unique_ids()


@dataclass
class _LeafNode:
    """A leaf of the ownership tree (optimization ④: linked, refs only)."""

    chunks: list[ChunkRef]
    #: Interned ids aligned with ``chunks``.
    ids: list[int]
    #: Backups (ascending id) confirmed to reference every chunk here.
    owners: list[int] = field(default_factory=list)
    denied: bool = False
    prev: "_LeafNode | None" = None
    next: "_LeafNode | None" = None


class Analyzer:
    """Clusters one segment's valid chunks by ownership."""

    def __init__(self, checker: ReferenceChecker, config: GCCDFConfig):
        self.checker = checker
        self.config = config
        #: Peak number of leaves seen in the last run (tree-size reporting).
        self.last_leaf_count = 0
        #: Membership probes performed in the last run (cost accounting).
        self.last_probe_count = 0
        #: Chunks clustered in the last run (tree-size estimation).
        self.last_chunk_count = 0

    def estimated_tree_bytes(self) -> int:
        """Approximate memory of the last run's tree (paper §5.5: an
        ~80-byte node structure per leaf plus one chunk pointer per chunk —
        leaves hold references, not data, per optimization ④)."""
        node_bytes = 80
        pointer_bytes = 8
        return self.last_leaf_count * node_bytes + self.last_chunk_count * pointer_bytes

    def cluster(
        self,
        valid_chunks: list[ChunkRef],
        involved_backups: tuple[int, ...],
        valid_ids: list[int],
    ) -> list[Cluster]:
        """Run the round-based splitting; returns clusters in tree order.

        ``valid_ids`` are the interned ids aligned with ``valid_chunks``.
        The per-leaf reference check is an id-level kernel: a C-level hit
        against the recipe's exact id set proves membership — the Bloom
        predicate has no false negatives, so its answer is already known —
        and only the non-member minority probes the real filter (one fused
        pass, reproducing Bloom false positives exactly).  ``probes``
        counts chunk classifications, not digest computations.
        """
        if not valid_chunks:
            self.last_leaf_count = 0
            self.last_probe_count = 0
            self.last_chunk_count = 0
            return []

        head = _LeafNode(chunks=list(valid_chunks), ids=list(valid_ids))
        threshold = self.config.split_denial_threshold
        exact_config = self.config.exact_reference_check
        keys = self.checker.recipes.interner.keys()
        probes = 0

        # Optimization ②: most recent backup first.
        for backup_id in sorted(involved_backups, reverse=True):
            predicate = self.checker.membership(backup_id)
            exact = self.checker.exact_ids(backup_id)
            node: _LeafNode | None = head
            while node is not None:
                successor = node.next
                if node.denied or (threshold and len(node.chunks) <= threshold):
                    # Optimization ③: deny further splitting of tiny leaves.
                    node.denied = True
                    node = successor
                    continue
                probes += len(node.chunks)
                node_ids = node.ids
                if exact_config:
                    # Exact-check config: the predicate *is* recipe
                    # membership, which the id set answers outright.
                    flags = [chunk_id in exact for chunk_id in node_ids]
                else:
                    flags = [
                        chunk_id in exact or predicate(keys[chunk_id])
                        for chunk_id in node_ids
                    ]
                referenced = list(compress(node.chunks, flags))
                right_ids: list[int] = []
                if len(referenced) == len(node.chunks):
                    unreferenced: list[ChunkRef] = []
                elif not referenced:
                    unreferenced = node.chunks
                else:
                    inverse = list(map(not_, flags))
                    unreferenced = list(compress(node.chunks, inverse))
                    right_ids = list(compress(node_ids, inverse))
                    node.ids = list(compress(node_ids, flags))
                if referenced and unreferenced:
                    # Split: referenced chunks stay in `node` (left child),
                    # the rest move to a new right sibling.
                    right = _LeafNode(
                        chunks=unreferenced,
                        ids=right_ids,
                        owners=list(node.owners),
                        prev=node,
                        next=successor,
                    )
                    node.owners = node.owners + [backup_id]
                    node.chunks = referenced
                    node.next = right
                    if successor is not None:
                        successor.prev = right
                elif referenced:
                    node.owners = node.owners + [backup_id]
                # else: wholly unreferenced — leaf unchanged.
                node = successor

        clusters: list[Cluster] = []
        node = head
        while node is not None:
            clusters.append(
                Cluster(
                    # Paper convention: ownership ascending (oldest first);
                    # owners were appended newest-first, so reverse.
                    ownership=tuple(sorted(node.owners)),
                    chunks=node.chunks,
                    denied=node.denied,
                )
            )
            node = node.next
        self.last_leaf_count = len(clusters)
        self.last_probe_count = probes
        self.last_chunk_count = len(valid_chunks)
        return clusters
