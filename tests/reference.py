"""Per-chunk reference model: the equivalence oracle for the columnar kernels.

The shipped hot paths — ingest, GC mark (stop-the-world and incremental),
sweep partitioning, copy-forward, restore and random-access reads — run over
interned id/size columns with set algebra and batched index probes.  This
module keeps the straightforward per-chunk formulation of each kernel: walk
``recipe.entries`` / ``container.entries`` one :class:`~repro.model.ChunkRef`
at a time, probe the index once per first occurrence, append one chunk at a
time.  :func:`reference_kernels` installs all of them over the shipped ones
(``unittest.mock.patch.object``), so an equivalence test runs one scenario
twice and compares the observable end state.

The Bloom kernel and the Analyzer's recipe reference filters have reference
forms too: :func:`bloom_add` / :func:`bloom_update` / :func:`bloom_contains`
compute every probe position as ``(h1 + i*h2) mod m`` on the full 64-bit
halves, and :func:`reference_filter_build` builds a fresh filter per GC run
from every recipe occurrence (:func:`per_occurrence_filter`), with no cache.

:class:`TupleRecipe` is the tuple-of-``ChunkRef`` recipe, the reference for
the recipe-level properties of :class:`~repro.index.columnar.ColumnarRecipe`;
:func:`columnar_recipe` builds the shipped representation from ``ChunkRef``
lists for tests that hand-assemble recipes, and :func:`cluster_chunks` feeds
such chunks to the Analyzer with their id column.
"""

from __future__ import annotations

from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator
from unittest import mock

from repro.core.analyzer import ReferenceChecker
from repro.dedup import pipeline as pipeline_module
from repro.dedup.rewriting.base import IngestEntry
from repro.errors import IntegrityError
from repro.gc import incremental as incremental_module
from repro.gc import mark as mark_module
from repro.gc import migration as migration_module
from repro.gc.vc_table import make_vc_table
from repro.hashing.bloom import BloomFilter
from repro.index.columnar import ColumnarRecipe
from repro.index.interning import FingerprintInterner
from repro.model import Chunk, ChunkRef
from repro.restore.engine import RestoreEngine
from repro.restore.report import RestoreReport
from repro.serve.reader import BackupReader, ContainerReadStrategy
from repro.serve.report import ReadReport
from repro.storage.cache import ContainerCache
from repro.storage.writer import ContainerWriter

# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleRecipe:
    """One backup's recipe as a tuple of chunk references."""

    backup_id: int
    entries: tuple[ChunkRef, ...]
    source: str = ""

    @cached_property
    def logical_size(self) -> int:
        return sum(entry.size for entry in self.entries)

    @cached_property
    def chunk_starts(self) -> array:
        starts = array("q")
        offset = 0
        for entry in self.entries:
            starts.append(offset)
            offset += entry.size
        return starts

    @property
    def num_chunks(self) -> int:
        return len(self.entries)

    def fingerprints(self) -> Iterator[bytes]:
        for entry in self.entries:
            yield entry.fp

    def unique_fingerprints(self) -> set[bytes]:
        return {entry.fp for entry in self.entries}


def columnar_recipe(
    backup_id: int,
    entries: Iterable[ChunkRef],
    interner: FingerprintInterner | None = None,
    source: str = "",
) -> ColumnarRecipe:
    """A :class:`ColumnarRecipe` over ``entries`` (interned on the spot)."""
    interner = interner if interner is not None else FingerprintInterner()
    entries = list(entries)
    return ColumnarRecipe(
        backup_id=backup_id,
        interner=interner,
        chunk_ids=[interner.intern(entry.fp) for entry in entries],
        chunk_sizes=[entry.size for entry in entries],
        source=source,
    )


def cluster_chunks(analyzer, chunks: list[ChunkRef], involved_backups):
    """``analyzer.cluster`` over hand-built chunks, interning their keys
    into the analyzer's recipe-store id space for the ``valid_ids`` column."""
    intern = analyzer.checker.recipes.interner.intern
    return analyzer.cluster(
        chunks, involved_backups, valid_ids=[intern(chunk.fp) for chunk in chunks]
    )


def _store_recipe(pipeline, backup_id: int, keys: list[ChunkRef], source: str) -> None:
    pipeline.recipes.add(
        columnar_recipe(backup_id, keys, pipeline.recipes.interner, source)
    )


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------


def ingest_inline(self, stream, source: str):
    """Inline dedup, one :class:`IngestEntry` per chunk through the
    rewriting policy's ``feed``; every probe is a ``LogicalIndex.lookup``."""
    backup_id = self.recipes.new_backup_id()
    self.rewriting.begin_backup(backup_id)
    writer = ContainerWriter(self.store)
    recipe_keys: list[ChunkRef] = []
    totals = {"logical": 0, "stored": 0, "dedup": 0, "rewritten": 0}

    def write_entry(entry: IngestEntry) -> None:
        if entry.duplicate and not entry.rewrite:
            recipe_keys.append(ChunkRef(fp=entry.existing_key, size=entry.size))
            totals["dedup"] += entry.size
            return
        key = self.logical.new_key(entry.fp)
        ref = ChunkRef(fp=key, size=entry.size)
        container_id = writer.append(ref, entry.payload)
        self.index.insert(key, container_id, entry.size)
        recipe_keys.append(ref)
        totals["stored"] += entry.size
        if entry.duplicate:
            totals["rewritten"] += entry.size

    with self.store.disk.phase("ingest") as ph:
        for item in stream:
            payload = item.data if isinstance(item, Chunk) else None
            totals["logical"] += item.size
            entry = IngestEntry(fp=item.fp, size=item.size, payload=payload)
            if self.dedup_enabled:
                hit = self.logical.lookup(item.fp)
                if hit is not None:
                    key, placement = hit
                    entry.duplicate = True
                    entry.existing_key = key
                    entry.container_id = placement.container_id
            for decided in self.rewriting.feed(entry):
                write_entry(decided)
        for decided in self.rewriting.flush():
            write_entry(decided)
        containers = writer.flush()
        self.rewriting.end_backup()
        ph.annotate(
            backup_id=backup_id,
            logical_bytes=totals["logical"],
            stored_bytes=totals["stored"],
            dedup_bytes=totals["dedup"],
            rewritten_bytes=totals["rewritten"],
            containers_written=len(containers),
        )

    _store_recipe(self, backup_id, recipe_keys, source)
    return pipeline_module.IngestResult(
        backup_id=backup_id,
        logical_bytes=totals["logical"],
        num_chunks=len(recipe_keys),
        stored_bytes=totals["stored"],
        dedup_bytes=totals["dedup"],
        rewritten_bytes=totals["rewritten"],
        containers_written=len(containers),
    )


def ingest_hybrid(self, stream, source: str):
    """Hybrid classification, one chunk at a time: neighbor window (this
    stream, then the source's previous backup) with one validating index
    probe per neighbor hit; misses consult only the ingest Bloom filter."""
    hybrid = self.hybrid
    backup_id = self.recipes.new_backup_id()
    self.rewriting.begin_backup(backup_id)
    writer = ContainerWriter(self.store)
    index = self.index
    hybrid.maybe_rebuild_filter(self.logical.current_map())
    prev = hybrid.neighbors.get(source, {})
    cur: dict[bytes, bytes] = {}
    recipe_keys: list[ChunkRef] = []
    logical_bytes = stored_bytes = dedup_bytes = deferred = 0

    with self.store.disk.phase("ingest") as ph:
        for item in stream:
            fp, size = item.fp, item.size
            payload = item.data if isinstance(item, Chunk) else None
            logical_bytes += size
            key = cur.get(fp)
            if key is None:
                key = prev.get(fp)
            if key is not None:
                if index.validate(key) is not None:
                    hybrid.neighbor_hits += 1
                    recipe_keys.append(ChunkRef(fp=key, size=size))
                    dedup_bytes += size
                    cur[fp] = key
                    if key in hybrid.candidates:
                        hybrid.candidates[key].add(backup_id)
                    continue
                hybrid.neighbor_stale += 1
                prev.pop(fp, None)
                cur.pop(fp, None)
            maybe_seen = fp in hybrid.filter
            key = self.logical.new_key(fp)
            ref = ChunkRef(fp=key, size=size)
            container_id = writer.append(ref, payload)
            index.insert(key, container_id, size)
            recipe_keys.append(ref)
            stored_bytes += size
            cur[fp] = key
            hybrid.filter.add(fp)
            hybrid.filter_adds += 1
            if maybe_seen:
                hybrid.filter_maybe += 1
                hybrid.candidates[key] = {backup_id}
                deferred += 1
            else:
                hybrid.filter_new += 1
        containers = writer.flush()
        self.rewriting.end_backup()
        ph.annotate(
            backup_id=backup_id,
            logical_bytes=logical_bytes,
            stored_bytes=stored_bytes,
            dedup_bytes=dedup_bytes,
            rewritten_bytes=0,
            containers_written=len(containers),
            deferred=deferred,
        )

    hybrid.deferred += deferred
    hybrid.neighbors[source] = cur
    _store_recipe(self, backup_id, recipe_keys, source)
    return pipeline_module.IngestResult(
        backup_id=backup_id,
        logical_bytes=logical_bytes,
        num_chunks=len(recipe_keys),
        stored_bytes=stored_bytes,
        dedup_bytes=dedup_bytes,
        rewritten_bytes=0,
        containers_written=len(containers),
    )


# ---------------------------------------------------------------------------
# GC mark
# ---------------------------------------------------------------------------


def mark_run(self):
    """Stop-the-world mark as one per-entry traversal with a placement memo
    (one index probe per unique key across both passes)."""
    missing = object()
    resolved: dict[bytes, object] = {}
    index_lookup = self.index.lookup

    with self.disk.phase("gc.mark") as ph:
        gs_set: set[int] = set(self.extra_gs)
        candidate_keys: set[bytes] = set()
        for recipe in self.recipes.deleted_recipes():
            self.disk.read(recipe.num_chunks * mark_module.RECIPE_ENTRY_BYTES)
            for entry in recipe.entries:
                if entry.fp in candidate_keys:
                    continue
                candidate_keys.add(entry.fp)
                placement = resolved[entry.fp] = index_lookup(entry.fp)
                if placement is not None:
                    gs_set.add(placement.container_id)

        self.disk.crash_point("gc.mark", gs_containers=len(gs_set))

        vc_table = make_vc_table(self.config.vc_table, expected_keys=len(self.index))
        rrt_sets: dict[int, set[int]] = {cid: set() for cid in gs_set}
        live_keys: set[bytes] = set()
        for recipe in self.recipes.live_recipes():
            self.disk.read(recipe.num_chunks * mark_module.RECIPE_ENTRY_BYTES)
            for entry in recipe.entries:
                fp = entry.fp
                vc_table.add(fp)
                live_keys.add(fp)
                placement = resolved.get(fp, missing)
                if placement is missing:
                    placement = resolved[fp] = index_lookup(fp)
                if placement is not None and placement.container_id in rrt_sets:
                    rrt_sets[placement.container_id].add(recipe.backup_id)

        ph.annotate(candidate_keys=len(candidate_keys), gs_containers=len(gs_set))

    id_of = self.recipes.interner.id_of
    return mark_module.MarkResult(
        vc_table=vc_table,
        gs_list=tuple(sorted(gs_set)),
        rrt={cid: tuple(sorted(backups)) for cid, backups in rrt_sets.items()},
        candidate_keys=len(candidate_keys),
        mark_seconds=ph.delta.read_seconds,
        live_ids=frozenset(id_of(fp) for fp in live_keys),
    )


def _probe_entry(engine, state, chunk_id: int, fp: bytes, create: bool):
    """Resolve one chunk's container for the incremental mark: the first
    probe goes through the index (counted); later occurrences read the
    placement map, which is unchanged while the mark runs."""
    if chunk_id in state.resolved:
        placement = engine.index.placements_map().get(fp)
    else:
        state.resolved.add(chunk_id)
        placement = engine.index.lookup(fp)
        if placement is not None:
            members = state.gs_members.get(placement.container_id)
            if members is None and create:
                members = state.gs_members[placement.container_id] = set()
            if members is not None:
                members.add(chunk_id)
    return placement


def scan_deleted(self, state, recipe) -> None:
    """Incremental deleted-recipe scan, one entry at a time."""
    id_of = self.recipes.interner.id_of
    for entry in recipe.entries:
        chunk_id = id_of(entry.fp)
        if chunk_id in state.candidate_ids:
            continue
        state.candidate_ids.add(chunk_id)
        _probe_entry(self, state, chunk_id, entry.fp, create=True)


def scan_live(self, state, recipe) -> None:
    """Incremental live-recipe scan, one entry at a time."""
    id_of = self.recipes.interner.id_of
    for entry in recipe.entries:
        chunk_id = id_of(entry.fp)
        state.live_chunk_ids.add(chunk_id)
        placement = _probe_entry(self, state, chunk_id, entry.fp, create=False)
        if placement is not None and placement.container_id in state.rrt_sets:
            state.rrt_sets[placement.container_id].add(recipe.backup_id)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def partition_members(store, index, recipes, mark, container_id):
    """Per-entry validity split: ``fp in vc_table and fp in index``."""
    container = store.peek(container_id)
    id_of = recipes.interner.id_of
    valid: list[ChunkRef] = []
    invalid: list[bytes] = []
    invalid_bytes = 0
    for entry in container.entries:
        if entry.fp in mark.vc_table and entry.fp in index:
            valid.append(entry)
        else:
            invalid.append(entry.fp)
            invalid_bytes += entry.size
    if not invalid:
        return migration_module.ContainerPartition(valid, [], 0)
    return migration_module.ContainerPartition(
        valid,
        invalid,
        invalid_bytes,
        valid_keys=[entry.fp for entry in valid],
        valid_sizes=[entry.size for entry in valid],
        valid_ids=[id_of(entry.fp) for entry in valid],
    )


def migrate_batch(self, entries, fps, sizes, sources, ids=None) -> None:
    """Copy-forward one chunk at a time through ``migrate_chunk``."""
    source_column = repeat(sources) if isinstance(sources, int) else sources
    for entry, source_id in zip(entries, source_column):
        self.migrate_chunk(entry, None, source_id)


# ---------------------------------------------------------------------------
# Restore and reads
# ---------------------------------------------------------------------------


def restore_run(self, backup_id: int, collect_data: bool):
    """Restore walking the recipe's entries, one cache probe per chunk."""
    recipe = self.recipes.get(backup_id)
    cache = ContainerCache(self.store, self.cache_containers)
    pieces: list[bytes] = []
    with self.disk.phase("restore") as ph:
        # Every chunk resolves before any container is read (the shipped
        # kernel's error order for unknown chunks).
        placements = [self.index.get(entry.fp) for entry in recipe.entries]
        for entry, placement in zip(recipe.entries, placements):
            container = cache.get(placement.container_id)
            if collect_data:
                payload = container.payload(entry.fp)
                if payload is None or len(payload) != entry.size:
                    raise IntegrityError(f"bad payload in backup {backup_id}")
                pieces.append(payload)
        ph.annotate(
            backup_id=backup_id,
            containers_read=cache.misses,
            cache_hits=cache.hits,
            logical_bytes=recipe.logical_size,
        )
    report = RestoreReport(
        backup_id=backup_id,
        logical_bytes=recipe.logical_size,
        num_chunks=recipe.num_chunks,
        containers_read=cache.misses,
        container_bytes_read=ph.delta.read_bytes,
        read_seconds=ph.delta.read_seconds,
        cache_hits=cache.hits,
    )
    return report, (b"".join(pieces) if collect_data else None)


def read_run(self, offset: int, length: int, collect: bool):
    """``pread`` walking the recipe's entries: the window is found by a
    linear offset scan, and each touched chunk resolves through the tiers
    one entry at a time."""
    self._check_open()
    if offset < 0 or length < 0:
        raise ValueError("read offset and length must be >= 0")
    size = self._recipe.logical_size
    end = min(offset + length, size)
    window: list[ChunkRef] = []
    head = 0
    position = 0
    for entry in self._recipe.entries:
        if position + entry.size > offset and position < end:
            if not window:
                head = offset - position
            window.append(entry)
        position += entry.size
    if not window:
        report = ReadReport(
            backup_id=self.backup_id,
            offset=offset,
            length=length,
            bytes_read=0,
            num_chunks=0,
            chunk_hits=0,
            container_hits=0,
            containers_read=0,
            container_bytes_read=0,
            read_seconds=0.0,
        )
        return report, (b"" if collect else None)

    strategy = self._strategy
    cache = strategy.cache
    chunk_hits_before = cache.chunk_hits
    container_hits_before = cache.container_hits
    payloads: list[bytes] = []
    with self._disk.phase("read") as ph:
        if isinstance(strategy, ContainerReadStrategy):
            misses_before = cache.container_misses
            for entry in window:
                cached = cache.get_chunk(entry.fp)
                if cached is not None:
                    payload = cached[1]
                else:
                    placement = strategy.index.get(entry.fp)
                    container = cache.get_container(placement.container_id)
                    payload = container.payload(entry.fp)
                    cache.put_chunk(entry.fp, entry.size, payload)
                if collect:
                    if payload is None:
                        raise IntegrityError("no payload for a requested chunk")
                    payloads.append(payload)
            device_reads = cache.container_misses - misses_before
        else:
            if collect:
                raise IntegrityError("mfdedup stores no chunk payloads")
            device_reads = 0
            run_bytes = 0
            for entry in window:
                if cache.get_chunk(entry.fp) is not None:
                    if run_bytes:
                        strategy.disk.read(run_bytes)
                        device_reads += 1
                        run_bytes = 0
                    continue
                run_bytes += entry.size
                cache.put_chunk(entry.fp, entry.size, None)
            if run_bytes:
                strategy.disk.read(run_bytes)
                device_reads += 1
        ph.annotate(
            backup_id=self.backup_id,
            offset=offset,
            length=end - offset,
            chunks=len(window),
            containers_read=device_reads,
            chunk_hits=cache.chunk_hits - chunk_hits_before,
            container_hits=cache.container_hits - container_hits_before,
        )
    report = ReadReport(
        backup_id=self.backup_id,
        offset=offset,
        length=length,
        bytes_read=end - offset,
        num_chunks=len(window),
        chunk_hits=cache.chunk_hits - chunk_hits_before,
        container_hits=cache.container_hits - container_hits_before,
        containers_read=device_reads,
        container_bytes_read=ph.delta.read_bytes,
        read_seconds=ph.delta.read_seconds,
    )
    if not collect:
        return report, None
    return report, b"".join(payloads)[head : head + (end - offset)]


# ---------------------------------------------------------------------------
# Bloom kernel and recipe reference filters
# ---------------------------------------------------------------------------


def bloom_positions(bloom: BloomFilter, key: bytes) -> list[int]:
    """The ``k`` probe positions of ``key``: Kirsch–Mitzenmacher double
    hashing over the two 64-bit halves of the salted digest."""
    digest = bloom._hasher(key).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:], "big") | 1
    return [(h1 + i * h2) % bloom.num_bits for i in range(bloom.num_hashes)]


def bloom_add(self, key: bytes) -> None:
    for position in bloom_positions(self, key):
        self._bits[position >> 3] |= 1 << (position & 7)
    self.count += 1


def bloom_update(self, keys: Iterable[bytes]) -> None:
    for key in keys:
        bloom_add(self, key)


def bloom_contains(self, key: bytes) -> bool:
    return all(
        self._bits[position >> 3] & (1 << (position & 7))
        for position in bloom_positions(self, key)
    )


def per_occurrence_filter(recipe, fp_rate: float) -> BloomFilter:
    """A recipe's reference filter built from scratch: every occurrence in
    stream order, through the reference kernel."""
    bloom = BloomFilter(
        capacity=max(1, recipe.num_chunks),
        fp_rate=fp_rate,
        salt=b"recipe" + recipe.backup_id.to_bytes(8, "big"),
    )
    bloom_update(bloom, recipe.fingerprints())
    return bloom


def reference_filter_build(self, backup_id: int):
    """``ReferenceChecker._build`` without the per-recipe cache: a fresh
    per-occurrence filter every GC run."""
    recipe = self.recipes.get(backup_id)
    self.filters_built += 1
    self.build_ops += recipe.num_chunks
    if self.config.exact_reference_check:
        return recipe.unique_fingerprints().__contains__
    return per_occurrence_filter(recipe, self.config.bloom_fp_rate).__contains__


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


@contextmanager
def reference_kernels():
    """Install every per-chunk reference kernel over the shipped one."""
    IngestPipeline = pipeline_module.IngestPipeline
    patches = [
        (IngestPipeline, "_ingest_batched", ingest_inline),
        (IngestPipeline, "_ingest_policy", ingest_inline),
        (IngestPipeline, "_ingest_hybrid_batched", ingest_hybrid),
        (mark_module.MarkStage, "run", mark_run),
        (incremental_module.IncrementalGC, "_scan_deleted", scan_deleted),
        (incremental_module.IncrementalGC, "_scan_live", scan_live),
        (migration_module, "partition_members", partition_members),
        (incremental_module, "partition_members", partition_members),
        (migration_module.JournaledCopyForward, "migrate_batch", migrate_batch),
        (RestoreEngine, "_run", restore_run),
        (BackupReader, "_run", read_run),
        (BloomFilter, "add", bloom_add),
        (BloomFilter, "update", bloom_update),
        (BloomFilter, "__contains__", bloom_contains),
        (ReferenceChecker, "_build", reference_filter_build),
    ]
    with ExitStack() as stack:
        for owner, name, replacement in patches:
            stack.enter_context(mock.patch.object(owner, name, replacement))
        yield

