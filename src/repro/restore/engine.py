"""The restore engine.

Restoration walks a backup's recipe in stream order, resolves each storage
key through the fingerprint index, and fetches the owning container — whole,
because containers are the I/O unit (paper §2.1) — through a bounded LRU
cache.  Fragmentation manifests here: a scattered backup touches many
containers and keeps evicting useful ones, while a well-laid-out backup
streams through few containers each of which is fully consumed.

When containers carry payloads (byte-level pipeline) the engine can also
return or verify the restored bytes; the trace-level experiments only need
the accounting.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Iterator

from repro.errors import IntegrityError
from repro.index.columnar import ColumnarRecipe
from repro.index.fingerprint_index import FingerprintIndex
from repro.index.recipe import RecipeStore
from repro.simio.disk import DiskModel
from repro.storage.cache import ContainerCache
from repro.storage.store import ContainerStore
from repro.restore.report import RestoreReport


_CONTAINER_ID = attrgetter("container_id")


def container_column(index: FingerprintIndex, recipe: ColumnarRecipe) -> list[int]:
    """The container id of every chunk of ``recipe``, in stream order.

    Resolution runs as C-level ``map``s over the id column and the index's
    placement map.  Every chunk resolves before the caller reads a
    container; an unknown chunk raises
    :class:`~repro.errors.UnknownChunkError` for its first occurrence.
    """
    keys = recipe.interner.keys()
    placements = list(
        map(index.placements_map().get, map(keys.__getitem__, recipe.chunk_ids))
    )
    if not all(placements):
        index.get(keys[recipe.chunk_ids[placements.index(None)]])  # raises
    return list(map(_CONTAINER_ID, placements))


class RestoreEngine:
    """Restores backups, charging container-granular simulated I/O."""

    def __init__(
        self,
        store: ContainerStore,
        index: FingerprintIndex,
        recipes: RecipeStore,
        disk: DiskModel,
        cache_containers: int | None = None,
    ):
        self.store = store
        self.index = index
        self.recipes = recipes
        self.disk = disk
        self.cache_containers = cache_containers

    def restore(self, backup_id: int) -> RestoreReport:
        """Restore one backup; returns its I/O accounting."""
        report, _ = self._run(backup_id, collect_data=False)
        return report

    def restore_bytes(self, backup_id: int) -> tuple[RestoreReport, bytes]:
        """Restore one backup and return its reassembled content.

        Requires the containers to hold payloads (byte-level pipeline);
        raises :class:`IntegrityError` if any chunk's bytes are missing or
        of the wrong length.
        """
        report, data = self._run(backup_id, collect_data=True)
        assert data is not None
        return report, data

    def _run(self, backup_id: int, collect_data: bool) -> tuple[RestoreReport, bytes | None]:
        recipe = self.recipes.get(backup_id)
        cache = ContainerCache(self.store, self.cache_containers)
        cache_get = cache.get

        with self.disk.phase("restore") as ph:
            column = container_column(self.index, recipe)
            # One cache fetch per run of consecutive chunks in the same
            # container: a repeated get of the most recently fetched
            # container is always a hit that leaves the LRU order
            # unchanged, so the rest of the run only counts as hits.
            fetched = [cache_get(container_id) for container_id, _ in groupby(column)]
            cache.hits += len(column) - len(fetched)
            ph.annotate(
                backup_id=backup_id,
                containers_read=cache.misses,
                cache_hits=cache.hits,
                logical_bytes=recipe.logical_size,
            )

        data = None
        if collect_data:
            # Containers are immutable, so payloads can be read from the
            # fetched objects after the I/O pass.
            by_id = {container.container_id: container for container in fetched}
            keys = recipe.interner.keys()
            pieces: list[bytes] = []
            for chunk_id, size, container_id in zip(
                recipe.chunk_ids, recipe.chunk_sizes, column
            ):
                payload = by_id[container_id].payload(keys[chunk_id])
                if payload is None:
                    raise IntegrityError(
                        f"container {container_id} holds no payload for a "
                        f"chunk of backup {backup_id} (trace-level data cannot be "
                        "restored to bytes)"
                    )
                if len(payload) != size:
                    raise IntegrityError(
                        f"payload size mismatch for backup {backup_id}: "
                        f"expected {size}, got {len(payload)}"
                    )
                pieces.append(payload)
            data = b"".join(pieces)

        report = RestoreReport(
            backup_id=backup_id,
            logical_bytes=recipe.logical_size,
            num_chunks=recipe.num_chunks,
            containers_read=cache.misses,
            container_bytes_read=ph.delta.read_bytes,
            read_seconds=ph.delta.read_seconds,
            cache_hits=cache.hits,
        )
        return report, data

    def restore_all(self, backup_ids: list[int] | None = None) -> Iterator[RestoreReport]:
        """Restore every live backup (or the given ids), oldest first."""
        ids = backup_ids if backup_ids is not None else self.recipes.live_ids()
        for backup_id in ids:
            yield self.restore(backup_id)
