"""LRU container cache used by the restore engine.

Restoration in container-based backup systems reads whole containers and
keeps the most recent ones in a bounded memory cache, so a chunk whose
container is already cached costs no I/O.  The cache capacity (in containers)
is the standard knob trading restore memory for speed; the paper's restore
measurements implicitly include such a cache, and our sensitivity suite
sweeps it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError
from repro.storage.container import Container
from repro.storage.store import ContainerStore


class ContainerCache:
    """LRU of containers in front of a :class:`ContainerStore`.

    ``capacity=None`` makes the cache unbounded for its lifetime — the
    read-each-container-once model behind the paper's read-amplification
    definition (an adequate forward-assembly area).  A positive capacity
    gives a classic bounded LRU for cache-pressure experiments.
    """

    def __init__(self, store: ContainerStore, capacity: int | None):
        if capacity is not None and capacity <= 0:
            raise ConfigError("cache capacity must be positive or None")
        self.store = store
        self.capacity = capacity
        self._entries: "OrderedDict[int, Container]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Subscribe for invalidation: a cache that outlives a GC (or crash
        # recovery) must not keep serving containers the store deleted.
        store.register_cache(self)

    def get(self, container_id: int) -> Container:
        """Fetch a container, reading from disk only on a miss."""
        cached = self._entries.get(container_id)
        if cached is not None:
            self.hits += 1
            # An unbounded cache never evicts, so recency bookkeeping
            # would be pure per-chunk overhead on the restore hot path.
            if self.capacity is not None:
                self._entries.move_to_end(container_id)
            return cached
        self.misses += 1
        container = self.store.read_container(container_id)
        self._entries[container_id] = container
        if self.capacity is not None and len(self._entries) > self.capacity:
            evicted_id, _ = self._entries.popitem(last=False)
            self.evictions += 1
            tracer = self.store.disk.tracer
            if tracer.enabled:
                # Evictions are the scarce, diagnostic event of a bounded
                # restore cache (a thrashing backup shows up here, not in
                # per-chunk hit counters, which stay in RestoreReport).
                tracer.emit(
                    "cache.evict",
                    sim_time=self.store.disk.sim_time,
                    fields={"container_id": evicted_id, "for_container": container_id},
                )
        return container

    def invalidate(self, container_id: int) -> None:
        """Drop a container from the cache (e.g. after GC deletes it)."""
        self._entries.pop(container_id, None)

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
