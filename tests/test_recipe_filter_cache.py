"""Per-recipe Bloom reference filters: cached, and invisible except in wall time.

A recipe's reference filter (paper §5.3 optimization ①) is built once per
recipe object and reused by every later GC run of both engines.  The
simulated cost model still charges one build per backup per run, so every
observable — GC reports, ``analyze_ops`` (via the traces), simulated time,
container layout, ``stats()`` — must equal a run whose Analyzer rebuilds a
fresh filter from every occurrence each run
(:func:`tests.reference.reference_filter_build`).  The counting tests pin
the cache itself: at most one filter per recipe object, and a hybrid
repoint (which builds a new recipe object) gets a fresh one.
"""

from __future__ import annotations

import gc as garbage_collector
from collections import Counter
from contextlib import ExitStack, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.core.analyzer import ReferenceChecker
from repro.hashing.bloom import BloomFilter
from repro.index.columnar import ColumnarRecipe
from repro.obs.tracer import TraceRecorder

from tests.conftest import refs
from tests.reference import per_occurrence_filter, reference_filter_build
from tests.test_columnar_sweep import make_config, snapshot

RECIPE_SALT = b"recipe"


def recipe_salt(backup_id: int) -> bytes:
    return RECIPE_SALT + backup_id.to_bytes(8, "big")


def gccdf_service(gc_mode: str, dedup_mode: str, tracer=None):
    return make_service(
        "gccdf",
        config=make_config(),
        options=ServiceOptions(gc_mode=gc_mode, dedup_mode=dedup_mode, tracer=tracer),
    )


def rotation_stream(i: int, chunks=range(40)) -> list:
    """Backup ``i`` of a rotation: chunk ``k`` is rewritten every
    ``k % 8 + 1`` backups.  Containers mix chunks of every lifetime, so
    retiring a backup leaves them part garbage, and the survivors are
    shared with older live backups whose filters an earlier cycle built.
    Every fifth chunk recurs at the end, so recipes hold more occurrences
    than distinct keys (the filter's capacity counts occurrences)."""
    chunks = list(chunks)
    return [
        ref
        for k in chunks + chunks[::5]
        for ref in refs("rotation", [k], version=i // (k % 8 + 1))
    ]


# ---------------------------------------------------------------------------
# Shipped (cached) vs reference (rebuilt per run) end state
# ---------------------------------------------------------------------------

# A §6.1-style rotation: fill a window, then rounds that retire the oldest
# backups, run a full GC cycle and ingest the next ones.  Each backup is a
# window of the chunk-id space (see rotation_stream) under one of two
# sources; the second makes hybrid defer duplicates and later coalesce them.
rotations = st.tuples(
    st.integers(min_value=3, max_value=8),  # initial window
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),  # backups retired
            st.integers(min_value=0, max_value=3),  # backups ingested
            st.integers(min_value=0, max_value=16),  # chunk window start
            st.sampled_from(["a", "b"]),  # source of the round's ingests
        ),
        min_size=2,
        max_size=6,
    ),
)


def run_rotation(service, rotation) -> None:
    window, rounds = rotation
    ingested = 0

    def ingest(start: int, source: str) -> None:
        nonlocal ingested
        stream = rotation_stream(ingested, range(start, start + 40))
        service.ingest(stream, source=source)
        ingested += 1

    for _ in range(window):
        ingest(0, "a")
    for retired, count, start, source in rounds:
        if service.live_backup_ids():
            service.delete_oldest(retired)
            service.run_gc()
        for _ in range(count):
            ingest(start, source)


@settings(deadline=None, max_examples=40)
@given(
    rotation=rotations,
    gc_mode=st.sampled_from(["stw", "incremental"]),
    dedup_mode=st.sampled_from(["inline", "hybrid"]),
)
def test_cached_filters_match_per_run_rebuild(rotation, gc_mode, dedup_mode):
    states = {}
    for reference in (False, True):
        patch = (
            mock.patch.object(ReferenceChecker, "_build", reference_filter_build)
            if reference
            else nullcontext()
        )
        with patch:
            recorder = TraceRecorder()
            service = gccdf_service(gc_mode, dedup_mode, tracer=recorder)
            run_rotation(service, rotation)
            if not reference:
                # Every cached filter holds the bits a per-run rebuild makes.
                fp_rate = service.config.gccdf.bloom_fp_rate
                for backup_id in service.live_backup_ids():
                    recipe = service.recipes.get(backup_id)
                    if recipe._reference_filter is not None:
                        expected = per_occurrence_filter(recipe, fp_rate)
                        assert recipe._reference_filter[1]._bits == expected._bits
            state = snapshot(service)
            # Traces never carry wall time; they carry analyze_ops.
            state["trace"] = recorder.to_dicts()
            states[reference] = state

    shipped, rebuilt = states[False], states[True]
    assert set(shipped) == set(rebuilt)
    for key in shipped:
        assert shipped[key] == rebuilt[key], key


# ---------------------------------------------------------------------------
# The cache: one filter per recipe object
# ---------------------------------------------------------------------------


class FilterBuilds:
    """Records every recipe-salted :class:`BloomFilter` construction with
    the recipe object whose ``reference_filter`` was running at the time
    (``None`` when built anywhere else), and every ``_build`` call (one per
    backup per GC run: the uses the cache serves)."""

    def __init__(self) -> None:
        self.builds: list[tuple[ColumnarRecipe | None, bytes]] = []
        self.uses = 0
        self._building: list[ColumnarRecipe] = []

    def patches(self) -> ExitStack:
        original_init = BloomFilter.__init__
        original_filter = ColumnarRecipe.reference_filter
        original_build = ReferenceChecker._build

        def counting_init(bloom, capacity, fp_rate=0.01, salt=b""):
            original_init(bloom, capacity, fp_rate, salt)
            if salt.startswith(RECIPE_SALT):
                owner = self._building[-1] if self._building else None
                self.builds.append((owner, salt))

        def tracking_filter(recipe, fp_rate):
            self._building.append(recipe)
            try:
                return original_filter(recipe, fp_rate)
            finally:
                self._building.pop()

        def counting_build(checker, backup_id):
            self.uses += 1
            return original_build(checker, backup_id)

        stack = ExitStack()
        stack.enter_context(mock.patch.object(BloomFilter, "__init__", counting_init))
        stack.enter_context(
            mock.patch.object(ColumnarRecipe, "reference_filter", tracking_filter)
        )
        stack.enter_context(
            mock.patch.object(ReferenceChecker, "_build", counting_build)
        )
        return stack


@pytest.mark.parametrize("dedup_mode", ["inline", "hybrid"])
@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
def test_each_recipe_builds_at_most_one_filter(gc_mode, dedup_mode):
    record = FilterBuilds()
    with record.patches():
        service = gccdf_service(gc_mode, dedup_mode)
        # A §6.1-style rotation: a window of 8 backups, then rounds that
        # retire the two oldest, collect and ingest two more.
        for i in range(8):
            service.ingest(rotation_stream(i), source="a")
        cycles = 0
        for i in range(8, 20, 2):
            service.delete_oldest(2)
            service.run_gc()
            cycles += 1
            for j in (i, i + 1):
                service.ingest(rotation_stream(j), source="a")

    assert cycles >= 2
    # Every recipe filter came from a recipe's own cache ...
    assert all(owner is not None for owner, _ in record.builds)
    assert all(salt == recipe_salt(owner.backup_id) for owner, salt in record.builds)
    # ... at most once per recipe object ...
    per_recipe = Counter(id(owner) for owner, _ in record.builds)
    assert max(per_recipe.values()) == 1
    # ... while later runs kept asking: the cache served the rest.
    assert 0 < len(record.builds) < record.uses


@pytest.mark.parametrize("gc_mode", ["stw", "incremental"])
def test_repointed_recipe_gets_a_fresh_filter(gc_mode):
    service = gccdf_service(gc_mode, "hybrid")
    fp_rate = service.config.gccdf.bloom_fp_rate
    # Backup 0 interleaves shared (even) and private (odd) chunks, so
    # after its deletion every one of its containers is half garbage.
    first = service.ingest(refs("repoint", range(32)), source="a")
    # A second source misses the neighbor window: every shared chunk is
    # stored again as a deferred duplicate, to be coalesced by GC.
    second = service.ingest(refs("repoint", range(0, 32, 2)), source="b")
    backup_id = second.backup_id
    assert service.hybrid.candidates
    # Warm the cache on the recipe the coalesce will replace.
    old_bits = bytes(service.recipes.get(backup_id).reference_filter(fp_rate)._bits)

    service.delete_backup(first.backup_id)
    service.run_gc()

    assert service.hybrid.coalesced > 0
    recipe = service.recipes.get(backup_id)
    # The repointed recipe's filter was built in this cycle, from its own
    # (canonical) keys: the bits of a per-occurrence build.
    assert recipe._reference_filter is not None
    cached = recipe._reference_filter[1]
    expected = per_occurrence_filter(recipe, fp_rate)
    assert cached._bits == expected._bits
    assert bytes(cached._bits) != old_bits
    # The replaced recipe and its filter are gone: the only live filter
    # salted for this backup is the new recipe's.
    del expected
    garbage_collector.collect()
    survivors = [
        obj
        for obj in garbage_collector.get_objects()
        if isinstance(obj, BloomFilter) and obj._salt == recipe_salt(backup_id)
    ]
    assert len(survivors) == 1 and survivors[0] is cached
