"""Property-based end-to-end invariants of the backup system.

The heavyweight guarantee: under *any* interleaving of ingest / delete / GC
(with either migration strategy, any packing, exact or Bloom VC table),
every live backup remains restorable with its exact chunk sequence, and the
metadata stays mutually consistent.
"""

from hypothesis import given, settings, strategies as st

from repro.backup.system import DedupBackupService
from repro.backup.verify import verify_service
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.core.gccdf import GCCDFMigration
from repro.dedup.keys import logical_fp
from repro.errors import SimulatedCrash
from repro.faults import FaultPlan, points_for, recover_service
from repro.gc.migration import NaiveMigration

from tests.conftest import refs


def make_config(vc_table: str) -> SystemConfig:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
        vc_table=vc_table,
    )
    config.validate()
    return config


# One operation = ingest a window of the chunk-id space, or delete+GC.
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.integers(min_value=0, max_value=60),  # window start
            st.integers(min_value=4, max_value=40),  # window length
        ),
        st.tuples(st.just("gc"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)

strategies_to_test = st.sampled_from(["naive", "gccdf", "gccdf-random", "gccdf-tree"])
vc_tables = st.sampled_from(["exact", "bloom"])


def build_service(strategy: str, vc_table: str) -> DedupBackupService:
    config = make_config(vc_table)
    if strategy == "naive":
        return DedupBackupService(config=config, migration=NaiveMigration())
    packing = {"gccdf": "greedy", "gccdf-random": "random", "gccdf-tree": "tree"}[strategy]
    return DedupBackupService(
        config=config.with_gccdf(packing=packing, segment_size=2),
        migration=GCCDFMigration(),
    )


@given(operations, strategies_to_test, vc_tables)
@settings(max_examples=60, deadline=None)
def test_live_backups_always_restorable(ops, strategy, vc_table):
    service = build_service(strategy, vc_table)
    expected: dict[int, list[bytes]] = {}

    for op, start, length in ops:
        if op == "ingest":
            stream = refs("prop", range(start, start + length))
            result = service.ingest(stream)
            expected[result.backup_id] = [r.fp for r in stream]
        else:
            service.delete_oldest(1)
            service.run_gc()

    # Every live backup restores to its exact logical chunk sequence.
    for backup_id in service.live_backup_ids():
        recipe = service.recipes.get(backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == expected[backup_id]
        report = service.restore(backup_id)
        assert report.logical_bytes == recipe.logical_size
        # And every recipe key resolves to a live container that really
        # holds that key.
        for entry in recipe.entries:
            placement = service.index.get(entry.fp)
            container = service.store.peek(placement.container_id)
            assert entry.fp in container.fingerprints()


@given(operations, strategies_to_test)
@settings(max_examples=40, deadline=None)
def test_store_and_index_mutually_consistent(ops, strategy):
    service = build_service(strategy, "exact")
    for op, start, length in ops:
        if op == "ingest":
            service.ingest(refs("prop", range(start, start + length)))
        else:
            service.delete_oldest(1)
            service.run_gc()

    # Index placements point at live containers holding the key.
    for key, placement in service.index.items():
        assert placement.container_id in service.store
        assert key in service.store.peek(placement.container_id).fingerprints()

    # With an exact VC table, GC leaves no unreferenced keys behind after
    # the most recent collection *if* one ran with no later ingests; in
    # general the index may lead the store only via the open container, so
    # we check the weaker direction: store keys are a subset of the index.
    store_keys = set()
    for container in service.store.containers():
        store_keys.update(container.fingerprints())
    index_keys = {key for key, _ in service.index.items()}
    assert store_keys == index_keys


@given(
    operations,
    strategies_to_test,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_injected_crash_recovery_keeps_system_consistent(
    ops, strategy, point_index, occurrence
):
    """Crash at an arbitrary armed point mid-sequence, recover in place,
    and keep executing the remaining operations: every surviving backup
    must stay restorable and the verifier must stay clean throughout."""
    points = points_for("gccdf" if strategy.startswith("gccdf") else "naive")
    plan = FaultPlan.single(points[point_index % len(points)], occurrence=occurrence)
    service = build_service(strategy, "exact")
    service.disk.faults = plan
    expected: dict[int, list[bytes]] = {}

    crashed = False
    for op, start, length in ops:
        try:
            if op == "ingest":
                stream = refs("prop", range(start, start + length))
                result = service.ingest(stream)
                expected[result.backup_id] = [r.fp for r in stream]
            else:
                service.delete_oldest(1)
                service.run_gc()
        except SimulatedCrash:
            crashed = True
            recover_service(service)
            assert verify_service(service).errors == []

    assert verify_service(service).errors == []
    assert len(service.store.journal) == 0
    for backup_id in service.live_backup_ids():
        recipe = service.recipes.get(backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == expected[backup_id]
        report = service.restore(backup_id)
        assert report.logical_bytes == recipe.logical_size
    if not crashed:
        # The plan never fired: the armed run must match an unarmed one.
        assert plan.fired is None


@given(operations)
@settings(max_examples=30, deadline=None)
def test_gc_reclaims_identically_across_strategies(ops):
    """Naive and GCCDF sweeps must free exactly the same bytes."""
    stored = {}
    for strategy in ("naive", "gccdf"):
        service = build_service(strategy, "exact")
        for op, start, length in ops:
            if op == "ingest":
                service.ingest(refs("prop", range(start, start + length)))
            else:
                service.delete_oldest(1)
                service.run_gc()
        stored[strategy] = service.store.stored_bytes
        assert service.stats().dedup_ratio >= 1.0
    assert stored["naive"] == stored["gccdf"]
