"""Unit tests for the MFDedup baseline (volumes + engine)."""

import pytest

from repro.config import SystemConfig
from repro.errors import StorageError
from repro.mfdedup.engine import MFDedupService
from repro.mfdedup.volumes import VolumeStore
from repro.model import ChunkRef
from repro.simio.disk import DiskModel
from repro.hashing.fingerprints import synthetic_fingerprint

from tests.conftest import refs


@pytest.fixture
def service(tiny_config) -> MFDedupService:
    return MFDedupService(config=tiny_config)


class TestVolumeStore:
    def test_write_and_covering(self):
        store = VolumeStore(DiskModel())
        ref = ChunkRef(fp=synthetic_fingerprint("v", 1), size=100)
        store.write_chunk(0, 0, ref)
        assert [v.size_bytes for v in store.volumes_covering(0)] == [100]
        assert store.volumes_covering(1) == []

    def test_migrate_moves_bytes_and_charges_io(self):
        disk = DiskModel()
        store = VolumeStore(disk)
        a = refs("v", range(4))
        for r in a:
            store.write_chunk(0, 0, r)
        source = store.get(0, 0)
        destination = store.get_or_create(0, 1)
        moved = store.migrate(source, destination, source.chunks[:2])
        assert moved == 2 * 512
        assert source.size_bytes == 2 * 512
        assert destination.size_bytes == 2 * 512
        assert store.migrated_bytes == 2 * 512
        assert disk.stats.read_bytes >= 2 * 512  # migration reads + writes

    def test_drop_expired(self):
        store = VolumeStore(DiskModel())
        store.write_chunk(0, 0, refs("v", [1])[0])
        store.write_chunk(0, 2, refs("v", [2])[0])
        dropped, dropped_bytes = store.drop_expired(oldest_live=1)
        assert dropped == 1
        assert dropped_bytes == 512
        assert len(store) == 1

    def test_get_unknown_raises(self):
        with pytest.raises(StorageError):
            VolumeStore(DiskModel()).get(3, 4)


class TestMFDedupIngest:
    def test_neighbor_duplicates_removed(self, service):
        service.ingest(refs("m", range(10)))
        result = service.ingest(refs("m", range(10)))
        assert result.stored_bytes == 0
        assert result.dedup_bytes == 10 * 512

    def test_non_adjacent_duplicates_not_removed(self, service):
        """The defining MFDedup weakness: content skipping one backup is
        stored again (multi-source failure mode, Fig. 2b)."""
        service.ingest(refs("m", range(10)))          # source A
        service.ingest(refs("other", range(10)))       # source B in between
        result = service.ingest(refs("m", range(10)))  # source A again
        assert result.stored_bytes == 10 * 512
        assert result.dedup_bytes == 0

    def test_alternating_sources_collapse_to_nondedup(self, tiny_config):
        service = MFDedupService(config=tiny_config)
        for round_index in range(3):
            service.ingest(refs("a", range(8)))
            service.ingest(refs("b", range(100, 108)))
        assert service.stats().dedup_ratio == pytest.approx(1.0)

    def test_single_source_dedup_ratio_high(self, service):
        for _ in range(5):
            service.ingest(refs("m", range(10)))
        assert service.stats().dedup_ratio == pytest.approx(5.0)

    def test_migration_volume_tracked(self, service):
        service.ingest(refs("m", range(10)))
        service.ingest(refs("m", range(5, 15)))
        # Chunks 5..9 survive into the second backup: migrated forward.
        assert service.migrated_bytes == 5 * 512
        assert 0 < service.migration_fraction < 1

    def test_intra_backup_duplicates(self, service):
        result = service.ingest(refs("m", [1, 1, 2]))
        assert result.stored_bytes == 2 * 512
        assert result.dedup_bytes == 512


class TestMFDedupLifecycle:
    def test_volume_ranges_are_contiguous_lifetimes(self, service):
        service.ingest(refs("m", range(8)))          # backup 0
        service.ingest(refs("m", range(4, 12)))      # backup 1
        service.ingest(refs("m", range(8, 16)))      # backup 2
        spans = sorted((v.first, v.last) for v in service.volumes if v.chunks)
        # chunks 0-3 live [0,0]; 4-7 live [0,1]; 8-11 live [1,2]; 12-15 [2,2]
        assert spans == [(0, 0), (0, 1), (1, 2), (2, 2)]

    def test_restore_reads_only_covering_volumes(self, service):
        service.ingest(refs("m", range(8)))
        service.ingest(refs("m", range(4, 12)))
        report = service.restore(1)
        assert report.logical_bytes == 8 * 512
        assert report.container_bytes_read == 8 * 512  # exactly its chunks
        assert report.read_amplification == pytest.approx(1.0)

    def test_gc_drops_expired_volumes_only(self, service):
        service.ingest(refs("m", range(8)))
        service.ingest(refs("m", range(4, 12)))
        service.delete_backup(0)
        report = service.run_gc()
        assert report.backups_purged == 1
        assert report.reclaimed_bytes == 4 * 512  # chunks 0..3 lived [0,0]
        assert report.produced_containers == 0
        # Backup 1 must still restore perfectly.
        assert service.restore(1).logical_bytes == 8 * 512

    def test_gc_with_all_deleted_drops_everything(self, service):
        service.ingest(refs("m", range(8)))
        service.delete_backup(0)
        service.run_gc()
        assert service.stats().physical_bytes == 0

    def test_accounting_properties(self, service):
        service.ingest(refs("m", range(8)))
        service.ingest(refs("m", range(4, 12)))
        assert service.stats().cumulative_logical_bytes == 16 * 512
        assert service.stats().cumulative_stored_bytes == 12 * 512
        assert service.stats().physical_bytes == 12 * 512
        assert service.live_backup_ids() == [0, 1]
