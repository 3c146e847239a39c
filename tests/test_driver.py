"""Tests for the rotation driver (the §6.1 evaluation protocol)."""

import pytest

from repro.backup.approaches import make_service
from repro.backup.driver import BackupSpec, RotationDriver
from repro.config import RetentionConfig, SystemConfig

from tests.conftest import refs


def specs(count: int, churn: int = 2, size: int = 16) -> list[BackupSpec]:
    """`count` backups of `size` chunks; each shifts by `churn` chunks."""
    return [
        BackupSpec(
            source="s",
            chunks=tuple(refs("d", range(i * churn, i * churn + size))),
        )
        for i in range(count)
    ]


def run(count: int, retained=6, turnover=2, approach="naive"):
    config = SystemConfig.scaled(retained=retained, turnover=turnover)
    service = make_service(approach, config)
    driver = RotationDriver(service, config.retention, dataset_name="unit")
    return driver.run(specs(count)), service


class TestProtocolStructure:
    def test_round_count_matches_paper_rule(self):
        """120 backups, retain 100, turnover 20 → 2 GC rounds (paper §6.4);
        scaled here: 12 backups, retain 6, turnover 2 → (12-6)/2 + 1 = 4."""
        result, _ = run(12)
        assert len(result.gc_reports) == 4

    def test_final_retained_count(self):
        result, service = run(12, retained=6, turnover=2)
        assert len(service.live_backup_ids()) == 4  # retained - turnover
        assert len(result.restore_reports) == 4

    def test_exact_window_dataset_gets_final_round_only(self):
        result, service = run(6, retained=6, turnover=2)
        assert len(result.gc_reports) == 1
        assert len(service.live_backup_ids()) == 4

    def test_short_dataset_still_runs(self):
        result, service = run(3, retained=6, turnover=2)
        assert len(result.ingest_reports) == 3
        assert len(result.restore_reports) == 1  # 3 - 2 deleted

    def test_all_ingests_recorded(self):
        result, _ = run(12)
        assert len(result.ingest_reports) == 12

    def test_restores_are_of_live_backups_oldest_first(self):
        result, service = run(12)
        assert [r.backup_id for r in result.restore_reports] == service.live_backup_ids()


class TestResultAggregates:
    def test_dedup_ratio_copied_from_service(self):
        result, service = run(12)
        assert result.dedup_ratio == pytest.approx(service.stats().dedup_ratio)

    def test_mean_read_amplification(self):
        result, _ = run(12)
        amps = [r.read_amplification for r in result.restore_reports]
        assert result.mean_read_amplification == pytest.approx(sum(amps) / len(amps))

    def test_restore_speed_weighted_by_bytes(self):
        result, _ = run(12)
        total_bytes = sum(r.logical_bytes for r in result.restore_reports)
        total_seconds = sum(r.read_seconds for r in result.restore_reports)
        assert result.restore_speed == pytest.approx(total_bytes / total_seconds)

    def test_gc_total_seconds(self):
        result, _ = run(12)
        assert result.gc_total_seconds == pytest.approx(
            sum(r.total_seconds for r in result.gc_reports)
        )

    def test_empty_result_aggregates(self):
        from repro.backup.driver import RotationResult

        empty = RotationResult(approach="x", dataset="y")
        assert empty.mean_read_amplification == 0.0
        assert empty.restore_speed == 0.0

    def test_backup_spec_logical_bytes(self):
        spec = BackupSpec(source="s", chunks=tuple(refs("d", range(4))))
        assert spec.logical_bytes == 4 * 512


class TestDriverAcrossApproaches:
    @pytest.mark.parametrize("approach", ["naive", "gccdf", "mfdedup", "nondedup"])
    def test_protocol_completes(self, approach):
        result, _ = run(10, approach=approach)
        assert result.approach == approach
        assert result.restore_reports
