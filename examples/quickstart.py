"""Quickstart: byte-level backup, dedup, GC, and verified restore.

Runs the whole stack on real bytes: FastCDC chunking, SHA-1 fingerprinting,
container storage, mark–sweep GC with GCCDF's piggybacked defragmentation,
and a byte-exact restore check.

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SystemConfig
from repro.backup.system import DedupBackupService
from repro.chunking import FastCDC
from repro.chunking.base import split
from repro.core.gccdf import GCCDFMigration
from repro.util.units import format_bytes
from repro.workloads.bytesgen import synthetic_backup_bytes


def main() -> None:
    # A small geometry so the run takes a second; the API is identical at
    # the paper's 4 MiB-container scale (SystemConfig.paper()).
    config = SystemConfig.scaled(retained=10, turnover=3)
    service = DedupBackupService(
        config=config, migration=GCCDFMigration(), name="gccdf"
    )
    chunker = FastCDC(config.chunking)

    # Ingest 6 versions of a 1 MiB backup image; ~10 % churn per version.
    print("== ingest ==")
    versions: dict[int, bytes] = {}
    for version in range(6):
        image = synthetic_backup_bytes(seed=42, version=version, size=1 << 20, churn=0.1)
        result = service.ingest(split(chunker, image), source=f"v{version}")
        versions[result.backup_id] = image
        print(
            f"backup {result.backup_id}: logical {format_bytes(result.logical_bytes)}, "
            f"new data {format_bytes(result.stored_bytes)}, "
            f"deduped {format_bytes(result.dedup_bytes)}"
        )
    print(f"dedup ratio so far: {service.stats().dedup_ratio:.2f}\n")

    # Rotate out the two oldest backups and garbage-collect.  GCCDF rides
    # the sweep: valid chunks are re-clustered by ownership as they move.
    print("== rotate + GC (GCCDF piggybacks on the sweep) ==")
    victims = service.delete_oldest(2)
    report = service.run_gc()
    print(f"deleted backups {victims}")
    print(report.summary(), "\n")

    # Restore every remaining backup and verify bytes.
    print("== restore & verify ==")
    for backup_id in service.live_backup_ids():
        restore_report, data = service.restore_bytes(backup_id)
        assert data == versions[backup_id], "restored bytes must match ingested bytes"
        print(
            f"backup {backup_id}: verified {format_bytes(restore_report.logical_bytes)}, "
            f"read amp {restore_report.read_amplification:.2f}, "
            f"{restore_report.containers_read} containers"
        )
    print("\nall restores byte-identical ✔")


if __name__ == "__main__":
    main()
