"""The backup-service interface every approach implements.

The evaluation driver (paper §6.1 protocol) is approach-agnostic: it only
needs ingest / delete / GC / restore plus the :meth:`BackupService.stats`
accounting below.  Container-based approaches (Naïve, Capping, HAR, SMR,
GCCDF, Non-dedup) share :class:`repro.backup.system.DedupBackupService`;
MFDedup has its own engine with a volume-based layout but speaks the same
interface.

Dedup-ratio convention (paper §6.2): *actual deduplication ratio* =
original dataset size / actual space cost — computed over the whole run as
cumulative ingested logical bytes over cumulative chunk bytes ever stored.
This makes Non-dedup exactly 1.0 and charges rewriting policies permanently
for every extra copy, matching Fig. 11's accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Union

from repro.dedup.pipeline import IngestResult
from repro.gc.report import GCReport
from repro.model import Chunk, ChunkRef
from repro.restore.report import RestoreReport

ChunkStream = Iterable[Union[Chunk, ChunkRef]]


@dataclass(frozen=True)
class ServiceStats:
    """A service's whole-run space accounting, in one immutable snapshot.

    Returned by :meth:`BackupService.stats`.
    """

    #: Total pre-dedup bytes ingested over the service's lifetime.
    cumulative_logical_bytes: int
    #: Total chunk bytes ever written to backup storage.
    cumulative_stored_bytes: int
    #: Bytes currently occupied on the backup store.
    physical_bytes: int

    @property
    def dedup_ratio(self) -> float:
        """Actual deduplication ratio over the whole run (Fig. 11)."""
        if self.cumulative_stored_bytes == 0:
            return float("inf") if self.cumulative_logical_bytes else 1.0
        return self.cumulative_logical_bytes / self.cumulative_stored_bytes

    def to_dict(self) -> dict:
        """Plain-scalar dict (metrics payloads, JSON-exact)."""
        return {
            "cumulative_logical_bytes": self.cumulative_logical_bytes,
            "cumulative_stored_bytes": self.cumulative_stored_bytes,
            "physical_bytes": self.physical_bytes,
            "dedup_ratio": self.dedup_ratio,
        }


class BackupService(ABC):
    """Common facade over all evaluated approaches."""

    #: Approach name as used in the paper's figures ('naive', 'gccdf', ...).
    name: str = "abstract"

    @abstractmethod
    def ingest(self, stream: ChunkStream, source: str = "") -> IngestResult:
        """Deduplicate and store one backup; returns ingest accounting."""

    @abstractmethod
    def delete_backup(self, backup_id: int) -> None:
        """Logically delete one backup (space returns at the next GC)."""

    @abstractmethod
    def run_gc(self) -> GCReport:
        """Run one garbage collection; returns the round's report."""

    @abstractmethod
    def restore(self, backup_id: int) -> RestoreReport:
        """Restore one backup; returns restore accounting."""

    @abstractmethod
    def live_backup_ids(self) -> list[int]:
        """Ids of live (restorable) backups, oldest first."""

    @abstractmethod
    def stats(self) -> ServiceStats:
        """The service's whole-run space accounting (one snapshot)."""

    def runtime_metrics(self) -> dict[str, int | float]:
        """Hot-path execution counters (index probes, guard skip rates…)
        merged into the run's metrics payload under ``runtime.*``.
        Approaches without such counters return the default empty dict."""
        return {}

    def open_backup(self, backup_id: int):
        """Open a live backup for random-access reads; returns a
        :class:`~repro.serve.reader.BackupReader`.

        All shipped approaches implement this; the default raises for
        third-party services that predate the serving layer."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support read serving"
        )

    def delete_oldest(self, count: int) -> list[int]:
        """Logically delete the ``count`` oldest live backups (§6.1 rotation);
        returns their ids."""
        victims = self.live_backup_ids()[:count]
        for backup_id in victims:
            self.delete_backup(backup_id)
        return victims
