"""The evolving backup source model.

A :class:`MutatingSource` owns a file tree whose files are lists of logical
chunks ``(identity, version, ref)``; a snapshot is the concatenation of all
files' chunks in stable tree order (the tar-image model of paper §2.3).
Each ``ref`` is the chunk's :class:`~repro.model.ChunkRef`, fingerprinted
once when the chunk is created or its version bumped, so every snapshot
that carries the chunk shares the one object instead of hashing it again.
Between snapshots the source mutates per its :class:`MutationProfile`:

* **modify** — a fraction of files receive localized edits.  Each file has a
  *persistent hotspot*: a region that, once edited, tends to be edited again
  on subsequent snapshots (log-structured files, databases, and documents
  all behave this way).  Rewriting the same region repeatedly makes chunk
  deaths *cohort-structured* — the chunks born at edit *t* die together at
  the next edit *t'* — which is what gives real backup data its
  characteristic ownership clusters (large groups of chunks alive for the
  same backup range).  A smaller fraction of edits land at random offsets,
  adding the scattered-churn component.
* **create / delete** — whole-file turnover (the Tarasov et al. generator's
  file operations), keeping the working-set size roughly stationary; a
  deleted file kills its entire chunk cohort at once.

Two snapshots of the same source share all untouched chunks; snapshots of
different sources share nothing — multi-source datasets interleave several
sources, which is exactly the regime where neighbor-only dedup (MFDedup)
collapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ChunkingConfig
from repro.errors import ConfigError
from repro.hashing.fingerprints import synthetic_fingerprint
from repro.model import ChunkRef
from repro.util.rng import DeterministicRng
from repro.workloads.sizes import ChunkSizeSampler


@dataclass(frozen=True)
class MutationProfile:
    """Per-snapshot churn rates of a source."""

    #: Fraction of files edited between consecutive snapshots.
    modify_file_fraction: float = 0.2
    #: Fraction of an edited file's chunks rewritten per edit run.
    modify_chunk_fraction: float = 0.15
    #: Probability that an edit also inserts a brand-new chunk.
    insert_probability: float = 0.2
    #: Probability an edit hits the file's persistent hotspot (cohort
    #: deaths) rather than a random offset (scattered churn).
    hotspot_probability: float = 0.8
    #: Files created per snapshot, as a fraction of the file count.
    create_file_fraction: float = 0.02
    #: Files deleted per snapshot, as a fraction of the file count.
    delete_file_fraction: float = 0.02

    def validate(self) -> None:
        for name in (
            "modify_file_fraction",
            "modify_chunk_fraction",
            "insert_probability",
            "hotspot_probability",
            "create_file_fraction",
            "delete_file_fraction",
        ):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass
class _File:
    """One file: an ordered list of logical chunks plus its edit hotspot."""

    file_id: int
    #: ``(identity, version, ref)`` per chunk, in file order.
    chunks: list[tuple[int, int, ChunkRef]] = field(default_factory=list)
    #: Persistent hotspot position as a fraction of the file length.
    hotspot: float = 0.5

    @property
    def size(self) -> int:
        return sum(ref.size for _, _, ref in self.chunks)


class MutatingSource:
    """A backup source producing successive snapshots of its file tree."""

    def __init__(
        self,
        name: str,
        chunking: ChunkingConfig,
        target_bytes: int,
        file_size_mean: int,
        profile: MutationProfile,
        seed: int,
    ):
        """``target_bytes``: initial working-set size; ``file_size_mean``:
        mean file size (controls how many files the tree holds)."""
        profile.validate()
        if target_bytes <= 0 or file_size_mean <= 0:
            raise ConfigError("target_bytes and file_size_mean must be positive")
        self.name = name
        self.profile = profile
        self._rng = DeterministicRng(seed)
        self._sampler = ChunkSizeSampler(chunking, self._rng.fork("sizes"))
        self._next_identity = 0
        self._next_file_id = 0
        self._files: list[_File] = []
        self.snapshots_taken = 0
        num_files = max(1, round(target_bytes / file_size_mean))
        for _ in range(num_files):
            self._files.append(self._new_file(file_size_mean))
        self._file_size_mean = file_size_mean

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _chunk(
        self, identity: int, version: int, size: int
    ) -> tuple[int, int, ChunkRef]:
        fp = synthetic_fingerprint(self.name, identity, version)
        return (identity, version, ChunkRef(fp=fp, size=size))

    def _new_chunk(self, size: int) -> tuple[int, int, ChunkRef]:
        identity = self._next_identity
        self._next_identity += 1
        return self._chunk(identity, 0, size)

    def _new_file(self, size_hint: int) -> _File:
        file = _File(file_id=self._next_file_id, hotspot=self._rng.random())
        self._next_file_id += 1
        # Vary file sizes around the mean (0.5×–1.5×).
        size = max(1, int(size_hint * (0.5 + self._rng.random())))
        for chunk_size in self._sampler.sample_total(size):
            file.chunks.append(self._new_chunk(chunk_size))
        return file

    # ------------------------------------------------------------------
    # Snapshot production
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple[ChunkRef, ...]:
        """Emit the current state as a chunk stream, then mutate.

        The first call returns the initial state; successive calls return
        progressively mutated states.
        """
        refs = tuple(ref for file in self._files for _, _, ref in file.chunks)
        self._mutate()
        self.snapshots_taken += 1
        return refs

    @property
    def working_set_bytes(self) -> int:
        return sum(file.size for file in self._files)

    @property
    def num_files(self) -> int:
        return len(self._files)

    # ------------------------------------------------------------------
    # Mutation machinery
    # ------------------------------------------------------------------

    def _mutate(self) -> None:
        self._modify_files()
        self._delete_files()
        self._create_files()

    def _modify_files(self) -> None:
        count = round(len(self._files) * self.profile.modify_file_fraction)
        if count <= 0 or not self._files:
            return
        count = min(count, len(self._files))
        for file in self._rng.sample(self._files, count):
            self._edit_file(file)

    def _edit_file(self, file: _File) -> None:
        """Bump versions of a contiguous chunk run; maybe insert new chunks.

        With probability ``hotspot_probability`` the run is anchored at the
        file's persistent hotspot, so the chunks written by this edit form a
        cohort that dies together at the file's next hotspot edit.
        """
        if not file.chunks:
            return
        run_length = max(1, round(len(file.chunks) * self.profile.modify_chunk_fraction))
        max_start = max(0, len(file.chunks) - run_length)
        if self._rng.chance(self.profile.hotspot_probability):
            start = min(max_start, int(file.hotspot * len(file.chunks)))
        else:
            start = self._rng.randint(0, max_start)
        for position in range(start, min(start + run_length, len(file.chunks))):
            identity, version, ref = file.chunks[position]
            file.chunks[position] = self._chunk(identity, version + 1, ref.size)
        if self._rng.chance(self.profile.insert_probability):
            insert_at = self._rng.randint(0, len(file.chunks))
            file.chunks.insert(insert_at, self._new_chunk(self._sampler.sample()))

    def _delete_files(self) -> None:
        count = round(len(self._files) * self.profile.delete_file_fraction)
        if count <= 0 or len(self._files) <= 1:
            return
        count = min(count, len(self._files) - 1)
        victims = {file.file_id for file in self._rng.sample(self._files, count)}
        self._files = [file for file in self._files if file.file_id not in victims]

    def _create_files(self) -> None:
        count = round(
            (len(self._files) or 1) * self.profile.create_file_fraction
        )
        for _ in range(count):
            self._files.append(self._new_file(self._file_size_mean))
