"""The benchmark's workloads and the timed sequence each one drives.

Every workload is a closed loop with one client: the next call is issued
only when the previous one has returned.  Inputs come from the dataset
presets of :mod:`repro.workloads.datasets`, generated from the run's seed,
and the program is driven only through its public service API
(``make_service``, ``ingest``, ``delete_oldest``, ``run_gc``, ``gc.begin``,
``gc.step``, ``restore``, ``open_backup().pread``).

One *repeat* is: set-up (generate the backup streams, build the service
and, for the serving workload, pre-fill the retention window), the timed
sequence, then the correctness checks, which are not timed.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.backup.verify import verify_service
from repro.config import SystemConfig
from repro.experiments.common import SCALES
from repro.util.units import KIB, MIB
from repro.workloads.datasets import dataset

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an approach, a dataset and a traffic shape."""

    name: str
    why: str
    approach: str
    dataset: str
    num_backups: int
    retained: int
    turnover: int
    scale: float = 1.0
    dedup_mode: str = "inline"
    gc_mode: str = "stw"
    #: Incremental GC only: increments taken after each ingest.
    gc_steps_per_backup: int = 0
    #: Reads issued after each ingest (half to the newest backup, half to
    #: a uniformly chosen live one).
    reads_per_backup: int = 0
    #: Reads issued after the final restores, spread evenly over the
    #: retained backups.
    final_reads: int = 0
    read_size: int = 64 * KIB
    #: Whether set-up pre-fills the retention window (else the timed
    #: sequence does).
    prefill: bool = False
    #: Backup-stream sets generated from one run's seed.  Repeats take them
    #: in turn, so a run averages over this many input draws.
    input_sets: int = 1

    @property
    def incremental(self) -> bool:
        return self.gc_mode == "incremental"

    def params(self) -> dict:
        """The workload parameters, for the result stamp."""
        return {
            key: getattr(self, key)
            for key in (
                "approach",
                "dataset",
                "num_backups",
                "retained",
                "turnover",
                "scale",
                "dedup_mode",
                "gc_mode",
                "gc_steps_per_backup",
                "reads_per_backup",
                "final_reads",
                "read_size",
                "prefill",
                "input_sets",
            )
        }

    def stream_seed(self, seed: int, index: int) -> int:
        """The dataset and read-offset seed of input set ``index``."""
        return seed * self.input_sets + index

    def tiny(self) -> "Workload":
        """A seconds-long version with the same shape (for the self-test)."""
        return replace(
            self,
            num_backups=12,
            retained=6,
            turnover=2,
            scale=0.05,
            reads_per_backup=min(self.reads_per_backup, 4),
            final_reads=min(self.final_reads, 12),
            read_size=4 * KIB,
        )


#: The experiment scales the workloads run at (retention window and
#: working-set size); see ``perfbench/README.md`` for why not ``full``.
QUICK, MEDIUM = SCALES["quick"], SCALES["medium"]

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="gccdf-code",
            why=(
                "section 6.1 rotation with gccdf on CODE (quick scale, 8 input "
                "sets): the paper's headline path, where GC (Analyzer.cluster, "
                "recipe Bloom filters) dominates the run"
            ),
            approach="gccdf",
            dataset="code",
            num_backups=QUICK.num_backups("code"),
            retained=QUICK.retained,
            turnover=QUICK.turnover,
            scale=QUICK.workload_scale,
            final_reads=100,
            input_sets=8,
        ),
        Workload(
            name="serve-web",
            why=(
                "hybrid dedup with incremental GC on WEB: GC slices and "
                "random 64 KiB reads interleave with ingest on deep dedup "
                "chains"
            ),
            approach="naive",
            dataset="web",
            num_backups=2 * MEDIUM.retained,
            retained=MEDIUM.retained,
            turnover=MEDIUM.turnover,
            scale=MEDIUM.workload_scale,
            dedup_mode="hybrid",
            gc_mode="incremental",
            gc_steps_per_backup=2,
            reads_per_backup=100,
            prefill=True,
        ),
    )
}


@dataclass
class Repeat:
    """Samples, outputs and failures of one repeat of a workload."""

    setup_s: float = 0.0
    run_s: float = 0.0
    check_s: float = 0.0
    #: Wall seconds of every call of the timed sequence, in call order.
    #: One seed issues the same calls in the same order in every repeat.
    call_s: list[float] = field(default_factory=list)
    ingest_bytes: int = 0
    ingest_s: list[float] = field(default_factory=list)
    restore_bytes: int = 0
    restore_s: list[float] = field(default_factory=list)
    gc_cycle_s: list[float] = field(default_factory=list)
    gc_pause_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    ingests: list = field(default_factory=list)
    gc_reports: list = field(default_factory=list)
    restores: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    gc_steps: int = 0
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    #: Runtime counters at the start and end of the timed sequence.
    runtime_before: dict = field(default_factory=dict)
    runtime_after: dict = field(default_factory=dict)
    verify: object = None
    #: Span indices bounding set-up and the timed sequence (traced only).
    phases: tuple = ()
    #: Program trace-event indices bounding the timed sequence.
    trace_events: tuple = ()
    #: Outputs that must repeat exactly for one seed (see :func:`outputs`).
    outputs: dict = field(default_factory=dict)

    #: The per-call time lists, the only samples kept once a repeat is done.
    TIMES = ("call_s", "ingest_s", "restore_s", "gc_cycle_s", "gc_pause_s", "read_s")

    def drop_reports(self) -> None:
        """Release the operation reports and pack the time lists, so that a
        run's memory does not grow with its number of repeats."""
        self.ingests, self.gc_reports, self.restores, self.reads = [], [], [], []
        self.verify = None
        self.runtime_before, self.runtime_after = {}, {}
        for name in self.TIMES:
            setattr(self, name, array("d", getattr(self, name)))


class _Client:
    """Issues calls, times them and counts the ones that raise."""

    def __init__(self, repeat: Repeat):
        self.repeat = repeat
        #: Where the times of timed calls go (``None`` outside the timed
        #: sequence).
        self.calls: list[float] | None = None

    def call(self, layer: str, fn, *args, **kwargs):
        """``(result, seconds)``; ``result`` is ``None`` if ``fn`` raised."""
        self.repeat.attempted += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # counted, and the sequence carries on
            self.repeat.failed[layer] += 1
            result = None
        seconds = clock() - start
        if self.calls is not None:
            self.calls.append(seconds)
        return result, seconds


def run_repeat(workload: Workload, seed: int, tracer=None, recorder=None) -> Repeat:
    """Set up, run and check one repeat; returns its samples.

    ``seed`` is a stream seed (:meth:`Workload.stream_seed`): it generates
    the backup streams and the read offsets.

    ``tracer`` is attached to the service; ``recorder`` (a
    :class:`~spans.SpanRecorder`, or ``None``) supplies the span indices
    stored in ``Repeat.phases``.
    """
    repeat = Repeat()
    client = _Client(repeat)
    mark0 = recorder.mark() if recorder else 0

    start = clock()
    specs = tuple(
        dataset(
            workload.dataset,
            scale=workload.scale,
            num_backups=workload.num_backups,
            seed=seed,
        )
    )
    config = SystemConfig.scaled(retained=workload.retained, turnover=workload.turnover)
    options = ServiceOptions(
        tracer=tracer, gc_mode=workload.gc_mode, dedup_mode=workload.dedup_mode
    )
    service = make_service(workload.approach, config, options)
    sizes: dict[int, int] = {}
    if workload.prefill:
        for spec in specs[: workload.retained]:
            _ingest(client, service, spec, sizes, timed=False)
    repeat.setup_s = clock() - start
    mark1 = recorder.mark() if recorder else 0

    rng = random.Random(seed)
    repeat.runtime_before = service.runtime_metrics()
    first_event = len(tracer.events) if tracer is not None else 0
    client.calls = repeat.call_s
    start = clock()
    _sequence(workload, client, service, specs, sizes, rng)
    repeat.run_s = clock() - start
    client.calls = None
    repeat.runtime_after = service.runtime_metrics()
    if recorder:
        repeat.phases = (mark0, mark1, recorder.mark())
    if tracer is not None:
        repeat.trace_events = (first_event, len(tracer.events))

    start = clock()
    _check(client, service, sizes)
    repeat.check_s = clock() - start
    repeat.outputs = outputs(service, repeat)
    return repeat


def _ingest(client: _Client, service, spec, sizes: dict, timed: bool = True) -> None:
    result, seconds = client.call("dedup", service.ingest, spec.chunks, source=spec.source)
    if result is None:
        return
    sizes[result.backup_id] = spec.logical_bytes
    if timed:
        repeat = client.repeat
        repeat.ingests.append(result)
        repeat.ingest_bytes += result.logical_bytes
        repeat.ingest_s.append(seconds)


def _sequence(workload: Workload, client: _Client, service, specs, sizes, rng) -> None:
    """Section 6.1: fill the window, then turnover rounds (retire the
    oldest backups, collect, ingest the next ones), a final round without
    ingest, and a restore of every retained backup.

    ``reads_per_backup`` reads follow every ingest; ``final_reads`` reads
    follow the final restores.
    """
    if not workload.prefill:
        for spec in specs[: workload.retained]:
            _ingest(client, service, spec, sizes)
            _reads(workload, client, service, sizes, rng)
    for first in [*range(workload.retained, len(specs), workload.turnover), None]:
        client.call("backup", service.delete_oldest, workload.turnover)
        batch = specs[first : first + workload.turnover] if first is not None else ()
        if workload.incremental:
            _incremental_round(workload, client, service, batch, sizes, rng)
            continue
        _run_gc(client, service)
        for spec in batch:
            _ingest(client, service, spec, sizes)
            _reads(workload, client, service, sizes, rng)
    live = service.live_backup_ids()
    for backup_id in live:
        _restore(client, service, backup_id)
    for i in range(workload.final_reads):
        _read(workload, client, service, sizes, rng, live[i % len(live)])


def _run_gc(client: _Client, service) -> None:
    report, seconds = client.call("gc", service.run_gc)
    if report is not None:
        repeat = client.repeat
        repeat.gc_reports.append(report)
        repeat.gc_cycle_s.append(seconds)
        # A stop-the-world cycle stalls the foreground for all of it.
        repeat.gc_pause_s.append(seconds)


def _incremental_round(workload: Workload, client: _Client, service, batch, sizes, rng) -> None:
    """One cycle in increments between ingests and reads, then drained."""
    gc = service.gc
    client.call("gc", gc.begin)
    cycle_s = 0.0
    for spec in batch:
        _ingest(client, service, spec, sizes)
        for _ in range(workload.gc_steps_per_backup):
            if gc.active:
                cycle_s += _gc_step(client, gc)
        _reads(workload, client, service, sizes, rng)
    while gc.active:
        cycle_s += _gc_step(client, gc)
    client.repeat.gc_cycle_s.append(cycle_s)


def _gc_step(client: _Client, gc) -> float:
    report, seconds = client.call("gc", gc.step)
    repeat = client.repeat
    repeat.gc_steps += 1
    repeat.gc_pause_s.append(seconds)
    if report is not None:
        repeat.gc_reports.append(report)
    return seconds


def _reads(workload: Workload, client: _Client, service, sizes, rng) -> None:
    live = service.live_backup_ids()
    for i in range(workload.reads_per_backup):
        backup_id = live[-1] if i % 2 == 0 else rng.choice(live)
        _read(workload, client, service, sizes, rng, backup_id)


def _read(workload: Workload, client: _Client, service, sizes, rng, backup_id) -> None:
    """One ``pread`` of ``read_size`` bytes at a seeded offset."""
    size = sizes.get(backup_id, 0)
    offset = rng.randrange(max(1, size))
    reader, _ = client.call("serve", service.open_backup, backup_id)
    if reader is None:
        return
    with reader:
        report, seconds = client.call("serve", reader.pread, offset, workload.read_size)
    if report is not None:
        repeat = client.repeat
        repeat.read_s.append(seconds)
        expected = max(0, min(workload.read_size, size - offset))
        repeat.reads.append((report, expected))


def _restore(client: _Client, service, backup_id: int):
    report, seconds = client.call("restore", service.restore, backup_id)
    if report is not None:
        repeat = client.repeat
        repeat.restores.append(report)
        repeat.restore_bytes += report.logical_bytes
        repeat.restore_s.append(seconds)


def _check(client: _Client, service, sizes: dict) -> None:
    """The correctness gate (untimed); failures count against the layer."""
    repeat = client.repeat
    report, _ = client.call("verify", verify_service, service)
    repeat.verify = report
    if report is not None and not report.consistent:
        repeat.failed["verify"] += 1
    for restored in repeat.restores:
        repeat.attempted += 1
        if restored.logical_bytes != sizes.get(restored.backup_id):
            repeat.failed["restore"] += 1
    for read, expected in repeat.reads:
        repeat.attempted += 1
        if read.bytes_read != expected:
            repeat.failed["serve"] += 1


def outputs(service, repeat: Repeat) -> dict:
    """The deterministic outputs of a repeat: quality metrics and the
    simulated I/O totals.  They depend only on the seed, never on timing."""
    restores = repeat.restores
    read_seconds = sum(r.read_seconds for r in restores)
    disk = service.disk.stats
    return {
        "dedup_ratio": service.stats().dedup_ratio,
        "read_amp": (
            sum(r.read_amplification for r in restores) / len(restores)
            if restores
            else 0.0
        ),
        "sim_restore_mib_s": (
            sum(r.logical_bytes for r in restores) / MIB / read_seconds
            if read_seconds
            else 0.0
        ),
        "sim_gc_s": sum(r.total_seconds for r in repeat.gc_reports),
        "ingest_bytes": repeat.ingest_bytes,
        "restore_bytes": repeat.restore_bytes,
        "disk": disk.to_dict(),
        "reads": [
            (r.containers_read, r.chunk_hits, r.container_hits) for r, _ in repeat.reads
        ],
    }
