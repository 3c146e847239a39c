"""Wall-clock spans recorded around calls into the program's layers.

The benchmark does not change the program to trace it.  Instead a
:class:`SpanRecorder` replaces selected methods on the program's classes
with thin wrappers for the duration of a traced repeat, and puts the
originals back afterwards.  Each wrapper records one span: the layer name,
start and end (``time.perf_counter`` seconds), the index of the enclosing
span, and an operation id shared by every span under the same top-level
call.  Spans stay in memory and are written out once, when the run ends.

:data:`LAYER_METHODS` is the one table of what is traced; the layer names
are the per-layer metric prefixes of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: Layer name -> (module, class, method) triples wrapped by a traced repeat.
#: ``backup`` is the service facade (the calls the benchmark itself makes);
#: the other layers are the public entry points one level further in.  The
#: incremental GC's phase bodies are private methods, wrapped because the
#: engine has no public per-phase entry point.
LAYER_METHODS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "workloads": (("repro.workloads.source", "MutatingSource", "snapshot"),),
    "backup": (
        ("repro.backup.system", "DedupBackupService", "ingest"),
        ("repro.backup.system", "DedupBackupService", "delete_backup"),
        ("repro.backup.system", "DedupBackupService", "run_gc"),
        ("repro.backup.system", "DedupBackupService", "restore"),
        ("repro.backup.system", "DedupBackupService", "open_backup"),
    ),
    "dedup": (("repro.dedup.pipeline", "IngestPipeline", "ingest"),),
    "gc": (
        ("repro.gc.engine", "MarkSweepGC", "collect"),
        ("repro.gc.incremental", "IncrementalGC", "begin"),
        ("repro.gc.incremental", "IncrementalGC", "step"),
    ),
    "gc.rededup": (("repro.gc.incremental", "IncrementalGC", "_rededup_increment"),),
    "gc.mark": (
        ("repro.gc.mark", "MarkStage", "run"),
        ("repro.gc.incremental", "IncrementalGC", "_mark_increment"),
    ),
    "gc.sweep": (
        ("repro.gc.migration", "NaiveMigration", "migrate"),
        ("repro.core.gccdf", "GCCDFMigration", "migrate"),
        ("repro.gc.incremental", "IncrementalGC", "_sweep_increment"),
    ),
    "gc.purge": (("repro.index.recipe", "RecipeStore", "purge_deleted"),),
    "core.analyze": (("repro.core.analyzer", "Analyzer", "cluster"),),
    "core.plan": (("repro.core.planner", "Planner", "plan"),),
    "hashing.bloom": (
        ("repro.hashing.bloom", "BloomFilter", "update"),
        ("repro.hashing.bloom", "BloomFilter", "add"),
    ),
    "storage": (("repro.storage.store", "ContainerStore", "commit"),),
    "faults.journal": (("repro.faults.journal", "IntentJournal", "begin"),),
    "restore": (("repro.restore.engine", "RestoreEngine", "restore"),),
    "serve": (("repro.serve.reader", "BackupReader", "pread"),),
}

#: Layers whose spans are attributed to set-up rather than the timed run.
SETUP_LAYERS = ("workloads",)

LAYERS = tuple(LAYER_METHODS)


class SpanRecorder:
    """Records nested wall-clock spans around wrapped methods.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original methods.  ``spans`` holds tuples
    ``(name, start, end, parent, op_id, items)``; ``parent`` is the index
    of the enclosing span or ``-1``.  ``items`` is a per-call work count
    (chunks emitted, clusters formed, Bloom keys inserted), ``0`` when the
    layer has none.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self._stack: list[int] = []
        self._next_op = 0
        self._installed: list[tuple[type, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        for layer, targets in LAYER_METHODS.items():
            for module_name, class_name, method in targets:
                owner = getattr(importlib.import_module(module_name), class_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(layer, original))
                self._installed.append((owner, method, original))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for owner, method, original in reversed(self._installed):
            setattr(owner, method, original)
        self._installed.clear()
        return False

    def _wrap(self, layer: str, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = _ITEM_COUNTERS.get(layer)

        def traced(obj, *args, **kwargs):
            if stack:
                parent = stack[-1]
                op_id = spans[parent][4]
            else:
                parent = -1
                op_id = self._next_op
                self._next_op += 1
            index = len(spans)
            spans.append((layer, 0.0, 0.0, parent, op_id, 0))
            stack.append(index)
            before = obj.count if layer == "hashing.bloom" else 0
            start = clock()
            result = None
            try:
                result = original(obj, *args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                items = counter(obj, result, before) if counter else 0
                spans[index] = (layer, start, end, parent, op_id, items)

        traced.__wrapped__ = original
        return traced

    def mark(self) -> int:
        """The current span count (a phase boundary for :func:`summarize`)."""
        return len(self.spans)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, items in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "items": items,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def _len_result(obj, result, before) -> int:
    return len(result) if result is not None else 0


def _bloom_keys(obj, result, before) -> int:
    return obj.count - before


_ITEM_COUNTERS = {
    "workloads": _len_result,
    "core.analyze": _len_result,
    "hashing.bloom": _bloom_keys,
}


def summarize(spans, first: int, last: int) -> dict[str, dict[str, float]]:
    """Per-layer busy time, self time, call count and item count.

    Covers spans ``first:last`` (one phase of one repeat).  Busy time sums
    a layer's spans that are not nested inside a span of the same layer,
    so recursion is not counted twice.  Self time is a span's duration
    minus the time its direct children cover.  ``_top`` holds the summed
    duration of the phase's top-level spans.
    """
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    items: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    top = 0.0
    for index in range(last - 1, first - 1, -1):
        name, start, end, parent, _op, count = spans[index]
        duration = end - start
        self_time[name] += duration - child_time.pop(index, 0.0)
        if parent >= first:
            child_time[parent] += duration
        else:
            top += duration
        calls[name] += 1
        items[name] += count
        if not _nested_in_same_layer(spans, parent, name, first):
            busy[name] += duration
    out = {
        layer: {
            "busy_s": busy.get(layer, 0.0),
            "self_s": self_time.get(layer, 0.0),
            "calls": calls.get(layer, 0),
            "items": items.get(layer, 0),
        }
        for layer in LAYERS
    }
    out["_top"] = {"busy_s": top}
    return out


def _nested_in_same_layer(spans, parent: int, name: str, first: int) -> bool:
    while parent >= first:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
