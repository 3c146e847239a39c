"""The repository benchmark: one command, every workload, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gccdf-code --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics
instead, including the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, stamped with the machine and the workload parameters, and
the recorded spans of a traced run are written under ``--out``.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.tracer import TraceRecorder  # noqa: E402
from repro.util.units import MIB  # noqa: E402

from spans import LAYERS, SETUP_LAYERS, SpanRecorder, summarize  # noqa: E402
from workloads import WORKLOADS, Repeat, run_repeat  # noqa: E402

#: Metric names, units and directions (``end_to_end`` for ``--trace 0``,
#: ``per_layer`` for ``--trace 1``).
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Program spans of the simulated disk whose I/O counts are reported.
SIM_SPANS = ("ingest", "gc.mark", "gc.sweep", "restore", "read")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fastest(samples: list[list[float]]) -> list[float]:
    """Each call's fastest time over the repeats.

    ``samples`` holds one list per repeat, in call order.  One input set
    issues the same calls in every repeat, so position ``k`` is the same
    call each time (a repeat that failed midway is cut at its shortest
    list, and the run is already marked incorrect).
    """
    return [min(times) for times in zip(*samples)]


def end_to_end(sets) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics over untraced repeats, and each one's
    sample count (calls times repeats).

    ``sets`` holds the repeats of each input set.  Every wall-time metric
    is built from the fastest time of each call over its set's repeats
    (see README.md, "Measured noise"): on a shared machine co-tenants slow
    stretches of seconds, and a call's fastest repeat is the one they
    disturbed least.  Set-up is each set's fastest, median over the sets;
    the other per-set figures are pooled over the sets, and the
    deterministic outputs are their mean.
    """
    repeats = [r for group in sets for r in group]
    attempted = sum(r.attempted for r in repeats)
    failed = sum(sum(r.failed.values()) for r in repeats)
    per_set = [
        {attr: fastest([getattr(r, attr) for r in group]) for attr in Repeat.TIMES}
        for group in sets
    ]
    pooled = {attr: [x for best in per_set for x in best[attr]] for attr in Repeat.TIMES}
    # A set's run time: its calls at their fastest, plus the benchmark's
    # own loop between calls in its fastest repeat.
    run_s = [
        sum(best["call_s"]) + min(r.run_s - sum(r.call_s) for r in group)
        for best, group in zip(per_set, sets)
    ]
    outputs = [group[0].outputs for group in sets]
    mean = lambda key: statistics.mean(o[key] for o in outputs)  # noqa: E731
    total = lambda key: sum(o[key] for o in outputs)  # noqa: E731
    cycles, pauses, reads = pooled["gc_cycle_s"], pooled["gc_pause_s"], pooled["read_s"]
    values = {
        "setup_s": statistics.median(min(r.setup_s for r in group) for group in sets),
        "run_s": statistics.mean(run_s),
        "ingest_mib_s": _ratio(total("ingest_bytes") / MIB, sum(pooled["ingest_s"])),
        "gc_cycle_s": statistics.median(cycles) if cycles else 0.0,
        "restore_mib_s": _ratio(total("restore_bytes") / MIB, sum(pooled["restore_s"])),
        "read_p50_us": quantile(reads, 0.50) * 1e6 if reads else 0.0,
        "read_p99_us": quantile(reads, 0.99) * 1e6 if reads else 0.0,
        "gc_pause_p50_ms": quantile(pauses, 0.50) * 1e3 if pauses else 0.0,
        "gc_pause_p90_ms": quantile(pauses, 0.90) * 1e3 if pauses else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - _ratio(failed, attempted),
        "dedup_ratio": mean("dedup_ratio"),
        "read_amp": mean("read_amp"),
        "sim_restore_mib_s": mean("sim_restore_mib_s"),
        "sim_gc_s": mean("sim_gc_s"),
    }
    runs = len(repeats)
    calls = lambda attr: runs * len(pooled[attr]) // len(sets)  # noqa: E731
    samples = {name: runs for name in values}
    samples.update(
        {
            "run_s": calls("call_s"),
            "ingest_mib_s": calls("ingest_s"),
            "gc_cycle_s": calls("gc_cycle_s"),
            "restore_mib_s": calls("restore_s"),
            "read_p50_us": calls("read_s"),
            "read_p99_us": calls("read_s"),
            "gc_pause_p50_ms": calls("gc_pause_s"),
            "gc_pause_p90_ms": calls("gc_pause_s"),
            "success_rate": attempted,
        }
    )
    return values, samples


def per_layer(repeat, spans, events) -> dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    setup_first, run_first, run_last = repeat.phases
    setup = summarize(spans, setup_first, run_first)
    run = summarize(spans, run_first, run_last)
    out: dict[str, float] = {}
    for layer in LAYERS:
        phase = setup if layer in SETUP_LAYERS else run
        out[f"{layer}.busy_s"] = phase[layer]["busy_s"]
        out[f"{layer}.self_s"] = phase[layer]["self_s"]

    ingests = repeat.ingests
    chunks = sum(r.num_chunks for r in ingests)
    logical = sum(r.logical_bytes for r in ingests)
    before, after = repeat.runtime_before, repeat.runtime_after
    delta = lambda key: after.get(key, 0) - before.get(key, 0)  # noqa: E731
    reports = repeat.gc_reports
    reclaimed = sum(r.reclaimed_containers for r in reports)
    restores = repeat.restores
    restore_reads = sum(r.containers_read for r in restores)
    restore_hits = sum(r.cache_hits for r in restores)
    reads = [read for read, _ in repeat.reads]
    device_reads = sum(r.containers_read for r in reads)
    container_hits = sum(r.container_hits for r in reads)
    intents = run["faults.journal"]["calls"]
    out.update(
        {
            "workloads.chunks": setup["workloads"]["items"],
            "dedup.chunks": chunks,
            "dedup.stored_fraction": _ratio(sum(r.stored_bytes for r in ingests), logical),
            "dedup.rewritten_mib": sum(r.rewritten_bytes for r in ingests) / MIB,
            "dedup.neighbor_hit_rate": _ratio(delta("hybrid.neighbor_hits"), chunks),
            "dedup.failed": repeat.failed["dedup"],
            "index.lookups_per_chunk": _ratio(delta("index.lookups"), chunks),
            "index.hit_rate": _ratio(delta("index.hits"), delta("index.lookups")),
            "index.guard_skip_rate": _ratio(
                delta("index.guard_skips"), delta("index.guard_probes")
            ),
            "gc.cycles": len(reports),
            "gc.steps": repeat.gc_steps,
            "gc.reclaimed_containers": reclaimed,
            "gc.produced_containers": sum(r.produced_containers for r in reports),
            "gc.migrated_per_reclaimed": _ratio(
                sum(r.migrated_chunks for r in reports), reclaimed
            ),
            "gc.failed": repeat.failed["gc"],
            "core.clusters": run["core.analyze"]["items"],
            "core.analyze_cpu_s": sum(r.analyze_cpu_seconds for r in reports),
            "hashing.bloom.updates": run["hashing.bloom"]["calls"],
            "hashing.bloom.keys": run["hashing.bloom"]["items"],
            "storage.containers_written": run["storage"]["calls"],
            "storage.live_containers": repeat.verify.containers if repeat.verify else 0,
            "faults.journal.intents": intents,
            "faults.journal.intents_per_cycle": _ratio(intents, len(reports)),
            "restore.backups": len(restores),
            "restore.containers_read": restore_reads,
            "restore.cache_hit_rate": _ratio(restore_hits, restore_hits + restore_reads),
            "restore.failed": repeat.failed["restore"],
            "serve.reads": len(reads),
            "serve.chunk_hit_rate": _ratio(
                sum(r.chunk_hits for r in reads), sum(r.num_chunks for r in reads)
            ),
            "serve.container_hit_rate": _ratio(
                container_hits, container_hits + device_reads
            ),
            "serve.device_reads_per_read": _ratio(device_reads, len(reads)),
            "serve.failed": repeat.failed["serve"],
            "verify.failed": repeat.failed["verify"],
        }
    )
    out.update(simio(events))
    out["obs.run_s"] = repeat.run_s
    out["obs.unattributed_s"] = repeat.run_s - run["_top"]["busy_s"]
    out["obs.unattributed_share"] = _ratio(out["obs.unattributed_s"], repeat.run_s)
    out["obs.spans"] = run_last - run_first
    return out


def simio(events) -> dict[str, float]:
    """Simulated I/O counts per program span (deterministic)."""
    totals = {span: [0, 0, 0, 0] for span in SIM_SPANS}
    for event in events:
        total = totals.get(event.name)
        if total is not None and event.io is not None:
            io = event.io
            total[0] += io["read_ops"]
            total[1] += io["write_ops"]
            total[2] += io["read_bytes"]
            total[3] += io["write_bytes"]
    out: dict[str, float] = {}
    for span, (read_ops, write_ops, read_bytes, write_bytes) in totals.items():
        out[f"simio.{span}.read_ops"] = read_ops
        out[f"simio.{span}.write_ops"] = write_ops
        out[f"simio.{span}.read_mib"] = read_bytes / MIB
        out[f"simio.{span}.write_mib"] = write_bytes / MIB
    return out


def _timings(repeat, index: int, traced: bool) -> dict:
    return {
        "set": index,
        "traced": traced,
        "setup_s": repeat.setup_s,
        "run_s": repeat.run_s,
        "check_s": repeat.check_s,
    }


def _simio_counts(layer: dict[str, float]) -> dict[str, float]:
    return {key: value for key, value in layer.items() if key.startswith("simio.")}


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "params": workload.params(),
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    # Repeats take the input sets in turn; a traced run uses the first
    # set only, so that its traced repeats are comparable.
    sets = 1 if args.trace else workload.input_sets
    seeds = [workload.stream_seed(args.seed, index) for index in range(sets)]
    untraced: list[list] = [[] for _ in seeds]
    traced = []
    layers: list[dict[str, float]] = []
    recorder = SpanRecorder() if args.trace else None
    # One unit is a repeat, or with tracing an untraced and a traced
    # repeat.  Units run until the next would overrun ``--seconds``; two
    # repeats of every set at least, so determinism is always checked.
    min_units = 1 if args.trace else 2 * sets
    done = 0
    started = time.perf_counter()
    while True:
        gc.collect()
        repeat = run_repeat(workload, seeds[done % sets])
        repeat.drop_reports()
        untraced[done % sets].append(repeat)
        if recorder is not None:
            gc.collect()
            tracer = TraceRecorder()
            with recorder:
                repeat = run_repeat(workload, seeds[0], tracer=tracer, recorder=recorder)
            first, last = repeat.trace_events
            layers.append(per_layer(repeat, recorder.spans, tracer.events[first:last]))
            repeat.drop_reports()
            traced.append(repeat)
            del tracer
        done += 1
        elapsed = time.perf_counter() - started
        if done >= min_units and elapsed * (done + 1) / done > args.seconds:
            break

    # Every repeat must reproduce the outputs of the first of its set.
    groups = [*untraced]
    if traced:
        groups[0] = groups[0] + traced
    repeats = [r for group in groups for r in group]
    mismatches = sum(1 for group in groups for r in group[1:] if r.outputs != group[0].outputs)
    mismatches += sum(
        1 for layer in layers[1:] if _simio_counts(layer) != _simio_counts(layers[0])
    )
    checks = len(repeats) - len(groups) + max(0, len(layers) - 1)
    attempted = sum(r.attempted for r in repeats) + checks
    failed = sum(sum(r.failed.values()) for r in repeats) + mismatches

    if args.trace:
        # The traced repeat with the median run time, whole: its self
        # times and remainder add up to its run time.
        _, middle = statistics.median_low(
            (layer["obs.run_s"], i) for i, layer in enumerate(layers)
        )
        values = dict(layers[middle])
        values["obs.untraced_run_s"] = statistics.median(r.run_s for r in untraced[0])
        values["obs.tracing_overhead_s"] = values["obs.run_s"] - values["obs.untraced_run_s"]
        values["obs.error_rate"] = _ratio(failed, attempted)
        samples = {key: len(layers) for key in values}
        recorder.write(out_dir / f"{workload.name}-seed{args.seed}-spans.jsonl")
    else:
        values, samples = end_to_end(untraced)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]
    }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    failures = sum((r.failed for r in repeats), Counter())
    detail = dict(
        result,
        stamp=stamp(workload, args),
        samples=samples,
        repeats=[
            _timings(r, index, traced=False)
            for index, group in enumerate(untraced)
            for r in group
        ]
        + [_timings(r, 0, traced=True) for r in traced],
        failures=dict(sorted(failures.items())),
        determinism_mismatches=mismatches,
    )
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']:<16s} n={samples[name]}")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=str(HERE / "out"),
        help="directory for the stamped result and spans (default: perfbench/out)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the workload to about a second (for the self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
