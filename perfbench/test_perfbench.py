"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
Every run writes only into a temporary output directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT, seed: int = 1):
    command = [sys.executable, str(cwd / "perfbench" / "run.py")]
    return subprocess.run(
        command
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
            "--out", str(out),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree(path: Path) -> set[str]:
    return {
        str(p.relative_to(path))
        for p in path.rglob("*")
        if "__pycache__" not in p.parts
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    before = _tree(HERE)
    result = _result(_run(workload, trace, tmp_path))
    assert _tree(HERE) == before
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(
        (tmp_path / f"{workload}-seed1-trace{trace}.json").read_text()
    )["stamp"]
    assert {"python", "nproc", "platform", "git_revision", "seed", "params"} <= set(stamp)
    if trace:
        assert (tmp_path / f"{workload}-seed1-spans.jsonl").stat().st_size > 0
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_times = sum(
            value
            for name, value in metrics.items()
            if name.endswith(".self_s") and not name.startswith("workloads.")
        )
        accounted = self_times + metrics["obs.unattributed_s"]
        assert abs(accounted - metrics["obs.run_s"]) < 1e-6 * metrics["obs.run_s"] + 1e-9


def test_core_layers_run_only_on_gccdf(tmp_path):
    for workload in WORKLOADS:
        metrics = _result(_run(workload, 1, tmp_path))["metrics"]
        gccdf = workload.startswith("gccdf-")
        assert (metrics["core.analyze.busy_s"]["value"] > 0) == gccdf, workload
        assert (metrics["core.clusters"]["value"] > 0) == gccdf, workload
        if gccdf:
            assert metrics["hashing.bloom.keys"]["value"] > 0


def test_same_seed_same_outputs(tmp_path):
    deterministic = ("dedup_ratio", "read_amp", "sim_restore_mib_s", "sim_gc_s")
    first, second = (
        _result(_run(WORKLOADS[0], 0, tmp_path / str(i)))["metrics"] for i in range(2)
    )
    for name in deterministic:
        assert first[name] == second[name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
