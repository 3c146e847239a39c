"""No hot path materialises per-chunk ``ChunkRef``s from a recipe.

Ingest, GC mark (both engines), sweep, restore and ``pread`` read a
recipe's id/size columns directly; only cold paths (verification,
analysis) walk :attr:`ColumnarRecipe.entries`.  These tests make every
materialisation through :class:`~repro.index.columnar.RecipeEntriesView`
raise, then drive small rotations through the public service API.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.backup.approaches import make_service
from repro.backup.options import ServiceOptions
from repro.backup.verify import verify_service
from repro.gc.incremental import GCBudget
from repro.index.columnar import RecipeEntriesView

from tests.conftest import refs


def _forbidden(*args, **kwargs):
    raise AssertionError("a hot path materialised ChunkRefs from a recipe")


@pytest.fixture
def no_recipe_chunkrefs():
    with mock.patch.object(RecipeEntriesView, "__iter__", _forbidden), mock.patch.object(
        RecipeEntriesView, "__getitem__", _forbidden
    ):
        yield


def _read_everything(service) -> None:
    for backup_id in service.live_backup_ids():
        service.restore(backup_id)
        with service.open_backup(backup_id) as reader:
            reader.pread(0, 700)
            reader.pread(reader.size // 2, 3000)


def test_hybrid_incremental_rotation(tiny_config, no_recipe_chunkrefs):
    # Two sources with overlapping content: the second source's copies of
    # shared chunks miss its neighbor window and are deferred, so the GC
    # cycles run the rededup pass (recipe repointing) as well.
    service = make_service(
        "naive",
        tiny_config,
        ServiceOptions(
            dedup_mode="hybrid",
            gc_mode="incremental",
            gc_budget=GCBudget(mark_recipes=1, sweep_containers=1, rededup_keys=2),
        ),
    )
    for generation in range(8):
        source = f"s{generation % 2}"
        base = 20 * (generation % 2) + generation
        service.ingest(refs("nochunkref", range(base, base + 40)), source=source)
        if generation < 3:
            continue
        service.delete_oldest(1)
        service.gc.begin()
        while service.gc.active:
            service.gc.step()
            _read_everything(service)
    assert service.hybrid.coalesced > 0
    assert service.gc_history


def test_gccdf_stop_the_world_rotation(tiny_config, no_recipe_chunkrefs):
    service = make_service("gccdf", tiny_config)
    for generation in range(8):
        service.ingest(refs("nochunkref", range(generation, generation + 40)))
        if generation >= 3:
            service.delete_oldest(1)
            service.run_gc()
            _read_everything(service)
    assert any(report.reclaimed_containers for report in service.gc_history)


@pytest.mark.parametrize("approach", ["naive", "gccdf"])
def test_rotations_stay_consistent(tiny_config, approach):
    # The same rotations, unpatched, leave a verifier-clean service.
    service = make_service(approach, tiny_config)
    for generation in range(8):
        service.ingest(refs("nochunkref", range(generation, generation + 40)))
        if generation >= 3:
            service.delete_oldest(1)
            service.run_gc()
    assert verify_service(service).errors == []
