"""Property-based invariants of the rewriting policies.

Whatever a policy decides, it must never break correctness: every live
backup stays restorable with its exact chunk sequence, accounting balances,
and GC later reclaims pinned copies exactly when their backups rotate out.
"""

from hypothesis import given, settings, strategies as st

from repro.backup.system import DedupBackupService
from repro.backup.verify import verify_system
from repro.config import ChunkingConfig, RetentionConfig, SystemConfig
from repro.dedup.keys import logical_fp
from repro.dedup.rewriting import make_rewriting

from tests.conftest import refs


def make_service(policy_name: str) -> DedupBackupService:
    config = SystemConfig(
        container_size=4096,
        chunking=ChunkingConfig(min_size=128, avg_size=512, max_size=1024),
        retention=RetentionConfig(retained=8, turnover=2),
    )
    service = DedupBackupService(config=config)
    if policy_name != "none":
        service.pipeline.rewriting = make_rewriting(policy_name, store=service.store)
    return service


policy_names = st.sampled_from(["none", "capping", "har", "smr"])

backup_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=2, max_value=30),
        st.booleans(),  # run a delete+GC round after this ingest?
    ),
    min_size=1,
    max_size=8,
)


@given(backup_plans, policy_names)
@settings(max_examples=50, deadline=None)
def test_rewriting_preserves_restorability(plans, policy_name):
    service = make_service(policy_name)
    expected = {}
    for start, length, do_gc in plans:
        stream = refs("rwprop", range(start, start + length))
        result = service.ingest(stream)
        expected[result.backup_id] = [r.fp for r in stream]
        if do_gc and len(service.live_backup_ids()) > 1:
            service.delete_oldest(1)
            service.run_gc()
    for backup_id in service.live_backup_ids():
        recipe = service.recipes.get(backup_id)
        assert [logical_fp(e.fp) for e in recipe.entries] == expected[backup_id]
        service.restore(backup_id)  # must not raise
    report = verify_system(service)
    assert report.consistent, report.errors


@given(backup_plans, policy_names)
@settings(max_examples=40, deadline=None)
def test_ingest_accounting_balances(plans, policy_name):
    """stored + dedup == logical for every ingest; rewritten ⊆ stored."""
    service = make_service(policy_name)
    for start, length, _ in plans:
        result = service.ingest(refs("rwprop", range(start, start + length)))
        assert result.stored_bytes + result.dedup_bytes == result.logical_bytes
        assert 0 <= result.rewritten_bytes <= result.stored_bytes


@given(backup_plans, policy_names)
@settings(max_examples=40, deadline=None)
def test_rewriting_never_improves_dedup_ratio(plans, policy_name):
    """A rewriting policy can only store *more* than the null policy."""
    baseline = make_service("none")
    rewriting = make_service(policy_name)
    for start, length, _ in plans:
        baseline.ingest(refs("rwprop", range(start, start + length)))
        rewriting.ingest(refs("rwprop", range(start, start + length)))
    rewriting_stats, baseline_stats = rewriting.stats(), baseline.stats()
    assert (
        rewriting_stats.cumulative_stored_bytes
        >= baseline_stats.cumulative_stored_bytes
    )
    assert rewriting_stats.dedup_ratio <= baseline_stats.dedup_ratio + 1e-9
