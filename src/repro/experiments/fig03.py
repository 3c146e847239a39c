"""Fig. 3 — MFDedup's data-migration overhead (§3.1).

MFDedup reorganises chunks with a dedicated migration stage at every ingest;
the paper reports the migrated volume at 50–80 % of the processed dataset
size.  This experiment runs MFDedup over WEB and MIX and reports cumulative
migrated bytes as a fraction of cumulative ingested bytes.

Note the asymmetry with MIX: there MFDedup removes almost no duplicates, so
little data is shared with the neighbouring backup and the migration
fraction collapses together with the dedup ratio — the same degenerate
behaviour Fig. 2(b) shows.
"""

from __future__ import annotations

from repro.experiments.common import get_scale
from repro.backup.driver import RotationDriver
from repro.backup.approaches import make_service
from repro.metrics.table import Column, ResultTable, fmt_float
from repro.util.units import format_bytes
from repro.workloads.datasets import dataset as make_dataset

DATASETS = ("web", "mix")


def run(scale: str = "quick") -> str:
    spec = get_scale(scale)
    table = ResultTable(
        title=f"Fig. 3 — MFDedup migration overhead (scale={spec.name})",
        columns=[
            Column("dataset", align="<"),
            Column("processed", align=">"),
            Column("migrated", align=">"),
            Column("migrated fraction", format=fmt_float(2)),
            Column("dedup ratio", format=fmt_float(2)),
        ],
    )
    for dataset_name in DATASETS:
        config = spec.config()
        service = make_service("mfdedup", config)
        driver = RotationDriver(service, config.retention, dataset_name=dataset_name)
        driver.run(
            make_dataset(
                dataset_name,
                scale=spec.workload_scale,
                num_backups=spec.num_backups(dataset_name),
            )
        )
        stats = service.stats()
        table.add_row(
            dataset_name.upper(),
            format_bytes(stats.cumulative_logical_bytes),
            format_bytes(service.migrated_bytes),
            service.migration_fraction,
            stats.dedup_ratio,
        )
    return table.render()


def main() -> None:
    print(run("quick"))


if __name__ == "__main__":
    main()
