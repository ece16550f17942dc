"""Figure 4 — pruning efficiency of Hq and Hh (histogram intersection).

The paper runs 100 queries sampled from the Corel collection with k = 10 and
m = 8, dimensions in decreasing query order, and plots the best / average /
worst number of pruned images against the number of processed dimensions.
The headline observations to reproduce: more than ~98 % of the images are
discarded after roughly a fifth of the dimensions, and Hq's average pruning is
close to Hh's even though Hh maintains extra bookkeeping.
"""

from __future__ import annotations

from repro.bounds.histogram import HhBound, HqBound
from repro.core.schedules import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import corel_setup
from repro.metrics.histogram import HistogramIntersection


def run(scale: str | ExperimentScale = "small", *, k: int = 10, period: int = 8) -> ExperimentReport:
    """Regenerate the Figure 4 pruning curves."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    metric = HistogramIntersection()
    schedule = FixedPeriodSchedule(period)

    collectors = {
        "Hq": collect_pruning_curves(store, metric, HqBound(), workload, k=k, schedule=schedule),
        "Hh": collect_pruning_curves(store, metric, HhBound(), workload, k=k, schedule=schedule),
    }

    report = ExperimentReport(
        experiment_id="fig4",
        title="Pruning efficiency of Hq and Hh (histogram intersection)",
    )
    reference = collectors["Hq"]
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for name, collector in collectors.items():
            pruned = collector.pruned_vectors()
            row[f"{name}_pruned_best"] = float(pruned["best"][index])
            row[f"{name}_pruned_avg"] = float(pruned["average"][index])
            row[f"{name}_pruned_worst"] = float(pruned["worst"][index])
        report.add_row(**row)

    collection_size = store.cardinality
    for name, collector in collectors.items():
        pruned = collector.pruned_vectors()
        fifth = int(round(store.dimensionality / 5 / collector.grid_step))
        fraction = float(pruned["average"][fifth]) / collection_size
        report.add_note(
            f"{name}: {fraction:.1%} of the collection pruned after ~1/5 of the dimensions "
            f"(paper reports > 98%)"
        )
    report.add_note(f"scale={scale.name}, |X|={collection_size}, k={k}, m={period}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
