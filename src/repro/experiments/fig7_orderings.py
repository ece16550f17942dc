"""Figure 7 — effect of the dimension processing order on Hq pruning.

Processing dimensions in decreasing query value prunes much earlier than a
random order, which in turn beats the increasing order (the worst case).  The
flexibility to pick the order per query — without any access-cost penalty —
is an advantage of the decomposed layout over static index structures.
"""

from __future__ import annotations

from repro.bounds.histogram import HqBound
from repro.core.ordering import (
    DecreasingQueryOrdering,
    DimensionOrdering,
    IncreasingQueryOrdering,
    RandomOrdering,
)
from repro.core.schedules import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import corel_setup
from repro.metrics.histogram import HistogramIntersection


def run(scale: str | ExperimentScale = "small", *, k: int = 10, period: int = 8) -> ExperimentReport:
    """Regenerate the Figure 7 ordering comparison."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    metric = HistogramIntersection()
    schedule = FixedPeriodSchedule(period)

    orderings: dict[str, DimensionOrdering] = {
        "decreasing": DecreasingQueryOrdering(),
        "random": RandomOrdering(seed=3),
        "increasing": IncreasingQueryOrdering(),
    }
    collectors = {
        name: collect_pruning_curves(
            store, metric, HqBound(), workload, k=k, ordering=ordering, schedule=schedule
        )
        for name, ordering in orderings.items()
    }

    report = ExperimentReport(experiment_id="fig7", title="Effect of the dimension ordering (Hq)")
    reference = collectors["decreasing"]
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for name, collector in collectors.items():
            row[f"pruned_avg_{name}"] = float(collector.pruned_vectors()["average"][index])
        report.add_row(**row)

    halfway = len(grid) // 2
    ranking = sorted(
        collectors, key=lambda name: -float(collectors[name].pruned_vectors()["average"][halfway])
    )
    report.add_note(f"ordering by pruning at the halfway point: {' > '.join(ranking)} (paper: decreasing > random > increasing)")
    report.add_note(f"scale={scale.name}, |X|={store.cardinality}, k={k}, m={period}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
