"""Figure 6 — effect of k on the pruning of Hq.

The paper sweeps k over 1, 10, 100 and 1000 and shows that BOND still prunes
the space early even for large k; the gap between k = 1 and k = 10 is large
because queries are collection members, so for k = 1 the perfect match makes
kappa very tight.  No image can be pruned before T(q-) exceeds 0.5 (around
the 15th dimension on the real data), which the Hq ``pruning_worthwhile``
rule reproduces.
"""

from __future__ import annotations

from repro.bounds.histogram import HqBound
from repro.core.schedules import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import corel_setup
from repro.metrics.histogram import HistogramIntersection


def run(
    scale: str | ExperimentScale = "small",
    *,
    k_values: tuple[int, ...] = (1, 10, 100, 1000),
    period: int = 8,
) -> ExperimentReport:
    """Regenerate the Figure 6 sweep over k."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    metric = HistogramIntersection()
    schedule = FixedPeriodSchedule(period)

    collectors = {
        k: collect_pruning_curves(store, metric, HqBound(), workload, k=k, schedule=schedule)
        for k in k_values
        if k <= store.cardinality
    }

    report = ExperimentReport(experiment_id="fig6", title="Effect of k on Hq pruning")
    reference = next(iter(collectors.values()))
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for k, collector in collectors.items():
            row[f"pruned_avg_k={k}"] = float(collector.pruned_vectors()["average"][index])
        report.add_row(**row)
    report.add_note(
        "paper: even k=1000 prunes early; k=1 is near-perfect because queries are collection members"
    )
    report.add_note(f"scale={scale.name}, |X|={store.cardinality}, m={period}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
