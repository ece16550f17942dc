"""Figure 11 — effect of weight skew on weighted-Euclidean pruning.

The worst case for Ev is the theta = 0 clustered dataset (uniform cluster
centres).  Weighted queries put skew back: Figure 11 sweeps increasingly
skewed weight vectors over that dataset and finds that pruning only improves
substantially once roughly 10 % of the dimensions carry more than 90 % of the
total weight — which the paper argues is common in practice (relevance
feedback, user-specified importance).
"""

from __future__ import annotations

from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.schedules import FixedPeriodSchedule
from repro.datasets.weights import weight_skew_sweep
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import clustered_setup
from repro.metrics.weighted import WeightedSquaredEuclidean


def run(scale: str | ExperimentScale = "small", *, k: int = 10, period: int = 8) -> ExperimentReport:
    """Regenerate the Figure 11 weight-skew sweep (on the theta = 0 dataset)."""
    scale = resolve_scale(scale)
    _, store, _, workload = clustered_setup(scale, skew=0.0)
    schedule = FixedPeriodSchedule(period)

    configurations = weight_skew_sweep(store.dimensionality)
    collectors = {}
    for label, weights in configurations.items():
        metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=True)
        collectors[label] = collect_pruning_curves(
            store, metric, WeightedEuclideanBound(), workload, k=k, schedule=schedule
        )

    report = ExperimentReport(
        experiment_id="fig11", title="Effect of weight skew on weighted-Euclidean pruning"
    )
    reference = next(iter(collectors.values()))
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for label, collector in collectors.items():
            row[f"pruned_avg[{label}]"] = float(collector.pruned_vectors()["average"][index])
        report.add_row(**row)

    halfway = len(grid) // 2
    at_halfway = {
        label: float(collector.pruned_vectors()["average"][halfway])
        for label, collector in collectors.items()
    }
    most_skewed = max(at_halfway, key=at_halfway.get)
    report.add_note(
        f"earliest pruning (at the halfway point) with the most skewed weights ({most_skewed}); "
        "paper: efficiency improves only when ~10% of the dimensions get >90% of the weight"
    )
    report.add_note(f"scale={scale.name}, |X|={store.cardinality}, k={k}, m={period}, theta=0")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
