"""Figure 10 — effect of data skew on Ev pruning (clustered synthetic data).

The synthetic collections of Section 7.5 place cluster centres with
Zipf-skewed coordinates controlled by a parameter theta.  BOND's pruning
depends on that skew: with uniform centres (theta = 0) the partial scores do
not separate the candidates and pruning is poor, while larger theta lets the
decreasing-q ordering hit the discriminative dimensions early.
"""

from __future__ import annotations

from repro.bounds.euclidean import EvBound
from repro.core.schedules import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import clustered_setup
from repro.metrics.euclidean import SquaredEuclidean


def run(
    scale: str | ExperimentScale = "small",
    *,
    skews: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
    k: int = 10,
    period: int = 8,
) -> ExperimentReport:
    """Regenerate the Figure 10 skew sweep."""
    scale = resolve_scale(scale)
    metric = SquaredEuclidean()
    schedule = FixedPeriodSchedule(period)

    collectors = {}
    collection_size = 0
    for skew in skews:
        _, store, _, workload = clustered_setup(scale, skew=skew, seed=11 + int(10 * skew))
        collection_size = store.cardinality
        collectors[skew] = collect_pruning_curves(
            store, metric, EvBound(), workload, k=k, schedule=schedule
        )

    report = ExperimentReport(
        experiment_id="fig10", title="Effect of data skew (theta) on Ev pruning"
    )
    reference = collectors[skews[0]]
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for skew in skews:
            row[f"pruned_avg_theta={skew}"] = float(collectors[skew].pruned_vectors()["average"][index])
        report.add_row(**row)

    halfway = len(grid) // 2
    ordered = sorted(skews, key=lambda skew: float(collectors[skew].pruned_vectors()["average"][halfway]))
    report.add_note(
        f"pruning at the halfway point increases with skew: {' < '.join(f'theta={skew}' for skew in ordered)} "
        "(paper: data skew favours pruning; uniform centres prune poorly)"
    )
    report.add_note(f"scale={scale.name}, |X|={collection_size}, k={k}, m={period}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
