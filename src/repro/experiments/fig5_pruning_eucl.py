"""Figure 5 — pruning efficiency of Eq and Ev (Euclidean distance).

On the same histogram collection, the query-only criterion Eq "prunes hardly
any image" because its corner upper bound is far too loose, while Ev (which
knows the remaining mass T(v+) of every vector) prunes well, although not as
fast as the histogram-intersection criteria.  Because the histograms are
L1-normalised the paper tightens Eq's corner bound with the T(v) = 1 fact;
the ``remaining_sum_cap=1.0`` option reproduces that refinement.
"""

from __future__ import annotations

from repro.bounds.euclidean import EqBound, EvBound
from repro.core.schedules import FixedPeriodSchedule
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves, report_grid_points
from repro.experiments.workloads import corel_setup
from repro.metrics.euclidean import SquaredEuclidean


def run(scale: str | ExperimentScale = "small", *, k: int = 10, period: int = 8) -> ExperimentReport:
    """Regenerate the Figure 5 pruning curves."""
    scale = resolve_scale(scale)
    _, store, _, workload = corel_setup(scale)
    metric = SquaredEuclidean()
    schedule = FixedPeriodSchedule(period)

    collectors = {
        "Eq": collect_pruning_curves(
            store, metric, EqBound(remaining_sum_cap=1.0), workload, k=k, schedule=schedule
        ),
        "Ev": collect_pruning_curves(store, metric, EvBound(), workload, k=k, schedule=schedule),
    }

    report = ExperimentReport(
        experiment_id="fig5",
        title="Pruning efficiency of Eq and Ev (squared Euclidean distance)",
    )
    reference = collectors["Ev"]
    grid = reference.grid()
    for index in report_grid_points(reference):
        row: dict[str, object] = {"dimensions": int(grid[index])}
        for name, collector in collectors.items():
            pruned = collector.pruned_vectors()
            row[f"{name}_pruned_avg"] = float(pruned["average"][index])
        report.add_row(**row)

    collection_size = store.cardinality
    halfway = len(grid) // 2
    eq_fraction = float(collectors["Eq"].pruned_vectors()["average"][halfway]) / collection_size
    ev_fraction = float(collectors["Ev"].pruned_vectors()["average"][halfway]) / collection_size
    report.add_note(
        f"halfway through the dimensions Eq has pruned {eq_fraction:.1%} and Ev {ev_fraction:.1%} "
        "(paper: Eq prunes hardly anything, Ev prunes well but slower than Hq/Hh)"
    )
    report.add_note(f"scale={scale.name}, |X|={collection_size}, k={k}, m={period}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
