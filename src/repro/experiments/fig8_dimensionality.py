"""Figure 8 — robustness of Ev pruning to the dataset dimensionality.

The paper builds HSV histogram datasets of dimensionality 26, 52, 166 and 260
from the same image collection and plots pruned images against the
*percentage* of processed dimensions.  Effectiveness decreases mildly with
dimensionality — the k-NN problem itself becomes less meaningful — but does
not collapse.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.euclidean import EvBound
from repro.core.schedules import FixedPeriodSchedule, recommend_period
from repro.datasets.corel import PAPER_DIMENSIONALITIES
from repro.experiments.base import ExperimentReport, ExperimentScale, resolve_scale
from repro.experiments.pruning_runner import collect_pruning_curves
from repro.experiments.workloads import corel_collection
from repro.metrics.euclidean import SquaredEuclidean
from repro.storage.decomposed import DecomposedStore
from repro.workload.queries import sample_queries


def run(
    scale: str | ExperimentScale = "small",
    *,
    dimensionalities: tuple[int, ...] = PAPER_DIMENSIONALITIES,
    k: int = 10,
) -> ExperimentReport:
    """Regenerate the Figure 8 dimensionality sweep."""
    scale = resolve_scale(scale)
    metric = SquaredEuclidean()

    fractions = np.linspace(0.0, 1.0, 11)
    per_dimensionality: dict[int, np.ndarray] = {}
    sizes: dict[int, int] = {}
    for dimensionality in dimensionalities:
        collection = corel_collection(scale, dimensionality=dimensionality, seed=42 + dimensionality)
        store = DecomposedStore(collection)
        workload = sample_queries(collection, scale.num_queries, seed=7)
        period = recommend_period(dimensionality, target_attempts=20)
        collector = collect_pruning_curves(
            store,
            metric,
            EvBound(),
            workload,
            k=k,
            schedule=FixedPeriodSchedule(period),
            grid_step=max(1, dimensionality // 20),
        )
        grid = collector.grid()
        pruned_average = collector.pruned_vectors()["average"]
        # Resample onto the common percentage axis.
        resampled = np.interp(fractions * dimensionality, grid, pruned_average)
        per_dimensionality[dimensionality] = resampled / store.cardinality
        sizes[dimensionality] = store.cardinality

    report = ExperimentReport(
        experiment_id="fig8", title="Impact of dimensionality on Ev pruning (fraction pruned)"
    )
    for index, fraction in enumerate(fractions):
        row: dict[str, object] = {"dimensions_processed_pct": float(100 * fraction)}
        for dimensionality in dimensionalities:
            row[f"pruned_fraction_d={dimensionality}"] = float(per_dimensionality[dimensionality][index])
        report.add_row(**row)
    report.add_note(
        "paper: effectiveness decreases with dimensionality, though not dramatically"
    )
    report.add_note(f"scale={scale.name}, |X|={sizes[dimensionalities[0]]}, k={k}")
    return report


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().format_table())
