"""Shared runner that collects pruning curves over a query workload."""

from __future__ import annotations

from repro.bounds.base import PruningBound
from repro.core.bond import BondSearcher
from repro.core.ordering import DimensionOrdering
from repro.core.schedules import PruningSchedule
from repro.instrumentation.pruning import PruningCurveCollector
from repro.metrics.base import Metric
from repro.storage.decomposed import DecomposedStore
from repro.workload.queries import QueryWorkload


def collect_pruning_curves(
    store: DecomposedStore,
    metric: Metric,
    bound: PruningBound,
    workload: QueryWorkload,
    *,
    k: int = 10,
    ordering: DimensionOrdering | None = None,
    schedule: PruningSchedule | None = None,
    grid_step: int = 8,
) -> PruningCurveCollector:
    """Run BOND for every query in the workload and aggregate the pruning traces."""
    searcher = BondSearcher(store, metric=metric, bound=bound, ordering=ordering, schedule=schedule)
    collector = PruningCurveCollector(
        dimensionality=store.dimensionality,
        collection_size=store.cardinality,
        grid_step=grid_step,
    )
    for query in workload:
        result = searcher.search(query, k)
        collector.add(result.candidate_trace)
    return collector


def report_grid_points(collector: PruningCurveCollector, *, max_points: int = 12) -> list[int]:
    """A readable subset of grid indices for tabular reports."""
    grid = collector.grid()
    if grid.shape[0] <= max_points:
        return list(range(grid.shape[0]))
    stride = max(1, grid.shape[0] // max_points)
    indices = list(range(0, grid.shape[0], stride))
    if indices[-1] != grid.shape[0] - 1:
        indices.append(grid.shape[0] - 1)
    return indices
