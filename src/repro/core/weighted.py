"""Weighted k-NN search (Section 8.1, Appendix A).

Weighted search is ordinary BOND with the weighted squared Euclidean metric
and the weighted pruning bound; this module provides the small convenience
wrapper that builds that searcher from a weight vector.  A non-uniform weight
distribution introduces skew into the transformed space, which is exactly the
situation where BOND prunes well — Figure 11 quantifies how much skew is
needed before the effect is substantial.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.bond import BondSearcher
from repro.core.ordering import DimensionOrdering
from repro.core.schedules import PruningSchedule
from repro.core.result import SearchResult
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


def weighted_search(
    store: DecomposedStore,
    query: np.ndarray,
    weights: np.ndarray,
    k: int,
    *,
    ordering: DimensionOrdering | None = None,
    schedule: PruningSchedule | None = None,
    normalize_weights: bool = True,
) -> SearchResult:
    """Run one weighted k-NN query over a decomposed store.

    Parameters
    ----------
    store:
        The decomposed collection.
    query:
        The query vector.
    weights:
        Non-negative per-dimension weights; zero weights exclude a dimension
        entirely (its fragment is never read).
    k:
        Number of neighbours to return.
    normalize_weights:
        Rescale the weights to sum to the dimensionality (the convention of
        Definition 3 that keeps the similarity normalisation meaningful).
    """
    metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=normalize_weights)
    searcher = BondSearcher(
        store,
        metric=metric,
        bound=WeightedEuclideanBound(),
        ordering=ordering,
        schedule=schedule,
    )
    return searcher.search(query, k)


def make_weighted_searcher(
    store: DecomposedStore,
    weights: np.ndarray,
    *,
    ordering: DimensionOrdering | None = None,
    schedule: PruningSchedule | None = None,
    normalize_weights: bool = True,
) -> BondSearcher:
    """Build a reusable weighted searcher (for running many queries with the same weights)."""
    metric = WeightedSquaredEuclidean(weights, normalize_to_dimensionality=normalize_weights)
    return BondSearcher(
        store,
        metric=metric,
        bound=WeightedEuclideanBound(),
        ordering=ordering,
        schedule=schedule,
    )
