"""Subspace k-NN search (Section 8.1).

A query that only cares about an arbitrary subset of the dimensions — say a
handful of colour bins chosen by the user or by relevance feedback — is a
special case of weighted search where the selected dimensions share a common
positive weight and every other dimension has weight zero.  The decomposed
layout pays off twice here: the irrelevant fragments are simply never read,
and no index has to be rebuilt for the chosen subspace (tree structures index
all dimensions at once and cannot adapt).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bond import BondSearcher
from repro.core.ordering import DimensionOrdering
from repro.core.schedules import PruningSchedule
from repro.core.result import SearchResult
from repro.bounds.weighted import WeightedEuclideanBound
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


def subspace_search(
    store: DecomposedStore,
    query: np.ndarray,
    dimensions: Sequence[int] | np.ndarray,
    k: int,
    *,
    ordering: DimensionOrdering | None = None,
    schedule: PruningSchedule | None = None,
) -> SearchResult:
    """Run a k-NN query restricted to the given dimensional subspace.

    The distance is the (unweighted) squared Euclidean distance computed over
    the selected dimensions only; fragments of unselected dimensions are never
    accessed.
    """
    metric = WeightedSquaredEuclidean.for_subspace(store.dimensionality, np.asarray(dimensions))
    searcher = BondSearcher(
        store,
        metric=metric,
        bound=WeightedEuclideanBound(),
        ordering=ordering,
        schedule=schedule,
    )
    return searcher.search(query, k)
