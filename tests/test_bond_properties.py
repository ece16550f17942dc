"""Property-based tests: BOND always returns exactly the brute-force top-k.

Whatever the data distribution, query, metric, k, pruning period or candidate
representation, BOND must return the same score multiset as a brute-force
scan — pruning is only allowed to remove vectors that provably cannot be in
the top k.  Hypothesis drives randomised collections and search parameters
through every metric/bound pairing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.euclidean import EqBound, EvBound
from repro.bounds.histogram import HhBound, HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.core.bond import BondSearcher
from repro.core.schedules import FixedPeriodSchedule
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 120),
    columns=st.integers(4, 24),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 25),
    period=st.integers(1, 12),
)
@pytest.mark.parametrize("bound_class", [HqBound, HhBound])
def test_bond_equals_brute_force_histogram(bound_class, rows, columns, seed, k, period):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) ** 3 + 1e-9  # cubing adds per-row skew
    data = data / data.sum(axis=1, keepdims=True)
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(
        store, metric=HistogramIntersection(), bound=bound_class(), schedule=FixedPeriodSchedule(period)
    )
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, HistogramIntersection())
    assert result_scores_match(result, reference)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 120),
    columns=st.integers(4, 24),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 25),
    period=st.integers(1, 12),
)
@pytest.mark.parametrize("bound_factory", [EqBound, EvBound])
def test_bond_equals_brute_force_euclidean(bound_factory, rows, columns, seed, k, period):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(
        store, metric=SquaredEuclidean(), bound=bound_factory(), schedule=FixedPeriodSchedule(period)
    )
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, SquaredEuclidean())
    assert result_scores_match(result, reference)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(20, 100),
    columns=st.integers(4, 20),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 15),
    zero_fraction=st.floats(0.0, 0.6),
)
def test_weighted_bond_equals_brute_force(rows, columns, seed, k, zero_fraction):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    weights = rng.uniform(0.1, 5.0, size=columns)
    zeroed = rng.random(columns) < zero_fraction
    if zeroed.all():
        zeroed[0] = False
    weights[zeroed] = 0.0
    metric = WeightedSquaredEuclidean(weights)
    query = data[seed % rows]
    store = DecomposedStore(data)
    searcher = BondSearcher(store, metric=metric, bound=WeightedEuclideanBound())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, metric)
    assert result_scores_match(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(30, 100),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 10),
    bits=st.integers(3, 10),
)
def test_compressed_bond_equals_brute_force(rows, columns, seed, k, bits):
    """Filter-and-refine over quantised fragments never loses a true neighbour."""
    from repro.core.compressed import CompressedBondSearcher
    from repro.storage.compressed import CompressedStore

    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns)) + 1e-9
    data = data / data.sum(axis=1, keepdims=True)
    query = data[seed % rows]
    compressed = CompressedStore(DecomposedStore(data), bits=bits)
    searcher = CompressedBondSearcher(compressed, metric=HistogramIntersection())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, HistogramIntersection())
    assert result_scores_match(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(30, 100),
    columns=st.integers(4, 16),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 10),
)
def test_vafile_equals_brute_force(rows, columns, seed, k):
    """The VA-file filter step never loses a true neighbour either."""
    from repro.baselines.vafile import VAFile
    from repro.storage.compressed import CompressedStore

    rng = np.random.default_rng(seed)
    data = rng.random((rows, columns))
    query = data[seed % rows]
    compressed = CompressedStore(DecomposedStore(data), bits=8)
    searcher = VAFile(compressed, metric=SquaredEuclidean())
    result = searcher.search(query, k)
    reference = exact_top_k(data, query, k, SquaredEuclidean())
    assert result_scores_match(result, reference)
