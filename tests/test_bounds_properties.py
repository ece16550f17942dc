"""Property-based tests (hypothesis): soundness of every pruning bound.

The safety of BOND rests on one invariant: for every vector, the lower bound
on its complete score never exceeds the true score and the upper bound is
never below it, whatever prefix of dimensions has been processed.  These
tests generate random collections, random queries and random prefix lengths
and check that invariant for all five bounds, plus the monotonicity of the
Lemma 1/2 helpers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bounds.base import PartialState
from repro.bounds.euclidean import EqBound, EvBound, lemma1_upper_bound, lemma2_lower_bound
from repro.bounds.histogram import HhBound, HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean

TOLERANCE = 1e-7


def _unit_matrix(rows: int, columns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((rows, columns))


def _histogram_matrix(rows: int, columns: int, seed: int) -> np.ndarray:
    matrix = _unit_matrix(rows, columns, seed) + 1e-9
    return matrix / matrix.sum(axis=1, keepdims=True)


def _state(data, query, metric, num_processed, *, weights=None):
    keys = query if weights is None else weights * query * query
    order = np.argsort(-keys, kind="stable").astype(np.int64)
    partial = np.zeros(data.shape[0])
    for dimension in order[:num_processed]:
        partial += metric.contributions(data[:, dimension], query[dimension], dimension=int(dimension))
    return PartialState(
        query=query,
        order=order,
        num_processed=num_processed,
        partial_scores=partial,
        partial_value_sums=data[:, order[:num_processed]].sum(axis=1),
        remaining_value_sums=data[:, order[num_processed:]].sum(axis=1),
        weights=weights,
    )


collection_shapes = st.tuples(st.integers(5, 40), st.integers(3, 16))


@settings(max_examples=40, deadline=None)
@given(shape=collection_shapes, seed=st.integers(0, 10_000), prefix=st.floats(0.0, 1.0))
@pytest.mark.parametrize("bound_class", [HqBound, HhBound])
def test_histogram_bounds_are_sound(bound_class, shape, seed, prefix):
    """Lower/upper bounds bracket the true histogram intersection for any prefix."""
    rows, columns = shape
    data = _histogram_matrix(rows, columns, seed)
    query = data[seed % rows]
    metric = HistogramIntersection()
    num_processed = int(round(prefix * columns))
    state = _state(data, query, metric, num_processed)
    lower, upper = bound_class().total_bounds(state)
    actual = metric.score(data, query)
    assert np.all(lower <= actual + TOLERANCE)
    assert np.all(upper >= actual - TOLERANCE)


@settings(max_examples=40, deadline=None)
@given(shape=collection_shapes, seed=st.integers(0, 10_000), prefix=st.floats(0.0, 1.0))
@pytest.mark.parametrize(
    "bound_factory",
    [EqBound, lambda: EqBound(remaining_sum_cap=1.0), EvBound],
    ids=["Eq", "Eq-capped", "Ev"],
)
def test_euclidean_bounds_are_sound(bound_factory, shape, seed, prefix):
    """Lower/upper bounds bracket the true squared distance for any prefix.

    The capped Eq variant is only sound when every vector's remaining mass is
    at most the cap, so it is exercised on histogram (L1-normalised) data.
    """
    rows, columns = shape
    bound = bound_factory()
    if isinstance(bound, EqBound) and bound._remaining_sum_cap is not None:
        data = _histogram_matrix(rows, columns, seed)
    else:
        data = _unit_matrix(rows, columns, seed)
    query = data[seed % rows]
    metric = SquaredEuclidean(require_unit_box=False)
    num_processed = int(round(prefix * columns))
    state = _state(data, query, metric, num_processed)
    lower, upper = bound.total_bounds(state)
    actual = metric.score(data, query)
    assert np.all(lower <= actual + TOLERANCE)
    assert np.all(upper >= actual - TOLERANCE)


@settings(max_examples=40, deadline=None)
@given(
    shape=collection_shapes,
    seed=st.integers(0, 10_000),
    prefix=st.floats(0.0, 1.0),
    zero_some_weights=st.booleans(),
)
def test_weighted_bound_is_sound(shape, seed, prefix, zero_some_weights):
    """The weighted bound brackets the true weighted distance for any prefix."""
    rows, columns = shape
    data = _unit_matrix(rows, columns, seed)
    rng = np.random.default_rng(seed + 1)
    weights = rng.uniform(0.05, 4.0, size=columns)
    if zero_some_weights and columns > 2:
        weights[rng.choice(columns, size=columns // 3, replace=False)] = 0.0
        if not np.any(weights > 0):
            weights[0] = 1.0
    metric = WeightedSquaredEuclidean(weights)
    query = data[seed % rows]
    num_processed = int(round(prefix * columns))
    state = _state(data, query, metric, num_processed, weights=weights)
    lower, upper = WeightedEuclideanBound().total_bounds(state)
    actual = metric.score(data, query)
    assert np.all(lower <= actual + TOLERANCE)
    assert np.all(upper >= actual - TOLERANCE)


@settings(max_examples=60, deadline=None)
@given(
    query=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 1.0)),
    total=st.floats(0.0, 12.0),
)
def test_lemma1_dominates_lemma2(query, total):
    """For any feasible remaining mass, the Lemma 1 maximum >= the Lemma 2 minimum."""
    total = min(total, float(query.shape[0]))
    upper = lemma1_upper_bound(query, np.array([total]))[0]
    lower = lemma2_lower_bound(query, np.array([total]))[0]
    assert upper >= lower - TOLERANCE


@settings(max_examples=60, deadline=None)
@given(
    query=arrays(np.float64, st.integers(1, 8), elements=st.floats(0.0, 1.0)),
    total=st.floats(0.0, 8.0),
    seed=st.integers(0, 1_000),
)
def test_lemma_bounds_bracket_random_feasible_vectors(query, total, seed):
    """Any unit-box vector with the given coordinate sum scores within the lemma bounds."""
    dimensions = query.shape[0]
    total = min(total, float(dimensions))
    rng = np.random.default_rng(seed)
    # Build a random feasible vector with the prescribed sum by iterative clipping.
    vector = rng.random(dimensions)
    current = vector.sum()
    if current > 0:
        vector = np.clip(vector * (total / current), 0.0, 1.0)
    for _ in range(50):
        deficit = total - vector.sum()
        if abs(deficit) < 1e-12:
            break
        room = (1.0 - vector) if deficit > 0 else vector
        if room.sum() <= 0:
            break
        vector = np.clip(vector + deficit * room / room.sum(), 0.0, 1.0)
    if abs(vector.sum() - total) > 1e-6:
        return  # could not realise the sum exactly; skip this example
    distance = float(np.sum((vector - query) ** 2))
    upper = lemma1_upper_bound(query, np.array([vector.sum()]))[0]
    lower = lemma2_lower_bound(query, np.array([vector.sum()]))[0]
    assert lower - TOLERANCE <= distance <= upper + TOLERANCE


def _lemma1_with_masks(remaining_query: np.ndarray, remaining_sums: np.ndarray) -> np.ndarray:
    """The boolean-mask form of Lemma 1: the reference the gather form must match bitwise."""
    num_remaining = remaining_query.shape[0]
    query_sorted = np.sort(remaining_query)[::-1]
    prefix_q2 = np.concatenate([[0.0], np.cumsum(query_sorted * query_sorted)])
    suffix_1m = np.concatenate([np.cumsum(((1.0 - query_sorted) ** 2)[::-1])[::-1], [0.0]])
    clipped = np.clip(remaining_sums, 0.0, float(num_remaining))
    filled = np.floor(clipped).astype(np.int64)
    fractional = clipped - filled
    fractional_position = num_remaining - filled
    bounds = np.empty_like(clipped)
    all_filled = fractional_position == 0
    bounds[all_filled] = suffix_1m[0]
    partial = ~all_filled
    if np.any(partial):
        positions = fractional_position[partial]
        bounds[partial] = (
            prefix_q2[positions - 1]
            + (fractional[partial] - query_sorted[positions - 1]) ** 2
            + suffix_1m[positions]
        )
    return bounds


@settings(max_examples=80, deadline=None)
@given(
    query=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 1.0)),
    sums=arrays(
        np.float64,
        st.integers(1, 30),
        elements=st.one_of(
            st.floats(0.0, 14.0),
            st.integers(0, 14).map(float),  # integer T, T = 0 and T >= R
        ),
    ),
)
def test_lemma1_gather_form_is_bitwise_the_mask_form(query, sums):
    """Every candidate (T = 0, integer T, T >= R, R = 1) gets the same float."""
    expected = _lemma1_with_masks(query, sums)
    assert np.array_equal(lemma1_upper_bound(query, sums), expected)


def test_lemma1_gather_form_corner_cases():
    query = np.array([0.7])  # R = 1
    sums = np.array([0.0, 0.25, 1.0, 3.0])
    assert np.array_equal(lemma1_upper_bound(query, sums), _lemma1_with_masks(query, sums))
