"""Unit and integration tests for the BOND searcher (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds.euclidean import EqBound, EvBound
from repro.bounds.histogram import HhBound, HqBound
from repro.core.bond import BondSearcher, default_bound_for
from repro.core.ordering import IncreasingQueryOrdering, RandomOrdering
from repro.core.planner import FixedPeriodSchedule, GeometricSchedule
from repro.core.sequential import SequentialScan
from repro.errors import QueryError
from repro.metrics.euclidean import EuclideanSimilarity, SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore
from repro.storage.rowstore import RowStore
from repro.workload.ground_truth import exact_top_k, result_scores_match


class TestDefaults:
    def test_default_metric_is_histogram_intersection(self, corel_store):
        searcher = BondSearcher(corel_store)
        assert isinstance(searcher.metric, HistogramIntersection)
        assert isinstance(searcher.bound, HqBound)

    def test_default_bound_for_each_metric(self):
        from repro.bounds.weighted import WeightedEuclideanBound

        assert isinstance(default_bound_for(HistogramIntersection()), HqBound)
        assert isinstance(default_bound_for(SquaredEuclidean()), EvBound)
        assert isinstance(
            default_bound_for(WeightedSquaredEuclidean(np.ones(3))), WeightedEuclideanBound
        )

    def test_default_bound_unknown_metric_rejected(self):
        with pytest.raises(QueryError):
            default_bound_for(EuclideanSimilarity())


class TestValidation:
    def test_k_must_be_positive(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        with pytest.raises(QueryError):
            searcher.search(corel_histograms[0], 0)

    def test_query_dimensionality_checked(self, corel_store):
        searcher = BondSearcher(corel_store)
        bad_query = np.full(corel_store.dimensionality + 1, 1.0 / (corel_store.dimensionality + 1))
        with pytest.raises(QueryError):
            searcher.search(bad_query, 5)

    def test_k_clamped_to_collection(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        result = searcher.search(corel_histograms[0], corel_store.cardinality + 50)
        assert result.k == corel_store.cardinality


class TestCorrectness:
    @pytest.mark.parametrize("bound_class", [HqBound, HhBound])
    def test_matches_sequential_scan_histogram(self, corel_histograms, bound_class):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection(), bound=bound_class())
        scan = SequentialScan(RowStore(corel_histograms), metric=HistogramIntersection())
        for query_index in (0, 17, 333):
            bond_result = searcher.search(corel_histograms[query_index], 10)
            scan_result = scan.search(corel_histograms[query_index], 10)
            assert result_scores_match(bond_result, scan_result)

    @pytest.mark.parametrize("bound_factory", [EqBound, EvBound])
    def test_matches_sequential_scan_euclidean(self, clustered_vectors, bound_factory):
        store = DecomposedStore(clustered_vectors)
        searcher = BondSearcher(store, metric=SquaredEuclidean(), bound=bound_factory())
        scan = SequentialScan(RowStore(clustered_vectors), metric=SquaredEuclidean())
        for query_index in (3, 42, 999):
            bond_result = searcher.search(clustered_vectors[query_index], 10)
            scan_result = scan.search(clustered_vectors[query_index], 10)
            assert result_scores_match(bond_result, scan_result)

    def test_member_query_is_its_own_nearest_neighbour(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store)
        result = searcher.search(corel_histograms[123], 1)
        assert result.oids[0] == 123
        assert result.scores[0] == pytest.approx(1.0)

    def test_non_member_query(self, corel_store, corel_histograms):
        rng = np.random.default_rng(0)
        query = rng.random(corel_store.dimensionality)
        query = query / query.sum()
        result = searcher_result = BondSearcher(corel_store).search(query, 5)
        reference = exact_top_k(corel_histograms, query, 5, HistogramIntersection())
        assert result_scores_match(searcher_result, reference)

    def test_correct_for_every_ordering(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        reference = exact_top_k(corel_histograms, corel_histograms[9], 10, HistogramIntersection())
        for ordering in (RandomOrdering(seed=1), IncreasingQueryOrdering()):
            searcher = BondSearcher(store, metric=HistogramIntersection(), bound=HqBound(), ordering=ordering)
            assert result_scores_match(searcher.search(corel_histograms[9], 10), reference)

    def test_correct_for_adaptive_schedule(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(
            store, metric=HistogramIntersection(), bound=HqBound(), schedule=GeometricSchedule(initial_period=4)
        )
        reference = exact_top_k(corel_histograms, corel_histograms[2], 10, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[2], 10), reference)

    @pytest.mark.parametrize("candidate_mode", ["auto", "bitmap", "positional"])
    def test_correct_for_every_candidate_mode(self, corel_histograms, candidate_mode):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(
            store, metric=HistogramIntersection(), bound=HqBound(), candidate_mode=candidate_mode
        )
        reference = exact_top_k(corel_histograms, corel_histograms[77], 10, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[77], 10), reference)

    @pytest.mark.parametrize("k", [1, 3, 25, 100])
    def test_correct_for_various_k(self, corel_histograms, k):
        store = DecomposedStore(corel_histograms)
        searcher = BondSearcher(store, metric=HistogramIntersection(), bound=HqBound())
        reference = exact_top_k(corel_histograms, corel_histograms[31], k, HistogramIntersection())
        assert result_scores_match(searcher.search(corel_histograms[31], k), reference)

    def test_correct_on_uniform_data(self, uniform_vectors):
        """Uniform data is the hard case: little pruning, but results must stay exact."""
        store = DecomposedStore(uniform_vectors)
        searcher = BondSearcher(store, metric=SquaredEuclidean(), bound=EvBound())
        reference = exact_top_k(uniform_vectors, uniform_vectors[5], 10, SquaredEuclidean())
        assert result_scores_match(searcher.search(uniform_vectors[5], 10), reference)

    def test_results_ordered_best_first(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[0], 20)
        assert np.all(np.diff(result.scores) <= 1e-12)


class TestWorkAvoidance:
    def test_prunes_most_of_the_collection(self, corel_store, corel_histograms):
        searcher = BondSearcher(corel_store, metric=HistogramIntersection(), bound=HqBound())
        result = searcher.search(corel_histograms[50], 10)
        _, remaining = result.candidate_trace.as_arrays()
        assert remaining[-1] <= max(10, 0.05 * corel_store.cardinality)

    def test_reads_fewer_bytes_than_scan(self, corel_histograms):
        store = DecomposedStore(corel_histograms)
        row_store = RowStore(corel_histograms)
        bond_result = BondSearcher(store, metric=HistogramIntersection(), bound=HqBound()).search(
            corel_histograms[50], 10
        )
        scan_result = SequentialScan(row_store, metric=HistogramIntersection()).search(
            corel_histograms[50], 10
        )
        assert bond_result.cost.bytes_read < scan_result.cost.bytes_read / 2

    def test_trace_is_monotone_decreasing(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[8], 10)
        _, remaining = result.candidate_trace.as_arrays()
        assert np.all(np.diff(remaining) <= 0)

    def test_dimensions_processed_reported(self, corel_store, corel_histograms):
        result = BondSearcher(corel_store).search(corel_histograms[8], 10)
        assert 0 < result.dimensions_processed <= corel_store.dimensionality
        assert result.full_scan_dimensions <= result.dimensions_processed

    def test_subspace_query_never_touches_other_fragments(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        metric = WeightedSquaredEuclidean.for_subspace(clustered_vectors.shape[1], [0, 1, 2, 3])
        searcher = BondSearcher(store, metric=metric)
        result = searcher.search(clustered_vectors[0], 5)
        assert result.dimensions_processed <= 4
