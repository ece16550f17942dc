"""The approximate tier: IVF clustered pruning + HNSW graph search.

Pins the contracts ``docs/API.md`` documents for ``mode="approx"``:

* **determinism** — same build seed + knobs means bitwise-identical
  structures (k-means plan, HNSW adjacency, manifests, sidecars) and
  answers;
* **exhaustive equivalence** — ``ivf`` with ``nprobe >= n_clusters`` and
  ``hnsw`` with ``ef_search >= cardinality`` return the exact tier's top-k
  OID for OID (ties included: duplicated rows resolve by ascending OID,
  exactly like the exact engines);
* **planner eligibility** — approx backends only ever serve
  ``mode="approx"``; the failover chain substitutes exact backends only;
* **persistence** — manifest v4 round-trips both structures through
  checksummed sidecars, v3 manifests still open (structures rebuilt
  lazily from the vectors);
* **honesty** — approximate answers carry ``exact=False`` unless the
  parameters made them provably exhaustive, and cost charging scales with
  the probed volume.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Index, Query
from repro.api.query import ApproxParams
from repro.approx import (
    ApproxConfig,
    IVFSearcher,
    build_cluster_plan,
    build_hnsw_graph,
    effective_ef_search,
    effective_nprobe,
    node_level,
)
from repro.datasets.clustered import (
    ClusteredConfig,
    make_clustered,
    make_clustered_collection,
)
from repro.core.bond import BondSearcher
from repro.errors import CorruptFragmentError, PlanError, QueryError
from repro.metrics.euclidean import SquaredEuclidean
from repro.serving import SearchService
from repro.storage.decomposed import DecomposedStore
from repro.storage.persistence import MANIFEST_NAME
from repro.workload.ground_truth import exact_top_k


def results_identical(a, b) -> bool:
    return np.array_equal(a.oids, b.oids) and np.array_equal(a.scores, b.scores)


@st.composite
def small_matrices(draw, max_rows: int = 120, max_dims: int = 12):
    """Small float64 matrices, sometimes with duplicated rows (forced ties)."""
    rows = draw(st.integers(min_value=4, max_value=max_rows))
    dims = draw(st.integers(min_value=2, max_value=max_dims))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    duplicates = draw(st.integers(min_value=0, max_value=min(6, rows - 1)))
    rng = np.random.default_rng(seed)
    matrix = rng.random((rows, dims))
    if duplicates:
        # Copy early rows over later ones: guaranteed exact score ties that
        # only the ascending-OID tie-break can order deterministically.
        victims = rng.choice(np.arange(1, rows), size=duplicates, replace=False)
        matrix[victims] = matrix[0]
    return matrix


# -- parameter validation ---------------------------------------------------------


class TestApproxParams:
    def test_unknown_keys_rejected_at_the_boundary(self):
        with pytest.raises(QueryError, match="unknown approx_params key"):
            ApproxParams.coerce({"nprobe": 2, "beam_width": 7})

    def test_params_require_approx_mode(self):
        vector = np.zeros(4)
        with pytest.raises(QueryError, match="approx_params"):
            Query(vector, k=1, metric="euclidean", approx_params={"nprobe": 2})
        with pytest.raises(QueryError, match="approx_params"):
            Query(vector, k=1, metric="euclidean", mode="compressed", approx_params={"nprobe": 2})

    @pytest.mark.parametrize(
        "params",
        [
            {"nprobe": 0},
            {"nprobe": -1},
            {"nprobe": True},
            {"ef_search": 0},
            {"target_recall": 0.0},
            {"target_recall": 1.5},
            {"target_recall": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, params):
        with pytest.raises(QueryError):
            ApproxParams.coerce(params)

    def test_dict_coerces_to_frozen_hashable_params(self):
        query = Query(
            np.zeros(4), k=1, metric="euclidean", mode="approx", approx_params={"nprobe": 3}
        )
        assert isinstance(query.approx_params, ApproxParams)
        assert query.approx_params.nprobe == 3
        hash(query.approx_params)  # must be usable inside a serving batch key
        assert "nprobe=3" in query.describe()

    def test_exact_backends_ignore_approx_params(self, uniform_vectors):
        index = Index.build(uniform_vectors)
        plain = index.answer(Query(uniform_vectors[5], k=5, metric="euclidean"))
        routed = index.answer(
            Query(
                uniform_vectors[5],
                k=5,
                metric="euclidean",
                mode="approx",
                backend="bond",
                approx_params={"nprobe": 1, "ef_search": 1},
            )
        )
        assert results_identical(plain, routed)


class TestApproxConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(QueryError, match="unknown approx"):
            ApproxConfig.coerce({"n_custers": 4})

    def test_resolve_n_clusters_defaults_to_sqrt(self):
        config = ApproxConfig()
        assert config.resolve_n_clusters(10_000) == 100
        assert config.resolve_n_clusters(3) == 2  # round(sqrt(3)) == 2
        assert ApproxConfig(n_clusters=64).resolve_n_clusters(10_000) == 64
        assert ApproxConfig(n_clusters=64).resolve_n_clusters(10) == 10  # clamped

    def test_manifest_round_trip(self):
        config = ApproxConfig(n_clusters=32, m=12, ef_construction=64, seed=99)
        assert ApproxConfig.from_manifest(config.to_manifest()) == config

    def test_knob_resolution_helpers(self):
        assert effective_nprobe(None, None, n_clusters=16, default=4) == 4
        assert effective_nprobe(100, None, n_clusters=16, default=4) == 16  # clamped
        assert effective_nprobe(None, 1.0, n_clusters=16, default=4) == 16
        assert effective_ef_search(None, None, k=10, cardinality=1000, default=32) == 32
        assert effective_ef_search(None, 1.0, k=10, cardinality=1000, default=32) == 1000
        assert effective_ef_search(4, None, k=10, cardinality=1000, default=32) >= 10


# -- build determinism ------------------------------------------------------------


class TestBuildDeterminism:
    @given(matrix=small_matrices(), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_cluster_plan_is_bitwise_deterministic(self, matrix, seed):
        k = min(5, matrix.shape[0])
        first = build_cluster_plan(matrix, n_clusters=k, iterations=4, seed=seed)
        second = build_cluster_plan(matrix, n_clusters=k, iterations=4, seed=seed)
        assert np.array_equal(first.centroids, second.centroids)
        assert np.array_equal(first.permutation, second.permutation)
        assert np.array_equal(first.offsets, second.offsets)
        # the permutation is a permutation, grouped ascending within clusters
        assert np.array_equal(np.sort(first.permutation), np.arange(matrix.shape[0]))
        for cluster in range(first.n_clusters):
            members = first.members(cluster)
            assert np.array_equal(members, np.sort(members))

    @given(matrix=small_matrices(max_rows=60), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_hnsw_graph_is_bitwise_deterministic(self, matrix, seed):
        first = build_hnsw_graph(matrix, m=4, ef_construction=12, seed=seed)
        second = build_hnsw_graph(matrix, m=4, ef_construction=12, seed=seed)
        a, b = first.to_arrays(), second.to_arrays()
        assert first.entry_point == second.entry_point
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_level_draws_are_seed_and_oid_local(self):
        levels = [node_level(7, oid, 8) for oid in range(200)]
        assert levels == [node_level(7, oid, 8) for oid in range(200)]
        assert min(levels) == 0
        assert any(level > 0 for level in levels)
        assert levels != [node_level(8, oid, 8) for oid in range(200)]


# -- exhaustive-parameter equivalence to the exact tier ---------------------------


class TestExhaustiveEquivalence:
    @given(matrix=small_matrices())
    @settings(max_examples=15, deadline=None)
    def test_ivf_probing_everything_equals_exact(self, matrix):
        index = Index.build(matrix, approx={"n_clusters": min(6, matrix.shape[0])})
        metric = SquaredEuclidean()
        k = min(5, matrix.shape[0])
        query = matrix[0]  # duplicated-row queries force score ties
        reference = exact_top_k(matrix, query, k, metric)
        result = index.answer(
            Query(
                query,
                k=k,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": index.approx_config.resolve_n_clusters(matrix.shape[0])},
            )
        )
        assert result.exact
        assert np.array_equal(result.oids, reference.oids)
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9, rtol=0.0)

    @given(matrix=small_matrices(max_rows=80))
    @settings(max_examples=10, deadline=None)
    def test_hnsw_exhaustive_ef_equals_exact(self, matrix):
        index = Index.build(matrix, approx={"n_clusters": 2})
        metric = SquaredEuclidean()
        k = min(5, matrix.shape[0])
        query = matrix[0]
        reference = exact_top_k(matrix, query, k, metric)
        result = index.answer(
            Query(
                query,
                k=k,
                metric="euclidean",
                mode="approx",
                backend="hnsw",
                approx_params={"ef_search": matrix.shape[0]},
            )
        )
        assert result.exact
        assert np.array_equal(result.oids, reference.oids)
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9, rtol=0.0)

    def test_batched_exhaustive_equals_exact_batch(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 10})
        queries = uniform_vectors[:8]
        exact = index.answer(Query(queries, k=6, metric="euclidean", batch=True))
        ivf = index.answer(
            Query(
                queries,
                k=6,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                batch=True,
                approx_params={"nprobe": 10},
            )
        )
        hnsw = index.answer(
            Query(
                queries,
                k=6,
                metric="euclidean",
                mode="approx",
                backend="hnsw",
                batch=True,
                approx_params={"ef_search": uniform_vectors.shape[0]},
            )
        )
        for a, b in zip(ivf.results, exact.results):
            # probing every cluster is the exact BOND run itself: bitwise identical
            assert results_identical(a, b)
        for a, b in zip(hnsw.results, exact.results):
            # HNSW's exhaustive fallback scores in one vectorised pass, so
            # the summation order differs from BOND's fused accumulation:
            # the contract is OID identity with scores within 1e-9
            assert np.array_equal(a.oids, b.oids)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-9, rtol=0.0)


# -- one globally pruned run == the per-cluster algorithm ----------------------------


def per_cluster_reference(index, query, k, nprobe):
    """IVF as separate searches: exact BOND top-k inside each probed cluster
    (a store of the cluster's rows alone), then the score-then-ascending-OID
    merge of the per-cluster lists."""
    plan = index.cluster_plan
    metric = SquaredEuclidean()
    oids, scores = [], []
    for cluster in plan.probe_order(query)[:nprobe]:
        members = plan.members(int(cluster))
        store = DecomposedStore(index.vectors[members], format=index.format.dtype)
        local = BondSearcher(store, metric=metric).search(query, k)
        oids.append(members[local.oids])
        scores.append(local.scores)
    oids, scores = np.concatenate(oids), np.concatenate(scores)
    by_oid = np.argsort(oids, kind="stable")
    best = by_oid[metric.best_first(scores[by_oid])[:k]]
    return oids[best], scores[best]


def ivf_query(vectors, k, nprobe, *, batch=False):
    return Query(
        vectors,
        k=k,
        metric="euclidean",
        mode="approx",
        backend="ivf",
        batch=batch,
        approx_params={"nprobe": nprobe},
    )


class TestGlobalPruning:
    @pytest.mark.parametrize("fragment_format", ["float64/ram", "float32/mmap"])
    @given(
        matrix=small_matrices(max_rows=240),
        mirrored=st.booleans(),
        n_clusters=st.integers(min_value=1, max_value=40),
        nprobe=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=15, deadline=None)
    def test_single_and_batch_equal_per_cluster_search(
        self, fragment_format, matrix, mirrored, n_clusters, nprobe, k
    ):
        # Up to 40 clusters over <= 240 rows: small probes start positional,
        # wide ones start in bitmap mode; duplicated rows force score ties.
        if mirrored:
            # Rows x and 1 - x on a 1/8 grid sit exactly equally far from the
            # centre query, and usually in different clusters: ties across
            # clusters that only the ascending-OID tie-break orders.
            grid = np.round(matrix * 8.0) / 8.0
            matrix = np.vstack([grid, 1.0 - grid])
        with Index.build(
            matrix, approx={"n_clusters": n_clusters}, format=fragment_format
        ) as index:
            centre = np.full(matrix.shape[1], 0.5)
            queries = np.vstack([index.vectors[[0, -1, len(matrix) // 2]], centre])
            batch = index.answer(ivf_query(queries, k, nprobe, batch=True))
            for query, batched in zip(queries, batch.results):
                oids, scores = per_cluster_reference(index, query, k, nprobe)
                single = index.answer(ivf_query(query, k, nprobe))
                for result in (single, batched):
                    assert np.array_equal(result.oids, oids)
                    assert np.array_equal(result.scores, scores)

    def test_live_index_equals_rebuilt_index(self, uniform_vectors):
        rng = np.random.default_rng(11)
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})
        inserted = rng.random((6, uniform_vectors.shape[1]))
        index.insert(inserted)
        deleted = [2, 40, 41, 599, 601]  # base rows and one tail row
        index.delete(deleted)
        logical = np.vstack([uniform_vectors, inserted])
        alive = np.setdiff1d(np.arange(logical.shape[0]), deleted)
        rebuilt = Index.build(logical[alive], approx={"n_clusters": 8})
        queries = np.vstack([uniform_vectors[[5, 40]], inserted[[0]]])
        live_batch = index.answer(ivf_query(queries, 7, 8, batch=True))
        rebuilt_batch = rebuilt.answer(ivf_query(queries, 7, 8, batch=True))
        for position, query in enumerate(queries):
            live = index.answer(ivf_query(query, 7, 8))
            reference = rebuilt.answer(ivf_query(query, 7, 8))
            for got, want in ((live, reference), (live_batch[position], rebuilt_batch[position])):
                assert got.exact and want.exact
                # rebuilt OIDs are ranks among the surviving rows
                assert alive[want.oids].tolist() == got.oids.tolist()
                # approximate backends score tail rows with a plain scan,
                # so tail scores match to rounding, base scores bitwise
                np.testing.assert_allclose(got.scores, want.scores, atol=1e-12, rtol=0.0)
                base = got.oids < uniform_vectors.shape[0]
                assert np.array_equal(got.scores[base], want.scores[base])

    def test_store_deletions_never_reach_a_partial_probe(self, clustered_vectors):
        store = DecomposedStore(clustered_vectors)
        plan = build_cluster_plan(clustered_vectors, n_clusters=40, iterations=4, seed=3)
        query = clustered_vectors[7]
        searcher = IVFSearcher(store, plan, metric=SquaredEuclidean())
        before = searcher.search(query, 10, nprobe=2)
        store.delete(before.oids[:3])
        after = searcher.search(query, 10, nprobe=2)
        assert not np.isin(after.oids, before.oids[:3]).any()
        assert not after.exact
        exhaustive = searcher.search(query, 10, nprobe=40)
        exact = BondSearcher(store, metric=SquaredEuclidean()).search(query, 10)
        assert exhaustive.exact
        assert np.array_equal(exhaustive.oids, exact.oids)
        assert np.array_equal(exhaustive.scores, exact.scores)

    def test_ivf_searches_the_index_store_itself(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})
        query = ivf_query(uniform_vectors[3], 5, 2)
        plan = index.plan(query)
        searcher = index.searcher_for(plan.backend, query, plan.metric)
        assert searcher.store is index.decomposed
        assert index.ivf_partitions is index.cluster_plan


# -- recall on clustered data -----------------------------------------------------


class TestRecall:
    @pytest.fixture(scope="class")
    def clustered_index(self, clustered_vectors):
        return Index.build(clustered_vectors, approx={"n_clusters": 40})

    def _recall(self, index, vectors, *, backend, params, k=10, num_queries=20):
        metric = SquaredEuclidean()
        hits = total = 0
        for oid in range(num_queries):
            reference = exact_top_k(vectors, vectors[oid], k, metric)
            result = index.answer(
                Query(
                    vectors[oid],
                    k=k,
                    metric="euclidean",
                    mode="approx",
                    backend=backend,
                    approx_params=params,
                )
            )
            hits += len(np.intersect1d(result.oids, reference.oids))
            total += k
        return hits / total

    def test_ivf_recall_floor_on_clustered_data(self, clustered_index, clustered_vectors):
        recall = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 4}
        )
        assert recall >= 0.9

    def test_hnsw_recall_floor_on_clustered_data(self, clustered_index, clustered_vectors):
        recall = self._recall(
            clustered_index, clustered_vectors, backend="hnsw", params={"ef_search": 64}
        )
        assert recall >= 0.9

    def test_recall_is_monotone_in_nprobe_on_average(self, clustered_index, clustered_vectors):
        narrow = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 1}
        )
        wide = self._recall(
            clustered_index, clustered_vectors, backend="ivf", params={"nprobe": 40}
        )
        assert wide == 1.0
        assert narrow <= wide

    def test_target_recall_steers_the_knobs(self, clustered_index, clustered_vectors):
        full = self._recall(
            clustered_index,
            clustered_vectors,
            backend="ivf",
            params={"target_recall": 1.0},
            num_queries=8,
        )
        assert full == 1.0


# -- planner eligibility and failover ---------------------------------------------


class TestPlannerIntegration:
    @pytest.fixture(scope="class")
    def index(self, uniform_vectors):
        return Index.build(uniform_vectors, approx={"n_clusters": 8})

    def test_approx_backends_never_serve_exact_mode(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean"))
        for candidate in plan.candidates:
            if candidate.backend in ("ivf", "hnsw"):
                assert not candidate.eligible
                assert "approx" in candidate.rejection
        with pytest.raises(PlanError):
            index.answer(Query(uniform_vectors[0], k=3, metric="euclidean", backend="ivf"))
        with pytest.raises(PlanError):
            index.answer(
                Query(uniform_vectors[0], k=3, metric="euclidean", mode="compressed", backend="hnsw")
            )

    def test_approx_mode_considers_approx_backends(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean", mode="approx"))
        eligible = {c.backend for c in plan.candidates if c.eligible}
        assert {"ivf", "hnsw"} <= eligible

    def test_failover_chain_substitutes_exact_backends_only(self, index, uniform_vectors):
        plan = index.plan(Query(uniform_vectors[0], k=3, metric="euclidean", mode="approx"))
        chain = plan.failover_chain()
        # whatever was chosen, every *substitute* must be exact
        for name in chain[1:]:
            assert name not in ("ivf", "hnsw")

    def test_approx_backends_reject_foreign_metrics(self, index, corel_histograms):
        plan = index.plan(Query(np.zeros(index.dimensionality), k=3, metric="histogram", mode="approx"))
        for candidate in plan.candidates:
            if candidate.backend in ("ivf", "hnsw"):
                assert not candidate.eligible

    def test_estimates_scale_with_nprobe(self, index, uniform_vectors):
        def estimate(nprobe):
            plan = index.plan(
                Query(
                    uniform_vectors[0],
                    k=3,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params={"nprobe": nprobe},
                )
            )
            return plan.estimate.bytes_read

        assert estimate(1) < estimate(8)


# -- persistence ------------------------------------------------------------------


class TestPersistence:
    def _build(self, vectors):
        index = Index.build(vectors, approx={"n_clusters": 6}, name="approx-persist")
        index.cluster_plan  # force both structures so save persists them
        index.hnsw_graph
        return index

    def test_manifest_v4_build_is_byte_deterministic(self, uniform_vectors, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        self._build(uniform_vectors).save(first)
        self._build(uniform_vectors).save(second)
        assert (first / MANIFEST_NAME).read_bytes() == (second / MANIFEST_NAME).read_bytes()
        sidecars = sorted(path.name for path in first.glob("*.apx"))
        assert sidecars  # both structures persisted
        for name in sidecars:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_round_trip_preserves_answers_and_resaves_identically(
        self, uniform_vectors, tmp_path
    ):
        built = self._build(uniform_vectors)
        built.save(tmp_path / "a")
        reopened = Index.open(tmp_path / "a")
        for backend, params in [("ivf", {"nprobe": 2}), ("hnsw", {"ef_search": 16})]:
            query = Query(
                uniform_vectors[3],
                k=5,
                metric="euclidean",
                mode="approx",
                backend=backend,
                approx_params=params,
            )
            assert results_identical(built.answer(query), reopened.answer(query))
        reopened.save(tmp_path / "b")
        assert (tmp_path / "a" / MANIFEST_NAME).read_bytes() == (
            tmp_path / "b" / MANIFEST_NAME
        ).read_bytes()

    def test_v3_manifests_still_open_and_rebuild_lazily(self, uniform_vectors, tmp_path):
        self._build(uniform_vectors).save(tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["layout_version"] = 3
        manifest.pop("approx", None)
        manifest["index"].pop("approx", None)
        manifest_path.write_text(json.dumps(manifest))
        for sidecar in tmp_path.glob("*.apx"):
            sidecar.unlink()
        reopened = Index.open(tmp_path)
        result = reopened.answer(
            Query(
                uniform_vectors[3],
                k=5,
                metric="euclidean",
                mode="approx",
                backend="ivf",
                approx_params={"nprobe": 6},
            )
        )
        reference = exact_top_k(uniform_vectors, uniform_vectors[3], 5, SquaredEuclidean())
        assert np.array_equal(result.oids, reference.oids)

    def test_corrupt_sidecar_is_detected(self, uniform_vectors, tmp_path):
        self._build(uniform_vectors).save(tmp_path)
        victim = tmp_path / "approx_ivf_centroids.apx"
        blob = bytearray(victim.read_bytes())
        blob[13] ^= 0xFF
        victim.write_bytes(bytes(blob))
        reopened = Index.open(tmp_path)
        with pytest.raises(CorruptFragmentError):
            reopened.cluster_plan


# -- the clustered-collection satellite -------------------------------------------


class TestClusteredCollection:
    def test_vectors_match_make_clustered_bitwise(self):
        config = ClusteredConfig(cardinality=400, dimensionality=16, num_clusters=20, seed=5)
        collection = make_clustered_collection(config)
        assert np.array_equal(collection.vectors, make_clustered(config))

    def test_labels_align_with_the_shuffle(self):
        config = ClusteredConfig(
            cardinality=500, dimensionality=8, num_clusters=12, seed=9, cluster_fraction=0.9
        )
        collection = make_clustered_collection(config)
        assert collection.labels.shape == (500,)
        noise = int((collection.labels == -1).sum())
        assert noise == 500 - int(round(500 * 0.9))
        # every labelled row sits near its generating centre, noise does not
        labelled = collection.labels >= 0
        deltas = collection.vectors[labelled] - collection.centres[collection.labels[labelled]]
        distances = np.sqrt((deltas**2).sum(axis=1))
        # clipping at the hypercube boundary can stretch a few, hence median
        assert np.median(distances) < 4 * 0.025 * np.sqrt(8)

    def test_exact_topk_matches_ground_truth_helper(self):
        collection = make_clustered_collection(
            cardinality=300, dimensionality=8, num_clusters=10, seed=3
        )
        metric = SquaredEuclidean()
        results = collection.exact_topk(collection.vectors[:4], 5)
        assert len(results) == 4
        for oid, result in enumerate(results):
            reference = exact_top_k(collection.vectors, collection.vectors[oid], 5, metric)
            assert results_identical(result, reference)


# -- serving integration ----------------------------------------------------------


class TestServing:
    def test_served_approx_answers_match_direct_calls(self, uniform_vectors):
        index = Index.build(uniform_vectors, approx={"n_clusters": 8})
        submissions = [
            (uniform_vectors[oid], {"nprobe": 2}) for oid in range(4)
        ] + [(uniform_vectors[oid], {"nprobe": 8}) for oid in range(4, 8)]

        async def main():
            async with SearchService(index) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            vector,
                            k=5,
                            metric="euclidean",
                            mode="approx",
                            backend="ivf",
                            approx_params=params,
                        )
                        for vector, params in submissions
                    )
                )

        served = asyncio.run(main())
        for (vector, params), result in zip(submissions, served):
            direct = index.answer(
                Query(
                    vector,
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params=params,
                )
            )
            assert results_identical(result, direct)


# -- cost honesty -----------------------------------------------------------------


class TestCostHonesty:
    def test_probing_fewer_partitions_charges_fewer_bytes(self, clustered_vectors):
        index = Index.build(clustered_vectors, approx={"n_clusters": 40})

        def charged_bytes(nprobe):
            result = index.answer(
                Query(
                    clustered_vectors[0],
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="ivf",
                    approx_params={"nprobe": nprobe},
                )
            )
            assert result.cost is not None
            return result.cost.bytes_read

        assert 0 < charged_bytes(1) < charged_bytes(40)

    def test_wider_beams_charge_more(self, clustered_vectors):
        index = Index.build(clustered_vectors, approx={"n_clusters": 8})

        def charged_bytes(ef):
            result = index.answer(
                Query(
                    clustered_vectors[0],
                    k=5,
                    metric="euclidean",
                    mode="approx",
                    backend="hnsw",
                    approx_params={"ef_search": ef},
                )
            )
            assert result.cost is not None
            return result.cost.bytes_read

        assert 0 < charged_bytes(8) <= charged_bytes(128)
