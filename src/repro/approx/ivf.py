"""IVF clustered pruning: scan only the members of the ``nprobe`` nearest clusters.

The searcher is deliberately thin: all heavy machinery is reused unchanged.
A query ranks the :class:`~repro.approx.cluster.ClusterPlan` centroids,
gathers the members of its ``nprobe`` nearest clusters in ascending OID
order, and hands them to the stock fused
:class:`~repro.core.bond.BondSearcher` as the initial candidates of **one**
BOND run over the index's own
:class:`~repro.storage.decomposed.DecomposedStore` — no copy of the
collection.  Every candidate is pruned against one global k-th bound, the
run starts positional when the probed share is at or below the engine's
switch selectivity, and all charging flows through the store's one
:class:`~repro.engine.cost.CostModel`.

Exactness: probing every non-empty cluster *is* the exact search — the
clusters tile the collection, so the run is the exact tier's run over every
live vector — and returns the exact answer OID for OID, flagged
``exact=True``.  Fewer probes trade recall for a proportionally smaller
candidate set and flag ``exact=False``; ties still break by ascending OID,
because the candidates start in ascending OID order.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.approx.cluster import ClusterPlan
from repro.core import rounds
from repro.core.bond import BondSearcher
from repro.core.result import BatchSearchResult, SearchResult
from repro.engine.cost import DOUBLE_BYTES
from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.storage.decomposed import DecomposedStore


def effective_nprobe(
    nprobe: int | None, target_recall: float | None, *, n_clusters: int, default: int
) -> int:
    """Resolve the query knobs to a concrete probe count.

    An explicit ``nprobe`` wins.  A ``target_recall`` maps conservatively:
    ``1.0`` forces the exhaustive (exact-equivalent) configuration, lower
    floors scale the probe count with the square of the target — monotone in
    the target and deliberately generous, since the contract is a floor, not
    a point estimate.  With neither knob the build-time default applies.
    """
    if nprobe is not None:
        return max(1, min(int(nprobe), n_clusters))
    if target_recall is not None:
        if target_recall >= 1.0:
            return n_clusters
        return max(1, min(n_clusters, math.ceil(n_clusters * target_recall**2)))
    return max(1, min(default, n_clusters))


class IVFSearcher:
    """Per-metric IVF search: one BOND run over the probed clusters' members."""

    def __init__(
        self,
        store: DecomposedStore,
        plan: ClusterPlan,
        *,
        metric: Metric,
        default_nprobe: int = 4,
    ) -> None:
        if plan.cardinality != store.cardinality:
            raise QueryError(
                f"cluster plan covers {plan.cardinality} rows, the store holds {store.cardinality}"
            )
        self._plan = plan
        self._searcher = BondSearcher(store, metric=metric)
        self._default_nprobe = default_nprobe

    @property
    def plan(self) -> ClusterPlan:
        """The cluster plan driving partition selection."""
        return self._plan

    @property
    def store(self) -> DecomposedStore:
        """The decomposed store the BOND run scans (the index's own)."""
        return self._searcher.store

    def _candidates(self, query: np.ndarray, probes: int) -> tuple[np.ndarray | None, bool]:
        """The run's initial candidates and whether the probe is exhaustive.

        The members of the ``probes`` nearest non-empty clusters, ascending;
        ``None`` (every live vector) when every non-empty cluster is probed.
        """
        order = self._plan.probe_order(query)
        if probes >= len(order):
            return None, True
        members = np.concatenate([self._plan.members(int(cluster)) for cluster in order[:probes]])
        members.sort()
        return members, False

    def _probe_count(self, batch_size: int, nprobe: int | None, target_recall: float | None) -> int:
        """Resolve a batch's probe count and charge the centroid scan that
        ranks the clusters for it."""
        plan = self._plan
        cost = self.store.cost
        cost.charge_block_scan(plan.n_clusters, plan.dimensionality, DOUBLE_BYTES)
        cost.charge_arithmetic(2 * plan.n_clusters * plan.dimensionality * batch_size)
        return effective_nprobe(
            nprobe, target_recall, n_clusters=plan.n_clusters, default=self._default_nprobe
        )

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        target_recall: float | None = None,
        trace=None,
    ) -> SearchResult:
        """Top-k over the members of the ``nprobe`` clusters nearest to ``query``."""
        started = time.perf_counter()
        snapshot = self.store.cost.snapshot()
        oids, exact = self._candidates(query, self._probe_count(1, nprobe, target_recall))
        result = rounds.search_one(self._searcher, query, k, trace, oids=oids)
        result.cost = self.store.cost.delta_since(snapshot)
        result.elapsed_seconds = time.perf_counter() - started
        result.exact = exact
        return result

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        nprobe: int | None = None,
        target_recall: float | None = None,
    ) -> BatchSearchResult:
        """Batched variant: every query's run shares the rounds' fragment reads."""
        started = time.perf_counter()
        snapshot = self.store.cost.snapshot()
        queries = rounds.query_matrix(queries)
        probes = self._probe_count(queries.shape[0], nprobe, target_recall)
        subsets = [self._candidates(query, probes) for query in queries]
        batch = rounds.search_batch(
            self._searcher, queries, k, subsets=[oids for oids, _ in subsets]
        )
        for result, (_, exact) in zip(batch.results, subsets):
            result.exact = exact
        batch.cost = self.store.cost.delta_since(snapshot)
        batch.elapsed_seconds = time.perf_counter() - started
        return batch
