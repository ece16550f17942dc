"""BOND: Branch-and-bound ON Decomposed data (Algorithm 2).

The searcher accumulates the query's similarity (or distance) to every
surviving vector one dimension fragment at a time, in an order chosen by a
:class:`~repro.core.ordering.DimensionOrdering`.  After every batch of
dimensions (controlled by a :class:`~repro.core.schedules.PruningSchedule`) it
asks the :class:`~repro.bounds.base.PruningBound` for lower/upper bounds on
every candidate's complete score and discards the candidates that can no
longer reach the top k:

* for similarity metrics, let ``kappa_min`` be the k-th largest lower bound;
  every candidate whose *upper* bound is below ``kappa_min`` is pruned
  (Algorithm 2, step 4);
* for distance metrics, let ``kappa_max`` be the k-th smallest upper bound;
  every candidate whose *lower* bound exceeds ``kappa_max`` is pruned (the
  remark after Algorithm 2).

Once the candidate set is no larger than k (or the dimensions are exhausted)
the survivors' exact scores are completed on the remaining dimensions — only
k-ish vectors wide — and the best k are returned.

Execution engines
-----------------
The searcher offers two engines with bit-for-bit identical results:

* ``"fused"`` (default) runs on the BOND round driver of
  :mod:`repro.core.rounds`: one pruning period at a time, the period's m
  fragments fold in one kernel call from :mod:`repro.kernels`.  A single
  query is a batch of one; :meth:`BondSearcher.search_batch` advances a
  whole batch in lockstep rounds that share each fragment read across every
  query still streaming whole fragments;
* ``"loop"`` is the seed per-dimension path, kept as the reference
  implementation and benchmark baseline (single queries only).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.bounds.base import OrderStatistics, PartialState, PruningBound
from repro.bounds.euclidean import EvBound
from repro.bounds.histogram import HqBound
from repro.bounds.weighted import WeightedEuclideanBound
from repro.core import rounds
from repro.core.candidates import CandidateMode, CandidateSet
from repro.core.ordering import DecreasingQueryOrdering, DimensionOrdering
from repro.core.schedules import FixedPeriodSchedule, PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.core.rounds import QueryRun
from repro.errors import QueryError
from repro.kernels import BlockKernel, accumulate_columns, kernel_for
from repro.metrics.base import Metric, MetricKind
from repro.metrics.euclidean import SquaredEuclidean
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.decomposed import DecomposedStore


def default_bound_for(metric: Metric) -> PruningBound:
    """The pruning criterion the paper recommends for each metric.

    Histogram intersection pairs with Hq (best response times in Table 3),
    the plain Euclidean metric with Ev (Eq prunes "hardly any image",
    Figure 5), and the weighted metric with the weighted bound of Appendix A.
    """
    if isinstance(metric, WeightedSquaredEuclidean):
        return WeightedEuclideanBound()
    if isinstance(metric, SquaredEuclidean):
        return EvBound()
    if isinstance(metric, HistogramIntersection):
        return HqBound()
    raise QueryError(
        f"no default pruning bound for metric {type(metric).__name__}; pass one explicitly"
    )


class BondSearcher:
    """k-NN search by branch-and-bound over a vertically decomposed store.

    Parameters
    ----------
    store:
        The decomposed collection to search.
    metric:
        Similarity or distance metric (histogram intersection, squared
        Euclidean or weighted squared Euclidean).  Defaults to histogram
        intersection.
    bound:
        Pruning criterion; defaults to the paper's recommendation for the
        metric (see :func:`default_bound_for`).
    ordering:
        Dimension-ordering strategy (default: decreasing query value).
    schedule:
        Pruning-period schedule (default: every 8 dimensions, the paper's m).
    candidate_mode:
        ``"auto"`` (bitmap first, positional after the switch-over),
        ``"bitmap"`` or ``"positional"``.
    switch_selectivity:
        Candidate fraction below which the auto mode materialises the
        candidate set.
    engine:
        ``"fused"`` (default) runs the block-scan kernels; ``"loop"`` runs
        the original per-dimension reference path.  Both return bitwise
        identical results at identical accounted cost.

    Notes
    -----
    All configuration parameters are keyword-only (the uniform
    :class:`repro.api.Searcher` construction surface).

    A searcher owns reusable scratch buffers (kernel workspace, pruning
    bounds), so one instance must not run concurrent searches from multiple
    threads; create one searcher per thread (they can share the store).
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        metric: Metric | None = None,
        bound: PruningBound | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        candidate_mode: str = "auto",
        switch_selectivity: float = 0.05,
        engine: str = "fused",
    ) -> None:
        if engine not in ("fused", "loop"):
            raise QueryError("engine must be 'fused' or 'loop'")
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._bound = bound if bound is not None else default_bound_for(self._metric)
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else FixedPeriodSchedule(8)
        self._candidate_mode = candidate_mode
        self._switch_selectivity = switch_selectivity
        self._engine = engine
        self._kernel = kernel_for(self._metric)
        # Accounting of the round driver: full-fragment reads stream the
        # store's coefficients; each folded value costs the metric's ops.
        self._read_bytes = store.coefficient_bytes
        self._ops_per_value = self._metric.arithmetic_ops_per_value()
        # Reusable per-search scratch (lazily sized to the collection): the
        # full-scan workspace for the kernels and the bound/keep buffers of
        # the pruning attempts, so the hot path allocates nothing.
        self._scan_workspace = np.empty(0, dtype=np.float64)
        self._prune_lower = np.empty(0, dtype=np.float64)
        self._prune_upper = np.empty(0, dtype=np.float64)
        self._prune_keep = np.empty(0, dtype=bool)
        if self._bound.needs_remaining_value_sums:
            store.materialize_row_sums()

    # -- public API -------------------------------------------------------------

    @property
    def store(self) -> DecomposedStore:
        """The decomposed store being searched."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def bound(self) -> PruningBound:
        """The pruning criterion in use."""
        return self._bound

    @property
    def engine(self) -> str:
        """The execution engine in use (``"fused"`` or ``"loop"``)."""
        return self._engine

    @property
    def kernel(self) -> BlockKernel:
        """The fused block kernel matching the metric."""
        return self._kernel

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Return the k nearest neighbours of ``query``.

        Parameters
        ----------
        query:
            The query vector (full dimensionality of the store).
        k:
            Number of neighbours; clamped to the collection size.
        trace:
            Optional :class:`~repro.core.result.PruningTrace` to record the
            pruning curve into (also attached to the returned result).
        """
        reference = self._run_loop if self._engine == "loop" else None
        return rounds.search_one(self, query, k, trace, reference=reference)

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch of queries, sharing fragment reads.

        Every query runs the exact single-query algorithm — its own dimension
        order, pruning schedule and candidate set — so each returned
        :class:`~repro.core.result.SearchResult` is bitwise identical to what
        :meth:`search` would return for that query.  The batch differs only
        in *how storage is touched*: per round, the union of the blocks of
        every query still streaming whole fragments is read once and served
        to all of them (see :mod:`repro.core.rounds`).  Batches always run
        the fused engine.

        Parameters
        ----------
        queries:
            ``(batch, N)`` matrix of query vectors (a single 1-D query is
            accepted and treated as a batch of one).
        k:
            Number of neighbours per query; clamped to the collection size.

        Returns
        -------
        A :class:`~repro.core.result.BatchSearchResult` with one result per
        query in submission order; cost and wall-clock time are accounted at
        batch level because fragment reads are shared.
        """
        return rounds.search_batch(self, queries, k)

    # -- round-driver hooks (see repro.core.rounds) -----------------------------

    def _plan(
        self,
        query: np.ndarray,
        k: int,
        *,
        trace: PruningTrace | None = None,
        oids: np.ndarray | None = None,
    ) -> QueryRun:
        """Validate one query and set up its run: order, candidates, schedule.

        ``oids`` (ascending) restricts the initial candidates to a subset of
        the collection; ``None`` starts from every live vector.
        """
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError(
                f"query has {query.shape[0]} dimensions, the store has {self._store.dimensionality}"
            )
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)

        weights = self._metric.weights if isinstance(self._metric, WeightedSquaredEuclidean) else None
        order = self._ordering.order(query, weights=weights)
        if weights is not None:
            # Subspace fast path: zero-weight dimensions contribute nothing
            # and their fragments never need to be touched (Section 8.1).
            order = order[weights[order] > 0.0]
        full_order = order
        if order.shape[0] != query.shape[0]:
            # The pruning bounds define "remaining dimensions" as everything
            # after the processed prefix: the zero-weight dimensions go last,
            # so they count as remaining but never get processed (their
            # weight is zero, so they add nothing to the weighted bounds).
            missing = np.setdiff1d(
                np.arange(query.shape[0], dtype=np.int64), order, assume_unique=True
            )
            full_order = np.concatenate([order, missing])
        return QueryRun(
            query=query,
            k=k,
            order=order,
            # Adaptive schedules carry per-search state, so every run gets its
            # own (shallow — schedules hold only scalar configuration) copy.
            schedule=copy.copy(self._schedule),
            candidates=CandidateSet(
                self._store,
                track_partial_sums=self._bound.needs_partial_value_sums,
                track_remaining_sums=self._bound.needs_remaining_value_sums,
                mode=self._candidate_mode,
                switch_selectivity=self._switch_selectivity,
                oids=oids,
            ),
            weights=weights,
            full_order=full_order,
            statistics=OrderStatistics(query, full_order, weights),
            trace=trace if trace is not None else PruningTrace(),
        )

    def _shares_reads(self, run: QueryRun) -> bool:
        """Bitmap candidates stream whole fragments past the filter."""
        return run.candidates.mode is CandidateMode.BITMAP

    def _full_columns(self, dimensions: np.ndarray) -> list[np.ndarray]:
        """Uncharged zero-copy fragment columns (the round charges the read)."""
        return self._store.fragment_columns(dimensions, charge=False)

    def _fold_rows(
        self,
        run: QueryRun,
        dimensions: np.ndarray,
        columns: list[np.ndarray],
        start: int,
        stop: int,
    ) -> None:
        """Fold full fragment columns into the rows ``[start, stop)``.

        The fragments are streamed in place: no gather, no fresh allocation,
        per-column temporaries in the reused workspace.
        """
        rows = stop - start
        if self._scan_workspace.shape[0] < rows:
            self._scan_workspace = np.empty(rows, dtype=np.float64)
        tile = [column[start:stop] for column in columns]
        self._kernel.accumulate_scan(
            tile,
            run.query[dimensions],
            dimensions,
            run.candidates.partial_scores[start:stop],
            self._scan_workspace[:rows],
        )
        run.candidates.accumulate_value_columns(tile, rows=slice(start, stop))

    def _fold_own(self, run: QueryRun, dimensions: np.ndarray, *, charge: bool) -> None:
        """Fold one block over the run's own candidates as one gather and one
        kernel call; ``charge=False`` when the round already paid the read."""
        candidates = run.candidates
        if charge:
            values = candidates.block_values(dimensions)
        else:
            values = self._store.gather_block(dimensions, oids=candidates.oids, charge=None)
        contribution_block = self._kernel.contribution_block(
            values, run.query[dimensions], dimensions
        )
        candidates.accumulate_block(contribution_block, values)

    def _run_loop(self, run: QueryRun) -> None:
        """The seed per-dimension reference engine."""
        candidates = run.candidates
        while not run.finished:
            dimension = int(run.order[run.processed])
            column = candidates.column_values(dimension)
            contributions = self._metric.contributions(column, run.query[dimension], dimension=dimension)
            self._store.cost.charge_arithmetic(len(column) * self._ops_per_value)
            candidates.accumulate(contributions, column)
            if candidates.mode is CandidateMode.BITMAP:
                run.full_scan_dimensions += 1
            run.consume(1, self._prune)

    # -- internals -----------------------------------------------------------------

    def _prune(self, run: QueryRun) -> None:
        """One pruning attempt: bound every candidate and drop the hopeless ones."""
        candidates = run.candidates
        k = run.k
        if len(candidates) <= k:
            return
        state = PartialState(
            query=run.query,
            order=run.full_order,
            num_processed=run.processed,
            partial_scores=candidates.partial_scores,
            partial_value_sums=candidates.partial_value_sums,
            remaining_value_sums=candidates.remaining_value_sums,
            weights=run.weights,
            order_statistics=run.statistics,
        )
        if not self._bound.pruning_worthwhile(state):
            return
        count = len(candidates)
        if self._prune_lower.shape[0] < count:
            self._prune_lower = np.empty(count, dtype=np.float64)
            self._prune_upper = np.empty(count, dtype=np.float64)
            self._prune_keep = np.empty(count, dtype=bool)
        lower, upper = self._bound.total_bounds(
            state, out=(self._prune_lower[:count], self._prune_upper[:count])
        )
        cost = self._store.cost
        cost.charge_arithmetic(2 * count)
        cost.charge_heap(count)
        cost.charge_comparisons(count)

        keep = self._prune_keep[:count]
        if self._metric.kind is MetricKind.SIMILARITY:
            # kappa_min: the k-th largest guaranteed (lower-bound) score.  The
            # selection partitions the lower buffer in place — it is not
            # needed afterwards (the keep test reads only the upper bounds).
            lower.partition(count - k)
            kappa = float(lower[count - k])
            np.greater_equal(upper, kappa, out=keep)
        else:
            # kappa_max: the k-th smallest worst-case (upper-bound) score.
            upper.partition(k - 1)
            kappa = float(upper[k - 1])
            np.less_equal(lower, kappa, out=keep)
        candidates.prune(keep)

    def _finalize(self, run: QueryRun) -> tuple[np.ndarray, np.ndarray]:
        """Complete the survivors' exact scores on the unprocessed dimensions
        and return the best k (OIDs, scores), best first, with deterministic
        tie-breaks."""
        candidates = run.candidates
        scores = candidates.partial_scores.copy()
        remaining = run.order[run.processed:]
        if remaining.shape[0] and len(candidates):
            values = self._store.gather_matrix(candidates.oids, remaining)
            self._store.cost.charge_arithmetic(values.size * self._ops_per_value)
            contribution_block = self._kernel.contribution_block(
                values, run.query[remaining], remaining
            )
            accumulate_columns(scores, contribution_block)
        if scores.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        self._store.cost.charge_heap(scores.shape[0])
        top = self._metric.best_first(scores)[: run.k]
        return candidates.oids[top], scores[top]
