"""BOND over 8-bit approximated fragments (Section 7.4, Figure 9, Table 4).

The approximation idea of the VA-file composes with BOND: run the
branch-and-bound filter on small (1 byte per coefficient) quantised fragments
and refine the surviving candidates on the exact vectors.  Because every
quantised value comes with a per-cell error interval, the filter accumulates
*interval* partial scores — a lower and an upper bound per candidate — and
prunes with the query-only bounds (Hq for histogram intersection, the
farthest-corner bound for Euclidean distance), so no true top-k member can
ever be discarded.

The refinement step fetches the exact vectors of the survivors from the
underlying :class:`~repro.storage.decomposed.DecomposedStore` and computes
their exact scores; its cost is proportional to the number of candidates the
filter left over, which is what Table 4 reports ("filter step" versus
"refinement step").

Execution engines
-----------------
Like :class:`~repro.core.bond.BondSearcher`, the compressed searcher offers
two engines with bit-for-bit identical results:

* ``"fused"`` (default) runs on the BOND round driver of
  :mod:`repro.core.rounds`: one pruning period at a time, the period's m
  code columns are dequantised and folded into (lower, upper) interval
  scores by one kernel from :mod:`repro.kernels.interval` inside a reusable
  workspace.  A single query is a batch of one;
  :meth:`CompressedBondSearcher.search_batch` shares each compressed
  fragment read across every query of a round still streaming whole code
  columns;
* ``"loop"`` is the seed per-dimension path, kept as the reference
  implementation and benchmark baseline (single queries only).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core import rounds
from repro.core.ordering import DecreasingQueryOrdering, DimensionOrdering
from repro.core.schedules import FixedPeriodSchedule, PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.core.rounds import QueryRun
from repro.engine.cost import COMPRESSED_BYTES
from repro.errors import QueryError
from repro.kernels.interval import (
    IntervalBlockKernel,
    IntervalWorkspace,
    interval_kernel_for,
    provably_zero_dimensions,
)
from repro.metrics.base import Metric
from repro.metrics.histogram import HistogramIntersection
from repro.metrics.weighted import WeightedSquaredEuclidean
from repro.storage.compressed import CompressedStore


def contribution_interval(
    metric: Metric,
    lower_values: np.ndarray,
    upper_values: np.ndarray,
    query_value: float,
    *,
    dimension: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on one dimension's contribution given per-value intervals.

    For histogram intersection ``min(h, q)`` is monotone in ``h``, so the
    interval maps directly.  For (weighted) squared Euclidean the contribution
    ``w (h - q)^2`` is not monotone: it is zero when the query lies inside the
    interval and otherwise attains its extremes at the interval endpoints.
    """
    if isinstance(metric, HistogramIntersection):
        return (
            metric.contributions(lower_values, query_value, dimension=dimension),
            metric.contributions(upper_values, query_value, dimension=dimension),
        )
    at_lower = metric.contributions(lower_values, query_value, dimension=dimension)
    at_upper = metric.contributions(upper_values, query_value, dimension=dimension)
    upper = np.maximum(at_lower, at_upper)
    inside = (lower_values <= query_value) & (query_value <= upper_values)
    lower = np.where(inside, 0.0, np.minimum(at_lower, at_upper))
    return lower, upper


@dataclass
class IntervalCandidates:
    """The filter's surviving OIDs with their interval partial scores."""

    oids: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __len__(self) -> int:
        return int(self.oids.shape[0])


class CompressedBondSearcher:
    """Branch-and-bound filter over quantised fragments plus exact refinement.

    Parameters
    ----------
    store:
        The compressed store (quantised fragments plus the exact store used
        for refinement).
    metric:
        Similarity or distance metric.  Defaults to histogram intersection.
    ordering:
        Dimension-ordering strategy (default: decreasing query value).
    schedule:
        Pruning-period schedule (default: every 8 dimensions, the paper's m).
    engine:
        ``"fused"`` (default) runs the interval block kernels; ``"loop"`` runs
        the original per-dimension reference path.  Both return bitwise
        identical results at identical accounted cost.

    Notes
    -----
    A searcher owns a reusable kernel workspace, so one instance must not run
    concurrent searches from multiple threads; create one searcher per thread
    (they can share the store).
    """

    def __init__(
        self,
        store: CompressedStore,
        *,
        metric: Metric | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        engine: str = "fused",
    ) -> None:
        if engine not in ("fused", "loop"):
            raise QueryError("engine must be 'fused' or 'loop'")
        self._store = store
        self._metric = metric if metric is not None else HistogramIntersection()
        self._ordering = ordering if ordering is not None else DecreasingQueryOrdering()
        self._schedule = schedule if schedule is not None else FixedPeriodSchedule(8)
        self._engine = engine
        self._interval_kernel = interval_kernel_for(self._metric)
        self._workspace = IntervalWorkspace()
        # Accounting of the round driver: full reads stream 1-byte codes;
        # each folded value costs the metric's ops twice (lower and upper).
        self._read_bytes = COMPRESSED_BYTES
        self._ops_per_value = 2 * self._metric.arithmetic_ops_per_value()
        # Once the candidate set has shrunk below this fraction the filter
        # fetches only the candidates' codes instead of whole fragments.
        self._positional_threshold = 0.05 * self._store.cardinality

    @property
    def store(self) -> CompressedStore:
        """The compressed store the filter runs on."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._metric

    @property
    def engine(self) -> str:
        """The execution engine in use (``"fused"`` or ``"loop"``)."""
        return self._engine

    @property
    def interval_kernel(self) -> IntervalBlockKernel:
        """The fused interval kernel matching the metric."""
        return self._interval_kernel

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Return the exact k nearest neighbours via filter-and-refine."""
        reference = self._run_loop if self._engine == "loop" else None
        return rounds.search_one(self, query, k, trace, reference=reference)

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch of queries, sharing compressed fragment reads.

        Every query runs the exact single-query filter — its own dimension
        order, pruning schedule, candidate list and interval scores — so each
        returned :class:`~repro.core.result.SearchResult` is bitwise identical
        to what :meth:`search` would return for that query.  Batches always
        run the fused interval kernels (the per-dimension loop is a
        single-query reference).  Per round, the union of the blocks of every
        query still streaming whole code columns is read (and charged) once;
        queries below the positional threshold fetch only their own
        candidates' codes (see :mod:`repro.core.rounds`).

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

    def _plan(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> QueryRun:
        """Validate one query and set up its independent filter state."""
        query = self._metric.validate_query(query)
        if query.shape[0] != self._store.dimensionality:
            raise QueryError("query dimensionality does not match the store")
        if k <= 0:
            raise QueryError("k must be at least 1")
        k = min(k, self._store.cardinality)

        weights = self._metric.weights if isinstance(self._metric, WeightedSquaredEuclidean) else None
        order = self._ordering.order(query, weights=weights)
        if weights is not None:
            order = order[weights[order] > 0.0]

        # Query-side early-out: dimensions whose interval contribution is
        # provably zero for every candidate add 0.0 to both accumulators, so
        # the engines skip their fetch and math entirely (results unchanged).
        zero_mask = provably_zero_dimensions(
            self._metric,
            self._store.minimums,
            self._store.maximums,
            self._store.cell_widths,
            query,
        )
        cardinality = self._store.cardinality
        return QueryRun(
            query=query,
            k=k,
            order=order,
            # Adaptive schedules carry per-search state, so every run gets its
            # own (shallow — schedules hold only scalar configuration) copy.
            schedule=copy.copy(self._schedule),
            candidates=IntervalCandidates(
                oids=np.arange(cardinality, dtype=np.int64),
                lower=np.zeros(cardinality, dtype=np.float64),
                upper=np.zeros(cardinality, dtype=np.float64),
            ),
            weights=weights,
            zero_dimensions=zero_mask if bool(zero_mask.any()) else None,
            trace=trace if trace is not None else PruningTrace(),
        )

    def _shares_reads(self, run: QueryRun) -> bool:
        """Filters above the positional threshold stream whole code columns;
        below it they fetch only their candidates' codes."""
        return len(run.candidates) > self._positional_threshold

    def _full_columns(self, dimensions: np.ndarray) -> list[np.ndarray]:
        """Uncharged zero-copy code columns (the round charges the read)."""
        return self._store.code_columns(dimensions, charge=False)

    def _fold_rows(
        self,
        run: QueryRun,
        dimensions: np.ndarray,
        code_columns: list[np.ndarray],
        start: int,
        stop: int,
    ) -> None:
        """Dequantise and fold whole code columns into the rows ``[start, stop)``
        (the interval kernels are elementwise per row)."""
        self._interval_kernel.accumulate_block(
            [column[start:stop] for column in code_columns],
            self._store.minimums[dimensions],
            self._store.cell_widths[dimensions],
            run.query[dimensions],
            dimensions,
            run.candidates.lower[start:stop],
            run.candidates.upper[start:stop],
            self._workspace,
        )

    def _fold_own(self, run: QueryRun, dimensions: np.ndarray, *, charge: bool) -> None:
        """Fold one block over the run's own candidates.

        The candidates' codes (1 byte each — bitwise identical to the loop's
        slice-after-dequantise but 8x lighter per value) arrive as one row
        block, processed with a few broadcast expressions; ``charge=False``
        when the round already paid a full read.
        """
        store = self._store
        candidates = run.candidates
        code_rows = store.code_row_block(
            dimensions, candidates.oids, charge="positional" if charge else None
        )
        self._interval_kernel.accumulate_row_block(
            code_rows,
            store.minimums[dimensions],
            store.cell_widths[dimensions],
            run.query[dimensions],
            dimensions,
            candidates.lower,
            candidates.upper,
            self._workspace,
        )

    def _prune(self, run: QueryRun) -> None:
        """Drop the candidates the query-only interval bounds rule out."""
        candidates = run.candidates
        keep = self._prune_mask(
            run.query, run.order, run.processed, candidates.lower, candidates.upper, run.k, run.weights
        )
        if keep.all():
            return
        run.candidates = IntervalCandidates(
            candidates.oids[keep], candidates.lower[keep], candidates.upper[keep]
        )

    def _finalize(self, run: QueryRun) -> tuple[np.ndarray, np.ndarray]:
        """The refinement step: exact scores of the filter survivors from the
        exact store, best k first."""
        oids = run.candidates.oids
        if oids.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        exact = self._store.exact
        vectors = exact.gather_matrix(oids)
        scores = self._metric.score(vectors, run.query)
        exact.cost.charge_arithmetic(vectors.size * self._metric.arithmetic_ops_per_value())
        best = self._metric.best_first(scores)[: run.k]
        return oids[best], scores[best]

    def _run_loop(self, run: QueryRun) -> None:
        """The seed per-dimension reference engine."""
        cost = self._store.cost
        while not run.finished:
            dimension = int(run.order[run.processed])
            if run.zero_dimensions is not None and run.zero_dimensions[dimension]:
                # Query-side early-out: the contribution is provably 0.0 for
                # every candidate — consume the dimension without touching it
                # (same skip, same accounting as the fused engine).
                run.consume(1, self._prune)
                continue
            candidates = run.candidates
            if self._shares_reads(run):
                value_lower, value_upper = self._store.bounded_fragment(dimension)
                value_lower, value_upper = value_lower[candidates.oids], value_upper[candidates.oids]
                run.full_scan_dimensions += 1
            else:
                value_lower, value_upper = self._store.bounded_fragment_for(dimension, candidates.oids)
            contribution_lower, contribution_upper = contribution_interval(
                self._metric, value_lower, value_upper, run.query[dimension], dimension=dimension
            )
            cost.charge_arithmetic(len(candidates) * self._ops_per_value)
            candidates.lower += contribution_lower
            candidates.upper += contribution_upper
            run.consume(1, self._prune)

    # -- internals --------------------------------------------------------------

    def _prune_mask(
        self,
        query: np.ndarray,
        order: np.ndarray,
        processed: int,
        score_lower: np.ndarray,
        score_upper: np.ndarray,
        k: int,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """Query-only pruning over interval partial scores.

        An attempt that provably prunes nothing skips the k-th-bound
        selection: kappa lies between the smallest and the largest guaranteed
        score, so when every optimistic score already clears that extreme
        every candidate survives (float addition of one constant is
        monotone, so the extreme of the sums is the sum of the extreme).
        The charges are those of a full attempt either way.
        """
        cost = self._store.cost
        count = score_lower.shape[0]
        if count <= k:
            return np.ones(count, dtype=bool)
        remaining = order[processed:]
        remaining_query = query[remaining]
        cost.charge_heap(count)
        cost.charge_comparisons(count)

        # The test direction follows the accumulated contributions, not the
        # metric kind (EuclideanSimilarity accumulates distance-valued
        # intervals and applies its similarity transform only at refinement).
        if not self._metric.contributions_are_distances:
            remaining_mass = float(remaining_query.sum())
            if float(score_upper.min()) + remaining_mass >= float(score_lower.max()):
                return np.ones(count, dtype=bool)        # kappa <= max guaranteed
            guaranteed = score_lower                     # remaining contributes at least 0
            optimistic = score_upper + remaining_mass    # and at most T(q+)
            kappa = float(np.partition(guaranteed, count - k)[count - k])
            return optimistic >= kappa
        # Worst case of each remaining dimension: the farthest corner of the
        # dimension's *stored value range* [minimum, maximum].  Hard-coding
        # the unit-hypercube corner max(q, 1-q)^2 here would under-estimate
        # the worst case on data outside [0, 1] and could prune true top-k
        # members (false dismissals).
        remaining_minimums = self._store.minimums[remaining]
        remaining_maximums = self._store.maximums[remaining]
        edge = np.maximum(remaining_query - remaining_minimums, remaining_maximums - remaining_query)
        if weights is None:
            corner = float(np.sum(edge * edge))
        else:
            corner = float(np.sum(weights[remaining] * (edge * edge)))
        if float(score_lower.max()) <= float(score_upper.min()) + corner:
            return np.ones(count, dtype=bool)            # kappa >= min guaranteed
        guaranteed = score_upper + corner                # worst case for the candidate
        optimistic = score_lower                         # best case: remaining contributes 0
        kappa = float(np.partition(guaranteed, k - 1)[k - 1])
        return optimistic <= kappa
