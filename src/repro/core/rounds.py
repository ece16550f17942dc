"""The BOND round driver: one scan engine for single, batched and sharded search.

The fused form of Algorithm 2 runs here once, for the exact searcher
(:class:`~repro.core.bond.BondSearcher`: point kernels over the fragments)
and for the compressed filter of Section 7.4
(:class:`~repro.core.compressed.CompressedBondSearcher`: interval kernels over
8-bit codes).  A search is a list of :class:`QueryRun` records, one per query
(a single query is a batch of one), that advance in lockstep *rounds*: in
each round every live run folds its next pruning period — the dimensions up
to its next pruning attempt — and then passes its pruning checkpoint.

Every run keeps the exact single-query algorithm: its own dimension order,
pruning schedule, candidates, bounds and trace, so its result is bitwise
identical however many queries share its rounds.  Rounds change only how
storage is touched:

* runs that still stream whole fragments (bitmap candidates of the exact
  searcher, filters above the positional threshold of the compressed one)
  share one read of the union of their blocks, charged once per round;
* of those, the runs whose candidates still cover every row consume the
  fragments in row tiles: each run folds a tile while it is cache-resident,
  then the round moves on.  Score accumulation is elementwise per row, so
  tiling changes no accumulated float.  The tile is the whole store when one
  run scans it and :data:`TILE_ROWS` rows when several do;
* runs that have shrunk to a small candidate list fetch (and are charged
  for) only their own candidates' values.

The searcher supplies the per-run hooks the driver calls:

``_plan(query, k, *, trace=None)``
    validate one query and return its :class:`QueryRun`;
``_shares_reads(run)``
    whether the run streams whole fragments this round;
``_full_columns(dimensions)``
    the uncharged full columns of a block;
``_fold_rows(run, dimensions, columns, start, stop)``
    fold full columns over the row range ``[start, stop)``;
``_fold_own(run, dimensions, *, charge)``
    gather and fold the run's own candidates' values;
``_prune(run)``
    drop the candidates that can no longer reach the top k;
``_finalize(run)``
    complete (or refine) the survivors' exact scores and return the best k
    as ``(oids, scores)``;

plus two accounting attributes: ``_read_bytes`` (bytes per coefficient of a
full-fragment read) and ``_ops_per_value`` (arithmetic per folded value).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.bounds.base import OrderStatistics
from repro.core.planner import PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.errors import QueryError

#: Row-tile height of a round in which several runs scan the whole store: a
#: pruning period of the paper's m = 8 fragments over 8192 float64 rows is
#: 512 KiB, comfortably L2-resident while every run of the round consumes it.
TILE_ROWS = 8192


@dataclass
class QueryRun:
    """The in-flight state of one query.

    ``candidates`` is the searcher's survivor state — a
    :class:`~repro.core.candidates.CandidateSet` for the exact searcher,
    :class:`~repro.core.compressed.IntervalCandidates` for the compressed
    one; ``len(candidates)`` is the number of survivors.
    """

    query: np.ndarray
    k: int
    order: np.ndarray
    schedule: PruningSchedule
    candidates: Any
    weights: np.ndarray | None = None
    #: Exact searcher: the order extended to every dimension and its
    #: statistics, which the pruning bounds read.
    full_order: np.ndarray | None = None
    statistics: OrderStatistics | None = None
    #: Compressed searcher: True where the interval contribution is provably
    #: zero for every candidate (see
    #: :func:`repro.kernels.interval.provably_zero_dimensions`), else None.
    zero_dimensions: np.ndarray | None = None
    trace: PruningTrace = field(default_factory=PruningTrace)
    processed: int = 0
    full_scan_dimensions: int = 0
    next_attempt: int = 0
    result: SearchResult | None = None
    #: How many dimensions this query processes at most.
    total_dimensions: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_dimensions = int(self.order.shape[0])
        self.trace.record(0, len(self.candidates))
        self.next_attempt = self.schedule.first_batch(self.total_dimensions)

    @property
    def finished(self) -> bool:
        """Whether the scan is over: dimensions exhausted or k survivors left."""
        return self.processed >= self.total_dimensions or len(self.candidates) <= self.k

    def next_block(self) -> np.ndarray:
        """The dimensions of the upcoming round: up to the next pruning
        attempt (at least one), clipped to the remaining order."""
        block_end = min(max(self.next_attempt, self.processed + 1), self.total_dimensions)
        return self.order[self.processed:block_end]

    def active(self, block: np.ndarray) -> np.ndarray:
        """The block minus the provably-zero dimensions.

        Skipped dimensions still count as processed (the pruning bounds treat
        them as consumed) but are never fetched, folded or charged: their
        contribution is exactly 0.0 for every candidate.
        """
        if self.zero_dimensions is None:
            return block
        return block[~self.zero_dimensions[block]]

    def consume(self, dimensions: int, prune: Callable[["QueryRun"], None]) -> None:
        """Count ``dimensions`` more as processed; when a pruning attempt is
        due, ``prune`` the candidates, record the trace point and plan the
        next attempt.  The loop engines and the round driver share this, so
        their pruning decisions cannot drift apart."""
        self.processed += dimensions
        if self.processed < self.next_attempt and self.processed != self.total_dimensions:
            return
        before = len(self.candidates)
        prune(self)
        after = len(self.candidates)
        self.trace.record(self.processed, after)
        self.next_attempt = self.processed + self.schedule.next_batch(
            dimensionality=self.total_dimensions,
            dimensions_processed=self.processed,
            candidates_before=before,
            candidates_after=after,
        )


def query_matrix(queries: np.ndarray) -> np.ndarray:
    """A batch as a ``(batch, N)`` float64 matrix (a 1-D query is a batch of one)."""
    matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if matrix.ndim != 2:
        raise QueryError(f"queries must form a 2-D matrix, got shape {matrix.shape}")
    return matrix


def search_one(
    searcher,
    query: np.ndarray,
    k: int,
    trace: PruningTrace | None = None,
    *,
    reference: Callable[[QueryRun], None] | None = None,
) -> SearchResult:
    """One query as a batch of one; ``reference`` (the searcher's
    per-dimension loop) drives the run instead of the rounds when given."""
    started = time.perf_counter()
    return _execute(searcher, [searcher._plan(query, k, trace=trace)], started, reference).single()


def search_batch(searcher, queries: np.ndarray, k: int) -> BatchSearchResult:
    """Every query of the batch through shared rounds, results in order."""
    started = time.perf_counter()
    runs = [searcher._plan(query, k) for query in query_matrix(queries)]
    return _execute(searcher, runs, started)


def _execute(
    searcher,
    runs: list[QueryRun],
    started: float,
    reference: Callable[[QueryRun], None] | None = None,
) -> BatchSearchResult:
    """Drive planned runs to their results; the cost account starts after
    planning, the wall clock at ``started``."""
    cost = searcher.store.cost
    checkpoint = cost.checkpoint()
    if reference is not None:
        for run in runs:
            reference(run)
    results = run_rounds(searcher, runs)
    return BatchSearchResult(
        results=results,
        cost=cost.since(checkpoint),
        elapsed_seconds=time.perf_counter() - started,
    )


def run_rounds(searcher, runs: list[QueryRun]) -> list[SearchResult]:
    """Advance every run round by round until each has its result."""
    live = [run for run in runs if not _settle(searcher, run)]
    while live:
        live = _round(searcher, live)
    return [run.result for run in runs]


def _settle(searcher, run: QueryRun) -> bool:
    """Build a finished run's result; True once the run has one."""
    if not run.finished:
        return False
    oids, scores = searcher._finalize(run)
    run.result = SearchResult(
        oids=oids,
        scores=scores,
        dimensions_processed=run.processed,
        full_scan_dimensions=run.full_scan_dimensions,
        candidate_trace=run.trace,
    )
    return True


def _round(searcher, live: list[QueryRun]) -> list[QueryRun]:
    """One round: every live run folds its next block and checkpoints;
    returns the runs still live afterwards."""
    entries = []
    shared = []
    for run in live:
        block = run.next_block()
        active = run.active(block)
        full_reads = searcher._shares_reads(run)
        entries.append((run, block, active, full_reads))
        if full_reads:
            shared.append((run, active))
        elif active.size:
            searcher._fold_own(run, active, charge=True)
    if shared:
        _shared_scan(searcher, shared)

    cost = searcher.store.cost
    prune = searcher._prune
    still_live = []
    for run, block, active, full_reads in entries:
        if full_reads:
            run.full_scan_dimensions += active.size
        cost.charge_arithmetic(len(run.candidates) * active.size * searcher._ops_per_value)
        run.consume(block.size, prune)
        if not _settle(searcher, run):
            still_live.append(run)
    return still_live


def _shared_scan(searcher, shared: list) -> None:
    """Fold the round's full-fragment runs over one shared read."""
    store = searcher.store
    reads = [active for _run, active in shared if active.size]
    if not reads:
        return
    width = reads[0].size if len(reads) == 1 else np.unique(np.concatenate(reads)).size
    rows = store.cardinality
    store.cost.charge_block_scan(rows, width, searcher._read_bytes)

    full = []
    for run, active in shared:
        if not active.size:
            continue
        if len(run.candidates) == rows:
            full.append((run, active, searcher._full_columns(active)))
        else:
            searcher._fold_own(run, active, charge=False)
    if not full:
        return
    tile = rows if len(full) == 1 else TILE_ROWS
    for start in range(0, rows, tile):
        stop = min(start + tile, rows)
        for run, active, columns in full:
            searcher._fold_rows(run, active, columns, start, stop)
