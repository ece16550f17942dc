"""Sharded parallel search: one BOND engine per shard, merged deterministically.

The collection is cut into contiguous row shards
(:mod:`repro.storage.sharding`); every shard runs the BOND round driver of
:mod:`repro.core.rounds` on a worker-pool thread against its **private**
store and cost model, and the per-shard top-k lists are merged with a
deterministic tie-break — so the merged answers are bitwise identical to the
unsharded searchers while the scan itself uses every core the pool is given.
NumPy releases the GIL inside the large block operations the kernels issue,
so plain threads already buy real parallelism; ``executor="process"``
additionally moves each shard's whole search into a worker process over
shared-memory fragments (:mod:`repro.cluster`), taking the Python-level scan
loop off the GIL too — with answers and cost accounts bitwise identical to
the thread pool (the workers run the same driver over the same bytes and the
parent applies the same merge).

A single query is a batch of one here as well: :meth:`search` runs through
:meth:`search_batch`, so every shard task — thread or process — is one
batch.  Within a shard the driver's rounds tile the rows when several
queries scan the whole shard (see :data:`repro.core.rounds.TILE_ROWS`).

Deterministic merge
-------------------
Per query, every shard returns its local top-k (local OIDs are offset by the
shard's start row).  The merge concatenates the shard candidates, orders them
by ascending global OID and applies :meth:`~repro.metrics.base.Metric.best_first`
— a stable sort, so ties between equal scores resolve exactly as the
unsharded searcher resolves them over its ascending-OID candidate list.  A
candidate a shard dropped from its local top-k cannot reappear in the global
top-k: the k shard-mates that beat it are all in the merged pool and beat it
there too.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.core.bond import BondSearcher
from repro.core.compressed import CompressedBondSearcher
from repro.core.ordering import DimensionOrdering
from repro.core.planner import PruningSchedule
from repro.core.result import BatchSearchResult, PruningTrace, SearchResult
from repro.core.rounds import query_matrix
from repro.engine.cost import CostAccount, CostModel
from repro.errors import QueryError
from repro.metrics.base import Metric
from repro.reliability.faults import fault_point
from repro.metrics.histogram import HistogramIntersection
from repro.storage.compressed import CompressedStore
from repro.storage.decomposed import DecomposedStore
from repro.storage.sharding import ShardPlan, shard_compressed, shard_decomposed

#: Recognised shard-executor kinds: ``"thread"`` fans shards out on a
#: ThreadPoolExecutor in-process; ``"process"`` runs each shard's search in a
#: worker process over shared-memory fragments (see :mod:`repro.cluster`).
SHARD_EXECUTORS = ("thread", "process")


def shard_batch(searcher, queries: np.ndarray, k: int) -> tuple[list[SearchResult], CostAccount]:
    """One shard's task: the searcher's batch and its private cost delta.

    The delta covers planning as well as the rounds; the thread pool and the
    process workers both run exactly this, so their accounts agree.
    """
    cost = searcher.store.cost
    checkpoint = cost.checkpoint()
    results = searcher.search_batch(queries, k).results
    return results, cost.since(checkpoint)


def merge_shard_results(
    metric: Metric,
    shard_results: Sequence[SearchResult],
    plan: ShardPlan,
    k: int,
    *,
    cost: CostModel | None = None,
    shard_indices: Sequence[int] | None = None,
) -> SearchResult:
    """Merge one query's per-shard top-k lists into the global top-k.

    Shard OIDs are local; each is offset by its shard's start row before the
    pool is ordered by ascending global OID and ranked with the metric's
    stable :meth:`~repro.metrics.base.Metric.best_first` — the same
    score-then-ascending-OID tie-break the unsharded searchers apply, so the
    merged (OIDs, scores) are bitwise identical to a single-store search.

    The merged result's ``dimensions_processed`` is the deepest shard's count
    (the critical path), ``full_scan_dimensions`` is the total full-fragment
    volume across shards, and the trace sums the shards' surviving-candidate
    curves over the union of their recorded checkpoints.

    ``shard_indices`` names the shard of ``plan`` each entry of
    ``shard_results`` came from (default: all shards in order); the partial
    mode of ``on_shard_failure`` merges only the surviving subset.
    """
    if shard_indices is None:
        starts = plan.starts
    else:
        starts = [plan.starts[index] for index in shard_indices]
    offset_oids = [
        shard.oids + start
        for shard, start in zip(shard_results, starts)
    ]
    oids = np.concatenate(offset_oids)
    scores = np.concatenate([shard.scores for shard in shard_results])
    if cost is not None:
        cost.charge_heap(int(oids.shape[0]))
        cost.charge_comparisons(int(oids.shape[0]))
    by_oid = np.argsort(oids, kind="stable")
    best = by_oid[metric.best_first(scores[by_oid])[:k]]
    return SearchResult(
        oids=oids[best],
        scores=scores[best],
        dimensions_processed=max(shard.dimensions_processed for shard in shard_results),
        full_scan_dimensions=sum(shard.full_scan_dimensions for shard in shard_results),
        candidate_trace=merge_traces([shard.candidate_trace for shard in shard_results]),
    )


def merge_traces(traces: Sequence[PruningTrace]) -> PruningTrace:
    """Sum per-shard pruning curves over the union of their checkpoints.

    At each recorded dimension count, every shard contributes its last known
    surviving-candidate count at or before that point, so the merged curve
    reads as "candidates alive across all shards after m dimensions".
    """
    merged = PruningTrace()
    points = sorted({point for trace in traces for point in trace.dimensions_processed})
    for point in points:
        total = 0
        for trace in traces:
            count = trace.candidates_remaining[0] if trace.candidates_remaining else 0
            for dimensions, remaining in zip(
                trace.dimensions_processed, trace.candidates_remaining
            ):
                if dimensions <= point:
                    count = remaining
                else:
                    break
            total += count
        merged.record(point, total)
    return merged


class EngineSpec:
    """The picklable recipe of one shard's searcher.

    The thread pool builds its per-shard searchers from it and the process
    workers (:mod:`repro.cluster`) rebuild theirs from a pickled copy, so both
    run identically configured searchers.  Bound and schedule are copied per
    shard so no two shards share mutable scratch.
    """

    def __init__(
        self,
        *,
        kind: str,
        metric,
        bound=None,
        ordering=None,
        schedule=None,
        candidate_mode: str = "auto",
        switch_selectivity: float = 0.05,
    ) -> None:
        if kind not in ("exact", "compressed"):
            raise QueryError(f"engine kind must be 'exact' or 'compressed', got {kind!r}")
        self.kind = kind
        self.metric = metric
        self.bound = bound
        self.ordering = ordering
        self.schedule = schedule
        self.candidate_mode = candidate_mode
        self.switch_selectivity = switch_selectivity

    def build_searcher(self, store):
        """One shard's searcher over its shard store."""
        schedule = copy.copy(self.schedule) if self.schedule is not None else None
        if self.kind == "compressed":
            return CompressedBondSearcher(
                store, metric=self.metric, ordering=self.ordering, schedule=schedule
            )
        return BondSearcher(
            store,
            metric=self.metric,
            bound=copy.copy(self.bound) if self.bound is not None else None,
            ordering=self.ordering,
            schedule=schedule,
            candidate_mode=self.candidate_mode,
            switch_selectivity=self.switch_selectivity,
        )


class _ShardedEngineBase:
    """Shard bookkeeping, worker-pool plumbing and the full search/merge
    protocol shared by the sharded searchers.

    Subclasses only translate their constructor arguments into an
    :class:`EngineSpec`; everything else — shard stores and searchers,
    per-shard checkpointing, the pool dispatch, cost-delta merging and the
    deterministic top-k merge — lives here exactly once, so the exact and
    compressed engines cannot drift apart.
    """

    #: Recognised shard-failure policies (see ``on_shard_failure``).
    SHARD_FAILURE_MODES = ("fail", "partial")

    def __init__(
        self,
        store,
        spec: EngineSpec,
        shards: int | ShardPlan,
        workers: int | None,
        on_shard_failure: str = "fail",
        executor: str = "thread",
        process_context: str | None = None,
    ) -> None:
        plan = shards if isinstance(shards, ShardPlan) else ShardPlan.balanced(
            store.cardinality, int(shards)
        )
        if on_shard_failure not in self.SHARD_FAILURE_MODES:
            raise QueryError(
                f"on_shard_failure must be one of {self.SHARD_FAILURE_MODES}, "
                f"got {on_shard_failure!r}"
            )
        if executor not in SHARD_EXECUTORS:
            raise QueryError(
                f"executor must be one of {SHARD_EXECUTORS}, got {executor!r}"
            )
        self._plan = plan
        self._workers = plan.num_shards if workers is None else max(1, int(workers))
        self._on_shard_failure = on_shard_failure
        self._executor_kind = executor
        self._process_context = process_context
        self._executor: ThreadPoolExecutor | None = None
        self._process_pool = None  # ProcessShardExecutor, built on first use
        self._store = store
        self._spec = spec
        slicer = shard_compressed if spec.kind == "compressed" else shard_decomposed
        self._shard_stores = slicer(store, plan)
        self._searchers = [spec.build_searcher(shard_store) for shard_store in self._shard_stores]

    @property
    def store(self):
        """The parent store (cost-account owner)."""
        return self._store

    @property
    def metric(self) -> Metric:
        """The similarity / distance metric in use."""
        return self._spec.metric

    @property
    def shard_searchers(self) -> list:
        """The per-shard searchers (introspection / tests)."""
        return self._searchers

    @property
    def shard_plan(self) -> ShardPlan:
        """The row partition the engine runs over."""
        return self._plan

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self._plan.num_shards

    @property
    def workers(self) -> int:
        """Worker-thread budget of the pool."""
        return self._workers

    @property
    def on_shard_failure(self) -> str:
        """The shard-failure policy: ``"fail"`` raises the first shard's
        error; ``"partial"`` merges the surviving shards and flags the
        result ``degraded`` with the failed shard indices."""
        return self._on_shard_failure

    @property
    def shard_executor(self) -> str:
        """The executor kind the shards fan out on (``thread`` / ``process``)."""
        return self._executor_kind

    def close(self) -> None:
        """Shut the worker pools down (idempotent; a later call re-creates them).

        In process mode this also releases the engine's reference on the
        shared-memory segment — the last holder unlinks it, so a closed
        engine leaves nothing behind in ``/dev/shm``."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def _ensure_process_pool(self):
        """Build (or rebuild, after close) the process pool — on the calling
        thread, *before* any dispatcher threads start, so fork-based workers
        never fork a multithreaded parent mid-flight."""
        if self._process_pool is None:
            from repro.cluster.executor import ProcessShardExecutor
            from repro.cluster.shm import SharedStoreSegment

            if self._spec.kind == "compressed":
                segment = SharedStoreSegment(self._store.exact, compressed=self._store)
            else:
                segment = SharedStoreSegment(self._store)
            try:
                self._process_pool = ProcessShardExecutor(
                    segment,
                    self._spec,
                    self._plan,
                    self._workers,
                    context=self._process_context,
                )
            finally:
                # The pool took its own reference; drop publication's.
                segment.release()
        return self._process_pool

    def __enter__(self) -> "_ShardedEngineBase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _map_shards(self, task: Callable[[int], object]) -> list:
        """Run ``task(shard_index)`` for every shard, in the pool when it helps."""
        if self._workers <= 1 or self._plan.num_shards == 1:
            return [task(shard) for shard in range(self._plan.num_shards)]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self._workers, self._plan.num_shards),
                thread_name_prefix="repro-shard",
            )
        return list(self._executor.map(task, range(self._plan.num_shards)))

    def _run_shards_guarded(self, body: Callable[[int], object]) -> tuple[list, list]:
        """Run ``body`` per shard, splitting outcomes by the failure policy.

        Every shard task passes through the ``shard.map`` fault point and has
        its exception captured (so one dead shard never aborts the pool map
        mid-iteration).  Returns ``(successes, failures)`` as
        ``[(shard, payload)]`` / ``[(shard, error)]`` lists — unless the
        policy is ``"fail"`` (or *no* shard survived, where there is nothing
        to degrade to), in which case the lowest-indexed shard's original
        exception is re-raised, preserving its type for the retry / failover
        layers above.
        """

        def guarded(shard: int):
            try:
                fault_point("shard.map", shard=shard)
                return ("ok", body(shard))
            except Exception as exc:  # split below; never poisons the pool map
                return ("error", exc)

        outcomes = self._map_shards(guarded)
        successes: list[tuple[int, object]] = []
        failures: list[tuple[int, Exception]] = []
        for shard, (status, payload) in enumerate(outcomes):
            (successes if status == "ok" else failures).append((shard, payload))
        if failures and (self._on_shard_failure == "fail" or not successes):
            raise failures[0][1]
        return successes, failures

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Exact k nearest neighbours, searched shard-parallel and merged: the
        batch of one.  Bitwise identical to the corresponding unsharded
        searcher's ``search`` (see :func:`merge_shard_results`)."""
        result = self.search_batch(np.asarray(query, dtype=np.float64)[np.newaxis], k).single()
        if trace is not None:
            trace.dimensions_processed.extend(result.candidate_trace.dimensions_processed)
            trace.candidates_remaining.extend(result.candidate_trace.candidates_remaining)
            result.candidate_trace = trace
        return result

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Answer a whole batch shard-parallel: every shard runs its searcher's
        batch over all queries, then each query's shard top-k lists are
        merged.  Bitwise identical to the unsharded ``search_batch``."""
        started = time.perf_counter()
        matrix = query_matrix(queries)
        parent_cost = self._store.cost
        checkpoint = parent_cost.checkpoint()
        pool = self._ensure_process_pool() if self._executor_kind == "process" else None

        def run_shard(shard: int):
            if pool is not None:
                return pool.search_batch(shard, matrix, k)
            return shard_batch(self._searchers[shard], matrix, k)

        successes, failures = self._run_shards_guarded(run_shard)
        for _, (_, delta) in successes:
            parent_cost.merge_account(delta)
        surviving = [shard for shard, _ in successes]
        per_shard = [results for _, (results, _) in successes]
        failed = tuple(shard for shard, _ in failures)
        merged = [
            merge_shard_results(
                self._spec.metric,
                [shard_results[query_index] for shard_results in per_shard],
                self._plan,
                k,
                cost=parent_cost,
                shard_indices=surviving,
            )
            for query_index in range(matrix.shape[0])
        ]
        if failed:
            for result in merged:
                result.degraded = True
                result.failed_shards = failed
        return BatchSearchResult(
            results=merged,
            cost=parent_cost.since(checkpoint),
            elapsed_seconds=time.perf_counter() - started,
        )


class ShardedBondSearcher(_ShardedEngineBase):
    """Parallel BOND over contiguous row shards, merged to the global top-k.

    Each shard holds a private :class:`~repro.storage.decomposed.DecomposedStore`
    slice (own fragments, own cost model) searched by its own
    :class:`~repro.core.bond.BondSearcher`; per-query results are merged with
    the deterministic tie-break of :func:`merge_shard_results`, so answers are
    bitwise identical to the unsharded searcher.

    Parameters
    ----------
    store:
        The parent decomposed store.  Its cost model becomes the *parent*
        account: per-shard charges are merged into it after every call, plus
        the merge's own heap/comparison work.
    shards:
        Shard count or a ready :class:`~repro.storage.sharding.ShardPlan`.
    workers:
        Worker-thread budget (default: one per shard).  ``workers=1`` runs
        the shards sequentially on the calling thread.
    on_shard_failure:
        ``"fail"`` (default) re-raises the first failed shard's error;
        ``"partial"`` degrades gracefully — the surviving shards' top-k is
        merged and flagged (``result.degraded`` / ``result.failed_shards``).
    executor:
        ``"thread"`` (default) runs shards on a thread pool; ``"process"``
        publishes the fragments into shared memory once and runs each
        shard's search in a worker process (bitwise-identical answers and
        cost accounts — see :mod:`repro.cluster`).  Process mode needs
        picklable metric / bound / ordering / schedule objects.
    process_context:
        Multiprocessing start method of process mode (``"fork"`` /
        ``"spawn"`` / ``"forkserver"``; default: the platform's).
    metric / bound / ordering / schedule / candidate_mode / switch_selectivity:
        Forwarded to every per-shard :class:`~repro.core.bond.BondSearcher`
        (see :class:`EngineSpec`).
    """

    def __init__(
        self,
        store: DecomposedStore,
        *,
        metric: Metric | None = None,
        bound=None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        candidate_mode: str = "auto",
        switch_selectivity: float = 0.05,
        shards: int | ShardPlan = 2,
        workers: int | None = None,
        on_shard_failure: str = "fail",
        executor: str = "thread",
        process_context: str | None = None,
    ) -> None:
        spec = EngineSpec(
            kind="exact",
            metric=metric if metric is not None else HistogramIntersection(),
            bound=bound,
            ordering=ordering,
            schedule=schedule,
            candidate_mode=candidate_mode,
            switch_selectivity=switch_selectivity,
        )
        super().__init__(
            store, spec, shards, workers, on_shard_failure, executor, process_context
        )


class ShardedCompressedBondSearcher(_ShardedEngineBase):
    """Parallel filter-and-refine over contiguous row shards.

    The compressed analogue of :class:`ShardedBondSearcher`: every shard is a
    :meth:`~repro.storage.compressed.CompressedStore.row_slice` view keeping
    the parent's global quantisation grid, filtered and refined by its own
    :class:`~repro.core.compressed.CompressedBondSearcher`, merged with the
    same deterministic tie-break — bitwise identical to the unsharded
    filter-and-refine searcher.
    """

    def __init__(
        self,
        store: CompressedStore,
        *,
        metric: Metric | None = None,
        ordering: DimensionOrdering | None = None,
        schedule: PruningSchedule | None = None,
        shards: int | ShardPlan = 2,
        workers: int | None = None,
        on_shard_failure: str = "fail",
        executor: str = "thread",
        process_context: str | None = None,
    ) -> None:
        spec = EngineSpec(
            kind="compressed",
            metric=metric if metric is not None else HistogramIntersection(),
            ordering=ordering,
            schedule=schedule,
        )
        super().__init__(
            store, spec, shards, workers, on_shard_failure, executor, process_context
        )


class ShardedSearcher:
    """Mode dispatcher the ``sharded_bond`` backend hands to the facade.

    One instance per (index, metric): the exact and compressed sharded
    engines are built lazily against the index's stores and shard plan, so an
    index that only ever answers exact queries never quantises its fragments.
    The :class:`~repro.api.backends.ShardedBondBackend` routes ``exact`` /
    ``approx`` queries to the exact engine and ``compressed`` queries to the
    compressed one; used directly, the object satisfies the
    :class:`repro.api.Searcher` protocol with the exact engine.
    """

    def __init__(
        self,
        index,
        metric: Metric,
        *,
        workers: int | None = None,
        on_shard_failure: str = "fail",
        executor: str = "thread",
        process_context: str | None = None,
    ) -> None:
        self._index = index
        self._metric = metric
        self._workers = workers
        self._on_shard_failure = on_shard_failure
        self._executor_kind = executor
        self._process_context = process_context
        self._exact: ShardedBondSearcher | None = None
        self._compressed: ShardedCompressedBondSearcher | None = None

    @property
    def exact_engine(self) -> ShardedBondSearcher:
        """The sharded engine over the exact decomposed fragments."""
        if self._exact is None:
            self._exact = ShardedBondSearcher(
                self._index.decomposed,
                metric=self._metric,
                shards=self._index.shard_plan,
                workers=self._workers,
                on_shard_failure=self._on_shard_failure,
                executor=self._executor_kind,
                process_context=self._process_context,
            )
        return self._exact

    @property
    def compressed_engine(self) -> ShardedCompressedBondSearcher:
        """The sharded engine over the 8-bit quantised fragments."""
        if self._compressed is None:
            self._compressed = ShardedCompressedBondSearcher(
                self._index.compressed,
                metric=self._metric,
                shards=self._index.shard_plan,
                workers=self._workers,
                on_shard_failure=self._on_shard_failure,
                executor=self._executor_kind,
                process_context=self._process_context,
            )
        return self._compressed

    def engine_for_mode(self, mode: str):
        """The engine serving one query mode (``compressed`` vs the rest)."""
        if mode == "compressed":
            return self.compressed_engine
        return self.exact_engine

    def search(self, query: np.ndarray, k: int, *, trace: PruningTrace | None = None) -> SearchResult:
        """Protocol entry point: exact-mode sharded search."""
        return self.exact_engine.search(query, k, trace=trace)

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Protocol entry point: exact-mode sharded batch search."""
        return self.exact_engine.search_batch(queries, k)

    def close(self) -> None:
        """Shut down both engines' worker pools."""
        if self._exact is not None:
            self._exact.close()
        if self._compressed is not None:
            self._compressed.close()
