"""Per-layer probes of the traced run, each measured from outside its layer.

A probe times calls into one layer's public functions and reads the
counters the program already exposes (``CostModel.snapshot()`` /
``delta_since()``, ``SearchResult`` fields, ``ServingStats``).  Every probe
runs on the workload's own data, so each traced run reports every per-layer
metric, also for layers the workload itself does not load (serving and
cluster, which no closed-loop workload reaches).  Every answer a probe
receives is verified.
"""

from __future__ import annotations

import asyncio
import gc
import time

import numpy as np

from repro import Index, Query, SearchService
from repro.errors import ReproError
from repro.kernels.block import kernel_for
from repro.kernels.interval import IntervalWorkspace, interval_kernel_for

from harness import SCORE_TOLERANCE, Oracle, WrongAnswer, median, percentile

K = 10
#: Pool queries each probe runs (the first ones of the workload's pool).
PROBE_QUERIES = 64
#: Rows and dimensions of the block the kernel probes run on.
KERNEL_ROWS, KERNEL_DIMS = 16_384, 8
#: Row cap of the approximate-tier probe (the IVF build grows with the rows).
APPROX_ROWS = 20_000
#: Concurrent submitters of the serving probe's warm-up and burst.
BURST_CONCURRENCY = 64


def check_range(oracle: Oracle, qi: int, result, start: int, stop: int) -> None:
    """Check an answer of an index built over rows ``[start, stop)`` only."""
    oids = np.asarray(result.oids) + start
    oracle.validate(qi, oids, result.scores)
    scores = oracle.scores_of(qi, np.arange(start, stop))
    best = np.sort(scores)[::-1][:K] if oracle.similarity else np.sort(scores)[:K]
    if not np.allclose(result.scores, best, rtol=0.0, atol=SCORE_TOLERANCE):
        raise WrongAnswer(f"shard answer for query {qi} is not the shard's top-{K}")


def _seconds(operation):
    start = time.perf_counter()
    result = operation()
    return result, time.perf_counter() - start


def timed_queries(run, index: Index, data, oracle: Oracle, query_indices) -> list[float]:
    """Verified exact answers through ``Index.answer``; returns their times."""
    times = []
    for qi in query_indices:
        result, elapsed = _seconds(
            lambda: run.attempt(lambda: index.answer(Query(data.pool[qi], k=K, metric=data.metric)))
        )
        if result is not None:
            oracle.check(qi, result.oids, result.scores, K)
            times.append(elapsed)
    return times


def probe_exact(run, index: Index, data, oracle: Oracle) -> dict:
    """``api``, ``core`` and ``engine``: the facade against the direct engine call."""
    n, d = data.vectors.shape
    plans, facade, direct, overhead = [], [], [], []
    dims, full, scanned, deltas = [], [], [], []
    for repeat in range(3):
        for qi in range(PROBE_QUERIES):
            query = Query(data.pool[qi], k=K, metric=data.metric)
            plan, plan_s = _seconds(lambda: index.plan(query))
            searcher = index.searcher_for(plan.backend, query, plan.metric)
            before = index.cost.snapshot()
            via_facade, facade_s = _seconds(lambda: index.execute(query, plan=plan))
            delta = index.cost.delta_since(before)
            via_engine, direct_s = _seconds(lambda: searcher.search(query.single_vector, K))
            for result in (via_facade, via_engine):
                oracle.check(qi, result.oids, result.scores, K)
            plans.append(plan_s)
            facade.append(facade_s)
            direct.append(direct_s)
            overhead.append(facade_s - direct_s)
            if repeat == 0:
                dims.append(via_facade.dimensions_processed)
                full.append(via_facade.full_scan_dimensions)
                scanned.append(delta.tuples_scanned)
                deltas.append(delta)
    first_prune = []
    for qi in range(PROBE_QUERIES):
        result = index.answer(Query(data.pool[qi], k=K, metric=data.metric, trace=True))
        oracle.check(qi, result.oids, result.scores, K)
        pruned = [left for left in result.candidate_trace.candidates_remaining if left < n]
        first_prune.append(pruned[0] if pruned else n)
    bytes_read = float(np.mean([delta.bytes_read for delta in deltas]))
    achieved_gbps = bytes_read / median(direct) / 1e9
    run.record["unsharded_facade_ms"] = median(facade) * 1e3
    return {
        "api.plan_us": median(plans) * 1e6,
        "api.facade_overhead_us": median(overhead) * 1e6,
        "core.search_ms": median(direct) * 1e3,
        "core.dims_processed": float(np.mean(dims)),
        "core.full_scan_dims": float(np.mean(full)),
        "core.scan_fraction": float(np.mean(scanned)) / (n * d),
        "core.candidates_after_first_prune": float(np.mean(first_prune)),
        "engine.bytes_read_per_query": bytes_read,
        "engine.arith_ops_per_query": float(np.mean([delta.arithmetic_ops for delta in deltas])),
        "engine.comparisons_per_query": float(np.mean([delta.comparisons for delta in deltas])),
        "engine.heap_ops_per_query": float(np.mean([delta.heap_operations for delta in deltas])),
        "core.achieved_gbps": achieved_gbps,
        "core.roofline_frac": achieved_gbps / run.roof["stream_gbps"],
    }


def probe_kernels(run, index: Index, data) -> dict:
    """Block and interval kernels on one pruning period of real coefficients.

    Rates are coefficients per second; ``kernels.roofline_frac`` compares the
    block kernel with this box's elementwise multiply-add rate (one
    coefficient costs at least one multiply-add pass).
    """
    metric = index.resolved_metric(Query(data.pool[0], k=K, metric=data.metric))
    dims = np.arange(KERNEL_DIMS)
    values = np.ascontiguousarray(data.vectors[:KERNEL_ROWS, :KERNEL_DIMS])
    query_values = data.pool[0, :KERNEL_DIMS]
    kernel = kernel_for(metric)
    block = [_seconds(lambda: kernel.contribution_block(values, query_values, dims))[1] for _ in range(25)]
    store = index.compressed
    codes = [column[:KERNEL_ROWS] for column in store.code_columns(dims, charge=False)]
    interval = interval_kernel_for(metric)
    workspace = IntervalWorkspace()
    lower, upper = np.zeros(KERNEL_ROWS), np.zeros(KERNEL_ROWS)
    folds = [
        _seconds(
            lambda: interval.accumulate_block(
                codes, store.minimums[dims], store.cell_widths[dims], query_values, dims, lower, upper, workspace
            )
        )[1]
        for _ in range(25)
    ]
    coefficients = KERNEL_ROWS * KERNEL_DIMS
    block_rate = coefficients / median(block) / 1e9
    return {
        "kernels.block_gcoef_s": block_rate,
        "kernels.interval_gcoef_s": coefficients / median(folds) / 1e9,
        "kernels.roofline_frac": block_rate / (run.roof["madd_gflops"] / 2.0),
    }


def probe_compressed(run, index: Index, data, oracle: Oracle) -> dict:
    """The filter-and-refine path: 1-byte filter, exact refine of the survivors."""
    refined: list[int] = []
    exact_store = index.compressed.exact
    gather = exact_store.gather_matrix

    def counting_gather(oids, *args, **kwargs):
        refined.append(len(oids))
        return gather(oids, *args, **kwargs)

    exact_store.gather_matrix = counting_gather
    times, bytes_read = [], []
    try:
        for _ in range(2):
            for qi in range(PROBE_QUERIES):
                before = index.cost.snapshot()
                result, elapsed = _seconds(
                    lambda: index.answer(Query(data.pool[qi], k=K, metric=data.metric, mode="compressed"))
                )
                bytes_read.append(index.cost.delta_since(before).bytes_read)
                oracle.check(qi, result.oids, result.scores, K)
                times.append(elapsed)
    finally:
        del exact_store.gather_matrix
    return {
        "core.compressed_search_ms": median(times) * 1e3,
        "compressed.bytes_read_per_query": float(np.mean(bytes_read)),
        "compressed.refine_rows_per_query": sum(refined) / len(times),
    }


def probe_approx(run, data) -> dict:
    """IVF (the planner's approximate choice) under squared Euclidean distance."""
    rows = data.vectors[:APPROX_ROWS]
    oracle = Oracle(rows, data.pool[:PROBE_QUERIES], "euclidean")
    index = Index.build(rows, name="approx-probe")
    try:
        _, build_s = _seconds(lambda: index.ivf_partitions)
        times, scanned, recalls = [], [], []
        for qi in range(PROBE_QUERIES):
            before = index.cost.snapshot()
            result, elapsed = _seconds(
                lambda: index.answer(Query(data.pool[qi], k=K, metric="euclidean", mode="approx"))
            )
            scanned.append(index.cost.delta_since(before).tuples_scanned)
            oracle.validate(qi, result.oids, result.scores)
            recalls.append(oracle.recall(qi, result.oids, K))
            times.append(elapsed)
    finally:
        index.close()
    return {
        "approx.build_s": build_s,
        "approx.search_ms": median(times) * 1e3,
        "approx.scan_fraction": float(np.mean(scanned)) / rows.size,
        "approx.recall_at_10": float(np.mean(recalls)),
    }


def probe_cluster(run, data, oracle: Oracle) -> dict:
    """Process shard workers: spawn, single and batched search, scatter cost."""
    pool = data.pool
    index, first_s = _seconds(
        lambda: Index.build(data.vectors, name="cluster-probe", shards=2, shard_executor="process")
    )
    try:
        result, answer_s = _seconds(lambda: index.answer(Query(pool[0], k=K, metric=data.metric)))
        oracle.check(0, result.oids, result.scores, K)
        singles = timed_queries(run, index, data, oracle, range(PROBE_QUERIES))
        batches = []
        for start in range(0, PROBE_QUERIES, 32):
            rows = np.arange(start, start + 32)
            batch, elapsed = _seconds(lambda: index.answer(Query(pool[rows], k=K, metric=data.metric)))
            for qi, single in zip(rows, batch):
                oracle.check(int(qi), single.oids, single.scores, K)
            batches.append(elapsed / rows.size)
        ranges = index.shard_plan.ranges
    finally:
        index.close()
    shard_ms = []
    for start, stop in ranges:
        shard = Index.build(data.vectors[start:stop], name="shard-probe")
        times = []
        for qi in range(PROBE_QUERIES):
            result, elapsed = _seconds(lambda: shard.answer(Query(pool[qi], k=K, metric=data.metric)))
            check_range(oracle, qi, result, start, stop)
            times.append(elapsed)
        shard.close()
        shard_ms.append(median(times[1:]) * 1e3)
    search_ms = median(singles) * 1e3
    slowest = max(shard_ms)
    return {
        "cluster.spawn_s": first_s + answer_s - search_ms / 1e3,
        "cluster.search_ms": search_ms,
        "cluster.batch_ms_per_query": median(batches) * 1e3,
        "cluster.slowest_shard_ms": slowest,
        "cluster.scatter_overhead_ms": search_ms - slowest,
        "cluster.speedup_vs_unsharded": run.record["unsharded_facade_ms"] / search_ms,
    }


def open_times(home, data, oracle: Oracle) -> dict:
    """Plain and checksum-verified open of a saved store, and its first query."""
    plain, checked, first = [], [], []
    for _ in range(3):
        index, elapsed = _seconds(lambda: Index.open(home))
        plain.append(elapsed)
        index.close()
        index, elapsed = _seconds(lambda: Index.open(home, verify="checksum"))
        checked.append(elapsed)
        result, elapsed = _seconds(lambda: index.answer(Query(data.pool[0], k=K, metric=data.metric)))
        oracle.check(0, result.oids, result.scores, K)
        first.append(elapsed)
        index.close()
        # Free the closed index now, not whenever the collector next runs,
        # so the peak RSS does not depend on collector timing.
        del index, result
        gc.collect()
    return {
        "storage.open_s": median(plain),
        "storage.verify_s": median(checked) - median(plain),
        "storage.first_query_ms": median(first) * 1e3,
    }


def file_state(home) -> dict:
    return {path.name: (path.stat().st_size, path.stat().st_mtime_ns) for path in home.iterdir() if path.is_file()}


def bytes_written(before: dict, after: dict) -> float:
    """Bytes of the files a step created or rewrote."""
    return float(sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime)))


async def probe_serving(run, index: Index, data, oracle: Oracle, *, rate: float, poisson_s: float, burst_s: float) -> dict:
    """``serving``: a seeded Poisson open loop at ``rate``, then a saturating burst.

    Queue waits and batch sizes come from ``ServingStats``.  The generator's
    own lateness against its schedule is ``loadgen.lag_p99_ms``; the requests
    still outstanding when the Poisson phase ends are kept in the run record
    (more than one full micro-batch means the service fell behind the rate).
    """
    loop = asyncio.get_running_loop()
    service = SearchService(index)
    await service.start()
    rng = np.random.default_rng(run.seed + 3)
    order = rng.permutation(np.resize(np.arange(len(data.pool)), 100_000))
    # The service numbers requests in submit order; the Poisson phase's
    # requests follow the warm-up's.
    measured_seq = service.stats().submitted + BURST_CONCURRENCY

    async def attempt(qi: int) -> None:
        run.attempted += 1
        try:
            result = await service.submit(data.pool[qi], k=K, metric=data.metric)
        except ReproError as exc:
            run.failed += 1
            run.record.setdefault("errors", []).append(repr(exc)[:300])
            return
        oracle.check(qi, result.oids, result.scores, K)

    # Warm-up, unmeasured: one full burst.  The first batched calls after
    # set-up stall for tens of milliseconds.
    await asyncio.gather(*(attempt(int(order[i])) for i in range(BURST_CONCURRENCY)))

    tasks: set[asyncio.Task] = set()
    crashed: list[BaseException] = []
    lags = []

    def finished(task: asyncio.Task) -> None:
        # Done tasks are dropped at once; a wrong answer is kept to fail the run.
        tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            crashed.append(task.exception())

    due = loop.time()
    phase_end = due + poisson_s
    issued = 0
    while True:
        due += rng.exponential(1.0 / rate)
        if due >= phase_end:
            break
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(loop.time() - due)
        task = asyncio.create_task(attempt(int(order[issued % order.size])))
        tasks.add(task)
        task.add_done_callback(finished)
        issued += 1
    run.record["serving_outstanding_at_poisson_end"] = len(tasks)
    await asyncio.gather(*tasks)
    if crashed:
        raise crashed[0]
    poisson_stats = service.stats()

    burst_end = loop.time() + burst_s

    async def client(offset: int) -> None:
        position = offset
        while loop.time() < burst_end:
            await attempt(int(order[position % order.size]))
            position += BURST_CONCURRENCY

    await asyncio.gather(*(client(offset) for offset in range(BURST_CONCURRENCY)))
    final_stats = service.stats()
    await service.stop()

    poisson_batches = [b for b in poisson_stats.recent_batches if b.sequence_numbers[0] >= measured_seq]
    burst_batches = [b for b in final_stats.recent_batches if b.sequence_numbers[0] >= poisson_stats.submitted]
    waits = [w for b in poisson_batches for w in b.queue_waits]
    batch_seconds = [b.batch_seconds for b in poisson_batches]
    return {
        "serving.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serving.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serving.batch_ms_p50": percentile(batch_seconds, 50) * 1e3,
        "serving.batch_ms_p99": percentile(batch_seconds, 99) * 1e3,
        "serving.mean_batch_size_poisson": float(np.mean([b.batch_size for b in poisson_batches])),
        "serving.mean_batch_size_burst": float(np.mean([b.batch_size for b in burst_batches])),
        "serving.retries": float(final_stats.retries),
        "serving.failovers": float(final_stats.failovers),
        "serving.rejected": float(final_stats.rejected),
        "serving.expired": float(final_stats.expired),
        "loadgen.lag_p99_ms": percentile(lags, 99) * 1e3,
    }
