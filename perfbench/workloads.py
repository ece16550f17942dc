"""The workloads: inputs from a seed, a timed phase, verified answers.

Each workload function fills ``run.metrics`` (the end-to-end metrics, from
an untraced run) or ``run.layers`` (the per-layer metrics, from a traced
run).  The program only ever receives the generated vectors and queries;
every answer it returns is checked against :class:`harness.Oracle` outside
the timed region.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import pathlib
import shutil
import sys
import time

import numpy as np

from repro import Index, Query, make_clustered_collection, make_corel_like
from repro.api.index import WAL_NAME
from repro.errors import ReproError

import layers
from harness import Oracle, Tracer, WrongAnswer, directory_bytes, median, peak_rss_mb, percentile

K = 10
#: Distinct queries per run; closed loops cycle through them in a seeded
#: order.  The tail latency of a closed loop is set by the slowest pool
#: queries, so the pool is large enough that its p99 does not hang on a few.
POOL = 256
#: The latency limit behind ``slo_met_frac``.
SLO_SECONDS = 0.050
#: The two collections are fixed (generator seeds 42 and 11), like the one
#: Corel collection of the paper's experiments: ``--seed`` draws the query
#: pool, the op mix and the arrival schedule.  A collection drawn per seed
#: moves query cost by several percent between seeds (how strongly the
#: generated bin popularity lets BOND prune), which would swamp the bounds.
COREL = {"cardinality": 59_619, "dimensionality": 166, "seed": 42}
CLUSTERED = {"cardinality": 20_000, "dimensionality": 128, "num_clusters": 1_000, "skew": 2.0, "seed": 11}
#: Set-ups per run; ``setup_s`` is their median (a save's fsyncs and the
#: host's slow spells make single set-ups vary by a quarter).
SETUP_REPEATS = 9
#: ``live-updates`` steps: a query, then with this probability one update,
#: an insert (3/4) or a delete (1/4) -- a 67/25/8 mix in which two fsyncs
#: never run back to back (a second fsync right after another returns far
#: sooner than one after a read, so the loop's write latencies, kept in the
#: run record, would otherwise hinge on op adjacency).
UPDATE_PROBABILITY, INSERT_SHARE = 0.5, 0.75
REORGANIZE_TAIL_ROWS = 250
#: Fsynced single-row inserts of the write probe, in rounds that each end in
#: verified queries and a reorganisation; 1,010 samples put 10 beyond the p99.
PROBE_INSERTS, PROBE_ROUNDS = 1_010, 5


@dataclasses.dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scratch: pathlib.Path
    roof: dict
    tracer: Tracer = dataclasses.field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    record: dict = dataclasses.field(default_factory=dict)

    def attempt(self, operation):
        """Run one program operation; a typed error counts as failed."""
        self.attempted += 1
        try:
            return operation()
        except ReproError as exc:
            self.failed += 1
            self.record.setdefault("errors", []).append(repr(exc)[:300])
            return None


@dataclasses.dataclass
class Dataset:
    vectors: np.ndarray
    pool: np.ndarray
    metric: str
    rng: np.random.Generator

    def fresh_row(self) -> np.ndarray:
        """A new valid row near a random collection row (for inserts)."""
        row = self.vectors[self.rng.integers(self.vectors.shape[0])] + self.rng.normal(
            0.0, 0.01, self.vectors.shape[1]
        )
        if self.metric == "histogram":
            row = np.abs(row)
            return row / row.sum()
        return np.clip(row, 0.0, 1.0)


def corel_dataset(seed: int) -> Dataset:
    """Corel-scale histograms; queries are rows perturbed by U(-0.01, 0.01) per bin."""
    vectors = make_corel_like(**COREL)
    rng = np.random.default_rng(seed + 1)
    rows = rng.choice(vectors.shape[0], POOL, replace=False)
    pool = np.clip(vectors[rows] + rng.uniform(-0.01, 0.01, (POOL, vectors.shape[1])), 0.0, None)
    pool /= pool.sum(axis=1, keepdims=True)
    return Dataset(vectors, pool, "histogram", rng)


def clustered_dataset(seed: int) -> Dataset:
    """The paper's Section 8 clustered data; queries are clustered rows."""
    collection = make_clustered_collection(**CLUSTERED)
    rng = np.random.default_rng(seed + 1)
    clustered_rows = np.flatnonzero(collection.labels >= 0)
    pool = collection.vectors[rng.choice(clustered_rows, POOL, replace=False)]
    return Dataset(collection.vectors, pool, "euclidean", rng)


# -- shared pieces -------------------------------------------------------------------


def repeated_setup(run: Run, make):
    """Run ``make`` (returning ``(obj, seconds, close)``) ``SETUP_REPEATS`` times.

    Returns the median set-up time and the last object; earlier objects are
    closed.  Every time is kept in the run record.
    """
    times, kept = [], None
    for attempt in range(SETUP_REPEATS):
        obj, seconds, close = make()
        times.append(seconds)
        if attempt < SETUP_REPEATS - 1:
            close()
            gc.collect()
        else:
            kept = obj
    run.record["setup_times"] = times
    return median(times), kept


class Loop:
    """Latency samples of one closed loop, split by whether they were traced."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.samples: dict[str, list[float]] = {}
        #: Seconds spent inside program calls of any kind (queries, updates,
        #: reorganisations): the client's busy time.
        self.busy = 0.0
        self.requests = 0
        self._counts: dict[str, int] = {}
        self.slo_hits = 0
        self.query_attempts = 0
        self.recalls: dict[str, list[float]] = {}
        #: Untraced latencies of each distinct (mode, pool query).
        self.by_query: dict[tuple[str, int], list[float]] = {}

    def add(self, kind: str, seconds: float, traced: bool) -> None:
        self.samples.setdefault(kind + ("@traced" if traced else ""), []).append(seconds)
        self.busy += seconds

    def _traced(self, kind: str) -> bool:
        """Every other operation of each kind is traced (in a traced run)."""
        count = self._counts.get(kind, 0)
        self._counts[kind] = count + 1
        return self.run.trace and count % 2 == 1

    def query(self, index: Index, data: Dataset, oracle: Oracle, qi: int, mode: str = "exact") -> None:
        """One timed query through ``Index.answer``; verified after timing."""
        run, tracer = self.run, self.run.tracer
        traced = self._traced("query")
        self.requests += 1
        tracer.enabled = traced
        self.query_attempts += 1
        with tracer.span("request", request=self.requests):
            start = time.perf_counter()
            with tracer.span("api.answer"):
                result = run.attempt(
                    lambda: index.answer(Query(data.pool[qi], k=K, metric=data.metric, mode=mode))
                )
            elapsed = time.perf_counter() - start
        tracer.enabled = False
        if result is None:
            return
        self.add(f"query.{mode}", elapsed, traced)
        if not traced:
            self.by_query.setdefault((mode, qi), []).append(elapsed)
        self.slo_hits += elapsed <= SLO_SECONDS
        if mode == "approx":
            oracle.validate(qi, result.oids, result.scores)
        else:
            oracle.check(qi, result.oids, result.scores, K)
        self.recalls.setdefault(mode, []).append(oracle.recall(qi, result.oids, K))

    def timed_op(self, kind: str, operation):
        """One timed non-query operation (insert / delete / reorganize)."""
        tracer = self.run.tracer
        traced = self._traced(kind)
        self.requests += 1
        tracer.enabled = traced
        with tracer.span("op", request=self.requests):
            start = time.perf_counter()
            with tracer.span(f"mutability.{kind}"):
                result = self.run.attempt(operation)
            elapsed = time.perf_counter() - start
        tracer.enabled = False
        if result is not None:
            self.add(kind, elapsed, traced)
        return result

    def report(self) -> None:
        """End-to-end query metrics (untraced) or tracing overhead (traced).

        ``query_p50_ms`` is the mean of the query modes' medians.  The modes'
        latencies differ, so the median of their pooled samples would fall
        between two modes and jump when one of them moves.

        ``query_p99_ms`` is the 99th percentile over the distinct (mode,
        pool query) pairs of each pair's median latency: how long the
        slowest percent of the workload's queries take, repeat after repeat.
        A host stall of a second or two slows every request in it, and in a
        run of half a minute that is more than a percent of the samples, so
        the percentile of the raw samples measured the host's stalls rather
        than the program (it is kept in the run record).
        """
        run = self.run
        by_mode = {mode: self.samples.get(f"query.{mode}", []) for mode in self.recalls}
        plain = [seconds for samples in by_mode.values() for seconds in samples]
        if run.trace:
            run.layers["trace.overhead_pct"] = float(
                np.mean(
                    [median(self.samples[f"query.{mode}@traced"]) / median(by_mode[mode]) - 1.0 for mode in by_mode]
                )
                * 100.0
            )
            spans = [s for s in run.tracer.spans if s[2] == "request"]
            selfs = run.tracer.self_times()
            run.layers["trace.unattributed_frac"] = median(
                [selfs[s[0]] for s in spans]
            ) / median([s[5] - s[4] for s in spans])
            return
        run.metrics["query_p50_ms"] = float(np.mean([median(samples) for samples in by_mode.values()])) * 1e3
        run.metrics["query_p99_ms"] = percentile([median(v) for v in self.by_query.values()], 99) * 1e3
        run.record["query_p99_ms_of_samples"] = percentile(plain, 99) * 1e3
        run.record["distinct_queries"] = len(self.by_query)
        # Queries per second of busy time: in live-updates the client's
        # inserts, deletes and reorganisation pauses take their share.
        run.metrics["throughput_qps"] = len(plain) / self.busy
        run.metrics["slo_met_frac"] = self.slo_hits / max(self.query_attempts, 1)
        # Recall of the approximate share where there is one (exact answers
        # are verified, so their recall is 1).
        recalls = self.recalls.get("approx") or [r for values in self.recalls.values() for r in values]
        run.metrics["recall_at_10"] = float(np.mean(recalls))
        run.record["query_samples"] = len(plain)
        run.record["query_p50_ms_by_mode"] = {mode: median(samples) * 1e3 for mode, samples in by_mode.items()}


def install_engine_spans(run: Run, index: Index, data: Dataset, modes=("exact",)) -> None:
    """Wrap the searchers the facade will use, so engine calls become spans."""
    for mode in modes:
        query = Query(data.pool[0], k=K, metric=data.metric, mode=mode)
        plan = index.plan(query)
        searcher = index.searcher_for(plan.backend, query, plan.metric)
        layer = {"exact": "core", "compressed": "compressed", "approx": "approx"}[mode]
        run.tracer.wrap(searcher, "search", f"{layer}.search")


def report_layer_self_times(run: Run) -> None:
    """Per-layer self time of the traced closed-loop operations."""
    per_layer = run.tracer.layer_self_ms(sum(1 for span in run.tracer.spans if span[1] == 0))
    run.record["self_ms_per_request"] = per_layer
    run.layers["trace.api_self_ms"] = per_layer.get("api", 0.0)
    run.layers["trace.engine_self_ms"] = sum(
        per_layer.get(name, 0.0) for name in ("core", "compressed", "approx", "cluster")
    )
    run.layers["trace.spans"] = len(run.tracer.spans)


def write_probe(run: Run, index: Index, data: Dataset, oracle: Oracle) -> None:
    """Persist the index, then time fsynced inserts, deletes and reorganisations.

    Runs after the query phase on the workload's own index, so the write
    path is measured for every index configuration while the query phase
    stays as the workload defines it.  An untraced run only saves, for the
    end-to-end space metric; a traced run goes on to the storage and
    mutability per-layer metrics (write latencies ride on the host disk's
    fsync, whose run-to-run spread is wider than any bound the end-to-end
    gate allows).
    """
    home = run.scratch / "probe-store"
    start = time.perf_counter()
    index.save(home)
    save_s = time.perf_counter() - start
    bytes_on_disk = directory_bytes(home)
    if not run.trace:
        run.metrics["stored_bytes_per_user_byte"] = bytes_on_disk / (oracle.live_count * data.vectors.shape[1] * 8)
        return

    opened = layers.open_times(home, data, oracle)

    inserts, reorganizes, reorg_bytes, wal_per_insert, overlay = [], [], [], [], []
    probe_queries = range(8)
    per_round = PROBE_INSERTS // PROBE_ROUNDS
    for _ in range(PROBE_ROUNDS):
        # Back to back, as a loader issuing single-row inserts would: the
        # fsync of an insert that directly follows another returns several
        # times sooner than one after other work, so pacing or interleaving
        # would leave the percentiles hanging on how many of each kind a run
        # happened to get.  The oracle catches up after the round.
        rows, assigned = [data.fresh_row() for _ in range(per_round)], []
        for row in rows:
            start = time.perf_counter()
            oids = run.attempt(lambda: index.insert(row))
            elapsed = time.perf_counter() - start
            if oids is not None:
                inserts.append(elapsed)
                assigned.append((row, oids))
        expected = oracle.insert(np.array([row for row, _ in assigned]))
        returned = np.concatenate([oids for _, oids in assigned])
        if not np.array_equal(returned, expected):
            raise WrongAnswer(f"inserts returned OIDs {returned.tolist()}, expected {expected.tolist()}")
        wal_per_insert.append((home / WAL_NAME).stat().st_size / per_round)
        with_tail = layers.timed_queries(run, index, data, oracle, probe_queries)
        before = layers.file_state(home)
        gc.collect()
        start = time.perf_counter()
        if run.attempt(index.reorganize) is None:
            continue
        reorganizes.append(time.perf_counter() - start)
        gc.collect()  # the retired epoch, before the next round allocates
        oracle.compact()
        reorg_bytes.append(layers.bytes_written(before, layers.file_state(home)))
        without_tail = layers.timed_queries(run, index, data, oracle, probe_queries)
        overlay.append(median(with_tail) - median(without_tail))
    deletes = []
    for _ in range(40):
        oid = int(data.rng.choice(np.flatnonzero(oracle.alive)))
        start = time.perf_counter()
        if run.attempt(lambda: index.delete([oid])) is not None:
            deletes.append(time.perf_counter() - start)
            oracle.delete([oid])
    layers.timed_queries(run, index, data, oracle, probe_queries)

    run.record["reorganize_times"] = reorganizes
    run.record["insert_samples"] = len(inserts)
    run.layers.update(
        {
            "mutability.insert_p50_ms": percentile(inserts, 50) * 1e3,
            "mutability.insert_p99_ms": percentile(inserts, 99) * 1e3,
            "mutability.reorganize_s": median(reorganizes),
            "storage.save_s": save_s,
            "storage.bytes_on_disk": float(bytes_on_disk),
            **opened,
            "mutability.wal_bytes_per_insert": median(wal_per_insert),
            "mutability.delete_ms": median(deletes) * 1e3,
            "mutability.overlay_ms": median(overlay) * 1e3,
            "mutability.reorganize_bytes_written": median(reorg_bytes),
        }
    )


def finish(run: Run, index: Index, oracle: Oracle) -> None:
    index.close()
    run.record["ties_accepted"] = oracle.ties_accepted
    samples = run.record.get("insert_samples")
    if samples is not None and samples < 1000:
        print(f"perfbench: only {samples} insert samples, so fewer than 10 lie beyond the p99", file=sys.stderr)
    if not run.trace:
        # Forked shard workers share this process's pages, so their RSS
        # overlaps it: the larger of the two is the peak footprint.
        own, child = peak_rss_mb()
        run.record["peak_rss_mb"] = {"benchmark_process": own, "largest_child": child}
        run.metrics["peak_rss_mb"] = max(own, child)
        run.metrics["success_rate"] = 1.0 - run.failed / max(run.attempted, 1)


def traced_layer_probes(run: Run, data: Dataset, oracle: Oracle) -> None:
    """The per-layer probes every traced run reports, on this workload's data.

    They run before the workload's own loop, while the oracle still mirrors
    the generated collection.
    """
    plain = Index.build(data.vectors, name="layer-probe")
    try:
        run.layers.update(layers.probe_exact(run, plain, data, oracle))
        run.layers.update(layers.probe_kernels(run, plain, data))
        run.layers.update(layers.probe_compressed(run, plain, data, oracle))
        run.layers.update(
            asyncio.run(layers.probe_serving(run, plain, data, oracle, rate=100.0, poisson_s=1.5, burst_s=0.75))
        )
    finally:
        plain.close()
    run.layers.update(layers.probe_approx(run, data))
    run.layers.update(layers.probe_cluster(run, data, oracle))
    run.layers["roofline.stream_gbps"] = run.roof["stream_gbps"]
    run.layers["roofline.madd_gflops"] = run.roof["madd_gflops"]


def closed_loop_order(seed: int) -> np.ndarray:
    """The seeded order in which a closed loop cycles through the query pool."""
    return np.random.default_rng(seed + 2).permutation(np.resize(np.arange(POOL), 100_000))


# -- corel-exact ----------------------------------------------------------------------


def corel_exact(run: Run) -> None:
    data = corel_dataset(run.seed)
    oracle = Oracle(data.vectors, data.pool, data.metric)

    def make():
        start = time.perf_counter()
        index = Index.build(data.vectors, name="corel")
        result = index.answer(Query(data.pool[0], k=K, metric=data.metric))
        elapsed = time.perf_counter() - start
        oracle.check(0, result.oids, result.scores, K)
        return index, elapsed, index.close

    setup_s, index = repeated_setup(run, make)
    if run.trace:
        traced_layer_probes(run, data, oracle)
        install_engine_spans(run, index, data)
    loop = Loop(run)
    order = closed_loop_order(run.seed)
    gc.collect()
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        loop.query(index, data, oracle, int(order[loop.requests % order.size]))
    loop.report()
    if run.trace:
        report_layer_self_times(run)
    else:
        run.metrics["setup_s"] = setup_s
    write_probe(run, index, data, oracle)
    finish(run, index, oracle)


# -- clustered-modes ------------------------------------------------------------------

MODES = ("exact", "compressed", "approx")


def clustered_modes(run: Run) -> None:
    data = clustered_dataset(run.seed)
    oracle = Oracle(data.vectors, data.pool, data.metric)

    def make():
        start = time.perf_counter()
        index = Index.build(data.vectors, name="clustered")
        results = [
            index.answer(Query(data.pool[0], k=K, metric=data.metric, mode=mode)) for mode in MODES
        ]
        elapsed = time.perf_counter() - start
        for mode, result in zip(MODES, results):
            if mode == "approx":
                oracle.validate(0, result.oids, result.scores)
            else:
                oracle.check(0, result.oids, result.scores, K)
        return index, elapsed, index.close

    setup_s, index = repeated_setup(run, make)
    if run.trace:
        traced_layer_probes(run, data, oracle)
        install_engine_spans(run, index, data, MODES)
    loop = Loop(run)
    order = closed_loop_order(run.seed)
    gc.collect()
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        mode = MODES[loop.requests % len(MODES)]
        loop.query(index, data, oracle, int(order[loop.requests % order.size]), mode)
    loop.report()
    if run.trace:
        report_layer_self_times(run)
    else:
        run.metrics["setup_s"] = setup_s
    write_probe(run, index, data, oracle)
    finish(run, index, oracle)


# -- live-updates ---------------------------------------------------------------------


def live_updates(run: Run) -> None:
    data = corel_dataset(run.seed)
    oracle = Oracle(data.vectors, data.pool, data.metric)
    stores = run.scratch / "live"

    def make():
        home = stores / f"store-{len(list(stores.glob('store-*')))}"
        start = time.perf_counter()
        with Index.build(data.vectors, name="corel") as built:
            built.save(home)
        index = Index.open(home, verify="checksum")
        result = index.answer(Query(data.pool[0], k=K, metric=data.metric))
        elapsed = time.perf_counter() - start
        oracle.check(0, result.oids, result.scores, K)

        def close():
            index.close()
            shutil.rmtree(home)

        return index, elapsed, close

    stores.mkdir(parents=True, exist_ok=True)
    setup_s, index = repeated_setup(run, make)
    if run.trace:
        traced_layer_probes(run, data, oracle)
        install_engine_spans(run, index, data)
    loop = Loop(run)
    rng = np.random.default_rng(run.seed + 4)
    reorganize_pauses = []
    gc.collect()
    deadline = time.perf_counter() + run.seconds
    while time.perf_counter() < deadline:
        loop.query(index, data, oracle, int(rng.integers(POOL)))
        draw = rng.random()
        if draw < UPDATE_PROBABILITY * INSERT_SHARE:
            row = data.fresh_row()
            oids = loop.timed_op("insert", lambda: index.insert(row))
            if oids is not None:
                # The shadow takes the row only once the program has it.
                expected = oracle.insert(row)
                if not np.array_equal(oids, expected):
                    raise WrongAnswer(f"insert returned OIDs {oids.tolist()}, expected {expected.tolist()}")
        elif draw < UPDATE_PROBABILITY:
            oid = int(rng.choice(np.flatnonzero(oracle.alive)))
            if loop.timed_op("delete", lambda: index.delete([oid])) is not None:
                oracle.delete([oid])
        if index.tail_rows >= REORGANIZE_TAIL_ROWS:
            start = time.perf_counter()
            if loop.timed_op("reorganize", index.reorganize) is None:
                continue
            reorganize_pauses.append(time.perf_counter() - start)
            gc.collect()  # the retired epoch, before the loop allocates again
            oracle.compact()
            if run.trace:
                # The new epoch brings new searchers.
                install_engine_spans(run, index, data)
    loop.report()
    inserts = loop.samples.get("insert", [])
    run.record["mixed_loop"] = {
        "insert_p50_ms": percentile(inserts, 50) * 1e3,
        "insert_p99_ms": percentile(inserts, 99) * 1e3,
        "inserts": len(inserts),
        "reorganize_times": reorganize_pauses,
    }
    # Space as the live store holds it: merged fragments plus WAL and tail.
    stored_ratio = directory_bytes(index_home(stores)) / (oracle.live_count * data.vectors.shape[1] * 8)
    if run.trace:
        report_layer_self_times(run)
        if run.attempt(index.reorganize) is not None:
            oracle.compact()
        write_probe(run, index, data, oracle)
    else:
        run.metrics["setup_s"] = setup_s
        run.metrics["stored_bytes_per_user_byte"] = stored_ratio
    finish(run, index, oracle)


def index_home(stores: pathlib.Path) -> pathlib.Path:
    """The one store directory the kept live-updates index is attached to."""
    (home,) = stores.glob("store-*")
    return home


def describe() -> dict:
    """The sizes and fixed settings of every workload (for the steadiness record)."""
    corel = f"{COREL['cardinality']}x{COREL['dimensionality']} Corel-like histograms (generator seed {COREL['seed']})"
    return {
        "corel-exact": {"collection": corel, "queries": POOL, "k": K, "load": "1 closed-loop client"},
        "clustered-modes": {
            "collection": f"{CLUSTERED['cardinality']}x{CLUSTERED['dimensionality']} clustered, "
            f"{CLUSTERED['num_clusters']} clusters, skew {CLUSTERED['skew']} (generator seed {CLUSTERED['seed']})",
            "queries": POOL,
            "k": K,
            "load": "1 closed-loop client rotating exact / compressed / approx",
        },
        "live-updates": {
            "collection": corel,
            "queries": POOL,
            "k": K,
            "load": f"1 closed-loop client: a query, then an update with probability "
            f"{UPDATE_PROBABILITY} (insert {INSERT_SHARE:.0%}, else delete); reorganize at "
            f"{REORGANIZE_TAIL_ROWS} tail rows",
            "index": "saved, reopened with verify=checksum, WAL fsync per update",
        },
        "write_probe": f"traced runs: {PROBE_INSERTS} back-to-back inserts in {PROBE_ROUNDS} rounds, each ending "
        "in a reorganize, after every workload's own phase; untraced runs only save the index",
    }


WORKLOADS = {
    "corel-exact": corel_exact,
    "clustered-modes": clustered_modes,
    "live-updates": live_updates,
}
