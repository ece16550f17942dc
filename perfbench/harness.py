"""Measurement plumbing shared by every workload of the benchmark.

Everything here lives outside the program under test: timers and
percentiles, an in-memory span recorder for traced runs, the brute-force
correctness oracle (with a shadow of the logical collection for workloads
that mutate it), peak-RSS readings, the hardware fingerprint and the
roofline anchor the ``*.roofline_frac`` metrics are relative to.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import platform
import resource
import sys
import threading
import time

import numpy as np

#: Answers must agree with the oracle to this absolute score tolerance.
SCORE_TOLERANCE = 1e-9


class WrongAnswer(AssertionError):
    """An exact answer disagreed with the brute-force oracle."""


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- tracing ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    Spans are recorded by the benchmark around its calls into the program's
    public functions (and by instance-level wrappers installed on objects
    the program hands out), kept in a list and written out once at the end.
    Recording is off unless :attr:`enabled` is set, so an installed wrapper
    costs one attribute check per call when tracing is off.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int, str, object, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        request = inherited if request is None else request
        span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, request, start, end))

    def record(self, name: str, start_ns: int, end_ns: int, *, parent: int = 0, request=None) -> int:
        """Add a span whose interval was measured elsewhere; returns its id."""
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, request, int(start_ns), int(end_ns)))
        return span_id

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute`` (instance-level)."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)

    def self_times(self) -> dict[int, int]:
        """Self time (ns) of every span: duration minus its children's."""
        covered: dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0) + (end - start)
        return {
            span_id: (end - start) - covered.get(span_id, 0)
            for span_id, _, _, _, start, end in self.spans
        }

    def layer_self_ms(self, requests: int) -> dict[str, float]:
        """Self time per layer (the span name's prefix), in ms per request."""
        totals: dict[str, int] = {}
        selfs = self.self_times()
        for span_id, _, name, _, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0) + selfs[span_id]
        return {layer: ns / 1e6 / max(requests, 1) for layer, ns in totals.items()}

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, request, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "request": request,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


# -- correctness oracle ----------------------------------------------------------


def brute_scores(rows: np.ndarray, queries: np.ndarray, metric: str, out=None, chunk: int = 1024) -> np.ndarray:
    """``(len(queries), len(rows))`` exact scores, computed independently.

    ``"histogram"`` is histogram intersection (similarity: sum of minima),
    ``"euclidean"`` the squared Euclidean distance.
    """
    scores = np.empty((queries.shape[0], rows.shape[0])) if out is None else out
    buffer = np.empty((min(chunk, rows.shape[0]), rows.shape[1]), dtype=np.float64)
    for start in range(0, rows.shape[0], chunk):
        block = rows[start : start + chunk]
        work = buffer[: block.shape[0]]
        for position, query in enumerate(queries):
            if metric == "histogram":
                np.minimum(block, query, out=work)
            else:
                np.subtract(block, query, out=work)
                np.multiply(work, work, out=work)
            scores[position, start : start + block.shape[0]] = work.sum(axis=1)
    return scores


class Oracle:
    """Brute-force top-k of a fixed query pool over a shadow collection.

    The shadow tracks the logical collection the way the program defines
    it: OIDs are positions in the current coordinate system (base rows,
    then inserted rows in insert order); a delete marks a row dead without
    shifting OIDs; a reorganisation compacts the survivors in order.  Every
    row's score against every pool query is computed once, when the row
    enters the shadow, so checking an answer costs one gather and one
    partial sort instead of a scan of the collection.
    """

    #: Score columns reserved for inserted rows before the matrix must grow.
    SPARE_ROWS = 4096

    def __init__(self, rows: np.ndarray, queries: np.ndarray, metric: str) -> None:
        self.metric = metric
        self.similarity = metric == "histogram"
        self.queries = queries
        # Scores by stable row id, with spare columns so inserts append
        # without copying the matrix.
        self._scores = np.empty((queries.shape[0], rows.shape[0] + self.SPARE_ROWS))
        brute_scores(rows, queries, metric, out=self._scores[:, : rows.shape[0]])
        self._rows_total = rows.shape[0]
        self.current = np.arange(rows.shape[0], dtype=np.int64)  # OID -> stable row id
        self.alive = np.ones(rows.shape[0], dtype=bool)
        self._reference_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.ties_accepted = 0

    @property
    def live_count(self) -> int:
        return int(self.alive.sum())

    def insert(self, rows: np.ndarray) -> np.ndarray:
        """Add rows; returns the OIDs the program must assign them."""
        rows = np.atleast_2d(rows)
        count = rows.shape[0]
        oids = np.arange(self.current.size, self.current.size + count, dtype=np.int64)
        stable = np.arange(self._rows_total, self._rows_total + count, dtype=np.int64)
        if self._rows_total + count > self._scores.shape[1]:
            grown = np.empty((self._scores.shape[0], self._rows_total + count + self.SPARE_ROWS))
            grown[:, : self._rows_total] = self._scores[:, : self._rows_total]
            self._scores = grown
        self._scores[:, self._rows_total : self._rows_total + count] = brute_scores(
            rows, self.queries, self.metric
        )
        self._rows_total += count
        self.current = np.concatenate([self.current, stable])
        self.alive = np.concatenate([self.alive, np.ones(count, dtype=bool)])
        self._reference_cache.clear()
        return oids

    def delete(self, oids) -> None:
        self.alive[np.asarray(oids, dtype=np.int64)] = False
        self._reference_cache.clear()

    def compact(self) -> None:
        """The effect of a reorganisation on the coordinate system."""
        self.current = self.current[self.alive]
        self.alive = np.ones(self.current.size, dtype=bool)
        self._reference_cache.clear()

    def scores_of(self, query_index: int, oids: np.ndarray) -> np.ndarray:
        return self._scores[query_index, self.current[oids]]

    def reference(self, query_index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The exact top-k (OIDs, scores) of one pool query, best first."""
        key = (query_index, k)
        cached = self._reference_cache.get(key)
        if cached is not None:
            return cached
        scores = self._scores[query_index, self.current]
        keyed = -scores if self.similarity else scores.copy()
        keyed[~self.alive] = np.inf
        k = min(k, self.live_count)
        head = np.argpartition(keyed, k - 1)[:k]
        order = np.lexsort((head, keyed[head]))
        oids = head[order].astype(np.int64)
        result = (oids, scores[oids])
        self._reference_cache[key] = result
        return result

    def validate(self, query_index: int, oids, scores) -> None:
        """Raise :class:`WrongAnswer` unless every returned row is live, unique
        and carries its true score (the contract approximate answers keep too)."""
        oids = np.asarray(oids, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if oids.size == 0 or oids.shape != scores.shape:
            raise WrongAnswer(f"query {query_index}: malformed answer of {oids.size} OIDs")
        if np.unique(oids).size != oids.size:
            raise WrongAnswer(f"query {query_index}: duplicate OIDs {oids.tolist()}")
        if oids.min() < 0 or oids.max() >= self.current.size or not self.alive[oids].all():
            raise WrongAnswer(f"query {query_index}: OIDs outside the live collection {oids.tolist()}")
        true_scores = self.scores_of(query_index, oids)
        if not np.allclose(scores, true_scores, rtol=0.0, atol=SCORE_TOLERANCE):
            raise WrongAnswer(
                f"query {query_index}: reported scores {scores.tolist()} are not the rows' "
                f"true scores {true_scores.tolist()}"
            )

    def check(self, query_index: int, oids, scores, k: int) -> None:
        """Raise :class:`WrongAnswer` unless (oids, scores) is the exact top-k.

        OIDs must equal the reference's and every score must agree within
        :data:`SCORE_TOLERANCE`; a different OID is accepted only where the
        two rows tie (their exact scores agree within the tolerance), which
        is the one case where two correct engines may order differently.
        """
        self.validate(query_index, oids, scores)
        oids = np.asarray(oids, dtype=np.int64)
        ref_oids, ref_scores = self.reference(query_index, k)
        if oids.shape != ref_oids.shape:
            raise WrongAnswer(f"query {query_index}: {oids.size} results, expected {ref_oids.size}")
        if not np.allclose(scores, ref_scores, rtol=0.0, atol=SCORE_TOLERANCE):
            raise WrongAnswer(
                f"query {query_index}: scores {np.asarray(scores).tolist()} != reference "
                f"{ref_scores.tolist()}"
            )
        # Every returned row carries its true score and the scores match the
        # reference position by position, so a differing OID is a tie.
        self.ties_accepted += int((oids != ref_oids).sum())

    def recall(self, query_index: int, oids, k: int) -> float:
        ref_oids, _ = self.reference(query_index, k)
        return len(set(np.asarray(oids).tolist()) & set(ref_oids.tolist())) / max(ref_oids.size, 1)


# -- process and host facts -------------------------------------------------------


def stop_child_processes() -> None:
    """Stop and wait for every process this one started.

    Shard-worker pools are closed by the workloads; this catches any worker
    an error path left behind, then stops the ``multiprocessing`` resource
    tracker, which the first shared-memory segment starts and which would
    otherwise outlive this process until it noticed the closed pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: pathlib.Path) -> str:
    """Filesystem type of the mount holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 3:
                    mount = fields[1]
                    if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
                        best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def fingerprint(scratch: pathlib.Path) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fsync_filesystem": filesystem_of(scratch),
    }


def roofline() -> dict:
    """This box's streaming bandwidth and elementwise multiply-add rate.

    ``stream_gbps``: bytes moved per second by ``c = a + b`` over 32 MB
    arrays (two reads and one write per element).  ``madd_gflops``: flops
    per second of a numpy multiply followed by an add over cache-resident
    arrays, the ceiling of the elementwise kernels the engines run.
    Both are the median of several repeats.
    """
    big = 4 * 1024 * 1024
    a = np.full(big, 1.5)
    b = np.full(big, 2.5)
    c = np.empty(big)
    stream = []
    for _ in range(7):
        start = time.perf_counter()
        np.add(a, b, out=c)
        stream.append(3 * 8 * big / (time.perf_counter() - start))
    small = 32 * 1024
    x, y, z, t = (np.full(small, v) for v in (1.1, 0.9, 0.3, 0.0))
    madd = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(64):
            np.multiply(x, y, out=t)
            np.add(t, z, out=t)
        madd.append(2 * 64 * small / (time.perf_counter() - start))
    return {"stream_gbps": median(stream) / 1e9, "madd_gflops": median(madd) / 1e9}


def directory_bytes(path: pathlib.Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
