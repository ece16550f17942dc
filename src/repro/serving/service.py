"""The asyncio query-serving front end.

:class:`SearchService` turns a stream of independent single-query submissions
into the micro-batches batched search is fast at.  Callers ``await
service.submit(vector, k=...)`` and get their own
:class:`~repro.core.result.SearchResult` back; between submission and
execution the service coalesces compatible requests (same ``k``, metric,
mode, backend pin, approx knobs) under a **latency budget**: the oldest
waiting request
never waits longer than the budget for peers to share its batch, and a full
batch flushes immediately.  Execution happens through the PR 3 platform —
``Index.answer(Query(..., batch=True))`` on a worker executor, so the event
loop never blocks and the planner keeps choosing the backend (including the
sharded thread pool) exactly as it would for a direct call.  Served answers
are therefore **bitwise identical** to direct ``Index.answer`` calls.

Admission control is explicit: the waiting queue is bounded and overflow
raises :class:`~repro.errors.QueueFull` at the submitter, the standard
load-shedding contract of an open system.  Shutdown drains: pending requests
flush (budget waived), in-flight batches finish, then the executor closes —
but never for longer than ``drain_timeout``.

Failure handling (see :mod:`repro.reliability`): every request may carry its
own deadline (``submit(..., timeout=...)`` →
:class:`~repro.errors.DeadlineExceeded`, and expired requests are evicted
*before* they ride a batch); a batch whose execution raises a
:class:`~repro.errors.TransientBackendError` is retried with bounded
exponential backoff under a per-service retry budget; execution itself walks
the plan's failover chain, skipping backends whose circuit breaker is open.
Because every backend is exact, a retried or failed-over answer is bitwise
identical to the first-try answer — the only caller-visible outcomes are the
right answer or a typed error.

The service keeps answering while the index mutates: execution goes through
``Index.execute``, which pins one epoch per batch and overlays the live
delta tail on whichever backend answers — so a batch that runs concurrently
with ``insert``/``delete``/``reorganize()`` sees one consistent snapshot and
returns exactly what ``Index.answer`` would have at that instant.

Typical usage::

    from repro.api import Index
    from repro.serving import SearchService, ServingConfig

    index = Index.build(histograms)
    async with SearchService(index, config=ServingConfig(latency_budget=0.002)) as service:
        result = await service.submit(histograms[42], k=10, metric="histogram")
    print(service.stats())
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.query import Query
from repro.core.result import BatchSearchResult, SearchResult
from repro.errors import (
    BackendError,
    DeadlineExceeded,
    FailoverExhausted,
    QueueFull,
    ServiceClosed,
    ServingError,
    TransientBackendError,
)
from repro.metrics.base import Metric
from repro.reliability.faults import fault_point
from repro.reliability.retry import CircuitBreaker, RetryBudget, RetryPolicy
from repro.serving.admission import AdmissionPolicy, resolve_admission
from repro.serving.stats import BatchStats, ServiceHealth, ServingStats, StatsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.index import Index


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of a :class:`SearchService`.

    Attributes
    ----------
    latency_budget:
        Seconds the *oldest* request of a compatible run may wait for peers
        before its micro-batch flushes regardless of size.  ``0.0`` disables
        coalescing-by-time (every admission pass flushes whatever is
        pending), which is the honest one-query-per-submit configuration.
    max_batch_size:
        Upper bound on queries per micro-batch; a compatible run reaching
        this size flushes immediately, before the budget expires.
    max_queue:
        Bound on requests occupying the service — waiting for admission or
        dispatched and still executing.  The submission that would exceed it
        is rejected with :class:`~repro.errors.QueueFull` — the caller sheds
        load instead of the backlog growing without bound (in the pending
        queue or, invisibly, in the executor's).
    admission:
        Micro-batch formation policy: ``"fifo"``, ``"overlap"``, or a ready
        :class:`~repro.serving.admission.AdmissionPolicy` instance.
    executor_workers:
        Worker threads executing batches.  The default 1 serialises batches,
        which keeps the index's shared :class:`~repro.engine.cost.CostModel`
        single-owner (the lock-free charging contract) and makes per-batch
        cost deltas exact; raise it only with an index whose backends manage
        their own accounts, or pass an executor to :class:`SearchService`.
    drain_timeout:
        Upper bound in seconds on :meth:`SearchService.stop`'s drain (pending
        flushes plus in-flight batches).  On expiry the still-unresolved
        requests fail with :class:`~repro.errors.ServingError` and the
        executor is abandoned without waiting, so a hung backend can never
        wedge shutdown.  ``None`` waits forever (the pre-deadline behaviour).
    max_retries:
        Retries *per batch* after a
        :class:`~repro.errors.TransientBackendError` (0 disables retry).
    retry_base_delay / retry_max_delay:
        Bounded exponential backoff between retries (see
        :class:`~repro.reliability.RetryPolicy`).
    retry_budget:
        Cap on total retries over the service's life (``None``: unlimited);
        once drained, transient errors fail fast (see
        :class:`~repro.reliability.RetryBudget`).
    failover:
        Walk the plan's failover chain on execution-time
        :class:`~repro.errors.BackendError` (next-cheapest capable backend
        first).  ``False`` pins every batch to its planned backend.
    breaker_threshold / breaker_cooldown:
        Per-backend circuit breaker: consecutive failures before the breaker
        opens, and seconds before it admits a half-open probe (see
        :class:`~repro.reliability.CircuitBreaker`).
    """

    latency_budget: float = 0.002
    max_batch_size: int = 32
    max_queue: int = 1024
    admission: "str | AdmissionPolicy" = "fifo"
    executor_workers: int = 1
    drain_timeout: float | None = 30.0
    max_retries: int = 3
    retry_base_delay: float = 0.01
    retry_max_delay: float = 0.25
    retry_budget: int | None = 256
    failover: bool = True
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.latency_budget < 0:
            raise ServingError("latency_budget must be non-negative")
        if self.max_batch_size < 1:
            raise ServingError("max_batch_size must be at least 1")
        if self.max_queue < 1:
            raise ServingError("max_queue must be at least 1")
        if self.executor_workers < 1:
            raise ServingError("executor_workers must be at least 1")
        if self.drain_timeout is not None and self.drain_timeout <= 0:
            raise ServingError("drain_timeout must be positive (or None for unbounded)")
        if self.max_retries < 0:
            raise ServingError("max_retries must be non-negative")
        # The delay and breaker knobs are validated by the primitives built
        # from them (RetryPolicy / RetryBudget / CircuitBreaker), constructed
        # eagerly in SearchService.__init__ so a bad config fails there.


@dataclass(eq=False)
class _PendingRequest:
    """One submitted query waiting for admission (identity-hashed)."""

    sequence: int
    query: Query
    batch_key: tuple
    signature: tuple[int, ...] | None
    future: asyncio.Future
    arrival: float
    deadline: float
    #: Absolute loop time after which the request must fail with
    #: DeadlineExceeded instead of executing (None: no per-request deadline).
    expiry: float | None = None


class SearchService:
    """Latency-budget micro-batching front end over one :class:`Index`.

    The service has a simple lifecycle: ``await start()`` (or ``async
    with``), any number of concurrent :meth:`submit` calls, ``await stop()``.
    One admission task owns the pending queue; batches execute on a worker
    executor so the event loop stays responsive while NumPy crunches.
    """

    def __init__(
        self,
        index: "Index",
        *,
        config: ServingConfig | None = None,
        executor: ThreadPoolExecutor | None = None,
        owns_index: bool = False,
    ) -> None:
        self._index = index
        self._config = config if config is not None else ServingConfig()
        self._policy = resolve_admission(self._config.admission)
        self._executor = executor
        self._owns_executor = executor is None
        # With owns_index=True the service closes the index on stop() —
        # cached sharded engines, process pools and shared-memory segments
        # included.  The ClusterCoordinator builds its members this way.
        self._owns_index = owns_index
        self._pending: deque[_PendingRequest] = deque()
        self._inflight: set[asyncio.Task] = set()
        self._inflight_requests = 0
        self._inflight_riders: set[_PendingRequest] = set()
        self._retry_policy = RetryPolicy(
            base_delay=self._config.retry_base_delay,
            max_delay=self._config.retry_max_delay,
        )
        self._retry_budget = RetryBudget(self._config.retry_budget)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._stats = StatsCollector()
        self._sequence = itertools.count()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._admission_task: asyncio.Task | None = None
        self._state = "new"  # new -> running -> draining -> closed

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "SearchService":
        """Start the admission loop (idempotence is an error: one life only)."""
        if self._state != "new":
            raise ServingError(f"cannot start a service in state {self._state!r}")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._config.executor_workers,
                thread_name_prefix="repro-serving",
            )
        self._state = "running"
        self._admission_task = asyncio.create_task(
            self._admission_loop(), name="repro-serving-admission"
        )
        return self

    async def stop(self, *, drain: bool = True, drain_timeout: float | None = None) -> None:
        """Stop the service.

        With ``drain=True`` (the default) every pending request is flushed —
        the latency budget is waived, batches still form — and in-flight
        batches complete before the executor shuts down.  With
        ``drain=False`` pending requests fail with
        :class:`~repro.errors.ServiceClosed`; batches already executing
        still complete (their callers get real results).

        The drain is bounded: ``drain_timeout`` (default
        ``config.drain_timeout``; ``None`` there means unbounded) caps the
        *total* wait.  On expiry the still-unresolved requests fail with
        :class:`~repro.errors.ServingError` and the executor is abandoned
        without joining its threads — a backend hung inside a batch can
        never wedge shutdown.
        """
        if self._state == "new":
            self._state = "closed"
            if self._owns_index:
                self._index.close()
            return
        if self._state == "closed":
            return
        timeout = self._config.drain_timeout if drain_timeout is None else drain_timeout
        self._state = "draining"
        assert (
            self._loop is not None
            and self._wake is not None
            and self._admission_task is not None
        )
        budget_end = None if timeout is None else self._loop.time() + timeout
        timed_out = False
        if drain:
            self._wake.set()
            try:
                await asyncio.wait_for(self._admission_task, timeout)
            except asyncio.TimeoutError:
                timed_out = True
        else:
            self._admission_task.cancel()
            try:
                await self._admission_task
            except asyncio.CancelledError:
                pass
            self._fail_pending(ServiceClosed("service stopped without draining"))
        # Snapshot the riders of in-flight batches *before* any cancellation:
        # cancelling a batch task runs its cleanup (which forgets its riders),
        # and the abandoned callers must still receive an error.
        abandoned = list(self._inflight_riders)
        if self._inflight and not timed_out:
            remaining = None if budget_end is None else max(0.0, budget_end - self._loop.time())
            gather = asyncio.gather(*list(self._inflight), return_exceptions=True)
            try:
                await asyncio.wait_for(gather, remaining)
            except asyncio.TimeoutError:
                timed_out = True
        if timed_out:
            for task in list(self._inflight):
                task.cancel()
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
            error = ServingError(
                f"stop() drain did not finish within drain_timeout={timeout}s; "
                "the remaining requests were abandoned"
            )
            self._fail_pending(error)
            for request in abandoned:
                if not request.future.done():
                    request.future.set_exception(error)
                    self._stats.record_failure(1)
        self._state = "closed"
        if self._owns_executor and self._executor is not None:
            # After a timed-out drain a worker thread may still be wedged in a
            # batch; joining it would reintroduce the unbounded wait.
            self._executor.shutdown(wait=not timed_out, cancel_futures=timed_out)
        if self._owns_index:
            self._index.close()

    async def __aenter__(self) -> "SearchService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- submission ---------------------------------------------------------------

    async def submit(
        self,
        vector: np.ndarray,
        *,
        k: int = 10,
        metric: "str | Metric | None" = None,
        weights: np.ndarray | None = None,
        subspace: np.ndarray | None = None,
        mode: str = "exact",
        backend: str | None = None,
        approx_params: "dict | None" = None,
        timeout: float | None = None,
    ) -> SearchResult:
        """Submit one query and await its result.

        The arguments mirror the :class:`~repro.api.query.Query` fields; the
        query is validated here, at the service boundary (bad ``k``, bad
        weights, non-finite vectors, unknown ``approx_params`` keys all raise
        :class:`~repro.errors.QueryError` before anything queues).  Raises
        :class:`~repro.errors.QueueFull` when admission control rejects the
        submission and :class:`~repro.errors.ServiceClosed` when the service
        is not running.

        ``timeout`` is a per-request deadline in seconds: a request that has
        not *started executing* within it fails with
        :class:`~repro.errors.DeadlineExceeded` — and is evicted from its
        micro-batch before the batch runs, so an expired request never
        spends backend work (unlike ``asyncio.wait_for``, which abandons the
        wait but lets the work proceed).
        """
        if self._state != "running":
            raise ServiceClosed(f"service is not accepting requests (state {self._state!r})")
        if timeout is not None and timeout <= 0:
            raise ServingError(f"timeout must be positive, got {timeout}")
        query = Query(
            vector,
            k=k,
            metric=metric,
            weights=weights,
            subspace=subspace,
            mode=mode,
            backend=backend,
            approx_params=approx_params,
        )
        if query.is_batch:
            raise ServingError(
                "submit() takes one query vector; answer whole batches "
                "directly via Index.answer(Query(matrix, ...))"
            )
        if self._queued_requests() >= self._config.max_queue:
            # A full queue may be holding slots for callers that already
            # gave up (cancelled futures, e.g. asyncio.wait_for timeouts);
            # purge those before rejecting live traffic on their account.
            self._drop_dead_requests()
        if self._queued_requests() >= self._config.max_queue:
            self._stats.record_rejection()
            raise QueueFull(
                f"serving queue is full ({self._config.max_queue} requests "
                "waiting or executing)"
            )
        assert self._loop is not None and self._wake is not None
        now = self._loop.time()
        request = _PendingRequest(
            sequence=next(self._sequence),
            query=query,
            # approx_params is frozen (hashable); queries with different
            # knobs must never share a micro-batch — they would otherwise
            # silently run with one request's recall settings.
            batch_key=(
                query.k,
                query.mode,
                query.backend,
                query.metric_spec_key(),
                query.approx_params,
            ),
            signature=self._policy.signature(query),
            future=self._loop.create_future(),
            arrival=now,
            deadline=now + self._config.latency_budget,
            expiry=None if timeout is None else now + timeout,
        )
        self._pending.append(request)
        self._stats.record_submit()
        self._wake.set()
        return await request.future

    # -- admission ----------------------------------------------------------------

    async def _admission_loop(self) -> None:
        """Run the admission passes, containing any failure.

        An exception escaping the passes (most plausibly a user-supplied
        admission policy misbehaving) must not leave submitters awaiting
        futures nobody will ever resolve: the service flips to ``"broken"``
        (submissions are refused), every queued request fails with a
        :class:`~repro.errors.ServingError` carrying the cause, and
        :meth:`stop` still shuts the service down cleanly.
        """
        try:
            await self._admission_passes()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if self._state == "running":
                self._state = "broken"
            self._fail_pending(ServingError(f"the admission loop failed: {exc!r}"))

    def _fail_pending(self, error: Exception) -> None:
        """Fail every queued request with ``error``, keeping the stats exact
        (cancelled callers count as cancelled, the rest as failed)."""
        failed = cancelled = 0
        while self._pending:
            request = self._pending.popleft()
            if request.future.done():
                cancelled += 1
            else:
                request.future.set_exception(error)
                failed += 1
        if cancelled:
            self._stats.record_cancellations(cancelled)
        if failed:
            self._stats.record_failure(failed)

    async def _admission_passes(self) -> None:
        """Coalesce pending requests into micro-batches under the budget.

        One pass per wake-up: group the queue into compatible runs, flush
        every run that is due (full, past the oldest member's deadline, or
        draining), otherwise sleep until the earliest deadline or the next
        submission — a monotonic-clock timer wheel of size one.
        """
        assert self._loop is not None and self._wake is not None
        while True:
            self._drop_dead_requests()
            self._expire_requests(self._loop.time())
            if not self._pending:
                if self._state == "draining":
                    return
                await self._wait_for_wake(None)
                continue
            now = self._loop.time()
            runs: dict[tuple, list[_PendingRequest]] = {}
            for request in self._pending:
                runs.setdefault(request.batch_key, []).append(request)
            due = [
                run
                for run in runs.values()
                if self._state == "draining"
                or len(run) >= self._config.max_batch_size
                or now >= run[0].deadline
            ]
            if due:
                for run in due:
                    self._dispatch(run)
                continue
            next_deadline = min(run[0].deadline for run in runs.values())
            expiries = [
                request.expiry for request in self._pending if request.expiry is not None
            ]
            if expiries:
                # Wake early enough to evict expired requests on time, not
                # just when the next batch deadline happens to come around.
                next_deadline = min(next_deadline, min(expiries))
            await self._wait_for_wake(max(0.0, next_deadline - now))

    async def _wait_for_wake(self, timeout: float | None) -> None:
        assert self._wake is not None
        if timeout is None:
            await self._wake.wait()
        else:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        self._wake.clear()

    def _queued_requests(self) -> int:
        """Requests occupying the bounded queue: waiting *or* dispatched.

        Counting dispatched-but-unfinished requests keeps the ``max_queue``
        backpressure contract honest under sustained overload — otherwise
        every budget expiry would move the backlog into the (unbounded)
        executor queue and :class:`~repro.errors.QueueFull` would never
        fire.
        """
        return len(self._pending) + self._inflight_requests

    def _drop_dead_requests(self) -> None:
        """Forget queued requests whose futures are already done.

        A caller that cancels its ``submit`` (a client timeout) must not keep
        occupying a ``max_queue`` slot, ride a batch whose answer nobody
        reads, or count as completed — the request is simply dropped.
        """
        dead = sum(1 for request in self._pending if request.future.done())
        if dead:
            self._stats.record_cancellations(dead)
            self._pending = deque(
                request for request in self._pending if not request.future.done()
            )

    def _expire_requests(self, now: float) -> None:
        """Fail queued requests that outlived their per-request deadline.

        Expiry is checked again at execution time (:meth:`_live_riders`), so
        a request can never ride a batch after its deadline; evicting here
        just delivers the :class:`~repro.errors.DeadlineExceeded` promptly.
        """
        expired = 0
        for request in self._pending:
            if (
                request.expiry is not None
                and now >= request.expiry
                and not request.future.done()
            ):
                request.future.set_exception(
                    DeadlineExceeded(
                        f"request {request.sequence} missed its deadline after "
                        f"waiting {now - request.arrival:.3f}s for admission"
                    )
                )
                expired += 1
        if expired:
            self._stats.record_expirations(expired)
            self._pending = deque(
                request for request in self._pending if not request.future.done()
            )

    def _dispatch(self, run: list[_PendingRequest]) -> None:
        """Group one compatible run into micro-batches and start them."""
        assert self._loop is not None
        # Group before dequeuing: if a (user-supplied) policy raises, the run
        # is still pending and the loop's failure guard can fail its futures.
        groups = self._policy.group(
            [request.signature for request in run],
            max_batch_size=self._config.max_batch_size,
        )
        if sorted(index for group in groups for index in group) != list(range(len(run))):
            raise ServingError(
                f"admission policy {self._policy.name!r} returned an invalid "
                f"partition of a {len(run)}-request run: {groups!r}"
            )
        members = set(run)
        self._pending = deque(
            request for request in self._pending if request not in members
        )
        for indices in groups:
            requests = [run[index] for index in indices]
            self._inflight_requests += len(requests)
            self._inflight_riders.update(requests)
            task = self._loop.create_task(self._execute(requests))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    # -- execution ----------------------------------------------------------------

    async def _execute(self, requests: list[_PendingRequest]) -> None:
        """Run one micro-batch on the executor and resolve its futures."""
        try:
            await self._execute_batch(requests)
        finally:
            # Dispatched requests stop counting against max_queue only once
            # their batch is done (see _queued_requests).
            self._inflight_requests -= len(requests)
            self._inflight_riders.difference_update(requests)

    def _live_riders(self, requests: list[_PendingRequest]) -> list[_PendingRequest]:
        """The riders still worth executing for: not cancelled, not expired.

        Called immediately before every (re-)execution, so an expired request
        is evicted *before* it rides a batch — failing with
        :class:`~repro.errors.DeadlineExceeded` instead of spending backend
        work on an answer its caller already wrote off.
        """
        assert self._loop is not None
        live = [request for request in requests if not request.future.done()]
        if len(live) < len(requests):
            self._stats.record_cancellations(len(requests) - len(live))
        now = self._loop.time()
        expired = [
            request
            for request in live
            if request.expiry is not None and now >= request.expiry
        ]
        if expired:
            for request in expired:
                request.future.set_exception(
                    DeadlineExceeded(
                        f"request {request.sequence} missed its deadline after "
                        f"{now - request.arrival:.3f}s, before its batch executed"
                    )
                )
            self._stats.record_expirations(len(expired))
            live = [request for request in live if not request.future.done()]
        return live

    def _fail_riders(self, requests: list[_PendingRequest], error: Exception) -> None:
        """Propagate one error to every rider still awaiting its future."""
        failed = 0
        for request in requests:
            if not request.future.done():
                request.future.set_exception(error)
                failed += 1
        if failed:
            self._stats.record_failure(failed)

    async def _execute_batch(self, requests: list[_PendingRequest]) -> None:
        assert self._loop is not None
        admitted = self._loop.time()
        attempt = 0
        while True:
            # The rider set can shrink between attempts (cancellations or
            # deadline expiries during backoff), so the batch query is
            # rebuilt per attempt from the surviving riders.
            requests = self._live_riders(requests)
            if not requests:
                return
            batch_query = self._coalesce([request.query for request in requests])
            try:
                (
                    batch_result,
                    cost_delta,
                    batch_seconds,
                    backend,
                    failed_over,
                ) = await self._loop.run_in_executor(
                    self._executor, self._answer_batch, batch_query
                )
                break
            except TransientBackendError as exc:
                if attempt < self._config.max_retries and self._retry_budget.try_acquire():
                    self._stats.record_retry()
                    await asyncio.sleep(self._retry_policy.delay(attempt))
                    attempt += 1
                    continue
                self._fail_riders(requests, exc)
                return
            except Exception as exc:  # propagate to every rider of the batch
                self._fail_riders(requests, exc)
                return
        if failed_over:
            self._stats.record_failover()
        done = self._loop.time()
        delivered = 0
        for request, result in zip(requests, batch_result.results):
            if not request.future.done():
                request.future.set_result(result)
                delivered += 1
        if delivered < len(requests):
            # Riders abandoned mid-execution (client timeout while the batch
            # ran) are cancellations, not completions — the work happened,
            # but nobody received the answer.
            self._stats.record_cancellations(len(requests) - delivered)
        self._stats.record_batch(
            BatchStats(
                batch_size=len(requests),
                sequence_numbers=tuple(request.sequence for request in requests),
                queue_waits=tuple(admitted - request.arrival for request in requests),
                batch_seconds=batch_seconds,
                cost=cost_delta,
                backend=backend,
            ),
            [done - request.arrival for request in requests],
            delivered=delivered,
        )

    def _breaker(self, backend: str) -> CircuitBreaker:
        """The circuit breaker of one backend, created on first use."""
        with self._breaker_lock:
            breaker = self._breakers.get(backend)
            if breaker is None:
                breaker = CircuitBreaker(
                    backend,
                    threshold=self._config.breaker_threshold,
                    cooldown=self._config.breaker_cooldown,
                )
                self._breakers[backend] = breaker
            return breaker

    def _answer_batch(
        self, batch_query: Query
    ) -> tuple[BatchSearchResult, object, float, str, bool]:
        """Worker-thread body: plan, execute with failover, attribute cost.

        The snapshot/delta pair brackets exactly this batch — with the
        default single-worker executor batches serialise, so the delta is
        the batch's own charge and the live account is never mutated for
        bookkeeping (see :meth:`repro.engine.cost.CostModel.delta_since`).

        Execution walks the plan's failover chain (planned backend first,
        when ``config.failover`` is on), skipping backends whose circuit
        breaker is open; each backend's outcome feeds its breaker.  If the
        whole chain fails and any failure was transient, the *transient*
        error is raised so the async retry layer re-runs the chain after
        backoff; a purely persistent exhaustion raises
        :class:`~repro.errors.FailoverExhausted` (single-entry chains
        re-raise the original error unchanged).  The last element of the
        returned tuple flags whether a non-planned backend answered.
        """
        fault_point("executor.dispatch")
        before = self._index.cost.snapshot()
        plan = self._index.plan(batch_query)
        chain = plan.failover_chain() if self._config.failover else (plan.backend_name,)
        started = time.perf_counter()
        attempts: list[tuple[str, BackendError]] = []
        transient: TransientBackendError | None = None

        def try_backend(name: str) -> BatchSearchResult | None:
            # Executing through the index (not the raw backend) keeps the
            # live-update overlay in the path: a failover substitute answers
            # over the same pinned epoch + delta tail the planned backend
            # would have, so served answers stay bitwise identical to
            # Index.answer even while updates stream in.
            nonlocal transient
            breaker = self._breaker(name)
            try:
                result = self._index.execute(batch_query, backend=name, plan=plan)
            except BackendError as exc:
                breaker.record_failure()
                attempts.append((name, exc))
                if transient is None and isinstance(exc, TransientBackendError):
                    transient = exc
                return None
            breaker.record_success()
            return result

        tried = 0
        for name in chain:
            if not self._breaker(name).allow():
                continue
            tried += 1
            result = try_backend(name)
            if result is not None:
                return (
                    result,
                    self._index.cost.delta_since(before),
                    time.perf_counter() - started,
                    name,
                    name != plan.backend_name,
                )
        if tried == 0:
            # Every breaker in the chain is open: failing fast forever would
            # never rediscover a recovered backend, so force one probe
            # through the planned backend.
            result = try_backend(plan.backend_name)
            if result is not None:
                return (
                    result,
                    self._index.cost.delta_since(before),
                    time.perf_counter() - started,
                    plan.backend_name,
                    False,
                )
        if transient is not None:
            raise transient
        if len(attempts) == 1:
            raise attempts[0][1]
        summary = "; ".join(f"{name}: {error}" for name, error in attempts)
        raise FailoverExhausted(
            f"all {len(attempts)} backends of the failover chain failed ({summary})",
            attempts=attempts,
        )

    @staticmethod
    def _coalesce(queries: list[Query]) -> Query:
        """One batch query carrying every rider's vector, first rider's spec.

        All riders share a batch key, so ``k`` / metric / mode / backend pin
        / approx knobs are interchangeable; batches of one still take the
        batch path so the
        execution shape is uniform (batched searches are bitwise identical
        to their single-query paths, which the serving test suite re-pins
        end to end).
        """
        first = queries[0]
        vectors = np.stack([query.single_vector for query in queries])
        return Query(
            vectors,
            k=first.k,
            metric=first.metric,
            weights=first.weights,
            subspace=first.subspace,
            mode=first.mode,
            batch=True,
            backend=first.backend,
            approx_params=first.approx_params,
            normalize_weights=first.normalize_weights,
        )

    # -- introspection ------------------------------------------------------------

    @property
    def index(self) -> "Index":
        """The index every micro-batch executes against."""
        return self._index

    @property
    def config(self) -> ServingConfig:
        """The (frozen) serving configuration."""
        return self._config

    @property
    def policy(self) -> AdmissionPolicy:
        """The admission policy grouping flushed runs into batches."""
        return self._policy

    @property
    def is_running(self) -> bool:
        """Whether the service currently accepts submissions."""
        return self._state == "running"

    def stats(self) -> ServingStats:
        """An immutable snapshot of the serving statistics so far."""
        return self._stats.snapshot(
            pending=len(self._pending), breakers=self._breaker_snapshots()
        )

    def health(self) -> ServiceHealth:
        """A point-in-time operational snapshot (see :class:`ServiceHealth`).

        Complements :meth:`stats`: where the stats aggregate the service's
        whole life, the health snapshot is what an operator acts on *now* —
        acceptance state, queue depth, remaining retry budget, and every
        backend circuit breaker's state.
        """
        return ServiceHealth(
            running=self.is_running,
            pending=len(self._pending),
            retry_budget_remaining=self._retry_budget.remaining,
            breakers=self._breaker_snapshots(),
        )

    def _breaker_snapshots(self):
        with self._breaker_lock:
            names = sorted(self._breakers)
            return tuple(self._breakers[name].snapshot() for name in names)


async def replay_open_loop(
    service: SearchService,
    queries,
    schedule,
    **submit_kwargs,
) -> list[SearchResult]:
    """Replay an open-loop workload: submit query ``i`` at its offset.

    ``schedule`` is an iterable of arrival offsets in seconds (an
    :class:`~repro.workload.arrivals.ArrivalSchedule` fits directly) measured
    from the moment this coroutine starts; it must provide exactly one offset
    per query — a silent prefix replay would corrupt any downstream
    query/result pairing.  Submissions happen on schedule regardless of
    earlier completions — that is what makes the load open-loop — and the
    results come back aligned with ``queries``.  The remaining keyword
    arguments go to :meth:`SearchService.submit` verbatim.
    """
    offsets = [float(offset) for offset in schedule]
    vectors = list(queries)
    if len(offsets) != len(vectors):
        raise ServingError(
            f"the arrival schedule has {len(offsets)} offsets for "
            f"{len(vectors)} queries; provide exactly one offset per query"
        )
    loop = asyncio.get_running_loop()
    started = loop.time()

    async def submit_at(offset: float, vector) -> SearchResult:
        delay = started + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await service.submit(vector, **submit_kwargs)

    # Wait for *every* submission before surfacing a failure: bailing out on
    # the first error would orphan the still-running sibling tasks (and
    # swallow their exceptions).  Callers that want per-query outcomes under
    # overload (some rejected, some served) should submit themselves and
    # inspect each result, as examples/async_serving.py does.
    outcomes = await asyncio.gather(
        *(submit_at(offset, vector) for offset, vector in zip(offsets, vectors)),
        return_exceptions=True,
    )
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return list(outcomes)
