"""Scatter-gather serving: one :class:`SearchService` per shard group.

The multi-service deployment shape over the serving layer: a
:class:`ClusterCoordinator` cuts the collection into contiguous **shard
groups** (a :class:`~repro.storage.sharding.ShardPlan` at the group level),
builds one sub-:class:`~repro.api.index.Index` plus one
:class:`~repro.serving.SearchService` per group, and serves each submitted
query by scattering it to every member concurrently and gathering the
per-group top-k with the same deterministic score-then-ascending-OID merge
the sharded engines use (:func:`~repro.core.parallel.merge_shard_results`).
Because groups are contiguous row ranges in collection order, the gathered
answer is **bitwise identical** to one ``Index`` over the whole collection
answering the same query — the shard-merge identity argument, lifted one
deployment level up.

Each member is a full serving stack: its own micro-batching admission loop,
retry / failover / breaker machinery, and (optionally, via
``index_options={"shards": ..., "shard_executor": "process"}``) its own
process-pool sharded engines — the coordinator composes with, rather than
replaces, everything below it.

Failure semantics mirror ``on_shard_failure``: with ``on_group_failure="fail"``
(default) the lowest-indexed failed group's error is re-raised (typed, so
callers' retry logic applies); with ``"partial"`` the surviving groups'
top-k is merged into a ``degraded`` answer whose ``failed_shards`` carries
the failed **group** indices.  If no group survives, the first error is
raised regardless.

Lifecycle: ``await start()`` / ``await stop()`` (or ``async with``).  The
coordinator owns its members: ``stop()`` stops every service, and each
service closes its sub-index (``owns_index=True``) — cached sharded engines,
process pools and shared-memory segments included.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.api.index import Index
from repro.api.query import Query
from repro.core.parallel import check_failure_policy, gather_surviving, merge_shard_results
from repro.core.result import SearchResult
from repro.engine.cost import CostAccount
from repro.errors import QueryError, ServingError
from repro.serving.service import SearchService, ServingConfig
from repro.serving.stats import ServiceHealth, ServingStats
from repro.storage.sharding import ShardPlan


@dataclass(frozen=True)
class ClusterStats:
    """Aggregated serving statistics across the members.

    ``members`` holds every member's full
    :class:`~repro.serving.stats.ServingStats` (group order); the scalar
    fields sum the core request counters across them.  One submitted query
    counts once **per member** it was scattered to.
    """

    members: tuple[ServingStats, ...]
    submitted: int
    completed: int
    failed: int
    rejected: int
    expired: int
    retries: int
    failovers: int
    batches: int
    pending: int
    cost: CostAccount

    @classmethod
    def aggregate(cls, members: tuple[ServingStats, ...]) -> "ClusterStats":
        cost = CostAccount()
        for stats in members:
            cost.add(stats.cost)
        return cls(
            members=members,
            submitted=sum(s.submitted for s in members),
            completed=sum(s.completed for s in members),
            failed=sum(s.failed for s in members),
            rejected=sum(s.rejected for s in members),
            expired=sum(s.expired for s in members),
            retries=sum(s.retries for s in members),
            failovers=sum(s.failovers for s in members),
            batches=sum(s.batches for s in members),
            pending=sum(s.pending for s in members),
            cost=cost,
        )


@dataclass(frozen=True)
class ClusterHealth:
    """Aggregated health across the members.

    ``running`` is the conjunction (the cluster serves complete answers only
    while every member accepts work); ``degraded_members`` names the group
    indices that are not running.
    """

    members: tuple[ServiceHealth, ...]
    running: bool
    pending: int
    degraded_members: tuple[int, ...]

    @classmethod
    def aggregate(cls, members: tuple[ServiceHealth, ...]) -> "ClusterHealth":
        down = tuple(
            group for group, health in enumerate(members) if not health.running
        )
        return cls(
            members=members,
            running=not down,
            pending=sum(h.pending for h in members),
            degraded_members=down,
        )


class ClusterCoordinator:
    """Scatter-gather front end over one collection split into shard groups.

    Parameters
    ----------
    vectors:
        The full collection; rows are cut into contiguous groups.
    groups:
        Group count, or a ready group-level
        :class:`~repro.storage.sharding.ShardPlan`.
    name:
        Label prefix of the member sub-indexes (``{name}-g{i}``).
    config:
        The :class:`~repro.serving.ServingConfig` every member runs with.
    on_group_failure:
        ``"fail"`` (default) re-raises the first failed group's error;
        ``"partial"`` merges the surviving groups into a degraded answer.
    index_options:
        Extra :class:`~repro.api.index.Index` build options applied to every
        member (``bits``, ``format``, ``shards``, ``shard_executor``, ...).
    """

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        groups: int | ShardPlan = 2,
        name: str = "cluster",
        config: ServingConfig | None = None,
        on_group_failure: str = "fail",
        index_options: dict | None = None,
    ) -> None:
        check_failure_policy(on_group_failure, "on_group_failure")
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise QueryError(
                f"a coordinator needs a non-empty 2-D vector matrix, got {matrix.shape}"
            )
        plan = (
            groups
            if isinstance(groups, ShardPlan)
            else ShardPlan.balanced(int(matrix.shape[0]), int(groups))
        )
        if plan.cardinality != matrix.shape[0]:
            raise QueryError(
                f"group plan covers {plan.cardinality} rows, "
                f"the collection holds {matrix.shape[0]}"
            )
        self._plan = plan
        self._on_group_failure = on_group_failure
        options = dict(index_options or {})
        self._indexes = [
            Index.build(matrix[start:stop], name=f"{name}-g{group}", **options)
            for group, (start, stop) in enumerate(plan.ranges)
        ]
        self._services = [
            SearchService(index, config=config, owns_index=True)
            for index in self._indexes
        ]
        self._started = False

    # -- introspection ------------------------------------------------------

    @property
    def group_plan(self) -> ShardPlan:
        """The contiguous row partition into shard groups."""
        return self._plan

    @property
    def num_groups(self) -> int:
        """Number of shard groups (= member services)."""
        return self._plan.num_shards

    @property
    def services(self) -> tuple[SearchService, ...]:
        """The member services, in group order."""
        return tuple(self._services)

    @property
    def indexes(self) -> tuple[Index, ...]:
        """The member sub-indexes, in group order."""
        return tuple(self._indexes)

    @property
    def on_group_failure(self) -> str:
        """The group-failure policy (``"fail"`` / ``"partial"``)."""
        return self._on_group_failure

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ClusterCoordinator":
        """Start every member service."""
        if self._started:
            raise ServingError("the coordinator is already started")
        self._started = True
        for service in self._services:
            await service.start()
        return self

    async def stop(self, *, drain: bool = True, drain_timeout: float | None = None) -> None:
        """Stop every member service; each closes the sub-index it owns."""
        for service in self._services:
            await service.stop(drain=drain, drain_timeout=drain_timeout)

    async def __aenter__(self) -> "ClusterCoordinator":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- serving ------------------------------------------------------------

    async def submit(
        self,
        vector: np.ndarray,
        *,
        k: int = 10,
        metric=None,
        weights: np.ndarray | None = None,
        subspace: np.ndarray | None = None,
        mode: str = "exact",
        backend: str | None = None,
        approx_params: dict | None = None,
        timeout: float | None = None,
    ) -> SearchResult:
        """Scatter one query to every group, gather the deterministic top-k.

        Arguments mirror :meth:`SearchService.submit`.  The merged result's
        OIDs are **global** (group-local OIDs offset by the group's start
        row), its cost is the sum of the members' per-request deltas, and
        ``degraded`` / ``failed_shards`` carry group-level partial failures
        under ``on_group_failure="partial"``.
        """
        started = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                service.submit(
                    vector,
                    k=k,
                    metric=metric,
                    weights=weights,
                    subspace=subspace,
                    mode=mode,
                    backend=backend,
                    approx_params=approx_params,
                    timeout=timeout,
                )
                for service in self._services
            ),
            return_exceptions=True,
        )

        def merge(survivors: list[tuple[int, SearchResult]]) -> list[SearchResult]:
            # Resolve the metric exactly as the members did (same Query surface).
            resolved = Query(
                vector,
                k=k,
                metric=metric,
                weights=weights,
                subspace=subspace,
                mode=mode,
                backend=backend,
                approx_params=approx_params,
            ).resolve_metric()
            merged = merge_shard_results(
                resolved,
                [result for _, result in survivors],
                self._plan,
                k,
                shard_indices=[group for group, _ in survivors],
            )
            merged.cost = CostAccount()
            for _, result in survivors:
                if result.cost is not None:
                    merged.cost.add(result.cost)
            # A member may itself have served a degraded (shard-partial)
            # answer; surface the flag so callers never mistake a partial
            # merge for a complete one (a lost group overrides it).
            degraded = tuple(group for group, result in survivors if result.degraded)
            if degraded:
                merged.degraded = True
                merged.failed_shards = degraded
            return [merged]

        (merged,) = gather_surviving(outcomes, self._on_group_failure, merge)
        merged.elapsed_seconds = time.perf_counter() - started
        return merged

    # -- observability ------------------------------------------------------

    def stats(self) -> ClusterStats:
        """Aggregate every member's serving statistics."""
        return ClusterStats.aggregate(
            tuple(service.stats() for service in self._services)
        )

    def health(self) -> ClusterHealth:
        """Aggregate every member's health snapshot."""
        return ClusterHealth.aggregate(
            tuple(service.health() for service in self._services)
        )
