"""Admission policies: how admitted requests become micro-batches.

When the :class:`~repro.serving.service.SearchService` decides to flush — the
oldest request's latency budget ran out, or enough compatible requests piled
up — the admission policy partitions the flushed requests into the
micro-batches that actually execute.  Policies are **pure** functions over
per-request dimension signatures, so they are measurable (and property
testable) in complete isolation from the asyncio machinery: same signatures
in, same groups out, always.

Two policies ship:

* :class:`FifoAdmission` — batches are consecutive runs in arrival order,
  the neutral baseline.
* :class:`OverlapAdmission` — the ROADMAP's *adaptive batch admission*:
  requests are grouped by predicted **dimension-order overlap**.  BOND's
  round driver streams one fragment round at a time and shares each fragment
  read across every query of the round that wants it; queries whose
  decreasing-``q_i`` orderings (Section 5.1) begin with the same dimensions
  therefore share almost all of their early — and most expensive, because
  pre-pruning — fragment traffic.  The signature is simply the first ``m``
  dimensions of the query's processing order, the same cheap ``argsort`` the
  searcher performs anyway, and grouping maximises signature overlap with the
  oldest waiting request so no query is starved.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.api.query import Query
from repro.core.ordering import DecreasingQueryOrdering
from repro.errors import ServingError


class AdmissionPolicy(abc.ABC):
    """Strategy turning a flushed run of requests into micro-batches."""

    #: Name used in configuration, stats and benchmark reports.
    name: str = "admission"

    def signature(self, query: Query) -> tuple[int, ...] | None:
        """The per-query grouping signature (computed once, at submit time).

        The default policy needs none; overlap-aware policies return a small
        tuple of dimension indices.  Must be cheap — it runs on the event
        loop for every submission.
        """
        return None

    @abc.abstractmethod
    def group(
        self, signatures: list[tuple[int, ...] | None], *, max_batch_size: int
    ) -> list[list[int]]:
        """Partition request indices ``0..len(signatures)-1`` into batches.

        Returns a list of index groups, each of size ``<= max_batch_size``;
        every index appears in exactly one group.  Index ``i`` is the
        ``i``-th request of the flushed run in arrival order, so ``[[0, 1],
        [2]]`` means "first two requests share a batch, the third runs
        alone".  Implementations must be deterministic: equal signature lists
        must produce equal groups (pinned by the serving test suite).
        """

    @staticmethod
    def _validate(signatures: list, max_batch_size: int) -> None:
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be at least 1")
        if not signatures:
            raise ServingError("cannot group an empty run of requests")


class FifoAdmission(AdmissionPolicy):
    """Consecutive arrival-order runs — the neutral baseline policy."""

    name = "fifo"

    def group(
        self, signatures: list[tuple[int, ...] | None], *, max_batch_size: int
    ) -> list[list[int]]:
        self._validate(signatures, max_batch_size)
        indices = list(range(len(signatures)))
        return [
            indices[begin : begin + max_batch_size]
            for begin in range(0, len(indices), max_batch_size)
        ]


class OverlapAdmission(AdmissionPolicy):
    """Group by predicted dimension-order overlap (adaptive admission).

    Parameters
    ----------
    signature_dims:
        Length ``m`` of the dimension signature.  The first ``m`` dimensions
        of the decreasing-``q`` processing order dominate the shared fragment
        traffic (most pruning happens there), so small values (the default 16)
        already separate dissimilar queries; ``m`` values beyond the pruning
        horizon only dilute the overlap measure.
    """

    name = "overlap"

    def __init__(self, signature_dims: int = 16) -> None:
        if signature_dims < 1:
            raise ServingError("signature_dims must be at least 1")
        self.signature_dims = int(signature_dims)
        self._ordering = DecreasingQueryOrdering()

    def signature(self, query: Query) -> tuple[int, ...]:
        """The first ``m`` dimensions of the query's processing order.

        Weighted and subspace queries sign under the same ``w_i * q_i^2``
        keys the searcher will sort by (zero-weight / out-of-subspace
        dimensions sort last and never make the signature), so the signature
        predicts the *actual* fragment schedule, not the raw vector shape.
        """
        vector = query.single_vector
        weights = query.weights
        if query.subspace is not None:
            weights = np.zeros(query.dimensionality, dtype=np.float64)
            weights[query.subspace] = 1.0
        order = self._ordering.order(vector, weights=weights)
        return tuple(int(dim) for dim in order[: self.signature_dims])

    def group(
        self, signatures: list[tuple[int, ...] | None], *, max_batch_size: int
    ) -> list[list[int]]:
        """Greedy seeded grouping, anchored on the oldest waiting request.

        Repeatedly: take the earliest not-yet-grouped request as the batch
        seed (so budget-expired requests flush first — overlap never starves
        anyone), then fill the batch with the remaining requests of highest
        signature overlap with the seed, ties broken by arrival order.
        Requests without a signature overlap with nothing and fall back to
        arrival-order filling.
        """
        self._validate(signatures, max_batch_size)
        remaining = list(range(len(signatures)))
        groups: list[list[int]] = []
        while remaining:
            seed = remaining.pop(0)
            members = [seed]
            if remaining and max_batch_size > 1:
                seed_signature = signatures[seed]
                seed_set = frozenset(seed_signature) if seed_signature is not None else frozenset()
                ranked = sorted(
                    remaining,
                    key=lambda index: (
                        -self._overlap(seed_set, signatures[index]),
                        index,
                    ),
                )
                chosen = set(ranked[: max_batch_size - 1])
                # Keep arrival order inside the batch: responses and stats
                # then line up with submission order, like the fifo policy.
                members.extend(index for index in remaining if index in chosen)
                remaining = [index for index in remaining if index not in chosen]
            groups.append(members)
        return groups

    @staticmethod
    def _overlap(seed_set: frozenset, signature: tuple[int, ...] | None) -> int:
        if signature is None or not seed_set:
            return 0
        return len(seed_set.intersection(signature))


#: Registry of the built-in policies, keyed by configuration name.
ADMISSION_POLICIES = {
    FifoAdmission.name: FifoAdmission,
    OverlapAdmission.name: OverlapAdmission,
}


def resolve_admission(policy: "str | AdmissionPolicy") -> AdmissionPolicy:
    """Materialise a policy from a config value (name or ready instance)."""
    if isinstance(policy, AdmissionPolicy):
        return policy
    try:
        factory = ADMISSION_POLICIES[policy]
    except (KeyError, TypeError):
        raise ServingError(
            f"unknown admission policy {policy!r}; known: {sorted(ADMISSION_POLICIES)}"
        ) from None
    return factory()
