"""Pruning bounds for squared Euclidean distance (Section 4.3).

For Euclidean distance BOND looks for the k *smallest* aggregates, so the
pruning test flips: a vector is discarded when its best case (lower bound) is
already worse than the k-th best worst case (``S_min[i] > kappa_max``).

* **Eq** uses only the query.  The remaining distance is at least 0 (the
  vector may coincide with the query on every unseen dimension) and at most
  the squared distance from ``q⁺`` to the furthest corner of the remaining
  unit hyper-box (Equation 10).  When the data are known to be L1-normalised
  (``T(v) = 1``, as for the Corel histograms), the optional
  ``remaining_sum_cap`` tightens the corner bound the way Section 7.1 does.

* **Ev** additionally uses the remaining mass ``T(v⁺)`` of each vector.
  Lemma 1 gives the largest possible remaining distance — attained by piling
  the remaining mass onto the dimensions with the smallest query values — and
  Lemma 2 gives the smallest — attained by spreading the mass so every
  per-dimension difference is equal.  The footnote-3 refinements to Lemma 2
  are omitted in the paper ("details are omitted for the sake of
  readability"); this implementation uses the plain Lemma 2, which is sound,
  merely slightly looser in two corner cases.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.base import PartialState, PruningBound, RemainingBounds
from repro.errors import BoundError


def lemma1_upper_bound(remaining_query: np.ndarray, remaining_sums: np.ndarray) -> np.ndarray:
    """Largest possible ``S(v⁺, q⁺)`` given ``T(v⁺)`` (Lemma 1), vectorised.

    Parameters
    ----------
    remaining_query:
        The query coefficients of the remaining dimensions (any order).
    remaining_sums:
        ``T(v⁺)`` per candidate.

    Returns
    -------
    One upper bound per candidate.  The bound is exact (it is the maximum of
    the remaining distance over all vectors in the unit box with the given
    coordinate sum).
    """
    remaining_query = np.asarray(remaining_query, dtype=np.float64)
    remaining_sums = np.asarray(remaining_sums, dtype=np.float64)
    num_remaining = remaining_query.shape[0]
    if num_remaining == 0:
        return np.zeros_like(remaining_sums)

    # Sort q+ in decreasing order; the adversarial vector fills the dimensions
    # with the *smallest* query values (the tail of this order) up to 1.
    query_sorted = np.sort(remaining_query)[::-1]
    query_squared = query_sorted * query_sorted
    one_minus_squared = (1.0 - query_sorted) ** 2

    # prefix_q2[j]  = sum of q_i^2 over the first j sorted dimensions.
    # suffix_1m[j]  = sum of (1 - q_i)^2 over sorted dimensions j .. R-1.
    prefix_q2 = np.concatenate([[0.0], np.cumsum(query_squared)])
    suffix_1m = np.concatenate([np.cumsum(one_minus_squared[::-1])[::-1], [0.0]])

    # Clip T(v+) into the feasible range [0, R] before decomposing it into its
    # integer part (dimensions filled to 1) and fractional remainder.
    clipped = np.clip(remaining_sums, 0.0, float(num_remaining))
    filled = np.floor(clipped).astype(np.int64)
    fractional = clipped - filled
    # Dimensions are 1-based in the paper: l = R - floor(T(v+)) is the
    # dimension that receives the fractional mass; the l-1 larger-q dimensions
    # get 0.  ``index`` = l - 1 is its 0-based position, -1 when every
    # remaining dimension is filled (T(v+) = R).  Every candidate is evaluated
    # by the partial-fill formula with gathers (index -1 reads valid, unused
    # entries) and the all-filled ones are overwritten afterwards: no boolean
    # masks, same operands in the same order.
    index = (num_remaining - 1) - filled
    bounds = np.take(prefix_q2, index)
    deviation = fractional - np.take(query_sorted, index)
    bounds += deviation**2
    bounds += np.take(suffix_1m[1:], index)
    np.copyto(bounds, suffix_1m[0], where=index < 0)
    return bounds


def lemma2_lower_bound(remaining_query: np.ndarray, remaining_sums: np.ndarray) -> np.ndarray:
    """Smallest possible ``S(v⁺, q⁺)`` given ``T(v⁺)`` (Lemma 2), vectorised.

    The minimum is attained when the difference to the query is spread
    equally over the remaining dimensions:
    ``(T(v⁺) - T(q⁺))² / (N - m)``.
    """
    remaining_query = np.asarray(remaining_query, dtype=np.float64)
    remaining_sums = np.asarray(remaining_sums, dtype=np.float64)
    num_remaining = remaining_query.shape[0]
    if num_remaining == 0:
        return np.zeros_like(remaining_sums)
    total_difference = remaining_sums - float(remaining_query.sum())
    return (total_difference * total_difference) / float(num_remaining)


class EqBound(PruningBound):
    """Query-only bounds for squared Euclidean distance (criterion Eq).

    Parameters
    ----------
    remaining_sum_cap:
        Optional upper bound on ``T(v⁺)`` known to hold for every vector in
        the collection (e.g. 1.0 for L1-normalised histograms).  When given
        and at most 1, the corner bound of Equation 10 is replaced by the
        tighter maximum over the capped mass, matching the refinement used in
        Section 7.1.  Without it the plain Equation 10 corner bound is used.
    """

    name = "Eq"

    def __init__(self, *, remaining_sum_cap: float | None = None) -> None:
        if remaining_sum_cap is not None and remaining_sum_cap < 0.0:
            raise BoundError("remaining_sum_cap must be non-negative")
        self._remaining_sum_cap = remaining_sum_cap

    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """``[0, corner distance]`` for every candidate."""
        if state.num_remaining == 0:
            return RemainingBounds(lower=0.0, upper=0.0)

        corner = state.remaining_corner_mass
        upper = corner
        cap = self._remaining_sum_cap
        if cap is not None and cap <= 1.0:
            # With T(v+) <= cap <= 1 the adversary can either leave every
            # remaining dimension at zero (distance sum(q_i^2)) or spend the
            # whole cap on the dimension with the smallest query value; the
            # maximum over the capped range is attained at one of these two
            # extremes because the distance is convex in the spent mass.
            at_zero = state.remaining_query_square_mass
            at_cap = float(lemma1_upper_bound(state.remaining_query, np.array([cap]))[0])
            upper = min(corner, max(at_zero, at_cap))
        return RemainingBounds(lower=0.0, upper=upper)


class EvBound(PruningBound):
    """Vector-aware bounds for squared Euclidean distance (criterion Ev)."""

    name = "Ev"
    needs_remaining_value_sums = True

    def remaining_bounds(self, state: PartialState) -> RemainingBounds:
        """Per-candidate Lemma 1 / Lemma 2 bounds."""
        if state.remaining_value_sums is None:
            raise BoundError("criterion Ev needs T(v+) maintained per candidate")
        remaining_query = state.remaining_query
        remaining_sums = state.remaining_value_sums
        if remaining_query.shape[0] == 0:
            zeros = np.zeros_like(remaining_sums)
            return RemainingBounds(lower=zeros, upper=zeros)
        upper = lemma1_upper_bound(remaining_query, remaining_sums)
        lower = lemma2_lower_bound(remaining_query, remaining_sums)
        return RemainingBounds(lower=lower, upper=upper)
