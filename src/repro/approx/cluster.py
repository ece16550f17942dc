"""Deterministic seeded k-means and the resulting :class:`ClusterPlan`.

The IVF backend generalises the paper's filter-and-refine decomposition from
*dimensions* to *rows*: instead of pruning whole fragments, it prunes whole
partitions.  A :class:`ClusterPlan` is the member list that makes this
cheap — a contiguous member remapping (every cluster's rows adjacent, rows
within a cluster in ascending OID order) so each partition's members are one
slice of it, ready to seed the unmodified fused BOND engine's candidates.

Determinism: the initial centroids are a seeded no-replacement draw of
distinct rows, Lloyd's runs a *fixed* iteration count (no data-dependent
stopping rule), assignment ties go to the lowest centroid index
(``np.argmin`` semantics) and empty clusters keep their previous centroid.
Same seed + same knobs over the same collection ⇒ bitwise-identical
centroids, permutation and offsets on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError

#: Row-block size of the chunked distance computations: bounds the transient
#: ``block x n_clusters`` distance matrix to a few MiB regardless of scale.
_ASSIGN_BLOCK_ROWS = 8192


def _assign_to_centroids(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per row (squared Euclidean, ties to lowest index)."""
    centroid_norms = np.einsum("kd,kd->k", centroids, centroids)
    assignments = np.empty(matrix.shape[0], dtype=np.int64)
    for start in range(0, matrix.shape[0], _ASSIGN_BLOCK_ROWS):
        block = matrix[start : start + _ASSIGN_BLOCK_ROWS]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
        # constant per row, so the argmin can skip it.
        distances = centroid_norms[None, :] - 2.0 * (block @ centroids.T)
        assignments[start : start + block.shape[0]] = np.argmin(distances, axis=1)
    return assignments


@dataclass(frozen=True)
class ClusterPlan:
    """The persisted outcome of one seeded k-means build.

    Attributes
    ----------
    centroids:
        ``(n_clusters, dimensionality)`` float64 cluster centres.
    permutation:
        ``(cardinality,)`` int64 contiguous member remapping: permuted row
        ``i`` holds the vector of original OID ``permutation[i]``; rows are
        grouped by cluster (ascending cluster index) and sorted by ascending
        OID within each cluster.
    offsets:
        ``(n_clusters + 1,)`` int64 partition boundaries: cluster ``c`` owns
        permuted rows ``[offsets[c], offsets[c + 1])``.
    seed / iterations:
        The build knobs, persisted so a reopened index can state exactly how
        its plan was derived.
    """

    centroids: np.ndarray
    permutation: np.ndarray
    offsets: np.ndarray
    seed: int
    iterations: int

    @property
    def n_clusters(self) -> int:
        """Number of partitions (including possibly empty ones)."""
        return int(self.centroids.shape[0])

    @property
    def cardinality(self) -> int:
        """Number of rows the plan partitions."""
        return int(self.permutation.shape[0])

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the centroids."""
        return int(self.centroids.shape[1])

    def sizes(self) -> np.ndarray:
        """Member count per cluster."""
        return np.diff(self.offsets)

    def nonempty_clusters(self) -> int:
        """How many partitions actually hold rows."""
        return int(np.count_nonzero(self.sizes()))

    def members(self, cluster: int) -> np.ndarray:
        """Original OIDs of one cluster, ascending."""
        return self.permutation[self.offsets[cluster] : self.offsets[cluster + 1]]

    def assignments(self) -> np.ndarray:
        """Cluster index per original OID (derived from the remapping)."""
        result = np.empty(self.cardinality, dtype=np.int64)
        sizes = self.sizes()
        result[self.permutation] = np.repeat(np.arange(self.n_clusters), sizes)
        return result

    def probe_order(self, query: np.ndarray) -> np.ndarray:
        """Non-empty cluster indices by ascending centroid distance.

        Deterministic: distances tie-break on the lower cluster index (the
        stable argsort), and empty partitions are never probed.
        """
        query = np.asarray(query, dtype=np.float64)
        deltas = self.centroids - query[None, :]
        distances = np.einsum("kd,kd->k", deltas, deltas)
        order = np.argsort(distances, kind="stable")
        return order[self.sizes()[order] > 0]

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The plan's array payload (persisted as manifest sidecar files)."""
        return {
            "centroids": self.centroids,
            "permutation": self.permutation,
            "offsets": self.offsets,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], *, seed: int, iterations: int) -> "ClusterPlan":
        """Rebuild a plan from its persisted arrays."""
        return cls(
            centroids=np.ascontiguousarray(arrays["centroids"], dtype=np.float64),
            permutation=np.ascontiguousarray(arrays["permutation"], dtype=np.int64),
            offsets=np.ascontiguousarray(arrays["offsets"], dtype=np.int64),
            seed=int(seed),
            iterations=int(iterations),
        )


def build_cluster_plan(
    matrix: np.ndarray, *, n_clusters: int, iterations: int = 10, seed: int = 7
) -> ClusterPlan:
    """Seeded Lloyd's k-means over the rows of ``matrix`` (see module docstring)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise QueryError("k-means needs a non-empty 2-D matrix")
    if n_clusters < 1:
        raise QueryError(f"n_clusters must be at least 1, got {n_clusters}")
    if iterations < 1:
        raise QueryError(f"iterations must be at least 1, got {iterations}")
    cardinality = matrix.shape[0]
    n_clusters = min(n_clusters, cardinality)

    rng = np.random.default_rng(seed)
    centroids = matrix[rng.choice(cardinality, size=n_clusters, replace=False)].copy()
    for _ in range(iterations):
        assignments = _assign_to_centroids(matrix, centroids)
        counts = np.bincount(assignments, minlength=n_clusters).astype(np.float64)
        sums = np.zeros_like(centroids)
        # Per-dimension weighted bincount beats np.add.at by an order of
        # magnitude and is just as deterministic (pairwise float summation
        # per bin, fixed order).
        for dim in range(matrix.shape[1]):
            sums[:, dim] = np.bincount(assignments, weights=matrix[:, dim], minlength=n_clusters)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]

    assignments = _assign_to_centroids(matrix, centroids)
    # Stable sort by cluster = clusters ascending, ascending OID within each.
    permutation = np.argsort(assignments, kind="stable")
    sizes = np.bincount(assignments, minlength=n_clusters)
    offsets = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return ClusterPlan(
        centroids=centroids,
        permutation=permutation.astype(np.int64),
        offsets=offsets,
        seed=int(seed),
        iterations=int(iterations),
    )
