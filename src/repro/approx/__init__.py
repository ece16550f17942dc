"""The approximate tier: recall traded for speed, deterministically.

Two structures answer ``Query(mode="approx")`` through the planner:

* **IVF clustered pruning** (:mod:`repro.approx.ivf`) — seeded k-means
  partitions the rows (:mod:`repro.approx.cluster`), search scans only the
  members of the ``nprobe`` clusters whose centroids are nearest to the
  query.  The paper's filter-and-refine idea generalised from dimensions to
  rows, built entirely from the existing machinery: the probed members seed
  one globally pruned fused BOND run over the index's own store.
* **HNSW graph search** (:mod:`repro.approx.hnsw`) — a hierarchical
  navigable small-world graph whose ``ef_search`` beam width trades recall
  for distance evaluations.

Both obey the repo-wide determinism contract: same build seed + same knobs
⇒ bitwise-identical structures and answers, and the exhaustive parameter
settings (``nprobe >= n_clusters``; ``ef_search >= cardinality``) return the
exact tier's top-k OID for OID.  Results carry ``exact=False`` whenever the
answer is not guaranteed exact.
"""

from repro.approx.cluster import ClusterPlan, build_cluster_plan
from repro.approx.config import ApproxConfig, DEFAULT_APPROX_SEED
from repro.approx.hnsw import (
    HNSWGraph,
    HNSWSearcher,
    build_hnsw_graph,
    effective_ef_search,
    node_level,
)
from repro.approx.ivf import IVFSearcher, effective_nprobe

__all__ = [
    "ApproxConfig",
    "ClusterPlan",
    "DEFAULT_APPROX_SEED",
    "HNSWGraph",
    "HNSWSearcher",
    "IVFSearcher",
    "build_cluster_plan",
    "build_hnsw_graph",
    "effective_ef_search",
    "effective_nprobe",
    "node_level",
]
