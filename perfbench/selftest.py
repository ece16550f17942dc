"""Self-test of the correctness oracle: it must reject corrupted answers.

A benchmark-local wrapper around ``Index.answer`` damages real answers in
the ways a broken engine could (a wrong OID, a nudged score, a duplicate,
a missing row, a deleted row); the oracle has to reject every one and
accept the undamaged answer, also after inserts, deletes and a
reorganisation moved the shadow collection.  ``run.py`` runs this before
every measurement; standalone::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

import numpy as np

K = 10


def _corruptions(oracle, qi):
    def wrong_oid(result):
        outside = np.setdiff1d(np.flatnonzero(oracle.alive), result.oids)[-1]
        result.oids[-1] = outside
        return result

    def nudged_score(result):
        result.scores[3] += 1e-6
        return result

    def duplicate(result):
        result.oids[1] = result.oids[0]
        result.scores[1] = result.scores[0]
        return result

    def missing(result):
        result.oids, result.scores = result.oids[:-1], result.scores[:-1]
        return result

    def swapped_scores(result):
        result.scores[[0, -1]] = result.scores[[-1, 0]]
        return result

    return [wrong_oid, nudged_score, duplicate, missing, swapped_scores]


class CorruptingIndex:
    """Answers through the real index, then damages the result."""

    def __init__(self, index, corrupt) -> None:
        self._index = index
        self._corrupt = corrupt

    def answer(self, query):
        result = self._index.answer(query)
        return self._corrupt(
            dataclasses.replace(result, oids=result.oids.copy(), scores=result.scores.copy())
        )


def _expect_rejected(oracle, qi, result, label: str) -> None:
    from harness import WrongAnswer

    try:
        oracle.check(qi, result.oids, result.scores, K)
    except WrongAnswer:
        return
    raise RuntimeError(f"oracle self-test: a corrupted answer ({label}) was accepted")


def run() -> None:
    from harness import Oracle
    from repro import Index, Query, make_corel_like

    vectors = make_corel_like(cardinality=3_000, dimensionality=32, seed=5)
    pool = vectors[:4]
    oracle = Oracle(vectors, pool, "histogram")
    with Index.build(vectors, name="selftest") as index:

        def verify_all():
            for qi in range(pool.shape[0]):
                query = Query(pool[qi], k=K, metric="histogram")
                honest = index.answer(query)
                oracle.check(qi, honest.oids, honest.scores, K)
                for corrupt in _corruptions(oracle, qi):
                    damaged = CorruptingIndex(index, corrupt).answer(query)
                    _expect_rejected(oracle, qi, damaged, corrupt.__name__)

        verify_all()
        row = pool[1]
        if not np.array_equal(index.insert(row), oracle.insert(row)):
            raise RuntimeError("oracle self-test: shadow OIDs diverged from the index")
        top = int(oracle.reference(0, K)[0][0])
        stale = index.answer(Query(pool[0], k=K, metric="histogram"))
        index.delete([top])
        oracle.delete([top])
        _expect_rejected(oracle, 0, stale, "deleted row")
        verify_all()
        index.reorganize()
        oracle.compact()
        verify_all()


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    run()
    print("oracle self-test passed")
