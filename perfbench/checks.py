"""Exactness checks, counted as operations: each comparison is one attempted
check, and a mismatch is one failed check.  Equality is bitwise throughout."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from policylock import inference, splitsearch, trainer
from policylock.errors import AlignmentError


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def rows_equal(part: inference.ScoreColumn, whole: inference.ScoreColumn) -> bool:
    """Bitwise equality of ``part``'s vectors and ``whole``'s rows with the
    same row ids."""
    order = np.argsort(whole.row_ids, kind="stable")
    ids = whole.row_ids[order]
    pos = np.minimum(np.searchsorted(ids, part.row_ids), len(ids) - 1)
    if not np.array_equal(ids[pos], part.row_ids):
        return False
    return whole.vectors[order[pos]].tobytes() == part.vectors.tobytes()


def check_scores(checks: Checks, columnar: inference.ScoreColumn,
                 rowmajor: inference.ScoreColumn, rowwise: inference.ScoreColumn,
                 first: Optional[str]) -> str:
    """score_batch: both vectorized layouts give the same checksum, the
    row-wise backend gives the same rows, and the checksum repeats across
    rounds.  Returns the columnar checksum."""
    digest = inference.score_column_checksum(columnar)
    checks.expect("columnar and rowmajor checksums equal",
                  digest == inference.score_column_checksum(rowmajor))
    checks.expect("rowwise rows equal columnar rows", rows_equal(rowwise, columnar))
    checks.expect("columnar checksum repeats", first is None or digest == first)
    return digest


def check_splits(checks: Checks, results: Sequence[splitsearch.SplitSearchResult],
                 first: Optional[tuple]) -> Optional[tuple]:
    """split_wide: every path returns status ok with the same ``as_tuple()``,
    and the winner repeats across rounds.  Returns the first path's tuple."""
    tuples = []
    for res in results:
        ok = res.status == splitsearch.STATUS_OK and res.best is not None
        checks.expect("best_split status ok", ok)
        tuples.append(res.best.as_tuple() if ok else None)
    for other in tuples[1:]:
        checks.expect("best splits agree across paths", other == tuples[0])
    checks.expect("best split repeats", first is None or tuples[0] == first)
    return tuples[0]


def check_witnesses(checks: Checks, witnesses: Sequence[trainer.Witness],
                    first: Optional[trainer.TreeSignature]) -> trainer.TreeSignature:
    """train_locked, the trees of one dataset in a round: every tree
    signature (text and digest) equals the first, every witness matches the
    first with zero policy and leaf mismatches, and the signature equals
    ``first``, the dataset's signature from an earlier round.  Returns the
    first signature."""
    base = witnesses[0]
    for w in witnesses[1:]:
        checks.expect("signatures equal", w.signature == base.signature)
        try:
            rep = trainer.witness_compare(base, w)
            same = rep.policy_vector_mismatches == 0 and rep.leaf_mismatches == 0
        except AlignmentError:
            same = False
        checks.expect("witnesses match", same)
    checks.expect("signature repeats", first is None or base.signature == first)
    return base.signature
