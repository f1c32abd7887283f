"""Partition-parallel forest scoring with four backends.

Backends differ only in execution strategy, never in routing semantics:

* ``anti_pattern``       re-parses the canonical forest text for every row
                         (the legacy model-as-row-metadata workflow);
* ``broadcast_rowwise``  parses once per partition, scores row by row;
* ``vectorized_columnar`` scores each batch's columnar block in place;
* ``vectorized_rowmajor`` transposes each batch to row-major first, paying an
                         interchange cost before the same traversal kernel.

All four accumulate per-tree payloads in tree order and divide once, so the
float operation sequence is identical and cross-backend deltas are exactly 0.

The row-wise backends walk one stacked interval table (``_ScalarForest``):
a node sends a value ``v`` left exactly when ``lo <= v <= hi``, with ``hi``
the split value and ``lo`` the split value on categorical nodes and
``-inf`` on continuous ones, and a NaN to its ``nan_goes_left`` child.  For
a value that is not NaN that is ``v <= s`` on a continuous node and
``v == s`` on a categorical one, the scalar walk's rule and the kernel's
routing codes (docs/normative.md, "Forest routing").

Every backend walks a partition batch by batch: each batch's features are
filled (NULL as NaN) into one reused [F, batch] block, and each partition
writes its scores straight into its own slice of one [N, T] result, so the
memory of a ``score`` call beyond that result is set by the batch size.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from .errors import (AlignmentError, InvalidArgumentError, MalformedTreeError, SchemaError,
                     _check_int, _check_types)
from .forest import (ForestArrays, _PreparedForest, _checked_table, _layout,
                     forest_from_text, forest_to_text, validate_forest, LEAF,
                     INTERNAL_CATEGORICAL)
from .frame import ColumnFrame, PartitionedFrame, partition

BACKEND_KINDS = ("anti_pattern", "broadcast_rowwise", "vectorized_columnar",
                 "vectorized_rowmajor")
_ROWWISE_KINDS = ("anti_pattern", "broadcast_rowwise")


@dataclass(frozen=True)
class InferenceBackend:
    kind: str
    batch_size: int = 10000

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise InvalidArgumentError(f"unknown backend kind {self.kind!r}")
        _check_int(self.batch_size, "batch_size", 1)


@dataclass
class ScoreColumn:
    row_ids: np.ndarray   # int64 [N]
    vectors: np.ndarray   # float64 [N, T]

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)


class _ScalarForest:
    """The row-wise backends' model: every tree's nodes stacked into one
    node table of plain lists, built from ``validate_forest``'s own stacked
    pass, so construction raises ``MalformedTreeError`` with the report's
    first violation on exactly the forests the vectorized kernel refuses.

    Node ``g`` routes a row whose value is ``v = row[feature[g]]``: a value
    inside the interval, ``lo[g] <= v <= hi[g]``, goes to ``left[g]``, any
    other value to ``right[g]``, and a NaN to ``nan_child[g]`` (its
    ``nan_goes_left`` child, resolved here).  ``hi`` is the split value;
    ``lo`` is the split value on categorical nodes and ``-inf`` on
    continuous ones.  For a value that is not NaN this is the scalar walk's
    rule exactly: a continuous node tests ``v <= s``, since ``-inf <= v``
    always holds; a categorical node tests ``s <= v <= s``, which holds
    exactly when ``v == s`` (signed zeros and infinities included).  A NaN
    split value fails both compares, so every value that is not NaN goes
    right, as ``v <= s`` and ``v == s`` both fail too.  The walk tests
    ``v <= hi`` first, so a value above the interval skips the lower
    compare, and asks ``v == v`` only of values outside it: a NaN fails
    every compare, so it is told apart last.

    A child that is a leaf is stored as ``~k``, ``k`` the leaf's row in
    ``payload`` (the stacked leaves' payloads), so a walk ends at the first
    negative node; ``starts`` holds each tree's root the same way.  Each
    tree's payload is collected in tree order and every treatment's column
    is summed from ``0.0`` left to right, ``((0.0 + p0) + p1) + ...``, then
    divided once by the tree count: the float operation sequence of the
    scalar walk and of the kernel.  ``functools.reduce`` keeps that sequence; ``sum`` may not
    (it compensates on Python 3.12 and later)."""

    def __init__(self, forest: ForestArrays):
        report, (roots, node_type, feature, left, right, _) = _checked_table(forest)
        if not report.passed:
            raise MalformedTreeError(report.violations[0].message)
        trees = forest.trees
        is_leaf = node_type == LEAF
        # a leaf child becomes ~k, k its rank among the stacked leaves
        code = np.where(is_leaf, ~(np.cumsum(is_leaf) - 1), np.arange(len(is_leaf)))
        left, right = code[left], code[right]
        split = np.concatenate([t.split_value for t in trees])
        nan_left = np.concatenate([t.nan_goes_left for t in trees])
        self.feature = feature.tolist()
        self.lo = np.where(node_type == INTERNAL_CATEGORICAL, split, -np.inf).tolist()
        self.hi = split.tolist()
        self.left, self.right = left.tolist(), right.tolist()
        self.nan_child = np.where(nan_left, left, right).tolist()
        self.starts = code[roots].tolist()
        self.payload = np.concatenate([t.leaf_payload for t in trees])[is_leaf].tolist()
        self.n_trees = float(len(trees))

    def score_row(self, row: list) -> list:
        feature, lo, hi = self.feature, self.lo, self.hi
        left, right, nan_child = self.left, self.right, self.nan_child
        payload = self.payload
        leaves = []
        append = leaves.append
        for node in self.starts:
            while node >= 0:
                v = row[feature[node]]
                node = (left[node] if v <= hi[node] and lo[node] <= v
                        else right[node] if v == v else nan_child[node])
            append(payload[~node])
        n_trees = self.n_trees
        return [reduce(add, column, 0.0) / n_trees for column in zip(*leaves)]


def _feature_order_check(frame: ColumnFrame, forest: ForestArrays) -> None:
    indices = [frame.column_index(name) for name in forest.feature_names]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise SchemaError("frame feature order does not cover the forest's "
                          "feature_names in order")


def _score_partition(part: ColumnFrame, forest: ForestArrays, forest_text: str,
                     backend: InferenceBackend, out: np.ndarray) -> None:
    """Score ``part`` into ``out`` ([n, T]) as a stream of row batches, the
    way an executor consumes a partition's record batches: one model init
    (per row for ``anti_pattern``), then each batch's features filled into
    one reused [F, batch] block, so memory is set by the batch size, not by
    the partition size."""
    n = part.n_rows
    if n == 0:
        return
    width = min(backend.batch_size, n)
    block = np.empty((forest.n_features, width))
    if backend.kind in _ROWWISE_KINDS:
        reparse = backend.kind == "anti_pattern"   # the model travels with every row
        model: Optional[_ScalarForest] = None
    else:
        prepared = _PreparedForest(forest_from_text(forest_text))
        # a short last batch keeps the block's stride and uses its leading rows
        flat, rows, stride = _layout(forest, block, False)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        batch = part.feature_matrix_effective(forest.feature_names, lo, hi,
                                              block[:, :hi - lo])
        if backend.kind == "vectorized_columnar":
            out[lo:hi] = prepared.score(flat, rows[:hi - lo], stride)
        elif backend.kind == "vectorized_rowmajor":
            # the interchange cost: _layout copies the batch to row-major
            out[lo:hi] = prepared.score(*_layout(forest, batch.T, True))
        else:
            # row by row, each row materialized inside the loop; a bulk
            # transpose would already be the vectorized_rowmajor strategy
            col_lists = batch.tolist()
            for r in range(hi - lo):
                if model is None or reparse:
                    model = _ScalarForest(forest_from_text(forest_text))
                out[lo + r] = model.score_row([col[r] for col in col_lists])


def score(pf: PartitionedFrame, forest: ForestArrays, backend: InferenceBackend,
          pool_size: Optional[int] = None) -> ScoreColumn:
    """Per-row treatment-score vectors, aligned to row ids in partition-index
    order; independent of partition count, backend, and batch size.

    Each partition streams its rows through one reused batch block (see
    ``_score_partition``) and writes its scores straight into its own slice
    of the one [N, T] result, in partition order.

    The vectorized backends score partitions on ``pool_size`` threads
    (default: the CPU count), since their kernels spend most of their time in
    numpy calls that release the interpreter lock.  ``anti_pattern`` and
    ``broadcast_rowwise`` are pure-Python row loops that hold the lock, so
    more threads would only contend for it: they score every partition on
    one worker, whatever ``pool_size`` says."""
    _check_types((pf, PartitionedFrame), (forest, ForestArrays),
                 (backend, InferenceBackend))
    if pool_size is not None:
        _check_int(pool_size, "pool_size", 1)
    report = validate_forest(forest)
    if not report.passed:
        first = report.violations[0]
        raise InvalidArgumentError(f"forest failed validation: {first.message}")
    for part in pf.partitions:
        _feature_order_check(part, forest)
    forest_text = forest_to_text(forest)
    workers = 1 if backend.kind in _ROWWISE_KINDS else pool_size or os.cpu_count() or 1

    if pf.partition_count == 0:
        return ScoreColumn(np.empty(0, dtype=np.int64),
                           np.empty((0, forest.n_treatments)))

    vectors = np.empty((pf.n_rows, forest.n_treatments))
    bounds = np.cumsum([0] + [p.n_rows for p in pf.partitions]).tolist()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_score_partition, part, forest, forest_text, backend,
                               vectors[lo:hi])
                   for part, lo, hi in zip(pf.partitions, bounds, bounds[1:])]
        for f in futures:   # the first failing partition, in partition order
            f.result()
    row_ids = np.concatenate([p.row_ids for p in pf.partitions])
    return ScoreColumn(row_ids, vectors)


def score_column_checksum(col: ScoreColumn) -> str:
    order = np.argsort(col.row_ids, kind="stable")
    h = hashlib.blake2b(digest_size=16)
    h.update(col.row_ids[order].astype("<i8").tobytes())
    h.update(col.vectors[order].astype("<f8").tobytes())
    return h.hexdigest()


@dataclass
class ParityReport:
    reference_backend: str
    candidate_backend: str
    mismatch_rows: int
    max_abs_delta: float
    checksum_equal: bool
    tolerance: float
    n_rows: int

    def to_record(self) -> dict:
        return asdict(self)


def parity_from_columns(ref: ScoreColumn, cand: ScoreColumn, reference_backend: str,
                        candidate_backend: str, tolerance: float = 1e-9) -> ParityReport:
    ref_order = np.argsort(ref.row_ids, kind="stable")
    cand_order = np.argsort(cand.row_ids, kind="stable")
    if not np.array_equal(ref.row_ids[ref_order], cand.row_ids[cand_order]):
        raise AlignmentError("score columns cover different row_id sets")
    delta = np.abs(ref.vectors[ref_order] - cand.vectors[cand_order])
    max_delta = float(delta.max()) if delta.size else 0.0
    mismatches = int((delta > tolerance).any(axis=1).sum()) if delta.size else 0
    return ParityReport(reference_backend, candidate_backend, mismatches, max_delta,
                        score_column_checksum(ref) == score_column_checksum(cand),
                        tolerance, len(ref.row_ids))


def check_parity(pf: PartitionedFrame, forest: ForestArrays, reference: InferenceBackend,
                 candidate: InferenceBackend, tolerance: float = 1e-9) -> ParityReport:
    ref = score(pf, forest, reference)
    cand = score(pf, forest, candidate)
    return parity_from_columns(ref, cand, reference.kind, candidate.kind, tolerance)


@dataclass
class ThroughputReport:
    backend: str
    n_rows: int
    wall_seconds: float
    rows_per_second: float
    samples: list[float] = field(default_factory=list)
    capped: bool = False

    def to_record(self) -> dict:
        return asdict(self)


def measure_throughput(pf: PartitionedFrame, forest: ForestArrays,
                       backend: InferenceBackend, repeats: int = 3,
                       max_rows: Optional[int] = None) -> ThroughputReport:
    """Median-of-repeats throughput after one warm-up call.  ``max_rows``
    caps the scored rows for backends whose per-row cost makes the full frame
    impractical; the cap is recorded and rows/s stays comparable because
    per-row work is constant.  A measurement must score at least one row."""
    _check_types((pf, PartitionedFrame), (forest, ForestArrays),
                 (backend, InferenceBackend))
    _check_int(repeats, "repeats", 1)
    if max_rows is not None:
        _check_int(max_rows, "max_rows")
    if (max_rows is not None and max_rows < 1) or pf.n_rows == 0:
        raise InvalidArgumentError("throughput needs at least one row to score, "
                                   f"not max_rows={max_rows} of {pf.n_rows} rows")
    capped = False
    if max_rows is not None and max_rows < pf.n_rows:
        whole = pf.concat()
        subset = whole.take(np.arange(max_rows))
        pf = partition(subset, pf.partition_count)
        capped = True
    n = pf.n_rows
    score(pf, forest, backend)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        score(pf, forest, backend)
        samples.append(time.perf_counter() - t0)
    wall = statistics.median(samples)
    rps = n / wall if wall > 0 else math.inf
    return ThroughputReport(backend.kind, n, wall, rps, samples, capped)
