"""Partition-parallel forest scoring with four backends.

Backends differ only in execution strategy, never in routing semantics:

* ``anti_pattern``       re-parses the canonical forest text for every row
                         (the legacy model-as-row-metadata workflow);
* ``broadcast_rowwise``  parses once per partition, scores row by row;
* ``vectorized_columnar`` scores batches straight off columnar buffers;
* ``vectorized_rowmajor`` transposes each batch to row-major first, paying an
                         interchange cost before the same traversal kernel.

All four accumulate per-tree payloads in tree order and divide once, so the
float operation sequence is identical and cross-backend deltas are exactly 0.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AlignmentError, InvalidArgumentError, SchemaError
from .forest import (ForestArrays, _PreparedForest, forest_from_text, forest_to_text,
                     validate_forest, LEAF, INTERNAL_CATEGORICAL)
from .frame import ColumnFrame, PartitionedFrame, partition

BACKEND_KINDS = ("anti_pattern", "broadcast_rowwise", "vectorized_columnar",
                 "vectorized_rowmajor")


@dataclass(frozen=True)
class InferenceBackend:
    kind: str
    batch_size: int = 10000

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise InvalidArgumentError(f"unknown backend kind {self.kind!r}")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")


class InitStats:
    """Thread-safe model-initialization counter (test observability only)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.model_inits = 0

    def record(self, n: int = 1) -> None:
        with self._lock:
            self.model_inits += n


@dataclass
class ScoreColumn:
    row_ids: np.ndarray   # int64 [N]
    vectors: np.ndarray   # float64 [N, T]

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)


class _ScalarForest:
    """Plain-list view of the forest for tight per-row Python walks."""

    def __init__(self, forest: ForestArrays):
        self.n_treatments = forest.n_treatments
        self.trees = []
        for t in forest.trees:
            self.trees.append((t.node_type.tolist(), t.feature_index.tolist(),
                               t.split_value.tolist(), t.left_child.tolist(),
                               t.right_child.tolist(), t.nan_goes_left.tolist(),
                               t.leaf_payload.tolist()))

    def score_row(self, row_values: list) -> list:
        acc = [0.0] * self.n_treatments
        for node_type, feat, split, left, right, nan_left, payload in self.trees:
            node = 0
            while node_type[node] != LEAF:
                v = row_values[feat[node]]
                if v != v:  # NaN
                    go_left = nan_left[node]
                elif node_type[node] == INTERNAL_CATEGORICAL:
                    go_left = v == split[node]
                else:
                    go_left = v <= split[node]
                node = left[node] if go_left else right[node]
            leaf = payload[node]
            for i in range(self.n_treatments):
                acc[i] += leaf[i]
        n_trees = float(len(self.trees))
        for i in range(self.n_treatments):
            acc[i] /= n_trees
        return acc


def _feature_order_check(frame: ColumnFrame, forest: ForestArrays) -> None:
    indices = [frame.column_index(name) for name in forest.feature_names]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise SchemaError("frame feature order does not cover the forest's "
                          "feature_names in order")


def _score_partition(part: ColumnFrame, forest: ForestArrays, forest_text: str,
                     backend: InferenceBackend, stats: Optional[InitStats]) -> np.ndarray:
    n = part.n_rows
    T = forest.n_treatments
    out = np.empty((n, T), dtype=np.float64)
    if n == 0:
        return out
    columns = part.feature_matrix_effective(forest.feature_names)  # [F, n]

    # rowwise backends materialize each row inside the loop; a bulk transpose
    # up front would already be the vectorized_rowmajor batch strategy
    if backend.kind == "anti_pattern":
        col_lists = [c.tolist() for c in columns]
        for r in range(n):
            model = _ScalarForest(forest_from_text(forest_text))
            if stats:
                stats.record()
            out[r] = model.score_row([col[r] for col in col_lists])
        return out

    if backend.kind == "broadcast_rowwise":
        model = _ScalarForest(forest_from_text(forest_text))
        if stats:
            stats.record()
        col_lists = [c.tolist() for c in columns]
        for r in range(n):
            out[r] = model.score_row([col[r] for col in col_lists])
        return out

    # vectorized backends: lazy init on the first batch of the partition
    model_prepared: Optional[_PreparedForest] = None
    flat = columns.reshape(-1)  # contiguous [F, n] buffer viewed flat
    has_nan = bool(np.isnan(columns).any())
    for lo in range(0, n, backend.batch_size):
        hi = min(lo + backend.batch_size, n)
        if model_prepared is None:
            model_prepared = _PreparedForest(forest_from_text(forest_text), n)
            if stats:
                stats.record()
        if backend.kind == "vectorized_columnar":
            rows = np.arange(lo, hi, dtype=np.int64)
            out[lo:hi] = model_prepared.score_columnar(flat, rows, has_nan)
        else:
            batch = np.ascontiguousarray(columns[:, lo:hi].T)  # interchange cost
            out[lo:hi] = model_prepared.score_rowmajor(batch, has_nan)
    return out


def score(pf: PartitionedFrame, forest: ForestArrays, backend: InferenceBackend,
          stats: Optional[InitStats] = None, pool_size: Optional[int] = None) -> ScoreColumn:
    """Per-row treatment-score vectors, aligned to row ids in partition-index
    order; independent of partition count, backend, and batch size."""
    report = validate_forest(forest)
    if not report.passed:
        first = report.violations[0]
        raise InvalidArgumentError(f"forest failed validation: {first.message}")
    for part in pf.partitions:
        _feature_order_check(part, forest)
    forest_text = forest_to_text(forest)
    workers = pool_size or os.cpu_count() or 1

    if pf.partition_count == 0:
        return ScoreColumn(np.empty(0, dtype=np.int64),
                           np.empty((0, forest.n_treatments)))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_score_partition, part, forest, forest_text, backend, stats)
                   for part in pf.partitions]
        blocks = [f.result() for f in futures]   # merged strictly in partition order
    row_ids = np.concatenate([p.row_ids for p in pf.partitions])
    return ScoreColumn(row_ids, np.vstack(blocks))


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
        return {"reference_backend": self.reference_backend,
                "candidate_backend": self.candidate_backend,
                "mismatch_rows": self.mismatch_rows,
                "max_abs_delta": self.max_abs_delta,
                "checksum_equal": self.checksum_equal,
                "tolerance": self.tolerance,
                "n_rows": self.n_rows}


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
        return {"backend": self.backend, "n_rows": self.n_rows,
                "wall_seconds": self.wall_seconds,
                "rows_per_second": self.rows_per_second,
                "samples": self.samples, "capped": self.capped}


def measure_throughput(pf: PartitionedFrame, forest: ForestArrays,
                       backend: InferenceBackend, repeats: int = 3,
                       max_rows: Optional[int] = None,
                       warmup: bool = True) -> ThroughputReport:
    """Median-of-repeats throughput.  ``max_rows`` caps the scored rows for
    backends whose per-row cost makes the full frame impractical; the cap is
    recorded and rows/s stays comparable because per-row work is constant."""
    if repeats < 1:
        raise InvalidArgumentError("repeats must be >= 1")
    capped = False
    if max_rows is not None and max_rows < pf.n_rows:
        whole = pf.concat()
        subset = whole.take(np.arange(max_rows))
        pf = partition(subset, pf.partition_count)
        capped = True
    n = pf.n_rows
    if warmup:
        score(pf, forest, backend)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        score(pf, forest, backend)
        samples.append(time.perf_counter() - t0)
    wall = statistics.median(samples)
    rps = n / wall if wall > 0 else math.inf
    return ThroughputReport(backend.kind, n, wall, rps, samples, capped)
