"""Columnar data model with explicit missingness and deterministic partitioning.

A cell is *missing* when its validity bit is unset (NULL) or when its payload
is NaN.  The two encodings stay distinguishable at the data layer (checksums,
CSV round-trips) but route identically everywhere downstream.

Frames are immutable: every array is read-only.  Every fully valid column of
a frame references the frame's one all-true bitmap.  ``partition`` cuts a
frame into consecutive row blocks (the bounds of ``np.array_split``) that are
read-only views of the parent's arrays, not copies, so a partition keeps its
parent's buffers alive.  ``take``, ``concat_frames`` and the ``repartition``,
``coalesce`` and ``shuffle_rows`` perturbations still copy, but build the
result's shared bitmap once, not once per fully valid column.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidArgumentError, SchemaError, _check_int, _check_types
from . import rng

_CANONICAL_NAN = np.float64(np.nan)

PRESENT, NULL, NAN = 0, 1, 2  # missing-kind tags, also the checksum tag bytes
_INT64_END = 2.0 ** 63        # the first float past int64's range


def _as_float_column(values) -> np.ndarray:
    """``values`` as float64: a 1-D column of real numbers (bool, integer,
    float, or objects other than text that convert to float)."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind == "O":
            if any(isinstance(v, (str, bytes)) for v in raw.ravel().tolist()):
                raise TypeError
        elif raw.dtype.kind not in "biuf":
            raise TypeError
        arr = raw.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        raise InvalidArgumentError("feature columns must hold real numbers") from None
    if arr.ndim != 1:
        raise InvalidArgumentError("feature columns must be 1-D")
    return arr


def plant_missing(values: np.ndarray, mask: np.ndarray,
                  null: bool) -> tuple[np.ndarray, np.ndarray]:
    """Payloads and validity of a feature column whose ``mask`` cells are
    missing: NULL (validity unset, payload 0.0) when ``null``, else a NaN
    payload.  The payloads are planted into ``values`` itself, which is
    returned (a wide synth block is written once); callers pass arrays they
    own.  An all-true validity is a read-only broadcast that holds no
    buffer; the frame built from it swaps in its own shared bitmap."""
    valid = np.broadcast_to(np.True_, len(values))
    if not mask.any():
        return values, valid
    if null:
        valid = ~mask
        values[mask] = 0.0
    else:
        values[mask] = np.nan
    return values, valid


def sorted_row_ids(row_ids) -> np.ndarray:
    """``row_ids`` as int64, sorted.  Ids are a 1-D array of integers, or of
    floats that hold whole numbers inside int64's range; any other id (text,
    a fraction, NaN, an infinity, a bool, an object) is an
    ``InvalidArgumentError``, never truncated.  An id held twice is a
    ``SchemaError``.  One sort and an adjacent compare (``np.unique`` adds
    a hash pass)."""
    ids = np.asarray(row_ids)
    if ids.dtype.kind == "f":
        whole = ((ids == np.floor(ids)) & (-_INT64_END <= ids) & (ids < _INT64_END)).all()
    else:
        whole = ids.dtype.kind == "i" or (
            ids.dtype.kind == "u" and (ids <= np.iinfo(np.int64).max).all())
    if ids.ndim != 1 or not whole:
        raise InvalidArgumentError("row_ids must be a 1-D array of integers "
                                   f"(whole numbers), got {ids.dtype} of shape {ids.shape}")
    ids = np.sort(ids.astype(np.int64, copy=False))
    if (ids[1:] == ids[:-1]).any():
        raise SchemaError("row_ids must be unique")
    return ids


class ColumnFrame:
    """Immutable columnar dataset: row ids, ordered float features with
    validity bitmaps, a string treatment column, and a binary outcome column.
    Every fully valid column's bitmap is the one ``_all_valid`` array.
    """

    def __init__(self, row_ids, feature_names: Sequence[str], feature_values,
                 feature_valid=None, treatments=None, outcomes=None):
        ids = np.asarray(row_ids)
        sorted_row_ids(ids)
        self.row_ids = ids.astype(np.int64, copy=False)
        n = len(self.row_ids)
        self.feature_names: tuple[str, ...] = tuple(str(f) for f in feature_names)
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaError("duplicate feature names")
        vals = [_as_float_column(feature_values[i]) for i in range(len(self.feature_names))]
        if feature_valid is None:
            valid = [np.broadcast_to(np.True_, n)] * len(vals)
        else:
            valid = [np.asarray(feature_valid[i], dtype=bool) for i in range(len(vals))]
        for col, vld in zip(vals, valid):
            if len(col) != n or len(vld) != n:
                raise SchemaError("all columns must share the frame length")
        full = [vld.all() for vld in valid]
        # the shared bitmap is the first fully valid column with one byte per
        # row (so a block's is a slice of its parent's); a broadcast has no
        # such buffer, and without one the frame allocates its own
        self._all_valid = next((vld for vld, f in zip(valid, full)
                                if f and vld.strides == (1,)), None)
        if self._all_valid is None:
            self._all_valid = np.ones(n, dtype=bool)
        self.feature_values: tuple[np.ndarray, ...] = tuple(vals)
        self.feature_valid: tuple[np.ndarray, ...] = tuple(
            self._all_valid if f else vld for vld, f in zip(valid, full))
        if treatments is None:
            treatments = np.array(["control"] * n, dtype=object)
        self.treatments = np.asarray(treatments, dtype=object)
        if outcomes is None:
            outcomes = np.zeros(n, dtype=np.int64)
        self.outcomes = np.asarray(outcomes, dtype=np.int64)

        if len(self.treatments) != n or len(self.outcomes) != n:
            raise SchemaError("all columns must share the frame length")
        if not ((self.outcomes == 0) | (self.outcomes == 1)).all():
            raise SchemaError("outcomes must be binary 0/1")
        for arr in (self.row_ids, *self.feature_values, *self.feature_valid,
                    self._all_valid, self.treatments, self.outcomes):
            arr.setflags(write=False)
        self._index = {name: i for i, name in enumerate(self.feature_names)}

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no feature column named {name!r}") from None

    def effective_values(self, name: str) -> np.ndarray:
        """Feature payloads with NULL cells folded to NaN (the routing view)."""
        i = self.column_index(name)
        vals = self.feature_values[i]
        valid = self.feature_valid[i]
        if valid is self._all_valid:
            return vals
        out = vals.copy()
        out[~valid] = np.nan
        return out

    def missing_mask(self, name: str) -> np.ndarray:
        i = self.column_index(name)
        return ~self.feature_valid[i] | np.isnan(self.feature_values[i])

    def missing_kinds(self, name: str) -> np.ndarray:
        """Per-cell tag: PRESENT, NULL (validity unset) or NAN (NaN payload)."""
        i = self.column_index(name)
        tags = np.full(self.n_rows, PRESENT, dtype=np.uint8)
        tags[np.isnan(self.feature_values[i])] = NAN
        tags[~self.feature_valid[i]] = NULL
        return tags

    def take(self, indices) -> "ColumnFrame":
        """The rows at ``indices``, gathered into new arrays (the shared
        bitmap once)."""
        return self._rows(np.asarray(indices, dtype=np.int64))

    def _rows(self, key) -> "ColumnFrame":
        """The rows at ``key``, an index array or a slice, with every column
        indexed by it: an index array gathers into new arrays, a slice gives
        read-only views of this frame's arrays with no copy.  Fully valid
        columns share one indexing of the shared bitmap, and the
        constructor's checks all run."""
        ones = self._all_valid[key]
        return ColumnFrame(
            self.row_ids[key],
            self.feature_names,
            [col[key] for col in self.feature_values],
            [ones if vld is self._all_valid else vld[key] for vld in self.feature_valid],
            self.treatments[key],
            self.outcomes[key],
        )

    def feature_matrix_effective(self, names: Sequence[str], lo: int = 0,
                                 hi: Optional[int] = None,
                                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Columnar [F, hi - lo] float64 block of rows ``lo:hi`` (default:
        all) with missing cells as NaN, filled row by row in place: the
        payloads, then NaN where a cell is NULL.  ``out``, when given, is
        the caller's float64 block of that shape to fill, so that a stream
        of row ranges can reuse one buffer; it is returned."""
        hi = self.n_rows if hi is None else hi
        if not 0 <= lo <= hi <= self.n_rows:
            raise InvalidArgumentError(f"row range {lo}:{hi} is not within "
                                       f"the frame's {self.n_rows} rows")
        if out is None:
            out = np.empty((len(names), hi - lo))
        elif out.shape != (len(names), hi - lo) or out.dtype != np.float64:
            raise InvalidArgumentError(f"out block {out.dtype}{list(out.shape)} does "
                                       f"not hold {len(names)} features of rows {lo}:{hi}")
        for row, name in zip(out, names):
            i = self.column_index(name)
            np.copyto(row, self.feature_values[i][lo:hi])
            if self.feature_valid[i] is not self._all_valid:
                row[~self.feature_valid[i][lo:hi]] = np.nan
        return out


def concat_frames(frames: Sequence[ColumnFrame]) -> ColumnFrame:
    if not frames:
        raise InvalidArgumentError("cannot concatenate zero frames")
    first = frames[0]
    for f in frames[1:]:
        if f.feature_names != first.feature_names:
            raise SchemaError("frames disagree on feature columns")
    columns = range(len(first.feature_names))
    # a column fully valid in every frame is fully valid in the result: all
    # such columns get one concatenation of the frames' shared bitmaps
    full = [all(f.feature_valid[i] is f._all_valid for f in frames) for i in columns]
    ones = np.concatenate([f._all_valid for f in frames]) if any(full) else None
    return ColumnFrame(
        np.concatenate([f.row_ids for f in frames]),
        first.feature_names,
        [np.concatenate([f.feature_values[i] for f in frames]) for i in columns],
        [ones if full[i] else np.concatenate([f.feature_valid[i] for f in frames])
         for i in columns],
        np.concatenate([f.treatments for f in frames]),
        np.concatenate([f.outcomes for f in frames]),
    )


@dataclass(frozen=True)
class PartitionedFrame:
    partitions: tuple[ColumnFrame, ...]

    def __post_init__(self):
        _check_types((self.partitions, (tuple, list)))
        _check_types(*((p, ColumnFrame) for p in self.partitions))

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def n_rows(self) -> int:
        return sum(p.n_rows for p in self.partitions)

    def concat(self) -> ColumnFrame:
        return concat_frames(list(self.partitions))


def frames_of(data: Union[ColumnFrame, PartitionedFrame]) -> tuple[ColumnFrame, ...]:
    """The frames of a split input: a partitioned frame's partitions in
    order, or a lone frame."""
    return data.partitions if isinstance(data, PartitionedFrame) else (data,)


def partition(frame: ColumnFrame, p: int) -> PartitionedFrame:
    """``p`` consecutive row blocks; the first ``n % p`` get one extra row
    (the bounds of ``np.array_split``).  Each block is a read-only view of
    ``frame``'s arrays, not a copy, and keeps ``frame``'s buffers alive; the
    ``repartition``, ``coalesce`` and ``shuffle_rows`` perturbations copy."""
    _check_int(p, "partition count", 1)
    q, r = divmod(frame.n_rows, p)
    bounds = [i * q + min(i, r) for i in range(p + 1)]
    return PartitionedFrame(tuple(frame._rows(slice(lo, hi))
                                  for lo, hi in zip(bounds, bounds[1:])))


class PerturbationKind(str, Enum):
    REPARTITION = "repartition"
    COALESCE = "coalesce"
    SHUFFLE_ROWS = "shuffle_rows"
    SORT_WITHIN_PARTITION = "sort_within_partition"


@dataclass(frozen=True)
class PerturbationSpec:
    kind: PerturbationKind
    target_partitions: Optional[int] = None   # repartition / coalesce
    seed: Optional[int] = None                # shuffle_rows
    key: str = "row_id"                       # sort_within_partition
    ascending: bool = True


def apply_perturbation(pf: PartitionedFrame, spec: PerturbationSpec) -> PartitionedFrame:
    _check_types((pf, PartitionedFrame), (spec, PerturbationSpec))
    try:
        kind = PerturbationKind(spec.kind)
    except ValueError:
        raise InvalidArgumentError(f"unknown perturbation kind {spec.kind!r}") from None
    for key in ("target_partitions", "seed"):
        if getattr(spec, key) is not None:
            _check_int(getattr(spec, key), key)
    if kind is PerturbationKind.REPARTITION:
        if not spec.target_partitions or spec.target_partitions < 1:
            raise InvalidArgumentError("repartition needs a target partition count >= 1")
        whole = pf.concat()
        p = spec.target_partitions
        # round-robin over the concatenated order, like a shuffle repartition
        parts = [whole.take(np.arange(i, whole.n_rows, p)) for i in range(p)]
        return PartitionedFrame(tuple(parts))
    if kind is PerturbationKind.COALESCE:
        p = spec.target_partitions or 0
        if p < 1 or p > pf.partition_count:
            raise InvalidArgumentError("coalesce target must be in [1, current partition count]")
        groups = np.array_split(np.arange(pf.partition_count), p)
        parts = [concat_frames([pf.partitions[i] for i in g]) for g in groups]
        return PartitionedFrame(tuple(parts))
    if kind is PerturbationKind.SHUFFLE_ROWS:
        if spec.seed is None:
            raise InvalidArgumentError("shuffle_rows needs a seed")
        whole = pf.concat()
        perm = rng.permutation(spec.seed, "shuffle_rows", whole.n_rows)
        return partition(whole.take(perm), max(pf.partition_count, 1))
    if kind is PerturbationKind.SORT_WITHIN_PARTITION:
        parts = []
        for part in pf.partitions:
            if spec.key == "row_id":
                keys = part.row_ids
            else:
                keys = part.effective_values(spec.key)
            order = np.argsort(keys, kind="stable")
            if not spec.ascending:
                order = order[::-1]
            parts.append(part.take(order))
        return PartitionedFrame(tuple(parts))
    raise InvalidArgumentError(f"unknown perturbation kind {spec.kind!r}")


def _digest_update_frame(h, frame: ColumnFrame) -> None:
    h.update(b"CF1")
    h.update(np.int64(frame.n_rows).tobytes())
    h.update(np.int32(len(frame.feature_names)).tobytes())
    h.update(frame.row_ids.astype("<i8").tobytes())
    for vals, name in zip(frame.feature_values, frame.feature_names):
        nb = name.encode("utf-8")
        h.update(np.int32(len(nb)).tobytes())
        h.update(nb)
        tags = frame.missing_kinds(name)
        canon = vals.copy()
        canon[tags == NAN] = _CANONICAL_NAN   # collapse NaN payload bit patterns
        canon[tags == NULL] = 0.0             # NULL payloads are not data
        h.update(tags.tobytes())
        h.update(canon.astype("<f8").tobytes())
    for label in frame.treatments:
        lb = str(label).encode("utf-8")
        h.update(np.int32(len(lb)).tobytes())
        h.update(lb)
    h.update(frame.outcomes.astype("<i1").tobytes())


def frame_checksum(frame: ColumnFrame) -> str:
    """Order-sensitive 128-bit digest over ids, column order, values and
    missing-kind tags.  Stable across runs and platforms."""
    _check_types((frame, ColumnFrame))
    h = hashlib.blake2b(digest_size=16)
    _digest_update_frame(h, frame)
    return h.hexdigest()


@dataclass(frozen=True)
class CsvRoles:
    features: tuple[str, ...]
    treatment: str
    outcome: str
    row_id: Optional[str] = None


def _int64(cell: str) -> np.int64:
    return np.int64(int(cell))   # OverflowError outside the int64 range


def _parse_cell(parse, cell: str, what: str, r: int):
    try:
        return parse(cell)
    except (ValueError, OverflowError):
        raise SchemaError(f"CSV data row {r + 1}: bad {what} {cell!r}") from None


def read_csv(path, roles: CsvRoles) -> ColumnFrame:
    """Generic ingestion: empty cells -> NULL, literal "NaN" -> NaN payload;
    malformed rows and cells and text that is not UTF-8 raise ``SchemaError``,
    a path that cannot be opened ``InvalidArgumentError`` (docs/normative.md)."""
    _check_types((path, (str, bytes, os.PathLike)), (roles, CsvRoles))
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot open CSV file: {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        try:
            fieldnames = reader.fieldnames
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise SchemaError(f"malformed CSV: {exc}") from None
    if fieldnames is None:
        raise SchemaError("CSV file has no header row")
    if len(set(fieldnames)) != len(fieldnames):
        raise SchemaError(f"CSV header repeats a column name: {fieldnames}")
    missing_cols = [c for c in (*roles.features, roles.treatment, roles.outcome)
                    if c not in fieldnames]
    if roles.row_id and roles.row_id not in fieldnames:
        missing_cols.append(roles.row_id)
    if missing_cols:
        raise SchemaError(f"CSV is missing columns: {missing_cols}")

    n = len(rows)
    values = [np.zeros(n) for _ in roles.features]
    valid = [np.ones(n, dtype=bool) for _ in roles.features]
    treatments = np.empty(n, dtype=object)
    outcomes = np.zeros(n, dtype=np.int64)
    row_ids = np.arange(n, dtype=np.int64)
    for r, row in enumerate(rows):
        # DictReader fills a short row with None values and files the extra
        # fields of a long row under the None key
        if None in row or None in row.values():
            raise SchemaError(f"CSV data row {r + 1} does not have "
                              f"{len(fieldnames)} fields")
        for i, feat in enumerate(roles.features):
            cell = row[feat]
            if cell == "":
                valid[i][r] = False
            elif cell == "NaN":
                values[i][r] = np.nan
            else:
                values[i][r] = _parse_cell(float, cell, f"{feat} value", r)
        treatments[r] = row[roles.treatment]
        outcomes[r] = _parse_cell(_int64, row[roles.outcome], "outcome", r)
        if roles.row_id:
            row_ids[r] = _parse_cell(_int64, row[roles.row_id], "row id", r)
    return ColumnFrame(row_ids, roles.features, values, valid, treatments, outcomes)


def write_csv(frame: ColumnFrame, path) -> None:
    _check_types((frame, ColumnFrame), (path, (str, bytes, os.PathLike)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", *frame.feature_names, "treatment", "outcome"])
        kinds = np.stack([frame.missing_kinds(n) for n in frame.feature_names]) \
            if frame.feature_names else np.empty((0, frame.n_rows), dtype=np.uint8)
        for r in range(frame.n_rows):
            cells = [str(frame.row_ids[r])]
            for i in range(len(frame.feature_names)):
                kind = kinds[i, r]
                if kind == NULL:
                    cells.append("")
                elif kind == NAN:
                    cells.append("NaN")
                else:
                    cells.append(repr(float(frame.feature_values[i][r])))
            cells.append(str(frame.treatments[r]))
            cells.append(str(frame.outcomes[r]))
            writer.writerow(cells)
