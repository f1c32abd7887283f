"""Collect-less multi-treatment split search, in two stages that pass count
tables, not rows.

Stage S1 turns rows into cell tables: int64 ``[F_u, K, B+1, T, 2]`` per unit
of features sharing one B, the rows with outcome 0 and 1 per node, bin (the
missing bin last) and treatment.  Each partition's cell keys
``((slot*(B+1) + bin)*T + code)*2 + positive`` are counted with one
``bincount`` per feature, and only the count tables merge: summed on the
reference and partitioned paths, sort-merged as sparse groups on the
relational path.  The root (all rows as one node, K = 1) is counted where
the bins are made: ``_count_partition`` bucketizes each feature of one
partition into a bin row and counts that row at once.  ``best_split`` runs
it in one task per partition on a thread pool on every path, each task with
one reused bin row, so it keeps no [F, N] bin matrix.  ``build_prefix_sums``
and ``windowed_prefix_table`` run it on the caller's thread for one feature.
The trainer runs it on its own thread, writing the bins into the
``BinnedRows`` view that ``bin_rows`` also returns, since row routing needs
them; below the root ``_count_cells`` counts a subset of the view's rows
with a node slot per row, so every table has K nodes and one S2 pass
answers for every node of a tree level.

Stage S2 (``_search_cells``) stacks each B group's tables and scores every
candidate of every feature and node in one array pass, expanding each
candidate into both missing routes with the full validity checks and the DDP
max-envelope score.  Each node's winner is picked from those arrays under a
strict total order and handed over as a ``CandidateScore``; only
``best_split`` makes a ``SplitSearchResult`` of one.  Every execution path,
``expand_and_score`` and the failure catalog share that array routine, so
cross-path score deltas are exactly zero.  It uses the same IEEE operations
as the scalar per-candidate scorer ``scalar_candidate`` in
``tests/_oracles.py``, the test oracle it matches bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (ContractViolationError, InvalidArgumentError, _check_int, _check_types,
                     _is_real)
from .frame import ColumnFrame, PartitionedFrame, frames_of
from . import rng

NAN_LEFT = "left"
NAN_RIGHT = "right"
_DIRECTIONS = (NAN_LEFT, NAN_RIGHT)

PATH_REFERENCE = "reference_driver_collect"
PATH_RELATIONAL = "relational_windowed"
PATH_PARTITIONED = "partitioned_executor_local"
EXECUTION_PATHS = (PATH_REFERENCE, PATH_RELATIONAL, PATH_PARTITIONED)

STATUS_OK = "ok"
STATUS_NO_VALID = "no_valid_candidate"
STATUS_SKIPPED_TOO_LARGE = "skipped_too_large"


@dataclass(frozen=True)
class Boundaries:
    """Explicit interior cut points, strictly increasing and never NaN; B
    regular bins plus missing bin index B."""
    feature_name: str
    cuts: tuple[float, ...]

    def __post_init__(self):
        try:
            cuts = tuple(float(c) for c in self.cuts)
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"cuts must be numbers, got {self.cuts!r}") from None
        object.__setattr__(self, "cuts", cuts)
        if len(cuts) < 1:
            raise InvalidArgumentError("boundaries need at least one interior cut (B >= 2)")
        if any(math.isnan(c) for c in cuts):
            raise InvalidArgumentError("cuts must not be NaN")
        if any(not (a < b) for a, b in zip(cuts, cuts[1:])):
            raise InvalidArgumentError("cuts must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1

    @property
    def missing_bin(self) -> int:
        return self.n_bins


def feature_boundaries(boundaries: Mapping[str, Boundaries],
                       features: Sequence[str]) -> tuple[Boundaries, ...]:
    """Each feature's boundaries, in ``features`` order; a feature without
    boundaries is an ``InvalidArgumentError``."""
    for name in features:
        if name not in boundaries:
            raise InvalidArgumentError(f"no boundaries for feature {name!r}")
    return tuple(boundaries[name] for name in features)


def uniform_boundaries(feature_name: str, n_bins: int) -> Boundaries:
    """``n_bins`` equal-width bins over [0, 1]."""
    _check_int(n_bins, "n_bins", 2)
    return Boundaries(feature_name, tuple(i / n_bins for i in range(1, n_bins)))


# widest B bucketized by counting cuts (the bin count fits a uint8 counter)
_COUNT_CUTS_MAX_BINS = 255
# size of the [B-1, chunk] bool block that counting compares into
_BLOCK_BYTES = 1 << 20


def bucketize(value, boundaries: Boundaries, *, out: Optional[np.ndarray] = None):
    """Bin index in [0, B]: missing (None or NaN) -> B; a value equal to
    cuts[i] lands in bin i (left-inclusive, matching '<=' left routing).
    A value that is not a number is an ``InvalidArgumentError``.  The result
    is int64 (an ``int`` for a scalar value); ``out``, an unsigned integer
    array of the value's shape wide enough for B, receives the bins in its
    place and is returned (``bin_rows`` passes its uint8/uint16 ``bins`` row,
    so no int64 copy is made).

    The bin is the number of cuts strictly below the value, which equals
    ``searchsorted(cuts, value, side="left")`` because cuts strictly increase
    and are never NaN.  For B <= 255 it is computed branch-free: each chunk
    of values is compared with every cut in one ``less`` call into a reused
    ``[B-1, chunk]`` bool block of about 1 MB, and one ``add.reduce`` down
    the cuts counts them into a uint8 counter (at most 254; a uint8 ``out``
    is the counter).  Two large calls per chunk release the interpreter lock
    for the whole block, so partitions bin in parallel threads; a binary
    search over random values mispredicts at every step and is several times
    slower.  Counting is O(B) per value, so wider features keep
    ``searchsorted``."""
    _check_types((boundaries, Boundaries))
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bucketize values must be numbers or None: {exc}") from None
    if out is not None and (not isinstance(out, np.ndarray) or out.shape != arr.shape):
        raise InvalidArgumentError(f"out must be an array of the values' shape {arr.shape}")
    if boundaries.n_bins <= _COUNT_CUTS_MAX_BINS:
        flat = arr.ravel()
        cuts = np.array(boundaries.cuts)[:, None]
        chunk = _BLOCK_BYTES // len(cuts)
        direct = out is not None and out.dtype == np.uint8 and arr.ndim == 1
        count = out if direct else np.empty(flat.size, dtype=np.uint8)
        block = np.empty((len(cuts), min(chunk, flat.size)), dtype=bool)
        for lo in range(0, flat.size, chunk):
            values = flat[lo:lo + chunk]
            below = block[:, :values.size]
            np.less(cuts, values, out=below)
            np.add.reduce(below.view(np.uint8), axis=0, out=count[lo:lo + chunk])
        bins = out if direct else count.reshape(arr.shape)
    else:
        bins = np.searchsorted(boundaries.cuts, arr, side="left")
    if out is None:
        bins = np.asarray(bins, dtype=np.int64)
    elif bins is not out:
        out[...] = bins
        bins = out
    bins[np.isnan(arr)] = boundaries.missing_bin
    if np.isscalar(value) or arr.ndim == 0:
        return int(bins)
    return bins


def candidate_row_count(n_features: int, n_bins: int, n_treatments: int) -> int:
    for value, what in ((n_features, "F"), (n_bins, "B"), (n_treatments, "T")):
        _check_int(value, what, 1)
    return n_features * (n_bins - 1) * n_treatments


def check_vocabulary(treatment_labels: Sequence[str]) -> tuple[str, ...]:
    """The treatment vocabulary as a tuple: one or more distinct ``str``
    labels with no line break (text formats write one label per line), else
    ``InvalidArgumentError``."""
    labels = tuple(treatment_labels)
    if not labels:
        raise InvalidArgumentError("treatment vocabulary is empty")
    for i, label in enumerate(labels):
        if not isinstance(label, str) or "".join(label.splitlines()) != label:
            raise InvalidArgumentError(f"treatment label {label!r} is not a one-line str")
        if label in labels[:i]:
            raise InvalidArgumentError(f"treatment vocabulary lists {label!r} twice")
    return labels


def select_control(treatment_labels: Sequence[str], override: Optional[str] = None) -> str:
    """Deterministic control choice: override, case-insensitive "control",
    exact "0", then the lexicographically smallest label."""
    labels = check_vocabulary(treatment_labels)
    if override is not None:
        if override not in labels:
            raise InvalidArgumentError(f"control override {override!r} not in vocabulary")
        return override
    for lab in labels:
        if lab.lower() == "control":
            return lab
    if "0" in labels:
        return "0"
    return min(labels)


def treatment_codes(frame: ColumnFrame, treatments: tuple[str, ...]) -> np.ndarray:
    """Vocabulary index per row; a label outside the fixed vocabulary is a
    contract violation (the vocabulary is never inferred from data), reported
    for the lexicographically smallest unknown label.  Labels match by their
    ``str``.  The read-only codes are cached per vocabulary, checked on a miss."""
    treatments = tuple(treatments)
    cached = getattr(frame, "_treatment_codes", None)
    if cached is not None and cached[0] == treatments:
        return cached[1]
    check_vocabulary(treatments)
    lookup = {label: i for i, label in enumerate(treatments)}
    labels = frame.treatments.tolist()
    codes = np.fromiter(map(lookup.get, labels, repeat(-1, len(labels))),
                        dtype=np.int64, count=len(labels))
    misses = np.flatnonzero(codes < 0)
    if misses.size:
        texts = [str(labels[r]) for r in misses]
        unknown = {text for text in texts if text not in lookup}
        if unknown:
            raise ContractViolationError(
                f"treatment label {min(unknown)!r} outside the fixed vocabulary {treatments}")
        codes[misses] = [lookup[text] for text in texts]
    codes.flags.writeable = False
    frame._treatment_codes = (treatments, codes)
    return codes


def _check_bounds(bounds: Sequence[int], n_rows: int) -> None:
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n_rows or any(np.diff(bounds) < 0):
        raise InvalidArgumentError("partition bounds must run non-decreasing from 0 to "
                                   f"{n_rows} over one partition or more")


@dataclass(frozen=True)
class _Grid:
    """What S2 reads of its input: the features, their boundaries (in
    feature order) and the treatment vocabulary."""
    features: tuple[str, ...]
    boundaries: tuple[Boundaries, ...]
    treatments: tuple[str, ...]


@dataclass(frozen=True)
class BinnedRows(_Grid):
    """Rows bucketized once under fixed boundaries, built by ``bin_rows``.
    ``bins[f]`` is feature ``features[f]``'s bin per row (missing bin B
    included) and ``tails`` is ``code*2 + positive`` per row, the low digits
    of every cell key (``code`` the treatment index in ``treatments``,
    ``positive`` the outcome).  Rows ``bounds[p]:bounds[p+1]`` are partition
    p, which S1 counts on its own."""
    bins: np.ndarray        # uint8 [F, N]; uint16 (or wider) when some B+1 > 256
    tails: np.ndarray       # int64 [N]
    bounds: tuple[int, ...]  # 0 = bounds[0] <= ... <= bounds[-1] = N

    def __post_init__(self):
        _check_bounds(self.bounds, self.n_rows)

    @property
    def n_rows(self) -> int:
        return len(self.tails)


SplitInput = Union[ColumnFrame, PartitionedFrame]


def _count_partition(part: ColumnFrame, grid: _Grid, bins: np.ndarray,
                     tails: np.ndarray) -> list[np.ndarray]:
    """S1 at the root, for one partition: each feature's values are
    bucketized into a bin row, and that row's cell keys ``bin*2T + tail``
    are counted at once with one ``bincount``.  ``tails`` receives
    ``code*2 + positive`` per row.  ``bins`` is [F, n], whose row f keeps
    feature f's bins, or [1, n], one row reused by every feature.  Returns
    each feature's int64 counts [(B+1)*2T]."""
    T2 = 2 * len(grid.treatments)
    np.multiply(treatment_codes(part, grid.treatments), 2, out=tails, casting="unsafe")
    tails += part.outcomes == 1
    keys = np.empty(len(tails), dtype=np.int64)
    tables = []
    for f, (name, b) in enumerate(zip(grid.features, grid.boundaries)):
        row = bucketize(part.effective_values(name), b, out=bins[f % len(bins)])
        np.multiply(row, T2, out=keys, dtype=np.int64)
        keys += tails
        tables.append(np.bincount(keys, minlength=(b.n_bins + 1) * T2))
    return tables


def _scan(data: SplitInput, features: Sequence[str], boundaries: Mapping[str, Boundaries],
          treatments: Sequence[str], workers: int,
          keep: bool) -> tuple[_Grid, list[list[np.ndarray]]]:
    """S1's one pass over the rows: every partition of ``data`` through
    ``_count_partition``, one task per partition on a pool of at most
    ``workers`` threads (no pool for one task).  Returns the grid and each
    partition's root tables.  With ``keep`` the grid is a ``BinnedRows``
    whose ``bins`` and ``tails`` the tasks fill, partition p at rows
    ``bounds[p]:bounds[p+1]``; without it each task bins into one reused
    row and narrow tails of its own, so no row-sized array outlives the
    task.  A task's error is raised as the serial loop would raise it, the
    first failing partition's."""
    features, treatments = tuple(features), tuple(treatments)
    per_feature = feature_boundaries(boundaries, features)
    parts = frames_of(data)
    bounds = tuple(accumulate((p.n_rows for p in parts), initial=0))
    _check_bounds(bounds, bounds[-1])
    dtype = np.min_scalar_type(max((b.missing_bin for b in per_feature), default=0))
    if keep:
        grid = BinnedRows(features, per_feature, treatments,
                          np.empty((len(features), bounds[-1]), dtype=dtype),
                          np.empty(bounds[-1], dtype=np.int64), bounds)

        def scan(p: int) -> list[np.ndarray]:
            rows = slice(bounds[p], bounds[p + 1])
            return _count_partition(parts[p], grid, grid.bins[:, rows], grid.tails[rows])
    else:
        grid = _Grid(features, per_feature, treatments)
        narrow = np.min_scalar_type(2 * len(treatments))

        def scan(p: int) -> list[np.ndarray]:
            n = parts[p].n_rows
            return _count_partition(parts[p], grid, np.empty((1, n), dtype=dtype),
                                    np.empty(n, dtype=narrow))

    workers = min(workers, len(parts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return grid, list(pool.map(scan, range(len(parts))))
    return grid, [scan(p) for p in range(len(parts))]


def bin_rows(data: SplitInput, features: Sequence[str],
             boundaries: Mapping[str, Boundaries],
             treatments: Sequence[str], workers: int = 1) -> BinnedRows:
    """Bucketize every feature of every partition of ``data`` once and build
    the cell tails; partition p becomes rows ``bounds[p]:bounds[p+1]``.

    The view comes from S1's root pass (``_scan``), which counts each
    partition's root cells where it makes the partition's bins; the trainer
    keeps both the view and those counts, and ``best_split`` keeps no bins
    at all.  With ``workers`` > 1 each partition is binned in a worker of a
    pool of at most that many threads (and no more than the partitions),
    writing its own rows of the one ``bins`` and ``tails`` arrays; the
    result is the serial one bit for bit, and a worker's error is raised as
    the serial loop would raise it, the first failing partition's."""
    return _scan(data, features, boundaries, treatments, workers, True)[0]


def _units(grid: _Grid, config: SplitConfig) -> list[list[int]]:
    """S1's units of work, each a list of the grid's features sharing one B
    (grouped in feature order).  The partitioned path cuts the features into
    contiguous shards, one per worker, before grouping them."""
    F = len(grid.features)
    shards = config.workers if config.execution_path == PATH_PARTITIONED else 1
    units = []
    for shard in np.array_split(np.arange(F), shards):
        groups: dict[int, list[int]] = {}
        for f in shard.tolist():
            groups.setdefault(grid.boundaries[f].n_bins, []).append(f)
        units.extend(groups.values())
    return units


def _partition_counts(keys: np.ndarray, bounds, size: int) -> list[np.ndarray]:
    """S1's one aggregation below the root: per partition (rows
    ``bounds[p]:bounds[p+1]``) the ``bincount`` of its cell keys."""
    return [np.bincount(keys[lo:hi], minlength=size) for lo, hi in zip(bounds, bounds[1:])]


def _merge_counts(counts: Sequence[Sequence[np.ndarray]], relational: bool) -> np.ndarray:
    """S1's merge of one unit: ``counts[i]`` holds feature i's tables, one
    per partition, all of one size; the result is int64 [F_u, size].  The
    dense plan sums each feature's partition tables; the relational plan
    keeps each partition's non-empty cells as sparse (key, count) groups and
    merges the whole unit's groups with one stable sort on the key."""
    if not relational:
        return np.array([np.sum(c, axis=0) for c in counts], dtype=np.int64)
    size = len(counts[0][0])
    nonzero = [(i, c, np.flatnonzero(c)) for i, per_part in enumerate(counts)
               for c in per_part]
    # (key, count) packed in one int64, key high (a unit's table has fewer
    # than 2**31 cells, a cell fewer than 2**32 rows): sorting the packed
    # groups is a stable sort on the key, since equal packed groups are
    # indistinguishable
    packed = np.concatenate([(i * size + g) << 32 | c[g] for i, c, g in nonzero])
    packed.sort()
    flat, sizes = packed >> 32, packed & 0xFFFFFFFF
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    cells = np.zeros(len(counts) * size, dtype=np.int64)
    cells[flat[starts]] = np.add.reduceat(sizes, starts)
    return cells.reshape(len(counts), size)


def _root_cells(grid: _Grid, units: Sequence[Sequence[int]],
                per_part: Sequence[Sequence[np.ndarray]],
                relational: bool) -> list[np.ndarray]:
    """Every unit's root table, int64 ``[F_u, 1, B+1, T, 2]``, merged by
    ``_merge_counts`` from each partition's tables of ``_scan``."""
    T = len(grid.treatments)
    return [_merge_counts([[tables[f] for tables in per_part] for f in unit], relational)
            .reshape(len(unit), 1, grid.boundaries[unit[0]].n_bins + 1, T, 2)
            for unit in units]


def _count_cells(view: BinnedRows, unit: Sequence[int], relational: bool,
                 rows: np.ndarray, slots: np.ndarray, n_slots: int) -> np.ndarray:
    """S1 of one unit (view features sharing a B) on a counted subset of the
    rows: int64 cells ``[F_u, n_slots, B+1, T, 2]``, rows with outcome 0 and
    1 per node, bin and treatment.  ``rows`` (ascending) picks the view rows
    to count and ``slots`` places each counted row in a node.  Keys are
    built one feature at a time into one buffer, counted per partition and
    merged by ``_merge_counts``."""
    B1 = view.boundaries[unit[0]].n_bins + 1
    T2 = 2 * len(view.treatments)
    size = n_slots * B1 * T2
    bounds = np.searchsorted(rows, view.bounds)
    base = slots * (B1 * T2) + view.tails[rows]
    keys = np.empty(len(base), dtype=np.int64)
    counts = []
    for f in unit:
        np.multiply(np.take(view.bins[f], rows), T2, out=keys, dtype=np.int64)
        keys += base
        counts.append(_partition_counts(keys, bounds, size))
    return _merge_counts(counts, relational).reshape(len(unit), n_slots, B1,
                                                     len(view.treatments), 2)


@dataclass
class PrefixTable:
    """Per-candidate-bin, per-treatment sufficient statistics.

    Right-branch statistics are always derived as totals minus prefixes;
    missing tallies stay separate until a candidate routes them.
    """
    feature_name: str
    treatments: tuple[str, ...]
    cuts: tuple[float, ...]
    opps: np.ndarray             # int64 [B, T], regular bins only
    accepts: np.ndarray          # int64 [B, T]
    missing_opps: np.ndarray     # int64 [T]
    missing_accepts: np.ndarray  # int64 [T]
    left_opps: np.ndarray        # int64 [B-1, T]
    left_accepts: np.ndarray     # int64 [B-1, T]
    totals_opps: np.ndarray      # int64 [T]
    totals_accepts: np.ndarray   # int64 [T]

    _ARRAYS = ("opps", "accepts", "missing_opps", "missing_accepts", "left_opps",
               "left_accepts", "totals_opps", "totals_accepts")

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1

    @property
    def n_candidates(self) -> int:
        return self.n_bins - 1

    @classmethod
    def from_counts(cls, feature_name, treatments, cuts, opps, accepts,
                    missing_opps, missing_accepts) -> "PrefixTable":
        """Counts are [..., B, T] and [..., T]; prefixes run over the bins."""
        return cls(feature_name, tuple(treatments), tuple(cuts),
                   opps, accepts, missing_opps, missing_accepts,
                   np.cumsum(opps, axis=-2)[..., :-1, :],
                   np.cumsum(accepts, axis=-2)[..., :-1, :],
                   opps.sum(axis=-2), accepts.sum(axis=-2))

    @classmethod
    def from_cells(cls, feature_name, treatments, cuts, cells) -> "PrefixTable":
        """``cells`` is int64 [..., B+1, T, 2]: rows with outcome 0 and 1 per
        bin (the missing bin last) and treatment."""
        accepts = cells[..., 1]
        opps = cells[..., 0] + accepts
        return cls.from_counts(feature_name, treatments, cuts, opps[..., :-1, :],
                               accepts[..., :-1, :], opps[..., -1, :], accepts[..., -1, :])

    def cells(self) -> np.ndarray:
        """The inverse of ``from_cells``: int64 [..., B+1, T, 2]."""
        opps = np.concatenate([self.opps, self.missing_opps[..., None, :]], axis=-2)
        accepts = np.concatenate([self.accepts, self.missing_accepts[..., None, :]], axis=-2)
        return np.stack([opps - accepts, accepts], axis=-1)

    def zero_support_cells(self) -> list[tuple[int, int]]:
        bins, ts = np.nonzero(self.opps == 0)
        return list(zip(bins.tolist(), ts.tolist()))

    def to_record(self) -> dict:
        return {
            "feature": self.feature_name,
            "treatments": list(self.treatments),
            "n_bins": self.n_bins,
            "cuts": list(self.cuts),
            **{name: getattr(self, name).tolist() for name in self._ARRAYS},
        }


def _feature_table(data: SplitInput, feature: str, boundaries: Boundaries,
                   treatments: Sequence[str], relational: bool) -> PrefixTable:
    """One feature's slice of S1 on ``data``'s rows as one node, counted on
    the caller's thread."""
    grid, per_part = _scan(data, [feature], {feature: boundaries}, treatments, 1, False)
    (cells,) = _root_cells(grid, [[0]], per_part, relational)
    return PrefixTable.from_cells(feature, grid.treatments, boundaries.cuts, cells[0, 0])


def build_prefix_sums(data: SplitInput, feature: str,
                      boundaries: Boundaries, treatments: Sequence[str]) -> PrefixTable:
    """S1: exact group-by counts with explicit zero-fill over the fixed
    treatment vocabulary; independent of row order and partitioning.  The
    partitions' dense count tables are summed."""
    return _feature_table(data, feature, boundaries, treatments, False)


def windowed_prefix_table(data: SplitInput, feature: str,
                          boundaries: Boundaries, treatments: Sequence[str]) -> PrefixTable:
    """Same counts via a grouped-then-cumulative plan: each partition's
    non-empty cells as sparse (key, count) groups, merged by a sort on the
    cell key, then per-treatment running window sums over the bins.  Integer
    arithmetic makes it exactly equal to the dense path."""
    return _feature_table(data, feature, boundaries, treatments, True)


def ddp_max(uplifts_left: Sequence[float], uplifts_right: Sequence[float]) -> float:
    """Maximum separation between the best uplift on one side and the worst
    on the other: max(max(R) - min(L), max(L) - min(R))."""
    try:
        ul, ur = list(uplifts_left), list(uplifts_right)
    except TypeError:
        raise InvalidArgumentError("ddp_max takes two sequences of numbers") from None
    if not all(_is_real(u) for u in ul + ur):
        raise InvalidArgumentError("ddp_max takes two sequences of numbers")
    if not ul or not ur:
        raise InvalidArgumentError("ddp_max needs at least one uplift per side")
    return max(max(ur) - min(ul), max(ul) - min(ur))


@dataclass
class CandidateScore:
    feature_name: str
    candidate_bin: int
    threshold_boundary: float
    nan_direction: str
    score: float
    valid: bool
    invalid_reason: Optional[str] = None
    left_opps: Optional[np.ndarray] = None
    right_opps: Optional[np.ndarray] = None
    left_accepts: Optional[np.ndarray] = None
    right_accepts: Optional[np.ndarray] = None

    def identity(self) -> tuple:
        return (self.feature_name, self.candidate_bin, self.nan_direction)


def candidate_order_key(cand: CandidateScore) -> tuple:
    """Strict total order: score desc, threshold asc, bin asc, NaN-left
    preferred, feature name asc.  min() under this key is the winner."""
    _check_types((cand, CandidateScore))
    return (-cand.score, cand.threshold_boundary, cand.candidate_bin,
            0 if cand.nan_direction == NAN_LEFT else 1, cand.feature_name)


def compare_candidates(a: CandidateScore, b: CandidateScore) -> int:
    _check_types((a, CandidateScore), (b, CandidateScore))
    if not a.valid or not b.valid:
        raise InvalidArgumentError("compare_candidates is defined for valid candidates")
    ka, kb = candidate_order_key(a), candidate_order_key(b)
    return -1 if ka < kb else (1 if ka > kb else 0)


@dataclass(frozen=True)
class SplitConfig:
    min_leaf_size: int = 1
    control_label_override: Optional[str] = None
    safety_skip_threshold: int = 100000
    execution_path: str = PATH_REFERENCE
    pool_size: Optional[int] = None

    def __post_init__(self):
        _check_int(self.min_leaf_size, "min_leaf_size", 1)
        _check_int(self.safety_skip_threshold, "safety_skip_threshold")
        if self.execution_path not in EXECUTION_PATHS:
            raise InvalidArgumentError(f"unknown execution path {self.execution_path!r}")
        if self.pool_size is not None:
            _check_int(self.pool_size, "pool_size", 1)

    @property
    def workers(self) -> int:
        """Threads of every pool the split search runs: ``pool_size``, or
        one per CPU."""
        return self.pool_size or os.cpu_count() or 1

    def with_path(self, path: str) -> "SplitConfig":
        return replace(self, execution_path=path)


_REASON_NO_CONTROL = "needs a control and at least one non-control treatment"
_REASON_ZERO_SUPPORT = "zero support: every treatment must have opps > 0 on both sides"
_REASON_NOT_FINITE = "score is not finite"


def _reason_min_leaf(min_leaf_size: int) -> str:
    return f"branch total below min_leaf_size={min_leaf_size}"


def _reason_counts(reasons: np.ndarray, texts: Sequence[Optional[str]]) -> Counter:
    """Rejected candidates per reason text, tallied from reason codes."""
    counts = np.bincount(reasons.ravel(), minlength=len(texts))
    return Counter({texts[code]: int(n) for code, n in enumerate(counts)
                    if code != _VALID and n})


def _routes(left: np.ndarray, totals: np.ndarray, missing: np.ndarray):
    """Left and right branch counts [T, R, 2, B-1] of every candidate on both
    NaN routes (missing tallies added to the routed branch), from prefix sums
    [T, R, B-1] and totals and missing tallies [T, R]."""
    right = totals[..., None] - left
    missing = missing[..., None]
    return np.stack([left + missing, left], axis=2), np.stack([right, right + missing], axis=2)


# reason codes, in the order the scalar oracle checks them
_VALID, _NO_CONTROL, _ZERO_SUPPORT, _MIN_LEAF, _NOT_FINITE = range(5)


class _FeatureScores:
    """S2 of every candidate of stacked cell tables, for every node and
    feature, in one array pass.

    Arrays are [R, 2, B-1]: axis 0 runs over the stacked tables (R = 1 for
    one feature's table, F_g features times K nodes for a B group), axis 1
    the NaN route (left, right).
    Branch counts put the treatments first, [T, R, 2, B-1], so that every
    reduction over T combines whole slabs.  Every element comes from the same
    IEEE operations as in the test oracle ``scalar_candidate``
    (``tests/_oracles.py``): element-wise division and subtraction, exact max
    and min reductions, and ``where(b > a, b, a)``, which is the builtin
    ``max(a, b)``.  Reasons and scores therefore equal the oracle's, score
    bits included."""

    def __init__(self, opps, accepts, control_idx: int, min_leaf_size: int):
        """``opps`` and ``accepts`` are ``_routes``' (left, right) pairs."""
        # the invalid reason of each reason code (None for a valid candidate)
        self.reason_texts = (None, _REASON_NO_CONTROL, _REASON_ZERO_SUPPORT,
                             _reason_min_leaf(min_leaf_size), _REASON_NOT_FINITE)
        (self.left_o, self.right_o), (self.left_a, self.right_a) = opps, accepts
        T = len(self.left_o)
        if T < 2:
            self.reasons = np.full(self.left_o.shape[1:], _NO_CONTROL)
            self.scores = np.full(self.left_o.shape[1:], math.nan)
            return
        zero = (self.left_o == 0).any(axis=0) | (self.right_o == 0).any(axis=0)
        small = ((self.left_o.sum(axis=0) < min_leaf_size)
                 | (self.right_o.sum(axis=0) < min_leaf_size))
        noncontrol = [t for t in range(T) if t != control_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            left_rates = self.left_a / self.left_o
            right_rates = self.right_a / self.right_o
            ul = left_rates[noncontrol] - left_rates[control_idx]
            ur = right_rates[noncontrol] - right_rates[control_idx]
            a = ur.max(axis=0) - ul.min(axis=0)
            b = ul.max(axis=0) - ur.min(axis=0)
        scores = np.where(b > a, b, a)
        self.reasons = np.select([zero, small, ~np.isfinite(scores)],
                                 [_ZERO_SUPPORT, _MIN_LEAF, _NOT_FINITE], _VALID)
        # the scalar oracle returns before scoring these
        self.scores = np.where(zero | small, math.nan, scores)

    @classmethod
    def of_cells(cls, cells: np.ndarray, control_idx: int,
                 min_leaf_size: int) -> "_FeatureScores":
        """Scores of stacked cells [R, B+1, T, 2] (rows with outcome 0 and 1
        per bin, the missing bin last, and treatment)."""
        counts = np.ascontiguousarray(cells.transpose(2, 3, 0, 1))   # [T, 2, R, B+1]
        accepts = counts[:, 1]
        # prefix over the regular bins: cumsum(x[:B])[:B-1] is cumsum(x[:B-1])
        return cls(*(_routes(np.cumsum(x[..., :-2], axis=-1), x[..., :-1].sum(axis=-1),
                             x[..., -1]) for x in (counts[:, 0] + accepts, accepts)),
                   control_idx, min_leaf_size)

    def _candidate(self, row: int, d: int, c: int, name: str, cut: float) -> CandidateScore:
        """The scored candidate of bin ``c`` on route ``d`` of table ``row``."""
        at = (row, d, c)
        code = int(self.reasons[at])
        return CandidateScore(name, c, cut, _DIRECTIONS[d], float(self.scores[at]),
                              code == _VALID, self.reason_texts[code],
                              left_opps=self.left_o[(slice(None), *at)],
                              right_opps=self.right_o[(slice(None), *at)],
                              left_accepts=self.left_a[(slice(None), *at)],
                              right_accepts=self.right_a[(slice(None), *at)])

    def best(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row, the first valid candidate under ``candidate_order_key``:
        its bin, route and score, and whether the row has a valid candidate.
        Within a feature threshold order is bin order, so the key is (score
        desc, bin, NaN-left first), and argmax's first maximum over each
        row's (bin, route) order picks it."""
        valid = self.reasons == _VALID
        ranked = np.where(valid, self.scores, -np.inf).swapaxes(1, 2).reshape(len(valid), -1)
        best = np.argmax(ranked, axis=1)
        return (best // 2, best % 2, ranked[np.arange(len(best)), best],
                valid.any(axis=(1, 2)))


def expand_and_score(table: PrefixTable, config: SplitConfig) -> list[CandidateScore]:
    """S2: exactly 2*(B-1) candidates per feature, both NaN routes, missing
    tallies added to the routed branch before rate computation; in (bin,
    route) order."""
    _check_types((table, PrefixTable), (config, SplitConfig))
    control = select_control(table.treatments, config.control_label_override)
    scores = _FeatureScores.of_cells(table.cells()[None], table.treatments.index(control),
                                     config.min_leaf_size)
    return [scores._candidate(0, d, c, table.feature_name, cut)
            for c, cut in enumerate(table.cuts) for d in (0, 1)]


@dataclass
class BestSplit:
    feature_name: str
    candidate_bin: int
    threshold_boundary: float
    nan_direction: str
    score: float
    control_label: str
    diagnostics: dict = field(default_factory=dict)

    def as_tuple(self) -> tuple:
        return (self.feature_name, self.candidate_bin, self.threshold_boundary,
                self.nan_direction, self.score)

    def to_record(self) -> dict:
        return {"feature": self.feature_name, "candidate_bin": self.candidate_bin,
                "threshold_boundary": self.threshold_boundary,
                "nan_direction": self.nan_direction, "score": self.score,
                "control_label": self.control_label, "diagnostics": self.diagnostics}


@dataclass
class SplitSearchResult:
    status: str
    best: Optional[BestSplit]
    candidate_rows: int
    control_label: Optional[str] = None
    reason: Optional[str] = None

    def to_record(self) -> dict:
        rec = {"status": self.status, "candidate_rows": self.candidate_rows}
        if self.reason:
            rec["reason"] = self.reason
        if self.control_label is not None:
            rec["control_label"] = self.control_label
        rec["best"] = self.best.to_record() if self.best else None
        return rec


def _make_best(cand: CandidateScore, control: str) -> BestSplit:
    return BestSplit(cand.feature_name, cand.candidate_bin, cand.threshold_boundary,
                     cand.nan_direction, cand.score, control,
                     diagnostics={
                         "left_opps": cand.left_opps.tolist(),
                         "right_opps": cand.right_opps.tolist(),
                         "left_accepts": cand.left_accepts.tolist(),
                         "right_accepts": cand.right_accepts.tolist(),
                     })


def _total_candidate_rows(per_feature: Sequence[Boundaries], n_treatments: int) -> int:
    return sum(candidate_row_count(1, b.n_bins, n_treatments) for b in per_feature)


def _no_valid_summary(reasons: Mapping[str, int]) -> str:
    """``reasons`` counts the rejected candidates per invalid reason."""
    parts = [f"{count}x {reason}" for reason, count in sorted(reasons.items())]
    return "no valid candidate: " + ("; ".join(parts) if parts else "no candidates")


def _skip_reason(cand_rows: int, config: SplitConfig) -> Optional[str]:
    """Why the reference path declines to collect ``cand_rows`` candidate
    rows, or None when it does not."""
    if config.execution_path == PATH_REFERENCE and cand_rows > config.safety_skip_threshold:
        return (f"candidate rows {cand_rows} exceed safety threshold "
                f"{config.safety_skip_threshold}")
    return None


def _count_level(view: BinnedRows, units: Sequence[Sequence[int]], config: SplitConfig,
                 rows: np.ndarray, slots: np.ndarray, n_slots: int) -> list[np.ndarray]:
    """S1 below the root: every unit's cells of a counted subset of the
    rows under the path's plan (see ``_count_cells``); the partitioned path
    counts each unit in a pool worker."""
    relational = config.execution_path == PATH_RELATIONAL

    def count(unit):
        return _count_cells(view, unit, relational, rows, slots, n_slots)

    if config.execution_path == PATH_PARTITIONED and units:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(count, units))
    return [count(unit) for unit in units]


def _search_cells(grid: _Grid, units: Sequence[Sequence[int]],
                  tables: Sequence[np.ndarray], n_nodes: int, control_idx: int,
                  min_leaf_size: int) -> tuple[list[Optional[CandidateScore]], list]:
    """S2 of every node: the units' cell tables of each B are stacked and
    scored in one ``_FeatureScores`` pass, and each node's winner is picked
    from arrays in ``candidate_order_key`` order, feature names ranked by
    name.  Returns each node's winning candidate, equal to the search on its
    rows alone (None when the node has no valid one), and the scored groups.
    A winner's branch counts are views of its group's arrays."""
    stacks: dict[int, list] = {}
    for unit, cells in zip(units, tables):
        stacks.setdefault(grid.boundaries[unit[0]].n_bins, []).append((unit, cells))
    scored, keys, groups = [], [], []
    for parts in stacks.values():
        feats = [f for unit, _ in parts for f in unit]
        stacked = np.concatenate([cells for _, cells in parts])
        scores = _FeatureScores.of_cells(stacked.reshape(-1, *stacked.shape[2:]),
                                         control_idx, min_leaf_size)
        c, d, score, has = (a.reshape(len(feats), n_nodes) for a in scores.best())
        cuts = np.array([grid.boundaries[f].cuts for f in feats])
        keys.append((c, d, score, has, np.take_along_axis(cuts, c, axis=1)))
        groups.extend((scores, i, f) for i, f in enumerate(feats))
        scored.append(scores)
    if not groups:
        return [None] * n_nodes, scored
    c, d, score, has, threshold = (np.concatenate(k) for k in zip(*keys))
    names = [grid.features[f] for _, _, f in groups]
    rank = np.array(sorted(range(len(names)), key=names.__getitem__)).argsort()
    # lexsort's last key is its first: valid first, then the total order
    win = np.lexsort((np.broadcast_to(rank[:, None], c.shape), d, c, threshold,
                      -score, ~has), axis=0)[0]

    def winner(k: int) -> Optional[CandidateScore]:
        f = win[k]
        if not has[f, k]:
            return None
        scores, i, feat = groups[f]
        return scores._candidate(i * n_nodes + k, int(d[f, k]), int(c[f, k]),
                                 grid.features[feat], float(threshold[f, k]))

    return [winner(k) for k in range(n_nodes)], scored


def best_split(data: SplitInput, features: Sequence[str],
               boundaries: Mapping[str, Boundaries], treatments: Sequence[str],
               config: SplitConfig) -> SplitSearchResult:
    """Deterministic best split; all three execution paths return identical
    results on identical inputs (contract scope: fixed shared boundaries).
    S1 runs one task per partition on a pool of ``pool_size`` threads
    (default one per CPU) on every path: each task bins the partition's
    features into one reused row and counts its root cells from that row at
    once, so no [F, N] bin matrix is ever made.  Each path merges the
    partitions' tables under its plan, then S2 searches every unit at once."""
    _check_types((config, SplitConfig))
    treatments = tuple(treatments)
    features = list(features)
    control = select_control(treatments, config.control_label_override)
    cand_rows = _total_candidate_rows(feature_boundaries(boundaries, features),
                                      len(treatments))
    skip = _skip_reason(cand_rows, config)
    if skip is not None:
        return SplitSearchResult(STATUS_SKIPPED_TOO_LARGE, None, cand_rows, control,
                                 reason=skip)
    grid, per_part = _scan(data, features, boundaries, treatments, config.workers, False)
    units = _units(grid, config)
    tables = _root_cells(grid, units, per_part, config.execution_path == PATH_RELATIONAL)
    (winner,), scored = _search_cells(grid, units, tables, 1, treatments.index(control),
                                      config.min_leaf_size)
    if winner is None:
        rejected = sum((_reason_counts(s.reasons, s.reason_texts) for s in scored), Counter())
        return SplitSearchResult(STATUS_NO_VALID, None, cand_rows, control,
                                 reason=_no_valid_summary(rejected))
    return SplitSearchResult(STATUS_OK, _make_best(winner, control), cand_rows, control)


# ---------------------------------------------------------------------------
# intentionally naive variants (the adversarial failure catalog)
# ---------------------------------------------------------------------------

NAIVE_VARIANTS = ("no_total_order", "first_seen_control", "sparse_omit",
                  "implicit_missing", "recomputed_quantiles")


def _row_order_digest(data: Union[ColumnFrame, PartitionedFrame]) -> int:
    h = hashlib.blake2b(digest_size=8)
    for f in frames_of(data):
        h.update(np.int64(f.n_rows).tobytes())
        h.update(f.row_ids.astype("<i8").tobytes())
    return int.from_bytes(h.digest(), "little")


def _naive_score_sparse(cand: CandidateScore, control_idx: int,
                        min_leaf_size: int) -> CandidateScore:
    """sparse_omit: a contract candidate's routed counts rescored with
    zero-support cells dropped and no positive-support check."""
    naive = replace(cand, score=math.nan, valid=False, invalid_reason=None)
    if cand.left_opps.sum() < min_leaf_size or cand.right_opps.sum() < min_leaf_size:
        naive.invalid_reason = _reason_min_leaf(min_leaf_size)
        return naive

    def branch_uplifts(opps, accepts):
        ctrl = accepts[control_idx] / opps[control_idx] if opps[control_idx] > 0 else 0.0
        return [accepts[t] / opps[t] - ctrl
                for t in range(len(opps)) if t != control_idx and opps[t] > 0]

    ul = branch_uplifts(cand.left_opps, cand.left_accepts)
    ur = branch_uplifts(cand.right_opps, cand.right_accepts)
    if not ul or not ur:
        naive.invalid_reason = "no supported non-control treatment on a branch"
        return naive
    naive.score = float(ddp_max(ul, ur))
    if math.isfinite(naive.score):
        naive.valid = True
    else:
        naive.invalid_reason = _REASON_NOT_FINITE
    return naive


def approx_quantile_boundaries(data: Union[ColumnFrame, PartitionedFrame], feature: str,
                               n_bins: int) -> Optional[Boundaries]:
    """Epsilon-approximate (eps = 0.01) rank-based boundaries from
    per-partition summaries.  Deliberately depends on partition layout; only
    its instability relative to shared fixed boundaries matters.  None when
    the feature has no non-missing value."""
    _check_int(n_bins, "n_bins", 2)
    points: list[tuple[float, int]] = []
    total = 0
    for part in frames_of(data):
        vals = part.effective_values(feature)
        vals = np.sort(vals[~np.isnan(vals)])
        if vals.size == 0:
            continue
        step = max(1, int(math.floor(0.01 * vals.size)))
        idx = np.arange(step - 1, vals.size, step)
        if idx.size == 0 or idx[-1] != vals.size - 1:
            idx = np.append(idx, vals.size - 1)
        prev = -1
        for i in idx:
            points.append((float(vals[i]), int(i - prev)))
            prev = int(i)
        total += vals.size
    if total == 0:
        return None
    points.sort()
    values = [p[0] for p in points]
    weights = np.cumsum([p[1] for p in points])
    cuts: list[float] = []
    for j in range(1, n_bins):
        target = j * total / n_bins
        k = min(int(np.searchsorted(weights, target, side="left")), len(values) - 1)
        if not cuts or values[k] > cuts[-1]:
            cuts.append(values[k])
    return Boundaries(feature, tuple(cuts))


def naive_variant_best_split(variant: str, data: Union[ColumnFrame, PartitionedFrame],
                             features: Sequence[str], boundaries: Mapping[str, Boundaries],
                             treatments: Sequence[str], config: SplitConfig) -> SplitSearchResult:
    """Intentionally broken semantics used by the failure catalog: each
    variant is the contract search with one rule broken."""
    if variant not in NAIVE_VARIANTS:
        raise InvalidArgumentError(f"unknown naive variant {variant!r}")
    treatments = tuple(treatments)
    features = list(features)
    cand_rows = _total_candidate_rows(feature_boundaries(boundaries, features),
                                      len(treatments))
    # the contract search on the reference path, never safety-skipped
    contract_cfg = replace(config, execution_path=PATH_REFERENCE,
                           safety_skip_threshold=max(config.safety_skip_threshold,
                                                     cand_rows + 1))

    if variant == "recomputed_quantiles":
        recomputed = {}
        for feat in features:
            b = approx_quantile_boundaries(data, feat, boundaries[feat].n_bins)
            recomputed[feat] = b if b is not None else boundaries[feat]
        return best_split(data, features, recomputed, treatments, contract_cfg)
    if variant == "first_seen_control":
        first = next((str(f.treatments[0]) for f in frames_of(data) if f.n_rows), None)
        if first is None:
            raise InvalidArgumentError("cannot infer first-seen control from an empty frame")
        return best_split(data, features, boundaries, treatments,
                          replace(contract_cfg, control_label_override=first))

    control = select_control(treatments, config.control_label_override)
    collected = [cand for feat in features for cand in expand_and_score(
        build_prefix_sums(data, feat, boundaries[feat], treatments), config)]
    if variant == "sparse_omit":
        control_idx = treatments.index(control)
        collected = [_naive_score_sparse(cand, control_idx, config.min_leaf_size)
                     for cand in collected]
    elif variant == "implicit_missing":
        collected = [cand for cand in collected if cand.nan_direction == NAN_LEFT]
    valid = [c for c in collected if c.valid]
    if not valid:
        return SplitSearchResult(STATUS_NO_VALID, None, cand_rows, control,
                                 reason=_no_valid_summary(Counter(
                                     c.invalid_reason for c in collected if not c.valid)))
    if variant == "no_total_order":
        # stable but input-order-dependent tie resolution: scan an order keyed
        # off the concatenated row-id sequence, keep strictly-greater scores
        perm = rng.permutation(_row_order_digest(data), "naive-tie-order", len(valid))
        best = None
        for i in perm:
            if best is None or valid[int(i)].score > best.score:
                best = valid[int(i)]
        return SplitSearchResult(STATUS_OK, _make_best(best, control), cand_rows, control)
    return SplitSearchResult(STATUS_OK, _make_best(min(valid, key=candidate_order_key),
                                                   control), cand_rows, control)
