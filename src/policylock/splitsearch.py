"""Collect-less multi-treatment split search.

Stage S1 turns rows into per-candidate-bin, per-treatment prefix sums with an
explicit missing bin.  Rows arrive either as a frame (``ColumnFrame`` or
``PartitionedFrame``, bucketized feature by feature) or as a ``BinnedRows``
view whose features were bucketized once under the same fixed boundaries, so
a caller that searches many row subsets (the trainer, one per node) bins each
row once.  Both kinds of input reach the three execution paths' distinct
aggregations through one per-partition ``(bins, codes, positives)`` reader.

Stage S2 expands every candidate into both missing routes, applies the full
validity checks, scores with the DDP max-envelope and selects the winner
under a strict total order.  All execution paths share one array routine
that scores every candidate of a feature at once with the same IEEE
operations as the scalar ``_score_candidate``, so scores are bit-identical
to it and cross-path score deltas are exactly zero.  The scalar routine
stays as the test oracle and serves the naive variants.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError, SchemaError
from .frame import ColumnFrame, PartitionedFrame
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
        cuts = tuple(float(c) for c in self.cuts)
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


def uniform_boundaries(feature_name: str, n_bins: int, lo: float = 0.0,
                       hi: float = 1.0) -> Boundaries:
    cuts = tuple(lo + (hi - lo) * i / n_bins for i in range(1, n_bins))
    return Boundaries(feature_name, cuts)


# widest B bucketized by counting cuts (the bin count fits a uint8 counter)
_COUNT_CUTS_MAX_BINS = 255


def bucketize(value, boundaries: Boundaries):
    """Bin index in [0, B]: missing -> B; a value equal to cuts[i] lands in
    bin i (left-inclusive, matching '<=' left routing).

    The bin is the number of cuts strictly below the value, which equals
    ``searchsorted(cuts, value, side="left")`` because cuts strictly increase
    and are never NaN.  For B <= 255 it is computed branch-free, one
    compare-and-add pass per cut into a uint8 counter; a binary search over
    random values mispredicts at every step and is several times slower
    there.  Compare-and-count is O(B) per value, so wider features keep
    ``searchsorted``."""
    arr = np.asarray(value, dtype=np.float64)
    if boundaries.n_bins <= _COUNT_CUTS_MAX_BINS:
        count = np.zeros(arr.shape, dtype=np.uint8)
        below = np.empty(arr.shape, dtype=bool)
        for cut in boundaries.cuts:
            np.less(cut, arr, out=below)
            np.add(count, below.view(np.uint8), out=count)
        bins = count.astype(np.int64)
    else:
        bins = np.asarray(np.searchsorted(boundaries.cuts, arr, side="left"), dtype=np.int64)
    bins[np.isnan(arr)] = boundaries.missing_bin
    if np.isscalar(value) or arr.ndim == 0:
        return int(bins)
    return bins


def candidate_row_count(n_features: int, n_bins: int, n_treatments: int) -> int:
    if n_features < 1 or n_bins < 1 or n_treatments < 1:
        raise InvalidArgumentError("F, B, T must all be >= 1")
    return n_features * (n_bins - 1) * n_treatments


def select_control(treatment_labels: Sequence[str], override: Optional[str] = None) -> str:
    """Deterministic control choice: override, case-insensitive "control",
    exact "0", then the lexicographically smallest label."""
    labels = list(treatment_labels)
    if not labels:
        raise InvalidArgumentError("treatment vocabulary is empty")
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
    ``str``.  The read-only codes are cached on the frame per vocabulary."""
    treatments = tuple(treatments)
    cached = getattr(frame, "_treatment_codes", None)
    if cached is not None and cached[0] == treatments:
        return cached[1]
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


@dataclass(frozen=True)
class BinnedRows:
    """Rows bucketized once under fixed boundaries: ``bins[f]`` is feature
    ``features[f]``'s bin per row (missing bin B included), ``codes`` the
    treatment index in ``treatments`` and ``positives`` the outcome-1 mask.

    ``best_split`` accepts a view in place of a frame; the view remembers
    the boundaries and vocabulary it was built with, and a search under any
    other raises ``InvalidArgumentError``."""
    features: tuple[str, ...]
    boundaries: tuple[Boundaries, ...]
    treatments: tuple[str, ...]
    bins: np.ndarray        # uint8 [F, N]; uint16 (or wider) when some B+1 > 256
    codes: np.ndarray       # int64 [N]
    positives: np.ndarray   # bool [N]

    def take(self, rows: np.ndarray) -> "BinnedRows":
        return BinnedRows(self.features, self.boundaries, self.treatments,
                          self.bins[:, rows], self.codes[rows], self.positives[rows])

    def feature_bins(self, feature: str, boundaries: Boundaries,
                     treatments: tuple[str, ...]) -> np.ndarray:
        """One feature's bins, after checking that a search under
        ``boundaries`` and ``treatments`` sees the same bins as the view."""
        if feature not in self.features:
            raise SchemaError(f"no binned feature named {feature!r}")
        f = self.features.index(feature)
        if self.boundaries[f] != boundaries:
            raise InvalidArgumentError(
                f"binned rows of {feature!r} were built with other boundaries")
        if self.treatments != treatments:
            raise InvalidArgumentError(
                "binned rows were built with another treatment vocabulary")
        return self.bins[f]


def bin_rows(frame: ColumnFrame, features: Sequence[str],
             boundaries: Mapping[str, Boundaries], treatments: Sequence[str],
             codes: np.ndarray) -> BinnedRows:
    """Bucketize every feature of ``frame`` once; ``codes`` is
    ``treatment_codes(frame, treatments)``."""
    features, treatments = tuple(features), tuple(treatments)
    bounds = tuple(boundaries[name] for name in features)
    dtype = np.min_scalar_type(max((b.missing_bin for b in bounds), default=0))
    bins = np.empty((len(features), frame.n_rows), dtype=dtype)
    for f, (name, b) in enumerate(zip(features, bounds)):
        bins[f] = bucketize(frame.effective_values(name), b)
    return BinnedRows(features, bounds, treatments, bins, codes, frame.outcomes == 1)


SplitInput = Union[ColumnFrame, PartitionedFrame, BinnedRows]


def _partition_rows(data: SplitInput, feature: str, boundaries: Boundaries,
                    treatments: tuple[str, ...]):
    """S1's one counting input: per partition, int64 bins of ``feature``,
    treatment codes and the positives mask."""
    if isinstance(data, BinnedRows):
        # widened: narrow bins times T would wrap
        bins = data.feature_bins(feature, boundaries, treatments)
        yield bins.astype(np.int64), data.codes, data.positives
        return
    frames = data.partitions if isinstance(data, PartitionedFrame) else (data,)
    if not frames:
        raise InvalidArgumentError("partitioned frame has no partitions")
    for part in frames:
        yield (bucketize(part.effective_values(feature), boundaries),
               treatment_codes(part, treatments), part.outcomes == 1)


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

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1

    @property
    def n_candidates(self) -> int:
        return self.n_bins - 1

    @classmethod
    def from_counts(cls, feature_name, treatments, cuts, opps, accepts,
                    missing_opps, missing_accepts) -> "PrefixTable":
        return cls(feature_name, tuple(treatments), tuple(cuts),
                   opps, accepts, missing_opps, missing_accepts,
                   np.cumsum(opps, axis=0)[:-1], np.cumsum(accepts, axis=0)[:-1],
                   opps.sum(axis=0), accepts.sum(axis=0))

    def merge(self, other: "PrefixTable") -> "PrefixTable":
        if (other.feature_name != self.feature_name or other.treatments != self.treatments
                or other.cuts != self.cuts):
            raise InvalidArgumentError("cannot merge prefix tables with different shapes")
        return PrefixTable.from_counts(
            self.feature_name, self.treatments, self.cuts,
            self.opps + other.opps, self.accepts + other.accepts,
            self.missing_opps + other.missing_opps,
            self.missing_accepts + other.missing_accepts)

    def zero_support_cells(self) -> list[tuple[int, int]]:
        bins, ts = np.nonzero(self.opps == 0)
        return list(zip(bins.tolist(), ts.tolist()))

    def to_record(self) -> dict:
        return {
            "feature": self.feature_name,
            "treatments": list(self.treatments),
            "n_bins": self.n_bins,
            "cuts": list(self.cuts),
            "opps": self.opps.tolist(),
            "accepts": self.accepts.tolist(),
            "missing_opps": self.missing_opps.tolist(),
            "missing_accepts": self.missing_accepts.tolist(),
            "left_opps": self.left_opps.tolist(),
            "left_accepts": self.left_accepts.tolist(),
            "totals_opps": self.totals_opps.tolist(),
            "totals_accepts": self.totals_accepts.tolist(),
        }


def build_prefix_sums(data: SplitInput, feature: str,
                      boundaries: Boundaries, treatments: Sequence[str]) -> PrefixTable:
    """S1: exact group-by counts with explicit zero-fill over the fixed
    treatment vocabulary; independent of row order and partitioning."""
    treatments = tuple(treatments)
    T = len(treatments)
    B = boundaries.n_bins
    size = (B + 1) * T
    opps = np.zeros(size, dtype=np.int64)
    accepts = np.zeros(size, dtype=np.int64)
    for bins, codes, positives in _partition_rows(data, feature, boundaries, treatments):
        combined = bins * T + codes
        opps += np.bincount(combined, minlength=size)
        accepts += np.bincount(combined[positives], minlength=size)
    opps, accepts = opps.reshape(B + 1, T), accepts.reshape(B + 1, T)
    return PrefixTable.from_counts(feature, treatments, boundaries.cuts,
                                   opps[:B], accepts[:B], opps[B], accepts[B])


def windowed_prefix_table(data: SplitInput, feature: str,
                          boundaries: Boundaries, treatments: Sequence[str]) -> PrefixTable:
    """Same counts via a grouped-then-cumulative plan: sparse (bin, treatment)
    groups merged across partitions, then per-treatment running window sums.
    Integer arithmetic makes it exactly equal to the dense path."""
    treatments = tuple(treatments)
    T = len(treatments)
    B = boundaries.n_bins
    groups: dict[tuple[int, int], list[int]] = {}
    for bins, codes, positives in _partition_rows(data, feature, boundaries, treatments):
        combined = bins * T + codes
        keys, counts = np.unique(combined, return_counts=True)
        pos_keys, pos_counts = np.unique(combined[positives], return_counts=True)
        pos_map = dict(zip(pos_keys.tolist(), pos_counts.tolist()))
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            cell = groups.setdefault((key // T, key % T), [0, 0])
            cell[0] += cnt
            cell[1] += pos_map.get(key, 0)
    opps = np.zeros((B, T), dtype=np.int64)
    accepts = np.zeros((B, T), dtype=np.int64)
    missing_opps = np.zeros(T, dtype=np.int64)
    missing_accepts = np.zeros(T, dtype=np.int64)
    left_opps = np.zeros((B - 1, T), dtype=np.int64)
    left_accepts = np.zeros((B - 1, T), dtype=np.int64)
    totals_opps = np.zeros(T, dtype=np.int64)
    totals_accepts = np.zeros(T, dtype=np.int64)
    for t in range(T):
        bins_for_t = sorted(bb for (bb, tt) in groups if tt == t)
        running_o = running_a = 0
        pos = 0
        for c in range(B - 1):
            while pos < len(bins_for_t) and bins_for_t[pos] <= c:
                b = bins_for_t[pos]
                if b < B:
                    running_o += groups[(b, t)][0]
                    running_a += groups[(b, t)][1]
                pos += 1
            left_opps[c, t] = running_o
            left_accepts[c, t] = running_a
        for b in bins_for_t:
            o, a = groups[(b, t)]
            if b == B:
                missing_opps[t], missing_accepts[t] = o, a
            else:
                opps[b, t] = o
                accepts[b, t] = a
                totals_opps[t] += o
                totals_accepts[t] += a
    return PrefixTable(feature, treatments, boundaries.cuts, opps, accepts,
                       missing_opps, missing_accepts, left_opps, left_accepts,
                       totals_opps, totals_accepts)


def ddp_max(uplifts_left: Sequence[float], uplifts_right: Sequence[float]) -> float:
    """Maximum separation between the best uplift on one side and the worst
    on the other: max(max(R) - min(L), max(L) - min(R))."""
    ul = list(uplifts_left)
    ur = list(uplifts_right)
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
    left_rates: Optional[np.ndarray] = None
    right_rates: Optional[np.ndarray] = None
    left_uplifts: Optional[np.ndarray] = None
    right_uplifts: Optional[np.ndarray] = None
    left_opps: Optional[np.ndarray] = None
    right_opps: Optional[np.ndarray] = None
    left_accepts: Optional[np.ndarray] = None
    right_accepts: Optional[np.ndarray] = None

    def identity(self) -> tuple:
        return (self.feature_name, self.candidate_bin, self.nan_direction)


def candidate_order_key(cand: CandidateScore) -> tuple:
    """Strict total order: score desc, threshold asc, bin asc, NaN-left
    preferred, feature name asc.  min() under this key is the winner."""
    return (-cand.score, cand.threshold_boundary, cand.candidate_bin,
            0 if cand.nan_direction == NAN_LEFT else 1, cand.feature_name)


def compare_candidates(a: CandidateScore, b: CandidateScore) -> int:
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
        if self.min_leaf_size < 1:
            raise InvalidArgumentError("min_leaf_size must be >= 1")
        if self.execution_path not in EXECUTION_PATHS:
            raise InvalidArgumentError(f"unknown execution path {self.execution_path!r}")

    def with_path(self, path: str) -> "SplitConfig":
        return SplitConfig(self.min_leaf_size, self.control_label_override,
                           self.safety_skip_threshold, path, self.pool_size)


_REASON_NO_CONTROL = "needs a control and at least one non-control treatment"
_REASON_ZERO_SUPPORT = "zero support: every treatment must have opps > 0 on both sides"
_REASON_NOT_FINITE = "score is not finite"


def _reason_min_leaf(min_leaf_size: int) -> str:
    return f"branch total below min_leaf_size={min_leaf_size}"


def _route_branches(table: PrefixTable, c, direction: str):
    """Left and right (opps, accepts) of candidate ``c`` with the missing
    tallies added to the ``direction`` branch.  With ``c = slice(None)`` the
    four arrays are every candidate's, shape [B-1, T]."""
    left_o = table.left_opps[c].copy()
    left_a = table.left_accepts[c].copy()
    right_o = table.totals_opps - table.left_opps[c]
    right_a = table.totals_accepts - table.left_accepts[c]
    if direction == NAN_LEFT:
        left_o += table.missing_opps
        left_a += table.missing_accepts
    else:
        right_o += table.missing_opps
        right_a += table.missing_accepts
    return left_o, left_a, right_o, right_a


def _score_candidate(table: PrefixTable, c: int, direction: str, control_idx: int,
                     min_leaf_size: int) -> CandidateScore:
    """Scalar S2 of one candidate: the oracle that ``_FeatureScores`` matches
    bit for bit, and the scorer of the naive variants."""
    left_o, left_a, right_o, right_a = _route_branches(table, c, direction)
    cand = CandidateScore(table.feature_name, c, table.cuts[c], direction,
                          math.nan, False, left_opps=left_o, right_opps=right_o,
                          left_accepts=left_a, right_accepts=right_a)
    T = len(table.treatments)
    if T < 2:
        cand.invalid_reason = _REASON_NO_CONTROL
        return cand
    if (left_o == 0).any() or (right_o == 0).any():
        cand.invalid_reason = _REASON_ZERO_SUPPORT
        return cand
    if left_o.sum() < min_leaf_size or right_o.sum() < min_leaf_size:
        cand.invalid_reason = _reason_min_leaf(min_leaf_size)
        return cand
    left_rates = left_a / left_o
    right_rates = right_a / right_o
    noncontrol = [t for t in range(T) if t != control_idx]
    ul = left_rates[noncontrol] - left_rates[control_idx]
    ur = right_rates[noncontrol] - right_rates[control_idx]
    score = max(ur.max() - ul.min(), ul.max() - ur.min())
    cand.left_rates, cand.right_rates = left_rates, right_rates
    cand.left_uplifts, cand.right_uplifts = ul, ur
    cand.score = float(score)
    if not math.isfinite(cand.score):
        cand.invalid_reason = _REASON_NOT_FINITE
        return cand
    cand.valid = True
    return cand


def expand_and_score(table: PrefixTable, config: SplitConfig,
                     control_label: Optional[str] = None) -> list[CandidateScore]:
    """S2: exactly 2*(B-1) candidates per feature, both NaN routes, missing
    tallies added to the routed branch before rate computation."""
    control = control_label if control_label is not None else \
        select_control(table.treatments, config.control_label_override)
    control_idx = table.treatments.index(control)
    out = []
    for c in range(table.n_candidates):
        for direction in _DIRECTIONS:
            out.append(_score_candidate(table, c, direction, control_idx,
                                        config.min_leaf_size))
    return out


# reason codes, in the order _score_candidate checks them
_VALID, _NO_CONTROL, _ZERO_SUPPORT, _MIN_LEAF, _NOT_FINITE = range(5)


class _FeatureScores:
    """S2 of every candidate of one feature in one array pass.

    Arrays are [2, B-1] (branch counts [2, B-1, T]), axis 0 the NaN route
    (left, right).  Every element comes from the same IEEE operations as in
    ``_score_candidate``: element-wise division and subtraction, exact max and
    min reductions, and ``where(b > a, b, a)``, which is the builtin
    ``max(a, b)``.  Reasons and scores therefore equal the scalar routine's,
    score bits included."""

    def __init__(self, table: PrefixTable, control_idx: int, min_leaf_size: int):
        self.table = table
        self.reason_texts = (None, _REASON_NO_CONTROL, _REASON_ZERO_SUPPORT,
                             _reason_min_leaf(min_leaf_size), _REASON_NOT_FINITE)
        routes = [_route_branches(table, slice(None), d) for d in _DIRECTIONS]
        self.left_o, self.left_a, self.right_o, self.right_a = map(np.stack, zip(*routes))
        T = len(table.treatments)
        if T < 2:
            self.reasons = np.full(self.left_o.shape[:2], _NO_CONTROL)
            self.scores = np.full(self.left_o.shape[:2], math.nan)
            return
        zero = (self.left_o == 0).any(axis=2) | (self.right_o == 0).any(axis=2)
        small = ((self.left_o.sum(axis=2) < min_leaf_size)
                 | (self.right_o.sum(axis=2) < min_leaf_size))
        noncontrol = [t for t in range(T) if t != control_idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            left_rates = self.left_a / self.left_o
            right_rates = self.right_a / self.right_o
            ul = left_rates[..., noncontrol] - left_rates[..., control_idx, None]
            ur = right_rates[..., noncontrol] - right_rates[..., control_idx, None]
            a = ur.max(axis=2) - ul.min(axis=2)
            b = ul.max(axis=2) - ur.min(axis=2)
        scores = np.where(b > a, b, a)
        self.reasons = np.select([zero, small, ~np.isfinite(scores)],
                                 [_ZERO_SUPPORT, _MIN_LEAF, _NOT_FINITE], _VALID)
        # the scalar routine returns before scoring these
        self.scores = np.where(zero | small, math.nan, scores)

    def candidate(self, d: int, c: int) -> CandidateScore:
        """``_score_candidate``'s result for bin ``c`` on route ``d``, with
        its branch counts but without rates and uplifts."""
        code = int(self.reasons[d, c])
        return CandidateScore(self.table.feature_name, c, self.table.cuts[c],
                              _DIRECTIONS[d], float(self.scores[d, c]), code == _VALID,
                              self.reason_texts[code],
                              left_opps=self.left_o[d, c], right_opps=self.right_o[d, c],
                              left_accepts=self.left_a[d, c],
                              right_accepts=self.right_a[d, c])

    def winner(self) -> Optional[CandidateScore]:
        """The feature's first valid candidate under ``candidate_order_key``.
        Within a feature threshold order is bin order, so the key is (score
        desc, bin, NaN-left first), and argmax's first maximum over the
        (bin, route) order picks it."""
        valid = self.reasons == _VALID
        if not valid.any():
            return None
        ranked = np.where(valid, self.scores, -np.inf).T.ravel()
        c, d = divmod(int(np.argmax(ranked)), 2)
        return self.candidate(d, c)

    def reason_counts(self) -> Counter:
        counts = np.bincount(self.reasons.ravel(), minlength=len(self.reason_texts))
        return Counter({self.reason_texts[code]: int(n)
                        for code, n in enumerate(counts) if code != _VALID and n})


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


def _total_candidate_rows(features: Sequence[str], boundaries: Mapping[str, Boundaries],
                          n_treatments: int) -> int:
    return sum(candidate_row_count(1, boundaries[f].n_bins, n_treatments) for f in features)


def _no_valid_summary(reasons: Mapping[str, int]) -> str:
    """``reasons`` counts the rejected candidates per invalid reason."""
    parts = [f"{count}x {reason}" for reason, count in sorted(reasons.items())]
    return "no valid candidate: " + ("; ".join(parts) if parts else "no candidates")


def best_split(data: SplitInput, features: Sequence[str],
               boundaries: Mapping[str, Boundaries], treatments: Sequence[str],
               config: SplitConfig) -> SplitSearchResult:
    """Deterministic best split; all three execution paths return identical
    results on identical inputs (contract scope: fixed shared boundaries).
    ``data`` may be a ``BinnedRows`` view built under the same boundaries
    and treatment vocabulary."""
    treatments = tuple(treatments)
    features = list(features)
    control = select_control(treatments, config.control_label_override)
    control_idx = treatments.index(control)
    cand_rows = _total_candidate_rows(features, boundaries, len(treatments))

    def scores(feat: str, prefix_table) -> _FeatureScores:
        return _FeatureScores(prefix_table(data, feat, boundaries[feat], treatments),
                              control_idx, config.min_leaf_size)

    if config.execution_path == PATH_PARTITIONED:
        # feature-sharded workers, winner-only reduce
        pool_size = config.pool_size or min(8, max(len(features), 1))
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            winners = list(pool.map(lambda f: scores(f, build_prefix_sums).winner(),
                                    features))
        scored = None
    else:
        if config.execution_path == PATH_REFERENCE:
            if cand_rows > config.safety_skip_threshold:
                return SplitSearchResult(
                    STATUS_SKIPPED_TOO_LARGE, None, cand_rows, control,
                    reason=f"candidate rows {cand_rows} exceed safety threshold "
                           f"{config.safety_skip_threshold}")
            scored = [scores(f, build_prefix_sums) for f in features]
        else:
            scored = [scores(f, windowed_prefix_table) for f in features]
        winners = [s.winner() for s in scored]
    winners = [w for w in winners if w is not None]
    if not winners:
        reason = "no valid candidate on any feature shard" if scored is None else \
            _no_valid_summary(sum((s.reason_counts() for s in scored), Counter()))
        return SplitSearchResult(STATUS_NO_VALID, None, cand_rows, control, reason=reason)
    return SplitSearchResult(STATUS_OK, _make_best(min(winners, key=candidate_order_key),
                                                   control), cand_rows, control)


# ---------------------------------------------------------------------------
# intentionally naive variants (the adversarial failure catalog)
# ---------------------------------------------------------------------------

NAIVE_VARIANTS = ("no_total_order", "first_seen_control", "sparse_omit",
                  "implicit_missing", "recomputed_quantiles")


def _row_order_digest(data: Union[ColumnFrame, PartitionedFrame]) -> int:
    frames = data.partitions if isinstance(data, PartitionedFrame) else (data,)
    h = hashlib.blake2b(digest_size=8)
    for f in frames:
        h.update(np.int64(f.n_rows).tobytes())
        h.update(f.row_ids.astype("<i8").tobytes())
    return int.from_bytes(h.digest(), "little")


def _naive_score_sparse(table: PrefixTable, c: int, direction: str, control_idx: int,
                        min_leaf_size: int) -> CandidateScore:
    """sparse_omit: drop zero-support cells, skip the positive-support check."""
    left_o, left_a, right_o, right_a = _route_branches(table, c, direction)
    cand = CandidateScore(table.feature_name, c, table.cuts[c], direction,
                          math.nan, False, left_opps=left_o, right_opps=right_o,
                          left_accepts=left_a, right_accepts=right_a)
    if left_o.sum() < min_leaf_size or right_o.sum() < min_leaf_size:
        cand.invalid_reason = _reason_min_leaf(min_leaf_size)
        return cand

    def branch_uplifts(opps, accepts):
        ctrl = accepts[control_idx] / opps[control_idx] if opps[control_idx] > 0 else 0.0
        return [accepts[t] / opps[t] - ctrl
                for t in range(len(table.treatments))
                if t != control_idx and opps[t] > 0]

    ul = branch_uplifts(left_o, left_a)
    ur = branch_uplifts(right_o, right_a)
    if not ul or not ur:
        cand.invalid_reason = "no supported non-control treatment on a branch"
        return cand
    cand.score = float(max(max(ur) - min(ul), max(ul) - min(ur)))
    if math.isfinite(cand.score):
        cand.valid = True
    else:
        cand.invalid_reason = _REASON_NOT_FINITE
    return cand


def approx_quantile_boundaries(data: Union[ColumnFrame, PartitionedFrame], feature: str,
                               n_bins: int, eps: float = 0.01) -> Optional[Boundaries]:
    """Epsilon-approximate rank-based boundaries from per-partition summaries.
    Deliberately depends on partition layout; only its instability relative to
    shared fixed boundaries matters."""
    frames = data.partitions if isinstance(data, PartitionedFrame) else (data,)
    points: list[tuple[float, int]] = []
    total = 0
    for part in frames:
        vals = part.effective_values(feature)
        vals = np.sort(vals[~np.isnan(vals)])
        if vals.size == 0:
            continue
        step = max(1, int(math.floor(eps * vals.size)))
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
    if not cuts:
        return None
    return Boundaries(feature, tuple(cuts))


def naive_variant_best_split(variant: str, data: Union[ColumnFrame, PartitionedFrame],
                             features: Sequence[str], boundaries: Mapping[str, Boundaries],
                             treatments: Sequence[str], config: SplitConfig) -> SplitSearchResult:
    """Intentionally broken semantics used by the failure catalog."""
    if variant not in NAIVE_VARIANTS:
        raise InvalidArgumentError(f"unknown naive variant {variant!r}")
    treatments = tuple(treatments)
    features = list(features)
    cand_rows = _total_candidate_rows(features, boundaries, len(treatments))

    if variant == "recomputed_quantiles":
        recomputed = {}
        for feat in features:
            b = approx_quantile_boundaries(data, feat, boundaries[feat].n_bins)
            recomputed[feat] = b if b is not None else boundaries[feat]
        contract_cfg = SplitConfig(config.min_leaf_size, config.control_label_override,
                                   max(config.safety_skip_threshold, cand_rows + 1),
                                   PATH_REFERENCE)
        return best_split(data, features, recomputed, treatments, contract_cfg)

    control = select_control(treatments, config.control_label_override)
    if variant == "first_seen_control":
        frames = data.partitions if isinstance(data, PartitionedFrame) else (data,)
        first = None
        for f in frames:
            if f.n_rows:
                first = str(f.treatments[0])
                break
        if first is None:
            raise InvalidArgumentError("cannot infer first-seen control from an empty frame")
        control = first
    control_idx = treatments.index(control) if control in treatments else 0

    collected: list[CandidateScore] = []
    for feat in features:
        table = build_prefix_sums(data, feat, boundaries[feat], treatments)
        directions = (NAN_LEFT,) if variant == "implicit_missing" else _DIRECTIONS
        for c in range(table.n_candidates):
            for direction in directions:
                if variant == "sparse_omit":
                    collected.append(_naive_score_sparse(table, c, direction, control_idx,
                                                         config.min_leaf_size))
                else:
                    collected.append(_score_candidate(table, c, direction, control_idx,
                                                      config.min_leaf_size))
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
