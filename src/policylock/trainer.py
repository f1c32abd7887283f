"""Greedy policy-tree trainer with a locked-manifest contract and a canonical
serialized tree signature used as the end-to-end equality witness.

Node expansion is level-wise in node-path order (root "", then "L", "R",
"LL", ...).  Each partition is bucketized once, in the pass that counts the
root's cell tables.  The trainer keeps each level's split-search cell
tables, one slice per node, and one stacked search pass chooses every
node's split.  Below the root it counts only the smaller
child of each split and takes the larger as the parent minus it.  Live rows
are (row, slot) index arrays routed by a flat gather on the bins.  Each
node's split is the one the shared split search picks on that node's rows
alone, so the learned tree is a pure function of (locked manifest, frame
content) and never of row order, partitioning, or execution path.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from itertools import count
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (AlignmentError, ContractViolationError, InvalidArgumentError,
                     SchemaError, _check_int, _check_types)
from .forest import TreeArrays, _leaf_nodes, INTERNAL_CONTINUOUS, LEAF
from .frame import ColumnFrame, PartitionedFrame, frames_of, sorted_row_ids
from .splitsearch import (Boundaries, SplitConfig, check_vocabulary, feature_boundaries,
                          select_control, treatment_codes, _count_level, _root_cells,
                          _scan, _search_cells, _total_candidate_rows, _units,
                          _skip_reason, PATH_REFERENCE, PATH_RELATIONAL)
# unused here: perfbench's traced run wraps it on this module
from .splitsearch import best_split  # noqa: F401

SIGNATURE_FORMAT_VERSION = "1"


def _digest_bytes(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def row_id_set_digest(row_ids: np.ndarray) -> str:
    """Digest of the set of ``row_ids``; an id held twice is a ``SchemaError``."""
    return _digest_bytes(sorted_row_ids(row_ids).astype("<i8").tobytes())


def _partitions(data: Union[ColumnFrame, PartitionedFrame]) -> tuple[ColumnFrame, ...]:
    """The frames of ``data`` in partition order; they must agree on their
    feature columns."""
    _check_types((data, (ColumnFrame, PartitionedFrame)))
    parts = frames_of(data)
    if not parts:
        raise InvalidArgumentError("cannot train on zero partitions")
    if any(p.feature_names != parts[0].feature_names for p in parts[1:]):
        raise SchemaError("frames disagree on feature columns")
    return parts


@dataclass(frozen=True)
class Manifest:
    row_id_digest: str
    feature_names: tuple[str, ...]
    treatment_labels: tuple[str, ...]
    boundaries: tuple[tuple[str, Boundaries], ...]
    seed: int
    max_depth: int
    min_leaf_size: int
    preprocessing_digest: str
    locked: bool = False

    def __post_init__(self):
        """The one home of the manifest's field rules (docs/normative.md),
        so that every manifest made survives its text."""
        check_vocabulary(self.treatment_labels)
        for i, name in enumerate(self.feature_names):
            if not isinstance(name, str) or name.split() != [name]:
                raise InvalidArgumentError(f"feature name {name!r} is not one word")
            if name in self.feature_names[:i]:
                raise InvalidArgumentError(f"feature {name!r} is listed twice")
        if [(n, b.feature_name) for n, b in self.boundaries] != [(n, n) for n in self.feature_names]:
            raise InvalidArgumentError("boundaries must be named for the features, in order")
        for key, least in (("seed", None), ("max_depth", 0), ("min_leaf_size", 1)):
            _check_int(getattr(self, key), key, least)

    def boundary_map(self) -> dict[str, Boundaries]:
        return dict(self.boundaries)

    def lock(self) -> "Manifest":
        return replace(self, locked=True)


def _preprocessing_digest(ordered: tuple, treatment_labels: tuple[str, ...],
                          seed: int, max_depth: int, min_leaf_size: int) -> str:
    pre = hashlib.blake2b(digest_size=16)
    for name, b in ordered:
        pre.update(name.encode("utf-8"))
        pre.update(b"\x00")
        for cut in b.cuts:
            pre.update(repr(float(cut)).encode("ascii"))
            pre.update(b"\x00")
    for label in treatment_labels:
        pre.update(label.encode("utf-8"))
        pre.update(b"\x00")
    pre.update(f"{seed}|{max_depth}|{min_leaf_size}".encode("ascii"))
    return pre.hexdigest()


def build_manifest(frame: ColumnFrame, feature_names: Sequence[str],
                   treatment_labels: Sequence[str],
                   boundaries: Mapping[str, Boundaries], seed: int,
                   max_depth: int, min_leaf_size: int) -> Manifest:
    """Unlocked manifest of ``frame``; ``Manifest`` checks the fields, then a
    feature ``frame`` lacks is a ``SchemaError``, before anything is digested."""
    feature_names = tuple(feature_names)
    ordered = tuple(zip(feature_names, feature_boundaries(boundaries, feature_names)))
    m = Manifest("", feature_names, tuple(treatment_labels), ordered, seed, max_depth,
                 min_leaf_size, "")
    for name in feature_names:
        frame.column_index(name)
    return replace(m, row_id_digest=row_id_set_digest(frame.row_ids),
                   preprocessing_digest=_preprocessing_digest(
                       ordered, m.treatment_labels, seed, max_depth, min_leaf_size))


MANIFEST_FORMAT_VERSION = "1"


def manifest_to_text(manifest: Manifest) -> str:
    """Versioned manifest file: all lock fields plus both digests."""
    _check_types((manifest, Manifest))
    lines = [f"manifest v{MANIFEST_FORMAT_VERSION}",
             f"locked {'true' if manifest.locked else 'false'}",
             f"row_id_digest {manifest.row_id_digest}",
             f"preprocessing_digest {manifest.preprocessing_digest}",
             f"seed {manifest.seed}",
             f"max_depth {manifest.max_depth}",
             f"min_leaf_size {manifest.min_leaf_size}",
             f"treatments {len(manifest.treatment_labels)}"]
    lines.extend(manifest.treatment_labels)
    lines.append(f"features {len(manifest.feature_names)}")
    for name, b in manifest.boundaries:
        lines.append(" ".join([name, str(len(b.cuts)),
                               *(repr(float(c)) for c in b.cuts)]))
    return "\n".join(lines) + "\n"


_MANIFEST_FIELDS = ("locked", "row_id_digest", "preprocessing_digest", "seed",
                    "max_depth", "min_leaf_size", "treatments")


def _manifest_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SchemaError(f"manifest {what} {token!r} is not an integer") from None


def _manifest_count(token: str, what: str) -> int:
    count = _manifest_int(token, what)
    if count < 0:
        raise SchemaError(f"manifest {what} {count} is negative")
    return count


def _manifest_boundaries(line: str) -> Boundaries:
    """One ``name n_cuts cut...`` line."""
    parts = line.split()
    if len(parts) < 2:
        raise SchemaError(f"manifest feature line {line!r} has no cut count")
    name, n_cuts = parts[0], _manifest_count(parts[1], "cut count")
    if len(parts) != 2 + n_cuts:
        raise SchemaError(f"manifest feature {name!r} declares {n_cuts} cuts "
                          f"but lists {len(parts) - 2}")
    try:
        return Boundaries(name, tuple(float(c) for c in parts[2:]))
    except (ValueError, InvalidArgumentError) as exc:
        raise SchemaError(f"manifest feature {name!r} has bad cuts: {exc}") from None


def manifest_from_text(text: str) -> Manifest:
    """Reader recomputes the preprocessing digest and rejects tampering.
    Malformed text (truncated, fields missing or out of order, bad counts or
    numbers, short feature lines, trailing lines, fields that break a rule
    of ``Manifest``) raises ``SchemaError``."""
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "manifest":
        raise SchemaError("not a manifest file")
    if header[1] != f"v{MANIFEST_FORMAT_VERSION}":
        raise SchemaError(f"unsupported manifest version {header[1]!r}")

    def line_at(pos: int, what: str) -> str:
        if pos >= len(lines):
            raise SchemaError(f"manifest truncated before {what}")
        return lines[pos]

    fields = {}
    for pos, key in enumerate(_MANIFEST_FIELDS, start=1):
        got, _, value = line_at(pos, f"field {key!r}").partition(" ")
        if got != key:
            raise SchemaError(f"manifest line {pos + 1} should hold {key!r}, not {got!r}")
        fields[key] = value
    if fields["locked"] not in ("true", "false"):
        raise SchemaError(f"manifest locked {fields['locked']!r} is not true or false")
    pos = 1 + len(_MANIFEST_FIELDS)
    t_count = _manifest_count(fields["treatments"], "treatment count")
    labels = tuple(line_at(pos + i, f"treatment {i}") for i in range(t_count))
    pos += t_count
    key, _, count = line_at(pos, "the feature count").partition(" ")
    if key != "features":
        raise SchemaError(f"manifest line {pos + 1} should hold 'features', not {key!r}")
    f_count = _manifest_count(count, "feature count")
    bounds = tuple(_manifest_boundaries(line_at(pos + 1 + i, f"feature {i}"))
                   for i in range(f_count))
    if len(lines) > pos + 1 + f_count:
        raise SchemaError("manifest has lines after its last feature")
    names = tuple(b.feature_name for b in bounds)
    try:
        rebuilt = Manifest(fields["row_id_digest"], names, labels,
                           tuple(zip(names, bounds)),
                           _manifest_int(fields["seed"], "seed"),
                           _manifest_int(fields["max_depth"], "max_depth"),
                           _manifest_int(fields["min_leaf_size"], "min_leaf_size"),
                           fields["preprocessing_digest"],
                           locked=fields["locked"] == "true")
    except InvalidArgumentError as exc:
        raise SchemaError(f"manifest {exc}") from None
    check = _preprocessing_digest(rebuilt.boundaries, rebuilt.treatment_labels,
                                  rebuilt.seed, rebuilt.max_depth,
                                  rebuilt.min_leaf_size)
    if check != rebuilt.preprocessing_digest:
        raise ContractViolationError(
            "manifest preprocessing digest does not match its fields")
    return rebuilt


@dataclass
class PolicyNode:
    path: str
    is_leaf: bool
    n_rows: int
    feature: Optional[str] = None
    threshold: float = float("nan")
    candidate_bin: int = -1
    nan_direction: str = "left"
    vector: Optional[np.ndarray] = None        # per-treatment response rates
    opps: Optional[np.ndarray] = None
    accepts: Optional[np.ndarray] = None
    zero_opportunity: tuple[int, ...] = ()


@dataclass
class PolicyTree:
    nodes: dict[str, PolicyNode]
    feature_names: tuple[str, ...]
    treatment_labels: tuple[str, ...]
    max_depth: int
    min_leaf_size: int

    def ordered_paths(self) -> list[str]:
        return sorted(self.nodes, key=lambda p: (len(p), p))

    def leaves(self) -> list[PolicyNode]:
        return [self.nodes[p] for p in self.ordered_paths() if self.nodes[p].is_leaf]


def _train_loop(data: Union[ColumnFrame, PartitionedFrame], manifest: Manifest,
                execution_path: str, control_override: Optional[str]) -> PolicyTree:
    """Level-wise expansion over rows binned once, partition by partition.

    One pass of S1's partition tasks (``_scan``, on this thread) bins every
    partition into the kept ``BinnedRows`` view and counts the root's
    tables where it makes the bins, so the root's tables need no pass of
    their own.
    The live rows of a level are two arrays, ``rows`` (ascending view rows,
    so each stays in its partition) and ``slots`` (its node in ``frontier``).
    ``tables`` holds each search unit's cell table with one slice per node;
    one ``_search_cells`` pass gives every node's winner (None for a leaf).
    Rows route on bins with one flat gather: with left-inclusive bins
    ``value <= cuts[c]`` iff ``bin <= c``, and the missing bin B > c follows
    the NaN direction.  Of each split only the smaller child (by the
    winner's branch totals, ties left) is counted; the larger child's table
    is the parent's minus it, exact in int64.  A child's opps and accepts
    are its branch of the parent's winner; rows of new leaves leave the
    level."""
    T = len(manifest.treatment_labels)
    features = manifest.feature_names
    bmap = manifest.boundary_map()
    # binned and root-counted on this thread: a pool here gives each worker
    # thread its own malloc arena, which raised locked training's peak
    # memory by about 8% and saved no time
    view, per_part = _scan(data, features, bmap, manifest.treatment_labels, 1, True)
    N = view.n_rows
    missing_bin = np.array([b.missing_bin for b in view.boundaries], dtype=np.int64)
    bin_axis = np.arange(missing_bin.max(initial=0) + 1)
    config = SplitConfig(execution_path=execution_path)
    control_idx = manifest.treatment_labels.index(
        select_control(manifest.treatment_labels, control_override))
    if manifest.max_depth > 0 and _skip_reason(_total_candidate_rows(view.boundaries, T),
                                               config) is not None:
        raise ContractViolationError(
            "split search safety-skipped during training; raise the threshold "
            "or shrink the candidate grid")
    units = _units(view, config)
    tables = _root_cells(view, units, per_part, execution_path == PATH_RELATIONAL)

    nodes: dict[str, PolicyNode] = {}
    frontier = [""]
    cells = np.bincount(view.tails, minlength=2 * T).reshape(1, T, 2)
    opps, accepts = cells.sum(axis=2), cells[..., 1]
    rows = slots = None
    for depth in count():
        K = len(frontier)
        winners = [None] * K
        if depth < manifest.max_depth:
            winners = _search_cells(view, units, tables, K, control_idx,
                                    manifest.min_leaf_size)[0]
        split = np.array([w is not None for w in winners])
        vectors = np.divide(accepts, opps, out=np.zeros((K, T)), where=opps > 0)
        feature = np.zeros(K, dtype=np.int64)
        candidate_bin = np.zeros(K, dtype=np.int64)
        nan_left = np.zeros(K, dtype=bool)
        branches = []   # per split node: left and right (opps, accepts)
        for k, (path, w) in enumerate(zip(frontier, winners)):
            n_rows = int(opps[k].sum())
            if w is None:
                nodes[path] = PolicyNode(path, True, n_rows, vector=vectors[k],
                                         opps=opps[k], accepts=accepts[k],
                                         zero_opportunity=tuple(
                                             np.flatnonzero(opps[k] == 0).tolist()))
                continue
            nodes[path] = PolicyNode(path, False, n_rows, w.feature_name,
                                     w.threshold_boundary, w.candidate_bin, w.nan_direction)
            feature[k] = features.index(w.feature_name)
            candidate_bin[k] = w.candidate_bin
            nan_left[k] = w.nan_direction == "left"
            branches.append([w.left_opps, w.left_accepts, w.right_opps, w.right_accepts])
        if not split.any():
            break
        # children of the i-th splitting node take slots 2i (L) and 2i+1 (R);
        # the counts are copied out of views that keep the level's scores alive
        branches = np.array(branches, dtype=np.int64).reshape(-1, 2, 2, T)
        del winners, w
        opps, accepts = branches[:, :, 0].reshape(-1, T), branches[:, :, 1].reshape(-1, T)
        frontier = [path + side for path, ok in zip(frontier, split) if ok
                    for side in "LR"]
        if depth + 1 >= manifest.max_depth:
            tables = None
            continue
        # code[k, b]: for a row of node k whose split feature has bin b, twice
        # its child's slot plus 1 when that child is the one counted; -1 when
        # node k is a leaf
        totals = opps.reshape(-1, 2, T).sum(axis=2)
        small_right = totals[:, 1] < totals[:, 0]
        goes_right = (bin_axis > candidate_bin[:, None]) \
            & ~(nan_left[:, None] & (bin_axis == missing_bin[feature][:, None]))
        child = (2 * np.cumsum(split) - 2)[:, None] + goes_right
        code = np.where(split[:, None],
                        2 * child + (goes_right == small_right[child // 2]), -1)
        if rows is None:
            rows, slots = np.arange(N), np.zeros(N, dtype=np.int64)
        codes = np.take(code, slots * len(bin_axis)
                        + np.take(view.bins, feature[slots] * N + rows))
        if not split.all():
            keep = codes >= 0
            rows, codes = rows[keep], codes[keep]
        slots = codes >> 1
        counted = (codes & 1).astype(bool)
        small = _count_level(view, units, config, rows[counted], slots[counted] >> 1,
                             len(small_right))
        at = 2 * np.arange(len(small_right)) + small_right
        for u, (whole, part) in enumerate(zip(tables, small)):
            tables[u] = np.empty((len(whole), 2 * len(at)) + whole.shape[2:], dtype=np.int64)
            tables[u][:, at] = part
            tables[u][:, at ^ 1] = whole[:, split] - part
    return PolicyTree(nodes, manifest.feature_names, manifest.treatment_labels,
                      manifest.max_depth, manifest.min_leaf_size)


def train(data: Union[ColumnFrame, PartitionedFrame], manifest: Manifest,
          execution_path: str = PATH_REFERENCE) -> PolicyTree:
    """Deterministic level-wise training under a locked manifest."""
    _check_types((manifest, Manifest))
    if not manifest.locked:
        raise ContractViolationError("manifest must be locked before training")
    ids = np.concatenate([p.row_ids for p in _partitions(data)])
    if row_id_set_digest(ids) != manifest.row_id_digest:
        raise ContractViolationError("frame row_id set does not match the manifest digest")
    return _train_loop(data, manifest, execution_path, None)


def train_unlocked_naive(data: Union[ColumnFrame, PartitionedFrame],
                         boundaries: Mapping[str, Boundaries], max_depth: int,
                         min_leaf_size: int) -> PolicyTree:
    """The before-lock pipeline: treatment vocabulary inferred from row order,
    control taken as the first label seen, trained on the reference path.
    Exists to demonstrate drift."""
    parts = _partitions(data)
    digest = row_id_set_digest(np.concatenate([p.row_ids for p in parts]))
    seen: dict[str, None] = {}
    for part in parts:
        for label in part.treatments:
            seen.setdefault(str(label))
    labels = tuple(seen)
    features = tuple(boundaries)
    manifest = Manifest(digest, features, labels,
                        tuple((n, boundaries[n]) for n in features), 0,
                        max_depth, min_leaf_size, "unlocked", locked=True)
    return _train_loop(data, manifest, PATH_REFERENCE, labels[0])


@dataclass(frozen=True)
class TreeSignature:
    text: str
    digest: str


def signature(tree: PolicyTree) -> TreeSignature:
    """Canonical, byte-deterministic serialization: internal records carry
    (path, feature, threshold, candidate bin, NaN direction); leaf records
    carry (path, fixed treatment order, full policy vector)."""
    _check_types((tree, PolicyTree))
    lines = [f"treesignature v{SIGNATURE_FORMAT_VERSION}",
             f"treatments {len(tree.treatment_labels)}"]
    lines.extend(tree.treatment_labels)
    for path in tree.ordered_paths():
        node = tree.nodes[path]
        token = "/" + path
        if node.is_leaf:
            vec = " ".join(repr(float(v)) for v in node.vector)
            lines.append(f"leaf {token} {vec}")
        else:
            lines.append(f"internal {token} {node.feature} {repr(float(node.threshold))} "
                         f"{node.candidate_bin} {node.nan_direction}")
    text = "\n".join(lines) + "\n"
    return TreeSignature(text, _digest_bytes(text.encode("utf-8")))


def tree_to_arrays(tree: PolicyTree) -> tuple[TreeArrays, list[str]]:
    """Array form of the policy tree (shared traversal semantics) plus the
    node-index -> path table."""
    paths = tree.ordered_paths()
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    T = len(tree.treatment_labels)
    node_type = np.full(n, LEAF, dtype=np.int8)
    feature_index = np.full(n, -1, dtype=np.int32)
    split_value = np.full(n, np.nan)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    nan_left = np.zeros(n, dtype=bool)
    payload = np.zeros((n, T))
    feat_pos = {name: i for i, name in enumerate(tree.feature_names)}
    for p in paths:
        i = index[p]
        node = tree.nodes[p]
        if node.is_leaf:
            payload[i] = node.vector
        else:
            node_type[i] = INTERNAL_CONTINUOUS
            feature_index[i] = feat_pos[node.feature]
            split_value[i] = node.threshold
            nan_left[i] = node.nan_direction == "left"
            left[i] = index[p + "L"]
            right[i] = index[p + "R"]
    return TreeArrays(node_type, feature_index, split_value, left, right,
                      nan_left, payload), paths


@dataclass
class Assignments:
    row_ids: np.ndarray
    treatment_labels: tuple[str, ...]
    vectors: np.ndarray      # [N, T]
    top_index: np.ndarray    # [N], argmax with lowest-index tie-break
    leaf_paths: np.ndarray   # [N] object
    leaf_index: np.ndarray   # [N] int64, node in tree_to_arrays order


def assign(tree: PolicyTree, frame: ColumnFrame) -> Assignments:
    """Per-row policy vector, top treatment, and leaf; routing identical to
    forest traversal semantics.  Everything that depends only on the leaf
    (vector, top treatment, path) is worked out once per node and gathered
    by the row's leaf index."""
    _check_types((tree, PolicyTree), (frame, ColumnFrame))
    arrays, paths = tree_to_arrays(tree)
    leaf_idx = _leaf_nodes(arrays, frame.feature_matrix_effective(tree.feature_names))
    top = np.argmax(arrays.leaf_payload, axis=1).astype(np.int64)
    return Assignments(frame.row_ids.copy(), tree.treatment_labels,
                       np.take(arrays.leaf_payload, leaf_idx, axis=0),
                       np.take(top, leaf_idx),
                       np.take(np.array(paths, dtype=object), leaf_idx), leaf_idx)


@dataclass
class PolicyValueResult:
    value: float
    matched_rows: int
    empty_match: bool

    def to_record(self) -> dict:
        return asdict(self)


def policy_value(assignments: Assignments, frame: ColumnFrame) -> PolicyValueResult:
    """Matched-rows estimator: mean outcome where the observed treatment is
    the policy's top treatment; 0 with a warning flag when no match.  Rows
    match labels as ``treatment_codes`` does, by their ``str``, and a label
    outside the vocabulary is a ``ContractViolationError``."""
    _check_types((assignments, Assignments), (frame, ColumnFrame))
    if not np.array_equal(assignments.row_ids, frame.row_ids):
        raise AlignmentError("assignments and frame must cover the same rows in order")
    matched = treatment_codes(frame, assignments.treatment_labels) == assignments.top_index
    count = int(matched.sum())
    if count == 0:
        return PolicyValueResult(0.0, 0, True)
    return PolicyValueResult(float(frame.outcomes[matched].mean()), count, False)


def uplift_proxy(assignments: Assignments, control_label: str) -> np.ndarray:
    """Max non-control policy-vector entry minus the control entry."""
    _check_types((assignments, Assignments))
    return _proxy(assignments.vectors, assignments.treatment_labels, control_label)


def _proxy(vectors: np.ndarray, labels: tuple[str, ...], control_label: str) -> np.ndarray:
    """``uplift_proxy`` of each row of ``vectors`` ([n, T])."""
    labels = list(labels)
    if control_label not in labels:
        raise InvalidArgumentError(f"control {control_label!r} not in assignment labels")
    ctrl = labels.index(control_label)
    noncontrol = [i for i in range(len(labels)) if i != ctrl]
    if not noncontrol:
        raise InvalidArgumentError("need at least one non-control treatment")
    return vectors[:, noncontrol].max(axis=1) - vectors[:, ctrl]


def _treated_mask(treatments, control_label: str) -> np.ndarray:
    """``str(t) != control_label`` per row, with ``str()`` applied once per
    distinct label."""
    values = np.asarray(treatments, dtype=object)
    treated = {label: str(label) != control_label for label in set(values.tolist())}
    return np.fromiter(map(treated.__getitem__, values.tolist()), dtype=bool,
                       count=len(values))


def _gain_areas(treated: np.ndarray, outcomes: np.ndarray, order: np.ndarray) -> dict:
    """AUUC and Qini (see ``auuc_qini``) of the rows taken in ``order``."""
    n = len(order)
    if n == 0 or not treated.any() or treated.all():
        raise InvalidArgumentError("need at least one control and one treated row")
    treated = treated[order]
    y = outcomes[order].astype(np.float64)
    nt = np.cumsum(treated)
    nc = np.cumsum(~treated)
    st = np.cumsum(y * treated)
    sc = np.cumsum(y * ~treated)
    both = (nt > 0) & (nc > 0)
    rate_t = np.divide(st, nt, out=np.zeros(n), where=nt > 0)
    rate_c = np.divide(sc, nc, out=np.zeros(n), where=nc > 0)
    frac = np.arange(1, n + 1, dtype=np.float64) / n
    gain = np.where(both, (rate_t - rate_c) * frac, 0.0)
    padded = np.concatenate(([0.0], gain))
    auuc = float(np.sum((padded[1:] + padded[:-1]) / 2.0) / n)
    qini = float(auuc - gain[-1] / 2.0)
    return {"auuc": auuc, "qini": qini}


def auuc_qini(proxy: np.ndarray, treatments: np.ndarray, outcomes: np.ndarray,
              control_label: str, row_ids: np.ndarray) -> dict:
    """Cumulative incremental-gain metrics under the deterministic tie order.

    Normative definitions for this artifact: rows sort by proxy descending
    with ties broken by ascending row id.  After k rows, with treated/control
    counts n_t, n_c and outcome sums s_t, s_c,

        gain(k) = (s_t/n_t - s_c/n_c) * k/N   (0 while either arm is empty)

    AUUC is the trapezoid area of gain over k/N in [0, 1] (gain(0) = 0);
    Qini subtracts the random-targeting diagonal area gain(N)/2.  ``proxy``
    must be a 1-D array of real numbers.
    """
    proxy = np.asarray(proxy)
    if proxy.ndim != 1 or proxy.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"proxy must be a 1-D array of real numbers, "
                                   f"not {proxy.ndim}-D {proxy.dtype}")
    proxy = proxy.astype(np.float64, copy=False)
    n = len(proxy)
    if not len(treatments) == len(outcomes) == len(row_ids) == n:
        raise InvalidArgumentError("proxy, treatments, outcomes and row_ids must be "
                                   "equally long")
    treated = _treated_mask(treatments, control_label)
    order = np.lexsort((np.asarray(row_ids), -proxy))
    return _gain_areas(treated, np.asarray(outcomes), order)


@dataclass
class Witness:
    signature: TreeSignature
    assignments: Assignments
    metrics: dict


def make_witness(tree: PolicyTree, holdout: ColumnFrame) -> Witness:
    """Signature, assignments and metrics of ``tree`` on ``holdout``.  AUUC
    and Qini take the order of ``auuc_qini`` without a per-row sort by
    proxy: every row of a leaf has the leaf's proxy, so rows sort by the
    dense rank of their leaf's proxy (descending; -0.0 and 0.0 are one rank,
    NaN last), then by row id."""
    _check_types((tree, PolicyTree), (holdout, ColumnFrame))
    control = select_control(tree.treatment_labels)
    assignments = assign(tree, holdout)
    pv = policy_value(assignments, holdout)
    metrics = {"policy_value": pv.value, "policy_value_matched_rows": pv.matched_rows,
               "policy_value_empty_match": pv.empty_match}
    node_proxy = _proxy(tree_to_arrays(tree)[0].leaf_payload, tree.treatment_labels,
                        control)
    # ranks as the smallest unsigned type: numpy's stable sort of 8- and
    # 16-bit keys is a radix sort, about 16x faster here than on int64
    rank = np.unique(-node_proxy, return_inverse=True)[1].astype(
        np.min_scalar_type(len(node_proxy)))
    by_id = np.argsort(holdout.row_ids, kind="stable")
    order = by_id[np.argsort(rank[assignments.leaf_index][by_id], kind="stable")]
    treated = treatment_codes(holdout, tree.treatment_labels) != \
        tree.treatment_labels.index(control)
    metrics.update(_gain_areas(treated, holdout.outcomes, order))
    return Witness(signature(tree), assignments, metrics)


@dataclass
class WitnessReport:
    signature_equal: bool
    policy_vector_mismatches: int
    leaf_mismatches: int
    top_agreement: float
    max_vector_delta: float
    metric_deltas: dict

    def to_record(self) -> dict:
        return asdict(self)


def witness_compare(a: Witness, b: Witness) -> WitnessReport:
    _check_types((a, Witness), (b, Witness))
    ga = np.argsort(a.assignments.row_ids, kind="stable")
    gb = np.argsort(b.assignments.row_ids, kind="stable")
    if not np.array_equal(a.assignments.row_ids[ga], b.assignments.row_ids[gb]):
        raise AlignmentError("witnesses cover different holdout row sets")
    va = a.assignments.vectors[ga]
    vb = b.assignments.vectors[gb]
    exact_mismatch = int((va != vb).any(axis=1).sum())
    delta = float(np.abs(va - vb).max()) if va.size else 0.0
    leaf_mismatch = int((a.assignments.leaf_paths[ga] != b.assignments.leaf_paths[gb]).sum())
    same_top = a.assignments.top_index[ga] == b.assignments.top_index[gb]
    agreement = float(same_top.mean()) if len(same_top) else 1.0
    deltas = {}
    for key in ("policy_value", "auuc", "qini"):
        if key in a.metrics and key in b.metrics:
            deltas[key] = abs(a.metrics[key] - b.metrics[key])
    return WitnessReport(a.signature.digest == b.signature.digest, exact_mismatch,
                         leaf_mismatch, agreement, delta, deltas)
