"""Greedy policy-tree trainer with a locked-manifest contract and a canonical
serialized tree signature used as the end-to-end equality witness.

Node expansion is breadth-first in node-path order (root "", then "L", "R",
"LL", ...), each node's split chosen by the shared split search, so the
learned tree is a pure function of (locked manifest, frame content) and never
of row order, partitioning, or execution path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (AlignmentError, ContractViolationError, InvalidArgumentError,
                     SchemaError)
from .forest import (ForestArrays, TreeArrays, _leaf_nodes, INTERNAL_CONTINUOUS,
                     LEAF)
from .frame import ColumnFrame, PartitionedFrame
from .splitsearch import (Boundaries, SplitConfig, best_split, bin_rows,
                          select_control, treatment_codes, PATH_REFERENCE,
                          STATUS_OK, STATUS_SKIPPED_TOO_LARGE)

SIGNATURE_FORMAT_VERSION = "1"


def _digest_bytes(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def row_id_set_digest(row_ids: np.ndarray) -> str:
    return _digest_bytes(np.sort(np.asarray(row_ids, dtype=np.int64)).astype("<i8").tobytes())


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

    def boundary_map(self) -> dict[str, Boundaries]:
        return dict(self.boundaries)

    def lock(self) -> "Manifest":
        return Manifest(self.row_id_digest, self.feature_names, self.treatment_labels,
                        self.boundaries, self.seed, self.max_depth, self.min_leaf_size,
                        self.preprocessing_digest, locked=True)


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
    feature_names = tuple(feature_names)
    treatment_labels = tuple(treatment_labels)
    for name in feature_names:
        if name not in boundaries:
            raise InvalidArgumentError(f"no boundaries for feature {name!r}")
    ordered = tuple((name, boundaries[name]) for name in feature_names)
    digest = _preprocessing_digest(ordered, treatment_labels, seed, max_depth,
                                   min_leaf_size)
    return Manifest(row_id_set_digest(frame.row_ids), feature_names, treatment_labels,
                    ordered, seed, max_depth, min_leaf_size, digest, locked=False)


MANIFEST_FORMAT_VERSION = "1"


def manifest_to_text(manifest: Manifest) -> str:
    """Versioned manifest file: all lock fields plus both digests."""
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
    numbers, short feature lines, trailing lines) raises ``SchemaError``."""
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
    if len(set(names)) != len(names):
        raise SchemaError("manifest lists a feature twice")
    rebuilt = Manifest(fields["row_id_digest"], names, labels,
                       tuple(zip(names, bounds)),
                       _manifest_int(fields["seed"], "seed"),
                       _manifest_int(fields["max_depth"], "max_depth"),
                       _manifest_int(fields["min_leaf_size"], "min_leaf_size"),
                       fields["preprocessing_digest"],
                       locked=fields["locked"] == "true")
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


def _leaf_stats(codes: np.ndarray, outcomes: np.ndarray, T: int):
    opps = np.bincount(codes, minlength=T).astype(np.int64)
    accepts = np.bincount(codes[outcomes == 1], minlength=T).astype(np.int64)
    vector = np.zeros(T, dtype=np.float64)
    nonzero = opps > 0
    vector[nonzero] = accepts[nonzero] / opps[nonzero]
    zero = tuple(int(t) for t in np.flatnonzero(~nonzero))
    return vector, opps, accepts, zero


def _train_loop(frame: ColumnFrame, manifest: Manifest, execution_path: str,
                control_override: Optional[str]) -> PolicyTree:
    """Every feature is bucketized once; each node searches its rows of the
    binned view and routes them on bins: with left-inclusive bins,
    ``value <= cuts[c]`` iff ``bin <= c``, and the missing bin B > c follows
    the NaN direction."""
    T = len(manifest.treatment_labels)
    codes = treatment_codes(frame, manifest.treatment_labels)
    bmap = manifest.boundary_map()
    binned = bin_rows(frame, manifest.feature_names, bmap, manifest.treatment_labels,
                      codes)
    config = SplitConfig(min_leaf_size=manifest.min_leaf_size,
                         control_label_override=control_override,
                         execution_path=execution_path)

    nodes: dict[str, PolicyNode] = {}
    queue: list[tuple[str, np.ndarray]] = [("", np.arange(frame.n_rows))]
    while queue:
        path, rows = queue.pop(0)

        def make_leaf():
            vec, opps, accepts, zero = _leaf_stats(codes[rows], frame.outcomes[rows], T)
            nodes[path] = PolicyNode(path, True, len(rows), vector=vec, opps=opps,
                                     accepts=accepts, zero_opportunity=zero)

        if len(path) >= manifest.max_depth:
            make_leaf()
            continue
        result = best_split(binned.take(rows), manifest.feature_names, bmap,
                            manifest.treatment_labels, config)
        if result.status == STATUS_SKIPPED_TOO_LARGE:
            raise ContractViolationError(
                "split search safety-skipped during training; raise the threshold "
                "or shrink the candidate grid")
        if result.status != STATUS_OK:
            make_leaf()
            continue
        best = result.best
        nodes[path] = PolicyNode(path, False, len(rows), feature=best.feature_name,
                                 threshold=best.threshold_boundary,
                                 candidate_bin=best.candidate_bin,
                                 nan_direction=best.nan_direction)
        bins = binned.bins[manifest.feature_names.index(best.feature_name), rows]
        go_left = bins <= best.candidate_bin
        if best.nan_direction == "left":
            go_left |= bins == bmap[best.feature_name].missing_bin
        queue.append((path + "L", rows[go_left]))
        queue.append((path + "R", rows[~go_left]))
    return PolicyTree(nodes, manifest.feature_names, manifest.treatment_labels,
                      manifest.max_depth, manifest.min_leaf_size)


def train(data: Union[ColumnFrame, PartitionedFrame], manifest: Manifest,
          execution_path: str = PATH_REFERENCE) -> PolicyTree:
    """Deterministic BFS training under a locked manifest."""
    if not manifest.locked:
        raise ContractViolationError("manifest must be locked before training")
    frame = data.concat() if isinstance(data, PartitionedFrame) else data
    if row_id_set_digest(frame.row_ids) != manifest.row_id_digest:
        raise ContractViolationError("frame row_id set does not match the manifest digest")
    for name in manifest.feature_names:
        frame.column_index(name)
    return _train_loop(frame, manifest, execution_path, None)


def train_unlocked_naive(data: Union[ColumnFrame, PartitionedFrame],
                         boundaries: Mapping[str, Boundaries], max_depth: int,
                         min_leaf_size: int,
                         execution_path: str = PATH_REFERENCE) -> PolicyTree:
    """The before-lock pipeline: treatment vocabulary inferred from row order,
    control taken as the first label seen.  Exists to demonstrate drift."""
    frame = data.concat() if isinstance(data, PartitionedFrame) else data
    if frame.n_rows == 0:
        raise InvalidArgumentError("cannot infer a vocabulary from an empty frame")
    seen: dict[str, None] = {}
    for label in frame.treatments:
        seen.setdefault(str(label))
    labels = tuple(seen)
    features = tuple(boundaries)
    manifest = Manifest(row_id_set_digest(frame.row_ids), features, labels,
                        tuple((n, boundaries[n]) for n in features), 0,
                        max_depth, min_leaf_size, "unlocked", locked=True)
    return _train_loop(frame, manifest, execution_path, labels[0])


@dataclass(frozen=True)
class TreeSignature:
    text: str
    digest: str


def signature(tree: PolicyTree) -> TreeSignature:
    """Canonical, byte-deterministic serialization: internal records carry
    (path, feature, threshold, candidate bin, NaN direction); leaf records
    carry (path, fixed treatment order, full policy vector)."""
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


def assign(tree: PolicyTree, frame: ColumnFrame) -> Assignments:
    """Per-row policy vector, top treatment, and leaf path; routing identical
    to forest traversal semantics."""
    for name in tree.feature_names:
        frame.column_index(name)
    arrays, paths = tree_to_arrays(tree)
    columns = frame.feature_matrix_effective(tree.feature_names)
    leaf_idx = _leaf_nodes(ForestArrays([arrays], tree.feature_names, tree.treatment_labels),
                           columns)
    vectors = arrays.leaf_payload[leaf_idx]
    top = np.argmax(vectors, axis=1).astype(np.int64)
    path_table = np.array(paths, dtype=object)
    return Assignments(frame.row_ids.copy(), tree.treatment_labels, vectors, top,
                       path_table[leaf_idx])


@dataclass
class PolicyValueResult:
    value: float
    matched_rows: int
    empty_match: bool

    def to_record(self) -> dict:
        return {"value": self.value, "matched_rows": self.matched_rows,
                "empty_match": self.empty_match}


def policy_value(assignments: Assignments, frame: ColumnFrame) -> PolicyValueResult:
    """Matched-rows estimator: mean outcome where the observed treatment
    equals the policy's top treatment; 0 with a warning flag when no match."""
    if not np.array_equal(assignments.row_ids, frame.row_ids):
        raise AlignmentError("assignments and frame must cover the same rows in order")
    labels = np.array(assignments.treatment_labels, dtype=object)
    chosen = labels[assignments.top_index]
    matched = frame.treatments == chosen
    count = int(matched.sum())
    if count == 0:
        return PolicyValueResult(0.0, 0, True)
    return PolicyValueResult(float(frame.outcomes[matched].mean()), count, False)


def uplift_proxy(assignments: Assignments, control_label: str) -> np.ndarray:
    """Max non-control policy-vector entry minus the control entry."""
    labels = list(assignments.treatment_labels)
    if control_label not in labels:
        raise InvalidArgumentError(f"control {control_label!r} not in assignment labels")
    ctrl = labels.index(control_label)
    noncontrol = [i for i in range(len(labels)) if i != ctrl]
    if not noncontrol:
        raise InvalidArgumentError("need at least one non-control treatment")
    return assignments.vectors[:, noncontrol].max(axis=1) - assignments.vectors[:, ctrl]


def auuc_qini(proxy: np.ndarray, treatments: np.ndarray, outcomes: np.ndarray,
              control_label: str, row_ids: np.ndarray) -> dict:
    """Cumulative incremental-gain metrics under the deterministic tie order.

    Normative definitions for this artifact: rows sort by proxy descending
    with ties broken by ascending row id.  After k rows, with treated/control
    counts n_t, n_c and outcome sums s_t, s_c,

        gain(k) = (s_t/n_t - s_c/n_c) * k/N   (0 while either arm is empty)

    AUUC is the trapezoid area of gain over k/N in [0, 1] (gain(0) = 0);
    Qini subtracts the random-targeting diagonal area gain(N)/2.
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    n = len(proxy)
    treated = np.asarray([str(t) != control_label for t in treatments])
    if n == 0 or not treated.any() or treated.all():
        raise InvalidArgumentError("need at least one control and one treated row")
    order = np.lexsort((np.asarray(row_ids), -proxy))
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


@dataclass
class Witness:
    signature: TreeSignature
    assignments: Assignments
    metrics: dict


def make_witness(tree: PolicyTree, holdout: ColumnFrame,
                 control_label: Optional[str] = None) -> Witness:
    control = control_label if control_label is not None else \
        select_control(tree.treatment_labels)
    assignments = assign(tree, holdout)
    pv = policy_value(assignments, holdout)
    metrics = {"policy_value": pv.value, "policy_value_matched_rows": pv.matched_rows,
               "policy_value_empty_match": pv.empty_match}
    metrics.update(auuc_qini(uplift_proxy(assignments, control), holdout.treatments,
                             holdout.outcomes, control, holdout.row_ids))
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
        return {"signature_equal": self.signature_equal,
                "policy_vector_mismatches": self.policy_vector_mismatches,
                "leaf_mismatches": self.leaf_mismatches,
                "top_agreement": self.top_agreement,
                "max_vector_delta": self.max_vector_delta,
                "metric_deltas": self.metric_deltas}


def witness_compare(a: Witness, b: Witness) -> WitnessReport:
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
