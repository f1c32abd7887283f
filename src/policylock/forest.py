"""Array-native policy forest: parallel node arrays plus a leaf payload matrix.

Traversal semantics are part of the execution contract: continuous nodes route
left on ``<=``, categorical nodes route left on exact equality, missing values
follow the per-node ``nan_goes_left`` flag (uniformly for both node kinds), and
forest output is the arithmetic mean of per-tree score vectors accumulated in
tree order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, MalformedTreeError, SchemaError
from . import rng

INTERNAL_CONTINUOUS = 0
INTERNAL_CATEGORICAL = 1
LEAF = 2

_NODE_TYPE_NAMES = {INTERNAL_CONTINUOUS: "internal_continuous",
                    INTERNAL_CATEGORICAL: "internal_categorical",
                    LEAF: "leaf"}
_NODE_TYPE_CODES = {v: k for k, v in _NODE_TYPE_NAMES.items()}
_NAN_FLAGS = {"0": False, "1": True}
_NAN_FLAG_TEXT = {v: k for k, v in _NAN_FLAGS.items()}


@dataclass
class TreeArrays:
    node_type: np.ndarray      # int8 [n_nodes]
    feature_index: np.ndarray  # int32 [n_nodes], -1 on leaves
    split_value: np.ndarray    # float64 [n_nodes]
    left_child: np.ndarray     # int32 [n_nodes], -1 on leaves
    right_child: np.ndarray    # int32 [n_nodes], -1 on leaves
    nan_goes_left: np.ndarray  # bool [n_nodes]
    leaf_payload: np.ndarray   # float64 [n_nodes, T]

    def __post_init__(self):
        self.node_type = np.asarray(self.node_type, dtype=np.int8)
        self.feature_index = np.asarray(self.feature_index, dtype=np.int32)
        self.split_value = np.asarray(self.split_value, dtype=np.float64)
        self.left_child = np.asarray(self.left_child, dtype=np.int32)
        self.right_child = np.asarray(self.right_child, dtype=np.int32)
        self.nan_goes_left = np.asarray(self.nan_goes_left, dtype=bool)
        self.leaf_payload = np.asarray(self.leaf_payload, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.node_type)


@dataclass
class ForestArrays:
    trees: list[TreeArrays]
    feature_names: tuple[str, ...]
    treatment_labels: tuple[str, ...]

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        self.treatment_labels = tuple(self.treatment_labels)

    @property
    def n_treatments(self) -> int:
        return len(self.treatment_labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass
class Violation:
    tree_index: int
    node_index: Optional[int]
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_forest(forest: ForestArrays, step_budget: Optional[int] = None) -> ValidationReport:
    """Structural validation; violations are report entries, never exceptions."""
    report = ValidationReport()
    T = forest.n_treatments
    F = forest.n_features
    for ti, tree in enumerate(forest.trees):
        n = tree.n_nodes
        # any acyclic traversal is bounded by depth <= n_nodes; factor 4 is slack
        budget = step_budget if step_budget is not None else 4 * max(n, 1)
        lengths = {f.name: len(getattr(tree, f.name)) for f in fields(tree)}
        bad = {k: v for k, v in lengths.items() if v != n}
        if bad:
            report.violations.append(Violation(ti, None, f"array length mismatch: {bad}"))
            continue
        if n == 0:
            report.violations.append(Violation(ti, None, "tree has no nodes"))
            continue
        if tree.leaf_payload.ndim != 2 or tree.leaf_payload.shape[1] != T:
            report.violations.append(Violation(
                ti, None, f"leaf_payload must have {T} columns, "
                          f"got shape {tree.leaf_payload.shape}"))
            continue
        if not np.isin(tree.node_type, (INTERNAL_CONTINUOUS, INTERNAL_CATEGORICAL, LEAF)).all():
            report.violations.append(Violation(ti, None, "unknown node_type code"))
            continue
        internal = tree.node_type != LEAF
        node_ids = np.arange(n)
        flagged = internal & ~((0 <= tree.feature_index) & (tree.feature_index < F))
        for child in (tree.left_child, tree.right_child):
            flagged |= internal & ~((0 <= child) & (child < n) & (child != node_ids))
        flagged = np.flatnonzero(flagged)
        for ni in flagged:
            for side, child in (("left", tree.left_child[ni]), ("right", tree.right_child[ni])):
                if not (0 <= child < n):
                    report.violations.append(Violation(ti, int(ni), f"{side} child {child} out of range"))
                elif child == ni:
                    report.violations.append(Violation(ti, int(ni), f"{side} child points to itself"))
            f = tree.feature_index[ni]
            if not (0 <= f < F):
                report.violations.append(Violation(ti, int(ni), f"feature index {f} out of range [0, {F})"))
        if flagged.size:
            continue
        steps = _steps_to_leaf(~internal, tree.left_child, tree.right_child)
        over = ~(steps <= budget)
        if over.any():
            first = int(np.flatnonzero(over)[0])
            report.violations.append(Violation(
                ti, first, f"step budget exceeded: node cannot reach a leaf "
                           f"within {budget} steps (cycle or malformed tree)"))
    return report


def _steps_to_leaf(is_leaf: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Worst-case steps from every node to a leaf; inf where a cycle is
    reachable.  Leaf entries of ``left``/``right`` only need to be in-bounds
    indices; their values are masked out."""
    steps = np.where(is_leaf, 0.0, np.inf)
    for _ in range(len(is_leaf) + 1):
        nxt = np.where(is_leaf, 0.0, 1.0 + np.maximum(steps[left], steps[right]))
        if np.array_equal(nxt, steps, equal_nan=True):
            break
        steps = nxt
    return steps


class _PreparedTree:
    """Per-tree tables tuned for the fixed-depth batch walk: leaves self-loop
    (left == right == self) so the level update needs no masking, and the
    feature index is pre-scaled by the partition width for columnar
    addressing.  Tables are a few hundred entries, so every per-level gather
    stays cache-resident."""

    def __init__(self, tree: TreeArrays, n_part: int):
        is_leaf = tree.node_type == LEAF
        self_idx = np.arange(tree.n_nodes, dtype=np.int64)
        self.left = np.where(is_leaf, self_idx, tree.left_child)
        self.right = np.where(is_leaf, self_idx, tree.right_child)
        self.left_minus_right = self.left - self.right
        self.feature = np.where(is_leaf, 0, tree.feature_index).astype(np.int64)
        self.feature_scaled = self.feature * n_part
        # leaf thresholds never route; keep compares clean
        self.split_value = np.where(is_leaf, 0.0, tree.split_value)
        self.is_cat = tree.node_type == INTERNAL_CATEGORICAL
        self.has_cat = bool(self.is_cat.any())
        self.nan_left = np.asarray(tree.nan_goes_left, dtype=bool)
        self.payload = tree.leaf_payload
        self.is_leaf = is_leaf
        # exact worst-case depth from the root
        steps = _steps_to_leaf(is_leaf, self.left, self.right)
        if not np.isfinite(steps[0]):
            raise MalformedTreeError("prepared scorer given a cyclic tree")
        self.depth = int(steps[0])


class _PreparedForest:
    """The vectorized traversal kernel, shared by both vectorized backends,
    ``traverse_batch``, ``score_forest`` and the trainer's assignment.

    One scratch buffer set per batch width is reused across trees and levels
    (fresh allocations at this size cause mmap churn that dominates runtime).
    Categorical and NaN handling are skipped when the tree / batch provably
    has none; the result is identical because those masks would be all-False.
    Each level routes branch-free: the categorical and NaN overrides are
    bitwise and the child is picked arithmetically, since a masked copy with
    a data-dependent mask costs many times an element-wise add at batch width.
    Payloads accumulate in tree order, keeping the float operation sequence
    identical to the scalar walk.
    """

    def __init__(self, forest: ForestArrays, n_part: int):
        self.n_treatments = forest.n_treatments
        self.n_trees = len(forest.trees)
        self.trees = [_PreparedTree(t, n_part) for t in forest.trees]
        self._scratch_cache: dict[int, dict] = {}

    def _scratch(self, n: int) -> dict:
        buf = self._scratch_cache.get(n)
        if buf is None:
            buf = {"node": np.empty(n, dtype=np.int64),
                   "alt": np.empty(n, dtype=np.int64),
                   "idx": np.empty(n, dtype=np.int64),
                   "vals": np.empty(n, dtype=np.float64),
                   "thr": np.empty(n, dtype=np.float64),
                   "go": np.empty(n, dtype=bool),
                   "flag": np.empty(n, dtype=bool),
                   "flag2": np.empty(n, dtype=bool),
                   "acc": np.empty((n, self.n_treatments), dtype=np.float64),
                   "payload": np.empty((n, self.n_treatments), dtype=np.float64)}
            self._scratch_cache[n] = buf
        return buf

    def _walk(self, tree: _PreparedTree, feature_table: np.ndarray,
              addr_base: np.ndarray, flat: np.ndarray, buf: dict,
              check_nan: bool) -> np.ndarray:
        node, alt, idx = buf["node"], buf["alt"], buf["idx"]
        vals, thr = buf["vals"], buf["thr"]
        go, flag, flag2 = buf["go"], buf["flag"], buf["flag2"]
        node.fill(0)
        for _ in range(tree.depth):
            np.take(feature_table, node, out=idx)
            np.add(idx, addr_base, out=idx)
            np.take(flat, idx, out=vals)
            np.take(tree.split_value, node, out=thr)
            np.less_equal(vals, thr, out=go)
            if tree.has_cat:
                # go ^= is_cat & (go ^ eq): equality where the node is categorical
                np.equal(vals, thr, out=flag)
                np.logical_xor(go, flag, out=flag)
                np.take(tree.is_cat, node, out=flag2)
                np.logical_and(flag, flag2, out=flag)
                np.logical_xor(go, flag, out=go)
            if check_nan:
                # NaN compares false, so go is False on missing cells and
                # go |= isnan & nan_left gives them the node's flag
                np.isnan(vals, out=flag)
                np.take(tree.nan_left, node, out=flag2)
                np.logical_and(flag, flag2, out=flag)
                np.logical_or(go, flag, out=go)
            # child = right + go * (left - right), without a masked copy
            np.take(tree.right, node, out=alt)
            np.take(tree.left_minus_right, node, out=idx)
            np.multiply(idx, go, out=idx)
            np.add(alt, idx, out=alt)
            buf["node"], buf["alt"] = alt, node
            node, alt = alt, node
        if not tree.is_leaf[node].all():
            raise MalformedTreeError("traversal did not reach leaves in depth steps")
        return node

    def _score(self, flat: np.ndarray, addr_base: np.ndarray, n: int,
               check_nan: bool, columnar: bool) -> np.ndarray:
        buf = self._scratch(n)
        acc, pbuf = buf["acc"], buf["payload"]
        acc.fill(0.0)
        for tree in self.trees:
            table = tree.feature_scaled if columnar else tree.feature
            node = self._walk(tree, table, addr_base, flat, buf, check_nan)
            np.take(tree.payload, node, axis=0, out=pbuf)
            acc += pbuf
        return acc / float(self.n_trees)

    def score_columnar(self, flat: np.ndarray, rows: np.ndarray,
                       check_nan: bool = True) -> np.ndarray:
        return self._score(flat, rows, len(rows), check_nan, columnar=True)

    def score_rowmajor(self, rm: np.ndarray, check_nan: bool = True) -> np.ndarray:
        n, F = rm.shape
        base = np.arange(n, dtype=np.int64)
        np.multiply(base, F, out=base)
        return self._score(rm.ravel(), base, n, check_nan, columnar=False)


def _checked_batch(forest: ForestArrays, columns: np.ndarray, row_major: bool) -> np.ndarray:
    """C-contiguous float64 batch, once the batch holds the forest's features
    and the forest passes validation."""
    batch = np.ascontiguousarray(columns, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1 if row_major else 0] != forest.n_features:
        raise InvalidArgumentError(
            f"batch of shape {batch.shape} does not hold {forest.n_features} features "
            f"{'per row' if row_major else 'as rows'}")
    report = validate_forest(forest)
    if not report.passed:
        raise MalformedTreeError(report.violations[0].message)
    return batch


def _leaf_nodes(forest: ForestArrays, columns: np.ndarray) -> np.ndarray:
    """Leaf node index per row of a valid one-tree forest over a C-contiguous
    float64 [F, n] batch whose missing cells are NaN."""
    n = columns.shape[1]
    prepared = _PreparedForest(forest, n)
    tree = prepared.trees[0]
    return prepared._walk(tree, tree.feature_scaled, np.arange(n, dtype=np.int64),
                          columns.reshape(-1), prepared._scratch(n), check_nan=True)


def traverse_batch(tree: TreeArrays, columns: np.ndarray, row_major: bool = False) -> np.ndarray:
    """Leaf payload [n, T] for a float64 batch whose missing cells are NaN;
    the tree may address every feature the batch holds."""
    columns = np.asarray(columns, dtype=np.float64)
    if row_major:
        columns = columns.T
    forest = ForestArrays([tree], ("",) * len(columns), ("",) * tree.leaf_payload.shape[-1])
    return tree.leaf_payload[_leaf_nodes(forest, _checked_batch(forest, columns, False))]


def score_forest(forest: ForestArrays, columns: np.ndarray, row_major: bool = False) -> np.ndarray:
    """Elementwise mean of per-tree payloads, accumulated in tree order so the
    float operation sequence matches the scalar reference walk exactly."""
    if not forest.trees:
        raise InvalidArgumentError("cannot score an empty forest")
    batch = _checked_batch(forest, columns, row_major)
    if row_major:
        return _PreparedForest(forest, batch.shape[0]).score_rowmajor(batch)
    n = batch.shape[1]
    return _PreparedForest(forest, n).score_columnar(batch.reshape(-1),
                                                     np.arange(n, dtype=np.int64))


FOREST_FORMAT_VERSION = "1"


def forest_to_text(forest: ForestArrays) -> str:
    """Canonical structured text: documented field order, full-precision
    (shortest round-trip) decimal floats, bit-exact on read-back."""
    lines = [f"forestarrays v{FOREST_FORMAT_VERSION}"]
    lines.append(f"treatments {forest.n_treatments}")
    lines.extend(forest.treatment_labels)
    lines.append(f"features {forest.n_features}")
    lines.extend(forest.feature_names)
    lines.append(f"trees {len(forest.trees)}")
    for tree in forest.trees:
        lines.append(f"tree {tree.n_nodes}")
        columns = [map(_NODE_TYPE_NAMES.__getitem__, tree.node_type.tolist()),
                   map(str, tree.feature_index.tolist()),
                   map(repr, tree.split_value.tolist()),
                   map(str, tree.left_child.tolist()),
                   map(str, tree.right_child.tolist()),
                   map(_NAN_FLAG_TEXT.__getitem__, tree.nan_goes_left.tolist())]
        columns.extend(map(repr, col) for col in tree.leaf_payload.T.tolist())
        lines.extend(map(" ".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def forest_from_text(text: str) -> ForestArrays:
    """Reader of ``forest_to_text``'s format.  Malformed text (truncated, bad
    count lines, unknown node types, node lines with a wrong field count or a
    non-numeric field, trailing lines) raises ``SchemaError``."""
    lines = text.splitlines()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise SchemaError("forest text truncated")
        line = lines[pos]
        pos += 1
        return line

    def count(keyword: str) -> int:
        parts = next_line().split()
        if len(parts) != 2 or parts[0] != keyword or not parts[1].isdecimal():
            raise SchemaError(f"forest line {pos} should read '{keyword} <count>', "
                              f"not {' '.join(parts)!r}")
        return int(parts[1])

    header = next_line().split()
    if len(header) != 2 or header[0] != "forestarrays":
        raise SchemaError("not a forest file")
    if header[1] != f"v{FOREST_FORMAT_VERSION}":
        raise SchemaError(f"unsupported forest format version {header[1]!r}")
    t_count = count("treatments")
    labels = [next_line() for _ in range(t_count)]
    f_count = count("features")
    names = [next_line() for _ in range(f_count)]
    n_trees = count("trees")
    trees = []
    for _ in range(n_trees):
        n_nodes = count("tree")
        first = pos + 1
        rows = [next_line().split() for _ in range(n_nodes)]
        if any(len(parts) != 6 + t_count for parts in rows):
            raise SchemaError(f"forest lines {first}-{pos}: a node line does not "
                              f"hold {6 + t_count} fields")
        try:
            trees.append(TreeArrays(
                np.array([_NODE_TYPE_CODES[p[0]] for p in rows], dtype=np.int8),
                np.array([int(p[1]) for p in rows], dtype=np.int32),
                np.array([float(p[2]) for p in rows], dtype=np.float64),
                np.array([int(p[3]) for p in rows], dtype=np.int32),
                np.array([int(p[4]) for p in rows], dtype=np.int32),
                np.array([_NAN_FLAGS[p[5]] for p in rows], dtype=bool),
                np.array([[float(v) for v in p[6:]] for p in rows],
                         dtype=np.float64).reshape(n_nodes, t_count)))
        except (KeyError, ValueError, OverflowError):
            raise SchemaError(f"forest lines {first}-{pos} hold an unknown node type, a "
                              f"NaN flag other than 0/1, or a bad number") from None
    if pos < len(lines):
        raise SchemaError("forest text has lines after its last tree")
    return ForestArrays(trees, tuple(names), tuple(labels))


def random_forest(n_trees: int, max_depth: int, feature_names: Sequence[str],
                  treatment_labels: Sequence[str], seed: int,
                  categorical_features: Sequence[int] = (),
                  categorical_cardinality: int = 4,
                  full: bool = True) -> ForestArrays:
    """Seeded random valid forest, used as a deterministic parity fixture.

    With ``full`` every path reaches ``max_depth``; otherwise nodes become
    leaves early with probability 0.25 per level.
    """
    feature_names = tuple(feature_names)
    treatment_labels = tuple(treatment_labels)
    F, T = len(feature_names), len(treatment_labels)
    cat_set = set(int(c) for c in categorical_features)
    trees = []
    for k in range(n_trees):
        tag = f"tree:{k}"
        draws = iter(rng.uniform_stream(seed, tag, 16 * (2 ** (max_depth + 2))))
        node_type, feature_index, split_value = [], [], []
        left_child, right_child, nan_left, payload = [], [], [], []

        def new_node():
            node_type.append(LEAF)
            feature_index.append(-1)
            split_value.append(float("nan"))
            left_child.append(-1)
            right_child.append(-1)
            nan_left.append(False)
            payload.append([0.0] * T)
            return len(node_type) - 1

        def build(depth: int) -> int:
            me = new_node()
            stop = depth >= max_depth or (not full and next(draws) < 0.25 and depth > 0)
            if stop:
                payload[me] = [float(next(draws)) for _ in range(T)]
                return me
            f = int(next(draws) * F) % F
            node_type[me] = INTERNAL_CATEGORICAL if f in cat_set else INTERNAL_CONTINUOUS
            feature_index[me] = f
            if f in cat_set:
                split_value[me] = float(int(next(draws) * categorical_cardinality))
            else:
                split_value[me] = float(next(draws))
            nan_left[me] = next(draws) < 0.5
            lo = build(depth + 1)
            hi = build(depth + 1)
            left_child[me] = lo
            right_child[me] = hi
            return me

        build(0)
        trees.append(TreeArrays(np.array(node_type), np.array(feature_index),
                                np.array(split_value), np.array(left_child),
                                np.array(right_child), np.array(nan_left),
                                np.array(payload)))
    return ForestArrays(trees, feature_names, treatment_labels)
