"""Array-native policy forest: parallel node arrays plus a leaf payload matrix.

Traversal semantics are part of the execution contract: continuous nodes route
left on ``<=``, categorical nodes route left on exact equality, missing values
follow the per-node ``nan_goes_left`` flag (uniformly for both node kinds), and
forest output is the arithmetic mean of per-tree score vectors accumulated in
tree order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import (InvalidArgumentError, MalformedTreeError, SchemaError, _check_int,
                     _check_types)
from . import rng

INTERNAL_CONTINUOUS = 0
INTERNAL_CATEGORICAL = 1
LEAF = 2

_NODE_TYPE_NAMES = {INTERNAL_CONTINUOUS: "internal_continuous",
                    INTERNAL_CATEGORICAL: "internal_categorical",
                    LEAF: "leaf"}
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
        try:
            self.node_type = np.asarray(self.node_type, dtype=np.int8)
            self.feature_index = np.asarray(self.feature_index, dtype=np.int32)
            self.split_value = np.asarray(self.split_value, dtype=np.float64)
            self.left_child = np.asarray(self.left_child, dtype=np.int32)
            self.right_child = np.asarray(self.right_child, dtype=np.int32)
            self.nan_goes_left = np.asarray(self.nan_goes_left, dtype=bool)
            self.leaf_payload = np.asarray(self.leaf_payload, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"tree arrays must hold numbers: {exc}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.node_type)


@dataclass
class ForestArrays:
    trees: list[TreeArrays]
    feature_names: tuple[str, ...]
    treatment_labels: tuple[str, ...]

    def __post_init__(self):
        _check_types((self.trees, (list, tuple)))
        _check_types(*((t, TreeArrays) for t in self.trees))
        try:
            self.feature_names = tuple(self.feature_names)
            self.treatment_labels = tuple(self.treatment_labels)
        except TypeError:
            raise InvalidArgumentError("feature names and treatment labels must be "
                                       "sequences") from None

    @property
    def n_treatments(self) -> int:
        return len(self.treatment_labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass
class Violation:
    tree_index: Optional[int]   # None for the forest as a whole
    node_index: Optional[int]
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _shape_violation(tree: TreeArrays, T: int) -> Optional[str]:
    """Why ``tree``'s tables cannot be stacked as ``n`` nodes of ``T``
    payload columns, or None."""
    n = tree.n_nodes
    lengths = {f.name: len(getattr(tree, f.name)) for f in fields(tree)}
    bad = {k: v for k, v in lengths.items() if v != n}
    if bad:
        return f"array length mismatch: {bad}"
    if n == 0:
        return "tree has no nodes"
    if tree.leaf_payload.ndim != 2 or tree.leaf_payload.shape[1] != T:
        return f"leaf_payload must have {T} columns, got shape {tree.leaf_payload.shape}"
    return None


def validate_forest(forest: ForestArrays) -> ValidationReport:
    """Structural validation; violations are report entries, never exceptions.
    Internal nodes need in-range features and children other than
    themselves, and leaves carry ``-1`` children (docs/normative.md).

    Each tree's shape is checked on its own; the trees of the right shape
    are then stacked into one node table (tree ``t``'s nodes at ``roots[t] +
    local index``) and checked in one pass, the same pass that builds
    ``_PreparedForest``'s tables.  A tree reports its first failing stage:
    shape, an unknown node type, its flagged nodes in node order, or the
    first node that cannot reach a leaf within ``4 * n_nodes`` steps."""
    _check_types((forest, ForestArrays))
    return _checked_table(forest)[0]


def _checked_table(forest: ForestArrays) -> tuple[ValidationReport, tuple]:
    """``validate_forest``'s report and the stacked node table of its pass,
    ``(roots, node_type, feature, left, right, steps)``; on a forest that
    passes, ``left``/``right`` are the walk arrays (children shifted by their
    tree's root, leaves looping on themselves) and ``steps`` every node's
    worst-case steps to a leaf."""
    report = ValidationReport()
    if not forest.trees:
        report.violations.append(Violation(None, None, "forest has no trees"))
    T = forest.n_treatments
    F = forest.n_features
    shape = [_shape_violation(tree, T) for tree in forest.trees]
    stacked = [tree for tree, msg in zip(forest.trees, shape) if msg is None]
    nodes, table = _node_violations(stacked, F)
    found = iter(nodes)
    for ti, msg in enumerate(shape):
        if msg is not None:
            report.violations.append(Violation(ti, None, msg))
            continue
        report.violations.extend(Violation(ti, ni, text) for ni, text in next(found))
    return report, table


def _node_violations(trees: list[TreeArrays], F: int) -> tuple[list[list[tuple]], tuple]:
    """``(node_index, message)`` violations of every tree, trees of the
    right shape stacked into one node table, and that table."""
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    start = roots[tree_of]
    local = np.arange(int(sizes.sum()), dtype=np.int64) - start
    size = sizes[tree_of]

    def stack(name):
        return np.concatenate([np.empty(0, np.int64)] + [
            getattr(t, name).astype(np.int64, copy=False) for t in trees])

    node_type, feature = stack("node_type"), stack("feature_index")
    left, right = stack("left_child"), stack("right_child")
    internal = node_type != LEAF
    unknown = internal & (node_type != INTERNAL_CONTINUOUS) & (node_type != INTERNAL_CATEGORICAL)
    unknown = np.bincount(tree_of[unknown], minlength=len(trees)) > 0
    flagged = internal & ~((0 <= feature) & (feature < F))
    for child in (left, right):
        flagged |= np.where(internal, ~((0 <= child) & (child < size) & (child != local)),
                            child != -1)
    flagged &= ~unknown[tree_of]
    out: list[list[tuple]] = [[(None, "unknown node_type code")] if u else []
                              for u in unknown.tolist()]
    for g in np.flatnonzero(flagged):
        ti, ni, n = int(tree_of[g]), int(local[g]), int(size[g])
        for side, child in (("left", left[g]), ("right", right[g])):
            if not internal[g]:
                if child != -1:
                    out[ti].append((ni, f"leaf {side} child {child} is not -1"))
            elif not (0 <= child < n):
                out[ti].append((ni, f"{side} child {child} out of range"))
            elif child == ni:
                out[ti].append((ni, f"{side} child points to itself"))
        if internal[g] and not (0 <= feature[g] < F):
            out[ti].append((ni, f"feature index {feature[g]} out of range [0, {F})"))
    # only trees without a violation so far are walked: the internal nodes of
    # the others loop on themselves, and leaves' children are never read
    walks = np.array([not tree for tree in out], dtype=bool)[tree_of] & internal
    left = np.where(walks, left, local) + start
    right = np.where(walks, right, local) + start
    # any acyclic traversal is bounded by depth <= n_nodes; factor 4 is slack
    steps = _steps_to_leaf(~internal, left, right)
    over = np.flatnonzero(walks & ~(steps <= 4 * size))
    trees_over, first = np.unique(tree_of[over], return_index=True)
    for ti, g in zip(trees_over.tolist(), over[first].tolist()):
        out[ti].append((int(local[g]), f"step budget exceeded: node cannot reach a leaf "
                                       f"within {4 * int(size[g])} steps "
                                       f"(cycle or malformed tree)"))
    return out, (roots, node_type, feature, left, right, steps)


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


_PASS_WIDTH = 2 ** 16


class _PreparedForest:
    """The vectorized traversal kernel.  Its one walk, ``_walk(flat, base,
    stride)``, reads feature ``f`` of row ``r`` at ``flat[base[r] + f *
    stride]``: a columnar ``[F, N]`` block has ``stride = N`` and ``base`` the
    row numbers, a row-major ``[n, F]`` batch ``stride = 1`` and ``base = r *
    F``.  Both vectorized backends and ``score_forest`` call ``score``, which
    sums the payloads of the walk's leaves; ``traverse_batch`` and the
    trainer's assignment read a one-tree walk's leaf node ids
    (``_leaf_nodes``).

    Every tree's tables are stacked into one node table: tree ``t``'s nodes
    sit at ``roots[t] + local index`` and its children are shifted by the same
    offset.  Leaf thresholds are 0.0.

    Routing goes through one child table, ``child8[8 * node + code]``, with
    ``code = 4 * (v == s) + 2 * isnan(v) + (v <= s)`` for the row's value
    ``v`` and the node's threshold ``s``.  A continuous node maps every code
    on its ``<=`` bit, a categorical node on its ``==`` bit, and every code
    with the NaN bit set goes to the node's ``nan_goes_left`` child; a leaf
    maps all eight codes to itself.  A level is therefore four gathers
    (feature, value, threshold, child) and a few element-wise ops, with no
    masked copy.  Every level places all three bits, whatever the trees of
    the pass and the cells of the batch hold.  The table is indexed by node
    id, so it assumes no node order or sibling adjacency: any tree that
    passes ``validate_forest``, DAG-shaped ones included, walks unchanged.

    A batch of ``n`` rows walks the forest in passes over consecutive trees.
    The fixed rule: ``k = max(1, 2**16 // n)`` trees per pass, rebalanced to
    ``ceil(n_trees / ceil(n_trees / k))`` so every pass holds the same number
    of trees except possibly the last.  A pass routes its ``k * n`` node slots
    together for the greatest depth among its trees; rows of shallower trees
    idle on their self-looping leaves.  Each call allocates one scratch set,
    sized for its widest pass, and reuses it for every pass and level of that
    call; narrower passes use slices.  After ``__init__`` the model holds only
    its tables, so one model scores from many threads at once.  The backends
    call the kernel once per batch of at most ``batch_size`` rows, so reuse
    within a call already covers the passes and levels.  Keeping the scratch
    set between calls as well measured no faster on ``score_batch`` (10
    alternating 10 s pairs, 2-vCPU VM): columnar 0.462 s with it and 0.484 s
    without, inside the former's quartiles 0.420-0.526 s; row-major 0.555 s
    and 0.548 s.

    The tables are built from ``validate_forest``'s own stacked pass, and
    construction raises ``MalformedTreeError`` with the report's first
    violation when the forest fails it.  Every gather uses ``mode="clip"``,
    which lets numpy write ``out`` without an intermediate buffer.  Clipping
    never changes an index: in a forest that passes, every internal node's
    children lie inside its own tree and its feature below the forest's
    feature count; leaves loop on themselves on feature 0, which exists
    whenever some node is internal (a forest of leaves walks no level, so a
    zero-feature forest scores too); codes stay below 8; and ``_walk``
    checks that every address of every feature lies inside ``flat``.
    Payloads are gathered and added one tree at a time in tree order with
    one divide at the end, keeping the float operation sequence identical to
    the scalar walk.
    """

    def __init__(self, forest: ForestArrays):
        report, (roots, node_type, feature, left, right, steps) = _checked_table(forest)
        if not report.passed:
            raise MalformedTreeError(report.violations[0].message)
        trees = forest.trees
        self.n_trees = len(trees)
        self.n_features = forest.n_features
        self.roots = roots

        def stack(name, dtype):
            return np.concatenate([getattr(t, name).astype(dtype, copy=False) for t in trees])

        is_leaf = node_type == LEAF
        code = np.arange(8)
        go_left = np.where(code & 2, stack("nan_goes_left", bool)[:, None],
                           np.where((node_type == INTERNAL_CATEGORICAL)[:, None],
                                    code & 4, code & 1) != 0)
        self.child8 = np.where(go_left, left[:, None], right[:, None]).ravel()
        # idle leaves read feature 0 against threshold 0.0 and route to themselves
        self.feature = np.where(is_leaf, 0, feature)
        self.split_value = np.where(is_leaf, 0.0, stack("split_value", np.float64))
        self.payload = np.concatenate([t.leaf_payload for t in trees])
        self.is_leaf = is_leaf
        # exact worst-case depth from each root
        self.depths = steps[roots].astype(np.int64)

    def _passes(self, n: int) -> tuple[int, list[tuple[int, int]]]:
        """Trees per pass and the ``[t0, t1)`` tree range of every pass."""
        k = max(1, _PASS_WIDTH // max(n, 1))
        n_passes = -(-self.n_trees // k)
        k = -(-self.n_trees // n_passes) if n_passes else 1
        return k, [(t0, min(t0 + k, self.n_trees)) for t0 in range(0, self.n_trees, k)]

    def _walk(self, flat: np.ndarray, base: np.ndarray, stride: int):
        """Yields ``(t0, t1, node)`` for every pass over trees ``[t0, t1)``:
        slot ``j*n + r`` of ``node`` is the stacked leaf index of row ``r``
        (address ``base[r]``) in tree ``t0 + j``, a view into the call's
        scratch set.  An address outside ``flat`` is an
        ``InvalidArgumentError``; the feature table is scaled by ``stride``
        once per call."""
        n = len(base)
        if n and self.n_features:
            lo, hi = int(base.min()), int(base.max())
            reach = (self.n_features - 1) * stride
            if min(lo, lo + reach) < 0 or max(hi, hi + reach) >= flat.size:
                raise InvalidArgumentError(f"batch addresses {lo}..{hi} with stride "
                                           f"{stride} leave its {flat.size} values")
        table = self.feature * stride
        k, passes = self._passes(n)
        scratch = [np.empty(k * n, dtype=dtype) for dtype in
                   (np.int64, np.int64, np.int64, np.float64, np.float64, np.uint8, np.uint8)]
        for t0, t1 in passes:
            node, idx, addr, vals, thr, code, bit = (a[:(t1 - t0) * n] for a in scratch)
            # comparisons write their 0/1 bytes straight into the uint8 codes;
            # bits are placed by multiplying, since numpy's uint8 multiply is
            # vectorized and its uint8 shift is about 8x slower
            code_b, bit_b = code.view(bool), bit.view(bool)
            addr.reshape(t1 - t0, n)[:] = base
            node.reshape(t1 - t0, n)[:] = self.roots[t0:t1, None]
            for _ in range(int(self.depths[t0:t1].max())):
                np.take(table, node, out=idx, mode="clip")
                np.add(idx, addr, out=idx)
                np.take(flat, idx, out=vals, mode="clip")
                np.take(self.split_value, node, out=thr, mode="clip")
                np.less_equal(vals, thr, out=code_b)
                np.equal(vals, thr, out=bit_b)
                np.multiply(bit, 4, out=bit)
                np.bitwise_or(code, bit, out=code)
                np.isnan(vals, out=bit_b)
                np.multiply(bit, 2, out=bit)
                np.bitwise_or(code, bit, out=code)
                np.left_shift(node, 3, out=idx)
                np.add(idx, code, out=idx)
                np.take(self.child8, idx, out=node, mode="clip")
            np.take(self.is_leaf, node, out=code_b, mode="clip")
            if not code_b.all():
                raise MalformedTreeError("traversal did not reach leaves in depth steps")
            yield t0, t1, node

    def score(self, flat: np.ndarray, base: np.ndarray, stride: int) -> np.ndarray:
        """Mean payload [n, T] of the rows at int64 ``base`` of float64
        ``flat`` (see ``_walk``)."""
        n = len(base)
        acc = np.zeros((n, self.payload.shape[1]))
        rows = np.empty_like(acc)
        for t0, t1, node in self._walk(flat, base, stride):
            for j in range(t1 - t0):
                np.take(self.payload, node[j * n:(j + 1) * n], axis=0, out=rows, mode="clip")
                acc += rows
        return acc / float(self.n_trees)


def _layout(forest: ForestArrays, columns: np.ndarray,
            row_major: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """``score``'s ``(flat, base, stride)`` of a float64 batch holding the
    forest's features as rows (``[F, n]``) or per row (``[n, F]``); a
    non-contiguous batch is copied once."""
    try:
        batch = np.ascontiguousarray(columns, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidArgumentError("a batch must hold real numbers") from None
    if batch.ndim != 2 or batch.shape[1 if row_major else 0] != forest.n_features:
        raise InvalidArgumentError(
            f"batch of shape {batch.shape} does not hold {forest.n_features} features "
            f"{'per row' if row_major else 'as rows'}")
    n = batch.shape[0 if row_major else 1]
    rows = np.arange(n, dtype=np.int64)
    if row_major:
        return batch.reshape(-1), rows * forest.n_features, 1
    return batch.reshape(-1), rows, n


def _leaf_nodes(tree: TreeArrays, columns: np.ndarray, row_major: bool = False) -> np.ndarray:
    """Node id of the leaf each row of a float64 batch reaches in ``tree``,
    which may address every feature the batch holds; missing cells are NaN."""
    _check_types((tree, TreeArrays))
    n_features = np.shape(columns)[1 if row_major else 0] if np.ndim(columns) == 2 else 0
    forest = ForestArrays([tree], ("",) * n_features, ("",) * tree.leaf_payload.shape[-1])
    # one tree is one pass, and its stacked node ids are its own
    (_, _, node), = _PreparedForest(forest)._walk(*_layout(forest, columns, row_major))
    return node


def traverse_batch(tree: TreeArrays, columns: np.ndarray, row_major: bool = False) -> np.ndarray:
    """Leaf payload [n, T] for a float64 batch whose missing cells are NaN;
    the tree may address every feature the batch holds."""
    node = _leaf_nodes(tree, columns, row_major)
    return tree.leaf_payload[node]


def score_forest(forest: ForestArrays, columns: np.ndarray, row_major: bool = False) -> np.ndarray:
    """Elementwise mean of per-tree payloads, accumulated in tree order so the
    float operation sequence matches the scalar reference walk exactly."""
    if not forest.trees:
        raise InvalidArgumentError("cannot score an empty forest")
    layout = _layout(forest, columns, row_major)
    return _PreparedForest(forest).score(*layout)


FOREST_FORMAT_VERSION = "1"


def forest_to_text(forest: ForestArrays) -> str:
    """Canonical structured text: documented field order, full-precision
    (shortest round-trip) decimal floats, bit-exact on read-back."""
    _check_types((forest, ForestArrays))
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


def _node_dtype(T: int) -> np.dtype:
    """One node line as a record.  The string fields are one character wider
    than any valid token, so a longer token cannot be cut down to one."""
    return np.dtype([("node_type", "U21"), ("feature_index", np.int32),
                     ("split_value", np.float64), ("left_child", np.int32),
                     ("right_child", np.int32), ("nan_goes_left", "U2"),
                     ("leaf_payload", np.float64, (T,))])


def _parse_node_lines(lines: list[str], dtype: np.dtype) -> Optional[np.ndarray]:
    """One record per line, or None when a line is blank or holds a NUL, a
    wrong field count or a field that does not parse as its number type.
    ``np.loadtxt`` reads numbers with CPython's correctly rounded
    ``PyOS_string_to_double``, so floats are bit-identical to ``float()``;
    it skips blank lines (hence the row count check) and drops trailing
    NULs from string fields (hence the NUL check)."""
    if not lines:
        return np.empty(0, dtype)
    if not lines[0].strip():   # loadtxt warns when every line is blank
        return None
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    if len(rows) != len(lines) or "\x00" in "".join(lines):
        return None
    return rows


def _first_bad_line(lines: list[str], dtype: np.dtype) -> int:
    """Index of the first line ``_parse_node_lines`` rejects, found by
    bisection over prefixes that parse; ``lines`` must hold one."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_node_lines(lines[lo:mid], dtype) is None:
            hi = mid
        else:
            lo = mid
    return lo


def forest_from_text(text: str) -> ForestArrays:
    """Reader of ``forest_to_text``'s format.  Malformed text (truncated, bad
    count lines, unknown node types, node lines with a wrong field count or a
    field that is not an ASCII decimal number, trailing lines) raises
    ``SchemaError``.

    The header, names and count lines are read line by line; every node
    line of every tree is then parsed in one ``np.loadtxt`` pass into a
    record array, whose node types and NaN flags are checked with
    vectorized compares and whose columns are sliced per tree."""
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
    starts, sizes = [], []   # each tree's first node line (0-based) and node count
    for _ in range(n_trees):
        n_nodes = count("tree")
        if pos + n_nodes > len(lines):
            raise SchemaError("forest text truncated")
        starts.append(pos)
        sizes.append(n_nodes)
        pos += n_nodes
    if pos < len(lines):
        raise SchemaError("forest text has lines after its last tree")

    node_lines = list(itertools.chain.from_iterable(
        lines[s:s + n] for s, n in zip(starts, sizes)))
    offsets = np.cumsum([0] + sizes)

    def line_of(node: int) -> int:
        """1-based text line of stacked node line ``node``."""
        tree = int(np.searchsorted(offsets, node, side="right")) - 1
        return starts[tree] + node - int(offsets[tree]) + 1

    dtype = _node_dtype(t_count)
    rows = _parse_node_lines(node_lines, dtype)
    if rows is None:
        bad = _first_bad_line(node_lines, dtype)
        raise SchemaError(f"forest line {line_of(bad)}: a node line must hold "
                          f"{6 + t_count} fields of the documented types, not "
                          f"{node_lines[bad]!r}")
    node_type = np.full(len(rows), -1, dtype=np.int8)
    for code, name in _NODE_TYPE_NAMES.items():
        node_type[rows["node_type"] == name] = code
    nan_goes_left = rows["nan_goes_left"] == _NAN_FLAG_TEXT[True]
    bad = (node_type < 0) | ~(nan_goes_left | (rows["nan_goes_left"] == _NAN_FLAG_TEXT[False]))
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise SchemaError(f"forest line {line_of(first)}: unknown node type or a NaN "
                          f"flag other than 0/1 in {node_lines[first]!r}")
    columns = (node_type, *(np.ascontiguousarray(rows[name]) for name in
                            ("feature_index", "split_value", "left_child", "right_child")),
               nan_goes_left, np.ascontiguousarray(rows["leaf_payload"]))
    trees = [TreeArrays(*(col[lo:hi] for col in columns))
             for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
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
    if F < 1:
        raise InvalidArgumentError("a random forest needs at least one feature")
    for value, what in ((n_trees, "n_trees"), (max_depth, "max_depth"), (seed, "seed"),
                        (categorical_cardinality, "categorical_cardinality")):
        _check_int(value, what)
    if n_trees < 1:
        raise InvalidArgumentError("a random forest needs at least one tree")
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
