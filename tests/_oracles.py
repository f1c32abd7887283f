"""Independent reference implementations used as test oracles.

Everything here works from raw rows or raw text with plain Python loops and
stays deliberately independent of the engine's vectorized / prefix-sum /
bulk-parse code paths, with three exceptions.  ``scalar_candidate`` reads
the engine's ``PrefixTable`` and checks only the array scorer's S2
arithmetic, one candidate at a time.  ``pernode_train`` keeps the engine's
per-node split search, run on each node's rows of the frame, and checks only
how the level-wise trainer batches nodes, subtracts sibling tables and routes
rows.  ``reference_witness`` keeps the engine's per-row metric functions and
checks only the witness's per-leaf shortcuts.
"""

import itertools
import math

import numpy as np

from policylock.errors import SchemaError
from policylock.forest import (FOREST_FORMAT_VERSION, INTERNAL_CATEGORICAL, LEAF,
                               _NAN_FLAGS, _NODE_TYPE_NAMES, ForestArrays, TreeArrays)
from policylock.frame import PartitionedFrame
from policylock.splitsearch import (CandidateScore, SplitConfig, best_split,
                                    select_control, treatment_codes, STATUS_OK,
                                    _REASON_NO_CONTROL, _REASON_NOT_FINITE,
                                    _REASON_ZERO_SUPPORT, _reason_min_leaf)
from policylock.trainer import (Assignments, PolicyNode, PolicyTree, Witness, auuc_qini,
                                policy_value, signature, tree_to_arrays, uplift_proxy)


def scalar_leaf(tree, row_values):
    """Per-row recursive walk; returns the leaf node index."""
    node = 0
    steps = 0
    while tree.node_type[node] != LEAF:
        v = row_values[tree.feature_index[node]]
        if isinstance(v, float) and math.isnan(v):
            go_left = bool(tree.nan_goes_left[node])
        elif tree.node_type[node] == INTERNAL_CATEGORICAL:
            go_left = v == tree.split_value[node]
        else:
            go_left = v <= tree.split_value[node]
        node = tree.left_child[node] if go_left else tree.right_child[node]
        steps += 1
        if steps > 10000:
            raise RuntimeError("oracle walk did not terminate")
    return int(node)


def scalar_scores(forest, rows):
    """Forest scores via per-row walks and ordered accumulation."""
    out = []
    for row in rows:
        acc = [0.0] * forest.n_treatments
        for tree in forest.trees:
            leaf = scalar_leaf(tree, row)
            for t in range(forest.n_treatments):
                acc[t] += float(tree.leaf_payload[leaf][t])
        out.append([a / float(len(forest.trees)) for a in acc])
    return out


def reference_forest_from_text(text):
    """Line-by-line reader of the forest text format: each tree's node lines
    split in Python and converted field by field with ``int``, ``float`` and
    dict lookups.  Slow; the bulk ``forest_from_text`` must read every text
    it accepts into byte-identical arrays, and reject the texts it rejects,
    except node lines whose numbers Python's ``int``/``float`` accept but the
    format does not (``1_0``, non-ASCII digits)."""
    node_type_codes = {name: code for code, name in _NODE_TYPE_NAMES.items()}
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            raise SchemaError("forest text truncated")
        line = lines[pos]
        pos += 1
        return line

    def count(keyword):
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
    width = 6 + t_count
    for _ in range(n_trees):
        n_nodes = count("tree")
        first = pos + 1
        if pos + n_nodes > len(lines):
            raise SchemaError("forest text truncated")
        rows = list(map(str.split, lines[pos:pos + n_nodes]))
        pos += n_nodes
        if any(len(parts) != width for parts in rows):
            raise SchemaError(f"forest lines {first}-{pos}: a node line does not "
                              f"hold {width} fields")
        cols = list(zip(*rows)) or [()] * width
        try:
            payload = np.fromiter(map(float, itertools.chain.from_iterable(cols[6:])),
                                  np.float64, n_nodes * t_count)
            trees.append(TreeArrays(
                np.fromiter(map(node_type_codes.__getitem__, cols[0]), np.int8, n_nodes),
                np.fromiter(map(int, cols[1]), np.int32, n_nodes),
                np.fromiter(map(float, cols[2]), np.float64, n_nodes),
                np.fromiter(map(int, cols[3]), np.int32, n_nodes),
                np.fromiter(map(int, cols[4]), np.int32, n_nodes),
                np.fromiter(map(_NAN_FLAGS.__getitem__, cols[5]), bool, n_nodes),
                payload.reshape(t_count, n_nodes).T.copy()))
        except (KeyError, ValueError, OverflowError):
            raise SchemaError(f"forest lines {first}-{pos} hold an unknown node type, a "
                              f"NaN flag other than 0/1, or a bad number") from None
    if pos < len(lines):
        raise SchemaError("forest text has lines after its last tree")
    return ForestArrays(trees, tuple(names), tuple(labels))


def raw_missing(frame, feature, r):
    i = frame.column_index(feature)
    return (not frame.feature_valid[i][r]) or math.isnan(frame.feature_values[i][r])


def raw_value(frame, feature, r):
    return float(frame.feature_values[frame.column_index(feature)][r])


def oracle_candidates(frame, feature, cuts, treatments, control, min_leaf):
    """Every (candidate, route) scored directly from raw rows.

    Returns {(c, direction): (valid, score)} with score None when invalid.
    """
    T = len(treatments)
    t_index = {lab: i for i, lab in enumerate(treatments)}
    ctrl = t_index[control]
    results = {}
    for c, cut in enumerate(cuts):
        for direction in ("left", "right"):
            opps = {"left": [0] * T, "right": [0] * T}
            accepts = {"left": [0] * T, "right": [0] * T}
            for r in range(frame.n_rows):
                if raw_missing(frame, feature, r):
                    side = direction
                else:
                    side = "left" if raw_value(frame, feature, r) <= cut else "right"
                t = t_index[str(frame.treatments[r])]
                opps[side][t] += 1
                if frame.outcomes[r] == 1:
                    accepts[side][t] += 1
            valid = True
            if any(opps[s][t] == 0 for s in ("left", "right") for t in range(T)):
                valid = False
            if sum(opps["left"]) < min_leaf or sum(opps["right"]) < min_leaf:
                valid = False
            if T < 2:
                valid = False
            if not valid:
                results[(c, direction)] = (False, None)
                continue
            rates = {s: [accepts[s][t] / opps[s][t] for t in range(T)]
                     for s in ("left", "right")}
            ul = [rates["left"][t] - rates["left"][ctrl] for t in range(T) if t != ctrl]
            ur = [rates["right"][t] - rates["right"][ctrl] for t in range(T) if t != ctrl]
            score = max(max(ur) - min(ul), max(ul) - min(ur))
            results[(c, direction)] = (math.isfinite(score), score)
    return results


def scalar_candidate(table, c, direction, control_idx, min_leaf_size):
    """Scalar S2 of candidate ``c`` of a ``PrefixTable`` without a node axis:
    the missing tallies join the ``direction`` branch, then the validity
    checks in contract order and the DDP max-envelope score.  The array
    scorer must equal it candidate by candidate, score bits included."""
    left_o = table.left_opps[c].copy()
    left_a = table.left_accepts[c].copy()
    right_o = table.totals_opps - table.left_opps[c]
    right_a = table.totals_accepts - table.left_accepts[c]
    if direction == "left":
        left_o += table.missing_opps
        left_a += table.missing_accepts
    else:
        right_o += table.missing_opps
        right_a += table.missing_accepts
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
    cand.score = float(max(ur.max() - ul.min(), ul.max() - ur.min()))
    if not math.isfinite(cand.score):
        cand.invalid_reason = _REASON_NOT_FINITE
        return cand
    cand.valid = True
    return cand


def oracle_best(frame, features, bmap, treatments, control, min_leaf):
    """Winner under an independently implemented total order, or None."""
    rows = []
    for feature in features:
        cuts = bmap[feature].cuts
        cands = oracle_candidates(frame, feature, cuts, treatments, control, min_leaf)
        for (c, direction), (valid, score) in cands.items():
            if valid:
                rows.append((-score, cuts[c], c, 0 if direction == "left" else 1,
                             feature, direction, score))
    if not rows:
        return None
    rows.sort()
    neg, cut, c, _, feature, direction, score = rows[0]
    return (feature, c, cut, direction, score)


def oracle_auuc_qini(proxy, treatments, outcomes, control, row_ids):
    """Spreadsheet-style cumulative gain computation."""
    order = sorted(range(len(proxy)), key=lambda i: (-proxy[i], row_ids[i]))
    n = len(order)
    nt = nc = 0
    st = sc = 0.0
    gains = [0.0]
    for k, i in enumerate(order, start=1):
        if str(treatments[i]) != control:
            nt += 1
            st += float(outcomes[i])
        else:
            nc += 1
            sc += float(outcomes[i])
        if nt > 0 and nc > 0:
            gains.append((st / nt - sc / nc) * (k / n))
        else:
            gains.append(0.0)
    auuc = 0.0
    for k in range(1, n + 1):
        auuc += (gains[k] + gains[k - 1]) / 2.0 * (1.0 / n)
    return auuc, auuc - gains[n] / 2.0


def pernode_train(data, manifest, execution_path, control_override=None):
    """The breadth-first per-node trainer: one queue entry per node holding
    its row indices, one ``best_split`` on a frame of that node's rows,
    routing on raw values (``value <= threshold``, missing values by the NaN
    direction), leaf statistics from a per-leaf count.  Slow, and the
    reference the level-wise ``train`` must match."""
    frame = data.concat() if isinstance(data, PartitionedFrame) else data
    labels = manifest.treatment_labels
    T = len(labels)
    codes = treatment_codes(frame, labels)
    bmap = manifest.boundary_map()
    config = SplitConfig(min_leaf_size=manifest.min_leaf_size,
                         control_label_override=control_override,
                         execution_path=execution_path)
    nodes = {}
    queue = [("", np.arange(frame.n_rows))]
    while queue:
        path, rows = queue.pop(0)
        result = None
        if len(path) < manifest.max_depth:
            result = best_split(frame.take(rows), manifest.feature_names, bmap,
                                labels, config)
        if result is None or result.status != STATUS_OK:
            opps = np.bincount(codes[rows], minlength=T).astype(np.int64)
            accepts = np.bincount(codes[rows][frame.outcomes[rows] == 1],
                                  minlength=T).astype(np.int64)
            vector = np.zeros(T)
            nonzero = opps > 0
            vector[nonzero] = accepts[nonzero] / opps[nonzero]
            nodes[path] = PolicyNode(path, True, len(rows), vector=vector, opps=opps,
                                     accepts=accepts, zero_opportunity=tuple(
                                         int(t) for t in np.flatnonzero(~nonzero)))
            continue
        best = result.best
        nodes[path] = PolicyNode(path, False, len(rows), feature=best.feature_name,
                                 threshold=best.threshold_boundary,
                                 candidate_bin=best.candidate_bin,
                                 nan_direction=best.nan_direction)
        values = frame.effective_values(best.feature_name)[rows]
        go_left = values <= best.threshold_boundary
        if best.nan_direction == "left":
            go_left |= np.isnan(values)
        queue.append((path + "L", rows[go_left]))
        queue.append((path + "R", rows[~go_left]))
    return PolicyTree(nodes, manifest.feature_names, labels, manifest.max_depth,
                      manifest.min_leaf_size)


def reference_witness(tree, holdout):
    """The witness composed row by row: each row's leaf from a scalar walk,
    its vector gathered and its top treatment an ``argmax`` of that row,
    then ``policy_value``, the per-row ``uplift_proxy`` and ``auuc_qini``,
    which sorts all rows with ``lexsort``.  Slow, and the reference
    ``make_witness`` must match bit for bit."""
    arrays, paths = tree_to_arrays(tree)
    rows = holdout.feature_matrix_effective(tree.feature_names).T.tolist()
    leaf = np.array([scalar_leaf(arrays, row) for row in rows], dtype=np.int64)
    vectors = arrays.leaf_payload[leaf]
    assignments = Assignments(holdout.row_ids.copy(), tree.treatment_labels, vectors,
                              np.argmax(vectors, axis=1).astype(np.int64),
                              np.array(paths, dtype=object)[leaf], leaf)
    pv = policy_value(assignments, holdout)
    metrics = {"policy_value": pv.value, "policy_value_matched_rows": pv.matched_rows,
               "policy_value_empty_match": pv.empty_match}
    control = select_control(tree.treatment_labels)
    metrics.update(auuc_qini(uplift_proxy(assignments, control), holdout.treatments,
                             holdout.outcomes, control, holdout.row_ids))
    return Witness(signature(tree), assignments, metrics)
