import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock.forest import (INTERNAL_CATEGORICAL, INTERNAL_CONTINUOUS, LEAF,
                               TreeArrays)
from policylock import rng

from _oracles import scalar_leaf, scalar_scores
from conftest import build_frame


def single_leaf_tree(payload):
    return TreeArrays([LEAF], [-1], [float("nan")], [-1], [-1], [False], [payload])


def depth1_tree(threshold=0.5, nan_left=True, left=(1.0, 0.0), right=(0.0, 1.0),
                categorical=False):
    kind = INTERNAL_CATEGORICAL if categorical else INTERNAL_CONTINUOUS
    return TreeArrays([kind, LEAF, LEAF], [0, -1, -1],
                      [threshold, float("nan"), float("nan")],
                      [1, -1, -1], [2, -1, -1], [nan_left, False, False],
                      [[0.0, 0.0], list(left), list(right)])


class TestValidation:
    def test_single_leaf_passes(self):
        forest = pl.ForestArrays([single_leaf_tree([0.5, 0.5])], ("f0",), ("a", "b"))
        assert pl.validate_forest(forest).passed

    def test_planted_cycle_fails_step_budget(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, INTERNAL_CONTINUOUS, LEAF],
                          [0, 0, -1], [0.5, 0.5, float("nan")],
                          [1, 0, -1], [1, 0, -1], [False] * 3,
                          [[0.0], [0.0], [1.0]])
        forest = pl.ForestArrays([tree], ("f0",), ("a",))
        report = pl.validate_forest(forest)
        assert not report.passed
        assert any("step budget" in v.message for v in report.violations)

    def test_payload_column_mismatch(self):
        forest = pl.ForestArrays([single_leaf_tree([0.5])], ("f0",), ("a", "b"))
        report = pl.validate_forest(forest)
        assert not report.passed
        assert any("columns" in v.message for v in report.violations)

    def test_child_out_of_range(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                          [1, -1], [9, -1], [False, False], [[0.0], [1.0]])
        report = pl.validate_forest(pl.ForestArrays([tree], ("f0",), ("a",)))
        assert any("out of range" in v.message for v in report.violations)

    def test_self_loop_child(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                          [0, -1], [1, -1], [False, False], [[0.0], [1.0]])
        report = pl.validate_forest(pl.ForestArrays([tree], ("f0",), ("a",)))
        assert any("itself" in v.message for v in report.violations)


class TestTraversal:
    def test_single_leaf_any_row(self):
        tree = single_leaf_tree([0.3, 0.7])
        cols = np.array([[0.1, 5.0, float("nan")]])
        out = pl.traverse_batch(tree, cols)
        assert np.array_equal(out, np.tile([0.3, 0.7], (3, 1)))

    def test_boundary_value_routes_left(self):
        # continuous nodes route left on <=
        tree = depth1_tree(threshold=0.5)
        out = pl.traverse_batch(tree, np.array([[0.5, 0.5000001]]))
        assert out[0].tolist() == [1.0, 0.0]
        assert out[1].tolist() == [0.0, 1.0]

    def test_nan_follows_flag(self):
        cols = np.array([[float("nan")]])
        left = pl.traverse_batch(depth1_tree(nan_left=True), cols)
        right = pl.traverse_batch(depth1_tree(nan_left=False), cols)
        assert left[0].tolist() == [1.0, 0.0]
        assert right[0].tolist() == [0.0, 1.0]

    def test_categorical_routes_on_exact_equality(self):
        tree = depth1_tree(threshold=2.0, categorical=True)
        out = pl.traverse_batch(tree, np.array([[2.0, 2.5, 1.0]]))
        assert out[:, 0].tolist() == [1.0, 0.0, 0.0]

    def test_row_major_kernel_matches_columnar(self):
        forest = pl.random_forest(4, 5, [f"f{i}" for i in range(6)], ("a", "b"),
                                  seed=3, categorical_features=(1,))
        cols = np.vstack([rng.uniform_stream(5, f"c{i}", 200) for i in range(6)])
        cols[2, :10] = np.nan
        a = pl.score_forest(forest, cols, row_major=False)
        b = pl.score_forest(forest, np.ascontiguousarray(cols.T), row_major=True)
        assert np.array_equal(a, b)

    def test_matches_scalar_walk_oracle(self):
        # 100 random rows on a random valid depth-4 tree
        names = [f"f{i}" for i in range(5)]
        forest = pl.random_forest(1, 4, names, ("a", "b", "c"), seed=17)
        tree = forest.trees[0]
        cols = np.vstack([rng.uniform_stream(29, f"col{i}", 100) for i in range(5)])
        cols[0, ::7] = np.nan
        got = pl.traverse_batch(tree, cols)
        rows = cols.T.tolist()
        for r in range(100):
            leaf = scalar_leaf(tree, rows[r])
            assert np.array_equal(got[r], tree.leaf_payload[leaf])

    def test_malformed_tree_raises_at_scoring(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, INTERNAL_CONTINUOUS, LEAF],
                          [0, 0, -1], [0.5, 0.5, 0.0], [1, 0, -1], [1, 0, -1],
                          [False] * 3, [[0.0], [0.0], [1.0]])
        with pytest.raises(pl.MalformedTreeError):
            pl.traverse_batch(tree, np.array([[0.1]]))

    def test_child_out_of_range_raises_at_scoring(self):
        # the row routes right, onto the missing node 9
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                          [1, -1], [9, -1], [False, False], [[0.0], [1.0]])
        forest = pl.ForestArrays([tree], ("f0",), ("a",))
        with pytest.raises(pl.MalformedTreeError, match="out of range"):
            pl.traverse_batch(tree, np.array([[0.9]]))
        with pytest.raises(pl.MalformedTreeError, match="out of range"):
            pl.score_forest(forest, np.array([[0.9]]))

    def test_feature_out_of_range_raises_at_scoring(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF, LEAF], [3, -1, -1],
                          [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                          [False] * 3, [[0.0], [1.0], [2.0]])
        forest = pl.ForestArrays([tree], ("f0",), ("a",))
        with pytest.raises(pl.MalformedTreeError, match="feature index 3"):
            pl.traverse_batch(tree, np.array([[0.9]]))
        with pytest.raises(pl.MalformedTreeError, match="feature index 3"):
            pl.score_forest(forest, np.array([[0.9]]))


class TestScoreForest:
    def test_one_tree_equals_traverse(self):
        forest = pl.random_forest(1, 3, ["f0", "f1"], ("a", "b"), seed=9)
        cols = np.vstack([rng.uniform_stream(1, "a", 50),
                          rng.uniform_stream(1, "b", 50)])
        assert np.array_equal(pl.score_forest(forest, cols),
                              pl.traverse_batch(forest.trees[0], cols))

    def test_two_constant_trees_average(self):
        t1 = single_leaf_tree([1.0, 0.0])
        t2 = single_leaf_tree([0.0, 1.0])
        forest = pl.ForestArrays([t1, t2], ("f0",), ("a", "b"))
        out = pl.score_forest(forest, np.array([[0.2, 0.9]]))
        assert np.array_equal(out, np.tile([0.5, 0.5], (2, 1)))

    def test_fifty_tree_forest_matches_brute_force_mean(self):
        names = [f"f{i}" for i in range(4)]
        forest = pl.random_forest(50, 4, names, ("a", "b"), seed=23)
        cols = np.vstack([rng.uniform_stream(31, f"c{i}", 40) for i in range(4)])
        got = pl.score_forest(forest, cols)
        expected = scalar_scores(forest, cols.T.tolist())
        assert np.array_equal(got, np.array(expected))

    def test_empty_forest_rejected(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.score_forest(pl.ForestArrays([], ("f0",), ("a",)), np.zeros((1, 0)))

    def test_batch_must_hold_the_forest_features(self):
        forest = pl.random_forest(2, 3, ["f0", "f1"], ("a", "b"), seed=9)
        for cols, row_major in ((np.zeros((1, 5)), False), (np.zeros((5, 3)), True),
                                (np.zeros(5), False)):
            with pytest.raises(pl.InvalidArgumentError):
                pl.score_forest(forest, cols, row_major=row_major)


def _kernel_batch(n_features, categorical, n_rows, seed):
    """[F, n] cells in [0, 1), categorical columns on codes 0..4, ~1 in 8 NaN."""
    cols = np.vstack([rng.uniform_stream(seed, f"col{i}", n_rows)
                      for i in range(n_features)])
    for f in categorical:
        cols[f] = np.floor(cols[f] * 5.0)
    nan_mask = np.vstack([rng.uniform_stream(seed, f"nan{i}", n_rows)
                          for i in range(n_features)]) < 0.125
    cols[nan_mask] = np.nan
    return cols


class TestOneKernel:
    """Every entry point of the prepared kernel against the scalar oracle, on
    partial trees (rows must stay parked at shallow leaves while the
    fixed-depth walk runs on), categorical nodes and NaN cells."""

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_partial_trees_match_scalar_oracle(self, depth):
        names = [f"f{i}" for i in range(6)]
        categorical = (1, 4)
        forest = pl.random_forest(3, depth, names, ("a", "b", "c"), seed=100 + depth,
                                  categorical_features=categorical,
                                  categorical_cardinality=5, full=False)
        cols = _kernel_batch(len(names), categorical, 300, seed=depth)
        rows = cols.T.tolist()
        expected = np.array(scalar_scores(forest, rows))
        assert np.isnan(cols).any()
        assert pl.score_forest(forest, cols).tobytes() == expected.tobytes()
        rm = np.ascontiguousarray(cols.T)
        assert pl.score_forest(forest, rm, row_major=True).tobytes() == expected.tobytes()
        for tree in forest.trees:
            leaves = [scalar_leaf(tree, row) for row in rows]
            want = tree.leaf_payload[leaves].tobytes()
            assert pl.traverse_batch(tree, cols).tobytes() == want
            assert pl.traverse_batch(tree, rm, row_major=True).tobytes() == want
        frame = build_frame({name: cols[i].tolist() for i, name in enumerate(names)})
        pf = pl.partition(frame, 3)
        for kind in ("vectorized_columnar", "vectorized_rowmajor"):
            col = pl.score(pf, forest, pl.InferenceBackend(kind, batch_size=64))
            order = np.argsort(col.row_ids, kind="stable")
            assert col.vectors[order].tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), depth=st.integers(1, 8),
           categorical=st.sets(st.integers(0, 4), max_size=3),
           cardinality=st.integers(2, 6), nan_share=st.sampled_from([0.0, 0.1, 0.5]),
           on_threshold=st.sampled_from([0.0, 0.3]))
    def test_seeded_partial_trees_match_scalar_oracle(self, seed, depth, categorical,
                                                      cardinality, nan_share, on_threshold):
        """Seeded partial trees with categorical nodes, NaN cells and cells
        equal to a node's threshold, in both layouts."""
        names = [f"f{i}" for i in range(5)]
        forest = pl.random_forest(3, depth, names, ("a", "b"), seed=seed,
                                  categorical_features=sorted(categorical),
                                  categorical_cardinality=cardinality, full=False)
        gen = np.random.default_rng(seed)
        cols = gen.random((len(names), 120))
        for f in categorical:
            cols[f] = np.floor(cols[f] * (cardinality + 1))
        thresholds = [(tree.feature_index[i], tree.split_value[i])
                      for tree in forest.trees for i in np.flatnonzero(tree.node_type != LEAF)]
        for f, value in thresholds:
            cols[f, gen.random(cols.shape[1]) < on_threshold / len(thresholds)] = value
        cols[gen.random(cols.shape) < nan_share] = np.nan
        rows = cols.T.tolist()
        expected = np.array(scalar_scores(forest, rows)).tobytes()
        rm = np.ascontiguousarray(cols.T)
        assert pl.score_forest(forest, cols).tobytes() == expected
        assert pl.score_forest(forest, rm, row_major=True).tobytes() == expected
        for tree in forest.trees:
            want = tree.leaf_payload[[scalar_leaf(tree, row) for row in rows]].tobytes()
            assert pl.traverse_batch(tree, cols).tobytes() == want
            assert pl.traverse_batch(tree, rm, row_major=True).tobytes() == want

    def test_zero_rows(self):
        forest = pl.random_forest(2, 4, ["f0", "f1"], ("a", "b"), seed=5,
                                  categorical_features=(1,), full=False)
        for cols, row_major in ((np.zeros((2, 0)), False), (np.zeros((0, 2)), True)):
            out = pl.score_forest(forest, cols, row_major=row_major)
            assert out.shape == (0, 2) and out.dtype == np.float64
            assert pl.traverse_batch(forest.trees[0], cols, row_major=row_major).shape == (0, 2)
        spec = pl.SynthSpec(n_rows=2000, n_treatments=2, seed=3, p_miss=0.1,
                            families=("x_boundary", "generic(2)"))
        frame = pl.generate(spec)
        bmap = {n: pl.uniform_boundaries(n, 8) for n in frame.feature_names}
        manifest = pl.build_manifest(frame, frame.feature_names, spec.treatment_labels(),
                                     bmap, 7, 2, 100).lock()
        tree = pl.train(frame, manifest)
        out = pl.assign(tree, frame.take(np.arange(0)))
        assert out.row_ids.shape == (0,)
        assert out.vectors.shape == (0, len(tree.treatment_labels))
        assert out.top_index.shape == (0,) and out.leaf_paths.shape == (0,)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        forest = pl.random_forest(5, 6, [f"f{i}" for i in range(8)],
                                  ("control", "t1", "t2"), seed=41,
                                  categorical_features=(0, 3))
        text = pl.forest_to_text(forest)
        back = pl.forest_from_text(text)
        assert back.feature_names == forest.feature_names
        assert back.treatment_labels == forest.treatment_labels
        for a, b in zip(forest.trees, back.trees):
            for field in ("node_type", "feature_index", "split_value", "left_child",
                          "right_child", "nan_goes_left", "leaf_payload"):
                assert np.array_equal(getattr(a, field), getattr(b, field),
                                      equal_nan=True)
        assert pl.forest_to_text(back) == text

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda ls: _replace_node_field(ls, 0, "leef"), id="unknown-node-type"),
        pytest.param(lambda ls: _replace_count(ls, "trees", "trees x"), id="non-integer-count"),
        pytest.param(lambda ls: _replace_count(ls, "trees", "trees"), id="count-without-number"),
        pytest.param(lambda ls: _replace_count(ls, "trees", "trees -1"), id="negative-count"),
        pytest.param(lambda ls: _replace_count(ls, "features", "columns 2"), id="wrong-count-keyword"),
        pytest.param(lambda ls: _edit_node_line(ls, lambda p: p[:-1]), id="short-node-line"),
        pytest.param(lambda ls: _edit_node_line(ls, lambda p: p + ["0.5"]), id="long-node-line"),
        pytest.param(lambda ls: _replace_node_field(ls, 1, "one"), id="non-numeric-feature"),
        pytest.param(lambda ls: _replace_node_field(ls, 2, "0.5x"), id="non-numeric-split"),
        pytest.param(lambda ls: _replace_node_field(ls, 3, "2**40"), id="non-numeric-child"),
        pytest.param(lambda ls: _replace_node_field(ls, 4, str(2 ** 40)), id="child-out-of-int32"),
        pytest.param(lambda ls: _replace_node_field(ls, 5, "2"), id="nan-flag-not-0-or-1"),
        pytest.param(lambda ls: _replace_node_field(ls, 6, "abc"), id="non-numeric-payload"),
        pytest.param(lambda ls: ls + ["leaf -1 nan -1 -1 0 0.5 0.5"], id="line-after-last-tree"),
    ])
    def test_malformed_text_is_schema_error(self, mutate):
        forest = pl.random_forest(2, 2, ["f0", "f1"], ("a", "b"), seed=3)
        lines = pl.forest_to_text(forest).splitlines()
        text = "\n".join(mutate(lines)) + "\n"
        with pytest.raises(pl.SchemaError):
            pl.forest_from_text(text)

    def test_unknown_version_rejected(self):
        forest = pl.ForestArrays([single_leaf_tree([0.5])], ("f0",), ("a",))
        text = pl.forest_to_text(forest).replace("v1", "v999")
        with pytest.raises(pl.SchemaError):
            pl.forest_from_text(text)


def _first_node_line(lines):
    return lines.index(next(line for line in lines if line.startswith("tree "))) + 1


def _edit_node_line(lines, edit):
    i = _first_node_line(lines)
    return lines[:i] + [" ".join(edit(lines[i].split()))] + lines[i + 1:]


def _replace_node_field(lines, k, value):
    return _edit_node_line(lines, lambda parts: parts[:k] + [value] + parts[k + 1:])


def _replace_count(lines, keyword, line):
    i = next(i for i, text in enumerate(lines) if text.split()[:1] == [keyword])
    return lines[:i] + [line] + lines[i + 1:]
