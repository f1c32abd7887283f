import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock.forest import (INTERNAL_CATEGORICAL, INTERNAL_CONTINUOUS, LEAF,
                               TreeArrays, _layout, _leaf_nodes, _PreparedForest)
from policylock import rng
from policylock.inference import _ScalarForest

from _oracles import reference_forest_from_text, scalar_leaf, scalar_scores
from conftest import build_frame, leaf_child_forest_text


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

    def test_forest_without_trees_fails(self):
        report = pl.validate_forest(pl.ForestArrays([], ("f0",), ("a",)))
        assert [(v.tree_index, v.message) for v in report.violations] == \
            [(None, "forest has no trees")]

    @pytest.mark.parametrize("child", [-61, -2, 0, 1, 2, 99])
    def test_leaf_child_other_than_minus_one(self, child):
        # the text reads back; validation names the tree and the leaf before
        # any walk over the children can index with them
        forest = pl.forest_from_text(leaf_child_forest_text(child))
        leaf = forest.trees[1].n_nodes - 1
        report = pl.validate_forest(forest)
        assert [(v.tree_index, v.node_index, v.message) for v in report.violations] == \
            [(1, leaf, f"leaf left child {child} is not -1")]

    def test_self_loop_child(self):
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                          [0, -1], [1, -1], [False, False], [[0.0], [1.0]])
        report = pl.validate_forest(pl.ForestArrays([tree], ("f0",), ("a",)))
        assert any("itself" in v.message for v in report.violations)


def test_random_forest_without_features_rejected():
    with pytest.raises(pl.EngineError, match="at least one feature"):
        pl.random_forest(2, 3, (), ("a", "b"), seed=1)


@pytest.mark.parametrize("n_trees", [0, -1])
def test_random_forest_without_trees_rejected(n_trees):
    with pytest.raises(pl.InvalidArgumentError, match="at least one tree"):
        pl.random_forest(n_trees, 3, ("f0",), ("a", "b"), seed=1)


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

    @pytest.mark.parametrize("tree", [
        pytest.param(TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                                [1, -1], [2, -1], [False, False], [[0.0], [1.0]]),
                     id="child-on-next-tree-root"),
        pytest.param(TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                                [-1, -1], [1, -1], [False, False], [[0.0], [1.0]]),
                     id="negative-child"),
        pytest.param(TreeArrays([INTERNAL_CONTINUOUS, LEAF, LEAF], [1, -1, -1],
                                [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                                [False] * 3, [[0.0], [1.0], [2.0]]),
                     id="feature-out-of-range"),
    ])
    def test_prepared_kernel_proves_its_gathers_in_range(self, tree):
        # unvalidated forest: the stacked table holds a second tree right
        # after the first, so node 2 exists there but not in the first tree
        forest = pl.ForestArrays([tree, single_leaf_tree([5.0])], ("f0",), ("a",))
        with pytest.raises(pl.MalformedTreeError, match="out of range"):
            _PreparedForest(forest)

    @pytest.mark.parametrize("forest", [
        pytest.param(pl.forest_from_text(leaf_child_forest_text(0)), id="leaf-child-0"),
        pytest.param(pl.forest_from_text(leaf_child_forest_text(2)), id="leaf-child-2"),
        pytest.param(pl.ForestArrays([TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1],
                                                 [0.5, 0.0], [0, -1], [1, -1],
                                                 [False, False], [[0.0], [1.0]])],
                                     ("f0",), ("a",)), id="child-points-to-itself"),
    ])
    def test_prepared_kernel_refuses_what_validation_reports(self, forest):
        # rules the kernel's own walk would not need: it never reads a leaf's
        # children, and a self loop is also a cycle; both are refused alike
        report = pl.validate_forest(forest)
        assert not report.passed
        with pytest.raises(pl.MalformedTreeError) as exc:
            _PreparedForest(forest)
        assert str(exc.value) == report.violations[0].message


_INF, _NAN = float("inf"), float("nan")
# (threshold, value): below, equal and above the threshold, NaN, +-inf,
# signed zeros against each other, and a NaN threshold (valid in a forest and
# its text) against a number, an infinity and NaN
_ROUTING_CASES = [(0.5, 0.25), (0.5, 0.5), (0.5, 0.75), (0.5, _NAN), (0.5, _INF),
                  (0.5, -_INF), (0.0, -0.0), (-0.0, 0.0), (_INF, _INF), (-_INF, -_INF),
                  (_NAN, 0.5), (_NAN, -_INF), (_NAN, _NAN)]


class TestRoutingCodes:
    """Every routing code the child table can see, against the scalar walk."""

    @pytest.mark.parametrize("nan_left", [False, True])
    @pytest.mark.parametrize("categorical", [False, True])
    def test_every_code_matches_scalar_walk(self, categorical, nan_left):
        values = np.array([[v for _, v in _ROUTING_CASES]])
        rows = values.T.tolist()
        trees = [depth1_tree(threshold=t, nan_left=nan_left, categorical=categorical)
                 for t in dict.fromkeys(t for t, _ in _ROUTING_CASES)]
        for tree in trees:
            want = tree.leaf_payload[[scalar_leaf(tree, row) for row in rows]].tobytes()
            assert pl.traverse_batch(tree, values).tobytes() == want
            assert pl.traverse_batch(tree, values.T, row_major=True).tobytes() == want
        # alone, then next to a tree of the other kind
        other = depth1_tree(threshold=0.5, nan_left=not nan_left,
                            categorical=not categorical)
        for group in (trees, trees + [other]):
            forest = pl.ForestArrays(group, ("f0",), ("a", "b"))
            assert pl.validate_forest(forest).passed
            want = np.array(scalar_scores(forest, rows))
            assert pl.score_forest(forest, values).tobytes() == want.tobytes()
            assert pl.score_forest(forest, values.T, row_major=True).tobytes() == \
                want.tobytes()
            read_back = pl.forest_from_text(pl.forest_to_text(forest))
            assert pl.score_forest(read_back, values).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("frame_features", [(), ("f0", "f1")])
    def test_zero_feature_forest_scores_on_every_backend(self, frame_features):
        """A forest of leaves over zero features passes validation, so every
        backend scores it: its payload on every row."""
        forest = pl.forest_from_text("forestarrays v1\ntreatments 2\na\nb\nfeatures 0\n"
                                     "trees 1\ntree 1\nleaf -1 nan -1 -1 0 1.0 0.25\n")
        assert forest.n_features == 0 and pl.validate_forest(forest).passed
        payload = np.tile([1.0, 0.25], (7, 1))
        assert pl.score_forest(forest, np.zeros((0, 7))).tobytes() == payload.tobytes()
        assert pl.score_forest(forest, np.zeros((7, 0)),
                               row_major=True).tobytes() == payload.tobytes()
        assert pl.traverse_batch(forest.trees[0], np.zeros((0, 7))).tobytes() == \
            payload.tobytes()
        assert pl.traverse_batch(forest.trees[0], np.zeros((7, 0)),
                                 row_major=True).tobytes() == payload.tobytes()
        frame = build_frame({name: [0.5, None, 2.0, -1.0, 0.0, 9.0, 3.0]
                             for name in frame_features},
                            treatments=["control"] * 7)
        for p in (1, 3):
            pf = pl.partition(frame, p)
            for kind in ("anti_pattern", "broadcast_rowwise", "vectorized_columnar",
                         "vectorized_rowmajor"):
                col = pl.score(pf, forest, pl.InferenceBackend(kind, batch_size=2))
                assert col.row_ids.tolist() == list(range(7))
                assert col.vectors.tobytes() == payload.tobytes()


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


def _dag_forest():
    """A random depth-3 tree, then a DAG-shaped tree (two parents share a
    child) with right children numbered before left ones and unreachable
    nodes, over three features; and a [3, 400] batch with NaN cells and
    cells on the DAG's thresholds."""
    cont, cat = INTERNAL_CONTINUOUS, INTERNAL_CATEGORICAL
    dag = TreeArrays(
        [cont, cat, LEAF, cont, LEAF, cont, LEAF, LEAF, cont],
        [0, 1, -1, 2, -1, 1, -1, -1, 0],
        [0.5, 2.0, _NAN, 0.25, _NAN, 0.7, _NAN, _NAN, 0.1],
        [5, 6, -1, 7, -1, 7, -1, -1, 4],
        [1, 3, -1, 4, -1, 6, -1, -1, 6],
        [True, False, False, True, False, False, False, False, True],
        [[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [0.0, 0.0], [0.25, 0.5],
         [0.0, 0.0], [0.75, 0.125], [0.5, 0.0625], [0.0, 0.0]])
    names = ("f0", "f1", "f2")
    first = pl.random_forest(1, 3, names, ("a", "b"), seed=5,
                             categorical_features=(1,)).trees[0]
    forest = pl.ForestArrays([first, dag], names, ("a", "b"))
    assert pl.validate_forest(forest).passed
    cols = _kernel_batch(len(names), (1,), 400, seed=8)
    cols[0, ::9], cols[2, 1::11], cols[1, 2::4] = 0.5, 0.25, 2.0
    return forest, cols


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

    @pytest.mark.parametrize("n_trees", [1, 2, 7, 13])
    def test_pass_boundaries_match_scalar_oracle(self, n_trees):
        """Batch widths that put every tree in one pass (n = 1), leave a short
        last pass (n = 13108: passes of 4 trees) and give each tree its own
        pass (n > 2**16), on mixed-depth trees with a single-leaf tree next to
        depth-8 trees.  Batches draw their rows from a pool of 500, whose
        oracle results are computed once."""
        names = [f"f{i}" for i in range(6)]
        labels = ("a", "b", "c")
        categorical = (1, 4)
        trees = []
        for i, depth in enumerate([8, 0, 8, 3, 5, 1, 8, 2, 6, 4, 7, 8, 2][:n_trees]):
            trees += [single_leaf_tree([0.25, 0.5, 0.125])] if depth == 0 else \
                pl.random_forest(1, depth, names, labels, seed=200 + i,
                                 categorical_features=categorical,
                                 categorical_cardinality=5, full=i % 3 == 0).trees
        forest = pl.ForestArrays(trees, names, labels)
        pool = _kernel_batch(len(names), categorical, 500, seed=n_trees)
        pool_rows = pool.T.tolist()
        scores = np.array(scalar_scores(forest, pool_rows))
        leaves = [np.array([scalar_leaf(tree, row) for row in pool_rows]) for tree in trees]
        gen = np.random.default_rng(n_trees)
        widths = (1, 13108, 2 ** 16 + 1)
        passes = [_PreparedForest(forest)._passes(n)[1] for n in widths]
        assert len(passes[0]) == 1 and len(passes[2]) == n_trees
        if n_trees == 13:
            assert [t1 - t0 for t0, t1 in passes[1]] == [4, 4, 4, 1]

        for n in widths:
            pick = gen.integers(0, len(pool_rows), n)
            cols = np.ascontiguousarray(pool[:, pick])
            rm = np.ascontiguousarray(cols.T)
            want = scores[pick].tobytes()
            assert pl.score_forest(forest, cols).tobytes() == want
            assert pl.score_forest(forest, rm, row_major=True).tobytes() == want
            for tree, leaf in zip(trees, leaves):
                want = tree.leaf_payload[leaf[pick]].tobytes()
                assert pl.traverse_batch(tree, cols).tobytes() == want
                assert pl.traverse_batch(tree, rm, row_major=True).tobytes() == want

        pick = gen.integers(0, len(pool_rows), 2 ** 16 + 2)
        big = pl.ColumnFrame(np.arange(len(pick)), names, list(pool[:, pick]),
                             [np.ones(len(pick), dtype=bool)] * len(names),
                             np.array(["control"] * len(pick), dtype=object),
                             np.zeros(len(pick), dtype=np.int64))
        small = np.arange(37)
        for rows, partitions, batch_sizes in ((small, 2, (1, 5)),
                                              (np.arange(len(pick)), 3, (13108,)),
                                              (np.arange(len(pick)), 1, (2 ** 16,))):
            pf = pl.partition(big.take(rows), partitions)
            for kind in ("vectorized_columnar", "vectorized_rowmajor"):
                for batch_size in batch_sizes:
                    col = pl.score(pf, forest, pl.InferenceBackend(kind, batch_size))
                    assert col.vectors[np.argsort(col.row_ids)].tobytes() == \
                        scores[pick[rows]].tobytes()

    def test_node_layout_is_free(self):
        """A DAG-shaped tree (two parents share a child), right children
        numbered before left ones and unreachable nodes, stacked after
        another tree, through every entry point of the kernel."""
        forest, cols = _dag_forest()
        dag, names = forest.trees[1], list(forest.feature_names)
        rows = cols.T.tolist()
        rm = np.ascontiguousarray(cols.T)
        expected = np.array(scalar_scores(forest, rows)).tobytes()
        assert pl.score_forest(forest, cols).tobytes() == expected
        assert pl.score_forest(forest, rm, row_major=True).tobytes() == expected
        for tree in forest.trees:
            leaves = [scalar_leaf(tree, row) for row in rows]
            assert pl.traverse_batch(tree, cols).tobytes() == tree.leaf_payload[leaves].tobytes()
            assert pl.traverse_batch(tree, rm, row_major=True).tobytes() == \
                tree.leaf_payload[leaves].tobytes()
        leaves = [scalar_leaf(dag, row) for row in rows]
        assert set(leaves) == {4, 6, 7}
        # the trainer's assignment reads original node ids
        assert _leaf_nodes(dag, cols).tolist() == leaves
        assert _leaf_nodes(dag, rm, row_major=True).tolist() == leaves
        frame = build_frame({name: cols[i].tolist() for i, name in enumerate(names)})
        for kind in ("vectorized_columnar", "vectorized_rowmajor"):
            col = pl.score(pl.partition(frame, 3), forest, pl.InferenceBackend(kind, 64))
            assert col.vectors[np.argsort(col.row_ids)].tobytes() == expected

    def test_one_entry_scores_any_stride_and_checks_every_address(self):
        """``score(flat, base, stride)`` on a columnar block (stride N), a
        row-major batch (stride 1) and rows spread through a wider buffer
        gives the same bits; a negative base, or a base whose last feature
        lands past the end of ``flat``, is an ``InvalidArgumentError`` on
        either layout and never a clipped gather."""
        names = ["f0", "f1", "f2"]
        forest = pl.random_forest(3, 4, names, ("a", "b"), seed=11,
                                  categorical_features=(1,), full=False)
        cols = _kernel_batch(len(names), (1,), 40, seed=12)
        want = pl.score_forest(forest, cols).tobytes()
        model = _PreparedForest(forest)
        rows = np.arange(40, dtype=np.int64)
        wide = np.full((3, 100), np.inf)
        wide[:, 7:47] = cols
        for flat, base, stride in ((cols.ravel(), rows, 40),
                                   (np.ascontiguousarray(cols.T).ravel(), rows * 3, 1),
                                   (wide.ravel(), rows + 7, 100)):
            assert model.score(flat, base, stride).tobytes() == want
            last = base.copy()
            last[-1] = flat.size - 2 * stride    # its last feature is past the end
            for bad in (base - 1 - base.min(), last):
                with pytest.raises(pl.InvalidArgumentError, match="leave its"):
                    model.score(flat, bad, stride)

    def test_scoring_leaves_the_model_unchanged(self):
        """After ``__init__`` the model holds only its tables: scoring at
        several widths, a rejected batch and a leaf lookup set no attribute
        and write no table."""
        forest, cols = _dag_forest()
        model = _PreparedForest(forest)
        before = dict(vars(model))
        tables = {k: v.tobytes() for k, v in before.items() if isinstance(v, np.ndarray)}
        flat, base, stride = _layout(forest, cols, False)
        for rows in (base, base[:7], base):
            model.score(flat, rows, stride)
        with pytest.raises(pl.InvalidArgumentError):
            model.score(flat, base - 1, stride)
        _leaf_nodes(forest.trees[1], cols)
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[k] is v for k, v in before.items())
        assert {k: v.tobytes() for k, v in vars(model).items()
                if isinstance(v, np.ndarray)} == tables

    def test_a_walk_short_of_the_leaves_raises(self):
        """Every pass checks that its slots end on leaves: a model whose
        depths fall one short raises ``MalformedTreeError`` rather than
        scoring internal nodes' payloads."""
        forest, cols = _dag_forest()
        model = _PreparedForest(forest)
        model.depths = model.depths - 1
        with pytest.raises(pl.MalformedTreeError, match="did not reach leaves"):
            model.score(*_layout(forest, cols, False))

    def test_one_model_scores_from_many_threads(self):
        """One model scored from four threads at once, on batches of
        different widths and pass counts, gives each batch the bytes of
        serial scoring."""
        names = ["f0", "f1", "f2"]
        forest = pl.random_forest(12, 6, names, ("a", "b"), seed=21,
                                  categorical_features=(1,), full=False)
        model = _PreparedForest(forest)
        layouts = [_layout(forest, _kernel_batch(3, (1,), n, seed=30 + i), False)
                   for i, n in enumerate((1, 300, 6000, 20000, 70000))]
        serial = [model.score(*layout).tobytes() for layout in layouts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                jobs = [pool.submit(model.score, *layout) for layout in layouts * 2]
                assert [job.result().tobytes() for job in jobs] == serial * 2

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


def _frame_of(cols, nulls=()):
    """A frame of the [F, n] batch ``cols`` (features ``f0``.. in order);
    the cells at ``(feature, row)`` in ``nulls`` become NULL."""
    data = {f"f{i}": cols[i].tolist() for i in range(len(cols))}
    for f, r in nulls:
        data[f"f{f}"][r] = None
    return build_frame(data)


def _assert_backends_match_scalar_oracle(forest, frame):
    """All four backends score ``frame`` byte-identically to the scalar
    oracle, at batch sizes 1, 3 and 10000 on one and on three partitions."""
    rows = np.array([frame.effective_values(name) for name in forest.feature_names]).T
    want = np.array(scalar_scores(forest, rows.tolist()))
    for p in (1, 3):
        pf = pl.partition(frame, p)
        for kind in pl.BACKEND_KINDS:
            for batch in (1, 3, 10000):
                col = pl.score(pf, forest, pl.InferenceBackend(kind, batch))
                assert col.row_ids.tolist() == frame.row_ids.tolist()
                assert col.vectors.tobytes() == want.tobytes(), (kind, batch, p)


class TestRowwiseWalk:
    """The row-wise backends walk one stacked interval table (each node
    goes left on ``lo <= v <= hi``); every backend, through ``score``,
    against the scalar oracle on edge values."""

    @pytest.mark.parametrize("nan_left", [False, True])
    @pytest.mark.parametrize("categorical", [False, True])
    def test_routing_cases(self, categorical, nan_left):
        """Every ``_ROUTING_CASES`` value (a NULL cell too) against one tree
        per threshold, signed zeros, infinities and a NaN threshold
        included, with a tree of the other kind and NaN flag last."""
        values = [v for _, v in _ROUTING_CASES] + [0.5]
        trees = [depth1_tree(threshold=t, nan_left=nan_left, categorical=categorical)
                 for t in dict.fromkeys(t for t, _ in _ROUTING_CASES)]
        trees.append(depth1_tree(threshold=0.5, nan_left=not nan_left,
                                 categorical=not categorical))
        forest = pl.ForestArrays(trees, ("f0",), ("a", "b"))
        _assert_backends_match_scalar_oracle(
            forest, _frame_of(np.array([values]), nulls=[(0, len(values) - 1)]))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_partial_trees(self, seed):
        """Partial trees with categorical nodes, NaN and NULL cells and
        cells equal to a node's threshold."""
        names = [f"f{i}" for i in range(5)]
        categorical = (1, 3)
        forest = pl.random_forest(4, 2 + seed, names, ("a", "b", "c"), seed=300 + seed,
                                  categorical_features=categorical,
                                  categorical_cardinality=4, full=False)
        cols = _kernel_batch(len(names), categorical, 40, seed=seed)
        for tree in forest.trees:
            for i in np.flatnonzero(tree.node_type != LEAF)[:3]:
                cols[tree.feature_index[i], int(i) % 40] = tree.split_value[i]
        _assert_backends_match_scalar_oracle(
            forest, _frame_of(cols, nulls=[(0, 1), (1, 2), (4, 39)]))

    def test_dag_shaped_tree(self):
        forest, cols = _dag_forest()
        _assert_backends_match_scalar_oracle(forest, _frame_of(cols[:, :60]))

    def test_one_leaf_tree(self):
        """A root that is itself a leaf, alone and between deeper trees;
        its ``-0.0`` payload sums to ``0.0 + -0.0 = 0.0``, so a sum started
        at ``-0.0`` shows."""
        leaf = single_leaf_tree([-0.0, 0.25])
        cols = np.array([[0.25, _NAN, 0.5, 0.75, -_INF]])
        alone = pl.ForestArrays([leaf], ("f0",), ("a", "b"))
        _assert_backends_match_scalar_oracle(alone, _frame_of(cols))
        deeper = pl.random_forest(2, 3, ("f0",), ("a", "b"), seed=4).trees
        mixed = pl.ForestArrays([deeper[0], leaf, deeper[1]], ("f0",), ("a", "b"))
        _assert_backends_match_scalar_oracle(mixed, _frame_of(cols))

    @pytest.mark.parametrize("categorical", [False, True])
    def test_nan_threshold_sends_every_row_right(self, categorical):
        tree = depth1_tree(threshold=_NAN, nan_left=True, categorical=categorical)
        forest = pl.ForestArrays([tree], ("f0",), ("a", "b"))
        cols = np.array([[-_INF, -0.0, 0.0, 0.5, _INF, _NAN]])
        _assert_backends_match_scalar_oracle(forest, _frame_of(cols))
        got = pl.score(pl.partition(_frame_of(cols), 1), forest,
                       pl.InferenceBackend("broadcast_rowwise"))
        assert got.vectors.tolist() == [[0.0, 1.0]] * 5 + [[1.0, 0.0]]

    def test_refuses_what_validation_reports(self):
        """The row-wise model is built from ``validate_forest``'s own pass:
        it refuses exactly the forests that fail validation, with the
        report's first message, as the kernel does."""
        cont = INTERNAL_CONTINUOUS
        forests = [pl.ForestArrays([tree, single_leaf_tree([5.0])], ("f0",), ("a",))
                   for tree in (
            TreeArrays([cont, LEAF], [0, -1], [0.5, 0.0], [1, -1], [2, -1],
                       [False, False], [[0.0], [1.0]]),
            TreeArrays([cont, LEAF], [0, -1], [0.5, 0.0], [0, -1], [1, -1],
                       [False, False], [[0.0], [1.0]]),
            TreeArrays([cont, cont, LEAF], [0, 0, -1], [0.5, 0.5, 0.0], [1, 0, -1],
                       [1, 0, -1], [False] * 3, [[0.0], [0.0], [1.0]]),
            TreeArrays([cont, LEAF, LEAF], [1, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1],
                       [2, -1, -1], [False] * 3, [[0.0], [1.0], [2.0]]))]
        forests += [pl.ForestArrays([], ("f0",), ("a",)),
                    pl.forest_from_text(leaf_child_forest_text(0))]
        for text, _ in _edited_texts(300, seed=41):
            try:
                forests.append(pl.forest_from_text(text))
            except pl.SchemaError:
                pass
        refused = 0
        for forest in forests:
            report = pl.validate_forest(forest)
            if report.passed:
                _ScalarForest(forest)
                continue
            refused += 1
            with pytest.raises(pl.MalformedTreeError) as exc:
                _ScalarForest(forest)
            assert str(exc.value) == report.violations[0].message
        assert 6 < refused < len(forests) - 50


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
        pytest.param(lambda ls: _insert_after_first_node_line(ls, ""), id="blank-line-in-tree"),
        pytest.param(lambda ls: _join_first_node_lines(ls), id="two-node-lines-on-one"),
        pytest.param(lambda ls: _replace_node_field(ls, 1, str(2 ** 31)),
                     id="feature-out-of-int32"),
        pytest.param(lambda ls: _replace_node_field(ls, 1, str(-2 ** 31 - 1)),
                     id="feature-below-int32"),
    ])
    def test_malformed_text_is_schema_error(self, mutate):
        forest = pl.random_forest(2, 2, ["f0", "f1"], ("a", "b"), seed=3)
        lines = pl.forest_to_text(forest).splitlines()
        text = "\n".join(mutate(lines)) + "\n"
        with pytest.raises(pl.SchemaError):
            pl.forest_from_text(text)

    def test_round_trip_of_special_floats_bit_exact(self):
        special = [_INF, -_INF, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                   _NAN, 1e308, -1e308, 0.1]
        n = len(special)
        tree = TreeArrays([INTERNAL_CONTINUOUS] * (n - 1) + [LEAF],
                          list(range(n - 1)) + [-1], special,
                          list(range(1, n)) + [-1], [n - 1] * (n - 1) + [-1],
                          [i % 2 == 0 for i in range(n)],
                          [special[i:] + special[:i] for i in range(n)])
        forest = pl.ForestArrays([tree, tree], [f"f{i}" for i in range(n)],
                                 [f"t{i}" for i in range(n)])
        text = pl.forest_to_text(forest)
        back = pl.forest_from_text(text)
        for a, b in zip(forest.trees, back.trees):
            for field in ("node_type", "feature_index", "split_value", "left_child",
                          "right_child", "nan_goes_left", "leaf_payload"):
                got, want = getattr(b, field), getattr(a, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field
        assert pl.forest_to_text(back) == text

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


def _insert_after_first_node_line(lines, line):
    i = _first_node_line(lines) + 1
    return lines[:i] + [line] + lines[i:]


def _join_first_node_lines(lines):
    i = _first_node_line(lines)
    return lines[:i] + [lines[i] + " " + lines[i + 1]] + lines[i + 2:]


_TREE_FIELDS = ("node_type", "feature_index", "split_value", "left_child",
                "right_child", "nan_goes_left", "leaf_payload")
_SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                            _INF, -_INF, _NAN, 1.7976931348623157e308, -1e-300, 0.1])


def _assert_same_forest(got, want):
    assert got.feature_names == want.feature_names
    assert got.treatment_labels == want.treatment_labels
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for name in _TREE_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def _seeded_forest(seed, T, full):
    """Random forest with categorical nodes whose thresholds and payload
    cells are ~30% special floats (signed zeros, subnormals, +-inf, NaN)."""
    gen = np.random.default_rng(seed)
    F = int(gen.integers(1, 7))
    forest = pl.random_forest(int(gen.integers(1, 5)), int(gen.integers(0, 6)),
                              [f"f{i}" for i in range(F)], [f"t{i}" for i in range(T)],
                              seed=seed, categorical_features=range(0, F, 2),
                              categorical_cardinality=int(gen.integers(2, 6)), full=full)
    for tree in forest.trees:
        hit = gen.random(tree.n_nodes) < 0.3
        tree.split_value[hit] = gen.choice(_SPECIAL_FLOATS, int(hit.sum()))
        hit = gen.random(tree.leaf_payload.shape) < 0.3
        tree.leaf_payload[hit] = gen.choice(_SPECIAL_FLOATS, int(hit.sum()))
    return forest


# tokens the edits put in place of a field: valid and invalid numbers, node
# types, NaN flags, count keywords, truncation bait and trailing NULs
_EDIT_TOKENS = ("0", "1", "-1", "+1", "01", "2", "5", "2147483647", "2147483648",
                "-2147483649", "1.5", "1e5", ".5", "nan", "-nan", "inf", "-Infinity",
                "1e999", "-0.0", "5e-324", "0x10", "1e", "leaf", "internal_continuous",
                "internal_categorical", "internal_categoricalX", "leaf\x00", "0\x00",
                "1\x00", "x", "", "tree", "3", "trees 2", "tree 1")
# numbers Python's int()/float() read but the format does not (ASCII decimal only)
_LOOSE_TOKENS = ("1_0", "0_5", "１", "٣.5")
_SEPARATORS = (" ", "  ", "\t", "\xa0", "　")


def _edited_texts(n, seed):
    """``(text, loose)`` for ``n`` seeded edits of three small forest texts
    (T = 1..3, partial trees, categorical nodes): one field replaced by a
    token, one line deleted or duplicated, or one line re-spaced.  ``loose``
    marks a replacement from ``_LOOSE_TOKENS``."""
    gen = np.random.default_rng(seed)
    bases = [pl.forest_to_text(pl.random_forest(
        3, 3, ("f0", "f1", "f2"), ("control", "t1", "t2")[:T], seed=T,
        categorical_features=(1,), full=False)).splitlines() for T in (1, 2, 3)]
    tokens = _EDIT_TOKENS + _LOOSE_TOKENS
    out = []
    for _ in range(n):
        lines = list(bases[int(gen.integers(len(bases)))])
        i = int(gen.integers(len(lines)))
        kind = int(gen.integers(4))
        token = None
        if kind == 0:
            parts = lines[i].split() or [""]
            token = tokens[int(gen.integers(len(tokens)))]
            parts[int(gen.integers(len(parts)))] = token
            lines[i] = " ".join(parts)
        elif kind == 1:
            del lines[i]
        elif kind == 2:
            lines.insert(i, lines[i])
        else:
            lines[i] = _SEPARATORS[int(gen.integers(len(_SEPARATORS)))].join(lines[i].split())
        out.append(("\n".join(lines) + "\n", token in _LOOSE_TOKENS))
    return out


def _read_or_none(reader, text):
    try:
        return reader(text)
    except pl.SchemaError:
        return None


class TestBulkReader:
    """``forest_from_text`` parses every node line in one ``np.loadtxt`` pass;
    the line-by-line ``reference_forest_from_text`` is its oracle."""

    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    def test_seeded_forests_read_byte_identical(self, T, full):
        for seed in range(4):
            forest = _seeded_forest(100 * T + seed, T, full)
            text = pl.forest_to_text(forest)
            back = pl.forest_from_text(text)
            _assert_same_forest(back, reference_forest_from_text(text))
            _assert_same_forest(back, forest)
            assert pl.forest_to_text(back) == text

    def test_edited_texts_accepted_and_rejected_alike(self):
        """The readers accept the same edited texts into byte-identical
        arrays and reject the same ones, except for numbers that are not
        ASCII decimal, which only the line reader accepts."""
        accepted = rejected = loose = 0
        for text, is_loose in _edited_texts(2000, seed=17):
            got = _read_or_none(pl.forest_from_text, text)
            want = _read_or_none(reference_forest_from_text, text)
            if got is None and want is not None and is_loose:
                loose += 1
                continue
            assert (got is None) == (want is None), repr(text)
            if got is None:
                rejected += 1
            else:
                accepted += 1
                _assert_same_forest(got, want)
        assert min(accepted, rejected) > 300 and loose > 10

    @pytest.mark.parametrize("field,token", [(1, "1_0"), (1, "１"), (2, "0_5"),
                                             (3, "٣"), (6, "１.5")])
    def test_node_numbers_are_ascii_decimal(self, field, token):
        lines = pl.forest_to_text(pl.random_forest(2, 2, ["f0", "f1"], ("a", "b"),
                                                   seed=3)).splitlines()
        text = "\n".join(_replace_node_field(lines, field, token)) + "\n"
        reference_forest_from_text(text)   # Python's int() and float() read it
        with pytest.raises(pl.SchemaError, match=f"forest line {_first_node_line(lines) + 1}:"):
            pl.forest_from_text(text)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda line: line + " 0.5", id="extra-field"),
        pytest.param(lambda line: line.rsplit(" ", 1)[0] + " abc", id="bad-payload"),
        pytest.param(lambda line: "", id="blank"),
        pytest.param(lambda line: "leef " + line.split(" ", 1)[1], id="unknown-type"),
        pytest.param(lambda line: " ".join(line.split()[:5] + ["2"] + line.split()[6:]),
                     id="nan-flag"),
        pytest.param(lambda line: " ".join(line.split()[:5] + ["0\x00"] + line.split()[6:]),
                     id="nul-after-flag"),
        pytest.param(lambda line: line.split()[0] + "\x00 " + line.split(" ", 1)[1],
                     id="nul-after-type"),
    ])
    def test_error_names_the_offending_line(self, edit):
        lines = pl.forest_to_text(pl.random_forest(3, 2, ["f0", "f1"], ("a", "b"),
                                                   seed=3)).splitlines()
        nodes = [i for i, line in enumerate(lines)
                 if line.split()[0] in ("leaf", "internal_continuous", "internal_categorical")]
        for i in (nodes[0], nodes[8], nodes[-1]):
            text = "\n".join(lines[:i] + [edit(lines[i])] + lines[i + 1:]) + "\n"
            with pytest.raises(pl.SchemaError):
                reference_forest_from_text(text)
            with pytest.raises(pl.SchemaError, match=f"forest line {i + 1}:"):
                pl.forest_from_text(text)

    def test_blank_node_lines_rejected_without_warning(self):
        head = "forestarrays v1\ntreatments 1\na\nfeatures 1\nf0\ntrees 2\ntree 0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pl.SchemaError, match="forest line 9:"):
                pl.forest_from_text(head + "tree 2\n\n \t\n")
            empty = pl.forest_from_text(head + "tree 0\n")
        _assert_same_forest(empty, reference_forest_from_text(head + "tree 0\n"))
        assert [t.n_nodes for t in empty.trees] == [0, 0]
        assert [t.leaf_payload.shape for t in empty.trees] == [(0, 1), (0, 1)]


def _per_tree_violations(forest):
    """Violations of every tree validated as a forest of its own."""
    out = [] if forest.trees else [(None, None, "forest has no trees")]
    for ti, tree in enumerate(forest.trees):
        one = pl.ForestArrays([tree], forest.feature_names, forest.treatment_labels)
        out += [(ti, v.node_index, v.message) for v in pl.validate_forest(one).violations]
    return out


def _violations(report):
    return [(v.tree_index, v.node_index, v.message) for v in report.violations]


class TestStackedValidation:
    def test_each_tree_reports_as_if_alone(self):
        cont = INTERNAL_CONTINUOUS
        good = depth1_tree()
        cycle = TreeArrays([cont, cont, LEAF], [0, 0, -1], [0.5, 0.5, _NAN],
                           [1, 0, -1], [1, 0, -1], [False] * 3, [[0.0, 0.0]] * 3)
        deep_cycle = TreeArrays([cont, cont, cont, LEAF], [0, 0, 0, -1], [0.5] * 3 + [_NAN],
                                [3, 2, 1, -1], [1, 3, 3, -1], [False] * 4, [[0.0, 0.0]] * 4)
        leaf_child = TreeArrays([cont, LEAF, LEAF], [0, -1, -1], [0.5, _NAN, _NAN],
                                [1, 7, -1], [2, -1, -1], [False] * 3, [[0.0, 0.0]] * 3)
        short = TreeArrays([cont, LEAF, LEAF], [0, -1], [0.5, _NAN, _NAN], [1, -1, -1],
                           [2, -1, -1], [False] * 3, [[0.0, 0.0]] * 3)
        # node 1 is also a self loop, which only known node types report
        unknown = TreeArrays([cont, 7, LEAF], [0, 0, -1], [0.5, 0.5, _NAN], [1, 1, -1],
                             [2, 2, -1], [False] * 3, [[0.0, 0.0]] * 3)
        wrong = TreeArrays([cont, cont, LEAF, LEAF], [4, 0, -1, -1], [0.5, 0.5, _NAN, _NAN],
                           [1, 1, -1, -1], [9, 3, -1, -1], [False] * 4, [[0.0, 0.0]] * 4)
        payload = single_leaf_tree([0.5])
        trees = [good, cycle, leaf_child, short, unknown, good, deep_cycle, wrong, payload,
                 TreeArrays([], [], [], [], [], [], np.zeros((0, 2))), good]
        forest = pl.ForestArrays(trees, ("f0", "f1"), ("a", "b"))
        got = _violations(pl.validate_forest(forest))
        assert got == _per_tree_violations(forest)
        budget = "step budget exceeded: node cannot reach a leaf within {} steps " \
                 "(cycle or malformed tree)"
        assert got == [(1, 0, budget.format(12)),
                       (2, 1, "leaf left child 7 is not -1"),
                       (3, None, "array length mismatch: {'feature_index': 2}"),
                       (4, None, "unknown node_type code"),
                       (6, 0, budget.format(16)),
                       (7, 0, "right child 9 out of range"),
                       (7, 0, "feature index 4 out of range [0, 2)"),
                       (7, 1, "left child points to itself"),
                       (8, None, "leaf_payload must have 2 columns, got shape (1, 1)"),
                       (9, None, "tree has no nodes")]
        for subset in ([good], [good, good], [cycle, good, good]):
            forest = pl.ForestArrays(subset, ("f0", "f1"), ("a", "b"))
            assert _violations(pl.validate_forest(forest)) == _per_tree_violations(forest)


def test_edited_texts_raise_only_engine_errors():
    """Edited forest texts go through the reader, ``validate_forest``, the
    prepared kernel and ``score``: every failure is an ``EngineError``,
    validation never raises and reports each tree as if alone, the kernel
    refuses exactly the forests that fail it (with the report's first
    message), ``score`` refuses them too, and a forest that passes scores
    like the scalar walk."""
    cols = _kernel_batch(3, (1,), 12, seed=4)
    frame = build_frame({f"f{i}": [None if i == 2 and r % 5 == 0 else v
                                   for r, v in enumerate(cols[i].tolist())]
                         for i in range(3)})
    pf = pl.partition(frame, 2)
    rows = np.vstack([frame.effective_values(f"f{i}") for i in range(3)]).T.tolist()
    stages = {"reader": 0, "invalid": 0, "names": 0, "scored": 0}
    for k, (text, _) in enumerate(_edited_texts(1200, seed=29)):
        try:
            forest = pl.forest_from_text(text)
        except pl.SchemaError:
            stages["reader"] += 1
            continue
        report = pl.validate_forest(forest)
        assert _violations(report) == _per_tree_violations(forest)
        if report.passed:
            _PreparedForest(forest)
        else:
            with pytest.raises(pl.MalformedTreeError) as exc:
                _PreparedForest(forest)
            assert str(exc.value) == report.violations[0].message
        backend = pl.InferenceBackend(("vectorized_columnar", "broadcast_rowwise")[k % 2], 5)
        if not report.passed:
            with pytest.raises(pl.InvalidArgumentError, match="failed validation"):
                pl.score(pf, forest, backend)
            stages["invalid"] += 1
            continue
        if forest.feature_names != frame.feature_names[:forest.n_features]:
            with pytest.raises(pl.SchemaError):
                pl.score(pf, forest, backend)
            stages["names"] += 1
            continue
        got = pl.score(pf, forest, backend).vectors
        assert got.tobytes() == np.array(scalar_scores(forest, rows)).tobytes()
        stages["scored"] += 1
    assert min(stages.values()) > 0 and stages["scored"] > 100, stages
