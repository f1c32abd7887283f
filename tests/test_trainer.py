import hashlib
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock.harness import _s1_variants
from policylock.forest import LEAF
from policylock.trainer import PolicyNode, tree_to_arrays
from policylock import frame as frame_module, rng, splitsearch, trainer

from conftest import build_frame
from _oracles import (oracle_best, oracle_auuc_qini, pernode_train, reference_witness,
                      scalar_leaf)


def _witness_frame(n_rows=8000, p_miss=0.1, seed=7, n_treatments=4):
    spec = pl.SynthSpec(n_rows=n_rows, n_treatments=n_treatments, seed=seed,
                        p_miss=p_miss, families=("x_boundary", "x_miss",
                                                 "generic(2)"))
    return pl.generate(spec), spec.treatment_labels()


def _manifest(frame, labels, max_depth, min_leaf=200, n_bins=16):
    bmap = {n: pl.uniform_boundaries(n, n_bins) for n in frame.feature_names}
    return pl.build_manifest(frame, frame.feature_names, labels, bmap, 7,
                             max_depth, min_leaf).lock(), bmap


class TestTrain:
    def test_depth_zero_single_leaf_global_rates(self):
        frame = build_frame({"x": [0.1, 0.6, 0.4, 0.9]},
                            treatments=["control", "treat", "control", "treat"],
                            outcomes=[1, 0, 1, 1])
        man, _ = _manifest(frame, ("control", "treat"), max_depth=0, min_leaf=1)
        tree = pl.train(frame, man)
        assert list(tree.nodes) == [""]
        leaf = tree.nodes[""]
        assert leaf.is_leaf
        assert leaf.vector.tolist() == [1.0, 0.5]

    def test_planted_split_recovered_and_matches_oracle(self):
        frame, labels = _witness_frame(n_rows=16000)
        man, bmap = _manifest(frame, labels, max_depth=1, min_leaf=1000, n_bins=32)
        tree = pl.train(frame, man)
        root = tree.nodes[""]
        assert not root.is_leaf
        expected = oracle_best(frame, frame.feature_names, bmap, labels,
                               pl.select_control(labels), 1000)
        assert (root.feature, root.candidate_bin, root.threshold,
                root.nan_direction) == expected[:4]
        assert (root.feature, root.threshold) == ("x_boundary", 0.5)

    def test_three_paths_identical_signatures(self):
        frame, labels = _witness_frame()
        man, _ = _manifest(frame, labels, max_depth=2)
        digests = {pl.signature(pl.train(frame, man, p)).digest
                   for p in pl.EXECUTION_PATHS}
        assert len(digests) == 1

    def test_unlocked_manifest_rejected(self):
        frame, labels = _witness_frame(n_rows=500)
        bmap = {n: pl.uniform_boundaries(n, 8) for n in frame.feature_names}
        man = pl.build_manifest(frame, frame.feature_names, labels, bmap, 7, 1, 10)
        with pytest.raises(pl.ContractViolationError):
            pl.train(frame, man)

    def test_row_digest_mismatch_rejected(self):
        frame, labels = _witness_frame(n_rows=500)
        man, _ = _manifest(frame, labels, max_depth=1, min_leaf=10)
        with pytest.raises(pl.ContractViolationError):
            pl.train(frame.take(np.arange(100)), man)

    def test_leaf_size_floor_respected(self):
        frame, labels = _witness_frame(n_rows=2000)
        man, _ = _manifest(frame, labels, max_depth=4, min_leaf=300)
        tree = pl.train(frame, man)
        for leaf in tree.leaves():
            assert leaf.n_rows >= 300

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_bins_each_feature_once_and_takes_no_frames(self, path, monkeypatch):
        frame, labels = _witness_frame(n_rows=4000)
        man, _ = _manifest(frame, labels, max_depth=3)
        parts = pl.partition(frame, 4)
        calls = Counter()
        take, bucketize = pl.ColumnFrame.take, splitsearch.bucketize

        def counting_take(self, indices):
            calls["take"] += 1
            return take(self, indices)

        def counting_bucketize(value, boundaries, **kwargs):
            calls["bucketize"] += 1
            return bucketize(value, boundaries, **kwargs)

        monkeypatch.setattr(pl.ColumnFrame, "take", counting_take)
        monkeypatch.setattr(splitsearch, "bucketize", counting_bucketize)
        tree = pl.train(frame, man, path)
        assert len(tree.nodes) > 3
        assert calls["take"] == 0
        assert 0 < calls["bucketize"] <= len(man.feature_names)

        # four partitions: each is binned once, none is concatenated, and one
        # search pass serves every node of a level
        concat_frames, search = frame_module.concat_frames, trainer._search_cells

        def counting_concat(frames):
            calls["concat"] += 1
            return concat_frames(frames)

        def counting_search(*args):
            calls["search"] += 1
            return search(*args)

        monkeypatch.setattr(frame_module, "concat_frames", counting_concat)
        monkeypatch.setattr(trainer, "_search_cells", counting_search)
        calls.clear()
        parted = pl.train(parts, man, path)
        assert pl.signature(parted).text == pl.signature(tree).text
        assert calls["concat"] == 0
        assert calls["take"] == 0
        assert 0 < calls["bucketize"] <= parts.partition_count * len(man.feature_names)
        assert 0 < calls["search"] <= man.max_depth

    def test_depth_monotonic_prefix_extension(self):
        frame, labels = _witness_frame()
        man2, _ = _manifest(frame, labels, max_depth=2)
        man3, _ = _manifest(frame, labels, max_depth=3)
        t2 = pl.train(frame, man2)
        t3 = pl.train(frame, man3)
        for path, node in t2.nodes.items():
            if not node.is_leaf:
                other = t3.nodes[path]
                assert (other.feature, other.threshold, other.candidate_bin,
                        other.nan_direction) == (node.feature, node.threshold,
                                                 node.candidate_bin,
                                                 node.nan_direction)


@st.composite
def _locked_instances(draw):
    """(frame, locked manifest, partition count): N <= 400 rows, T from 1 to 4
    with some arms possibly empty, 1-3 features (named in any order) of 2-8
    bins whose values
    land on the cuts, on a 1/16 grid or in NULL and NaN cells, outcomes all
    0, all 1 or mixed, min_leaf_size at its edges and depth 0-4."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Hypothesis favours small integers, where no split is valid; sampled
    # lists start at the values that grow deep trees
    n = draw(st.integers(1, 400)) if draw(st.integers(0, 3)) == 0 else \
        int(gen.integers(100, 401))
    T = draw(st.sampled_from([4, 3, 2, 1]))
    labels = ("control", "t1", "t2", "t3")[:T]
    arms = draw(st.lists(st.integers(0, T - 1), min_size=1, max_size=T, unique=True)) \
        if draw(st.integers(0, 3)) == 0 else list(range(T))
    names, values, valid, bmap = [], [], [], {}
    # names out of sorted order: a tie broken by feature index would show
    order = draw(st.permutations(["f0", "f1", "f2"]))
    for i in range(draw(st.sampled_from([3, 2, 1]))):
        name = order[i]
        n_bins = draw(st.sampled_from([8, 5, 3, 2]))
        cuts = np.sort(gen.choice(np.arange(1, 16), n_bins - 1, replace=False)) / 16.0
        pool = np.concatenate([cuts, np.arange(17) / 16.0, [np.nan]])
        names.append(name)
        values.append(gen.choice(pool, n))
        valid.append(gen.random(n) >= draw(st.sampled_from([0.0, 0.1, 0.5])))
        bmap[name] = pl.Boundaries(name, tuple(cuts))
    outcomes = (gen.random(n) < draw(st.sampled_from([0.0, 0.4, 1.0]))).astype(np.int64)
    frame = pl.ColumnFrame(np.arange(n) * 3 + 5, names, values, valid,
                           np.array(labels, dtype=object)[gen.choice(arms, n)], outcomes)
    min_leaf = max(1, draw(st.one_of(st.sampled_from([1, 2, n // 16, n // 8]),
                                     st.sampled_from([n // 4, n // 2, n // 2 + 1, n,
                                                      n + 1]))))
    manifest = pl.build_manifest(frame, names, labels, bmap, 0,
                                 draw(st.sampled_from([4, 3, 2, 1, 0])), min_leaf).lock()
    return frame, manifest, draw(st.integers(2, 4))


class TestLevelWise:
    """The level-wise trainer against the per-node reference."""

    @settings(max_examples=60, deadline=None)
    @given(_locked_instances())
    def test_signature_equals_pernode_oracle_on_every_path_and_layout(self, case):
        frame, man, n_parts = case
        base = pl.partition(frame, n_parts)
        layouts = [frame, base] + [pl.apply_perturbation(base, pert)
                                   for _, pert in _s1_variants(11) if pert]
        for path in pl.EXECUTION_PATHS:
            want = pl.signature(pernode_train(frame, man, path)).text
            for data in layouts:
                assert pl.signature(pl.train(data, man, path)).text == want

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_every_level_counts_each_partition_on_its_own(self, path, monkeypatch):
        """S1 counts each partition on its own at every counted level: the
        root in one ``_count_partition`` call per partition, which counts
        every feature, and each level below in one key slice per partition
        for every feature."""
        frame, labels = _witness_frame(n_rows=3000)
        man, _ = _manifest(frame, labels, max_depth=4, min_leaf=150)
        parts = pl.partition(frame, 3)
        count_partition = splitsearch._count_partition
        partition_counts, count_cells = splitsearch._partition_counts, splitsearch._count_cells
        roots, tables, features = [], [], []

        def counting_partition(part, *args):
            counts = count_partition(part, *args)
            roots.append((part, len(counts)))
            return counts

        def counting_tables(*args):  # the partitioned path calls it from threads
            counts = partition_counts(*args)
            tables.append(len(counts))
            return counts

        def counting_cells(view, unit, *args):
            features.append(len(unit))
            return count_cells(view, unit, *args)

        monkeypatch.setattr(splitsearch, "_count_partition", counting_partition)
        monkeypatch.setattr(splitsearch, "_partition_counts", counting_tables)
        monkeypatch.setattr(splitsearch, "_count_cells", counting_cells)
        pl.train(parts, man, path)
        F = len(man.feature_names)
        assert len(roots) == parts.partition_count
        assert all(part is want and n == F
                   for (part, n), want in zip(roots, parts.partitions))
        assert sum(features) % F == 0
        assert sum(features) // F >= 1   # levels below the root
        assert tables == [3] * sum(features)

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_every_level_matches_per_node_searches_and_tables(self, path, monkeypatch):
        """Each node's slice of a level's tables, larger children taken by
        subtraction included, equals both S1 plans on that node's rows alone;
        each node's winner of the level's one search equals ``best_split``'s
        best on those rows, and a node without one gets ``STATUS_NO_VALID``
        there."""
        frame, labels = _witness_frame(n_rows=3000)
        man, bmap = _manifest(frame, labels, max_depth=4, min_leaf=150)
        search, levels = trainer._search_cells, []

        def recording(view, units, tables, n_nodes, control_idx, min_leaf_size):
            winners, scored = search(view, units, tables, n_nodes, control_idx,
                                     min_leaf_size)
            assert control_idx == labels.index(pl.select_control(labels))
            assert min_leaf_size == man.min_leaf_size
            levels.append((view, units, [t.copy() for t in tables], winners))
            return winners, scored

        monkeypatch.setattr(trainer, "_search_cells", recording)
        parts = pl.partition(frame, 4)
        tree = pl.train(parts, man, path)
        rows = parts.concat()   # the view's rows, in order
        config = pl.SplitConfig(min_leaf_size=man.min_leaf_size, execution_path=path)
        control = pl.select_control(labels)
        assert len(levels) == man.max_depth
        statuses = Counter()
        for depth, (view, units, tables, winners) in enumerate(levels):
            paths = sorted(p for p in tree.nodes if len(p) == depth)
            assert len(winners) == len(paths)
            for k, node_path in enumerate(paths):
                node = rows.take(_node_rows(view, tree, node_path))
                want = pl.best_split(node, man.feature_names, bmap, labels, config)
                statuses[want.status] += 1
                if winners[k] is None:
                    assert want.status == pl.STATUS_NO_VALID
                else:
                    assert want.status == pl.STATUS_OK
                    assert splitsearch._make_best(winners[k], control).to_record() == \
                        want.best.to_record()
                for unit, cells in zip(units, tables):
                    for i, f in enumerate(unit):
                        name = view.features[f]
                        table = pl.PrefixTable.from_cells(name, labels, bmap[name].cuts,
                                                          cells[i, k])
                        for build in (pl.build_prefix_sums, pl.windowed_prefix_table):
                            assert table.to_record() == \
                                build(node, name, bmap[name], labels).to_record()
        assert statuses[pl.STATUS_OK] and statuses[pl.STATUS_NO_VALID]

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_counts_only_the_smaller_child_and_takes_no_rows(self, path, monkeypatch):
        """After the root, S1 counts exactly the smaller child of each split
        (ties to the left)."""
        frame, labels = _witness_frame(n_rows=3000)
        man, _ = _manifest(frame, labels, max_depth=4, min_leaf=150)
        count_partition, count_cells = splitsearch._count_partition, splitsearch._count_cells
        search, events = trainer._search_cells, []

        def counting_partition(part, *args):
            events.append(("root", part.n_rows))
            return count_partition(part, *args)

        def counting_cells(view, unit, relational, rows, slots, n_slots):
            events.append(len(rows))
            return count_cells(view, unit, relational, rows, slots, n_slots)

        def marking_search(*args):
            events.append("search")
            return search(*args)

        monkeypatch.setattr(splitsearch, "_count_partition", counting_partition)
        monkeypatch.setattr(splitsearch, "_count_cells", counting_cells)
        monkeypatch.setattr(trainer, "_search_cells", marking_search)
        parts = pl.partition(frame, 3)
        tree = pl.train(parts, man, path)
        levels = [[]]   # rows counted per partition at the root, per unit below
        for event in events:
            if event == "search":
                levels.append([])
            else:
                levels[-1].append(event)
        root, *below = [level for level in levels if level]
        assert root == [("root", part.n_rows) for part in parts.partitions]
        assert all(len(level) == len(below[0]) for level in below)
        counted = [set(level) for level in below]
        sizes = {p: node.n_rows for p, node in tree.nodes.items()}
        want = []
        lopsided = False
        for depth in range(1, len(counted) + 1):
            split = [p for p in sizes if len(p) == depth - 1 and p + "L" in sizes]
            want.append({sum(min(sizes[p + "L"], sizes[p + "R"]) for p in split)})
            lopsided |= any(sizes[p + "L"] > sizes[p + "R"] for p in split)
        assert counted == want
        assert lopsided and len(counted) + 1 == man.max_depth


def _node_rows(view, tree, path):
    """Rows of ``view`` that reach the node at ``path`` of ``tree``."""
    rows = np.arange(view.n_rows)
    for depth in range(len(path)):
        node = tree.nodes[path[:depth]]
        f = view.features.index(node.feature)
        bins = view.bins[f, rows]
        go_left = bins <= node.candidate_bin
        if node.nan_direction == "left":
            go_left |= bins == view.boundaries[f].missing_bin
        rows = rows[go_left if path[depth] == "L" else ~go_left]
    return rows


def _two_partitions():
    a = build_frame({"x": [0.1, 0.7, 0.3]}, treatments=["b", "b", "a"],
                    outcomes=[1, 0, 1], row_ids=[0, 1, 2])
    b = build_frame({"x": [0.9, 0.2]}, treatments=["c", "a"], outcomes=[0, 1],
                    row_ids=[3, 4])
    return a, b


class TestPartitionedInput:
    """What ``train`` checks and infers on partitions, which it no longer
    concatenates."""

    @pytest.fixture
    def manifest(self):
        return _manifest(pl.concat_frames(_two_partitions()), ("a", "b", "c"),
                         max_depth=1, min_leaf=1)[0]

    def test_row_id_repeated_across_partitions(self, manifest):
        a, b = _two_partitions()
        again = build_frame({"x": [0.5]}, treatments=["a"], outcomes=[1], row_ids=[2])
        with pytest.raises(pl.SchemaError):
            pl.train(pl.PartitionedFrame((a, b, again)), manifest)
        with pytest.raises(pl.SchemaError):
            pl.train_unlocked_naive(pl.PartitionedFrame((a, again)),
                                    {"x": pl.Boundaries("x", (0.5,))}, 1, 1)

    def test_partitions_disagree_on_feature_columns(self, manifest):
        a, _ = _two_partitions()
        other = build_frame({"y": [0.9, 0.2]}, treatments=["c", "a"], outcomes=[0, 1],
                            row_ids=[3, 4])
        with pytest.raises(pl.SchemaError):
            pl.train(pl.PartitionedFrame((a, other)), manifest)

    def test_row_id_set_digest_is_of_a_set(self):
        ids = np.array([7, -3, 2 ** 62, 0], dtype=np.int64)
        want = hashlib.blake2b(np.sort(ids).astype("<i8").tobytes(), digest_size=16)
        assert pl.row_id_set_digest(ids) == pl.row_id_set_digest(ids[::-1]) \
            == want.hexdigest()
        for held_twice in ([3, 1, 3], [0, 0], np.r_[ids, -3]):
            with pytest.raises(pl.SchemaError, match="^row_ids must be unique$"):
                pl.row_id_set_digest(held_twice)

    def test_zero_partitions(self, manifest):
        with pytest.raises(pl.InvalidArgumentError):
            pl.train(pl.PartitionedFrame(()), manifest)

    def test_unlocked_naive_infers_first_seen_labels_in_partition_order(self):
        a, b = _two_partitions()
        bmap = {"x": pl.Boundaries("x", (0.5,))}
        forward = pl.train_unlocked_naive(pl.PartitionedFrame((a, b)), bmap, 1, 1)
        backward = pl.train_unlocked_naive(pl.PartitionedFrame((b, a)), bmap, 1, 1)
        assert forward.treatment_labels == ("b", "a", "c")
        assert backward.treatment_labels == ("c", "a", "b")


class TestSignature:
    def test_same_tree_same_digest(self):
        frame, labels = _witness_frame(n_rows=2000)
        man, _ = _manifest(frame, labels, max_depth=2)
        t = pl.train(frame, man)
        assert pl.signature(t).digest == pl.signature(t).digest
        assert pl.signature(t).text == pl.signature(t).text

    def test_tiny_leaf_perturbation_changes_digest(self):
        frame, labels = _witness_frame(n_rows=2000)
        man, _ = _manifest(frame, labels, max_depth=1)
        tree = pl.train(frame, man)
        base = pl.signature(tree).digest
        leaf = tree.nodes[[p for p in tree.nodes if tree.nodes[p].is_leaf][0]]
        leaf.vector = leaf.vector.copy()
        leaf.vector[0] += 1e-12
        assert pl.signature(tree).digest != base

    def test_format_header_and_paths(self):
        frame, labels = _witness_frame(n_rows=2000)
        man, _ = _manifest(frame, labels, max_depth=1)
        text = pl.signature(pl.train(frame, man)).text
        lines = text.splitlines()
        assert lines[0] == "treesignature v1"
        assert lines[1] == f"treatments {len(labels)}"
        assert any(line.startswith("internal /") for line in lines)
        assert any(line.startswith("leaf /L") for line in lines)


class TestAssign:
    def test_depth_zero_uniform(self):
        frame = build_frame({"x": [0.2, 0.8, 0.5]},
                            treatments=["control", "treat", "treat"],
                            outcomes=[1, 1, 1])
        man, _ = _manifest(frame, ("control", "treat"), max_depth=0, min_leaf=1)
        tree = pl.train(frame, man)
        out = pl.assign(tree, frame)
        assert set(out.leaf_paths.tolist()) == {""}
        assert np.array_equal(out.vectors, np.tile(tree.nodes[""].vector, (3, 1)))

    def test_uniform_vector_argmax_lowest_index(self):
        frame = build_frame({"x": [0.2, 0.8]}, treatments=["a", "b"],
                            outcomes=[1, 1])
        man, _ = _manifest(frame, ("a", "b"), max_depth=0, min_leaf=1)
        tree = pl.train(frame, man)
        out = pl.assign(tree, frame)
        assert tree.nodes[""].vector[0] == tree.nodes[""].vector[1]
        assert out.top_index.tolist() == [0, 0]

    def test_argmax_scale_invariance(self):
        frame, labels = _witness_frame(n_rows=4000)
        man, _ = _manifest(frame, labels, max_depth=2)
        tree = pl.train(frame, man)
        out = pl.assign(tree, frame)
        scaled = out.vectors * 3.5
        assert np.array_equal(np.argmax(scaled, axis=1), out.top_index)

    def test_random_rows_match_scalar_walk(self):
        frame, labels = _witness_frame(n_rows=4000)
        man, _ = _manifest(frame, labels, max_depth=3)
        tree = pl.train(frame, man)
        arrays, paths = tree_to_arrays(tree)
        sample = frame.take(np.arange(0, 4000, 20))  # 200 rows
        out = pl.assign(tree, sample)
        cols = sample.feature_matrix_effective(tree.feature_names)
        rows = cols.T.tolist()
        for r in range(sample.n_rows):
            leaf = scalar_leaf(arrays, rows[r])
            assert out.leaf_paths[r] == paths[leaf]
            assert np.array_equal(out.vectors[r], arrays.leaf_payload[leaf])


class TestPolicyValue:
    def _assignments(self, labels, top, n):
        vectors = np.zeros((n, len(labels)))
        for i, t in enumerate(top):
            vectors[i, t] = 1.0
        return pl.Assignments(np.arange(n), labels, vectors,
                              np.array(top), np.array([""] * n, dtype=object),
                              np.zeros(n, dtype=np.int64))

    def test_all_match_outcome_one(self):
        frame = build_frame({"x": [0.0] * 3}, treatments=["A"] * 3,
                            outcomes=[1, 1, 1])
        a = self._assignments(("A", "B"), [0, 0, 0], 3)
        res = pl.policy_value(a, frame)
        assert res.value == 1.0 and res.matched_rows == 3

    def test_half_outcomes(self):
        frame = build_frame({"x": [0.0] * 4}, treatments=["A"] * 4,
                            outcomes=[1, 0, 1, 0])
        a = self._assignments(("A", "B"), [0] * 4, 4)
        assert pl.policy_value(a, frame).value == 0.5

    def test_no_match_flagged(self):
        frame = build_frame({"x": [0.0] * 2}, treatments=["B", "B"],
                            outcomes=[1, 1])
        a = self._assignments(("A", "B"), [0, 0], 2)
        res = pl.policy_value(a, frame)
        assert res.value == 0.0 and res.empty_match

    def test_rows_match_labels_by_their_str(self):
        frame = pl.ColumnFrame(np.arange(5), ["x"], [np.zeros(5)], None,
                               np.array([0, 1, np.str_("0"), "1", 1], dtype=object),
                               [1, 0, 1, 1, 0])
        a = self._assignments(("0", "1"), [0, 0, 0, 1, 0], 5)
        res = pl.policy_value(a, frame)
        assert (res.value, res.matched_rows, res.empty_match) == (1.0, 3, False)

    def test_label_outside_vocabulary_is_contract_violation(self):
        frame = build_frame({"x": [0.0] * 3}, treatments=["A", "C", "B"],
                            outcomes=[1, 1, 1])
        a = self._assignments(("A", "B"), [0, 0, 0], 3)
        with pytest.raises(pl.ContractViolationError, match="'C' outside"):
            pl.policy_value(a, frame)


class TestAuucQini:
    def test_all_zero_outcomes(self):
        out = pl.auuc_qini(np.linspace(1, 0, 10), np.array(["t", "c"] * 5,
                                                           dtype=object),
                           np.zeros(10, dtype=int), "c", np.arange(10))
        assert out == {"auuc": 0.0, "qini": 0.0}

    def test_identical_proxy_balanced_arms_qini_zero(self):
        treatments = np.array(["t", "c"] * 5, dtype=object)
        outcomes = np.ones(10, dtype=int)
        out = pl.auuc_qini(np.full(10, 0.3), treatments, outcomes, "c",
                           np.arange(10))
        assert abs(out["qini"]) < 1e-12

    def test_eight_row_hand_case(self):
        # frozen from the spreadsheet-style oracle: AUUC = 1.875/16
        proxy = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        treatments = np.array(["t", "c", "t", "c", "t", "c", "t", "c"],
                              dtype=object)
        outcomes = np.array([1, 0, 0, 1, 1, 0, 0, 1])
        out = pl.auuc_qini(proxy, treatments, outcomes, "c", np.arange(8))
        assert out["auuc"] == pytest.approx(0.1171875, abs=1e-12)
        assert out["qini"] == pytest.approx(0.1171875, abs=1e-12)

    def test_matches_oracle_on_random_case(self):
        n = 200
        proxy = rng.uniform_stream(3, "proxy", n)
        treatments = np.where(rng.uniform_stream(3, "arm", n) < 0.5, "t", "c")
        outcomes = (rng.uniform_stream(3, "y", n) < 0.4).astype(int)
        got = pl.auuc_qini(proxy, treatments.astype(object), outcomes, "c",
                           np.arange(n))
        want_auuc, want_qini = oracle_auuc_qini(proxy.tolist(), treatments.tolist(),
                                                outcomes.tolist(), "c",
                                                list(range(n)))
        assert got["auuc"] == pytest.approx(want_auuc, abs=1e-12)
        assert got["qini"] == pytest.approx(want_qini, abs=1e-12)

    def test_requires_both_arms(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.auuc_qini(np.ones(3), np.array(["t", "t", "t"], dtype=object),
                         np.ones(3, dtype=int), "c", np.arange(3))

    @pytest.mark.parametrize("short", ["treatments", "outcomes", "row_ids", "proxy"])
    def test_unequal_lengths_rejected(self, short):
        args = {"proxy": np.linspace(1, 0, 6),
                "treatments": np.array(["t", "c"] * 3, dtype=object),
                "outcomes": np.array([1, 0, 0, 1, 1, 0]), "row_ids": np.arange(6)}
        args[short] = args[short][:4]
        with pytest.raises(pl.InvalidArgumentError, match="equally long"):
            pl.auuc_qini(args["proxy"], args["treatments"], args["outcomes"], "c",
                         args["row_ids"])

    @pytest.mark.parametrize("proxy", [
        np.ones((6, 1)), np.ones((2, 3)), np.float64(0.5), np.array(["a"] * 6),
        ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"], np.array([0.5] * 6, dtype=object),
        np.full(6, 1 + 1j),
    ])
    def test_proxy_must_be_a_1d_real_array(self, proxy):
        with pytest.raises(pl.InvalidArgumentError, match="proxy must be a 1-D array"):
            pl.auuc_qini(proxy, np.array(["t", "c"] * 3, dtype=object),
                         np.array([1, 0, 0, 1, 1, 0]), "c", np.arange(6))

    def test_integer_and_bool_proxies_read_as_float(self):
        args = (np.array(["t", "c"] * 3, dtype=object), np.array([1, 0, 0, 1, 1, 0]), "c",
                np.arange(6))
        want = pl.auuc_qini(np.array([3.0, 1, 2, 0, 2, 1]), *args)
        assert pl.auuc_qini(np.array([3, 1, 2, 0, 2, 1], dtype=np.int8), *args) == want
        assert pl.auuc_qini([3, 1, 2, 0, 2, 1], *args) == want
        assert pl.auuc_qini(np.array([1, 0, 1, 0, 1, 0], dtype=bool), *args) == \
            pl.auuc_qini(np.array([1.0, 0, 1, 0, 1, 0]), *args)

    def test_tie_break_uses_row_id(self):
        # equal proxies: renumbering the rows reorders the curve
        proxy = np.array([0.5, 0.5, 0.5])
        treatments = np.array(["t", "c", "t"], dtype=object)
        outcomes = np.array([1, 1, 0])
        a = pl.auuc_qini(proxy, treatments, outcomes, "c", np.array([0, 1, 2]))
        b = pl.auuc_qini(proxy, treatments, outcomes, "c", np.array([2, 1, 0]))
        assert a != b

    def test_non_str_labels_compare_by_their_str(self):
        labels = np.array([0, 1, np.str_("0"), "0", 2, np.str_("1")], dtype=object)
        as_text = np.array([str(t) for t in labels], dtype=object)
        want = [str(t) != "0" for t in labels]
        assert trainer._treated_mask(labels, "0").tolist() == want
        assert trainer._treated_mask(as_text, "0").tolist() == want
        proxy = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        outcomes = np.array([1, 0, 1, 1, 0, 1])
        assert pl.auuc_qini(proxy, labels, outcomes, "0", np.arange(6)) == \
            pl.auuc_qini(proxy, as_text, outcomes, "0", np.arange(6))

    def test_int_labelled_witness_equals_its_str_twin(self):
        """Rows holding the ints 0/1 train, assign and score as their str
        twin does, policy value included."""
        gen = np.random.default_rng(11)
        n = 400
        values = [gen.random(n), gen.random(n)]
        arms = gen.integers(0, 2, n)
        outcomes = (gen.random(n) < 0.3 + 0.4 * arms * (values[0] > 0.5)).astype(np.int64)
        witnesses = []
        for treatments in (arms.astype(object), arms.astype(str).astype(object)):
            frame = pl.ColumnFrame(np.arange(n), ["a", "b"], values, None, treatments,
                                   outcomes)
            man, _ = _manifest(frame, ("0", "1"), max_depth=2, min_leaf=40, n_bins=4)
            witnesses.append(pl.make_witness(pl.train(frame, man), frame))
        as_int, as_str = witnesses
        assert as_int.metrics == as_str.metrics
        assert as_str.metrics["policy_value_matched_rows"] > 0
        rep = pl.witness_compare(as_int, as_str)
        assert rep.signature_equal and rep.policy_vector_mismatches == 0


class TestManifestFile:
    def test_round_trip_preserves_everything(self):
        frame, labels = _witness_frame(n_rows=500)
        man, _ = _manifest(frame, labels, max_depth=2, min_leaf=10)
        back = pl.manifest_from_text(pl.manifest_to_text(man))
        assert back == man
        assert pl.manifest_to_text(back) == pl.manifest_to_text(man)

    def test_tampered_field_rejected(self):
        frame, labels = _witness_frame(n_rows=500)
        man, _ = _manifest(frame, labels, max_depth=2, min_leaf=10)
        text = pl.manifest_to_text(man).replace("min_leaf_size 10",
                                                "min_leaf_size 11")
        with pytest.raises(pl.ContractViolationError):
            pl.manifest_from_text(text)

    def test_unknown_version_rejected(self):
        frame, labels = _witness_frame(n_rows=500)
        man, _ = _manifest(frame, labels, max_depth=1, min_leaf=10)
        text = pl.manifest_to_text(man).replace("manifest v1", "manifest v9")
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(text)


class TestManifestRanges:
    """A negative ``max_depth`` or a ``min_leaf_size`` below 1 is rejected
    wherever a manifest is made."""

    @pytest.mark.parametrize("max_depth,min_leaf", [(-1, 10), (2, 0), (2, -3)])
    def test_out_of_range_rejected(self, max_depth, min_leaf):
        frame, labels = _witness_frame(n_rows=500)
        with pytest.raises(pl.InvalidArgumentError):
            _manifest(frame, labels, max_depth=max_depth, min_leaf=min_leaf)
        bmap = {n: pl.uniform_boundaries(n, 4) for n in frame.feature_names}
        with pytest.raises(pl.InvalidArgumentError):
            pl.train_unlocked_naive(frame, bmap, max_depth, min_leaf)
        # the text of a manifest with these fields and a matching digest
        man, _ = _manifest(frame, labels, max_depth=2, min_leaf=10)
        text = pl.manifest_to_text(man)
        digest = trainer._preprocessing_digest(man.boundaries, man.treatment_labels,
                                               man.seed, max_depth, min_leaf)
        for old, new in {man.preprocessing_digest: digest,
                         "max_depth 2": f"max_depth {max_depth}",
                         "min_leaf_size 10": f"min_leaf_size {min_leaf}"}.items():
            text = text.replace(old, new)
        with pytest.raises(pl.SchemaError, match="must be >= "):
            pl.manifest_from_text(text)


def _manifest_text(features, labels, cuts=(0.5,)):
    """Manifest text of these fields with a matching digest, written by hand."""
    bounds = tuple((name, pl.Boundaries(name, cuts)) for name in features)
    digest = trainer._preprocessing_digest(bounds, tuple(labels), 7, 2, 1)
    lines = ["manifest v1", "locked true", "row_id_digest 00",
             f"preprocessing_digest {digest}", "seed 7", "max_depth 2", "min_leaf_size 1",
             f"treatments {len(labels)}", *labels, f"features {len(features)}",
             *(" ".join([name, str(len(cuts)), *map(repr, cuts)]) for name in features)]
    return "\n".join(lines) + "\n"


class TestManifestFields:
    """``Manifest`` is the one home of the manifest's field rules: breaking
    one is an ``InvalidArgumentError`` from ``build_manifest`` and
    ``Manifest``, and a ``SchemaError`` from ``manifest_from_text``."""

    def test_hand_written_text_reads(self):
        man = pl.manifest_from_text(_manifest_text(("x", "y"), ("control", "t1")))
        assert (man.feature_names, man.treatment_labels) == (("x", "y"), ("control", "t1"))

    @pytest.mark.parametrize("features,labels", [
        (("x", "x"), ("control", "treat")),
        (("x", "y", "x"), ("control", "treat")),
        (("x",), ("control", "treat", "control")),
        (("x",), ("a", "a")),
        (("x",), ()),
        (("x",), (0, 1)),
        (("x",), ("control", None)),
        (("x y",), ("control", "treat")),
        (("",), ("control", "treat")),
        (("x",), ("control", "t\n1")),
    ], ids=["repeated_feature", "repeated_feature_apart", "repeated_label",
            "one_label_twice", "empty_vocabulary", "int_labels", "none_label",
            "feature_with_space", "empty_feature", "label_with_newline"])
    def test_broken_field_rejected_at_every_entry(self, features, labels):
        frame = build_frame({"x": [0.1, 0.6, 0.4, 0.9]},
                            treatments=["control", "treat"] * 2)
        bmap = {name: pl.Boundaries(name, (0.5,)) for name in features}
        with pytest.raises(pl.InvalidArgumentError):
            pl.build_manifest(frame, features, labels, bmap, 7, 2, 1)
        with pytest.raises(pl.InvalidArgumentError):
            pl.Manifest("00", features, labels, tuple(bmap.items()), 7, 2, 1, "00")
        if all(isinstance(label, str) for label in labels):   # text holds only str
            with pytest.raises(pl.SchemaError, match="^manifest "):
                pl.manifest_from_text(_manifest_text(features, labels))

    @pytest.mark.parametrize("seed,max_depth,min_leaf", [
        (1.5, 2, 1), ("7", 2, 1), (True, 2, 1), (None, 2, 1), (7, 2.0, 1), (7, 2, 1.5),
        (7, False, 1)])
    def test_non_integer_fields_rejected(self, seed, max_depth, min_leaf):
        frame = build_frame({"x": [0.1, 0.6]})
        with pytest.raises(pl.InvalidArgumentError, match="must be an integer"):
            pl.build_manifest(frame, ["x"], ("control", "treat"),
                              {"x": pl.Boundaries("x", (0.5,))}, seed, max_depth, min_leaf)

    def test_feature_missing_from_the_frame_rejected(self, monkeypatch):
        """A feature the frame has no column for is a ``SchemaError`` from
        ``build_manifest``, raised before the row ids are digested."""
        frame = build_frame({"x": [0.1, 0.6]})
        digested = []
        monkeypatch.setattr(trainer, "row_id_set_digest",
                            lambda ids: digested.append(ids) or "00")
        for features in (["z"], ["x", "z"]):
            bmap = {name: pl.Boundaries(name, (0.5,)) for name in features}
            with pytest.raises(pl.SchemaError, match="no feature column named 'z'"):
                pl.build_manifest(frame, features, ("control", "treat"), bmap, 7, 2, 1)
        assert digested == []

    def test_boundaries_named_for_another_feature_rejected(self):
        frame = build_frame({"x": [0.1, 0.6], "y": [0.2, 0.3]})
        with pytest.raises(pl.InvalidArgumentError, match="named for the features"):
            pl.build_manifest(frame, ["x", "y"], ("control", "treat"),
                              {"x": pl.Boundaries("y", (0.5,)),
                               "y": pl.Boundaries("y", (0.5,))}, 7, 2, 1)


_GOOD_FEATURES = ("x", "f0", "x_boundary", "\u00e9t\u00e9", "c01", "features")
_BAD_FEATURES = ("a b", "", " x", "x\n", "\t", "x\xa0y", 7, None)
_GOOD_LABELS = ("control", "t1", "0", "Control", "", " a ", "a b", "\u00e9", "treatments 2",
                np.str_("t2"))
_BAD_LABELS = ("a\nb", "t\r", "\x85", "a\u2028", 0, 1, None, b"t")
_GOOD_INTS = (0, 1, 3, 40, 2 ** 70, np.int64(5), np.int32(2))
_BAD_INTS = (-1, -(2 ** 70), 2.0, 1.5, True, "3", None)
_CUT_POOL = (-np.inf, -1e308, -1.5, -0.0, 5e-324, 0.1, 1 / 3, 0.5, 1e300, np.inf)


def _drawn_manifest_fields(gen):
    """Manifest fields drawn mostly from good values, each sometimes from
    broken ones: names, labels, boundaries (some named for another feature)
    and integers."""
    def pick(good, bad):
        pool = bad if gen.random() < 0.08 else good
        return pool[int(gen.integers(len(pool)))]

    features = [pick(_GOOD_FEATURES, _BAD_FEATURES) for _ in range(int(gen.integers(4)))]
    labels = [pick(_GOOD_LABELS, _BAD_LABELS) for _ in range(int(gen.integers(5)))]
    bmap = {}
    for name in features:
        cuts = np.unique(gen.choice(_CUT_POOL, int(gen.integers(1, 5))))
        bmap[name] = pl.Boundaries(pick((name,), _GOOD_FEATURES), tuple(cuts))
    ints = [pick(_GOOD_INTS, _BAD_INTS) for _ in range(3)]
    return features, labels, bmap, *ints


def test_every_built_manifest_survives_its_text():
    """Seeded property: ``build_manifest`` either raises
    ``InvalidArgumentError`` or makes a manifest that
    ``manifest_to_text`` then ``manifest_from_text`` gives back unchanged,
    locked or not, with the same text.  The frame holds a column for every
    good feature name, since a feature the frame lacks is a ``SchemaError``."""
    gen = np.random.default_rng(31)
    frame = build_frame({name: [0.1, 0.6, 0.4] for name in _GOOD_FEATURES},
                        row_ids=[5, -2, 9])
    outcomes = Counter()
    for _ in range(2000):
        features, labels, bmap, seed, max_depth, min_leaf = _drawn_manifest_fields(gen)
        try:
            man = pl.build_manifest(frame, features, labels, bmap, seed, max_depth,
                                    min_leaf)
        except pl.InvalidArgumentError:
            outcomes["rejected"] += 1
            continue
        for made in (man, man.lock()):
            text = pl.manifest_to_text(made)
            back = pl.manifest_from_text(text)
            assert back == made and pl.manifest_to_text(back) == text
        outcomes["kept"] += 1
    assert min(outcomes.values()) > 400, outcomes


class TestManifestErrors:
    """Malformed manifest text raises SchemaError, never a bare KeyError,
    IndexError or ValueError."""

    @pytest.fixture(scope="class")
    def text(self):
        frame, labels = _witness_frame(n_rows=500)
        man, _ = _manifest(frame, labels, max_depth=2, min_leaf=10)
        return pl.manifest_to_text(man)

    @staticmethod
    def _replace_line(text, start, new):
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(start))
        lines[i] = new
        return "\n".join(lines) + "\n"

    def test_truncated_after_locked(self):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text("manifest v1\nlocked true\n")

    def test_every_truncation(self, text):
        lines = text.splitlines(keepends=True)
        for k in range(len(lines)):
            with pytest.raises(pl.SchemaError):
                pl.manifest_from_text("".join(lines[:k]))

    def test_short_feature_line(self, text):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(self._replace_line(text, "x_boundary ", "x_boundary"))

    def test_fewer_cuts_than_declared(self, text):
        line = next(ln for ln in text.splitlines() if ln.startswith("x_boundary "))
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(self._replace_line(text, "x_boundary ",
                                                     line.rsplit(" ", 1)[0]))

    def test_bad_cut_value(self, text):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(self._replace_line(text, "x_boundary ",
                                                     "x_boundary 2 0.5 half"))

    @pytest.mark.parametrize("cuts", ["1 nan", "2 nan 0.5", "2 0.5 nan"])
    def test_nan_cut(self, text, cuts):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(self._replace_line(text, "x_boundary ",
                                                     f"x_boundary {cuts}"))

    @pytest.mark.parametrize("line,bad", [
        ("treatments ", "treatments four"), ("features ", "features many"),
        ("treatments ", "treatments -1"), ("seed ", "seed 7.5")])
    def test_bad_count_or_number(self, text, line, bad):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(self._replace_line(text, line, bad))

    def test_reordered_fields(self, text):
        lines = text.splitlines()
        lines[4], lines[5] = lines[5], lines[4]
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text("\n".join(lines) + "\n")

    def test_trailing_line(self, text):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text(text + "extra 1 0.5\n")

    def test_empty_text(self):
        with pytest.raises(pl.SchemaError):
            pl.manifest_from_text("")


_MANIFEST_TOKENS = ("0", "1", "-1", "+1", "01", "2", "7", "20", "1e5", ".5", "0.5", "nan",
                    "-nan", "inf", "-inf", "1e999", "-0.0", "5e-324", "0x10", "1e", "true",
                    "false", "True", "x", "", "features", "treatments", "manifest", "v1",
                    "v2", "seed", "locked", "1_0", "\uff11", "\u0663", "9" * 5000,
                    "-" + "9" * 30, "0\x00", "\x00", "x_boundary", "control", "\x85", "\r")
_MANIFEST_SEPARATORS = (" ", "  ", "\t", "\xa0", "\u3000")


def _edited_manifest_texts(text, n, seed):
    """``n`` seeded edits of a manifest text, one or two per text: a field
    replaced by a token, a line deleted, duplicated or re-spaced, or trailing
    NULs appended to a line."""
    gen = np.random.default_rng(seed)
    base = text.splitlines()
    out = []
    for _ in range(n):
        lines = list(base)
        for _ in range(1 + int(gen.integers(2))):
            i = int(gen.integers(len(lines)))
            kind = int(gen.integers(5))
            if kind == 0:
                parts = lines[i].split(" ")
                parts[int(gen.integers(len(parts)))] = \
                    _MANIFEST_TOKENS[int(gen.integers(len(_MANIFEST_TOKENS)))]
                lines[i] = " ".join(parts)
            elif kind == 1:
                del lines[i]
            elif kind == 2:
                lines.insert(i, lines[i])
            elif kind == 3:
                sep = _MANIFEST_SEPARATORS[int(gen.integers(len(_MANIFEST_SEPARATORS)))]
                lines[i] = sep.join(lines[i].split())
            else:
                lines[i] += "\x00" * (1 + int(gen.integers(3)))
            lines = lines or [""]
        out.append("\n".join(lines) + "\n")
    return out


def test_edited_manifest_texts_raise_only_engine_errors():
    """Edited manifest texts either read into a manifest that writes back to
    a text reading the same, or raise an ``EngineError``: a ``SchemaError``
    for malformed text, a ``ContractViolationError`` for fields that no
    longer match the digest."""
    frame, labels = _witness_frame(n_rows=500, n_treatments=3)
    man, _ = _manifest(frame, labels, max_depth=3, min_leaf=20, n_bins=6)
    outcomes = Counter()
    for text in _edited_manifest_texts(pl.manifest_to_text(man), 3000, seed=23):
        try:
            back = pl.manifest_from_text(text)
        except pl.EngineError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        assert pl.manifest_from_text(pl.manifest_to_text(back)) == back
        outcomes["read"] += 1
    assert set(outcomes) == {"read", "SchemaError", "ContractViolationError"}, outcomes
    assert min(outcomes.values()) > 100, outcomes


class TestWitness:
    def test_self_compare_all_equal(self):
        frame, labels = _witness_frame(n_rows=4000)
        man, _ = _manifest(frame, labels, max_depth=2)
        tree = pl.train(frame, man)
        w = pl.make_witness(tree, frame)
        rep = pl.witness_compare(w, w)
        assert rep.signature_equal
        assert rep.policy_vector_mismatches == 0
        assert rep.leaf_mismatches == 0
        assert rep.top_agreement == 1.0
        assert rep.max_vector_delta == 0.0

    def test_different_holdout_is_alignment_error(self):
        frame, labels = _witness_frame(n_rows=4000)
        man, _ = _manifest(frame, labels, max_depth=1)
        tree = pl.train(frame, man)
        wa = pl.make_witness(tree, frame.take(np.arange(100)))
        wb = pl.make_witness(tree, frame.take(np.arange(50, 150)))
        with pytest.raises(pl.AlignmentError):
            pl.witness_compare(wa, wb)

    def test_unlocked_naive_drifts_under_shuffle(self):
        frame, labels = _witness_frame(n_rows=6000, p_miss=0.0)
        bmap = {n: pl.uniform_boundaries(n, 16) for n in frame.feature_names}
        base = pl.train_unlocked_naive(frame, bmap, 2, 200)
        shuffled = frame.take(rng.permutation(99, "shuffle", frame.n_rows))
        drifted = pl.train_unlocked_naive(shuffled, bmap, 2, 200)
        assert pl.signature(base).digest != pl.signature(drifted).digest


def _bad_calls():
    frame, labels = _witness_frame(n_rows=600)
    man, _ = _manifest(frame, labels, max_depth=1, min_leaf=50)
    tree = pl.train(frame, man)
    witness = pl.make_witness(tree, frame)
    return {
        "train data": lambda: pl.train("x", man),
        "train manifest": lambda: pl.train(frame, "x"),
        "unlocked train data": lambda: pl.train_unlocked_naive("x", {}, 1, 1),
        "assign frame": lambda: pl.assign(tree, "x"),
        "assign tree": lambda: pl.assign("x", frame),
        "assign partitioned": lambda: pl.assign(tree, pl.partition(frame, 2)),
        "witness tree": lambda: pl.make_witness("x", frame),
        "witness holdout": lambda: pl.make_witness(tree, "x"),
        "compare both": lambda: pl.witness_compare("x", "y"),
        "compare second": lambda: pl.witness_compare(witness, witness.assignments),
        "signature tree": lambda: pl.signature(witness.signature),
        "policy value assignments": lambda: pl.policy_value("x", frame),
        "policy value frame": lambda: pl.policy_value(witness.assignments, "x"),
        "uplift proxy assignments": lambda: pl.uplift_proxy(witness, labels[0]),
    }


@pytest.mark.parametrize("case", list(_bad_calls()))
def test_entry_points_refuse_arguments_of_the_wrong_type(case):
    with pytest.raises(pl.InvalidArgumentError, match="^expected a "):
        _bad_calls()[case]()


_CUTS = np.array([0.25, 0.5, 0.75])
# few distinct leaf entries, so distinct leaves often share a proxy, -0.0
# against 0.0 included
_ENTRIES = np.array([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])


def _random_policy_tree(gen, features, labels, depth, entries=_ENTRIES):
    """A policy tree grown at random to at most ``depth``, its thresholds on
    ``_CUTS`` and its leaf vectors drawn from ``entries``."""
    nodes = {}

    def grow(path):
        if len(path) == depth or (path and gen.random() < 0.2):
            nodes[path] = PolicyNode(path, True, 0, vector=gen.choice(entries, len(labels)))
            return
        nodes[path] = PolicyNode(path, False, 0, features[gen.integers(len(features))],
                                 float(gen.choice(_CUTS)), 0,
                                 "left" if gen.random() < 0.5 else "right")
        grow(path + "L")
        grow(path + "R")

    grow("")
    return pl.PolicyTree(nodes, tuple(features), tuple(labels), depth, 1)


def _random_holdout(gen, features, labels, row_ids, int_labels):
    """Values on the cuts' grid, NaN and NULL; every arm present."""
    n = len(row_ids)
    grid = np.array([0.0, 0.25, 0.5, 0.6, 0.75, 1.0, np.nan])
    values = gen.choice(grid, (len(features), n))
    valid = gen.random((len(features), n)) > 0.1
    arms = gen.integers(0, len(labels), n)
    arms[:len(labels)] = np.arange(len(labels))
    treatments = arms.astype(object) if int_labels else np.array(labels, dtype=object)[arms]
    return pl.ColumnFrame(row_ids, features, list(values), list(valid), treatments,
                          gen.integers(0, 2, n))


def _row_ids(gen, n, layout):
    if layout == "ascending":
        return np.arange(n)
    if layout == "descending":
        return np.arange(n)[::-1] * 3 - 50
    if layout == "shuffled":
        return gen.permutation(n)
    return np.sort(gen.choice(np.arange(-10**12, 10**12, 10**6), n, replace=False))


def _assert_same_witness(got, want):
    assert got.signature == want.signature
    a, b = got.assignments, want.assignments
    assert a.treatment_labels == b.treatment_labels
    for field in ("row_ids", "vectors", "top_index", "leaf_paths", "leaf_index"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), field
        if x.dtype == object:
            assert x.tolist() == y.tolist(), field
        else:
            assert x.tobytes() == y.tobytes(), field
    assert list(got.metrics) == list(want.metrics)
    for key, value in want.metrics.items():
        assert type(got.metrics[key]) is type(value), key
        if isinstance(value, float):
            assert struct.pack("<d", got.metrics[key]) == struct.pack("<d", value), key
        else:
            assert got.metrics[key] == value, key


class TestLeafGranularWitness:
    """``make_witness`` works per leaf and gathers per row; the reference
    composes the per-row functions.  Every field must be bit-equal."""

    @pytest.mark.parametrize("seed", range(48))
    def test_random_trees_match_the_row_by_row_reference(self, seed):
        gen = np.random.default_rng(seed)
        layout = ("ascending", "descending", "shuffled", "sparse")[seed % 4]
        int_labels = seed % 3 == 0
        labels = ("0", "1", "2")[:2 + seed % 2] if int_labels else \
            ("control", "treat_a", "treat_b", "treat_c")[:2 + seed % 3]
        features = ["f0", "f1", "f2"]
        depth = seed % 5    # depth 0 is a one-leaf tree
        entries = np.append(_ENTRIES, np.nan) if seed % 7 == 3 else _ENTRIES
        tree = _random_policy_tree(gen, features, labels, depth, entries)
        holdout = _random_holdout(gen, features, labels,
                                  _row_ids(gen, 300 + 37 * (seed % 5), layout), int_labels)
        _assert_same_witness(pl.make_witness(tree, holdout),
                             reference_witness(tree, holdout))

    def test_distinct_leaves_with_equal_proxies_order_by_row_id(self):
        """Leaves LL and RL share the proxy 0.25, LR (-0.0) and RR (0.0) the
        proxy zero.  Their rows interleave by row id, so an order that kept
        each leaf's rows together would change the curve."""
        tree = pl.PolicyTree({
            "": PolicyNode("", False, 0, "x", 0.5, 1, "left"),
            "L": PolicyNode("L", False, 0, "x", 0.25, 0, "left"),
            "R": PolicyNode("R", False, 0, "x", 0.75, 2, "right"),
            "LL": PolicyNode("LL", True, 0, vector=np.array([0.25, 0.5])),
            "LR": PolicyNode("LR", True, 0, vector=np.array([0.0, -0.0])),
            "RL": PolicyNode("RL", True, 0, vector=np.array([0.5, 0.75])),
            "RR": PolicyNode("RR", True, 0, vector=np.array([0.5, 0.5])),
        }, ("x",), ("control", "treat"), 2, 1)
        n = 400
        gen = np.random.default_rng(5)
        holdout = pl.ColumnFrame(gen.permutation(n), ["x"], [gen.random(n)], None,
                                 np.where(gen.random(n) < 0.5, "control", "treat")
                                 .astype(object), gen.integers(0, 2, n))
        got = pl.make_witness(tree, holdout)
        _assert_same_witness(got, reference_witness(tree, holdout))
        a = got.assignments
        proxy = pl.uplift_proxy(a, "control")
        assert set(proxy.tolist()) == {0.25, 0.0}
        assert set(a.leaf_paths.tolist()) == {"LL", "LR", "RL", "RR"}
        by_leaf = np.lexsort((a.row_ids, a.leaf_index, -proxy))
        position = np.empty(n)
        position[by_leaf] = -np.arange(n)
        kept_together = pl.auuc_qini(position, holdout.treatments, holdout.outcomes,
                                     "control", a.row_ids)
        assert kept_together["auuc"] != got.metrics["auuc"]

    @pytest.mark.parametrize("order", ["ascending", "shuffled", "descending"])
    def test_trained_tree_matches_the_reference(self, order):
        frame, labels = _witness_frame(n_rows=3000)
        man, _ = _manifest(frame, labels, max_depth=3, min_leaf=100)
        tree = pl.train(frame, man)
        rows = {"ascending": np.arange(3000), "descending": np.arange(3000)[::-1],
                "shuffled": rng.permutation(4, "holdout", 3000)}[order]
        holdout = frame.take(rows[:1500])
        _assert_same_witness(pl.make_witness(tree, holdout),
                             reference_witness(tree, holdout))

    def test_leaf_index_addresses_the_path_table(self):
        frame, labels = _witness_frame(n_rows=2000)
        man, _ = _manifest(frame, labels, max_depth=3, min_leaf=100)
        tree = pl.train(frame, man)
        out = pl.assign(tree, frame)
        arrays, paths = tree_to_arrays(tree)
        assert out.leaf_index.dtype == np.int64
        assert out.leaf_paths.tolist() == [paths[i] for i in out.leaf_index]
        assert (arrays.node_type[out.leaf_index] == LEAF).all()

    def test_witness_calls_each_traced_layer_once(self, monkeypatch):
        """The benchmark's traced run times the witness by wrapping these
        module attributes; a witness that stopped calling one would leave its
        layer reading 0."""
        frame, labels = _witness_frame(n_rows=1000)
        man, _ = _manifest(frame, labels, max_depth=2, min_leaf=100)
        tree = pl.train(frame, man)
        calls = Counter()
        for name in ("assign", "policy_value", "signature"):
            def spy(*args, _name=name, _original=getattr(trainer, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(trainer, name, spy)
        pl.make_witness(tree, frame)
        assert calls == {"assign": 1, "policy_value": 1, "signature": 1}
