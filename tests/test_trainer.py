from collections import Counter

import numpy as np
import pytest

import policylock as pl
from policylock.trainer import tree_to_arrays
from policylock import rng, splitsearch

from conftest import build_frame
from _oracles import oracle_best, oracle_auuc_qini, scalar_leaf


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
        calls = Counter()
        take, bucketize = pl.ColumnFrame.take, splitsearch.bucketize

        def counting_take(self, indices):
            calls["take"] += 1
            return take(self, indices)

        def counting_bucketize(value, boundaries):
            calls["bucketize"] += 1
            return bucketize(value, boundaries)

        monkeypatch.setattr(pl.ColumnFrame, "take", counting_take)
        monkeypatch.setattr(splitsearch, "bucketize", counting_bucketize)
        tree = pl.train(frame, man, path)
        assert len(tree.nodes) > 3
        assert calls["take"] == 0
        assert 0 < calls["bucketize"] <= len(man.feature_names)

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
                              np.array(top), np.array([""] * n, dtype=object))

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

    def test_tie_break_uses_row_id(self):
        # equal proxies: renumbering the rows reorders the curve
        proxy = np.array([0.5, 0.5, 0.5])
        treatments = np.array(["t", "c", "t"], dtype=object)
        outcomes = np.array([1, 1, 0])
        a = pl.auuc_qini(proxy, treatments, outcomes, "c", np.array([0, 1, 2]))
        b = pl.auuc_qini(proxy, treatments, outcomes, "c", np.array([2, 1, 0]))
        assert a != b


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
