import dataclasses
import gc
import hashlib
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock import splitsearch
from policylock.harness import random_small_instance
from policylock.splitsearch import (CandidateScore, PrefixTable, _FeatureScores,
                                    _make_best, _no_valid_summary, _reason_counts,
                                    candidate_order_key)

from conftest import build_frame
from _golden import mixed_instance
from _oracles import oracle_best, oracle_candidates, pernode_train, scalar_candidate


@st.composite
def _bucketize_cases(draw):
    """Cuts on a 1/8 grid for B on both sides of the count-cuts crossover,
    optionally -0.0 in place of 0.0 and infinite end cuts; values mix the
    cuts themselves, their float neighbours, signed zeros, infinities, NaN,
    grid and arbitrary floats, shaped as a scalar, a 0-d, empty, 1-D or 2-D
    array."""
    n_bins = draw(st.sampled_from([2, 254, 255, 256, 1024]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cuts = np.sort(gen.choice(np.arange(-1500, 1500), n_bins - 1, replace=False)) / 8.0
    if draw(st.booleans()):
        cuts[cuts == 0.0] = -0.0
    if draw(st.booleans()):
        cuts[0] = -np.inf
    if draw(st.booleans()):
        cuts[-1] = np.inf
    pool = np.concatenate([
        cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan], gen.integers(-1700, 1700, 40) / 8.0,
        draw(st.lists(st.floats(), max_size=8))])
    shape = draw(st.sampled_from(["scalar", "0-d", "empty", "1-d", "2-d"]))
    if shape == "scalar":
        value = float(gen.choice(pool))
    elif shape == "0-d":
        value = np.array(gen.choice(pool))
    elif shape == "empty":
        value = np.array([])
    else:
        value = gen.choice(pool, size=60 if shape == "1-d" else (6, 10))
    return tuple(cuts.tolist()), value


class TestBucketize:
    def test_null_goes_to_missing_bin(self):
        b = pl.Boundaries("x", (0.5,))
        assert pl.bucketize(float("nan"), b) == 2

    def test_boundary_value_lands_in_lower_bin(self):
        b = pl.Boundaries("x", (0.5,))
        assert pl.bucketize(0.5, b) == 0
        assert pl.bucketize(0.5000000001, b) == 1

    def test_hand_intervals(self):
        b = pl.Boundaries("x", (0.0, 0.5))
        assert pl.bucketize(np.array([-1.0, 0.2, 0.7]), b).tolist() == [0, 1, 2]

    def test_array_with_missing(self):
        b = pl.Boundaries("x", (0.25, 0.75))
        got = pl.bucketize(np.array([0.1, 0.5, 0.9, float("nan")]), b)
        assert got.tolist() == [0, 1, 2, 3]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=1, max_size=6, unique=True))
    def test_bin_is_count_of_smaller_cuts(self, value, cuts):
        b = pl.Boundaries("x", tuple(sorted(cuts)))
        got = pl.bucketize(value, b)
        assert got == sum(1 for c in b.cuts if c < value)

    def test_cuts_must_increase(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.Boundaries("x", (0.5, 0.5))
        with pytest.raises(pl.InvalidArgumentError):
            pl.Boundaries("x", ())

    @pytest.mark.parametrize("cuts", [("a",), (0.5, None), 0.5])
    def test_non_numeric_cuts_rejected(self, cuts):
        with pytest.raises(pl.EngineError, match="cuts must be numbers"):
            pl.Boundaries("x", cuts)

    @pytest.mark.parametrize("cuts", [(float("nan"),), (float("nan"), 0.5),
                                      (0.5, float("nan")), (0.1, float("nan"), 0.9)])
    def test_nan_cut_rejected(self, cuts):
        with pytest.raises(pl.InvalidArgumentError):
            pl.Boundaries("x", cuts)

    @settings(max_examples=120, deadline=None)
    @given(_bucketize_cases())
    @example(((0.5,), np.array([0.5, -0.0, np.nan, np.inf, -np.inf])))
    @example(((-0.0, np.inf), np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5.0])))
    def test_equals_searchsorted_with_missing_bin(self, case):
        cuts, value = case
        b = pl.Boundaries("x", cuts)
        arr = np.asarray(value, dtype=np.float64)
        want = np.searchsorted(np.array(cuts), arr, side="left")
        want = np.where(np.isnan(arr), b.missing_bin, want)
        got = pl.bucketize(value, b)
        if isinstance(value, float) or arr.ndim == 0:
            assert type(got) is int and got == int(want)
        else:
            assert got.dtype == np.int64 and got.shape == arr.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", ["a", [1, "b"], object()])
    def test_non_numeric_values_rejected(self, value):
        with pytest.raises(pl.InvalidArgumentError, match="must be numbers or None"):
            pl.bucketize(value, pl.Boundaries("x", (0.5,)))

    def test_none_goes_to_missing_bin(self):
        b = pl.Boundaries("x", (0.5,))
        assert pl.bucketize(None, b) == 2
        assert pl.bucketize([1, None, 0.2], b).tolist() == [1, 2, 0]


def _searchsorted_bins(value, b):
    """The bucketize oracle: ``searchsorted`` left, NaN in the missing bin."""
    arr = np.asarray(value, dtype=np.float64)
    return np.where(np.isnan(arr), b.missing_bin,
                    np.searchsorted(np.array(b.cuts), arr, side="left"))


class TestChunkedBucketize:
    """Counting compares each chunk of values with every cut in one block of
    ``splitsearch._BLOCK_BYTES`` bools, ``_BLOCK_BYTES // (B - 1)`` values."""

    @pytest.mark.parametrize("n_bins", [2, 32, 255])
    def test_chunk_edges_match_searchsorted(self, n_bins):
        b = pl.uniform_boundaries("x", n_bins)
        chunk = splitsearch._BLOCK_BYTES // (n_bins - 1)
        gen = np.random.default_rng(n_bins)
        pool = np.concatenate([b.cuts, np.nextafter(b.cuts, 2.0), [np.nan, -1.0, 2.0]])
        for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            values = gen.random(n)
            picked = gen.random(n) < 0.3
            values[picked] = gen.choice(pool, int(picked.sum()))
            got = pl.bucketize(values, b)
            assert got.dtype == np.int64 and got.shape == (n,)
            assert np.array_equal(got, _searchsorted_bins(values, b))

    @pytest.mark.parametrize("n_bins", [32, 255, 256])
    def test_shapes_kept(self, n_bins):
        b = pl.uniform_boundaries("x", n_bins)
        grid = np.random.default_rng(1).random((7, 9))
        grid[2, 3] = np.nan
        got = pl.bucketize(grid, b)
        assert got.shape == (7, 9) and np.array_equal(got, _searchsorted_bins(grid, b))
        got = pl.bucketize(np.array(0.5), b)
        assert type(got) is int and got == int(_searchsorted_bins(0.5, b))

    def test_widest_counted_b_reaches_254(self, monkeypatch):
        searched = []
        searchsorted = np.searchsorted

        def counting(*args, **kwargs):
            searched.append(1)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        values = np.array([1.5, np.inf, 1.0, 1.0 - 1e-12])
        b255 = pl.uniform_boundaries("x", 255)
        assert pl.bucketize(values, b255).tolist() == [254, 254, 254, 254]
        assert not searched
        b256 = pl.uniform_boundaries("x", 256)
        assert pl.bucketize(values, b256).tolist() == [255, 255, 255, 255]
        assert len(searched) == 1

    @pytest.mark.parametrize("n_bins", [2, 255, 300])
    def test_float_edges(self, n_bins):
        """Signed zeros against a cut of 0.0, infinities, subnormals, NaN."""
        cuts = np.linspace(-1.0, 1.0, n_bins - 1)
        cuts[np.argmin(np.abs(cuts))] = 0.0
        b = pl.Boundaries("x", tuple(cuts.tolist()))
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2.2e-308, -2.2e-308,
                           np.nan, 1.0, -1.0])
        got = pl.bucketize(values, b)
        zero = int(np.flatnonzero(cuts == 0.0)[0])
        assert got[0] == got[1] == zero and got[4] == zero + 1 and got[5] == zero
        assert got[2] == n_bins - 1 and got[3] == 0 and got[8] == n_bins
        assert np.array_equal(got, _searchsorted_bins(values, b))

    @pytest.mark.parametrize("n_bins,dtype", [(2, np.uint8), (32, np.uint8),
                                              (255, np.uint8), (32, np.uint16),
                                              (256, np.uint16), (300, np.uint16)])
    def test_out_row_receives_the_int64_bins(self, n_bins, dtype):
        """``out`` (a row of a wider table, as ``bin_rows`` passes it) gets
        the public result's bins in its own dtype and is returned."""
        b = pl.uniform_boundaries("x", n_bins)
        chunk = splitsearch._BLOCK_BYTES // (n_bins - 1)
        gen = np.random.default_rng(n_bins)
        for n in (0, 1, chunk + 1):
            values = gen.random(n)
            values[::5] = np.nan
            table = np.full((3, n + 4), 7, dtype=dtype)
            got = pl.bucketize(values, b, out=table[1, 2:n + 2])
            assert got.base is table and got.dtype == dtype
            assert np.array_equal(got, pl.bucketize(values, b))
            assert (table[[0, 2]] == 7).all() and (table[1, [0, 1, -2, -1]] == 7).all()


class TestCandidateRowCount:
    @pytest.mark.parametrize("f,b,t,expected", [
        (10, 32, 4, 1240), (50, 32, 4, 6200), (250, 32, 4, 31000),
        (1000, 32, 4, 124000), (1, 2, 1, 1)])
    def test_scaling_law(self, f, b, t, expected):
        assert pl.candidate_row_count(f, b, t) == expected

    def test_rejects_zero(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.candidate_row_count(0, 32, 4)


class TestBinCount:
    """``uniform_boundaries`` and ``approx_quantile_boundaries`` share one
    bin-count check: an integer >= 2, not a bool."""

    @pytest.mark.parametrize("n_bins", [2.5, 2.0, "4", None, True, 1, 0, -3])
    def test_bad_bin_count_rejected(self, n_bins, six_row_frame):
        with pytest.raises(pl.InvalidArgumentError, match="n_bins"):
            pl.uniform_boundaries("x", n_bins)
        for data in (six_row_frame, pl.partition(six_row_frame, 2)):
            with pytest.raises(pl.InvalidArgumentError, match="n_bins"):
                pl.approx_quantile_boundaries(data, "x", n_bins)

    def test_numpy_bin_count_accepted(self, six_row_frame):
        assert pl.uniform_boundaries("x", np.int64(4)) == pl.uniform_boundaries("x", 4)
        assert pl.approx_quantile_boundaries(six_row_frame, "x", np.int32(2)) == \
            pl.approx_quantile_boundaries(six_row_frame, "x", 2)

    def test_none_only_for_a_feature_without_values(self):
        frame = build_frame({"x": [None, float("nan")]})
        assert pl.approx_quantile_boundaries(frame, "x", 4) is None


class TestSelectControl:
    def test_case_insensitive_control(self):
        assert pl.select_control(["Control", "offerA"]) == "Control"

    def test_exact_zero_label(self):
        assert pl.select_control(["0", "1", "2"]) == "0"

    def test_lexicographic_fallback(self):
        assert pl.select_control(["z_arm", "a_arm"]) == "a_arm"

    def test_override_wins(self):
        assert pl.select_control(["control", "x"], override="x") == "x"

    def test_override_must_exist(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.select_control(["a", "b"], override="zzz")

    def test_empty_vocabulary(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.select_control([])


_BAD_VOCABULARIES = {"repeated": ("control", "treat", "control"), "empty": (),
                     "not_str": (0, 1)}


class TestVocabulary:
    """A vocabulary must hold one or more distinct ``str`` labels wherever it
    enters the search; any other is an ``InvalidArgumentError``, never a
    no-valid result, a silent count or a leaked ``AttributeError``."""

    @pytest.mark.parametrize("labels", list(_BAD_VOCABULARIES.values()),
                             ids=list(_BAD_VOCABULARIES))
    @pytest.mark.parametrize("call", [
        lambda frame, labels: pl.select_control(labels),
        lambda frame, labels: pl.best_split(frame, ["x"], {"x": pl.Boundaries("x", (0.5,))},
                                            labels, pl.SplitConfig()),
        lambda frame, labels: pl.build_prefix_sums(frame, "x", pl.Boundaries("x", (0.5,)),
                                                   labels),
    ], ids=["select_control", "best_split", "build_prefix_sums"])
    def test_bad_vocabulary_rejected(self, six_row_frame, call, labels):
        frames = [six_row_frame]
        if labels:   # a frame whose rows hold exactly the vocabulary's labels
            rows = np.array([labels[i % len(labels)] for i in range(4)], dtype=object)
            frames.append(pl.ColumnFrame(np.arange(4), ["x"], [[0.1, 0.6, 0.4, 0.9]],
                                         None, rows))
        for data in frames:
            with pytest.raises(pl.InvalidArgumentError, match="^treatment "):
                call(data, labels)

    def test_codes_check_the_vocabulary_on_a_cache_miss(self, six_row_frame):
        good = ("control", "treat")
        codes = splitsearch.treatment_codes(six_row_frame, good)
        assert splitsearch.treatment_codes(six_row_frame, list(good)) is codes
        with pytest.raises(pl.InvalidArgumentError, match="lists 'treat' twice"):
            splitsearch.treatment_codes(six_row_frame, good + ("treat",))


class TestPrefixSums:
    def test_six_row_hand_table(self, six_row_frame):
        b = pl.Boundaries("x", (0.5,))
        t = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        assert t.opps.tolist() == [[1, 2], [2, 1]]
        assert t.accepts.tolist() == [[1, 1], [1, 1]]
        assert t.missing_opps.tolist() == [0, 0]
        assert t.left_opps.tolist() == [[1, 2]]
        assert t.left_accepts.tolist() == [[1, 1]]
        assert t.totals_opps.tolist() == [3, 3]

    def test_empty_frame_zero_filled(self):
        f = build_frame({"x": []}, treatments=[], outcomes=[])
        t = pl.build_prefix_sums(f, "x", pl.Boundaries("x", (0.5,)), ("a", "b", "c"))
        assert t.opps.shape == (2, 3)
        assert t.opps.sum() == 0 and t.missing_opps.sum() == 0

    def test_row_order_invariance(self, six_row_frame):
        b = pl.Boundaries("x", (0.5,))
        shuffled = six_row_frame.take([5, 3, 1, 0, 2, 4])
        a = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        c = pl.build_prefix_sums(shuffled, "x", b, ("control", "treat"))
        assert np.array_equal(a.opps, c.opps)
        assert np.array_equal(a.accepts, c.accepts)

    def test_partitioned_merge_matches_single(self, six_row_frame):
        b = pl.Boundaries("x", (0.5,))
        whole = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        parts = pl.build_prefix_sums(pl.partition(six_row_frame, 3), "x", b,
                                     ("control", "treat"))
        assert np.array_equal(whole.opps, parts.opps)
        assert np.array_equal(whole.left_accepts, parts.left_accepts)

    def test_windowed_plan_identical(self, six_row_frame):
        b = pl.Boundaries("x", (0.5,))
        dense = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        windowed = pl.windowed_prefix_table(six_row_frame, "x", b,
                                            ("control", "treat"))
        for field in ("opps", "accepts", "missing_opps", "missing_accepts",
                      "left_opps", "left_accepts", "totals_opps", "totals_accepts"):
            assert np.array_equal(getattr(dense, field), getattr(windowed, field))

    def test_label_outside_vocabulary(self, six_row_frame):
        with pytest.raises(pl.ContractViolationError):
            pl.build_prefix_sums(six_row_frame, "x", pl.Boundaries("x", (0.5,)),
                                 ("control",))

    def test_null_and_nan_bucket_identically(self):
        null_f = build_frame({"x": [None, 0.3, 0.8]})
        nan_f = build_frame({"x": [float("nan"), 0.3, 0.8]})
        b = pl.Boundaries("x", (0.5,))
        tn = pl.build_prefix_sums(null_f, "x", b, ("control",))
        tw = pl.build_prefix_sums(nan_f, "x", b, ("control",))
        assert np.array_equal(tn.opps, tw.opps)
        assert np.array_equal(tn.missing_opps, tw.missing_opps)


class TestDdpMax:
    def test_symmetric_equal_vectors(self):
        assert pl.ddp_max([0.3, 0.3], [0.3, 0.3]) == 0.0

    def test_single_treatment(self):
        assert pl.ddp_max([0.1], [0.3]) == pytest.approx(0.2)

    def test_two_treatment_hand_case(self):
        assert pl.ddp_max([0.0, -0.2], [0.4, 0.1]) == pytest.approx(0.6)

    def test_side_symmetry(self):
        assert pl.ddp_max([0.1, 0.2], [0.05, 0.4]) == pl.ddp_max([0.05, 0.4],
                                                                 [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.ddp_max([], [0.1])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=5),
           st.lists(st.floats(-1, 1), min_size=1, max_size=5),
           st.floats(-0.5, 0.5))
    def test_shift_invariance(self, left, right, c):
        base = pl.ddp_max(left, right)
        shifted = pl.ddp_max([u + c for u in left], [u + c for u in right])
        assert shifted == pytest.approx(base, abs=1e-12)


class TestExpandAndScore:
    def test_six_row_best_is_hand_value(self, six_row_frame):
        b = pl.Boundaries("x", (0.5,))
        table = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        cands = pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=1))
        assert len(cands) == 2 * (b.n_bins - 1)
        valid = [c for c in cands if c.valid]
        assert all(c.score == 1.0 for c in valid)

    def test_no_missing_makes_routes_equal(self, six_row_frame):
        b = pl.Boundaries("x", (0.3, 0.5, 0.8))
        table = pl.build_prefix_sums(six_row_frame, "x", b, ("control", "treat"))
        cands = pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=1))
        by_bin = {}
        for c in cands:
            by_bin.setdefault(c.candidate_bin, {})[c.nan_direction] = c
        for pair in by_bin.values():
            if pair["left"].valid and pair["right"].valid:
                assert pair["left"].score == pair["right"].score

    def test_zero_support_candidate_invalid(self):
        f = build_frame({"x": [0.1, 0.2, 0.9, 0.8]},
                        treatments=["control", "treat", "control", "control"],
                        outcomes=[1, 0, 1, 0])
        table = pl.build_prefix_sums(f, "x", pl.Boundaries("x", (0.5,)),
                                     ("control", "treat"))
        cands = pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=1))
        assert all(not c.valid for c in cands)
        assert all("zero support" in c.invalid_reason for c in cands)

    def test_min_leaf_reason(self, six_row_frame):
        table = pl.build_prefix_sums(six_row_frame, "x", pl.Boundaries("x", (0.5,)),
                                     ("control", "treat"))
        cands = pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=4))
        assert all(not c.valid for c in cands)
        assert all("min_leaf_size" in c.invalid_reason for c in cands)

    def test_matches_raw_row_oracle_three_bins(self):
        f = build_frame(
            {"x": [0.05, 0.15, 0.35, 0.45, 0.65, 0.85, None, 0.25, 0.55, 0.75]},
            treatments=["control", "treat", "control", "treat", "control",
                        "treat", "control", "treat", "control", "treat"],
            outcomes=[1, 0, 1, 1, 0, 1, 1, 0, 0, 1])
        cuts = (0.3, 0.6)
        table = pl.build_prefix_sums(f, "x", pl.Boundaries("x", cuts),
                                     ("control", "treat"))
        cands = pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=1))
        expected = oracle_candidates(f, "x", cuts, ("control", "treat"),
                                     "control", 1)
        for cand in cands:
            valid, score = expected[(cand.candidate_bin, cand.nan_direction)]
            assert cand.valid == valid
            if valid:
                assert cand.score == score


def _cand(score, threshold=0.5, cbin=0, direction="left", feature="x"):
    return CandidateScore(feature, cbin, threshold, direction, score, True)


class TestCandidateOrder:
    def test_higher_score_wins(self):
        assert pl.compare_candidates(_cand(0.3), _cand(0.2)) == -1

    def test_tie_lower_threshold(self):
        assert pl.compare_candidates(_cand(0.3, threshold=0.4, cbin=2),
                                     _cand(0.3, threshold=0.6, cbin=1)) == -1

    def test_tie_left_direction_preferred(self):
        assert pl.compare_candidates(_cand(0.3, direction="left"),
                                     _cand(0.3, direction="right")) == -1

    def test_tie_feature_name(self):
        assert pl.compare_candidates(_cand(0.3, feature="a"),
                                     _cand(0.3, feature="b")) == -1

    def test_invalid_rejected(self):
        bad = CandidateScore("x", 0, 0.5, "left", float("nan"), False)
        with pytest.raises(pl.InvalidArgumentError):
            pl.compare_candidates(bad, _cand(0.1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.2]),
                              st.sampled_from([0.25, 0.5, 0.75]),
                              st.integers(0, 3),
                              st.sampled_from(["left", "right"]),
                              st.sampled_from(["a", "b"])),
                    min_size=2, max_size=8, unique=True))
    def test_total_order_properties(self, raw):
        cands = [_cand(s, t, b, d, f) for (s, t, b, d, f) in raw]
        keys = [candidate_order_key(c) for c in cands]
        # antisymmetry + totality on distinct identities
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                if (cands[i].feature_name, cands[i].candidate_bin,
                        cands[i].nan_direction) != (cands[j].feature_name,
                                                    cands[j].candidate_bin,
                                                    cands[j].nan_direction):
                    assert keys[i] != keys[j]
                assert pl.compare_candidates(cands[i], cands[j]) == \
                    -pl.compare_candidates(cands[j], cands[i])


class TestBestSplit:
    def test_three_paths_identical_on_random_instances(self):
        for i in range(25):
            frame, names, bmap, labels, config = random_small_instance(900 + i)
            outs = [pl.best_split(frame, names, bmap, labels, config.with_path(p))
                    for p in pl.EXECUTION_PATHS]
            tuples = {(o.status, o.best.as_tuple() if o.best else None)
                      for o in outs}
            assert len(tuples) == 1

    def test_matches_exhaustive_oracle(self):
        for i in range(25):
            frame, names, bmap, labels, config = random_small_instance(4200 + i)
            got = pl.best_split(frame, names, bmap, labels, config)
            control = pl.select_control(labels)
            expected = oracle_best(frame, names, bmap, labels, control,
                                   config.min_leaf_size)
            if expected is None:
                assert got.status == pl.STATUS_NO_VALID
            else:
                assert got.status == pl.STATUS_OK
                assert got.best.as_tuple() == expected

    def test_wide_vocabulary_matches_exhaustive_oracle(self):
        """130 treatments put cell tails ``code*2 + positive`` past 255."""
        gen = np.random.default_rng(13)
        n, names = 6000, ["a", "b"]
        labels = ("control",) + tuple(f"t{i:03d}" for i in range(129))
        values = [np.where(gen.random(n) < 0.1, np.nan, gen.random(n)) for _ in names]
        frame = pl.ColumnFrame(np.arange(n), names, values, [np.ones(n, bool)] * 2,
                               np.array(labels, dtype=object)[gen.integers(0, 130, n)],
                               (gen.random(n) < 0.4).astype(np.int64))
        bmap = {name: pl.uniform_boundaries(name, 3) for name in names}
        expected = oracle_best(frame, names, bmap, labels, "control", 1)
        assert expected is not None
        config = pl.SplitConfig(safety_skip_threshold=10 ** 6)
        for data in (frame, pl.partition(frame, 3)):
            for path in pl.EXECUTION_PATHS:
                got = pl.best_split(data, names, bmap, labels, config.with_path(path))
                assert got.best.as_tuple() == expected

    def test_row_shuffle_and_partition_invariance(self):
        frame, names, bmap, labels, config = random_small_instance(77)
        base = pl.best_split(frame, names, bmap, labels, config)
        perm = pl.rng.permutation(5, "t", frame.n_rows) \
            if hasattr(pl, "rng") else None
        shuffled = frame.take(np.random.RandomState(0).permutation(frame.n_rows))
        alt = pl.best_split(shuffled, names, bmap, labels, config)
        parted = pl.best_split(pl.partition(frame, 5), names, bmap, labels, config)
        for other in (alt, parted):
            assert other.status == base.status
            if base.best:
                assert other.best.as_tuple() == base.best.as_tuple()

    def test_safety_skip_reference_only(self):
        frame, names, bmap, labels, config = random_small_instance(13)
        tight = pl.SplitConfig(min_leaf_size=config.min_leaf_size,
                               safety_skip_threshold=1)
        ref = pl.best_split(frame, names, bmap, labels, tight)
        assert ref.status == pl.STATUS_SKIPPED_TOO_LARGE
        assert ref.candidate_rows > 1
        assert "exceed" in ref.reason
        rel = pl.best_split(frame, names, bmap, labels,
                            tight.with_path(pl.PATH_RELATIONAL))
        assert rel.status in (pl.STATUS_OK, pl.STATUS_NO_VALID)

    @pytest.mark.parametrize("pool_size", [-1, 0])
    def test_pool_size_below_one_rejected(self, pool_size):
        frame, names, bmap, labels, config = random_small_instance(13)
        one = pl.SplitConfig(min_leaf_size=config.min_leaf_size,
                             execution_path=pl.PATH_PARTITIONED, pool_size=1)
        assert pl.best_split(pl.partition(frame, 3), names, bmap, labels, one).best == \
            pl.best_split(frame, names, bmap, labels, config).best
        with pytest.raises(pl.InvalidArgumentError, match="pool_size"):
            pl.SplitConfig(min_leaf_size=config.min_leaf_size,
                           execution_path=pl.PATH_PARTITIONED, pool_size=pool_size)

    @pytest.mark.parametrize("call", [
        lambda frame, bmap: pl.best_split(frame, ["x", "y"], bmap, ("control", "treat"),
                                          pl.SplitConfig()),
        lambda frame, bmap: pl.naive_variant_best_split(
            "no_total_order", frame, ["x", "y"], bmap, ("control", "treat"),
            pl.SplitConfig()),
        lambda frame, bmap: _binned(frame, ["x", "y"], bmap, ("control", "treat")),
        lambda frame, bmap: pl.build_manifest(frame, ["x", "y"], ("control", "treat"),
                                              bmap, 1, 1, 1),
    ], ids=["best_split", "naive_variant_best_split", "bin_rows", "build_manifest"])
    def test_feature_without_boundaries_rejected(self, six_row_frame, call):
        bmap = {"x": pl.Boundaries("x", (0.5,))}
        with pytest.raises(pl.EngineError, match="no boundaries for feature 'y'"):
            call(six_row_frame, bmap)

    def test_all_below_min_leaf_returns_none(self, six_row_frame):
        cfg = pl.SplitConfig(min_leaf_size=100)
        res = pl.best_split(six_row_frame, ["x"], {"x": pl.Boundaries("x", (0.5,))},
                            ("control", "treat"), cfg)
        assert res.status == pl.STATUS_NO_VALID
        assert res.best is None
        assert "min_leaf_size" in res.reason


def _per_feature_record(data, names, bmap, labels, config):
    """The record ``best_split`` must give: the winner under
    ``candidate_order_key`` among every feature's own candidates, or the
    no-valid reason tallied over all of them."""
    control = pl.select_control(labels, config.control_label_override)
    found = [c for name in names for c in pl.expand_and_score(
        pl.build_prefix_sums(data, name, bmap[name], labels), config)]
    rows = sum(pl.candidate_row_count(1, bmap[n].n_bins, len(labels)) for n in names)
    valid = [c for c in found if c.valid]
    if valid:
        best = _make_best(min(valid, key=candidate_order_key), control)
        return pl.SplitSearchResult(pl.STATUS_OK, best, rows, control).to_record()
    rejected = Counter(c.invalid_reason for c in found)
    return pl.SplitSearchResult(pl.STATUS_NO_VALID, None, rows, control,
                                reason=_no_valid_summary(rejected)).to_record()


class TestStackedSearch:
    """S2 stacks each B group's features and picks every node's winner from
    arrays; the result must be the per-feature winner under the total order."""

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_equal_features_tie_on_name_not_position(self, path):
        gen = np.random.default_rng(11)
        n = 500
        column = np.where(gen.random(n) < 0.1, np.nan, gen.random(n))
        frame = pl.ColumnFrame(np.arange(n), ["zeta", "alpha"], [column, column.copy()],
                               [np.ones(n, bool), np.ones(n, bool)],
                               np.array(["control", "a", "b"], dtype=object)[
                                   gen.integers(0, 3, n)],
                               (gen.random(n) < 0.4).astype(np.int64))
        bmap = {name: pl.uniform_boundaries(name, 8) for name in ("zeta", "alpha")}
        labels = ("control", "a", "b")
        config = pl.SplitConfig(min_leaf_size=20, execution_path=path)
        for data in (frame, pl.partition(frame, 3)):
            got = pl.best_split(data, ["zeta", "alpha"], bmap, labels, config)
            assert got.status == pl.STATUS_OK
            assert got.best.feature_name == "alpha"
            assert got.to_record() == _per_feature_record(frame, ["zeta", "alpha"], bmap,
                                                          labels, config)

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    @pytest.mark.parametrize("min_leaf", [10, 600])
    def test_mixed_bins_match_per_feature_results(self, path, min_leaf, monkeypatch):
        frame, names, bmap, labels = mixed_instance()
        config = pl.SplitConfig(min_leaf_size=min_leaf, execution_path=path)
        view = _binned(frame, names, bmap, labels)
        assert view.bins.dtype == np.uint16
        want = _per_feature_record(frame, names, bmap, labels, config)
        assert (want["best"] is None) == (min_leaf == 600)
        search, units = splitsearch._search_cells, []

        def recording(grid, searched, tables, *args):
            for unit, cells in zip(searched, tables, strict=True):
                units.append([grid.boundaries[f].n_bins for f in unit])
                assert cells.shape[:3] == (len(unit), 1, units[-1][0] + 1)
            return search(grid, searched, tables, *args)

        monkeypatch.setattr(splitsearch, "_search_cells", recording)
        for data in (frame, pl.partition(frame, 3)):
            assert pl.best_split(data, names, bmap, labels, config).to_record() == want
        # one root table per B group, in order of first appearance; the
        # partitioned path splits each worker's shard by B
        assert all(len(set(unit)) == 1 for unit in units)
        if path != pl.PATH_PARTITIONED:
            assert units == [[40, 40], [2, 2], [300, 300], [5, 5]] * 2

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_mixed_bins_train_matches_pernode_oracle(self, path):
        frame, names, bmap, labels = mixed_instance(n=1500)
        man = pl.build_manifest(frame, names, labels, bmap, 0, 4, 40).lock()
        want = pl.signature(pernode_train(frame, man, path)).text
        assert want.count("internal") > 3
        for data in (frame, pl.partition(frame, 3)):
            assert pl.signature(pl.train(data, man, path)).text == want


def _table(opps, accepts, missing_opps, missing_accepts):
    opps = np.array(opps, dtype=np.int64)
    B, T = opps.shape
    return PrefixTable.from_counts(
        "x", tuple(f"t{t}" for t in range(T)), tuple(c / B for c in range(1, B)),
        opps, np.array(accepts, dtype=np.int64),
        np.array(missing_opps, dtype=np.int64), np.array(missing_accepts, dtype=np.int64))


@st.composite
def _scored_tables(draw):
    """(table, control index, min_leaf_size): small counts so that zero-support
    cells and score ties are common; missing tallies present or all zero;
    min_leaf_size anywhere from 1 to one past the grand total."""
    T = draw(st.integers(1, 4))
    B = draw(st.integers(2, 6))
    opps = np.array(draw(st.lists(st.integers(0, 6), min_size=B * T, max_size=B * T)),
                    dtype=np.int64).reshape(B, T)
    accepts = [[draw(st.integers(0, o)) for o in row] for row in opps.tolist()]
    if draw(st.booleans()):
        missing_opps = draw(st.lists(st.integers(0, 4), min_size=T, max_size=T))
    else:
        missing_opps = [0] * T
    missing_accepts = [draw(st.integers(0, o)) for o in missing_opps]
    table = _table(opps, accepts, missing_opps, missing_accepts)
    total = int(opps.sum()) + sum(missing_opps)
    return table, draw(st.integers(0, T - 1)), draw(st.integers(1, total + 1))


def _byte_equal(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestArrayScorer:
    """The one-pass array scorer of best_split and expand_and_score against the
    scalar oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_scored_tables())
    # T=1: no control/non-control pair
    @example((_table([[3], [2]], [[1], [2]], [1], [0]), 0, 1))
    # no zero cells, every candidate valid, routes tie without missing tallies
    @example((_table([[2, 3], [4, 1], [2, 2]], [[1, 1], [2, 0], [0, 2]], [0, 0], [0, 0]),
              1, 1))
    # min_leaf_size equal to the smaller branch total of every candidate
    @example((_table([[2, 2], [2, 2]], [[1, 2], [0, 1]], [1, 1], [1, 0]), 0, 4))
    # an all-zero table: zero support everywhere
    @example((_table([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]], [0, 0, 0],
                     [0, 0, 0]), 2, 1))
    def test_matches_scalar_candidate_by_candidate(self, case):
        table, control_idx, min_leaf = case
        fast = _FeatureScores.of_cells(table.cells()[None], control_idx, min_leaf)
        slow = [scalar_candidate(table, c, direction, control_idx, min_leaf)
                for c in range(table.n_candidates) for direction in ("left", "right")]
        listed = pl.expand_and_score(table, pl.SplitConfig(
            min_leaf_size=min_leaf, control_label_override=table.treatments[control_idx]))
        assert len(listed) == len(slow)
        for want, in_list in zip(slow, listed):
            got = fast._candidate(0, ("left", "right").index(want.nan_direction),
                                  want.candidate_bin, "x", want.threshold_boundary)
            for cand in (got, in_list):
                assert cand.identity() == want.identity()
                assert cand.threshold_boundary == want.threshold_boundary
                assert (cand.valid, cand.invalid_reason) == (want.valid, want.invalid_reason)
                assert _byte_equal(cand.score, want.score)
                for name in ("left_opps", "right_opps", "left_accepts", "right_accepts"):
                    assert np.array_equal(getattr(cand, name), getattr(want, name))

        valid = [c for c in slow if c.valid]
        c, d, score, has = (a[0] for a in fast.best())
        assert has == bool(valid)
        if valid:
            best = min(valid, key=candidate_order_key)
            winner = fast._candidate(0, int(d), int(c), "x", table.cuts[int(c)])
            assert winner.identity() == best.identity()
            assert _byte_equal(score, best.score) and _byte_equal(winner.score, best.score)
            assert _make_best(winner, "t0").to_record() == _make_best(best, "t0").to_record()
        rejected = Counter(c.invalid_reason for c in slow if not c.valid)
        counted = _reason_counts(fast.reasons[0], fast.reason_texts)
        assert counted == rejected
        assert _no_valid_summary(counted) == _no_valid_summary(rejected)


def _binned(frame, names, bmap, labels):
    return pl.bin_rows(frame, names, bmap, labels)


def _mixed_bins_partitions():
    """Six partitions (three empty) of 600 rows over features of B 2, 32,
    255, 256 and 300, each with NULL and NaN cells and values on its cuts."""
    gen = np.random.default_rng(11)
    n, labels = 600, ("control", "t1", "t2")
    bmap = {f"b{B}": pl.uniform_boundaries(f"b{B}", B) for B in (2, 32, 255, 256, 300)}
    data = {}
    for name, b in bmap.items():
        values = gen.random(n)
        on_cut = gen.random(n) < 0.2
        values[on_cut] = gen.choice(b.cuts, int(on_cut.sum()))
        values[gen.random(n) < 0.05] = np.nan
        column = values.tolist()
        for i in np.flatnonzero(gen.random(n) < 0.05):
            column[i] = None
        data[name] = column
    frame = build_frame(data, treatments=gen.choice(labels, n).tolist(),
                        outcomes=(gen.random(n) < 0.4).astype(int).tolist())
    a, b, c = pl.partition(frame, 3).partitions
    empty = frame.take(np.arange(0))
    return pl.PartitionedFrame((a, empty, b, empty, c, empty)), list(bmap), bmap, labels


def _split_records(data, names, bmap, labels, config):
    return [pl.best_split(data, names, bmap, labels, config.with_path(p)).to_record()
            for p in pl.EXECUTION_PATHS]


class TestBinnedRows:
    def test_dtype_fits_the_missing_bin(self):
        f = build_frame({"a": [0.1, None], "b": [0.2, 0.9]})
        small = _binned(f, ["a"], {"a": pl.uniform_boundaries("a", 255)}, ("control",))
        wide = _binned(f, ["a", "b"], {"a": pl.uniform_boundaries("a", 4),
                                       "b": pl.uniform_boundaries("b", 256)}, ("control",))
        assert small.bins.dtype == np.uint8 and small.bins[0].tolist() == [25, 255]
        assert wide.bins.dtype == np.uint16 and wide.bins.tolist() == [[0, 4], [51, 230]]

    @pytest.mark.parametrize("no_valid", [False, True])
    def test_best_split_equal_on_view_frame_and_partitions(self, no_valid):
        """status, as_tuple(), reason and diagnostics (all in to_record())
        agree across the paths, and for every path on a frame and its
        partitions, and across the paths on a row subset of the frame."""
        compared = 0
        for i in range(12):
            frame, names, bmap, labels, config = random_small_instance(5100 + i)
            if no_valid:
                config = pl.SplitConfig(min_leaf_size=frame.n_rows)
            want = _split_records(frame, names, bmap, labels, config)
            assert want == [want[0]] * len(want)
            assert _split_records(pl.partition(frame, 4), names, bmap, labels,
                                  config) == want
            rows = np.random.RandomState(i).permutation(frame.n_rows)[:frame.n_rows // 2]
            sub = _split_records(frame.take(rows), names, bmap, labels, config)
            assert sub == [sub[0]] * len(sub)
            compared += sum(r["status"] == ("no_valid_candidate" if no_valid else "ok")
                            for r in want)
        assert compared >= 12

    def test_bounds_are_the_cumulative_partition_sizes(self):
        frame, names, bmap, labels, _ = random_small_instance(5400)
        parts = pl.partition(frame, 3)
        sizes = [p.n_rows for p in parts.partitions]
        assert _binned(parts, names, bmap, labels).bounds == \
            (0, sizes[0], sizes[0] + sizes[1], frame.n_rows)
        assert _binned(frame, names, bmap, labels).bounds == (0, frame.n_rows)

    @pytest.mark.parametrize("bounds", [(0,), (1, 10), (0, 9), (0, 6, 4, 10), (0, 11)])
    def test_bounds_not_running_from_zero_to_n_rejected(self, bounds):
        view = _binned(build_frame({"x": np.linspace(0, 1, 10).tolist()}), ["x"],
                       {"x": pl.uniform_boundaries("x", 4)}, ("control",))
        with pytest.raises(pl.InvalidArgumentError, match="bounds"):
            dataclasses.replace(view, bounds=bounds)

    def test_empty_partitions_change_no_record_or_table(self):
        """``partition(frame, n_rows + 3)`` holds three empty partitions."""
        for i in range(3):
            frame, names, bmap, labels, config = random_small_instance(5500 + i)
            parts = pl.partition(frame, frame.n_rows + 3)
            assert _split_records(parts, names, bmap, labels, config) == \
                _split_records(frame, names, bmap, labels, config)
            for build in (pl.build_prefix_sums, pl.windowed_prefix_table):
                for name in names:
                    assert build(parts, name, bmap[name], labels).to_record() == \
                        build(frame, name, bmap[name], labels).to_record()

    def test_zero_rows_give_no_valid_candidate_on_every_path(self):
        frame, names, bmap, labels, config = random_small_instance(5600)
        empty = frame.take(np.arange(0))
        want = _split_records(empty, names, bmap, labels, config)
        assert want == [want[0]] * 3 and want[0]["status"] == pl.STATUS_NO_VALID
        view = _binned(empty, names, bmap, labels)
        assert view.n_rows == 0 and view.bins.shape == (len(names), 0)

    def test_pooled_binning_equals_serial(self):
        """Widths 1, 2, P and P+3 on partitions with empty ones, NULL and NaN
        cells, values on the cuts and B of 2, 32, 255, 256 and 300."""
        parts, names, bmap, labels = _mixed_bins_partitions()
        serial = _binned(parts, names, bmap, labels)
        assert serial.bins.dtype == np.uint16
        P = parts.partition_count
        for workers in (1, 2, P, P + 3):
            pooled = pl.bin_rows(parts, names, bmap, labels, workers)
            assert pooled.bins.dtype == serial.bins.dtype
            assert pooled.bins.tobytes() == serial.bins.tobytes()
            assert pooled.tails.tobytes() == serial.tails.tobytes()
            assert pooled.bounds == serial.bounds
        narrow = [n for n in names if bmap[n].n_bins <= 255]
        assert pl.bin_rows(parts, narrow, bmap, labels, P).bins.tobytes() == \
            _binned(parts, narrow, bmap, labels).bins.tobytes()

    def test_pooled_best_split_equals_serial_on_every_path(self):
        parts, names, bmap, labels = _mixed_bins_partitions()
        P = parts.partition_count
        for seed in range(3):
            frame, small_names, small_bmap, small_labels, config = \
                random_small_instance(5700 + seed)
            data = pl.partition(frame, 5)
            want = _split_records(data, small_names, small_bmap, small_labels,
                                  dataclasses.replace(config, pool_size=1))
            for workers in (2, 5, 8):
                assert _split_records(data, small_names, small_bmap, small_labels,
                                      dataclasses.replace(config, pool_size=workers)) == want
        config = pl.SplitConfig(min_leaf_size=5, safety_skip_threshold=10 ** 6)
        want = _split_records(parts, names, bmap, labels,
                              dataclasses.replace(config, pool_size=1))
        assert want == [want[0]] * len(want)
        for workers in (2, P, P + 3):
            assert _split_records(parts, names, bmap, labels,
                                  dataclasses.replace(config, pool_size=workers)) == want

    def test_zero_partitions_rejected_at_any_width(self):
        frame, names, bmap, labels, _ = random_small_instance(5800)
        for workers in (1, 4):
            with pytest.raises(pl.InvalidArgumentError, match="bounds"):
                pl.bin_rows(pl.PartitionedFrame(()), names, bmap, labels, workers)

    @pytest.mark.parametrize("broken", ["label", "column"])
    def test_worker_errors_match_serial(self, broken):
        frame, names, bmap, labels, _ = random_small_instance(5900)
        parts = list(pl.partition(frame, 4).partitions)
        if broken == "label":
            bad = parts[2]
            treatments = bad.treatments.copy()
            treatments[1] = "zz-unknown"
            parts[2] = pl.ColumnFrame(bad.row_ids, bad.feature_names, bad.feature_values,
                                      bad.feature_valid, treatments, bad.outcomes)
            error = pl.ContractViolationError
        else:
            bad = parts[1]
            parts[1] = pl.ColumnFrame(bad.row_ids, ("other",) + tuple(bad.feature_names[1:]),
                                      bad.feature_values, bad.feature_valid,
                                      bad.treatments, bad.outcomes)
            error = pl.SchemaError
        data = pl.PartitionedFrame(tuple(parts))
        with pytest.raises(error) as serial:
            pl.bin_rows(data, names, bmap, labels, 1)
        for workers in (2, 4):
            with pytest.raises(error) as pooled:
                pl.bin_rows(data, names, bmap, labels, workers)
            assert str(pooled.value) == str(serial.value)

    def test_tails_match_codes_and_outcomes(self):
        """``tails`` is ``code*2 + positive`` per row, partition by partition."""
        frame, names, bmap, labels, _ = random_small_instance(5200)
        parts = pl.partition(frame, 3)
        for data, rows in ((frame, frame), (parts, parts.concat())):
            view = _binned(data, names, bmap, labels)
            assert view.tails.dtype == np.int64
            assert np.array_equal(view.tails,
                                  pl.treatment_codes(rows, labels) * 2 + rows.outcomes)


class TestBinningPool:
    """``best_split`` bins and counts each partition in a task on a pool on
    every path; the trainer runs those tasks on its own thread."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class CountingPool(splitsearch.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers", args[0] if args else None))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(splitsearch, "ThreadPoolExecutor", CountingPool)
        return made

    @pytest.fixture
    def tasks(self, monkeypatch):
        """The thread of every partition's S1 task."""
        threads, count_partition = [], splitsearch._count_partition

        def recording(*args):
            threads.append(threading.current_thread())
            return count_partition(*args)

        monkeypatch.setattr(splitsearch, "_count_partition", recording)
        return threads

    @pytest.mark.parametrize("path", [pl.PATH_REFERENCE, pl.PATH_RELATIONAL])
    def test_train_makes_no_pool(self, pools, tasks, path):
        spec = pl.SynthSpec(n_rows=800, seed=3, families=("x_boundary",))
        frame, labels = pl.generate(spec), spec.treatment_labels()
        bmap = {n: pl.uniform_boundaries(n, 8) for n in frame.feature_names}
        manifest = pl.build_manifest(frame, frame.feature_names, labels, bmap, 3, 2,
                                     50).lock()
        tree = pl.train(pl.partition(frame, 4), manifest, path)
        assert len(tree.nodes) > 1
        assert pools == []
        assert tasks == [threading.current_thread()] * 4

    def test_reference_best_split_makes_one_pool(self, pools, tasks):
        frame, names, bmap, labels, config = random_small_instance(6000)
        pl.best_split(pl.partition(frame, 3), names, bmap, labels,
                      dataclasses.replace(config, pool_size=2))
        assert pools == [2]
        assert len(tasks) == 3 and threading.current_thread() not in tasks
        pools.clear()
        pl.best_split(pl.partition(frame, 3), names, bmap, labels,
                      dataclasses.replace(config, pool_size=8))
        assert pools == [3]


def _wide_partitions(n, F=64, P=4):
    """``n`` rows of ``F`` features with NaN cells (B = 32, T = 4) in ``P``
    partitions."""
    gen = np.random.default_rng(n)
    names = [f"f{i}" for i in range(F)]
    values = [np.where(gen.random(n) < 0.1, np.nan, gen.random(n)) for _ in names]
    labels = ("control", "t1", "t2", "t3")
    frame = pl.ColumnFrame(np.arange(n), names, values, [np.ones(n, bool)] * F,
                           np.array(labels, dtype=object)[gen.integers(0, 4, n)],
                           (gen.random(n) < 0.4).astype(np.int64))
    return (pl.partition(frame, P), names, {m: pl.uniform_boundaries(m, 32) for m in names},
            labels)


class TestSplitMemory:
    """S1 counts each partition's root cells from one reused bin row, so a
    ``best_split`` call holds no [F, N] bin matrix: its traced peak grows by
    far less than one byte per feature and row."""

    @staticmethod
    def _peak(n, F, path):
        data, names, bmap, labels = _wide_partitions(n, F)
        config = pl.SplitConfig(min_leaf_size=10, execution_path=path, pool_size=4)
        # a full collection empties the interpreter's free lists, so it runs
        # before the untraced call, which refills them and caches the codes
        gc.collect()
        pl.best_split(data, names, bmap, labels, config)
        tracemalloc.start()
        try:
            pl.best_split(data, names, bmap, labels, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_peak_grows_by_at_most_a_quarter_byte_per_feature_and_row(self, path):
        F, n = 64, 20_000
        small, large = (self._peak(m, F, path) for m in (n, 2 * n))
        assert large - small <= F // 4 * n


class TestLayerCounterSeams:
    """``perfbench/layers.py`` wraps ``bucketize``, ``treatment_codes`` and
    ``ThreadPoolExecutor`` on this module, and its ``bucketize_calls``,
    ``bucketize_rows`` and ``pool_busy_s`` figures read those wrappers, so
    ``best_split`` must reach each through the module's globals, and bin
    each feature of each partition in one call."""

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_best_split_reaches_the_wrapped_names(self, path, monkeypatch):
        data, names, bmap, labels = _wide_partitions(1003, F=5, P=4)
        calls = Counter()
        bucketize, codes = splitsearch.bucketize, splitsearch.treatment_codes

        def counting_bucketize(value, boundaries, **kwargs):
            bins = bucketize(value, boundaries, **kwargs)
            calls["bucketize"] += 1
            calls["values"] += len(value)
            calls["bins"] += bins.size
            return bins

        def counting_codes(*args):
            calls["codes"] += 1
            return codes(*args)

        class CountingPool(splitsearch.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                calls["pools"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(splitsearch, "bucketize", counting_bucketize)
        monkeypatch.setattr(splitsearch, "treatment_codes", counting_codes)
        monkeypatch.setattr(splitsearch, "ThreadPoolExecutor", CountingPool)
        config = pl.SplitConfig(min_leaf_size=10, execution_path=path, pool_size=2)
        for call in range(1, 3):
            assert pl.best_split(data, names, bmap, labels, config).status == pl.STATUS_OK
            F, P, N = len(names), data.partition_count, data.n_rows
            assert calls == {"bucketize": call * F * P, "values": call * F * N,
                             "bins": call * F * N, "codes": call * P, "pools": call}


class TestNaiveVariants:
    def _tie_fixture(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.0, families=("x_tie",))
        frame = pl.generate(spec)
        labels = spec.treatment_labels()
        bmap = {"x_tie": pl.uniform_boundaries("x_tie", 32)}
        return frame, labels, bmap

    def test_no_total_order_drifts_with_zero_score_delta(self):
        frame, labels, bmap = self._tie_fixture()
        cfg = pl.SplitConfig(min_leaf_size=50)
        contract = pl.best_split(frame, ["x_tie"], bmap, labels, cfg)
        shuffled = frame.take(np.argsort(pl.rng.u64_stream(3, "s", frame.n_rows),
                                         kind="stable"))
        a = pl.naive_variant_best_split("no_total_order", frame, ["x_tie"], bmap,
                                        labels, cfg)
        b = pl.naive_variant_best_split("no_total_order", shuffled, ["x_tie"], bmap,
                                        labels, cfg)
        assert a.best.score == b.best.score == contract.best.score
        identities = {a.best.as_tuple()[:4], b.best.as_tuple()[:4],
                      contract.best.as_tuple()[:4]}
        assert len(identities) > 1  # selection drift at equal score

    def test_first_seen_control_depends_on_row_order(self):
        spec = pl.SynthSpec(n_rows=3000, seed=7, p_miss=0.0,
                            families=("x_control", "x_boundary"))
        frame = pl.generate(spec)
        labels = spec.treatment_labels()
        bmap = {n: pl.uniform_boundaries(n, 8) for n in frame.feature_names}
        cfg = pl.SplitConfig(min_leaf_size=50)
        contract = pl.best_split(frame, list(frame.feature_names), bmap, labels, cfg)
        naive = pl.naive_variant_best_split("first_seen_control", frame,
                                            list(frame.feature_names), bmap, labels,
                                            cfg)
        assert naive.control_label == str(frame.treatments[0])
        assert naive.control_label != contract.control_label

    def test_sparse_omit_accepts_where_contract_rejects(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.0, families=("x_sparse",))
        frame = pl.generate(spec)
        labels = spec.treatment_labels()
        bmap = {"x_sparse": pl.uniform_boundaries("x_sparse", 32)}
        cfg = pl.SplitConfig(min_leaf_size=50)
        contract = pl.best_split(frame, ["x_sparse"], bmap, labels, cfg)
        naive = pl.naive_variant_best_split("sparse_omit", frame, ["x_sparse"],
                                            bmap, labels, cfg)
        assert contract.status == pl.STATUS_NO_VALID
        assert naive.status == pl.STATUS_OK

    def test_implicit_missing_never_routes_right(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.3,
                            missing_focus="control_arm",
                            families=("x_miss", "x_boundary"))
        frame = pl.generate(spec)
        labels = spec.treatment_labels()
        bmap = {n: pl.uniform_boundaries(n, 16) for n in frame.feature_names}
        cfg = pl.SplitConfig(min_leaf_size=50)
        naive = pl.naive_variant_best_split("implicit_missing", frame,
                                            list(frame.feature_names), bmap,
                                            labels, cfg)
        assert naive.best.nan_direction == "left"

    def test_recomputed_quantiles_changes_candidate_set(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.0,
                            families=("x_boundary",))
        frame = pl.generate(spec)
        fixed = pl.uniform_boundaries("x_boundary", 8)
        recomputed = pl.approx_quantile_boundaries(pl.partition(frame, 4),
                                                   "x_boundary", 8)
        assert recomputed is not None
        assert recomputed.cuts != fixed.cuts

    def test_naive_variant_records_pinned(self):
        """Every variant's full result on 40 random instances, as one frame
        and as 3 partitions, under the instance config and one that leaves
        no valid candidate."""
        h = hashlib.blake2b(digest_size=16)
        for seed in range(6400, 6440):
            frame, names, bmap, labels, config = random_small_instance(seed)
            for data in (frame, pl.partition(frame, 3)):
                for cfg in (config, pl.SplitConfig(min_leaf_size=frame.n_rows)):
                    for variant in pl.NAIVE_VARIANTS:
                        rec = pl.naive_variant_best_split(variant, data, names, bmap,
                                                          labels, cfg).to_record()
                        h.update(repr(rec).encode())
        assert h.hexdigest() == "ee7a7493457d45e8903aa343c450e614"

    def test_unknown_variant_rejected(self, six_row_frame):
        with pytest.raises(pl.InvalidArgumentError):
            pl.naive_variant_best_split("bogus", six_row_frame, ["x"],
                                        {"x": pl.Boundaries("x", (0.5,))},
                                        ("control", "treat"), pl.SplitConfig())
