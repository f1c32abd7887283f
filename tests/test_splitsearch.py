from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock.harness import random_small_instance
from policylock.splitsearch import (CandidateScore, PrefixTable, _FeatureScores,
                                    _make_best, _no_valid_summary, _score_candidate,
                                    candidate_order_key)

from conftest import build_frame
from _oracles import oracle_best, oracle_candidates


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


class TestCandidateRowCount:
    @pytest.mark.parametrize("f,b,t,expected", [
        (10, 32, 4, 1240), (50, 32, 4, 6200), (250, 32, 4, 31000),
        (1000, 32, 4, 124000), (1, 2, 1, 1)])
    def test_scaling_law(self, f, b, t, expected):
        assert pl.candidate_row_count(f, b, t) == expected

    def test_rejects_zero(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.candidate_row_count(0, 32, 4)


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

    def test_all_below_min_leaf_returns_none(self, six_row_frame):
        cfg = pl.SplitConfig(min_leaf_size=100)
        res = pl.best_split(six_row_frame, ["x"], {"x": pl.Boundaries("x", (0.5,))},
                            ("control", "treat"), cfg)
        assert res.status == pl.STATUS_NO_VALID
        assert res.best is None
        assert "min_leaf_size" in res.reason


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
    """The one-pass array scorer of best_split against the scalar oracle."""

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
        fast = _FeatureScores(table, control_idx, min_leaf)
        slow = [_score_candidate(table, c, direction, control_idx, min_leaf)
                for c in range(table.n_candidates) for direction in ("left", "right")]
        for want in slow:
            got = fast.candidate(("left", "right").index(want.nan_direction),
                                 want.candidate_bin)
            assert got.identity() == want.identity()
            assert got.threshold_boundary == want.threshold_boundary
            assert (got.valid, got.invalid_reason) == (want.valid, want.invalid_reason)
            assert _byte_equal(got.score, want.score)
            for name in ("left_opps", "right_opps", "left_accepts", "right_accepts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

        valid = [c for c in slow if c.valid]
        winner = fast.winner()
        if valid:
            best = min(valid, key=candidate_order_key)
            assert winner.identity() == best.identity()
            assert _byte_equal(winner.score, best.score)
            assert _make_best(winner, "t0").to_record() == _make_best(best, "t0").to_record()
        else:
            assert winner is None
        rejected = Counter(c.invalid_reason for c in slow if not c.valid)
        assert fast.reason_counts() == rejected
        assert _no_valid_summary(fast.reason_counts()) == _no_valid_summary(rejected)


def _binned(frame, names, bmap, labels):
    return pl.bin_rows(frame, names, bmap, labels, pl.treatment_codes(frame, labels))


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
        agree for every path, also on a row subset of the view."""
        compared = 0
        for i in range(12):
            frame, names, bmap, labels, config = random_small_instance(5100 + i)
            if no_valid:
                config = pl.SplitConfig(min_leaf_size=frame.n_rows)
            view = _binned(frame, names, bmap, labels)
            want = _split_records(frame, names, bmap, labels, config)
            assert _split_records(view, names, bmap, labels, config) == want
            assert _split_records(pl.partition(frame, 4), names, bmap, labels,
                                  config) == want
            rows = np.random.RandomState(i).permutation(frame.n_rows)[:frame.n_rows // 2]
            assert _split_records(view.take(rows), names, bmap, labels, config) == \
                _split_records(frame.take(rows), names, bmap, labels, config)
            compared += sum(r["status"] == ("no_valid_candidate" if no_valid else "ok")
                            for r in want)
        assert compared >= 12

    @pytest.mark.parametrize("path", pl.EXECUTION_PATHS)
    def test_view_under_other_boundaries_or_vocabulary_rejected(self, path):
        frame, names, bmap, labels, config = random_small_instance(5300)
        config = config.with_path(path)
        other = {n: pl.Boundaries(n, b.cuts[:-1] + (b.cuts[-1] + 0.01,))
                 for n, b in bmap.items()}
        with pytest.raises(pl.InvalidArgumentError):
            pl.best_split(_binned(frame, names, other, labels), names, bmap,
                          labels, config)
        with pytest.raises(pl.InvalidArgumentError):
            pl.best_split(_binned(frame, names, bmap, labels), names, bmap,
                          labels[::-1], config)
        with pytest.raises(pl.SchemaError):
            pl.best_split(_binned(frame, names[:-1], bmap, labels), names, bmap,
                          labels, config)


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

    def test_unknown_variant_rejected(self, six_row_frame):
        with pytest.raises(pl.InvalidArgumentError):
            pl.naive_variant_best_split("bogus", six_row_frame, ["x"],
                                        {"x": pl.Boundaries("x", (0.5,))},
                                        ("control", "treat"), pl.SplitConfig())
