import tracemalloc

import numpy as np
import pytest

import policylock as pl
from policylock.harness import inference_fixture


class TestSkew:
    def test_severe_t4_frequencies_within_one_percent(self):
        spec = pl.SynthSpec(n_rows=500000, n_treatments=4, seed=7, skew="severe",
                            families=("generic(1)",))
        frame = pl.generate(spec)
        labels = spec.treatment_labels()
        freq = np.array([(frame.treatments == lab).mean() for lab in labels])
        assert np.abs(freq - np.array([0.90, 0.08, 0.015, 0.005])).max() <= 0.01

    def test_severe_t8_vector(self):
        spec = pl.SynthSpec(n_rows=200000, n_treatments=8, seed=7, skew="severe",
                            families=("generic(1)",))
        probs = spec.treatment_probs()
        assert probs == (0.88, 0.06, 0.025, 0.015, 0.008, 0.006, 0.004, 0.002)
        assert abs(sum(probs) - 1.0) < 1e-12
        frame = pl.generate(spec)
        freq = (frame.treatments == spec.treatment_labels()[0]).mean()
        assert abs(freq - 0.88) <= 0.01

    def test_balanced_probabilities(self):
        spec = pl.SynthSpec(n_rows=10, n_treatments=5, families=("generic(1)",))
        assert spec.treatment_probs() == tuple([0.2] * 5)

    def test_severe_requires_supported_t(self):
        spec = pl.SynthSpec(n_rows=10, n_treatments=5, skew="severe",
                            families=("generic(1)",))
        with pytest.raises(pl.UnsupportedConfigurationError):
            pl.generate(spec)


class TestSpecArguments:
    @pytest.mark.parametrize("kwargs", [
        {"n_rows": "5"}, {"n_rows": 1.5}, {"n_rows": None}, {"n_rows": True},
        {"n_rows": 5, "n_treatments": 2.5}, {"n_rows": 5, "n_treatments": "3"},
        {"n_rows": 5, "seed": 1.5}, {"n_rows": 5, "seed": "7"},
    ])
    def test_counts_and_seed_must_be_integers(self, kwargs):
        with pytest.raises(pl.InvalidArgumentError, match="must be an integer"):
            pl.generate(pl.SynthSpec(**kwargs))

    @pytest.mark.parametrize("kwargs", [{"n_rows": -1}, {"n_rows": 5, "n_treatments": 1}])
    def test_counts_out_of_range_rejected(self, kwargs):
        with pytest.raises(pl.InvalidArgumentError):
            pl.SynthSpec(**kwargs)

    def test_numpy_integers_accepted(self):
        spec = pl.SynthSpec(n_rows=np.int64(6), n_treatments=np.int32(3),
                            seed=np.uint8(2), families=("generic(1)",))
        assert pl.generate(spec).n_rows == 6

    @pytest.mark.parametrize("p_miss", ["x", "0.1", None, True, 1.5, -0.1, float("nan")])
    def test_p_miss_must_be_a_number_in_the_unit_interval(self, p_miss):
        with pytest.raises(pl.InvalidArgumentError, match="p_miss must be within"):
            pl.SynthSpec(n_rows=5, p_miss=p_miss)

    @pytest.mark.parametrize("p_miss", [0, 1, np.float64(0.25), np.float32(0.5)])
    def test_real_p_miss_accepted(self, p_miss):
        spec = pl.SynthSpec(n_rows=50, p_miss=p_miss, families=("generic(1)",))
        assert pl.generate(spec).n_rows == 50


class TestFamilies:
    def test_no_missing_when_p_miss_zero(self):
        frame = pl.generate(pl.SynthSpec(n_rows=5000, seed=7, p_miss=0.0))
        for name in frame.feature_names:
            assert not frame.missing_mask(name).any()

    def test_deterministic_checksum(self):
        spec = pl.SynthSpec(n_rows=3000, seed=7, p_miss=0.2)
        assert pl.frame_checksum(pl.generate(spec)) == \
            pl.frame_checksum(pl.generate(spec))

    def test_x_tie_has_equal_score_valid_candidates(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.0, families=("x_tie",))
        frame = pl.generate(spec)
        table = pl.build_prefix_sums(frame, "x_tie",
                                     pl.uniform_boundaries("x_tie", 32),
                                     spec.treatment_labels())
        valid = [c for c in pl.expand_and_score(table, pl.SplitConfig(min_leaf_size=10))
                 if c.valid]
        best = max(c.score for c in valid)
        assert sum(1 for c in valid if c.score == best) >= 2

    def test_x_sparse_has_zero_support_cell(self):
        spec = pl.SynthSpec(n_rows=4000, seed=7, p_miss=0.0, families=("x_sparse",))
        frame = pl.generate(spec)
        table = pl.build_prefix_sums(frame, "x_sparse",
                                     pl.uniform_boundaries("x_sparse", 32),
                                     spec.treatment_labels())
        assert len(table.zero_support_cells()) >= 1

    def test_x_boundary_mass_at_half(self):
        for p_miss in (0.0, 0.5):
            spec = pl.SynthSpec(n_rows=20000, seed=7, p_miss=p_miss,
                                families=("x_boundary",))
            frame = pl.generate(spec)
            vals = frame.effective_values("x_boundary")
            assert np.mean(vals == 0.5) >= 0.10

    def test_x_control_labels_force_lexicographic_rule(self):
        spec = pl.SynthSpec(n_rows=10, seed=7)
        labels = spec.treatment_labels()
        assert all(lab.lower() != "control" and lab != "0" for lab in labels)
        assert pl.select_control(labels) == min(labels)

    def test_generic_expansion(self):
        spec = pl.SynthSpec(n_rows=5, families=("x_boundary", "generic(3)"))
        assert spec.feature_names() == ["x_boundary", "x_gen_00", "x_gen_01",
                                        "x_gen_02"]

    def test_unknown_family_rejected(self):
        with pytest.raises(pl.InvalidArgumentError):
            pl.SynthSpec(n_rows=5, families=("x_new",))


class TestMissingFocus:
    def test_control_arm_concentration(self):
        spec = pl.SynthSpec(n_rows=20000, seed=7, p_miss=0.2,
                            missing_focus="control_arm")
        frame = pl.generate(spec)
        control = pl.select_control(spec.treatment_labels())
        miss = frame.missing_mask("x_miss")
        is_ctrl = frame.treatments == control
        assert miss[is_ctrl].mean() > miss[~is_ctrl].mean()

    def test_treated_arms_concentration(self):
        spec = pl.SynthSpec(n_rows=20000, seed=7, p_miss=0.2,
                            missing_focus="treated_arms")
        frame = pl.generate(spec)
        control = pl.select_control(spec.treatment_labels())
        miss = frame.missing_mask("x_miss")
        is_ctrl = frame.treatments == control
        assert miss[~is_ctrl].mean() > miss[is_ctrl].mean()

    def test_positive_outcome_concentration(self):
        spec = pl.SynthSpec(n_rows=20000, seed=7, p_miss=0.2,
                            missing_focus="positive_outcome")
        frame = pl.generate(spec)
        miss = frame.missing_mask("x_miss")
        pos = frame.outcomes == 1
        assert miss[pos].mean() > miss[~pos].mean()

    def test_null_nan_duality(self):
        base = dict(n_rows=8000, seed=7, p_miss=0.3, missing_focus="control_arm")
        null_frame = pl.generate(pl.SynthSpec(missing_encoding="null", **base))
        nan_frame = pl.generate(pl.SynthSpec(missing_encoding="nan", **base))
        assert pl.frame_checksum(null_frame) != pl.frame_checksum(nan_frame)
        assert np.array_equal(null_frame.outcomes, nan_frame.outcomes)
        assert np.array_equal(null_frame.treatments, nan_frame.treatments)
        for name in null_frame.feature_names:
            b = pl.uniform_boundaries(name, 16)
            assert np.array_equal(pl.bucketize(null_frame.effective_values(name), b),
                                  pl.bucketize(nan_frame.effective_values(name), b))


class TestTrainHoldout:
    def test_paper_sizes(self):
        frame = pl.generate(pl.SynthSpec(n_rows=64000, seed=7,
                                         families=("generic(1)",)))
        train, holdout = pl.split_train_holdout(frame, 0.2, seed=7)
        assert (train.n_rows, holdout.n_rows) == (51200, 12800)

    def test_deterministic_and_disjoint(self):
        frame = pl.generate(pl.SynthSpec(n_rows=10, seed=3, families=("generic(1)",)))
        a1, b1 = pl.split_train_holdout(frame, 0.5, seed=11)
        a2, b2 = pl.split_train_holdout(frame, 0.5, seed=11)
        assert np.array_equal(a1.row_ids, a2.row_ids)
        assert np.array_equal(b1.row_ids, b2.row_ids)
        union = np.sort(np.concatenate([a1.row_ids, b1.row_ids]))
        assert np.array_equal(union, np.sort(frame.row_ids))
        assert len(np.intersect1d(a1.row_ids, b1.row_ids)) == 0

    def test_fraction_bounds(self):
        frame = pl.generate(pl.SynthSpec(n_rows=10, families=("generic(1)",)))
        with pytest.raises(pl.InvalidArgumentError):
            pl.split_train_holdout(frame, 0.0, seed=1)
        with pytest.raises(pl.InvalidArgumentError):
            pl.split_train_holdout(frame, 1.0, seed=1)

    @pytest.mark.parametrize("fraction,seed,match", [
        ("x", 1, "holdout_fraction"), ("0.2", 1, "holdout_fraction"),
        (None, 1, "holdout_fraction"), (True, 1, "holdout_fraction"),
        (float("nan"), 1, "holdout_fraction"),
        (0.2, 1.5, "seed"), (0.2, "1", "seed"), (0.2, None, "seed")])
    def test_fraction_and_seed_must_be_numbers(self, fraction, seed, match):
        frame = pl.generate(pl.SynthSpec(n_rows=10, families=("generic(1)",)))
        with pytest.raises(pl.InvalidArgumentError, match=match):
            pl.split_train_holdout(frame, fraction, seed)

    def test_numpy_fraction_and_seed_accepted(self):
        frame = pl.generate(pl.SynthSpec(n_rows=10, families=("generic(1)",)))
        want = pl.split_train_holdout(frame, 0.5, 11)
        got = pl.split_train_holdout(frame, np.float64(0.5), np.int64(11))
        assert [p.row_ids.tolist() for p in got] == [p.row_ids.tolist() for p in want]


_SPECS = {
    "generic50": pl.SynthSpec(n_rows=20_000, seed=1, families=("generic(50)",)),
    "severe8": pl.SynthSpec(n_rows=10_000, n_treatments=8, seed=3, skew="severe",
                            p_miss=0.15),
    "chunk-edges": pl.SynthSpec(n_rows=3 * 8192 + 5, seed=11, p_miss=0.05,
                                missing_encoding="nan", missing_focus="control_arm",
                                families=("x_sparse", "x_tie", "x_boundary", "generic(3)")),
    "one-row": pl.SynthSpec(n_rows=1, seed=2),
}


class TestPinnedDigests:
    """Digests of generated frames, pinned to the values of the one-array
    stream and per-column generator that the chunked streams and the
    feature block replaced: a change that moves one bit fails here."""

    @pytest.mark.parametrize("name,digest", [
        ("generic50", "6b6a9808f38414f6e723b66cf911a522"),
        ("severe8", "ae20d91c27380ea52e58fffc9e6101a8"),
        ("chunk-edges", "755b27476f141a4781d64ca0c57cfa2a"),
        ("one-row", "8d64a73cc0a7740a81ed0f95ce8e5bc6"),
    ])
    def test_generate(self, name, digest):
        assert pl.frame_checksum(pl.generate(_SPECS[name])) == digest

    def test_train_holdout_and_shuffle(self):
        train, holdout = pl.split_train_holdout(pl.generate(_SPECS["severe8"]), 0.2, 3)
        assert (pl.frame_checksum(train), pl.frame_checksum(holdout)) == \
            ("1c2459ec33edbdd07c22f8b7eefedb1d", "4db0767d0f476caff77d10e8b3a35814")
        shuffled = pl.apply_perturbation(
            pl.partition(pl.generate(_SPECS["chunk-edges"]), 3),
            pl.PerturbationSpec(pl.PerturbationKind.SHUFFLE_ROWS, seed=5))
        assert pl.frame_checksum(shuffled.concat()) == "bb6d7b724e68105e06407a9c0acbca55"

    @pytest.mark.parametrize("args,digest", [
        ((20_000, 8, 4, 3, 4, 5), "c2bd360ad7891fc7f59b71f11edfb606"),
        ((3000, 6, 3, 2, 3, 9, 0.0), "2b1159978788fc88c315d1bf55acf05c"),
    ])
    def test_inference_fixture(self, args, digest):
        assert pl.frame_checksum(inference_fixture(*args)[0]) == digest


def test_generate_allocates_one_feature_block():
    """The columns of a generated frame are the rows of one [F, n] block,
    written in place, not one array per column."""
    spec, n = _SPECS["generic50"], _SPECS["generic50"].n_rows
    pl.generate(spec)   # first calls import lazily; trace a warm call
    tracemalloc.start()
    try:
        frame = pl.generate(spec)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    block = frame.feature_values[0].base
    assert block.shape == (50, n) and block.flags.c_contiguous
    assert all(v.base is block for v in frame.feature_values)
    # what the frame keeps of 8n bytes or more: the block, and the row ids,
    # treatments and outcomes
    kept = sorted(t.size for t in snapshot.traces if t.size >= 8 * n)
    assert kept[-1] >= block.nbytes and len(kept) <= 4, kept
