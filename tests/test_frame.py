import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policylock as pl
from policylock.frame import NULL, NAN, PRESENT, PartitionedFrame, plant_missing
from policylock.harness import inference_fixture, random_small_instance

from conftest import build_frame


def _collect_rows(pf):
    rows = []
    for part in pf.partitions:
        for r in range(part.n_rows):
            cells = tuple(
                (part.feature_values[i][r], bool(part.feature_valid[i][r]))
                for i in range(len(part.feature_names)))
            rows.append((int(part.row_ids[r]), cells, str(part.treatments[r]),
                         int(part.outcomes[r])))
    return sorted(rows)


class TestPartition:
    def test_single_partition_identity(self):
        f = build_frame({"a": list(range(10))})
        pf = pl.partition(f, 1)
        assert [p.n_rows for p in pf.partitions] == [10]
        assert np.array_equal(pf.partitions[0].row_ids, f.row_ids)

    def test_block_sizes_ceil_division(self):
        # 10 rows over 3 partitions: first gets the extra row
        f = build_frame({"a": list(range(10))})
        pf = pl.partition(f, 3)
        assert [p.n_rows for p in pf.partitions] == [4, 3, 3]
        assert np.array_equal(pf.concat().row_ids, f.row_ids)

    @pytest.mark.parametrize("p", [1.5, None, "2", True, 0, -1])
    def test_partition_count_must_be_a_positive_int(self, p):
        f = build_frame({"a": list(range(10))})
        with pytest.raises(pl.InvalidArgumentError, match="partition count"):
            pl.partition(f, p)

    def test_empty_frame_many_partitions(self):
        f = build_frame({"a": []})
        pf = pl.partition(f, 4)
        assert [p.n_rows for p in pf.partitions] == [0, 0, 0, 0]

    def test_zero_partitions_rejected(self):
        f = build_frame({"a": [1.0]})
        with pytest.raises(pl.InvalidArgumentError):
            pl.partition(f, 0)


def _taken_partitions(frame, p):
    """``partition``'s blocks rebuilt as gathered copies."""
    return PartitionedFrame(tuple(frame.take(rows)
                                  for rows in np.array_split(np.arange(frame.n_rows), p)))


def _frame_arrays(frame):
    return (frame.row_ids, *frame.feature_values, *frame.feature_valid,
            frame.treatments, frame.outcomes)


def _wide_frame(n_rows=2000, n_features=50, seed=3):
    """A quarter of the columns hold NULL cells, a quarter NaN payloads."""
    names = [f"c{i:02d}" for i in range(n_features)]
    values, valid = [], []
    for i, name in enumerate(names):
        miss = pl.rng.uniform_stream(seed, f"miss:{name}", n_rows) < (0.1 if i % 2 else 0.0)
        vals, ok = plant_missing(pl.rng.uniform_stream(seed, name, n_rows), miss,
                                 null=i % 4 == 1)
        values.append(vals)
        valid.append(ok)
    codes = pl.rng.choice_from_probs(seed, "codes", n_rows, [0.5, 0.5])
    outcomes = (pl.rng.uniform_stream(seed, "out", n_rows) < 0.4).astype(np.int64)
    return pl.ColumnFrame(np.arange(n_rows), names, values, valid,
                          np.array(["control", "treat"], dtype=object)[codes], outcomes)


class TestZeroCopyPartition:
    @pytest.mark.parametrize("n", [0, 1, 7, 10, 64])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 9, 70])
    def test_blocks_are_array_split_bounds(self, n, p):
        f = build_frame({"a": [i / 8 for i in range(n)]})
        pf = pl.partition(f, p)
        assert len(pf.partitions) == p
        for part, rows in zip(pf.partitions, np.array_split(np.arange(n), p)):
            assert part.row_ids.tolist() == rows.tolist()

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_blocks_are_read_only_views_of_the_parent(self, p):
        frame = _wide_frame()
        pf = pl.partition(frame, p)
        for part in pf.partitions:
            assert part.n_rows > 0
            for arr, parent in zip(_frame_arrays(part), _frame_arrays(frame)):
                assert np.shares_memory(arr, parent)
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                part.feature_values[0][0] = 1.0
        assert pl.frame_checksum(pf.concat()) == pl.frame_checksum(frame)
        assert pl.frame_checksum(pf.concat()) == \
            pl.frame_checksum(_taken_partitions(frame, p).concat())

    def test_fully_valid_columns_share_one_bitmap(self, tmp_path):
        frame = _wide_frame()
        pl.write_csv(frame, tmp_path / "f.csv")
        csv_frame = pl.read_csv(tmp_path / "f.csv", pl.CsvRoles(
            frame.feature_names, "treatment", "outcome", "row_id"))
        frames = [frame, csv_frame, frame.take(np.arange(0, 2000, 3)),
                  pl.ColumnFrame(np.arange(5), ["a", "b"], [np.zeros(5), np.ones(5)]),
                  pl.generate(pl.SynthSpec(n_rows=500, seed=2, families=("generic(6)",))),
                  *pl.partition(frame, 4).partitions,
                  *pl.apply_perturbation(pl.partition(frame, 4), pl.PerturbationSpec(
                      pl.PerturbationKind.REPARTITION, target_partitions=3)).partitions]
        for f in frames:
            full = [vld for vld in f.feature_valid if vld.all()]
            assert full and all(vld is f._all_valid for vld in full)
            assert not f._all_valid.flags.writeable and f._all_valid.strides == (1,)
            partial = [vld for vld in f.feature_valid if not vld.all()]
            assert all(vld is not f._all_valid for vld in partial)
        # a block's bitmap is a slice of its parent's
        for part in pl.partition(frame, 4).partitions:
            assert np.shares_memory(part._all_valid, frame._all_valid)

    def test_partition_allocates_no_column_copy(self):
        frame = _wide_frame(n_rows=2000, n_features=50)
        column_bytes = sum(a.nbytes for a in _frame_arrays(frame))
        pl.partition(frame, 4)   # first calls import lazily; trace a warm call
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pf = pl.partition(frame, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pf.n_rows == frame.n_rows
        assert peak - before < column_bytes / 10

    def test_fully_valid_columns_allocate_one_bitmap(self):
        """The default validity, ``plant_missing`` and ``take`` allocate one
        bitmap for all fully valid columns, not one per column."""
        n, F = 2000, 400
        names = [f"c{i:03d}" for i in range(F)]
        values = [np.full(n, i / F) for i in range(F)]
        treatments, outcomes = np.full(n, "control", dtype=object), np.zeros(n, np.int64)
        bitmaps = F * n   # one bool per cell

        def traced(make):
            make()   # first calls import lazily; trace a warm call
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                out = make()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, peak - before

        frame, grown = traced(lambda: pl.ColumnFrame(np.arange(n), names, values,
                                                     None, treatments, outcomes))
        assert grown < bitmaps / 4
        planted, grown = traced(lambda: [plant_missing(v, np.zeros(n, bool), null=True)
                                         for v in values])
        assert grown < bitmaps / 4 and all(ok.all() for _, ok in planted)
        taken, grown = traced(lambda: frame.take(np.arange(n)))
        assert grown < sum(v.nbytes for v in values) + bitmaps / 2
        assert pl.frame_checksum(taken) == pl.frame_checksum(frame)

    def test_concat_shares_one_bitmap_across_fully_valid_columns(self):
        frame = _wide_frame()
        parts = pl.partition(frame, 4).partitions
        # a column NULL only in the last block is fully valid in the others
        last = parts[-1]
        mixed = [*last.feature_valid]
        mixed[0] = np.arange(last.n_rows) % 2 == 0
        parts = parts[:-1] + (pl.ColumnFrame(last.row_ids, last.feature_names,
                                             last.feature_values, mixed,
                                             last.treatments, last.outcomes),)
        out = pl.concat_frames(parts)
        full = [i for i, vld in enumerate(frame.feature_valid)
                if vld is frame._all_valid and i != 0]
        assert len(full) > 10
        assert all(out.feature_valid[i] is out._all_valid for i in full)
        assert out.feature_valid[0] is not out._all_valid and not out.feature_valid[0].all()
        for i, vld in enumerate(out.feature_valid):
            assert vld.tolist() == [v for p in parts for v in p.feature_valid[i].tolist()]

    def test_concat_allocates_one_bitmap(self):
        """``pf.concat()`` of 250 fully valid columns concatenates one bitmap,
        not 250 (``repartition``, ``coalesce`` and ``shuffle_rows`` concat)."""
        frame = pl.generate(pl.SynthSpec(n_rows=20_000, seed=1, families=("generic(250)",)))
        assert all(vld is frame._all_valid for vld in frame.feature_valid)
        pf = pl.partition(frame, 4)
        pf.concat()   # first calls import lazily; trace a warm call
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = pf.concat()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copied = sum(a.nbytes for a in (*frame.feature_values, frame.row_ids,
                                        frame.treatments, frame.outcomes))
        bitmaps = 250 * frame.n_rows   # one bool per cell
        assert peak - before < copied + bitmaps / 4
        assert len({id(vld) for vld in out.feature_valid}) == 1
        assert pl.frame_checksum(out) == pl.frame_checksum(frame)

    def test_matrix_is_the_effective_values_with_their_nan_payloads(self):
        frame = _wide_frame(n_rows=300, n_features=8)
        quiet = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        values = [np.where(np.isnan(v), quiet, v) for v in frame.feature_values]
        frame = pl.ColumnFrame(frame.row_ids, frame.feature_names, values,
                               frame.feature_valid, frame.treatments, frame.outcomes)
        names = frame.feature_names[::-1]
        for f in (frame, *pl.partition(frame, 3).partitions):
            got = f.feature_matrix_effective(names)
            want = np.stack([f.effective_values(n) for n in names])
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        assert f.feature_matrix_effective(()).shape == (0, f.n_rows)

    def test_row_range_is_the_slice_of_the_whole_block(self):
        """Rows ``lo:hi`` filled into a reused buffer are the same bytes as
        that slice of the whole block: NULL cells, NaN payloads and the
        columns on the shared all-valid bitmap, for full, short-last and
        empty ranges."""
        frame = _wide_frame(n_rows=300, n_features=8)
        quiet = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        values = [np.where(np.isnan(v), quiet, v) for v in frame.feature_values]
        frame = pl.ColumnFrame(frame.row_ids, frame.feature_names, values,
                               frame.feature_valid, frame.treatments, frame.outcomes)
        assert any(vld is frame._all_valid for vld in frame.feature_valid)
        assert any(not vld.all() for vld in frame.feature_valid)
        names = frame.feature_names[::-1]
        for f in (frame, *pl.partition(frame, 3).partitions):
            whole = f.feature_matrix_effective(names)
            buf = np.full((len(names), 64), -1.0)
            for lo in range(0, f.n_rows, 64):    # the last batch is short
                hi = min(lo + 64, f.n_rows)
                got = f.feature_matrix_effective(names, lo, hi, buf[:, :hi - lo])
                assert np.shares_memory(got, buf)
                assert got.tobytes() == whole[:, lo:hi].tobytes()
                assert f.feature_matrix_effective(names, lo, hi).tobytes() == \
                    whole[:, lo:hi].tobytes()
            for lo in (0, 17, f.n_rows):
                assert f.feature_matrix_effective(names, lo, lo).shape == (len(names), 0)
                assert f.feature_matrix_effective(names, lo, lo, buf[:, :0]).size == 0

    def test_row_range_and_out_block_are_checked(self):
        f = _wide_frame(n_rows=20, n_features=3)
        names = f.feature_names
        for lo, hi in ((-1, 5), (6, 5), (0, 21)):
            with pytest.raises(pl.InvalidArgumentError, match="row range"):
                f.feature_matrix_effective(names, lo, hi)
        for out in (np.empty((3, 4)), np.empty((2, 5)), np.empty((3, 5), np.float32)):
            with pytest.raises(pl.InvalidArgumentError, match="out block"):
                f.feature_matrix_effective(names, 0, 5, out)

    def test_scores_equal_on_views_and_copies(self):
        frame, forest = inference_fixture(90, 6, 3, 4, 3, seed=11)
        for kind in pl.BACKEND_KINDS:
            backend = pl.InferenceBackend(kind, batch_size=16)
            for p in (1, 3, 4):
                views = pl.score(pl.partition(frame, p), forest, backend)
                copies = pl.score(_taken_partitions(frame, p), forest, backend)
                assert views.row_ids.tobytes() == copies.row_ids.tobytes()
                assert views.vectors.tobytes() == copies.vectors.tobytes()

    def test_splits_and_trained_signature_equal_on_views_and_copies(self):
        spec = pl.SynthSpec(n_rows=3000, n_treatments=3, seed=4, p_miss=0.1,
                            families=("x_boundary", "x_miss", "generic(3)"))
        frame, labels = pl.generate(spec), spec.treatment_labels()
        bmap = {n: pl.uniform_boundaries(n, 12) for n in frame.feature_names}
        config = pl.SplitConfig(min_leaf_size=40)
        manifest = pl.build_manifest(frame, frame.feature_names, labels, bmap, 7, 3,
                                     60).lock()
        for p in (2, 5):
            views, copies = pl.partition(frame, p), _taken_partitions(frame, p)
            for path in pl.EXECUTION_PATHS:
                a = pl.best_split(views, frame.feature_names, bmap, labels,
                                  config.with_path(path))
                b = pl.best_split(copies, frame.feature_names, bmap, labels,
                                  config.with_path(path))
                assert a.to_record() == b.to_record()
                assert pl.signature(pl.train(views, manifest, path)).text == \
                    pl.signature(pl.train(copies, manifest, path)).text


class TestPerturbations:
    def _frame(self, n=50):
        return build_frame({"a": [i / 50 for i in range(n)],
                            "b": [None if i % 7 == 0 else i for i in range(n)]},
                           treatments=["t" if i % 3 else "control" for i in range(n)],
                           outcomes=[i % 2 for i in range(n)])

    def test_shuffle_deterministic(self):
        pf = pl.partition(self._frame(), 3)
        spec = pl.PerturbationSpec(pl.PerturbationKind.SHUFFLE_ROWS, seed=42)
        a = pl.apply_perturbation(pf, spec)
        b = pl.apply_perturbation(pf, spec)
        assert pl.frame_checksum(a.concat()) == pl.frame_checksum(b.concat())
        assert _collect_rows(a) == _collect_rows(pf)

    @pytest.mark.parametrize("spec", [
        pl.PerturbationSpec(pl.PerturbationKind.REPARTITION, target_partitions=5),
        pl.PerturbationSpec(pl.PerturbationKind.REPARTITION, target_partitions=2),
        pl.PerturbationSpec(pl.PerturbationKind.COALESCE, target_partitions=2),
        pl.PerturbationSpec(pl.PerturbationKind.SHUFFLE_ROWS, seed=9),
        pl.PerturbationSpec(pl.PerturbationKind.SORT_WITHIN_PARTITION, key="a",
                            ascending=False),
    ])
    def test_row_multiset_preserved(self, spec):
        pf = pl.partition(self._frame(), 3)
        out = pl.apply_perturbation(pf, spec)
        assert _collect_rows(out) == _collect_rows(pf)

    def test_coalesce_upward_rejected(self):
        pf = pl.partition(self._frame(), 2)
        with pytest.raises(pl.InvalidArgumentError):
            pl.apply_perturbation(pf, pl.PerturbationSpec(
                pl.PerturbationKind.COALESCE, target_partitions=5))

    def test_unknown_kind_rejected(self):
        pf = pl.partition(self._frame(), 2)
        with pytest.raises(pl.EngineError, match="unknown perturbation kind 'bogus'"):
            pl.apply_perturbation(pf, pl.PerturbationSpec("bogus"))

    @pytest.mark.parametrize("spec", [None, "shuffle_rows", pl.PerturbationKind.SHUFFLE_ROWS])
    def test_spec_must_be_a_perturbation_spec(self, spec):
        pf = pl.partition(self._frame(), 2)
        with pytest.raises(pl.InvalidArgumentError, match="expected a PerturbationSpec"):
            pl.apply_perturbation(pf, spec)

    def test_input_must_be_a_partitioned_frame(self):
        spec = pl.PerturbationSpec(pl.PerturbationKind.SHUFFLE_ROWS, seed=1)
        with pytest.raises(pl.InvalidArgumentError, match="expected a PartitionedFrame"):
            pl.apply_perturbation(self._frame(), spec)

    def test_sort_within_partition_postcondition(self):
        pf = pl.partition(self._frame(), 4)
        out = pl.apply_perturbation(pf, pl.PerturbationSpec(
            pl.PerturbationKind.SORT_WITHIN_PARTITION, key="row_id"))
        for part in out.partitions:
            assert np.all(np.diff(part.row_ids) >= 0)


class TestChecksum:
    def test_identical_frames_same_digest(self):
        a = build_frame({"x": [1.0, 2.0]}, outcomes=[0, 1])
        b = build_frame({"x": [1.0, 2.0]}, outcomes=[0, 1])
        assert pl.frame_checksum(a) == pl.frame_checksum(b)

    def test_column_order_changes_digest(self):
        a = build_frame({"x": [1.0], "y": [2.0]})
        b = build_frame({"y": [2.0], "x": [1.0]})
        assert pl.frame_checksum(a) != pl.frame_checksum(b)

    def test_null_vs_nan_distinguishable(self):
        null_enc = build_frame({"x": [None, 1.0]})
        nan_enc = build_frame({"x": [float("nan"), 1.0]})
        assert pl.frame_checksum(null_enc) != pl.frame_checksum(nan_enc)
        # ... while the routing view is identical
        assert np.array_equal(np.isnan(null_enc.effective_values("x")),
                              np.isnan(nan_enc.effective_values("x")))

    def test_row_order_sensitivity(self):
        a = build_frame({"x": [1.0, 2.0]}, row_ids=[0, 1])
        b = build_frame({"x": [2.0, 1.0]}, row_ids=[1, 0])
        assert pl.frame_checksum(a) != pl.frame_checksum(b)


class TestMissingKinds:
    def test_kinds_reported(self):
        f = build_frame({"x": [None, float("nan"), 3.0]})
        assert f.missing_kinds("x").tolist() == [NULL, NAN, PRESENT]
        assert f.missing_mask("x").tolist() == [True, True, False]

    def test_invariants_enforced(self):
        with pytest.raises(pl.SchemaError):
            build_frame({"x": [1.0, 2.0]}, row_ids=[5, 5])
        with pytest.raises(pl.SchemaError):
            build_frame({"x": [1.0]}, outcomes=[2])


_FAMILIES = ("x_boundary", "x_miss", "x_tie", "generic(2)")


class TestPlantMissing:
    def test_null_and_nan_encodings(self):
        """Missing cells are planted into the given array itself."""
        mask = np.array([True, False, True])
        values = np.array([1.0, 2.0, 3.0])
        vals, valid = plant_missing(values, mask, null=True)
        assert vals.tolist() == [0.0, 2.0, 0.0] and valid.tolist() == [False, True, False]
        assert vals is values
        values = np.array([1.0, 2.0, 3.0])
        vals, valid = plant_missing(values, mask, null=False)
        assert np.isnan(vals).tolist() == mask.tolist() and valid.all()
        assert vals is values and vals[1] == 2.0

    def test_generate_writes_its_feature_block_once(self):
        """Planting missing cells copies no column: a traced ``generate``
        with 10% missing cells peaks within half a feature block of the same
        frame with none (a copy of each planted column is a whole block)."""
        def peak(p_miss):
            spec = pl.SynthSpec(n_rows=20_000, n_treatments=4, seed=3, p_miss=p_miss,
                                families=("generic(50)",))
            pl.generate(spec)   # first calls import lazily; trace a warm call
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                frame = pl.generate(spec)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert frame.n_rows == 20_000
            return top - before

        block = 50 * 20_000 * 8
        assert peak(0.1) < peak(0.0) + block / 2

    # digests of the generators that plant missing cells, pinned at their seeds
    @pytest.mark.parametrize("make,digest", [
        pytest.param(lambda: pl.generate(pl.SynthSpec(
            n_rows=3000, n_treatments=4, seed=1, p_miss=0.1, families=_FAMILIES)),
            "b99c27dfa60dedb182d53b91a8a332bc", id="synth-null"),
        pytest.param(lambda: pl.generate(pl.SynthSpec(
            n_rows=3000, n_treatments=4, seed=2, p_miss=0.2, missing_encoding="nan",
            families=_FAMILIES)),
            "fee1a85b4f0b9cffdfba6d2add77952b", id="synth-nan"),
        pytest.param(lambda: pl.generate(pl.SynthSpec(
            n_rows=3000, n_treatments=4, seed=5, p_miss=0.25,
            missing_focus="positive_outcome", families=_FAMILIES)),
            "ed951bd08e5d8635808d1ba3c3172ed2", id="synth-positive-outcome"),
        pytest.param(lambda: inference_fixture(500, 6, 3, 2, 3, 7, 0.1)[0],
                     "a303e07265846129fd821d089a220aa6", id="fixture"),
        pytest.param(lambda: inference_fixture(500, 6, 3, 2, 3, 8, 0.0)[0],
                     "d8d4eb78cdf27f90983f507793266e02", id="fixture-no-missing"),
        pytest.param(lambda: random_small_instance(0)[0],
                     "b54df80206d7fc4353937d8dc9c989ca", id="small-instance"),
        pytest.param(lambda: random_small_instance(10)[0],
                     "672c35bffbdf251c107e0b6087bbe72c", id="small-instance-p0.4"),
        pytest.param(lambda: random_small_instance(1)[0],
                     "f535f8be8ccaca4bd832e520d8abc1fe", id="small-instance-no-missing"),
    ])
    def test_generated_frame_digests_pinned(self, make, digest):
        assert pl.frame_checksum(make()) == digest


class TestCsv:
    def test_round_trip_preserves_encodings(self, tmp_path):
        f = build_frame({"x": [None, float("nan"), 0.25]},
                        treatments=["control", "a", "b"], outcomes=[1, 0, 1])
        path = tmp_path / "frame.csv"
        pl.write_csv(f, path)
        roles = pl.CsvRoles(("x",), "treatment", "outcome", "row_id")
        back = pl.read_csv(path, roles)
        assert pl.frame_checksum(back) == pl.frame_checksum(f)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(pl.SchemaError):
            pl.read_csv(path, pl.CsvRoles(("a",), "treatment", "outcome"))

    def test_repeated_header_name_is_schema_error(self, tmp_path):
        # csv.DictReader would silently keep only the last "x" column
        path = tmp_path / "dup.csv"
        path.write_text("row_id,x,x,treatment,outcome\n0,1.5,2.5,control,1\n")
        with pytest.raises(pl.SchemaError, match="repeats a column name"):
            pl.read_csv(path, pl.CsvRoles(("x",), "treatment", "outcome", "row_id"))


_CSV_HEADER = "row_id,x,treatment,outcome\n"


@pytest.mark.parametrize("row", [
    "0,abc,control,1",                      # non-numeric feature cell
    "0,0.5,control,yes",                    # non-integer outcome
    "0,0.5,control,1.0",
    "0,0.5,control,",                       # empty outcome
    "z,0.5,control,1",                      # non-integer row id
    "99999999999999999999,0.5,control,1",   # row id outside int64
    "0,0.5,control,99999999999999999999",   # outcome outside int64
    "0,0.5,control",                        # fewer fields than the header
    "0,0.5,control,1,7",                    # more fields than the header
])
def test_read_csv_bad_row_is_schema_error(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(_CSV_HEADER + "1,0.25,t,0\n" + row + "\n")
    with pytest.raises(pl.SchemaError, match="CSV data row 2"):
        pl.read_csv(path, pl.CsvRoles(("x",), "treatment", "outcome", "row_id"))


def test_read_csv_accepted_cells(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(_CSV_HEADER + "3,,control,0\n1,NaN,t,1\n2,-inf,t,0\n"
                    "7, 1e-3 ,t,1\n")
    f = pl.read_csv(path, pl.CsvRoles(("x",), "treatment", "outcome", "row_id"))
    assert f.row_ids.tolist() == [3, 1, 2, 7]
    assert f.missing_kinds("x").tolist() == [NULL, NAN, PRESENT, PRESENT]
    assert f.feature_values[0][2:].tolist() == [float("-inf"), 1e-3]


_CSV_FRAME = build_frame({"x": [None, float("nan"), -0.0, 1e300, float("inf"), 0.5],
                          "y": [1.0, 2.0, None, 3.5, float("nan"), -7.25]},
                         treatments=["control", "a", "b", "a", "control", "b"],
                         outcomes=[1, 0, 1, 1, 0, 0], row_ids=[5, 3, 9, 0, 12, 7])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_read_csv_mutated_text_reads_or_raises_engine_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "frame.csv"
    pl.write_csv(_CSV_FRAME, path)
    text = path.read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        char = data.draw(st.sampled_from(list(',"\n\r 0179.-+eExzNa_')))
        if op == "insert":
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + (char if op == "replace" else "") + text[pos + 1:]
    path.write_text(text)
    roles = pl.CsvRoles(("x", "y"), "treatment", "outcome", "row_id")
    try:
        back = pl.read_csv(path, roles)
    except pl.EngineError:
        return
    assert isinstance(back, pl.ColumnFrame)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=6))
def test_partition_concat_round_trip(values, p):
    f = build_frame({"a": values})
    pf = pl.partition(f, p)
    assert sum(q.n_rows for q in pf.partitions) == f.n_rows
    assert pl.frame_checksum(pf.concat()) == pl.frame_checksum(f)


_I64 = np.iinfo(np.int64)


def _ids_frame(ids, outcomes=None):
    n = len(ids)
    return pl.ColumnFrame(np.asarray(ids, dtype=np.int64), ["a"], [np.arange(n) / 4],
                          outcomes=outcomes)


class TestFeatureValues:
    @pytest.mark.parametrize("values", [
        np.array(["u", "v"]), ["u", "v"], ["0.5", "1"], np.array([b"1", b"2"]),
        [1.0, "v"], np.array([1.0, "v"], dtype=object), [1.0, [2.0, 3.0]],
        np.array(["1.5", 2.0], dtype=object), np.array([b"1", 2], dtype=object),
        np.array([1 + 2j, 3j]), [{}, 1.0],
    ])
    def test_values_must_be_real_numbers(self, values):
        with pytest.raises(pl.InvalidArgumentError, match="real numbers"):
            pl.ColumnFrame(np.arange(2), ["a"], [values])

    @pytest.mark.parametrize("values, want", [
        ([True, False], [1.0, 0.0]), (np.array([3, -2], dtype=np.int8), [3.0, -2.0]),
        (np.array([0.5, 2.0], dtype=np.float32), [0.5, 2.0]),
        (np.array([1.0, 2], dtype=object), [1.0, 2.0]),
    ])
    def test_real_values_become_float64(self, values, want):
        col = pl.ColumnFrame(np.arange(2), ["a"], [values]).feature_values[0]
        assert col.dtype == np.float64 and col.tolist() == want

    def test_none_is_a_nan_payload(self):
        col = pl.ColumnFrame(np.arange(2), ["a"], [[1.0, None]]).feature_values[0]
        assert col[0] == 1.0 and np.isnan(col[1])


class TestRowIdAndOutcomeChecks:
    """Row-id uniqueness is checked with one sort and an adjacent compare,
    outcomes with two compares; every way of building a frame runs both."""

    @pytest.mark.parametrize("ids", [[], [0], [_I64.min], [_I64.max], [0, 1], [1, 0],
                                     [_I64.max, _I64.min], [-1, 1], [-5, -4, -3],
                                     [_I64.min, -1, 0, 1, _I64.max]])
    def test_distinct_ids_accepted(self, ids):
        assert _ids_frame(ids).row_ids.tolist() == ids

    @pytest.mark.parametrize("ids", [
        ["a", "b"], ["1", "2"], [b"1", b"2"], [1.5, 2.0], [0.0, -0.5],
        [0.0, float("nan")], [0.0, float("inf")], [-float("inf"), 1.0],
        [2.0 ** 63, 0.0], [-2.0 ** 64, 0.0], [True, False], [1, None],
        np.array([1, 2], dtype=object), np.array([2 ** 63, 1], dtype=np.uint64),
        np.array([1, 2], dtype=np.complex128), np.zeros((1, 2)), np.int64(3)])
    def test_ids_that_are_not_integers_rejected(self, ids):
        """Text, fractions, NaN, infinities, whole floats outside int64,
        bools and objects are refused, never truncated or wrapped."""
        with pytest.raises(pl.InvalidArgumentError, match="row_ids must be"):
            pl.ColumnFrame(ids, ["a"], [[0.5] * np.size(ids)])
        with pytest.raises(pl.InvalidArgumentError, match="row_ids must be"):
            pl.row_id_set_digest(ids)

    @pytest.mark.parametrize("ids,want", [
        ([2.0, 1.0], [2, 1]), ([-0.0, 3.0], [0, 3]), (np.array([7.0, -9.0]), [7, -9]),
        ([-2.0 ** 63, 2.0 ** 62], [_I64.min, 2 ** 62]), (np.array([5, 1], dtype=np.uint64), [5, 1]),
        (np.array([3, -4], dtype=np.int8), [3, -4])])
    def test_whole_number_ids_become_int64(self, ids, want):
        frame = pl.ColumnFrame(ids, ["a"], [[0.5, 0.25]])
        assert frame.row_ids.dtype == np.int64 and frame.row_ids.tolist() == want

    @pytest.mark.parametrize("ids", [
        [7, 7], [_I64.min, _I64.min], [_I64.max, _I64.max], [-3, -3],
        [4, 1, 2, 3, 4],                      # duplicate first and last
        [0, 4, 1, 2, 3, 4],                   # last duplicates an inner id
        [9, 9, 1, 2, 3],                      # first two
        [1, 2, 3, 9, 9],                      # last two
        [5, 1, 8, 1, 6],                      # in the middle
        [_I64.min, 0, _I64.max, -1, _I64.max],
        [-2, _I64.min, 3, _I64.min],
    ])
    def test_duplicate_ids_rejected(self, ids):
        with pytest.raises(pl.SchemaError, match="^row_ids must be unique$"):
            _ids_frame(ids)

    def test_duplicate_at_every_position_of_a_long_frame(self):
        ids = pl.rng.permutation(3, "ids", 5000).astype(np.int64) * 7 - 9000
        for i, j in [(0, 1), (0, 4999), (4998, 4999), (2500, 17), (4999, 2)]:
            dup = ids.copy()
            dup[i] = dup[j]
            with pytest.raises(pl.SchemaError, match="^row_ids must be unique$"):
                _ids_frame(dup)
        assert _ids_frame(ids).n_rows == 5000

    def test_take_with_a_repeated_index_rejected(self):
        frame = _wide_frame(n_rows=300, n_features=4)
        for idx in ([5, 5], [0, 1, 2, 0], [299, 3, 299], np.r_[np.arange(300), 150]):
            with pytest.raises(pl.SchemaError, match="^row_ids must be unique$"):
                frame.take(idx)
        assert frame.take([299, 0]).row_ids.tolist() == [299, 0]

    def test_concat_of_overlapping_frames_rejected(self):
        frame = _wide_frame(n_rows=300, n_features=4)
        parts = pl.partition(frame, 3).partitions
        for frames in ([frame, frame], [parts[0], parts[1], parts[0]],
                       [frame.take([7]), parts[0]], [parts[2], frame.take([299, 0])]):
            with pytest.raises(pl.SchemaError, match="^row_ids must be unique$"):
                pl.concat_frames(frames)
        assert pl.frame_checksum(pl.concat_frames(list(parts))) == pl.frame_checksum(frame)

    @pytest.mark.parametrize("outcomes", [[0, 2, 1], [-1, 0, 1], [1, 1, 2], [2, 0, 0],
                                          [0, 1, -1], [_I64.min, 0, 1], [0, 1, _I64.max]])
    def test_non_binary_outcomes_rejected(self, outcomes):
        with pytest.raises(pl.SchemaError, match="^outcomes must be binary 0/1$"):
            _ids_frame([0, 1, 2], outcomes=outcomes)

    @pytest.mark.parametrize("outcomes", [[], [0], [1], [0, 1], [1, 1]])
    def test_binary_outcomes_accepted(self, outcomes):
        ids = list(range(len(outcomes)))
        assert _ids_frame(ids, outcomes=outcomes).outcomes.tolist() == outcomes

    def test_frame_from_arrays_allocates_one_sort_copy_beyond_the_bitmap(self):
        n = 200_000
        ids, values = np.arange(n, dtype=np.int64)[::-1].copy(), [np.zeros(n), np.ones(n)]
        treatments, outcomes = np.full(n, "control", dtype=object), np.zeros(n, np.int64)

        def make():
            return pl.ColumnFrame(ids, ["a", "b"], values, None, treatments, outcomes)

        make()   # first calls import lazily; trace a warm call
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            frame = make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the shared bitmap, the sorted copy of the ids and one bool per row
        # for the adjacent compare
        assert peak - before < n + 8 * n + n + 4096, peak - before
        assert frame.row_ids.tolist()[:2] == [n - 1, n - 2]


def test_frames_are_built_without_a_hash_pass(monkeypatch):
    """``np.unique`` and ``np.isin`` hash their input; no way of building a
    frame may call them."""
    frame = _wide_frame(n_rows=400, n_features=6)

    def refuse(*args, **kwargs):
        raise AssertionError("hash pass while building a frame")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "isin", refuse)
    built = [pl.ColumnFrame(frame.row_ids, frame.feature_names, frame.feature_values,
                            frame.feature_valid, frame.treatments, frame.outcomes),
             frame.take(np.arange(399, -1, -2))]
    pf = pl.partition(frame, 3)
    built += [*pf.partitions, pl.concat_frames(list(pf.partitions))]
    kind = pl.PerturbationKind
    for spec in (pl.PerturbationSpec(kind.REPARTITION, target_partitions=4),
                 pl.PerturbationSpec(kind.COALESCE, target_partitions=2),
                 pl.PerturbationSpec(kind.SHUFFLE_ROWS, seed=3),
                 pl.PerturbationSpec(kind.SORT_WITHIN_PARTITION, key="c01", ascending=False)):
        built += pl.apply_perturbation(pf, spec).partitions
    with pytest.raises(pl.SchemaError, match="row_ids must be unique"):
        frame.take([3, 3])
    with pytest.raises(pl.SchemaError, match="outcomes must be binary"):
        _ids_frame([0, 1], outcomes=[0, 3])
    assert len(built) == 2 + 3 + 1 + 4 + 2 + 3 + 3
    assert sum(f.n_rows for f in built) == 400 * 8 - 200
