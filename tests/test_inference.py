import gc
import tracemalloc

import numpy as np
import pytest

import policylock as pl
from policylock import inference
from policylock.harness import inference_fixture
from policylock.inference import parity_from_columns

from conftest import build_frame, leaf_child_forest_text


@pytest.fixture(scope="module")
def fixture():
    frame, forest = inference_fixture(n_rows=3000, n_features=8, n_treatments=3,
                                      n_trees=12, depth=5, seed=7, p_miss=0.1)
    return frame, forest


class TestScore:
    def test_empty_frame_empty_scores(self):
        frame = build_frame({"f00": []}, treatments=[], outcomes=[])
        forest = pl.random_forest(3, 2, ("f00",), ("a", "b"), seed=1)
        col = pl.score(pl.partition(frame, 3), forest,
                       pl.InferenceBackend("vectorized_columnar"))
        assert col.n_rows == 0
        assert col.vectors.shape == (0, 2)

    def test_all_backends_pairwise_exact(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame, 4)
        cols = {kind: pl.score(pf, forest, pl.InferenceBackend(kind, batch_size=500))
                for kind in pl.BACKEND_KINDS}
        kinds = list(cols)
        for i, a in enumerate(kinds):
            for b in kinds[i + 1:]:
                rep = parity_from_columns(cols[a], cols[b], a, b)
                assert rep.mismatch_rows == 0
                assert rep.max_abs_delta == 0.0
                assert rep.checksum_equal

    def test_partition_count_invariance(self, fixture):
        frame, forest = fixture
        backend = pl.InferenceBackend("vectorized_columnar", 512)
        base = pl.score(pl.partition(frame, 1), forest, backend)
        for p in (2, 7, 16):
            other = pl.score(pl.partition(frame, p), forest, backend)
            rep = parity_from_columns(base, other, "p1", f"p{p}")
            assert rep.mismatch_rows == 0 and rep.max_abs_delta == 0.0

    def test_batch_size_invariance(self, fixture):
        """Every backend streams its partitions in batches: one row, a few,
        exactly a partition and one more give the same bytes, on even,
        uneven and partly empty partitionings."""
        frame, forest = fixture
        frame = frame.take(np.arange(300))
        whole = pl.score(pl.partition(frame, 1), forest,
                         pl.InferenceBackend("vectorized_columnar")).vectors
        # 3 x 100 rows; 43 or 42 rows; 1 row each and 3 empty
        for pf in (pl.partition(frame, 3), pl.partition(frame, 7),
                   pl.partition(frame.take(np.arange(5)), 8)):
            want = whole[:pf.n_rows].tobytes()   # rows keep the frame's order
            size = max(p.n_rows for p in pf.partitions)
            for kind in pl.BACKEND_KINDS:
                for batch in (1, 17, size, size + 1):
                    got = pl.score(pf, forest, pl.InferenceBackend(kind, batch))
                    assert got.vectors.tobytes() == want, (kind, batch)

    def test_missing_feature_is_schema_error(self, fixture):
        _, forest = fixture
        frame = build_frame({"zzz": [0.1]})
        with pytest.raises(pl.SchemaError):
            pl.score(pl.partition(frame, 1), forest,
                     pl.InferenceBackend("vectorized_columnar"))

    def test_malformed_forest_rejected(self):
        from policylock.forest import TreeArrays, INTERNAL_CONTINUOUS, LEAF
        tree = TreeArrays([INTERNAL_CONTINUOUS, LEAF], [0, -1], [0.5, 0.0],
                          [0, -1], [1, -1], [False, False], [[0.0], [1.0]])
        forest = pl.ForestArrays([tree], ("f00",), ("a",))
        frame = build_frame({"f00": [0.5]})
        with pytest.raises(pl.InvalidArgumentError):
            pl.score(pl.partition(frame, 1), forest,
                     pl.InferenceBackend("broadcast_rowwise"))


    @pytest.mark.parametrize("kind", pl.BACKEND_KINDS)
    def test_leaf_child_other_than_minus_one_rejected(self, kind):
        forest = pl.forest_from_text(leaf_child_forest_text(-61))
        frame = build_frame({"f00": [0.5, None]}, treatments=["control", "treat"])
        with pytest.raises(pl.InvalidArgumentError,
                           match="forest failed validation: leaf left child -61 is not -1"):
            pl.score(pl.partition(frame, 2), forest, pl.InferenceBackend(kind))

    @pytest.mark.parametrize("kind", pl.BACKEND_KINDS)
    def test_forest_without_trees_rejected_on_every_backend(self, kind):
        forest = pl.ForestArrays([], ("f00",), ("a", "b"))
        frame = build_frame({"f00": [0.5, None]})
        with pytest.raises(pl.InvalidArgumentError, match="no trees"):
            pl.score(pl.partition(frame, 2), forest, pl.InferenceBackend(kind))


@pytest.fixture
def model_inits(monkeypatch):
    """Counts model inits: every one parses the forest text through
    ``inference.forest_from_text``."""
    calls = []
    real = inference.forest_from_text

    def counting(text):
        calls.append(1)
        return real(text)

    monkeypatch.setattr(inference, "forest_from_text", counting)
    return calls


class TestLazyInit:
    """One model init per partition however many batches it streams
    through (100 rows in batches of 50 here), not one per batch."""

    @pytest.mark.parametrize("kind,expected", [
        ("broadcast_rowwise", 5), ("vectorized_columnar", 5),
        ("vectorized_rowmajor", 5)])
    def test_once_per_partition(self, fixture, model_inits, kind, expected):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(500)), 5)
        pl.score(pf, forest, pl.InferenceBackend(kind, batch_size=50))
        assert len(model_inits) == expected

    def test_anti_pattern_inits_per_row(self, fixture, model_inits):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(40)), 4)
        for batch_size in (3, 10000):
            model_inits.clear()
            pl.score(pf, forest, pl.InferenceBackend("anti_pattern", batch_size))
            assert len(model_inits) == 40


class TestWorkers:
    def test_rowwise_backends_score_on_one_worker(self, fixture, monkeypatch):
        """Row loops hold the interpreter lock, so only the vectorized
        backends get the requested pool; scores and order do not change."""
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(300)), 4)
        want = pl.score(pf, forest, pl.InferenceBackend("vectorized_columnar", 64),
                        pool_size=1).vectors.tobytes()
        real = inference.ThreadPoolExecutor
        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(inference, "ThreadPoolExecutor", recording_pool)
        for kind in pl.BACKEND_KINDS:
            col = pl.score(pf, forest, pl.InferenceBackend(kind, 64), pool_size=3)
            assert col.row_ids.tolist() == np.concatenate(
                [p.row_ids for p in pf.partitions]).tolist()
            assert col.vectors.tobytes() == want
        assert pools == [1, 1, 3, 3]

    @pytest.mark.parametrize("pool_size", [-1, 0, 1.5, "2"])
    def test_pool_size_below_one_rejected(self, fixture, pool_size):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(20)), 2)
        for kind in pl.BACKEND_KINDS:
            with pytest.raises(pl.InvalidArgumentError, match="pool_size"):
                pl.score(pf, forest, pl.InferenceBackend(kind), pool_size=pool_size)


class TestArguments:
    """Bad arguments at the scoring entry points raise InvalidArgumentError,
    never a bare TypeError or AttributeError, and are never accepted."""

    @pytest.mark.parametrize("batch_size", [2.5, "5", True, None])
    def test_batch_size_must_be_an_integer(self, batch_size):
        with pytest.raises(pl.InvalidArgumentError, match="batch_size"):
            pl.InferenceBackend("vectorized_columnar", batch_size)

    def test_numpy_integer_batch_size_accepted(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(30)), 2)
        backend = pl.InferenceBackend("vectorized_columnar", np.int64(7))
        assert pl.score(pf, forest, backend).n_rows == 30

    @pytest.mark.parametrize("arg,value", [("repeats", 1.5), ("max_rows", 1.5),
                                           ("max_rows", "10")])
    def test_throughput_counts_must_be_integers(self, fixture, arg, value):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(20)), 2)
        with pytest.raises(pl.InvalidArgumentError, match=arg):
            pl.measure_throughput(pf, forest, pl.InferenceBackend("vectorized_columnar"),
                                  **{"repeats": 1, arg: value})

    @pytest.mark.parametrize("which", ["frame", "forest", "backend"])
    @pytest.mark.parametrize("call", [pl.score, pl.measure_throughput])
    def test_inputs_must_have_their_types(self, fixture, which, call):
        frame, forest = fixture
        frame = frame.take(np.arange(20))
        args = {"frame": pl.partition(frame, 2), "forest": forest,
                "backend": pl.InferenceBackend("vectorized_columnar")}
        args[which] = {"frame": frame, "forest": pl.forest_to_text(forest),
                       "backend": "vectorized_columnar"}[which]
        with pytest.raises(pl.InvalidArgumentError, match="expected a"):
            call(*args.values())


class TestStreamingMemory:
    """A partition streams through one [F, batch] block, so a ``score``
    call's traced peak grows per row by little more than the result's own
    bytes, (T + 1) * 8 with the row ids, and far below the F * 8 a whole
    [F, n] feature block would add."""

    @staticmethod
    def _peak(pf, forest, backend):
        # a full collection also empties the interpreter's free lists, after
        # which each new float or tuple is a traced allocation.  One that fell
        # inside the traced call (garbage left by earlier tests can bring it
        # on) added about 0.3 MB to that call's peak alone, so it runs first,
        # and the untraced call refills the lists (and imports lazily)
        gc.collect()
        pl.score(pf, forest, backend)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pl.score(pf, forest, backend)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    # the row loops are slow, so they score fewer rows; anti_pattern parses
    # its model per row, so it gets a smaller forest
    @pytest.mark.parametrize("kind,n,batch,n_trees", [
        ("vectorized_columnar", 20_000, 1000, 20), ("vectorized_rowmajor", 20_000, 1000, 20),
        ("broadcast_rowwise", 2000, 100, 20), ("anti_pattern", 400, 20, 2)])
    def test_peak_grows_by_the_result_not_the_feature_block(self, kind, n, batch, n_trees):
        frame, forest = inference_fixture(n_rows=2 * n, n_features=32, n_treatments=4,
                                          n_trees=n_trees, depth=5, seed=3)
        backend = pl.InferenceBackend(kind, batch)
        small, large = (self._peak(pl.partition(frame.take(np.arange(m)), 1),
                                   forest, backend) for m in (n, 2 * n))
        per_row = (large - small) / n
        result_row = (forest.n_treatments + 1) * 8
        assert per_row <= 2 * result_row < forest.n_features * 8


class TestParity:
    def test_backend_vs_itself(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(300)), 2)
        backend = pl.InferenceBackend("vectorized_columnar")
        rep = pl.check_parity(pf, forest, backend, backend)
        assert rep.mismatch_rows == 0
        assert rep.max_abs_delta == 0.0
        assert rep.checksum_equal

    def test_planted_payload_fault_detected(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(500)), 2)
        backend = pl.InferenceBackend("vectorized_columnar")
        ref = pl.score(pf, forest, backend)
        import copy
        broken = copy.deepcopy(forest)
        leaf = np.flatnonzero(broken.trees[0].node_type == 2)[0]
        broken.trees[0].leaf_payload[leaf, 0] += 1e-6
        cand = pl.score(pf, broken, backend)
        rep = parity_from_columns(ref, cand, "ok", "broken")
        assert rep.mismatch_rows >= 1
        assert not rep.checksum_equal

    def test_row_set_mismatch_is_alignment_error(self, fixture):
        frame, forest = fixture
        backend = pl.InferenceBackend("vectorized_columnar")
        a = pl.score(pl.partition(frame.take(np.arange(10)), 1), forest, backend)
        b = pl.score(pl.partition(frame.take(np.arange(5, 15)), 1), forest, backend)
        with pytest.raises(pl.AlignmentError):
            parity_from_columns(a, b, "a", "b")


class TestThroughput:
    def test_rows_per_second_definitional(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame.take(np.arange(1000)), 2)
        rep = pl.measure_throughput(pf, forest,
                                    pl.InferenceBackend("vectorized_columnar"),
                                    repeats=3)
        assert rep.rows_per_second == pytest.approx(rep.n_rows / rep.wall_seconds)
        assert len(rep.samples) == 3

    def test_max_rows_cap_recorded(self, fixture):
        frame, forest = fixture
        pf = pl.partition(frame, 4)
        rep = pl.measure_throughput(pf, forest,
                                    pl.InferenceBackend("vectorized_columnar"),
                                    repeats=1, max_rows=100)
        assert rep.capped and rep.n_rows == 100

    def test_no_row_to_score_is_refused(self, fixture):
        frame, forest = fixture
        backend = pl.InferenceBackend("vectorized_columnar")
        for pf, cap in ((pl.partition(frame, 2), 0), (pl.partition(frame, 2), -3),
                        (pl.partition(frame.take(np.arange(0)), 2), None)):
            with pytest.raises(pl.InvalidArgumentError, match="at least one row"):
                pl.measure_throughput(pf, forest, backend, repeats=1, max_rows=cap)

    def test_repeats_must_be_positive(self, fixture):
        frame, forest = fixture
        with pytest.raises(pl.InvalidArgumentError):
            pl.measure_throughput(pl.partition(frame, 1), forest,
                                  pl.InferenceBackend("vectorized_columnar"),
                                  repeats=0)
