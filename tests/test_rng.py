import tracemalloc

import numpy as np
import pytest

from policylock import rng


def test_scalar_matches_vectorized():
    xs = [0, 1, 7, 2**40, 2**63 + 5]
    scalar = [rng.splitmix64(x) for x in xs]
    vector = rng._splitmix64_array(np.array(xs, dtype=np.uint64))
    assert scalar == [int(v) for v in vector]


def test_documented_algorithm_reproduced_independently():
    # independent big-int transcription of the docstring recipe
    mask = (1 << 64) - 1

    def ref(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for x in (0, 1, 123456789, 2**64 - 1):
        assert rng.splitmix64(x) == ref(x)

    h = 0xCBF29CE484222325
    for b in "feature:x".encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & mask
    assert rng.fnv1a64("feature:x") == h

    base = ref(ref(7) ^ h)
    words = rng.u64_stream(7, "feature:x", 3)
    assert [int(w) for w in words] == [ref((base + i) & mask) for i in range(3)]


def test_streams_are_counter_addressable():
    whole = rng.u64_stream(7, "t", 100)
    tail = rng.u64_stream(7, "t", 40, offset=60)
    assert np.array_equal(whole[60:], tail)


def test_uniform_range_and_determinism():
    u = rng.uniform_stream(11, "u", 10000)
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert np.array_equal(u, rng.uniform_stream(11, "u", 10000))
    assert not np.array_equal(u, rng.uniform_stream(12, "u", 10000))


def test_permutation_is_a_permutation():
    p = rng.permutation(3, "perm", 257)
    assert sorted(p.tolist()) == list(range(257))


def test_choice_from_probs_frequencies():
    draws = rng.choice_from_probs(7, "c", 200000, [0.7, 0.2, 0.1])
    freq = np.bincount(draws, minlength=3) / 200000
    assert np.allclose(freq, [0.7, 0.2, 0.1], atol=0.01)


_MASK = (1 << 64) - 1


def _ref_words(seed, tag, n, offset=0):
    """Words of a stream by the big-int recipe, one at a time."""
    base = rng.stream_base(seed, tag)
    return [rng.splitmix64((base + offset + i) & _MASK) for i in range(n)]


class TestChunkedStreams:
    """Streams are mixed in chunks of ``rng._CHUNK`` words; every word and
    double equals the big-int recipe whatever the chunk boundaries."""

    C = rng._CHUNK

    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 3 * C + 5])
    def test_words_equal_the_big_int_recipe(self, n):
        words = rng.u64_stream(5, "chunks", n)
        assert words.dtype == np.uint64 and words.shape == (n,)
        assert [int(w) for w in words] == _ref_words(5, "chunks", n)

    @pytest.mark.parametrize("offset,n", [(C - 3, 7), (C - 1, C + 2), (2 * C + 1, C),
                                          (5, 3 * C + 5)])
    def test_offsets_across_chunk_boundaries(self, offset, n):
        words = rng.u64_stream(9, "off", n, offset=offset)
        assert [int(w) for w in words] == _ref_words(9, "off", n, offset)
        whole = rng.u64_stream(9, "off", offset + n)
        assert words.tobytes() == whole[offset:].tobytes()

    @pytest.mark.parametrize("before_wrap", [0, 1, 3, C - 2])
    def test_counters_wrap_past_two_to_the_64(self, before_wrap):
        n = self.C + 9
        offset = (1 << 64) - rng.stream_base(2, "wrap") - before_wrap
        words = rng.u64_stream(2, "wrap", n, offset=offset)
        assert [int(w) for w in words] == _ref_words(2, "wrap", n, offset)
        assert int(words[before_wrap]) == rng.splitmix64(0)

    @pytest.mark.parametrize("offset", [(1 << 64) - 5, (1 << 63) + 3, (1 << 64) - C - 1])
    def test_offsets_near_two_to_the_64(self, offset):
        words = rng.u64_stream(1, "far", self.C + 9, offset=offset)
        assert [int(w) for w in words] == _ref_words(1, "far", self.C + 9, offset)

    @pytest.mark.parametrize("n,offset", [(0, 0), (1, 0), (3 * C + 5, 0), (C + 1, C - 1),
                                          (100_000, 17)])
    def test_uniform_is_the_top_53_bits(self, n, offset):
        words = rng.u64_stream(4, "u", n, offset)
        want = (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        got = rng.uniform_stream(4, "u", n, offset)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_fill_stream_writes_into_views(self):
        block = np.full((2, 3 * self.C + 5), -1.0)
        rng.fill_stream(block[1], 6, "row")
        assert block[1].tobytes() == rng.uniform_stream(6, "row", block.shape[1]).tobytes()
        assert (block[0] == -1.0).all()
        words = np.zeros(self.C + 3, dtype=np.uint64)
        rng.fill_stream(words, 6, "row", offset=4)
        assert words.tobytes() == rng.u64_stream(6, "row", self.C + 3, 4).tobytes()

    def test_mixer_in_place_equals_new_array(self):
        x = rng.u64_stream(1, "x", 1000)
        want = rng._splitmix64_array(x)
        got = x.copy()
        assert rng._splitmix64_array(got, got, np.empty_like(got)) is got
        assert got.tobytes() == want.tobytes()
        assert [int(v) for v in want[:50]] == [rng.splitmix64(int(v)) for v in x[:50]]


class TestPermutation:
    """The words of one stream are distinct (splitmix64 is a bijection on
    uint64), so the default argsort gives the stable argsort's order."""

    def test_equals_stable_argsort_up_to_5000(self):
        for n in range(5001):
            keys = rng.u64_stream(n, "perm", n)
            got = rng.permutation(n, "perm", n)
            assert np.array_equal(got, np.argsort(keys, kind="stable")), n

    def test_equals_stable_argsort_at_100k(self):
        keys = rng.u64_stream(8, "shuffle_rows", 100_000)
        assert len(np.unique(keys)) == len(keys)
        assert np.array_equal(rng.permutation(8, "shuffle_rows", 100_000),
                              np.argsort(keys, kind="stable"))


def test_uniform_stream_allocates_its_output_and_two_chunks():
    n = 1_000_000
    rng.uniform_stream(3, "alloc", n)   # first calls import lazily; trace a warm call
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        u = rng.uniform_stream(3, "alloc", n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunks = 2 * 8 * rng._CHUNK
    assert len(u) == n
    assert peak - before < 8 * n + chunks + 16_384, peak - before
