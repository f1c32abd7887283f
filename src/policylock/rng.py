"""Counter-based pseudo-random primitives.

Every random quantity in this package is a pure function of
``(seed, stream tag, counter index)`` so that repeated runs, partitioned
runs, and reimplementations in other languages can reproduce frames
bit-exactly.  The algorithm is deliberately boring and fully specified:

* ``fnv1a64(tag)``: FNV-1a over the UTF-8 bytes of the tag
  (offset basis 0xcbf29ce484222325, prime 0x100000001b3).
* ``splitmix64(x)``: the standard finalizer
  ``x += 0x9E3779B97F4A7C15; z = x; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
  z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31`` (mod 2^64).
* stream base: ``splitmix64(splitmix64(seed) ^ fnv1a64(tag))``.
* word ``i`` of a stream: ``splitmix64(base + i)``.
* uniform double ``i``: top 53 bits of word ``i`` scaled by 2^-53, in [0, 1).
* permutation of ``n``: the argsort of words ``0 .. n-1``.  splitmix64 is a
  bijection on uint64, so these words are distinct and every argsort gives
  the stable one's order.

Streams are mixed in chunks of ``_CHUNK`` words through two reused buffers
and written straight into the output; the words do not depend on the chunks.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(tag: str) -> int:
    h = _FNV_BASIS
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix64_array(x: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """splitmix64 of every word of ``x``, written to ``out`` (a new array
    when None; it may be ``x`` itself) with ``tmp``, an array of ``x``'s
    shape, as scratch."""
    # uint64 arithmetic wraps mod 2^64, matching the scalar definition
    with np.errstate(over="ignore"):
        z = np.add(x, np.uint64(_GAMMA), out=out)
        tmp = np.empty_like(z) if tmp is None else tmp
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            z ^= tmp
            z *= np.uint64(mix)
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp
    return z


def stream_base(seed: int, tag: str) -> int:
    # a numpy integer seed is read as the Python int it holds
    return splitmix64(splitmix64(operator.index(seed) & _MASK) ^ fnv1a64(tag))


# words mixed per chunk: the scratch stays in cache, and no full-size
# temporary is made
_CHUNK = 8192
_STEPS = np.arange(_CHUNK, dtype=np.uint64)
_STEPS.setflags(write=False)


def fill_stream(out: np.ndarray, seed: int, tag: str, offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+len(out)`` of the (seed, tag) stream written
    into ``out`` when it is uint64, or their uniform doubles when it is
    float64; counters wrap mod 2^64."""
    start = stream_base(seed, tag) + offset
    words = np.empty(min(len(out), _CHUNK), dtype=np.uint64)
    tmp = np.empty_like(words)
    uniform = out.dtype == np.float64
    for lo in range(0, len(out), _CHUNK):
        hi = min(lo + _CHUNK, len(out))
        w, t = words[:hi - lo], tmp[:hi - lo]
        np.add(_STEPS[:hi - lo], np.uint64((start + lo) & _MASK), out=w)
        if uniform:
            _splitmix64_array(w, w, t)
            np.right_shift(w, np.uint64(11), out=w)
            # a copy, then an in-place scale: a mixed-type ufunc would cast
            # through a buffer of its own
            np.copyto(out[lo:hi], w)
            out[lo:hi] *= 2.0 ** -53
        else:
            _splitmix64_array(w, out[lo:hi], t)
    return out


def u64_stream(seed: int, tag: str, n: int, offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+n`` of the (seed, tag) stream as uint64."""
    return fill_stream(np.empty(max(n, 0), dtype=np.uint64), seed, tag, offset)


def uniform_stream(seed: int, tag: str, n: int, offset: int = 0) -> np.ndarray:
    """n uniform float64 draws in [0, 1)."""
    return fill_stream(np.empty(max(n, 0)), seed, tag, offset)


def permutation(seed: int, tag: str, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of the key stream,
    whose words are distinct (see the module docstring)."""
    return np.argsort(u64_stream(seed, tag, n))


def choice_from_probs(seed: int, tag: str, n: int, probs: np.ndarray) -> np.ndarray:
    """n categorical draws via inverse CDF on the uniform stream."""
    cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
    u = uniform_stream(seed, tag, n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64).clip(0, len(cdf) - 1)
