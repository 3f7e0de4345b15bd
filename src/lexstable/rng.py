"""Deterministic, portable random streams.

Every random draw in this package comes from SplitMix64 (Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
run in counter mode: output ``i`` of a stream seeded with ``s`` is
``mix64(s + (i+1) * GOLDEN)`` in wrapping 64-bit arithmetic, where
``mix64`` is the standard xor-shift/multiply finalizer. Counter mode
means any block of a stream, or the same block of many streams
(:func:`uniform_keys`), can be produced in bulk with numpy. Raw outputs
and uniforms take only integer arithmetic and an exact scaling, so they
and every subsample draw are identical on every platform and Python
version; :meth:`Stream.gaussians` goes through numpy's ``log``, ``cos``
and ``sin``, so it repeats on one host but may differ across CPUs.

Sub-stream seeds are derived with 8-byte BLAKE2b over a tagged, length-
prefixed serialization of the parts (see :func:`derive_seed`), so
per-author / per-size / per-index streams are independent and stable.

The interpreter's own generators (``random`` module, numpy's default
``Generator``) are deliberately never used: their streams are not
guaranteed stable across versions.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = float(2.0 ** -53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_seed(master_seed: int, *parts: int | str) -> int:
    """Mix a master seed with identifying parts into a 64-bit sub-seed.

    Parts may be ints or strings; each is serialized with a type tag and
    (for strings) a length prefix, so ("ab", 1) and ("a", "b1") cannot
    collide. Hash is 8-byte BLAKE2b, a standardized algorithm, so the
    mapping never changes across platforms or Python versions.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master_seed & _U64_MASK))
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        if isinstance(part, int):
            h.update(b"i")
            h.update(struct.pack("<q", part))
        else:
            raw = part.encode("utf-8")
            h.update(b"s")
            h.update(struct.pack("<I", len(raw)))
            h.update(raw)
    return int.from_bytes(h.digest(), "little")


def uniform_keys(seeds: Sequence[int], n: int) -> np.ndarray:
    """The first ``n`` uniforms of each seed's stream as 53-bit integer
    keys, one uint64 row per seed: row ``r`` times ``2**-53`` equals
    ``Stream(seeds[r]).uniforms(n)`` exactly, so the keys sort, and tie,
    exactly as the uniforms do."""
    base = np.array([s & _U64_MASK for s in seeds], dtype=np.uint64).reshape(-1, 1)
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    return _mix64(base + steps) >> np.uint64(11)


def stable_smallest(keys: np.ndarray, m: int) -> np.ndarray:
    """Row-wise ``np.argsort(keys, axis=1, kind="stable")[:, :m]``: the
    indices of each row's ``m`` smallest keys, ordered by (key, index).

    Rows are partitioned rather than sorted; a row where a key equal to
    its m-th smallest lies outside the partition is sorted in full, so
    ties resolve exactly as the stable sort resolves them.
    """
    if m >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")
    part = np.argpartition(keys, m - 1, axis=1)[:, :m]
    part.sort(axis=1)
    order = np.argsort(np.take_along_axis(keys, part, axis=1), axis=1, kind="stable")
    out = np.take_along_axis(part, order, axis=1)
    cut = np.take_along_axis(keys, out[:, -1:], axis=1)
    tied = np.count_nonzero(keys <= cut, axis=1) > m
    if tied.any():
        out[tied] = np.argsort(keys[tied], axis=1, kind="stable")[:, :m]
    return out


# A ``uniform_keys`` key has 53 bits, so a column index below 2**11 fits
# beside it in one uint64.
_INDEX_BITS = 11
PACKED_COLUMNS = 1 << _INDEX_BITS


def packed_smallest(keys: np.ndarray, m: int) -> np.ndarray:
    """``stable_smallest(keys, m)`` for keys below 2**53, as
    ``uniform_keys`` makes them, in rows of at most ``PACKED_COLUMNS``.

    Each key is packed with its index as ``key << 11 | index``. Packed
    values are distinct and sort in (key, index) order, so one partition
    and one sort of them give the stable order, ties included.
    """
    n = keys.shape[1]
    packed = (keys << np.uint64(_INDEX_BITS)) | np.arange(n, dtype=np.uint64)
    if m < n:
        packed = np.partition(packed, m - 1, axis=1)[:, :m]
    packed.sort(axis=1)
    return (packed & np.uint64(PACKED_COLUMNS - 1)).astype(np.intp)


class Stream:
    """A seeded SplitMix64 counter stream with vectorized draw methods."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _U64_MASK)
        self._pos = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1): top 53 bits of each raw output."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller: identical on one host, not across CPUs."""
        m = (n + 1) // 2
        u1 = np.maximum(self.uniforms(m), _INV_2_53)  # keep log() finite
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` ints uniform on [0, bound). Modulo reduction; for the
        bounds used here (< 2**31) the bias is below 2**-33."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of range(n): stable argsort of n random
        keys (53-bit keys; collisions are broken stably, so the result
        is deterministic either way)."""
        return np.argsort(self.uniforms(n), kind="stable")
