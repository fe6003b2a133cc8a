"""Deterministic randomness built on SplitMix64, plus the FNV-1a hash.

Every random quantity in the package (weight init, corpus synthesis, batch
order) comes from a `Stream` keyed by a 64-bit seed and a string label.
Streams derived from different labels are independent, so components never
share generator state and any artifact is a pure function of its config.
SplitMix64 is a published, fixed algorithm; the only platform dependence
left is libm's log/cos/sin used by the Box-Muller transform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a bytes-like object, by the plain byte loop.
    It names every stream (a label is a few bytes) and folds a checkpoint's
    32-byte backbone sha256 to its u64 witness."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function applied elementwise to uint64 states."""
    z = x.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _words(base, idx: np.ndarray) -> np.ndarray:
    """Word idx (1-based, uint64) of the streams with these uint64 bases."""
    with np.errstate(over="ignore"):
        return _mix(base + idx * np.uint64(_GOLDEN))


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles uniform on [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)) * 2.0**-53


def _box_muller(w1: np.ndarray, w2: np.ndarray) -> tuple:
    """Standard normal pairs (r cos theta, r sin theta) from two word arrays
    of one length; u1 is shifted into (0, 1] so log never sees zero."""
    u1 = (_unit(w1) * (1.0 - 2.0**-53)) + 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * _unit(w2)
    return r * np.cos(theta), r * np.sin(theta)


def _base(seed: int, label: str) -> int:
    """A stream's base: the seed XOR the FNV-1a hash of its label."""
    return (seed ^ fnv1a64(label.encode("utf-8"))) & _MASK64


def _bases(seed: int, labels) -> np.ndarray:
    return np.array([_base(seed, label) for label in labels], dtype=np.uint64)


class Stream:
    """A seekable SplitMix64 stream identified by (seed, label).

    The stream state is the counter of how many 64-bit words were drawn;
    word i is mix(base + (i+1) * golden) where base folds the seed and the
    FNV-1a hash of the label. Disjoint labels give unrelated streams.
    """

    def __init__(self, seed: int, label: str):
        self._base = _base(seed, label)
        self._count = 0

    def words(self, n: int) -> np.ndarray:
        """Next n raw uint64 words."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _words(np.uint64(self._base), idx)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), using the top 53 bits of each word."""
        return _unit(self.words(n))

    def gaussian(self, shape) -> np.ndarray:
        """Standard normal samples via Box-Muller on uniform pairs: the
        first half of the words give u1, the second half u2."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        cos, sin = _box_muller(self.words(half), self.words(half))
        return np.concatenate([cos, sin])[:n].reshape(shape)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        m = len(items)
        if m < 2:
            return
        draws = self.words(m - 1)
        for i in range(m - 1, 0, -1):
            j = int(draws[m - 1 - i] % np.uint64(i + 1))
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, m: int, k: int) -> list:
        """k of the indices 0..m-1 without replacement: the first k slots of
        a partial Fisher-Yates pass over `list(range(m))`, which is kept as
        a dict of the displaced slots, so it costs O(k) whatever m is."""
        if k > m:
            raise ValueError(f"cannot sample {k} from {m} items")
        swaps = (self.words(k) % np.arange(m, m - k, -1, dtype=np.uint64)).tolist()
        displaced, chosen = {}, []
        for i, offset in enumerate(swaps):
            j = i + offset
            chosen.append(displaced.get(j, j))
            displaced[j] = displaced.get(i, i)
        return chosen


def gaussians(seed: int, labels, sizes) -> np.ndarray:
    """`np.concatenate([Stream(seed, l).gaussian(n) for l, n in
    zip(labels, sizes)])` bit for bit, from one SplitMix64 and one
    Box-Muller pass over all the streams."""
    sizes = np.asarray(sizes, dtype=np.int64)
    halves = (sizes + 1) // 2
    starts = np.cumsum(halves) - halves  # each stream's offset into the pairs
    bases = np.repeat(_bases(seed, labels), halves)
    idx = (np.arange(1, halves.sum() + 1) - np.repeat(starts, halves)).astype(np.uint64)
    cos, sin = _box_muller(
        _words(bases, idx), _words(bases, idx + np.repeat(halves, halves).astype(np.uint64))
    )
    # stream j gives its run of cosines, then its run of sines, cut to n_j
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    h, at = np.repeat(halves, sizes), np.repeat(starts, sizes) + k
    return np.concatenate([cos, sin])[np.where(k < h, at, at + cos.size - h)]


def randints(seed: int, labels, n: int) -> np.ndarray:
    """One integer uniform on [0, n) per label, from the first word of
    `Stream(seed, label)`. Modulo bias is ~2^-64 * n."""
    return (_words(_bases(seed, labels), np.uint64(1)) % np.uint64(n)).astype(np.int64)


def xavier_uniform(shape, seed: int, label: str) -> np.ndarray:
    """A [fan_in, fan_out] weight, centered uniform with half-width
    sqrt(6 / (fan_in + fan_out)), drawn from the stream (seed, label)."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    stream = Stream(seed, label)
    n = int(np.prod(shape))
    return ((stream.uniform(n) * 2.0 - 1.0) * bound).reshape(shape)
