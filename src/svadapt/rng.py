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
_FNV_STAGE = 1 << 17  # bytes per pass of the eight bit stages, sized to stay in L2
_FNV_BLOCK = 1 << 16  # bytes per dot product with the powers table
# _FNV_POWERS[i] = P^(_FNV_BLOCK - i) mod 2^64; a block of n bytes uses the last n
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_BLOCK, _FNV_PRIME, np.uint64))[::-1].copy()


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a bytes-like object, exact. Whole 64-byte words
    go through `_fnv1a64_block` in numpy, _FNV_STAGE bytes at a time; the
    last < 64 bytes (so every short string) go through the byte loop. A
    memoryview must have byte format, so that `len(data)` counts bytes.

    On the 1.08 MB desk backbone one call takes 8.5-13 ms, a Python byte
    loop ~150 ms (2-core x86-64 Xeon, Python 3.11, numpy 2.4)."""
    h = _FNV_OFFSET
    whole = len(data) - len(data) % 64
    if whole:
        arr = np.frombuffer(data, dtype=np.uint8, count=whole)
        for start in range(0, whole, _FNV_STAGE):
            h = _fnv1a64_block(h, arr[start : start + _FNV_STAGE])
    for b in data[whole:]:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_block(h: int, b: np.ndarray) -> int:
    """FNV-1a state after bytes `b` (a multiple of 64, at most _FNV_STAGE)
    from state `h`.

    XOR with a byte changes only the low byte l_i of the state h_i, so
    h_i ^ b_i = h_i + d_i with d_i = (l_i ^ b_i) - l_i, and the state after
    n bytes is P^n h + sum_i d_i P^(n-i), a wrapping uint64 dot product.
    The low bytes follow l_{i+1} = ((l_i ^ b_i) * 0xB3) & 0xFF. As 0xB3 is
    odd, bit k of x * 0xB3 is x_k XOR a function of x's lower bits, so given
    bits < k of every l_i, bit k of l is the exclusive prefix XOR of
    c_i = bit k of ((l_i ^ b_i) * 0xB3), with bit k of l_i taken as 0. Each
    of the 8 prefix XORs runs on bits packed into uint64 words, and each
    stage adds its bit to y = l ^ b directly, so l is formed once, at the
    end. The dot product then runs in _FNV_BLOCK pieces over _FNV_POWERS.

    A stage costs ~30 numpy calls whatever n is, so n is as large as keeps
    a stage's arrays in L2 next to a checkpoint's own buffers. On the desk
    backbone, interleaved on the machine above: stages of 64 / 128 / 256
    KiB hashed it in 15.7 / 12.8 / 11.4 ms alone, but inside checkpoint
    loads 128 KiB beat 256 KiB (14.5 against 17.4 ms per load).
    """
    n = b.size
    y = b.copy()
    x = np.empty(n, dtype=np.uint8)
    for k in range(8):
        np.multiply(y, np.uint8(0xB3), out=x)
        np.bitwise_and(x, np.uint8(1 << k), out=x)
        c = np.packbits(x, bitorder="little").view("<u8")
        w = c.copy()
        for s in (1, 2, 4, 8, 16, 32):
            w ^= w << np.uint64(s)  # inclusive prefix XOR within each word
        parity = w >> np.uint64(63)
        # invert a word when the bits before it, and bit k of l_0, XOR to 1
        flip = np.bitwise_xor.accumulate(parity) ^ parity ^ np.uint64((h >> k) & 1)
        w ^= c ^ (flip * np.uint64(_MASK64))
        bits = np.unpackbits(w.view(np.uint8), bitorder="little")
        np.multiply(bits, np.uint8(1 << k), out=bits)
        y ^= bits
    low = np.bitwise_xor(y, b, out=x)
    d = np.subtract(y, low, dtype=np.int64).view(np.uint64)
    for start in range(0, n, _FNV_BLOCK):
        piece = d[start : start + _FNV_BLOCK]
        powers = _FNV_POWERS[_FNV_BLOCK - piece.size :]
        h = (h * int(powers[0]) + int(np.dot(piece, powers))) & _MASK64
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
        self.seed = seed
        self.label = label
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

    def sample(self, items: list, k: int) -> list:
        """k items without replacement via a partial Fisher-Yates pass."""
        pool = list(items)
        m = len(pool)
        if k > m:
            raise ValueError(f"cannot sample {k} from {m} items")
        draws = self.words(k)
        for i in range(k):
            j = i + int(draws[i] % np.uint64(m - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


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


def xavier_uniform(shape, fan_in: int, fan_out: int, seed: int, label: str) -> np.ndarray:
    """Centered uniform with half-width sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    stream = Stream(seed, label)
    n = int(np.prod(shape))
    return ((stream.uniform(n) * 2.0 - 1.0) * bound).reshape(shape)
