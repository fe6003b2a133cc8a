"""FNV-1a 64: published vectors, the byte loop as oracle, and the pinned
backbone hash that checkpoint trailers carry. The batched stream draws
against one `Stream` per label."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svadapt.backbone import EncoderConfig
from svadapt.harness import backbone_checkpoint
from svadapt.model import SVModel
from svadapt.rng import Stream, fnv1a64, gaussians, randints

BLOCK = 1 << 16  # bytes per dot product
STAGE = 1 << 17  # bytes per pass of the bit stages


def fnv1a64_loop(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def blob(n: int, seed: int, fill) -> bytes:
    if fill is not None:
        return bytes([fill]) * n
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


@pytest.mark.parametrize(
    "data, want",
    [(b"", 0xCBF29CE484222325), (b"a", 0xAF63DC4C8601EC8C), (b"foobar", 0x85944171F73967E8)],
)
def test_published_vectors(data, want):
    assert fnv1a64(data) == want


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=600))
def test_matches_byte_loop_on_short_strings(data):
    assert fnv1a64(data) == fnv1a64_loop(data)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(0, 3 * STAGE),
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from([None, 0, 255]),
)
@example(n=0, seed=0, fill=None)
@example(n=63, seed=1, fill=None)
@example(n=64, seed=2, fill=None)
@example(n=65, seed=3, fill=None)
@example(n=BLOCK - 1, seed=4, fill=None)
@example(n=BLOCK, seed=5, fill=None)
@example(n=BLOCK + 1, seed=6, fill=None)
@example(n=2 * BLOCK + 64 + 7, seed=7, fill=None)
@example(n=2 * BLOCK + 64 + 7, seed=0, fill=255)
@example(n=STAGE - 1, seed=8, fill=None)
@example(n=STAGE, seed=9, fill=None)
@example(n=STAGE + 64 + 7, seed=10, fill=None)
@example(n=STAGE + 64 + 7, seed=0, fill=0)
@example(n=3 * STAGE + 1, seed=11, fill=None)
def test_matches_byte_loop_across_blocks(n, seed, fill):
    data = blob(n, seed, fill)
    assert fnv1a64(data) == fnv1a64_loop(data)


def test_desk_backbone_hash_is_pinned():
    # computed by the byte loop over these 1,081,856 bytes; a checkpoint
    # trailer written before the numpy hash must still verify
    model = SVModel(EncoderConfig(), 32, "inter", None, 0)
    assert sum(p.data.nbytes for p in model.encoder.params()) == 1_081_856
    assert backbone_checkpoint(model).backbone_hash == 0xB0204ECD6A0993BB


@pytest.mark.parametrize(
    "sizes", [[1], [2], [3], [20], [21], [1200], [1, 2, 3, 0, 20, 21, 1200, 7]]
)
def test_batched_gaussians_equal_one_stream_per_label(sizes):
    labels = [f"noise/{i}/{n}" for i, n in enumerate(sizes)]
    want = np.concatenate([Stream(17, lab).gaussian(n) for lab, n in zip(labels, sizes)])
    got = gaussians(17, labels, sizes)
    assert got.tobytes() == want.tobytes()


def test_batched_randints_equal_first_word_of_each_stream():
    labels = [f"length/{i}" for i in range(40)]
    want = [int(Stream(2**63 + 9, lab).words(1)[0] % np.uint64(31)) for lab in labels]
    assert randints(2**63 + 9, labels, 31).tolist() == want
