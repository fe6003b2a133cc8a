"""FNV-1a 64: published vectors, the byte loop as oracle, and the pinned
backbone witness that checkpoint trailers carry. The batched stream draws
against one `Stream` per label, the index sampler against a partial
Fisher-Yates pass over a list, and a lint that keeps every draw in the
package on `Stream`."""

import ast
import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svadapt
from svadapt.backbone import EncoderConfig
from svadapt.harness import backbone_checkpoint
from svadapt.model import SVModel
from svadapt.rng import Stream, fnv1a64, gaussians, randints


def fnv1a64_loop(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


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


def test_desk_backbone_hash_is_pinned():
    # the byte loop over the sha256 of these 1,081,856 bytes, joined by
    # `tobytes`; a backbone hash written by format versions 3 and 4 must
    # still verify
    model = SVModel(EncoderConfig(), 32, "inter", None, 0)
    backbone = b"".join(p.data.tobytes() for p in model.encoder.params())
    assert len(backbone) == 1_081_856
    assert fnv1a64_loop(hashlib.sha256(backbone).digest()) == 0x61C5E7EA7D4E1F7A
    assert backbone_checkpoint(model).backbone_hash == 0x61C5E7EA7D4E1F7A


@pytest.mark.parametrize("m, k", [(0, 0), (1, 1), (5, 0), (5, 3), (7, 7), (200, 50)])
def test_sample_indices_equal_a_partial_fisher_yates_pass(m, k):
    draws = Stream(9, "pool").words(k)
    pool = list(range(m))
    for i in range(k):
        j = i + int(draws[i] % np.uint64(m - i))
        pool[i], pool[j] = pool[j], pool[i]
    stream = Stream(9, "pool")
    assert stream.sample_indices(m, k) == pool[:k]
    assert stream.words(1)[0] == Stream(9, "pool").words(k + 1)[k]


def test_sample_indices_refuse_more_than_the_pool():
    with pytest.raises(ValueError, match="cannot sample 4 from 3"):
        Stream(0, "pool").sample_indices(3, 4)


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


def unseeded_draws(source: str) -> list:
    """(line, what) of each import of `random` and each use of
    `numpy.random` in `source`; `os.urandom` is not one."""
    tree = ast.parse(source)
    numpy_names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random" or alias.name.startswith("numpy.random"):
                    found.append((node.lineno, f"import {alias.name}"))
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [alias.name for alias in node.names]
            if (node.module.split(".")[0] == "random" or node.module.startswith("numpy.random")
                    or (node.module == "numpy" and "random" in names)):
                found.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append((node.lineno, f"{node.value.id}.random"))
    return found


@pytest.mark.parametrize("source, found", [
    ("import random", 1),
    ("from random import shuffle", 1),
    ("import numpy.random as npr", 1),
    ("from numpy import random", 1),
    ("from numpy.random import default_rng", 1),
    ("import numpy as np\nnp.random.default_rng(0)", 1),
    ("import numpy\ndef f():\n    return numpy.random.rand()", 1),
    ("import os\nos.urandom(4)", 0),
    ("from . import random_things\nimport numpy as np\nnp.linalg.norm", 0),
])
def test_lint_finds_unseeded_draws(source, found):
    assert len(unseeded_draws(source)) == found


def test_package_draws_only_from_rng_streams():
    # the golden bits hold only while every draw comes from an rng.Stream
    package = pathlib.Path(svadapt.__file__).parent
    found = {str(path.relative_to(package)): unseeded_draws(path.read_text(encoding="utf-8"))
             for path in sorted(package.rglob("*.py"))}
    assert len(found) > 10
    assert {path: uses for path, uses in found.items() if uses} == {}
