"""Speaker-verification head: temporal average pooling, two FC layers, a
training-only classifier, and cosine trial scoring."""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import tensor as tt
from .fileio import atomic_write
from .tensor import Module, Param, Tensor


class DegenerateEmbeddingWarning(UserWarning):
    """A trial embedding had (near-)zero norm; its scores are defined as 0."""


class SVHead(Module):
    """Average pooling over time, then fc1 + ReLU + fc2, both e -> e."""

    def __init__(self, embed_dim: int, seed: int):
        e = embed_dim
        self.fc1_w = Param.xavier("head.fc1.w", (e, e), seed)
        self.fc1_b = Param.zeros("head.fc1.b", e)
        self.fc2_w = Param.xavier("head.fc2.w", (e, e), seed)
        self.fc2_b = Param.zeros("head.fc2.b", e)


class ClassifierHead(Module):
    """Linear map from embeddings to training-speaker logits. Used only
    while training; never serialized into evaluation checkpoints."""

    def __init__(self, embed_dim: int, num_speakers: int, seed: int):
        self.w = Param.xavier("classifier.w", (embed_dim, num_speakers), seed)
        self.b = Param.zeros("classifier.b", num_speakers)


def pool_and_embed(features: Tensor, head: SVHead) -> Tensor:
    """Mean over time frames as a [1, e] row, then the two FC layers."""
    pooled = tt.mean_rows(features)
    h = tt.relu(tt.matmul(pooled, head.fc1_w, head.fc1_b))
    return tt.matmul(h, head.fc2_w, head.fc2_b)


def train_loss(embeddings, labels, clf: ClassifierHead) -> Tensor:
    """Softmax cross-entropy over training speakers for a batch of [1, e]
    embedding tensors."""
    logits = tt.matmul(tt.concat_rows(embeddings), clf.w, clf.b)
    return tt.softmax_cross_entropy(logits, labels)


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two float64 embedding vectors; a (near-)zero-norm
    side makes the score 0 and records a degenerate-embedding warning."""
    # sqrt(v . v) is what np.linalg.norm computes for a vector, minus its wrapper
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    if na < 1e-12 or nb < 1e-12:
        warnings.warn("zero-norm embedding scored as 0", DegenerateEmbeddingWarning)
        return 0.0
    return float(a.dot(b) / (na * nb))


def write_embeddings(path, embeddings: dict) -> None:
    """Text rows 'utterance_id v1 v2 ... ve' of {utterance id: vector}, in
    id order, for debugging, written atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for utt, vector in sorted(embeddings.items()):
            values = " ".join(f"{v:.17e}" for v in vector)
            fh.write(f"{utt} {values}\n")
