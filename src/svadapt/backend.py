"""Speaker-verification head: temporal average pooling, two FC layers, a
training-only classifier, and cosine trial scoring."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .fileio import atomic_write
from .tensor import Param, Tensor


class DegenerateEmbeddingWarning(UserWarning):
    """A trial embedding had (near-)zero norm; its scores are defined as 0."""


@dataclass
class SpeakerEmbedding:
    utterance: str
    vector: np.ndarray


class SVHead:
    """Average pooling over time, then fc1 + ReLU + fc2, both e -> e."""

    def __init__(self, embed_dim: int, seed: int):
        e = embed_dim
        self.fc1_w = Param.xavier("head.fc1.w", (e, e), seed)
        self.fc1_b = Param.zeros("head.fc1.b", e)
        self.fc2_w = Param.xavier("head.fc2.w", (e, e), seed)
        self.fc2_b = Param.zeros("head.fc2.b", e)

    def params(self):
        return [self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b]


class ClassifierHead:
    """Linear map from embeddings to training-speaker logits. Used only
    while training; never serialized into evaluation checkpoints."""

    def __init__(self, embed_dim: int, num_speakers: int, seed: int):
        self.num_speakers = num_speakers
        self.w = Param.xavier("classifier.w", (embed_dim, num_speakers), seed)
        self.b = Param.zeros("classifier.b", num_speakers)

    def params(self):
        return [self.w, self.b]


def pool_and_embed(features: Tensor, head: SVHead) -> Tensor:
    """Mean over time frames, then the two FC layers."""
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"pool_and_embed needs a non-empty [T, e] input, got {features.shape}")
    pooled = tt.mean_rows(features)
    h = tt.relu(tt.linear_vec(pooled, head.fc1_w, head.fc1_b))
    return tt.linear_vec(h, head.fc2_w, head.fc2_b)


def train_loss(embeddings, labels, clf: ClassifierHead) -> Tensor:
    """Softmax cross-entropy over training speakers for a batch of
    embedding tensors."""
    logits = tt.linear(tt.stack_rows(embeddings), clf.w, clf.b)
    return tt.softmax_cross_entropy(logits, labels)


def cosine_score(a, b) -> float:
    """Cosine similarity of two embeddings; a (near-)zero-norm side makes
    the score 0 and records a degenerate-embedding warning."""
    va = a.vector if isinstance(a, SpeakerEmbedding) else np.asarray(a, dtype=np.float64)
    vb = b.vector if isinstance(b, SpeakerEmbedding) else np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na < 1e-12 or nb < 1e-12:
        warnings.warn("zero-norm embedding scored as 0", DegenerateEmbeddingWarning)
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def write_embeddings(path, embeddings) -> None:
    """Text rows 'utterance_id v1 v2 ... ve' for debugging, written
    atomically."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for emb in embeddings:
            values = " ".join(f"{v:.17e}" for v in emb.vector)
            fh.write(f"{emb.utterance} {values}\n")
