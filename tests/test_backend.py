"""SV head: pooling, embedding, classifier loss, cosine scoring."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svadapt.backend import (
    ClassifierHead,
    DegenerateEmbeddingWarning,
    SVHead,
    SpeakerEmbedding,
    cosine_score,
    pool_and_embed,
    train_loss,
    write_embeddings,
)
from svadapt.tensor import Tensor


def identity_head(e=4):
    head = SVHead(e, seed=0)
    head.fc1_w.data[...] = np.eye(e)
    head.fc2_w.data[...] = np.eye(e)
    head.fc1_b.data[...] = 0.0
    head.fc2_b.data[...] = 0.0
    return head


class TestPoolAndEmbed:
    def test_constant_sequence_pools_to_row(self):
        v = np.array([0.5, 1.5, 2.5, 3.5])
        out = pool_and_embed(Tensor(np.tile(v, (6, 1))), identity_head())
        np.testing.assert_allclose(out.data, [v], atol=1e-12)

    def test_two_frames_average(self):
        a = np.array([2.0, 4.0, 6.0, 8.0])
        b = np.array([0.0, 0.0, 0.0, 0.0])
        out = pool_and_embed(Tensor(np.stack([a, b])), identity_head())
        np.testing.assert_allclose(out.data, [(a + b) / 2.0], atol=1e-12)

    def test_identity_network_passes_nonnegative_input(self):
        rows = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        out = pool_and_embed(Tensor(rows), identity_head())
        np.testing.assert_allclose(out.data, rows.mean(axis=0, keepdims=True), atol=1e-12)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="non-empty"):
            pool_and_embed(Tensor(np.zeros((0, 4))), identity_head())

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant_over_frames(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(8, 4))
        head = SVHead(4, seed=1)
        base = pool_and_embed(Tensor(frames), head).data
        perm = rng.permutation(8)
        shuffled = pool_and_embed(Tensor(frames[perm]), head).data
        np.testing.assert_allclose(shuffled, base, atol=1e-12)


class TestTrainLoss:
    def test_single_speaker_is_certain(self):
        clf = ClassifierHead(4, num_speakers=1, seed=0)
        emb = Tensor(np.random.default_rng(1).normal(size=(1, 4)))
        assert train_loss([emb], [0], clf).item() == 0.0

    def test_uniform_logits_give_log_speakers(self):
        clf = ClassifierHead(4, num_speakers=10, seed=0)
        clf.w.data[...] = 0.0
        clf.b.data[...] = 0.0
        emb = Tensor(np.random.default_rng(2).normal(size=(1, 4)))
        assert abs(train_loss([emb], [3], clf).item() - math.log(10.0)) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        clf = ClassifierHead(4, num_speakers=5, seed=0)
        embs = [Tensor(rng.normal(size=(1, 4))) for _ in range(3)]
        labels = [0, 4, 2]
        logits = np.concatenate([e.data for e in embs]) @ clf.w.data + clf.b.data
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(probs[i, l]) for i, l in enumerate(labels)])
        assert abs(train_loss(embs, labels, clf).item() - expected) < 1e-12


class TestCosineScore:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_score(v, v) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_negated_vectors(self):
        v = np.array([0.3, -1.2, 4.0])
        assert abs(cosine_score(v, -v) - (-1.0)) < 1e-12

    def test_degenerate_norm_scores_zero_with_warning(self):
        with pytest.warns(DegenerateEmbeddingWarning):
            assert cosine_score(np.zeros(3), np.ones(3)) == 0.0

    @given(st.integers(0, 1000), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert abs(cosine_score(alpha * a, beta * b) - cosine_score(a, b)) < 1e-12

    def test_same_bits_as_linalg_norm_expression(self):
        # the plain expression cosine_score replaced, kept as the reference
        def reference(va, vb):
            na = float(np.linalg.norm(va))
            nb = float(np.linalg.norm(vb))
            if na < 1e-12 or nb < 1e-12:
                return 0.0
            return float(np.dot(va, vb) / (na * nb))

        rng = np.random.default_rng(60)
        for _ in range(2000):
            n = int(rng.integers(1, 70))
            a = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9)
            b = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9)
            got, want = cosine_score(a, b), reference(a, b)
            assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("tiny", [0.0, 1e-13, 5e-324])
    def test_zero_norm_side_scores_zero_and_warns(self, tiny):
        zero = np.full(4, tiny)
        other = np.array([1.0, -2.0, 0.5, 3.0])
        for a, b in ((zero, other), (other, zero), (zero, zero)):
            with pytest.warns(DegenerateEmbeddingWarning):
                assert cosine_score(a, b) == 0.0


class TestEmbeddingExport:
    def test_rows_round_trip(self, tmp_path):
        embs = [
            SpeakerEmbedding("u1", np.array([1.25, -2.5])),
            SpeakerEmbedding("u2", np.array([0.0, 3.75])),
        ]
        path = tmp_path / "emb.txt"
        write_embeddings(path, embs)
        lines = path.read_text().splitlines()
        assert lines[0].split()[0] == "u1"
        assert float(lines[0].split()[1]) == 1.25
        assert float(lines[1].split()[2]) == 3.75
