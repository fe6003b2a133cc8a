"""Tests for the tape-based tensor library.

Derived expectations come from independent oracles written here: a
triple-loop matrix product, direct formula evaluations, and central finite
differences. None of them reuse the library's backward path.
"""

import inspect
import itertools
import math
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svadapt import backbone as bb
from svadapt import tensor as T
from svadapt.backend import train_loss
from svadapt.harness import RunConfig, SVModel
from svadapt.tensor import Param, Tape, Tensor


def matmul_oracle(a, b):
    """Triple-loop reference product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def fd_gradient(f, param, h=1e-5):
    """Central-difference gradient of scalar f() w.r.t. every coordinate."""
    g = np.zeros_like(param.data)
    for idx in range(param.data.size):
        orig = param.data.flat[idx]
        param.data.flat[idx] = orig + h
        fp = f().item()
        param.data.flat[idx] = orig - h
        fm = f().item()
        param.data.flat[idx] = orig
        g.flat[idx] = (fp - fm) / (2 * h)
    return g


class TestMatmul:
    def test_identity_left(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_identity_right(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [6.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        out = T.layer_norm(
            Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_hand_evaluated_row(self):
        # direct evaluation of the normalization formula for [1, 2, 3]
        eps = 1e-5
        expected = [[(v - 2.0) / math.sqrt(2.0 / 3.0 + eps) for v in (1.0, 2.0, 3.0)]]
        out = T.layer_norm(
            Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3))
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-4)

    def test_affine_dominates_with_zero_gamma(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 3)))
        out = T.layer_norm(x, Tensor(np.zeros(3)), Tensor(np.full(3, 7.0)))
        np.testing.assert_array_equal(out.data, np.full((5, 3), 7.0))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 1, 3)], ids=["scalar", "vector", "rank-3"])
    def test_rejects_a_non_matrix(self, shape):
        with pytest.raises(ValueError, match=r"\[T, d\] matrix"):
            T.layer_norm(Tensor(np.ones(shape)), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    @given(st.integers(0, 2**32 - 1), st.floats(-3.0, 1.0))
    @example(seed=143, log_spread=-3.0)  # a row of variance ~5e-8, far below LN_EPS
    @settings(max_examples=30, deadline=None)
    def test_rows_standardized_before_affine(self, seed, log_spread):
        # row spreads from ~1e-3 up to ~10: each output row has zero mean and
        # the variance v / (v + LN_EPS), v the input row's biased variance
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=10.0**log_spread, size=(4, 8))
        out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        v = x.var(axis=1)
        assert np.all(np.abs(mu) < 1e-10)
        np.testing.assert_allclose(var, v / (v + T.LN_EPS), rtol=1e-12, atol=0.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(Tensor(np.zeros((2, 4))), [1, 3])
        assert abs(loss.item() - math.log(4.0)) < 1e-12

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss = T.softmax_cross_entropy(Tensor(logits), [2])
        assert loss.item() < 1e-9

    def test_against_direct_formula(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 5))
        labels = [4, 0, 2]
        # direct exp/sum evaluation
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(probs[i, l]) for i, l in enumerate(labels)])
        loss = T.softmax_cross_entropy(Tensor(logits), labels)
        assert abs(loss.item() - expected) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="label 7"):
            T.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [7])


class TestBackward:
    def test_sum_of_squares(self):
        x = Param([3.0], name="x")
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-12)

    def test_two_layer_chain_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w1 = Param(rng.normal(size=(4, 6)), name="w1")
        b1 = Param(rng.normal(size=6), name="b1")
        w2 = Param(rng.normal(size=(6, 2)), name="w2")
        x = rng.normal(size=(3, 4))

        def f():
            h = T.relu(T.matmul(Tensor(x), w1, b1))
            return T.sum_all(T.mul(T.matmul(h, w2), T.matmul(h, w2)))

        with Tape() as tape:
            tape.backward(f())
        for p in (w1, b1, w2):
            fd = fd_gradient(f, p)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(p.grad - fd) / denom) < 1e-4

    def test_frozen_param_gets_zero_gradient(self):
        frozen = Param(np.ones((3, 3)), name="frozen")
        frozen.trainable = False
        live = Param(np.ones((3, 3)), name="live")
        with Tape() as tape:
            out = T.matmul(T.matmul(Tensor(np.ones((2, 3))), frozen), live)
            tape.backward(T.sum_all(out))
        assert np.all(frozen.grad == 0.0)
        assert np.any(live.grad != 0.0)

    def test_rejects_non_scalar_loss(self):
        x = Param(np.ones(3), name="x")
        with Tape() as tape:
            out = T.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with Tape():
                    pass

    def test_shared_scalar_accumulates_across_uses(self):
        s = Param(2.0, name="s")
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0])
        with Tape() as tape:
            loss = T.sum_all(T.add(T.scale(x, s), T.scale(y, s)))
            tape.backward(loss)
        np.testing.assert_allclose(s.grad, 10.0, atol=1e-12)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        x = Param(rng.normal(size=(1, 5)), name="x")

        def f():
            return T.sum_all(T.mul(T.matmul(x, Tensor(a)), x))

        assert T.grad_check(f, [x], n_probes=20, seed=0) < 1e-8

    def test_detects_corrupted_gradient(self):
        # deliberately broken op: forward is identity, backward scales by 1.1
        def bad_identity(x):
            out = Tensor(x.data.copy())
            if T._nodes((x,)) is None:
                return out

            def bwd(g):
                T._accum(x, 1.1 * g)

            return T._record(out, bwd)

        x = Param([1.0, 2.0, 3.0], name="x")

        def f():
            return T.sum_all(T.mul(bad_identity(x), bad_identity(x)))

        assert T.grad_check(f, [x], n_probes=10, seed=0) > 0.05

    def test_a_nan_gradient_is_the_result(self):
        # max() keeps 0.0 over a NaN, which read as perfect agreement
        p = Param([[1.0, 2.0]], name="p")
        q = Param([[np.nan], [1.0]], name="q")
        result = T.grad_check(lambda: T.sum_all(T.matmul(p, q)), [p, q], n_probes=4, seed=0)
        assert np.isnan(result)

    def test_constant_function_reports_zero(self):
        x = Param([1.0, 2.0], name="x")

        def f():
            return T.sum_all(Tensor([5.0]))

        assert T.grad_check(f, [x], n_probes=5, seed=0) == 0.0

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_any_int_seed_draws_probes(self, seed):
        # probes come from an rng.Stream, which takes any Python int
        x = Param([1.0, 2.0, 3.0], name="x")

        def f():
            return T.sum_all(T.mul(x, x))

        assert T.grad_check(f, [x], n_probes=5, seed=seed) < 1e-8

    def test_rejects_out_of_range_h(self):
        x = Param([1.0], name="x")
        with pytest.raises(ValueError, match="h must be"):
            T.grad_check(lambda: T.sum_all(x), [x], h=1e-2)

    @pytest.mark.parametrize("n_probes", [0, -3])
    def test_rejects_fewer_than_one_probe(self, n_probes):
        # zero probes would report 0.0, which reads as a pass, and a
        # negative count would leave params out of the cover
        x = Param([1.0, 2.0], name="x")
        calls = []

        def f():
            calls.append(1)
            return T.sum_all(x)

        with pytest.raises(ValueError, match=f"n_probes must be at least 1, got {n_probes}"):
            T.grad_check(f, [x], n_probes=n_probes)
        assert calls == []


class TestOpGradientsAgainstFiniteDifferences:
    """Every primitive op's backward checked against central differences."""

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_graph(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        w = Param(rng.normal(size=(d, d)), name="w")
        b = Param(rng.normal(size=d), name="b")
        g = Param(rng.uniform(0.5, 1.5, size=d), name="g")
        be = Param(rng.normal(size=d), name="be")
        c = Param(rng.normal(size=3), name="c")
        s = Param(0.7, name="s")
        xs = [rng.normal(size=(4, d)) * 2.0 for _ in range(3)]

        def f():
            hs = [T.layer_norm(T.relu(T.matmul(Tensor(x), w, b)), g, be) for x in xs]
            mix = T.lincomb(T.softmax(c), hs)
            pooled = T.mean_rows(T.scale(mix, s))
            sm = T.softmax(T.concat_rows([pooled, T.mean_rows(hs[0])]))
            return T.sum_all(T.mul(sm, sm))

        err = T.grad_check(f, [w, b, g, be, c, s], n_probes=60, seed=seed)
        assert err < 1e-4

    def test_attention_style_ops(self):
        # q, k and v all derived from one param, so every attention input
        # path carries gradient back into x
        rng = np.random.default_rng(10)
        x = Param(rng.normal(size=(4, 6)), name="x")
        w = Tensor(rng.normal(size=(6, 6)))

        def f():
            q = T.matmul(x, w)
            k = T.scale(x, 0.5)
            out = T.attention(q, k, T.relu(x), num_heads=2)
            labels = [1, 0, 5, 3]
            return T.softmax_cross_entropy(out, labels)

        assert T.grad_check(f, [x], n_probes=24, seed=1) < 1e-4

    def test_vector_ops(self):
        # a single [1, k] row through the fused-bias product, as the head runs
        rng = np.random.default_rng(11)
        v = Param(rng.normal(size=(1, 5)), name="v")
        w = Param(rng.normal(size=(5, 4)), name="w")
        b = Param(rng.normal(size=4), name="b")
        r = Param(rng.normal(size=(1, 4)), name="r")

        def f():
            h = T.matmul(v, w, b)
            return T.sum_all(T.mul(T.add(h, T.scale(r, -1.0)), h))

        assert T.grad_check(f, [v, w, b, r], n_probes=30, seed=2) < 1e-4


# every mix of trainable (True) and frozen (False) inputs, all-frozen aside
MIXES2 = [m for m in itertools.product([True, False], repeat=2) if any(m)]
MIXES3 = [m for m in itertools.product([True, False], repeat=3) if any(m)]


def _mixed_params(arrays, trainable):
    params = [Param(a, name=f"p{i}") for i, a in enumerate(arrays)]
    for p, t in zip(params, trainable):
        p.trainable = t
    return params


def _assert_mix_gradients(f, params):
    """Trainable inputs pass the finite-difference check; frozen ones get
    exactly zero gradient."""
    live = [p for p in params if p.trainable]
    assert T.grad_check(f, live, n_probes=40, seed=0) < 1e-6
    for p in params:
        if not p.trainable:
            assert np.all(p.grad == 0.0), p.name


class TestFusedBias:
    @pytest.mark.parametrize("mix", MIXES3)
    def test_matmul_with_bias_gradients(self, mix):
        rng = np.random.default_rng(20)
        x, w, b = _mixed_params(
            [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)], mix
        )

        def f():
            y = T.matmul(x, w, b)
            return T.sum_all(T.mul(y, y))

        _assert_mix_gradients(f, [x, w, b])

    @pytest.mark.parametrize("mix", MIXES3)
    def test_vecmat_with_bias_gradients(self, mix):
        # the SV head's single [1, k] row through matmul, the product that
        # replaced the 1-D vecmat
        rng = np.random.default_rng(21)
        v, w, b = _mixed_params(
            [rng.normal(size=(1, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)], mix
        )

        def f():
            y = T.matmul(v, w, b)
            return T.sum_all(T.mul(y, y))

        _assert_mix_gradients(f, [v, w, b])

    @pytest.mark.parametrize("mix", MIXES2)
    def test_matmul_without_bias_gradients(self, mix):
        rng = np.random.default_rng(22)
        x, w = _mixed_params([rng.normal(size=(4, 3)), rng.normal(size=(3, 5))], mix)

        def f():
            y = T.matmul(x, w)
            return T.sum_all(T.mul(y, y))

        _assert_mix_gradients(f, [x, w])

    def test_forward_is_product_plus_bias(self):
        rng = np.random.default_rng(23)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)
        out = T.matmul(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(x, w) + b, atol=1e-12)
        row = T.matmul(Tensor(x[:1]), Tensor(w), Tensor(b))
        np.testing.assert_allclose(row.data, matmul_oracle(x[:1], w) + b, atol=1e-12)

    def test_linear_records_one_tape_op(self):
        w = Param(np.ones((3, 2)), name="w")
        with Tape() as tape:
            T.matmul(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(2)))
            T.matmul(Tensor(np.ones((1, 3))), w, Tensor(np.zeros(2)))
        assert len(tape) == 2

    def test_matmul_bias_length_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(3,\).*\(2, 4\)"):
            T.matmul(Tensor(np.zeros((2, 5))), Tensor(np.zeros((5, 4))), Tensor(np.zeros(3)))

    def test_add_rejects_bias_row(self):
        # a bias row goes through matmul's fused bias; add does not broadcast
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(4,\)"):
            T.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))


def attention_oracle(q, k, v, num_heads):
    """Per-head loop over column blocks in plain numpy."""
    dh = q.shape[1] // num_heads
    heads, weights = [], []
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        weights.append(att)
        heads.append(att @ v[:, cols])
    return np.concatenate(heads, axis=1), weights


class TestAttention:
    @pytest.mark.parametrize("num_heads", [1, 2, 3])
    def test_forward_matches_per_head_loop(self, num_heads):
        rng = np.random.default_rng(30)
        q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), num_heads)
        ref_out, ref_weights = attention_oracle(q, k, v, num_heads)
        np.testing.assert_allclose(out.data, ref_out, atol=1e-12)
        # values that are frame j's indicator in each head's first column
        # put column j of that head's weights in the output's column
        dh = 6 // num_heads
        for j in range(5):
            ind = np.zeros((5, 6))
            ind[j, ::dh] = 1.0
            got = T.attention(Tensor(q), Tensor(k), Tensor(ind), num_heads).data[:, ::dh]
            for h, want in enumerate(ref_weights):
                np.testing.assert_allclose(got[:, h], want[:, j], atol=1e-12)

    @pytest.mark.parametrize("mix", MIXES3)
    def test_gradients_under_every_trainable_mix(self, mix):
        rng = np.random.default_rng(31)
        q, k, v = _mixed_params([rng.normal(size=(4, 6)) for _ in range(3)], mix)
        target = Tensor(rng.normal(size=(4, 6)))

        def f():
            out = T.attention(q, k, v, num_heads=2)
            return T.sum_all(T.mul(out, target))

        _assert_mix_gradients(f, [q, k, v])

    def test_all_frozen_inputs_record_nothing(self):
        x = Tensor(np.ones((3, 4)))
        with Tape() as tape:
            out = T.attention(x, x, x, num_heads=2)
        assert len(tape) == 0 and out._node is None

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(3, 4\).*\(2, 4\)"):
            x = Tensor(np.zeros((3, 4)))
            T.attention(x, x, Tensor(np.zeros((2, 4))), num_heads=2)

    def test_heads_must_divide_width(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="3 heads"):
            T.attention(x, x, x, num_heads=3)


class TestGradientAccumulation:
    """First gradients are assigned without a copy, so later ones must not
    write through into an array another tensor shares."""

    def test_tensor_added_to_itself(self):
        p = Param([1.0, -2.0, 3.0], name="p")
        with Tape() as tape:
            h = T.mul(p, p)
            y = T.add(h, h)
            tape.backward(T.sum_all(y))
        np.testing.assert_array_equal(p.grad, 4.0 * p.data)
        np.testing.assert_array_equal(y.grad, np.ones(3))
        np.testing.assert_array_equal(h.grad, np.full(3, 2.0))

    def test_tensor_feeding_two_ops_leaves_shared_gradient_intact(self):
        # add hands one writable gradient array to y's inputs h and k (and
        # z shares it too); h then receives a second contribution from z,
        # which must not change k's gradient before k back-propagates
        p = Param([1.0, 2.0], name="p")
        q = Param([3.0, -1.0], name="q")
        c = Tensor([5.0, 7.0])
        d = Tensor([2.0, 3.0])
        with Tape() as tape:
            h = T.mul(p, p)
            k = T.mul(q, q)
            z = T.mul(h, c)
            y = T.add(h, k)
            tape.backward(T.sum_all(T.mul(T.add(y, z), d)))
        np.testing.assert_array_equal(k.grad, d.data)
        np.testing.assert_array_equal(z.grad, d.data)
        np.testing.assert_array_equal(h.grad, d.data * (1.0 + c.data))
        np.testing.assert_array_equal(p.grad, 2.0 * p.data * d.data * (1.0 + c.data))
        np.testing.assert_array_equal(q.grad, 2.0 * q.data * d.data)

    @pytest.mark.parametrize("last", ["mean_rows", "sum_all"])
    def test_broadcast_gradients_accumulated_into_later(self, last):
        # mean_rows and sum_all hand back read-only broadcast views; the
        # last consumer of x gives its first gradient, then two more arrive
        rng = np.random.default_rng(40)
        p = Param(rng.normal(size=(3, 4)), name="p")
        w = Tensor(rng.normal(size=(1, 4)))
        with Tape() as tape:
            x = T.mul(p, p)
            scaled = T.sum_all(T.scale(x, 2.0))
            if last == "mean_rows":
                total = T.sum_all(x)
                pooled = T.sum_all(T.mul(T.mean_rows(x), w))
            else:
                pooled = T.sum_all(T.mul(T.mean_rows(x), w))
                total = T.sum_all(x)
            tape.backward(T.add(T.add(scaled, total), pooled))
        expected = 2.0 * p.data * (w.data / 3.0 + 3.0)
        np.testing.assert_allclose(p.grad, expected, rtol=1e-14)

    def test_param_grad_buffer_survives_backward_and_zero_grad(self):
        from svadapt.optim import Adam, LrSchedule

        p = Param([1.0, 2.0], name="p")
        opt = Adam([([p], LrSchedule(0.1, 0, 10))])
        buffer = p.grad
        for _ in range(2):
            with Tape() as tape:
                tape.backward(T.sum_all(T.add(p, p)))
            assert p.grad is buffer
            np.testing.assert_array_equal(buffer, [2.0, 2.0])
            opt.step()
            opt.zero_grad()
            assert p.grad is buffer
            np.testing.assert_array_equal(buffer, [0.0, 0.0])


class TestModuleParams:
    """`Module.params()` walks the module's attributes in assignment order."""

    class Leaf(T.Module):
        def __init__(self, tag):
            self.b = Param(0.0, name=f"{tag}.b")
            self.a = Param(0.0, name=f"{tag}.a")

    def test_params_in_assignment_order(self):
        assert [p.name for p in self.Leaf("x").params()] == ["x.b", "x.a"]

    def test_nested_modules_and_lists_of_them(self):
        m = T.Module()
        m.first = self.Leaf("first")
        m.w = Param(0.0, name="w")
        m.stack = [self.Leaf("s0"), self.Leaf("s1")]
        m.empty = []
        m.last = self.Leaf("last")
        assert [p.name for p in m.params()] == [
            "first.b", "first.a", "w", "s0.b", "s0.a", "s1.b", "s1.a", "last.b", "last.a",
        ]

    def test_none_and_non_param_attributes_are_skipped(self):
        m = self.Leaf("x")
        m.nothing = None
        m.tensor = Tensor(np.ones(2))
        m.number = 3
        m.names = ["x.b", "y"]
        m.array = np.ones(3)
        assert [p.name for p in m.params()] == ["x.b", "x.a"]

    def test_underscore_attributes_are_skipped(self):
        m = T.Module()
        m._shared = Param(1.0, name="shared")
        m._child = self.Leaf("hidden")
        m.leaf = self.Leaf("x")
        m.leaf._scale = m._shared
        assert [p.name for p in m.params()] == ["x.b", "x.a"]


class TestDeterminismAndFreezing:
    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 4))

        def run():
            return T.layer_norm(
                T.relu(T.matmul(Tensor(x), Tensor(w))),
                Tensor(np.ones(4)),
                Tensor(np.zeros(4)),
            ).data

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestBackwardConsumesTape:
    """Forward keeps only what backward reads, and backward drops each
    recorded op once its closure has run, so the graph is freed while
    backward runs; tensors the caller holds keep their gradients."""

    @staticmethod
    def _desk_batch(mode="full-finetune"):
        # one desk-config training batch: 8 utterances of 45 frames
        cfg = RunConfig(mode=mode)
        model = SVModel(cfg.encoder, cfg.embed_dim, mode, cfg.adapter, seed=0)
        model.add_classifier(4)
        rng = np.random.default_rng(0)
        frames = [rng.normal(size=(45, cfg.encoder.input_dim)) for _ in range(8)]
        return model, frames, [i % 4 for i in range(8)]

    @classmethod
    def _traced_step(cls, mode):
        """Bytes tracemalloc counts live after forward, at the backward
        peak and held after backward, with the tape and the embeddings."""
        model, frames, labels = cls._desk_batch(mode)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                embs = [model.embed(f) for f in frames]
                loss = train_loss(embs, labels, model.classifier)
                forward_live = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.reset_peak()
                tape.backward(loss)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return forward_live, peak, held, tape, embs

    @staticmethod
    def _spy_records(monkeypatch):
        """Patch `tensor._record` to note, for every recorded output, the op
        that recorded it, whether `backbone.layer_forward` was running, and
        a weakref to its data."""
        records, depth = [], [0]
        record, layer_forward = T._record, bb.layer_forward

        def spy_record(out, *rest):
            op = sys._getframe(1).f_code.co_name
            records.append((op, depth[0] > 0, weakref.ref(out.data)))
            return record(out, *rest)

        def spy_layer_forward(*args, **kwargs):
            depth[0] += 1
            try:
                return layer_forward(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(T, "_record", spy_record)
        monkeypatch.setattr(bb, "layer_forward", spy_layer_forward)
        return records

    def test_backward_frees_graph_while_running(self):
        forward_live, peak, held, tape, embs = self._traced_step("full-finetune")
        assert forward_live > 5e6  # the graph of one batch is megabytes
        assert peak <= 1.1 * forward_live
        assert held <= 0.5e6
        assert len(tape) == 451
        assert all(e.grad is not None for e in embs)

    @pytest.mark.parametrize("mode, bound", [("full-finetune", 11e6), ("inner-inter", 9.5e6)])
    def test_forward_live_set(self, mode, bound):
        # keeping every op output alive until backward took 15.0 and 16.3 MB
        forward_live, _peak, _held, _tape, _embs = self._traced_step(mode)
        assert forward_live <= bound

    def test_only_caller_held_outputs_survive(self, monkeypatch):
        records = self._spy_records(monkeypatch)
        model, frames, labels = self._desk_batch("inner-inter")
        with Tape() as tape:
            embs = [model.embed(f) for f in frames]
            loss = train_loss(embs, labels, model.classifier)
            assert len(records) == len(tape) == 571
            tape.backward(loss)
        held = {id(t.data) for t in embs + [loss]}
        alive = [r() for _op, _inside, r in records if r() is not None]
        assert len(alive) == len(held)
        assert {id(a) for a in alive} == held

    @pytest.mark.parametrize("mode", ["full-finetune", "inner-inter"])
    def test_layer_sums_freed_before_backward(self, mode, monkeypatch):
        records = self._spy_records(monkeypatch)
        model, frames, labels = self._desk_batch(mode)
        with Tape() as tape:
            embs = [model.embed(f) for f in frames]
            loss = train_loss(embs, labels, model.classifier)
            sums = [r for op, inside, r in records if op == "add" and inside]
            assert len(sums) >= 2 * 4 * len(frames)  # two residual sums per layer
            assert all(r() is None for r in sums)
            tape.backward(loss)

    def test_primitive_ops_are_the_functions_that_record(self):
        # perfbench counts as primitive ops the tensor functions whose code
        # names `_record`; the module docstring lists them
        doc = T.__doc__
        para = doc[doc.index("Primitive ops"):].split("\n\n")[0]
        listed = set(re.findall(r"`(\w+)`", para))
        recording = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                     if fn.__module__ == T.__name__ and "_record" in fn.__code__.co_names}
        assert len(listed) == 13
        assert recording == listed

    def test_second_backward_raises(self):
        p = Param([1.0, 2.0], name="p")
        with Tape() as tape:
            loss = T.sum_all(T.mul(p, p))
            tape.backward(loss)
            with pytest.raises(RuntimeError, match="already ran"):
                tape.backward(loss)
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])

    def test_len_unchanged_by_backward(self):
        p = Param([1.0, 2.0], name="p")
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.relu(p), p))
            recorded = len(tape)
            tape.backward(loss)
        assert recorded == 3 and len(tape) == recorded


# ---------------------------------------------------------------------------
# same bits as the plain expressions
#
# The hot ops compute in place in arrays they allocate. Each reference below
# is the plain numpy expression the op replaced, kept here verbatim; the op's
# output and every input gradient must be byte-equal to it.


def ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma + beta
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    return out, [dx, (g * xhat).sum(axis=0), g.sum(axis=0)]


def ref_attention(q, k, v, g, num_heads):
    t, d = q.shape
    dh = d // num_heads
    c = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(t, num_heads, dh).transpose(1, 0, 2)

    def merge(a):
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(t, d)

    qh, kh, vh = split(q), split(k), split(v)
    z = (qh @ kh.transpose(0, 2, 1)) * c
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    att = e / e.sum(axis=-1, keepdims=True)
    out = merge(att @ vh)
    gh = split(g)
    ga = gh @ vh.transpose(0, 2, 1)
    gz = (att * (ga - (ga * att).sum(axis=-1, keepdims=True))) * c
    dq = merge(gz @ kh)
    dk = merge((qh.transpose(0, 2, 1) @ gz).transpose(0, 2, 1))
    dv = merge(att.transpose(0, 2, 1) @ gh)
    return out, [dq, dk, dv]


def ref_relu(x, g):
    mask = x > 0.0
    return np.where(mask, x, 0.0), [g * mask]


def ref_mean_rows(x, g):
    return x.mean(axis=0, keepdims=True), [np.broadcast_to(g / x.shape[0], x.shape)]


def ref_vecmat(v, w, b, g):
    """The 1-D product v @ w + b and its gradients w @ g, outer(v, g), g."""
    return v @ w + b, [w @ g, np.outer(v, g), g]


def ref_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.98, eps=1e-8):
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p in params:
        m[p.name] *= beta1
        m[p.name] += (1.0 - beta1) * p.grad
        v[p.name] *= beta2
        v[p.name] += (1.0 - beta2) * p.grad * p.grad
        p.data -= lr * (m[p.name] / c1) / (np.sqrt(v[p.name] / c2) + eps)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# upstream gradients: (loss built on the op's output, the gradient it sends)
def weighted_upstream(rng, shape):
    """A random writable upstream gradient G (through sum(out * G))."""
    weights = rng.normal(size=shape)
    return (lambda out: T.sum_all(T.mul(out, Tensor(weights)))), weights


def sum_upstream(shape):
    """sum_all's read-only broadcast view of ones: a write into g raises."""
    return T.sum_all, np.ones(shape)


def mean_rows_upstream(shape):
    """mean_rows's read-only broadcast of 1/T rows: a write into g raises."""
    return (lambda out: T.sum_all(T.mean_rows(out))), np.ones(shape) / shape[0]


def run_op(op, arrays, trainable, loss_of):
    """(output tensor, gradient of each input or None) of op on the arrays.

    A trainable input enters as scale(param, 1.0), the same bits in a
    non-Param tensor, so its gradient is the op's array itself and not a
    sum into a param buffer. The inputs' data must come out unchanged."""
    with Tape() as tape:
        leaves = [
            T.scale(Param(a, name=f"p{i}"), 1.0) if live else Tensor(a)
            for i, (a, live) in enumerate(zip(arrays, trainable))
        ]
        before = [leaf.data.copy() for leaf in leaves]
        out = op(*leaves)
        tape.backward(loss_of(out))
    for leaf, data in zip(leaves, before):
        assert_same_bits(leaf.data, data)
    return out, [leaf.grad if live else None for leaf, live in zip(leaves, trainable)]


def assert_grads(got, want, trainable):
    for g, w, live in zip(got, want, trainable):
        if live:
            assert_same_bits(g, w)
        else:
            assert g is None


def ln_inputs(rng, t, d=6):  # d not a power of two, so / d and * (1 / d) differ
    x = rng.normal(size=(t, d)) * rng.uniform(0.1, 10.0, size=(t, 1))
    x[::5] = x[::5, :1]  # every fifth row constant: variance 0, eps decides
    return [x, rng.uniform(0.5, 1.5, size=d), rng.normal(size=d)]


class TestOpOutputs:
    """Every primitive op's output holds a float64 ndarray; the scalar
    results are 0-d arrays, never numpy scalars."""

    def test_outputs_are_float64_arrays(self):
        rng = np.random.default_rng(3)
        m, v = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))
        w, s = Tensor(rng.normal(size=(4, 2))), Tensor(np.array(0.5))
        r = Tensor(rng.normal(size=(1, 4)))
        total = T.sum_all(m)
        outputs = [
            T.matmul(m, w), T.matmul(r, w), T.add(m, m), T.mul(v, v), T.scale(m, s),
            T.scale(v, 2.0), T.relu(m), T.softmax(m), T.mean_rows(m),
            T.layer_norm(m, Tensor(np.ones(4)), Tensor(np.zeros(4))),
            T.attention(m, m, m, 2), T.lincomb(v, [m, m, m, m]), T.concat_rows([r, r]),
            total, T.softmax_cross_entropy(m, [0, 1, 3]),
            T.scale(total, 2.0), T.add(total, total), T.mul(total, total), T.relu(total),
        ]
        for out in outputs:
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
            assert out.grad is None and out._node is None
        assert [out.data.shape for out in outputs[-6:]] == [()] * 6


class TestSameBitsAsPlainExpressions:
    @pytest.mark.parametrize("mix", MIXES3)
    def test_layer_norm(self, mix):
        rng = np.random.default_rng(50)
        for t in range(1, 71):
            arrays = ln_inputs(rng, t)
            loss_of, g = weighted_upstream(rng, (t, 6))
            out, grads = run_op(T.layer_norm, arrays, mix, loss_of)
            want_out, want_grads = ref_layer_norm(*arrays, g)
            assert_same_bits(out.data, want_out)
            assert_grads(grads, want_grads, mix)

    def test_layer_norm_vector(self):
        # one feature vector enters as a [1, d] row
        rng = np.random.default_rng(51)
        x, gamma, beta = ln_inputs(rng, 1)
        loss_of, g = weighted_upstream(rng, (1, 6))
        out, grads = run_op(T.layer_norm, [x, gamma, beta], (True,) * 3, loss_of)
        want_out, want_grads = ref_layer_norm(x, gamma, beta, g)
        assert_same_bits(out.data, want_out)
        assert_grads(grads, want_grads, (True,) * 3)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("mix", MIXES3)
    def test_attention(self, num_heads, mix):
        rng = np.random.default_rng(52)
        op = lambda q, k, v: T.attention(q, k, v, num_heads)
        for t in range(1, 71):
            arrays = [rng.normal(size=(t, 8)) * 2.0 for _ in range(3)]
            loss_of, g = weighted_upstream(rng, (t, 8))
            out, grads = run_op(op, arrays, mix, loss_of)
            want_out, want_grads = ref_attention(*arrays, g, num_heads)
            assert_same_bits(out.data, want_out)
            assert_grads(grads, want_grads, mix)

    def test_relu(self):
        rng = np.random.default_rng(53)
        specials = [-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0]
        for t in range(1, 71):
            x = rng.normal(size=(t, 8))
            x.flat[: len(specials)] = specials[: x.size]
            loss_of, g = weighted_upstream(rng, x.shape)
            out, grads = run_op(T.relu, [x], (True,), loss_of)
            want_out, want_grads = ref_relu(x, g)
            assert_same_bits(out.data, want_out)
            assert_grads(grads, want_grads, (True,))

    def test_relu_passes_nan_forward_and_no_gradient(self):
        x = np.array([np.nan, 2.0, -3.0, 0.0])
        out, (grad,) = run_op(T.relu, [x], (True,), T.sum_all)
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("mix", MIXES3)
    def test_matmul_row_matches_vector_product(self, mix):
        # a [1, k] row through matmul gives the bits of the 1-D product and
        # its gradients, at the SV head's and classifier's shapes and more
        rng = np.random.default_rng(57)
        for k, n in itertools.product((1, 3, 8, 17, 32, 64), (1, 5, 8, 32, 40)):
            v, w, b = rng.normal(size=k) * 3.0, rng.normal(size=(k, n)), rng.normal(size=n)
            loss_of, g = weighted_upstream(rng, (1, n))
            out, grads = run_op(T.matmul, [v[None, :], w, b], mix, loss_of)
            want_out, want_grads = ref_vecmat(v, w, b, g[0])
            assert_same_bits(out.data, want_out[None, :])
            assert_grads(grads, [want_grads[0][None, :], *want_grads[1:]], mix)

    def test_mean_rows(self):
        rng = np.random.default_rng(54)
        for t in range(1, 71):
            x = rng.normal(size=(t, 8)) * 3.0
            loss_of, g = weighted_upstream(rng, (1, 8))
            out, grads = run_op(T.mean_rows, [x], (True,), loss_of)
            want_out, want_grads = ref_mean_rows(x, g)
            assert_same_bits(out.data, want_out)
            assert_grads(grads, want_grads, (True,))

    @pytest.mark.parametrize("upstream", [sum_upstream, mean_rows_upstream])
    def test_read_only_upstream_gradient(self, upstream):
        # every op receives a read-only broadcast view as g: a write into
        # it would raise, and the results still match the references
        rng = np.random.default_rng(55)
        t = 9
        arrays = ln_inputs(rng, t)
        loss_of, g = upstream((t, 6))
        out, grads = run_op(T.layer_norm, arrays, (True,) * 3, loss_of)
        want_out, want_grads = ref_layer_norm(*arrays, g)
        assert_same_bits(out.data, want_out)
        assert_grads(grads, want_grads, (True,) * 3)

        loss_of, g = upstream((t, 8))
        arrays = [rng.normal(size=(t, 8)) for _ in range(3)]
        two_heads = lambda q, k, v: T.attention(q, k, v, 2)
        out, grads = run_op(two_heads, arrays, (True,) * 3, loss_of)
        want_out, want_grads = ref_attention(*arrays, g, 2)
        assert_same_bits(out.data, want_out)
        assert_grads(grads, want_grads, (True,) * 3)

        out, grads = run_op(T.relu, arrays[:1], (True,), loss_of)
        want_out, want_grads = ref_relu(arrays[0], g)
        assert_same_bits(out.data, want_out)
        assert_grads(grads, want_grads, (True,))

        out, grads = run_op(T.mean_rows, arrays[:1], (True,), T.sum_all)
        assert_same_bits(grads[0], ref_mean_rows(arrays[0], np.ones(8))[1][0])

    def test_adam(self):
        from svadapt.optim import Adam, LrSchedule

        rng = np.random.default_rng(56)
        shapes = [(), (5,), (3, 4), (), (2, 2)]
        values = [rng.normal(size=s) for s in shapes]
        ours = [Param(a.copy(), name=f"p{i}") for i, a in enumerate(values)]
        theirs = [Param(a.copy(), name=f"p{i}") for i, a in enumerate(values)]
        head, other = LrSchedule(0.1, 2, 5), LrSchedule(0.02, 1, 5)
        opt = Adam([(ours[:3], head), (ours[3:], other)])
        m = {p.name: np.zeros_like(p.data) for p in theirs}
        v = {p.name: np.zeros_like(p.data) for p in theirs}
        for step in range(1, 6):
            for a, b in zip(ours, theirs):
                scale = 10.0 ** rng.integers(-3, 3)
                a.grad[...] = b.grad[...] = rng.normal(size=a.data.shape) * scale
            grads = [p.grad.copy() for p in ours]
            opt.step()
            ref_adam_step(theirs[:3], m, v, step, head.at(step))
            ref_adam_step(theirs[3:], m, v, step, other.at(step))
            for a, b, g in zip(ours, theirs, grads):
                assert_same_bits(a.data, b.data)
                assert_same_bits(a.grad, g)  # the step reads g, never writes it
