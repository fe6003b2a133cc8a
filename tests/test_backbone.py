"""Transformer encoder tests against loop-based reference computations."""

from dataclasses import replace

import numpy as np
import pytest

from svadapt import tensor as T
from svadapt.adapters import MODES, BottleneckAdapter, adapter_for
from svadapt.backbone import (
    Encoder,
    EncoderConfig,
    PRESETS,
    encode_collect,
    layer_forward,
    mhsa,
)
from svadapt.errors import ConfigError
from svadapt.model import SVModel
from svadapt.tensor import Param, Tape, Tensor


def reference_mhsa(x, layer, num_heads):
    """Per-head loop attention using plain numpy only."""
    q = x @ layer.wq.data + layer.bq.data
    k = x @ layer.wk.data + layer.bk.data
    v = x @ layer.wv.data + layer.bv.data
    hd = x.shape[1] // num_heads
    heads = []
    for h in range(num_heads):
        qh, kh, vh = (m[:, h * hd : (h + 1) * hd] for m in (q, k, v))
        logits = qh @ kh.T / np.sqrt(hd)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        heads.append(att @ vh)
    return np.concatenate(heads, axis=1) @ layer.wo.data + layer.bo.data


def attention_weights(x, layer, num_heads):
    """The per-head [T, T] attention weights of `layer` on x, from its
    query, key and value projections."""
    q, k, v = (
        T.matmul(Tensor(x), w, b)
        for w, b in ((layer.wq, layer.bq), (layer.wk, layer.bk), (layer.wv, layer.bv))
    )
    return T.attention(q, k, v, num_heads)[1]


def reference_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def small_encoder(seed=0, **overrides):
    defaults = dict(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=12, input_dim=5)
    defaults.update(overrides)
    return Encoder(EncoderConfig(seed=seed, **defaults))


def small_model(mode, seed=0):
    """An SVModel of `mode` around `small_encoder`'s config, with a
    bottleneck narrower than its width."""
    adapter = adapter_for(mode)
    if adapter is not None:
        adapter = replace(adapter, bottleneck_dim=4)
    return SVModel(small_encoder(seed).cfg, 4, mode, adapter, seed)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="divisible"):
            EncoderConfig(hidden_dim=10, num_heads=3)

    @pytest.mark.parametrize("name", ["num_layers", "hidden_dim", "num_heads", "ffn_dim", "input_dim"])
    def test_a_dim_below_one_is_a_config_error(self, name):
        with pytest.raises(ConfigError, match=f"encoder {name} must be positive"):
            EncoderConfig(**{name: 0})

    def test_accounting_preset_dims(self):
        p = PRESETS["wavlm-base-plus-dims"]
        assert (p.num_layers, p.hidden_dim, p.num_heads) == (12, 768, 8)


class TestMhsa:
    def test_single_frame_passthrough(self):
        enc = small_encoder()
        layer = enc.layers[0]
        d = 8
        layer.wv.data[...] = np.eye(d)
        layer.bv.data[...] = 0.0
        layer.wo.data[...] = np.eye(d)
        layer.bo.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(1, d))
        out = mhsa(Tensor(x), layer, enc.cfg.num_heads)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_zero_query_gives_uniform_attention(self):
        enc = small_encoder()
        layer = enc.layers[0]
        d = 8
        layer.wq.data[...] = 0.0
        layer.wv.data[...] = np.eye(d)
        layer.wo.data[...] = np.eye(d)
        x = np.random.default_rng(1).normal(size=(5, d))
        out = mhsa(Tensor(x), layer, enc.cfg.num_heads)
        for att in attention_weights(x, layer, enc.cfg.num_heads):
            np.testing.assert_allclose(att, 1.0 / 5.0, atol=1e-12)
        np.testing.assert_allclose(
            out.data, np.tile(x.mean(axis=0), (5, 1)), atol=1e-12
        )

    def test_matches_per_head_loop_reference(self):
        enc = small_encoder(seed=3)
        layer = enc.layers[1]
        x = np.random.default_rng(2).normal(size=(3, 8))
        out = mhsa(Tensor(x), layer, enc.cfg.num_heads)
        np.testing.assert_allclose(
            out.data, reference_mhsa(x, layer, enc.cfg.num_heads), atol=1e-12
        )

    def test_attention_rows_are_distributions(self):
        enc = small_encoder(seed=4)
        x = np.random.default_rng(3).normal(size=(7, 8))
        for att in attention_weights(x, enc.layers[0], enc.cfg.num_heads):
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(att >= 0.0)


class TestLayerForward:
    def test_zero_ffn_reduces_to_attention_subblock(self):
        enc = small_encoder(seed=5)
        layer = enc.layers[0]
        layer.w1.data[...] = 0.0
        layer.w2.data[...] = 0.0
        layer.b1.data[...] = 0.0
        layer.b2.data[...] = 0.0
        x = np.random.default_rng(4).normal(size=(4, 8))
        out = layer_forward(Tensor(x), layer, enc.cfg.num_heads)
        att = reference_mhsa(x, layer, enc.cfg.num_heads)
        u = reference_layer_norm(att + x, layer.ln_att_g.data, layer.ln_att_b.data)
        expected = reference_layer_norm(u, layer.ln_ffn_g.data, layer.ln_ffn_b.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_step_by_step_composition(self):
        enc = small_encoder(seed=6)
        layer = enc.layers[0]
        x = np.random.default_rng(5).normal(size=(4, 8))
        out = layer_forward(Tensor(x), layer, enc.cfg.num_heads)
        att = reference_mhsa(x, layer, enc.cfg.num_heads)
        u = reference_layer_norm(att + x, layer.ln_att_g.data, layer.ln_att_b.data)
        f = np.maximum(u @ layer.w1.data + layer.b1.data, 0.0) @ layer.w2.data + layer.b2.data
        expected = reference_layer_norm(f + u, layer.ln_ffn_g.data, layer.ln_ffn_b.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def composed_layer_forward(x, layer, num_heads, ffn_adapter=None, mhsa_adapter=None):
    """A transformer layer with its adapters spelled out in primitive ops, in
    the order they have always run: a sequential adapter adds its branch of
    the sub-block output onto that output; a parallel FFN adapter's scaled
    branch of the FFN input joins the FFN output before the residual."""

    def branch(a, h):
        z = T.relu(T.matmul(h, a.w_down, a.b_down))
        return T.layer_norm(T.matmul(z, a.w_up, a.b_up), a.ln_g, a.ln_b)

    q = T.matmul(x, layer.wq, layer.bq)
    k = T.matmul(x, layer.wk, layer.bk)
    v = T.matmul(x, layer.wv, layer.bv)
    heads, _ = T.attention(q, k, v, num_heads)
    att = T.matmul(heads, layer.wo, layer.bo)
    if mhsa_adapter is not None:
        att = T.add(att, branch(mhsa_adapter, att))
    u = T.layer_norm(T.add(att, x), layer.ln_att_g, layer.ln_att_b)
    f = T.matmul(T.relu(T.matmul(u, layer.w1, layer.b1)), layer.w2, layer.b2)
    if ffn_adapter is None:
        pre = T.add(f, u)
    elif ffn_adapter._scale is None:
        pre = T.add(T.add(f, branch(ffn_adapter, f)), u)
    else:
        z = branch(ffn_adapter, u)
        pre = T.add(T.add(f, T.scale(z, ffn_adapter._scale)), u)
    return T.layer_norm(pre, layer.ln_ffn_g, layer.ln_ffn_b)


class TestLayerForwardComposition:
    """`layer_forward` with `BottleneckAdapter.insert` runs the same ops in
    the same order as the composition above, so its output and every
    gradient are equal to the last bit."""

    @staticmethod
    def adapter(slot, seed, scale):
        a = BottleneckAdapter(8, 3, f"adapters.layer00.{slot}", seed, scale)
        rng = np.random.default_rng(seed)
        for p in a.params():
            p.data[...] = rng.normal(size=p.shape)
        return a

    @pytest.mark.parametrize(
        "case", ["plain", "sequential", "parallel-fixed", "parallel-learnable", "houlsby"]
    )
    def test_output_and_gradients_are_bit_identical(self, case):
        enc = small_encoder(seed=13)
        layer = enc.layers[0]
        x = Param(np.random.default_rng(16).normal(size=(5, 8)), name="x")
        learnable = Param(0.7, name="adapters.scale")
        ffn_scale = {"parallel-fixed": 0.5, "parallel-learnable": learnable}.get(case)
        ffn_adapter = None if case == "plain" else self.adapter("ffn", 14, ffn_scale)
        mhsa_adapter = self.adapter("mhsa", 15, None) if case == "houlsby" else None
        params = [*layer.params(), x]
        for a in (ffn_adapter, mhsa_adapter):
            if a is not None:
                params += a.params()
        if case == "parallel-learnable":
            params.append(learnable)

        def run(forward):
            for p in params:
                p.grad[...] = 0.0
            with Tape() as tape:
                out = forward(x, layer, enc.cfg.num_heads, ffn_adapter, mhsa_adapter)
                tape.backward(T.sum_all(T.mul(out, out)))
            return out.data.tobytes(), [p.grad.tobytes() for p in params]

        out, grads = run(layer_forward)
        ref_out, ref_grads = run(composed_layer_forward)
        assert out == ref_out
        for p, g, ref in zip(params, grads, ref_grads):
            assert g == ref, p.name
            assert np.frombuffer(g).any(), p.name


class TestEncodeCollect:
    def test_returns_one_output_per_layer(self):
        enc = small_encoder()
        frames = np.random.default_rng(6).normal(size=(9, 5))
        outs = encode_collect(frames, enc)
        assert len(outs) == 2
        assert all(o.shape == (9, 8) for o in outs)

    def test_deterministic_bitwise(self):
        enc = small_encoder(seed=7)
        frames = np.random.default_rng(7).normal(size=(6, 5))
        a = encode_collect(frames, enc)
        b = encode_collect(frames, enc)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_rejects_empty_sequence(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="non-empty"):
            encode_collect(np.zeros((0, 5)), enc)

    def test_frozen_backbone_gets_no_gradient(self):
        enc = small_model("linear-probe", seed=8).encoder
        probe = Param(np.zeros((5, 8)), name="probe")
        frames = np.random.default_rng(8).normal(size=(5, 5))
        with Tape() as tape:
            outs = encode_collect(frames, enc)
            loss = T.sum_all(T.mul(T.add(outs[-1], probe), T.add(outs[-1], probe)))
            tape.backward(loss)
        assert all(np.all(p.grad == 0.0) for p in enc.params())
        assert np.any(probe.grad != 0.0)


class TestSetTrainable:
    """The encoder's trainable flags in a model built for each mode."""

    def test_frozen_mode_zeroes_trainable_count(self):
        for mode in MODES:
            if mode != "full-finetune":
                enc = small_model(mode).encoder
                assert sum(p.data.size for p in enc.params() if p.trainable) == 0, mode

    def test_full_finetune_counts_stack_not_featurizer(self):
        enc = small_model("full-finetune").encoder
        trainable = sum(p.data.size for p in enc.params() if p.trainable)
        stack = sum(p.data.size for l in enc.layers for p in l.params())
        assert trainable == stack
        assert all(not p.trainable for p in enc.featurizer.params())


class TestInitialization:
    def test_same_seed_same_weights(self):
        a, b = small_encoder(seed=10), small_encoder(seed=10)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a, b = small_encoder(seed=10), small_encoder(seed=11)
        assert not np.array_equal(a.layers[0].wq.data, b.layers[0].wq.data)

    def test_biases_zero_ln_identity(self):
        enc = small_encoder(seed=12)
        layer = enc.layers[0]
        assert np.all(layer.bq.data == 0.0)
        assert np.all(layer.ln_att_g.data == 1.0)
        assert np.all(layer.ln_ffn_b.data == 0.0)
