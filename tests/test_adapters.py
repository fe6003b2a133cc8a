"""Adapter math, attachment, and parameter accounting.

Reference evaluations are composed step by step in numpy; the count checks
use closed forms worked out by hand:

    per bottleneck adapter: 2*d*dh + dh + d (projections+biases) + 2d (LN)
    bridge + layer weights: d*e + e + 2e + N
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svadapt import tensor as T
from svadapt.adapters import (
    AdapterConfig,
    BottleneckAdapter,
    InterLayerAdapter,
    MODE_SPECS,
    MODES,
    count_params,
    inter_layer_forward,
    weighted_sum,
)
from svadapt.backbone import EncoderConfig, PRESETS
from svadapt.backend import train_loss
from svadapt.errors import ConfigError
from svadapt.model import SVModel
from svadapt.tensor import Param, Tape, Tensor


def reference_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def reference_branch(x, a):
    h = np.maximum(x @ a.w_down.data + a.b_down.data, 0.0)
    return reference_layer_norm(h @ a.w_up.data + a.b_up.data, a.ln_g.data, a.ln_b.data)


def randomized_adapter(d=4, dh=2, seed=0, scale=None):
    a = BottleneckAdapter(d, dh, "adapters.test", seed, scale)
    rng = np.random.default_rng(seed)
    a.w_up.data[...] = rng.normal(size=a.w_up.shape)
    a.b_up.data[...] = rng.normal(size=a.b_up.shape)
    a.b_down.data[...] = rng.normal(size=a.b_down.shape)
    a.ln_b.data[...] = rng.normal(size=a.ln_b.shape)
    return a


class TestInnerSequential:
    """`insert` without a scale: the branch reads the host output and is
    added back onto it; the host input is ignored."""

    def test_identity_at_init(self):
        a = BottleneckAdapter(4, 2, "adapters.t", seed=0)
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = a.insert(Tensor(np.zeros((3, 4))), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_relu_kills_negative_branch(self):
        a = BottleneckAdapter(4, 2, "adapters.t", seed=1)
        a.b_down.data[...] = -100.0  # all bottleneck pre-activations negative
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = a.insert(x, x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_reference_composition(self):
        a = randomized_adapter(d=4, dh=2, seed=2)
        rng = np.random.default_rng(2)
        host_in, x = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        out = a.insert(Tensor(host_in), Tensor(x))
        np.testing.assert_allclose(out.data, x + reference_branch(x, a), atol=1e-12)


class TestInnerParallel:
    """`insert` with a scale: the branch reads the host input, and its
    scaled output is added onto the host output."""

    def test_zero_output_at_init(self):
        a = BottleneckAdapter(4, 2, "adapters.t", seed=3, scale=1.0)
        rng = np.random.default_rng(3)
        x, h = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        np.testing.assert_array_equal(a.insert(Tensor(x), Tensor(h)).data, h)

    def test_zero_input_zero_biases(self):
        a = BottleneckAdapter(4, 2, "adapters.t", seed=4, scale=1.0)
        np.testing.assert_array_equal(
            a.insert(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))).data, 0.0
        )

    def test_matches_reference_composition(self):
        a = randomized_adapter(d=6, dh=3, seed=5, scale=0.5)
        rng = np.random.default_rng(5)
        x, h = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        out = a.insert(Tensor(x), Tensor(h))
        np.testing.assert_allclose(out.data, h + 0.5 * reference_branch(x, a), atol=1e-12)


class TestFuseParallel:
    """The FFN sub-block with a parallel adapter, LN(insert(x, f) + x),
    against LN(f + s * branch(x) + x)."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = rng.normal(size=(3, 4))
        self.f = rng.normal(size=(3, 4))
        self.g = Tensor(np.ones(4))
        self.b = Tensor(np.zeros(4))

    def fused(self, s):
        a = randomized_adapter(d=4, dh=2, seed=6, scale=s)
        x = Tensor(self.x)
        return T.layer_norm(T.add(a.insert(x, Tensor(self.f)), x), self.g, self.b)

    def test_scale_zero_collapses_to_vanilla(self):
        vanilla = T.layer_norm(T.add(Tensor(self.f), Tensor(self.x)), self.g, self.b)
        np.testing.assert_array_equal(self.fused(0.0).data, vanilla.data)

    def test_pre_ln_sum_is_linear_in_scale(self):
        z = reference_branch(self.x, randomized_adapter(d=4, dh=2, seed=6))
        s1 = randomized_adapter(d=4, dh=2, seed=6, scale=1.0).insert(Tensor(self.x), Tensor(self.f))
        s2 = randomized_adapter(d=4, dh=2, seed=6, scale=2.0).insert(Tensor(self.x), Tensor(self.f))
        np.testing.assert_allclose(s2.data - s1.data, z, atol=1e-12)

    def test_matches_reference_at_half_scale(self):
        z = reference_branch(self.x, randomized_adapter(d=4, dh=2, seed=6))
        expected = reference_layer_norm(self.f + 0.5 * z + self.x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(self.fused(0.5).data, expected, atol=1e-12)

    def test_learnable_scale_receives_gradient(self):
        s = Param(1.0, name="adapters.scale")
        with Tape() as tape:
            fused = self.fused(s)
            tape.backward(T.sum_all(T.mul(fused, fused)))
        assert s.grad != 0.0


class TestWeightedSum:
    def test_saturated_logits_pick_one_layer(self):
        rng = np.random.default_rng(7)
        hs = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
        logits = Param(np.array([0.0, 1e6, 0.0]), name="layer_weights.logits")
        out = weighted_sum(hs, logits)
        np.testing.assert_allclose(out.data, hs[1].data, atol=1e-9)

    def test_identical_inputs_ignore_logits(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(2, 4))
        hs = [Tensor(h.copy()) for _ in range(4)]
        logits = Param(rng.normal(size=4), name="layer_weights.logits")
        np.testing.assert_allclose(weighted_sum(hs, logits).data, h, atol=1e-12)

    def test_uniform_logits_average(self):
        rng = np.random.default_rng(9)
        hs = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
        logits = Param(np.zeros(3), name="layer_weights.logits")
        expected = sum(h.data for h in hs) / 3.0
        np.testing.assert_allclose(weighted_sum(hs, logits).data, expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="logits"):
            weighted_sum([Tensor(np.zeros((2, 2)))], Param(np.zeros(3), name="l"))

    @given(st.integers(0, 1000), st.floats(0.1, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_weights_sum_to_one_and_argmax_stable(self, seed, factor):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=5)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        assert abs(w.sum() - 1.0) < 1e-12
        scaled = logits * factor
        assert np.argmax(scaled) == np.argmax(logits)


class TestInterLayer:
    def test_zero_propagates(self):
        bridge = InterLayerAdapter(4, 3, seed=0)
        out = inter_layer_forward(Tensor(np.zeros((2, 4))), bridge)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape(self):
        bridge = InterLayerAdapter(8, 6, seed=1)
        out = inter_layer_forward(Tensor(np.random.default_rng(1).normal(size=(5, 8))), bridge)
        assert out.shape == (5, 6)

    def test_matches_reference(self):
        bridge = InterLayerAdapter(8, 6, seed=2)
        rng = np.random.default_rng(2)
        bridge.b.data[...] = rng.normal(size=6)
        bridge.ln_b.data[...] = rng.normal(size=6)
        x = rng.normal(size=(4, 8))
        out = inter_layer_forward(Tensor(x), bridge)
        expected = reference_layer_norm(
            np.maximum(x @ bridge.w.data + bridge.b.data, 0.0),
            bridge.ln_g.data,
            bridge.ln_b.data,
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


def desk_model(mode, adapter=None, seed=0):
    return SVModel(EncoderConfig(), 32, mode, adapter, seed=seed)


class TestAttach:
    def test_inner_inserts_one_adapter_per_layer(self):
        m = desk_model("inner", AdapterConfig())
        assert len(m.ffn_adapters) == 4
        assert m.mhsa_adapters is None

    def test_houlsby_inserts_two_per_layer(self):
        m = desk_model("houlsby", AdapterConfig(variant="sequential"))
        assert len(m.ffn_adapters) == 4
        assert len(m.mhsa_adapters) == 4

    def test_adapter_modes_freeze_backbone(self):
        for mode in ("inner", "inter", "inner-inter", "houlsby", "linear-probe", "weighted-sum"):
            acfg = AdapterConfig() if mode in ("inner", "inner-inter") else (
                AdapterConfig(variant="sequential") if mode == "houlsby" else None
            )
            m = desk_model(mode, acfg)
            assert sum(p.data.size for p in m.encoder.params() if p.trainable) == 0

    def test_adapter_config_rejected_outside_inner_modes(self):
        with pytest.raises(ConfigError, match="no bottleneck adapter"):
            desk_model("linear-probe", AdapterConfig())

    def test_houlsby_requires_sequential(self):
        with pytest.raises(ConfigError, match="sequential"):
            desk_model("houlsby", AdapterConfig(variant="parallel"))

    def test_bottleneck_must_be_narrow(self):
        with pytest.raises(ConfigError, match="smaller than"):
            BottleneckAdapter(4, 8, "adapters.t", seed=0)


def shape_only_counts(encoder_cfg, embed_dim, mode, acfg=None):
    """Trainable counts per component from a shape-only build."""
    with T.shape_only():
        counts = count_params(SVModel(encoder_cfg, embed_dim, mode, acfg, seed=0))
    return counts["components"], counts["pretrained_side_trainable"]


def every_mode_and_variant():
    for mode in MODES:
        if not MODE_SPECS[mode].slots:
            yield mode, None
        for variant in MODE_SPECS[mode].variants:
            yield mode, AdapterConfig(variant=variant)
            if variant == "parallel":
                yield mode, AdapterConfig(variant=variant, scale="learnable")


class TestCountTrainable:
    PRESET = PRESETS["wavlm-base-plus-dims"]

    def test_symbolic_layout_matches_real_model_exactly(self):
        # a shape-only build has the materialized build's params, flags and
        # counts, at desk scale in every mode and variant, classifier included
        def build(mode, acfg):
            m = desk_model(mode, acfg)
            m.add_classifier(5)
            return m

        def layout(m):
            return [(p.name, p.shape, p.trainable) for p in m.named_params()]

        for mode, acfg in every_mode_and_variant():
            real = build(mode, acfg)
            with T.shape_only():
                shaped = build(mode, acfg)
            assert layout(shaped) == layout(real), (mode, acfg)
            assert count_params(shaped) == count_params(real), (mode, acfg)
            assert all(p.grad is None and p.data.strides == (0,) * p.data.ndim
                       for p in shaped.named_params() if p.name != "adapters.scale")

    def test_named_params_are_unique_and_the_scale_follows_the_adapters(self):
        # the shared scale is listed once, by the model, between the last
        # adapter and the layer weights: the checkpoint order
        for mode, acfg in every_mode_and_variant():
            m = desk_model(mode, acfg)
            m.add_classifier(5)
            names = [p.name for p in m.named_params()]
            assert len(set(names)) == len(names), (mode, acfg)
            learnable = acfg is not None and acfg.scale == "learnable"
            assert names.count("adapters.scale") == learnable, (mode, acfg)
            if learnable:
                at = names.index("adapters.scale")
                adapters = [i for i, n in enumerate(names) if n.startswith("adapters.layer")]
                assert adapters and max(adapters) == at - 1, (mode, acfg)
                assert names[at + 1] == "layer_weights.logits", (mode, acfg)

    def test_breakdown_by_kind(self):
        m = desk_model("houlsby", AdapterConfig(variant="sequential"))
        breakdown = count_params(m)["breakdown"]
        d, dh, n = 64, 16, 4
        assert breakdown["inner_adapters"] == {
            "weight": 2 * n * 2 * d * dh, "bias": 2 * n * (dh + d), "ln": 2 * n * 2 * d,
        }
        assert breakdown["sv_backend"] == {"weight": 2 * 32 * 32, "bias": 2 * 32, "ln": 0}

    def test_shape_only_preset_build_allocates_no_weights(self):
        import tracemalloc

        from svadapt.harness import count_params_table

        tracemalloc.start()
        try:
            count_params_table(self.PRESET, 512, 256)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one materialized copy of the stack is 85M float64s, 680 MB
        assert peak < 10 * 2**20

    def test_inter_closed_form_at_preset(self):
        d, e, n = 768, 512, 12
        comps, pretrained = shape_only_counts(self.PRESET, 512, "inter")
        assert comps["inter_adapter"] == d * e + e + 2 * e
        assert comps["layer_weights"] == n
        assert pretrained == 394_764

    def test_inner_closed_form_at_preset(self):
        d, dh, n = 768, 256, 12
        comps, _ = shape_only_counts(
            self.PRESET, 512, "inner", AdapterConfig(bottleneck_dim=256)
        )
        per_layer = 2 * d * dh + dh + d + 2 * d
        assert comps["inner_adapters"] == n * per_layer == 4_749_312

    def test_linear_probe_trains_nothing_pretrained_side(self):
        m = desk_model("linear-probe")
        counts = count_params(m)
        assert counts["pretrained_side_trainable"] == 0
        assert counts["components"]["sv_backend"] == 2 * (32 * 32 + 32)

    def test_inner_inter_is_additive(self):
        acfg = AdapterConfig(bottleneck_dim=256)
        _, inner = shape_only_counts(self.PRESET, 512, "inner", acfg)
        _, inter = shape_only_counts(self.PRESET, 512, "inter")
        _, both = shape_only_counts(self.PRESET, 512, "inner-inter", acfg)
        assert both == inner + inter

    def test_houlsby_is_exactly_double_inner(self):
        inner, _ = shape_only_counts(
            self.PRESET, 512, "inner", AdapterConfig(bottleneck_dim=256)
        )
        houlsby, _ = shape_only_counts(
            self.PRESET, 512, "houlsby",
            AdapterConfig(bottleneck_dim=256, variant="sequential"),
        )
        assert houlsby["inner_adapters"] == 2 * inner["inner_adapters"] == 9_498_624

    def test_weighted_sum_trains_logits_only(self):
        m = desk_model("weighted-sum")
        counts = count_params(m)
        assert counts["pretrained_side_trainable"] == 4  # desk encoder has 4 layers


class TestIdentityAtInit:
    @pytest.mark.parametrize(
        "mode,acfg",
        [
            ("inner", AdapterConfig(variant="sequential")),
            ("inner", AdapterConfig(variant="parallel", scale=0.5)),
            ("inner", AdapterConfig(variant="parallel", scale=2.0)),
            ("inner", AdapterConfig(variant="parallel", scale="learnable")),
            ("houlsby", AdapterConfig(variant="sequential")),
        ],
    )
    def test_adapted_equals_unadapted(self, mode, acfg):
        plain = desk_model("linear-probe", seed=11)
        adapted = desk_model(mode, acfg, seed=11)
        frames = np.random.default_rng(11).normal(size=(7, 20))
        np.testing.assert_allclose(
            adapted.embed_np(frames), plain.embed_np(frames), atol=1e-12
        )

    def test_scale_zero_is_bitwise_identical(self):
        plain = desk_model("linear-probe", seed=12)
        adapted = desk_model("inner", AdapterConfig(variant="parallel", scale=0.0), seed=12)
        frames = np.random.default_rng(12).normal(size=(6, 20))
        assert np.array_equal(adapted.embed_np(frames), plain.embed_np(frames))


class TestGradientsThroughFullGraph:
    def test_adapter_params_pass_grad_check(self):
        from svadapt.gradsuite import full_graph_grad_check

        assert full_graph_grad_check("inner-inter", n_probes=60, seed=3) <= 1e-4

    def test_learnable_scale_and_logits_receive_gradient(self):
        m = SVModel(
            EncoderConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=24,
                          input_dim=8),
            8,
            "inner-inter",
            AdapterConfig(bottleneck_dim=4, variant="parallel", scale="learnable"),
            seed=13,
        )
        m.add_classifier(2)
        # push the adapters off their zero init so gradient flows to scale
        rng = np.random.default_rng(13)
        for a in m.ffn_adapters:
            a.w_up.data[...] = rng.normal(size=a.w_up.shape) * 0.1
        frames = rng.normal(size=(5, 8))
        with Tape() as tape:
            loss = train_loss([m.embed(frames)], [1], m.classifier)
            tape.backward(loss)
        assert m.scale_param.grad != 0.0
        assert np.any(m.layer_logits.grad != 0.0)
