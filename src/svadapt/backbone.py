"""Small post-norm transformer encoder exposing per-layer hidden outputs.

The front end is a single frozen affine featurizer mapping input frames to
the hidden width; it stays frozen in every tuning mode. Each layer is the
classic post-norm pair of sub-blocks, LN(MHSA(x) + x) then LN(FFN(u) + u);
an adapter given for a sub-block is inserted on its output before the
residual and LN (see adapters.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor as tt
from .errors import ConfigError
from .tensor import Module, Param, Tensor


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 4
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    input_dim: int = 20
    seed: int = field(default=0, metadata={"flag": "encoder-seed"})

    def __post_init__(self):
        for name in ("num_layers", "hidden_dim", "num_heads", "ffn_dim", "input_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"encoder {name} must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )


# Dimension presets. "wavlm-base-plus-dims" mirrors a 12-layer, 768-wide,
# 8-head encoder over a 512-dim front end; it exists for parameter
# accounting only and is never trained here.
PRESETS = {
    "desk": EncoderConfig(),
    "wavlm-base-plus-dims": EncoderConfig(
        num_layers=12, hidden_dim=768, num_heads=8, ffn_dim=3072, input_dim=512
    ),
}


class Featurizer(Module):
    """Frozen affine projection from input frames to the hidden width."""

    def __init__(self, cfg: EncoderConfig):
        self.proj = Param.xavier("featurizer.proj", (cfg.input_dim, cfg.hidden_dim), cfg.seed)
        self.bias = Param.zeros("featurizer.bias", cfg.hidden_dim)

    def __call__(self, frames: Tensor) -> Tensor:
        return tt.matmul(frames, self.proj, self.bias)


class TransformerLayer(Module):
    """Post-norm block: LN(MHSA(x)+x) followed by LN(FFN(u)+u)."""

    def __init__(self, cfg: EncoderConfig, index: int):
        d, f, s = cfg.hidden_dim, cfg.ffn_dim, cfg.seed
        p = f"encoder.layer{index:02d}"
        self.wq = Param.xavier(f"{p}.attn.wq", (d, d), s)
        self.bq = Param.zeros(f"{p}.attn.bq", d)
        self.wk = Param.xavier(f"{p}.attn.wk", (d, d), s)
        self.bk = Param.zeros(f"{p}.attn.bk", d)
        self.wv = Param.xavier(f"{p}.attn.wv", (d, d), s)
        self.bv = Param.zeros(f"{p}.attn.bv", d)
        self.wo = Param.xavier(f"{p}.attn.wo", (d, d), s)
        self.bo = Param.zeros(f"{p}.attn.bo", d)
        self.ln_att_g = Param.ones(f"{p}.attn_ln.gamma", d)
        self.ln_att_b = Param.zeros(f"{p}.attn_ln.beta", d)
        self.w1 = Param.xavier(f"{p}.ffn.w1", (d, f), s)
        self.b1 = Param.zeros(f"{p}.ffn.b1", f)
        self.w2 = Param.xavier(f"{p}.ffn.w2", (f, d), s)
        self.b2 = Param.zeros(f"{p}.ffn.b2", d)
        self.ln_ffn_g = Param.ones(f"{p}.ffn_ln.gamma", d)
        self.ln_ffn_b = Param.zeros(f"{p}.ffn_ln.beta", d)

    def ffn(self, u: Tensor) -> Tensor:
        return tt.matmul(tt.relu(tt.matmul(u, self.w1, self.b1)), self.w2, self.b2)


def mhsa(x: Tensor, layer: TransformerLayer, num_heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention, fully bidirectional,
    with per-head scale 1/sqrt(head_dim)."""
    q = tt.matmul(x, layer.wq, layer.bq)
    k = tt.matmul(x, layer.wk, layer.bk)
    v = tt.matmul(x, layer.wv, layer.bv)
    heads, _ = tt.attention(q, k, v, num_heads)
    return tt.matmul(heads, layer.wo, layer.bo)


def layer_forward(
    x: Tensor,
    layer: TransformerLayer,
    num_heads: int,
    ffn_adapter=None,
    mhsa_adapter=None,
) -> Tensor:
    """One post-norm transformer layer. An adapter given for a sub-block is
    inserted on that sub-block's output (`BottleneckAdapter.insert`)."""
    att = mhsa(x, layer, num_heads)
    if mhsa_adapter is not None:
        att = mhsa_adapter.insert(x, att)
    u = tt.layer_norm(tt.add(att, x), layer.ln_att_g, layer.ln_att_b)
    f = layer.ffn(u)
    if ffn_adapter is not None:
        f = ffn_adapter.insert(u, f)
    return tt.layer_norm(tt.add(f, u), layer.ln_ffn_g, layer.ln_ffn_b)


class Encoder(Module):
    """Featurizer plus a stack of transformer layers."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.featurizer = Featurizer(cfg)
        self.layers = [TransformerLayer(cfg, i) for i in range(cfg.num_layers)]


def encode_collect(
    frames,
    encoder: Encoder,
    ffn_adapters=None,
    mhsa_adapters=None,
):
    """Featurize, run every layer in sequence, and return all per-layer
    outputs (the featurizer output is not included)."""
    x = frames if isinstance(frames, Tensor) else Tensor(frames)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"encode_collect needs a non-empty [T, input_dim] input, got {x.shape}")
    if x.shape[1] != encoder.cfg.input_dim:
        raise ValueError(
            f"encode_collect: frame dim {x.shape[1]} does not match "
            f"encoder input_dim {encoder.cfg.input_dim}"
        )
    n = encoder.cfg.num_layers
    ffn_adapters = ffn_adapters or [None] * n
    mhsa_adapters = mhsa_adapters or [None] * n
    x = encoder.featurizer(x)
    outputs = []
    for layer, fa, ma in zip(encoder.layers, ffn_adapters, mhsa_adapters):
        x = layer_forward(x, layer, encoder.cfg.num_heads, fa, ma)
        outputs.append(x)
    return outputs
