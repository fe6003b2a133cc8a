"""Assembly of encoder, layer weighting, feature bridge and SV head.

Every tuning mode shares one embedding architecture:

    frames -> featurizer -> N transformer layers (maybe with adapters)
           -> softmax-weighted sum of the N layer outputs
           -> bridge FC+ReLU+LN (hidden width -> embedding width)
           -> mean over time -> fc1+ReLU -> fc2 -> [1, e] embedding row

so at step 0 every non-finetune mode computes the identical function given
the same backbone weights and run seed; modes differ in which parts are
trainable and which adapter branches (exact no-ops at init) are inserted.

Built inside `tensor.shape_only()`, a model holds shape-only params, which
lets the harness count the params of arbitrarily large presets without
allocating a single weight. `harness` owns checkpoint rows and loading.
"""

from __future__ import annotations

import numpy as np

from . import adapters as ad
from . import backbone as bb
from . import backend as be
from .tensor import Module, Param, Tensor


class SVModel(Module):
    """Backbone + adapters + weighting + bridge + head for one tuning mode,
    built from the mode's `MODE_SPECS` row: the row's bottleneck adapters
    (with `adapters.adapter_for(mode, adapter_cfg)`) and their shared scale.
    A last pass sets every trainable flag: a param trains when its
    component is in the row's `trains` or in `adapters.ALWAYS_TRAINED`.
    The backbone is `encoder`: the featurizer and the transformer stack."""

    def __init__(self, encoder_cfg: bb.EncoderConfig, embed_dim: int, mode: str,
                 adapter_cfg: ad.AdapterConfig | None, seed: int):
        adapter_cfg = ad.adapter_for(mode, adapter_cfg)
        spec = ad.MODE_SPECS[mode]
        d, n = encoder_cfg.hidden_dim, encoder_cfg.num_layers
        self.seed = seed
        self.embed_dim = embed_dim
        self.encoder = bb.Encoder(encoder_cfg)
        scale = None  # a sequential adapter has no scale
        if adapter_cfg is not None and adapter_cfg.scale == ad.LEARNABLE:
            scale = Param(1.0, name="adapters.scale")  # starts at 1
        elif adapter_cfg is not None and adapter_cfg.scale is not None:
            scale = Tensor(adapter_cfg.scale)
        self.ffn_adapters, self.mhsa_adapters = (
            [ad.BottleneckAdapter(d, adapter_cfg.bottleneck_dim, f"adapters.layer{i:02d}.{slot}",
                                  seed, scale) for i in range(n)] if slot in spec.slots else None
            for slot in ("ffn", "mhsa")
        )
        # assigned after the adapters, so the shared scale follows them in `params()`
        self.scale_param = scale if isinstance(scale, Param) else None
        self.layer_logits = Param.zeros("layer_weights.logits", n)
        self.bridge = ad.InterLayerAdapter(d, embed_dim, seed)
        self.head = be.SVHead(embed_dim, seed)
        self.classifier = None
        trained = spec.trains + ad.ALWAYS_TRAINED
        for p in self.named_params():
            p.trainable = ad.component_of(p.name) in trained

    def add_classifier(self, num_speakers: int) -> None:
        self.classifier = be.ClassifierHead(self.embed_dim, num_speakers, self.seed)

    # -- forward ----------------------------------------------------------

    def embed(self, frames) -> Tensor:
        """[1, e] speaker embedding: the softmax-weighted sum of every layer's
        output, through the bridge, pooled over time and through the head."""
        outputs = bb.encode_collect(frames, self.encoder, self.ffn_adapters, self.mhsa_adapters)
        h = ad.inter_layer_forward(ad.weighted_sum(outputs, self.layer_logits), self.bridge)
        return be.pool_and_embed(h, self.head)

    def embed_np(self, frames) -> np.ndarray:
        """The [e] embedding vector."""
        return self.embed(frames).data[0]

    # -- parameter bookkeeping ---------------------------------------------

    def named_params(self, include_classifier: bool = True):
        """`params()`, the canonical serialization order, without the
        training-only classifier's unless `include_classifier`."""
        drop = [] if include_classifier or self.classifier is None else self.classifier.params()
        return [p for p in self.params() if p not in drop]
