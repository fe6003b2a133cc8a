"""Assembly of encoder, layer weighting, feature bridge and SV head.

Every tuning mode shares one embedding architecture:

    frames -> featurizer -> N transformer layers (maybe with adapters)
           -> softmax-weighted sum of the N layer outputs
           -> bridge FC+ReLU+LN (hidden width -> embedding width)
           -> mean over time -> fc1+ReLU -> fc2 -> embedding

so at step 0 every non-finetune mode computes the identical function given
the same backbone weights and run seed; modes differ in which parts are
trainable and which adapter branches (exact no-ops at init) are inserted.

Built inside `tensor.shape_only()`, a model holds shape-only params, which
lets the harness count the params of arbitrarily large presets without
allocating a single weight.
"""

from __future__ import annotations

import numpy as np

from . import adapters as ad
from . import backbone as bb
from . import backend as be
from .errors import DataError
from .tensor import Param, Tensor


class SVModel:
    """Backbone + weighting + bridge + head; adapters arrive via attach()."""

    def __init__(self, encoder_cfg: bb.EncoderConfig, embed_dim: int, seed: int):
        self.seed = seed
        self.embed_dim = embed_dim
        self.encoder = bb.Encoder(encoder_cfg)
        self.layer_logits = Param.zeros(
            "layer_weights.logits", encoder_cfg.num_layers, trainable=False
        )
        self.bridge = ad.InterLayerAdapter(encoder_cfg.hidden_dim, embed_dim, seed)
        self.head = be.SVHead(embed_dim, seed)
        self.classifier = None
        self.mode = None
        self.ffn_adapters = None
        self.mhsa_adapters = None
        self.scale_param = None

    def add_classifier(self, num_speakers: int) -> None:
        self.classifier = be.ClassifierHead(self.embed_dim, num_speakers, self.seed)

    # -- forward ----------------------------------------------------------

    def layer_outputs(self, frames):
        return bb.encode_collect(frames, self.encoder, self.ffn_adapters, self.mhsa_adapters)

    def features(self, frames) -> Tensor:
        """[T, e] bridge output over the weighted layer combination."""
        h = ad.weighted_sum(self.layer_outputs(frames), self.layer_logits)
        return ad.inter_layer_forward(h, self.bridge)

    def embed(self, frames) -> Tensor:
        return be.pool_and_embed(self.features(frames), self.head)

    def embed_np(self, frames) -> np.ndarray:
        return self.embed(frames).data

    # -- parameter bookkeeping ---------------------------------------------

    def named_params(self, include_classifier: bool = True):
        """All params in the canonical serialization order."""
        out = list(self.encoder.params())
        for group in (self.ffn_adapters, self.mhsa_adapters):
            if group:
                for adapter in group:
                    out.extend(adapter.params())
        if self.scale_param is not None:
            out.append(self.scale_param)
        out.append(self.layer_logits)
        out.extend(self.bridge.params())
        out.extend(self.head.params())
        if include_classifier and self.classifier is not None:
            out.extend(self.classifier.params())
        return out

    def trainable_params(self, include_classifier: bool = True):
        return [p for p in self.named_params(include_classifier) if p.trainable]

    def backbone_params(self):
        return self.encoder.params()

    def load_param_values(self, values: dict) -> None:
        """Overwrite params by name from {name: array}; shapes must match."""
        own = {p.name: p for p in self.named_params()}
        for name, arr in values.items():
            if name not in own:
                raise DataError(f"checkpoint parameter {name!r} not present in model")
            if own[name].data.shape != arr.shape:
                raise DataError(
                    f"shape mismatch for {name!r}: model {own[name].data.shape} "
                    f"vs checkpoint {arr.shape}"
                )
            own[name].data[...] = arr


def build_model(
    encoder_cfg: bb.EncoderConfig,
    embed_dim: int,
    mode: str,
    adapter_cfg: ad.AdapterConfig | None,
    seed: int,
) -> SVModel:
    model = SVModel(encoder_cfg, embed_dim, seed)
    ad.attach(model, mode, adapter_cfg)
    return model
