"""Finite-difference verification of the whole model's gradients.

Builds a small model, randomizes the parts that initialize to zero (so their
gradients are informative), marks everything except the featurizer
trainable, and runs grad_check through the complete
encode -> weighted sum -> bridge -> pool -> classifier -> loss graph.
The featurizer stays frozen because its contract freezes it in every mode,
so probing it against a zero analytic gradient would be meaningless.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as tt
from .adapters import LEARNABLE, adapter_for, component_of
from .backbone import EncoderConfig
from .backend import train_loss
from .model import SVModel
from .rng import Stream
from .tensor import grad_check


def build_check_model(mode: str = "inner-inter", seed: int = 0):
    """A tiny adapted model with every non-featurizer param trainable, plus
    a deterministic batch of frames and labels."""
    encoder_cfg = EncoderConfig(
        num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=24, input_dim=8, seed=seed
    )
    # the mode's default adapter, with a learnable scale where it is parallel
    adapter_cfg = adapter_for(mode)
    if adapter_cfg is not None:
        scale = LEARNABLE if adapter_cfg.variant == "parallel" else None
        adapter_cfg = replace(adapter_cfg, bottleneck_dim=4, scale=scale)
    model = SVModel(encoder_cfg, 8, mode, adapter_cfg, seed=seed + 1)
    model.add_classifier(3)
    # give zero-initialized params small random values so every gradient
    # path is exercised; keeps relu pre-activations away from the kink
    stream = Stream(seed, "gradsuite-randomize")
    for p in model.named_params():
        p.trainable = component_of(p.name) != "featurizer"
        if not p.trainable:
            continue
        if not np.any(p.data):
            p.data[...] = stream.gaussian(p.data.shape) * 0.3
        if p.name.endswith("logits"):
            p.data[...] = stream.gaussian(p.data.shape) * 0.5
    frames = [
        Stream(seed, f"gradsuite-frames/{i}").gaussian((6, 8)) for i in range(3)
    ]
    labels = [0, 1, 2]
    return model, frames, labels


def full_graph_grad_check(
    mode: str = "inner-inter",
    n_probes: int = 100,
    h: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over every trainable parameter of a full forward+loss graph.

    The loss is cross-entropy plus an L2 penalty over the checked params.
    The penalty matters: some directions are exact null spaces of the
    network (the attention key bias cancels under softmax shift
    invariance), so their cross-entropy gradient is identically zero and a
    finite difference there would only measure float noise; the penalty
    gives every coordinate a real gradient while still driving the whole
    graph.
    """
    model, frames, labels = build_check_model(mode, seed)
    params = [p for p in model.named_params() if p.trainable]

    def f():
        embs = [model.embed(fr) for fr in frames]
        loss = train_loss(embs, labels, model.classifier)
        for p in params:
            loss = tt.add(loss, tt.scale(tt.sum_all(tt.mul(p, p)), 0.05))
        return loss

    return grad_check(f, params, h=h, n_probes=n_probes, seed=seed)
