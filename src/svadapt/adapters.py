"""Bottleneck adapters, the layer-weighted feature bridge, and the
tuning-mode table with its adapter rule and parameter counting.

A bottleneck adapter is inserted on the output h of a frozen sub-block (the
FFN, and in houlsby mode the MHSA too), before the sub-block's residual and
LN, by one rule: h <- h + s * branch(r). A parallel adapter reads the
sub-block's input, r = x, and scales its branch by s, fixed or learnable;
a sequential adapter reads the output, r = h, with s = 1
(`BottleneckAdapter.insert`).

Both are exact no-ops at initialization: the up-projection and the branch
LN shift start at zero, so an adapted model reproduces the frozen model
until training moves them.

The bridge (`InterLayerAdapter`) maps the learned convex combination of all
layer outputs into the speaker-embedding width with an FC + ReLU + LN. The
same bridge object exists in every tuning mode so that all modes share one
embedding architecture; modes differ only in which parts may train.

`MODE_SPECS` states, once, what each mode inserts and trains, and
`adapter_for` states which adapter config a mode takes. `model.SVModel`
builds a model and sets every trainable flag from its mode's row, and
`count_params` counts the model's own params, so parameter reports and
checkpoint layouts follow from the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import tensor as tt
from .errors import ConfigError
from .tensor import Module, Param, Tensor

VARIANTS = ("parallel", "sequential")
LEARNABLE = "learnable"


@dataclass(frozen=True)
class ModeSpec:
    """One tuning mode. `slots` names the per-layer adapter positions it
    inserts ("ffn", "mhsa"); `variants` are the adapter variants it accepts,
    its default first; `trains` names the components of the pretrained side
    that train ("backbone", "layer_weights", "inter_adapter"). Every component in
    `ALWAYS_TRAINED` trains too; the featurizer never does."""

    slots: tuple = ()
    variants: tuple = ()
    trains: tuple = ()


MODE_SPECS = {
    "full-finetune": ModeSpec(trains=("backbone",)),
    "linear-probe": ModeSpec(),
    "weighted-sum": ModeSpec(trains=("layer_weights",)),
    "houlsby": ModeSpec(slots=("ffn", "mhsa"), variants=("sequential",)),
    "inner": ModeSpec(slots=("ffn",), variants=VARIANTS),
    "inter": ModeSpec(trains=("layer_weights", "inter_adapter")),
    "inner-inter": ModeSpec(
        slots=("ffn",), variants=VARIANTS, trains=("layer_weights", "inter_adapter")
    ),
}
MODES = tuple(MODE_SPECS)
INNER_MODES = tuple(mode for mode, spec in MODE_SPECS.items() if spec.slots)


@dataclass(frozen=True)
class AdapterConfig:
    """Hyperparameters of the per-layer bottleneck adapters. Field metadata
    gives the CLI flag where it differs from the field name. A sequential
    adapter has no scale; a parallel one without a scale takes 0.5."""

    bottleneck_dim: int = 16
    variant: str = field(
        default="parallel", metadata={"flag": "adapter-variant", "choices": VARIANTS}
    )
    scale: object = field(  # None, a float, or the string "learnable"
        default=None, metadata={"flag": "adapter-scale", "help": "a number or 'learnable'"}
    )

    def __post_init__(self):
        if self.bottleneck_dim < 1:
            raise ConfigError("bottleneck_dim must be positive")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown adapter variant {self.variant!r}")
        if self.variant == "sequential" and self.scale is not None:
            raise ConfigError(f"a sequential adapter takes no scale, got {self.scale}")
        if self.variant == "parallel" and self.scale != LEARNABLE:
            try:
                object.__setattr__(self, "scale", float(0.5 if self.scale is None else self.scale))
            except (TypeError, ValueError):
                raise ConfigError(f"scale must be a number or {LEARNABLE!r}, got {self.scale!r}")
            if not math.isfinite(self.scale):
                raise ConfigError(f"adapter scale must be finite, got {self.scale!r}")


def adapter_for(mode: str, cfg: AdapterConfig | None = None,
                settings: dict | None = None) -> AdapterConfig | None:
    """`cfg`, or when none is given the mode's adapter: `AdapterConfig` in
    the mode's default variant (houlsby: sequential, else parallel) with
    the `settings` ({field name: value}) given over it, or none for a mode
    without adapter slots and no `settings`. An unknown mode, an adapter
    (even empty `settings`) for a mode without slots, or a variant the mode
    does not take is a ConfigError."""
    if mode not in MODE_SPECS:
        raise ConfigError(f"unknown tuning mode {mode!r}; expected one of {MODES}")
    spec = MODE_SPECS[mode]
    if cfg is None and (spec.slots or settings is not None):
        cfg = AdapterConfig(**{"variant": (spec.variants or VARIANTS)[0], **(settings or {})})
    if cfg is None:
        return None
    if not spec.slots:
        raise ConfigError(f"mode {mode!r} takes no bottleneck adapter: it has no adapter slots")
    if cfg.variant not in spec.variants:
        raise ConfigError(f"mode {mode!r} uses {' or '.join(spec.variants)} adapters only")
    return cfg


class BottleneckAdapter(Module):
    """Down-project, ReLU, up-project, LN. Up-projection and LN shift start
    at zero so the branch output is exactly zero at init. `_scale` is None
    for a sequential adapter, else the parallel branch's scalar Tensor: a
    constant when fixed, a Param when learnable, shared across layers."""

    def __init__(self, d: int, bottleneck: int, name: str, seed: int, scale=None):
        if bottleneck >= d:
            raise ConfigError(f"bottleneck {bottleneck} must be smaller than width {d}")
        self._scale = scale
        self.w_down = Param.xavier(f"{name}.w_down", (d, bottleneck), seed)
        self.b_down = Param.zeros(f"{name}.b_down", bottleneck)
        self.w_up = Param.zeros(f"{name}.w_up", (bottleneck, d))
        self.b_up = Param.zeros(f"{name}.b_up", d)
        self.ln_g = Param.ones(f"{name}.ln.gamma", d)
        self.ln_b = Param.zeros(f"{name}.ln.beta", d)

    def branch(self, x: Tensor) -> Tensor:
        """LN(up(relu(down(x)))), the bare bottleneck branch."""
        h = tt.relu(tt.matmul(x, self.w_down, self.b_down))
        return tt.layer_norm(tt.matmul(h, self.w_up, self.b_up), self.ln_g, self.ln_b)

    def insert(self, host_in: Tensor, host_out: Tensor) -> Tensor:
        """The output of a frozen sub-block with this adapter inserted:
        host_out + branch(host_out) when sequential, host_out + s *
        branch(host_in) when parallel. A learnable s receives gradient
        through the scale op."""
        if self._scale is None:
            return tt.add(host_out, self.branch(host_out))
        return tt.add(host_out, tt.scale(self.branch(host_in), self._scale))


def weighted_sum(layer_outputs, layer_logits: Param) -> Tensor:
    """Convex combination of per-layer outputs with softmax(layer_logits)
    weights."""
    if len(layer_outputs) != layer_logits.shape[0]:
        raise ValueError(
            f"weighted_sum: {len(layer_outputs)} layers vs "
            f"{layer_logits.shape[0]} logits"
        )
    return tt.lincomb(tt.softmax(layer_logits), layer_outputs)


class InterLayerAdapter(Module):
    """FC + ReLU + LN bridge from the hidden width to the embedding width,
    applied to the weighted sum of all layer outputs."""

    def __init__(self, d: int, embed_dim: int, seed: int):
        self.w = Param.xavier("bridge.w", (d, embed_dim), seed)
        self.b = Param.zeros("bridge.b", embed_dim)
        self.ln_g = Param.ones("bridge.ln.gamma", embed_dim)
        self.ln_b = Param.zeros("bridge.ln.beta", embed_dim)


def inter_layer_forward(h_sum: Tensor, adapter: InterLayerAdapter) -> Tensor:
    """LN(relu(h_sum @ W + b)) row-wise, mapping [T, d] to [T, e]."""
    return tt.layer_norm(
        tt.relu(tt.matmul(h_sum, adapter.w, adapter.b)), adapter.ln_g, adapter.ln_b
    )


# ---------------------------------------------------------------------------
# parameter accounting


_COMPONENT_PREFIXES = (
    ("featurizer.", "featurizer"),
    ("encoder.", "backbone"),
    ("adapters.scale", "scale"),
    ("adapters.", "inner_adapters"),
    ("layer_weights.", "layer_weights"),
    ("bridge.", "inter_adapter"),
    ("head.", "sv_backend"),
    ("classifier.", "classifier"),
)
BACKBONE_COMPONENTS = ("featurizer", "backbone")
HEAD_COMPONENTS = ("sv_backend", "classifier")
# trained in every mode that has them, on top of the mode row's `trains`
ALWAYS_TRAINED = ("scale", "inner_adapters") + HEAD_COMPONENTS
# backbone name prefixes, for names read from a file: `component_of` raises
BACKBONE_PREFIXES = tuple(p for p, comp in _COMPONENT_PREFIXES if comp in BACKBONE_COMPONENTS)


def component_of(name: str) -> str:
    for prefix, comp in _COMPONENT_PREFIXES:
        if name.startswith(prefix):
            return comp
    raise ValueError(f"parameter {name!r} belongs to no known component")


def kind_of(name: str) -> str:
    """"ln" for a LayerNorm gain or shift, "bias" for a name whose last
    segment starts with "b", "weight" for the rest."""
    last = name.rsplit(".", 1)[-1]
    if last in ("gamma", "beta"):
        return "ln"
    return "bias" if last.startswith("b") else "weight"


def count_params(model) -> dict:
    """Exact counts over the model's own params (a shape-only build counts
    too): trainable elements per component and per kind within it, the
    trainable count outside the SV head and classifier, and the backbone
    total (featurizer + transformer stack, trainable or not)."""
    components, breakdown, backbone_total = {}, {}, 0
    for p in model.named_params(include_classifier=True):
        comp = component_of(p.name)
        if comp in BACKBONE_COMPONENTS:
            backbone_total += p.data.size
        if p.trainable:
            components[comp] = components.get(comp, 0) + p.data.size
            kinds = breakdown.setdefault(comp, {"weight": 0, "bias": 0, "ln": 0})
            kinds[kind_of(p.name)] += p.data.size
    pretrained_side = sum(v for k, v in components.items() if k not in HEAD_COMPONENTS)
    return {
        "components": components,
        "breakdown": breakdown,
        "pretrained_side_trainable": pretrained_side,
        "backbone_total": backbone_total,
        "pct_of_backbone": 100.0 * pretrained_side / backbone_total,
    }
