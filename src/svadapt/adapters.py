"""Bottleneck adapters over the FFN sub-block, the layer-weighted feature
bridge, and the tuning-mode table with attachment and parameter counting.

Two insertion styles exist for the per-layer bottleneck adapter:

* sequential: the adapter consumes the FFN output and adds its normalized
  bottleneck branch back onto it before the usual residual + LN;
* parallel: the adapter consumes the FFN *input*, and its branch is scaled
  by a factor s (fixed or learnable) and summed with the FFN output and the
  residual before the sub-block LN.

Both are exact no-ops at initialization: the up-projection and the branch
LN shift start at zero, so an adapted model reproduces the frozen model
until training moves them.

The bridge (`InterLayerAdapter`) maps the learned convex combination of all
layer outputs into the speaker-embedding width with an FC + ReLU + LN. The
same bridge object exists in every tuning mode so that all modes share one
embedding architecture; modes differ only in which parts may train.

`MODE_SPECS` states, once, what each mode inserts and trains. `attach`
applies a row to a model, and `count_params` counts the model's own params,
so parameter reports and checkpoint layouts follow from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import tensor as tt
from .errors import ConfigError
from .tensor import Param, Tensor

VARIANTS = ("sequential", "parallel")
LEARNABLE = "learnable"


@dataclass(frozen=True)
class ModeSpec:
    """One tuning mode. `slots` names the per-layer adapter positions it
    inserts ("ffn", "mhsa"); `variants` are the adapter variants it accepts;
    the train_* flags say whether the transformer stack, the layer-weight
    logits and the bridge train. The featurizer never trains and the SV
    head always does."""

    slots: tuple = ()
    variants: tuple = ()
    train_stack: bool = False
    train_logits: bool = False
    train_bridge: bool = False


MODE_SPECS = {
    "full-finetune": ModeSpec(train_stack=True),
    "linear-probe": ModeSpec(),
    "weighted-sum": ModeSpec(train_logits=True),
    "houlsby": ModeSpec(slots=("ffn", "mhsa"), variants=("sequential",)),
    "inner": ModeSpec(slots=("ffn",), variants=VARIANTS),
    "inter": ModeSpec(train_logits=True, train_bridge=True),
    "inner-inter": ModeSpec(
        slots=("ffn",), variants=VARIANTS, train_logits=True, train_bridge=True
    ),
}
MODES = tuple(MODE_SPECS)
INNER_MODES = tuple(mode for mode, spec in MODE_SPECS.items() if spec.slots)


@dataclass(frozen=True)
class AdapterConfig:
    """Hyperparameters of the per-layer bottleneck adapters. Field metadata
    gives the CLI flag where it differs from the field name."""

    bottleneck_dim: int = 16
    variant: str = field(
        default="parallel", metadata={"flag": "adapter-variant", "choices": VARIANTS}
    )
    scale: object = field(  # a float, or the string "learnable"
        default=0.5, metadata={"flag": "adapter-scale", "help": "a number or 'learnable'"}
    )
    scale_init: float = field(
        default=1.0, metadata={"help": "start value for a learnable scale"}
    )

    def __post_init__(self):
        if self.bottleneck_dim < 1:
            raise ConfigError("bottleneck_dim must be positive")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown adapter variant {self.variant!r}")
        if self.scale != LEARNABLE:
            try:
                object.__setattr__(self, "scale", float(self.scale))
            except (TypeError, ValueError):
                raise ConfigError(f"scale must be a number or {LEARNABLE!r}, got {self.scale!r}")


def default_adapter(mode: str) -> AdapterConfig | None:
    """The adapter config a mode takes when none is given: none for a mode
    without adapter slots, else the default `AdapterConfig`, switched to the
    first variant the mode accepts when it does not accept the default's
    (houlsby: sequential)."""
    spec = MODE_SPECS[mode]
    if not spec.slots:
        return None
    cfg = AdapterConfig()
    return cfg if cfg.variant in spec.variants else replace(cfg, variant=spec.variants[0])


class BottleneckAdapter:
    """Down-project, ReLU, up-project, LN. Up-projection and LN shift start
    at zero so the branch output is exactly zero at init."""

    def __init__(self, d: int, bottleneck: int, name: str, seed: int,
                 variant: str = "sequential", scale=None):
        if bottleneck >= d:
            raise ConfigError(f"bottleneck {bottleneck} must be smaller than width {d}")
        self.variant = variant
        self.scale = scale  # None (sequential), float, or shared scalar Param
        self.w_down = Param.xavier(f"{name}.w_down", (d, bottleneck), seed)
        self.b_down = Param.zeros(f"{name}.b_down", bottleneck)
        self.w_up = Param.zeros(f"{name}.w_up", (bottleneck, d))
        self.b_up = Param.zeros(f"{name}.b_up", d)
        self.ln_g = Param.ones(f"{name}.ln.gamma", d)
        self.ln_b = Param.zeros(f"{name}.ln.beta", d)

    def branch(self, x: Tensor) -> Tensor:
        """LN(up(relu(down(x)))), the bare bottleneck branch."""
        h = tt.relu(tt.linear(x, self.w_down, self.b_down))
        return tt.layer_norm(tt.linear(h, self.w_up, self.b_up), self.ln_g, self.ln_b)

    def apply_sequential(self, h: Tensor) -> Tensor:
        return inner_sequential(h, self)

    def fuse_ffn(self, u: Tensor, ffn_out: Tensor, ln_gamma, ln_beta) -> Tensor:
        """Fuse this adapter with the FFN sub-block of its host layer."""
        if self.variant == "sequential":
            return tt.layer_norm(
                tt.add(inner_sequential(ffn_out, self), u), ln_gamma, ln_beta
            )
        return fuse_parallel(u, ffn_out, inner_parallel(u, self), self.scale, ln_gamma, ln_beta)

    def params(self):
        return [self.w_down, self.b_down, self.w_up, self.b_up, self.ln_g, self.ln_b]


def inner_sequential(ffn_out: Tensor, adapter: BottleneckAdapter) -> Tensor:
    """Adapter applied after the FFN: its branch reads the FFN output and is
    added back onto it (the residual belongs to the adapter)."""
    return tt.add(ffn_out, adapter.branch(ffn_out))


def inner_parallel(x: Tensor, adapter: BottleneckAdapter) -> Tensor:
    """Parallel branch: reads the FFN input, no internal residual."""
    return adapter.branch(x)


def fuse_parallel(x: Tensor, ffn_out: Tensor, z_p: Tensor, s, ln_gamma, ln_beta) -> Tensor:
    """LN(ffn_out + s * z_p + x): scaled parallel branch summed with the
    frozen FFN branch and the residual, then the sub-block LN. A learnable
    s receives gradient through the scale op."""
    return tt.layer_norm(
        tt.add(tt.add(ffn_out, tt.scale(z_p, s)), x), ln_gamma, ln_beta
    )


def weighted_sum(layer_outputs, layer_logits: Param) -> Tensor:
    """Convex combination of per-layer outputs with softmax(layer_logits)
    weights."""
    if len(layer_outputs) != layer_logits.shape[0]:
        raise ValueError(
            f"weighted_sum: {len(layer_outputs)} layers vs "
            f"{layer_logits.shape[0]} logits"
        )
    return tt.lincomb(tt.softmax(layer_logits), layer_outputs)


class InterLayerAdapter:
    """FC + ReLU + LN bridge from the hidden width to the embedding width,
    applied to the weighted sum of all layer outputs."""

    def __init__(self, d: int, embed_dim: int, seed: int, name: str = "bridge"):
        self.w = Param.xavier(f"{name}.w", (d, embed_dim), seed)
        self.b = Param.zeros(f"{name}.b", embed_dim)
        self.ln_g = Param.ones(f"{name}.ln.gamma", embed_dim)
        self.ln_b = Param.zeros(f"{name}.ln.beta", embed_dim)

    def params(self):
        return [self.w, self.b, self.ln_g, self.ln_b]


def inter_layer_forward(h_sum: Tensor, adapter: InterLayerAdapter) -> Tensor:
    """LN(relu(h_sum @ W + b)) row-wise, mapping [T, d] to [T, e]."""
    return tt.layer_norm(
        tt.relu(tt.linear(h_sum, adapter.w, adapter.b)), adapter.ln_g, adapter.ln_b
    )


# ---------------------------------------------------------------------------
# tuning-mode attachment


def attach(model, mode: str, adapter_cfg: AdapterConfig | None = None):
    """Configure a fresh model for a tuning mode from its `MODE_SPECS` row:
    insert the row's bottleneck adapters and set every trainability flag.
    A mode with adapter slots takes an `AdapterConfig` (`default_adapter`
    when none is given) of a variant it accepts; any other mode takes none.
    Attaching twice is an error.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown tuning mode {mode!r}; expected one of {MODES}")
    if getattr(model, "mode", None) is not None:
        raise ConfigError(f"model already attached in mode {model.mode!r}")
    spec = MODE_SPECS[mode]
    if spec.slots:
        adapter_cfg = adapter_cfg or default_adapter(mode)
        if adapter_cfg.variant not in spec.variants:
            raise ConfigError(f"mode {mode!r} uses {' or '.join(spec.variants)} adapters only")
    elif adapter_cfg is not None:
        raise ConfigError(f"mode {mode!r} takes no bottleneck adapter config")

    cfg = model.encoder.cfg
    scale = None
    if spec.slots and adapter_cfg.variant == "parallel":
        if adapter_cfg.scale == LEARNABLE:
            model.scale_param = Param(
                float(adapter_cfg.scale_init), name="adapters.scale"
            )
            scale = model.scale_param
        else:
            scale = float(adapter_cfg.scale)
    for slot in spec.slots:
        adapters = [
            BottleneckAdapter(
                cfg.hidden_dim, adapter_cfg.bottleneck_dim, f"adapters.layer{i:02d}.{slot}",
                model.seed, adapter_cfg.variant, scale,
            )
            for i in range(cfg.num_layers)
        ]
        setattr(model, f"{slot}_adapters", adapters)

    model.encoder.set_trainable(spec.train_stack)
    model.layer_logits.trainable = spec.train_logits
    for p in model.bridge.params():
        p.trainable = spec.train_bridge
    for p in model.head.params():
        p.trainable = True
    model.mode = mode
    return model


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


def count_trainable(model) -> dict:
    """Exact trainable-parameter count per component, plus the share of the
    backbone total (featurizer + transformer stack, trainable or not)."""
    counts = count_params(model)
    del counts["breakdown"]
    return counts
