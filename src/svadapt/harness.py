"""Run orchestration: configs, binary checkpoints, desk-scale backbone
pre-training, tuning runs, evaluation, parameter-count reports and the
scaling-factor sweep.

Checkpoint format (version 1, little-endian throughout):

    magic   8 bytes  b"SVADCKPT"
    version u32
    conf    u32 length + UTF-8 key=value block with [section] headers
    step    u64      training-step counter
    nparams u32
    per param: u16 name length + UTF-8 name, u8 trainable flag,
               u8 rank, u32 per dim, float64 values row-major
    hash    u64      FNV-1a over the raw bytes of the backbone params
                     (featurizer + transformer stack) in serialized order;
                     `rng.fnv1a64` computes it in numpy, with the values of
                     the plain byte loop

Loading verifies the trailing hash and re-saving reproduces the bytes.
Saving is atomic: a save that raises leaves any earlier file at the path.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import adapters as ad
from . import tensor as tt
from .backbone import EncoderConfig
from .backend import cosine_score, train_loss
from .errors import ConfigError, DataError, NumericError
from .fileio import atomic_write
from .metrics import ScoreSet, evaluate_scores
from .model import SVModel, build_model, iter_param_specs
from .optim import Adam, LrSchedule
from .rng import Stream, fnv1a64
from .synthdata import Corpus

MAGIC = b"SVADCKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    mode: str = "inner-inter"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    embed_dim: int = 32
    adapter: ad.AdapterConfig | None = None
    lr_head: float = 5e-4
    lr_other: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    warmup_steps: int = 200
    total_steps: int = 2000
    lr_floor_ratio: float = 0.05
    batch_size: int = 8
    seed: int = 0
    corpus_path: str = ""
    trials_path: str = ""
    backbone_path: str = ""

    def __post_init__(self):
        if self.mode not in ad.MODES:
            raise ConfigError(f"unknown tuning mode {self.mode!r}; expected one of {ad.MODES}")
        if self.mode in ad.INNER_MODES:
            if self.adapter is None:
                object.__setattr__(self, "adapter", ad.AdapterConfig())
        elif self.adapter is not None:
            raise ConfigError(f"mode {self.mode!r} takes no adapter configuration")
        if self.total_steps < 1 or self.batch_size < 1:
            raise ConfigError("total_steps and batch_size must be positive")
        if self.warmup_steps < 0 or self.warmup_steps > self.total_steps:
            raise ConfigError("warmup_steps must lie within [0, total_steps]")


def config_to_text(cfg: RunConfig) -> str:
    """Canonical key=value serialization with [section] grouping."""
    out = io.StringIO()
    out.write("[run]\n")
    for key in ("mode", "seed", "batch_size", "warmup_steps", "total_steps"):
        out.write(f"{key} = {getattr(cfg, key)}\n")
    out.write("[encoder]\n")
    enc = cfg.encoder
    for key in ("num_layers", "hidden_dim", "num_heads", "ffn_dim", "input_dim", "seed"):
        out.write(f"{key} = {getattr(enc, key)}\n")
    out.write("[head]\n")
    out.write(f"embed_dim = {cfg.embed_dim}\n")
    if cfg.adapter is not None:
        out.write("[adapter]\n")
        a = cfg.adapter
        out.write(f"bottleneck_dim = {a.bottleneck_dim}\n")
        out.write(f"variant = {a.variant}\n")
        out.write(f"scale = {a.scale}\n")
        out.write(f"scale_init = {a.scale_init!r}\n")
    out.write("[optim]\n")
    for key in (
        "lr_head", "lr_other", "adam_beta1", "adam_beta2", "adam_eps", "lr_floor_ratio",
    ):
        out.write(f"{key} = {getattr(cfg, key)!r}\n")
    paths = [(k, getattr(cfg, f"{k}_path")) for k in ("corpus", "trials", "backbone")]
    if any(v for _k, v in paths):
        out.write("[data]\n")
        for key, value in paths:
            if value:
                out.write(f"{key} = {value}\n")
    return out.getvalue()


def config_from_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return config_from_parser(parser)


def config_from_file(path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not read:
        raise DataError(f"config file {path} not found")
    return config_from_parser(parser)


def _take(section, key, cast, default):
    if key in section:
        raw = section[key]
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return default


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    base = RunConfig()
    run = parser["run"] if parser.has_section("run") else {}
    enc_sec = parser["encoder"] if parser.has_section("encoder") else {}
    head = parser["head"] if parser.has_section("head") else {}
    optim = parser["optim"] if parser.has_section("optim") else {}
    enc_base = EncoderConfig()
    encoder = EncoderConfig(
        num_layers=_take(enc_sec, "num_layers", int, enc_base.num_layers),
        hidden_dim=_take(enc_sec, "hidden_dim", int, enc_base.hidden_dim),
        num_heads=_take(enc_sec, "num_heads", int, enc_base.num_heads),
        ffn_dim=_take(enc_sec, "ffn_dim", int, enc_base.ffn_dim),
        input_dim=_take(enc_sec, "input_dim", int, enc_base.input_dim),
        seed=_take(enc_sec, "seed", int, enc_base.seed),
    )
    adapter = None
    if parser.has_section("adapter"):
        asec = parser["adapter"]
        adapter = ad.AdapterConfig(
            bottleneck_dim=_take(asec, "bottleneck_dim", int, 16),
            variant=asec.get("variant", "parallel"),
            scale=asec.get("scale", "0.5"),  # AdapterConfig coerces and checks it
            scale_init=_take(asec, "scale_init", float, 1.0),
        )
    data = parser["data"] if parser.has_section("data") else {}
    return RunConfig(
        mode=run.get("mode", base.mode),
        encoder=encoder,
        embed_dim=_take(head, "embed_dim", int, base.embed_dim),
        adapter=adapter,
        lr_head=_take(optim, "lr_head", float, base.lr_head),
        lr_other=_take(optim, "lr_other", float, base.lr_other),
        adam_beta1=_take(optim, "adam_beta1", float, base.adam_beta1),
        adam_beta2=_take(optim, "adam_beta2", float, base.adam_beta2),
        adam_eps=_take(optim, "adam_eps", float, base.adam_eps),
        lr_floor_ratio=_take(optim, "lr_floor_ratio", float, base.lr_floor_ratio),
        warmup_steps=_take(run, "warmup_steps", int, base.warmup_steps),
        total_steps=_take(run, "total_steps", int, base.total_steps),
        batch_size=_take(run, "batch_size", int, base.batch_size),
        seed=_take(run, "seed", int, base.seed),
        corpus_path=data.get("corpus", ""),
        trials_path=data.get("trials", ""),
        backbone_path=data.get("backbone", ""),
    )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    version: int
    config_text: str
    step: int
    params: list  # ordered (name, trainable, array)
    backbone_hash: int

    def values(self) -> dict:
        return {name: arr for name, trainable, arr in self.params}


def backbone_hash_of(params) -> int:
    """FNV-1a over the little-endian float64 bytes of the backbone params
    (featurizer + transformer stack) in their serialized order."""
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for name, _t, arr in params
        if name.startswith(("featurizer.", "encoder."))
    )
    return fnv1a64(blob)


def model_backbone_hash(model: SVModel) -> int:
    return backbone_hash_of([(p.name, p.trainable, p.data) for p in model.backbone_params()])


def backbone_checkpoint(model: SVModel, step: int = 0) -> Checkpoint:
    """In-memory backbone-only checkpoint (no file round trip)."""
    params = [(p.name, p.trainable, p.data.copy()) for p in model.backbone_params()]
    return Checkpoint(
        CHECKPOINT_VERSION, "", step, params, backbone_hash_of(params)
    )


def save_checkpoint(path, config_text: str, params, step: int) -> int:
    """Write the versioned binary checkpoint; returns the backbone hash."""
    payload = [(name, trainable, np.ascontiguousarray(arr, dtype="<f8"))
               for name, trainable, arr in params]
    h = backbone_hash_of(payload)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        conf = config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(conf)))
        fh.write(conf)
        fh.write(struct.pack("<Q", step))
        fh.write(struct.pack("<I", len(payload)))
        for name, trainable, arr in payload:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<BB", int(trainable), arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
        fh.write(struct.pack("<Q", h))
    return h


def save_model_checkpoint(path, model: SVModel, config_text: str, step: int) -> int:
    """Checkpoint every model param except the training-only classifier."""
    params = [
        (p.name, p.trainable, p.data)
        for p in model.named_params(include_classifier=False)
    ]
    return save_checkpoint(path, config_text, params, step)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return _parse_checkpoint(blob, path)


class _CheckpointReader:
    """Cursor over a checkpoint blob. Every read is bounds-checked first, so
    a truncated or garbled file raises DataError and never slices short."""

    def __init__(self, blob: bytes, path):
        self.view = memoryview(blob)
        self.path = path
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        end = self.off + n
        if end > len(self.view):
            raise DataError(
                f"truncated checkpoint {self.path}: {what} needs {n} bytes at "
                f"offset {self.off}, but the file has {len(self.view)}"
            )
        chunk = self.view[self.off : end]
        self.off = end
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return bytes(self.take(n, what)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: {what} is not valid UTF-8 ({exc})") from exc


def _parse_checkpoint(blob: bytes, path) -> Checkpoint:
    if blob[:8] != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    r = _CheckpointReader(blob, path)
    r.take(8, "magic")
    (version,) = r.unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {version}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    (conf_len,) = r.unpack("<I", "config length")
    config_text = r.text(conf_len, "config block")
    (step,) = r.unpack("<Q", "step")
    (nparams,) = r.unpack("<I", "param count")
    params = []
    for i in range(nparams):
        (name_len,) = r.unpack("<H", f"param {i} name length")
        name = r.text(name_len, f"param {i} name")
        trainable, rank = r.unpack("<BB", f"param {name!r} flags")
        shape = r.unpack(f"<{rank}I", f"param {name!r} shape")
        count = math.prod(shape)
        raw = r.take(8 * count, f"param {name!r} values")
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
        params.append((name, bool(trainable), arr.copy()))
    (stored_hash,) = r.unpack("<Q", "backbone hash")
    actual = backbone_hash_of(params)
    if stored_hash != actual:
        raise DataError(
            f"{path}: backbone hash mismatch "
            f"(stored {stored_hash:#018x}, computed {actual:#018x})"
        )
    return Checkpoint(version, config_text, step, params, stored_hash)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainedRun:
    model: SVModel
    config: RunConfig
    losses: list
    backbone_hash: int


def _batches(utterances, labels, batch_size: int, total_steps: int, seed: int):
    """Deterministic epoch-shuffled batch iterator yielding index lists."""
    order = []
    epoch = 0
    idx = list(range(len(utterances)))
    while len(order) < total_steps * batch_size:
        shuffled = list(idx)
        Stream(seed, f"batch-order/{epoch}").shuffle(shuffled)
        order.extend(shuffled)
        epoch += 1
    for step in range(total_steps):
        chunk = order[step * batch_size : (step + 1) * batch_size]
        yield [(utterances[i], labels[i]) for i in chunk]


def _optimizer(model: SVModel, cfg: RunConfig) -> Adam:
    head_params = list(model.head.params())
    if model.classifier is not None:
        head_params += model.classifier.params()
    head_ids = {id(p) for p in head_params}
    other = [p for p in model.trainable_params() if id(p) not in head_ids]
    mk = lambda peak: LrSchedule(peak, cfg.warmup_steps, cfg.total_steps, cfg.lr_floor_ratio)
    return Adam(
        [(head_params, mk(cfg.lr_head)), (other, mk(cfg.lr_other))],
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
    )


def _run_steps(model: SVModel, utterances, labels, cfg: RunConfig) -> list:
    opt = _optimizer(model, cfg)
    losses = []
    for batch in _batches(utterances, labels, cfg.batch_size, cfg.total_steps, cfg.seed):
        with tt.Tape() as tape:
            embs = [model.embed(u.frames) for u, _ in batch]
            loss = train_loss(embs, [l for _, l in batch], model.classifier)
            tape.backward(loss)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"non-finite training loss at step {len(losses) + 1}")
        losses.append(value)
        opt.step()
        opt.zero_grad()
    return losses


def _labeled_part(corpus: Corpus, part: str):
    utterances = corpus.part(part)
    if not utterances:
        raise DataError(f"corpus has no utterances in the {part!r} part")
    speakers = corpus.speakers(part)
    index = {s: i for i, s in enumerate(speakers)}
    labels = [index[u.speaker] for u in utterances]
    return utterances, labels, speakers


def pretrain_backbone(cfg: RunConfig, corpus: Corpus, out_path=None):
    """Train the backbone (featurizer frozen) plus a throwaway classifier on
    the pre-training speakers; checkpoint holds backbone params only."""
    cfg = replace(cfg, mode="full-finetune", adapter=None)
    utterances, labels, speakers = _labeled_part(corpus, "pretrain")
    model = build_model(cfg.encoder, cfg.embed_dim, "full-finetune", None, cfg.seed)
    model.add_classifier(len(speakers))
    losses = _run_steps(model, utterances, labels, cfg)
    if out_path is None:
        h = model_backbone_hash(model)
    else:
        params = [(p.name, p.trainable, p.data) for p in model.backbone_params()]
        h = save_checkpoint(out_path, config_to_text(cfg), params, cfg.total_steps)
    return TrainedRun(model, cfg, losses, h)


def load_backbone_into(model: SVModel, checkpoint: Checkpoint) -> None:
    """Install pretrained featurizer + transformer weights by name."""
    backbone = {
        name: arr
        for name, _t, arr in checkpoint.params
        if name.startswith(("featurizer.", "encoder."))
    }
    own = {p.name for p in model.backbone_params()}
    missing = own - set(backbone)
    if missing:
        raise DataError(f"checkpoint lacks backbone params: {sorted(missing)[:3]} ...")
    model.load_param_values(backbone)


def train(cfg: RunConfig, backbone_ckpt: Checkpoint | None, corpus: Corpus, out_path=None):
    """One tuning run on the adaptation speakers, starting from a pretrained
    backbone when given."""
    model = build_model(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
    if backbone_ckpt is not None:
        load_backbone_into(model, backbone_ckpt)
    utterances, labels, speakers = _labeled_part(corpus, "adapt")
    model.add_classifier(len(speakers))
    losses = _run_steps(model, utterances, labels, cfg)
    if out_path is not None:
        save_model_checkpoint(out_path, model, config_to_text(cfg), cfg.total_steps)
    return TrainedRun(model, cfg, losses, model_backbone_hash(model))


def model_from_checkpoint(checkpoint: Checkpoint) -> SVModel:
    cfg = config_from_text(checkpoint.config_text)
    model = build_model(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
    model.load_param_values(checkpoint.values())
    return model


# ---------------------------------------------------------------------------
# evaluation and reports


def embed_trial_utterances(model: SVModel, corpus: Corpus, trials) -> dict:
    by_id = corpus.by_id()
    embeddings = {}
    for t in trials:
        for utt in (t.enroll, t.test):
            if utt in embeddings:
                continue
            if utt not in by_id:
                raise DataError(f"trial references unknown utterance id {utt!r}")
            embeddings[utt] = model.embed_np(by_id[utt].frames)
    return embeddings


def score_trials(embeddings: dict, trials, p_target: float = 0.05):
    """Cosine-score every trial from precomputed embeddings (utterance id ->
    vector) and compute EER / minDCF."""
    scores = [cosine_score(embeddings[t.enroll], embeddings[t.test]) for t in trials]
    labels = [int(t.target) for t in trials]
    return evaluate_scores(ScoreSet(scores, labels), p_target), scores


def evaluate(model: SVModel, corpus: Corpus, trials, p_target: float = 0.05):
    """Embed every trial utterance once, cosine-score every trial and
    compute EER / minDCF."""
    return score_trials(embed_trial_utterances(model, corpus, trials), trials, p_target)


@dataclass
class MetricsReport:
    mode: str
    seed: int
    steps: int
    counts: dict
    eer: float
    min_dcf: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int
    wall_clock: float

    def to_json(self, include_timing: bool = True) -> str:
        payload = {
            "mode": self.mode,
            "seed": self.seed,
            "steps": self.steps,
            "trainable": self.counts,
            "eer": self.eer,
            "min_dcf": self.min_dcf,
            "threshold_at_eer": self.threshold_at_eer,
            "n_target": self.n_target,
            "n_nontarget": self.n_nontarget,
        }
        if include_timing:
            payload["wall_clock_s"] = round(self.wall_clock, 3)
        return json.dumps(payload, sort_keys=True)


def run_and_report(cfg: RunConfig, backbone_ckpt, corpus: Corpus, trials,
                   out_path=None) -> tuple:
    started = time.perf_counter()
    run = train(cfg, backbone_ckpt, corpus, out_path=out_path)
    result, _scores = evaluate(run.model, corpus, trials)
    report = MetricsReport(
        mode=cfg.mode,
        seed=cfg.seed,
        steps=cfg.total_steps,
        counts=ad.count_trainable(run.model),
        eer=result.eer,
        min_dcf=result.min_dcf,
        threshold_at_eer=result.threshold_at_eer,
        n_target=result.n_target,
        n_nontarget=result.n_nontarget,
        wall_clock=time.perf_counter() - started,
    )
    return run, result, report


# ---------------------------------------------------------------------------
# parameter-count report (symbolic; no weights are allocated)


def count_params_table(
    encoder_cfg: EncoderConfig,
    embed_dim: int,
    bottleneck_dim: int,
    adapter_variant: str = "parallel",
    adapter_scale=0.5,
) -> list:
    """Per-mode trainable counts with a weights/biases/LN breakdown, shares
    measured against the backbone total (featurizer + transformer stack)."""
    rows = []
    for mode in ad.MODES:
        acfg = None
        if mode in ad.INNER_MODES:
            variant = "sequential" if mode == "houlsby" else adapter_variant
            acfg = ad.AdapterConfig(
                bottleneck_dim=bottleneck_dim, variant=variant, scale=adapter_scale
            )
        specs = list(iter_param_specs(encoder_cfg, embed_dim, mode, acfg))
        backbone_total = sum(
            s.size for s in specs if s.component in ("featurizer", "backbone")
        )
        components = {}
        breakdown = {}
        for s in specs:
            if not s.trainable:
                continue
            components[s.component] = components.get(s.component, 0) + s.size
            by_kind = breakdown.setdefault(s.component, {"weight": 0, "bias": 0, "ln": 0})
            by_kind[s.kind] += s.size
        pretrained_side = sum(
            v for k, v in components.items() if k not in ("sv_backend", "classifier")
        )
        rows.append(
            {
                "mode": mode,
                "trainable_pretrained_side": pretrained_side,
                "pct_of_backbone": 100.0 * pretrained_side / backbone_total,
                "backbone_total": backbone_total,
                "components": components,
                "breakdown": breakdown,
            }
        )
    return rows


def format_count_table(rows) -> str:
    lines = [f"{'mode':<14} {'trainable':>12} {'% of backbone':>14}  components"]
    for r in rows:
        comps = ", ".join(f"{k}={v:,}" for k, v in sorted(r["components"].items()))
        lines.append(
            f"{r['mode']:<14} {r['trainable_pretrained_side']:>12,} "
            f"{r['pct_of_backbone']:>13.2f}%  {comps}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scaling-factor sweep


DEFAULT_SWEEP_SCALES = (0.05, 0.1, 0.5, 1.0, 1.5, 2.0)


def sweep_scale(
    cfg: RunConfig,
    backbone_ckpt,
    corpus: Corpus,
    trials,
    scales=DEFAULT_SWEEP_SCALES,
    include_learnable: bool = True,
    include_sequential: bool = True,
) -> list:
    """Train + evaluate one run per row: the sequential variant, the
    learnable scale, and each fixed scale; returns row dicts."""
    if cfg.mode not in ("inner", "inner-inter"):
        raise ConfigError(f"sweep-scale needs an inner-adapter mode, not {cfg.mode!r}")
    base_adapter = cfg.adapter or ad.AdapterConfig()
    entries = []
    if include_sequential:
        entries.append(("sequential", replace(base_adapter, variant="sequential")))
    if include_learnable:
        entries.append(
            (ad.LEARNABLE, replace(base_adapter, variant="parallel", scale=ad.LEARNABLE))
        )
    for s in scales:
        entries.append((f"{s:g}", replace(base_adapter, variant="parallel", scale=float(s))))

    rows = []
    for label, acfg in entries:
        run_cfg = replace(cfg, adapter=acfg)
        _run, result, report = run_and_report(run_cfg, backbone_ckpt, corpus, trials)
        rows.append(
            {
                "scale": label,
                "eer": result.eer,
                "min_dcf": result.min_dcf,
                "report": report,
            }
        )
    return rows


def format_sweep_table(rows) -> str:
    lines = [f"{'scale':<12} {'EER':>8} {'minDCF':>8}"]
    for r in rows:
        lines.append(f"{r['scale']:<12} {r['eer']:>8.4f} {r['min_dcf']:>8.4f}")
    return "\n".join(lines)
