"""Run orchestration: configs, binary checkpoints, desk-scale backbone
pre-training, tuning runs, evaluation, parameter-count reports, and the
multi-run rosters (the scaling-factor sweep and the mode comparison).

Checkpoint format (version 2, little-endian throughout):

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
    sha256  32 bytes sha256 over every preceding byte

A load checks the version and the sha256 before it parses anything, then
verifies the backbone hash; re-saving reproduces the bytes.
Saving is atomic: a save that raises leaves any earlier file at the path.
`checkpoint_params` and `load_params` are the one path between a model and
a checkpoint. A run hashes its backbone only when it saves or is asked.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import struct
import time
from dataclasses import Field, asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import adapters as ad
from . import tensor as tt
from .backbone import EncoderConfig
from .backend import cosine_score, train_loss
from .errors import ConfigError, DataError, NumericError
from .fileio import atomic_write, reading
from .metrics import P_TARGET, ScoreSet, evaluate_scores
from .model import SVModel
from .optim import Adam, LrSchedule
from .rng import Stream, fnv1a64
from .synthdata import Corpus

MAGIC = b"SVADCKPT"
CHECKPOINT_VERSION = 2


RUN, OPTIM, DATA = {"section": "run"}, {"section": "optim"}, {"section": "data"}


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, in the order of its config text. Each field's
    metadata names its [section], its config key where that differs from
    the field name, and its CLI flag where that differs from the key; a
    data path's key drops the `_path`, so `corpus_path` is `[data] corpus`
    and `--corpus`. `fields_of` marks a nested config whose own fields fill
    the section."""

    mode: str = field(default="inner-inter", metadata={**RUN, "choices": ad.MODES})
    seed: int = field(default=0, metadata=RUN)
    batch_size: int = field(default=8, metadata=RUN)
    warmup_steps: int = field(default=200, metadata=RUN)
    total_steps: int = field(default=2000, metadata=RUN)
    encoder: EncoderConfig = field(
        default_factory=EncoderConfig,
        metadata={"section": "encoder", "fields_of": EncoderConfig},
    )
    embed_dim: int = field(default=32, metadata={"section": "head"})
    adapter: ad.AdapterConfig | None = field(
        default=None, metadata={"section": "adapter", "fields_of": ad.AdapterConfig}
    )
    lr_head: float = field(default=5e-4, metadata=OPTIM)
    lr_other: float = field(default=1e-5, metadata=OPTIM)
    corpus_path: str = field(default="", metadata={**DATA, "key": "corpus"})
    trials_path: str = field(default="", metadata={
        **DATA, "key": "trials", "help": "evaluate after training and print a report"})
    backbone_path: str = field(default="", metadata={
        **DATA, "key": "backbone", "help": "pretrained backbone checkpoint"})

    def __post_init__(self):
        object.__setattr__(self, "adapter", ad.adapter_for(self.mode, self.adapter))
        for key, ok, rule in (
            ("total_steps", self.total_steps >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("warmup_steps", 0 <= self.warmup_steps <= self.total_steps, "in [0, total_steps]"),
            ("lr_head", 0.0 <= self.lr_head < math.inf, "finite and >= 0"),
            ("lr_other", 0.0 <= self.lr_other < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")


class Setting(NamedTuple):
    """One config setting: a field of RunConfig or of a config nested in it
    (`part` names the RunConfig field holding it, None for RunConfig's own).
    `cast` is int or float for a field annotated so, else None: the raw
    string is kept and the config class checks it. `flag` is the run flag
    without its leading dashes."""

    section: str
    key: str
    flag: str
    cast: object
    part: str | None
    field: Field


def config_settings():
    """Every config setting, in config-text order."""
    for f in fields(RunConfig):
        nested = f.metadata.get("fields_of")
        for g in fields(nested) if nested else (f,):
            key = g.metadata.get("key", g.name)
            yield Setting(
                f.metadata["section"],
                key,
                g.metadata.get("flag", key.replace("_", "-")),
                {"int": int, "float": float}.get(g.type),
                f.name if nested else None,
                g,
            )


def config_to_text(cfg: RunConfig) -> str:
    """Canonical key = value text with [section] headers, in field order.
    An absent adapter config and empty data paths are left out, and so is
    a section left with nothing in it."""
    lines, section = [], None
    for s in config_settings():
        owner = cfg if s.part is None else getattr(cfg, s.part)
        value = None if owner is None else getattr(owner, s.field.name)
        if value is None or value == "":
            continue
        if s.section != section:
            section = s.section
            lines.append(f"[{section}]\n")
        lines.append(f"{s.key} = {value!r}\n" if s.cast is float else f"{s.key} = {value}\n")
    return "".join(lines)


def config_from_text(text: str, source: str = "config", overrides=None) -> RunConfig:
    """RunConfig from config text, with `overrides` ({part: {field name:
    value}}, part as in `Setting`) laid over its values setting by setting
    before anything is built. Every section and key must be one that
    `config_to_text` can write; one left out takes its default. The
    adapter is built in the run mode's default variant from the given
    adapter settings (`adapters.adapter_for`); an [adapter] section, even
    an empty one, for a mode without adapter slots is a ConfigError. `%` has
    no special meaning."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad {source}: {exc}") from exc
    settings = {(s.section, s.key): s for s in config_settings()}
    parts = {s.section: s.part for s in settings.values()}
    unknown = [f"[{parser.default_section}]"] if parser.defaults() else []
    values = {None: {}}
    for section in parser.sections():
        if section not in parts:
            unknown.append(f"[{section}]")
            continue
        given = values.setdefault(parts[section], {})
        for key, raw in parser[section].items():
            s = settings.get((section, key))
            if s is None:
                unknown.append(f"[{section}] {key}")
                continue
            if "\n" in raw:
                raise ConfigError(f"config key {key!r}: a value must fit on one line")
            try:
                given[s.field.name] = raw if s.cast is None else s.cast(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    if unknown:
        raise ConfigError(f"unknown config section or key: {', '.join(unknown)}")
    for part, updates in (overrides or {}).items():
        values.setdefault(part, {}).update(updates)
    values[None]["adapter"] = ad.adapter_for(values[None].get("mode", RunConfig.mode),
                                             settings=values.get("adapter"))
    return RunConfig(**values[None], encoder=EncoderConfig(**values.get("encoder", {})))


def config_from_file(path, overrides=None) -> RunConfig:
    """`config_from_text` of the file at `path`, with `overrides`; a file
    that is not UTF-8 text is a ConfigError."""
    try:
        with reading(path, "config file", "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc})") from exc
    return config_from_text(text, f"config file {path}", overrides)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config_text: str
    step: int
    params: list  # ordered (name, trainable, array)
    backbone_hash: int


def backbone_hash_of(params) -> int:
    """FNV-1a over the little-endian float64 bytes of the backbone params
    (featurizer + transformer stack) in their serialized order, hashed as
    one contiguous buffer."""
    arrays = [np.ravel(arr) for name, _t, arr in params if name.startswith(ad.BACKBONE_PREFIXES)]
    values = np.concatenate(arrays, dtype="<f8") if arrays else np.empty(0, "<f8")
    return fnv1a64(memoryview(values.view(np.uint8)))


def checkpoint_params(model: SVModel, backbone_only: bool = False) -> list:
    """The (name, trainable, array) rows a checkpoint of `model` holds, in
    serialized order: all but the training-only classifier, or the backbone
    (featurizer + transformer stack) alone. The arrays are the params' own."""
    params = model.encoder.params() if backbone_only else model.named_params(include_classifier=False)
    return [(p.name, p.trainable, p.data) for p in params]


def backbone_checkpoint(model: SVModel, step: int = 0) -> Checkpoint:
    """In-memory backbone-only checkpoint (no file round trip)."""
    params = [(name, t, arr.copy()) for name, t, arr in checkpoint_params(model, backbone_only=True)]
    return Checkpoint("", step, params, backbone_hash_of(params))


def save_checkpoint(path, config_text: str, params, step: int) -> int:
    """Write the versioned binary checkpoint; returns the backbone hash. A
    name given twice is a DataError before the file is opened. A 0-d param
    (the learnable adapter scale) is written with rank 0. The file is one
    `writelines` of the packed headers and the arrays' own buffers."""
    payload = [(name, trainable, np.asarray(arr, "<f8", order="C")) for name, trainable, arr in params]
    names = set()
    for name, _t, _a in payload:
        if name in names:
            raise DataError(f"{path}: param {name!r} appears twice")
        names.add(name)
    h = backbone_hash_of(payload)
    conf = config_text.encode("utf-8")
    pieces = [MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(conf)), conf,
              struct.pack("<QI", step, len(payload))]
    for name, trainable, arr in payload:
        nb = name.encode("utf-8")
        pieces.append(struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb,
                                  int(trainable), arr.ndim, *arr.shape))
        pieces.append(arr)
    pieces.append(struct.pack("<Q", h))
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    pieces.append(digest.digest())
    with atomic_write(path, "wb") as fh:
        fh.writelines(pieces)
    return h


def save_model_checkpoint(path, model: SVModel, config_text: str, step: int) -> int:
    """Checkpoint every model param except the training-only classifier."""
    return save_checkpoint(path, config_text, checkpoint_params(model), step)


def load_checkpoint(path) -> Checkpoint:
    with reading(path, "checkpoint") as fh:
        return _parse_checkpoint(fh.read(), path)


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
                f"offset {self.off}, but its body ends at {len(self.view)}"
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
        raise DataError(f"{path}: unsupported checkpoint version {version}, "
                        f"expected {CHECKPOINT_VERSION}; re-run to regenerate it")
    body = r.view[: len(blob) - 32]
    if len(body) < r.off or hashlib.sha256(body).digest() != blob[len(body):]:
        raise DataError(f"{path}: sha256 mismatch: the file is truncated or corrupt")
    r.view = body
    (conf_len,) = r.unpack("<I", "config length")
    config_text = r.text(conf_len, "config block")
    (step,) = r.unpack("<Q", "step")
    (nparams,) = r.unpack("<I", "param count")
    params, names = [], set()
    for i in range(nparams):
        (name_len,) = r.unpack("<H", f"param {i} name length")
        name = r.text(name_len, f"param {i} name")
        if name in names:
            raise DataError(f"{path}: param {name!r} appears twice")
        names.add(name)
        trainable, rank = r.unpack("<BB", f"param {name!r} flags")
        shape = r.unpack(f"<{rank}I", f"param {name!r} shape")
        count = math.prod(shape)
        raw = r.take(8 * count, f"param {name!r} values")
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
        params.append((name, bool(trainable), arr.copy()))
    (stored_hash,) = r.unpack("<Q", "backbone hash")
    if r.off != len(body):
        raise DataError(f"{path}: {len(body) - r.off} bytes follow the backbone hash")
    actual = backbone_hash_of(params)
    if stored_hash != actual:
        raise DataError(
            f"{path}: backbone hash mismatch "
            f"(stored {stored_hash:#018x}, computed {actual:#018x})"
        )
    return Checkpoint(config_text, step, params, stored_hash)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainedRun:
    """A finished run's model and per-step losses. `backbone_hash` hashes
    the model's backbone each time it is read, and only then."""
    model: SVModel
    losses: list

    @property
    def backbone_hash(self) -> int:
        return backbone_hash_of(checkpoint_params(self.model, backbone_only=True))


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
    head_params, other = [], []
    for p in model.named_params():
        (head_params if ad.component_of(p.name) in ad.HEAD_COMPONENTS else other).append(p)
    mk = lambda peak: LrSchedule(peak, cfg.warmup_steps, cfg.total_steps)
    return Adam([(head_params, mk(cfg.lr_head)), (other, mk(cfg.lr_other))])


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


def buildable(cfg: RunConfig) -> RunConfig:
    """`cfg`, once its model is built shape-only: the constructor is the one
    check that a model can be built, made before any input is read."""
    with tt.shape_only():
        SVModel(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
    return cfg


def _check_frame_dim(corpus: Corpus, encoder_cfg: EncoderConfig) -> None:
    """ConfigError unless the corpus frames fit the encoder's input."""
    if corpus.config.frame_dim != encoder_cfg.input_dim:
        raise ConfigError(
            f"corpus frame dim {corpus.config.frame_dim} does not match the "
            f"encoder input_dim {encoder_cfg.input_dim}"
        )


def _fit(cfg: RunConfig, corpus: Corpus, part: str, backbone_ckpt=None):
    """(model, losses): the model for `cfg`, with the backbone loaded when
    given, trained with a fresh classifier on the speakers of `part`."""
    _check_frame_dim(corpus, cfg.encoder)
    utterances = corpus.part(part)
    if not utterances:
        raise DataError(f"corpus has no utterances in the {part!r} part")
    if cfg.batch_size > len(utterances):
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds the {len(utterances)} utterances "
            f"of the {part!r} part"
        )
    model = SVModel(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
    if backbone_ckpt is not None:
        load_params(model, backbone_ckpt, backbone_only=True)
    speakers = corpus.speakers(part)
    model.add_classifier(len(speakers))
    index = {s: i for i, s in enumerate(speakers)}
    return model, _run_steps(model, utterances, [index[u.speaker] for u in utterances], cfg)


def pretrain_backbone(cfg: RunConfig, corpus: Corpus, out_path=None):
    """Train the backbone (featurizer frozen) plus a throwaway classifier on
    the pre-training speakers; a checkpoint at `out_path` holds backbone only."""
    cfg = replace(cfg, mode="full-finetune", adapter=None)
    model, losses = _fit(cfg, corpus, "pretrain")
    if out_path is not None:
        save_checkpoint(out_path, config_to_text(cfg), checkpoint_params(model, backbone_only=True),
                        cfg.total_steps)
    return TrainedRun(model, losses)


def train(cfg: RunConfig, backbone_ckpt: Checkpoint | None, corpus: Corpus, out_path=None):
    """One tuning run on the adaptation speakers, starting from a pretrained
    backbone when given, and checkpointed when `out_path` is given."""
    model, losses = _fit(cfg, corpus, "adapt", backbone_ckpt)
    if out_path is not None:
        save_model_checkpoint(out_path, model, config_to_text(cfg), cfg.total_steps)
    return TrainedRun(model, losses)


def load_params(model: SVModel, checkpoint: Checkpoint, backbone_only: bool = False) -> None:
    """Copy a checkpoint's values into `model`'s `checkpoint_params` rows in
    place, by name; a backbone load ignores the checkpoint's other params. A
    row the checkpoint lacks, then a name the model lacks or a shape
    mismatch, is a DataError raised before any value is copied."""
    own = {name: arr for name, _t, arr in checkpoint_params(model, backbone_only)}
    values = {name: arr for name, _t, arr in checkpoint.params
              if not backbone_only or name.startswith(ad.BACKBONE_PREFIXES)}
    missing = [name for name in own if name not in values]
    if missing:
        raise DataError(f"checkpoint lacks {len(missing)} {'backbone' if backbone_only else 'model'} "
                        f"params: {', '.join(missing)}")
    for name, arr in values.items():
        if name not in own:
            raise DataError(f"checkpoint parameter {name!r} not present in model")
        if own[name].shape != arr.shape:
            raise DataError(f"shape mismatch for {name!r}: model {own[name].shape} "
                            f"vs checkpoint {arr.shape}")
    for name, arr in values.items():
        own[name][...] = arr


def model_from_checkpoint(checkpoint: Checkpoint) -> SVModel:
    """The model a checkpoint's config describes, with every param loaded
    from it; a param the checkpoint lacks (a backbone-only file) is a
    DataError, never left at its random init."""
    cfg = config_from_text(checkpoint.config_text)
    model = SVModel(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
    load_params(model, checkpoint)
    return model


# ---------------------------------------------------------------------------
# evaluation and reports


def check_trials(trials, corpus: Corpus) -> None:
    """DataError unless every utterance id of `trials` is in `corpus` and
    the list holds at least one target and one nontarget trial."""
    by_id = corpus.by_id()
    for t in trials:
        for utt in (t.enroll, t.test):
            if utt not in by_id:
                raise DataError(f"trial references unknown utterance id {utt!r}")
    if {t.target for t in trials} != {True, False}:
        raise DataError("the trial list needs at least one target and one nontarget trial")


def embed_trial_utterances(model: SVModel, corpus: Corpus, trials) -> dict:
    _check_frame_dim(corpus, model.encoder.cfg)
    check_trials(trials, corpus)
    by_id, ids = corpus.by_id(), dict.fromkeys(u for t in trials for u in (t.enroll, t.test))
    return {utt: model.embed_np(by_id[utt].frames) for utt in ids}


def score_trials(embeddings: dict, trials, p_target: float = P_TARGET):
    """Cosine-score every trial from precomputed embeddings (utterance id ->
    vector) and compute EER / minDCF."""
    scores = [cosine_score(embeddings[t.enroll], embeddings[t.test]) for t in trials]
    labels = [int(t.target) for t in trials]
    return evaluate_scores(ScoreSet(scores, labels), p_target), scores


def evaluate(model: SVModel, corpus: Corpus, trials):
    """Embed every trial utterance once, cosine-score every trial and
    compute EER / minDCF at the default target prior."""
    return score_trials(embed_trial_utterances(model, corpus, trials), trials)


@dataclass
class MetricsReport:
    mode: str
    seed: int
    steps: int
    adapter: dict | None  # the run's AdapterConfig as a dict
    counts: dict
    eer: float
    min_dcf: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int
    wall_clock: float

    def to_json(self, include_timing: bool = True) -> str:
        payload = asdict(self)
        payload["trainable"] = payload.pop("counts")
        wall_clock = payload.pop("wall_clock")
        if include_timing:
            payload["wall_clock_s"] = round(wall_clock, 3)
        return json.dumps(payload, sort_keys=True)


def run_and_report(cfg: RunConfig, backbone_ckpt, corpus: Corpus, trials,
                   out_path=None) -> MetricsReport:
    started = time.perf_counter()
    run = train(cfg, backbone_ckpt, corpus, out_path=out_path)
    result, _scores = evaluate(run.model, corpus, trials)
    return MetricsReport(
        mode=cfg.mode,
        seed=cfg.seed,
        steps=cfg.total_steps,
        adapter=None if cfg.adapter is None else asdict(cfg.adapter),
        counts=ad.count_params(run.model),
        **asdict(result),
        wall_clock=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# parameter-count report (shape-only builds; no weights are allocated)


def count_params_table(encoder_cfg: EncoderConfig, embed_dim: int, bottleneck_dim: int) -> list:
    """Per-mode trainable counts with a weights/biases/LN breakdown, shares
    measured against the backbone total (featurizer + transformer stack).
    Each mode is built shape-only and counted by `adapters.count_params`.
    Its adapters are the mode's default at `bottleneck_dim`; a fixed scale
    adds no param, so the count is the same for either variant."""
    rows = []
    for mode in ad.MODES:
        acfg = ad.adapter_for(mode)
        if acfg is not None:
            acfg = replace(acfg, bottleneck_dim=bottleneck_dim)
        with tt.shape_only():
            counts = ad.count_params(SVModel(encoder_cfg, embed_dim, mode, acfg, seed=0))
        side = counts.pop("pretrained_side_trainable")
        rows.append({"mode": mode, "trainable_pretrained_side": side, **counts})
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
# multi-run rosters: the scaling-factor sweep and the mode comparison


DEFAULT_SWEEP_SCALES = ("sequential", ad.LEARNABLE, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0)


def sweep_configs(cfg: RunConfig, scales=DEFAULT_SWEEP_SCALES) -> list:
    """`cfg` for each entry of `scales`: "sequential" runs the sequential
    adapter, "learnable" the parallel one with a learnable scale, and a
    number the parallel one at that fixed scale. A bad entry or a mode
    without a parallel adapter is a ConfigError."""
    if "parallel" not in ad.MODE_SPECS[cfg.mode].variants:
        raise ConfigError(f"sweep-scale needs an inner-adapter mode, not {cfg.mode!r}")
    dim = cfg.adapter.bottleneck_dim
    return [replace(cfg, adapter=ad.AdapterConfig(dim, "sequential") if s == "sequential"
                    else ad.AdapterConfig(dim, "parallel", s)) for s in scales]


def sweep_label(adapter: dict) -> str:
    """A sweep row's name, from its report's adapter: "sequential",
    "learnable" or the fixed scale."""
    if adapter["variant"] == "sequential":
        return "sequential"
    return adapter["scale"] if adapter["scale"] == ad.LEARNABLE else f"{adapter['scale']:g}"


def compare_configs(cfg: RunConfig) -> list:
    """`cfg` in each mode of `MODES`, in order, with the mode's default
    adapter."""
    return [replace(cfg, mode=mode, adapter=None) for mode in ad.MODES]


def backbone_runs(rows, backbone_paths, encoder: EncoderConfig | None = None) -> list:
    """(backbone checkpoint, run config) for each backbone file, then each
    run config of `rows`, with the encoder and seed the backbone's config
    text records. Every backbone is read, and must record `encoder` (the
    first backbone's when None), its seed aside, before each run's model
    is built shape-only, so a run that cannot start is a ConfigError
    before any of them does."""
    backbones = [load_checkpoint(path) for path in backbone_paths]
    recorded = [config_from_text(b.config_text, f"config of backbone {path}")
                for path, b in zip(backbone_paths, backbones)]
    named = f"backbones {backbone_paths[0]} and" if encoder is None else "the run and backbone"
    encoder = encoder or recorded[0].encoder
    for path, cfg in zip(backbone_paths, recorded):
        if replace(cfg.encoder, seed=0) != replace(encoder, seed=0):
            raise ConfigError(f"{named} {path} record different encoders, seed aside: "
                              f"{encoder} and {cfg.encoder}")
    return [(b, buildable(replace(row, encoder=cfg.encoder, seed=cfg.seed)))
            for b, cfg in zip(backbones, recorded) for row in rows]


def run_reports(runs, corpus: Corpus, trials):
    """The `run_and_report` report of each (backbone, run config) of
    `runs`, yielded as the runs finish."""
    return (run_and_report(cfg, backbone, corpus, trials) for backbone, cfg in runs)


def format_run_table(reports, column: str) -> str:
    """One row per mode, or per sweep row when `column` is "scale", in
    first-report order: its trainable count and the median EER and minDCF
    over its reports."""
    groups = {}
    for r in reports:
        groups.setdefault(r.mode if column == "mode" else sweep_label(r.adapter), []).append(r)
    lines = [f"{column:<14} {'trainable':>12} {'pct':>7} {'EER':>7} {'minDCF':>8}"]
    for label, rs in groups.items():
        c = rs[0].counts
        eer, dcf = (float(np.median([getattr(r, k) for r in rs])) for k in ("eer", "min_dcf"))
        lines.append(f"{label:<14} {c['pretrained_side_trainable']:>12,} "
                     f"{c['pct_of_backbone']:>6.2f}% {eer:>7.3f} {dcf:>8.3f}")
    return "\n".join(lines)
