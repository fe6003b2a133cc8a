"""Run orchestration: configs, binary checkpoints, desk-scale backbone
pre-training, tuning runs, evaluation, parameter-count reports, and the
multi-run rosters of labelled run configs (the scaling-factor sweep, and
the mode comparison, whose rows the parameter-count report counts).

Checkpoint format (version 4, little-endian throughout):

    magic   8 bytes  b"SVADCKPT"
    version u32
    conf    u32 length + UTF-8 key=value block with [section] headers
    step    u64      training-step counter
    nparams u32
    per param: u16 name length + UTF-8 name, u8 trainable flag,
               u8 rank, u32 per dim, float64 values row-major
    hash    u64      fnv1a64(sha256(backbone bytes)): the sha256 of the raw
                     bytes of the backbone params (featurizer + transformer
                     stack) in serialized order, folded to 64 bits by
                     `rng.fnv1a64`
    seal    32 bytes the same sha256, fed on after the backbone values with
                     every other preceding byte in file order (header,
                     config, param headers, other values and the hash)

So one sha256 pass over the file gives both the hash (from a copy of its
state taken after the backbone values) and the seal. A load checks the
magic and version, walks the length fields once, bounds-checked, to find
each param's values, and checks the seal before it decodes anything; then
it verifies the backbone hash. Re-saving reproduces the bytes. Files of
versions 1 to 3 are refused. Saving is atomic: a save that raises leaves
any earlier file at the path. `checkpoint_params` and `load_params` are the
one path between a model and a checkpoint. A run hashes its backbone only
when it saves or is asked.
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
CHECKPOINT_VERSION = 4
_BACKBONE_PREFIX_BYTES = tuple(p.encode() for p in ad.BACKBONE_PREFIXES)


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
    """fnv1a64 of the sha256 of the little-endian float64 bytes of the
    backbone params (featurizer + transformer stack) in their serialized
    order. Each array updates the sha256 in turn, which equals hashing
    their concatenation, so no backbone-sized buffer is built."""
    digest = hashlib.sha256()
    for name, _t, arr in params:
        if name.startswith(ad.BACKBONE_PREFIXES):
            digest.update(np.ascontiguousarray(arr, "<f8"))
    return fnv1a64(digest.digest())


def checkpoint_params(model: SVModel, backbone_only: bool = False) -> list:
    """The (name, trainable, array) rows a checkpoint of `model` holds, in
    serialized order: all but the training-only classifier, or the backbone
    (featurizer + transformer stack) alone. The arrays are the params' own."""
    params = model.encoder.params() if backbone_only else model.named_params(include_classifier=False)
    return [(p.name, p.trainable, p.data) for p in params]


def backbone_checkpoint(model: SVModel) -> Checkpoint:
    """In-memory backbone-only checkpoint at step 0 (no file round trip).
    Its config text records the model's encoder and seed, as a full-finetune run's."""
    params = [(name, t, arr.copy()) for name, t, arr in checkpoint_params(model, backbone_only=True)]
    cfg = RunConfig(mode="full-finetune", seed=model.seed, encoder=model.encoder.cfg)
    return Checkpoint(config_to_text(cfg), 0, params, backbone_hash_of(params))


def save_checkpoint(path, config_text: str, params, step: int) -> int:
    """Write the versioned binary checkpoint; returns the backbone hash. A
    name given twice is a DataError before the file is opened. A 0-d param
    (the learnable adapter scale) is written with rank 0. The sha256 takes
    the backbone arrays first and then every other piece in file order, and
    the file is one `writelines` of the packed headers and the arrays' own
    buffers."""
    payload = [(name, trainable, np.asarray(arr, "<f8", order="C")) for name, trainable, arr in params]
    names = set()
    for name, _t, _a in payload:
        if name in names:
            raise DataError(f"{path}: param {name!r} appears twice")
        names.add(name)
    conf = config_text.encode("utf-8")
    pieces = [MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(conf)), conf,
              struct.pack("<QI", step, len(payload))]
    rest = list(pieces)  # every piece but the backbone values, in file order
    seal = hashlib.sha256()
    for name, trainable, arr in payload:
        nb = name.encode("utf-8")
        head = struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb, int(trainable),
                           arr.ndim, *arr.shape)
        pieces += (head, arr)
        rest.append(head)
        if name.startswith(ad.BACKBONE_PREFIXES):
            seal.update(arr)
        else:
            rest.append(arr)
    h = fnv1a64(seal.copy().digest())
    witness = struct.pack("<Q", h)
    pieces.append(witness)
    rest.append(witness)
    for piece in rest:
        seal.update(piece)
    pieces.append(seal.digest())
    with atomic_write(path, "wb") as fh:
        fh.writelines(pieces)
    return h


def save_model_checkpoint(path, model: SVModel, config_text: str, step: int) -> int:
    """Checkpoint every model param except the training-only classifier."""
    return save_checkpoint(path, config_text, checkpoint_params(model), step)


def load_checkpoint(path) -> Checkpoint:
    with reading(path, "checkpoint") as fh:
        return _parse_checkpoint(fh.read(), path)


def _walk(blob: bytes, end: int):
    """(config end, step, param rows, backbone hash offset) of a checkpoint
    whose seal starts at `end`, or None if a length field runs past `end`.
    Each row is (name start, name end, trainable, shape, values start,
    values end). Every field is read by an `unpack_from` at or past the end
    of the one before it, so a length that runs past `end` fails the next
    read."""
    view = memoryview(blob)[:end]
    try:
        (conf_len,) = struct.unpack_from("<I", view, 12)
        conf_end = 16 + conf_len
        step, nparams = struct.unpack_from("<QI", view, conf_end)
        off = conf_end + 12
        rows = []
        for _ in range(nparams):
            (name_len,) = struct.unpack_from("<H", view, off)
            name_at, off = off + 2, off + 2 + name_len
            trainable, rank = struct.unpack_from("<BB", view, off)
            shape = struct.unpack_from(f"<{rank}I", view, off + 2)
            start = off + 2 + 4 * rank
            off = start + 8 * math.prod(shape)
            rows.append((name_at, name_at + name_len, trainable, shape, start, off))
        struct.unpack_from("<Q", view, off)
    except (struct.error, OverflowError):  # OverflowError: an offset past 2**63
        return None
    return conf_end, step, rows, off


def _parse_checkpoint(blob: bytes, path) -> Checkpoint:
    if blob[:8] != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    corrupt = DataError(f"{path}: sha256 mismatch: the file is truncated or corrupt")
    if len(blob) < 12:
        raise corrupt
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}, "
                        f"expected {CHECKPOINT_VERSION}; re-run to regenerate it")
    end = max(len(blob) - 32, 0)
    walked = _walk(blob, end)
    if walked is None:
        raise corrupt
    conf_end, step, rows, hash_at = walked
    view = memoryview(blob)
    seal, others, at = hashlib.sha256(), [], 0
    for name_at, name_end, _t, _s, start, stop in rows:
        if blob.startswith(_BACKBONE_PREFIX_BYTES, name_at, name_end):
            seal.update(view[start:stop])
            others.append(view[at:start])
            at = stop
    actual = fnv1a64(seal.copy().digest())
    others.append(view[at:end])
    for piece in others:
        seal.update(piece)
    if seal.digest() != blob[end:]:
        raise corrupt

    def text(start, stop, what):
        try:
            return blob[start:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {what} is not valid UTF-8 ({exc})") from exc

    config_text = text(16, conf_end, "config block")
    if hash_at + 8 != end:
        raise DataError(f"{path}: {end - hash_at - 8} bytes follow the backbone hash")
    params, seen = [], set()
    for i, (name_at, name_end, trainable, shape, start, stop) in enumerate(rows):
        name = text(name_at, name_end, f"param {i} name")
        if name in seen:
            raise DataError(f"{path}: param {name!r} appears twice")
        seen.add(name)
        try:
            values = np.frombuffer(view[start:stop], "<f8").reshape(shape)
        except ValueError as exc:  # more dims than this numpy allows
            raise DataError(f"{path}: param {name!r} has rank {len(shape)}: {exc}") from exc
        params.append((name, bool(trainable), values.copy()))
    (stored_hash,) = struct.unpack_from("<Q", blob, hash_at)
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


def _check_encoders(encoder: EncoderConfig, recorded: EncoderConfig, named: str) -> None:
    """ConfigError naming `named` and both encoders unless they agree, seed aside."""
    if replace(recorded, seed=0) != replace(encoder, seed=0):
        raise ConfigError(f"{named} record different encoders, seed aside: "
                          f"{encoder} and {recorded}")


def _fit(cfg: RunConfig, corpus: Corpus, part: str, backbone_ckpt=None):
    """(model, losses): `cfg`'s model, with a backbone that records the run's encoder
    (seed aside) loaded when given, trained with a fresh classifier on `part`'s speakers."""
    if backbone_ckpt is not None:
        _check_encoders(cfg.encoder, config_from_text(backbone_ckpt.config_text).encoder,
                        "the run and its backbone")
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
    trainable: dict
    eer: float
    min_dcf: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int
    wall_clock_s: float  # rounded to 3 decimals

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


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
        trainable=ad.count_params(run.model),
        **asdict(result),
        wall_clock_s=round(time.perf_counter() - started, 3),
    )


# ---------------------------------------------------------------------------
# parameter-count report (shape-only builds; no weights are allocated)


def count_params_table(cfg: RunConfig) -> list:
    """Trainable counts of each row of `compare_configs(cfg)`, built
    shape-only, by `adapters.count_params`: a weights/biases/LN breakdown
    and shares of the backbone total (featurizer + transformer stack). A
    fixed scale adds no param, so either adapter variant counts the same."""
    with tt.shape_only():
        counts = {mode: ad.count_params(SVModel(row.encoder, row.embed_dim, mode, row.adapter, row.seed))
                  for mode, row in compare_configs(cfg).items()}
    return [{"mode": mode, "trainable_pretrained_side": c.pop("pretrained_side_trainable"), **c}
            for mode, c in counts.items()]


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


def sweep_configs(cfg: RunConfig, scales=DEFAULT_SWEEP_SCALES) -> dict:
    """`cfg` for each entry of `scales`, labelled by it: "sequential" (the
    sequential adapter), "learnable" (the parallel one, learnable scale) or
    a number as `f"{s:g}"` prints it (the parallel one at that scale). Two
    entries with one label, a bad entry or a mode without a parallel adapter
    is a ConfigError."""
    if "parallel" not in ad.MODE_SPECS[cfg.mode].variants:
        raise ConfigError(f"sweep-scale needs an inner-adapter mode, not {cfg.mode!r}")
    dim, rows = cfg.adapter.bottleneck_dim, {}
    for s in scales:
        label = s if isinstance(s, str) else f"{s:g}"
        if label in rows:
            raise ConfigError(f"sweep entry {s!r} repeats the row label {label!r}")
        rows[label] = replace(cfg, adapter=ad.AdapterConfig(dim, "sequential") if s == "sequential"
                              else ad.AdapterConfig(dim, "parallel", s))
    return rows


def compare_configs(cfg: RunConfig) -> dict:
    """`cfg` in each mode of `MODES`, in order, labelled by the mode, with
    the mode's default adapter (`adapters.adapter_for`) at `cfg`'s
    bottleneck width."""
    width = {} if cfg.adapter is None else {"bottleneck_dim": cfg.adapter.bottleneck_dim}
    return {mode: replace(cfg, mode=mode, adapter=ad.adapter_for(
                mode, settings=width if mode in ad.INNER_MODES else None))
            for mode in ad.MODES}


def backbone_runs(rows: dict, backbone_paths, encoder: EncoderConfig | None = None) -> list:
    """(backbone checkpoint, label, run config) for each backbone file, then
    each row of the roster `rows`, with the encoder and seed the backbone's
    config text records. Every backbone is read, and must record `encoder`
    (the first backbone's when None), its seed aside, before each run's
    model is built shape-only, so a run that cannot start is a ConfigError
    before any of them does."""
    backbones = [load_checkpoint(path) for path in backbone_paths]
    recorded = [config_from_text(b.config_text, f"config of backbone {path}")
                for path, b in zip(backbone_paths, backbones)]
    named = f"backbones {backbone_paths[0]} and" if encoder is None else "the run and backbone"
    encoder = encoder or recorded[0].encoder
    for path, cfg in zip(backbone_paths, recorded):
        _check_encoders(encoder, cfg.encoder, f"{named} {path}")
    return [(b, label, buildable(replace(row, encoder=cfg.encoder, seed=cfg.seed)))
            for b, cfg in zip(backbones, recorded) for label, row in rows.items()]


def format_run_table(rows, column: str) -> str:
    """One line per label of `rows`, (label, report) pairs, in first-row
    order, under a `column` heading: its trainable count and the median EER
    and minDCF over its reports."""
    groups = {}
    for label, r in rows:
        groups.setdefault(label, []).append(r)
    lines = [f"{column:<14} {'trainable':>12} {'pct':>7} {'EER':>7} {'minDCF':>8}"]
    for label, rs in groups.items():
        c = rs[0].trainable
        eer, dcf = (float(np.median([getattr(r, k) for r in rs])) for k in ("eer", "min_dcf"))
        lines.append(f"{label:<14} {c['pretrained_side_trainable']:>12,} "
                     f"{c['pct_of_backbone']:>6.2f}% {eer:>7.3f} {dcf:>8.3f}")
    return "\n".join(lines)
