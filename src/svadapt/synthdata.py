"""Deterministic synthetic speaker corpus and trial-list generation.

Each utterance is T frames of frame_dim numbers built as

    frame_t = M @ v_speaker + c_utterance + noise_t

where M is one fixed mixing matrix per corpus, v_speaker a per-speaker
Gaussian latent, c_utterance a per-utterance channel offset and noise_t
per-frame Gaussian noise, each scaled by its config knob. Every draw comes
from a SplitMix64 stream keyed by (seed, purpose, speaker, utterance), so
any utterance is reproducible in isolation and generation order is
irrelevant. Generation reads all of one speaker's streams in one batched
pass (`rng.gaussians`, `rng.randints`), which gives each stream's values
bit for bit.

Speakers split 50/50 into a pre-training half and an adaptation half.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write
from .metrics import Trial
from .rng import Stream, gaussians, randints

FORMAT_HEADER = "svcorpus-v1"


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 0
    num_speakers: int = field(default=40, metadata={"flag": "speakers"})  # gen-data flag
    utts_per_speaker: int = 20
    frames_min: int = 30
    frames_max: int = 60
    frame_dim: int = 20
    speaker_scale: float = 1.0
    channel_scale: float = 0.3
    noise_scale: float = 0.5

    def __post_init__(self):
        if self.num_speakers < 2:
            raise ConfigError("need at least 2 speakers to split the corpus")
        if self.frames_min < 2 or self.frames_max < self.frames_min:
            raise ConfigError(
                f"bad frame range [{self.frames_min}, {self.frames_max}]"
            )
        if self.utts_per_speaker < 1 or self.frame_dim < 1:
            raise ConfigError("utts_per_speaker and frame_dim must be positive")


@dataclass
class Utterance:
    utt_id: str
    speaker: str
    frames: np.ndarray  # [T, frame_dim]


@dataclass
class Corpus:
    config: CorpusConfig
    utterances: list
    speaker_split: dict  # speaker -> "pretrain" | "adapt"

    def part(self, which: str) -> list:
        if which not in ("pretrain", "adapt"):
            raise ConfigError(f"unknown corpus part {which!r}")
        return [u for u in self.utterances if self.speaker_split[u.speaker] == which]

    def speakers(self, which: str) -> list:
        return sorted({u.speaker for u in self.part(which)})

    def by_id(self) -> dict:
        return {u.utt_id: u for u in self.utterances}


def _speaker_id(i: int) -> str:
    return f"spk{i:03d}"


def _utt_id(spk: int, u: int) -> str:
    return f"spk{spk:03d}_utt{u:03d}"


def _speaker_utterances(cfg: CorpusConfig, mixing: np.ndarray, spk: int) -> list:
    """One speaker's utterances, from one batched draw of its streams; each
    stream is the one a lone draw of that quantity reads."""
    d, n = cfg.frame_dim, cfg.utts_per_speaker
    us = range(n)
    lengths = cfg.frames_min + randints(
        cfg.seed, [f"length/{spk}/{u}" for u in us], cfg.frames_max - cfg.frames_min + 1
    )
    draws = gaussians(
        cfg.seed,
        [f"speaker/{spk}"] + [f"channel/{spk}/{u}" for u in us] + [f"noise/{spk}/{u}" for u in us],
        [d] * (1 + n) + (lengths * d).tolist(),
    )
    latent = draws[:d] * cfg.speaker_scale
    channel = draws[d : d + n * d].reshape(n, d) * cfg.channel_scale
    noise = draws[d + n * d :].reshape(-1, d)
    noise *= cfg.noise_scale
    # frame_t = (M @ v + c) + noise_t, summed in that order
    frames = ((mixing @ latent)[None, :] + channel)[np.repeat(us, lengths)]
    frames += noise
    return [
        Utterance(_utt_id(spk, u), _speaker_id(spk), block)
        for u, block in zip(us, np.split(frames, np.cumsum(lengths)[:-1]))
    ]


def generate_corpus(cfg: CorpusConfig) -> Corpus:
    """All utterances for the config, split 50/50 into pretrain and adapt
    speakers (pretrain gets the extra speaker when the count is odd)."""
    mixing = Stream(cfg.seed, "mixing").gaussian((cfg.frame_dim, cfg.frame_dim))
    mixing /= np.sqrt(cfg.frame_dim)
    utterances = [
        utt for spk in range(cfg.num_speakers) for utt in _speaker_utterances(cfg, mixing, spk)
    ]
    n_pre = (cfg.num_speakers + 1) // 2
    split = {
        _speaker_id(i): ("pretrain" if i < n_pre else "adapt")
        for i in range(cfg.num_speakers)
    }
    return Corpus(cfg, utterances, split)


def generate_trials(utterances, n_target: int, n_nontarget: int, seed: int) -> list:
    """Exact counts of same-speaker and cross-speaker unordered pairs, no
    duplicates, no self-pairs, deterministic in the seed."""
    by_speaker = {}
    for u in utterances:
        by_speaker.setdefault(u.speaker, []).append(u.utt_id)
    target_pool = [
        (ids[i], ids[j])
        for ids in by_speaker.values()
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    speakers = sorted(by_speaker)
    nontarget_pool = [
        (a, b)
        for si in range(len(speakers))
        for sj in range(si + 1, len(speakers))
        for a in by_speaker[speakers[si]]
        for b in by_speaker[speakers[sj]]
    ]
    if n_target > len(target_pool):
        raise ConfigError(
            f"requested {n_target} target trials, only {len(target_pool)} "
            f"distinct same-speaker pairs exist"
        )
    if n_nontarget > len(nontarget_pool):
        raise ConfigError(
            f"requested {n_nontarget} nontarget trials, only "
            f"{len(nontarget_pool)} distinct cross-speaker pairs exist"
        )
    stream = Stream(seed, "trials")
    chosen_t = stream.sample(target_pool, n_target)
    chosen_n = stream.sample(nontarget_pool, n_nontarget)
    return [Trial(a, b, True) for a, b in chosen_t] + [
        Trial(a, b, False) for a, b in chosen_n
    ]


def mean_frame_classifier_accuracy(corpus: Corpus) -> float:
    """Training accuracy of a nearest-class-centroid linear classifier on
    utterance-mean frames; the learnability sanity oracle."""
    means = np.stack([u.frames.mean(axis=0) for u in corpus.utterances])
    speakers = sorted({u.speaker for u in corpus.utterances})
    labels = np.array([speakers.index(u.speaker) for u in corpus.utterances])
    centroids = np.stack([means[labels == k].mean(axis=0) for k in range(len(speakers))])
    d2 = ((means[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == labels).mean())


# ---------------------------------------------------------------------------
# corpus files: text header with config, then one record per utterance


def write_corpus(path, corpus: Corpus) -> None:
    """Write the corpus file atomically, one `write` per utterance record;
    each value is "%.17e" formatted, which reads back bit for bit."""
    cfg = corpus.config
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        fh.write("[config]\n")
        for f in fields(cfg):
            fh.write(f"{f.name}={getattr(cfg, f.name)!r}\n")
        fh.write("[speakers]\n")
        for spk in sorted(corpus.speaker_split):
            fh.write(f"{spk} {corpus.speaker_split[spk]}\n")
        fh.write("[utterances]\n")
        for u in corpus.utterances:
            t, f_dim = u.frames.shape
            template = (" ".join(["%.17e"] * f_dim) + "\n") * t
            rows = template % tuple(u.frames.ravel().tolist())
            fh.write(f"utt {u.utt_id} {u.speaker} {t} {f_dim}\n" + rows)


def _parse_config(lines, path):
    values = {}
    field_types = {f.name: f.type for f in fields(CorpusConfig)}
    for lineno, line in lines:
        if line == "[speakers]":
            break
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value in [config]")
        key, _, raw = line.partition("=")
        if key not in field_types:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = int if field_types[key] == "int" else float
        try:
            values[key] = caster(raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    else:
        raise ParseError(f"{path}: missing [speakers] section")
    return CorpusConfig(**values)


def read_corpus(path) -> Corpus:
    """Parse a corpus file. Any malformed or non-UTF-8 content raises
    ParseError (or ConfigError for a bad config) naming the line."""
    with _utf8_text(path) as fh:
        return _read_corpus(fh, path)


@contextmanager
def _utf8_text(path):
    """The file opened as UTF-8 text; reading a byte that is not UTF-8
    raises ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}:{_first_undecodable_line(path)}: not UTF-8 text") from exc


def _first_undecodable_line(path) -> int:
    """Line of the first byte that is not UTF-8, counting line breaks as
    text mode does: "\n", "\r\n" and a lone "\r"."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = exc.start
    head = data[:end].decode("utf-8")
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def _read_corpus(fh, path) -> Corpus:
    lines = ((i, line.rstrip("\n")) for i, line in enumerate(fh, start=1))
    lineno, header = next(lines, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty corpus file")
    if header != FORMAT_HEADER:
        raise ParseError(
            f"{path}:1: unsupported corpus format {header!r}, expected {FORMAT_HEADER!r}"
        )
    lineno, section = next(lines, (0, ""))
    if section != "[config]":
        raise ParseError(f"{path}:{lineno}: expected [config] section")
    cfg = _parse_config(lines, path)

    split = {}
    for lineno, line in lines:
        if line == "[utterances]":
            break
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("pretrain", "adapt"):
            raise ParseError(f"{path}:{lineno}: bad speaker split line {line!r}")
        split[parts[0]] = parts[1]
    else:
        raise ParseError(f"{path}: missing [utterances] section")

    # from here on lines come straight from fh, each record's rows as a block
    utterances, seen = [], set()
    for line in fh:
        lineno += 1
        parts = line.split()
        if len(parts) != 5 or parts[0] != "utt":
            record = line.rstrip("\n")
            raise ParseError(f"{path}:{lineno}: expected utterance record, got {record!r}")
        _, utt_id, speaker, t_str, f_str = parts
        try:
            t, f_dim = int(t_str), int(f_str)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if speaker not in split:
            raise ParseError(f"{path}:{lineno}: utterance for unlisted speaker {speaker!r}")
        if not 0 < t <= sys.maxsize:
            raise ParseError(f"{path}:{lineno}: utterance {utt_id!r} has {t} frames")
        if f_dim != cfg.frame_dim:
            raise ParseError(
                f"{path}:{lineno}: utterance {utt_id!r} has frame dim {f_dim}, "
                f"the config says {cfg.frame_dim}"
            )
        if utt_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        rows = list(islice(fh, t))
        if len(rows) < t:
            raise ParseError(f"{path}:{lineno + len(rows) + 1}: truncated utterance {utt_id!r}")
        utterances.append(Utterance(utt_id, speaker, _parse_frames(rows, lineno + 1, f_dim, path)))
        lineno += t
    return Corpus(cfg, utterances, split)


def _parse_frames(rows, first: int, f_dim: int, path) -> np.ndarray:
    """One utterance's [t, f_dim] frames from its rows, the first on line
    `first`: one `np.fromstring` over the block. A token holds no
    whitespace, so `np.fromstring` reads it as one number or raises; with
    every row's token count checked, the block holds t * f_dim values.
    When it raises, or reads a NaN (whose sign and payload `float()`
    decides), `_parse_row` reads the rows one by one instead, so the
    result or the error is the row-wise one."""
    if all(map(f_dim.__eq__, map(len, map(str.split, rows)))):
        try:
            frames = np.fromstring("".join(rows), sep=" ").reshape(len(rows), f_dim)
            if not np.isnan(frames).any():
                return frames
        except ValueError:
            pass
    return np.array([_parse_row(row, first + i, f_dim, path) for i, row in enumerate(rows)])


def _parse_row(row: str, lineno: int, f_dim: int, path) -> list:
    """One row's values as `float()` reads them. A number must also be one
    `np.fromstring` reads, so a file loads the same on either path: `1_0`,
    which `float()` alone accepts, is an error (the writer never emits it)."""
    vals = row.split()
    if len(vals) != f_dim:
        raise ParseError(f"{path}:{lineno}: expected {f_dim} values, got {len(vals)}")
    try:
        out = [float(v) for v in vals]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    try:
        np.fromstring(row, sep=" ")
    except ValueError:
        raise ParseError(
            f"{path}:{lineno}: unsupported number syntax in {row.strip()!r}"
        ) from None
    return out


# trial-list files: "enroll test label" with label 1 (target) or 0


def write_trials(path, trials) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(f"{t.enroll} {t.test} {int(t.target)}\n")


def read_trials(path) -> list:
    """Parse a trial list; a malformed or non-UTF-8 line raises ParseError
    naming it."""
    trials = []
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: bad trial line {line.rstrip()!r}")
            try:
                trials.append(Trial(parts[0], parts[1], parts[2] == "1"))
            except DataError as exc:  # an utterance paired with itself
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return trials
