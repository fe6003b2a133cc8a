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

A corpus file (format svcorpus-v2) is a UTF-8 header, each line ending in
"\n", followed by one binary payload:

    svcorpus-v2
    [config]
    <field>=<value>                  one line per CorpusConfig field
    [speakers]
    <speaker> pretrain|adapt         one line per speaker, sorted
    [utterances]
    utt <id> <speaker> <t> <f_dim>   one index entry per utterance
    [frames] <nbytes>
    <payload>

The payload holds every utterance's [t, f_dim] frames as raw little-endian
float64, row-major, in index order, and nothing follows it; nbytes is
8 * sum(t * f_dim). Raw bytes read back bit for bit, NaN payloads and
signed zeros included. The older svcorpus-v1 text files are refused.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .fileio import atomic_write, reading, text_records
from .metrics import Trial
from .rng import Stream, gaussians, randints

FORMAT_HEADER = "svcorpus-v2"


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
        for name in ("speaker_scale", "channel_scale", "noise_scale"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")


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
    duplicates, no self-pairs, deterministic in the seed. Each count must be
    at least 1, as every reader of a trial list requires."""
    if n_target < 0 or n_nontarget < 0:
        raise ConfigError(f"trial counts must be non-negative, got {n_target} target "
                          f"and {n_nontarget} nontarget")
    if n_target == 0 or n_nontarget == 0:
        raise ConfigError("the trial list needs at least one target and one nontarget trial")
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
# corpus files: text header and index, then one raw float64 payload


def write_corpus(path, corpus: Corpus) -> None:
    """Write the corpus file atomically: the header as one string, then
    each utterance's frames as one raw little-endian float64 buffer."""
    cfg = corpus.config
    frames = [np.asarray(u.frames, "<f8", order="C") for u in corpus.utterances]
    header = [FORMAT_HEADER, "[config]"]
    header += [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)]
    header.append("[speakers]")
    header += [f"{spk} {corpus.speaker_split[spk]}" for spk in sorted(corpus.speaker_split)]
    header.append("[utterances]")
    for u, block in zip(corpus.utterances, frames):
        t, f_dim = block.shape
        header.append(f"utt {u.utt_id} {u.speaker} {t} {f_dim}")
    header.append(f"[frames] {sum(block.nbytes for block in frames)}")
    with atomic_write(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for block in frames:
            fh.write(block)


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


def _header_lines(fh, path):
    """(line number, text) of each header line of a file opened in binary
    mode, which leaves the payload after the header unread. A line must
    end in a newline and be UTF-8."""
    for lineno, raw in enumerate(iter(fh.readline, b""), start=1):
        if not raw.endswith(b"\n"):
            raise ParseError(f"{path}:{lineno}: truncated header line")
        try:
            yield lineno, raw[:-1].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None


def read_corpus(path) -> Corpus:
    """Read a corpus file. A malformed header, index or payload raises
    ParseError (or ConfigError for a bad config), naming the header line
    at fault. The payload is read with one `readinto`, and each
    utterance's frames are a writable view of that buffer."""
    with reading(path, "corpus file") as fh:
        lines = _header_lines(fh, path)
        _, header = next(lines, (0, None))
        if header is None:
            raise ParseError(f"{path}: empty corpus file")
        if header == "svcorpus-v1":
            raise ParseError(f"{path}:1: svcorpus-v1 text corpora are no longer read; "
                             "regenerate with `svadapt gen-data`")
        if header != FORMAT_HEADER:
            raise ParseError(f"{path}:1: unsupported corpus format {header!r}, "
                             f"expected {FORMAT_HEADER!r}")
        lineno, section = next(lines, (0, ""))
        if section != "[config]":
            raise ParseError(f"{path}:{lineno}: expected [config] section")
        cfg = _parse_config(lines, path)
        split = _parse_speakers(lines, path)
        index, nbytes = _parse_index(lines, path, split, cfg.frame_dim)
        payload = _read_payload(fh, nbytes, path)
    utterances, offset = [], 0
    for utt_id, speaker, t, f_dim in index:
        frames = np.frombuffer(payload, "<f8", t * f_dim, offset).reshape(t, f_dim)
        utterances.append(Utterance(utt_id, speaker, frames))
        offset += frames.nbytes
    return Corpus(cfg, utterances, split)


def _parse_speakers(lines, path) -> dict:
    split = {}
    for lineno, line in lines:
        if line == "[utterances]":
            return split
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("pretrain", "adapt"):
            raise ParseError(f"{path}:{lineno}: bad speaker split line {line!r}")
        split[parts[0]] = parts[1]
    raise ParseError(f"{path}: missing [utterances] section")


def _parse_index(lines, path, split: dict, frame_dim: int):
    """([(id, speaker, t, f_dim)], nbytes) from the index records and the
    `[frames] <nbytes>` line after them, which must be exactly that: one
    space, and the decimal the index implies."""
    index, seen = [], set()
    for lineno, line in lines:
        parts = line.split()
        if parts[:1] == ["[frames]"]:
            break
        if len(parts) != 5 or parts[0] != "utt":
            raise ParseError(f"{path}:{lineno}: expected utterance record, got {line!r}")
        _, utt_id, speaker, t_str, f_str = parts
        try:
            t, f_dim = int(t_str), int(f_str)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if speaker not in split:
            raise ParseError(f"{path}:{lineno}: utterance for unlisted speaker {speaker!r}")
        if t < 1:
            raise ParseError(f"{path}:{lineno}: utterance {utt_id!r} has {t} frames")
        if f_dim != frame_dim:
            raise ParseError(
                f"{path}:{lineno}: utterance {utt_id!r} has frame dim {f_dim}, "
                f"the config says {frame_dim}"
            )
        if utt_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        seen.add(utt_id)
        index.append((utt_id, speaker, t, f_dim))
    else:
        raise ParseError(f"{path}: missing [frames] section")
    nbytes = 8 * sum(t * f_dim for _i, _s, t, f_dim in index)
    if line != f"[frames] {nbytes}":
        raise ParseError(f"{path}:{lineno}: expected '[frames] {nbytes}', got {line!r}")
    return index, nbytes


def _read_payload(fh, nbytes: int, path) -> np.ndarray:
    """The `nbytes` bytes after the header, read in one `readinto` into an
    uninitialised uint8 buffer; the file must end there. A buffer is never
    larger than what a regular file holds, so a header that claims too
    many bytes allocates none."""
    st = os.fstat(fh.fileno())
    held = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else nbytes
    payload = np.empty(min(held, nbytes), np.uint8)
    got = fh.readinto(payload)
    if got < nbytes:
        raise ParseError(f"{path}: truncated frames: {got} of {nbytes} bytes")
    if fh.read(1):
        raise ParseError(f"{path}: trailing bytes after the {nbytes} bytes of frames")
    return payload


# trial-list files: "enroll test label" with label 1 (target) or 0


def write_trials(path, trials) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write(f"{t.enroll} {t.test} {int(t.target)}\n")


def read_trials(path) -> list:
    """Parse a trial list; a malformed or non-UTF-8 line raises ParseError
    naming it, and a file that cannot be read DataError."""
    trials = []
    for lineno, (enroll, test, label) in text_records(path, 3, "trial list"):
        if label not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: trial label must be 0 or 1, got {label!r}")
        try:
            trials.append(Trial(enroll, test, label == "1"))
        except DataError as exc:  # an utterance paired with itself
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return trials
