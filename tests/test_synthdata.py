"""Synthetic corpus and trial-list generation, corpus and trial files."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svadapt.errors import ConfigError, ParseError
from svadapt.metrics import Trial
from svadapt.rng import Stream
from svadapt.synthdata import (
    Corpus,
    CorpusConfig,
    Utterance,
    generate_corpus,
    generate_trials,
    mean_frame_classifier_accuracy,
    read_corpus,
    read_trials,
    write_corpus,
    write_trials,
)

SMALL = CorpusConfig(
    seed=5, num_speakers=8, utts_per_speaker=5, frames_min=6, frames_max=10, frame_dim=6
)


class TestGenerateCorpus:
    def test_same_config_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_corpus(a, generate_corpus(SMALL))
        write_corpus(b, generate_corpus(SMALL))
        assert a.read_bytes() == b.read_bytes()

    def test_counts(self):
        corpus = generate_corpus(CorpusConfig(seed=1, num_speakers=40, utts_per_speaker=20))
        assert len(corpus.utterances) == 800
        assert len(corpus.part("pretrain")) == 400
        assert len(corpus.part("adapt")) == 400
        assert set(corpus.speakers("pretrain")).isdisjoint(corpus.speakers("adapt"))

    def test_frame_lengths_within_range(self):
        corpus = generate_corpus(SMALL)
        lengths = {u.frames.shape[0] for u in corpus.utterances}
        assert lengths <= set(range(6, 11))
        assert all(u.frames.shape[1] == 6 for u in corpus.utterances)

    def test_intra_speaker_cosine_beats_inter(self):
        corpus = generate_corpus(CorpusConfig())
        means = {u.utt_id: u.frames.mean(axis=0) for u in corpus.utterances}
        speaker = {u.utt_id: u.speaker for u in corpus.utterances}
        ids = sorted(means)
        intra, inter = [], []
        for i in range(0, len(ids), 7):
            for j in range(i + 1, min(i + 15, len(ids))):
                a, b = ids[i], ids[j]
                cos = float(
                    means[a] @ means[b]
                    / (np.linalg.norm(means[a]) * np.linalg.norm(means[b]))
                )
                (intra if speaker[a] == speaker[b] else inter).append(cos)
        assert np.mean(intra) > np.mean(inter)

    def test_linear_classifier_learns_speakers(self):
        # learnability oracle at the default scales
        assert mean_frame_classifier_accuracy(generate_corpus(CorpusConfig())) > 0.90

    def test_rejects_single_speaker(self):
        with pytest.raises(ConfigError, match="at least 2"):
            CorpusConfig(num_speakers=1)

    def test_rejects_bad_frame_range(self):
        with pytest.raises(ConfigError, match="frame range"):
            CorpusConfig(frames_min=10, frames_max=5)

    @pytest.mark.parametrize("name", ["utts_per_speaker", "frame_dim"])
    def test_rejects_a_count_below_one(self, name):
        with pytest.raises(ConfigError, match="utts_per_speaker and frame_dim must be positive"):
            CorpusConfig(**{name: 0})

    def test_unknown_part_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown corpus part 'eval'"):
            generate_corpus(SMALL).part("eval")

    @pytest.mark.parametrize("name", ["speaker_scale", "channel_scale", "noise_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_rejects_non_finite_or_negative_scale(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0"):
            CorpusConfig(**{name: value})
        CorpusConfig(**{name: 0.0})


def pool_trials(utterances, n_target: int, n_nontarget: int, seed: int) -> list:
    """The trial generator that builds both pair pools as lists of tuples
    and runs a partial Fisher-Yates pass over each list: the oracle for
    `generate_trials`, which draws the same pairs by index."""
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
        raise ConfigError(f"requested {n_target} target trials, only {len(target_pool)} "
                          f"distinct same-speaker pairs exist")
    if n_nontarget > len(nontarget_pool):
        raise ConfigError(f"requested {n_nontarget} nontarget trials, only "
                          f"{len(nontarget_pool)} distinct cross-speaker pairs exist")
    stream = Stream(seed, "trials")

    def sample(items, k):
        pool, m = list(items), len(items)
        draws = stream.words(k)
        for i in range(k):
            j = i + int(draws[i] % np.uint64(m - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    chosen_t, chosen_n = sample(target_pool, n_target), sample(nontarget_pool, n_nontarget)
    return [Trial(a, b, True) for a, b in chosen_t] + [Trial(a, b, False) for a, b in chosen_n]


def interleaved_utterances() -> list:
    """Speakers in no order, one of them with a single utterance, so with
    no target pairs."""
    frames = np.zeros((1, 1))
    order = ["s3", "s1", "s3", "s0", "s1", "s3", "s2", "s1", "s3", "s0", "s1", "s3"]
    return [Utterance(f"u{i}", spk, frames) for i, spk in enumerate(order)]


TRIAL_PARTS = {
    "small-adapt": lambda: generate_corpus(SMALL).part("adapt"),
    "small-all": lambda: generate_corpus(SMALL).utterances,
    "pretrain-half": lambda: generate_corpus(CorpusConfig(
        seed=8, num_speakers=9, utts_per_speaker=7, frames_min=2, frames_max=3, frame_dim=2
    )).part("pretrain"),
    "pairs-only": lambda: generate_corpus(CorpusConfig(
        seed=2, num_speakers=6, utts_per_speaker=2, frames_min=2, frames_max=3, frame_dim=2
    )).utterances,
    "interleaved": interleaved_utterances,
}


class TestGenerateTrials:
    @pytest.mark.parametrize("part", sorted(TRIAL_PARTS))
    def test_equals_sampling_the_built_pools(self, part):
        utterances = TRIAL_PARTS[part]()
        by_speaker = {}
        for u in utterances:
            by_speaker.setdefault(u.speaker, []).append(u)
        n_t = sum(len(v) * (len(v) - 1) // 2 for v in by_speaker.values())
        n_n = (len(utterances) ** 2 - sum(len(v) ** 2 for v in by_speaker.values())) // 2
        for seed in (0, 1, 7, 2**63 + 5):
            for counts in [(1, 1), (n_t, n_n), (max(1, n_t // 3), max(1, n_n // 2)), (n_t, 1)]:
                want = pool_trials(utterances, *counts, seed)
                assert generate_trials(utterances, *counts, seed) == want, (seed, counts)

    @pytest.mark.parametrize("part", sorted(TRIAL_PARTS))
    @pytest.mark.parametrize("kind", ["target", "nontarget"])
    def test_too_many_trials_give_the_pool_error(self, part, kind):
        utterances = TRIAL_PARTS[part]()
        counts = (10**6, 1) if kind == "target" else (1, 10**6)
        with pytest.raises(ConfigError) as want:
            pool_trials(utterances, *counts, 0)
        with pytest.raises(ConfigError) as got:
            generate_trials(utterances, *counts, 0)
        assert str(got.value) == str(want.value)
        assert f"distinct {'same' if kind == 'target' else 'cross'}-speaker pairs" in str(got.value)

    def test_exact_counts_and_labels(self):
        corpus = generate_corpus(SMALL)
        trials = generate_trials(corpus.part("adapt"), 15, 25, seed=0)
        assert len(trials) == 40
        assert sum(t.target for t in trials) == 15

    @pytest.mark.parametrize("n_target,n_nontarget", [(-3, 5), (5, -1)])
    def test_negative_count_is_a_config_error(self, n_target, n_nontarget):
        corpus = generate_corpus(SMALL)
        with pytest.raises(ConfigError, match="non-negative"):
            generate_trials(corpus.part("adapt"), n_target, n_nontarget, seed=0)

    def test_deterministic(self):
        corpus = generate_corpus(SMALL)
        a = generate_trials(corpus.part("adapt"), 10, 10, seed=3)
        b = generate_trials(corpus.part("adapt"), 10, 10, seed=3)
        assert a == b

    def test_target_trials_share_speakers(self):
        corpus = generate_corpus(SMALL)
        speaker = {u.utt_id: u.speaker for u in corpus.utterances}
        for t in generate_trials(corpus.part("adapt"), 20, 20, seed=1):
            same = speaker[t.enroll] == speaker[t.test]
            assert same == t.target

    def test_insufficient_pairs_reports_counts(self):
        corpus = generate_corpus(SMALL)
        with pytest.raises(ConfigError, match="only 40"):
            generate_trials(corpus.part("adapt"), 1000, 10, seed=0)

    @given(st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_invariants_over_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        cfg = CorpusConfig(
            seed=seed,
            num_speakers=int(rng.integers(2, 7)),
            utts_per_speaker=int(rng.integers(2, 6)),
            frames_min=2,
            frames_max=4,
            frame_dim=3,
        )
        corpus = generate_corpus(cfg)
        part = corpus.part("adapt")
        n_t = int(rng.integers(1, 4))
        n_n = int(rng.integers(1, 4))
        try:
            trials = generate_trials(part, n_t, n_n, seed=seed)
        except ConfigError:
            return  # tiny configs may not have enough pairs; the error is the contract
        assert len(trials) == n_t + n_n
        assert sum(t.target for t in trials) == n_t
        seen = set()
        for t in trials:
            assert t.enroll != t.test
            key = frozenset((t.enroll, t.test))
            assert key not in seen
            seen.add(key)


def frame_bytes(corpus) -> bytes:
    """Every utterance's frames as little-endian float64, in corpus order."""
    return b"".join(u.frames.astype("<f8").tobytes() for u in corpus.utterances)


def split_file(data: bytes):
    """(header lines with their newlines, payload) of a corpus file."""
    end = data.index(b"\n", data.index(b"\n[frames] ") + 1) + 1
    return data[:end].decode("utf-8").splitlines(keepends=True), data[end:]


class TestCorpusFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.svc"
        write_corpus(path, corpus)
        loaded = read_corpus(path)
        assert loaded.config == corpus.config
        assert loaded.speaker_split == corpus.speaker_split
        assert len(loaded.utterances) == len(corpus.utterances)
        for a, b in zip(corpus.utterances, loaded.utterances):
            assert a.utt_id == b.utt_id and a.speaker == b.speaker
            assert b.frames.dtype == np.float64 and b.frames.shape == a.frames.shape
            assert b.frames.tobytes() == a.frames.tobytes()

    def test_nan_payloads_signed_zeros_and_infinities_round_trip(self, tmp_path):
        bits = [
            0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,  # NaNs, one signalling
            0x7FF4000000000abc, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000,  # more NaNs, -0.0
            0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,  # +-inf, least subnormal
            0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000, 0x0000000000000000,  # max finite, 1.0, +0.0
        ]
        frames = np.array(bits, dtype="<u8").view("<f8").reshape(2, 6)
        cfg = CorpusConfig(num_speakers=2, utts_per_speaker=1, frame_dim=6)
        corpus = Corpus(cfg, [Utterance("u", "spk000", frames)], {"spk000": "pretrain"})
        path = tmp_path / "odd.svc"
        write_corpus(path, corpus)
        got = read_corpus(path).utterances[0].frames
        assert got.view("<u8").ravel().tolist() == bits

    def test_frames_are_writable_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        a, b = read_corpus(path).utterances[:2]
        assert a.frames.flags.writeable and a.frames.flags.c_contiguous
        assert not a.frames.flags.owndata
        address = lambda arr: arr.__array_interface__["data"][0]
        assert address(b.frames) == address(a.frames) + a.frames.nbytes
        before = b.frames.copy()
        a.frames[:] = 7.0
        assert np.array_equal(b.frames, before)

    def test_writing_one_utterance_leaves_every_other_unchanged(self, tmp_path):
        path = tmp_path / "corpus.svc"
        corpus = generate_corpus(SMALL)
        write_corpus(path, corpus)
        loaded = read_corpus(path).utterances
        for i, utt in enumerate(loaded):
            utt.frames[...] = -1.0 - i
            for j, (got, saved) in enumerate(zip(loaded, corpus.utterances)):
                want = np.full_like(saved.frames, -1.0 - j) if j <= i else saved.frames
                assert got.frames.tobytes() == want.tobytes(), (i, j)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        clipped = tmp_path / "clipped.svc"
        clipped.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError, match="truncated frames"):
            read_corpus(clipped)

    def test_truncated_header_line_is_named(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        data = path.read_bytes()
        cut = data.index(b"\n[frames] ") + 5  # inside the [frames] line
        path.write_bytes(data[:cut])
        lineno = data[:cut].count(b"\n") + 1
        with pytest.raises(ParseError, match=f":{lineno}: truncated header line"):
            read_corpus(path)

    def test_corpus_without_utterances_round_trips(self, tmp_path):
        path = tmp_path / "empty.svc"
        write_corpus(path, Corpus(SMALL, [], {"spk000": "pretrain", "spk001": "adapt"}))
        assert path.read_bytes().endswith(b"[utterances]\n[frames] 0\n")
        loaded = read_corpus(path)
        assert loaded.utterances == [] and loaded.speaker_split == {"spk000": "pretrain", "spk001": "adapt"}
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParseError, match="truncated header line"):
            read_corpus(path)

    def test_trailing_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ParseError, match="trailing bytes"):
            read_corpus(path)

    def test_index_claiming_more_than_the_file_holds_allocates_nothing(self, tmp_path):
        t = 10**15  # 8e16 bytes: allocating it would fail
        path = tmp_path / "huge.svc"
        path.write_bytes(
            b"svcorpus-v2\n[config]\nframe_dim=1\n[speakers]\ns pretrain\ns2 adapt\n"
            b"[utterances]\nutt u s %d 1\n[frames] %d\n" % (t, 8 * t) + bytes(16)
        )
        with pytest.raises(ParseError, match="truncated frames: 16 of"):
            read_corpus(path)

    def test_version_mismatch_is_explicit(self, tmp_path):
        path = tmp_path / "corpus.svc"
        path.write_text("svcorpus-v9\n[config]\nseed=1\n")
        with pytest.raises(ParseError, match="unsupported corpus format"):
            read_corpus(path)

    def test_v1_text_corpus_is_refused(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "svcorpus-v1\n[config]\nframe_dim=2\n[speakers]\nspk000 pretrain\n"
            "spk001 adapt\n[utterances]\nutt u spk000 1 2\n"
            "1.00000000000000000e+00 2.00000000000000000e+00\n"
        )
        with pytest.raises(ParseError, match=r":1: svcorpus-v1 text corpora are no longer read; "
                                             r"regenerate with `svadapt gen-data`"):
            read_corpus(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        lines, payload = split_file(path.read_bytes())
        at = next(i for i, l in enumerate(lines) if l.startswith("utt ")) + 2
        lines[at] = lines[at].replace(" 6\n", " 6x\n")
        path.write_bytes("".join(lines).encode() + payload)
        with pytest.raises(ParseError, match=f":{at + 1}: invalid literal"):
            read_corpus(path)

    def test_failed_write_leaves_existing_file(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.svc"
        write_corpus(path, corpus)
        before = path.read_bytes()
        # a 1-D frames array has no (t, f_dim) for its index entry
        broken = Corpus(
            SMALL, corpus.utterances + [Utterance("x", "spk000", np.zeros(3))],
            corpus.speaker_split,
        )
        with pytest.raises(ValueError):
            write_corpus(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.svc"]

    def test_write_into_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "corpus.svc"
        with pytest.raises(FileNotFoundError) as info:
            write_corpus(path, generate_corpus(SMALL))
        assert info.value.filename == str(path)


# (config, sha256 of frame_bytes(generate_corpus(config)), sha256 of its
# corpus file). The frame digests are those of the frames the svcorpus-v1
# text files held (file digests e81b247a... and 9b1a018d...), so the
# generator is pinned across the change of format.
CORPUS_DIGESTS = [
    (
        SMALL,
        "6440ccecfc85ae9935bd3c1cbdff94d3d4d7b87cb01884ad5908e79e57fb876e",
        "260a55c354db98b23acc4c86f5a3820835f43dd60b90d2d1d3b06c37dd6bc0cd",
    ),
    (
        CorpusConfig(),
        "84077490bad1cd93164a0aa655547cab5b6e5ee2365e1c3bdbc96d18de638954",
        "b1aadd337304e38b1aa50df229c7613eb779b04da8bc0d3280b8826b4f5df334",
    ),
]


@pytest.mark.parametrize("cfg, frames_digest, file_digest", CORPUS_DIGESTS, ids=["small", "default"])
def test_corpus_file_bytes_are_pinned(cfg, frames_digest, file_digest, tmp_path):
    corpus = generate_corpus(cfg)
    path = tmp_path / "corpus.svc"
    write_corpus(path, corpus)
    assert hashlib.sha256(frame_bytes(corpus)).hexdigest() == frames_digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest
    assert hashlib.sha256(frame_bytes(read_corpus(path))).hexdigest() == frames_digest


class TestCorpusRejects:
    """Header and index faults the reader refuses, each with its line."""

    @pytest.fixture()
    def parts(self, tmp_path):
        path = tmp_path / "corpus.svc"
        write_corpus(path, generate_corpus(SMALL))
        return split_file(path.read_bytes())

    @pytest.fixture()
    def lines(self, parts):
        return parts[0]

    @staticmethod
    def records(lines):
        return [i for i, line in enumerate(lines) if line.startswith("utt ")]

    @staticmethod
    def read(tmp_path, parts, data=None):
        path = tmp_path / "bad.svc"
        lines, payload = parts
        path.write_bytes(data if data is not None else "".join(lines).encode() + payload)
        return read_corpus(path)

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_non_positive_frame_count(self, tmp_path, parts, lines, t):
        at = self.records(lines)[0]
        lines[at] = "utt spk000_utt000 spk000 %s 6\n" % t
        with pytest.raises(ParseError, match=f":{at + 1}: .* has {t} frames"):
            self.read(tmp_path, parts)

    def test_frame_dim_other_than_config(self, tmp_path, parts, lines):
        at = self.records(lines)[1]
        lines[at] = lines[at].replace(" 6\n", " 5\n")
        with pytest.raises(ParseError, match=f":{at + 1}: .*frame dim 5, the config says 6"):
            self.read(tmp_path, parts)

    def test_duplicate_utterance_id(self, tmp_path, parts, lines):
        second = self.records(lines)[1]
        lines[second] = lines[second].replace("spk000_utt001", "spk000_utt000")
        with pytest.raises(ParseError, match=f":{second + 1}: duplicate utterance id"):
            self.read(tmp_path, parts)

    def test_unlisted_speaker(self, tmp_path, parts, lines):
        at = self.records(lines)[2]
        lines[at] = lines[at].replace(" spk000 ", " spk999 ")
        with pytest.raises(ParseError, match=f":{at + 1}: utterance for unlisted speaker 'spk999'"):
            self.read(tmp_path, parts)

    def test_record_with_a_missing_field(self, tmp_path, parts, lines):
        at = self.records(lines)[3]
        lines[at] = lines[at].replace(" 6\n", "\n")
        with pytest.raises(ParseError, match=f":{at + 1}: expected utterance record"):
            self.read(tmp_path, parts)

    @pytest.mark.parametrize("count", ["{less}", "{more}", "", "0{n}", "+{n}", "{n} 0", "{n}.0"])
    def test_frames_byte_count_must_be_the_index_total(self, tmp_path, parts, lines, count):
        # only the decimal the index implies is taken: nbytes = 8 * sum(t * f_dim)
        n = int(lines[-1].split()[1])
        count = count.format(n=n, less=n - 8, more=n + 8)
        lines[-1] = f"[frames] {count}".rstrip() + "\n"
        with pytest.raises(ParseError, match=f":{len(lines)}: expected '\\[frames\\] {n}'"):
            self.read(tmp_path, parts)

    @pytest.mark.parametrize("sep", ["\t", "  ", "\x1c", "\u2028"])
    def test_frames_line_takes_one_space(self, tmp_path, parts, lines, sep):
        # str.split() would take any of these as the separator
        n = int(lines[-1].split()[1])
        lines[-1] = f"[frames]{sep}{n}\n"
        with pytest.raises(ParseError, match=f":{len(lines)}: expected '\\[frames\\] {n}'"):
            self.read(tmp_path, parts)

    @pytest.mark.parametrize("after, repeat, message", [
        ("seed=5\n", "seed=7\n", "repeated config key 'seed'"),
        ("spk007 adapt\n", "spk000 adapt\n", "repeated speaker 'spk000'"),
    ], ids=["config-key", "speaker"])
    def test_repeated_header_entry(self, tmp_path, parts, lines, after, repeat, message):
        # taking the last one would change the seed, or move a speaker's
        # utterances from the pretrain part to the adapt part
        at = lines.index(after) + 1
        lines.insert(at, repeat)
        with pytest.raises(ParseError, match=f":{at + 1}: {message}"):
            self.read(tmp_path, parts)

    def test_missing_frames_line(self, tmp_path, parts, lines):
        del lines[-1]
        with pytest.raises(ParseError, match=f":{len(lines) + 1}: "):
            self.read(tmp_path, parts)

    def test_carriage_return_line_ends_are_not_newlines(self, tmp_path, parts, lines):
        lines[1] = "[config]\r\n"
        with pytest.raises(ParseError, match=":2: expected \\[config\\] section"):
            self.read(tmp_path, parts)

    @pytest.mark.parametrize("where", ["first row", "last line"])
    def test_non_utf8_bytes(self, tmp_path, parts, lines, where):
        # the first index record, or the [frames] line that ends the header
        at = self.records(lines)[0] if where == "first row" else len(lines) - 1
        data = "".join(lines[:at]).encode() + b"\xff" + "".join(lines[at:]).encode() + parts[1]
        with pytest.raises(ParseError, match=f":{at + 1}: not UTF-8"):
            self.read(tmp_path, parts, data)


# -- fuzzing the corpus reader against a struct-based decoder

FUZZ_CFG = CorpusConfig(
    seed=3, num_speakers=2, utts_per_speaker=2, frames_min=2, frames_max=3, frame_dim=2
)
ODD_TOKENS = [
    "0", "-1", "+3", "3_0", "\u0663", "99999999999999999999", "1e3", "nan", "2.0", "",
    " ", "\t", "\n", "\r", "\x00", "\x0b", "\x85", "\xa0", "\u2028", "utt", "[frames]",
    "[utterances]", "[speakers]", "[config]", "pretrain", "adapt", "spk000", "spk001",
    "spk000_utt000", "spk001_utt001", "svcorpus-v1", "frame_dim=3",
]


def oracle_corpus(data: bytes):
    """(speaker split, [(id, speaker, frame bytes)]) of a corpus file,
    decoded from the layout in the synthdata docstring with `struct`."""
    head, _, rest = data.partition(b"\n[frames] ")
    count, _, payload = rest.partition(b"\n")
    lines = head.decode("utf-8").split("\n")
    speakers = lines[lines.index("[speakers]") + 1 : lines.index("[utterances]")]
    split = dict(line.split() for line in speakers)
    out, offset = [], 0
    for line in lines[lines.index("[utterances]") + 1 :]:
        _, utt_id, speaker, t, f_dim = line.split()
        n = int(t) * int(f_dim)
        values = struct.unpack_from(f"<{n}d", payload, offset)
        out.append((utt_id, speaker, struct.pack(f"<{n}d", *values)))
        offset += 8 * n
    assert offset == len(payload) == int(count)
    return split, out


@st.composite
def mutated_corpus(draw, base: bytes):
    header_end = base.index(b"\n", base.index(b"\n[frames] ") + 1) + 1
    kind = draw(st.sampled_from(["truncate", "flip header", "flip payload", "token"]))
    if kind == "truncate":
        return kind, base[: draw(st.integers(0, len(base) - 1))]
    if kind.startswith("flip"):
        lo, hi = (0, header_end) if kind == "flip header" else (header_end, len(base))
        i = draw(st.integers(lo, hi - 1))
        return kind, base[:i] + bytes([base[i] ^ draw(st.integers(1, 255))]) + base[i + 1 :]
    spans = [m.span() for m in re.finditer(rb"\S+", base[:header_end])]
    a, b = draw(st.sampled_from(spans))
    token = draw(
        st.one_of(
            st.sampled_from(ODD_TOKENS),
            st.from_regex(r"\A[-+]?[0-9_]{0,6}\Z"),
            st.text(max_size=10),
        )
    )
    return kind, base[:a] + token.encode("utf-8") + base[b:]


class TestCorpusReaderFuzz:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "base.svc"
        write_corpus(path, generate_corpus(FUZZ_CFG))
        return path.read_bytes()

    def test_every_truncation_is_a_parse_error(self, base, tmp_path):
        path = tmp_path / "cut.svc"
        for n in range(len(base)):
            path.write_bytes(base[:n])
            with pytest.raises(ParseError):
                read_corpus(path)

    def test_loads_or_raises_parse_or_config_error(self, base, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.svc"

        @settings(max_examples=400, deadline=None)
        @given(mutated_corpus(base))
        @example(("none", base))
        def check(case):
            kind, data = case
            path.write_bytes(data)
            try:
                corpus = read_corpus(path)
            except (ParseError, ConfigError):
                return
            assert kind != "truncate"
            got = [(u.utt_id, u.speaker, u.frames.tobytes()) for u in corpus.utterances]
            assert (corpus.speaker_split, got) == oracle_corpus(data)

        check()


class TestTrialFiles:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(SMALL)
        trials = generate_trials(corpus.part("pretrain"), 5, 5, seed=2)
        path = tmp_path / "trials.txt"
        write_trials(path, trials)
        assert read_trials(path) == trials

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("u1 u2 2\n")
        with pytest.raises(ParseError, match=":1:"):
            read_trials(path)

    def test_non_utf8_byte_is_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_bytes(b"u1 u2 1\r\nu3 u4 0\ru5 \xff 1\n")
        with pytest.raises(ParseError, match=":3: not UTF-8"):
            read_trials(path)

    def test_writes_atomically(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("old\n")
        with pytest.raises(AttributeError):
            write_trials(path, [Trial("a", "b", True), None])  # fails on the second
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trials.txt"]


def oracle_trials(data: bytes):
    """(trials, None) for a file that must load, else (None, line of the
    first fault), reading lines the way text mode splits them."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), True
    else:
        bad = False
    lines = re.split(r"\r\n|\r|\n", text)
    if bad:
        return None, len(lines)
    trials = []
    for lineno, line in enumerate(lines[:-1] if lines[-1] == "" else lines, start=1):
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("0", "1") or parts[0] == parts[1]:
            return None, lineno
        trials.append(Trial(parts[0], parts[1], parts[2] == "1"))
    return trials, None


@st.composite
def mutated_trials(draw, base: bytes):
    kind = draw(st.sampled_from(["truncate", "flip", "token", "insert"]))
    if kind == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(base) - 1))
        return base[:i] + bytes([base[i] ^ draw(st.integers(1, 255))]) + base[i + 1 :]
    if kind == "insert":
        i = draw(st.integers(0, len(base)))
        junk = draw(st.one_of(st.sampled_from([b"\r", b"\r\n", b"\n", b"\x85", b" 1"]),
                              st.binary(max_size=6)))
        return base[:i] + junk + base[i:]
    a, b = draw(st.sampled_from([m.span() for m in re.finditer(rb"\S+", base)]))
    token = draw(st.one_of(st.sampled_from(["0", "1", "2", "", "u 1", "\u2028"]), st.text(max_size=6)))
    return base[:a] + token.encode("utf-8") + base[b:]


class TestTrialReaderFuzz:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "trials.txt"
        write_trials(path, generate_trials(generate_corpus(SMALL).part("adapt"), 6, 6, seed=3))
        return path.read_bytes()

    def test_loads_as_the_oracle_or_names_its_line(self, base, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.txt"

        @settings(max_examples=400, deadline=None)
        @given(mutated_trials(base))
        @example(base)
        @example(base + b"a b \xff\n")
        @example(base + b"a a 1\n")
        def check(data):
            path.write_bytes(data)
            want, bad_line = oracle_trials(data)
            if want is None:
                with pytest.raises(ParseError, match=f":{bad_line}: "):
                    read_trials(path)
            else:
                assert read_trials(path) == want

        check()
