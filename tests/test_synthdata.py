"""Synthetic corpus and trial-list generation, corpus and trial files."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svadapt.errors import ConfigError, ParseError
from svadapt.metrics import Trial
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


class TestGenerateTrials:
    def test_exact_counts_and_labels(self):
        corpus = generate_corpus(SMALL)
        trials = generate_trials(corpus.part("adapt"), 15, 25, seed=0)
        assert len(trials) == 40
        assert sum(t.target for t in trials) == 15

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


class TestCorpusFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.txt"
        write_corpus(path, corpus)
        loaded = read_corpus(path)
        assert loaded.config == corpus.config
        assert loaded.speaker_split == corpus.speaker_split
        for a, b in zip(corpus.utterances, loaded.utterances):
            assert a.utt_id == b.utt_id and a.speaker == b.speaker
            assert np.array_equal(a.frames, b.frames)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.txt"
        write_corpus(path, corpus)
        clipped = tmp_path / "clipped.txt"
        clipped.write_text("".join(path.read_text().splitlines(keepends=True)[:-3]))
        with pytest.raises(ParseError, match="truncated"):
            read_corpus(clipped)

    def test_version_mismatch_is_explicit(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("svcorpus-v9\n[config]\nseed=1\n")
        with pytest.raises(ParseError, match="unsupported corpus format"):
            read_corpus(path)

    def test_bad_number_reports_line(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.txt"
        write_corpus(path, corpus)
        lines = path.read_text().splitlines(keepends=True)
        # corrupt the first frame row (line after the first utt header)
        first_utt = next(i for i, l in enumerate(lines) if l.startswith("utt "))
        lines[first_utt + 1] = lines[first_utt + 1].replace("e", "x", 1)
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines))
        with pytest.raises(ParseError, match=f":{first_utt + 2}:"):
            read_corpus(bad)

    def test_failed_write_leaves_existing_file(self, tmp_path):
        corpus = generate_corpus(SMALL)
        path = tmp_path / "corpus.txt"
        write_corpus(path, corpus)
        before = path.read_bytes()
        # a 1-D frames array fails after the other records are written
        broken = Corpus(
            SMALL, corpus.utterances + [Utterance("x", "spk000", np.zeros(3))],
            corpus.speaker_split,
        )
        with pytest.raises(ValueError):
            write_corpus(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]

    def test_write_into_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "corpus.txt"
        with pytest.raises(FileNotFoundError) as info:
            write_corpus(path, generate_corpus(SMALL))
        assert info.value.filename == str(path)


# sha256 of write_corpus(generate_corpus(cfg)), taken from the generator that
# drew every utterance on its own and the writer that formatted value by value
CORPUS_DIGESTS = [
    (SMALL, "e81b247acb46284a3715ca45ee72ff559a39d81600042df560d43d4ffe17d4ac"),
    (CorpusConfig(), "9b1a018d8acdcad3dfc74c1f8ab38f5635401cfb57daab42de75fdcd5fcb02db"),
]


@pytest.mark.parametrize("cfg, digest", CORPUS_DIGESTS, ids=["small", "default"])
def test_corpus_file_bytes_are_pinned(cfg, digest, tmp_path):
    path = tmp_path / "corpus.txt"
    write_corpus(path, generate_corpus(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCorpusRejects:
    """Records the reader refuses, each with the line that holds the fault."""

    @pytest.fixture()
    def lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        write_corpus(path, generate_corpus(SMALL))
        return path.read_text().splitlines(keepends=True)

    @staticmethod
    def records(lines):
        return [i for i, line in enumerate(lines) if line.startswith("utt ")]

    @staticmethod
    def read(tmp_path, lines, data=None):
        path = tmp_path / "bad.txt"
        path.write_bytes(data if data is not None else "".join(lines).encode())
        return read_corpus(path)

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_non_positive_frame_count(self, tmp_path, lines, t):
        at = self.records(lines)[0]
        lines[at] = "utt spk000_utt000 spk000 %s 6\n" % t
        with pytest.raises(ParseError, match=f":{at + 1}: .* has {t} frames"):
            self.read(tmp_path, lines)

    def test_value_moved_to_the_next_row(self, tmp_path, lines):
        # the utterance still holds t * f_dim values, but row one has 5
        at = self.records(lines)[0] + 1
        head, _, last = lines[at].rstrip("\n").rpartition(" ")
        lines[at], lines[at + 1] = head + "\n", last + " " + lines[at + 1]
        with pytest.raises(ParseError, match=f":{at + 1}: expected 6 values, got 5"):
            self.read(tmp_path, lines)

    def test_frame_dim_other_than_config(self, tmp_path, lines):
        at = self.records(lines)[1]
        lines[at] = lines[at].replace(" 6\n", " 5\n")
        with pytest.raises(ParseError, match=f":{at + 1}: .*frame dim 5, the config says 6"):
            self.read(tmp_path, lines)

    def test_duplicate_utterance_id(self, tmp_path, lines):
        second = self.records(lines)[1]
        lines[second] = lines[second].replace("spk000_utt001", "spk000_utt000")
        with pytest.raises(ParseError, match=f":{second + 1}: duplicate utterance id"):
            self.read(tmp_path, lines)

    @pytest.mark.parametrize("where", ["first row", "last line"])
    def test_non_utf8_bytes(self, tmp_path, lines, where):
        at = self.records(lines)[0] + 1 if where == "first row" else len(lines) - 1
        data = bytearray("".join(lines[:at]).encode())
        data += b"\xff" + "".join(lines[at:]).encode()
        with pytest.raises(ParseError, match=f":{at + 1}: not UTF-8"):
            self.read(tmp_path, lines, bytes(data))

    def test_underscore_digits_are_rejected_though_float_reads_them(self, tmp_path, lines):
        # The one known difference from a per-value float() reader:
        # np.fromstring, which reads the rows, does not take "1_0", and the
        # writer never emits it.
        assert float("1_0") == 10.0
        at = self.records(lines)[0] + 1
        lines[at] = "1_0" + lines[at][lines[at].index(" "):]
        with pytest.raises(ParseError, match=f":{at + 1}: unsupported number syntax"):
            self.read(tmp_path, lines)

    def test_nan_tokens_read_as_float_reads_them(self, tmp_path, lines):
        # np.fromstring drops the sign of "-nan"; the reader keeps float()'s bits
        at = self.records(lines)[0] + 1
        lines[at] = "-nan nan inf -inf 1e999 -0\n"
        frames = self.read(tmp_path, lines).utterances[0].frames
        want = np.array([float(v) for v in lines[at].split()])
        assert frames[0].tobytes() == want.tobytes()


# -- fuzzing the corpus reader against a per-row float() oracle

FUZZ_CFG = CorpusConfig(
    seed=3, num_speakers=2, utts_per_speaker=2, frames_min=2, frames_max=3, frame_dim=2
)
ODD_TOKENS = [
    "nan", "-nan", "NaN", "+inf", "-Infinity", "1e999", "2.5e-324", "-0", "1_0", "0x1p3",
    "nan(1)", "\u0661", "+.5", "1.", ".", "e5", "1e", "1-2", "1.5.3", "", " ", "\t", "\n",
    "1 2", "\x00", "\x0b", "\xa0", "utt", "[utterances]",
]


def oracle_utterances(path) -> list:
    """(id, speaker, frames) of each record of a corpus file that
    read_corpus loaded, with every value read by float()."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    i = lines.index("[utterances]") + 1
    out = []
    while i < len(lines) and lines[i]:
        _, utt_id, speaker, t, _f = lines[i].split()
        rows = lines[i + 1 : i + 1 + int(t)]
        out.append((utt_id, speaker, np.array([[float(v) for v in r.split()] for r in rows])))
        i += 1 + int(t)
    return out


@st.composite
def mutated_corpus(draw, base: bytes):
    kind = draw(st.sampled_from(["truncate", "flip", "token"]))
    if kind == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(base) - 1))
        return base[:i] + bytes([base[i] ^ draw(st.integers(1, 255))]) + base[i + 1 :]
    a, b = draw(st.sampled_from([m.span() for m in re.finditer(rb"\S+", base)]))
    token = draw(
        st.one_of(
            st.sampled_from(ODD_TOKENS),
            st.from_regex(r"\A[-+]?[0-9_.]{0,6}([eE][-+]?[0-9]{0,4})?\Z"),
            st.text(max_size=10),
        )
    )
    return base[:a] + token.encode("utf-8") + base[b:]


class TestCorpusReaderFuzz:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "base.txt"
        write_corpus(path, generate_corpus(FUZZ_CFG))
        return path.read_bytes()

    def test_loads_or_raises_parse_or_config_error(self, base, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.txt"

        @settings(max_examples=400, deadline=None)
        @given(mutated_corpus(base))
        @example(base)
        def check(data):
            path.write_bytes(data)
            try:
                corpus = read_corpus(path)
            except (ParseError, ConfigError):
                return
            got = [(u.utt_id, u.speaker, u.frames.tobytes()) for u in corpus.utterances]
            want = [(i, s, f.tobytes()) for i, s, f in oracle_utterances(path)]
            assert got == want

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
