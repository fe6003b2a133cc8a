"""EER/minDCF tests against the O(n^2) brute-force threshold oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svadapt.errors import DataError, ParseError
from svadapt.metrics import (
    ScoreSet,
    Trial,
    compute_eer,
    compute_min_dcf,
    evaluate_scores,
    read_scores,
    reference_eer,
    reference_min_dcf,
    write_scores,
)


def random_scoreset(seed, n=200, separation=0.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    while labels.min() == labels.max():
        labels = rng.integers(0, 2, size=n)
    scores = rng.normal(size=n) + separation * labels
    return ScoreSet(scores, labels)


class TestEer:
    def test_perfect_separation_is_zero(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        eer, _ = compute_eer(s)
        assert eer == 0.0

    def test_inverted_separation_is_one(self):
        s = ScoreSet([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        eer, _ = compute_eer(s)
        assert eer == 1.0

    def test_small_case_matches_oracle(self):
        scores = [0.9, 0.4, 0.6, 0.1]
        labels = [1, 1, 0, 0]
        eer, thr = compute_eer(ScoreSet(scores, labels))
        ref_eer, ref_thr = reference_eer(scores, labels)
        assert eer == ref_eer
        assert thr == ref_thr
        assert eer == 0.5  # one miss of two targets crosses one fa of two

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_match_oracle_exactly(self, seed):
        s = random_scoreset(seed, n=150, separation=0.8)
        eer, thr = compute_eer(s)
        ref_eer, ref_thr = reference_eer(s.scores.tolist(), s.labels.tolist())
        assert abs(eer - ref_eer) < 1e-15
        assert abs(thr - ref_thr) < 1e-15

    def test_tied_scores_match_oracle(self):
        scores = [0.5, 0.5, 0.5, 0.2, 0.8, 0.2]
        labels = [1, 0, 1, 0, 1, 0]
        eer, thr = compute_eer(ScoreSet(scores, labels))
        ref_eer, ref_thr = reference_eer(scores, labels)
        assert eer == ref_eer
        assert thr == ref_thr

    def test_equal_scores_give_one_half(self):
        # the top score is a tie, so miss - fa stays below 0 at every score
        # and the crossing lies on the way to the reject-all point
        scores, labels = [1.0] * 4, [1, 1, 0, 0]
        assert compute_eer(ScoreSet(scores, labels)) == (0.5, 1.0)
        assert reference_eer(scores, labels) == (0.5, 1.0)

    def test_tie_at_the_top_score_crosses_past_it(self):
        # at 0.9: miss 1/2, fa 1; rejecting all: miss 1, fa 0
        scores, labels = [0.5, 0.9, 0.9], [1, 1, 0]
        eer, thr = compute_eer(ScoreSet(scores, labels))
        assert (eer, thr) == reference_eer(scores, labels)
        assert eer == pytest.approx(2 / 3, abs=1e-15)
        assert thr == 0.9

    def test_rejects_single_class(self):
        with pytest.raises(DataError, match="at least one"):
            ScoreSet([0.1, 0.2], [1, 1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        s = random_scoreset(seed, n=60, separation=0.5)
        eer, _ = compute_eer(s)
        warped = ScoreSet(np.exp(2.0 * s.scores) + 3.0, s.labels)
        eer_warped, _ = compute_eer(warped)
        assert abs(eer - eer_warped) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_label_swap_symmetry(self, seed):
        s = random_scoreset(seed, n=61, separation=0.5)
        eer, _ = compute_eer(s)
        flipped = ScoreSet(-s.scores, 1 - s.labels)
        eer_flipped, _ = compute_eer(flipped)
        assert abs(eer - eer_flipped) < 1e-12


class TestMinDcf:
    def test_perfect_separation_is_zero(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert compute_min_dcf(s) == 0.0

    def test_never_exceeds_one(self):
        for seed in range(10):
            s = random_scoreset(seed, n=50)
            assert compute_min_dcf(s) <= 1.0

    def test_inverted_separation_is_one(self):
        s = ScoreSet([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert compute_min_dcf(s) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_match_oracle(self, seed):
        s = random_scoreset(seed, n=200, separation=0.6)
        fast = compute_min_dcf(s)
        ref = reference_min_dcf(s.scores.tolist(), s.labels.tolist())
        assert abs(fast - ref) < 1e-12

    def test_prior_validated(self):
        with pytest.raises(DataError, match="p_target"):
            compute_min_dcf(random_scoreset(0), p_target=1.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        s = random_scoreset(seed, n=60, separation=0.5)
        warped = ScoreSet(np.arctan(s.scores) * 5.0, s.labels)
        assert abs(compute_min_dcf(s) - compute_min_dcf(warped)) < 1e-12


class TestEvalResult:
    def test_fields_within_ranges(self):
        s = random_scoreset(3, n=300, separation=1.0)
        res = evaluate_scores(s)
        assert 0.0 <= res.eer <= 1.0
        assert 0.0 <= res.min_dcf <= 1.0
        assert res.n_target + res.n_nontarget == 300

    def test_deterministic(self):
        s = random_scoreset(4, n=100)
        assert evaluate_scores(s) == evaluate_scores(s)


class TestTrial:
    def test_self_pair_rejected(self):
        with pytest.raises(DataError, match="itself"):
            Trial("u1", "u1", True)


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        trials = [Trial("a", "b", True), Trial("a", "c", False)]
        path = tmp_path / "scores.txt"
        write_scores(path, trials, [0.75, -0.25])
        loaded = read_scores(path)
        np.testing.assert_array_equal(loaded.scores, [0.75, -0.25])
        np.testing.assert_array_equal(loaded.labels, [1, 0])

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 0.5 1\nbroken line\n")
        with pytest.raises(ParseError, match=":2:"):
            read_scores(path)

    def test_one_class_only_is_parse_error(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 0.5 1\na c 0.25 1\n")
        with pytest.raises(ParseError, match="need at least one target and one nontarget"):
            read_scores(path)

    def test_non_utf8_byte_is_parse_error_naming_its_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_bytes(b"a b 0.5 1\r\nc d 0.25 0\ne \xff 0.5 1\n")
        with pytest.raises(ParseError, match=":3: not UTF-8"):
            read_scores(path)

    @pytest.mark.parametrize("line", ["a b nan 1", "a b -inf 0", "a b 1e999 1"])
    def test_non_finite_score_is_parse_error(self, tmp_path, line):
        path = tmp_path / "scores.txt"
        path.write_text(f"a b 0.5 1\n{line}\n")
        with pytest.raises(ParseError, match=":2: score .* is not finite"):
            read_scores(path)

    @pytest.mark.parametrize("label", ["2", "+1", "01", "1_0", "-0", "x"])
    def test_label_other_than_0_or_1_is_parse_error(self, tmp_path, label):
        path = tmp_path / "scores.txt"
        path.write_text(f"a b 0.5 1\na c 0.5 {label}\n")
        with pytest.raises(ParseError, match=":2: label must be 0 or 1"):
            read_scores(path)


def oracle_scores(data: bytes):
    """((scores, labels), None) for a score file that must load, else
    (None, line of the first fault), reading lines the way text mode
    splits them; (None, None) when no line faults but one class is absent."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), True
    else:
        bad = False
    lines = re.split(r"\r\n|\r|\n", text)
    if bad:
        return None, len(lines)
    scores, labels = [], []
    for lineno, line in enumerate(lines[:-1] if lines[-1] == "" else lines, start=1):
        parts = line.split()
        try:
            score = float(parts[2]) if len(parts) == 4 else math.nan
        except ValueError:
            score = math.nan
        if not math.isfinite(score) or parts[3] not in ("0", "1"):
            return None, lineno
        scores.append(score)
        labels.append(int(parts[3]))
    if len(set(labels)) < 2:
        return None, None
    return (scores, labels), None


@st.composite
def mutated_scores(draw, base: bytes):
    kind = draw(st.sampled_from(["truncate", "flip", "token"]))
    if kind == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(base) - 1))
        return base[:i] + bytes([base[i] ^ draw(st.integers(1, 255))]) + base[i + 1 :]
    a, b = draw(st.sampled_from([m.span() for m in re.finditer(rb"\S+", base)]))
    token = draw(
        st.one_of(
            st.sampled_from(["0", "1", "2", "-1", "+1", "nan", "-inf", "1e999", "1_0", "0x1p3",
                             "", "u 1", "\r", "\x85", " ", "\xff"]),
            st.from_regex(r"\A[-+]?[0-9_.]{0,6}([eE][-+]?[0-9]{0,4})?\Z"),
            st.text(max_size=8),
        )
    )
    return base[:a] + token.encode("utf-8") + base[b:]


class TestScoreReaderFuzz:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "scores.txt"
        rng = np.random.default_rng(5)
        trials = [Trial(f"e{i}", f"t{i}", bool(i % 2)) for i in range(8)]
        write_scores(path, trials, rng.normal(size=8).tolist())
        return path.read_bytes()

    def test_loads_as_the_oracle_or_names_its_line(self, base, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.txt"

        @settings(max_examples=400, deadline=None)
        @given(mutated_scores(base))
        @example(base)
        @example(base + b"a b 0.5 \xff\n")
        @example(base + b"a b nan 1\n")
        def check(data):
            path.write_bytes(data)
            want, bad_line = oracle_scores(data)
            if want is None:
                fault = "need at least one target" if bad_line is None else f":{bad_line}: "
                with pytest.raises(ParseError, match=fault):
                    read_scores(path)
            else:
                got = read_scores(path)
                assert got.scores.tobytes() == np.array(want[0]).tobytes()
                assert got.labels.tolist() == want[1]

        check()
