"""Verification metrics over scored trials: EER and normalized minimum
detection cost, plus deliberately slow brute-force references for testing.

Conventions, chosen so the reference implementations are bit-exact against
the fast ones:

* a trial is accepted when its score is at-or-above the threshold, so
  P_miss(t) counts targets with score < t and P_fa(t) counts nontargets
  with score >= t;
* the EER threshold sweep visits every distinct score in ascending order
  and ends with the reject-all point (miss 1, false accept 0) at the top
  score; the miss rate minus false-alarm rate is non-decreasing along the
  sweep and changes sign inside it, and the EER is read off by linear
  interpolation between the two bracketing sweep points (ties broken toward
  the lower threshold);
* the detection-cost sweep additionally includes -inf (accept everything)
  and +inf (reject everything), whose normalized costs are at least 1, so
  minDCF <= 1 without explicit clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .fileio import atomic_write, text_records

P_TARGET = 0.05  # the target prior of every minDCF unless a caller sets one


@dataclass(frozen=True)
class Trial:
    enroll: str
    test: str
    target: bool

    def __post_init__(self):
        if self.enroll == self.test:
            raise DataError(f"trial pairs utterance {self.enroll!r} with itself")


@dataclass
class ScoreSet:
    """Parallel score/label lists; labels are 1 for target, 0 for nontarget."""

    scores: np.ndarray
    labels: np.ndarray

    def __init__(self, scores, labels):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise DataError(
                f"scores/labels must be equal-length vectors, got "
                f"{self.scores.shape} and {self.labels.shape}"
            )
        if not np.all(np.isfinite(self.scores)):
            raise DataError("scores contain non-finite values")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise DataError("labels must be 0 or 1")
        if not (self.labels == 1).any() or not (self.labels == 0).any():
            raise DataError("need at least one target and one nontarget trial")

    @property
    def n_target(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def n_nontarget(self) -> int:
        return int((self.labels == 0).sum())


@dataclass(frozen=True)
class EvalResult:
    eer: float
    min_dcf: float
    threshold_at_eer: float
    n_target: int
    n_nontarget: int


def _sweep_rates(scores: ScoreSet):
    """P_miss and P_fa at every distinct score, ascending."""
    tar = np.sort(scores.scores[scores.labels == 1])
    non = np.sort(scores.scores[scores.labels == 0])
    thresholds = np.unique(scores.scores)
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    return thresholds, p_miss, p_fa


def _interp_crossing(thresholds, p_miss, p_fa):
    """EER and threshold where the interpolated rate curves cross.

    The difference miss - fa starts at -1 (the lowest score misses nothing
    and false-accepts everything), is non-decreasing, and ends at 1 on the
    reject-all point appended at the top score's threshold, so a
    bracketing pair always exists; the first one is used, which breaks
    exact ties toward the lower threshold.
    """
    thresholds = np.append(thresholds, thresholds[-1])
    p_miss, p_fa = np.append(p_miss, 1.0), np.append(p_fa, 0.0)
    k = int(np.argmax(p_miss - p_fa >= 0.0))
    m1, f1, t1 = p_miss[k - 1], p_fa[k - 1], thresholds[k - 1]
    m2, f2, t2 = p_miss[k], p_fa[k], thresholds[k]
    denom = (m2 - m1) - (f2 - f1)
    frac = 0.0 if denom == 0.0 else (f1 - m1) / denom
    eer = m1 + frac * (m2 - m1)
    thr = t1 + frac * (t2 - t1)
    return float(eer), float(thr)


def compute_eer(scores: ScoreSet):
    """Equal error rate and its threshold via the interpolated sweep."""
    thresholds, p_miss, p_fa = _sweep_rates(scores)
    return _interp_crossing(thresholds, p_miss, p_fa)


def compute_min_dcf(scores: ScoreSet, p_target: float = P_TARGET) -> float:
    """Minimum normalized detection cost, at unit costs, over all thresholds
    including the accept-all and reject-all extremes."""
    if not (0.0 < p_target < 1.0):
        raise DataError(f"p_target must lie in (0, 1), got {p_target}")
    thresholds, p_miss, p_fa = _sweep_rates(scores)
    p_miss = np.concatenate([[0.0], p_miss, [1.0]])  # -inf, scores..., +inf
    p_fa = np.concatenate([[1.0], p_fa, [0.0]])
    dcf = p_miss * p_target + p_fa * (1.0 - p_target)
    return float(dcf.min() / min(p_target, 1.0 - p_target))


def evaluate_scores(scores: ScoreSet, p_target: float = P_TARGET) -> EvalResult:
    eer, thr = compute_eer(scores)
    return EvalResult(
        eer=eer,
        min_dcf=compute_min_dcf(scores, p_target),
        threshold_at_eer=thr,
        n_target=scores.n_target,
        n_nontarget=scores.n_nontarget,
    )


# ---------------------------------------------------------------------------
# brute-force references (O(n^2), loops only; kept independent of the fast
# path so tests can pit one against the other)


def _rates_at(threshold, scores, labels):
    miss = sum(1 for s, l in zip(scores, labels) if l == 1 and s < threshold)
    fa = sum(1 for s, l in zip(scores, labels) if l == 0 and s >= threshold)
    n_tar = sum(1 for l in labels if l == 1)
    n_non = len(labels) - n_tar
    return miss / n_tar, fa / n_non


def reference_eer(scores, labels):
    """Loop-based EER: same sweep and interpolation rule, derived from
    per-threshold counting rather than sorting."""
    candidates = sorted(set(float(s) for s in scores))
    points = [(t, *_rates_at(t, scores, labels)) for t in candidates]
    points.append((candidates[-1], 1.0, 0.0))  # reject all, at the top score
    for (t0, m0, f0), (t, miss, fa) in zip(points, points[1:]):
        if miss == fa:
            return miss, t
        if miss > fa:
            denom = (miss - m0) - (fa - f0)
            frac = 0.0 if denom == 0.0 else (f0 - m0) / denom
            return m0 + frac * (miss - m0), t0 + frac * (t - t0)


def reference_min_dcf(scores, labels, p_target=P_TARGET):
    """Loop-based minDCF, at unit costs, over all thresholds and the two infinities."""
    candidates = [-math.inf] + sorted(set(float(s) for s in scores)) + [math.inf]
    best = math.inf
    for t in candidates:
        if t == -math.inf:
            miss, fa = 0.0, 1.0
        elif t == math.inf:
            miss, fa = 1.0, 0.0
        else:
            miss, fa = _rates_at(t, scores, labels)
        best = min(best, miss * p_target + fa * (1.0 - p_target))
    return best / min(p_target, 1.0 - p_target)


# ---------------------------------------------------------------------------
# score files: "enroll test score label" per line


def write_scores(path, trials, scores) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for trial, score in zip(trials, scores):
            fh.write(f"{trial.enroll} {trial.test} {score:.17e} {int(trial.target)}\n")


def read_scores(path) -> ScoreSet:
    """Parse a score file; a malformed or non-UTF-8 line, a score that is
    not finite or a label other than 0 or 1 raises ParseError naming it,
    and so does a file without both a target and a nontarget line."""
    scores, labels = [], []
    for lineno, (_enroll, _test, score, label) in text_records(path, 4, "score file"):
        try:
            scores.append(float(score))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(scores[-1]):
            raise ParseError(f"{path}:{lineno}: score {score!r} is not finite")
        if label not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        labels.append(int(label))
    try:
        return ScoreSet(scores, labels)
    except DataError as exc:  # every line has the same label
        raise ParseError(f"{path}: {exc}") from exc
