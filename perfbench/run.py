#!/usr/bin/env python3
"""Desk-scale benchmark of svadapt: training, evaluation and artifact I/O.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/`; the run
drives it only through its public API, in process. Inputs (corpus, trial
list, model seeds) come from `--seed`. After set-up, the run repeats one
round of work until `--seconds` are used up: a corpus write + read, one
training call and one evaluation on the corpus read back, and checkpoint
saves + loads. Every
operation's outputs are checked. The last line of stdout is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# The BLAS thread count is pinned before numpy loads, to the same value on
# every run, so both sides of a comparison use the same threading.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# every run makes at least this many rounds, so the across-round
# determinism checks always run
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Plan:
    """Sizes of one workload. `mode` is the tuning mode of the training
    call; "pretrain" makes the training call `pretrain_backbone`.
    `setup_reps` is the number of cold set-ups timed for `setup_s`."""

    mode: str
    speakers: int
    utts_per_speaker: int
    train_steps: int
    n_target: int
    n_nontarget: int
    setup_pretrain_steps: int = 0
    checkpoint_repeats: int = 1
    setup_reps: int = 3
    frames: tuple = (30, 60)
    encoder: tuple = ()  # EncoderConfig overrides as (field, value); () is the desk encoder
    embed_dim: int = 32
    bottleneck_dim: int = 16
    batch_size: int = 8
    lr_head: float = 5e-3
    lr_other: float = 1e-5


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "adapt-inner-inter": Plan(
        mode="inner-inter", speakers=24, utts_per_speaker=12, train_steps=16,
        n_target=150, n_nontarget=150, setup_pretrain_steps=6,
    ),
    "probe-inter": Plan(
        mode="inter", speakers=24, utts_per_speaker=12, train_steps=32,
        n_target=300, n_nontarget=900, setup_pretrain_steps=6,
    ),
    "pretrain-io": Plan(
        mode="pretrain", speakers=40, utts_per_speaker=20, train_steps=20,
        n_target=50, n_nontarget=50, checkpoint_repeats=2, setup_reps=5,
        lr_head=1e-2, lr_other=1e-3,
    ),
}

# (name, unit) of the end-to-end metrics, measured with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("train_ms_per_step", "ms"),
    ("eval_ms_per_trial", "ms"),
    ("ckpt_save_ms", "ms"),
    ("ckpt_load_ms", "ms"),
    ("corpus_write_s", "s"),
    ("corpus_read_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Quality results, deterministic per seed; printed by every run and guarded
# by the correctness checks (see README.md for why they are not in the JSON).
QUALITY = (("eer", "ratio"), ("min_dcf", "ratio"), ("final_loss", "nats"))

# span names whose per-call time and call count are reported
PER_CALL = (
    ("backbone.featurizer", "backbone.Featurizer.__call__"),
    ("backbone.mhsa", "backbone.mhsa"),
    ("backbone.ffn", "backbone.TransformerLayer.ffn"),
    ("adapters.branch", "adapters.BottleneckAdapter.branch"),
    ("adapters.weighted_sum", "adapters.weighted_sum"),
    ("adapters.bridge", "adapters.inter_layer_forward"),
    ("backend.pool_embed", "backend.pool_and_embed"),
)

# spans inside a training call that count as forward, loss, backward or
# optimizer work; the rest of the call is unattributed
STEP_PARTS = (
    "model.SVModel.embed", "backend.train_loss", "tensor.Tape.backward",
    "optim.Adam.step", "optim.Adam.zero_grad",
)

# (name, unit) of the per-layer metrics of a traced run
PER_LAYER = (
    ("tensor.backward_ms_per_step", "ms"),
    ("tensor.tape_ops_per_step", "count"),
    ("tensor.ops_per_step", "count"),
    ("tensor.taped_share", "ratio"),
    ("model.embed_ms", "ms"),
    ("model.embed_reuse", "ratio"),
    *((f"{key}_{kind}", unit)
      for key, _span in PER_CALL
      for kind, unit in (("ms", "ms"), ("calls", "count"))),
    ("backend.train_loss_ms", "ms"),
    ("harness.embed_trials_ms", "ms"),
    ("backend.cosine_score_ms", "ms"),
    ("metrics.evaluate_scores_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("optim.zero_grad_ms", "ms"),
    ("optim.elements_updated", "count"),
    ("rng.fnv1a64_ms", "ms"),
    ("rng.fnv1a64_bytes", "B"),
    ("synthdata.generate_corpus_s", "s"),
    ("synthdata.write_corpus_s", "s"),
    ("synthdata.read_corpus_s", "s"),
    ("synthdata.corpus_bytes", "B"),
    ("harness.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
)

EVAL_ROOT = "harness.evaluate"
SAVE_ROOT = "harness.save_model_checkpoint"
LOAD_ROOT = "harness.load_checkpoint"
WRITE_ROOT = "synthdata.write_corpus"
READ_ROOT = "synthdata.read_corpus"


class RoundAborted(Exception):
    """An operation raised; the run stops its rounds and reports."""


# Calibration probes. The machine's speed drifts: on a shared 2-core box
# the same work takes 1.0x or 1.5x as long, switching every few seconds.
# So each timed call is bracketed by a probe of the same kind of work and
# is also reported at a reference speed, the speed at which the probe takes
# its reference time (about its time on an idle core of that box).
_PROBE_X = np.linspace(-1.0, 1.0, 2560).reshape(40, 64)
_PROBE_W = np.linspace(-0.1, 0.1, 4096).reshape(64, 64)


def _probe_python():
    """Integer arithmetic in the interpreter (the FNV-1a hash's kind)."""
    h = 0
    for b in range(16_000):
        h = (h ^ b) * 1099511628211 & 0xFFFFFFFFFFFFFFFF


def _probe_numpy():
    """Small single-threaded matmuls and elementwise ops (the model's kind)."""
    x = _PROBE_X
    for _ in range(150):
        x = np.tanh(x @ _PROBE_W + 0.1)


def _probe_text():
    """Float formatting and parsing (the corpus files' kind)."""
    row = _PROBE_X[0, :20]
    for _ in range(60):
        [float(v) for v in " ".join(f"{v:.17e}" for v in row).split()]


# kind -> (probe, reference seconds)
PROBES = {
    "python": (_probe_python, 0.0020),
    "numpy": (_probe_numpy, 0.0022),
    "text": (_probe_text, 0.0018),
}


def speed_factor(kind: str) -> float:
    """Reference-speed seconds per wall second right now, for `kind` work."""
    probe, ref_s = PROBES[kind]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return ref_s / statistics.median(times)


def stopwatch(kind: str, fn, *args):
    """(result, (wall seconds, reference-speed seconds)) of fn(*args); the
    speed is the mean of the factors measured just before and after."""
    gc.collect()  # every call starts from the same collector state
    before = speed_factor(kind)
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, (wall, wall * (before + speed_factor(kind)) / 2)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def load_package():
    """Import the package from src/ of the checkout; None when absent."""
    if not os.path.isfile(os.path.join(SRC, "svadapt", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import svadapt  # noqa: F401
    from svadapt import adapters, harness, metrics, synthdata
    from svadapt.backbone import EncoderConfig

    return {
        "adapters": adapters, "harness": harness, "metrics": metrics,
        "synthdata": synthdata, "EncoderConfig": EncoderConfig,
    }


def blas_record() -> dict:
    name = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"blas": name, "blas_threads": threads, "blas_threads_pinned": int(BLAS_THREADS)}


def machine_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


class Run:
    """One benchmark process: set-up, timed rounds, checks and metrics."""

    def __init__(self, pkg, plan: Plan, workload: str, seed: int, workdir: str,
                 tracer: Tracer | None):
        self.pkg = pkg
        self.h = pkg["harness"]
        self.sd = pkg["synthdata"]
        self.plan = plan
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.aborted = False  # an operation raised, which ended the rounds
        self.failures = []
        self.samples = {name: [] for name, _unit in END_TO_END}
        self.quality = {}
        self.first = {}  # first round's outputs, for determinism checks
        self.round_s = 0.0
        pretrain = plan.mode == "pretrain"
        self.train_root = "harness.pretrain_backbone" if pretrain else "harness.train"
        enc = pkg["EncoderConfig"](seed=seed, **dict(plan.encoder))
        self.encoder = enc
        self.corpus_cfg = self.sd.CorpusConfig(
            seed=seed, num_speakers=plan.speakers, utts_per_speaker=plan.utts_per_speaker,
            frames_min=plan.frames[0], frames_max=plan.frames[1], frame_dim=enc.input_dim,
        )
        common = dict(
            encoder=enc, embed_dim=plan.embed_dim, batch_size=plan.batch_size,
            lr_head=plan.lr_head, lr_other=plan.lr_other, seed=seed,
        )
        self.pretrain_cfg = self.h.RunConfig(
            mode="full-finetune", total_steps=max(plan.setup_pretrain_steps, 1),
            warmup_steps=1, **common,
        )
        adapter = None
        if plan.mode in pkg["adapters"].INNER_MODES:
            adapter = pkg["adapters"].AdapterConfig(
                bottleneck_dim=plan.bottleneck_dim, variant="parallel", scale=0.5
            )
        self.train_cfg = self.h.RunConfig(
            mode="full-finetune" if plan.mode == "pretrain" else plan.mode, adapter=adapter,
            total_steps=plan.train_steps, warmup_steps=max(1, plan.train_steps // 10), **common,
        )

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @contextmanager
    def untraced(self):
        """Checks run with tracing paused, so they add no spans."""
        was = self.tracer.active if self.tracer else False
        if self.tracer:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.active = was

    def attempt(self, label: str, work):
        """One attempted operation. `work()` makes the timed calls and
        returns {check name: passed}. A raise or a failed check counts the
        operation as failed."""
        self.attempted += 1
        try:
            result, checks = work()
        except Exception as exc:  # the run reports the failure instead of crashing
            self.failed += 1
            self.failures.append(f"{label}: raised {exc!r}")
            self.aborted = True
            raise RoundAborted(label) from exc
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: failed {', '.join(bad)}")
        return result

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> None:
        self.corpus = self.sd.generate_corpus(self.corpus_cfg)
        self.trials = self.sd.generate_trials(
            self.corpus.part("adapt"), self.plan.n_target, self.plan.n_nontarget, self.seed
        )
        self.backbone_path = None
        if self.plan.setup_pretrain_steps:
            self.backbone_path = self.path("backbone.ckpt")
            self.h.pretrain_backbone(self.pretrain_cfg, self.corpus, out_path=self.backbone_path)

    def setup(self) -> tuple:
        """Set up once; returns its (wall, reference) seconds."""
        _none, sample = stopwatch("numpy", self.setup_once)
        self.distinct_utts = len({u for t in self.trials for u in (t.enroll, t.test)})
        return sample

    # -- one round ---------------------------------------------------------

    def timed(self, metric: str, kind: str, per: float, fn, *args):
        """Call fn(*args) under the stopwatch, record the sample (divided by
        `per`) for `metric`, and add its reference time to the round."""
        result, (wall, ref) = stopwatch(kind, fn, *args)
        self.samples[metric].append((wall / per, ref / per))
        self.round_s += ref
        return result

    def round(self) -> float:
        """Run every operation once; returns the reference-speed seconds
        spent in timed calls. Training and evaluation use the corpus read
        back in this round and a backbone loaded in this round, so no
        object is passed to them twice in a run: only reuse within one
        call can pay off."""
        self.round_s = 0.0
        corpus = self.corpus_round_trip()
        backbone = None
        if self.backbone_path:
            with self.untraced():
                backbone = self.h.load_checkpoint(self.backbone_path)
        self.train(corpus, backbone)
        self.evaluate(corpus)
        self.checkpoints()
        return self.round_s

    def corpus_round_trip(self):
        path = self.path("corpus.txt")

        def work():
            self.timed("corpus_write_s", "text", 1, self.sd.write_corpus, path, self.corpus)
            back = self.timed("corpus_read_s", "text", 1, self.sd.read_corpus, path)
            with self.untraced():
                a, b = self.corpus, back
                frames_equal = len(a.utterances) == len(b.utterances) and all(
                    (u.utt_id, u.speaker) == (v.utt_id, v.speaker)
                    and same_bytes(u.frames, v.frames)
                    for u, v in zip(a.utterances, b.utterances)
                )
                checks = {
                    "corpus config read back": a.config == b.config,
                    "speaker split read back": a.speaker_split == b.speaker_split,
                    "frames read back bit for bit": frames_equal,
                }
            return back, checks

        return self.attempt("corpus round trip", work)

    def train(self, corpus, backbone) -> None:
        steps = self.plan.train_steps

        def work():
            per_step = steps / 1e3
            if self.plan.mode == "pretrain":
                run = self.timed("train_ms_per_step", "numpy", per_step,
                                 self.h.pretrain_backbone, self.train_cfg, corpus)
            else:
                run = self.timed("train_ms_per_step", "numpy", per_step,
                                 self.h.train, self.train_cfg, backbone, corpus)
            # A non-finite loss needs no check: harness raises NumericError
            # on one, which counts this operation as failed.
            with self.untraced():
                losses = run.losses
                checks = {
                    "one loss per step": len(losses) == steps,
                    "final loss below first": bool(losses) and losses[-1] < losses[0],
                    "losses repeat across rounds":
                        self.first.setdefault("losses", losses) == losses,
                }
                if backbone is not None:
                    checks["backbone hash unchanged by training"] = (
                        run.backbone_hash == backbone.backbone_hash
                    )
            return run, checks

        run = self.attempt("train", work)
        self.model = run.model
        self.quality["final_loss"] = run.losses[-1]

    def evaluate(self, corpus) -> None:
        m = self.pkg["metrics"]
        trials = self.trials

        def work():
            result, scores = self.timed("eval_ms_per_trial", "numpy", len(trials) / 1e3,
                                        self.h.evaluate, self.model, corpus, trials)
            with self.untraced():
                labels = [int(t.target) for t in trials]
                score_set = m.ScoreSet(scores, labels)
                eer, _thr = m.compute_eer(score_set)
                dcf = m.compute_min_dcf(score_set)
                checks = {
                    "one score per trial": len(scores) == len(trials),
                    "evaluate eer matches compute_eer": result.eer == eer,
                    "evaluate min_dcf matches compute_min_dcf": result.min_dcf == dcf,
                }
                if "scores" not in self.first:
                    self.first["scores"] = list(scores)
                    ref_eer, _ = m.reference_eer(list(scores), labels)
                    ref_dcf = m.reference_min_dcf(list(scores), labels)
                    checks["compute_eer matches reference_eer"] = abs(eer - ref_eer) <= 1e-12
                    checks["compute_min_dcf matches reference_min_dcf"] = (
                        abs(dcf - ref_dcf) <= 1e-12
                    )
                else:
                    checks["scores repeat across rounds"] = self.first["scores"] == list(scores)
            return result, checks

        result = self.attempt("evaluate", work)
        self.quality["eer"] = result.eer
        self.quality["min_dcf"] = result.min_dcf

    def checkpoints(self) -> None:
        path = self.path("model.ckpt")
        step = self.plan.train_steps
        with self.untraced():
            config_text = self.h.config_to_text(self.train_cfg)
            expected = [
                (p.name, p.trainable, p.data)
                for p in self.model.named_params(include_classifier=False)
            ]
        saved = {}

        def save():
            digest = self.timed("ckpt_save_ms", "python", 1e-3,
                                self.h.save_model_checkpoint, path, self.model, config_text, step)
            with self.untraced():
                blob = read_bytes(path)
                saved.setdefault("hash", digest)
                first_blob = saved.setdefault("blob", blob)
                checks = {"repeated save writes the same bytes": first_blob == blob}
            return digest, checks

        def load(resave: bool):
            ckpt = self.timed("ckpt_load_ms", "python", 1e-3, self.h.load_checkpoint, path)
            with self.untraced():
                params_equal = len(ckpt.params) == len(expected) and all(
                    a[0] == b[0] and a[1] == b[1] and same_bytes(np.asarray(a[2], "<f8"), b[2])
                    for a, b in zip(expected, ckpt.params)
                )
                checks = {
                    "loaded params equal saved params": params_equal,
                    "loaded hash equals saved hash": ckpt.backbone_hash == saved["hash"],
                    "loaded step and config": ckpt.step == step and ckpt.config_text == config_text,
                }
                if resave:
                    again = self.path("resaved.ckpt")
                    self.h.save_checkpoint(again, ckpt.config_text, ckpt.params, ckpt.step)
                    checks["re-saving reproduces the file bytes"] = (
                        read_bytes(again) == saved["blob"]
                    )
            return ckpt, checks

        for _ in range(self.plan.checkpoint_repeats):
            self.attempt("checkpoint save", save)
        for i in range(self.plan.checkpoint_repeats):
            self.attempt("checkpoint load", lambda: load(resave=i == 0))

    # -- traced-round metrics ----------------------------------------------

    def layer_metrics(self, table: dict, counts: dict, distinct: dict, primitives) -> dict:
        train_root = self.train_root
        steps = self.plan.train_steps
        n_trials = len(self.trials)

        def calls(root, name):
            return table.get((root, name), (0, 0.0, 0.0))[0]

        def total(root, name):
            return table.get((root, name), (0, 0.0, 0.0))[1]

        def across(name):
            rows = [row for (_root, n), row in table.items() if n == name]
            return sum(r[0] for r in rows), sum(r[1] for r in rows)

        def per_call_ms(n_calls, seconds):
            return seconds * 1e3 / n_calls if n_calls else 0.0

        m = {}
        tape_ops = counts.get((train_root, "tape_ops"), 0) / steps
        ops = sum(calls(train_root, p) for p in primitives) / steps
        m["tensor.backward_ms_per_step"] = total(train_root, "tensor.Tape.backward") * 1e3 / steps
        m["tensor.tape_ops_per_step"] = tape_ops
        m["tensor.ops_per_step"] = ops
        m["tensor.taped_share"] = tape_ops / ops if ops else 0.0
        m["model.embed_ms"] = per_call_ms(
            calls(train_root, "model.SVModel.embed"), total(train_root, "model.SVModel.embed")
        )
        embed_calls, _ = across("model.SVModel.embed")
        n_inputs = len(distinct.get("model.SVModel.embed", ()))
        m["model.embed_reuse"] = embed_calls / n_inputs if n_inputs else 0.0
        for key, name in PER_CALL:
            n, secs = across(name)
            m[f"{key}_ms"] = per_call_ms(n, secs)
            m[f"{key}_calls"] = n
        m["backend.train_loss_ms"] = per_call_ms(
            calls(train_root, "backend.train_loss"), total(train_root, "backend.train_loss")
        )
        for key, name in (
            ("harness.embed_trials_ms", "harness.embed_trial_utterances"),
            ("backend.cosine_score_ms", "backend.cosine_score"),
            ("metrics.evaluate_scores_ms", "metrics.evaluate_scores"),
        ):
            m[key] = total(EVAL_ROOT, name) * 1e3 / n_trials
        for key, name in (
            ("optim.step_ms", "optim.Adam.step"),
            ("optim.zero_grad_ms", "optim.Adam.zero_grad"),
        ):
            m[key] = per_call_ms(calls(train_root, name), total(train_root, name))
        m["optim.elements_updated"] = counts.get((train_root, "elements_updated"), 0) / steps
        fnv_calls = sum(calls(r, "rng.fnv1a64") for r in (SAVE_ROOT, LOAD_ROOT))
        fnv_secs = sum(total(r, "rng.fnv1a64") for r in (SAVE_ROOT, LOAD_ROOT))
        fnv_bytes = sum(counts.get((r, "fnv1a64_bytes"), 0) for r in (SAVE_ROOT, LOAD_ROOT))
        m["rng.fnv1a64_ms"] = per_call_ms(fnv_calls, fnv_secs)
        m["rng.fnv1a64_bytes"] = fnv_bytes / fnv_calls if fnv_calls else 0
        m["synthdata.write_corpus_s"] = total(WRITE_ROOT, WRITE_ROOT)
        m["synthdata.read_corpus_s"] = total(READ_ROOT, READ_ROOT)
        m["synthdata.corpus_bytes"] = counts.get((WRITE_ROOT, "corpus_bytes"), 0)
        call_s = total(train_root, train_root)
        covered = sum(total(train_root, name) for name in STEP_PARTS)
        m["harness.unattributed_share"] = 1.0 - covered / call_s if call_s else 0.0
        root_s = sum(row[1] for (root, name), row in table.items() if root == name)
        for layer in LAYERS:
            own = sum(row[2] for (_r, name), row in table.items() if name.split(".", 1)[0] == layer)
            m[f"{layer}.self_share"] = own / root_s if root_s else 0.0
        return m

    def expected_calls(self) -> dict:
        """Span counts per (root, name) that one round must produce."""
        plan = self.plan
        s, b = plan.train_steps, plan.batch_size
        layers = self.encoder.num_layers
        utts = self.distinct_utts
        adapters = plan.mode in self.pkg["adapters"].INNER_MODES
        k = plan.checkpoint_repeats
        t = self.train_root
        return {
            (t, t): 1,
            (t, "backend.train_loss"): s,
            (t, "tensor.Tape.backward"): s,
            (t, "optim.Adam.step"): s,
            (t, "optim.Adam.zero_grad"): s,
            (t, "model.SVModel.embed"): s * b,
            (t, "backbone.encode_collect"): s * b,
            (t, "backbone.Featurizer.__call__"): s * b,
            (t, "backbone.layer_forward"): s * b * layers,
            (t, "backbone.mhsa"): s * b * layers,
            (t, "backbone.TransformerLayer.ffn"): s * b * layers,
            (t, "adapters.BottleneckAdapter.branch"): s * b * layers if adapters else 0,
            (t, "adapters.weighted_sum"): s * b,
            (t, "adapters.inter_layer_forward"): s * b,
            (t, "backend.pool_and_embed"): s * b,
            (EVAL_ROOT, EVAL_ROOT): 1,
            (EVAL_ROOT, "harness.embed_trial_utterances"): 1,
            (EVAL_ROOT, "model.SVModel.embed_np"): utts,
            (EVAL_ROOT, "model.SVModel.embed"): utts,
            (EVAL_ROOT, "backbone.mhsa"): utts * layers,
            (EVAL_ROOT, "adapters.BottleneckAdapter.branch"): utts * layers if adapters else 0,
            (EVAL_ROOT, "backend.cosine_score"): len(self.trials),
            (EVAL_ROOT, "metrics.evaluate_scores"): 1,
            (SAVE_ROOT, SAVE_ROOT): k,
            (SAVE_ROOT, "rng.fnv1a64"): k,
            (LOAD_ROOT, LOAD_ROOT): k,
            (LOAD_ROOT, "rng.fnv1a64"): k,
            (WRITE_ROOT, WRITE_ROOT): 1,
            (READ_ROOT, READ_ROOT): 1,
        }

    def trace_self_check(self, table: dict, metrics: dict) -> dict:
        checks = {}
        for (root, name), want in self.expected_calls().items():
            got = table.get((root, name), (0,))[0]
            checks[f"{name} under {root}: {got} spans, expected {want}"] = got == want
        ops, tape = metrics["tensor.ops_per_step"], metrics["tensor.tape_ops_per_step"]
        checks[f"primitive ops ({ops}) >= taped ops ({tape}) > 0"] = ops >= tape > 0
        checks["optimizer updates elements"] = metrics["optim.elements_updated"] > 0
        checks["checkpoint hashing hashes bytes"] = metrics["rng.fnv1a64_bytes"] > 0
        checks["corpus file has bytes"] = metrics["synthdata.corpus_bytes"] > 0
        return checks


def print_samples(name: str, unit: str, samples) -> None:
    """One line per metric: the reference-speed median, then the wall-clock
    median with its range and the sample count."""
    wall = [w for w, _ref in samples]
    ref = [r for _w, r in samples]
    print(
        f"{name} = {statistics.median(ref):.6g} {unit} at reference speed; "
        f"wall {statistics.median(wall):.6g} {unit} "
        f"(median of n={len(wall)}, min {min(wall):.6g}, max {max(wall):.6g})"
    )


def timed_loop(seconds: float, step) -> None:
    """Call step(i) until the next call would overrun `seconds`, but at
    least MIN_ROUNDS times. An operation that raises ends the loop."""
    deadline = time.perf_counter() + seconds
    durations = []
    i = 0
    while True:
        start = time.perf_counter()
        try:
            step(i)
        except RoundAborted:
            return
        durations.append(time.perf_counter() - start)
        i += 1
        if i >= MIN_ROUNDS and time.perf_counter() + statistics.median(durations) > deadline:
            return


def cold_setups(plan: Plan, workload: str, seed: int, workdir: str, n: int) -> list:
    """Time n set-ups, each in a fresh process that does nothing else, so
    that nothing a process keeps from one set-up (a cache, a lazy
    initialisation) speeds up the next. Returns each one's (wall,
    reference) seconds from process start to the end of set-up."""
    spec = json.dumps({"plan": asdict(plan), "workdir": workdir})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only", spec]
    times = []
    for _ in range(n):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"cold set-up process failed:\n{done.stderr}")
        times.append(tuple(json.loads(done.stdout.splitlines()[-1])))
    return times


def setup_only(pkg, args, imported) -> int:
    """The body of a cold set-up process: set up once, print the (wall,
    reference) seconds from process start to the end of set-up."""
    spec = json.loads(args.setup_only)
    fields = dict(spec["plan"], frames=tuple(spec["plan"]["frames"]),
                  encoder=tuple(map(tuple, spec["plan"]["encoder"])))
    workdir = tempfile.mkdtemp(dir=spec["workdir"])
    try:
        run = Run(pkg, Plan(**fields), args.workload, args.seed, workdir, None)
        sample = run.setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps([imported[i] + sample[i] for i in (0, 1)]))
    return 0


def run_untraced(run: Run, plan: Plan, seconds: float, imported) -> dict:
    """`imported` is the (wall, reference) seconds from process start to
    the package being imported. `setup_s` is the median of this process's
    own set-up, which is cold, and plan.setup_reps - 1 cold set-up
    processes."""
    own = run.setup()
    reps = [tuple(imported[i] + own[i] for i in (0, 1))]
    reps += cold_setups(plan, run.workload, run.seed, run.workdir, plan.setup_reps - 1)
    print("setup: import %.4f s; from process start, cold set-ups %s s (wall)" % (
        imported[0], ", ".join(f"{w:.4f}" for w, _r in reps)))
    run.samples["setup_s"] = reps
    timed_loop(seconds, lambda _i: run.round())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.samples["peak_rss_mb"].append((rss_mb, rss_mb))
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            print(f"{name} = {rss_mb:.6g} {unit}")
        elif run.samples[name]:
            print_samples(name, unit, run.samples[name])
    return {
        name: {"value": statistics.median([r for _w, r in run.samples[name]]), "unit": unit}
        for name, unit in END_TO_END if run.samples[name]
    }


def run_traced(run: Run, plan: Plan, seconds: float, tracer: Tracer) -> dict:
    tracer.reset(f"{run.workload}/seed{run.seed}/setup")
    tracer.active = True
    run.setup()
    tracer.active = False
    setup_table = tracer.table()
    generate = "synthdata.generate_corpus"
    generate_s = setup_table.get((generate, generate), (0, 0.0))[1]
    plain, traced, per_round = [], [], []

    def step(i):
        if i % 2 == 0:
            plain.append(run.round())
            return
        tracer.reset(f"{run.workload}/seed{run.seed}/round{i}")
        tracer.active = True
        try:
            traced.append(run.round())
        finally:
            tracer.active = False
        table = tracer.table()
        metrics = run.layer_metrics(table, tracer.counts, tracer.distinct, tracer.primitives)
        run.attempt("trace self-check", lambda: (None, run.trace_self_check(table, metrics)))
        per_round.append(metrics)

    timed_loop(seconds, step)
    out = {}
    if per_round:
        out = {name: statistics.median([m[name] for m in per_round]) for name in per_round[0]}
    out["synthdata.generate_corpus_s"] = generate_s
    if plain and traced:
        out["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    print_trace_table(tracer)
    for name, unit in PER_LAYER:
        if name in out:
            print(f"{name} = {out[name]:.6g} {unit}")
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER if name in out}


def print_trace_table(tracer: Tracer, top: int = 25) -> None:
    """The last traced round's spans, aggregated by name, by self time."""
    by_name = {}
    for (_root, name), (calls, total, own) in tracer.table().items():
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own
    print(f"spans of {tracer.run_id}: {len(tracer.spans)} ({top} largest by self time)")
    print(f"  {'span':<42} {'calls':>8} {'total_ms':>10} {'self_ms':>10}")
    for name, (calls, total, own) in sorted(by_name.items(), key=lambda kv: -kv[1][2])[:top]:
        print(f"  {name:<42} {calls:>8} {total * 1e3:>10.2f} {own * 1e3:>10.2f}")


def main(argv=None, plans=None, work_root=None) -> int:
    plans = WORKLOADS if plans is None else plans
    ap = argparse.ArgumentParser(description="svadapt desk-scale benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(plans))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the JSON plan and directory of one cold set-up process
    ap.add_argument("--setup-only", metavar="JSON", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pkg = load_package()
    if pkg is None:
        print(f"perfbench: no svadapt package under {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    imported = (import_s, import_s * speed_factor("python"))
    if args.setup_only:
        return setup_only(pkg, args, imported)

    plan = plans[args.workload]
    print("machine " + json.dumps(machine_record(args.seed), sort_keys=True))
    work_root = work_root or os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    tracer = Tracer() if args.trace else None
    try:
        run = Run(pkg, plan, args.workload, args.seed, workdir, tracer)
        if tracer:
            with tracer:
                metrics = run_traced(run, plan, args.seconds, tracer)
        else:
            metrics = run_untraced(run, plan, args.seconds, imported)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no other run is using it
        except OSError:
            pass

    for name, unit in QUALITY:
        if name in run.quality:
            print(f"{name} = {run.quality[name]!r} {unit} (quality; deterministic per seed)")
    for line in run.failures:
        print(f"FAILED {line}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if run.aborted else 0


if __name__ == "__main__":
    sys.exit(main())
