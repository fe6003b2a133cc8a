"""Harness: configs, checkpoints, training procedures, reports."""

import hashlib
import io
import itertools
import re
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svadapt
from svadapt import tensor as tt
from svadapt.adapters import MODE_SPECS, AdapterConfig, adapter_for
from svadapt.backbone import EncoderConfig, PRESETS
from svadapt.backend import train_loss
from svadapt.errors import ConfigError, DataError, NumericError
from svadapt.harness import (
    DEFAULT_SWEEP_SCALES,
    MAGIC,
    Checkpoint,
    MetricsReport,
    RunConfig,
    backbone_checkpoint,
    backbone_hash_of,
    backbone_runs,
    check_trials,
    checkpoint_params,
    compare_configs,
    config_from_file,
    config_from_text,
    config_to_text,
    count_params_table,
    evaluate,
    format_count_table,
    format_run_table,
    load_checkpoint,
    load_params,
    model_from_checkpoint,
    pretrain_backbone,
    run_and_report,
    save_checkpoint,
    save_model_checkpoint,
    sweep_configs,
    train,
)
from svadapt.metrics import Trial, read_scores
from svadapt.model import SVModel
from svadapt.optim import LrSchedule
from svadapt.rng import fnv1a64
from svadapt.synthdata import (
    CorpusConfig, generate_corpus, generate_trials, read_corpus, read_trials, write_corpus,
    write_trials,
)

TINY_ENCODER = EncoderConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=24, input_dim=10)
TINY_CORPUS = CorpusConfig(
    seed=4, num_speakers=8, utts_per_speaker=6, frames_min=6, frames_max=10, frame_dim=10
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(TINY_CORPUS)


@pytest.fixture(scope="module")
def trials(corpus):
    return generate_trials(corpus.part("adapt"), 40, 40, seed=1)


def tiny_cfg(mode="linear-probe", adapter=None, steps=25, seed=0, **kw):
    return RunConfig(
        mode=mode, encoder=TINY_ENCODER, embed_dim=8, adapter=adapter,
        total_steps=steps, warmup_steps=max(1, steps // 10), batch_size=4,
        seed=seed, **kw,
    )


@pytest.fixture(scope="module")
def backbone_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "backbone.ckpt"
    pretrain_backbone(tiny_cfg("full-finetune", steps=30), corpus, out_path=path)
    return path


@pytest.fixture(scope="module")
def backbone_ckpt(backbone_path):
    return load_checkpoint(backbone_path)


class TestRunConfig:
    def test_adapter_config_forbidden_for_linear_probe(self):
        with pytest.raises(ConfigError, match="no adapter"):
            RunConfig(mode="linear-probe", adapter=AdapterConfig())

    def test_adapter_modes_get_a_default(self):
        cfg = RunConfig(mode="inner")
        assert cfg.adapter is not None

    def test_houlsby_default_adapter_is_sequential(self):
        assert RunConfig(mode="houlsby").adapter == AdapterConfig(variant="sequential")
        assert config_from_text("[run]\nmode = houlsby\n").adapter.variant == "sequential"
        for mode in ("inner", "inner-inter"):
            assert RunConfig(mode=mode).adapter == AdapterConfig()

    def test_a_sequential_adapter_has_no_scale(self):
        assert AdapterConfig().scale == 0.5
        assert AdapterConfig(variant="sequential").scale is None
        with pytest.raises(ConfigError, match="a sequential adapter takes no scale"):
            AdapterConfig(variant="sequential", scale=0.25)
        for mode, acfg in [("houlsby", None), ("inner", AdapterConfig(variant="sequential"))]:
            text = config_to_text(RunConfig(mode=mode, adapter=acfg))
            assert "variant = sequential\n" in text and "scale" not in text
            assert config_from_text(text).adapter.scale is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown tuning mode"):
            RunConfig(mode="prefix-tuning")

    def test_variant_the_mode_does_not_take_is_rejected(self):
        with pytest.raises(ConfigError, match="sequential adapters only"):
            RunConfig(mode="houlsby", adapter=AdapterConfig(variant="parallel"))

    def test_warmup_bounded_by_total(self):
        with pytest.raises(ConfigError, match="warmup"):
            RunConfig(warmup_steps=100, total_steps=50)

    def test_text_round_trip(self):
        cfg = tiny_cfg("inner-inter", AdapterConfig(scale="learnable"), seed=9)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_cfg("houlsby", AdapterConfig(variant="sequential"), seed=2)
        path = tmp_path / "run.conf"
        path.write_text(config_to_text(cfg))
        assert config_from_file(path) == cfg

    def test_missing_file_is_data_error(self):
        with pytest.raises(DataError, match="not found"):
            config_from_file("/nonexistent/run.conf")

    def test_default_hyperparameters(self):
        cfg = RunConfig()
        assert cfg.lr_head / cfg.lr_other == pytest.approx(50.0)
        assert (cfg.warmup_steps, cfg.total_steps) == (200, 2000)

    def test_non_numeric_adapter_scale_is_config_error(self):
        with pytest.raises(ConfigError, match="scale must be a number"):
            config_from_text("[run]\nmode = inner\n[adapter]\nscale = x\n")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("optim", "lr_head", "nan"),
            ("optim", "lr_head", "inf"),
            ("optim", "lr_head", "-1"),
            ("optim", "lr_other", "-1e-05"),
            ("adapter", "scale", "nan"),
            ("adapter", "scale", "-inf"),
            ("head", "embed_dim", "0"),
            ("head", "embed_dim", "-2"),
        ],
    )
    def test_malformed_number_is_config_error_naming_the_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            config_from_text(f"[{section}]\n{key} = {value}\n")

    def test_range_ends_are_accepted(self):
        cfg = RunConfig(lr_head=0.0, lr_other=0.0)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_text_bytes_are_pinned(self):
        # the serializer's exact output; parsing it and writing it again
        # must give the same bytes
        text = (
            "[run]\nmode = inner-inter\nseed = 0\nbatch_size = 8\nwarmup_steps = 200\n"
            "total_steps = 2000\n[encoder]\nnum_layers = 4\nhidden_dim = 64\n"
            "num_heads = 4\nffn_dim = 128\ninput_dim = 20\nseed = 0\n[head]\n"
            "embed_dim = 32\n[adapter]\nbottleneck_dim = 8\nvariant = parallel\n"
            "scale = 0.25\n[optim]\nlr_head = 0.0005\nlr_other = 1e-05\n"
        )
        cfg = RunConfig(mode="inner-inter", adapter=AdapterConfig(bottleneck_dim=8, scale=0.25))
        assert config_to_text(cfg) == text
        assert config_to_text(config_from_text(text)) == text

    def test_data_paths_round_trip(self):
        cfg = tiny_cfg(
            corpus_path="data/corpus.txt",
            trials_path="data/trials.txt",
            backbone_path="ckpt/backbone.ckpt",
        )
        text = config_to_text(cfg)
        assert "[data]" in text
        assert config_from_text(text) == cfg


    def test_percent_signs_are_read_and_written_as_is(self, tmp_path):
        assert config_from_text("[data]\ncorpus = c%20.txt\n").corpus_path == "c%20.txt"
        cfg = tiny_cfg(corpus_path="a%%b", trials_path="100%")
        text = config_to_text(cfg)
        assert "corpus = a%%b\n" in text and "trials = 100%\n" in text
        assert config_from_text(text) == cfg
        # a checkpoint's embedded config reads back
        model = SVModel(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
        save_model_checkpoint(tmp_path / "p.ckpt", model, text, 0)
        assert config_from_text(load_checkpoint(tmp_path / "p.ckpt").config_text) == cfg

    def test_value_continued_on_a_second_line_is_config_error(self):
        # config_to_text could not write such a value back readably
        with pytest.raises(ConfigError, match="one line"):
            config_from_text("[data]\ncorpus = c.txt\n  more\n")

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"[run]\nmode = inn\xffer\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            config_from_file(path)

    @pytest.mark.parametrize(
        "text,named",
        [
            ("[run]\nmod = inner\n", "[run] mod"),
            ("[runn]\nmode = inner\n", "[runn]"),
            ("[DEFAULT]\nmode = inner\n", "[DEFAULT]"),
            ("[data]\ncorpus_path = c.txt\n", "[data] corpus_path"),
            ("[head]\nembed_dim = 8\n[optim]\nlr = 1\n[extra]\n", "[optim] lr, [extra]"),
        ],
    )
    def test_unknown_section_or_key_is_named(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            config_from_text(text)


@st.composite
def mutated_config(draw, base: str):
    kind = draw(st.sampled_from(["truncate", "char", "value", "line", "text"]))
    if kind == "text":
        return draw(st.text(max_size=80))
    if kind == "truncate":
        return base[: draw(st.integers(0, len(base) - 1))]
    if kind == "char":
        i = draw(st.integers(0, len(base) - 1))
        return base[:i] + draw(st.characters()) + base[i + 1 :]
    lines = base.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    junk = draw(st.one_of(st.sampled_from(ODD_VALUES), st.text(max_size=12)))
    if kind == "value" and " = " in lines[i]:
        lines[i] = lines[i].split(" = ")[0] + " = " + junk + "\n"
    else:
        lines.insert(i, junk + "\n")
    return "".join(lines)


ODD_VALUES = [
    "", "%", "%(x)s", "a%%b", "nan", "-inf", "1e999", "learnable", "sequential",
    "1_0", "0x10", " 7 ", "[run]", "mode = inner", "\t", "99999999999999999999",
]


class TestConfigReaderFuzz:
    BASE = config_to_text(
        RunConfig(
            mode="inner", adapter=AdapterConfig(scale="learnable"),
            corpus_path="c.txt", trials_path="t.txt", backbone_path="b.ckpt",
        )
    )

    def test_reads_or_raises_a_package_error(self):
        @settings(max_examples=600, deadline=None)
        @given(mutated_config(self.BASE))
        @example(self.BASE)
        @example(self.BASE.replace("corpus = c.txt\n", "corpus = c.txt\n more\n"))
        def check(text):
            try:
                cfg = config_from_text(text)
            except (ConfigError, DataError):  # ParseError is a DataError
                return
            # what was read writes out as text that reads back the same
            again = config_to_text(cfg)
            assert config_to_text(config_from_text(again)) == again

        check()


class TestLrSchedule:
    def test_warmup_then_decay_to_floor(self):
        s = LrSchedule(peak=1e-3, warmup_steps=10, total_steps=110)
        assert s.at(1) == pytest.approx(1e-4)
        assert s.at(10) == pytest.approx(1e-3)
        assert s.at(110) == pytest.approx(5e-5)
        assert s.at(200) == pytest.approx(5e-5)  # flat after total
        mid = s.at(60)
        assert 5e-5 < mid < 1e-3

    def test_monotone_after_warmup(self):
        s = LrSchedule(peak=1.0, warmup_steps=5, total_steps=50)
        values = [s.at(t) for t in range(5, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAdam:
    def test_frozen_params_bitwise_untouched(self):
        from svadapt.optim import Adam
        from svadapt.tensor import Param

        frozen = Param(np.array([1.0, -2.0, 3.0]), name="f")
        frozen.trainable = False
        live = Param(np.array([1.0, -2.0, 3.0]), name="l")
        before = frozen.data.copy()
        opt = Adam([([frozen, live], LrSchedule(1e-2, 1, 10))])
        for _ in range(25):
            frozen.grad[...] = 5.0  # even a dirty gradient slot must be ignored
            live.grad[...] = 5.0
            opt.step()
        assert np.array_equal(frozen.data, before)
        assert not np.array_equal(live.data, before)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_gradient_raises_before_any_update(self, bad, which):
        # one bad element in the 0-d, 1-d or 2-d param of two groups: the
        # error names that param and the step, and nothing moves, so the
        # next clean step lands where a fresh optimizer's first step does
        from svadapt.optim import Adam
        from svadapt.tensor import Param

        def make():
            params = [Param(0.5, name="s"), Param([1.0, -2.0], name="v"),
                      Param(np.arange(6.0).reshape(2, 3), name="w")]
            for p in params:
                p.grad[...] = 0.25
            groups = [(params[:1], LrSchedule(0.1, 1, 10)), (params[1:], LrSchedule(0.2, 1, 10))]
            return params, Adam(groups)

        params, opt = make()
        before = [p.data.copy() for p in params]
        params[which].grad.reshape(-1)[-1] = bad
        with pytest.raises(NumericError, match=rf"'{params[which].name}' at step 1"):
            opt.step()
        for p, data in zip(params, before):
            assert p.data.tobytes() == data.tobytes()
        params[which].grad[...] = 0.25
        opt.step()
        fresh, fresh_opt = make()
        fresh_opt.step()
        for p, q in zip(params, fresh):
            assert p.data.tobytes() == q.data.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_updated_value_names_the_param_and_step(self, bad, which):
        # a bad element written into the 0-d, 1-d or 2-d param through its
        # view, with finite gradients: only the check on updated values sees it
        from svadapt.optim import Adam
        from svadapt.tensor import Param

        params = [Param(0.5, name="s"), Param([1.0, -2.0], name="v"),
                  Param(np.arange(6.0).reshape(2, 3), name="w")]
        opt = Adam([(params[:1], LrSchedule(0.1, 1, 10)), (params[1:], LrSchedule(0.2, 1, 10))])
        for p in params:
            p.grad[...] = 0.25
        params[which].data.reshape(-1)[-1] = bad
        with pytest.raises(NumericError, match=rf"value for '{params[which].name}' at step 1"):
            opt.step()

    def test_build_moves_trainable_params_into_one_buffer_per_group(self):
        # values and gradients keep their bits; frozen params keep their
        # arrays; zero_grad clears every trainable gradient; and a load
        # after the build reaches the buffer, so the next step updates the
        # loaded values exactly as if they had been loaded before it
        from svadapt.optim import Adam

        acfg = adapter_for("inner-inter")
        loaded = Checkpoint("", 0, checkpoint_params(randomized_model("inner-inter", acfg, 4)), 0)

        def build(load_first):
            model = randomized_model("inner-inter", acfg, seed=3)
            params = model.named_params()
            for i, p in enumerate(params):
                p.grad[...] = np.random.default_rng(i).normal(size=p.shape)
            if load_first:
                load_params(model, loaded)
            before = [(p.data, p.shape, p.data.tobytes(), p.grad.tobytes()) for p in params]
            head, other = LrSchedule(0.1, 1, 10), LrSchedule(0.02, 1, 10)
            return model, params, before, Adam([(params[::2], head), (params[1::2], other)])

        model, params, before, opt = build(load_first=False)
        assert any(not p.trainable for p in params)
        for p, (data, shape, values, grads) in zip(params, before):
            assert (p.data.shape, p.grad.shape) == (shape, shape), p.name
            assert (p.data.tobytes(), p.grad.tobytes()) == (values, grads), p.name
            assert (p.data is data) == (not p.trainable), p.name
        for (ps, _), buf in zip(opt.groups, opt._buffers):
            assert buf.shape == (2, sum(p.data.size for p in ps))
            for p in ps:
                assert np.shares_memory(p.data, buf[0]) and np.shares_memory(p.grad, buf[1]), p.name
        opt.zero_grad()
        for p, (*_, grads) in zip(params, before):
            assert (not p.grad.any()) if p.trainable else p.grad.tobytes() == grads, p.name

        load_params(model, loaded)
        for i, p in enumerate(params):
            p.grad[...] = np.random.default_rng(i).normal(size=p.shape)
        opt.step()
        _model, ref_params, _before, ref_opt = build(load_first=True)
        ref_opt.step()
        for p, q in zip(params, ref_params):
            assert p.data.tobytes() == q.data.tobytes(), p.name


def fnv1a64_loop(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


BACKBONE = (b"featurizer.", b"encoder.")


def backbone_spans(body: bytes) -> list:
    """(start, end) of each backbone param's values in a checkpoint body
    (everything before the seal), found by reading its fields in turn."""
    fh = io.BytesIO(body)
    fh.seek(12)
    (conf_len,) = struct.unpack("<I", fh.read(4))
    fh.seek(conf_len + 8, io.SEEK_CUR)
    (nparams,) = struct.unpack("<I", fh.read(4))
    spans = []
    for _ in range(nparams):
        (name_len,) = struct.unpack("<H", fh.read(2))
        name = fh.read(name_len)
        _trainable, rank = struct.unpack("<BB", fh.read(2))
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        start = fh.tell()
        fh.seek(8 * int(np.prod(shape)), io.SEEK_CUR)
        if name.startswith(BACKBONE):
            spans.append((start, fh.tell()))
    return spans


def sealed(body: bytes) -> bytes:
    """`body` with its seal: the sha256 of its backbone values joined,
    then of every other byte of it in order. These are the bytes a
    checkpoint file holds."""
    backbone, rest, at = [], [], 0
    for start, end in backbone_spans(body):
        backbone.append(body[start:end])
        rest.append(body[at:start])
        at = end
    rest.append(body[at:])
    return body + hashlib.sha256(b"".join(backbone + rest)).digest()


def resealed(blob) -> bytes:
    """A checkpoint blob whose body was edited, with its seal made to
    match again, so a load gets past the seal to the check under test."""
    return sealed(bytes(blob[:-32]))


def reference_checkpoint_bytes(config_text: str, params, step: int) -> bytes:
    """A checkpoint laid out by a per-param writer: one `write` per field,
    one `tobytes` per array, the backbone hash by the FNV-1a byte loop over
    the sha256 of the joined backbone bytes, then the seal: the sha256 of
    the joined backbone bytes followed by every other byte written."""
    payload = [(name, t, np.asarray(arr, "<f8", order="C")) for name, t, arr in params]
    backbone = b"".join(
        arr.tobytes() for name, _t, arr in payload if name.encode().startswith(BACKBONE)
    )
    fh, rest = io.BytesIO(), io.BytesIO()

    def write(data, sealed_later=True):
        fh.write(data)
        if sealed_later:
            rest.write(data)

    write(b"SVADCKPT")
    write(struct.pack("<I", 4))
    conf = config_text.encode("utf-8")
    write(struct.pack("<I", len(conf)))
    write(conf)
    write(struct.pack("<Q", step))
    write(struct.pack("<I", len(payload)))
    for name, trainable, arr in payload:
        nb = name.encode("utf-8")
        write(struct.pack("<H", len(nb)))
        write(nb)
        write(struct.pack("<BB", int(trainable), arr.ndim))
        write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        write(arr.tobytes(), sealed_later=not nb.startswith(BACKBONE))
    write(struct.pack("<Q", fnv1a64_loop(hashlib.sha256(backbone).digest())))
    return fh.getvalue() + hashlib.sha256(backbone + rest.getvalue()).digest()


CHECKPOINT_MODES = [(mode, adapter_for(mode)) for mode in MODE_SPECS] + [
    ("inner-inter", AdapterConfig(bottleneck_dim=4, scale="learnable")),
]


def randomized_model(mode, acfg, seed=0):
    """A tiny model of `mode` with every param drawn at random, so no
    checkpoint array is all zeros."""
    if acfg is not None:
        acfg = replace(acfg, bottleneck_dim=4)
    model = SVModel(TINY_ENCODER, 8, mode, acfg, seed)
    rng = np.random.default_rng(seed)
    for p in model.named_params():
        p.data[...] = rng.normal(size=p.data.shape)
    return model


class TestCheckpointBytes:
    @pytest.mark.parametrize("mode,acfg", CHECKPOINT_MODES, ids=lambda v: str(getattr(v, "scale", v)))
    def test_save_writes_the_per_param_layout(self, tmp_path, mode, acfg):
        model = randomized_model(mode, acfg)
        path = tmp_path / "run.ckpt"
        h = save_model_checkpoint(path, model, "[run]\nmode = x\n", 9)
        params = [(p.name, p.trainable, p.data) for p in model.named_params(include_classifier=False)]
        want = reference_checkpoint_bytes("[run]\nmode = x\n", params, 9)
        assert path.read_bytes() == want == sealed(want[:-32])
        assert h == int.from_bytes(want[-40:-32], "little")

    def test_odd_params_keep_the_per_param_layout(self, tmp_path):
        # a 0-d, an empty, an integer and a transposed (not C-order) array;
        # the backbone params are not first in the file
        params = [
            ("head.s", True, np.array(0.5)),
            ("encoder.z", False, np.zeros((0, 3))),
            ("encoder.i", False, np.arange(3)),
            ("bridge.w", True, np.ones((2, 2))),
            ("featurizer.t", True, np.arange(6.0).reshape(2, 3).T),
        ]
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, "", params, 2)
        assert path.read_bytes() == reference_checkpoint_bytes("", params, 2)
        loaded = load_checkpoint(path)
        for (name, trainable, arr), (lname, ltrainable, larr) in zip(params, loaded.params):
            assert (lname, ltrainable, larr.shape) == (name, trainable, arr.shape)
            assert larr.tobytes() == np.asarray(arr, "<f8").tobytes()

    def test_backbone_witness_makes_no_backbone_sized_copy(self):
        # the 1.08 MB desk backbone feeds the sha256 one array at a time
        params = checkpoint_params(SVModel(EncoderConfig(), 32, "inter", None, 0), backbone_only=True)
        tracemalloc.start()
        try:
            backbone_hash_of(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_each_byte_passes_through_sha256_once(self, tmp_path, monkeypatch):
        fed = []

        class CountingSha256:
            def __init__(self, data=b"", state=None):
                self.state = state or hashlib.sha256()
                self.update(data)

            def update(self, data):
                fed.append(memoryview(data).nbytes)
                self.state.update(data)

            def copy(self):
                return CountingSha256(state=self.state.copy())

            def digest(self):
                return self.state.digest()

        # the harness's own `hashlib` binding, so no other module's is touched
        monkeypatch.setattr("svadapt.harness.hashlib", SimpleNamespace(sha256=CountingSha256))
        model = randomized_model(*CHECKPOINT_MODES[-1])
        path = tmp_path / "run.ckpt"
        save_model_checkpoint(path, model, config_to_text(tiny_cfg("inner-inter")), 5)
        size = path.stat().st_size
        assert sum(fed) == size - 32
        fed.clear()
        load_checkpoint(path)
        assert sum(fed) == size - 32

    def test_random_param_lists_round_trip(self, tmp_path):
        # backbone and other params interleaved, 0-d and empty arrays among them
        path = tmp_path / "rt.ckpt"
        again = tmp_path / "again.ckpt"
        prefixes = ["featurizer.", "encoder.", "adapters.", "bridge.", "head."]
        param = st.tuples(
            st.sampled_from(prefixes), st.booleans(),
            st.lists(st.integers(0, 3), max_size=3).map(tuple),
        )

        @settings(max_examples=60, deadline=None)
        @given(st.lists(param, max_size=8), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
        def check(rows, step, seed):
            rng = np.random.default_rng(seed)
            params = [(f"{prefix}p{i}", trainable, rng.normal(size=shape))
                      for i, (prefix, trainable, shape) in enumerate(rows)]
            h = save_checkpoint(path, "[run]\nseed = 1\n", params, step)
            loaded = load_checkpoint(path)
            save_checkpoint(again, loaded.config_text, loaded.params, loaded.step)
            assert again.read_bytes() == path.read_bytes()
            assert loaded.backbone_hash == h == backbone_hash_of(params)
            assert loaded.step == step

        check()

    @pytest.mark.parametrize("mode,acfg", [CHECKPOINT_MODES[-1], ("full-finetune", None)])
    def test_loaded_params_are_separate_writable_arrays(self, tmp_path, mode, acfg):
        model = randomized_model(mode, acfg, seed=1)
        path = tmp_path / "run.ckpt"
        save_model_checkpoint(path, model, "", 1)
        arrays = [arr for _n, _t, arr in load_checkpoint(path).params]
        for arr in arrays:
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.c_contiguous
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        # writing into one loaded param leaves the others as saved
        want = [p.data.copy() for p in model.named_params(include_classifier=False)]
        arrays[0][...] = -7.0
        for arr, expected in zip(arrays[1:], want[1:]):
            assert arr.tobytes() == expected.tobytes()


class TestCheckpoints:
    def test_load_then_save_reproduces_bytes(self, corpus, tmp_path):
        cfg = tiny_cfg("inner", AdapterConfig(bottleneck_dim=4), steps=6)
        path = tmp_path / "run.ckpt"
        train(cfg, None, corpus, out_path=path)
        ck = load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(path2, ck.config_text, ck.params, ck.step)
        assert path.read_bytes() == path2.read_bytes()

    def test_classifier_never_serialized(self, corpus, tmp_path):
        path = tmp_path / "run.ckpt"
        train(tiny_cfg(steps=4), None, corpus, out_path=path)
        names = [name for name, _t, _a in load_checkpoint(path).params]
        assert not any(n.startswith("classifier.") for n in names)

    def test_tampered_backbone_fails_hash_check(self, corpus, tmp_path):
        path = tmp_path / "run.ckpt"
        train(tiny_cfg(steps=4), None, corpus, out_path=path)
        blob = bytearray(path.read_bytes())
        # flip one bit somewhere inside the backbone values
        blob[len(blob) // 2] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resealed(blob))
        with pytest.raises(DataError, match="backbone hash mismatch"):
            load_checkpoint(bad)

    def test_failed_save_leaves_existing_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        params = [("encoder.w", False, np.arange(4.0)), ("head.w", True, np.ones(3))]
        save_checkpoint(path, "[run]\n", params, 1)
        before = path.read_bytes()
        # a name that cannot be encoded raises after the first param is written
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(path, "[run]\n", params + [("head.\ud800", True, np.ones(2))], 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError, match="bad magic"):
            load_checkpoint(path)

    def test_model_round_trips_through_checkpoint(self, corpus, trials, tmp_path):
        cfg = tiny_cfg("inner-inter", AdapterConfig(bottleneck_dim=4), steps=8)
        path = tmp_path / "run.ckpt"
        run = train(cfg, None, corpus, out_path=path)
        res_direct, _ = evaluate(run.model, corpus, trials)
        res_loaded, _ = evaluate(model_from_checkpoint(load_checkpoint(path)), corpus, trials)
        assert res_direct == res_loaded

    def test_backbone_only_checkpoint_is_no_model(self, backbone_ckpt):
        # a pretrain checkpoint has no bridge or head: building a model
        # from it would score with their random init
        with pytest.raises(DataError, match=r"lacks 9 model params: .*bridge\.w.*head\.fc2\.b"):
            model_from_checkpoint(backbone_ckpt)

    def test_checkpoint_missing_one_param_is_named(self, corpus, tmp_path):
        cfg = tiny_cfg("inner", AdapterConfig(bottleneck_dim=4), steps=2)
        path = tmp_path / "run.ckpt"
        train(cfg, None, corpus, out_path=path)
        ck = load_checkpoint(path)
        kept = [p for p in ck.params if p[0] != "adapters.layer01.ffn.w_up"]
        save_checkpoint(path, ck.config_text, kept, ck.step)
        with pytest.raises(DataError, match=r"lacks 1 model params: adapters\.layer01\.ffn\.w_up$"):
            model_from_checkpoint(load_checkpoint(path))

    def test_param_named_twice_is_a_data_error(self, corpus, tmp_path):
        # loaded, the second copy would be the one installed, and a re-save
        # would not give the file's bytes
        path = tmp_path / "run.ckpt"
        train(tiny_cfg("inner", AdapterConfig(bottleneck_dim=4), steps=2), None, corpus,
              out_path=path)
        ck = load_checkpoint(path)
        twice = ck.params + [("head.fc2.b", True, -ck.params[-1][2])]
        assert ck.params[-1][0] == "head.fc2.b"
        path.write_bytes(reference_checkpoint_bytes(ck.config_text, twice, ck.step))
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: param 'head.fc2.b' appears twice"):
            load_checkpoint(path)

    def test_writer_refuses_a_param_named_twice_and_keeps_the_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        params = [("encoder.w", False, np.arange(4.0)), ("head.w", True, np.ones(3))]
        save_checkpoint(path, "[run]\n", params, 1)
        before = path.read_bytes()
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: param 'encoder.w' appears twice"):
            save_checkpoint(path, "[run]\n", params + [("encoder.w", False, np.zeros(4))], 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def _fault_checkpoint(fault, rows):
    """`checkpoint_params` rows with one fault in their second row, a
    backbone one, and the message a load of them must raise."""
    name, trainable, arr = rows[1]
    if fault == "missing":
        return rows[:1] + rows[2:], rf"lacks 1 {{what}} params: {re.escape(name)}$"
    if fault == "unknown":
        return rows + [("encoder.extra.w", True, np.ones(2))], \
            r"checkpoint parameter 'encoder\.extra\.w' not present in model"
    wide = np.zeros((*arr.shape[:-1], arr.shape[-1] + 1))
    return rows[:1] + [(name, trainable, wide)] + rows[2:], (
        rf"shape mismatch for '{re.escape(name)}': model {re.escape(str(arr.shape))} "
        rf"vs checkpoint {re.escape(str(wide.shape))}")


@pytest.mark.parametrize("backbone_only", [False, True], ids=["model", "backbone"])
@pytest.mark.parametrize("fault", ["missing", "unknown", "shape"])
def test_load_params_refuses_a_faulty_checkpoint_and_copies_nothing(fault, backbone_only):
    source = randomized_model("inner-inter", adapter_for("inner-inter"), seed=1)
    rows, message = _fault_checkpoint(fault, checkpoint_params(source))
    model = randomized_model("inner-inter", adapter_for("inner-inter"), seed=0)
    before = [p.data.copy() for p in model.named_params()]
    with pytest.raises(DataError, match=message.format(what="backbone" if backbone_only else "model")):
        load_params(model, Checkpoint("", 0, rows, 0), backbone_only=backbone_only)
    for p, data in zip(model.named_params(), before):
        assert p.data.tobytes() == data.tobytes()


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "reader", [read_corpus, read_trials, read_scores, load_checkpoint, config_from_file],
    ids=lambda reader: reader.__name__,
)
def test_every_reader_refuses_a_missing_or_unreadable_file(tmp_path, reader, kind):
    path = tmp_path / "missing.txt" if kind == "missing" else tmp_path
    where = re.escape(str(path))
    with pytest.raises(DataError, match=f"{where} not found" if kind == "missing"
                       else f"cannot read .* {where}: "):
        reader(path)


class TestCheckpointCorruption:
    """Any truncation, byte past the hash trailers, flipped bit or
    undecodable text block is a DataError, never a bare ValueError or
    UnicodeDecodeError or a silent load."""

    @pytest.fixture()
    def tiny_ckpt(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        params = [
            ("encoder.w", True, np.arange(6.0).reshape(2, 3)),
            ("head.b", False, np.array([1.5, -2.0])),
            ("adapters.scale", True, np.array(0.5)),
        ]
        save_checkpoint(path, "[run]\nmode = inner\n", params, 3)
        return path

    def test_every_truncation_is_a_data_error(self, tiny_ckpt, tmp_path):
        blob = tiny_ckpt.read_bytes()
        assert load_checkpoint(tiny_ckpt).step == 3
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                load_checkpoint(cut)

    @pytest.mark.parametrize("junk", [b"\0", b"\xa5" * 28], ids=["1-byte", "28-bytes"])
    def test_bytes_after_the_hash_are_a_data_error(self, tiny_ckpt, tmp_path, junk):
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(tiny_ckpt.read_bytes() + junk)
        with pytest.raises(DataError, match="sha256 mismatch"):
            load_checkpoint(padded)
        # between the backbone hash and a sha256 that covers them
        padded.write_bytes(resealed(tiny_ckpt.read_bytes()[:-32] + junk + bytes(32)))
        with pytest.raises(DataError, match=f"{len(junk)} bytes follow the backbone hash"):
            load_checkpoint(padded)

    def test_half_length_message_names_truncation(self, tiny_ckpt, tmp_path):
        blob = tiny_ckpt.read_bytes()
        cut = tmp_path / "half.ckpt"
        cut.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="truncated or corrupt"):
            load_checkpoint(cut)
        # a body whose length field runs past its end has no seal, so it
        # is refused whatever 32 bytes follow it
        body = blob[: len(blob) // 2]
        for trailer in (bytes(32), blob[-32:], hashlib.sha256(body).digest(),
                        hashlib.sha256(body[::-1]).digest()):
            cut.write_bytes(body + trailer)
            with pytest.raises(DataError, match="sha256 mismatch: the file is truncated or corrupt"):
                load_checkpoint(cut)

    def test_a_shape_past_any_offset_is_a_data_error(self, tiny_ckpt, tmp_path):
        # param 0 ("encoder.w", rank 2) given rank 3 and three dims of
        # 2**32 - 1: its values would end past any offset a buffer can have
        blob = bytearray(tiny_ckpt.read_bytes())
        conf_len = int.from_bytes(blob[12:16], "little")
        at = 16 + conf_len + 8 + 4 + 2 + len(b"encoder.w") + 1
        assert blob[at] == 2
        blob[at] = 3
        blob[at + 1 : at + 13] = b"\xff" * 12
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="truncated or corrupt"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field", ["config block", "param 0 name"])
    def test_non_utf8_text_is_a_data_error(self, tiny_ckpt, tmp_path, field):
        blob = bytearray(tiny_ckpt.read_bytes())
        # the config block starts after magic, version and its length; the
        # first name after the config, the step, the count and its length
        conf_len = int.from_bytes(blob[12:16], "little")
        at = 16 if field == "config block" else 16 + conf_len + 8 + 4 + 2
        blob[at] = 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(resealed(blob))
        with pytest.raises(DataError, match=f"{field} is not valid UTF-8"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_file_asks_for_a_rerun(self, tiny_ckpt, tmp_path, version):
        # version 1 had no sha256 trailer; versions 2 and 3 ended with a
        # sha256 of every preceding byte (version 2 hashed the backbone
        # bytes with FNV-1a directly)
        body = bytearray(tiny_ckpt.read_bytes()[:-32])
        body[8:12] = struct.pack("<I", version)
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(bytes(body) if version == 1 else bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version}, "
                                            "expected 4; re-run to regenerate"):
            load_checkpoint(old)

    @staticmethod
    def high_rank_file(path, shape) -> None:
        """A sealed checkpoint of one head param of `shape`, all ones."""
        conf = b"[run]\nmode = inner\n"
        name = b"head.b"
        body = b"".join([
            MAGIC, struct.pack("<II", 4, len(conf)), conf, struct.pack("<QI", 3, 1),
            struct.pack(f"<H{len(name)}sBB{len(shape)}I", len(name), name, 0, len(shape), *shape),
            np.ones(int(np.prod(shape)), "<f8").tobytes(),
            struct.pack("<Q", fnv1a64(hashlib.sha256().digest())),  # no backbone bytes
        ])
        path.write_bytes(sealed(body))

    @pytest.mark.parametrize("shape", [(0,) + (1,) * 69, (1,) * 65], ids=["rank-70", "rank-65"])
    def test_a_rank_numpy_cannot_hold_is_a_data_error(self, tmp_path, shape):
        # a rank fits in its u8, but numpy holds at most 64 dims (32 before 2.0)
        bad = tmp_path / "rank.ckpt"
        self.high_rank_file(bad, shape)
        with pytest.raises(DataError, match=f"param 'head.b' has rank {len(shape)}"):
            load_checkpoint(bad)

    def test_a_rank_numpy_cannot_hold_exits_3_in_eval(self, corpus, trials, tmp_path, capsys):
        from svadapt.cli import main

        write_corpus(tmp_path / "corpus.txt", corpus)
        write_trials(tmp_path / "trials.txt", trials)
        self.high_rank_file(tmp_path / "rank.ckpt", (0,) + (1,) * 69)
        rc = main(["eval", "--checkpoint", str(tmp_path / "rank.ckpt"),
                   "--corpus", str(tmp_path / "corpus.txt"), "--trials", str(tmp_path / "trials.txt")])
        assert rc == 3
        assert "param 'head.b' has rank 70" in capsys.readouterr().err

    def test_corruption_fuzz_never_loads(self, tmp_path):
        # 300 corrupt copies of an inner-inter checkpoint with a learnable
        # scale: 100 truncations, 100 appended byte runs and 100 single-bit
        # flips, each anywhere in the file, adapters, head and config too
        model = randomized_model("inner-inter", CHECKPOINT_MODES[-1][1])
        path = tmp_path / "run.ckpt"
        save_model_checkpoint(path, model, config_to_text(tiny_cfg("inner-inter")), 5)
        blob = path.read_bytes()
        rng = np.random.default_rng(21)
        loaded = []
        for i in range(300):
            kind = ("truncate", "append", "flip")[i % 3]
            if kind == "truncate":
                bad = blob[: rng.integers(len(blob))]
            elif kind == "append":
                bad = blob + rng.bytes(rng.integers(1, 65))
            else:
                at = rng.integers(len(blob))
                bad = bytearray(blob)
                bad[at] ^= 1 << rng.integers(8)
            path.write_bytes(bytes(bad))
            try:
                load_checkpoint(path)
            except DataError:
                continue
            loaded.append((kind, len(bad)))
        assert loaded == []


class TestTapeSize:
    """Tape ops recorded by one desk-config training step (batch 8). The
    counts pin the fused bias, the single attention op and the pruning of
    frozen subgraphs; a change to any of them shows here first."""

    @pytest.mark.parametrize(
        "mode, ops", [("inner-inter", 571), ("full-finetune", 451), ("inter", 75)]
    )
    def test_desk_step_tape_length(self, mode, ops):
        cfg = RunConfig(mode=mode)
        model = SVModel(cfg.encoder, cfg.embed_dim, mode, cfg.adapter, seed=0)
        model.add_classifier(4)
        rng = np.random.default_rng(0)
        frames = [rng.normal(size=(12, cfg.encoder.input_dim)) for _ in range(cfg.batch_size)]
        labels = [i % 4 for i in range(cfg.batch_size)]
        with tt.Tape() as tape:
            loss = train_loss([model.embed(f) for f in frames], labels, model.classifier)
            tape.backward(loss)
        assert len(tape) == ops


class TestPretrain:
    def test_loss_decreases(self, corpus):
        run = pretrain_backbone(tiny_cfg("full-finetune", steps=60), corpus)
        assert run.losses[-1] < run.losses[0]

    def test_same_seed_identical_checkpoints(self, corpus, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        pretrain_backbone(tiny_cfg(steps=8, seed=5), corpus, out_path=a)
        pretrain_backbone(tiny_cfg(steps=8, seed=5), corpus, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_holds_backbone_only(self, backbone_ckpt):
        names = {name for name, _t, _a in backbone_ckpt.params}
        assert all(n.startswith(("featurizer.", "encoder.")) for n in names)

    def test_featurizer_stays_frozen(self, corpus):
        run = pretrain_backbone(tiny_cfg(steps=4), corpus)
        feat = [p for p in run.model.encoder.params() if p.name.startswith("featurizer.")]
        assert all(not p.trainable for p in feat)
        fresh = SVModel(TINY_ENCODER, 8, "linear-probe", None, seed=0)
        for p, q in zip(
            sorted(feat, key=lambda p: p.name),
            sorted(
                (p for p in fresh.encoder.params() if p.name.startswith("featurizer.")),
                key=lambda p: p.name,
            ),
        ):
            assert np.array_equal(p.data, q.data)

    @pytest.mark.skipif(not svadapt.HEAP_KEPT, reason="libc takes no mallopt thresholds")
    def test_steps_fault_no_heap_pages_back_in(self):
        # 20 full-finetune steps at the benchmark's pretrain-io sizes (the
        # default corpus: 40 speakers x 20 utterances of 30-60 frames); with
        # glibc trimming the heap after each backward, ~1,100-2,600 page
        # faults per step brought it back
        resource = pytest.importorskip("resource")
        corpus = generate_corpus(CorpusConfig())
        cfg = RunConfig(mode="full-finetune", total_steps=20, warmup_steps=2)
        pretrain_backbone(cfg, corpus)  # the first call grows the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pretrain_backbone(cfg, corpus)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100 * cfg.total_steps


class TestTrain:
    @pytest.mark.parametrize(
        "mode,acfg",
        [
            ("linear-probe", None),
            ("weighted-sum", None),
            ("inter", None),
            ("inner", AdapterConfig(bottleneck_dim=4)),
            ("houlsby", AdapterConfig(bottleneck_dim=4, variant="sequential")),
        ],
    )
    def test_frozen_modes_preserve_backbone_hash(self, corpus, backbone_ckpt, mode, acfg):
        run = train(tiny_cfg(mode, acfg, steps=10), backbone_ckpt, corpus)
        assert run.backbone_hash == backbone_ckpt.backbone_hash

    def test_a_corpus_without_adapt_speakers_is_a_data_error(self, corpus):
        pretrain_only = replace(corpus, speaker_split={s: "pretrain" for s in corpus.speaker_split})
        with pytest.raises(DataError, match="corpus has no utterances in the 'adapt' part"):
            train(tiny_cfg(steps=2), None, pretrain_only)

    def test_full_finetune_changes_backbone_hash(self, corpus, backbone_ckpt):
        run = train(tiny_cfg("full-finetune", steps=10), backbone_ckpt, corpus)
        assert run.backbone_hash != backbone_ckpt.backbone_hash

    def test_step0_scores_match_linear_probe(self, corpus, trials, backbone_ckpt):
        def scores_at_step0(mode, acfg):
            cfg = tiny_cfg(mode, acfg, seed=3)
            model = SVModel(cfg.encoder, cfg.embed_dim, mode, cfg.adapter, cfg.seed)
            load_params(model, backbone_ckpt, backbone_only=True)
            _res, scores = evaluate(model, corpus, trials)
            return np.array(scores)

        lp = scores_at_step0("linear-probe", None)
        adapted = scores_at_step0("inner-inter", AdapterConfig(bottleneck_dim=4))
        np.testing.assert_allclose(adapted, lp, atol=1e-10)

    def test_loss_decreases_markedly(self, corpus, backbone_ckpt):
        cfg = tiny_cfg(
            "inner-inter", AdapterConfig(bottleneck_dim=4), steps=300,
            lr_head=2e-3, lr_other=4e-5,  # default 50:1 ratio, scaled up
        )
        run = train(cfg, backbone_ckpt, corpus)
        assert run.losses[-1] < 0.5 * run.losses[0]

    def test_optimizer_groups_respect_zero_other_lr(self, corpus, backbone_ckpt):
        cfg = tiny_cfg(
            "inner-inter", AdapterConfig(bottleneck_dim=4), steps=3, lr_other=0.0
        )
        run = train(cfg, backbone_ckpt, corpus)
        fresh = SVModel(cfg.encoder, cfg.embed_dim, cfg.mode, cfg.adapter, cfg.seed)
        load_params(fresh, backbone_ckpt, backbone_only=True)
        fresh_by_name = {p.name: p for p in fresh.named_params()}
        for p in run.model.named_params(include_classifier=False):
            same = np.array_equal(p.data, fresh_by_name[p.name].data)
            if p.name.startswith("head."):
                assert not same, f"{p.name} should have moved"
            else:
                assert same, f"{p.name} should be untouched at lr_other=0"


    def test_batch_larger_than_the_part_is_refused_before_the_model_is_built(
        self, corpus, monkeypatch
    ):
        import svadapt.harness as harness

        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(harness, "SVModel", no_model)
        n = len(corpus.part("adapt"))
        cfg = replace(tiny_cfg(steps=2), batch_size=n + 1)
        with pytest.raises(ConfigError, match=rf"batch_size {n + 1} exceeds the {n} utterances"):
            train(cfg, None, corpus)
        n = len(corpus.part("pretrain"))
        cfg = replace(tiny_cfg(steps=2), batch_size=n + 1)
        with pytest.raises(ConfigError, match=rf"batch_size {n + 1} exceeds the {n} utterances"):
            pretrain_backbone(cfg, corpus)

    @pytest.mark.parametrize("source", ["file", "in-memory"])
    def test_backbone_with_another_encoder_is_refused_before_the_model_is_built(
        self, corpus, backbone_ckpt, monkeypatch, source
    ):
        import svadapt.harness as harness

        backbone = backbone_ckpt
        if source == "in-memory":
            pre = pretrain_backbone(tiny_cfg("full-finetune", steps=2), corpus)
            backbone = backbone_checkpoint(pre.model)

        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(harness, "SVModel", no_model)
        cfg = replace(tiny_cfg(steps=2), encoder=replace(TINY_ENCODER, num_heads=4))
        with pytest.raises(ConfigError, match="the run and its backbone record different") as info:
            train(cfg, backbone, corpus)
        assert "num_heads=4" in str(info.value) and "num_heads=2" in str(info.value)

    def test_backbone_with_another_encoder_seed_trains(self, corpus, backbone_ckpt):
        cfg = replace(tiny_cfg(steps=2), encoder=replace(TINY_ENCODER, seed=9))
        assert len(train(cfg, backbone_ckpt, corpus).losses) == 2

    def test_in_memory_backbone_records_its_encoder_and_seed(self, corpus):
        pre = pretrain_backbone(tiny_cfg("full-finetune", steps=2, seed=3), corpus)
        recorded = config_from_text(backbone_checkpoint(pre.model).config_text)
        assert (recorded.encoder, recorded.seed) == (TINY_ENCODER, 3)

    def test_batch_of_the_whole_part_trains(self, corpus):
        n = len(corpus.part("adapt"))
        run = train(replace(tiny_cfg(steps=1), batch_size=n), None, corpus)
        assert len(run.losses) == 1

    @pytest.mark.parametrize("saved", [False, True], ids=["unsaved", "saved"])
    @pytest.mark.parametrize("entry", ["pretrain", "train"])
    def test_a_run_hashes_its_backbone_only_when_it_saves(
        self, corpus, backbone_ckpt, tmp_path, monkeypatch, entry, saved
    ):
        import svadapt.harness as harness

        hashed = []

        def counting_fnv1a64(data):
            hashed.append(len(data))
            return fnv1a64(data)

        monkeypatch.setattr(harness, "fnv1a64", counting_fnv1a64)
        path = tmp_path / "run.ckpt" if saved else None
        if entry == "pretrain":
            run = pretrain_backbone(tiny_cfg("full-finetune", steps=2), corpus, out_path=path)
        else:
            run = train(tiny_cfg(steps=2), backbone_ckpt, corpus, out_path=path)
        assert len(hashed) == int(saved)
        if entry == "train":
            assert run.backbone_hash == backbone_ckpt.backbone_hash
        if saved:
            assert run.backbone_hash == int.from_bytes(path.read_bytes()[-40:-32], "little")
            assert run.backbone_hash == load_checkpoint(path).backbone_hash


class TestNonFiniteGradientInTraining:
    def test_error_names_param_at_the_step_it_appears(self, corpus, backbone_ckpt, monkeypatch):
        # a hook corrupts one gradient after the second backward; the loss
        # is still finite, so only the gradient check can catch it there
        import svadapt.harness as harness_module

        models, calls = [], []
        build = harness_module.SVModel
        backward = tt.Tape.backward

        def build_and_keep(*args, **kwargs):
            models.append(build(*args, **kwargs))
            return models[-1]

        def corrupting_backward(tape, loss):
            backward(tape, loss)
            calls.append(loss.item())
            if len(calls) == 2:
                models[0].head.fc1_w.grad[0, 0] = np.inf

        monkeypatch.setattr(harness_module, "SVModel", build_and_keep)
        monkeypatch.setattr(tt.Tape, "backward", corrupting_backward)
        with pytest.raises(NumericError, match=r"'head\.fc1\.w' at step 2"):
            train(tiny_cfg("inter", steps=4), backbone_ckpt, corpus)
        assert len(calls) == 2 and all(np.isfinite(calls))
        assert np.all(np.isfinite(models[0].head.fc1_w.data))


class TestEvaluate:
    def test_deterministic(self, corpus, trials, backbone_ckpt):
        run = train(tiny_cfg("inter", steps=6), backbone_ckpt, corpus)
        a, sa = evaluate(run.model, corpus, trials)
        b, sb = evaluate(run.model, corpus, trials)
        assert a == b and sa == sb

    def test_unknown_utterance_named_in_error(self, corpus, backbone_ckpt):
        run = train(tiny_cfg(steps=3), backbone_ckpt, corpus)
        ghost = [Trial("spk999_utt000", corpus.utterances[0].utt_id, False)]
        with pytest.raises(DataError, match="spk999_utt000"):
            evaluate(run.model, corpus, ghost)

    def test_untrained_models_score_far_from_perfect(self, corpus, trials):
        # Measured over 5 seeds: untrained embeddings on this strongly
        # separable corpus land well below chance-level EER 0.5 (random
        # projections preserve cosine geometry), but nowhere near a trained
        # system. The frozen band comes from that measurement.
        eers = []
        for seed in range(5):
            cfg = tiny_cfg(seed=seed)
            model = SVModel(cfg.encoder, cfg.embed_dim, "linear-probe", None, seed)
            res, _ = evaluate(model, corpus, trials)
            eers.append(res.eer)
        assert 0.02 < float(np.median(eers)) < 0.65


class TestReports:
    def test_report_json_is_deterministic_without_timing(self, corpus, trials, backbone_ckpt):
        cfg = tiny_cfg("inner", AdapterConfig(bottleneck_dim=4), steps=6)
        r1 = run_and_report(cfg, backbone_ckpt, corpus, trials)
        r2 = run_and_report(cfg, backbone_ckpt, corpus, trials)
        assert replace(r1, wall_clock_s=0.0).to_json() == replace(r2, wall_clock_s=0.0).to_json()

    def test_report_numbers_recomputable_from_checkpoint(
        self, corpus, trials, backbone_ckpt, tmp_path
    ):
        cfg = tiny_cfg("inter", steps=6)
        path = tmp_path / "run.ckpt"
        report = run_and_report(cfg, backbone_ckpt, corpus, trials, out_path=path)
        again, _ = evaluate(model_from_checkpoint(load_checkpoint(path)), corpus, trials)
        assert (again.eer, again.min_dcf) == (report.eer, report.min_dcf)


PRESET_RUN = RunConfig(encoder=PRESETS["wavlm-base-plus-dims"], embed_dim=512,
                       adapter=AdapterConfig(bottleneck_dim=256))


class TestCountParamsTable:
    def test_preset_totals(self):
        rows = {r["mode"]: r for r in count_params_table(PRESET_RUN)}
        assert rows["inter"]["trainable_pretrained_side"] == 394_764
        assert rows["inner"]["trainable_pretrained_side"] == 4_749_312
        assert rows["houlsby"]["trainable_pretrained_side"] == 9_498_624
        assert rows["inner-inter"]["trainable_pretrained_side"] == 394_764 + 4_749_312
        assert rows["linear-probe"]["trainable_pretrained_side"] == 0
        assert rows["weighted-sum"]["trainable_pretrained_side"] == 12
        assert rows["full-finetune"]["trainable_pretrained_side"] == 85_054_464

    def test_breakdown_itemizes_weights_biases_ln(self):
        rows = {r["mode"]: r for r in count_params_table(PRESET_RUN)}
        inner = rows["inner"]["breakdown"]["inner_adapters"]
        d, dh, n = 768, 256, 12
        assert inner["weight"] == n * 2 * d * dh
        assert inner["bias"] == n * (dh + d)
        assert inner["ln"] == n * 2 * d

    def test_percentages_use_configured_backbone_total(self):
        rows = {r["mode"]: r for r in count_params_table(PRESET_RUN)}
        total = rows["inter"]["backbone_total"]
        assert total == 85_054_464 + 512 * 768 + 768  # stack + featurizer
        expected_pct = 100.0 * 394_764 / total
        assert rows["inter"]["pct_of_backbone"] == pytest.approx(expected_pct)

    def test_table_formats(self):
        text = format_count_table(count_params_table(
            RunConfig(encoder=TINY_ENCODER, embed_dim=8, adapter=AdapterConfig(bottleneck_dim=4))))
        assert "linear-probe" in text and "inner-inter" in text


class TestSweepScale:
    def test_roster_and_populated_metrics(self, corpus, trials, backbone_path):
        cfg = tiny_cfg("inner-inter", AdapterConfig(bottleneck_dim=4), steps=4)
        runs = backbone_runs(sweep_configs(cfg, scales=("sequential", "learnable", 0.5, 1.0)),
                             [backbone_path])
        labelled = [(label, run_and_report(cfg, backbone, corpus, trials))
                    for backbone, label, cfg in runs]
        reports = [r for _label, r in labelled]
        assert [label for label, _r in labelled] == ["sequential", "learnable", "0.5", "1"]
        assert [(r.adapter["variant"], r.adapter["scale"]) for r in reports] == [
            ("sequential", None), ("parallel", "learnable"), ("parallel", 0.5), ("parallel", 1.0)]
        assert all(r.mode == "inner-inter" and r.adapter["bottleneck_dim"] == 4 for r in reports)
        for r in reports:
            assert np.isfinite(r.eer) and np.isfinite(r.min_dcf)
        assert "sequential" in format_run_table(labelled, "scale")

    def test_default_roster(self):
        assert DEFAULT_SWEEP_SCALES == (
            "sequential", "learnable", 0.05, 0.1, 0.5, 1.0, 1.5, 2.0
        )
        rows = sweep_configs(tiny_cfg("inner-inter", AdapterConfig(bottleneck_dim=4)))
        assert list(rows) == ["sequential", "learnable", "0.05", "0.1", "0.5", "1", "1.5", "2"]

    @pytest.mark.parametrize("scales, again, label", [
        ((0.1, 0.1000001), 0.1000001, "0.1"),
        ((0.1, 0.1000001, 0.5, 0.5), 0.1000001, "0.1"),
        ((0.5, "learnable", 0.5), 0.5, "0.5"),
        (("learnable", 1.0, "learnable"), "learnable", "learnable"),
    ], ids=["near-equal", "two-pairs", "equal", "learnable"])
    def test_entries_that_print_alike_are_refused(self, scales, again, label):
        # one table line per label: two entries under one label would be
        # merged into a median over runs of different settings
        cfg = tiny_cfg("inner-inter", AdapterConfig(bottleneck_dim=4))
        with pytest.raises(ConfigError, match=re.escape(
                f"sweep entry {again!r} repeats the row label {label!r}")):
            sweep_configs(cfg, scales)

    def test_requires_inner_mode(self):
        with pytest.raises(ConfigError, match="inner-adapter mode"):
            sweep_configs(tiny_cfg("linear-probe"))

    def test_scale_zero_row_equals_no_adapter_baseline(self, corpus, trials, tmp_path):
        # with s=0 the adapter branch contributes nothing and receives no
        # gradient, so the run collapses onto the corresponding mode without
        # bottleneck adapters (inter) step for step; the sweep run takes
        # its seed from the backbone
        path = tmp_path / "backbone6.ckpt"
        pretrain_backbone(tiny_cfg("full-finetune", steps=30, seed=6), corpus, out_path=path)
        cfg = tiny_cfg("inner-inter", AdapterConfig(bottleneck_dim=4), steps=20)
        runs = backbone_runs(sweep_configs(cfg, scales=(0.0,)), [path])
        ((backbone, _label, run_cfg),) = runs
        report = run_and_report(run_cfg, backbone, corpus, trials)
        baseline = train(tiny_cfg("inter", steps=20, seed=6), load_checkpoint(path), corpus)
        res, _ = evaluate(baseline.model, corpus, trials)
        assert report.eer == res.eer
        assert report.min_dcf == res.min_dcf


class TestCompareConfigs:
    def test_rows_are_the_modes_with_their_default_adapters(self):
        # with the default 16-unit bottleneck, each row is `cfg` in its mode
        # with the adapter RunConfig gives that mode
        cfg = RunConfig(embed_dim=8, total_steps=700)
        assert compare_configs(cfg) == {mode: replace(cfg, mode=mode, adapter=None)
                                        for mode in MODE_SPECS}

    def test_adapters_take_the_configs_bottleneck_width(self):
        rows = compare_configs(RunConfig(adapter=AdapterConfig(bottleneck_dim=4)))
        assert {mode: row.adapter for mode, row in rows.items()} == {
            mode: None if not spec.slots else AdapterConfig(
                bottleneck_dim=4, variant="sequential" if mode == "houlsby" else "parallel")
            for mode, spec in MODE_SPECS.items()}

    def test_count_table_counts_the_compare_rows(self):
        cfg = RunConfig(encoder=TINY_ENCODER, embed_dim=8, adapter=AdapterConfig(bottleneck_dim=4))
        table = count_params_table(cfg)
        assert [r["mode"] for r in table] == list(compare_configs(cfg))
        # houlsby: FFN and MHSA adapters in each of 2 layers, 16 wide, 4 deep
        houlsby = {r["mode"]: r for r in table}["houlsby"]["components"]["inner_adapters"]
        assert houlsby == 2 * 2 * (16 * 4 + 4 + 4 * 16 + 16 + 2 * 16)


def report_of(eer, trainable=5):
    return MetricsReport(
        mode="inner-inter", seed=0, steps=1, adapter=None,
        trainable={"pretrained_side_trainable": trainable, "pct_of_backbone": 1.0},
        eer=eer, min_dcf=eer, threshold_at_eer=0.0, n_target=1, n_nontarget=1, wall_clock_s=0.0,
    )


class TestFormatRunTable:
    def test_one_line_per_label_as_given(self):
        # reports alike in everything but their label stay apart, and a row
        # need not name a mode
        text = format_run_table(
            [("mean-frame", report_of(0.25)), ("0.1", report_of(0.5)),
             ("mean-frame", report_of(0.75)), ("0.1", report_of(0.5))], "row")
        assert text.splitlines() == [
            "row               trainable     pct     EER   minDCF",
            "mean-frame                5   1.00%   0.500    0.500",
            "0.1                       5   1.00%   0.500    0.500",
        ]


class TestBackboneRuns:
    def test_runs_take_the_encoder_and_seed_of_each_backbone(
        self, corpus, backbone_path, tmp_path
    ):
        other = tmp_path / "seed3.ckpt"
        pretrain_backbone(tiny_cfg("full-finetune", steps=2, seed=3), corpus, out_path=other)
        rows = sweep_configs(RunConfig(adapter=AdapterConfig(bottleneck_dim=4)), (0.5, 1.0))
        runs = backbone_runs(rows, [backbone_path, other])
        assert [cfg.seed for _b, _label, cfg in runs] == [0, 0, 3, 3]
        assert all(cfg.encoder == TINY_ENCODER for _b, _label, cfg in runs)
        assert [cfg.adapter.scale for _b, _label, cfg in runs] == [0.5, 1.0, 0.5, 1.0]

    def test_encoder_mismatch_names_both_files(self, corpus, backbone_path, tmp_path):
        wide = tmp_path / "wide.ckpt"
        cfg = replace(tiny_cfg("full-finetune", steps=2), encoder=replace(TINY_ENCODER, hidden_dim=24))
        pretrain_backbone(cfg, corpus, out_path=wide)
        with pytest.raises(ConfigError, match="record different encoders") as info:
            backbone_runs(compare_configs(RunConfig(embed_dim=8)), [backbone_path, wide])
        assert str(backbone_path) in str(info.value) and str(wide) in str(info.value)

    def test_encoder_seed_may_differ(self, corpus, backbone_path, tmp_path):
        other = tmp_path / "enc-seed.ckpt"
        cfg = replace(tiny_cfg("full-finetune", steps=2), encoder=replace(TINY_ENCODER, seed=9))
        pretrain_backbone(cfg, corpus, out_path=other)
        rows = sweep_configs(RunConfig(adapter=AdapterConfig(bottleneck_dim=4)), (0.5,))
        runs = backbone_runs(rows, [backbone_path, other])
        assert [cfg.encoder.seed for _b, _label, cfg in runs] == [0, 9]

    def test_a_row_no_model_fits_is_a_config_error(self, backbone_path):
        # houlsby's default 16-unit bottleneck is not narrower than the
        # 16-unit tiny backbone
        with pytest.raises(ConfigError, match="bottleneck 16 must be smaller than width 16"):
            backbone_runs(compare_configs(RunConfig(embed_dim=8)), [backbone_path])


class TestCheckTrials:
    @pytest.mark.parametrize("targets", [(True, True), (False, False), ()])
    def test_one_class_or_empty_list_is_a_data_error(self, corpus, targets):
        ids = [u.utt_id for u in corpus.part("adapt")]
        trials = [Trial(ids[0], ids[i + 1], t) for i, t in enumerate(targets)]
        with pytest.raises(DataError, match="at least one target and one nontarget"):
            check_trials(trials, corpus)

    def test_unknown_utterance_is_named(self, corpus, trials):
        with pytest.raises(DataError, match="spk999_utt000"):
            check_trials([*trials, Trial("spk999_utt000", trials[0].test, True)], corpus)
