"""End-to-end CLI coverage with exit-code contracts."""

import json

import pytest

from svadapt.cli import main

ENCODER_FLAGS = [
    "--num-layers", "2", "--hidden-dim", "16", "--num-heads", "2",
    "--ffn-dim", "24", "--input-dim", "10",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    trials = root / "trials.txt"
    rc = main(
        [
            "gen-data", "--out", str(corpus), "--seed", "7",
            "--speakers", "8", "--utts-per-speaker", "6",
            "--frames-min", "6", "--frames-max", "10", "--frame-dim", "10",
            "--trials-out", str(trials), "--n-target", "30", "--n-nontarget", "30",
        ]
    )
    assert rc == 0
    backbone = root / "backbone.ckpt"
    rc = main(
        [
            "pretrain", "--corpus", str(corpus), "--out", str(backbone),
            "--total-steps", "20", "--warmup-steps", "4", "--batch-size", "4",
            *ENCODER_FLAGS,
        ]
    )
    assert rc == 0
    return root


class TestGenData:
    def test_writes_corpus_and_trials(self, workdir):
        assert (workdir / "corpus.txt").exists()
        assert (workdir / "trials.txt").exists()

    def test_repeated_generation_identical(self, tmp_path):
        args = [
            "gen-data", "--seed", "3", "--speakers", "4", "--utts-per-speaker", "3",
            "--frames-min", "4", "--frames-max", "6", "--frame-dim", "5",
        ]
        assert main(args + ["--out", str(tmp_path / "a.txt")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.txt")]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_impossible_trial_request_is_config_error(self, tmp_path):
        rc = main(
            [
                "gen-data", "--out", str(tmp_path / "c.txt"),
                "--speakers", "2", "--utts-per-speaker", "2",
                "--trials-out", str(tmp_path / "t.txt"), "--n-target", "10000",
            ]
        )
        assert rc == 2


class TestTrainEval:
    def test_train_eval_cycle(self, workdir, capsys):
        run = workdir / "run.ckpt"
        rc = main(
            [
                "train", "--corpus", str(workdir / "corpus.txt"),
                "--backbone", str(workdir / "backbone.ckpt"),
                "--out", str(run), "--mode", "inner-inter",
                "--bottleneck-dim", "4", "--total-steps", "15",
                "--warmup-steps", "3", "--batch-size", "4", *ENCODER_FLAGS,
            ]
        )
        assert rc == 0
        rc = main(
            [
                "eval", "--checkpoint", str(run),
                "--corpus", str(workdir / "corpus.txt"),
                "--trials", str(workdir / "trials.txt"),
                "--scores-out", str(workdir / "scores.txt"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= payload["eer"] <= 1.0
        assert 0.0 <= payload["min_dcf"] <= 1.0
        assert (workdir / "scores.txt").exists()

    def test_learnable_scale_checkpoint_evaluates(self, workdir, tmp_path, capsys):
        from svadapt.cli import _run_config_from_args, build_parser
        from svadapt.harness import evaluate, load_checkpoint, train
        from svadapt.metrics import read_scores
        from svadapt.synthdata import read_corpus, read_trials

        run = tmp_path / "run.ckpt"
        train_argv = [
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--backbone", str(workdir / "backbone.ckpt"), "--out", str(run),
            "--mode", "inner-inter", "--adapter-scale", "learnable", "--bottleneck-dim", "4",
            "--total-steps", "6", "--warmup-steps", "2", "--batch-size", "4", *ENCODER_FLAGS,
        ]
        assert main(train_argv) == 0
        assert load_checkpoint(run).values()["adapters.scale"].shape == ()
        capsys.readouterr()
        rc = main(
            [
                "eval", "--checkpoint", str(run), "--corpus", str(workdir / "corpus.txt"),
                "--trials", str(workdir / "trials.txt"),
                "--scores-out", str(tmp_path / "scores.txt"),
            ]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # the same run trained and evaluated in process
        cfg = _run_config_from_args(build_parser().parse_args(train_argv))
        corpus = read_corpus(workdir / "corpus.txt")
        trained = train(cfg, load_checkpoint(workdir / "backbone.ckpt"), corpus)
        result, scores = evaluate(trained.model, corpus, read_trials(workdir / "trials.txt"))
        assert read_scores(tmp_path / "scores.txt").scores.tolist() == scores
        assert printed["eer"] == result.eer and printed["min_dcf"] == result.min_dcf

    def test_train_with_trials_prints_report(self, workdir, capsys):
        rc = main(
            [
                "train", "--corpus", str(workdir / "corpus.txt"),
                "--backbone", str(workdir / "backbone.ckpt"),
                "--out", str(workdir / "run2.ckpt"), "--mode", "linear-probe",
                "--total-steps", "10", "--warmup-steps", "2", "--batch-size", "4",
                "--trials", str(workdir / "trials.txt"), *ENCODER_FLAGS,
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["mode"] == "linear-probe"
        assert payload["trainable"]["pretrained_side_trainable"] == 0

    def test_adapter_flags_with_probe_mode_is_config_error(self, workdir):
        rc = main(
            [
                "train", "--corpus", str(workdir / "corpus.txt"),
                "--out", str(workdir / "x.ckpt"), "--mode", "linear-probe",
                "--bottleneck-dim", "4", "--total-steps", "5", *ENCODER_FLAGS,
            ]
        )
        assert rc == 2

    def test_missing_corpus_is_data_error(self, workdir):
        rc = main(
            [
                "train", "--corpus", "/nonexistent/corpus.txt",
                "--out", str(workdir / "y.ckpt"),
                "--total-steps", "5", "--warmup-steps", "1",
            ]
        )
        assert rc == 3

    def test_unreadable_corpus_is_data_error(self, workdir, tmp_path):
        # a directory: open() raises IsADirectoryError, an OSError
        rc = main(
            [
                "train", "--corpus", str(tmp_path), "--out", str(workdir / "y.ckpt"),
                "--total-steps", "5", "--warmup-steps", "1",
            ]
        )
        assert rc == 3

    def test_non_numeric_adapter_scale_in_config_exits_2(self, workdir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\nmode = inner\n[adapter]\nscale = x\n")
        rc = main(
            [
                "train", "--config", str(conf), "--corpus", str(workdir / "corpus.txt"),
                "--out", str(workdir / "scale.ckpt"),
            ]
        )
        assert rc == 2
        assert "scale must be a number" in capsys.readouterr().err

    def test_config_file_drives_run(self, workdir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "[run]\nmode = inter\nseed = 1\nbatch_size = 4\n"
            "warmup_steps = 2\ntotal_steps = 8\n"
            "[encoder]\nnum_layers = 2\nhidden_dim = 16\nnum_heads = 2\n"
            "ffn_dim = 24\ninput_dim = 10\n"
            "[head]\nembed_dim = 8\n"
        )
        rc = main(
            [
                "train", "--config", str(conf),
                "--corpus", str(workdir / "corpus.txt"),
                "--backbone", str(workdir / "backbone.ckpt"),
                "--out", str(workdir / "conf_run.ckpt"),
            ]
        )
        assert rc == 0


class TestFrameDimMismatch:
    """A corpus whose frame dim is not the encoder's input_dim is a config
    error (exit 2) before any step."""

    @pytest.fixture(scope="class")
    def corpus12(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dim12")
        rc = main(
            [
                "gen-data", "--out", str(root / "c12.svc"), "--seed", "2", "--speakers", "4",
                "--utts-per-speaker", "3", "--frames-min", "4", "--frames-max", "5",
                "--frame-dim", "12", "--trials-out", str(root / "t12.txt"),
                "--n-target", "2", "--n-nontarget", "2",
            ]
        )
        assert rc == 0
        return root

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_training_exits_2(self, workdir, tmp_path, capsys, command):
        # the workdir corpus has 10-dim frames; the default encoder takes 20
        rc = main(
            [
                command, "--corpus", str(workdir / "corpus.txt"),
                "--out", str(tmp_path / "x.ckpt"), "--total-steps", "2", "--warmup-steps", "1",
            ]
        )
        assert rc == 2
        assert "corpus frame dim 10 does not match the encoder input_dim 20" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_eval_exits_2(self, workdir, corpus12, capsys):
        rc = main(
            [
                "eval", "--checkpoint", str(workdir / "backbone.ckpt"),
                "--corpus", str(corpus12 / "c12.svc"), "--trials", str(corpus12 / "t12.txt"),
            ]
        )
        assert rc == 2
        assert "corpus frame dim 12 does not match the encoder input_dim 10" in capsys.readouterr().err


class TestCountParams:
    def test_preset_table(self, capsys):
        rc = main(["count-params", "--encoder-preset", "wavlm-base-plus-dims"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "394,764" in out
        assert "inner-inter" in out

    def test_json_rows(self, capsys):
        rc = main(["count-params", "--encoder-preset", "wavlm-base-plus-dims", "--json"])
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        by_mode = {r["mode"]: r for r in rows}
        assert by_mode["inter"]["trainable_pretrained_side"] == 394_764
        assert by_mode["houlsby"]["trainable_pretrained_side"] == 9_498_624

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--config", "run.conf"), ("--adapter-scale", "learnable"), ("--mode", "inner"),
            ("--adapter-variant", "sequential"), ("--total-steps", "5"), ("--lr-head", "0.1"),
            ("--seed", "3"), ("--corpus", "c.svc"),
        ],
    )
    def test_a_flag_it_does_not_read_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count-params", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_every_flag_it_reads_changes_the_table(self, capsys):
        assert main(["count-params", "--json"]) == 0
        default = capsys.readouterr().out
        for flag, value in [
            ("--embed-dim", "16"), ("--bottleneck-dim", "8"), ("--num-layers", "2"),
            ("--hidden-dim", "32"), ("--ffn-dim", "64"), ("--input-dim", "10"),
            ("--encoder-preset", "wavlm-base-plus-dims"),
        ]:
            assert main(["count-params", "--json", flag, value]) == 0
            assert capsys.readouterr().out != default, flag

    def test_runs_fast(self):
        import time

        t0 = time.perf_counter()
        assert main(["count-params", "--encoder-preset", "wavlm-base-plus-dims"]) == 0
        assert time.perf_counter() - t0 < 1.0


class TestSweepScale:
    def test_sweep_rows(self, workdir, capsys):
        rc = main(
            [
                "sweep-scale", "--corpus", str(workdir / "corpus.txt"),
                "--backbone", str(workdir / "backbone.ckpt"),
                "--trials", str(workdir / "trials.txt"),
                "--scales", "0.5", "--no-learnable",
                "--mode", "inner-inter", "--bottleneck-dim", "4",
                "--total-steps", "4", "--warmup-steps", "1", "--batch-size", "4",
                "--json", *ENCODER_FLAGS,
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [r["scale"] for r in rows] == ["sequential", "0.5"]

    def test_bad_scales_exit_2_before_reading_inputs(self, tmp_path, capsys):
        # the corpus does not exist: checked first, it would be exit 3
        rc = main(
            [
                "sweep-scale", "--corpus", str(tmp_path / "missing.txt"),
                "--trials", str(tmp_path / "missing_trials.txt"),
                "--scales", "0.5,x",
            ]
        )
        assert rc == 2
        assert "--scales" in capsys.readouterr().err


class TestGradCheck:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["grad-check", "--probes", "40"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--step-size", "1"), ("--step-size", "0"), ("--step-size", "nan"),
            ("--probes", "-5"), ("--probes", "0"),
            ("--tolerance", "-0.0001"), ("--tolerance", "nan"),
        ],
    )
    def test_bad_flag_value_exits_2_before_any_work(self, flag, value, capsys, monkeypatch):
        import svadapt.gradsuite

        def no_work(*args, **kwargs):
            raise AssertionError("grad check ran")

        monkeypatch.setattr(svadapt.gradsuite, "full_graph_grad_check", no_work)
        assert main(["grad-check", flag, value]) == 2
        assert f"config error: {flag} must be" in capsys.readouterr().err


class TestNumericFailure:
    def test_divergent_run_exits_4(self, workdir):
        # an absurd learning rate overflows the logits into NaN within a
        # few steps; the trainer must stop with the numeric exit code
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(
                [
                    "train", "--corpus", str(workdir / "corpus.txt"),
                    "--out", str(workdir / "diverged.ckpt"), "--mode", "linear-probe",
                    "--total-steps", "50", "--warmup-steps", "1", "--batch-size", "4",
                    "--lr-head", "1e200", "--lr-other", "1e200", *ENCODER_FLAGS,
                ]
            )
        assert rc == 4


class TestEmbeddingExport:
    def test_eval_writes_embedding_rows(self, workdir):
        run = workdir / "emb_run.ckpt"
        rc = main(
            [
                "train", "--corpus", str(workdir / "corpus.txt"),
                "--backbone", str(workdir / "backbone.ckpt"),
                "--out", str(run), "--mode", "weighted-sum",
                "--total-steps", "5", "--warmup-steps", "1", "--batch-size", "4",
                *ENCODER_FLAGS,
            ]
        )
        assert rc == 0
        emb_path = workdir / "embeddings.txt"
        rc = main(
            [
                "eval", "--checkpoint", str(run),
                "--corpus", str(workdir / "corpus.txt"),
                "--trials", str(workdir / "trials.txt"),
                "--embeddings-out", str(emb_path),
            ]
        )
        assert rc == 0
        first = emb_path.read_text().splitlines()[0].split()
        assert first[0].startswith("spk")
        assert len(first) == 1 + 32  # utterance id + embed_dim values

    def test_eval_embeds_each_utterance_once_with_unchanged_outputs(
        self, workdir, tmp_path, monkeypatch, capsys
    ):
        from svadapt.backend import SpeakerEmbedding, write_embeddings
        from svadapt.harness import (
            embed_trial_utterances, evaluate, load_checkpoint, model_from_checkpoint,
        )
        from svadapt.metrics import write_scores
        from svadapt.model import SVModel
        from svadapt.synthdata import read_corpus, read_trials

        run = tmp_path / "once.ckpt"
        corpus_path, trials_path = workdir / "corpus.txt", workdir / "trials.txt"
        rc = main(
            [
                "train", "--corpus", str(corpus_path), "--out", str(run),
                "--mode", "inner-inter", "--bottleneck-dim", "4",
                "--total-steps", "3", "--warmup-steps", "1", "--batch-size", "4",
                *ENCODER_FLAGS,
            ]
        )
        assert rc == 0
        # the outputs as evaluate plus a separate embedding pass produce them
        corpus, trials = read_corpus(corpus_path), read_trials(trials_path)
        model = model_from_checkpoint(load_checkpoint(run))
        _, scores = evaluate(model, corpus, trials)
        write_scores(tmp_path / "want_scores.txt", trials, scores)
        embs = embed_trial_utterances(model, corpus, trials)
        write_embeddings(
            tmp_path / "want_embs.txt",
            [SpeakerEmbedding(utt, vec) for utt, vec in sorted(embs.items())],
        )

        seen = []
        original = SVModel.embed_np

        def counting_embed_np(self, frames):
            seen.append(id(frames))
            return original(self, frames)

        monkeypatch.setattr(SVModel, "embed_np", counting_embed_np)
        capsys.readouterr()
        rc = main(
            [
                "eval", "--checkpoint", str(run), "--corpus", str(corpus_path),
                "--trials", str(trials_path),
                "--scores-out", str(tmp_path / "scores.txt"),
                "--embeddings-out", str(tmp_path / "embs.txt"),
            ]
        )
        assert rc == 0
        distinct = {u for t in trials for u in (t.enroll, t.test)}
        assert len(seen) == len(set(seen)) == len(distinct)
        assert (tmp_path / "scores.txt").read_bytes() == (tmp_path / "want_scores.txt").read_bytes()
        assert (tmp_path / "embs.txt").read_bytes() == (tmp_path / "want_embs.txt").read_bytes()


class TestEvalFlagsAndCheckpoints:
    @pytest.mark.parametrize("value", ["2", "0", "1", "-0.5", "nan"])
    def test_bad_p_target_exits_2_before_reading_inputs(self, tmp_path, value, capsys):
        # the inputs do not exist: read first, they would be exit 3
        rc = main(
            [
                "eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--corpus", str(tmp_path / "missing.txt"),
                "--trials", str(tmp_path / "missing_trials.txt"), "--p-target", value,
            ]
        )
        assert rc == 2
        assert "--p-target must be in (0, 1)" in capsys.readouterr().err

    def test_backbone_checkpoint_is_not_scored(self, workdir, capsys):
        # a pretrain checkpoint holds no bridge or head
        rc = main(
            [
                "eval", "--checkpoint", str(workdir / "backbone.ckpt"),
                "--corpus", str(workdir / "corpus.txt"),
                "--trials", str(workdir / "trials.txt"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert "lacks 9 model params" in captured.err and "bridge.w" in captured.err


class TestHoulsbyDefaults:
    def _cfg(self, *flags):
        from svadapt.cli import _run_config_from_args, build_parser

        return _run_config_from_args(
            build_parser().parse_args(["train", "--out", "x.ckpt", *flags])
        )

    def test_houlsby_gets_a_sequential_adapter(self, tmp_path):
        from svadapt.adapters import AdapterConfig

        assert self._cfg("--mode", "houlsby").adapter == AdapterConfig(variant="sequential")
        assert self._cfg("--mode", "houlsby", "--bottleneck-dim", "4").adapter == AdapterConfig(
            bottleneck_dim=4, variant="sequential"
        )
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\nmode = inter\n")
        flags = ("--config", str(conf), "--mode", "houlsby")
        assert self._cfg(*flags).adapter == AdapterConfig(variant="sequential")

    def test_other_modes_keep_their_defaults(self, tmp_path):
        from svadapt.adapters import AdapterConfig

        assert self._cfg().adapter == AdapterConfig()
        assert self._cfg("--mode", "inner").adapter == AdapterConfig()
        assert self._cfg("--mode", "inter").adapter is None
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\nmode = inner\n[adapter]\nbottleneck_dim = 8\n")
        flags = ("--config", str(conf), "--mode", "inner-inter")
        assert self._cfg(*flags).adapter == AdapterConfig(bottleneck_dim=8)

    def test_houlsby_trains_from_the_cli(self, workdir, tmp_path):
        from svadapt.harness import config_from_text, load_checkpoint

        run = tmp_path / "h.ckpt"
        argv = [
            "train", "--corpus", str(workdir / "corpus.txt"),
            "--backbone", str(workdir / "backbone.ckpt"), "--out", str(run),
            "--mode", "houlsby", "--bottleneck-dim", "4", "--total-steps", "3",
            "--warmup-steps", "1", "--batch-size", "4", *ENCODER_FLAGS,
        ]
        assert main(argv) == 0
        cfg = config_from_text(load_checkpoint(run).config_text)
        assert (cfg.mode, cfg.adapter.variant) == ("houlsby", "sequential")

    def test_explicit_parallel_houlsby_exits_2(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "train", "--corpus", str(workdir / "corpus.txt"),
                "--out", str(tmp_path / "p.ckpt"), "--mode", "houlsby",
                "--adapter-variant", "parallel", "--total-steps", "3",
                "--warmup-steps", "1", *ENCODER_FLAGS,
            ]
        )
        assert rc == 2
        assert "sequential adapters only" in capsys.readouterr().err


class TestCorruptCheckpoint:
    def test_truncated_checkpoint_exits_3(self, workdir, tmp_path, capsys):
        blob = (workdir / "backbone.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(blob[: len(blob) // 2])
        rc = main(
            [
                "eval", "--checkpoint", str(cut),
                "--corpus", str(workdir / "corpus.txt"),
                "--trials", str(workdir / "trials.txt"),
            ]
        )
        assert rc == 3
        assert "truncated checkpoint" in capsys.readouterr().err


# sha256 of `svadapt count-params` stdout, taken before the count moved
# from a hand-written layout onto shape-only builds of the real model
COUNT_PARAMS_SHA256 = {
    (): "58c30d6d8eaa3a8f37ad780ca79809ef8e1b90231e77583b06227970bec267a6",
    ("--json",): "37d412104edb549c989ebd5884c08fb6b796d0e1494916b21907bf65f01ba62c",
    ("--encoder-preset", "wavlm-base-plus-dims"):
        "6546e31aacf603bb07152ea969a8143d5d61c7eb6fe938b078891c04d16dc2f8",
    ("--encoder-preset", "wavlm-base-plus-dims", "--json"):
        "2980926ba27908e2fbb2342810083966c1fb88f91716120fa33d81aa0fc66e7b",
}


@pytest.mark.parametrize("flags", sorted(COUNT_PARAMS_SHA256))
def test_count_params_stdout_is_pinned(flags, capsys):
    import hashlib

    assert main(["count-params", *flags]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == COUNT_PARAMS_SHA256[flags]


class TestEveryRunSetting:
    """Every field of RunConfig, and of the encoder and adapter configs in
    it, can be set by a config key and by a CLI flag. A data path's flag
    belongs to each subcommand that reads it (here `train`)."""

    # (section, key, flag, field path, a value unlike the default)
    SETTINGS = [
        ("run", "mode", "--mode", "mode", "inner"),
        ("run", "seed", "--seed", "seed", 7),
        ("run", "batch_size", "--batch-size", "batch_size", 3),
        ("run", "warmup_steps", "--warmup-steps", "warmup_steps", 5),
        ("run", "total_steps", "--total-steps", "total_steps", 300),
        ("encoder", "num_layers", "--num-layers", "encoder.num_layers", 3),
        ("encoder", "hidden_dim", "--hidden-dim", "encoder.hidden_dim", 24),
        ("encoder", "num_heads", "--num-heads", "encoder.num_heads", 2),
        ("encoder", "ffn_dim", "--ffn-dim", "encoder.ffn_dim", 40),
        ("encoder", "input_dim", "--input-dim", "encoder.input_dim", 6),
        ("encoder", "seed", "--encoder-seed", "encoder.seed", 11),
        ("head", "embed_dim", "--embed-dim", "embed_dim", 12),
        ("adapter", "bottleneck_dim", "--bottleneck-dim", "adapter.bottleneck_dim", 5),
        ("adapter", "variant", "--adapter-variant", "adapter.variant", "sequential"),
        ("adapter", "scale", "--adapter-scale", "adapter.scale", 0.25),
        ("adapter", "scale_init", "--scale-init", "adapter.scale_init", 2.0),
        ("optim", "lr_head", "--lr-head", "lr_head", 0.25),
        ("optim", "lr_other", "--lr-other", "lr_other", 0.125),
        ("optim", "adam_beta1", "--adam-beta1", "adam_beta1", 0.5),
        ("optim", "adam_beta2", "--adam-beta2", "adam_beta2", 0.75),
        ("optim", "adam_eps", "--adam-eps", "adam_eps", 1e-3),
        ("optim", "lr_floor_ratio", "--lr-floor-ratio", "lr_floor_ratio", 0.5),
        ("data", "corpus", "--corpus", "corpus_path", "c.txt"),
        ("data", "trials", "--trials", "trials_path", "t.txt"),
        ("data", "backbone", "--backbone", "backbone_path", "b.ckpt"),
    ]

    @staticmethod
    def get(cfg, path):
        for name in path.split("."):
            cfg = getattr(cfg, name)
        return cfg

    def test_table_covers_every_field(self):
        from dataclasses import fields

        from svadapt.adapters import AdapterConfig
        from svadapt.backbone import EncoderConfig
        from svadapt.harness import RunConfig

        every = {f.name for f in fields(RunConfig)} - {"encoder", "adapter"}
        every |= {f"encoder.{f.name}" for f in fields(EncoderConfig)}
        every |= {f"adapter.{f.name}" for f in fields(AdapterConfig)}
        assert sorted(path for *_, path, _v in self.SETTINGS) == sorted(every)

    @pytest.mark.parametrize("section,key,flag,path,value", SETTINGS)
    def test_set_by_config_key(self, section, key, flag, path, value):
        from svadapt.harness import RunConfig, config_from_text

        assert self.get(RunConfig(), path) != value
        cfg = config_from_text(f"[{section}]\n{key} = {value}\n")
        assert self.get(cfg, path) == value

    @pytest.mark.parametrize("section,key,flag,path,value", SETTINGS)
    def test_set_by_cli_flag(self, section, key, flag, path, value):
        from svadapt.cli import _run_config_from_args, build_parser

        args = build_parser().parse_args(["train", "--out", "x.ckpt", flag, str(value)])
        if section == "data":
            assert getattr(args, flag[2:]) == value
        else:
            assert self.get(_run_config_from_args(args), path) == value


class TestConfigFileFaults:
    def run_with_config(self, workdir, tmp_path, data: bytes):
        conf = tmp_path / "run.conf"
        conf.write_bytes(data)
        return main(
            [
                "train", "--config", str(conf), "--corpus", str(workdir / "corpus.txt"),
                "--out", str(tmp_path / "run.ckpt"),
            ]
        )

    def test_non_utf8_config_exits_2(self, workdir, tmp_path, capsys):
        assert self.run_with_config(workdir, tmp_path, b"[run]\nmode = inn\xffer\n") == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_is_named(self, workdir, tmp_path, capsys):
        assert self.run_with_config(workdir, tmp_path, b"[run]\nmod = inner\n") == 2
        assert "[run] mod" in capsys.readouterr().err

    def test_percent_in_value_is_read_as_is(self, tmp_path, capsys):
        # the [data] corpus names a file that does not exist: exit 3 naming
        # it, not an interpolation traceback
        corpus = str(tmp_path / "c%20.txt")
        conf = tmp_path / "run.conf"
        conf.write_text(f"[data]\ncorpus = {corpus}\n")
        rc = main(["train", "--config", str(conf), "--out", str(tmp_path / "r.ckpt")])
        assert rc == 3
        assert f"{corpus} not found" in capsys.readouterr().err


class TestFileFaults:
    def test_directory_as_trials_exits_3(self, workdir, tmp_path):
        rc = main(
            [
                "eval", "--checkpoint", str(workdir / "backbone.ckpt"),
                "--corpus", str(workdir / "corpus.txt"), "--trials", str(tmp_path),
            ]
        )
        assert rc == 3

    def test_v1_text_corpus_exits_3(self, workdir, tmp_path, capsys):
        old = tmp_path / "corpus.txt"
        old.write_text(
            "svcorpus-v1\n[config]\nframe_dim=10\n[speakers]\nspk000 pretrain\n"
            "spk001 adapt\n[utterances]\n"
        )
        rc = main(
            [
                "train", "--corpus", str(old), "--out", str(tmp_path / "x.ckpt"),
                "--total-steps", "2", "--warmup-steps", "1", *ENCODER_FLAGS,
            ]
        )
        assert rc == 3
        assert "svcorpus-v1 text corpora are no longer read" in capsys.readouterr().err

    def test_non_utf8_trials_exits_3(self, workdir, tmp_path, capsys):
        bad = tmp_path / "trials.txt"
        bad.write_bytes(b"a b 1\na b \xff\n")
        rc = main(
            [
                "eval", "--checkpoint", str(workdir / "backbone.ckpt"),
                "--corpus", str(workdir / "corpus.txt"), "--trials", str(bad),
            ]
        )
        assert rc == 3
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,command",
        [
            ("--out", "gen-data"),
            ("--trials-out", "gen-data"),
            ("--out", "pretrain"),
            ("--out", "train"),
            ("--scores-out", "eval"),
            ("--embeddings-out", "eval"),
        ],
    )
    def test_write_into_missing_directory_exits_3(self, workdir, tmp_path, capsys, flag, command):
        target = str(tmp_path / "missing" / "out.txt")
        inputs = ["--corpus", str(workdir / "corpus.txt")]
        steps = ["--total-steps", "2", "--warmup-steps", "1", "--batch-size", "4", *ENCODER_FLAGS]
        argv = {
            "gen-data": ["gen-data", "--speakers", "4", "--utts-per-speaker", "3",
                         "--out", str(tmp_path / "c.txt")],
            "pretrain": ["pretrain", *inputs, *steps],
            "train": ["train", *inputs, "--mode", "linear-probe", *steps],
            "eval": ["eval", "--checkpoint", str(workdir / "backbone.ckpt"), *inputs,
                     "--trials", str(workdir / "trials.txt")],
        }[command]
        if flag == "--trials-out":
            argv += ["--n-target", "2", "--n-nontarget", "2"]
        assert main([*argv, flag, target]) == 3
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_write_over_a_directory_exits_3_naming_it(self, tmp_path, capsys):
        # the temp file is written, and replacing the directory with it fails
        target = tmp_path / "taken"
        target.mkdir()
        rc = main(["gen-data", "--speakers", "4", "--utts-per-speaker", "3", "--out", str(target)])
        assert rc == 3
        assert f"cannot write {target}: Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize(
        "command, work",
        [("pretrain", "pretrain_backbone"), ("train", "train_run"), ("eval", "read_corpus")],
    )
    def test_missing_output_directory_is_refused_before_any_work(
        self, workdir, tmp_path, capsys, monkeypatch, command, work
    ):
        import svadapt.cli

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(svadapt.cli, work, no_work)
        target = str(tmp_path / "missing" / "out.txt")
        inputs = ["--corpus", str(workdir / "corpus.txt")]
        argv = {
            "pretrain": ["pretrain", *inputs, "--out", target],
            "train": ["train", *inputs, "--out", target],
            "eval": ["eval", "--checkpoint", str(workdir / "backbone.ckpt"), *inputs,
                     "--trials", str(workdir / "trials.txt"), "--embeddings-out", target],
        }[command]
        assert main(argv) == 3
        assert f"cannot write {target}: No such file or directory" in capsys.readouterr().err
