"""End-to-end CLI coverage with exit-code contracts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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

    @pytest.mark.parametrize(
        "counts", [("-3", "5"), ("5", "-1"), ("2", "10000")], ids=["neg-target", "neg-nontarget", "too-many"]
    )
    def test_failed_trial_request_writes_no_file(self, tmp_path, capsys, counts):
        out, trials_out = tmp_path / "c.svc", tmp_path / "t.txt"
        rc = main(
            [
                "gen-data", "--out", str(out), "--speakers", "6", "--utts-per-speaker", "4",
                "--trials-out", str(trials_out), "--n-target", counts[0],
                "--n-nontarget", counts[1],
            ]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("counts", [("0", "5"), ("5", "0")], ids=["no-target", "no-nontarget"])
    def test_trial_list_without_both_labels_is_refused_before_any_write(
        self, tmp_path, capsys, counts
    ):
        # every reader refuses such a list, so gen-data must not write one
        rc = main(
            [
                "gen-data", "--out", str(tmp_path / "c.svc"), "--speakers", "6",
                "--utts-per-speaker", "4", "--trials-out", str(tmp_path / "t.txt"),
                "--n-target", counts[0], "--n-nontarget", counts[1],
            ]
        )
        assert rc == 2
        assert "needs at least one target and one nontarget trial" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_trial_counts_are_unused_without_trials_out(self, tmp_path):
        out = tmp_path / "c.svc"
        rc = main(
            [
                "gen-data", "--out", str(out), "--speakers", "2", "--utts-per-speaker", "2",
                "--n-target", "-3",
            ]
        )
        assert rc == 0
        assert list(tmp_path.iterdir()) == [out]


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

    def test_a_backbone_with_another_encoder_exits_2_before_the_corpus_is_read(
        self, workdir, tmp_path, capsys
    ):
        # 4 heads fit the 2-head backbone's shapes, so the load alone would
        # not catch it; the corpus does not exist: read first, it would be exit 3
        rc = main(["train", "--corpus", str(tmp_path / "missing.svc"),
                   "--backbone", str(workdir / "backbone.ckpt"), "--out", str(tmp_path / "run.ckpt"),
                   "--bottleneck-dim", "4", *ENCODER_FLAGS, "--num-heads", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"the run and backbone {workdir / 'backbone.ckpt'} record different encoders" in err
        assert "num_heads=4" in err and "num_heads=2" in err
        assert list(tmp_path.iterdir()) == []

    # the other encoder fields change shapes, yet the refusal still comes
    # first, naming both values, rather than a shape error from the load
    @pytest.mark.parametrize("flag, value", [("--num-layers", "3"), ("--hidden-dim", "32"),
                                             ("--ffn-dim", "32"), ("--input-dim", "12")])
    def test_every_encoder_field_is_compared(self, workdir, tmp_path, capsys, flag, value):
        rc = main(["train", "--corpus", str(tmp_path / "missing.svc"),
                   "--backbone", str(workdir / "backbone.ckpt"), "--out", str(tmp_path / "run.ckpt"),
                   "--bottleneck-dim", "4", *ENCODER_FLAGS, flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert "record different encoders" in err
        assert f"{name}={value}" in err and f"{name}={ENCODER_FLAGS[ENCODER_FLAGS.index(flag) + 1]}" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_backbone_with_another_encoder_seed_trains(self, workdir, tmp_path):
        assert main(["train", "--corpus", str(workdir / "corpus.txt"),
                     "--backbone", str(workdir / "backbone.ckpt"), "--out", str(tmp_path / "r.ckpt"),
                     "--bottleneck-dim", "4", "--total-steps", "1", "--warmup-steps", "1",
                     "--batch-size", "4", *ENCODER_FLAGS, "--encoder-seed", "5"]) == 0

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_batch_larger_than_the_part_exits_2(self, workdir, tmp_path, capsys, command):
        from svadapt.synthdata import read_corpus

        part = "adapt" if command == "train" else "pretrain"
        n = len(read_corpus(workdir / "corpus.txt").part(part))
        adapter = ["--bottleneck-dim", "4"] if command == "train" else []
        rc = main(
            [
                command, "--corpus", str(workdir / "corpus.txt"),
                "--out", str(tmp_path / "run.ckpt"), "--total-steps", "1",
                "--warmup-steps", "1", "--batch-size", str(n + 1), *adapter,
                *ENCODER_FLAGS,
            ]
        )
        assert rc == 2
        assert f"batch_size {n + 1} exceeds the {n} utterances" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        values = {name: arr for name, _t, arr in load_checkpoint(run).params}
        assert values["adapters.scale"].shape == ()
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

    def test_unbuildable_model_exits_2_before_reading_inputs(self, tmp_path, capsys):
        # the default 16-unit bottleneck is not narrower than a 16-unit
        # encoder; the corpus does not exist: read first, it would be exit 3
        rc = main(
            ["train", "--corpus", str(tmp_path / "missing.svc"),
             "--out", str(tmp_path / "run.ckpt"), "--hidden-dim", "16", "--num-heads", "2"]
        )
        assert rc == 2
        assert "bottleneck 16 must be smaller than width 16" in capsys.readouterr().err

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


class TestDataPaths:
    """A data path is a run setting like any other: given by flag or in a
    --config [data] section, it makes the same run, and the checkpoint
    records it either way."""

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_flag_and_file_write_the_same_checkpoint(self, workdir, tmp_path, command, capsys):
        from svadapt.harness import config_from_text, load_checkpoint

        paths = {"corpus": workdir / "corpus.txt"}
        extra = []
        if command == "train":
            paths |= {"trials": workdir / "trials.txt", "backbone": workdir / "backbone.ckpt"}
            extra = ["--bottleneck-dim", "4"]
        conf = tmp_path / "data.conf"
        conf.write_text("[data]\n" + "".join(f"{key} = {path}\n" for key, path in paths.items()))
        steps = ["--total-steps", "3", "--warmup-steps", "1", "--batch-size", "4",
                 *extra, *ENCODER_FLAGS]
        flags = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]
        by_flag, by_file = tmp_path / "flag.ckpt", tmp_path / "file.ckpt"
        assert main([command, "--out", str(by_flag), *flags, *steps]) == 0
        assert main([command, "--out", str(by_file), "--config", str(conf), *steps]) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()
        recorded = config_from_text(load_checkpoint(by_flag).config_text)
        assert recorded.corpus_path == str(paths["corpus"])
        if command == "train":
            assert recorded.trials_path == str(paths["trials"])
            assert recorded.backbone_path == str(paths["backbone"])

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_no_corpus_is_a_config_error(self, tmp_path, command, capsys):
        out = tmp_path / "run.ckpt"
        assert main([command, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: no corpus given (flag or [data] section)\n"
        assert not out.exists()


class TestEncoderPreset:
    """--encoder-preset sets the encoder's dimensions only: the seed a
    --config file or --encoder-seed gives stands."""

    def test_preset_keeps_the_config_files_encoder_seed(self, tmp_path, capsys):
        from svadapt.harness import config_from_text, load_checkpoint

        corpus = tmp_path / "corpus20.txt"
        assert main(
            [
                "gen-data", "--out", str(corpus), "--seed", "7", "--speakers", "8",
                "--utts-per-speaker", "6", "--frames-min", "6", "--frames-max", "10",
                "--frame-dim", "20",
            ]
        ) == 0
        conf = tmp_path / "seed.conf"
        conf.write_text(
            "[run]\nmode = linear-probe\nbatch_size = 4\nwarmup_steps = 1\ntotal_steps = 2\n"
            "[encoder]\nseed = 5\n"
        )
        run = [
            "train", "--config", str(conf), "--corpus", str(corpus), "--embed-dim", "8",
        ]
        with_preset, without = tmp_path / "preset.ckpt", tmp_path / "plain.ckpt"
        assert main([*run, "--encoder-preset", "desk", "--out", str(with_preset)]) == 0
        assert main([*run, "--out", str(without)]) == 0
        encoder = config_from_text(load_checkpoint(with_preset).config_text).encoder
        assert encoder.seed == 5
        assert with_preset.read_bytes() == without.read_bytes()


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
            ("--seed", "3"), ("--corpus", "c.svc"), ("--encoder-seed", "3"),
        ],
    )
    def test_a_flag_it_does_not_read_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count-params", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_every_flag_it_reads_changes_the_table(self, capsys):
        import argparse

        from svadapt.cli import build_parser

        # each flag of the parser's count-params command but --json, which
        # picks the output form, and --num-heads, which only decides whether
        # the width splits into heads; a flag without a value here takes 3
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = [flag for a in sub.choices["count-params"]._actions for flag in a.option_strings
                 if flag.startswith("--") and flag not in ("--help", "--json", "--num-heads")]
        values = {
            "--embed-dim": "16", "--bottleneck-dim": "8", "--num-layers": "2",
            "--hidden-dim": "32", "--ffn-dim": "64", "--input-dim": "10",
            "--encoder-preset": "wavlm-base-plus-dims",
        }
        assert set(values) <= set(flags)
        assert main(["count-params", "--json"]) == 0
        default = capsys.readouterr().out
        for flag in flags:
            assert main(["count-params", "--json", flag, values.get(flag, "3")]) == 0, flag
            assert capsys.readouterr().out != default, flag

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--embed-dim", "0", "embed_dim"), ("--embed-dim", "-1", "embed_dim"),
         ("--bottleneck-dim", "0", "bottleneck_dim")],
    )
    def test_a_dim_below_one_exits_2(self, flag, value, key, capsys):
        assert main(["count-params", flag, value]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    def test_runs_fast(self):
        import time

        t0 = time.perf_counter()
        assert main(["count-params", "--encoder-preset", "wavlm-base-plus-dims"]) == 0
        assert time.perf_counter() - t0 < 1.0


@pytest.fixture(scope="module")
def bad_trial_lists(workdir):
    """(path, what the error names) of two trial lists that fail the trial
    check: one of target trials only, one naming an unknown utterance."""
    lines = (workdir / "trials.txt").read_text().splitlines(keepends=True)
    targets = workdir / "targets-only.txt"
    targets.write_text("".join(line for line in lines if line.endswith(" 1\n")))
    unknown = workdir / "unknown-utt.txt"
    unknown.write_text("".join(lines) + f"spk999_utt000 {lines[0].split()[1]} 0\n")
    return {
        "targets-only": (targets, "at least one target and one nontarget"),
        "unknown-utterance": (unknown, "spk999_utt000"),
    }


def no_run(*args, **kwargs):
    raise AssertionError("a run started")


def untimed(out):
    """The report lines of `out` without their wall-clock field."""
    return [line.rsplit(', "wall_clock_s"', 1)[0] for line in out.splitlines()]


class TestSweepScale:
    ADAPTER_FLAGS = ["--mode", "inner-inter", "--bottleneck-dim", "4"]
    RUN_FLAGS = ["--total-steps", "4", "--warmup-steps", "1", "--batch-size", "4"]

    def inputs(self, workdir, backbones=("backbone.ckpt",)):
        return [
            "--corpus", str(workdir / "corpus.txt"), "--trials", str(workdir / "trials.txt"),
            *(arg for name in backbones for arg in ("--backbone", str(workdir / name))),
        ]

    def test_sweep_rows(self, workdir, capsys):
        from svadapt.harness import sweep_label

        rc = main(
            [
                "sweep-scale", *self.inputs(workdir), "--scales", "sequential,0.5",
                *self.ADAPTER_FLAGS, *self.RUN_FLAGS, "--json",
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [sweep_label(r["adapter"]) for r in rows] == ["sequential", "0.5"]
        # each row records only the adapter settings that took effect
        assert [r["adapter"] for r in rows] == [
            {"bottleneck_dim": 4, "variant": "sequential", "scale": None},
            {"bottleneck_dim": 4, "variant": "parallel", "scale": 0.5},
        ]

    def test_json_rows_are_the_train_reports(self, workdir, tmp_path, capsys):
        # the module backbone records seed 0; a second one records seed 1
        rc = main(
            ["pretrain", "--corpus", str(workdir / "corpus.txt"),
             "--out", str(workdir / "sweep-backbone1.ckpt"), "--seed", "1",
             "--total-steps", "2", "--warmup-steps", "1", "--batch-size", "4", *ENCODER_FLAGS]
        )
        assert rc == 0
        capsys.readouterr()
        backbones = ("backbone.ckpt", "sweep-backbone1.ckpt")
        assert main(["sweep-scale", *self.inputs(workdir, backbones),
                     "--scales", "sequential,learnable,0.5", *self.ADAPTER_FLAGS,
                     *self.RUN_FLAGS, "--json"]) == 0
        rows = untimed(capsys.readouterr().out)
        adapters = [["--adapter-variant", "sequential"], ["--adapter-scale", "learnable"],
                    ["--adapter-scale", "0.5"]]
        runs = [(seed, name, flags) for seed, name in enumerate(backbones) for flags in adapters]
        assert len(rows) == len(runs) == 6
        for row, (seed, name, flags) in zip(rows, runs):
            rc = main(
                ["train", *self.inputs(workdir, (name,)), "--seed", str(seed),
                 "--out", str(tmp_path / "run.ckpt"), *self.ADAPTER_FLAGS, *flags,
                 *self.RUN_FLAGS, *ENCODER_FLAGS]
            )
            assert rc == 0
            assert untimed(capsys.readouterr().out) == [row]

    def test_bad_scales_exit_2_before_reading_inputs(self, tmp_path, capsys):
        # the corpus does not exist: checked first, it would be exit 3
        rc = main(
            [
                "sweep-scale", "--corpus", str(tmp_path / "missing.txt"),
                "--trials", str(tmp_path / "missing_trials.txt"),
                "--backbone", str(tmp_path / "missing.ckpt"),
                "--scales", "0.5,x",
            ]
        )
        assert rc == 2
        assert "--scales" in capsys.readouterr().err

    def test_empty_scales_exit_2_and_do_not_run_the_default_roster(self, tmp_path, capsys):
        rc = main(
            [
                "sweep-scale", "--corpus", str(tmp_path / "missing.txt"),
                "--trials", str(tmp_path / "missing_trials.txt"),
                "--backbone", str(tmp_path / "missing.ckpt"),
                "--scales", "",
            ]
        )
        assert rc == 2
        assert "--scales" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--mode", "linear-probe"], "'linear-probe'"),
            (["--mode", "houlsby"], "'houlsby'"),
            (["--mode", "inner-inter", "--scales", "0.5,nan"], "finite"),
        ],
    )
    def test_bad_sweep_exits_2_before_reading_inputs(self, tmp_path, capsys, flags, named):
        # no input exists: read first, any of them would be exit 3
        rc = main(
            [
                "sweep-scale", "--corpus", str(tmp_path / "missing.svc"),
                "--backbone", str(tmp_path / "missing.ckpt"),
                "--trials", str(tmp_path / "missing_trials.txt"), *flags,
            ]
        )
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["linear-probe", "houlsby"])
    def test_mode_without_parallel_adapter_exits_2_naming_it(self, workdir, mode, capsys):
        rc = main(
            [
                "sweep-scale", *self.inputs(workdir), "--scales", "0.5",
                "--mode", mode, "--total-steps", "2", "--warmup-steps", "1",
                "--batch-size", "4",
            ]
        )
        assert rc == 2
        assert repr(mode) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["targets-only", "unknown-utterance"])
    def test_bad_trial_list_exits_3_before_any_run(
        self, workdir, bad_trial_lists, case, capsys, monkeypatch
    ):
        import svadapt.harness

        monkeypatch.setattr(svadapt.harness, "run_and_report", no_run)
        path, named = bad_trial_lists[case]
        argv = self.inputs(workdir)
        argv[argv.index("--trials") + 1] = str(path)
        assert main(["sweep-scale", *argv, *self.ADAPTER_FLAGS, *self.RUN_FLAGS]) == 3
        out, err = capsys.readouterr()
        assert out == "" and named in err


class TestCompare:
    # wider than the default 16-unit bottleneck, which compare always uses;
    # compare takes the encoder from the backbones, train and pretrain from
    # these flags
    ENCODER_FLAGS = [
        "--num-layers", "2", "--hidden-dim", "24", "--num-heads", "2", "--ffn-dim", "24",
        "--input-dim", "10",
    ]
    RUN_FLAGS = [
        "--embed-dim", "8", "--batch-size", "4", "--total-steps", "2", "--warmup-steps", "1",
    ]

    @pytest.fixture(scope="class")
    def backbones(self, workdir):
        paths = [workdir / f"compare-backbone{seed}.ckpt" for seed in (0, 1)]
        for seed, path in enumerate(paths):
            rc = main(
                ["pretrain", "--corpus", str(workdir / "corpus.txt"), "--out", str(path),
                 "--seed", str(seed), *self.ENCODER_FLAGS, *self.RUN_FLAGS]
            )
            assert rc == 0
        return paths

    def inputs(self, workdir, backbones):
        return [
            "--corpus", str(workdir / "corpus.txt"), "--trials", str(workdir / "trials.txt"),
            *(arg for path in backbones for arg in ("--backbone", str(path))), *self.RUN_FLAGS,
        ]

    def test_json_rows_are_the_train_reports(self, workdir, backbones, tmp_path, capsys):
        from svadapt.adapters import MODES

        assert main(["compare", "--json", *self.inputs(workdir, backbones)]) == 0
        rows = untimed(capsys.readouterr().out)
        assert main(["compare", "--json", *self.inputs(workdir, backbones)]) == 0
        assert untimed(capsys.readouterr().out) == rows
        runs = [(seed, path, mode) for seed, path in enumerate(backbones) for mode in MODES]
        assert len(rows) == len(runs) == 14
        for row, (seed, path, mode) in zip(rows, runs):
            rc = main(
                ["train", "--mode", mode, "--seed", str(seed), "--backbone", str(path),
                 "--corpus", str(workdir / "corpus.txt"), "--trials", str(workdir / "trials.txt"),
                 "--out", str(tmp_path / "run.ckpt"), *self.ENCODER_FLAGS, *self.RUN_FLAGS]
            )
            assert rc == 0
            assert untimed(capsys.readouterr().out) == [row]

    def test_table_has_the_medians_of_the_rows(self, workdir, backbones, capsys):
        from svadapt.adapters import MODES

        assert main(["compare", "--json", *self.inputs(workdir, backbones)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert main(["compare", *self.inputs(workdir, backbones)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["mode", "trainable", "pct", "EER", "minDCF"]
        assert [line.split()[0] for line in lines] == list(MODES)
        for line in lines:
            mode, trainable, pct, eer, dcf = line.split()
            ours = [r for r in rows if r["mode"] == mode]
            assert int(trainable.replace(",", "")) == ours[0]["trainable"]["pretrained_side_trainable"]
            assert pct == f"{ours[0]['trainable']['pct_of_backbone']:.2f}%"
            assert eer == f"{np.median([r['eer'] for r in ours]):.3f}"
            assert dcf == f"{np.median([r['min_dcf'] for r in ours]):.3f}"

    @pytest.mark.parametrize(
        "flags",
        [["--mode", "inner"], ["--seed", "1"], ["--config", "run.conf"],
         ["--bottleneck-dim", "4"], ["--adapter-scale", "0.5"]],
        ids=["mode", "seed", "config", "bottleneck-dim", "adapter-scale"],
    )
    def test_a_flag_it_does_not_take_is_a_usage_error(self, workdir, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", *self.inputs(workdir, ["b.ckpt"]), *flags])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_no_backbone_is_a_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", *self.inputs(workdir, [])])
        assert info.value.code == 2
        assert "required: --backbone" in capsys.readouterr().err

    def test_a_mode_without_a_model_exits_2_before_any_run(self, workdir, capsys, monkeypatch):
        # houlsby's default 16-unit bottleneck does not fit the 16-unit
        # backbone of the module fixture
        import svadapt.harness

        monkeypatch.setattr(svadapt.harness, "run_and_report", no_run)
        argv = self.inputs(workdir, [workdir / "backbone.ckpt"])
        assert main(["compare", "--json", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "bottleneck 16 must be smaller than width 16" in err

    @pytest.mark.parametrize("command", ["compare", "sweep-scale"])
    def test_backbones_with_different_encoders_exit_2_before_any_run(
        self, workdir, backbones, command, capsys, monkeypatch
    ):
        import svadapt.harness

        monkeypatch.setattr(svadapt.harness, "run_and_report", no_run)
        narrow, wide = workdir / "backbone.ckpt", backbones[0]
        extra = ["--bottleneck-dim", "4"] if command == "sweep-scale" else []
        assert main([command, "--json", *self.inputs(workdir, [wide, narrow]), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"backbones {wide} and {narrow} record different encoders" in err

    def test_missing_corpus_exits_3_before_any_training(
        self, workdir, backbones, tmp_path, capsys, monkeypatch
    ):
        import svadapt.harness

        monkeypatch.setattr(svadapt.harness, "run_and_report", no_run)
        argv = self.inputs(workdir, backbones)
        argv[argv.index("--corpus") + 1] = str(tmp_path / "missing.svc")
        assert main(["compare", *argv]) == 3
        assert "missing.svc not found" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["targets-only", "unknown-utterance"])
    def test_bad_trial_list_exits_3_before_any_run(
        self, workdir, backbones, bad_trial_lists, case, capsys, monkeypatch
    ):
        import svadapt.harness

        monkeypatch.setattr(svadapt.harness, "run_and_report", no_run)
        path, named = bad_trial_lists[case]
        argv = self.inputs(workdir, backbones)
        argv[argv.index("--trials") + 1] = str(path)
        assert main(["compare", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and named in err


# flags compare and sweep-scale dropped: the encoder and seed of every run
# come from its backbone, and a sweep row sets its own adapter variant and scale
REMOVED_FLAGS = {
    "compare": ["--encoder-preset", "--num-layers", "--hidden-dim", "--num-heads",
                "--ffn-dim", "--input-dim"],
    "sweep-scale": ["--encoder-preset", "--num-layers", "--hidden-dim", "--num-heads",
                    "--ffn-dim", "--input-dim", "--encoder-seed", "--config", "--seed",
                    "--adapter-variant", "--adapter-scale"],
}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items() for f in flags]
)
def test_removed_multi_run_flag_is_a_usage_error(tmp_path, command, flag, capsys):
    argv = [command, "--corpus", str(tmp_path / "c.svc"), "--trials", str(tmp_path / "t.txt"),
            "--backbone", str(tmp_path / "b.ckpt"), flag, "1"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestBadTrialList:
    """A trial list naming an utterance the corpus lacks, or holding one
    class only, is a data error found before any model is built."""

    @pytest.mark.parametrize("case", ["targets-only", "unknown-utterance"])
    def test_train_exits_3_before_a_step_and_writes_no_checkpoint(
        self, workdir, bad_trial_lists, case, tmp_path, capsys, monkeypatch
    ):
        import svadapt.harness

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(svadapt.harness, "_run_steps", no_step)
        path, named = bad_trial_lists[case]
        out = tmp_path / "run.ckpt"
        rc = main(
            ["train", "--corpus", str(workdir / "corpus.txt"),
             "--backbone", str(workdir / "backbone.ckpt"), "--trials", str(path),
             "--out", str(out), "--mode", "linear-probe", "--total-steps", "2",
             "--warmup-steps", "1", "--batch-size", "4", *ENCODER_FLAGS]
        )
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["targets-only", "unknown-utterance"])
    def test_eval_exits_3_before_building_the_model(
        self, workdir, bad_trial_lists, case, capsys, monkeypatch
    ):
        import svadapt.cli

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(svadapt.cli, "model_from_checkpoint", no_model)
        path, named = bad_trial_lists[case]
        rc = main(
            ["eval", "--checkpoint", str(workdir / "backbone.ckpt"),
             "--corpus", str(workdir / "corpus.txt"), "--trials", str(path)]
        )
        assert rc == 3
        assert named in capsys.readouterr().err


class TestGradCheck:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["grad-check", "--probes", "40"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_negative_seed_runs(self, capsys):
        assert main(["grad-check", "--probes", "10", "--seed", "-1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_an_error_past_the_tolerance_fails_with_exit_1(self, capsys):
        # central differences are never exact, so no run is within 0
        assert main(["grad-check", "--probes", "10", "--tolerance", "0"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "FAIL: exceeds tolerance 0"
        assert "OK" not in out

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


# the backbone pretrains in full-finetune mode with no adapter, from its own
# init, and is not evaluated, so pretrain takes neither a mode nor an adapter
# flag, and no backbone or trial list
@pytest.mark.parametrize(
    "flag, value",
    [("--mode", "inner"), ("--bottleneck-dim", "4"), ("--adapter-variant", "sequential"),
     ("--adapter-scale", "0.25"), ("--trials", "t.txt"),
     ("--backbone", "b.ckpt")],
)
def test_pretrain_mode_or_adapter_flag_is_a_usage_error(tmp_path, flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["pretrain", "--corpus", str(tmp_path / "c.svc"),
              "--out", str(tmp_path / "b.ckpt"), flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestMalformedRunNumbers:
    """A malformed number in a run config is a config error naming the key,
    raised before any input is read (the corpus does not exist: read
    first, it would be exit 3)."""

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--lr-head", "nan"], "lr_head"),
            (["--lr-head", "inf"], "lr_head"),
            (["--lr-head", "-1"], "lr_head"),
            (["--adapter-scale", "nan"], "scale"),
            (["--adapter-scale", "inf"], "scale"),
            (["--embed-dim", "-2"], "embed_dim"),
            (["--embed-dim", "0"], "embed_dim"),
        ],
    )
    def test_train_exits_2_before_reading_inputs(self, tmp_path, flags, key, capsys):
        rc = main(
            ["train", "--corpus", str(tmp_path / "missing.svc"),
             "--out", str(tmp_path / "run.ckpt"), *flags]
        )
        assert rc == 2
        assert f"{key} must be" in capsys.readouterr().err

    def test_config_file_value_is_checked_too(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[optim]\nlr_other = -1\n")
        rc = main(
            ["train", "--config", str(conf), "--corpus", str(tmp_path / "missing.svc"),
             "--out", str(tmp_path / "run.ckpt")]
        )
        assert rc == 2
        assert "lr_other must be" in capsys.readouterr().err

    def test_config_file_value_a_flag_replaces_is_not_checked(self, tmp_path):
        from svadapt.cli import _run_config_from_args, build_parser

        conf = tmp_path / "run.conf"
        conf.write_text("[optim]\nlr_other = -1\n")
        args = build_parser().parse_args(
            ["train", "--out", "x.ckpt", "--config", str(conf), "--lr-other", "0.5"])
        assert _run_config_from_args(args).lr_other == 0.5

    def test_config_file_value_that_does_not_parse_exits_2_under_a_flag(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[optim]\nlr_other = x\n")
        rc = main(
            ["train", "--config", str(conf), "--corpus", str(tmp_path / "missing.svc"),
             "--out", str(tmp_path / "run.ckpt"), "--lr-other", "0.5"]
        )
        assert rc == 2
        assert "config key 'lr_other'" in capsys.readouterr().err

    def test_gen_data_nan_noise_scale_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus.svc"
        assert main(["gen-data", "--out", str(out), "--noise-scale", "nan"]) == 2
        assert "noise_scale must be" in capsys.readouterr().err
        assert not out.exists()


class TestReadmeCommands:
    def test_every_documented_command_parses(self):
        import shlex
        from pathlib import Path

        from svadapt.cli import build_parser

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.startswith("svadapt ")]
        assert {argv[1] for argv in commands} >= {
            "gen-data", "pretrain", "train", "eval", "count-params", "sweep-scale",
            "compare", "grad-check",
        }
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")


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


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array with shape "
                                     "(100000000, 1000) and data type float64", ""])
def test_a_run_too_large_to_allocate_is_a_config_error(workdir, tmp_path, capsys, monkeypatch,
                                                       message):
    # raised by a stand-in: a real allocation that large may end in an OOM kill
    import svadapt.cli

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(svadapt.cli, "train_run", too_large)
    rc = main(["train", "--corpus", str(workdir / "corpus.txt"), "--out", str(tmp_path / "r.ckpt"),
               "--mode", "linear-probe", "--total-steps", "2", "--warmup-steps", "1",
               "--batch-size", "4", "--embed-dim", "100000000", *ENCODER_FLAGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: the run does not fit in memory{message and ': ' + message}\n"


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
        from svadapt.backend import write_embeddings
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
        write_embeddings(tmp_path / "want_embs.txt", embs)

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
        # a file's adapter settings stand under the flag's mode
        conf.write_text("[run]\nmode = inner\n[adapter]\nbottleneck_dim = 8\n")
        assert self._cfg(*flags).adapter == AdapterConfig(bottleneck_dim=8, variant="sequential")

    def test_other_modes_keep_their_defaults(self, tmp_path):
        from svadapt.adapters import AdapterConfig

        assert self._cfg().adapter == AdapterConfig()
        assert self._cfg("--mode", "inner").adapter == AdapterConfig()
        assert self._cfg("--mode", "inter").adapter is None
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\nmode = inner\n[adapter]\nbottleneck_dim = 8\n")
        flags = ("--config", str(conf), "--mode", "inner-inter")
        assert self._cfg(*flags).adapter == AdapterConfig(bottleneck_dim=8)

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("[run]\nmode = houlsby\n[adapter]\nbottleneck_dim = 4\n",
             ["--mode", "houlsby", "--bottleneck-dim", "4"]),
        ],
        ids=["houlsby-bottleneck-dim"],
    )
    def test_a_file_and_flags_with_the_same_settings_agree(self, tmp_path, text, flags):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        assert self._cfg("--config", str(conf)) == self._cfg(*flags)

    # the default run's config text holds the inner-inter default adapter
    DEFAULT_ADAPTER_TEXT = ("[run]\nmode = inner-inter\n[adapter]\nbottleneck_dim = 16\n"
                            "variant = parallel\nscale = 0.5\n")

    @pytest.mark.parametrize(
        "text, flags, named",
        [
            (DEFAULT_ADAPTER_TEXT, ["--mode", "linear-probe"],
             "mode 'linear-probe' takes no bottleneck adapter"),
            (DEFAULT_ADAPTER_TEXT, ["--mode", "houlsby"], "sequential adapters only"),
            ("[run]\nmode = linear-probe\n[adapter]\n", [],
             "mode 'linear-probe' takes no bottleneck adapter"),
        ],
        ids=["adapter-under-probe-flag", "parallel-under-houlsby-flag", "empty-adapter-section"],
    )
    def test_file_adapter_the_mode_cannot_take_exits_2(self, tmp_path, text, flags, named, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        rc = main(["train", "--config", str(conf), "--corpus", str(tmp_path / "missing.svc"),
                   "--out", str(tmp_path / "run.ckpt"), *flags])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags",
        [("", ["--mode", "houlsby", "--adapter-scale", "0.25"]),
         ("[adapter]\nvariant = sequential\nscale = 0.25\n", [])],
        ids=["houlsby-flag", "sequential-file"],
    )
    def test_a_scale_for_a_sequential_adapter_exits_2(self, tmp_path, text, flags, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        rc = main(["train", "--config", str(conf), "--corpus", str(tmp_path / "missing.svc"),
                   "--out", str(tmp_path / "run.ckpt"), *flags])
        assert rc == 2
        assert "a sequential adapter takes no scale, got 0.25" in capsys.readouterr().err

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


    def test_parallel_houlsby_config_exits_2_before_reading_inputs(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("[run]\nmode = houlsby\n[adapter]\nvariant = parallel\n")
        rc = main(
            ["train", "--config", str(conf), "--corpus", str(tmp_path / "missing.svc"),
             "--out", str(tmp_path / "run.ckpt")]
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
        assert "truncated or corrupt" in capsys.readouterr().err

    def test_bytes_after_the_hash_exit_3(self, workdir, tmp_path, capsys):
        run = tmp_path / "run.ckpt"
        assert main(
            ["train", "--corpus", str(workdir / "corpus.txt"), "--out", str(run),
             "--mode", "inter", "--total-steps", "2", "--warmup-steps", "1",
             "--batch-size", "4", *ENCODER_FLAGS]
        ) == 0
        run.write_bytes(run.read_bytes() + b"\xa5" * 28)
        rc = main(
            ["eval", "--checkpoint", str(run), "--corpus", str(workdir / "corpus.txt"),
             "--trials", str(workdir / "trials.txt")]
        )
        assert rc == 3
        assert "sha256 mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_checkpoint_exits_3(self, workdir, tmp_path, capsys, version):
        # version 1 wrote no sha256 trailer; versions 2 and 3 wrote one over
        # every byte before it (version 2's backbone hash was an FNV-1a hash
        # of the backbone bytes themselves)
        blob = bytearray((workdir / "backbone.ckpt").read_bytes()[:-32])
        blob[8:12] = version.to_bytes(4, "little")
        if version > 1:
            blob += hashlib.sha256(blob).digest()
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(bytes(blob))
        rc = main(["eval", "--checkpoint", str(old), "--corpus", str(workdir / "corpus.txt"),
                   "--trials", str(workdir / "trials.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"unsupported checkpoint version {version}" in err
        assert "re-run to regenerate" in err


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
    assert main(["count-params", *flags]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == COUNT_PARAMS_SHA256[flags]


class TestEveryRunSetting:
    """Every field of RunConfig, and of the encoder and adapter configs in
    it, can be set by a config key and by a `train` flag."""

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
        ("optim", "lr_head", "--lr-head", "lr_head", 0.25),
        ("optim", "lr_other", "--lr-other", "lr_other", 0.125),
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
        assert self.get(_run_config_from_args(args), path) == value

    def test_there_are_twenty_settings(self):
        from svadapt.harness import config_settings

        assert len(list(config_settings())) == len(self.SETTINGS) == 20

    # settings that took one value in every run: the optimizer's and the
    # learnable scale's start value are constants, with no key or flag
    @pytest.mark.parametrize("section,key", [
        ("optim", "adam_beta1"), ("optim", "adam_beta2"), ("optim", "adam_eps"),
        ("optim", "lr_floor_ratio"), ("adapter", "scale_init")])
    def test_a_constant_has_no_key_or_flag(self, section, key, tmp_path, capsys):
        from svadapt.errors import ConfigError
        from svadapt.harness import config_from_text

        with pytest.raises(ConfigError, match=f"unknown config section or key: \\[{section}\\] {key}"):
            config_from_text(f"[run]\nmode = inner\n[{section}]\n{key} = 0.5\n")
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as info:
            main(["train", "--corpus", str(tmp_path / "c.svc"), "--out", str(tmp_path / "r.ckpt"),
                  flag, "0.5"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    # the commands other than train that took these flags before they
    # became constants: pretrain and compare had the optimizer's four,
    # sweep-scale those and the scale's start value too
    @pytest.mark.parametrize("command, flag", [
        *[(command, flag) for command in ("pretrain", "compare", "sweep-scale")
          for flag in ("--adam-beta1", "--adam-beta2", "--adam-eps", "--lr-floor-ratio")],
        ("sweep-scale", "--scale-init")])
    def test_a_constant_is_no_flag_of_any_command(self, command, flag, capsys):
        from svadapt.cli import build_parser

        required = {"pretrain": ["--out", "r.ckpt"],
                    "compare": ["--corpus", "c", "--trials", "t", "--backbone", "b"]}
        required["sweep-scale"] = required["compare"]
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, *required[command], flag, "0.5"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


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

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        from svadapt.synthdata import read_corpus

        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_text("old\n")
        link.symlink_to("real.txt")
        rc = main(["gen-data", "--speakers", "4", "--utts-per-speaker", "3", "--out", str(link)])
        assert rc == 0
        assert link.is_symlink() and os.readlink(link) == "real.txt"
        assert read_corpus(real).config.num_speakers == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_write_to_a_fifo_writes_through_it(self, workdir, tmp_path):
        run = tmp_path / "run.ckpt"
        assert main(["train", "--corpus", str(workdir / "corpus.txt"), "--out", str(run),
                     "--mode", "linear-probe", "--total-steps", "2", "--warmup-steps", "1",
                     "--batch-size", "4", *ENCODER_FLAGS]) == 0
        fifo = tmp_path / "scores.fifo"
        os.mkfifo(fifo)
        # a reader opened first, and 60 score lines well under the pipe
        # buffer, so the write neither blocks nor waits for a reader
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc = main(["eval", "--checkpoint", str(run), "--corpus", str(workdir / "corpus.txt"),
                       "--trials", str(workdir / "trials.txt"), "--scores-out", str(fifo)])
            try:
                written = os.read(reader, 1 << 16)
            except BlockingIOError:  # nothing was written into the pipe
                written = b""
        finally:
            os.close(reader)
        assert rc == 0
        assert fifo.is_fifo()
        assert len(written.decode().splitlines()) == 60
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt", "scores.fifo"]

    def test_v1_text_corpus_exits_3(self, workdir, tmp_path, capsys):
        old = tmp_path / "corpus.txt"
        old.write_text(
            "svcorpus-v1\n[config]\nframe_dim=10\n[speakers]\nspk000 pretrain\n"
            "spk001 adapt\n[utterances]\n"
        )
        rc = main(
            [
                "train", "--corpus", str(old), "--out", str(tmp_path / "x.ckpt"),
                "--total-steps", "2", "--warmup-steps", "1", "--bottleneck-dim", "4",
                *ENCODER_FLAGS,
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
        # a directory is no regular file, so it is opened in place, which fails
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

    STEPS = ["--total-steps", "2", "--warmup-steps", "1", "--batch-size", "4", *ENCODER_FLAGS]
    TRAIN = ["train", "--mode", "linear-probe", *STEPS]
    EVAL = ["eval", "--checkpoint", "{ckpt}", "--corpus", "{corpus}"]

    @pytest.mark.parametrize("alias", [False, True])
    @pytest.mark.parametrize(
        "argv, first, second, content",
        [
            (["gen-data", "--speakers", "4", "--utts-per-speaker", "3", "--n-target", "2",
              "--n-nontarget", "2", "--out", "{shared}", "--trials-out", "{target}"],
             "--out", "--trials-out", None),
            (["pretrain", *STEPS, "--corpus", "{shared}", "--out", "{target}"],
             "--corpus", "--out", "corpus.txt"),
            ([*TRAIN, "--corpus", "{shared}", "--out", "{target}"],
             "--corpus", "--out", "corpus.txt"),
            ([*TRAIN, "--config", "{shared}", "--corpus", "{corpus}", "--out", "{target}"],
             "--config", "--out", "[run]\nmode = linear-probe\n"),
            ([*TRAIN, "--config", "{conf}", "--out", "{target}"],  # [data] corpus = shared
             "--corpus", "--out", "corpus.txt"),
            ([*EVAL, "--trials", "{shared}", "--scores-out", "{target}"],
             "--trials", "--scores-out", "trials.txt"),
            ([*EVAL, "--trials", "{trials}", "--scores-out", "{shared}",
              "--embeddings-out", "{target}"], "--scores-out", "--embeddings-out", None),
        ],
    )
    def test_output_naming_an_input_or_output_exits_2_and_keeps_it(
        self, workdir, tmp_path, capsys, argv, first, second, content, alias
    ):
        # `second` names the file `first` names, by the same path or by a symlink
        shared = tmp_path / "shared"
        if content and content.endswith(".txt"):
            shared.write_bytes((workdir / content).read_bytes())
        else:
            shared.write_text(content or "kept\n")
        before = shared.read_bytes()
        target = tmp_path / "alias" if alias else shared
        if alias:
            target.symlink_to(shared)
        conf = tmp_path / "run.conf"
        conf.write_text(f"[data]\ncorpus = {shared}\n")
        paths = {"shared": shared, "target": target, "conf": conf,
                 "corpus": workdir / "corpus.txt", "trials": workdir / "trials.txt",
                 "ckpt": workdir / "backbone.ckpt"}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"{first} {shared} and {second} {target} name the same file" in err
        assert shared.read_bytes() == before


def test_closed_stdout_pipe_is_one_stderr_line():
    import svadapt

    src = str(Path(svadapt.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "svadapt", "count-params", "--json"],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                               timeout=120)
    finally:
        os.close(write_end)
    assert child.returncode == 3
    assert child.stderr.splitlines() == [
        "data error: cannot write stdout: the reader closed the pipe"
    ]
