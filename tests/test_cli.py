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
