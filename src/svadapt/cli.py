"""Command-line harness.

Subcommands: gen-data, pretrain, train, eval, count-params, sweep-scale,
grad-check. Flags mirror RunConfig fields and override values taken from a
`--config` key=value file with [section] grouping. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure (NaN detected).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import adapters as ad
from .backbone import EncoderConfig, PRESETS
from .errors import ConfigError, DataError, NumericError
from .harness import (
    DEFAULT_SWEEP_SCALES,
    RunConfig,
    config_from_file,
    config_to_text,
    count_params_table,
    embed_trial_utterances,
    format_count_table,
    format_sweep_table,
    load_checkpoint,
    model_from_checkpoint,
    pretrain_backbone,
    run_and_report,
    score_trials,
    sweep_scale,
)
from .metrics import write_scores
from .synthdata import (
    CorpusConfig,
    generate_corpus,
    generate_trials,
    read_corpus,
    read_trials,
    write_corpus,
    write_trials,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file with [section] headers")
    p.add_argument("--mode", choices=ad.MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--total-steps", type=int)
    p.add_argument("--warmup-steps", type=int)
    p.add_argument("--lr-head", type=float)
    p.add_argument("--lr-other", type=float)
    p.add_argument("--lr-floor-ratio", type=float)
    p.add_argument("--adam-beta1", type=float)
    p.add_argument("--adam-beta2", type=float)
    p.add_argument("--adam-eps", type=float)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--bottleneck-dim", type=int)
    p.add_argument("--adapter-variant", choices=("sequential", "parallel"))
    p.add_argument("--adapter-scale", help="a number or 'learnable'")
    p.add_argument("--scale-init", type=float, help="start value for a learnable scale")
    enc = p.add_argument_group("encoder")
    enc.add_argument("--encoder-preset", choices=sorted(PRESETS))
    enc.add_argument("--num-layers", type=int)
    enc.add_argument("--hidden-dim", type=int)
    enc.add_argument("--num-heads", type=int)
    enc.add_argument("--ffn-dim", type=int)
    enc.add_argument("--input-dim", type=int)
    enc.add_argument("--encoder-seed", type=int)


def _encoder_from_args(args, base: EncoderConfig) -> EncoderConfig:
    if args.encoder_preset:
        base = PRESETS[args.encoder_preset]
    updates = {}
    for flag, fieldname in (
        ("num_layers", "num_layers"),
        ("hidden_dim", "hidden_dim"),
        ("num_heads", "num_heads"),
        ("ffn_dim", "ffn_dim"),
        ("input_dim", "input_dim"),
        ("encoder_seed", "seed"),
    ):
        value = getattr(args, flag)
        if value is not None:
            updates[fieldname] = value
    return replace(base, **updates) if updates else base


def _run_config_from_args(args) -> RunConfig:
    cfg = config_from_file(args.config) if args.config else RunConfig()
    encoder = _encoder_from_args(args, cfg.encoder)
    updates = {"encoder": encoder}
    for flag in ("mode", "seed", "batch_size", "total_steps", "warmup_steps",
                 "lr_head", "lr_other", "lr_floor_ratio",
                 "adam_beta1", "adam_beta2", "adam_eps", "embed_dim"):
        value = getattr(args, flag)
        if value is not None:
            updates[flag] = value
    mode = updates.get("mode", cfg.mode)
    adapter_flags = {
        k: v
        for k, v in (
            ("bottleneck_dim", args.bottleneck_dim),
            ("variant", args.adapter_variant),
            ("scale", args.adapter_scale),
            ("scale_init", args.scale_init),
        )
        if v is not None
    }
    # AdapterConfig validates/coerces the scale value itself
    adapter = cfg.adapter
    if adapter_flags:
        adapter = replace(adapter or ad.AdapterConfig(), **adapter_flags)
    elif mode not in ad.INNER_MODES:
        # switching to a mode without bottleneck adapters drops any config
        # inherited from the defaults of an adapter mode
        adapter = None
    updates["adapter"] = adapter
    return replace(cfg, **updates)


def _load_corpus(path):
    try:
        return read_corpus(path)
    except FileNotFoundError as exc:
        raise DataError(f"corpus file {path} not found") from exc
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc.strerror or exc}") from exc


def _load_trials(path):
    try:
        return read_trials(path)
    except FileNotFoundError as exc:
        raise DataError(f"trial list {path} not found") from exc


def _path(flag_value, cfg_value, what):
    path = flag_value or cfg_value
    if not path:
        raise ConfigError(f"no {what} given (flag or [data] section)")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = CorpusConfig(
        seed=args.seed,
        num_speakers=args.speakers,
        utts_per_speaker=args.utts_per_speaker,
        frames_min=args.frames_min,
        frames_max=args.frames_max,
        frame_dim=args.frame_dim,
        speaker_scale=args.speaker_scale,
        channel_scale=args.channel_scale,
        noise_scale=args.noise_scale,
    )
    corpus = generate_corpus(cfg)
    write_corpus(args.out, corpus)
    print(f"wrote {len(corpus.utterances)} utterances to {args.out}")
    if args.trials_out:
        trials = generate_trials(
            corpus.part(args.trial_part), args.n_target, args.n_nontarget,
            seed=args.trial_seed,
        )
        write_trials(args.trials_out, trials)
        print(f"wrote {len(trials)} trials to {args.trials_out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _run_config_from_args(args)
    corpus = _load_corpus(_path(args.corpus, cfg.corpus_path, "corpus"))
    run = pretrain_backbone(cfg, corpus, out_path=args.out)
    print(
        f"pretrained backbone for {cfg.total_steps} steps: "
        f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}; "
        f"hash {run.backbone_hash:#018x}; saved {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config_from_args(args)
    corpus = _load_corpus(_path(args.corpus, cfg.corpus_path, "corpus"))
    backbone_path = args.backbone or cfg.backbone_path
    backbone = load_checkpoint(backbone_path) if backbone_path else None
    trials_path = args.trials or cfg.trials_path
    trials = _load_trials(trials_path) if trials_path else None
    if trials is None:
        from .harness import train as train_run

        run = train_run(cfg, backbone, corpus, out_path=args.out)
        print(
            f"trained {cfg.mode} for {cfg.total_steps} steps: "
            f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}; saved {args.out}"
        )
        return EXIT_OK
    run, result, report = run_and_report(cfg, backbone, corpus, trials, out_path=args.out)
    print(report.to_json())
    return EXIT_OK


def cmd_eval(args) -> int:
    corpus = _load_corpus(args.corpus)
    trials = _load_trials(args.trials)
    checkpoint = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(checkpoint)
    embs = embed_trial_utterances(model, corpus, trials)
    result, scores = score_trials(embs, trials, p_target=args.p_target)
    if args.scores_out:
        write_scores(args.scores_out, trials, scores)
    if args.embeddings_out:
        from .backend import SpeakerEmbedding, write_embeddings

        write_embeddings(
            args.embeddings_out,
            [SpeakerEmbedding(utt, vec) for utt, vec in sorted(embs.items())],
        )
    payload = {
        "eer": result.eer,
        "min_dcf": result.min_dcf,
        "threshold_at_eer": result.threshold_at_eer,
        "n_target": result.n_target,
        "n_nontarget": result.n_nontarget,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_count_params(args) -> int:
    encoder = PRESETS[args.encoder_preset] if args.encoder_preset else EncoderConfig()
    encoder = _encoder_from_args(args, encoder)
    big = encoder.hidden_dim >= 512
    rows = count_params_table(
        encoder,
        args.embed_dim or (512 if big else 32),
        args.bottleneck_dim or (256 if big else 16),
    )
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        print(format_count_table(rows))
    return EXIT_OK


def cmd_sweep_scale(args) -> int:
    try:
        scales = tuple(map(float, args.scales.split(","))) if args.scales else DEFAULT_SWEEP_SCALES
    except ValueError as exc:
        raise ConfigError(f"--scales must be comma-separated numbers: {args.scales!r}") from exc
    cfg = _run_config_from_args(args)
    if cfg.mode not in ("inner", "inner-inter"):
        cfg = replace(cfg, mode="inner-inter", adapter=cfg.adapter or ad.AdapterConfig())
    corpus = _load_corpus(_path(args.corpus, cfg.corpus_path, "corpus"))
    backbone_path = args.backbone or cfg.backbone_path
    backbone = load_checkpoint(backbone_path) if backbone_path else None
    trials = _load_trials(_path(args.trials, cfg.trials_path, "trial list"))
    rows = sweep_scale(
        cfg,
        backbone,
        corpus,
        trials,
        scales=scales,
        include_learnable=not args.no_learnable,
        include_sequential=not args.no_sequential,
    )
    if args.json:
        for row in rows:
            print(json.dumps({"scale": row["scale"], "eer": row["eer"],
                              "min_dcf": row["min_dcf"]}, sort_keys=True))
    else:
        print(format_sweep_table(rows))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    """Numerically verify gradients through a full tiny forward+loss graph."""
    from .gradsuite import full_graph_grad_check

    err = full_graph_grad_check(
        n_probes=args.probes, h=args.step_size, seed=args.seed
    )
    print(f"max relative gradient error over {args.probes} probes: {err:.3e}")
    if not np.isfinite(err):
        return EXIT_NUMERIC
    if err > args.tolerance:
        print(f"FAIL: exceeds tolerance {args.tolerance:g}")
        return 1
    print(f"OK: within tolerance {args.tolerance:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svadapt",
        description="Adapter tuning of a frozen encoder for speaker verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus (and trials)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speakers", type=int, default=40)
    p.add_argument("--utts-per-speaker", type=int, default=20)
    p.add_argument("--frames-min", type=int, default=30)
    p.add_argument("--frames-max", type=int, default=60)
    p.add_argument("--frame-dim", type=int, default=20)
    p.add_argument("--speaker-scale", type=float, default=1.0)
    p.add_argument("--channel-scale", type=float, default=0.3)
    p.add_argument("--noise-scale", type=float, default=0.5)
    p.add_argument("--trials-out")
    p.add_argument("--trial-part", choices=("pretrain", "adapt"), default="adapt")
    p.add_argument("--trial-seed", type=int, default=0)
    p.add_argument("--n-target", type=int, default=100)
    p.add_argument("--n-nontarget", type=int, default=100)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain the backbone on the pretrain split")
    p.add_argument("--corpus")
    p.add_argument("--out", required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run one tuning mode on the adapt split")
    p.add_argument("--corpus")
    p.add_argument("--backbone", help="pretrained backbone checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--trials", help="evaluate after training and print a report")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a trial list")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--p-target", type=float, default=0.05)
    p.add_argument("--scores-out")
    p.add_argument("--embeddings-out", help="dump trial-utterance embeddings as text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count-params", help="trainable-parameter report for all modes")
    p.add_argument("--json", action="store_true")
    _add_run_flags(p)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("sweep-scale", help="train/evaluate over scaling factors")
    p.add_argument("--corpus")
    p.add_argument("--backbone")
    p.add_argument("--trials")
    p.add_argument("--scales", help="comma-separated fixed scales")
    p.add_argument("--no-learnable", action="store_true")
    p.add_argument("--no-sequential", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep_scale)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--step-size", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
