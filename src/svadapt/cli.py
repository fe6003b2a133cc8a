"""Command-line harness.

Subcommands: gen-data, pretrain, train, eval, count-params, sweep-scale,
grad-check. The run flags derive from `harness.config_settings` and override
values taken from a `--config` key=value file with [section] grouping. Exit
codes: 0 success, 2 config error, 3 data error (a file that cannot be read,
parsed or written), 4 numeric failure (NaN detected).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import adapters as ad
from .backbone import EncoderConfig, PRESETS
from .backend import SpeakerEmbedding, write_embeddings
from .errors import ConfigError, DataError, NumericError
from .harness import (
    DEFAULT_SWEEP_SCALES,
    RunConfig,
    _check_frame_dim,
    config_from_file,
    config_from_text,
    config_settings,
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
    train as train_run,
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
from .tensor import GRAD_CHECK_STEPS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_run_flags(p: argparse.ArgumentParser, settings=None) -> None:
    """Register --encoder-preset and the flag of each of `settings`; when
    they are not given, --config and the flag of every run setting."""
    if settings is None:
        p.add_argument("--config", help="key=value config file with [section] headers")
        settings = config_settings()
    enc = p.add_argument_group("encoder")
    enc.add_argument("--encoder-preset", choices=sorted(PRESETS))
    for s in settings:
        if s.flag is not None:
            (enc if s.part == "encoder" else p).add_argument(
                f"--{s.flag}", type=s.cast, choices=s.field.metadata.get("choices"),
                help=s.field.metadata.get("help"),
            )


def _flag_values(args, part) -> dict:
    """{field name: value} for each run flag given on the command line
    whose setting belongs to `part` (see `harness.Setting`)."""
    values = {}
    for s in config_settings():
        if s.part == part and s.flag is not None:
            value = getattr(args, s.flag.replace("-", "_"))
            if value is not None:
                values[s.field.name] = value
    return values


def _encoder_from_args(args, base: EncoderConfig) -> EncoderConfig:
    if args.encoder_preset:
        base = PRESETS[args.encoder_preset]
    updates = _flag_values(args, "encoder")
    return replace(base, **updates) if updates else base


def _run_config_from_args(args) -> RunConfig:
    cfg = config_from_file(args.config) if args.config else RunConfig()
    updates = _flag_values(args, None)
    updates["encoder"] = _encoder_from_args(args, cfg.encoder)
    mode = updates.get("mode", cfg.mode)
    adapter = cfg.adapter
    if adapter == ad.default_adapter(cfg.mode) or mode not in ad.INNER_MODES:
        # the default adapter of the config's mode, or any adapter config
        # when switching to a mode without adapters, gives way to the
        # default of the mode the run uses (houlsby: sequential)
        adapter = ad.default_adapter(mode)
    # AdapterConfig validates/coerces the scale value itself
    adapter_flags = _flag_values(args, "adapter")
    if adapter_flags:
        adapter = replace(adapter or ad.AdapterConfig(), **adapter_flags)
    updates["adapter"] = adapter
    return replace(cfg, **updates)


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value outside its range before any work is done."""
    if not ok:
        raise ConfigError(f"--{flag} must be {rule}, got {value!r}")


def _read(reader, path, what: str):
    try:
        return reader(path)
    except FileNotFoundError as exc:
        raise DataError(f"{what} {path} not found") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def _check_out_dirs(*paths) -> None:
    """Refuse an output whose directory is missing before any input is read
    or any work is done, with the error a failed write would give."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _path(flag_value, cfg_value, what):
    path = flag_value or cfg_value
    if not path:
        raise ConfigError(f"no {what} given (flag or [data] section)")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = CorpusConfig(**{f.name: getattr(args, f.name) for f in fields(CorpusConfig)})
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
    _check_out_dirs(args.out)
    corpus = _read(read_corpus, _path(args.corpus, cfg.corpus_path, "corpus"), "corpus file")
    run = pretrain_backbone(cfg, corpus, out_path=args.out)
    print(
        f"pretrained backbone for {cfg.total_steps} steps: "
        f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}; "
        f"hash {run.backbone_hash:#018x}; saved {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config_from_args(args)
    _check_out_dirs(args.out)
    corpus = _read(read_corpus, _path(args.corpus, cfg.corpus_path, "corpus"), "corpus file")
    backbone_path = args.backbone or cfg.backbone_path
    backbone = load_checkpoint(backbone_path) if backbone_path else None
    trials_path = args.trials or cfg.trials_path
    trials = _read(read_trials, trials_path, "trial list") if trials_path else None
    if trials is None:
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
    _require(0.0 < args.p_target < 1.0, "p-target", "in (0, 1)", args.p_target)
    _check_out_dirs(args.scores_out, args.embeddings_out)
    corpus = _read(read_corpus, args.corpus, "corpus file")
    trials = _read(read_trials, args.trials, "trial list")
    checkpoint = load_checkpoint(args.checkpoint)
    # a corpus that does not fit the encoder is a config error, reported
    # before any fault in the checkpoint's params
    _check_frame_dim(corpus, config_from_text(checkpoint.config_text).encoder)
    model = model_from_checkpoint(checkpoint)
    embs = embed_trial_utterances(model, corpus, trials)
    result, scores = score_trials(embs, trials, p_target=args.p_target)
    if args.scores_out:
        write_scores(args.scores_out, trials, scores)
    if args.embeddings_out:
        write_embeddings(
            args.embeddings_out,
            [SpeakerEmbedding(utt, vec) for utt, vec in sorted(embs.items())],
        )
    print(json.dumps(asdict(result), sort_keys=True))
    return EXIT_OK


def cmd_count_params(args) -> int:
    encoder = _encoder_from_args(args, EncoderConfig())
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
    if "parallel" not in ad.MODE_SPECS[cfg.mode].variants:
        cfg = replace(cfg, mode="inner-inter")
    corpus = _read(read_corpus, _path(args.corpus, cfg.corpus_path, "corpus"), "corpus file")
    backbone_path = args.backbone or cfg.backbone_path
    backbone = load_checkpoint(backbone_path) if backbone_path else None
    trials = _read(read_trials, _path(args.trials, cfg.trials_path, "trial list"), "trial list")
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

    lo, hi = GRAD_CHECK_STEPS
    _require(args.probes >= 1, "probes", "at least 1", args.probes)
    _require(lo <= args.step_size <= hi, "step-size", f"in [{lo:g}, {hi:g}]", args.step_size)
    _require(args.tolerance >= 0.0, "tolerance", "non-negative", args.tolerance)
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
    for f in fields(CorpusConfig):
        flag = f.metadata.get("flag", f.name.replace("_", "-"))
        p.add_argument(f"--{flag}", dest=f.name, type=type(f.default), default=f.default)
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
    _add_run_flags(p, [s for s in config_settings()
                       if s.part == "encoder" or s.field.name in ("embed_dim", "bottleneck_dim")])
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
    except OSError as exc:  # from a write: each reader maps its own to DataError
        print(f"data error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
