"""Command-line harness.

Subcommands: gen-data, pretrain, train, eval, count-params, sweep-scale,
compare, grad-check. The run flags derive from `harness.config_settings` and
override values taken from a `--config` key=value file with [section]
grouping. Exit codes: 0 success, 2 config error, 3 data error (a file that
cannot be read, parsed or written), 4 numeric failure (NaN detected).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import adapters as ad
from .backbone import EncoderConfig, PRESETS
from .backend import write_embeddings
from .errors import ConfigError, DataError, NumericError
from .harness import (
    DEFAULT_SWEEP_SCALES,
    RunConfig,
    _check_frame_dim,
    backbone_runs,
    buildable,
    check_trials,
    compare_configs,
    config_from_file,
    config_from_text,
    config_settings,
    count_params_table,
    embed_trial_utterances,
    format_count_table,
    format_run_table,
    load_checkpoint,
    model_from_checkpoint,
    pretrain_backbone,
    run_and_report,
    score_trials,
    sweep_configs,
    train as train_run,
)
from .metrics import P_TARGET, write_scores
from .synthdata import (
    PARTS,
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
    """Register the flag of each of `settings`, and --encoder-preset if one
    of them is an encoder setting; when they are not given, --config and
    the flag of every run setting. The parsed args keep the settings as
    `run_settings`."""
    if settings is None:
        p.add_argument("--config", help="key=value config file with [section] headers")
        settings = config_settings()
    settings = list(settings)
    p.set_defaults(run_settings=settings)
    enc = p.add_argument_group("encoder")
    if any(s.part == "encoder" for s in settings):
        enc.add_argument("--encoder-preset", choices=sorted(PRESETS))
    for s in settings:
        (enc if s.part == "encoder" else p).add_argument(
            f"--{s.flag}", type=s.cast, choices=s.field.metadata.get("choices"),
            help=s.field.metadata.get("help"),
        )


def _settings_from_args(args) -> dict:
    """{part: {field name: value}} of --encoder-preset's five encoder
    dimensions (a config file's seed stands), then of each of the
    subcommand's run flags given on the command line."""
    given = {}
    if getattr(args, "encoder_preset", None):
        preset = asdict(PRESETS[args.encoder_preset])
        given["encoder"] = {name: value for name, value in preset.items() if name != "seed"}
    for s in args.run_settings:
        value = getattr(args, s.flag.replace("-", "_"))
        if value is not None:
            given.setdefault(s.part, {})[s.field.name] = value
    return given


def _run_config_from_args(args) -> RunConfig:
    """The --config file's settings, where the subcommand takes one, with
    --encoder-preset and the run flags laid over them setting by setting,
    built once by `config_from_text`."""
    if getattr(args, "config", None):
        return config_from_file(args.config, _settings_from_args(args))
    return config_from_text("", overrides=_settings_from_args(args))


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value outside its range before any work is done."""
    if not ok:
        raise ConfigError(f"--{flag} must be {rule}, got {value!r}")


def _check_paths(outputs: dict, inputs: dict) -> None:
    """Refuse, before any data file is read or any work is done, an output
    whose directory is missing (with the error a failed write would give)
    and an output that is an input or another output (a ConfigError naming
    both). Each dict maps a flag to a path or None."""
    seen = {os.path.realpath(path): f"{flag} {path}" for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if path:
            if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            real = os.path.realpath(path)
            if real in seen:
                raise ConfigError(f"{seen[real]} and {flag} {path} name the same file")
            seen[real] = f"{flag} {path}"


def _path(path, what: str) -> None:
    """Refuse a run whose `what` path neither a flag nor [data] gives."""
    if not path:
        raise ConfigError(f"no {what} given (flag or [data] section)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    """Generate the corpus and, when asked, its trial list; both are built
    and checked before either file is written."""
    _check_paths({"--out": args.out, "--trials-out": args.trials_out}, {})
    cfg = CorpusConfig(**{f.name: getattr(args, f.name) for f in fields(CorpusConfig)})
    corpus = generate_corpus(cfg)
    trials = None
    if args.trials_out:
        trials = generate_trials(
            corpus.part(args.trial_part), args.n_target, args.n_nontarget,
            seed=args.trial_seed,
        )
    write_corpus(args.out, corpus)
    print(f"wrote {len(corpus.utterances)} utterances to {args.out}")
    if trials is not None:
        write_trials(args.trials_out, trials)
        print(f"wrote {len(trials)} trials to {args.trials_out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _run_config_from_args(args)
    _path(cfg.corpus_path, "corpus")
    _check_paths({"--out": args.out}, {"--config": args.config, "--corpus": cfg.corpus_path})
    corpus = read_corpus(cfg.corpus_path)
    run = pretrain_backbone(cfg, corpus, out_path=args.out)
    print(
        f"pretrained backbone for {cfg.total_steps} steps: "
        f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}; "
        f"hash {run.backbone_hash:#018x}; saved {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = buildable(_run_config_from_args(args))
    _path(cfg.corpus_path, "corpus")
    _check_paths({"--out": args.out}, {"--config": args.config, "--corpus": cfg.corpus_path,
                                       "--backbone": cfg.backbone_path, "--trials": cfg.trials_path})
    runs = backbone_runs([cfg], [cfg.backbone_path], cfg.encoder) if cfg.backbone_path else []
    backbone = runs[0][0] if runs else None
    corpus = read_corpus(cfg.corpus_path)
    trials = read_trials(cfg.trials_path) if cfg.trials_path else None
    if trials is None:
        run = train_run(cfg, backbone, corpus, out_path=args.out)
        print(
            f"trained {cfg.mode} for {cfg.total_steps} steps: "
            f"loss {run.losses[0]:.4f} -> {run.losses[-1]:.4f}; saved {args.out}"
        )
        return EXIT_OK
    check_trials(trials, corpus)
    print(run_and_report(cfg, backbone, corpus, trials, out_path=args.out).to_json())
    return EXIT_OK


def cmd_eval(args) -> int:
    _require(0.0 < args.p_target < 1.0, "p-target", "in (0, 1)", args.p_target)
    _check_paths({"--scores-out": args.scores_out, "--embeddings-out": args.embeddings_out},
                 {f"--{flag}": getattr(args, flag) for flag in ("checkpoint", "corpus", "trials")})
    corpus = read_corpus(args.corpus)
    trials = read_trials(args.trials)
    checkpoint = load_checkpoint(args.checkpoint)
    # a corpus that does not fit the encoder is a config error, reported
    # before any fault in the checkpoint's params
    _check_frame_dim(corpus, config_from_text(checkpoint.config_text).encoder)
    check_trials(trials, corpus)
    model = model_from_checkpoint(checkpoint)
    embs = embed_trial_utterances(model, corpus, trials)
    result, scores = score_trials(embs, trials, p_target=args.p_target)
    if args.scores_out:
        write_scores(args.scores_out, trials, scores)
    if args.embeddings_out:
        write_embeddings(args.embeddings_out, embs)
    print(json.dumps(asdict(result), sort_keys=True))
    return EXIT_OK


def cmd_count_params(args) -> int:
    """A dim flag not given takes the default for the encoder's width."""
    given = _settings_from_args(args)
    if given.get("encoder", {}).get("hidden_dim", EncoderConfig.hidden_dim) >= 512:
        given[None] = {"embed_dim": 512, **given.get(None, {})}
        given["adapter"] = {"bottleneck_dim": 256, **given.get("adapter", {})}
    cfg = config_from_text("", overrides=given)
    rows = count_params_table(cfg.encoder, cfg.embed_dim, cfg.adapter.bottleneck_dim)
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        print(format_count_table(rows))
    return EXIT_OK


def _scales(text) -> tuple:
    """The sweep rows of --scales: numbers, "sequential" or "learnable"."""
    if text is None:
        return DEFAULT_SWEEP_SCALES
    try:
        return tuple(w if w in ("sequential", ad.LEARNABLE) else float(w) for w in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--scales entries must be numbers, 'sequential' or "
                          f"'learnable': {text!r}") from exc


def cmd_runs(args) -> int:
    """compare and sweep-scale: each row of the command's roster on each
    backbone, with the encoder and seed the backbone records. Every row is
    checked before a backbone is read, and every run and the trial list
    before the first run starts."""
    cfg = _run_config_from_args(args)
    rows = compare_configs(cfg) if args.column == "mode" else sweep_configs(cfg, _scales(args.scales))
    runs = backbone_runs(rows, args.backbone)
    corpus = read_corpus(args.corpus)
    trials = read_trials(args.trials)
    check_trials(trials, corpus)
    reports = (run_and_report(cfg, backbone, corpus, trials) for backbone, cfg in runs)
    if args.json:
        for report in reports:
            print(report.to_json(), flush=True)
    else:
        print(format_run_table(reports, args.column))
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
    p.add_argument("--trial-part", choices=PARTS, default="adapt")
    p.add_argument("--trial-seed", type=int, default=0)
    p.add_argument("--n-target", type=int, default=100)
    p.add_argument("--n-nontarget", type=int, default=100)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain the backbone on the pretrain split")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file with [section] headers")
    # the backbone trains in full-finetune mode from its own init and is not
    # evaluated, so no mode, adapter, backbone or trials flag
    _add_run_flags(p, [s for s in config_settings() if s.part != "adapter"
                       and s.field.name not in ("mode", "trials_path", "backbone_path")])
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run one tuning mode on the adapt split")
    p.add_argument("--out", required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a trial list")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--p-target", type=float, default=P_TARGET)
    p.add_argument("--scores-out")
    p.add_argument("--embeddings-out", help="dump trial-utterance embeddings as text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count-params", help="trainable-parameter report for all modes")
    p.add_argument("--json", action="store_true")
    # the encoder seed draws weights, not shapes, so it changes no count
    _add_run_flags(p, [s for s in config_settings() if s.field.name in ("embed_dim", "bottleneck_dim")
                       or (s.part == "encoder" and s.field.name != "seed")])
    p.set_defaults(func=cmd_count_params)

    # compare and sweep-scale: one roster of runs per backbone
    for name, column, extra, help_text in (
        ("sweep-scale", "scale", ("mode", "bottleneck_dim"),
         "train/evaluate over scaling factors on each backbone"),
        ("compare", "mode", (), "train and evaluate every mode on each backbone"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--corpus", required=True)
        p.add_argument("--trials", required=True)
        p.add_argument("--backbone", required=True, action="append",
                       help="pretrained backbone checkpoint, whose encoder and seed every "
                            "run takes; repeat for one run per row each")
        if column == "scale":
            p.add_argument("--scales",
                           help="comma-separated sweep rows: numbers, 'sequential' or 'learnable'")
        p.add_argument("--json", action="store_true")
        _add_run_flags(p, [s for s in config_settings() if s.field.name in extra or (
            s.part is None and s.section != "data" and s.field.name not in ("mode", "seed"))])
        p.set_defaults(func=cmd_runs, column=column)

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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:  # stdout's reader has gone; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("data error: cannot write stdout: the reader closed the pipe", file=sys.stderr)
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
