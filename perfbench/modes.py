#!/usr/bin/env python3
"""Per-mode training-step breakdown, for the baseline table in README.md.

    python3 perfbench/modes.py [--seed N] [--steps S]

Run from the repository root. For each of the seven tuning modes, trains S
steps on the default corpus from a short-pretrained desk backbone, once
untraced (wall ms per step, also at the reference speed of run.py) and once
with the benchmark's tracer, and prints a markdown table: traced ms per
step split into forward (embed + loss), backward (`Tape.backward`) and
optimizer (`Adam.step` + `zero_grad`), and tape ops per step.
"""

import argparse
import sys

import run as bench
from tracer import Tracer

ROSTER = (
    "full-finetune", "linear-probe", "weighted-sum", "inter", "inner", "inner-inter", "houlsby",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=30)
    args = ap.parse_args(argv)
    pkg = bench.load_package()
    if pkg is None:
        print(f"modes: no svadapt package under {bench.SRC}", file=sys.stderr)
        return 2
    h, sd, ad = pkg["harness"], pkg["synthdata"], pkg["adapters"]
    enc = pkg["EncoderConfig"](seed=args.seed)
    corpus = sd.generate_corpus(sd.CorpusConfig(seed=args.seed))
    pre = h.pretrain_backbone(h.RunConfig(mode="full-finetune", encoder=enc, total_steps=6,
                                          warmup_steps=1, seed=args.seed), corpus)
    backbone = h.backbone_checkpoint(pre.model)
    s = args.steps
    print("| mode | wall ms/step | ref ms/step | fwd | bwd | opt | tape ops |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for mode in ROSTER:
        adapter = None
        if mode in ad.INNER_MODES:
            adapter = ad.AdapterConfig(variant="sequential" if mode == "houlsby" else "parallel")
        cfg = h.RunConfig(mode=mode, adapter=adapter, encoder=enc, total_steps=s,
                          warmup_steps=1, lr_head=5e-3, seed=args.seed)
        _run, (wall, ref) = bench.stopwatch("numpy", h.train, cfg, backbone, corpus)
        with Tracer() as tracer:
            tracer.active = True
            h.train(cfg, backbone, corpus)
            tracer.active = False
            table = tracer.table()
            tape_ops = tracer.counts[("harness.train", "tape_ops")]

        def ms(*names):
            return sum(table.get(("harness.train", n), (0, 0.0))[1] for n in names) * 1e3 / s

        print(f"| {mode} | {wall * 1e3 / s:.1f} | {ref * 1e3 / s:.1f} "
              f"| {ms('model.SVModel.embed', 'backend.train_loss'):.1f} "
              f"| {ms('tensor.Tape.backward'):.1f} "
              f"| {ms('optim.Adam.step', 'optim.Adam.zero_grad'):.1f} "
              f"| {tape_ops / s:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
