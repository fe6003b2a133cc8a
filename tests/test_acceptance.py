"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria that must be byte-reproducible (2, 6, 7) are implemented as pure
functions returning canonical JSON report strings; criterion 9 re-invokes
them and compares the bytes. Wall-clock timings never enter those reports.
"""

import json
import math
import struct
import time

import numpy as np
import pytest

from svadapt.adapters import AdapterConfig
from svadapt.backbone import EncoderConfig, PRESETS
from svadapt.backend import cosine_score
from svadapt.gradsuite import full_graph_grad_check
from svadapt.harness import (
    RunConfig,
    backbone_checkpoint,
    backbone_runs,
    count_params_table,
    evaluate,
    load_params,
    pretrain_backbone,
    run_and_report,
    sweep_configs,
    train,
)
from svadapt.metrics import (
    ScoreSet,
    compute_eer,
    compute_min_dcf,
    reference_eer,
    reference_min_dcf,
)
from svadapt.model import SVModel
from svadapt.synthdata import CorpusConfig, generate_corpus, generate_trials

pytestmark = pytest.mark.slow


def criterion(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def float_bits(x: float) -> str:
    return struct.pack("<d", x).hex()


# ---------------------------------------------------------------------------
# shared small-scale fixtures


MID_CORPUS = CorpusConfig(
    seed=3, num_speakers=16, utts_per_speaker=8, frames_min=10, frames_max=16,
    frame_dim=20,
)
TINY_ENCODER = EncoderConfig(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=24,
                             input_dim=10)
TINY_CORPUS = CorpusConfig(
    seed=4, num_speakers=6, utts_per_speaker=4, frames_min=6, frames_max=9,
    frame_dim=10,
)


@pytest.fixture(scope="module")
def mid_corpus():
    return generate_corpus(MID_CORPUS)


@pytest.fixture(scope="module")
def mid_backbone(mid_corpus, tmp_path_factory):
    from svadapt.harness import load_checkpoint

    path = tmp_path_factory.mktemp("acc") / "backbone.ckpt"
    cfg = RunConfig(mode="full-finetune", total_steps=60, warmup_steps=10, seed=0)
    pretrain_backbone(cfg, mid_corpus, out_path=path)
    return load_checkpoint(path)


# ---------------------------------------------------------------------------
# criterion implementations returning canonical reports


def step0_score_report(corpus, backbone_ckpt) -> str:
    """Scores of every mode at step 0 on 200 trials, as canonical JSON."""
    trials = generate_trials(corpus.part("adapt"), 100, 100, seed=2)
    by_id = corpus.by_id()

    def scores_for(mode, acfg):
        model = SVModel(EncoderConfig(), 32, mode, acfg, seed=11)
        load_params(model, backbone_ckpt, backbone_only=True)
        embs = {}
        out = []
        for t in trials:
            for u in (t.enroll, t.test):
                if u not in embs:
                    embs[u] = model.embed_np(by_id[u].frames)
            out.append(cosine_score(embs[t.enroll], embs[t.test]))
        return out

    payload = {
        "linear-probe": scores_for("linear-probe", None),
        "inner": scores_for("inner", AdapterConfig()),
        "inter": scores_for("inter", None),
        "inner-inter": scores_for("inner-inter", AdapterConfig()),
        "houlsby": scores_for("houlsby", AdapterConfig(variant="sequential")),
    }
    return json.dumps(payload, sort_keys=True)


def metric_oracle_report() -> str:
    """Fast-vs-brute-force metric agreement over 20 seeds x 1000 trials."""
    rows = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=1000)
        if labels.min() == labels.max():  # pragma: no cover - never at n=1000
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=1000) + 0.9 * labels
        s = ScoreSet(scores, labels)
        eer, thr = compute_eer(s)
        dcf = compute_min_dcf(s)
        ref_e, _ = reference_eer(scores.tolist(), labels.tolist())
        ref_d = reference_min_dcf(scores.tolist(), labels.tolist())
        rows.append(
            {
                "seed": seed,
                "eer": eer,
                "min_dcf": dcf,
                "eer_abs_err": abs(eer - ref_e),
                "dcf_abs_err": abs(dcf - ref_d),
            }
        )
    return json.dumps(rows, sort_keys=True)


DESK_SEEDS = (0, 1, 2)


def desk_experiment_report() -> str:
    """The desk-scale comparison: pretrain, then linear-probe vs inner-inter
    per seed on the default corpus; canonical JSON of everything asserted."""
    corpus = generate_corpus(CorpusConfig())
    trials = generate_trials(corpus.part("adapt"), 150, 150, seed=1)
    rows = []
    for seed in DESK_SEEDS:
        pre_cfg = RunConfig(
            mode="full-finetune", total_steps=300, warmup_steps=30, seed=seed
        )
        pre = pretrain_backbone(pre_cfg, corpus)
        backbone = backbone_checkpoint(pre.model)

        results = {}
        for mode, acfg in (
            ("linear-probe", None),
            ("inner-inter", AdapterConfig(bottleneck_dim=16, variant="parallel", scale=0.5)),
        ):
            cfg = RunConfig(
                mode=mode, adapter=acfg, total_steps=400, warmup_steps=40, seed=seed
            )
            run = train(cfg, backbone, corpus)
            res, _ = evaluate(run.model, corpus, trials)
            results[mode] = {
                "eer": res.eer,
                "min_dcf": res.min_dcf,
                "loss_first": run.losses[0],
                "loss_last": run.losses[-1],
            }
        rows.append(
            {
                "seed": seed,
                "pretrain_loss_step1": pre.losses[0],
                "pretrain_loss_step200": pre.losses[199],
                **results,
            }
        )
    return json.dumps(rows, sort_keys=True)


@pytest.fixture(scope="module")
def step0_report(mid_corpus, mid_backbone):
    return step0_score_report(mid_corpus, mid_backbone)


@pytest.fixture(scope="module")
def oracle_report():
    return metric_oracle_report()


@pytest.fixture(scope="module")
def desk_report():
    return desk_experiment_report()


# ---------------------------------------------------------------------------
# the nine criteria


class TestCriterion1Gradients:
    def test_full_graph_gradient_suite(self):
        started = time.perf_counter()
        worst = max(
            full_graph_grad_check("inner-inter", n_probes=100, h=1e-5, seed=0),
            full_graph_grad_check("houlsby", n_probes=100, h=1e-5, seed=0),
        )
        elapsed = time.perf_counter() - started
        criterion(
            1,
            worst <= 1e-4 and elapsed < 60.0,
            f"max relative gradient error {worst:.3e} (tol 1e-4) in {elapsed:.1f}s",
        )


class TestCriterion2IdentityAtInit:
    def test_step0_scores_equal_linear_probe(self, step0_report):
        payload = json.loads(step0_report)
        lp = np.array(payload["linear-probe"])
        worst = 0.0
        for mode in ("inner", "inter", "inner-inter", "houlsby"):
            worst = max(worst, float(np.abs(np.array(payload[mode]) - lp).max()))
        criterion(
            2,
            len(lp) == 200 and worst <= 1e-10,
            f"step-0 score deviation from linear-probe {worst:.2e} over 200 trials",
        )


class TestCriterion3ScaleZeroCollapse:
    def test_scale_zero_matches_no_adapter_bitwise(self, mid_corpus, mid_backbone):
        trials = generate_trials(mid_corpus.part("adapt"), 100, 100, seed=2)
        outcomes = []
        for mode, acfg in (
            ("linear-probe", None),
            ("inner", AdapterConfig(variant="parallel", scale=0.0)),
        ):
            cfg = RunConfig(mode=mode, adapter=acfg, total_steps=60, warmup_steps=10, seed=5)
            run = train(cfg, mid_backbone, mid_corpus)
            res, scores = evaluate(run.model, mid_corpus, trials)
            outcomes.append((res, scores))
        (base, base_scores), (zeroed, zero_scores) = outcomes
        same = (
            float_bits(base.eer) == float_bits(zeroed.eer)
            and float_bits(base.min_dcf) == float_bits(zeroed.min_dcf)
            and all(float_bits(a) == float_bits(b) for a, b in zip(base_scores, zero_scores))
        )
        criterion(
            3,
            same,
            f"s=0 metrics bitwise-equal to baseline (eer {zeroed.eer:.4f}, "
            f"minDCF {zeroed.min_dcf:.4f})",
        )


class TestCriterion4FrozenInvariance:
    def test_backbone_hash_across_2000_steps(self, tmp_path):
        from svadapt.harness import load_checkpoint

        corpus = generate_corpus(TINY_CORPUS)
        path = tmp_path / "bb.ckpt"
        pre_cfg = RunConfig(
            mode="full-finetune", encoder=TINY_ENCODER, embed_dim=8,
            total_steps=40, warmup_steps=8, batch_size=2, seed=0,
        )
        pretrain_backbone(pre_cfg, corpus, out_path=path)
        backbone = load_checkpoint(path)

        def hash_after(mode, acfg):
            cfg = RunConfig(
                mode=mode, encoder=TINY_ENCODER, embed_dim=8, adapter=acfg,
                total_steps=2000, warmup_steps=200, batch_size=2, seed=1,
            )
            return train(cfg, backbone, corpus).backbone_hash

        frozen_ok = all(
            hash_after(mode, acfg) == backbone.backbone_hash
            for mode, acfg in (
                ("linear-probe", None),
                ("weighted-sum", None),
                ("inter", None),
                ("inner", AdapterConfig(bottleneck_dim=4)),
                ("inner-inter", AdapterConfig(bottleneck_dim=4)),
                ("houlsby", AdapterConfig(bottleneck_dim=4, variant="sequential")),
            )
        )
        ft_changed = hash_after("full-finetune", None) != backbone.backbone_hash
        criterion(
            4,
            frozen_ok and ft_changed,
            "backbone hash fixed across 2000 steps in all six non-finetune modes, "
            "changed under full-finetune",
        )


class TestCriterion5ParameterAccounting:
    def test_preset_counts_and_breakdown(self):
        started = time.perf_counter()
        rows = {
            r["mode"]: r
            for r in count_params_table(RunConfig(encoder=PRESETS["wavlm-base-plus-dims"],
                                                  embed_dim=512,
                                                  adapter=AdapterConfig(bottleneck_dim=256)))
        }
        elapsed = time.perf_counter() - started
        inter_exact = rows["inter"]["trainable_pretrained_side"] == 394_764
        within = lambda got, expected: abs(got - expected) / expected <= 0.15
        inner_ok = within(rows["inner"]["trainable_pretrained_side"], 4.4e6)
        both_ok = within(rows["inner-inter"]["trainable_pretrained_side"], 4.8e6)
        houlsby_ok = within(rows["houlsby"]["trainable_pretrained_side"], 9.5e6)
        itemized = all(
            set(bd) == {"weight", "bias", "ln"}
            for r in rows.values()
            for bd in r["breakdown"].values()
        )
        criterion(
            5,
            inter_exact and inner_ok and both_ok and houlsby_ok and itemized
            and elapsed < 1.0,
            f"inter {rows['inter']['trainable_pretrained_side']:,} exact; "
            f"inner {rows['inner']['trainable_pretrained_side']:,}, "
            f"inner-inter {rows['inner-inter']['trainable_pretrained_side']:,}, "
            f"houlsby {rows['houlsby']['trainable_pretrained_side']:,} within 15%; "
            f"{elapsed * 1000:.0f} ms",
        )


class TestCriterion6MetricOracle:
    def test_oracle_agreement_and_edge_cases(self, oracle_report):
        rows = json.loads(oracle_report)
        worst = max(max(r["eer_abs_err"], r["dcf_abs_err"]) for r in rows)
        perfect = ScoreSet([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        inverted = ScoreSet([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        eer_p, _ = compute_eer(perfect)
        eer_i, _ = compute_eer(inverted)
        edges = (
            eer_p == 0.0
            and compute_min_dcf(perfect) == 0.0
            and eer_i == 1.0
            and compute_min_dcf(inverted) == 1.0
        )
        criterion(
            6,
            len(rows) == 20 and worst <= 1e-9 and edges,
            f"oracle deviation {worst:.2e} over 20x1000 trials; edge cases exact",
        )


class TestCriterion7DeskScaleLearning:
    def test_adapters_beat_linear_probe(self, desk_report):
        started = time.perf_counter()
        rows = json.loads(desk_report)
        lp = float(np.median([r["linear-probe"]["eer"] for r in rows]))
        adapted = float(np.median([r["inner-inter"]["eer"] for r in rows]))
        pretrain_ok = float(
            np.median(
                [r["pretrain_loss_step200"] - r["pretrain_loss_step1"] for r in rows]
            )
        ) < 0.0
        loss_halved = float(
            np.median(
                [r["inner-inter"]["loss_last"] / r["inner-inter"]["loss_first"] for r in rows]
            )
        ) < 0.5
        criterion(
            7,
            adapted < lp and adapted < 0.25 and pretrain_ok and loss_halved,
            f"median EER inner-inter {adapted:.3f} < linear-probe {lp:.3f}, "
            f"< 0.25; pretrain and adapter losses fall",
        )


class TestCriterion8SweepProtocol:
    def test_full_roster_with_populated_metrics(self, tmp_path):
        corpus = generate_corpus(TINY_CORPUS)
        trials = generate_trials(corpus.part("adapt"), 12, 12, seed=3)
        path = tmp_path / "bb.ckpt"
        # the sweep runs take the encoder and the seed (2) of the backbone
        pre_cfg = RunConfig(
            mode="full-finetune", encoder=TINY_ENCODER, embed_dim=8,
            total_steps=30, warmup_steps=6, batch_size=2, seed=2,
        )
        pretrain_backbone(pre_cfg, corpus, out_path=path)
        cfg = RunConfig(
            mode="inner-inter", embed_dim=8, adapter=AdapterConfig(bottleneck_dim=4),
            total_steps=40, warmup_steps=8, batch_size=2,
        )
        runs = backbone_runs(sweep_configs(cfg), [path])
        reports = [run_and_report(row, backbone, corpus, trials) for backbone, _label, row in runs]
        roster = [label for _backbone, label, _row in runs]
        expected = ["sequential", "learnable", "0.05", "0.1", "0.5", "1", "1.5", "2"]
        # each report ran the adapter its label names
        adapters = [(r.adapter["variant"], r.adapter["scale"]) for r in reports]
        expected_adapters = [("sequential", None), ("parallel", "learnable")] + [
            ("parallel", s) for s in (0.05, 0.1, 0.5, 1.0, 1.5, 2.0)]
        populated = all(
            math.isfinite(r.eer) and math.isfinite(r.min_dcf) for r in reports
        )
        criterion(
            8,
            roster == expected and adapters == expected_adapters and populated,
            f"sweep roster {roster} with populated EER/minDCF",
        )


class TestCriterion9Determinism:
    def test_reports_are_byte_identical_on_rerun(
        self, mid_corpus, mid_backbone, step0_report, oracle_report, desk_report
    ):
        again2 = step0_score_report(mid_corpus, mid_backbone)
        again6 = metric_oracle_report()
        again7 = desk_experiment_report()
        criterion(
            9,
            step0_report == again2 and oracle_report == again6 and desk_report == again7,
            "criteria 2, 6 and 7 reports byte-identical on rerun with the same seeds",
        )
