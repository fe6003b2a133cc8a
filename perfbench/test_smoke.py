"""Smoke test of the benchmark: a tiny configuration of every workload runs
in seconds, traced and untraced, with every check passing.

    python -m pytest perfbench/test_smoke.py

Nothing here asserts anything about wall-clock time.
"""

import json
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

PACKAGE = bench.load_package()  # puts src/ on sys.path for the imports below

TINY_ENCODER = (("num_layers", 2), ("hidden_dim", 8), ("num_heads", 2), ("ffn_dim", 16))


def tiny(plan):
    return replace(
        plan, speakers=6, utts_per_speaker=4, frames=(4, 6), encoder=TINY_ENCODER,
        embed_dim=8, bottleneck_dim=4, batch_size=4, train_steps=20,
        n_target=4, n_nontarget=4, setup_pretrain_steps=min(plan.setup_pretrain_steps, 2),
        checkpoint_repeats=min(plan.checkpoint_repeats, 2), setup_reps=2,
    )


TINY = {name: tiny(plan) for name, plan in bench.WORKLOADS.items()}


def run_tiny(workload, trace, tmp_path, capsys, want_code=0):
    code = bench.main(
        ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        plans=TINY, work_root=str(tmp_path / "work"),
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == want_code
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_and_every_check_passes(workload, trace, tmp_path, capsys):
    result, lines = run_tiny(workload, trace, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [line for line in lines if line.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(bench.PER_LAYER if trace else bench.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in [*expected.items(), *bench.QUALITY]:
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("machine {") for line in lines)
    assert any(line.startswith("operations: ") for line in lines)
    if not trace:  # one set-up in this process, the rest in fresh ones
        setup_line = next(line for line in lines if line.startswith("setup_s = "))
        assert f"(median of n={TINY[workload].setup_reps}," in setup_line
    assert not (tmp_path / "work").exists(), "the run leaves no files behind"


def test_missed_harness_binding_fails_the_trace_self_check(tmp_path, capsys, monkeypatch):
    """harness imports train_loss under its own name; a tracer that wraps
    only backend.train_loss must fail the self-check, not report zero."""
    from svadapt import harness

    install = tracing.Tracer.install

    def install_missing_binding(self):
        original = harness.train_loss
        install(self)
        harness.train_loss = original  # uninstall() restores it all the same

    monkeypatch.setattr(tracing.Tracer, "install", install_missing_binding)
    result, lines = run_tiny("adapt-inner-inter", 1, tmp_path, capsys)
    assert result["correct"] is False and result["failed"] >= 1
    failures = [line for line in lines if line.startswith("FAILED")]
    assert any("backend.train_loss under harness.train" in line for line in failures)


def test_an_operation_that_raises_ends_the_run_with_a_report(tmp_path, capsys, monkeypatch):
    from svadapt import harness

    def broken_evaluate(*_args, **_kwargs):
        raise RuntimeError("evaluate broke")

    monkeypatch.setattr(harness, "evaluate", broken_evaluate)
    result, lines = run_tiny("probe-inter", 0, tmp_path, capsys, want_code=1)
    # the first round's corpus round trip and train passed, then evaluate raised
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert {"setup_s", "train_ms_per_step", "corpus_read_s"} <= set(result["metrics"])
    assert "eval_ms_per_trial" not in result["metrics"]
    assert "operations: 3 attempted, 1 failed" in lines
    assert any(line.startswith("FAILED evaluate: raised") for line in lines)
    assert not (tmp_path / "work").exists()


def test_tracer_restores_every_binding():
    from svadapt import backend, harness, tensor

    before = (harness.train_loss, backend.train_loss, tensor.Tape.backward, harness.fnv1a64)
    with tracing.Tracer() as tracer:
        assert harness.train_loss is backend.train_loss is not before[0]
        assert tracer.primitives >= {"tensor.matmul", "tensor.add", "tensor.layer_norm"}
        assert "tensor.linear" not in tracer.primitives
    assert (harness.train_loss, backend.train_loss, tensor.Tape.backward, harness.fnv1a64) == before


def test_missing_package_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "SRC", str(tmp_path / "src"))
    argv = ["--workload", "pretrain-io", "--seed", "1", "--seconds", "1", "--trace", "0"]
    code = bench.main(argv)
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
