"""Golden bits: a tiny 3-step pretrain, then a 3-step tuning run and an
evaluation in each of the seven modes plus a learnable-scale and a
sequential inner-inter run.

The sha256 digests (first 16 hex digits) of the losses' `repr`, the trial
scores' `repr`, the `EvalResult` `repr` and the checkpoint bytes are pinned.
A change that is meant to keep every number (a faster kernel, less
bookkeeping) must leave them all; a change that moves numbers on purpose
re-pins them and says why.

The determinism contract: losses, scores, metrics and checkpoint bytes are
a function of the run config, the corpus bytes, the backbone bytes and the
numpy/BLAS build. Matrix products go through the BLAS numpy is built with,
so another numpy/BLAS build may round differently and need its own pins.
Results do not depend on the BLAS thread count:
`test_pins_hold_at_every_blas_thread_count` recomputes every digest in
fresh processes whose OpenBLAS/OpenMP thread count is set before numpy is
imported. Results do not depend on whether a process is fresh or reused,
either: the in-process tests and the child processes give the same pins.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from svadapt.adapters import AdapterConfig
from svadapt.backbone import EncoderConfig
from svadapt.harness import RunConfig, evaluate, load_checkpoint, pretrain_backbone, train
from svadapt.synthdata import CorpusConfig, generate_corpus, generate_trials

ENCODER = EncoderConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=48, input_dim=10)
CORPUS = CorpusConfig(
    seed=4, num_speakers=8, utts_per_speaker=6, frames_min=2, frames_max=40, frame_dim=10
)
CONFIGS = {
    "full-finetune": ("full-finetune", None),
    "linear-probe": ("linear-probe", None),
    "weighted-sum": ("weighted-sum", None),
    "houlsby": ("houlsby", None),
    "inner": ("inner", None),
    "inter": ("inter", None),
    "inner-inter": ("inner-inter", None),
    "inner-inter-learnable": ("inner-inter", AdapterConfig(scale="learnable")),
    "inner-inter-sequential": ("inner-inter", AdapterConfig(variant="sequential")),
}

# name -> (losses, scores, EvalResult, checkpoint); the pretrain run has no
# evaluation. The checkpoint digests are those of format version 4, whose
# backbone hash is fnv1a64 of the backbone bytes' sha256 and whose seal is
# that sha256 fed on with every other byte before it.
PINNED = {
    "pretrain": ("70046e8cd56e7b6d", "f4f86d6240dba4d2"),
    "full-finetune": ("1244f0eea8c585f8", "e5e77895a11fb313", "eb5dcf9d13399280", "7bca7176d17c542c"),
    "houlsby": ("f261299c5a32266b", "4bcc6737144f7f25", "54689547ace8aaf9", "42a0a679c0642ff4"),
    "inner": ("b3c2b68884446639", "870fb5b4cb960105", "81fe27ce784e8db5", "3c0cb1ed4bc9b883"),
    "inner-inter": ("c80b49d0617b76f4", "2c5d5563b74b1e28", "4b71ccc600f9233a", "0ed6db7fedbff338"),
    "inner-inter-learnable": ("3733b4cc0a2ebf75", "ca223b2773fc881c", "73ceb69d981baa92", "b200c79ad881b670"),
    "inner-inter-sequential": ("a1c5a7a5f651829b", "70df7df4222664f6", "7097fc3e6407757d", "1dbbbe48277ebf4b"),
    "inter": ("34435e9ab859809c", "3aa3a713899b9cd9", "067fe14e29951752", "a1155cfd7b27eaf0"),
    "linear-probe": ("d14a9be925a9c5eb", "b96cbe032c1f9d08", "f277108852ffe215", "06dc6a7bb85c788b"),
    "weighted-sum": ("d0b8eb7ff6188739", "fa889f1fa4c86e5a", "d9db3085ad1e4cfd", "1103a01f9a441823"),
}


def run_config(mode, adapter=None):
    return RunConfig(
        mode=mode, encoder=ENCODER, embed_dim=8, adapter=adapter, total_steps=3,
        warmup_steps=1, batch_size=4, seed=2, lr_head=1e-2, lr_other=1e-2,
    )


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CORPUS)


def pretrain_digests(corpus, path) -> tuple:
    run = pretrain_backbone(run_config("full-finetune"), corpus, out_path=path)
    return digest(run.losses), digest(path.read_bytes())


def tuning_digests(name, corpus, backbone_path, path) -> tuple:
    mode, adapter = CONFIGS[name]
    run = train(run_config(mode, adapter), load_checkpoint(backbone_path), corpus, out_path=path)
    trials = generate_trials(corpus.part("adapt"), 30, 30, seed=1)
    result, scores = evaluate(run.model, corpus, trials)
    return digest(run.losses), digest(scores), digest(result), digest(path.read_bytes())


def all_digests(workdir: Path) -> dict:
    """Every pinned digest, computed from scratch in `workdir`."""
    corpus = generate_corpus(CORPUS)
    backbone = workdir / "backbone.ckpt"
    got = {"pretrain": pretrain_digests(corpus, backbone)}
    for name in sorted(CONFIGS):
        got[name] = tuning_digests(name, corpus, backbone, workdir / "run.ckpt")
    return got


@pytest.fixture(scope="module")
def pretrained(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "backbone.ckpt"
    return pretrain_digests(corpus, path), path


def test_pretrain(pretrained):
    assert pretrained[0] == PINNED["pretrain"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_tuning_run(name, corpus, pretrained, tmp_path):
    assert tuning_digests(name, corpus, pretrained[1], tmp_path / "run.ckpt") == PINNED[name]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pins_hold_at_every_blas_thread_count(threads):
    import svadapt

    src = str(Path(svadapt.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    got = {name: tuple(pins) for name, pins in json.loads(child.stdout).items()}
    assert got == PINNED


if __name__ == "__main__":
    # the child process of test_pins_hold_at_every_blas_thread_count
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps(all_digests(Path(workdir))))
