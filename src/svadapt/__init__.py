"""svadapt: parameter-efficient adapter tuning of a frozen transformer
encoder for speaker verification, small enough to run on one CPU core.

The pieces, bottom up: `tensor` (float64 arrays with tape-based reverse-mode
differentiation), `backbone` (post-norm transformer encoder exposing every
layer's output), `adapters` (bottleneck adapters in sequential and
scaled-parallel form plus the layer-weighted bridge), `backend` (pooling,
embedding head, cosine scoring), `metrics` (EER / minDCF with brute-force
references), `synthdata` (deterministic synthetic speaker corpus), and
`harness`/`cli` (training runs, checkpoints, reports, sweeps).
"""

from .adapters import AdapterConfig, BottleneckAdapter, InterLayerAdapter
from .backbone import Encoder, EncoderConfig, PRESETS
from .backend import ClassifierHead, SVHead, SpeakerEmbedding, cosine_score
from .errors import ConfigError, DataError, NumericError, ParseError
from .harness import Checkpoint, MetricsReport, RunConfig, evaluate, pretrain_backbone, train
from .metrics import EvalResult, ScoreSet, Trial, compute_eer, compute_min_dcf
from .model import SVModel
from .optim import Adam, LrSchedule
from .synthdata import Corpus, CorpusConfig, generate_corpus, generate_trials
from .tensor import Param, Tape, Tensor, grad_check

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdapterConfig",
    "BottleneckAdapter",
    "Checkpoint",
    "ClassifierHead",
    "ConfigError",
    "Corpus",
    "CorpusConfig",
    "DataError",
    "Encoder",
    "EncoderConfig",
    "EvalResult",
    "InterLayerAdapter",
    "LrSchedule",
    "MetricsReport",
    "NumericError",
    "PRESETS",
    "Param",
    "ParseError",
    "RunConfig",
    "SVHead",
    "SVModel",
    "ScoreSet",
    "SpeakerEmbedding",
    "Tape",
    "Tensor",
    "Trial",
    "compute_eer",
    "compute_min_dcf",
    "cosine_score",
    "evaluate",
    "generate_corpus",
    "generate_trials",
    "grad_check",
    "pretrain_backbone",
    "train",
]
