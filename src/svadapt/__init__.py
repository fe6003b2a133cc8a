"""svadapt: parameter-efficient adapter tuning of a frozen transformer
encoder for speaker verification, small enough to run on one CPU core.

The modules, bottom up: `tensor` (float64 arrays with tape-based
reverse-mode differentiation), `backbone` (post-norm transformer encoder
exposing every layer's output), `adapters` (bottleneck adapters in
sequential and scaled-parallel form plus the layer-weighted bridge),
`backend` (pooling, embedding head, cosine scoring), `metrics` (EER /
minDCF with brute-force references), `synthdata` (deterministic synthetic
speaker corpus), and `harness`/`cli` (training runs, checkpoints, reports,
sweeps). Each name is imported from its own module.

Importing the package loads none of them; it only asks glibc to keep
freed heap in the process (`HEAP_KEPT` says whether it took): blocks under
32 MiB come from the heap, not from fresh mmaps, and free heap is returned
to the system only past 64 MiB. A training step frees and reallocates
megabytes of temporaries; with glibc's default, adaptive thresholds the
heap is trimmed after backward and its pages are faulted back in on the
next step, so step and read times swing with where long-lived blocks
happen to land.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h parameter numbers


def _keep_freed_heap() -> bool:
    """Pin glibc's mmap and trim thresholds; False where libc has no
    `mallopt` or refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)) and bool(mallopt(_M_TRIM_THRESHOLD, 64 << 20))


HEAP_KEPT = _keep_freed_heap()
